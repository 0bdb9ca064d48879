import pytest

from quditqec.classical import certify_radius
from quditqec.codes import builtin, classical_conv_encode
from quditqec.errors import additive_flip, enumerate_family
from quditqec.verifier import kl_check


def corrupt(word, positions, values, n):
    out = list(word)
    for pos, off in zip(positions, values):
        out[pos - 1] = (out[pos - 1] + off) % n
    return tuple(out)


def test_binary_radius_certified():
    report = certify_radius(2, 4)
    assert report.passed
    assert report.counterexample is None
    assert report.window == 4 and report.max_errors == 1
    assert report.messages_checked == 2 + 4 + 8 + 16
    assert report.corruptions_checked > 0


def test_ternary_radius_certified():
    report = certify_radius(3, 3)
    assert report.passed
    assert report.n_levels == 3


def test_doubled_density_fails_with_verified_counterexample():
    report = certify_radius(2, 4, window=4, max_errors=2)
    assert not report.passed
    ce = report.counterexample
    assert ce is not None
    assert ce.message != ce.rival_message
    assert len(ce.message) == len(ce.rival_message)
    word_a = classical_conv_encode(ce.message, 2)
    word_b = classical_conv_encode(ce.rival_message, 2)
    assert corrupt(word_a, ce.positions, ce.values, 2) == ce.word
    assert corrupt(word_b, ce.rival_positions, ce.rival_values, 2) == ce.word


def test_report_json_shape():
    passing = certify_radius(2, 2).to_json()
    assert passing["verdict"] == "pass"
    assert passing["counterexample"] is None
    failing = certify_radius(2, 3, max_errors=2).to_json()
    assert failing["verdict"] == "fail"
    ce = failing["counterexample"]
    assert set(ce) == {"message", "corruption", "rival_message",
                       "rival_corruption", "corrupted_word"}


def test_domain_errors():
    with pytest.raises(ValueError):
        certify_radius(1, 4)
    with pytest.raises(ValueError):
        certify_radius(2, 0)
    with pytest.raises(ValueError):
        certify_radius(2, 9)
    with pytest.raises(ValueError, match="window must satisfy"):
        certify_radius(2, 2, window=0)
    with pytest.raises(ValueError, match="max_errors must be nonnegative"):
        certify_radius(2, 2, max_errors=-1)


def test_determinism():
    a = certify_radius(2, 3, max_errors=2).to_json()
    b = certify_radius(2, 3, max_errors=2).to_json()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_matches_quantum_flip_verdict():
    # the certified classical radius is the flip-only recoverability of
    # the quantized stream code over the same window
    report = certify_radius(2, 2)
    code = builtin("spin_conv", 2, 2)
    family = enumerate_family(code.width, 4, 1, basis=(additive_flip(1),))
    assert kl_check(code, family).passed == report.passed
