import tracemalloc

import numpy as np
import pytest

from quditqec.classical import (_codewords, _corruptions, _first_collision,
                                _first_repeat, _keys, certify_radius)
from quditqec.codes import builtin, classical_conv_encode
from quditqec.errors import additive_flip, enumerate_family, iter_supports
from quditqec.verifier import kl_check
from radius_oracle import oracle_certify_radius


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
    for args, kwargs, name in [((True, 2), {}, "n_levels"),
                               ((2.0, 2), {}, "n_levels"),
                               ((2, True), {}, "message_len_max"),
                               ((2, 2.5), {}, "message_len_max"),
                               ((2, 2), {"window": 4.0}, "window"),
                               ((2, 2), {"window": False}, "window"),
                               ((2, 2), {"max_errors": True}, "max_errors"),
                               ((2, 2), {"max_errors": 1.0}, "max_errors")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            certify_radius(*args, **kwargs)
    # 1499^6 offset tuples on the full support of a length-1 word
    with pytest.raises(MemoryError, match="do not fit in memory"):
        certify_radius(1500, 1, window=1)


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


def _without_time(report):
    out = report.to_json()
    del out["elapsed_seconds"]
    return out


ORACLE_GRID = [(n, length, window, t) for n in (2, 3) for length in range(1, 6)
               for window in range(1, 6) for t in range(3)] + \
    [(4, 4, 4, 1), (5, 3, 4, 1), (5, 3, 4, 2), (2, 8, 4, 1)]


@pytest.mark.parametrize("n, length, window, max_errors", ORACLE_GRID)
def test_matches_dict_oracle(n, length, window, max_errors):
    args = (n, length, window, max_errors)
    assert _without_time(certify_radius(*args)) == \
        _without_time(oracle_certify_radius(*args))


def test_oracle_grid_holds_collisions_past_the_first_length():
    # the counts of a failure carry the totals of every passing length
    # before it; the grid must exercise that offset
    for n in (2, 3):
        assert (n, 5, 3, 1) in ORACLE_GRID
        report = oracle_certify_radius(n, 5, window=3, max_errors=1)
        assert not report.passed and len(report.counterexample.message) == 4
        assert report.messages_checked > n + n ** 2 + n ** 3


def corruption_count(n, word_len, window, max_errors):
    return sum((n - 1) ** len(s)
               for s in iter_supports(word_len, window, max_errors))


REFEREE_PAIRS = 2 * 10 ** 5
# a case is kept when at least its length-1 table is within reach
REFEREE_GRID = [(n, window, t) for n in (2, 3, 4, 5, 7)
                for window in range(1, 7) for t in range(3)
                if n * corruption_count(n, 6, window, t) <= REFEREE_PAIRS]


@pytest.mark.parametrize("n, window, max_errors", REFEREE_GRID)
def test_coset_residues_match_the_full_pair_table(n, window, max_errors):
    # at every length whose full (message, corruption) table stays small,
    # the residue pass must find the full table's first repeated key and
    # its first occurrence, at the full table's columns m*C + c
    length = 1
    while True:
        _, _, positions, offsets = _corruptions(
            n, 2 * (length + 2), window, max_errors)
        if n ** length * len(positions) > REFEREE_PAIRS:
            break
        words = _codewords(n, length)
        assert _first_collision(n, length, positions, offsets) == \
            _first_repeat(_keys(n, words, positions, offsets))
        length += 1


@pytest.mark.parametrize("n, max_len", [(4, 7), (3, 8)])
def test_lengths_past_the_pair_table_pass_in_small_memory(n, max_len):
    # 3.4e8 and 8.1e7 (message, corruption) pairs: the full key table
    # would take gigabytes, the residues of the corruptions do not
    tracemalloc.start()
    try:
        report = certify_radius(n, max_len)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lengths = range(1, max_len + 1)
    assert report.passed and report.counterexample is None
    assert report.messages_checked == sum(n ** L for L in lengths)
    assert report.corruptions_checked == sum(
        n ** L * corruption_count(n, 2 * (L + 2), 4, 1) for L in lengths)
    assert peak < 64 * 2 ** 20


def test_keys_past_int64_stay_exact():
    # 1500^6 > 2^63: one int64 cannot hold a length-1 word's key
    report = certify_radius(1500, 1, max_errors=0)
    assert report.passed
    assert report.messages_checked == report.corruptions_checked == 1500
    assert _without_time(report) == \
        _without_time(oracle_certify_radius(1500, 1, max_errors=0))


def test_first_repeat_compares_every_key_row():
    keys = np.array([[5, 5, 7, 5, 7],
                     [1, 2, 3, 2, 3]])
    # column 3 repeats column 1; column 4 repeats column 2 but comes later
    assert _first_repeat(keys) == (3, 1)
    assert _first_repeat(keys[:, :3]) is None
