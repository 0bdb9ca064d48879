"""The benchmark's reference computations against the repository's referees.

    python3 -m pytest perfbench -q

The dense evaluator is compared with ``tests/dense_oracle.py`` on the small
codes of acceptance criterion 11; the support counter with family sizes
counted by hand and by the package; the collision test, the stream encoder
and the corruption count with the package's classical layer.
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import checkers as C  # noqa: E402
from dense_oracle import dense_kl_check, pattern_matrix  # noqa: E402
from quditqec import (additive_flip, builtin, certify_radius,  # noqa: E402
                      classical_conv_encode, dualize, enumerate_family,
                      kl_check, weyl)
from quditqec.codes import build_identity_code, perfect5_block  # noqa: E402

TOL = 1e-9


def weyl_ops(pattern):
    return tuple((pos, op.a, op.b) for pos, op in pattern.ops)


def dense_stack(code):
    return np.stack([C.dense_ket(code.encoded_kets[w].to_complex_terms(),
                                 code.n_levels, code.width)
                     for w in code.logical_windows()])


CRITERION_11 = [
    (lambda: builtin("majority3", 2, 1), 3),
    (lambda: builtin("majority3", 2, 2), 3),
    (lambda: dualize(builtin("majority3", 2, 1)), 3),
    (lambda: builtin("spin_conv", 2, 1), 4),
    (lambda: build_identity_code(2, 4), 4),
    (lambda: perfect5_block(2), 5),
]


@pytest.mark.parametrize("make, window", CRITERION_11)
def test_evaluator_matches_dense_oracle(make, window):
    code = make()
    family = enumerate_family(code.width, window, 1, n_levels=2)
    patterns = list(family)
    kets = dense_stack(code)
    size = len(patterns)
    lam = np.zeros((size, size), dtype=complex)
    worst = 0.0
    for a, b in itertools.product(range(size), repeat=2):
        gram = C.overlap_matrix(kets, weyl_ops(patterns[a]),
                                weyl_ops(patterns[b]), 2)
        worst = max(worst, C.kl_deviation(gram))
        lam[a, b] = gram[0, 0]
    verdict, oracle_lam, _ = dense_kl_check(code, family)
    assert ("pass" if worst <= TOL else "fail") == verdict
    if verdict == "pass":
        assert np.abs(lam - oracle_lam).max() < TOL


@pytest.mark.parametrize("n, width", [(2, 4), (3, 3)])
def test_apply_weyl_matches_kronecker_product(n, width):
    rng = np.random.default_rng(5)
    family = enumerate_family(width, 1, 1, n_levels=n)
    vec = rng.normal(size=n ** width) + 1j * rng.normal(size=n ** width)
    for pattern in itertools.islice(family, 0, None, 7):
        expected = pattern_matrix(pattern, n) @ vec
        got = C.apply_weyl(vec.reshape((n,) * width), weyl_ops(pattern), n)
        assert np.allclose(got.ravel(), expected)


def test_family_size_by_hand():
    # shor9 at N=2, window 9: the identity and 9 positions x 3 operators
    assert C.count_family(9, 9, 1, 3) == 1 + 9 * 3 == 28
    assert len(enumerate_family(9, 9, 1, n_levels=2)) == 28


@pytest.mark.parametrize("width, window, max_errors, n", [
    (16, 8, 1, 2), (15, 5, 1, 2), (10, 5, 1, 3), (8, 4, 1, 3),
    (12, 4, 2, 2), (6, 1, 1, 2), (9, 3, 2, 3)])
def test_family_size_against_package(width, window, max_errors, n):
    family = enumerate_family(width, window, max_errors, n_levels=n)
    assert C.count_family(width, window, max_errors, n * n - 1) == len(family)
    listed = sum(1 for s in C.supports(width, window, max_errors)
                 for _ in itertools.product(range(n * n - 1), repeat=len(s))) \
        if width <= 12 else len(family)
    assert listed == len(family)


@pytest.mark.parametrize("n", [2, 3])
def test_stream_encoder_matches_package(n):
    for length in range(1, 5):
        for msg in itertools.product(range(n), repeat=length):
            assert C.stream_encode(msg, n) == classical_conv_encode(msg, n)


@pytest.mark.parametrize("label, n, L, window", [
    ("majority3", 2, 2, 3), ("majority3", 3, 1, 3), ("majority3", 2, 1, 1),
    ("spin_conv", 2, 2, 4), ("spin_conv", 3, 1, 4), ("spin_conv", 2, 1, 1)])
def test_collision_test_matches_verifier(label, n, L, window):
    code = builtin(label, n, L)
    words = C.codewords(label, n, L)
    assert {w: code.encoded_kets[w].to_complex_terms() for w in words} == \
        {w: {word: 1} for w, word in words.items()}
    flips = enumerate_family(code.width, window, 1, basis=tuple(
        additive_flip(a) for a in range(1, n)))
    phases = enumerate_family(code.width, window, 1, basis=tuple(
        weyl(0, b) for b in range(1, n)))
    collide = C.flip_collision(words, n, window, 1)
    assert kl_check(code, flips).passed == (not collide)
    assert kl_check(dualize(code), phases).passed == (not collide)


@pytest.mark.parametrize("n, max_len", [(2, 5), (3, 3)])
def test_radius_corruptions_match_certificate(n, max_len):
    report = certify_radius(n, max_len)
    assert report.passed
    assert C.radius_corruptions(n, max_len, 4, 1) == \
        (report.messages_checked, report.corruptions_checked)


def test_dual_amplitudes_match_dualize():
    code = builtin("spin_conv", 3, 1)
    dual = dualize(code)
    words = C.codewords("spin_conv", 3, 1)
    for i, w in enumerate(dual.logical_windows()):
        assert np.allclose(dense_stack(dual)[i],
                           C.dual_amplitudes(words[w], 3))


def test_in_window():
    assert C.in_window((6, 15), 8, 1)
    assert not C.in_window((6, 13), 8, 1)
    assert C.in_window((1, 2, 9), 8, 2)
    assert not C.in_window((1, 2, 8), 8, 2)
