import cmath
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from quditqec.cyclotomic import (PhaseScalar, cyclotomic_polynomial,
                                 residue_matrix, root_of_unity)


def test_root_of_unity_values():
    assert root_of_unity(2, 1).equals(PhaseScalar.from_complex(-1))
    assert root_of_unity(4, 1).equals(PhaseScalar.from_complex(1j))
    assert root_of_unity(3, 3).equals(PhaseScalar.exact_one(3))


def test_root_of_unity_periodicity():
    for n in (2, 3, 5):
        for e in range(-2 * n, 2 * n):
            a = root_of_unity(n, e)
            b = root_of_unity(n, e + n)
            assert (a - b).is_zero()


def test_root_of_unity_rejects_small_n():
    with pytest.raises(ValueError):
        root_of_unity(1, 0)
    with pytest.raises(ValueError):
        PhaseScalar.monomial(0, 1, 0)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_residue_matrix_reduces_every_power():
    for order in range(4, 15, 2):
        rows = residue_matrix(order)
        degree = len(cyclotomic_polynomial(order)) - 1
        assert rows.shape == (order, degree) and rows.dtype == np.int64
        roots = np.exp(2j * np.pi * np.arange(degree) / order)
        for d in range(order):
            assert abs(rows[d] @ roots - cmath.exp(2j * cmath.pi * d / order)) \
                < 1e-12
        # 1 + w^2 + ... + w^(order - 2) is zero whenever order / 2 > 1
        assert not rows[::2].sum(axis=0).any()
    assert not residue_matrix(6).flags.writeable


def test_parts_expose_coefficients_and_half():
    value = PhaseScalar.monomial(3, Fraction(1, 2), 4, 1)
    coeffs, half = value.parts
    assert coeffs == {4: Fraction(1, 2)} and half == 1
    coeffs[0] = Fraction(7)
    assert value.parts[0] == {4: Fraction(1, 2)}
    assert PhaseScalar.from_complex(0.5j).parts is None


def test_exact_cancellation():
    """1 + w3 + w3^2 = 0 must be decided symbolically, not numerically."""
    total = PhaseScalar.exact_zero(3)
    for e in range(3):
        total = total + root_of_unity(3, e)
    assert total.is_exact
    assert total.is_zero()


def test_negative_scale_folds_into_phase():
    value = PhaseScalar.monomial(2, -1, 0)
    assert value.equals(PhaseScalar.from_complex(-1))
    assert value.is_exact


def test_multiplication_adds_exponents():
    for n in (2, 3, 4):
        for e1 in range(2 * n):
            for e2 in range(2 * n):
                prod = PhaseScalar.monomial(n, 1, e1) * PhaseScalar.monomial(n, 1, e2)
                assert (prod - PhaseScalar.monomial(n, 1, e1 + e2)).is_zero()


def test_conjugate_negates_exponent():
    value = PhaseScalar.monomial(3, Fraction(2, 5), 4)
    expected = cmath.exp(-2j * math.pi * 4 / 6) * 0.4
    assert abs(value.conjugate().to_complex() - expected) < 1e-12


def test_half_powers_fold():
    # two sqrt(N) factors collapse to a rational 1/N
    value = PhaseScalar.monomial(2, 1, 0, half=2)
    assert value.equals(PhaseScalar.monomial(2, Fraction(1, 2), 0, half=0))
    # square N folds a single half power
    value = PhaseScalar.monomial(4, 1, 0, half=1)
    assert value.equals(PhaseScalar.monomial(4, Fraction(1, 2), 0, half=0))


def test_mixed_half_addition_degrades_to_float():
    a = PhaseScalar.exact_one(2)
    b = PhaseScalar.monomial(2, 1, 0, half=1)
    total = a + b
    assert not total.is_exact
    assert abs(total.to_complex() - (1 + 1 / math.sqrt(2))) < 1e-12


def test_div_sqrt_exact_paths():
    one = PhaseScalar.exact_one(2)
    assert one.div_sqrt(Fraction(4)).equals(
        PhaseScalar.monomial(2, Fraction(1, 2), 0))
    half_power = one.div_sqrt(Fraction(2))
    assert half_power.is_exact
    assert abs(half_power.to_complex() - 1 / math.sqrt(2)) < 1e-12
    # N * square stays exact too
    value = one.div_sqrt(Fraction(8))
    assert value.is_exact
    assert abs(value.to_complex() - 1 / math.sqrt(8)) < 1e-12
    with pytest.raises(ValueError):
        one.div_sqrt(Fraction(-1))


def test_abs_sq_fraction():
    assert root_of_unity(5, 2).abs_sq_fraction() == 1
    scaled = PhaseScalar.monomial(3, Fraction(2, 3), 1)
    assert scaled.abs_sq_fraction() == Fraction(4, 9)
    assert PhaseScalar.from_complex(0.5).abs_sq_fraction() is None


def test_float_agreement_randomized():
    """Exact-to-float conversion tracks direct complex arithmetic to 1e-12."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        order = 2 * n
        e1, e2 = int(rng.integers(order)), int(rng.integers(order))
        num = int(rng.integers(1, 9))
        den = int(rng.integers(1, 9))
        a = PhaseScalar.monomial(n, Fraction(num, den), e1)
        b = PhaseScalar.monomial(n, 1, e2, half=1)
        direct_a = (num / den) * cmath.exp(2j * math.pi * e1 / order)
        direct_b = cmath.exp(2j * math.pi * e2 / order) / math.sqrt(n)
        assert abs(a.to_complex() - direct_a) < 1e-12
        assert abs((a * b).to_complex() - direct_a * direct_b) < 1e-12
        assert abs((a + a).to_complex() - 2 * direct_a) < 1e-12
        assert abs((a - a).to_complex()) < 1e-12


def test_equals_crosses_exact_and_float():
    exact = root_of_unity(4, 1)
    assert exact.equals(PhaseScalar.from_complex(1j))
    assert not exact.equals(PhaseScalar.from_complex(-1j))
    assert exact.equals(PhaseScalar.from_complex(1j + 1e-8), tol=1e-6)


def test_mixing_levels_raises():
    with pytest.raises(ValueError):
        root_of_unity(2, 1) + root_of_unity(3, 1)
    with pytest.raises(ValueError):
        root_of_unity(2, 1) * root_of_unity(3, 1)


def test_scalar_multiplication_by_numbers():
    value = root_of_unity(3, 1)
    assert (value * 0).is_zero()
    assert (2 * value).equals(value + value)
    assert not (value * 0.5).is_exact
    assert (value * Fraction(1, 2)).is_exact


def test_cached_float_leaves_exact_behaviour_unchanged():
    def fresh():
        return [PhaseScalar.monomial(3, Fraction(-1, 2), 1, 1),
                PhaseScalar.monomial(3, 1, 2, 1) + PhaseScalar.monomial(3, 1, 4, 1),
                PhaseScalar.monomial(3, 3, 5, 0), PhaseScalar.exact_zero(3)]
    before, after = fresh(), fresh()
    values = [a.to_complex() for a in after]
    for a, b, z in zip(after, before, values):
        assert a.to_complex() == b.to_complex() == z
        assert a.is_exact and a._coeffs == b._coeffs and a._half == b._half
        assert a.is_zero() == b.is_zero()
        assert a.equals(b) and b.equals(a)
    for a, b in zip(after, before):
        for c, d in zip(after, before):
            for op in ("__add__", "__sub__", "__mul__"):
                x, y = getattr(a, op)(c), getattr(b, op)(d)
                assert x.is_exact == y.is_exact
                assert x._coeffs == y._coeffs and x._half == y._half
        for x, y in ((-a, -b), (a.conjugate(), b.conjugate()), (a * 3, b * 3),
                     (a.div_sqrt(Fraction(3)), b.div_sqrt(Fraction(3)))):
            assert x._coeffs == y._coeffs and x._half == y._half
        assert a.abs_sq_fraction() == b.abs_sq_fraction()
    # the cached float is not pickled
    assert [pickle.dumps(a) for a in after] == [pickle.dumps(b) for b in before]
