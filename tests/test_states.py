import math
from fractions import Fraction

import numpy as np
import pytest

from quditqec.cyclotomic import PhaseScalar, root_of_unity
from quditqec.errors import additive_flip, phase_shift, weyl
from quditqec.states import (RegisterState, apply_single, dft_register,
                             index_of_ket, inner_product, ket_of_index,
                             plus_state, states_equal_up_to_phase)


def random_state(rng, n, width, terms=4):
    """Sparse float-amplitude state, normalized."""
    state = None
    for _ in range(terms):
        digits = tuple(int(rng.integers(n)) for _ in range(width))
        amp = complex(rng.normal(), rng.normal())
        piece = RegisterState(n, width,
                              {digits: PhaseScalar.from_complex(amp)})
        state = piece if state is None else state + piece
    return state.normalized()


def test_index_bijection_exhaustive():
    for n, width in ((2, 6), (3, 4), (5, 3), (4, 2)):
        for x in range(n ** width):
            ket = ket_of_index(x, n, width)
            assert len(ket) == width
            assert all(0 <= d < n for d in ket)
            assert index_of_ket(ket, n) == x


def test_index_is_big_endian():
    # leftmost register is the most significant digit
    assert index_of_ket((1, 0, 0), 2) == 4
    assert index_of_ket((0, 0, 1), 2) == 1
    assert ket_of_index(5, 2, 3) == (1, 0, 1)


def test_basis_and_amplitude():
    state = RegisterState.basis(3, (2, 0, 1))
    assert len(state) == 1
    assert state.amplitude((2, 0, 1)).equals(PhaseScalar.exact_one(3))
    assert state.amplitude((0, 0, 0)).is_zero()
    with pytest.raises(ValueError):
        RegisterState.basis(2, (0, 2))


def test_norm_and_normalized():
    plus = plus_state(2)
    assert abs(plus.norm_sq() - 1.0) < 1e-12
    assert plus.norm_sq_fraction() == 1
    doubled = plus.scaled(PhaseScalar.monomial(2, 2, 0))
    assert doubled.norm_sq_fraction() == 4
    again = doubled.normalized()
    assert again.norm_sq_fraction() == 1
    assert again.is_exact


def test_inner_product_basics():
    psi = plus_state(2)
    assert inner_product(psi, psi).equals(PhaseScalar.exact_one(2))
    zero = RegisterState.basis(2, (0,))
    one = RegisterState.basis(2, (1,))
    assert inner_product(zero, one).is_zero()
    overlap = inner_product(psi, zero)
    assert abs(overlap.to_complex() - 1 / math.sqrt(2)) < 1e-12
    assert overlap.is_exact


def test_inner_product_conjugate_linear_in_first_argument():
    scale = root_of_unity(4, 1)  # i
    a = RegisterState.basis(4, (1,)).scaled(scale)
    b = plus_state(4)
    left = inner_product(a, b).to_complex()
    right = scale.conjugate().to_complex() * inner_product(
        RegisterState.basis(4, (1,)), b).to_complex()
    assert abs(left - right) < 1e-12


def test_inner_product_conjugate_symmetry_randomized():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        width = int(rng.integers(1, 5))
        a = random_state(rng, n, width)
        b = random_state(rng, n, width)
        ab = inner_product(a, b).to_complex()
        ba = inner_product(b, a).to_complex()
        assert abs(ab - ba.conjugate()) < 1e-12


def test_inner_product_shape_errors():
    with pytest.raises(ValueError):
        inner_product(RegisterState.basis(2, (0,)), RegisterState.basis(2, (0, 0)))
    with pytest.raises(ValueError):
        inner_product(RegisterState.basis(2, (0,)), RegisterState.basis(3, (0,)))


def test_apply_single_additive_flip():
    state = RegisterState.basis(2, (0, 1))
    out = apply_single(state, 1, additive_flip(1))
    assert out.amplitude((1, 1)).equals(PhaseScalar.exact_one(2))


def test_apply_single_phase_shift():
    plus = plus_state(2)
    out = apply_single(plus, 1, phase_shift([1, -1]))
    minus = RegisterState.basis(2, (0,)) + RegisterState.basis(2, (1,)).scaled(
        PhaseScalar.monomial(2, -1, 0))
    minus = minus.normalized()
    assert states_equal_up_to_phase(out, minus)
    # and not merely up to phase: amplitudes agree exactly
    assert (inner_product(minus, out) - PhaseScalar.exact_one(2)).is_zero()


def test_apply_single_weyl_phase_first():
    # X^a Z^b with Z applied first: on |2> at N=3 the phase is w3^2
    out = apply_single(RegisterState.basis(3, (2,)), 1, weyl(1, 1))
    assert out.amplitude((0,)).equals(root_of_unity(3, 2))


def test_weyl_commutation():
    """ZX = w_N XZ on arbitrary single-register digits."""
    for n in (2, 3, 4):
        for j in range(n):
            ket = RegisterState.basis(n, (j,))
            zx = apply_single(apply_single(ket, 1, weyl(1, 0)), 1, weyl(0, 1))
            xz = apply_single(apply_single(ket, 1, weyl(0, 1)), 1, weyl(1, 0))
            assert states_equal_up_to_phase(zx, xz)
            diff = zx + xz.scaled(root_of_unity(n, 1)).scaled(
                PhaseScalar.monomial(n, -1, 0))
            assert all(amp.is_zero() for _, amp in diff) or len(diff) == 0


def test_apply_single_position_checks():
    state = RegisterState.basis(2, (0, 0))
    with pytest.raises(IndexError):
        apply_single(state, 0, weyl(1, 0))
    with pytest.raises(IndexError):
        apply_single(state, 3, weyl(1, 0))


def test_dft_register_hadamard_column():
    out = dft_register(RegisterState.basis(2, (0,)), 1)
    assert states_equal_up_to_phase(out, plus_state(2))
    assert out.amplitude((0,)).equals(out.amplitude((1,)))


def test_dft_register_order3_kernel():
    out = dft_register(RegisterState.basis(3, (1,)), 1)
    for p in range(3):
        expected = root_of_unity(3, p).div_sqrt(Fraction(3))
        assert out.amplitude((p,)).equals(expected)


def test_dft_twice_is_digit_negation():
    out = dft_register(dft_register(RegisterState.basis(3, (1,)), 1), 1)
    assert states_equal_up_to_phase(out, RegisterState.basis(3, (2,)))


def test_dft_roundtrip_randomized():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        width = int(rng.integers(1, 4))
        state = random_state(rng, n, width)
        pos = int(rng.integers(1, width + 1))
        back = dft_register(dft_register(state, pos), pos, inverse=True)
        delta = inner_product(state, back).to_complex()
        assert abs(delta - 1) < 1e-12
        assert abs(back.norm_sq() - 1) < 1e-12


def test_tensor():
    left = plus_state(2)
    right = RegisterState.basis(2, (1,))
    combined = left.tensor(right)
    assert combined.width == 2
    assert abs(combined.amplitude((0, 1)).to_complex() - 1 / math.sqrt(2)) < 1e-12
    assert combined.amplitude((0, 0)).is_zero()


def test_states_equal_up_to_phase():
    a = plus_state(2)
    b = a.scaled(PhaseScalar.monomial(2, 1, 1))  # order-4 root i
    assert states_equal_up_to_phase(a, b)
    c = RegisterState.basis(2, (0,))
    assert not states_equal_up_to_phase(a, c)


def test_states_compare_by_value():
    a = RegisterState.basis(3, (1, 2)) + RegisterState.basis(3, (0, 0))
    b = RegisterState.basis(3, (0, 0)) + RegisterState.basis(3, (1, 2))
    assert a == b and a is not b
    assert a != RegisterState.basis(3, (1, 2))
    assert a != a.scaled(root_of_unity(3, 1))
    assert RegisterState.basis(2, (1,)) != RegisterState.basis(3, (1,))
    assert RegisterState.basis(2, (1,)) != (1,)
    with pytest.raises(TypeError):
        hash(a)
