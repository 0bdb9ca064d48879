import itertools

import numpy as np
import pytest

from quditqec.cyclotomic import PhaseScalar
from quditqec.errors import (ErrorPattern, PatternFamily,
                             SingleRegisterError, additive_flip,
                             apply_pattern, enumerate_family, general,
                             identity, iter_supports, phase_shift, spin_flip,
                             weyl, weyl_basis)
from quditqec.states import (RegisterState, inner_product,
                             states_equal_up_to_phase)


def brute_force_supports(width, window, max_errors):
    """Every subset of registers whose sliding windows stay under the cap."""
    out = []
    for size in range(width + 1):
        for support in itertools.combinations(range(1, width + 1), size):
            ok = True
            for start in range(1, width - window + 2):
                hits = sum(1 for pos in support
                           if start <= pos < start + window)
                if hits > max_errors:
                    ok = False
                    break
            if ok:
                out.append(support)
    return out


def test_weyl_basis_counts_and_order():
    basis2 = weyl_basis(2)
    assert len(basis2) == 3
    assert [(op.a, op.b) for op in basis2] == [(0, 1), (1, 0), (1, 1)]
    assert len(weyl_basis(3)) == 8
    assert all(not op.is_identity for op in weyl_basis(3))


def test_weyl_phase_then_shift():
    # X Z |1> at N=2: Z contributes -1, X moves the digit
    out = apply_pattern(RegisterState.basis(2, (1,)),
                        ErrorPattern.from_dict(1, {1: weyl(1, 1)}))
    assert out.amplitude((0,)).equals(PhaseScalar.monomial(2, -1, 0))


def test_additive_flip_is_weyl():
    for n in (2, 3, 5):
        for alpha in range(1, n):
            for j in range(n):
                ket = RegisterState.basis(n, (j,))
                via_flip = apply_pattern(
                    ket, ErrorPattern.from_dict(1, {1: additive_flip(alpha)}))
                via_weyl = apply_pattern(
                    ket, ErrorPattern.from_dict(1, {1: weyl(alpha, 0)}))
                assert via_flip.amplitude(((j + alpha) % n,)).equals(
                    via_weyl.amplitude(((j + alpha) % n,)))


def test_phase_shift_validates_modulus():
    phase_shift([1, -1, 1j])
    with pytest.raises(ValueError):
        phase_shift([1, 0.5])


def test_spin_flip_table():
    op = spin_flip([1, 2, 0])
    out = apply_pattern(RegisterState.basis(3, (1,)),
                        ErrorPattern.from_dict(1, {1: op}))
    assert out.amplitude((2,)).equals(PhaseScalar.exact_one(3))


def test_pattern_identity_entries_dropped():
    pattern = ErrorPattern.from_dict(3, {1: weyl(0, 0), 2: weyl(1, 0)})
    assert pattern.support == (2,)
    assert pattern.weight == 1


def test_pattern_position_bounds():
    with pytest.raises(IndexError):
        ErrorPattern.from_dict(2, {3: weyl(1, 0)})
    with pytest.raises(IndexError):
        ErrorPattern.from_dict(2, {0: weyl(1, 0)})


def test_apply_pattern_examples():
    state = RegisterState.basis(2, (0, 0))
    untouched = apply_pattern(state, ErrorPattern.from_dict(2, {}))
    assert states_equal_up_to_phase(untouched, state)
    out = apply_pattern(state, ErrorPattern.from_dict(2, {1: weyl(1, 0)}))
    assert out.amplitude((1, 0)).equals(PhaseScalar.exact_one(2))
    # {1 -> Z, 3 -> X} on (|000> + |101>)/sqrt(2)
    sup = (RegisterState.basis(2, (0, 0, 0)) +
           RegisterState.basis(2, (1, 0, 1))).normalized()
    moved = apply_pattern(sup, ErrorPattern.from_dict(
        3, {1: weyl(0, 1), 3: weyl(1, 0)}))
    expected = (RegisterState.basis(2, (0, 0, 1)) +
                RegisterState.basis(2, (1, 0, 0)).scaled(
                    PhaseScalar.monomial(2, -1, 0))).normalized()
    for digits, amp in expected:
        assert moved.amplitude(digits).equals(amp)


def test_apply_pattern_width_mismatch():
    with pytest.raises(ValueError):
        apply_pattern(RegisterState.basis(2, (0,)),
                      ErrorPattern.from_dict(2, {1: weyl(1, 0)}))


def test_apply_pattern_order_independent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        width = int(rng.integers(2, 5))
        positions = rng.permutation(width)[: int(rng.integers(1, width + 1))]
        ops = {int(pos) + 1: weyl(int(rng.integers(n)), int(rng.integers(n)))
               for pos in positions}
        digits = tuple(int(rng.integers(n)) for _ in range(width))
        state = RegisterState.basis(n, digits)
        forward = state
        for pos in sorted(ops):
            forward = apply_pattern(
                forward, ErrorPattern.from_dict(width, {pos: ops[pos]}))
        backward = state
        for pos in sorted(ops, reverse=True):
            backward = apply_pattern(
                backward, ErrorPattern.from_dict(width, {pos: ops[pos]}))
        for digits2, amp in forward:
            assert backward.amplitude(digits2).equals(amp)


def test_adjoint_moves_across_the_inner_product():
    # <A psi|phi> = <psi|A^dagger phi> for all five kinds, with a spin flip
    # that is not injective and a general operator that is not unitary
    w = np.exp(2j * np.pi / 3)
    rng = np.random.default_rng(11)

    def random_state():
        amps = rng.normal(size=9) + 1j * rng.normal(size=9)
        return RegisterState(3, 2, {divmod(k, 3): PhaseScalar.from_complex(z)
                                    for k, z in enumerate(amps)})
    psi, phi = random_state(), random_state()
    ops = (identity(), weyl(1, 2), spin_flip([0, 0, 2]),
           phase_shift([1, w, w * w]),
           general([[0.5, 0, 1j], [0.25, -1, 0], [0, 0.5, 0.5]]))
    patterns = [ErrorPattern(2, ((pos, op),)) for op in ops
                for pos in (1, 2)]
    patterns.append(ErrorPattern(2, ((1, ops[2]), (2, ops[4]))))
    for pattern in patterns:
        lhs = inner_product(apply_pattern(psi, pattern), phi)
        rhs = inner_product(psi, apply_pattern(phi, pattern, adjoint=True))
        assert abs(lhs.to_complex() - rhs.to_complex()) < 1e-12, \
            pattern.to_json()


def test_iter_supports_identity_first():
    supports = list(iter_supports(4, 2, 1))
    assert supports[0] == ()
    assert set(supports) == set(brute_force_supports(4, 2, 1))


def test_family_counts_match_closed_forms():
    assert len(enumerate_family(8, 8, 1, n_levels=2)) == 25
    assert len(enumerate_family(16, 8, 1, n_levels=2)) == 373
    assert len(enumerate_family(4, 4, 0, n_levels=2)) == 1
    assert len(enumerate_family(15, 5, 1, n_levels=2)) == 1486


def test_family_count_against_brute_force():
    for width, window, t, n in ((10, 3, 1, 2), (7, 4, 2, 2), (6, 3, 1, 3),
                                (12, 6, 2, 2)):
        family = enumerate_family(width, window, t, n_levels=n)
        supports = brute_force_supports(width, window, t)
        basis_size = n * n - 1
        expected = sum(basis_size ** len(s) for s in supports)
        assert len(family) == expected
        generated = list(family)
        assert len(generated) == expected
        assert all(family.contains(p) for p in generated)


def test_family_membership_agrees_with_enumerator():
    family = PatternFamily(6, 3, 1, tuple(weyl_basis(2)))
    inside = {tuple(sorted(p.support)) for p in family}
    assert inside == set(brute_force_supports(6, 3, 1))
    outlier = ErrorPattern.from_dict(6, {1: weyl(1, 0), 2: weyl(1, 0)})
    assert not family.contains(outlier)


def test_family_enumeration_order_deterministic():
    family = enumerate_family(3, 2, 1, n_levels=2)
    members = list(family)
    assert members[0].weight == 0
    # identity first, then plain lexicographic order on support tuples
    supports = [p.support for p in members[1:]]
    assert supports == sorted(supports)
    again = list(enumerate_family(3, 2, 1, n_levels=2))
    assert [p.to_json() for p in members] == [p.to_json() for p in again]


def test_family_rejects_bad_window():
    with pytest.raises(ValueError):
        enumerate_family(4, 2, 3, n_levels=2)
    with pytest.raises(ValueError):
        enumerate_family(4, 5, 1, n_levels=2)


def test_family_restriction():
    family = enumerate_family(6, 3, 1, n_levels=2)
    sub = family.restricted((1, 2, 3))
    assert len(sub) < len(family)
    for pattern in sub:
        assert all(pos <= 3 for pos in pattern.support)
        assert family.contains(pattern)


@pytest.mark.parametrize("width, window, max_errors", [
    (1, 1, 1), (4, 2, 1), (4, 2, 2), (6, 3, 1), (6, 3, 2), (7, 4, 2),
    (7, 7, 1), (8, 3, 2)])
def test_restricted_family_is_the_full_walk_filtered(width, window,
                                                      max_errors):
    family = enumerate_family(width, window, max_errors, n_levels=2)
    full = list(family)
    for registers in ((), (1,), (width,), (2, 3), (3, 1, 3),
                      tuple(range(1, width + 1, 2)), tuple(range(2, width)),
                      tuple(range(1, width + 1))):
        registers = tuple(pos for pos in registers if pos <= width)
        sub = family.restricted(registers)
        expected = [p for p in full if set(p.support) <= set(registers)]
        assert list(sub) == expected, registers
        assert len(sub) == len(expected), registers
        assert list(sub._supports()) == [
            s for s in iter_supports(width, window, max_errors)
            if set(s) <= set(registers)], registers


def test_an_interior_family_lists_its_patterns():
    # 79 supports inside registers 10..19 of a 40-register row
    family = enumerate_family(40, 8, 2, n_levels=2).restricted(range(10, 20))
    patterns = list(family)
    assert len(patterns) == len(family) == 1111
    assert all(family.contains(p) for p in patterns)
    # the window rule inside 10..19 is the rule of a 10-register row
    supports = sorted(tuple(pos + 9 for pos in s)
                      for s in brute_force_supports(10, 8, 2))
    assert list(family._supports()) == supports
    assert len(supports) == 79


SINGLE_KINDS = [identity(), weyl(1, 2), spin_flip([1, 0, 0]),
                phase_shift([1, 1j, -1]), general([[0, 1j], [0.5, 0]])]


@pytest.mark.parametrize("op", SINGLE_KINDS, ids=lambda op: op.kind)
def test_every_single_register_kind_round_trips(op):
    data = op.to_json()
    assert data["kind"] == op.kind
    assert SingleRegisterError.from_json(data) == op


def test_patterns_and_families_round_trip_through_json():
    pattern = ErrorPattern.from_dict(6, {
        pos: op for pos, op in enumerate(SINGLE_KINDS, start=2)})
    assert pattern.weight == 4
    assert ErrorPattern.from_json(pattern.to_json()) == pattern
    weyl_only = enumerate_family(6, 3, 1, n_levels=3).restricted((2, 4, 5))
    data = weyl_only.to_json()
    # an all-Weyl basis is written in its shorthand, without a kind
    assert data["basis"][0] == {"a": 0, "b": 1}
    assert SingleRegisterError.from_json(data["basis"][0]) == weyl(0, 1)
    mixed = enumerate_family(6, 3, 1, basis=SINGLE_KINDS[1:])
    assert [entry["kind"] for entry in mixed.to_json()["basis"]] == \
        ["weyl", "spin_flip", "phase_shift", "general"]
    for family in (weyl_only, mixed):
        back = PatternFamily.from_json(family.to_json())
        assert back == family
        assert list(back) == list(family)


def test_round_trips():
    family = enumerate_family(5, 3, 1, n_levels=3)
    back = PatternFamily.from_json(family.to_json())
    assert [p.to_json() for p in back] == [p.to_json() for p in family]
    pattern = ErrorPattern.from_dict(
        4, {2: spin_flip([1, 0]), 3: phase_shift([1, -1])})
    assert ErrorPattern.from_json(pattern.to_json()).to_json() == \
        pattern.to_json()
    op = general([[0, 1], [1, 0]])
    assert op.to_json()["kind"] == "general"


def test_general_matrix_fans_out():
    hadamard = general([[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]])
    out = apply_pattern(RegisterState.basis(2, (1, 0)),
                        ErrorPattern.from_dict(2, {1: hadamard}))
    assert abs(out.amplitude((0, 0)).to_complex() - 2 ** -0.5) < 1e-12
    assert abs(out.amplitude((1, 0)).to_complex() + 2 ** -0.5) < 1e-12
