import copy
import dataclasses
import functools
import itertools
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest

import builder_oracle
from quditqec.channel import ChannelConfig, run_trials
from quditqec.codes import (_BUILDERS, BUILTIN_LABELS, UNREAD, CodeSpec,
                            MuMatrix, _superposition, builtin,
                            build_identity_code, build_qcc_from_qbc,
                            classical_conv_encode, lower_bidiagonal_mu,
                            perfect5_block)
from quditqec.cyclotomic import PhaseScalar
from quditqec.errors import enumerate_family
from quditqec.states import (RegisterState, inner_product, plus_state,
                             states_equal_up_to_phase)
from quditqec.transforms import dualize


def assert_exact_gram_identity(code):
    windows = code.logical_windows()
    for i, wi in enumerate(windows):
        for wj in windows[i:]:
            value = inner_product(code.encoded_kets[wi], code.encoded_kets[wj])
            if wi == wj:
                assert value.equals(PhaseScalar.exact_one(code.n_levels))
            else:
                assert value.is_zero()


def test_classical_conv_encode_examples():
    assert classical_conv_encode((0, 0, 0), 2, flush=False) == (0,) * 6
    assert classical_conv_encode((1, 0, 0), 2, flush=False) == (1, 1, 0, 1, 1, 1)
    assert classical_conv_encode((2,), 3, flush=True) == (2, 2, 0, 2, 2, 2)
    with pytest.raises(ValueError):
        classical_conv_encode((2,), 2)


def test_classical_conv_encode_lengths():
    for length in range(1, 6):
        msg = tuple(1 for _ in range(length))
        assert len(classical_conv_encode(msg, 2, flush=True)) == 2 * (length + 2)
        assert len(classical_conv_encode(msg, 2, flush=False)) == 2 * length


def test_spin_conv_kets_follow_classical_encoder():
    code = builtin("spin_conv", 2, 2)
    assert code.width == 8
    ket = code.encoded_kets[(1, 0)]
    assert len(ket) == 1
    assert ket.amplitude((1, 1, 0, 1, 1, 1, 0, 0)).equals(
        PhaseScalar.exact_one(2))
    zeros = builtin("spin_conv", 2, 1).encoded_kets[(0,)]
    assert zeros.amplitude((0,) * 6).equals(PhaseScalar.exact_one(2))
    assert code.is_classical
    assert_exact_gram_identity(code)


def test_majority3_shape():
    code = builtin("majority3", 2, 2)
    assert code.width == 6
    assert code.encoded_kets[(1, 0)].amplitude((1, 1, 1, 0, 0, 0)).equals(
        PhaseScalar.exact_one(2))
    assert code.is_classical
    assert code.memory == 0 and code.flush_depth == 0


def test_shor9_structure():
    code = builtin("shor9", 2, 1)
    ket = code.encoded_kets[(0,)]
    assert len(ket) == 8
    scale = PhaseScalar.exact_one(2).div_sqrt(Fraction(8))
    for p, q, r in itertools.product(range(2), repeat=3):
        digits = (p, p, p, q, q, q, r, r, r)
        assert ket.amplitude(digits).equals(scale)
    one = code.encoded_kets[(1,)]
    for p, q, r in itertools.product(range(2), repeat=3):
        digits = (p, p, p, q, q, q, r, r, r)
        expected = scale if (p + q + r) % 2 == 0 else scale * (-1)
        assert one.amplitude(digits).equals(expected)
    assert_exact_gram_identity(code)


def test_rate14_conv_single_symbol_closed_form():
    code = builtin("rate14_conv", 2, 1)
    assert code.width == 8
    ket = code.encoded_kets[(1,)]
    assert len(ket) == 4
    for p, q in itertools.product(range(2), repeat=2):
        digits = (p, p, q, (q + p) % 2, p, (p + q) % 2, q, q)
        sign = 1 if (p + q) % 2 == 0 else -1
        expected = PhaseScalar.monomial(2, Fraction(sign, 2), 0)
        assert ket.amplitude(digits).equals(expected)


def test_builtin_widths():
    for L in (1, 2, 3):
        assert builtin("rate14_conv", 2, L).width == 4 * (L + 1)
        assert builtin("spin_conv", 2, L).width == 2 * (L + 2)
        assert builtin("perfect5", 2, L).width == 5 * (L + 1)
        assert builtin("shor9", 2, L).width == 9 * L
        assert builtin("majority3", 2, L).width == 3 * L


def test_flush_flag_shrinks_width():
    assert builtin("spin_conv", 2, 2, flush=False).width == 4
    assert builtin("rate14_conv", 2, 2, flush=False).width == 8


def test_gram_identity_exact_across_builds():
    cases = [("majority3", 2, 2), ("majority3", 3, 2), ("shor9", 2, 2),
             ("shor9", 3, 1), ("spin_conv", 2, 3), ("spin_conv", 3, 2),
             ("rate14_conv", 2, 2), ("rate14_conv", 3, 1),
             ("perfect5", 2, 1), ("perfect5", 3, 1)]
    for label, n, L in cases:
        code = builtin(label, n, L)
        assert_exact_gram_identity(code)


def test_perfect5_block_isometry_and_orthogonality():
    block = perfect5_block(2)
    assert block.width == 5
    assert_exact_gram_identity(block)
    assert inner_product(block.encoded_kets[(0,)],
                         block.encoded_kets[(1,)]).is_zero()


def test_qcc_from_qbc_identity_mu_is_tensor_power():
    size = 2
    mu = MuMatrix(tuple(tuple(1 if i == j else 0 for j in range(size))
                        for i in range(size)))
    block = perfect5_block(2)
    conv = build_qcc_from_qbc(block, mu)
    for window in conv.logical_windows():
        expected = block.encoded_kets[(window[0],)].tensor(
            block.encoded_kets[(window[1],)])
        for digits, amp in expected:
            assert conv.encoded_kets[window].amplitude(digits).equals(amp)


def test_qcc_from_qbc_bidiagonal_matches_builtin_perfect5():
    """Two independent routes to the same convolutional extension."""
    for n, L in ((2, 1), (2, 2), (3, 1)):
        via_mu = build_qcc_from_qbc(perfect5_block(n),
                                    lower_bidiagonal_mu(L + 1), logical_len=L)
        direct = builtin("perfect5", n, L)
        assert via_mu.width == direct.width
        for window in direct.logical_windows():
            assert states_equal_up_to_phase(via_mu.encoded_kets[window],
                                            direct.encoded_kets[window])


def test_qcc_from_qbc_rejects_singular_mu():
    zero = MuMatrix(((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="determinant"):
        build_qcc_from_qbc(perfect5_block(2), zero)
    # determinant 2 is invertible mod 3 but not mod 2
    tilted = MuMatrix(((2, 0), (0, 1)))
    build_qcc_from_qbc(perfect5_block(3), tilted)
    with pytest.raises(ValueError, match="determinant"):
        build_qcc_from_qbc(perfect5_block(2), tilted)


def test_mu_matrix_determinant():
    assert lower_bidiagonal_mu(3).det() == 1
    assert MuMatrix(((1, 2), (3, 4))).det() == -2
    assert MuMatrix(((1, 2), (3, 4))).invertible_mod(3)
    assert not MuMatrix(((1, 2), (3, 4))).invertible_mod(2)
    with pytest.raises(ValueError):
        MuMatrix(((1, 2), (3,)))


def test_encode_is_linear():
    code = builtin("shor9", 2, 1)
    plus = plus_state(2)
    encoded = code.encode(plus)
    direct = (code.encoded_kets[(0,)] + code.encoded_kets[(1,)]).normalized()
    for digits, amp in direct:
        assert encoded.amplitude(digits).equals(amp)
    with pytest.raises(ValueError):
        code.encode(RegisterState.basis(2, (0, 0)))
    with pytest.raises(ValueError):
        code.encode(RegisterState.basis(3, (0,)))



def test_code_refuses_kets_of_another_n_levels():
    one = PhaseScalar.exact_one(3)
    with pytest.raises(ValueError, match=r"n_levels \[3\], not the code's 2"):
        CodeSpec("mixed", 2, 1, 3, 0, 0, 1, {
            (d,): RegisterState(3, 3, {(2 * d,) * 3: one}) for d in (0, 1)})

def test_builtin_rejects_unknown_label():
    with pytest.raises(ValueError, match="unknown code label"):
        builtin("nonesuch", 2, 1)
    for label in BUILTIN_LABELS:
        assert builtin(label, 2, 1).label == label


def test_identity_code_is_transparent():
    code = build_identity_code(2, 3)
    assert code.width == 3
    assert code.encoded_kets[(1, 0, 1)].amplitude((1, 0, 1)).equals(
        PhaseScalar.exact_one(2))


def test_truncation_boundary_rate14():
    # at L=3 every register sits in a truncation-affected block
    code3 = builtin("rate14_conv", 2, 3)
    assert set(code3.boundary_registers) == set(range(1, 17))
    # at L=4 the second block (registers 5..8) is interior
    code4 = builtin("rate14_conv", 2, 4)
    assert set(code4.boundary_registers) == set(range(1, 21)) - {5, 6, 7, 8}


def test_manifest_fields():
    code = builtin("rate14_conv", 2, 3)
    manifest = code.to_manifest()
    assert manifest == {"label": "rate14_conv", "N": 2, "n": 1, "m": 4,
                        "memory": 1, "flush": 1, "logical_length": 3,
                        "width": 16}
    entries = code.kets_json()
    assert len(entries) == 8
    assert all(len(e["terms"]) == 64 for e in entries)


def test_codespec_pickles_without_rebuild_hook():
    code = builtin("spin_conv", 2, 2)
    clone = pickle.loads(pickle.dumps(code))
    assert clone.rebuild is None
    assert clone.width == code.width
    for window in code.logical_windows():
        assert states_equal_up_to_phase(clone.encoded_kets[window],
                                        code.encoded_kets[window])


def test_codespec_pickles_without_cached_stabilizer():
    code = builtin("rate14_conv", 2, 2)
    plain = pickle.dumps(code)
    family = enumerate_family(code.width, 8, 1, n_levels=2)
    cfg = ChannelConfig(p=0.2, seed=1, trials=20)
    logical = RegisterState.basis(2, (0, 1))
    summary = run_trials(code, cfg, family, logical).to_json()
    assert code._stabilizer.frames
    data = pickle.dumps(code)
    assert len(data) == len(plain) and b"_Kets" not in data
    clone = pickle.loads(data)
    assert clone == code
    assert clone.to_manifest() == code.to_manifest()
    assert clone.kets_json() == code.kets_json()
    # the cache is not compared
    assert copy.copy(code) == code
    assert clone._stabilizer is UNREAD
    assert run_trials(clone, cfg, family, logical).to_json() == summary
    assert clone._stabilizer.frames


def test_codespec_compares_kets_by_value():
    assert builtin("shor9", 2, 1) == builtin("shor9", 2, 1)
    code = builtin("majority3", 3, 1)
    dual = dualize(code)
    assert dual != code
    # the same kets under the code's own label still differ from the code
    assert dataclasses.replace(dual, label=code.label) != code
    # F^4 is the identity, in exact amplitudes
    assert dualize(dualize(dualize(dual))) == code


def test_codespec_rejects_mixed_widths():
    good = RegisterState.basis(2, (0, 0))
    bad = RegisterState.basis(2, (0,))
    with pytest.raises(ValueError):
        CodeSpec("broken", 2, 1, 2, 0, 0, 1, {(0,): good, (1,): bad})


ORACLE_BUILDERS = {"rate14_conv": builder_oracle.build_rate14_conv,
                   "shor9": builder_oracle.build_shor9,
                   "perfect5": builder_oracle.build_perfect5}
# perfect5 N=4 L=2 with flush is left out: its term loop takes minutes
ORACLE_CASES = (
    [("rate14_conv", n, L, flush) for n in range(2, 7) for L in (1, 2)
     for flush in (True, False)]
    + [("rate14_conv", 2, 5, True)]
    + [("shor9", n, 1, True) for n in range(2, 7)]
    + [("shor9", n, 2, True) for n in (2, 3)]
    + [("perfect5", n, L, flush) for n in (2, 3) for L in (1, 2)
       for flush in (True, False)]
    + [("perfect5", n, 1, flush) for n in (4, 5) for flush in (True, False)])
SPEC_FIELDS = ("label", "n_levels", "n", "m", "memory", "flush_depth",
               "logical_len", "boundary_registers")


def assert_same_code(code, reference):
    assert [getattr(code, f) for f in SPEC_FIELDS] == \
        [getattr(reference, f) for f in SPEC_FIELDS]
    assert list(code.encoded_kets) == list(reference.encoded_kets)
    for window, ket in code.encoded_kets.items():
        assert builder_oracle.same_terms(ket, reference.encoded_kets[window])


@pytest.mark.parametrize("label,n,L,flush", ORACLE_CASES)
def test_superposed_builtins_match_term_loop_oracle(label, n, L, flush):
    assert_same_code(builtin(label, n, L, flush),
                     ORACLE_BUILDERS[label](n, L, flush))


@pytest.mark.parametrize("n", range(2, 7))
def test_perfect5_block_matches_term_loop_oracle(n):
    assert_same_code(perfect5_block(n), builder_oracle.perfect5_block(n))


@pytest.mark.parametrize("n, length", [(2, 3), (3, 2)])
def test_perfect5_block_rebuild_is_the_tensor_power(n, length):
    block = perfect5_block(n)
    code = block.rebuild(n, length)
    assert (code.label, code.n_levels, code.n, code.m, code.memory,
            code.flush_depth, code.logical_len) == \
        ("perfect5_block", n, 1, 5, 0, 0, length)
    assert code.boundary_registers == frozenset()
    assert list(code.encoded_kets) == \
        list(itertools.product(range(n), repeat=length))
    for window, ket in code.encoded_kets.items():
        # the block kets' terms multiplied out, first block slowest
        terms = {}
        for parts in itertools.product(*(block.encoded_kets[(k,)].terms.items()
                                         for k in window)):
            keys, amps = zip(*parts)
            terms[sum(keys, ())] = functools.reduce(operator.mul, amps)
        assert builder_oracle.same_terms(
            ket, RegisterState(n, 5 * length, terms, validate=False))


def test_one_pass_refuses_colliding_digit_strings():
    digits = np.array([[0, 1], [1, 0], [0, 1]])
    scalars = [PhaseScalar.exact_one(2)] * 2
    with pytest.raises(ValueError, match="one digit string"):
        _superposition(2, digits, np.zeros(3, dtype=int), scalars)


@pytest.mark.parametrize("label", sorted(_BUILDERS))
@pytest.mark.parametrize("n_levels,logical_len", [
    (2, 0), (2, -1), (1, 1), (0, 1), (2, True), (True, 1), (2, 1.0),
    (2.0, 1), (2, "1"), (2, None)])
def test_builders_refuse_bad_sizes(label, n_levels, logical_len):
    with pytest.raises(ValueError, match="n_levels|logical_len"):
        builtin(label, n_levels, logical_len)


@pytest.mark.parametrize("label", sorted(_BUILDERS))
def test_builders_accept_numpy_integers(label):
    code = builtin(label, np.int64(2), np.int64(1))
    assert code == builtin(label, 2, 1)
    assert code.to_manifest()["N"] == 2
    assert type(code.logical_len) is int and type(code.n_levels) is int


def test_perfect5_block_refuses_bad_levels():
    for bad in (1, True, 2.0):
        with pytest.raises(ValueError, match="n_levels"):
            perfect5_block(bad)
