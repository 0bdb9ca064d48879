import itertools
from fractions import Fraction

import numpy as np
import pytest

import builder_oracle
from quditqec.codes import builtin, build_identity_code
from quditqec.cyclotomic import PhaseScalar
from quditqec.states import (RegisterState, dft_register, inner_product,
                             states_equal_up_to_phase)
from quditqec.transforms import _dual_state, dualize, paste, theorem2_pipeline


def assert_exact_equal(a: RegisterState, b: RegisterState):
    assert a.width == b.width and len(a) == len(b)
    for digits, amp in a:
        assert b.amplitude(digits).equals(amp)


def test_dualize_majority3_amplitudes():
    dual = dualize(builtin("majority3", 2, 1))
    scale = PhaseScalar.exact_one(2).div_sqrt(Fraction(8))
    for k in range(2):
        ket = dual.encoded_kets[(k,)]
        assert len(ket) == 8
        for p, q, r in itertools.product(range(2), repeat=3):
            sign = 1 if (k * (p + q + r)) % 2 == 0 else -1
            assert ket.amplitude((p, q, r)).equals(scale * sign)


def test_dualize_label_toggles():
    code = builtin("majority3", 2, 1)
    dual = dualize(code)
    assert dual.label == "majority3-dual"
    assert dualize(dual).label == "majority3"


def test_dualize_matches_register_by_register_kernel():
    """Closed-form single-term dualization equals the one-register DFT chain."""
    rng = np.random.default_rng(31)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        width = int(rng.integers(1, 4))
        digits = tuple(int(rng.integers(n)) for _ in range(width))
        slow = RegisterState.basis(n, digits)
        for pos in range(1, width + 1):
            slow = dft_register(slow, pos)
        dual = dualize(build_identity_code(n, width))
        assert_exact_equal(dual.encoded_kets[digits], slow)


@pytest.mark.parametrize("label", ["majority3", "spin_conv"])
@pytest.mark.parametrize("n,L", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_dual_of_basis_kets_matches_term_loop_oracle(label, n, L):
    code = builtin(label, n, L)
    dual = dualize(code)
    for window, ket in code.encoded_kets.items():
        assert builder_oracle.same_terms(dual.encoded_kets[window],
                                         builder_oracle.dual_basis_state(ket))


def test_dual_of_scaled_basis_ket_keeps_its_amplitude():
    amp = PhaseScalar.monomial(3, Fraction(-1, 2), 1, 1)
    ket = RegisterState(3, 2, {(2, 1): amp})
    assert builder_oracle.same_terms(_dual_state(ket),
                                     builder_oracle.dual_basis_state(ket))


def test_dualize_twice_negates_digits():
    for n in (2, 3):
        code = builtin("spin_conv", n, 1)
        twice = dualize(dualize(code))
        for window, ket in code.encoded_kets.items():
            (digits, _), = list(ket)
            negated = tuple((-d) % n for d in digits)
            assert states_equal_up_to_phase(
                twice.encoded_kets[window], RegisterState.basis(n, negated))


@pytest.mark.parametrize("name", ["spin_conv", "majority3", "shor9",
                                  "rate14_conv"])
def test_double_dual_is_labelled_as_the_code_only_where_it_equals_it(name):
    # F^2 is the identity at N=2; at N=3 it negates digits, so the double
    # dual is another code, and only F^4 gives the code back
    code = builtin(name, 2, 1)
    assert dualize(dualize(code)) == code
    code = builtin(name, 3, 1)
    twice = dualize(dualize(code))
    assert twice.label == f"{name}-dual-dual"
    assert twice != code
    assert dualize(twice).label == f"{name}-dual-dual-dual"
    assert dualize(dualize(twice)) == code


def test_dualize_preserves_gram():
    dual = dualize(builtin("majority3", 3, 1))
    windows = dual.logical_windows()
    for i, wi in enumerate(windows):
        for wj in windows[i:]:
            value = inner_product(dual.encoded_kets[wi], dual.encoded_kets[wj])
            if wi == wj:
                assert value.equals(PhaseScalar.exact_one(3))
            else:
                assert value.is_zero()


def test_paste_identity_outer_is_inner():
    inner = builtin("majority3", 2, 2)
    outer = build_identity_code(2, 2)
    pasted = paste(outer, inner)
    for window in inner.logical_windows():
        assert_exact_equal(pasted.encoded_kets[window],
                           inner.encoded_kets[window])


def test_paste_width_mismatch_rejected():
    with pytest.raises(ValueError):
        paste(builtin("majority3", 2, 1), builtin("majority3", 2, 1))
    with pytest.raises(ValueError):
        paste(builtin("majority3", 2, 1), builtin("majority3", 3, 3))


def test_paste_dual_majority_is_shor():
    outer = dualize(builtin("majority3", 2, 1))
    inner = builtin("majority3", 2, 3)
    pasted = paste(outer, inner)
    shor = builtin("shor9", 2, 1)
    for window in shor.logical_windows():
        assert states_equal_up_to_phase(pasted.encoded_kets[window],
                                        shor.encoded_kets[window])


def test_pipeline_rate_bookkeeping():
    nine = theorem2_pipeline(builtin("majority3", 2, 1))
    assert (nine.n, nine.m) == (1, 9)
    four = theorem2_pipeline(builtin("spin_conv", 2, 1))
    assert (four.n, four.m) == (1, 4)
    assert four.width == builtin("rate14_conv", 2, 1).width


def test_pipeline_rejects_quantum_input():
    with pytest.raises(ValueError):
        theorem2_pipeline(builtin("shor9", 2, 1))


def test_pipeline_twice_gives_rate_one_eightyfirst_isometry():
    from quditqec.codes import CodeSpec

    def nine_copy(n_levels, logical_len, flush=True):
        """Ninefold repetition, the classical content of one pipeline pass.

        Built directly instead of via paste(majority3, majority3) because
        the pasted route would materialize every window of a length-3L
        repetition code just to feed the inner encoder.
        """
        kets = {}
        for window in itertools.product(range(n_levels), repeat=logical_len):
            digits = tuple(d for k in window for d in (k,) * 9)
            kets[window] = RegisterState.basis(n_levels, digits)
        code = CodeSpec("majority9", n_levels, 1, 9, 0, 0, logical_len, kets)
        code.rebuild = nine_copy
        return code

    # the direct build agrees with pasting majority3 with itself
    pasted = paste(builtin("majority3", 2, 1), builtin("majority3", 2, 3))
    for window, ket in nine_copy(2, 1).encoded_kets.items():
        assert_exact_equal(pasted.encoded_kets[window], ket)

    base = nine_copy(2, 1)
    assert base.is_classical and (base.n, base.m) == (1, 9)
    out = theorem2_pipeline(base)
    assert (out.n, out.m) == (1, 81)
    assert out.width == 81
    kets = [out.encoded_kets[w] for w in out.logical_windows()]
    assert all(len(k) == 512 for k in kets)
    assert inner_product(kets[0], kets[1]).is_zero()
    for ket in kets:
        assert ket.norm_sq_fraction() == 1


def test_pipeline_at_l4_is_rate14_conv_up_to_one_global_unit():
    # the encoder sums the outer kets into one dict and prunes once, so
    # L=4 (16 kets of 256 terms, 16 outer kets each) takes about 0.1 s
    pipe = theorem2_pipeline(builtin("spin_conv", 2, 4))
    direct = builtin("rate14_conv", 2, 4)
    windows = direct.logical_windows()
    assert pipe.logical_windows() == windows
    first = min(direct.encoded_kets[windows[0]].terms)
    a = pipe.encoded_kets[windows[0]].amplitude(first)
    b = direct.encoded_kets[windows[0]].amplitude(first)
    unit = b * a.conjugate() * (1 / a.abs_sq_fraction())
    assert unit.abs_sq_fraction() == 1
    for window in windows:
        assert pipe.encoded_kets[window].scaled(unit) == \
            direct.encoded_kets[window]


def test_paste_metadata_for_convolutional_inputs():
    pipe = theorem2_pipeline(builtin("spin_conv", 2, 2))
    direct = builtin("rate14_conv", 2, 2)
    assert pipe.width == direct.width
    assert pipe.logical_len == direct.logical_len
    for window in direct.logical_windows():
        assert states_equal_up_to_phase(pipe.encoded_kets[window],
                                        direct.encoded_kets[window])
