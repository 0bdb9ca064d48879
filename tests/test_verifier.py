import itertools

import numpy as np
import pytest
from scipy.sparse import issparse

import exact_oracle
import quditqec.verifier as verifier
import syndrome_oracle
from dense_oracle import dense_kl_check, dense_kl_deviation
from quditqec.channel import ChannelConfig, run_trials
from quditqec.codes import (CodeSpec, build_identity_code, build_qcc_from_qbc,
                            builtin, lower_bidiagonal_mu, perfect5_block)
from quditqec.cyclotomic import PhaseScalar, residue_matrix
from quditqec.errors import (ErrorPattern, additive_flip, apply_pattern,
                             enumerate_family, general, identity, phase_shift,
                             spin_flip, weyl)
from quditqec.states import RegisterState
from quditqec.transforms import dualize, theorem2_pipeline
from quditqec.verifier import (VerificationError, kl_check, lambda_matrix,
                               reevaluate_witness)


W3 = np.exp(2j * np.pi / 3)


def weyl_family(width, window, t, n):
    return enumerate_family(width, window, t, n_levels=n)


def flip_family(width, window, n):
    ops = tuple(additive_flip(a) for a in range(1, n))
    return enumerate_family(width, window, 1, basis=ops, n_levels=n)


def test_shor9_single_error_family_passes():
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    assert len(family) == 28
    report = kl_check(code, family)
    assert report.passed
    assert report.max_deviation <= 1e-9
    assert report.witness is None
    assert report.lambda_summary["kind"] == "degenerate"


def test_identity_code_fails():
    code = build_identity_code(2, 3)
    report = kl_check(code, weyl_family(3, 3, 1, 2))
    assert not report.passed
    assert report.witness is not None
    assert report.witness.deviation > 1e-9
    assert not report.witness.boundary
    assert report.interior_verdict == "fail"


def test_witness_reevaluates_above_tolerance():
    code = builtin("rate14_conv", 2, 1)
    family = weyl_family(code.width, 4, 1, 2)
    report = kl_check(code, family)
    assert not report.passed
    witness = report.witness
    deviation = reevaluate_witness(code, family, witness)
    assert deviation > 1e-9
    assert abs(deviation - witness.deviation) < 1e-9
    # at L=1 the whole window is truncation boundary
    assert witness.boundary
    assert report.interior_verdict == "vacuous"
    assert report.boundary_witnesses


def test_scan_keeps_the_earliest_boundary_entries_in_block_order():
    # at L=1 every register is boundary, so every entry above tol is a
    # candidate; fed blocks in order, the scan keeps the earliest
    # BOUNDARY_WITNESS_CAP by (i, j, a, b)
    code = builtin("rate14_conv", 2, 1)
    family = weyl_family(8, 4, 1, 2)
    size = len(family)
    rng = np.random.default_rng(5)
    blocks = [(i, j, *np.divmod(np.sort(rng.choice(size * size, 6,
                                                   replace=False)), size))
              for i, j in ((0, 1), (0, 2), (1, 1), (2, 3))]
    every = sorted((i, j, int(a), int(b)) for i, j, pa, pb in blocks
                   for a, b in zip(pa, pb))
    scan = verifier._Scan(verifier._touches(code, family), 1e-9,
                          np.zeros((size, size)))
    for i, j, a, b in blocks:
        scan.add(i, j, a, b, np.ones(a.size), np.ones(a.size))
    assert [witness_key(w) for w in scan.boundary] == \
        every[:verifier.BOUNDARY_WITNESS_CAP]


def test_lambda_identity_for_spin_conv_flips():
    code = builtin("spin_conv", 2, 2)
    report = lambda_matrix(code, flip_family(code.width, 4, 2))
    assert report.kind == "identity"
    assert report.rank == report.matrix.shape[0]
    assert np.allclose(report.matrix, np.eye(report.matrix.shape[0]),
                       atol=1e-9)


def test_lambda_identity_pair_is_norm():
    code = builtin("majority3", 2, 1)
    report = lambda_matrix(code, flip_family(3, 3, 2))
    assert abs(report.matrix[0, 0] - 1) < 1e-12


def test_lambda_shor9_degenerate_hermitian_psd():
    code = builtin("shor9", 2, 1)
    report = lambda_matrix(code, weyl_family(9, 9, 1, 2))
    lam = report.matrix
    assert report.kind == "degenerate"
    off = lam - np.diag(np.diag(lam))
    assert np.abs(off).max() > 0.5  # distinct Z errors act identically
    assert np.abs(lam - lam.conj().T).max() < 1e-9
    eigenvalues = np.linalg.eigvalsh(0.5 * (lam + lam.conj().T))
    assert eigenvalues.min() > -1e-9
    assert report.rank < lam.shape[0]


def test_lambda_matrix_refuses_failing_code():
    code = build_identity_code(2, 2)
    with pytest.raises(VerificationError):
        lambda_matrix(code, weyl_family(2, 2, 1, 2))


def test_agrees_with_dense_projector_oracle():
    cases = [
        (builtin("majority3", 2, 1), weyl_family(3, 3, 1, 2)),
        (builtin("majority3", 2, 1), flip_family(3, 3, 2)),
        (builtin("majority3", 2, 2), weyl_family(6, 3, 1, 2)),
        (dualize(builtin("majority3", 2, 1)), weyl_family(3, 3, 1, 2)),
        (builtin("spin_conv", 2, 1), flip_family(6, 4, 2)),
        (builtin("spin_conv", 2, 1), weyl_family(6, 4, 1, 2)),
        (build_identity_code(2, 4), weyl_family(4, 4, 1, 2)),
        (perfect5_block(2), weyl_family(5, 5, 1, 2)),
    ]
    for code, family in cases:
        report = kl_check(code, family)
        verdict, lam, max_dev = dense_kl_check(code, family)
        assert report.verdict == verdict, code.label
        if report.passed:
            full = lambda_matrix(code, family, precomputed=report).matrix
            assert np.abs(full - lam).max() < 1e-9


def test_monotonicity_under_register_restriction():
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    assert kl_check(code, family).passed
    rng = np.random.default_rng(17)
    for _ in range(5):
        size = int(rng.integers(1, 9))
        allowed = tuple(int(x) + 1 for x in rng.permutation(9)[:size])
        sub = family.restricted(allowed)
        assert kl_check(code, sub).passed


def force_engine(monkeypatch, engine):
    """Route float checks to the sparse Gram; the syndrome engine is left
    to the rule, and the caller checks that it ran."""
    if engine == "sparse-float":
        monkeypatch.setattr(verifier, "_syndrome_plan", lambda *args: None)


def phase_family(width, window, n):
    ops = tuple(weyl(0, b) for b in range(1, n))
    return enumerate_family(width, window, 1, basis=ops, n_levels=n)


# (code, Weyl family, verdict) small enough for the dense oracle: Fourier
# duals against phase and full Weyl families, sparse kets against full
# Weyl families (X, Z and mixed X^a Z^b operators)
DENSE_CASES = [
    pytest.param(dualize(builtin("majority3", 2, 1)), phase_family(3, 3, 2),
                 "pass", id="dual-majority3-N2-phases"),
    pytest.param(dualize(builtin("majority3", 3, 1)), phase_family(3, 3, 3),
                 "pass", id="dual-majority3-N3-phases"),
    pytest.param(dualize(builtin("majority3", 2, 2)), phase_family(6, 3, 2),
                 "pass", id="dual-majority3-N2-L2-phases"),
    pytest.param(dualize(builtin("spin_conv", 2, 1)), phase_family(6, 4, 2),
                 "pass", id="dual-spin_conv-N2-L1-phases"),
    pytest.param(dualize(builtin("spin_conv", 3, 1)), phase_family(6, 4, 3),
                 "pass", id="dual-spin_conv-N3-L1-phases"),
    pytest.param(dualize(builtin("spin_conv", 2, 1)), phase_family(6, 1, 2),
                 "fail", id="dual-spin_conv-N2-L1-w1-phases"),
    pytest.param(dualize(builtin("majority3", 2, 1)), weyl_family(3, 3, 1, 2),
                 "fail", id="dual-majority3-N2-L1"),
    pytest.param(dualize(builtin("majority3", 3, 1)), weyl_family(3, 3, 1, 3),
                 "fail", id="dual-majority3-N3-L1"),
    pytest.param(dualize(builtin("spin_conv", 2, 1)), weyl_family(6, 4, 1, 2),
                 "fail", id="dual-spin_conv-N2-L1"),
    pytest.param(perfect5_block(2), weyl_family(5, 5, 1, 2), "pass",
                 id="perfect5_block-N2"),
    pytest.param(build_identity_code(2, 3), weyl_family(3, 3, 1, 2), "fail",
                 id="identity-N2"),
    pytest.param(build_identity_code(3, 2), weyl_family(2, 2, 1, 3), "fail",
                 id="identity-N3"),
]


def witness_key(w):
    return w.logical_i, w.logical_j, w.pattern_a, w.pattern_b


def wide_repetition_code():
    """|0...0> and |1...1> on 64 registers: N^width is 2^64."""
    one = PhaseScalar.exact_one(2)
    return CodeSpec("repetition", 2, 1, 64, 0, 0, 1, {
        (d,): RegisterState(2, 64, {(d,) * 64: one}) for d in (0, 1)})


# (code, family, float engine) small enough for the exact engine: identity
# codes have no boundary, spin_conv at L=3 has an interior and a boundary,
# the duals run on the syndrome engine, and the phase shifts are no Weyl
# operators
EXACT_CASES = [
    pytest.param(builtin("shor9", 2, 1), weyl_family(9, 9, 1, 2),
                 "sparse-float", id="shor9"),
    pytest.param(builtin("rate14_conv", 2, 1), weyl_family(8, 4, 1, 2),
                 "sparse-float", id="rate14_conv"),
    pytest.param(builtin("spin_conv", 2, 3),
                 weyl_family(10, 4, 1, 2).restricted((4, 5, 6, 7)),
                 "sparse-float", id="spin_conv-L3"),
    pytest.param(build_identity_code(2, 3), weyl_family(3, 3, 1, 2),
                 "sparse-float", id="identity-N2"),
    pytest.param(build_identity_code(3, 2), weyl_family(2, 2, 1, 3),
                 "sparse-float", id="identity-N3"),
    pytest.param(dualize(builtin("majority3", 2, 1)), phase_family(3, 3, 2),
                 "syndrome", id="dual-majority3-phases"),
    pytest.param(dualize(builtin("majority3", 2, 1)), weyl_family(3, 3, 1, 2),
                 "syndrome", id="dual-majority3-weyl"),
    pytest.param(builtin("majority3", 3, 1),
                 enumerate_family(3, 3, 1, n_levels=3, basis=(
                     phase_shift([1, W3, W3 * W3]),)),
                 "sparse-float", id="majority3-phase-shifts"),
]


@pytest.mark.parametrize("code, family, engine", EXACT_CASES)
def test_exact_engine_agrees_with_float(monkeypatch, code, family, engine):
    exact = kl_check(code, family, exact=True)
    force_engine(monkeypatch, engine)
    floats = kl_check(code, family)
    assert exact.engine == "exact"
    assert floats.engine == engine
    assert exact.verdict == floats.verdict
    if exact.passed:
        assert exact.max_deviation == 0.0
    assert abs(exact.max_deviation - floats.max_deviation) < 1e-9
    assert abs(exact.interior_max_deviation
               - floats.interior_max_deviation) < 1e-9
    assert exact.interior_verdict == floats.interior_verdict
    # the witnesses themselves may differ where float deviations tie (N=3)
    assert [witness_key(w) for w in exact.boundary_witnesses] == \
        [witness_key(w) for w in floats.boundary_witnesses]
    assert kl_check(code, family, exact=True, fail_fast=True).verdict == \
        kl_check(code, family, fail_fast=True).verdict == exact.verdict


def wide_float_family():
    """Operators that ``PhaseScalar`` carries in floats, on three of the
    wide repetition code's 64 registers."""
    return enumerate_family(64, 64, 1, n_levels=2, basis=(
        phase_shift([1, -1]), general([[0, 1], [1, 0]]))).restricted(
            (1, 2, 64))


# every exact case, and inputs with a square-root scale, composite N, a
# spin flip that is no permutation and N^width past int64 (on the lattice
# and in floats), checked against the dict walk
ORACLE_CASES = [pytest.param(*case.values[:2], id=case.id)
                for case in EXACT_CASES] + [
    pytest.param(dualize(builtin("majority3", 3, 1)), phase_family(3, 3, 3),
                 id="dual-majority3-N3-phases"),
    pytest.param(builtin("majority3", 4, 1), weyl_family(3, 3, 1, 4),
                 id="majority3-N4"),
    pytest.param(builtin("majority3", 3, 1),
                 enumerate_family(3, 3, 1, n_levels=3,
                                  basis=(spin_flip([0, 0, 2]),)),
                 id="majority3-N3-non-injective-flip"),
    pytest.param(builtin("shor9", 3, 1),
                 weyl_family(9, 9, 1, 3).restricted((1, 2, 3)),
                 id="shor9-N3"),
    pytest.param(wide_repetition_code(), weyl_family(64, 64, 1, 2).restricted(
        (1, 2, 64)), id="repetition-width-64"),
    pytest.param(wide_repetition_code(), wide_float_family(),
                 id="repetition-width-64-floats"),
]


@pytest.mark.parametrize("code, family", ORACLE_CASES)
def test_exact_engine_agrees_with_the_dict_walk(monkeypatch, code, family):
    reports = [kl_check(code, family, exact=True, fail_fast=fail_fast)
               for fail_fast in (False, True)]
    monkeypatch.setattr(verifier, "_exact_engine", exact_oracle.exact_engine)
    oracles = [kl_check(code, family, exact=True, fail_fast=fail_fast)
               for fail_fast in (False, True)]
    for report, oracle in zip(reports, oracles):
        assert report.verdict == oracle.verdict
        assert (report.witness is None) == (oracle.witness is None)
        if report.witness is not None and \
                witness_key(report.witness) != witness_key(oracle.witness):
            # the dict walk's floats can split a tie of magnitudes, such as
            # |w^2 - 1| and |w^4 - 1| at N=3; the engine keeps the earliest
            # entry of the tie
            assert abs(report.witness.deviation
                       - oracle.witness.deviation) < 1e-12
            assert witness_key(report.witness) < witness_key(oracle.witness)
        elif report.witness is not None:
            assert abs(report.witness.observed
                       - oracle.witness.observed) < 1e-12
        assert [witness_key(w) for w in report.boundary_witnesses] == \
            [witness_key(w) for w in oracle.boundary_witnesses]
        for mine, theirs in zip(report.boundary_witnesses,
                                oracle.boundary_witnesses):
            assert abs(mine.observed - theirs.observed) < 1e-12
            assert abs(mine.expected - theirs.expected) < 1e-12
        assert report.interior_verdict == oracle.interior_verdict
        assert abs(report.max_deviation - oracle.max_deviation) < 1e-12
        assert report.lambda_samples.keys() == oracle.lambda_samples.keys()
        for key, value in oracle.lambda_samples.items():
            assert abs(report.lambda_samples[key] - value) < 1e-12


def test_exact_engine_takes_the_reference_block_once(monkeypatch):
    calls, gram_block = [], verifier._gram_block

    def counted(mats, i, j, order):
        calls.append(((i, j), gram_block(mats, i, j, order)))
        return calls[-1][1]
    monkeypatch.setattr(verifier, "_gram_block", counted)
    report = kl_check(builtin("shor9", 2, 1), weyl_family(9, 9, 1, 2),
                      exact=True)
    assert report.passed
    # 28 patterns, 2 logical words: blocks (0, 0), (0, 1) and (1, 1) once
    assert [block for block, _ in calls] == [(0, 0), (0, 1), (1, 1)]
    # lambda is block (0, 0): its nonzero entries are the pairs whose
    # residue there is not zero
    pairs, residue = verifier._residues(*calls[0][1], 4)
    assert np.array_equal(np.flatnonzero(report.lam),
                          pairs[residue.any(axis=1)])


def test_exact_lambda_is_csr_above_the_summary_cap(monkeypatch):
    code, family = builtin("shor9", 2, 1), weyl_family(9, 9, 1, 2)
    dense = kl_check(code, family, exact=True).lam
    monkeypatch.setattr(verifier, "LAMBDA_SUMMARY_MAX", 27)
    report = kl_check(code, family, exact=True)
    assert issparse(report.lam)
    assert np.array_equal(report.lam.toarray(), dense)
    assert np.array_equal(
        lambda_matrix(code, family, precomputed=report).matrix, dense)


@pytest.mark.parametrize("code, family, verdict", [
    (builtin("shor9", 2, 1), weyl_family(9, 9, 1, 2), "pass"),
    (builtin("shor9", 2, 1), weyl_family(9, 3, 1, 2), "fail"),
])
def test_syndrome_lambda_is_csr_above_the_summary_cap(monkeypatch, code,
                                                       family, verdict):
    dense = kl_check(code, family)
    assert dense.engine == "syndrome" and dense.verdict == verdict
    assert isinstance(dense.lam, np.ndarray)
    monkeypatch.setattr(verifier, "LAMBDA_SUMMARY_MAX", len(family) - 1)
    report = kl_check(code, family)
    assert report.engine == "syndrome" and report.verdict == verdict
    assert issparse(report.lam)
    assert np.array_equal(report.lam.toarray(), dense.lam)
    assert report.lambda_summary == dense.lambda_summary
    if report.passed:
        assert np.array_equal(
            lambda_matrix(code, family, precomputed=report).matrix,
            dense.lam)


def test_exact_engine_refuses_overlaps_past_int64():
    big = PhaseScalar.monomial(2, 2 ** 31)
    code = CodeSpec("huge", 2, 1, 3, 0, 0, 1, {
        (0,): RegisterState(2, 3, {(0, 0, 0): big}),
        (1,): RegisterState(2, 3, {(1, 1, 1): big})})
    with pytest.raises(ValueError, match="int64 bound"):
        kl_check(code, weyl_family(3, 3, 1, 2), exact=True)
    # the float engines do not need the bound
    assert kl_check(code, weyl_family(3, 3, 1, 2)).verdict == "fail"


def test_exact_engine_runs_the_window_4_rate14_conv_case():
    # the dict walk took 148 s on these 901 patterns
    code = builtin("rate14_conv", 2, 2)
    family = enumerate_family(code.width, 4, 1, n_levels=2)
    assert len(family) == 901
    exact, floats = (kl_check(code, family, exact=flag)
                     for flag in (True, False))
    assert exact.verdict == floats.verdict == "fail"
    assert abs(exact.max_deviation - floats.max_deviation) < 1e-12
    deviation = reevaluate_witness(code, family, exact.witness)
    assert abs(deviation - exact.witness.deviation) < 1e-12


def test_characteristic_witnesses_reevaluate():
    for code, family, verdict in (case.values for case in DENSE_CASES):
        if verdict == "pass":
            continue
        for fail_fast in (False, True):
            report = kl_check(code, family, fail_fast=fail_fast)
            assert report.engine == "syndrome"
            assert not report.passed
            witness = report.witness
            assert witness.deviation == report.max_deviation
            deviation = reevaluate_witness(code, family, witness)
            assert abs(deviation - witness.deviation) < 1e-9, code.label
            for extra in report.boundary_witnesses:
                assert abs(reevaluate_witness(code, family, extra)
                           - extra.deviation) < 1e-9


def test_engine_choice_follows_one_rule():
    # a family with an operator that is no Weyl operator: the sparse Gram
    code = builtin("spin_conv", 2, 2)
    family = enumerate_family(8, 4, 1, basis=(spin_flip([1, 0]),))
    assert kl_check(code, family).engine == "sparse-float"
    code = builtin("majority3", 4, 1)
    family = enumerate_family(3, 3, 1, basis=(phase_shift([1, 1, 1j, 1]),))
    assert kl_check(code, family).engine == "sparse-float"
    # Weyl families on stabilizer codes: the syndrome engine, at prime and
    # composite N, on sparse kets and on Fourier duals
    for code, window in ((builtin("spin_conv", 2, 2), 4),
                         (builtin("shor9", 3, 1), 9),
                         (builtin("majority3", 4, 1), 3),
                         (builtin("majority3", 6, 1), 3),
                         (dualize(builtin("spin_conv", 2, 2)), 4),
                         (dualize(builtin("majority3", 4, 1)), 3)):
        n = code.n_levels
        for family in (weyl_family(code.width, window, 1, n),
                       flip_family(code.width, window, n),
                       phase_family(code.width, window, n)):
            assert kl_check(code, family).engine == "syndrome", code.label
    # kets that are no stabilizer code: the sparse Gram
    for code in handmade_codes():
        assert kl_check(code, weyl_family(3, 3, 1, 2)).engine == \
            "sparse-float"


def test_family_matrix_rows_match_exact_application():
    # all five operator kinds on a superposed N=3 ket, with a spin flip
    # that is not injective and a general operator that fans out
    code = perfect5_block(3)
    w = np.exp(2j * np.pi / 3)
    basis = (weyl(1, 2), spin_flip([0, 0, 2]), phase_shift([1, w, w * w]),
             general([[0.5, 0, 1j], [0.25, -1, 0], [0, 0.5, 0.5]]))
    patterns = list(enumerate_family(5, 2, 1, basis=basis)) + [
        ErrorPattern(5, ((2, identity()),)),
        ErrorPattern(5, ((1, basis[3]), (3, identity()), (5, basis[1])))]
    place = 3 ** np.arange(4, -1, -1)
    # the identity on a ket that holds every string makes column k the
    # string of grid index k
    grid = RegisterState(3, 5, {digits: PhaseScalar.exact_one(3) for digits
                                in itertools.product(range(3), repeat=5)})
    kets = list(code.encoded_kets.values())
    stacked, _ = verifier._float_matrices(
        [(kets, patterns), ([grid], [ErrorPattern(5, ())])], 3, 5)
    assert stacked.has_canonical_format
    # row k |F| + p is pattern p applied to ket k
    dense = stacked.toarray().reshape(len(kets), len(patterns), 3 ** 5)
    for ket, rows in zip(kets, dense):
        for row, pattern in zip(rows, patterns):
            expected = np.zeros(3 ** 5, dtype=complex)
            for digits, amp in apply_pattern(
                    ket, pattern).to_complex_terms().items():
                expected[np.dot(digits, place)] = amp
            assert np.abs(row - expected).max() < 1e-12, pattern.to_json()


def test_lattice_rows_match_exact_application():
    # Weyl operators, a spin flip that is not injective and the identity,
    # on a superposed N=3 ket
    code = perfect5_block(3)
    basis = (weyl(1, 2), weyl(0, 1), spin_flip([0, 0, 2]))
    patterns = list(enumerate_family(5, 2, 1, basis=basis)) + [
        ErrorPattern(5, ((2, identity()),)),
        ErrorPattern(5, ((1, basis[0]), (3, identity()), (5, basis[2])))]
    lattice = verifier._read_lattice(code, patterns)
    # a ket that holds every string: the identity, the first pattern, then
    # makes column k the string of grid index k
    grid = np.array(list(itertools.product(range(3), repeat=5)))
    lattice.digits = np.vstack([lattice.digits, grid])
    lattice.ket = np.append(lattice.ket, np.full(len(grid),
                                                 len(lattice.halves)))
    lattice.exponents = np.append(lattice.exponents,
                                  np.zeros(len(grid), dtype=np.int64))
    lattice.numerators = np.append(lattice.numerators,
                                   np.ones(len(grid), dtype=np.int64))
    lattice.halves.append(0)
    mats = verifier._lattice_matrices(lattice, patterns, 3)
    residue = residue_matrix(6)
    place = 3 ** np.arange(4, -1, -1)
    for w, mat, half in zip(code.logical_windows(), mats, lattice.halves):
        ket = code.encoded_kets[w]
        dense = mat.toarray().reshape(len(patterns), 6, 3 ** 5)
        for rows, pattern in zip(dense, patterns):
            expected = np.zeros((6, 3 ** 5), dtype=np.int64)
            for digits, amp in apply_pattern(ket, pattern).terms.items():
                coeffs, h = amp.parts
                assert h == half
                for e, c in coeffs.items():
                    value = c * lattice.denominator
                    assert value.denominator == 1
                    expected[e % 6, np.dot(digits, place)] += int(value)
            # equal canonical residues: equal values on the lattice
            assert np.array_equal(rows.T @ residue, expected.T @ residue), \
                pattern.to_json()


def test_string_ranks_follow_grid_order_at_any_width():
    rng = np.random.default_rng(7)
    # one run, and three runs of grid indices
    for n, width in ((2, 9), (2, 130), (3, 50)):
        digits = rng.integers(0, n, size=(500, width))
        digits[250:] = digits[:250]
        rank, count = verifier._rank_strings(
            verifier._string_keys(digits, n))
        distinct, inverse = np.unique(digits, axis=0, return_inverse=True)
        assert count == len(distinct)
        assert np.array_equal(rank, inverse.ravel())


def test_sparse_gram_runs_past_int64_basis_indices():
    code, family = wide_repetition_code(), wide_float_family()
    floats, exact = (kl_check(code, family, exact=flag)
                     for flag in (False, True))
    assert floats.engine == "sparse-float"
    assert floats.verdict == exact.verdict == "fail"
    assert abs(floats.max_deviation - exact.max_deviation) < 1e-12


def test_lambda_matrix_reuses_the_check(monkeypatch):
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    with monkeypatch.context() as patch:
        force_engine(patch, "sparse-float")
        report = kl_check(code, family)
    assert report.engine == "sparse-float"

    def refuse(*args, **kwargs):
        raise AssertionError("lambda_matrix repeated work of the check")
    monkeypatch.setattr(verifier, "_apply_patterns", refuse)
    monkeypatch.setattr(verifier, "_summarize_lambda", refuse)
    lam = lambda_matrix(code, family, precomputed=report)
    assert lam.kind == report.lambda_summary["kind"]
    assert np.abs(lam.matrix - report.lam.toarray()).max() == 0.0


def test_lambda_matrix_refuses_a_report_of_another_pairing():
    code = builtin("shor9", 2, 1)
    report = kl_check(code, weyl_family(9, 9, 1, 2))
    assert report.passed and report.family_size == 28
    x_only = enumerate_family(9, 9, 1, basis=[weyl(1, 0)])
    assert len(x_only) == 10
    with pytest.raises(ValueError, match="precomputed report"):
        lambda_matrix(code, x_only, precomputed=report)
    other = builtin("shor9", 2, 1)
    other.label = "shor9-copy"
    with pytest.raises(ValueError, match="shor9-copy"):
        lambda_matrix(other, weyl_family(9, 9, 1, 2), precomputed=report)
    # an equal code and family, built anew, are the report's pairing
    lam = lambda_matrix(builtin("shor9", 2, 1), weyl_family(9, 9, 1, 2),
                        precomputed=report)
    assert lam.rank == report.lambda_summary["rank"]


def test_kl_check_refuses_a_code_without_kets():
    code = builtin("majority3", 2, 1)
    family = weyl_family(3, 3, 1, 2)
    code.encoded_kets = {}
    with pytest.raises(ValueError, match="no materialized encoded kets"):
        kl_check(code, family)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_lambda_matrix_checks_tolerance(tol):
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    report = kl_check(code, family)
    with pytest.raises(ValueError, match="finite nonnegative"):
        lambda_matrix(code, family, tol=tol, precomputed=report)


def test_lambda_matrix_summarizes_what_the_check_did_not():
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    expected = kl_check(code, family, tol=0.5).lambda_summary
    assert expected["rank"] == 3  # 22 at the default tolerance
    exact = kl_check(code, family, exact=True)
    assert exact.lambda_summary["rank"] == 22
    other_tol = kl_check(code, family)
    assert other_tol.tolerance != 0.5
    for report in (exact, other_tol):
        lam = lambda_matrix(code, family, tol=0.5, precomputed=report)
        assert (lam.kind, lam.rank) == (expected["kind"], expected["rank"])


MIXED_MENU = (spin_flip([0, 0, 2]), phase_shift([1, W3, W3 * W3]),
              general([[0.5, 0, 1j], [0.25, -1, 0], [0, 0.5, 0.5]]))


# (code, basis, window, verdict): families of no Weyl operator, which only
# the sparse Gram runs; the spin flip of the mixed menu is not injective
NON_WEYL_CASES = [
    pytest.param(builtin("majority3", 3, 1),
                 (spin_flip([1, 2, 0]), spin_flip([2, 0, 1])), 3, "pass",
                 id="majority3-cyclic-flips"),
    pytest.param(builtin("majority3", 3, 1),
                 (phase_shift([1, W3, W3 * W3]),
                  phase_shift([1, W3 * W3, W3])), 3, "fail",
                 id="majority3-phase-shifts"),
    pytest.param(perfect5_block(3), MIXED_MENU, 5, "pass",
                 id="perfect5-mixed"),
]


@pytest.mark.parametrize("code, basis, window, verdict", NON_WEYL_CASES)
def test_non_weyl_families_agree_with_dense_oracle(code, basis, window,
                                                   verdict):
    family = enumerate_family(code.width, window, 1, basis=basis,
                              n_levels=code.n_levels)
    report = kl_check(code, family)
    assert report.engine == "sparse-float"
    assert report.verdict == verdict
    deviation, oracle_lam = dense_kl_deviation(code, family)
    assert abs(report.max_deviation - deviation.max()) < 1e-9
    if report.passed:
        lam = lambda_matrix(code, family, precomputed=report).matrix
        assert np.abs(lam - oracle_lam).max() < 1e-9
    if code.n_levels ** code.width <= 27:
        assert dense_kl_check(code, family)[0] == verdict


@pytest.mark.parametrize("code, basis, window, verdict", NON_WEYL_CASES)
def test_float_verdict_at_zero_tolerance_is_the_exact_one(code, basis, window,
                                                          verdict):
    # the sparse Gram takes a deviation below FLOAT_ZERO_TOL as zero, the
    # rule of the exact engine's float mode, so rounding fails no check
    family = enumerate_family(code.width, window, 1, basis=basis,
                              n_levels=code.n_levels)
    floats = kl_check(code, family, tol=0.0)
    exact = kl_check(code, family, tol=0.0, exact=True)
    assert floats.engine == "sparse-float"
    assert floats.verdict == exact.verdict == verdict
    if floats.passed:
        assert floats.max_deviation == floats.interior_max_deviation == 0.0


def test_jobs_do_not_change_the_report():
    code = builtin("rate14_conv", 2, 2)
    family = weyl_family(code.width, 4, 1, 2)
    solo = kl_check(code, family, jobs=1)
    multi = kl_check(code, family, jobs=4)
    assert solo.verdict == multi.verdict
    assert abs(solo.max_deviation - multi.max_deviation) < 1e-12
    assert (solo.witness.pattern_a, solo.witness.pattern_b) == \
        (multi.witness.pattern_a, multi.witness.pattern_b)


def test_fail_fast_stops_with_witness():
    code = build_identity_code(2, 3)
    report = kl_check(code, weyl_family(3, 3, 1, 2), fail_fast=True)
    assert not report.passed
    assert report.witness is not None


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    code = builtin("rate14_conv", 2, 1)
    family = weyl_family(code.width, 4, 1, 2)
    with pytest.raises(ValueError, match="finite nonnegative"):
        kl_check(code, family, tol=tol)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError):
        kl_check(builtin("shor9", 2, 1), weyl_family(8, 8, 1, 2))


def test_report_json_shape():
    code = builtin("majority3", 2, 1)
    report = kl_check(code, flip_family(3, 3, 2))
    data = report.to_json()
    assert data["verdict"] == "pass"
    assert data["family"]["width"] == 3
    assert data["lambda_summary"]["kind"] == "identity"
    assert "witness" not in data
    bad = kl_check(build_identity_code(2, 2), weyl_family(2, 2, 1, 2))
    bad_data = bad.to_json()
    assert bad_data["verdict"] == "fail"
    assert bad_data["witness"]["deviation"] > 0


# -- modular algebra over Z_N -------------------------------------------------

def random_rows(rng, n, size=3):
    """One to four rows over Z_n, each scaled by a random divisor of n so
    that columns without a unit turn up."""
    divisors = [d for d in range(1, n) if n % d == 0]
    count = int(rng.integers(1, 5))
    rows = rng.integers(0, n, size=(count, size))
    return rows * rng.choice(divisors, size=(count, 1)) % n


def span_of(rows, n):
    """Every combination of the rows over Z_n, as a set of tuples."""
    coeffs = np.array(list(itertools.product(range(n), repeat=len(rows))),
                      dtype=np.int64).reshape(n ** len(rows), len(rows))
    return {tuple(v) for v in coeffs @ rows % n}


def tall_rows(rng, n, size=3):
    """Twelve to forty rows over Z_n, combinations of at most three
    ``random_rows``: many more rows than columns and a small span, the
    shape of a ket's support less its first string."""
    gens = random_rows(rng, n, size)[:3]
    coeffs = rng.integers(0, n, size=(int(rng.integers(12, 41)), len(gens)))
    return coeffs @ gens % n


def closure_of(rows, n):
    """Every combination of the rows over Z_n, one row at a time."""
    span = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        span = np.unique((span[:, None, :] + np.arange(n)[:, None] * row)
                         .reshape(-1, rows.shape[1]) % n, axis=0)
    return {tuple(v) for v in span}


MODULI = [4, 6, 8, 9, 5]


@pytest.mark.parametrize("n", MODULI)
def test_span_matches_enumeration(n):
    rng = np.random.default_rng(n)
    grid = np.array(list(itertools.product(range(n), repeat=3)))
    draws = [random_rows(rng, n) for _ in range(25)] + \
        [tall_rows(rng, n) for _ in range(10)]
    for rows in draws:
        span = span_of(rows, n) if len(rows) <= 4 else closure_of(rows, n)
        basis, pivots = verifier._howell(rows, n)
        # echelon rows, pivots dividing n, entries above a pivot below it
        assert pivots == sorted(set(pivots))
        for k, col in enumerate(pivots):
            assert n % basis[k, col] == 0 and not basis[k, :col].any()
            assert (basis[:k, col] < basis[k, col]).all()
        assert span_of(basis, n) == span
        assert verifier._order(basis, pivots, n) == len(span)
        reduced = verifier._reduce(grid, basis, pivots, n)
        assert {tuple(v) for v in grid[~reduced.any(axis=1)]} == span


@pytest.mark.parametrize("n", MODULI)
def test_nullspace_matches_enumeration(n):
    rng = np.random.default_rng(10 + n)
    grid = np.array(list(itertools.product(range(n), repeat=3)))
    for _ in range(25):
        rows = random_rows(rng, n)
        kernel = {tuple(v) for v in grid if not (rows @ v % n).any()}
        assert span_of(verifier._nullspace(rows, n), n) == kernel


@pytest.mark.parametrize("n", MODULI)
def test_back_substitution_matches_enumeration(n):
    rng = np.random.default_rng(20 + n)
    grid = np.array(list(itertools.product(range(n), repeat=3)))
    for _ in range(25):
        basis, pivots = verifier._howell(random_rows(rng, n), n)
        image = {tuple(v) for v in grid @ basis.T % n}
        for rhs in itertools.product(range(n), repeat=len(pivots)):
            z = verifier._solve(basis, pivots, np.array(rhs)[:, None], n)
            if rhs in image:
                assert tuple(basis @ z[:, 0] % n) == rhs
            else:
                assert z is None


# -- the syndrome engine ------------------------------------------------------

def cross_check(code, family, *references):
    """The syndrome engine's report against each reference engine's."""
    assert verifier._syndrome_plan(code, family) is not None, code.label
    reports = {}
    for engine in ("syndrome",) + references:
        with pytest.MonkeyPatch.context() as patch:
            if engine != "exact":
                force_engine(patch, engine)
            reports[engine] = kl_check(code, family, exact=engine == "exact")
            fast = kl_check(code, family, exact=engine == "exact",
                            fail_fast=True)
        assert reports[engine].engine == engine
        assert fast.verdict == reports[engine].verdict, (code.label, engine)
    ours = reports.pop("syndrome")
    for engine, ref in reports.items():
        where = (code.label, engine)
        assert ours.verdict == ref.verdict, where
        assert abs(ours.max_deviation - ref.max_deviation) < 1e-9, where
        assert abs(ours.interior_max_deviation
                   - ref.interior_max_deviation) < 1e-9, where
        assert ours.interior_verdict == ref.interior_verdict, where
        assert [witness_key(w) for w in ours.boundary_witnesses] == \
            [witness_key(w) for w in ref.boundary_witnesses], where
        assert ours.lambda_samples.keys() == ref.lambda_samples.keys()
        for key, value in ref.lambda_samples.items():
            assert abs(ours.lambda_samples[key] - value) < 1e-9, where
        assert np.abs(verifier._as_dense(ours.lam)
                      - verifier._as_dense(ref.lam)).max() < 1e-9, where
        if engine == "exact" and not ours.passed:
            # equal deviations are bit-equal in both engines, so exact ties
            # go to the earliest entry in both
            assert witness_key(ours.witness) == witness_key(ref.witness), \
                where
        if ours.passed:
            for key in ("kind", "rank", "dim"):
                assert ours.lambda_summary[key] == \
                    ref.lambda_summary[key], where
            assert abs(ours.lambda_summary["min_eigenvalue"]
                       - ref.lambda_summary["min_eigenvalue"]) < 1e-9
    return ours


def oracle_check(code, family, report):
    """The syndrome report against the dense projector oracle."""
    deviation, lam = dense_kl_deviation(code, family)
    assert abs(report.max_deviation - deviation.max()) < 1e-9, code.label
    assert np.abs(verifier._as_dense(report.lam) - lam).max() < 1e-9, \
        code.label


def qcc_perfect5(n, logical_len):
    return build_qcc_from_qbc(perfect5_block(n), lower_bidiagonal_mu(2),
                              logical_len)


# (code, family, verdict) on stabilizer codes over N = 2 to 6: builtins,
# Fourier duals, the Theorem-2 paste and a code pasted from the perfect
# block, each passing and failing; every one is small enough for the
# sparse Gram, and the smaller ones for the dense oracle
SYNDROME_CASES = DENSE_CASES + [
    pytest.param(builtin("shor9", 2, 1), weyl_family(9, 9, 1, 2), "pass",
                 id="shor9-N2"),
    pytest.param(builtin("shor9", 2, 1), weyl_family(9, 3, 1, 2), "fail",
                 id="shor9-N2-w3"),
    pytest.param(builtin("shor9", 3, 1), weyl_family(9, 9, 1, 3), "pass",
                 id="shor9-N3"),
    pytest.param(builtin("majority3", 2, 2), flip_family(6, 3, 2), "pass",
                 id="majority3-N2-flips"),
    pytest.param(builtin("majority3", 5, 1), weyl_family(3, 3, 1, 5), "fail",
                 id="majority3-N5"),
    pytest.param(builtin("spin_conv", 3, 1), flip_family(6, 4, 3), "pass",
                 id="spin_conv-N3-flips"),
    pytest.param(builtin("spin_conv", 2, 2), weyl_family(8, 4, 1, 2), "fail",
                 id="spin_conv-N2"),
    pytest.param(builtin("rate14_conv", 2, 1), weyl_family(8, 4, 1, 2),
                 "fail", id="rate14_conv-N2"),
    pytest.param(builtin("rate14_conv", 3, 1), weyl_family(8, 8, 1, 3),
                 "fail", id="rate14_conv-N3"),
    pytest.param(builtin("perfect5", 2, 1), weyl_family(10, 5, 1, 2),
                 "pass", id="perfect5-N2"),
    pytest.param(perfect5_block(3), weyl_family(5, 5, 1, 3), "pass",
                 id="perfect5_block-N3"),
    pytest.param(perfect5_block(5), weyl_family(5, 5, 1, 5), "pass",
                 id="perfect5_block-N5"),
    pytest.param(perfect5_block(5), enumerate_family(
        5, 5, 2, basis=(weyl(1, 0), weyl(0, 1)), n_levels=5), "fail",
        id="perfect5_block-N5-two-errors"),
    pytest.param(dualize(builtin("majority3", 2, 2)), weyl_family(6, 3, 1, 2),
                 "fail", id="dual-majority3-N2"),
    pytest.param(dualize(builtin("spin_conv", 2, 2)), phase_family(8, 4, 2),
                 "pass", id="dual-spin_conv-N2-phases"),
    pytest.param(dualize(builtin("majority3", 2, 3)), phase_family(9, 3, 2),
                 "pass", id="dual-majority3-N2-L3-phases"),
    pytest.param(dualize(builtin("spin_conv", 3, 1)), weyl_family(6, 4, 1, 3),
                 "fail", id="dual-spin_conv-N3"),
    pytest.param(theorem2_pipeline(builtin("spin_conv", 2, 1, flush=False)),
                 weyl_family(8, 4, 1, 2), "fail", id="theorem2-N2"),
    pytest.param(theorem2_pipeline(builtin("spin_conv", 2, 1, flush=False)),
                 flip_family(8, 8, 2), "pass", id="theorem2-N2-flips"),
    pytest.param(qcc_perfect5(3, 1), weyl_family(10, 10, 1, 3), "pass",
                 id="qcc-perfect5-N3"),
    pytest.param(qcc_perfect5(2, 2), weyl_family(10, 4, 1, 2), "fail",
                 id="qcc-perfect5-N2"),
    pytest.param(builtin("majority3", 4, 1), weyl_family(3, 3, 1, 4), "fail",
                 id="majority3-N4"),
    pytest.param(builtin("majority3", 6, 1), weyl_family(3, 3, 1, 6), "fail",
                 id="majority3-N6"),
    pytest.param(builtin("spin_conv", 6, 1), flip_family(6, 4, 6), "pass",
                 id="spin_conv-N6-flips"),
    pytest.param(builtin("shor9", 4, 1), weyl_family(9, 9, 1, 4), "pass",
                 id="shor9-N4"),
    pytest.param(perfect5_block(4), weyl_family(5, 5, 1, 4), "pass",
                 id="perfect5_block-N4"),
    pytest.param(perfect5_block(6), weyl_family(5, 5, 1, 6), "pass",
                 id="perfect5_block-N6"),
    pytest.param(dualize(builtin("majority3", 4, 1)), phase_family(3, 3, 4),
                 "pass", id="dual-majority3-N4-phases"),
    pytest.param(dualize(builtin("majority3", 6, 1)), weyl_family(3, 3, 1, 6),
                 "fail", id="dual-majority3-N6"),
    pytest.param(dualize(builtin("spin_conv", 4, 1)), phase_family(6, 4, 4),
                 "pass", id="dual-spin_conv-N4-phases"),
]


@pytest.mark.parametrize("code, family, verdict", SYNDROME_CASES)
def test_syndrome_engine_agrees_with_every_engine(code, family, verdict):
    report = cross_check(code, family, "sparse-float")
    assert report.verdict == verdict
    # the oracle costs N^width per pattern pair, its projector route
    # N^(3 width)
    space = code.n_levels ** code.width
    if space <= 3 ** 6 and len(family) <= 150:
        oracle_check(code, family, report)
    if space <= 64:
        assert dense_kl_check(code, family)[0] == verdict, code.label
    for w in report.boundary_witnesses + ((report.witness,)
                                          if report.witness else ()):
        assert abs(reevaluate_witness(code, family, w) - w.deviation) < 1e-9


# majority3 at N=4, L=2: its dual has 4096 amplitudes per ket, on which the
# sparse Gram takes 13 s for the phase family and far longer for the Weyl
# family.  F^dag W F is a Weyl operator on the same register, so the Weyl
# family on the dual is, as a set, the Weyl family on the code, and phases
# on the dual are flips on the code: the sparse Gram checks the code's
# sparse kets instead, and every pair's deviation carries over, as does
# every lambda entry up to a phase
@pytest.mark.parametrize("dual_family, code_family, verdict", [
    pytest.param(weyl_family(6, 3, 1, 4), weyl_family(6, 3, 1, 4), "fail",
                 id="weyl"),
    pytest.param(phase_family(6, 3, 4), flip_family(6, 3, 4), "pass",
                 id="phases"),
])
def test_syndrome_engine_on_a_dense_composite_dual(monkeypatch, dual_family,
                                                   code_family, verdict):
    code = builtin("majority3", 4, 2)
    dual = dualize(code)
    ours = kl_check(dual, dual_family)
    assert ours.engine == "syndrome" and ours.verdict == verdict
    force_engine(monkeypatch, "sparse-float")
    ref = kl_check(code, code_family)
    assert ref.engine == "sparse-float" and ref.verdict == verdict
    assert abs(ours.max_deviation - ref.max_deviation) < 1e-9
    assert abs(ours.interior_max_deviation
               - ref.interior_max_deviation) < 1e-9
    assert ours.interior_verdict == ref.interior_verdict
    assert np.abs(np.sort(np.abs(verifier._as_dense(ours.lam)), axis=None)
                  - np.sort(np.abs(ref.lam.toarray()), axis=None)).max() < 1e-9
    if ours.passed:
        for key in ("kind", "rank", "dim"):
            assert ours.lambda_summary[key] == ref.lambda_summary[key]
    for w in ours.boundary_witnesses + ((ours.witness,)
                                        if ours.witness else ()):
        assert abs(reevaluate_witness(dual, dual_family, w)
                   - w.deviation) < 1e-9


def close(x, y):
    return abs(x - y) < 1e-12


def same_witness(ours, ref):
    return witness_key(ours) == witness_key(ref) and close(
        ours.observed, ref.observed) and close(ours.expected, ref.expected)


@pytest.mark.parametrize("fail_fast", [False, True])
@pytest.mark.parametrize("code, family, verdict", SYNDROME_CASES)
def test_syndrome_engine_agrees_with_its_pair_by_pair_oracle(
        monkeypatch, code, family, verdict, fail_fast):
    ours = kl_check(code, family, fail_fast=fail_fast)
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "_syndrome_engine",
                      syndrome_oracle.syndrome_engine)
        ref = kl_check(code, family, fail_fast=fail_fast)
    assert ours.engine == ref.engine == "syndrome"
    assert (ours.verdict, ours.interior_verdict) == \
        (ref.verdict, ref.interior_verdict)
    assert close(ours.max_deviation, ref.max_deviation)
    assert close(ours.interior_max_deviation, ref.interior_max_deviation)
    assert len(ours.boundary_witnesses) == len(ref.boundary_witnesses)
    assert all(same_witness(w, v) for w, v in zip(ours.boundary_witnesses,
                                                  ref.boundary_witnesses))
    assert ours.lambda_samples.keys() == ref.lambda_samples.keys()
    assert all(close(ours.lambda_samples[key], value)
               for key, value in ref.lambda_samples.items())
    assert np.abs(verifier._as_dense(ours.lam)
                  - verifier._as_dense(ref.lam)).max(initial=0) < 1e-12
    if ours.passed:
        for key in ("kind", "rank", "dim"):
            assert ours.lambda_summary[key] == ref.lambda_summary[key]
        assert close(ours.lambda_summary["min_eigenvalue"],
                     ref.lambda_summary["min_eigenvalue"])
    elif witness_key(ours.witness) == witness_key(ref.witness):
        assert same_witness(ours.witness, ref.witness)
    else:
        # the oracle's float noise split an exact tie: the engine keeps it
        # and gives it to the earlier entry
        assert close(ours.witness.deviation, ref.witness.deviation)
        assert witness_key(ours.witness) < witness_key(ref.witness)


# small enough for exact arithmetic: passes and fails, N = 2 and 3, a dual
@pytest.mark.parametrize("code, family", [
    pytest.param(builtin("majority3", 3, 1), flip_family(3, 3, 3),
                 id="majority3-N3-flips"),
    pytest.param(build_identity_code(3, 2), weyl_family(2, 2, 1, 3),
                 id="identity-N3"),
    pytest.param(perfect5_block(2), weyl_family(5, 5, 1, 2),
                 id="perfect5_block-N2"),
    pytest.param(builtin("rate14_conv", 2, 1), weyl_family(8, 4, 1, 2),
                 id="rate14_conv-N2"),
    pytest.param(dualize(builtin("majority3", 2, 1)), weyl_family(3, 3, 1, 2),
                 id="dual-majority3-N2"),
    pytest.param(dualize(builtin("majority3", 3, 1)), weyl_family(3, 3, 1, 3),
                 id="dual-majority3-N3-L1"),
    pytest.param(dualize(builtin("majority3", 6, 1)), weyl_family(3, 3, 1, 6),
                 id="dual-majority3-N6"),
])
def test_syndrome_engine_agrees_with_exact(code, family):
    cross_check(code, family, "exact")


def test_syndrome_engine_is_chosen_for_the_stream_checks():
    for label, n, L, window in (("perfect5", 3, 1, 5),
                                ("rate14_conv", 2, 3, 8)):
        code = builtin(label, n, L)
        report = kl_check(code, weyl_family(code.width, window, 1, n))
        assert report.engine == "syndrome", label
    # so do phase families on Fourier duals and small families on sparse
    # kets
    dual = dualize(builtin("majority3", 3, 2))
    assert kl_check(dual, phase_family(6, 3, 3)).engine == "syndrome"
    assert kl_check(builtin("shor9", 3, 1),
                    weyl_family(9, 9, 1, 3)).engine == "syndrome"


def test_syndrome_engine_passes_with_exact_zeros():
    code = builtin("perfect5", 3, 1)
    family = weyl_family(10, 5, 1, 3)
    report = kl_check(code, family)
    assert report.engine == "syndrome" and report.passed
    assert report.max_deviation == report.interior_max_deviation == 0.0
    assert report.lambda_summary == {"kind": "identity", "rank": len(family),
                                     "dim": len(family), "min_eigenvalue": 0.0}
    # below LAMBDA_SUMMARY_MAX a pass holds lambda dense, and lambda_matrix
    # hands it on as it is
    lam = lambda_matrix(code, family, precomputed=report)
    assert lam.matrix is report.lam
    assert np.abs(lam.matrix - np.eye(len(family))).max() < 1e-12


def handmade_codes():
    """Kets that are no stabilizer code: a support of three terms, a phase
    ratio that is no root of unity, and two norms."""
    one = PhaseScalar.exact_one(2)
    third = PhaseScalar.from_complex(3 ** -0.5)
    eighth = PhaseScalar.from_complex(np.exp(0.25j * np.pi) / 2 ** 0.5)
    half = PhaseScalar.from_complex(2 ** -0.5)
    for kets in ({(0,): {(0, 0, 0): third, (0, 1, 1): third,
                         (1, 0, 1): third},
                  (1,): {(1, 1, 1): one}},
                 {(0,): {(0, 0, 0): half, (1, 1, 1): eighth},
                  (1,): {(0, 0, 0): half, (1, 1, 1): -eighth}},
                 {(0,): {(0, 0, 0): one},
                  (1,): {(1, 1, 1): PhaseScalar.from_complex(2)}}):
        yield CodeSpec("handmade", 2, 1, 3, 0, 0, 1, {
            w: RegisterState(2, 3, terms) for w, terms in kets.items()})


def test_syndrome_engine_leaves_other_inputs_to_the_old_rule():
    for code in handmade_codes():
        family = weyl_family(3, 3, 1, 2)
        assert verifier._read_tableau(code) is None
        report = kl_check(code, family)
        assert report.engine == "sparse-float"
        deviation, _ = dense_kl_deviation(code, family)
        assert abs(report.max_deviation - deviation.max()) < 1e-9
    # a family with an operator that is no Weyl operator
    code = builtin("shor9", 2, 1)
    family = enumerate_family(9, 9, 1, n_levels=2,
                              basis=(general([[0, 1], [1, 1]]),))
    assert verifier._syndrome_plan(code, family) is None
    assert kl_check(code, family).engine == "sparse-float"


def refused_stabilizer_codes():
    """Kets that each stop the stabilizer read at one more refusal: a
    generator that moves v_1 off its support, one that maps v_1 onto no
    multiple of itself, a phase ratio w^3 at N=4 that no Z part along the
    shift 2 gives (2z = -3 mod 4), and |S| dim = 3 != 4."""
    def amp(z):
        return PhaseScalar.from_complex(complex(z))

    cat = {(0, 0, 0): amp(2 ** -0.5), (1, 1, 1): amp(2 ** -0.5)}
    for n, width, kets in (
            (2, 3, {(0,): cat, (1,): {(0, 0, 1): amp(1)}}),
            (2, 3, {(0,): cat, (1,): {(0, 0, 1): amp(5 ** -0.5),
                                      (1, 1, 0): amp(2 * 5 ** -0.5)}}),
            (4, 1, {(0,): {(0,): amp(2 ** -0.5),
                           (2,): amp(np.exp(0.25j * np.pi) / 2 ** 0.5)}}),
            (2, 2, {(0, 0): {(0, 0): amp(1)}, (0, 1): {(0, 1): amp(1)},
                    (1, 0): {(1, 0): amp(1)}})):
        length = len(next(iter(kets)))
        yield CodeSpec("handmade", n, 1, width // length, 0, 0, length, {
            w: RegisterState(n, width, terms) for w, terms in kets.items()})


@pytest.mark.parametrize("op, message", [
    (spin_flip([1, 2, 0]), "spin flip table length"),
    (phase_shift([1, W3, W3 * W3]), "phase table length"),
    (general(np.eye(3)[[1, 2, 0]]), "matrix shape")])
def test_operators_sized_for_another_n_are_refused(op, message):
    # the pattern kernel refuses an operator table that is not N long, on
    # every path that applies the family
    code = builtin("majority3", 2, 1)
    family = enumerate_family(3, 3, 1, basis=(op,), n_levels=2)
    with pytest.raises(ValueError, match=message):
        kl_check(code, family)
    with pytest.raises(ValueError, match=message):
        kl_check(code, family, exact=True)
    with pytest.raises(ValueError, match=message):
        run_trials(code, ChannelConfig(p=0.1, seed=1, trials=3), family,
                   RegisterState.basis(2, (1,)))


@pytest.mark.parametrize("code", refused_stabilizer_codes())
def test_refused_stabilizer_reads_fall_back_to_the_sparse_gram(code):
    family = weyl_family(code.width, code.width, 1, code.n_levels)
    assert verifier._read_tableau(code) is None
    report = kl_check(code, family)
    assert report.engine == "sparse-float"
    deviation, _ = dense_kl_deviation(code, family)
    assert abs(report.max_deviation - deviation.max()) < 1e-9
    # inexact amplitudes: the exact engine checks them in floats
    assert verifier._read_lattice(code, list(family)) is None
    exact = kl_check(code, family, exact=True)
    assert exact.engine == "exact" and exact.verdict == report.verdict



def test_duplicate_characters_fall_back_to_the_sparse_gram():
    # |0>, |1> and w|0> at N=3: the stabilizer read finds Z, which gives
    # v_0 and v_2 one character, so no tableau reads off the kets; v_0 and
    # v_2 are not orthogonal, and the sparse Gram fails the check
    one = PhaseScalar.exact_one(3)
    code = CodeSpec("handmade", 3, 1, 1, 0, 0, 1, {
        (0,): RegisterState.basis(3, (0,)),
        (1,): RegisterState.basis(3, (1,)),
        (2,): RegisterState(3, 1, {(0,): one * PhaseScalar.from_complex(
            W3)})})
    assert verifier._read_tableau(code) is None
    report = kl_check(code, weyl_family(1, 1, 1, 3))
    assert report.engine == "sparse-float" and report.verdict == "fail"
    # |<v_0|v_2>| = 1 and, with Z, |<v_1|Z|v_1> - <v_0|Z|v_0>| = |w - 1|
    assert abs(report.max_deviation - 3 ** 0.5) < 1e-9


def test_a_ket_without_terms_takes_the_float_paths():
    # |000> and the zero ket at N=2: no stabilizer reads off a ket with no
    # terms, so the sparse Gram and the channel's ket decoder serve it
    code = CodeSpec("handmade", 2, 1, 3, 0, 0, 1, {
        (0,): RegisterState.basis(2, (0, 0, 0)),
        (1,): RegisterState(2, 3, {})})
    family = weyl_family(3, 3, 1, 2)
    assert verifier._read_tableau(code) is None
    floats, exact = kl_check(code, family), kl_check(code, family, exact=True)
    assert floats.engine == "sparse-float" and exact.engine == "exact"
    assert floats.verdict == exact.verdict == "fail"
    assert floats.max_deviation == exact.max_deviation == 1.0
    summary = run_trials(code, ChannelConfig(p=0.2, seed=3, trials=20),
                         family, RegisterState.basis(2, (0,)))
    assert summary.decoder == "ket" and summary.trials == 20


def test_a_stabilizer_past_the_syndrome_range_falls_back(monkeypatch):
    # one ket over {0, 3}^12 at N=6: N^width = 6^12 stays below 2^62, but S
    # has 24 Howell rows (pivots 2 and 3), and syndromes of 6^24 >= 2^62
    # values are not read as base-N integers
    one = PhaseScalar.exact_one(6)
    site = RegisterState(6, 1, {(0,): one, (3,): one})
    ket = site
    for _ in range(11):
        ket = ket.tensor(site)
    assert len(ket) == 4096
    code = CodeSpec("handmade", 6, 1, 12, 0, 0, 1, {(0,): ket})
    orders = []
    real_order = verifier._order

    def order(rows, pivots, n):
        orders.append((len(rows), real_order(rows, pivots, n)))
        return orders[-1][1]

    monkeypatch.setattr(verifier, "_order", order)
    assert verifier._read_tableau(code) is None
    # the read got past the order check of S, which has |S| = 6^12
    assert orders[-1] == (24, 6 ** 12)
    report = kl_check(code, weyl_family(12, 12, 1, 6))
    assert report.engine == "sparse-float" and report.passed
    assert report.family_size == 421


def test_repeated_check_reads_the_kept_syndrome_table():
    code = builtin("rate14_conv", 2, 3)
    family = weyl_family(16, 8, 1, 2)
    reports = [kl_check(code, family).to_json() for _ in range(2)]
    for data in reports:
        del data["elapsed_seconds"]
    assert reports[0]["engine"] == "syndrome"
    assert reports[1] == reports[0]
    tab, table = verifier._syndrome_plan(code, family)
    assert tab is code._stabilizer and list(tab.frames) == [family]
    assert tab.frames[family] is table
    assert table.patterns == list(family)
    assert table.members == set(family)
    assert np.array_equal(table.touches, verifier._touches(code, list(family)))


def test_repeated_check_marks_the_boundary_once(monkeypatch):
    # the syndrome table keeps which members touch the boundary, so a
    # second check on one (code, family) walks no pattern objects for it
    code = builtin("rate14_conv", 2, 3)
    family = weyl_family(16, 8, 1, 2)
    calls = []
    touches = verifier._touches

    def counting(code, patterns):
        calls.append(len(patterns))
        return touches(code, patterns)

    monkeypatch.setattr(verifier, "_touches", counting)
    reports = [kl_check(code, family) for _ in range(2)]
    assert [r.engine for r in reports] == ["syndrome", "syndrome"]
    assert calls == [len(family)]


def test_syndrome_engine_scans_only_entries_that_can_be_nonzero(monkeypatch):
    # a failing pair maps v_j onto one ket, targets[j], so block (i, j)
    # holds its overlap only where targets[j] == i, and a diagonal block
    # also holds its deviation where the reference overlap is nonzero;
    # every other entry is an exact zero and stays out of the scan
    code = builtin("rate14_conv", 2, 3)
    family = weyl_family(16, 8, 1, 2)
    fed = []
    add = verifier._Scan.add

    def counting(self, i, j, a, b, deviation, observed=None):
        live = (deviation != 0) | (observed != 0)
        fed.append((deviation.size, int(np.count_nonzero(live))))
        add(self, i, j, a, b, deviation, observed)

    monkeypatch.setattr(verifier._Scan, "add", counting)
    report = kl_check(code, family)
    assert report.engine == "syndrome" and report.verdict == "fail"
    entries = sum(size for size, _ in fed)
    assert entries > 0
    assert entries == sum(live for _, live in fed)


def test_syndrome_engine_reads_every_ket_once_per_logical_class(
        monkeypatch):
    # a failing pair's overlaps are its logical class's times one phase,
    # so only one representative pair per class is read on every ket
    code = builtin("rate14_conv", 2, 3)
    family = weyl_family(16, 8, 1, 2)
    calls = []
    transfer = verifier._transfer

    def counting(tab, n, rows_a, rows_b, sources):
        calls.append((len(rows_a), len(sources)))
        return transfer(tab, n, rows_a, rows_b, sources)

    monkeypatch.setattr(verifier, "_transfer", counting)
    report = kl_check(code, family)
    assert report.engine == "syndrome" and report.verdict == "fail"
    assert [rows for rows, sources in calls if sources > 1] == [7]


def test_syndrome_engine_settles_rate14_conv_at_five_symbols():
    # 4537 patterns at width 24; the sparse Gram ran for minutes on this
    code = builtin("rate14_conv", 2, 5)
    family = weyl_family(24, 8, 1, 2)
    report = kl_check(code, family)
    assert report.engine == "syndrome"
    assert report.verdict == "fail"
    assert reevaluate_witness(code, family, report.witness) > 1e-6
    # lambda holds the label blocks and the failing pairs only
    assert issparse(report.lam)
    # every failing pair touches the head or the three tail blocks: the
    # Z10.Z19 / Z18 flip witness reaches register 18, and no pair inside
    # registers 5..12 fails, as the sparse Gram confirms on that range
    assert report.interior_verdict == "pass"
    assert kl_check(code, family.restricted(tuple(range(5, 13)))).passed


def test_exact_reports_carry_lambda_data():
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    exact, floats = (kl_check(code, family, exact=flag)
                     for flag in (True, False))
    assert exact.passed
    for key in ("kind", "rank", "dim"):
        assert exact.lambda_summary[key] == floats.lambda_summary[key]
    assert abs(exact.lambda_summary["min_eigenvalue"]
               - floats.lambda_summary["min_eigenvalue"]) < 1e-12
    assert exact.to_json()["lambda_summary"]["rank"] == 22
    code = builtin("rate14_conv", 2, 1)
    family = weyl_family(8, 4, 1, 2)
    exact, floats = (kl_check(code, family, exact=flag)
                     for flag in (True, False))
    assert exact.verdict == "fail" and exact.lambda_summary is None
    assert len(exact.lambda_samples) == 16
    assert exact.lambda_samples.keys() == floats.lambda_samples.keys()
    for key, value in floats.lambda_samples.items():
        assert abs(exact.lambda_samples[key] - value) < 1e-12
    assert len(exact.to_json()["lambda_samples"]) == 16


# -- the order the scan relies on ---------------------------------------------

def feed_cases(path):
    """(code, family, exact, forced) of each check one engine path runs."""
    non_weyl = [(code, enumerate_family(code.width, window, 1, basis=basis,
                                        n_levels=code.n_levels))
                for code, basis, window, _ in (p.values
                                               for p in NON_WEYL_CASES)]
    if path == "syndrome":
        return [(code, family, False, False)
                for code, family, _ in (p.values for p in SYNDROME_CASES)]
    if path == "sparse-float":
        forced = {"rate14_conv-N2", "identity-N3", "dual-spin_conv-N2-L1",
                  "shor9-N2-w3", "majority3-N5"}
        return [(code, family, False, False) for code, family in non_weyl] \
            + [(*p.values[:2], False, True) for p in SYNDROME_CASES
               if p.id in forced]
    lattice = path == "exact-lattice"
    return [(code, family, True, False) for code, family in non_weyl
            + [p.values[:2] for p in EXACT_CASES]
            if (verifier._read_lattice(code, list(family)) is not None)
            == lattice]


@pytest.mark.parametrize("fail_fast", [False, True])
@pytest.mark.parametrize("path", ["syndrome", "sparse-float",
                                  "exact-lattice", "exact-float"])
def test_engines_feed_the_scan_in_block_and_entry_order(monkeypatch, path,
                                                        fail_fast):
    # the scan keeps the first largest deviation and the first boundary
    # entries it is fed, so every engine must feed blocks (i, j) in
    # increasing order and each block's (a, b) in increasing order
    fed = []
    add = verifier._Scan.add

    def spy(self, i, j, a, b, deviation, observed):
        fed.append((i, j, np.asarray(a), np.asarray(b)))
        add(self, i, j, a, b, deviation, observed)

    monkeypatch.setattr(verifier._Scan, "add", spy)
    entries = 0
    for code, family, exact, forced in feed_cases(path):
        fed.clear()
        with monkeypatch.context() as patch:
            if forced:
                force_engine(patch, "sparse-float")
            report = kl_check(code, family, exact=exact, fail_fast=fail_fast)
        assert report.engine == (path.split("-")[0] if exact else path)
        blocks = [(i, j) for i, j, _, _ in fed]
        assert all(x < y for x, y in zip(blocks, blocks[1:])), code.label
        for _, _, a, b in fed:
            assert (np.diff(a * len(family) + b) > 0).all(), code.label
            entries += a.size
    assert entries > 0
