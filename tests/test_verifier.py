import numpy as np
import pytest

import quditqec.verifier as verifier
from dense_oracle import dense_kl_check, dense_kl_deviation
from quditqec.codes import build_identity_code, builtin, perfect5_block
from quditqec.errors import additive_flip, enumerate_family, weyl
from quditqec.transforms import dualize
from quditqec.verifier import (VerificationError, kl_check, lambda_matrix,
                               reevaluate_witness)


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


def test_exact_engine_agrees_with_float():
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    exact = kl_check(code, family, exact=True)
    assert exact.passed
    assert exact.engine == "exact"
    assert exact.max_deviation == 0.0
    bad = builtin("rate14_conv", 2, 1)
    bad_family = weyl_family(8, 4, 1, 2)
    float_report = kl_check(bad, bad_family)
    exact_report = kl_check(bad, bad_family, exact=True)
    assert not float_report.passed and not exact_report.passed
    assert abs(float_report.max_deviation - exact_report.max_deviation) < 1e-9


def test_streaming_engine_matches_cached(monkeypatch):
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    cached = kl_check(code, family)
    monkeypatch.setattr(verifier, "NNZ_CACHE_LIMIT", 0)
    streamed = kl_check(code, family)
    assert streamed.passed == cached.passed
    assert abs(streamed.max_deviation - cached.max_deviation) < 1e-12
    # a failing case keeps the same first witness in both modes
    bad = builtin("rate14_conv", 2, 1)
    bad_family = weyl_family(8, 4, 1, 2)
    monkeypatch.setattr(verifier, "NNZ_CACHE_LIMIT", 10 ** 9)
    w1 = kl_check(bad, bad_family).witness
    monkeypatch.setattr(verifier, "NNZ_CACHE_LIMIT", 0)
    w2 = kl_check(bad, bad_family).witness
    assert (w1.pattern_a, w1.pattern_b, w1.logical_i, w1.logical_j) == \
        (w2.pattern_a, w2.pattern_b, w2.logical_i, w2.logical_j)


def force_engine(monkeypatch, engine):
    """Route float checks to one engine, whatever the cost rule says."""
    def choose(code, patterns):
        if engine == "sparse-float":
            return engine, None
        return engine, verifier._weyl_plan(code, patterns)
    monkeypatch.setattr(verifier, "_choose_engine", choose)


def phase_family(width, window, n):
    ops = tuple(weyl(0, b) for b in range(1, n))
    return enumerate_family(width, window, 1, basis=ops, n_levels=n)


# (code, Weyl family, verdict) small enough for the dense oracle: Fourier
# duals against phase and full Weyl families, sparse kets against full
# Weyl families (X, Z and mixed X^a Z^b operators)
CHARACTERISTIC_CASES = [
    (dualize(builtin("majority3", 2, 1)), phase_family(3, 3, 2), "pass"),
    (dualize(builtin("majority3", 3, 1)), phase_family(3, 3, 3), "pass"),
    (dualize(builtin("majority3", 2, 2)), phase_family(6, 3, 2), "pass"),
    (dualize(builtin("spin_conv", 2, 1)), phase_family(6, 4, 2), "pass"),
    (dualize(builtin("spin_conv", 3, 1)), phase_family(6, 4, 3), "pass"),
    (dualize(builtin("spin_conv", 2, 1)), phase_family(6, 1, 2), "fail"),
    (dualize(builtin("majority3", 2, 1)), weyl_family(3, 3, 1, 2), "fail"),
    (dualize(builtin("majority3", 3, 1)), weyl_family(3, 3, 1, 3), "fail"),
    (dualize(builtin("spin_conv", 2, 1)), weyl_family(6, 4, 1, 2), "fail"),
    (perfect5_block(2), weyl_family(5, 5, 1, 2), "pass"),
    (build_identity_code(2, 3), weyl_family(3, 3, 1, 2), "fail"),
    (build_identity_code(3, 2), weyl_family(2, 2, 1, 3), "fail"),
]


def test_characteristic_engine_agrees_with_dense_oracle(monkeypatch):
    force_engine(monkeypatch, "characteristic")
    for code, family, verdict in CHARACTERISTIC_CASES:
        report = kl_check(code, family)
        assert report.engine == "characteristic"
        assert report.verdict == verdict, code.label
        deviation, oracle_lam = dense_kl_deviation(code, family)
        assert abs(report.max_deviation - deviation.max()) < 1e-9, code.label
        if report.passed:
            lam = lambda_matrix(code, family, precomputed=report).matrix
            assert np.abs(lam - oracle_lam).max() < 1e-9, code.label
        # the projector route costs N^(3 width) per pair
        if code.n_levels ** code.width <= 64:
            assert dense_kl_check(code, family)[0] == verdict, code.label


def test_characteristic_engine_matches_cached(monkeypatch):
    cases = [(code, family) for code, family, _ in CHARACTERISTIC_CASES]
    cases.append((builtin("shor9", 2, 1), weyl_family(9, 9, 1, 2)))
    cases.append((dualize(builtin("majority3", 2, 3)),
                  phase_family(9, 3, 2)))
    for code, family in cases:
        force_engine(monkeypatch, "sparse-float")
        cached = kl_check(code, family)
        force_engine(monkeypatch, "characteristic")
        fast = kl_check(code, family)
        assert cached.engine == "sparse-float"
        assert fast.verdict == cached.verdict, code.label
        assert abs(fast.max_deviation - cached.max_deviation) < 1e-12
        assert abs(fast.interior_max_deviation
                   - cached.interior_max_deviation) < 1e-12
        assert fast.interior_verdict == cached.interior_verdict
        assert len(fast.boundary_witnesses) == \
            len(cached.boundary_witnesses)
        assert fast.lambda_samples.keys() == cached.lambda_samples.keys()
        for key, value in cached.lambda_samples.items():
            assert abs(fast.lambda_samples[key] - value) < 1e-12
        if fast.passed:
            for key in ("kind", "rank", "dim"):
                assert fast.lambda_summary[key] == cached.lambda_summary[key]
            assert abs(fast.lambda_summary["min_eigenvalue"]
                       - cached.lambda_summary["min_eigenvalue"]) < 1e-12
            assert np.abs(lambda_matrix(code, family, precomputed=fast).matrix
                          - cached.lam.toarray()).max() < 1e-12


def test_characteristic_witnesses_reevaluate(monkeypatch):
    force_engine(monkeypatch, "characteristic")
    for code, family, verdict in CHARACTERISTIC_CASES:
        if verdict == "pass":
            continue
        for fail_fast in (False, True):
            report = kl_check(code, family, fail_fast=fail_fast)
            assert not report.passed
            witness = report.witness
            assert witness.deviation == report.max_deviation
            deviation = reevaluate_witness(code, family, witness)
            assert abs(deviation - witness.deviation) < 1e-9, code.label
            for extra in report.boundary_witnesses:
                assert abs(reevaluate_witness(code, family, extra)
                           - extra.deviation) < 1e-9


def test_fail_fast_stops_after_first_violating_delta_group(monkeypatch):
    force_engine(monkeypatch, "characteristic")
    code = dualize(builtin("majority3", 2, 2))
    family = weyl_family(6, 3, 1, 2)
    patterns = list(family)
    deviation, lam = dense_kl_deviation(code, family)
    n, width = code.n_levels, code.width

    def delta(a, b):
        """Grid index of the X-shift difference, register 1 first."""
        shifts = [dict((pos, op.a) for pos, op in patterns[p].ops)
                  for p in (a, b)]
        digits = [(shifts[0].get(pos, 0) - shifts[1].get(pos, 0)) % n
                  for pos in range(1, width + 1)]
        return sum(d * n ** (width - 1 - k) for k, d in enumerate(digits))

    worst: dict[int, float] = {}
    for (a, b), dev in np.ndenumerate(deviation):
        key = delta(a, b)
        worst[key] = max(worst.get(key, 0.0), dev)
    first = min(key for key, dev in worst.items() if dev > 1e-9)
    assert first > 0  # the scan gets past D = 0
    report = kl_check(code, family, fail_fast=True)
    w = report.witness
    assert delta(w.pattern_a, w.pattern_b) == first
    assert abs(report.max_deviation - worst[first]) < 1e-9
    assert report.max_deviation < kl_check(code, family).max_deviation + 1e-9
    for (a, b), value in report.lambda_samples.items():
        assert abs(value - lam[a, b]) < 1e-9


def test_engine_choice_follows_operation_counts():
    sparse = kl_check(builtin("spin_conv", 2, 2),
                      flip_family(8, 4, 2))
    assert sparse.engine == "sparse-float"
    dense = kl_check(dualize(builtin("spin_conv", 2, 2)),
                     phase_family(8, 4, 2))
    assert dense.engine == "characteristic"
    assert sparse.verdict == dense.verdict == "pass"


def test_lambda_matrix_reuses_the_check(monkeypatch):
    code = builtin("shor9", 2, 1)
    family = weyl_family(9, 9, 1, 2)
    report = kl_check(code, family)

    def refuse(*args, **kwargs):
        raise AssertionError("lambda_matrix repeated work of the check")
    monkeypatch.setattr(verifier, "_family_matrix", refuse)
    monkeypatch.setattr(verifier, "_summarize_lambda", refuse)
    lam = lambda_matrix(code, family, precomputed=report)
    assert lam.kind == report.lambda_summary["kind"]
    assert np.abs(lam.matrix - report.lam.toarray()).max() == 0.0


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
