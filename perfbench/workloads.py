"""The benchmark's four workloads, their output checks and their layer metrics.

Run one workload in this process:

    python3 perfbench/workloads.py --workload stream-verify --seed 1 \
        --seconds 10 --trace 0 [--setup-only] [--spawned MONOTONIC]

``perfbench/run.py`` is the entry point; it starts this file once per
set-up sample and once for the measured run.  Each workload has a set-up
(codes, duals, families) and a round that is repeated until ``--seconds``
of operation time have passed (at least once).  The outputs of each round are checked after its timed calls, with
``checkers``, which shares no kernel with the package.  The last line
printed is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checkers as C  # noqa: E402
from harness import Bench  # noqa: E402

TOL = 1e-9
PAIR_SAMPLES = 48        # pattern pairs re-evaluated per passing verdict
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("stream-verify", "dual-verify", "channel-low-p", "channel-high-p")


def import_package():
    """Import quditqec from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quditqec" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {src}")
    sys.path.insert(0, str(src))
    import quditqec
    if Path(quditqec.__file__).resolve().parent != (src / "quditqec").resolve():
        raise SystemExit("perfbench: quditqec was imported from elsewhere")
    return quditqec


def child_env() -> dict:
    """Environment of CLI subprocesses: this checkout's source, one BLAS thread."""
    env = dict(os.environ)
    env.pop("QUDITQEC_REPORT_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Ctx:
    """State shared by one workload run: package, bench, seed and checks."""

    def __init__(self, Q, bench: Bench, seed: int):
        self.Q = Q
        self.bench = bench
        self.seed = seed
        self.rng = np.random.default_rng([seed, 7])
        self.checks = []
        self.final = []
        self.identity: dict = {}
        self._dense: dict[int, np.ndarray] = {}
        # (code id, chosen, injected) -> whether the pair satisfies KL
        self.kl_pairs: dict = {}
        self.env = child_env()

    def later(self, fn) -> None:
        """Queue an output check; it runs after the round's timed calls."""
        self.checks.append(fn)

    def at_end(self, fn) -> None:
        """Queue a check over every round; it runs when the rounds are done."""
        self.final.append(fn)

    def run_checks(self, final=False) -> None:
        queue = self.checks + (self.final if final else [])
        self.checks = []
        for check in queue:
            check()

    def channel_seed(self, round_index: int, slot: int) -> int:
        return (self.seed * 1_000_003 + 16 * round_index + slot) % 2 ** 63

    # -- wrapped package calls ------------------------------------------------

    def build(self, label, n, L, flush=True):
        op, code = self.bench.call(
            None, "builtin", "codes", self.Q.builtin, label, n, L, flush=flush,
            count=lambda c: {"ket_terms": ket_terms(c)})
        return op, code

    def dualize(self, code):
        return self.bench.call(
            None, "dualize", "transforms", self.Q.dualize, code,
            count=lambda c: {"ket_terms": ket_terms(c)})

    def family(self, width, window, max_errors, n=None, basis=None):
        """A family and its patterns, listed inside the span."""
        def make():
            fam = self.Q.enumerate_family(width, window, max_errors,
                                          basis=basis, n_levels=n)
            return fam, list(fam)
        op, (fam, patterns) = self.bench.call(
            None, "enumerate_family", "errors", make,
            count=lambda r: {"patterns": len(r[1])})
        ops_per_site = len(fam.basis)
        self.later(lambda: self.bench.expect(
            op, len(patterns) == C.count_family(width, window, max_errors,
                                                ops_per_site),
            f"family size {len(patterns)} differs from the support count"))
        return fam, patterns

    def kl(self, code, fam, patterns, exact=False, **kwargs):
        metric = "exact_verify_s" if exact else "verify_s"
        return self.bench.call(
            metric, "kl_check", "verifier", self.Q.kl_check, code, fam,
            exact=exact, attrs=kl_attrs(code, patterns, exact), **kwargs)

    def lam(self, code, fam, report):
        return self.bench.call("lambda_s", "lambda_matrix", "verifier",
                               self.Q.lambda_matrix, code, fam,
                               precomputed=report)

    def reevaluate(self, code, fam, witness):
        return self.bench.call("exact_verify_s", "reevaluate_witness",
                               "verifier", self.Q.reevaluate_witness, code,
                               fam, witness)

    def certify(self, n, max_len, window=4, max_errors=1):
        return self.bench.call(
            "certify_s", "certify_radius", "classical", self.Q.certify_radius,
            n, max_len, window=window, max_errors=max_errors,
            count=lambda r: {"corruptions": r.corruptions_checked})

    def cli(self, args, out: Path | None = None):
        argv = [sys.executable, "-m", "quditqec", *args]
        if out is not None:
            argv += ["--out", str(out)]
        return self.bench.call(
            "cli_s", "cli " + args[0], "cli", subprocess.run, argv,
            capture_output=True, text=True, env=self.env, cwd=str(ROOT),
            timeout=120)

    def trials(self, code, fam, patterns, cfg, logical):
        """run_trials, timed; in a traced run also replay its stages."""
        bench = self.bench
        op, summary = bench.call(
            "run_trials_s", "run_trials", "channel", self.Q.run_trials,
            code, cfg, fam, logical, keep_records=True,
            count=lambda s: trial_counts(s, code, patterns))
        if summary is not None:
            bench.add("trials", cfg.trials)
        if bench.trace and summary is not None:
            encoded = code.encode(logical)
            with bench.span("sample_channel", "channel", trials=cfg.trials):
                for t in range(cfg.trials):
                    self.Q.sample_channel(encoded, cfg, t)
            with bench.span("decode_mld", "channel"):
                self.Q.decode_mld(code, encoded, fam)
        return op, summary

    # -- dense reference ------------------------------------------------------

    def kets(self, code, rows=None) -> np.ndarray:
        """Encoded kets as one ``(d,) + (N,)*width`` array, in logical order.

        ``rows`` picks some logical words only (not cached), for codes whose
        full stack would be large.
        """
        key = id(code)
        if rows is None and key in self._dense:
            return self._dense[key]
        windows = code.logical_windows()
        stack = np.stack([
            C.dense_ket(code.encoded_kets[windows[i]].to_complex_terms(),
                        code.n_levels, code.width)
            for i in (range(len(windows)) if rows is None else rows)])
        if rows is None:
            self._dense[key] = stack
        return stack


def weyl_ops(pattern) -> tuple:
    for _, op in pattern.ops:
        if op.kind != "weyl":
            raise ValueError(f"the dense evaluator takes Weyl operators, "
                             f"not {op.kind}")
    return tuple((pos, op.a, op.b) for pos, op in pattern.ops)


def ket_terms(code) -> int:
    return sum(len(state) for state in code.encoded_kets.values())


def kl_attrs(code, patterns, exact) -> dict:
    return {"exact": exact, "patterns": len(patterns),
            "dim": code.logical_dim, "ket_terms": ket_terms(code),
            "space": code.n_levels ** code.width}


def trial_counts(summary, code, patterns) -> dict:
    records = summary.records
    return {"trials": len(records),
            "in_family": summary.in_family_count,
            "distinct": len({r.injected for r in records}),
            "identity": sum(r.injected.weight == 0 for r in records),
            "decoder_nnz": len(patterns) * ket_terms(code)}


# -- output checks ----------------------------------------------------------------

def check_fail(ctx: Ctx, op, code, patterns, report):
    """A fail verdict's witness must re-evaluate above tolerance, densely."""
    b = ctx.bench
    if not b.expect(op, report.verdict == "fail" and report.witness is not None,
                    "expected a fail verdict with a witness"):
        return None
    w = report.witness
    # logical word 0 (the lambda reference) and the witness's two words
    rows = sorted({0, w.logical_i, w.logical_j})
    dev = C.witness_deviation(ctx.kets(code, rows),
                              weyl_ops(patterns[w.pattern_a]),
                              weyl_ops(patterns[w.pattern_b]),
                              rows.index(w.logical_i),
                              rows.index(w.logical_j), code.n_levels)
    b.expect(op, dev > TOL, f"witness re-evaluates to {dev:.3e}")
    return dev


def check_pass(ctx: Ctx, op, code, patterns, report) -> dict:
    """A pass verdict must hold on a seeded sample of pattern pairs.

    Returns <0|A^dag B|0> for each sampled pair, for the lambda check.
    """
    b = ctx.bench
    if not b.expect(op, report.verdict == "pass", "expected a pass verdict"):
        return {}
    size = len(patterns)
    pairs = {(0, 0)} | {tuple(int(x) for x in pair)
                        for pair in ctx.rng.integers(0, size, (PAIR_SAMPLES, 2))}
    kets = ctx.kets(code)
    lam = {}
    for a, c in sorted(pairs):
        gram = C.overlap_matrix(kets, weyl_ops(patterns[a]),
                                weyl_ops(patterns[c]), code.n_levels)
        dev = C.kl_deviation(gram)
        if not b.expect(op, dev <= TOL,
                        f"pair ({a}, {c}) deviates by {dev:.3e}"):
            break
        lam[(a, c)] = complex(gram[0, 0])
    return lam


def check_lambda(ctx: Ctx, op, report, sampled: dict):
    b = ctx.bench
    m = np.asarray(report.matrix)
    size = m.shape[0]
    b.expect(op, float(np.abs(m - m.conj().T).max()) <= TOL, "not Hermitian")
    b.expect(op, float(np.abs(np.diag(m) - 1).max()) <= TOL,
             "diagonal is not 1")
    try:
        np.linalg.cholesky(0.5 * (m + m.conj().T) + 1e-8 * np.eye(size))
        psd = True
    except np.linalg.LinAlgError:
        psd = False
    b.expect(op, psd, "not positive semidefinite")
    for (a, c), value in sampled.items():
        b.expect(op, abs(m[a, c] - value) <= TOL,
                 f"entry ({a}, {c}) is {m[a, c]} against {value}")


def check_reevaluated(ctx: Ctx, op, value, dense_dev):
    ctx.bench.expect(op, dense_dev is not None
                     and abs(value - dense_dev) <= 1e-7,
                     f"re-evaluation {value} against dense {dense_dev}")


def check_certify(ctx: Ctx, op, report, n, max_len, window, max_errors):
    b = ctx.bench
    if report.passed:
        messages, corruptions = C.radius_corruptions(n, max_len, window,
                                                     max_errors)
        b.expect(op, (report.messages_checked, report.corruptions_checked)
                 == (messages, corruptions),
                 f"checked {report.corruptions_checked} corruptions, "
                 f"closed form {corruptions}")
        return
    ce = report.counterexample
    if not b.expect(op, ce is not None, "fail without a counterexample"):
        return

    def reached(message, positions, values):
        word = list(C.stream_encode(message, n))
        for pos, off in zip(positions, values):
            word[pos - 1] = (word[pos - 1] + off) % n
        return tuple(word)

    b.expect(op, ce.message != ce.rival_message
             and len(ce.message) == len(ce.rival_message) <= max_len,
             "counterexample messages are not two distinct equal-length words")
    b.expect(op, reached(ce.message, ce.positions, ce.values) == ce.word
             and reached(ce.rival_message, ce.rival_positions,
                         ce.rival_values) == ce.word,
             "the encoder does not map both messages onto the word")
    b.expect(op, all(0 < v < n for v in ce.values + ce.rival_values)
             and C.in_window(ce.positions, window, max_errors)
             and C.in_window(ce.rival_positions, window, max_errors),
             "a corruption lies outside the window rule")


def check_cli(ctx: Ctx, op, proc, expect_exit, schema=None, out=None):
    """Exit code against the library's verdict, JSON against the schema."""
    b = ctx.bench
    if proc is None:
        return None
    if expect_exit == 2:
        lines = proc.stderr.strip().splitlines()
        if proc.returncode != 2 or len(lines) != 1:
            b.error(op, f"exit {proc.returncode} with {len(lines)} stderr "
                        "lines, expected exit 2 with one line")
        return None
    if not b.expect(op, proc.returncode == expect_exit,
                    f"exit {proc.returncode}, library says {expect_exit}: "
                    f"{proc.stderr.strip()[-300:]}"):
        return None
    text = Path(out).read_text() if out is not None else proc.stdout
    try:
        report = json.loads(text)
    except ValueError:
        b.expect(op, False, "the report is not JSON")
        return None
    if schema is not None:
        import jsonschema
        try:
            jsonschema.validate(report, ctx.Q.SCHEMAS[schema])
        except jsonschema.ValidationError as exc:
            b.expect(op, False, f"schema {schema}: {exc.message}")
    return report


def check_trials(ctx: Ctx, op, code, fam, patterns, summary, cfg,
                 all_in_family_succeed: bool):
    """Trial records against the window test, the identity rule and KL pairs."""
    b = ctx.bench
    records = summary.records
    b.expect(op, len(records) == cfg.trials, "record count")
    basis = {(o.a, o.b) for o in fam.basis}
    kets = None if all_in_family_succeed else ctx.kets(code)
    for r in records:
        ops = weyl_ops(r.injected)
        in_fam = C.in_window(r.injected.support, fam.window, fam.max_errors) \
            and all((a, c) in basis for _, a, c in ops)
        if not b.expect(op, r.in_family == in_fam,
                        f"in-family flag {r.in_family} for "
                        f"{r.injected.support}"):
            return
        if r.injected.weight == 0:
            b.expect(op, r.success, "an identity trial failed")
        if not r.in_family or r.success:
            continue
        if all_in_family_succeed or r.chosen is None:
            b.expect(op, False, f"in-family trial {r.injected.support} failed")
            return
        key = (id(code), r.chosen, r.injected)
        if key not in ctx.kl_pairs:
            gram = C.overlap_matrix(kets, weyl_ops(r.chosen), ops,
                                    code.n_levels)
            ctx.kl_pairs[key] = C.kl_deviation(gram) <= TOL
        if not b.expect(op, not ctx.kl_pairs[key],
                        f"failed trial with a KL-satisfying pair "
                        f"{r.chosen.support} / {r.injected.support}"):
            return


def tally_identity(ctx: Ctx, key, op, summary, width, p):
    """Count identity injections; their rate is checked after every round."""
    counts = ctx.identity.get(key)
    if counts is None:
        counts = ctx.identity[key] = [0, 0]
        ctx.at_end(lambda: check_identity_rate(ctx, op, counts, width, p))
    counts[0] += sum(r.injected.weight == 0 for r in summary.records)
    counts[1] += len(summary.records)


def check_identity_rate(ctx: Ctx, op, counts, width, p):
    """Identity injections within 5 sigma of trials * (1-p)^width."""
    ident, total = counts
    q = (1 - p) ** width
    sigma = math.sqrt(total * q * (1 - q))
    ctx.bench.expect(op, abs(ident - total * q) <= 5 * sigma + 1e-9,
                     f"{ident} identity injections of {total}, "
                     f"expected {total * q:.1f}")


def check_same_code(ctx: Ctx, op, built, reference):
    """One global unit scalar maps ``built`` onto ``reference``."""
    x, y = ctx.kets(built), ctx.kets(reference)
    ok = x.shape == y.shape
    if ok:
        x, y = x.reshape(x.shape[0], -1), y.reshape(y.shape[0], -1)
        scalar = np.vdot(y[0], x[0])
        ok = abs(abs(scalar) - 1) <= TOL and \
            float(np.abs(x - scalar * y).max()) <= 1e-9
    ctx.bench.expect(op, ok, f"{built.label} differs from {reference.label}")


def pasted_rate14(ctx: Ctx, n: int, L: int):
    """rate14_conv by the paper's pasting route: dual outer, flushed inner."""
    _, outer = ctx.build("spin_conv", n, L, flush=False)
    _, dual = ctx.dualize(outer)
    _, inner = ctx.build("spin_conv", n, dual.width, flush=True)
    op, pasted = ctx.bench.call(None, "paste", "transforms", ctx.Q.paste,
                                dual, inner)
    return op, pasted


# -- steps ----------------------------------------------------------------------

def interleave(*tracks) -> list:
    """Merge step lists so that every track's steps spread over the round.

    The machine's speed drifts over seconds, so a metric whose work sits in
    one stretch of the round would carry that stretch's speed; spread out,
    it averages over the whole round.
    """
    keyed = [((k + 0.5) / len(track), t, step)
             for t, track in enumerate(tracks) for k, step in enumerate(track)]
    return [step for *_, step in sorted(keyed, key=lambda item: item[:2])]


def verify(ctx: Ctx, code, fam, patterns, reevaluate=True, sampled=None,
           **kwargs):
    """Float kl_check, then lambda_matrix on a pass or reevaluate_witness on
    a fail, with their checks queued.

    On a pass, the check fills ``sampled`` (if given) with the dense
    evaluator's lambda entries, for checking later lambda matrices.
    """
    op, rep = ctx.kl(code, fam, patterns, **kwargs)
    if rep is None:
        return op, rep
    if rep.passed:
        lop, lam = ctx.lam(code, fam, rep)
        if sampled is None:
            sampled = {}

        def check():
            sampled.update(check_pass(ctx, op, code, patterns, rep))
            if lam is not None:
                check_lambda(ctx, lop, lam, sampled)
    else:
        rop, value = ctx.reevaluate(code, fam, rep.witness) if reevaluate \
            else (None, None)

        def check():
            dev = check_fail(ctx, op, code, patterns, rep)
            if value is not None:
                check_reevaluated(ctx, rop, value, dev)
    ctx.later(check)
    return op, rep


def lambda_again(ctx: Ctx, code, fam, report, sampled: dict):
    """lambda_matrix once more from a passing report, checked against the
    entries ``verify`` sampled for it."""
    if report is None or not report.passed:
        return
    lop, lam = ctx.lam(code, fam, report)
    ctx.later(lambda: lam is not None and check_lambda(ctx, lop, lam, sampled))


def exact(ctx: Ctx, code, fam, patterns, float_report):
    """Exact kl_check; its verdict must equal ``float_report()``'s, which is
    looked up at check time."""
    op, rep = ctx.kl(code, fam, patterns, exact=True)

    def check():
        ref = float_report()
        if rep is not None and ref is not None:
            ctx.bench.expect(op, rep.verdict == ref.verdict,
                             f"exact {rep.verdict} against float {ref.verdict}")
    ctx.later(check)


def certify(ctx: Ctx, args):
    op, rep = ctx.certify(*args)
    ctx.later(lambda: rep is not None and check_certify(ctx, op, rep, *args))


def cli(ctx: Ctx, args, expect_exit, schema=None, out=None):
    """One CLI invocation; ``expect_exit`` is called at check time."""
    op, proc = ctx.cli(args, out=out)
    ctx.later(lambda: check_cli(ctx, op, proc, expect_exit(), schema))
    return op, proc


def exit_of(report) -> int | None:
    return None if report is None else int(not report.passed)


# -- workloads ------------------------------------------------------------------

class Workload:
    """setup(), then round(i) until the time is up, then the checks.

    Every end-to-end time is the mean per round, so every timed operation
    belongs to the rounds and repeats in each of them.
    """

    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.Q = ctx.Q

    def setup(self):
        raise NotImplementedError

    def round(self, index: int):
        raise NotImplementedError


class StreamVerify(Workload):
    """The paper's checks, on sparse kets."""

    R14 = ("rate14_conv", 2, 3, 8)
    P5 = ("perfect5", 3, 1, 5)
    SHOR9 = ("shor9", 3, 1, 9)
    FLOAT = (R14, SHOR9, P5, ("spin_conv", 2, 2, 4), ("shor9", 2, 1, 9))
    EXACT = (("spin_conv", 2, 2, 4), ("shor9", 2, 1, 9))
    CERTIFY = ((2, 7, 4, 1), (3, 4, 4, 2), (3, 4, 4, 1), (2, 6, 4, 2))
    TRIAL_CHUNKS, TRIALS = 4, 100

    def setup(self):
        ctx = self.ctx
        self.codes, self.fams = {}, {}
        for key in self.FLOAT:
            label, n, L, window = key
            _, code = ctx.build(label, n, L)
            self.codes[key] = code
            self.fams[key] = ctx.family(code.width, window, 1, n=n)
        op, pasted = pasted_rate14(ctx, 2, 3)
        ctx.later(lambda: check_same_code(ctx, op, pasted,
                                          self.codes[self.R14]))

    def round(self, index):
        ctx = self.ctx
        reports: dict = {}

        def verify_step(key):
            code = self.codes[key]
            fam, patterns = self.fams[key]
            op, reports[key] = verify(ctx, code, fam, patterns)
            if key == self.R14:
                ctx.later(lambda: self._forced(op, code, patterns))

        steps = interleave(
            [lambda key=key: verify_step(key) for key in self.FLOAT],
            [lambda key=key: exact(ctx, self.codes[key], *self.fams[key],
                                   lambda key=key: reports.get(key))
             for key in self.EXACT],
            [lambda args=args: certify(ctx, args) for args in self.CERTIFY],
            self._cli_steps(reports),
            [lambda k=k: self._trials(index, k)
             for k in range(self.TRIAL_CHUNKS)])
        for step in steps:
            step()

    def _forced(self, op, code, patterns):
        """Z6.Z15 and Z14 both lie in the L=3 family and violate KL."""
        ctx = self.ctx
        a, c = ((6, 0, 1), (15, 0, 1)), ((14, 0, 1),)
        listed = {weyl_ops(p) for p in patterns}
        ctx.bench.expect(op, a in listed and c in listed
                         and C.in_window((6, 15), 8, 1),
                         "Z6.Z15 or Z14 is missing from the family")
        gram = C.overlap_matrix(ctx.kets(code), a, c, 2)
        ctx.bench.expect(op, C.kl_deviation(gram) > TOL,
                         "Z6.Z15 / Z14 does not violate KL")

    def _cli_steps(self, reports):
        """One invocation for each exit code: 0 pass, 1 fail, 2 usage error."""
        ctx = self.ctx
        missing = OUT_DIR / "missing" / "report.json"
        return [
            lambda: cli(ctx, ["lambda", "--code", "shor9", "--n-levels", "3",
                              "--window", "9", "--jobs", "1"],
                        lambda: exit_of(reports.get(self.SHOR9)),
                        "lambda_report"),
            lambda: cli(ctx, ["verify-kl", "--code", "rate14_conv",
                              "--logical-len", "3", "--window", "8",
                              "--jobs", "1"],
                        lambda: exit_of(reports.get(self.R14)), "kl_report"),
            # a report path in a directory that does not exist is a usage
            # error: exit 2 with one line on stderr
            lambda: cli(ctx, ["verify-kl", "--code", "shor9", "--window", "9",
                              "--jobs", "1"], lambda: 2, out=missing),
        ]

    def _trials(self, index, chunk):
        """shor9 N=3 against its family: every in-family trial succeeds."""
        ctx, Q = self.ctx, self.Q
        code = self.codes[self.SHOR9]
        fam, patterns = self.fams[self.SHOR9]
        cfg = Q.ChannelConfig(p=0.05, seed=ctx.channel_seed(index, chunk),
                              trials=self.TRIALS)
        op, summary = ctx.trials(code, fam, patterns, cfg,
                                 Q.RegisterState.basis(3, (1,)))
        if summary is None:
            return
        tally_identity(ctx, "shor9", op, summary, code.width, cfg.p)
        ctx.later(lambda: check_trials(ctx, op, code, fam, patterns, summary,
                                       cfg, True))


class DualVerify(Workload):
    """Spin flips on a code against phase patterns on its Fourier dual."""

    # the row with the largest dual kets; the streaming check takes its dual
    DENSE_ROW = ("spin_conv", 3, 2, 4)
    ROWS = tuple((label, n, L, window)
                 for label, window in (("majority3", 3), ("spin_conv", 4))
                 for n in (2, 3) for L in (1, 2)) + \
        (("majority3", 2, 1, 1), ("spin_conv", 2, 1, 1))
    # the full Weyl family from window 5 on is the smallest one on the
    # streaming side of the engine's cache/stream choice for this dual
    FULL = ("spin_conv", 3, 2, 5)
    EXACT = (("majority3", 3, 1, 3), ("spin_conv", 2, 1, 4))
    CERTIFY = ((2, 7, 4, 1), (3, 4, 4, 1), (2, 1, 1, 1))
    TRIAL_CHUNKS, TRIALS = 4, 250
    CHANNEL_ROW = ("majority3", 3, 1, 3)
    # the short operations run this many times in a round, so that the
    # long checks do not leave them with one sample each
    PASSES = 2
    LAMBDAS = 3              # extra lambda_matrix calls on the dense row

    def setup(self):
        ctx, Q = self.ctx, self.Q
        self.rows = {}
        for key in self.ROWS:
            label, n, L, window = key
            bop, code = ctx.build(label, n, L)
            dop, dual = ctx.dualize(code)
            flips = ctx.family(code.width, window, 1, basis=tuple(
                Q.additive_flip(a) for a in range(1, n)))
            phases = ctx.family(code.width, window, 1, basis=tuple(
                Q.weyl(0, b) for b in range(1, n)))
            self.rows[key] = (code, dual, flips, phases)
            ctx.later(lambda bop=bop, dop=dop, code=code, dual=dual, key=key:
                      self._check_kets(bop, dop, code, dual, key))
        label, n, L, window = self.FULL
        self.full_dual = self.rows[self.DENSE_ROW][1]
        self.full_fam = ctx.family(self.full_dual.width, window, 1, n=n)

    def _check_kets(self, bop, dop, code, dual, key):
        """Builtin kets are the independent codewords; dual kets their DFT."""
        label, n, L, _ = key
        words = C.codewords(label, n, L)
        dense = self.ctx.kets(dual)
        for i, w in enumerate(code.logical_windows()):
            word = words[w]
            self.ctx.bench.expect(
                bop, code.encoded_kets[w].to_complex_terms() == {word: 1},
                f"{label} ket {w} is not the codeword {word}")
            self.ctx.bench.expect(
                dop, np.allclose(dense[i], C.dual_amplitudes(word, n),
                                 atol=1e-12),
                f"dual of {label} ket {w} is not the DFT of its codeword")

    def _row(self, key, sampled=(None, None)):
        """Flips on the code and phases on its dual, checked against each
        other and against the integer collision test."""
        code, dual, flips, phases = self.rows[key]
        pair = (verify(self.ctx, code, *flips, sampled=sampled[0]),
                verify(self.ctx, dual, *phases, sampled=sampled[1]))
        self.ctx.later(lambda: self._check_row(key, *pair))
        return pair

    def _dense_lambdas(self, rows, sampled):
        """The dense row's lambda matrices once more, from its reports."""
        code, dual, (flips, _), (phases, _) = self.rows[self.DENSE_ROW]
        for c, fam, (_, rep), entries in zip(
                (code, dual), (flips, phases), rows[self.DENSE_ROW], sampled):
            lambda_again(self.ctx, c, fam, rep, entries)

    def _streaming(self):
        """fail_fast: the check stops at the first violating block; the
        witness is re-evaluated by the dense evaluator only."""
        verify(self.ctx, self.full_dual, *self.full_fam, fail_fast=True,
               reevaluate=False)

    def round(self, index):
        ctx = self.ctx
        rows = {}
        sampled = ({}, {})

        def row_step(key):
            rows[key] = self._row(key, sampled if key == self.DENSE_ROW
                                  else (None, None))

        def exact_step(key):
            code, dual, flips, phases = self.rows[key]
            exact(ctx, code, *flips, lambda: rows[key][0][1])
            exact(ctx, dual, *phases, lambda: rows[key][1][1])

        # the dense row first, so that its lambda matrices can be taken
        # again over the rest of the round
        steps = interleave(
            [lambda key=key: row_step(key)
             for key in sorted(self.ROWS, key=lambda k: k != self.DENSE_ROW)],
            [lambda: self._dense_lambdas(rows, sampled)] * self.LAMBDAS,
            [self._streaming],
            [lambda key=key: exact_step(key)
             for key in self.EXACT * self.PASSES],
            [lambda args=args: self._certify(args)
             for args in self.CERTIFY * self.PASSES],
            self._cli_steps() * self.PASSES,
            [lambda k=k: self._trials(index, k)
             for k in range(self.TRIAL_CHUNKS)])
        for step in steps:
            step()

    def _check_row(self, key, flip, phase):
        """Flip verdict = dual phase verdict = integer collision test."""
        (fop, frep), (pop, prep) = flip, phase
        if frep is None or prep is None:
            return
        label, n, L, window = key
        collide = C.flip_collision(C.codewords(label, n, L), n, window, 1)
        b = self.ctx.bench
        b.expect(fop, (frep.verdict == "fail") == collide,
                 f"{key}: flip verdict {frep.verdict}, collision {collide}")
        b.expect(pop, prep.verdict == frep.verdict,
                 f"{key}: phase verdict on the dual {prep.verdict}, "
                 f"flip verdict {frep.verdict}")

    def _certify(self, args):
        """The classical radius certificate asks the spin_conv rows' question."""
        ctx = self.ctx
        op, rep = ctx.certify(*args)

        def check():
            if rep is None:
                return
            check_certify(ctx, op, rep, *args)
            n, max_len, window, max_errors = args
            collide = any(
                C.flip_collision(C.codewords("spin_conv", n, L), n, window,
                                 max_errors)
                for L in range(1, min(2, max_len) + 1))
            ctx.bench.expect(op, not (rep.passed and collide),
                             "certificate passes where spin_conv flips "
                             "collide")
        ctx.later(check)

    def _cli_steps(self):
        ctx, Q = self.ctx, self.Q

        def library_exit(label, n, L, window):
            code = Q.builtin(label, n, L)
            fam = Q.enumerate_family(code.width, window, 1, n_levels=n)
            return exit_of(Q.kl_check(code, fam))

        return [
            lambda: cli(ctx, ["dualize", "--code", "majority3", "--n-levels",
                              "3", "--logical-len", "2"],
                        lambda: 0, "manifest"),
            lambda: cli(ctx, ["verify-kl", "--code", "spin_conv",
                              "--n-levels", "3", "--window", "4",
                              "--jobs", "1"],
                        lambda: library_exit("spin_conv", 3, 1, 4),
                        "kl_report"),
        ]

    def _trials(self, index, chunk):
        """The dual of majority3 in a channel of phase errors only."""
        ctx, Q = self.ctx, self.Q
        code, dual, flips, (fam, patterns) = self.rows[self.CHANNEL_ROW]
        cfg = Q.ChannelConfig(p=0.1, seed=ctx.channel_seed(index, chunk),
                              trials=self.TRIALS, error_menu=fam.basis)
        op, summary = ctx.trials(dual, fam, patterns, cfg,
                                 Q.RegisterState.basis(3, (1,)))
        if summary is None:
            return
        tally_identity(ctx, "dual", op, summary, dual.width, cfg.p)
        ctx.later(lambda: check_trials(ctx, op, dual, fam, patterns, summary,
                                       cfg, True))


class Channel(Workload):
    """Noise injection and brute-force decoding at one error probability.

    Each round runs the two channels, each followed by small instances of
    every other operation and one CLI ``simulate``, so that every
    end-to-end metric is measured here too, twice per round.
    """

    P = None
    TRIALS = None            # (rate14_conv trials, perfect5 trials) per round
    CLI_TRIALS = 50
    R14 = ("rate14_conv", 2, 3, 8)
    P5 = ("perfect5", 3, 1, 5)
    PROBES = (("rate14_conv", 2, 1, 8), ("perfect5", 2, 1, 5))
    PASSING = PROBES[1]
    CERTIFY = (2, 7, 4, 1)
    EXACTS, LAMBDAS = 3, 8

    def setup(self):
        ctx = self.ctx
        self.codes, self.fams = {}, {}
        for key in (self.R14, self.P5) + self.PROBES:
            label, n, L, window = key
            _, code = ctx.build(label, n, L)
            self.codes[key] = code
            self.fams[key] = ctx.family(code.width, window, 1, n=n)
        op, pasted = pasted_rate14(ctx, 2, 3)
        ctx.later(lambda: check_same_code(ctx, op, pasted,
                                          self.codes[self.R14]))

    def round(self, index):
        ctx = self.ctx

        def probes():
            """One small instance of every other operation."""
            sampled = {}
            reports = {key: verify(ctx, self.codes[key], *self.fams[key],
                                   sampled=sampled if key == self.PASSING
                                   else None)[1]
                       for key in (self.R14,) + self.PROBES}
            # the exact probe and the passing probe's lambda take tens of
            # milliseconds or less: repeat them
            key = self.PROBES[0]
            for _ in range(self.EXACTS):
                exact(ctx, self.codes[key], *self.fams[key],
                      lambda: reports[key])
            certify(ctx, self.CERTIFY)
            for _ in range(self.LAMBDAS):
                lambda_again(ctx, self.codes[self.PASSING],
                             self.fams[self.PASSING][0],
                             reports[self.PASSING], sampled)

        r14 = self._trials(index, self.R14, (0, 1, 1), self.TRIALS[0])
        probes()
        self._cli(index, r14)
        self._trials(index, self.P5, (2,), self.TRIALS[1])
        probes()
        self._cli(index, r14)

    def _trials(self, index, key, logical, trials):
        ctx, Q = self.ctx, self.Q
        code = self.codes[key]
        fam, patterns = self.fams[key]
        cfg = Q.ChannelConfig(p=self.P, trials=trials,
                              seed=ctx.channel_seed(index, key == self.P5))
        op, summary = ctx.trials(code, fam, patterns, cfg,
                                 Q.RegisterState.basis(code.n_levels, logical))
        if summary is None:
            return None
        tally_identity(ctx, key, op, summary, code.width, self.P)
        # rate14_conv fails its family, so a decoder mistake there must come
        # from a pair that violates KL; perfect5 passes, so none may happen
        ctx.later(lambda: check_trials(ctx, op, code, fam, patterns, summary,
                                       cfg, key == self.P5))
        return summary

    def _cli(self, index, round_summary):
        """simulate on the CLI equals the library's first trials of the round."""
        ctx = self.ctx
        argv = ["simulate", "--code", "rate14_conv", "--logical-len", "3",
                "--window", "8", "--p", repr(self.P),
                "--trials", str(self.CLI_TRIALS),
                "--seed", str(ctx.channel_seed(index, 0)), "--input", "011",
                "--jobs", "1"]
        op, proc = ctx.cli(argv)

        def check():
            if round_summary is None or proc is None:
                return
            first = round_summary.records[:self.CLI_TRIALS]
            in_family = sum(r.in_family for r in first)
            success = sum(r.success for r in first)
            clean = sum(r.success for r in first if r.in_family) == in_family
            report = check_cli(ctx, op, proc, int(not clean),
                               "channel_summary")
            if report is None:
                return
            mean = math.fsum(r.logical_fidelity for r in first) / len(first)
            ctx.bench.expect(
                op, report["in_family"] == in_family
                and report["success"] == success
                and abs(report["mean_fidelity"] - mean) <= 1e-12,
                "CLI summary differs from the library's records")
        ctx.later(check)


class ChannelLow(Channel):
    P = 0.02
    TRIALS = (600, 60)


class ChannelHigh(Channel):
    P = 0.2
    TRIALS = (250, 25)


CLASSES = {"stream-verify": StreamVerify, "dual-verify": DualVerify,
           "channel-low-p": ChannelLow, "channel-high-p": ChannelHigh}


# -- metrics ----------------------------------------------------------------------

TIMES = ("verify_s", "exact_verify_s", "lambda_s", "certify_s", "cli_s",
         "run_trials_s")


def end_to_end(bench: Bench, rss_mb: float, scaled=True) -> dict:
    """Times per round, scaled by the reference work unless ``scaled`` is
    false."""
    per_round = bench.scaled_per_round if scaled else bench.per_round
    times = {name: per_round(name) for name in TIMES}
    run_s = times.pop("run_trials_s")
    out = {name: (value, "s") for name, value in times.items()}
    out["trials_per_s"] = (bench.per_round("trials") / run_s if run_s else 0.0,
                           "trials/s")
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


def layer_metrics(bench: Bench) -> dict:
    """Per-layer figures from the spans; round spans count per round."""
    rounds = max(bench.rounds, 1)

    def weight(span):
        return 1.0 if span.round is None else 1.0 / rounds

    def total(name, attr=None, layer=None, where=lambda s: True):
        return sum(weight(s) * (s.seconds if attr is None
                                else s.attrs.get(attr, 0))
                   for s in bench.spans
                   if s.name == name and (layer is None or s.layer == layer)
                   and where(s))

    float_kl = [s for s in bench.spans
                if s.name == "kl_check" and not s.attrs["exact"]]
    kl_s = total("kl_check", where=lambda s: not s.attrs["exact"])
    overlaps = sum(weight(s) * s.attrs["patterns"] ** 2
                   * s.attrs["dim"] * (s.attrs["dim"] + 1) / 2
                   for s in float_kl)
    nnz = sum(weight(s) * s.attrs["patterns"] * s.attrs["ket_terms"]
              for s in float_kl)
    space = sum(weight(s) * s.attrs["patterns"] * s.attrs["space"]
                * s.attrs["dim"] for s in float_kl)
    run_s = total("run_trials")
    sample_s = total("sample_channel")
    build_s = total("decode_mld")
    trials = total("run_trials", "trials")
    certify_s = total("certify_radius")
    corruptions = total("certify_radius", "corruptions")
    cli = [s for s in bench.spans if s.layer == "cli" and s.name != "import"]
    m = {
        "codes.build_s": (total("builtin"), "s"),
        "codes.ket_terms": (total("builtin", "ket_terms"), "count"),
        "transforms.dualize_s": (total("dualize"), "s"),
        "transforms.dual_ket_terms": (total("dualize", "ket_terms"), "count"),
        "errors.family_s": (total("enumerate_family"), "s"),
        "errors.patterns": (total("enumerate_family", "patterns"), "count"),
        "verifier.kl_s": (kl_s, "s"),
        "verifier.kl_max_s": (max((s.seconds for s in float_kl), default=0.0),
                              "s"),
        "verifier.checks": (sum(weight(s) for s in float_kl), "count"),
        "verifier.overlaps": (overlaps, "count"),
        "verifier.overlaps_per_s": (overlaps / kl_s if kl_s else 0.0, "1/s"),
        "verifier.nnz": (nnz, "count"),
        "verifier.occupancy": (nnz / space if space else 0.0, "ratio"),
        "verifier.kl_exact_s": (
            total("kl_check", where=lambda s: s.attrs["exact"]), "s"),
        "verifier.reevaluate_s": (total("reevaluate_witness"), "s"),
        "verifier.lambda_s": (total("lambda_matrix"), "s"),
        "channel.run_s": (run_s, "s"),
        "channel.sample_s": (sample_s, "s"),
        "channel.decoder_build_s": (build_s, "s"),
        "channel.decode_score_s": (run_s - sample_s - build_s, "s"),
        "channel.trials": (trials, "count"),
        "channel.in_family": (total("run_trials", "in_family"), "count"),
        "channel.distinct_injected": (total("run_trials", "distinct"),
                                      "count"),
        "channel.identity_share": (
            total("run_trials", "identity") / trials if trials else 0.0,
            "ratio"),
        "channel.decoder_nnz": (total("run_trials", "decoder_nnz"), "count"),
        "classical.certify_s": (certify_s, "s"),
        "classical.corruptions": (corruptions, "count"),
        "classical.corruptions_per_s": (
            corruptions / certify_s if certify_s else 0.0, "1/s"),
        "cli.import_s": (total("import", layer="cli"), "s"),
        "cli.invocation_s": (sum(weight(s) * s.seconds for s in cli), "s"),
        "cli.invocations": (sum(weight(s) for s in cli), "count"),
    }
    return m


# -- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned", type=float, default=None,
                        help="time.monotonic() when the parent started us")
    args = parser.parse_args(argv)
    spawned = time.monotonic() if args.spawned is None else args.spawned
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    bench = Bench(run_id, trace=bool(args.trace))

    Q = import_package()
    ctx = Ctx(Q, bench, args.seed)
    work = CLASSES[args.workload](ctx)
    if args.trace:
        with bench.span("import", "cli"):
            subprocess.run([sys.executable, "-c", "import quditqec"],
                           env=ctx.env, cwd=str(ROOT), check=True)
    work.setup()
    setup_s = time.monotonic() - spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # the checks run between rounds, outside the measured time, so that
    # results need not be kept for the whole run
    bench.sample_reference(force=True)
    measured = 0.0
    rss_mb = None
    while True:                      # at least one round
        bench.begin_round()
        started = time.perf_counter()
        with bench.span("round", "bench"):
            work.round(bench.round)
        measured += time.perf_counter() - started
        if rss_mb is None:
            # the package's own peak, through one whole round and before
            # any check allocates memory of its own
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ctx.run_checks()
        if measured >= args.seconds:
            break
    bench.sample_reference(force=True)
    bench.end_rounds()
    e2e = end_to_end(bench, rss_mb)
    print("as measured, not scaled: " + json.dumps(
        {k: v for k, (v, _) in end_to_end(bench, rss_mb, False).items()}),
        file=sys.stderr)
    reference_s = statistics.median(d for _, d in bench.refs)
    print(f"reference work: median {reference_s:.5f} s over "
          f"{len(bench.refs)} samples", file=sys.stderr)
    ctx.run_checks(final=True)

    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        bench.write_spans(path)
        print(f"spans: {len(bench.spans)} written to "
              f"{path.relative_to(ROOT)}", file=sys.stderr)
        metrics = layer_metrics(bench)
        # the same end-to-end figures, for the tracing overhead
        print("traced end-to-end: " + json.dumps(
            {k: v for k, (v, _) in e2e.items()}), file=sys.stderr)
    else:
        metrics = e2e
    failures = [f"{op.name}: {op.status}: {op.detail}"
                for op in bench.ops if op.status != "ok"]
    for line in failures:
        print(f"failed operation: {line}", file=sys.stderr)
    print(json.dumps({
        "setup_s": setup_s, "rounds": bench.rounds, "measured_s": measured,
        "correct": bench.correct, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
