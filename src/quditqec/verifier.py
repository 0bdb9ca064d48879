"""Exhaustive recoverability checking of a code against an error-pattern family.

For every ordered operator pair (A, B) from the family and every logical
pair (i, j) the check evaluates <i_enc| A^dagger B |j_enc>.  Off-diagonal
entries (i != j) must vanish and diagonal entries must not depend on i;
the shared diagonal value is the lambda matrix entry for (A, B).  This is
the Knill-Laflamme criterion specialized to a finite pattern family.

Three engines share one report format (``KLReport.engine`` names the one
that ran):

* ``sparse-float`` expands each error-applied ket into a sparse row over
  the full computational basis, keeps one such matrix per logical word
  (columns that are zero in all of them dropped) and forms the Gram
  blocks (i, j >= i) with scipy, in order.
* ``characteristic`` handles families whose operators are all Weyl
  operators (or the identity).  For A = X^a_A Z^b_A, B = X^a_B Z^b_B and
  the X-shift difference D = a_A - a_B,
  <A v_i, B v_j> = w^(b_B.D) sum_x w^((b_B - b_A).x) conj(v_i(x)) v_j(x + D),
  which is one entry of the code's characteristic function (the quantity
  behind the Shor-Laflamme weight enumerators).  One discrete Fourier
  transform over the (N,)*width grid per distinct D and logical pair gives
  every phase difference at once.
* ``exact`` walks operator pairs with cyclotomic amplitudes and certifies
  zeros symbolically; it is meant for small widths.

The float engine is chosen by one rule that compares operation counts
read from the input: ``|D| * N^width * width`` for the characteristic
engine (D the set of distinct X-shift differences) against
``|F|^2 * t^2 / N^width`` for the sparse Gram (F the family, t the mean
number of ket terms: the expected multiply-adds of a Gram product of two
|F| x N^width matrices with t terms per row).  Both counts are per
logical pair.  The lower count wins; a tie keeps the sparse Gram.
Sparse kets land on the sparse Gram, dense kets such as Fourier duals on
the characteristic engine.  All three engines run in one thread and feed
their deviations to one accumulator, which alone picks the witness (the
largest deviation, ties going to the earliest (i, j, a, b)) and the
boundary witnesses (the earliest ones above tolerance).

Deviations are classified as interior or boundary by whether either
pattern of the offending pair touches a register of the code's truncation
boundary (head and tail blocks).  The split is bookkeeping: a boundary
violation need not be a truncation artifact, and an interior that passes
may merely be too narrow to hold a witness.  ``rate14_conv`` has both a
head collision (a single phase error on register 3 at L=3) and a
translation-invariant witness that lives in the stream interior.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, issparse

from .codes import CodeSpec
from .errors import PatternFamily, apply_pattern
from .states import RegisterState, inner_product

BOUNDARY_WITNESS_CAP = 10
LAMBDA_SAMPLE_DIM = 4
# eigendecomposition for the rank summary is skipped above this family size
LAMBDA_SUMMARY_MAX = 4096


class VerificationError(ValueError):
    """Raised when lambda extraction is requested for a failing code."""


@dataclass(frozen=True)
class KLWitness:
    """One overlap entry that violates the recoverability condition.

    Indices refer to the deterministic enumeration order of the family
    (pattern_a, pattern_b) and of the sorted logical windows (logical_i,
    logical_j).  `expected` is 0 for off-diagonal entries and the reference
    lambda value for diagonal ones.
    """

    pattern_a: int
    pattern_b: int
    logical_i: int
    logical_j: int
    observed: complex
    expected: complex
    deviation: float
    boundary: bool

    def to_json(self) -> dict:
        return {"pattern_a": self.pattern_a, "pattern_b": self.pattern_b,
                "logical_i": self.logical_i, "logical_j": self.logical_j,
                "observed": [self.observed.real, self.observed.imag],
                "expected": [self.expected.real, self.expected.imag],
                "deviation": self.deviation, "boundary": self.boundary}


@dataclass
class KLReport:
    """Outcome of one check.

    ``lam`` holds the lambda matrix in the form the engine produced it: a
    scipy CSR matrix from ``sparse-float``, a dense array from
    ``characteristic`` and ``exact``.  It is complete on a pass; after a
    ``fail_fast`` stop the characteristic engine fills only the entries it
    reached and the sampled corner, and after an exact failure it is None.
    It is not part of the JSON report.
    """

    verdict: str
    code_label: str
    tolerance: float
    exact: bool
    engine: str
    family_size: int
    logical_dim: int
    max_deviation: float
    witness: KLWitness | None
    interior_max_deviation: float
    interior_verdict: str
    boundary_witnesses: tuple[KLWitness, ...]
    lambda_samples: dict[tuple[int, int], complex]
    lambda_summary: dict | None
    elapsed_seconds: float
    family_json: dict = field(repr=False, default_factory=dict)
    lam: object = field(repr=False, compare=False, default=None)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        out = {"verdict": self.verdict,
               "code": self.code_label,
               "tolerance": self.tolerance,
               "exact": self.exact,
               "engine": self.engine,
               "family": self.family_json,
               "family_size": self.family_size,
               "logical_dim": self.logical_dim,
               "max_deviation": self.max_deviation,
               "interior_max_deviation": self.interior_max_deviation,
               "interior_verdict": self.interior_verdict,
               "boundary_witnesses": [w.to_json()
                                      for w in self.boundary_witnesses],
               "lambda_samples": [
                   {"pair": [a, b], "value": [v.real, v.imag]}
                   for (a, b), v in sorted(self.lambda_samples.items())],
               "elapsed_seconds": self.elapsed_seconds}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        out["lambda_summary"] = self.lambda_summary
        return out


def _monomial_table(op, n_levels: int):
    """(digit map, phase per input digit) for one-branch ops, None for
    ``general``."""
    n = n_levels
    if op.kind == "weyl":
        digits = np.arange(n)
        perm = (digits + op.a) % n
        phase = np.exp(2j * np.pi * (op.b % n) * digits / n)
        return perm, phase
    if op.kind == "spin_flip":
        if len(op.table) != n:
            raise ValueError("spin flip table length does not match n_levels")
        return np.array([t % n for t in op.table]), np.ones(n, dtype=complex)
    if op.kind == "phase_shift":
        if len(op.phases) != n:
            raise ValueError("phase table length does not match n_levels")
        return np.arange(n), np.asarray(op.phases, dtype=complex)
    if op.kind == "identity":
        return np.arange(n), np.ones(n, dtype=complex)
    if op.kind == "general":
        if len(op.matrix) != n:
            raise ValueError("matrix shape does not match n_levels")
        return None
    raise ValueError(f"unknown error kind {op.kind!r}")


def _ket_arrays(ket: RegisterState,
                place: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A ket's grid indices (big-endian, place values ``place``) and
    complex amplitudes, in term order."""
    terms = ket.to_complex_terms()
    digits = np.fromiter(itertools.chain.from_iterable(terms),
                         dtype=np.int64, count=len(terms) * place.size)
    amps = np.fromiter(terms.values(), dtype=np.complex128, count=len(terms))
    return digits.reshape(-1, place.size) @ place, amps


def _family_matrix(ket: RegisterState, patterns, n_levels: int,
                   width: int) -> csr_matrix:
    """Sparse matrix whose row p is pattern p applied to the ket.

    One-branch operators (Weyl, spin flip, phase shift, identity) act
    first, register by register in ascending position: each moves the
    terms of all patterns that hold it at that position in one numpy pass.
    ``general`` operators then fan each term they touch out to at most N
    branches.  Operators on different registers commute, so the order does
    not change the result.  Duplicate entries (non-injective spin flips,
    fan-out) are summed, so the result is a canonical CSR matrix.
    """
    n = n_levels
    if n ** width >= 2 ** 62:
        raise ValueError(f"{n}^{width} basis indices overflow int64")
    place = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    base_cols, base_amps = _ket_arrays(ket, place)
    groups: dict = {}
    for p_idx, pattern in enumerate(patterns):
        for pos, op in pattern.ops:
            groups.setdefault((pos, op), []).append(p_idx)
    size = len(patterns)
    # one row of terms per pattern while every operator keeps one branch
    cols = np.tile(base_cols, (size, 1))
    amps = np.tile(base_amps, (size, 1))
    fanning = []
    for (pos, op), members in sorted(groups.items(),
                                     key=lambda item: item[0][0]):
        table = _monomial_table(op, n)
        if table is None:
            fanning.append((pos, op, members))
            continue
        # no other operator of a pattern touches this register, so its
        # digits are still the ket's own
        perm, phase = table
        rows = np.array(members)
        digit = (base_cols // place[pos - 1]) % n
        cols[rows] += (perm[digit] - digit) * place[pos - 1]
        amps[rows] *= phase[digit]
    cols, amps = cols.ravel(), amps.ravel()
    counts = np.full(size, base_cols.size)
    if fanning:
        rows = np.repeat(np.arange(size), base_cols.size)
        for pos, op, members in fanning:
            matrix = np.array(op.matrix, dtype=np.complex128)
            member = np.zeros(size, dtype=bool)
            member[members] = True
            hit = member[rows]
            digit = (cols[hit] // place[pos - 1]) % n
            factor = matrix[:, digit]
            live = factor != 0
            shift = (np.arange(n)[:, None] - digit) * place[pos - 1]
            rows = np.concatenate([rows[~hit], np.broadcast_to(
                rows[hit], factor.shape)[live]])
            cols = np.concatenate([cols[~hit], (cols[hit] + shift)[live]])
            amps = np.concatenate([amps[~hit], (amps[hit] * factor)[live]])
        order = np.argsort(rows, kind="stable")
        cols, amps = cols[order], amps[order]
        counts = np.bincount(rows, minlength=size)
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    mat = csr_matrix((amps, cols, indptr), shape=(size, n ** width))
    mat.sum_duplicates()
    return mat


def _compact_columns(mats: list[csr_matrix]) -> list[csr_matrix]:
    """Drop columns that are zero in every matrix, keeping a shared mapping.

    Gram blocks between the matrices are unchanged, but transposes and
    products no longer scale with N^width, which matters from width ~20 up.
    """
    occupied = np.unique(np.concatenate([m.indices for m in mats]))
    out = []
    for m in mats:
        indices = np.searchsorted(occupied, m.indices).astype(m.indices.dtype)
        out.append(csr_matrix((m.data, indices, m.indptr),
                              shape=(m.shape[0], occupied.size)))
    return out


def _key(w: KLWitness):
    return w.logical_i, w.logical_j, w.pattern_a, w.pattern_b


class _Scan:
    """The witness and boundary rule of every engine.

    Engines feed it deviations (observed minus expected overlap) in
    batches.  The witness is the largest deviation, ties going to the
    earliest (i, j, a, b); the boundary witnesses are the earliest
    ``BOUNDARY_WITNESS_CAP`` entries above ``tol`` on the boundary.  A
    diagonal entry (i == j) expects ``lam[a, b]``, which is read only for
    the entries kept.
    """

    def __init__(self, code: CodeSpec, patterns, tol: float, lam):
        self.touches = np.array(
            [bool(set(p.support) & code.boundary_registers)
             for p in patterns])
        self.tol = tol
        self.lam = lam
        self.max_dev = 0.0
        self.interior_max = 0.0
        self.witness: KLWitness | None = None
        self.boundary: list[KLWitness] = []

    def add(self, i: int, rows, a, b, deviation: np.ndarray,
            observed: np.ndarray | None = None) -> None:
        """Fold in deviations of logical row ``i``.

        ``deviation[r, c]`` belongs to (i, rows[r], a[c], b[c]), and its
        row-major order must be (j, a, b) order.  ``observed`` holds the
        overlaps themselves when the engine has them; otherwise they are
        taken as expected plus deviation.
        """
        if deviation.size == 0:
            return
        mag = np.abs(deviation)
        on_boundary = self.touches[a] | self.touches[b]
        inside = mag[:, ~on_boundary]
        if inside.size:
            self.interior_max = max(self.interior_max, float(inside.max()))

        def keep(k):
            row, col = divmod(int(k), len(a))
            j, pa, pb = rows[row], int(a[col]), int(b[col])
            expected = complex(self.lam[pa, pb]) if j == i else 0j
            value = expected + complex(deviation[row, col]) \
                if observed is None else complex(observed[row, col])
            return KLWitness(pa, pb, i, j, value, expected,
                             float(mag[row, col]), bool(on_boundary[col]))

        # argmax takes the first of equal values, the earliest in the batch
        top = int(mag.argmax())
        if mag.flat[top] > 0 and mag.flat[top] >= self.max_dev:
            rivals = [w for w in (keep(top), self.witness) if w is not None]
            self.witness = min(rivals, key=lambda w: (-w.deviation, _key(w)))
            self.max_dev = self.witness.deviation
        hits = np.flatnonzero((mag > self.tol) & on_boundary)
        if hits.size:
            self.boundary = sorted(
                self.boundary + [keep(k) for k in hits[:BOUNDARY_WITNESS_CAP]],
                key=_key)[:BOUNDARY_WITNESS_CAP]


def _blocks_after_reference(dim: int):
    """Blocks (i, j >= i) in order after (0, 0), which is lambda itself."""
    return itertools.islice(
        itertools.combinations_with_replacement(range(dim), 2), 1, None)


def _sparse_engine(code: CodeSpec, patterns, tol: float, fail_fast: bool):
    """Cached sparse Gram: one family matrix per logical word, built and
    column-compacted once, then the blocks (i, j >= i) in order."""
    mats = _compact_columns([
        _family_matrix(code.encoded_kets[w], patterns, code.n_levels,
                       code.width) for w in code.logical_windows()])
    lam = (mats[0].conj() @ mats[0].T).tocsr()
    lam.sort_indices()
    scan = _Scan(code, patterns, tol, lam)
    for i, j in _blocks_after_reference(len(mats)):
        gram = (mats[i].conj() @ mats[j].T).tocsr()
        if i == j:
            gram = (gram - lam).tocsr()
        # sorted CSR reads out row-major, the (a, b) order the scan needs
        gram.sort_indices()
        coo = gram.tocoo()
        scan.add(i, (j,), coo.row, coo.col, coo.data[None, :])
        if fail_fast and scan.max_dev > tol:
            break
    return scan, lam


@dataclass
class _WeylPlan:
    """Exponent tables of a Weyl family, as the characteristic engine reads
    them.

    ``phases[p]`` holds pattern p's Z exponents, ``row_of[p]`` the index of
    its X-shift among the distinct shifts, and ``differences[u, v]`` the
    grid index of shift u minus shift v (mod N).  Grid indices are
    big-endian, register 1 first, with place values ``place``.
    """

    phases: np.ndarray
    row_of: np.ndarray
    differences: np.ndarray
    place: np.ndarray


def _weyl_plan(code: CodeSpec, patterns) -> _WeylPlan | None:
    """The family's exponent tables, or None when an operator is not a
    Weyl operator or the identity, or grid indices would overflow."""
    n, width = code.n_levels, code.width
    if n ** width >= 2 ** 62:
        return None
    shifts = np.zeros((len(patterns), width), dtype=np.int64)
    phases = np.zeros_like(shifts)
    for p_idx, pattern in enumerate(patterns):
        for pos, op in pattern.ops:
            if op.kind == "weyl":
                shifts[p_idx, pos - 1] = op.a % n
                phases[p_idx, pos - 1] = op.b % n
            elif op.kind != "identity":
                return None
    place = n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    _, first, row_of = np.unique(shifts @ place, return_index=True,
                                 return_inverse=True)
    rows = shifts[first]
    step = max(1, (1 << 20) // (len(rows) * width))
    differences = np.concatenate([
        ((rows[start:start + step, None, :] - rows[None, :, :]) % n) @ place
        for start in range(0, len(rows), step)])
    return _WeylPlan(phases, row_of.ravel(), differences, place)


def _choose_engine(code: CodeSpec, patterns):
    """("characteristic", plan) or ("sparse-float", None) by operation count.

    The characteristic engine costs |D| * N^width * width per logical pair
    (one transform per distinct X-shift difference), the sparse Gram
    |F|^2 * t^2 / N^width (products of two |F| x N^width matrices holding
    t terms per row).  The lower count wins; a tie keeps the sparse Gram.
    """
    plan = _weyl_plan(code, patterns)
    if plan is None:
        return "sparse-float", None
    logicals = code.logical_windows()
    terms = sum(len(code.encoded_kets[w]) for w in logicals) / len(logicals)
    space = code.n_levels ** code.width
    sparse_cost = len(patterns) ** 2 * terms ** 2 / space
    characteristic_cost = len(np.unique(plan.differences)) * space * code.width
    if characteristic_cost < sparse_cost:
        return "characteristic", plan
    return "sparse-float", None


def _dense_kets(code: CodeSpec, place: np.ndarray) -> np.ndarray:
    """Encoded kets as a (dim, N, ..., N) array, register 1 on axis 1."""
    n, width = code.n_levels, code.width
    logicals = code.logical_windows()
    out = np.zeros((len(logicals), n ** width), dtype=np.complex128)
    for row, w in zip(out, logicals):
        cols, amps = _ket_arrays(code.encoded_kets[w], place)
        row[cols] = amps
    return out.reshape((len(logicals),) + (n,) * width)


def _characteristic_engine(code: CodeSpec, patterns, plan: _WeylPlan,
                           tol: float, fail_fast: bool):
    """Weyl families through the characteristic function; see the module
    docstring.

    Delta groups are scanned in ascending grid index, so D = 0 comes
    first; within a group one logical row i at a time, and within a row
    the pairs in (j, a, b) order.  ``fail_fast`` stops after the first
    group holding a deviation above ``tol``.
    """
    # imported here, not at module level: scipy.fft adds about 0.1 s to
    # every import of the package, CLI starts included
    import scipy.fft

    n, width = code.n_levels, code.width
    size = len(patterns)
    kets = _dense_kets(code, plan.place)
    dim = kets.shape[0]
    axes = tuple(range(1, width + 1))
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    # flat (a, b) pair indices grouped by delta, in (a, b) order in a group
    pair_delta = plan.differences[np.ix_(plan.row_of, plan.row_of)].ravel()
    by_delta = np.argsort(pair_delta, kind="stable")
    deltas, group_start = np.unique(pair_delta[by_delta], return_index=True)
    group_end = np.append(group_start[1:], pair_delta.size)

    def group(g):
        """Pairs of delta group g with the kets shifted by its delta."""
        a, b = np.divmod(by_delta[group_start[g]:group_end[g]], size)
        delta = (deltas[g] // plan.place) % n
        shifted = np.roll(kets, tuple(-delta), axis=axes) if delta.any() \
            else kets
        spot = ((plan.phases[a] - plan.phases[b]) % n) @ plan.place
        twist = roots[(plan.phases[b] @ delta) % n]

        def entries(i, stop=dim):
            """<A v_i, B v_j> for j in i..stop-1 (rows) and the pairs."""
            spectrum = scipy.fft.fftn(kets[i].conj() * shifted[i:stop],
                                      axes=axes, overwrite_x=True)
            return spectrum.reshape(stop - i, -1)[:, spot] * twist
        return a, b, entries

    lam = np.zeros((size, size), dtype=np.complex128)
    scan = _Scan(code, patterns, tol, lam)
    scanned = 0
    for g in range(len(deltas)):
        a, b, entries = group(g)
        for i in range(dim):
            values = entries(i)
            if i == 0:
                reference = lam[a, b] = values[0]
            deviation = values.copy()
            deviation[0] -= reference
            scan.add(i, range(i, dim), a, b, deviation, values)
        scanned = g + 1
        if fail_fast and scan.max_dev > tol:
            break
    if scanned < len(deltas):
        # the report samples the lambda corner; fill what the stop skipped
        corner = min(size, LAMBDA_SAMPLE_DIM)
        skipped = np.searchsorted(deltas, pair_delta.reshape(size, size)[
            :corner, :corner].ravel())
        for g in sorted({int(g) for g in skipped if g >= scanned}):
            a, b, entries = group(g)
            lam[a, b] = entries(0, 1)[0]
    return scan, lam


def _exact_engine(code: CodeSpec, patterns, tol: float, fail_fast: bool):
    """Cyclotomic overlaps, block by block as in the sparse Gram; an entry
    counts when its deviation is not a symbolic zero.  Returns (scan,
    failed, lam), ``lam`` None on a failure."""
    logicals = code.logical_windows()
    applied = [[apply_pattern(code.encoded_kets[w], p) for p in patterns]
               for w in logicals]
    reference = [[inner_product(x, y) for y in applied[0]] for x in applied[0]]
    lam = np.array([[r.to_complex() for r in row] for row in reference])
    scan = _Scan(code, patterns, tol, lam)
    failed = False
    for i, j in _blocks_after_reference(len(logicals)):
        counted = []
        for a, b in itertools.product(range(len(patterns)), repeat=2):
            value = inner_product(applied[i][a], applied[j][b])
            diff = value - reference[a][b] if i == j else value
            if not diff.is_zero():
                counted.append((a, b, diff.to_complex(), value.to_complex()))
                if fail_fast:
                    break
        if counted:
            failed = True
            a, b, deviation, observed = (np.array(c) for c in zip(*counted))
            scan.add(i, (j,), a, b, deviation[None, :], observed[None, :])
            if fail_fast:
                break
    return scan, failed, None if failed else lam


def kl_check(code: CodeSpec, family: PatternFamily, tol: float = 1e-9,
             exact: bool = False, fail_fast: bool = False,
             jobs: int = 1) -> KLReport:
    """Check the code against every ordered pair of patterns in the family.

    Float mode passes when the maximal deviation stays at or below `tol`;
    it runs the ``sparse-float`` or the ``characteristic`` engine, whichever
    needs fewer operations by the rule in the module docstring, and
    ``report.engine`` names it.  Exact mode demands symbolic zeros and
    reports the float magnitude of any residue it finds.  All three engines
    pick witnesses and boundary witnesses through one accumulator.

    `fail_fast` stops early once a deviation above `tol` is found: the
    sparse Gram after the first (i, j) logical block holding one, the
    characteristic engine after the first delta group holding one (D = 0
    first, then ascending grid index), the exact engine at the first
    nonzero entry.  `tol` must be finite and nonnegative.  `jobs` is
    accepted for compatibility and ignored: every engine runs in one
    thread.
    """
    _check_tol(tol)
    if family.width != code.width:
        raise ValueError(
            f"family width {family.width} does not match code width "
            f"{code.width}")
    if not code.encoded_kets:
        raise ValueError("code has no materialized encoded kets")
    patterns = list(family)
    started = time.perf_counter()

    if exact:
        engine = "exact"
        scan, failed, lam = _exact_engine(code, patterns, tol, fail_fast)
    else:
        engine, plan = _choose_engine(code, patterns)
        if plan is None:
            scan, lam = _sparse_engine(code, patterns, tol, fail_fast)
        else:
            scan, lam = _characteristic_engine(code, patterns, plan, tol,
                                               fail_fast)
        failed = scan.max_dev > tol
    ok = not failed
    summary = None
    if ok and not exact and len(patterns) <= LAMBDA_SUMMARY_MAX:
        summary = _summarize_lambda(_as_dense(lam), tol)
    k = min(len(patterns), LAMBDA_SAMPLE_DIM)
    corner = np.zeros((0, 0)) if lam is None else _as_dense(lam[:k, :k])
    samples = {(a, b): complex(value)
               for (a, b), value in np.ndenumerate(corner)}

    elapsed = time.perf_counter() - started
    # every register on the boundary leaves nothing for the interior check
    vacuous = set(range(1, code.width + 1)) <= code.boundary_registers
    return KLReport(
        verdict="pass" if ok else "fail",
        code_label=code.label,
        tolerance=tol,
        exact=exact,
        engine=engine,
        family_size=len(patterns),
        logical_dim=len(code.logical_windows()),
        max_deviation=scan.max_dev,
        witness=None if ok else scan.witness,
        interior_max_deviation=scan.interior_max,
        interior_verdict="vacuous" if vacuous
        else ("pass" if scan.interior_max <= tol else "fail"),
        boundary_witnesses=() if ok else tuple(scan.boundary),
        lambda_samples=samples,
        lambda_summary=summary,
        elapsed_seconds=elapsed,
        family_json=family.to_json(),
        lam=lam,
    )


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite nonnegative number, "
                         f"not {tol}")


def _as_dense(lam) -> np.ndarray:
    return lam.toarray() if issparse(lam) else lam


def _summarize_lambda(matrix: np.ndarray, tol: float) -> dict:
    hermitian = 0.5 * (matrix + matrix.conj().T)
    eigenvalues = np.linalg.eigvalsh(hermitian)
    scale = max(1.0, float(eigenvalues.max(initial=0.0)))
    rank = int((eigenvalues > max(tol, 1e-9) * scale).sum())
    size = matrix.shape[0]
    identity_dev = float(np.abs(matrix - np.eye(size)).max())
    kind = "identity" if identity_dev <= max(tol, 1e-9) else "degenerate"
    return {"kind": kind, "rank": rank, "dim": size,
            "min_eigenvalue": float(eigenvalues.min(initial=0.0))}


@dataclass
class LambdaReport:
    matrix: np.ndarray
    kind: str
    rank: int
    kl: KLReport

    def to_json(self, include_matrix: bool = True) -> dict:
        out = {"kind": self.kind, "rank": self.rank,
               "dim": int(self.matrix.shape[0]),
               "verdict": self.kl.verdict,
               "tolerance": self.kl.tolerance}
        if include_matrix and self.matrix.shape[0] <= 64:
            out["matrix"] = [[[z.real, z.imag] for z in row]
                             for row in self.matrix.tolist()]
        return out


def lambda_matrix(code: CodeSpec, family: PatternFamily,
                  tol: float = 1e-9, jobs: int = 1,
                  precomputed: KLReport | None = None) -> LambdaReport:
    """Full lambda matrix over family pairs; only defined for passing codes.

    `precomputed` skips the verification pass when the caller already holds
    a report for exactly this (code, family) pairing.  The matrix and its
    summary are the ones the check computed; the summary is taken again
    only when the check skipped it (exact engine, families above
    ``LAMBDA_SUMMARY_MAX``) or ran at another tolerance.  `jobs` is
    ignored, as in `kl_check`; `tol` is checked as there.
    """
    _check_tol(tol)
    report = precomputed if precomputed is not None \
        else kl_check(code, family, tol=tol, jobs=jobs)
    if not report.passed:
        raise VerificationError(
            f"code {code.label!r} fails the recoverability check "
            f"(max deviation {report.max_deviation:.3e}); "
            "the lambda matrix is undefined")
    lam = _as_dense(report.lam)
    summary = report.lambda_summary
    if summary is None or report.tolerance != tol:
        summary = _summarize_lambda(lam, tol)
    return LambdaReport(matrix=lam, kind=summary["kind"],
                        rank=summary["rank"], kl=report)


def reevaluate_witness(code: CodeSpec, family: PatternFamily,
                       witness: KLWitness) -> float:
    """Recompute a witness deviation through the exact state pathway.

    Independent of the sparse engine: patterns are re-applied with
    cyclotomic amplitudes and the overlap is taken term by term, so a
    reported failure can be confirmed outside the code that found it.
    """
    patterns = list(family)
    pat_a = patterns[witness.pattern_a]
    pat_b = patterns[witness.pattern_b]
    logicals = code.logical_windows()
    ket_i = code.encoded_kets[logicals[witness.logical_i]]
    ket_j = code.encoded_kets[logicals[witness.logical_j]]
    value = inner_product(apply_pattern(ket_i, pat_a),
                          apply_pattern(ket_j, pat_b)).to_complex()
    if witness.logical_i != witness.logical_j:
        return abs(value)
    ket_ref = code.encoded_kets[logicals[0]]
    ref = inner_product(apply_pattern(ket_ref, pat_a),
                        apply_pattern(ket_ref, pat_b)).to_complex()
    return abs(value - ref)
