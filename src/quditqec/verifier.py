"""Exhaustive recoverability checking of a code against an error-pattern family.

For every ordered operator pair (A, B) from the family and every logical
pair (i, j) the check evaluates <i_enc| A^dagger B |j_enc>.  Off-diagonal
entries (i != j) must vanish and diagonal entries must not depend on i;
the shared diagonal value is the lambda matrix entry for (A, B).  This is
the Knill-Laflamme criterion specialized to a finite pattern family.

Three engines share one report format (``KLReport.engine`` names the one
that ran):

* ``sparse-float`` expands each error-applied ket into a sparse row over
  the full computational basis and forms Gram blocks with scipy.  The
  per-logical matrices are cached and the blocks may be spread over
  ``jobs`` threads; above ``NNZ_CACHE_LIMIT`` estimated entries the pairs
  are streamed sequentially instead.
* ``characteristic`` handles families whose operators are all Weyl
  operators (or the identity).  For A = X^a_A Z^b_A, B = X^a_B Z^b_B and
  the X-shift difference D = a_A - a_B,
  <A v_i, B v_j> = w^(b_B.D) sum_x w^((b_B - b_A).x) conj(v_i(x)) v_j(x + D),
  which is one entry of the code's characteristic function (the quantity
  behind the Shor-Laflamme weight enumerators).  One discrete Fourier
  transform over the (N,)*width grid per distinct D and logical pair gives
  every phase difference at once.  It runs sequentially and ignores
  ``jobs``.
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
the characteristic engine.

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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, issparse

from .codes import CodeSpec
from .cyclotomic import PhaseScalar
from .errors import ErrorPattern, PatternFamily, apply_pattern
from .states import RegisterState, index_of_ket, inner_product

BOUNDARY_WITNESS_CAP = 10
LAMBDA_SAMPLE_DIM = 4
# eigendecomposition for the rank summary is skipped above this family size
LAMBDA_SUMMARY_MAX = 4096
# above this many estimated matrix entries the engine streams pair by pair
NNZ_CACHE_LIMIT = 25_000_000


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
    reached and the sampled corner.  It is not part of the JSON report.
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


def _branch_tables(patterns, n_levels: int) -> dict:
    """Per-operator complex branch tables indexed by input digit."""
    tables: dict = {}
    for pattern in patterns:
        for _, op in pattern.ops:
            if op in tables:
                continue
            rows = []
            for digit in range(n_levels):
                row = []
                for new_digit, factor in op.branches(digit, n_levels):
                    value = factor.to_complex() \
                        if isinstance(factor, PhaseScalar) else complex(factor)
                    row.append((new_digit, value))
                rows.append(row)
            tables[op] = rows
    return tables


def _apply_terms(base: dict, pattern: ErrorPattern, tables: dict) -> dict:
    out = base
    for pos, op in pattern.ops:
        idx = pos - 1
        table = tables[op]
        nxt: dict = {}
        for digits, amp in out.items():
            for new_digit, factor in table[digits[idx]]:
                key = digits[:idx] + (new_digit,) + digits[idx + 1:]
                nxt[key] = nxt.get(key, 0j) + amp * factor
        out = nxt
    return out


def _monomial_table(op, n_levels: int):
    """(digit permutation-or-function, phase per input digit) for one-branch ops."""
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
    return None


def _family_matrix(ket: RegisterState, patterns, tables,
                   n_levels: int, width: int) -> csr_matrix:
    """Sparse matrix whose row p is pattern p applied to the ket."""
    n = n_levels
    base = ket.to_complex_terms()
    base_cols = np.array([index_of_ket(d, n) for d in base], dtype=np.int64)
    base_amps = np.array(list(base.values()), dtype=np.complex128)
    place = {pos: n ** (width - pos) for pos in range(1, width + 1)}
    monomial = {op: _monomial_table(op, n)
                for pattern in patterns for _, op in pattern.ops}

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for p_idx, pattern in enumerate(patterns):
        if all(monomial[op] is not None for _, op in pattern.ops) \
                and n ** width < 2 ** 62:
            new_cols = base_cols
            new_amps = base_amps
            for pos, op in pattern.ops:
                perm, phase = monomial[op]
                digit = (new_cols // place[pos]) % n
                new_cols = new_cols + (perm[digit] - digit) * place[pos]
                new_amps = new_amps * phase[digit]
            rows.append(np.full(new_cols.size, p_idx, dtype=np.int64))
            cols.append(new_cols)
            data.append(new_amps)
        else:
            # dense single-register matrices fan out; keep the dict path
            applied = _apply_terms(base, pattern, tables)
            rows.append(np.full(len(applied), p_idx, dtype=np.int64))
            cols.append(np.array([index_of_ket(d, n) for d in applied],
                                 dtype=np.int64))
            data.append(np.array(list(applied.values()), dtype=np.complex128))
    mat = csr_matrix((np.concatenate(data),
                      (np.concatenate(rows), np.concatenate(cols))),
                     shape=(len(patterns), n ** width),
                     dtype=np.complex128)
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


def _scan_block(block, touches, tol):
    """Max deviation, its first row-major entry, interior max, boundary hits."""
    coo = block.tocoo()
    if coo.nnz == 0:
        return 0.0, None, 0.0, []
    order = np.lexsort((coo.col, coo.row))
    row, col = coo.row[order], coo.col[order]
    val = coo.data[order]
    mag = np.abs(val)
    worst = int(mag.argmax())
    boundary_mask = touches[row] | touches[col]
    interior = mag[~boundary_mask]
    interior_max = float(interior.max()) if interior.size else 0.0
    hits = []
    if boundary_mask.any():
        over = np.flatnonzero(boundary_mask & (mag > tol))
        for k in over[:BOUNDARY_WITNESS_CAP]:
            hits.append((int(row[k]), int(col[k]), complex(val[k])))
    top = (int(row[worst]), int(col[worst]), complex(val[worst]),
           bool(boundary_mask[worst]))
    return float(mag[worst]), top, interior_max, hits


def _sparse_engine(code: CodeSpec, patterns, tol: float, fail_fast: bool,
                   jobs: int):
    n, width = code.n_levels, code.width
    logicals = code.logical_windows()
    tables = _branch_tables(patterns, n)
    touches = np.array(
        [bool(set(p.support) & code.boundary_registers) for p in patterns])
    dim = len(logicals)

    max_dev = 0.0
    interior_max = 0.0
    witness = None
    boundary: list[KLWitness] = []
    lam = None

    def gram_scan(mat_i, mat_j, diagonal):
        gram = (mat_i.conj() @ mat_j.T).tocsr()
        if diagonal:
            gram = (gram - lam).tocsr()
        gram.sort_indices()
        return _scan_block(gram, touches, tol)

    def reduce_block(i, j, scanned):
        nonlocal max_dev, interior_max, witness
        dev, top, block_interior, hits = scanned
        interior_max = max(interior_max, block_interior)
        if top is not None and dev > max_dev:
            a, b, value, on_boundary = top
            expected = complex(lam[a, b]) if i == j else 0j
            witness = KLWitness(a, b, i, j, expected + value, expected,
                                dev, on_boundary)
            max_dev = dev
        for a, b, value in hits:
            if len(boundary) >= BOUNDARY_WITNESS_CAP:
                break
            expected = complex(lam[a, b]) if i == j else 0j
            boundary.append(KLWitness(a, b, i, j, expected + value, expected,
                                      abs(value), True))

    def build(i):
        return _family_matrix(code.encoded_kets[logicals[i]], patterns,
                              tables, n, width)

    est_nnz = len(patterns) * sum(len(code.encoded_kets[w]) for w in logicals)
    if est_nnz <= NNZ_CACHE_LIMIT:
        mats = _compact_columns([build(i) for i in range(dim)])
        lam = (mats[0].conj() @ mats[0].T).tocsr()
        lam.sort_indices()
        pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
        if jobs > 1 and not fail_fast:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(
                    lambda p: gram_scan(mats[p[0]], mats[p[1]], p[0] == p[1]),
                    pairs))
            scan = zip(pairs, results)
        else:
            scan = (((i, j), gram_scan(mats[i], mats[j], i == j))
                    for i, j in pairs)
        for (i, j), scanned in scan:
            reduce_block(i, j, scanned)
            if fail_fast and max_dev > tol:
                break
        return max_dev, witness, interior_max, tuple(boundary), lam

    # Too many terms to keep every per-logical matrix alive (very long
    # windows).  Stream the pairs, rebuilding the second matrix each time;
    # compact columns pairwise when the ambient dimension itself is the
    # problem.  Sequential regardless of jobs.
    wide = n ** width > 1 << 22
    for i in range(dim):
        mat_i = build(i)
        if i == 0:
            base = _compact_columns([mat_i])[0] if wide else mat_i
            lam = (base.conj() @ base.T).tocsr()
            lam.sort_indices()
        for j in range(i, dim):
            mat_j = mat_i if j == i else build(j)
            if wide:
                mat_a, mat_b = _compact_columns([mat_i, mat_j])
            else:
                mat_a, mat_b = mat_i, mat_j
            reduce_block(i, j, gram_scan(mat_a, mat_b, i == j))
            if fail_fast and max_dev > tol:
                return max_dev, witness, interior_max, tuple(boundary), lam
    return max_dev, witness, interior_max, tuple(boundary), lam


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
        terms = code.encoded_kets[w].to_complex_terms()
        digits = np.fromiter(itertools.chain.from_iterable(terms),
                             dtype=np.int64, count=len(terms) * width)
        row[digits.reshape(-1, width) @ place] = np.fromiter(
            terms.values(), dtype=np.complex128, count=len(terms))
    return out.reshape((len(logicals),) + (n,) * width)


def _characteristic_engine(code: CodeSpec, patterns, plan: _WeylPlan,
                           tol: float, fail_fast: bool):
    """Weyl families through the characteristic function; see the module
    docstring.

    Delta groups are scanned in ascending grid index, so D = 0 comes
    first; within a group one logical row i at a time, and within a row
    the pairs in (j, a, b) order.  The witness is the largest deviation,
    ties going to the earliest (i, j, a, b); boundary witnesses are the
    earliest ones in that order.  ``fail_fast`` stops after the first
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
    touches = np.array(
        [bool(set(p.support) & code.boundary_registers) for p in patterns])
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

    def order(w: KLWitness):
        return w.logical_i, w.logical_j, w.pattern_a, w.pattern_b

    lam = np.zeros((size, size), dtype=np.complex128)
    max_dev = 0.0
    interior_max = 0.0
    witness = None
    boundary: list[KLWitness] = []
    scanned = 0
    for g in range(len(deltas)):
        a, b, entries = group(g)
        on_boundary = touches[a] | touches[b]
        for i in range(dim):
            values = entries(i)
            if i == 0:
                reference = values[0]
                lam[a, b] = reference
            deviation = values.copy()
            deviation[0] -= reference
            mag = np.abs(deviation)
            inside = mag[:, ~on_boundary]
            if inside.size:
                interior_max = max(interior_max, float(inside.max()))

            def at(k):
                row, col = divmod(int(k), len(a))
                expected = complex(reference[col]) if row == 0 else 0j
                return KLWitness(int(a[col]), int(b[col]), i, i + row,
                                 complex(values[row, col]), expected,
                                 float(mag[row, col]),
                                 bool(on_boundary[col]))

            top = at(mag.argmax())
            if top.deviation > max_dev or (
                    witness is not None and top.deviation == max_dev
                    and order(top) < order(witness)):
                witness, max_dev = top, top.deviation
            hits = np.flatnonzero((mag > tol) & on_boundary)
            boundary = sorted(
                boundary + [at(k) for k in hits[:BOUNDARY_WITNESS_CAP]],
                key=order)[:BOUNDARY_WITNESS_CAP]
        scanned = g + 1
        if fail_fast and max_dev > tol:
            break
    if scanned < len(deltas):
        # the report samples the lambda corner; fill what the stop skipped
        corner = min(size, LAMBDA_SAMPLE_DIM)
        skipped = np.searchsorted(deltas, pair_delta.reshape(size, size)[
            :corner, :corner].ravel())
        for g in sorted({int(g) for g in skipped if g >= scanned}):
            a, b, entries = group(g)
            lam[a, b] = entries(0, 1)[0]
    return max_dev, witness, interior_max, tuple(boundary), lam


def _exact_engine(code: CodeSpec, patterns, family: PatternFamily,
                  tol: float, fail_fast: bool):
    logicals = code.logical_windows()
    applied = [[apply_pattern(code.encoded_kets[w], p) for p in patterns]
               for w in logicals]
    touches = [bool(set(p.support) & code.boundary_registers)
               for p in patterns]
    size = len(patterns)
    lam_row: dict[tuple[int, int], PhaseScalar] = {}

    def reference(a, b):
        key = (a, b)
        if key not in lam_row:
            lam_row[key] = inner_product(applied[0][a], applied[0][b])
        return lam_row[key]

    max_dev = 0.0
    interior_max = 0.0
    witness = None
    boundary: list[KLWitness] = []
    failed = False

    for i in range(len(logicals)):
        for j in range(i, len(logicals)):
            for a in range(size):
                for b in range(size):
                    value = inner_product(applied[i][a], applied[j][b])
                    if i == j:
                        ref = reference(a, b)
                        diff = value - ref
                        expected = ref.to_complex()
                    else:
                        diff = value
                        expected = 0j
                    if diff.is_zero():
                        continue
                    dev = abs(diff.to_complex())
                    on_boundary = touches[a] or touches[b]
                    if not on_boundary:
                        interior_max = max(interior_max, dev)
                    elif dev > tol and len(boundary) < BOUNDARY_WITNESS_CAP:
                        boundary.append(KLWitness(
                            a, b, i, j, value.to_complex(), expected,
                            dev, True))
                    if dev > max_dev:
                        witness = KLWitness(a, b, i, j, value.to_complex(),
                                            expected, dev, on_boundary)
                        max_dev = dev
                    failed = True
                    if fail_fast:
                        return (max_dev, witness, interior_max,
                                tuple(boundary), lam_row, failed)
    return max_dev, witness, interior_max, tuple(boundary), lam_row, failed


def kl_check(code: CodeSpec, family: PatternFamily, tol: float = 1e-9,
             exact: bool = False, fail_fast: bool = False,
             jobs: int = 1) -> KLReport:
    """Check the code against every ordered pair of patterns in the family.

    Float mode passes when the maximal deviation stays at or below `tol`;
    it runs the ``sparse-float`` or the ``characteristic`` engine, whichever
    needs fewer operations by the rule in the module docstring, and
    ``report.engine`` names it.  Exact mode demands symbolic zeros and
    reports the float magnitude of any residue it finds.

    `fail_fast` stops early once a deviation above `tol` is found: the
    sparse Gram after the first (i, j) logical block holding one, the
    characteristic engine after the first delta group holding one (D = 0
    first, then ascending grid index), the exact engine at the first
    nonzero entry.  `jobs` partitions the cached Gram blocks across
    threads without changing the result; the streamed sparse Gram and the
    characteristic engine run sequentially and ignore it.
    """
    if family.width != code.width:
        raise ValueError(
            f"family width {family.width} does not match code width "
            f"{code.width}")
    if not code.encoded_kets:
        raise ValueError("code has no materialized encoded kets")
    patterns = list(family)
    started = time.perf_counter()

    if exact:
        max_dev, witness, interior_max, boundary, lam_row, failed = \
            _exact_engine(code, patterns, family, tol, fail_fast)
        ok = not failed
        engine = "exact"
        # a pass visits every (a, b) of the reference block
        lam = np.array([[lam_row[(a, b)].to_complex()
                         for b in range(len(patterns))]
                        for a in range(len(patterns))]) if ok else None
        summary = None
    else:
        engine, plan = _choose_engine(code, patterns)
        if plan is None:
            result = _sparse_engine(code, patterns, tol, fail_fast, jobs)
        else:
            result = _characteristic_engine(code, patterns, plan, tol,
                                            fail_fast)
        max_dev, witness, interior_max, boundary, lam = result
        ok = max_dev <= tol
        summary = None
        if ok and len(patterns) <= LAMBDA_SUMMARY_MAX:
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
        max_deviation=max_dev,
        witness=None if ok else witness,
        interior_max_deviation=interior_max,
        interior_verdict="vacuous" if vacuous
        else ("pass" if interior_max <= tol else "fail"),
        boundary_witnesses=boundary if not ok else (),
        lambda_samples=samples,
        lambda_summary=summary,
        elapsed_seconds=elapsed,
        family_json=family.to_json(),
        lam=lam,
    )


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
    ``LAMBDA_SUMMARY_MAX``) or ran at another tolerance.
    """
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
