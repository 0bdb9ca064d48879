"""Exhaustive recoverability checking of a code against an error-pattern family.

For every ordered operator pair (A, B) from the family and every logical
pair (i, j) the check evaluates <i_enc| A^dagger B |j_enc>.  Off-diagonal
entries (i != j) must vanish and diagonal entries must not depend on i;
the shared diagonal value is the lambda matrix entry for (A, B).  This is
the Knill-Laflamme criterion specialized to a finite pattern family.

Three engines share one report format (``KLReport.engine`` names the one
that ran):

* ``sparse-float`` applies the family to each logical word's ket in
  floats, one sparse matrix per word with one column per basis string
  that occurs in any of them, and forms the Gram blocks (i, j >= i) with
  scipy, in order.  This is the one float walk: it yields only the
  entries whose deviation is at least ``FLOAT_ZERO_TOL``, the zero of
  ``PhaseScalar.is_zero``, each with its overlap.
* ``syndrome`` handles families whose operators are all Weyl operators
  (or the identity) on stabilizer codes over Z_N, which every builtin,
  dual and paste is.  It reads the stabilizer S off the kets (the affine
  support and phase ratios of v_0 give v_0's stabilizer; S is the part
  that acts on every ket with one common phase) and checks it on every
  ket term; spans and kernels over Z_N come from one Howell form each.  A
  pattern's syndrome is its symplectic products with S, its full label
  its coset of S.  For Weyl errors the
  condition fails exactly when A^dag B commutes with S but is not in it
  (Gottesman 1997; Ketkar, Klappenecker, Kumar and Sarvepalli 2006), so
  the check passes iff no syndrome class holds two full labels.  Lambda
  comes from one rule: a same-syndrome pair's A^dag B maps v_0 onto a
  multiple mu of one ket, and lambda_ab is mu |v_0|^2 where that ket is
  v_0.  On a pass lambda is a direct sum of rank-1 blocks, one per label
  class, so its rank and eigenvalues are the class count and the class
  sizes, and its summary reads the identity deviation off the entries.
  It is built from its entries, on either verdict, as the exact engine
  builds it: dense up to ``LAMBDA_SUMMARY_MAX`` patterns and CSR above,
  so a check on this engine never imports scipy below that size.  Only
  failing pairs have overlaps to scan, and a failing pair's overlaps are
  those of its logical class (the coset of S of A^dag B) times one
  phase, so they are read off every ket
  for one representative pair per class, and scanned only in the blocks
  where they can be nonzero.  Each deviation is a magnitude of its class,
  so equal deviations are bit-equal and exact ties go to the earliest
  entry, as in the exact engine.  The family's
  members, their Weyl rows, the syndrome class of each, the earliest
  member of each syndrome and which members touch the boundary form one
  table, built once per (code, family) and kept with the code's
  stabilizer; the channel's syndrome decoder reads the same table, and a
  repeated check walks no pattern objects.
* ``exact`` certifies zeros symbolically.  It writes each ket as integer
  numerators on the lattice of order-2N roots of unity, applies the
  patterns there (Weyl and spin flips only move digits and add to
  exponents), forms the same Gram blocks as integer sparse products and
  decides each entry by its canonical residue modulo the cyclotomic
  polynomial.  Inputs that ``PhaseScalar`` carries in floats (phase shifts,
  general matrices, inexact amplitudes, a ket that mixes the parity of
  sqrt(N)) run the sparse Gram as a counted walk, so both float routes
  share one zero rule, and every entry it yields counts.

One kernel, ``_apply_patterns``, moves ket digits for a pattern.  For
every pattern and every ket entry (a digit row) it gives the pattern, the
source entry, the key of the moved string, the integer exponent of
w = exp(2 pi i / 2N) the entry gains (X^a Z^b adds 2 b digit) and, only
when a phase shift or a general matrix is present, a complex factor.  The
sparse Gram and the channel's ket decoder read amplitudes off it as
amp[source] w^exponent factor, the exact engine lattice rows
(pattern, exponent of the source plus the gain) with the source's
numerator.  Strings are keyed by the grid indices of runs of registers
and ranked together, so no width is refused.

A float check runs the syndrome engine when every pattern is Weyl (or
the identity) and a stabilizer reads off the kets, and the sparse Gram
otherwise: for a family with another operator, or kets that are no
stabilizer code (a support that is no affine space, a phase ratio that
is no N-th root of unity, a generator that does not map every ket onto a
multiple of itself, a stabilizer of the wrong order, or kets of unequal
norm).  All three engines run in one thread and feed their deviations,
each with its overlap, to one accumulator through one loop,
``_scan_blocks``: blocks (i, j) in order, each block's entries in (a, b)
order.  So the accumulator takes the first entry whose deviation exceeds
every earlier one as the witness (the largest deviation, ties going to
the earliest (i, j, a, b)) and the first entries above tolerance on the
boundary as the boundary witnesses.  Each engine returns one outcome,
(scan, failed, lam, summary), from which ``kl_check`` builds the
report.

Deviations are classified as interior or boundary by whether either
pattern of the offending pair touches a register of the code's truncation
boundary (head and tail blocks); the accumulator is handed that mask,
one flag per pattern, and reads nothing else of the code.  The split is bookkeeping: a boundary
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
from typing import TYPE_CHECKING

import numpy as np

from .codes import UNREAD, CodeSpec
from .cyclotomic import FLOAT_ZERO_TOL, residue_matrix
from .errors import ErrorPattern, PatternFamily, apply_pattern
from .states import RegisterState, inner_product

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

BOUNDARY_WITNESS_CAP = 10
LAMBDA_SAMPLE_DIM = 4
# eigendecomposition for the rank summary is skipped above this family size
# (the syndrome engine's summary is in closed form and has no cap); up to
# this size the exact and syndrome engines hold lambda dense
LAMBDA_SUMMARY_MAX = 4096


class VerificationError(ValueError):
    """Raised when lambda extraction is requested for a failing code."""


@dataclass(frozen=True)
class KLWitness:
    """One overlap entry that violates the recoverability condition.

    Indices refer to the deterministic enumeration order of the family
    (pattern_a, pattern_b) and of the sorted logical windows (logical_i,
    logical_j).  `observed` is the overlap itself, `expected` 0 for
    off-diagonal entries and the reference lambda value for diagonal ones.
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
    scipy CSR matrix from ``sparse-float``; from ``exact`` and ``syndrome``
    a dense array up to ``LAMBDA_SUMMARY_MAX`` patterns and CSR above.
    ``syndrome`` sets only the entries that can be nonzero, the
    same-syndrome pairs whose A^dag B maps v_0 onto itself.  Entry (a, b)
    is <v_0| A^dag B |v_0>, on a failure and after a ``fail_fast`` stop
    too.  It is not part of the JSON report, nor are ``code`` and
    ``family``, the pairing checked, which ``lambda_matrix`` compares.
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
    code: CodeSpec = field(repr=False, compare=False, default=None)
    family: PatternFamily = field(repr=False, compare=False, default=None)

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


def _ket_digits(ket: RegisterState,
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """A ket's digit rows and complex amplitudes, in term order."""
    terms = ket.to_complex_terms()
    digits = np.fromiter(itertools.chain.from_iterable(terms),
                         dtype=np.int64, count=len(terms) * width)
    amps = np.fromiter(terms.values(), dtype=np.complex128, count=len(terms))
    return digits.reshape(-1, width), amps


def _register_places(n: int, width: int):
    """Cut the registers, left to right, into runs whose grid index stays
    below 2^62: (run, place) of each register and the number of runs.
    Where N^width < 2^62 the one run's grid index is the string's own."""
    per = 1
    while per < width and n ** (per + 1) < 2 ** 62:
        per += 1
    index = np.arange(width)
    run = index // per
    end = np.minimum((run + 1) * per, width)
    place = np.array([n ** int(k) for k in end - 1 - index], dtype=np.int64)
    return run, place, -(-width // per)


def _string_keys(digits: np.ndarray, n: int) -> np.ndarray:
    """The run grid indices of digit rows, one row per run."""
    run, place, runs = _register_places(n, digits.shape[1])
    return np.stack([digits[:, run == r] @ place[run == r]
                     for r in range(runs)])


def _rank_strings(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Each column's rank among the distinct columns of ``keys``, in
    lexicographic order, which is grid order, and their number."""
    # np.lexsort's order, least significant run first and each later
    # sort stable, but a lone run takes the faster unstable sort
    order = np.argsort(keys[-1])
    for key in keys[-2::-1]:
        order = order[np.argsort(key[order], kind="stable")]
    ranked = keys[:, order]
    new = np.ones(keys.shape[1], dtype=bool)
    np.any(ranked[:, 1:] != ranked[:, :-1], axis=0, out=new[1:])
    rank = np.empty(keys.shape[1], dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return rank, int(new.sum())


def _apply_patterns(digits: np.ndarray, patterns, n: int):
    """Every pattern applied to the ket entries held as the digit rows
    ``digits``: (rows, source, keys, gained, factor), one item per entry
    of the result.  ``rows`` is its pattern, ``source`` the entry it came
    from, ``keys`` the ``_string_keys`` of its moved string, ``gained`` the
    exponent of w = exp(2 pi i / 2N) it gained (X^a Z^b adds 2 b digit)
    and ``factor`` its complex factor, None when no operator is a phase
    shift or a general matrix.

    One-branch operators (Weyl, spin flip, phase shift) act first: each
    moves the entries of all patterns that hold it at its position in one
    numpy pass.  ``general`` operators then fan each entry they touch out
    to at most N branches.  No other operator of a pattern touches the
    register an operator acts on, so each reads the ket's own digit there,
    and operators on different registers commute.
    """
    size, count = len(patterns), len(digits)
    run, place, _ = _register_places(n, digits.shape[1])
    groups: dict = {}
    for p_idx, pattern in enumerate(patterns):
        for pos, op in pattern.ops:
            if op.kind != "identity":
                groups.setdefault((pos, op), []).append(p_idx)
    keys = np.tile(_string_keys(digits, n)[:, None, :], (1, size, 1))
    gained = np.zeros((size, count), dtype=np.int64)
    factor = np.ones((size, count), dtype=np.complex128) if any(
        op.kind in ("phase_shift", "general") for _, op in groups) else None
    fanning = []
    for (pos, op), members in groups.items():
        digit = digits[:, pos - 1]
        if op.kind == "weyl":
            new = (digit + op.a) % n
            gained[members] += 2 * (op.b % n) * digit
        elif op.kind == "spin_flip":
            if len(op.table) != n:
                raise ValueError(
                    "spin flip table length does not match n_levels")
            new = np.array(op.table)[digit] % n
        elif op.kind == "phase_shift":
            if len(op.phases) != n:
                raise ValueError("phase table length does not match n_levels")
            factor[members] *= np.array(op.phases)[digit]
            continue
        elif op.kind == "general":
            if len(op.matrix) != n:
                raise ValueError("matrix shape does not match n_levels")
            fanning.append((pos, np.array(op.matrix, dtype=np.complex128),
                            members))
            continue
        else:
            raise ValueError(f"unknown error kind {op.kind!r}")
        keys[run[pos - 1], members] += (new - digit) * place[pos - 1]
    rows = np.repeat(np.arange(size), count)
    source = np.tile(np.arange(count), size)
    keys, gained = keys.reshape(len(keys), -1), gained.ravel()
    if factor is not None:
        factor = factor.ravel()
    for pos, matrix, members in fanning:
        member = np.zeros(size, dtype=bool)
        member[members] = True
        hit = np.flatnonzero(member[rows])
        digit = digits[source[hit], pos - 1]
        branch = matrix[:, digit]
        # each touched entry once per nonzero branch, branch by branch
        to, at = np.nonzero(branch)
        take = np.concatenate([np.flatnonzero(~member[rows]), hit[at]])
        rows, source, gained = rows[take], source[take], gained[take]
        keys, factor = keys[:, take], factor[take]
        fanned = slice(len(take) - len(at), None)
        keys[run[pos - 1], fanned] += (to - digit[at]) * place[pos - 1]
        factor[fanned] *= branch[to, at]
    return rows, source, keys, gained, factor


def _ranked_matrices(entries) -> list[csr_matrix]:
    """One CSR matrix per entry set (rows, keys, values, height), values
    that meet at one row and string summed.  The columns are the strings
    of all the sets, ranked together in grid order by ``_rank_strings``,
    so products do not scale with N^width and any width fits."""
    from scipy.sparse import csr_matrix
    columns, count = _rank_strings(
        np.concatenate([keys for _, keys, _, _ in entries], axis=1))
    ends = np.cumsum([len(values) for _, _, values, _ in entries])
    return [csr_matrix((values, (rows, cols)), shape=(height, count))
            for (rows, _, values, height), cols in zip(
                entries, np.split(columns, ends[:-1]))]


def _float_matrices(sets, n: int, width: int) -> list[csr_matrix]:
    """For each (kets, patterns) pair, the patterns applied to the kets in
    floats as one matrix, row k |patterns| + p holding pattern p applied
    to ket k, all over one column space."""
    order = 2 * n
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    entries = []
    for kets, patterns in sets:
        digits, amps = zip(*(_ket_digits(ket, width) for ket in kets))
        rows, source, keys, gained, factor = _apply_patterns(
            np.concatenate(digits), patterns, n)
        ket = np.repeat(np.arange(len(kets)), [len(a) for a in amps])
        values = np.concatenate(amps)[source] * roots[gained % order]
        if factor is not None:
            values *= factor
        entries.append((ket[source] * len(patterns) + rows, keys, values,
                        len(kets) * len(patterns)))
    return _ranked_matrices(entries)


def _touches(code: CodeSpec, patterns) -> np.ndarray:
    """Which patterns act on a register of the code's truncation boundary."""
    return np.array([any(pos in code.boundary_registers for pos, _ in p.ops)
                     for p in patterns], dtype=bool)


class _Scan:
    """The witness and boundary rule of every engine.

    Engines feed it the entries they count, blocks (i, j) in the order of
    ``_blocks_after_reference`` and each block's entries in (a, b) order:
    each deviation (the overlap less its expected value) with the overlap
    itself.  So the witness, the first entry whose deviation exceeds every
    one before it, is the largest deviation with ties going to the
    earliest (i, j, a, b), and the boundary witnesses are the first
    ``BOUNDARY_WITNESS_CAP`` entries above ``tol`` on the boundary, where
    ``touches`` (from ``_touches``) marks pattern a or b.  A diagonal entry
    (i == j) expects ``lam[a, b]``, which is read only for the entries
    kept.
    """

    def __init__(self, touches: np.ndarray, tol: float, lam):
        self.touches = touches
        self.tol = tol
        self.lam = lam
        self.max_dev = self.interior_max = 0.0
        self.witness: KLWitness | None = None
        self.boundary: list[KLWitness] = []

    def add(self, i: int, j: int, a, b, deviation: np.ndarray,
            observed: np.ndarray) -> None:
        """Fold in entries of block (i, j): ``deviation[k]`` and the
        overlap ``observed[k]`` belong to (i, j, a[k], b[k]), in (a, b)
        order.  Off the diagonal the two are equal."""
        if deviation.size == 0:
            return
        mag = np.abs(deviation)
        on_boundary = self.touches[a] | self.touches[b]
        self.interior_max = max(self.interior_max,
                                float(mag[~on_boundary].max(initial=0.0)))

        def keep(k):
            pa, pb = int(a[k]), int(b[k])
            expected = complex(self.lam[pa, pb]) if j == i else 0j
            return KLWitness(pa, pb, i, j, complex(observed[k]), expected,
                             float(mag[k]), bool(on_boundary[k]))

        # argmax takes the first of equal values, the earliest in the block
        top = int(mag.argmax())
        if mag[top] > self.max_dev:
            self.witness = keep(top)
            self.max_dev = self.witness.deviation
        room = BOUNDARY_WITNESS_CAP - len(self.boundary)
        hits = np.flatnonzero((mag > self.tol) & on_boundary)[:room]
        self.boundary += [keep(k) for k in hits]


def _blocks_after_reference(dim: int):
    """Blocks (i, j >= i) in order after (0, 0), which is lambda itself."""
    return itertools.islice(
        itertools.combinations_with_replacement(range(dim), 2), 1, None)


def _scan_blocks(scan: _Scan, blocks, fail_fast: bool,
                 counted: bool = False) -> bool:
    """Feed blocks (i, j, a, b, deviation, observed) to the scan and return
    whether the check failed: on a deviation above ``tol``, or for a
    counted walk (the exact engine's) on any entry.  ``fail_fast`` stops
    at the first failing block, of a counted walk feeding only its first
    entry."""
    failed = False
    for i, j, *entries in blocks:
        if counted and fail_fast:
            entries = [e[:1] for e in entries]
        scan.add(i, j, *entries)
        failed = (failed or entries[0].size > 0) if counted \
            else scan.max_dev > scan.tol
        if failed and fail_fast:
            break
    return failed


def _sparse_blocks(mats: list[csr_matrix], lam: csr_matrix):
    """The float Gram blocks (i, j >= i) after the reference, in order, as
    (i, j, a, b, deviation, observed) in (a, b) order, for the entries
    whose deviation (a diagonal block's entry less lambda's) is at least
    ``FLOAT_ZERO_TOL``, the float zero of ``PhaseScalar.is_zero``.
    ``observed`` is the overlap itself."""
    for i, j in _blocks_after_reference(len(mats)):
        block = gram = (mats[i].conj() @ mats[j].T).tocsr()
        if i == j:
            gram = (gram - lam).tocsr()
        # sorted CSR reads out row-major, the (a, b) order the scan needs
        gram.sort_indices()
        coo = gram.tocoo()
        live = np.abs(coo.data) >= FLOAT_ZERO_TOL
        a, b, deviation = coo.row[live], coo.col[live], coo.data[live]
        observed = np.asarray(block[a, b]).ravel() if i == j else deviation
        yield i, j, a, b, deviation, observed


def _sparse_engine(code: CodeSpec, patterns, tol: float, fail_fast: bool,
                   counted: bool = False):
    """Cached sparse Gram: one family matrix per logical word, built once,
    then the blocks (i, j >= i) after the reference block (0, 0), lambda,
    in order, fed to ``_scan_blocks`` as a float walk or, for the exact
    engine, a counted one.  Returns (scan, failed, lam, None), ``lam`` as
    sorted CSR."""
    size = len(patterns)
    kets = [code.encoded_kets[w] for w in code.logical_windows()]
    (stacked,) = _float_matrices([(kets, patterns)], code.n_levels,
                                 code.width)
    mats = [stacked[k * size:(k + 1) * size] for k in range(len(kets))]
    lam = (mats[0].conj() @ mats[0].T).tocsr()
    lam.sort_indices()
    scan = _Scan(_touches(code, patterns), tol, lam)
    return scan, _scan_blocks(scan, _sparse_blocks(mats, lam), fail_fast,
                              counted), lam, None


# -- the exact engine ---------------------------------------------------------
#
# An exact amplitude is sum_e c_e w^e / sqrt(N)^h with w = exp(2 pi i / 2N)
# and rational c_e.  Over the lcm D of the denominators, a ket whose terms
# share one h is an integer vector on the lattice Z[w], one entry per
# (basis string, exponent).  Exact operators keep the lattice: X^a Z^b moves
# a digit and adds 2 b digit to the exponent, a spin flip moves the digit
# (entries that land on one string and exponent are summed), and the
# identity does nothing.  With one integer row per (pattern a, exponent e),
# the Gram product X_i X_j^T holds at ((a, e), (b, u)) the coefficient of
# w^(u - e) in <A v_i | B v_j> D^2 sqrt(N)^(h_i + h_j).  Folded by
# (a, b, (u - e) mod 2N) and multiplied by ``residue_matrix(2N)``, it gives
# each overlap's canonical residue, which is zero iff the overlap is.


@dataclass
class _Lattice:
    """The logical words' kets as integer entries on the lattice Z[w], one
    flat array per field over the entries of every ket, ket by ket."""

    digits: np.ndarray       # (entries, width) basis strings
    ket: np.ndarray          # the ket each entry belongs to
    exponents: np.ndarray    # exponent of w, mod 2N
    numerators: np.ndarray   # coefficient times ``denominator``
    halves: list[int]        # each ket's power of sqrt(N) below
    denominator: int


def _read_lattice(code: CodeSpec, patterns) -> _Lattice | None:
    """The kets on the lattice, one entry per (ket, string, exponent) in
    term order, or None for an input that ``PhaseScalar`` carries in
    floats: an operator other than Weyl, spin flip and the identity, an
    inexact amplitude, or a ket whose terms mix the parity of sqrt(N).

    Every Gram entry is at most fan-in x max|numerator|^2 x terms, with
    the numerator of a term summed over its exponents and the fan-in the
    most strings a pattern's spin flips map onto one.  A ValueError
    refuses kets for which that bound, times 2N for the diagonal's common
    scale and the residue, could overflow int64.
    """
    n, order = code.n_levels, 2 * code.n_levels
    if any(op.kind not in ("weyl", "spin_flip", "identity")
           for pattern in patterns for _, op in pattern.ops):
        return None
    kets = []
    for w in code.logical_windows():
        terms = code.encoded_kets[w].terms
        parts = [amp.parts for amp in terms.values()]
        if any(p is None for p in parts) or len({h for _, h in parts}) > 1:
            return None
        kets.append((terms, parts))
    parts = [part for _, ket_parts in kets for part in ket_parts]
    coefficients = [list(coeffs.values()) for coeffs, _ in parts]
    denominator = math.lcm(*(c.denominator for cs in coefficients
                             for c in cs))
    peak = max((sum(map(abs, cs)) for cs in coefficients), default=0)
    fan_in = max((math.prod(
        np.bincount(np.array(op.table) % n).max()
        for _, op in pattern.ops if op.kind == "spin_flip")
        for pattern in patterns), default=1)
    bound = int(fan_in * (peak * denominator) ** 2
                * max(len(terms) for terms, _ in kets))
    limit = (2 ** 63 - 1) // (order * int(np.abs(residue_matrix(order)).max()))
    if bound > limit:
        raise ValueError(
            f"exact overlaps of {code.label!r} may reach {bound} (fan-in x "
            f"max|numerator|^2 x terms), past the int64 bound {limit}")
    counts = [len(cs) for cs in coefficients]
    strings = np.array([s for terms, _ in kets for s in terms],
                       dtype=np.int64).reshape(-1, code.width)
    ket = np.repeat(np.arange(len(kets)), [len(terms) for terms, _ in kets])
    return _Lattice(
        np.repeat(strings, counts, axis=0), np.repeat(ket, counts),
        np.fromiter((e % order for coeffs, _ in parts for e in coeffs),
                    np.int64),
        np.fromiter((int(c * denominator) for cs in coefficients
                     for c in cs), np.int64),
        [ket_parts[0][1] if ket_parts else 0 for _, ket_parts in kets],
        denominator)


def _lattice_matrices(lattice: _Lattice, patterns, n: int) -> list[csr_matrix]:
    """Each ket's family matrix on the lattice: row a 2N + e holds the
    integer entries of pattern a applied to the ket at exponent e, over
    the column space of ``_ranked_matrices``."""
    order, size, dim = 2 * n, len(patterns), len(lattice.halves)
    rows, source, keys, gained, _ = _apply_patterns(lattice.digits, patterns,
                                                    n)
    exponents = lattice.exponents[source] + gained
    (stacked,) = _ranked_matrices([(
        (lattice.ket[source] * size + rows) * order + exponents % order, keys,
        lattice.numerators[source], dim * size * order)])
    height = size * order
    return [stacked[k * height:(k + 1) * height] for k in range(dim)]


def _fold(keys: np.ndarray, values: np.ndarray):
    """Sorted distinct keys, which are nonnegative, and the integer sum of
    the values (or value rows) of each."""
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))
    return keys[start], np.add.reduceat(values, start)


def _gram_block(mats: list[csr_matrix], i: int, j: int, order: int):
    """Block (i, j) folded: keys (a |F| + b) 2N + d in order, and the
    integer coefficient of w^d in <A v_i | B v_j> D^2 sqrt(N)^(h_i + h_j)
    at each."""
    gram = (mats[i] @ mats[j].T).tocoo()
    size = mats[i].shape[0] // order
    a, e = np.divmod(gram.row.astype(np.int64), order)
    b, u = np.divmod(gram.col.astype(np.int64), order)
    return _fold((a * size + b) * order + (u - e) % order, gram.data)


def _residues(keys: np.ndarray, values: np.ndarray, order: int):
    """The pairs a |F| + b of folded keys, in order, and the canonical
    residue of each pair's overlap, one integer row each."""
    pair, power = np.divmod(keys, order)
    new = np.diff(pair, prepend=-1) != 0
    coefficients = np.zeros((int(new.sum()), order), dtype=np.int64)
    coefficients[np.cumsum(new) - 1, power] = values
    return pair[new], coefficients @ residue_matrix(order)


def _lattice_value(residue: np.ndarray, order: int,
                   scale: float) -> np.ndarray:
    """Complex values of residue rows over ``scale``, summed in one fixed
    order, so that equal residues give bit-equal floats."""
    total = np.zeros(len(residue), dtype=complex)
    for k in range(residue.shape[1]):
        total += residue[:, k] * np.exp(2j * np.pi * k / order)
    return total / scale


def _lambda_out(values: np.ndarray, a: np.ndarray, b: np.ndarray,
                size: int):
    """Lambda as the report holds it, from its entries (a, b, value), one
    per pair: dense up to ``LAMBDA_SUMMARY_MAX`` patterns, where the
    summary densifies it anyway, and CSR above."""
    if size <= LAMBDA_SUMMARY_MAX:
        lam = np.zeros((size, size), dtype=complex)
        lam[a, b] = values
        return lam
    from scipy.sparse import csr_matrix
    return csr_matrix((values, (a, b)), shape=(size, size))


def _exact_engine(code: CodeSpec, patterns, tol: float, fail_fast: bool):
    """Integer Gram blocks on the cyclotomic lattice, in the block order of
    the sparse Gram; an entry counts when its residue is not zero.  On a
    diagonal block the residues of the block and of the reference are
    subtracted by pair, beside the block's own, so each deviation comes
    with its overlap.  Inputs that ``PhaseScalar`` carries in floats run
    the sparse Gram as a counted walk, where an entry counts when its
    magnitude is not below ``FLOAT_ZERO_TOL``.  Returns (scan, failed, lam,
    None), ``lam`` the reference block on either verdict."""
    lattice = _read_lattice(code, patterns)
    n, size, order = code.n_levels, len(patterns), 2 * code.n_levels
    if lattice is None:
        scan, failed, lam, _ = _sparse_engine(code, patterns, tol, fail_fast,
                                              counted=True)
        entries = lam.tocoo()
        return scan, failed, _lambda_out(entries.data, entries.row,
                                         entries.col, size), None
    mats = _lattice_matrices(lattice, patterns, n)
    h = lattice.halves
    square = lattice.denominator ** 2
    ref_pairs, ref = _residues(*_gram_block(mats, 0, 0, order), order)
    live = ref.any(axis=1)
    lam = _lambda_out(_lattice_value(ref[live], order, square * n ** h[0]),
                      *np.divmod(ref_pairs[live], size), size)
    scan = _Scan(_touches(code, patterns), tol, lam)

    def blocks():
        for i, j in _blocks_after_reference(len(mats)):
            pairs, own = _residues(*_gram_block(mats, i, j, order), order)
            half, odd = divmod(h[i] + h[j], 2)
            scale = square * n ** half * math.sqrt(n) ** odd
            residue = own
            if i == j:
                # residues are linear: v_i's overlaps less lambda, over
                # D^2 N^(h_i + h_0), beside the overlaps themselves
                pairs, both = _fold(np.concatenate([pairs, ref_pairs]),
                                    np.block([[own * n ** h[0], own],
                                              [-ref * n ** h[i],
                                               np.zeros_like(ref)]]))
                residue, own = np.hsplit(both, 2)
            live = residue.any(axis=1)
            a, b = np.divmod(pairs[live], size)
            observed = _lattice_value(own[live], order, scale)
            deviation = _lattice_value(residue[live], order, square * n ** (
                h[i] + h[0])) if i == j else observed
            yield i, j, a, b, deviation, observed

    return scan, _scan_blocks(scan, blocks(), fail_fast, counted=True), \
        lam, None


# -- the syndrome engine ------------------------------------------------------
#
# A Weyl operator X^x Z^z is held as the row (x | z) over Z_N.  Rows compose
# by addition up to a phase, and W(s) W(s') = w^<s, s'> W(s') W(s) with the
# symplectic product <s, s'> = z.x' - x.z'.
#
# Spans and kernels over Z_N are read off the Howell form (Howell 1986;
# Storjohann and Mulders 1998): echelon rows whose pivots divide N, the
# entries above each pivot reduced below it, such that the elements of the
# span that vanish on the first c columns are the combinations of the rows
# whose pivot lies beyond c.  The span then has prod N / pivot elements, a
# row is in it iff it reduces to zero, and at prime N the form is the
# reduced row echelon form.


def _mod_matmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """a @ b mod n for integer arrays with entries in range(n), through
    floats: exact while width * n^2 stays below 2^53."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % n


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s a + t b = g = gcd(a, b)."""
    s, s_next, t, t_next = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s, s_next = s_next, s - q * s_next
        t, t_next = t_next, t - q * t_next
    return a, s, t


def _unit_towards(a: int, n: int) -> int:
    """A unit u of Z_n with u a = gcd(a, n), for 0 < a < n."""
    d = math.gcd(a, n)
    u = pow(a // d, -1, n // d)
    # the lifts u + k n / d hold a unit of Z_n
    while math.gcd(u, n) != 1:
        u += n // d
    return u


def _howell(rows: np.ndarray, n: int) -> tuple[np.ndarray, list[int]]:
    """Howell form over Z_n: the nonzero rows and their pivot columns.

    A column that holds a unit takes it as pivot 1 and is cleared in one
    pass.  Otherwise the rows that hold the column are merged pairwise by
    extended gcd into one, scaled by a unit to a pivot d dividing n, and
    (n / d) times that row, which vanishes on the column, joins the rows
    still to be reduced.
    """
    m = rows % n
    is_unit = np.gcd(np.arange(n), n) == 1
    pivots: list[int] = []
    for col in range(m.shape[1]):
        top = len(pivots)
        hit = top + np.flatnonzero(m[top:, col])
        if hit.size == 0:
            continue
        units = hit[is_unit[m[hit, col]]]
        lead = units[0] if units.size else hit[0]
        if lead != top:
            m[[top, lead]] = m[[lead, top]]
        if not units.size:
            for r in hit[1:]:
                a, b = int(m[top, col]), int(m[r, col])
                g, s, t = _xgcd(a, b)
                m[top], m[r] = (s * m[top] + t * m[r]) % n, \
                    (a // g * m[r] - b // g * m[top]) % n
        m[top] = m[top] * _unit_towards(int(m[top, col]), n) % n
        pivot = int(m[top, col])
        factor = m[:, col] // pivot
        factor[top] = 0
        m = (m - factor[:, None] * m[top]) % n
        pivots.append(col)
        if pivot > 1:
            m = np.vstack([m, n // pivot * m[top] % n])
        if len(pivots) == m.shape[0]:
            break
    return m[:len(pivots)], pivots


def _order(rows: np.ndarray, pivots, n: int) -> int:
    """Number of elements of the span of Howell rows."""
    return math.prod(n // int(rows[k, col]) for k, col in enumerate(pivots))


def _reduce(rows: np.ndarray, basis: np.ndarray, pivots,
            n: int) -> np.ndarray:
    """Rows reduced against Howell rows: one representative per coset of
    their span, zero on the span itself.  Every other row vanishes on the
    column of a pivot 1, so those rows go in one product; the others in
    order."""
    pivots = np.asarray(pivots, dtype=np.int64)
    unit = basis[np.arange(pivots.size), pivots] == 1
    if unit.any():
        rows = (rows - _mod_matmul(rows[:, pivots[unit]], basis[unit], n)) % n
    for row, col in zip(basis[~unit], pivots[~unit]):
        rows = (rows - (rows[:, col] // row[col])[:, None] * row) % n
    return rows


def _nullspace(rows: np.ndarray, n: int) -> np.ndarray:
    """Howell rows spanning {v : rows @ v = 0 mod n}: the rows of the Howell
    form of [rows^T | I] whose first part vanishes."""
    count, size = rows.shape
    basis, pivots = _howell(np.hstack([rows.T % n,
                                       np.eye(size, dtype=np.int64)]), n)
    return basis[[col >= count for col in pivots], count:]


def _solve(basis: np.ndarray, pivots, rhs: np.ndarray,
           n: int) -> np.ndarray | None:
    """z with basis @ z = rhs mod n, one column per column of ``rhs``, by
    back substitution through Howell rows; None when there is none."""
    z = np.zeros((basis.shape[1], rhs.shape[1]), dtype=np.int64)
    for k in range(len(pivots) - 1, -1, -1):
        pivot = int(basis[k, pivots[k]])
        residue = (rhs[k] - basis[k] @ z) % n
        if (residue % pivot).any():
            return None
        z[pivots[k]] = residue // pivot
    return z


def _pairing(rows: np.ndarray) -> np.ndarray:
    """Rows (x | z) as functionals v -> <row, v>, i.e. (z | -x)."""
    half = rows.shape[1] // 2
    return np.hstack([rows[:, half:], -rows[:, :half]])


def _root_exponents(values: np.ndarray, n: int) -> np.ndarray | None:
    """e with values = w^e (w = exp(2 pi i / n)), or None when a value is
    not an n-th root of unity."""
    turns = np.angle(values) * n / (2 * np.pi)
    exponents = np.rint(turns)
    if np.abs(np.abs(values) - 1).max(initial=0) > 1e-9 or \
            np.abs(turns - exponents).max(initial=0) > 1e-9:
        return None
    return exponents.astype(np.int64) % n


class _Kets:
    """Encoded kets as sorted grid indices, for amplitude lookups."""

    def __init__(self, code: CodeSpec, place: np.ndarray):
        self.digits, self.indices, self.amps = [], [], []
        for w in code.logical_windows():
            digits, amps = _ket_digits(code.encoded_kets[w], place.size)
            order = np.argsort(digits @ place)
            self.digits.append(digits[order])
            self.indices.append(digits[order] @ place)
            self.amps.append(amps[order])
        self.place = place
        self.first = np.array([d[0] for d in self.digits])
        self.norms = np.array([np.vdot(a, a).real for a in self.amps])

    def lookup(self, j: int, index: np.ndarray) -> np.ndarray:
        """Ket j's amplitudes at grid indices, 0 off its support."""
        known = self.indices[j]
        if known[-1] - known[0] == known.size - 1:
            # the support is a run of the grid, a dense ket's whole grid
            where = np.clip(index - known[0], 0, known.size - 1)
        else:
            where = np.minimum(np.searchsorted(known, index), known.size - 1)
        return np.where(known[where] == index, self.amps[j][where], 0)

    def eigenvalues(self, j: int, gens: np.ndarray, n: int):
        """c with W(g) v_j = c[g] v_j for every generator row g, or None
        when one of them does not map v_j onto a multiple of itself."""
        digits, amps = self.digits[j], self.amps[j]
        width = digits.shape[1]
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        # (W v)(y + x) = w^(z.y) v(y), which must equal c v(y + x)
        ratio = roots[_mod_matmul(gens[:, width:], digits.T, n)] * amps
        for row, shift in zip(ratio, gens[:, :width]):
            # only the registers the shift moves change the grid index
            cols = np.flatnonzero(shift)
            moved = self.lookup(j, self.indices[j] + (
                (digits[:, cols] + shift[cols]) % n - digits[:, cols])
                @ self.place[cols])
            if (moved == 0).any():
                return None
            row /= moved
        if np.abs(ratio - ratio[:, :1]).max(initial=0) > 1e-9:
            return None
        return ratio[:, 0]


@dataclass
class _Tableau:
    """A stabilizer read off a code's kets.

    ``stabilizer`` holds the Howell rows of S, the Weyl rows that act on
    every ket as one common phase, and ``pivots`` their pivot columns, so
    that a row's coset of S is its ``_reduce`` against them.  ``logical``
    completes S to the stabilizer of v_0: ket j is its eigenvector with
    exponents ``characters[j]``.  Every span here is one ``_howell`` call,
    whose canonical rows do not depend on how many rows it is handed.
    ``keys`` holds the kets' characters read as base-N numbers, sorted,
    and ``ket_of`` the ket of each key.  ``frames`` holds the
    ``_SyndromeTable`` of each Weyl family checked or run on the code
    (its boundary mask included), which the syndrome engine and the
    channel's syndrome path both read.
    """

    stabilizer: np.ndarray
    pivots: list[int]
    logical: np.ndarray
    characters: np.ndarray
    keys: np.ndarray
    ket_of: np.ndarray
    kets: _Kets
    frames: dict = field(default_factory=dict)


def _read_tableau(code: CodeSpec) -> _Tableau | None:
    """The code's stabilizer, read off its kets once per code: the result,
    None included, is kept on the code."""
    if code._stabilizer is UNREAD:
        code._stabilizer = _tableau_off_kets(code)
    return code._stabilizer


def _tableau_off_kets(code: CodeSpec) -> _Tableau | None:
    """The code's stabilizer, read off its kets and checked on them.

    The support of v_0 must be an affine space y_0 + W, which gives the X
    parts of v_0's stabilizer; the ratio v_0(y - g) / v_0(y) along W gives
    the Z part that goes with each shift g, solved for through the Howell
    rows of W, and W^perp the pure Z rows.  Every one of these generators
    must map every ket onto a multiple of itself, with an N-th root of
    unity relative to v_0.  One Howell form of (roots | generators) splits
    S, the rows whose root is 1 on every ket, from the logical rows, and
    |S| dim must be N^width.  The kets must share one norm and have
    distinct roots, which makes them orthogonal.  None (no stabilizer code
    this engine can serve) otherwise, also when a ket has no terms, and
    when N to the number of rows of S, or of the logical rows, reaches
    2^62: syndromes and ket keys are read as base-N integers.
    """
    n, width = code.n_levels, code.width
    if n ** width >= 2 ** 62 or not all(
            code.encoded_kets[w].terms for w in code.logical_windows()):
        return None
    kets = _Kets(code, n ** np.arange(width - 1, -1, -1, dtype=np.int64))
    dim = len(kets.amps)
    # unequal norms break the diagonal condition on every pair
    if np.abs(kets.norms - kets.norms[0]).max() > 1e-9:
        return None
    digits, amps, y0 = kets.digits[0], kets.amps[0], kets.first[0]
    shifts, pivots = _howell(digits - y0, n)
    if _order(shifts, pivots, n) != len(amps):
        return None
    # ratio(g, h) = v0(y0 + h - g) v0(y0) / (v0(y0 + h) v0(y0 - g)) = w^(-z_g.h)
    at = lambda rows: kets.lookup(0, (rows % n) @ kets.place)
    ratio = at(y0 + shifts[None, :, :] - shifts[:, None, :]) * amps[0] / (
        at(y0 + shifts)[None, :] * at(y0 - shifts)[:, None])
    exponents = _root_exponents(ratio.reshape(-1), n)
    if exponents is None:
        return None
    z_of_shift = _solve(shifts, pivots, -exponents.reshape(
        len(shifts), len(shifts)).T, n)
    if z_of_shift is None:
        return None
    pure_z = _nullspace(shifts, n)
    gens = np.vstack([np.hstack([shifts, z_of_shift.T]),
                      np.hstack([np.zeros_like(pure_z), pure_z])])
    values = [kets.eigenvalues(j, gens, n) for j in range(dim)]
    if any(v is None for v in values):
        return None
    # generator m acts on ket j as w^roots[m, j] relative to v_0
    roots = _root_exponents(np.stack(values, axis=1) / values[0][:, None], n)
    if roots is None:
        return None
    rows, pivots = _howell(np.hstack([roots, gens]), n)
    logical = np.array([col < dim for col in pivots], dtype=bool)
    stabilizer = rows[~logical, dim:]
    s_pivots = [col - dim for col in pivots if col >= dim]
    if _order(stabilizer, s_pivots, n) * dim != n ** width:
        return None
    if n ** max(len(stabilizer), int(logical.sum())) >= 2 ** 62:
        return None
    characters = rows[logical, :dim].T
    keys = characters @ n ** np.arange(characters.shape[1], dtype=np.int64)
    ket_of = np.argsort(keys)
    keys = keys[ket_of]
    if (keys[1:] == keys[:-1]).any():
        return None
    return _Tableau(stabilizer, s_pivots, rows[logical, dim:], characters,
                    keys, ket_of, kets)


def _weyl_rows(code: CodeSpec, patterns) -> np.ndarray | None:
    """Each pattern as the Weyl row (x | z) of its X and Z exponents mod N,
    one column per register in each half, or None when an operator is not
    a Weyl operator or the identity."""
    n, width = code.n_levels, code.width
    rows = np.zeros((len(patterns), 2 * width), dtype=np.int64)
    for p_idx, pattern in enumerate(patterns):
        for pos, op in pattern.ops:
            if op.kind == "weyl":
                rows[p_idx, pos - 1] = op.a % n
                rows[p_idx, width + pos - 1] = op.b % n
            elif op.kind != "identity":
                return None
    return rows


def _syndromes(tab: _Tableau, rows: np.ndarray, n: int) -> np.ndarray:
    """Each Weyl row's syndrome, its symplectic products with S read as one
    base-N integer (exact: N^r stays below 2^62 wherever a tableau reads,
    r the rows of S)."""
    digits = _mod_matmul(rows, _pairing(tab.stabilizer).T, n)
    return digits @ n ** np.arange(digits.shape[1], dtype=np.int64)


@dataclass
class _SyndromeTable:
    """A Weyl family's syndromes on one code, and which of its members touch
    the code's boundary, built once per (code, family) and kept in the
    tableau's ``frames``."""

    patterns: list[ErrorPattern]
    rows: np.ndarray        # member p as the Weyl row (x | z)
    keys: np.ndarray        # every syndrome the family reaches, sorted
    earliest: np.ndarray    # the first member with each key
    classes: np.ndarray     # each member's index into ``keys``
    members: frozenset      # the members, for membership tests
    touches: np.ndarray     # which members act on a boundary register


def _syndrome_plan(code: CodeSpec, family: PatternFamily):
    """(tableau, table) of the family on the code, or None when
    ``family.basis`` holds an operator that is not a Weyl operator or no
    stabilizer reads off the kets."""
    if any(op.kind != "weyl" for op in family.basis):
        return None
    tab = _read_tableau(code)
    if tab is None:
        return None
    if family not in tab.frames:
        patterns = list(family)
        rows = _weyl_rows(code, patterns)
        keys, earliest, classes = np.unique(
            _syndromes(tab, rows, code.n_levels), return_index=True,
            return_inverse=True)
        tab.frames[family] = _SyndromeTable(
            patterns, rows, keys, earliest, classes, frozenset(patterns),
            _touches(code, patterns))
    return tab, tab.frames[family]


def _transfer(tab: _Tableau, n: int, rows_a: np.ndarray, rows_b: np.ndarray,
              sources):
    """Lists (i, mu), one entry per source ket j, with B v_j = mu A v_i
    elementwise over the Weyl rows of A and B, whose pairs commute with S.

    A^dag B maps v_j onto the ket whose character is v_j's shifted by
    <t, row_b - row_a> for each logical row t.  mu is read at one term: y
    = y_i + x_A, where A v_i has the value w^(z_A.y_i) v_i(y_i) and B v_j
    the value w^(z_B.(y - x_B)) v_j(y - x_B).
    """
    kets = tab.kets
    width = rows_a.shape[1] // 2
    place = n ** np.arange(tab.characters.shape[1], dtype=np.int64)
    shift = _mod_matmul(rows_b - rows_a, _pairing(tab.logical).T, n)
    x_a, z_a = rows_a[:, :width], rows_a[:, width:]
    x_b, z_b = rows_b[:, :width], rows_b[:, width:]
    first_amps = np.array([amps[0] for amps in kets.amps])
    targets, mus = [], []
    for j in sources:
        # the shifted character is a ket's, since A^dag B keeps the code
        i = tab.ket_of[tab.keys.searchsorted(
            (tab.characters[j] + shift) % n @ place)]
        y = kets.first[i]
        source = (y + x_a - x_b) % n
        exponent = ((z_b * source).sum(axis=1) - (z_a * y).sum(axis=1)) % n
        targets.append(i)
        mus.append(np.exp(2j * np.pi * exponent / n)
                   * kets.lookup(j, source @ kets.place) / first_amps[i])
    return targets, mus


def _pairs_within(classes: np.ndarray):
    """All (a, b) with classes[a] == classes[b], in (a, b) order."""
    members = np.argsort(classes, kind="stable")
    sizes = np.bincount(classes)
    start = np.cumsum(sizes) - sizes
    counts = sizes[classes]
    a = np.repeat(np.arange(len(classes)), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    return a, members[start[classes[a]] + offset]


def _syndrome_engine(code: CodeSpec, tab: _Tableau, table: _SyndromeTable,
                     tol: float, fail_fast: bool):
    """Weyl families on stabilizer codes; see the module docstring.

    A pair with different syndromes has A^dag B off the normalizer, so
    every overlap is an exact zero.  One ``_transfer`` at v_0 over every
    same-syndrome pair gives lambda: A^dag B maps v_0 onto mu times the
    ket ``target``, and lambda_ab = mu |v_0|^2 where that ket is v_0, for
    pairs of one full label (A^dag B in S) and failing pairs alike.

    A failing pair's A^dag B is its logical class's representative's
    times a phase and an element of S, which acts on every ket as one
    phase, so its overlaps are the representative's times kappa, its own
    mu at v_0 over the representative's: every ket is read for the
    representatives only.  The scan gets, block (i, j >= i) by block,
    the entries that can be nonzero: a pair maps v_j onto one ket,
    ``targets[j]``, and on the diagonal the reference overlap counts too.
    Each deviation is a magnitude of its class: |v_0|^2 where one of the
    two overlaps is zero, and |w^k - 1| |v_0|^2 where the class maps v_i
    and v_0 onto themselves with character ratio w^k.  ``fail_fast``
    stops after the first block holding a deviation above ``tol``.
    Returns (scan, failed, lam, lambda summary or None).
    """
    n, kets, rows = code.n_levels, tab.kets, table.rows
    size, dim, norm = len(rows), len(kets.amps), kets.norms[0]
    label, labels = _rank_strings(_string_keys(
        _reduce(rows, tab.stabilizer, tab.pivots, n), n))
    a, b = _pairs_within(table.classes)
    (target,), (mu,) = _transfer(tab, n, rows[a], rows[b], [0])
    kept = target == 0
    entries = mu[kept] * norm, a[kept], b[kept]
    lam = _lambda_out(*entries, size)
    scan = _Scan(table.touches, tol, lam)
    failing = label[a] != label[b]
    if not failing.any():
        # lambda is a direct sum of rank-1 blocks, one per label class
        eigenvalues = np.zeros(size)
        eigenvalues[:labels] = np.bincount(label) * norm
        return scan, False, lam, _lambda_summary(
            eigenvalues, _identity_deviation(*entries), size, tol)
    a, b, mu, kept = a[failing], b[failing], mu[failing], kept[failing]
    # each failing pair's logical class, the coset of S of row_b - row_a
    cls, _ = _rank_strings(_string_keys(_reduce(
        (rows[b] - rows[a]) % n, tab.stabilizer, tab.pivots, n), n))
    _, rep = np.unique(cls, return_index=True)
    # (target ket, mu) of each class's representative, per source ket j
    targets, mus = _transfer(tab, n, rows[a[rep]], rows[b[rep]], range(dim))
    kappa = mu / mu[rep[cls]]

    def blocks():
        for i, j in _blocks_after_reference(dim):
            own = (targets[j] == i)[cls]
            live = np.flatnonzero(own | kept if i == j else own)
            chord = np.ones(len(rep))
            if i == j:
                fixed = (targets[i] == i) & (targets[0] == 0)
                k = _root_exponents(mus[i][fixed] / mus[0][fixed], n)
                chord[fixed] = 2 * np.sin(np.pi * np.minimum(k, n - k) / n)
            yield i, j, a[live], b[live], chord[cls[live]] * norm, np.where(
                own[live], kappa[live] * mus[j][cls[live]] * kets.norms[i], 0)

    return scan, _scan_blocks(scan, blocks(), fail_fast), lam, None


def kl_check(code: CodeSpec, family: PatternFamily, tol: float = 1e-9,
             exact: bool = False, fail_fast: bool = False,
             jobs: int = 1) -> KLReport:
    """Check the code against every ordered pair of patterns in the family.

    Float mode passes when the maximal deviation stays at or below `tol`.
    It runs the ``syndrome`` engine when every pattern is a Weyl operator
    (or the identity) and a stabilizer reads off the code's kets, and the
    ``sparse-float`` engine otherwise; ``report.engine`` names it.  Exact
    mode demands symbolic zeros and reports the float magnitude of any
    residue it finds; it refuses, with a ValueError, kets whose integer
    overlaps could overflow int64.  All three engines pick witnesses and
    boundary witnesses through one accumulator, and every passing report
    carries a lambda summary (the syndrome engine's in closed form, the
    others' up to ``LAMBDA_SUMMARY_MAX`` patterns).

    `fail_fast` stops early once a deviation above `tol` is found: the
    sparse Gram and the syndrome engine after the first (i, j) logical
    block holding one, the exact engine at the first nonzero entry.  `tol`
    must be finite and nonnegative.  `jobs` is accepted for compatibility
    and ignored: every engine runs in one thread.
    """
    if not code.encoded_kets:
        raise ValueError("code has no materialized encoded kets")
    _check_tol(tol)
    _check_family_width(code, family)
    started = time.perf_counter()
    found = None if exact else _syndrome_plan(code, family)
    patterns = list(family) if found is None else found[1].patterns

    if exact:
        engine = "exact"
        outcome = _exact_engine(code, patterns, tol, fail_fast)
    elif found is not None:
        engine = "syndrome"
        outcome = _syndrome_engine(code, *found, tol, fail_fast)
    else:
        engine = "sparse-float"
        outcome = _sparse_engine(code, patterns, tol, fail_fast)
    scan, failed, lam, summary = outcome
    if not failed and summary is None and len(patterns) <= LAMBDA_SUMMARY_MAX:
        summary = _summarize_lambda(lam, tol)
    k = min(len(patterns), LAMBDA_SAMPLE_DIM)
    corner = _as_dense(lam[:k, :k])
    samples = {(a, b): complex(value)
               for (a, b), value in np.ndenumerate(corner)}

    elapsed = time.perf_counter() - started
    # every register on the boundary leaves nothing for the interior check
    vacuous = set(range(1, code.width + 1)) <= code.boundary_registers
    return KLReport(
        verdict="fail" if failed else "pass",
        code_label=code.label,
        tolerance=tol,
        exact=exact,
        engine=engine,
        family_size=len(patterns),
        logical_dim=len(code.logical_windows()),
        max_deviation=scan.max_dev,
        witness=scan.witness if failed else None,
        interior_max_deviation=scan.interior_max,
        interior_verdict="vacuous" if vacuous
        else ("pass" if scan.interior_max <= tol else "fail"),
        boundary_witnesses=tuple(scan.boundary) if failed else (),
        lambda_samples=samples,
        lambda_summary=summary,
        elapsed_seconds=elapsed,
        family_json=family.to_json(),
        lam=lam,
        code=code,
        family=family,
    )


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite nonnegative number, "
                         f"not {tol}")


def _check_family_width(code: CodeSpec, family: PatternFamily) -> None:
    if family.width != code.width:
        raise ValueError(
            f"family width {family.width} does not match code width "
            f"{code.width}")


def _as_dense(lam) -> np.ndarray:
    return lam if isinstance(lam, np.ndarray) else lam.toarray()


def _identity_deviation(values: np.ndarray, a: np.ndarray,
                        b: np.ndarray) -> float:
    """The largest entry of |lambda - I| for lambda given by its entries
    (a, b, value), one per pair, every diagonal pair among them."""
    return float(np.abs(values - (a == b)).max(initial=0.0))


def _lambda_summary(eigenvalues: np.ndarray, identity_dev: float, size: int,
                    tol: float) -> dict:
    """Kind, rank, size and least eigenvalue of a lambda matrix from its
    eigenvalues and its largest deviation from the identity."""
    scale = max(1.0, float(eigenvalues.max(initial=0.0)))
    rank = int((eigenvalues > max(tol, 1e-9) * scale).sum())
    kind = "identity" if identity_dev <= max(tol, 1e-9) else "degenerate"
    return {"kind": kind, "rank": rank, "dim": size,
            "min_eigenvalue": float(eigenvalues.min(initial=0.0))}


def _summarize_lambda(matrix, tol: float) -> dict:
    """``_lambda_summary`` of a lambda matrix, dense or sparse, with the
    eigenvalues of its Hermitian part."""
    matrix = _as_dense(matrix)
    return _lambda_summary(
        np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T)),
        float(abs(matrix - np.eye(len(matrix))).max()), len(matrix), tol)


@dataclass
class LambdaReport:
    """The dense lambda matrix of a passing check, its kind (identity or
    degenerate) and rank, and the check it came from."""

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
    a report for exactly this (code, family) pairing; a ValueError refuses
    a report of another pairing, unless its code and family are equal to
    these.  The matrix and its summary are the ones the check computed; the
    summary is taken again only when the check skipped it (families above
    ``LAMBDA_SUMMARY_MAX`` on an engine without a closed form) or ran at
    another tolerance.  `jobs` is ignored, as in `kl_check`; `tol` is
    checked as there.
    """
    _check_tol(tol)
    report = precomputed or kl_check(code, family, tol=tol, jobs=jobs)
    # identity first: a matching report costs no field comparison
    if (report.code is not code and report.code != code
            or report.family is not family and report.family != family):
        raise ValueError(
            f"precomputed report is of code {report.code_label!r} and family "
            f"{report.family_json}, not of an equal code {code.label!r} and "
            f"family {family.to_json()}")
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
