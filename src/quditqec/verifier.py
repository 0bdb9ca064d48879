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
  dual and paste is.  It reads the code's stabilizer S and the family's
  syndrome table from ``stabilizer``: each pattern's syndrome, its
  symplectic products with S, and its full label, its coset of S.  For
  Weyl errors the condition fails exactly when A^dag B commutes with S
  but is not in it (Gottesman 1997; Ketkar, Klappenecker, Kumar and
  Sarvepalli 2006), so the check passes iff no syndrome class holds two
  full labels.  It works on label pairs and logical classes, never on
  pattern pairs: a failing pair's overlaps are those of its logical class
  (the coset of S of A^dag B, a function of its two labels) times one
  phase, so every ket is read for one representative pair per class, and
  one table of deviations, logical blocks by classes, gives the largest
  deviation, the ``fail_fast`` stop and the interior maximum.  Each
  deviation is a magnitude of its class, so equal deviations are
  bit-equal and exact ties go to the earliest entry, as in the exact
  engine.  The scan is fed only the entries that decide it: the witness,
  one interior entry and the first boundary entries, read off each
  label's first members.  Lambda is held as factors, one phase per
  pattern against the earliest member of its coset of S_0, the
  stabilizer of v_0: lambda_ab = conj(phi_a) phi_b |v_0|^2 within a
  coset and 0 across, a direct sum of rank-1 blocks whose eigenvalues are
  the coset sizes times |v_0|^2.  A pass builds lambda in the check, with
  its summary in closed form; a fail builds it when ``KLReport.lam`` is
  first read.  Either way it takes the exact engine's form, dense up to
  ``LAMBDA_SUMMARY_MAX`` patterns and CSR above, so a check on this
  engine never imports scipy below that size.  The syndrome table and
  what the engine reads off it before any tolerance are built once per
  (code, family) and kept with the code's stabilizer, so a repeated check
  walks no pattern objects and lists no label pairs.
* ``exact`` certifies zeros symbolically.  It writes each ket as integer
  numerators on the lattice of order-2N roots of unity, applies the
  patterns there (Weyl and spin flips only move digits and add to
  exponents), forms the same Gram blocks as integer sparse products and
  decides each entry by its canonical residue modulo the cyclotomic
  polynomial.  Inputs that ``PhaseScalar`` carries in floats (phase shifts,
  general matrices, inexact amplitudes, a ket that mixes the parity of
  sqrt(N)) run the sparse Gram as a counted walk, so both float routes
  share one zero rule, and every entry it yields counts.

The sparse Gram and the exact engine apply patterns to kets through the
one kernel of ``errors``, ``_apply_patterns``; the Z_N algebra, the
tableau and the syndrome table live in ``stabilizer``.  This module keeps
the engines, the scan, lambda and the reports.

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

from .codes import CodeSpec
from .cyclotomic import FLOAT_ZERO_TOL, residue_matrix
from .errors import (PatternFamily, _apply_patterns, _check_family_width,
                     _float_matrices, _rank_strings, _ranked_matrices,
                     _string_keys, apply_pattern)
from .stabilizer import (_reduce, _root_exponents, _syndrome_plan,
                         _SyndromeTable, _Tableau, _transfer)
from .states import inner_product

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
    ``syndrome`` sets only the entries that can be nonzero, the pairs of
    one coset of S_0, whose A^dag B maps v_0 onto itself.  Entry (a, b)
    is <v_0| A^dag B |v_0>, on a failure and after a ``fail_fast`` stop
    too.  Every engine but ``syndrome`` builds it in the check, and so
    does ``syndrome`` on a pass; on a fail ``syndrome`` keeps it as one
    factor per pattern and builds it when ``lam`` is first read.  It is
    not part of the JSON report, nor are ``code`` and ``family``, the
    pairing checked, which ``lambda_matrix`` compares.
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
    _lam: object = field(repr=False, compare=False, default=None)
    code: CodeSpec = field(repr=False, compare=False, default=None)
    family: PatternFamily = field(repr=False, compare=False, default=None)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @property
    def lam(self):
        if isinstance(self._lam, _LambdaFactors):
            self._lam, _ = self._lam.build()
        return self._lam

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
    (stacked,) = _float_matrices([(kets, patterns)], code.n_levels)
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


def _runs(order: np.ndarray, keys: np.ndarray, count: int):
    """An order of indices that groups their ``keys``, in range(count),
    with where each key's run starts in it and how long the run is."""
    sizes = np.bincount(keys[order], minlength=count)
    return order, np.cumsum(sizes) - sizes, sizes


def _leading(runs, k: int, pad: int) -> np.ndarray:
    """The first k indices of every key's run in a ``_runs`` order, one row
    per key, padded with ``pad``."""
    order, start, sizes = runs
    at = np.minimum(start[:, None] + np.arange(k), len(order))
    return np.where(np.arange(k) < sizes[:, None],
                    np.append(order, pad)[at], pad)


@dataclass
class _LambdaFactors:
    """Lambda of a Weyl family on a stabilizer code as factors: lambda_ab
    is conj(phi_a) phi_b |v_0|^2 where patterns a and b lie in one coset
    of S_0, the stabilizer of v_0 (S and the logical rows), and 0
    otherwise, phi_a being pattern a's mu at v_0 against the earliest
    member of its coset.  So lambda is a direct sum of rank-1 blocks, one
    per coset, whose eigenvalues are the coset sizes times |v_0|^2."""

    cosets: np.ndarray      # each pattern's coset of S_0, a nonnegative key
    phi: np.ndarray
    norm: float

    def build(self):
        """(lambda as ``_lambda_out`` holds it, the largest entry of
        |lambda - I|), from the entries that can be nonzero, the pairs of
        one coset, taken for all cosets of one size at once."""
        size = len(self.phi)
        dense = size <= LAMBDA_SUMMARY_MAX
        lam = np.zeros((size, size), dtype=complex) if dense else []
        deviation = 0.0
        order, start, sizes = _runs(np.argsort(self.cosets, kind="stable"),
                                    self.cosets, 0)
        for s in np.unique(sizes[sizes > 0]):
            members = order[start[sizes == s, None] + np.arange(s)]
            a, b = members[:, :, None], members[:, None, :]
            values = self.phi[a].conj() * self.phi[b] * self.norm
            deviation = max(deviation, float(np.abs(values - (a == b)).max()))
            if dense:
                lam[a, b] = values
            else:
                lam.append([part.ravel() for part in
                            np.broadcast_arrays(values, a, b)])
        if not dense:
            lam = _lambda_out(*map(np.concatenate, zip(*lam)), size)
        return lam, deviation

    def corner(self, k: int) -> np.ndarray:
        """Lambda's leading k x k block, dense."""
        phi, cosets = self.phi[:k], self.cosets[:k]
        return np.where(cosets[:, None] == cosets,
                        phi.conj()[:, None] * phi * self.norm, 0)

    def summary(self, deviation: float, tol: float) -> dict:
        """``_lambda_summary`` in closed form, given ``build``'s deviation."""
        sizes = np.bincount(self.cosets)
        eigenvalues = np.zeros(len(self.phi))
        eigenvalues[:np.count_nonzero(sizes)] = sizes[sizes > 0] * self.norm
        return _lambda_summary(eigenvalues, deviation, len(self.phi), tol)


def _label_pairs(syndrome: np.ndarray, count: int):
    """Every ordered pair (la, lb) of distinct labels with one syndrome, in
    order, given each label's syndrome in range(count)."""
    order, start, sizes = _runs(np.argsort(syndrome, kind="stable"),
                                syndrome, count)
    runs = sizes[syndrome]
    la = np.repeat(np.arange(len(syndrome)), runs)
    lb = order[np.repeat(start[syndrome] - np.cumsum(runs) + runs, runs)
               + np.arange(runs.sum())]
    distinct = la != lb
    return la[distinct], lb[distinct]


def _class_deviations(targets: np.ndarray, mus: np.ndarray, n: int,
                      norm: float):
    """Blocks (i, j >= i) after the reference, as arrays i and j, and the
    deviation of every entry of each block by logical class, one row per
    block: 0 where the entry is an exact zero."""
    dim = len(targets)
    i, j = np.array(list(_blocks_after_reference(dim)),
                    dtype=np.int64).reshape(-1, 2).T
    fixes = targets == np.arange(dim)[:, None]
    both = fixes & fixes[0]
    k = _root_exponents((mus / mus[0])[both], n)
    chord = np.ones(targets.shape)
    chord[both] = 2 * np.sin(np.pi * np.minimum(k, n - k) / n)
    live = targets[j] == i[:, None]
    live[i == j] |= fixes[0]
    deviation = np.where((i == j)[:, None], chord[i], 1.0) * norm
    return i, j, np.where(live, deviation, 0.0)


@dataclass
class _Classes:
    """What the syndrome engine reads off a syndrome table before any
    tolerance, once per table (``_SyndromeTable.checked``): each member's
    label, labels numbered by their earliest members ``first``, and
    lambda's factors.  A table with failing pairs adds the failing label
    pairs (la, lb), their logical classes ``cls``, each class's earliest
    label pair ``rep`` and its (target, mu) per source ket, the deviation
    table ``mag`` of the blocks (i, j), blocks by classes, and the indexes
    ``inner`` and ``edges`` of ``_entry_index``."""

    label: np.ndarray
    first: np.ndarray
    factors: _LambdaFactors
    pairs: tuple = ()
    targets: np.ndarray | None = None
    mus: np.ndarray | None = None
    blocks: tuple = ()
    mag: np.ndarray | None = None
    inner: tuple = ()
    edges: tuple = ()


def _read_classes(tab: _Tableau, table: _SyndromeTable, n: int) -> _Classes:
    """The ``_Classes`` of a syndrome table; see ``_syndrome_engine``."""
    rows, dim, norm = table.rows, len(tab.kets.amps), tab.kets.norms[0]
    label, labels = _rank_strings(_string_keys(
        _reduce(rows, tab.stabilizer, tab.pivots, n), n))
    # labels numbered by their earliest members: label pairs in order are
    # then in the order of their earliest pattern pairs
    _, first = np.unique(label, return_index=True)
    by_first = np.argsort(first)
    first, label = first[by_first], np.argsort(by_first)[label]
    root = np.arange(labels)
    failing = {}
    if labels > len(table.keys):
        la, lb = _label_pairs(table.classes[first], len(table.keys))
        cls, _ = _rank_strings(_string_keys(_reduce(
            (rows[first[lb]] - rows[first[la]]) % n, tab.stabilizer,
            tab.pivots, n), n))
        _, rep = np.unique(cls, return_index=True)
        targets, mus = map(np.array, _transfer(
            tab, n, rows[first[la[rep]]], rows[first[lb[rep]]], range(dim)))
        # a label pair's patterns share a coset of S_0 where its class
        # maps v_0 onto itself; each coset's root is its earliest label
        fixed = targets[0, cls] == 0
        np.minimum.at(root, la[fixed], lb[fixed])
        i, j, mag = _class_deviations(targets, mus, n, norm)
        failing = dict(pairs=(la, lb, cls, rep), targets=targets, mus=mus,
                       blocks=(i, j), mag=mag, **_entry_index(
                           table.touches, label, first, la, lb, cls))
    _, (phi,) = _transfer(tab, n, rows[first[root[label]]], rows, [0])
    return _Classes(label, first, _LambdaFactors(root[label], phi, norm),
                    **failing)


def _entry_index(touches: np.ndarray, label: np.ndarray, first: np.ndarray,
                 la: np.ndarray, lb: np.ndarray, cls: np.ndarray) -> dict:
    """What ``_deciding_entries`` reads before any tolerance.

    ``inner`` holds each label's earliest member off the boundary (the
    family size where it has none) and each class's earliest label pair
    whose labels both have one (-1 where none).  ``edges`` holds each
    label's first ``BOUNDARY_WITNESS_CAP`` members, then its first
    ``BOUNDARY_WITNESS_CAP`` boundary members, padded with the family size,
    and the label pairs with a boundary pair sorted by class and then by
    their earliest boundary pair, with those keys and where each class's
    run starts and how long it is.  A label pair's earliest boundary pair
    is read off its labels' earliest members and earliest boundary
    members.
    """
    size, labels, cap = len(label), len(first), BOUNDARY_WITNESS_CAP
    classes = int(cls.max()) + 1
    order = np.argsort(label, kind="stable")
    edge = touches[order]
    inner = _leading(_runs(order[~edge], label, labels), 1, size)[:, 0]
    both = np.flatnonzero((inner[la] < size) & (inner[lb] < size))
    held, at = np.unique(cls[both], return_index=True)
    interior = np.full(classes, -1)
    interior[held] = both[at]
    leading = np.hstack([_leading(_runs(order, label, labels), cap, size),
                         _leading(_runs(order[edge], label, labels), cap,
                                  size)])
    earliest = leading[:, cap]
    on = np.flatnonzero((earliest[la] < size) | (earliest[lb] < size))
    a0, b_edge = first[la[on]], earliest[lb[on]] < size
    key = np.where(touches[a0] | b_edge, a0, earliest[la[on]]) * size \
        + np.where(~touches[a0] & b_edge, earliest[lb[on]], first[lb[on]])
    by_class = np.lexsort((key, cls[on]))
    on, key = on[by_class], key[by_class]
    runs = np.bincount(cls[on], minlength=classes)
    return dict(inner=(inner, interior),
                edges=(leading, on, key, np.cumsum(runs) - runs, runs))


def _deciding_entries(mag: np.ndarray, tol: float, touches: np.ndarray,
                      got: _Classes) -> list:
    """(block, a, b, class) of the entries that decide the scan of the
    class deviations ``mag`` (``got.mag`` or its first blocks):

    * the witness, the earliest pair of the earliest class at the first
      largest deviation;
    * one interior entry at the interior maximum, over the classes of a
      label pair whose labels both have a member off the boundary;
    * the first ``BOUNDARY_WITNESS_CAP`` entries above ``tol`` on the
      boundary, in (block, a, b) order.  In a block only the hot label
      pairs with the earliest boundary pairs can hold them, and of their
      pairs only those of the first ``BOUNDARY_WITNESS_CAP`` members and
      boundary members of each label: any other pair is preceded by that
      many boundary pairs of its label pair.
    """
    (la, lb, cls, rep), cap = got.pairs, BOUNDARY_WITNESS_CAP
    peak = mag.max(axis=1)
    block = int(peak.argmax())
    p = rep[mag[block] == peak[block]].min()
    found = [(block, got.first[la[p]], got.first[lb[p]], cls[p])]
    inner, interior = got.inner
    held = np.where(interior >= 0, mag, 0.0)
    block, c = np.unravel_index(held.argmax(), held.shape)
    if held[block, c] > 0:
        q = interior[c]
        found.append((block, inner[la[q]], inner[lb[q]], c))
    leading, on, key, starts, runs = got.edges
    size = len(touches)
    touched = np.append(touches, False)
    hits: list = []
    for block in np.flatnonzero(peak > tol) if on.size else ():
        room = cap - len(hits)
        hot = np.flatnonzero(mag[block] > tol)
        take = np.minimum(runs[hot], room)
        at = np.repeat(starts[hot] - np.cumsum(take) + take, take) \
            + np.arange(take.sum())
        pick = on[at[np.argsort(key[at])[:room]]]
        a, b = leading[la[pick], :, None], leading[lb[pick], None, :]
        ok = (a < size) & (b < size) & (touched[a] | touched[b])
        keys, where = np.unique((a * size + b)[ok], return_index=True)
        classes = np.broadcast_to(cls[pick, None, None], ok.shape)[ok][where]
        hits += [(block, k // size, k % size, c)
                 for k, c in zip(keys[:room], classes[:room])]
        if len(hits) == cap:
            break
    return found + hits


def _syndrome_engine(code: CodeSpec, tab: _Tableau, table: _SyndromeTable,
                     tol: float, fail_fast: bool):
    """Weyl families on stabilizer codes by label classes; see the module
    docstring.

    A pair with different syndromes has A^dag B off the normalizer, so
    every overlap is an exact zero, and a pair of one label (one coset of
    S) has A^dag B in S, so it passes.  The failing pairs are the pairs of
    two labels with one syndrome.  Such a pair's A^dag B is its logical
    class's representative's times a phase and an element of S, and its
    class, the coset of S of row_b - row_a, is its label pair's.  So the
    engine lists label pairs, never pattern pairs, and reads every ket for
    one representative per class, its earliest pair: A^dag B maps v_j onto
    mu times the ket ``targets[j]``.  Each deviation is a magnitude of its
    class (``_class_deviations``), so one table, blocks by classes, gives
    the largest deviation and the ``fail_fast`` stop, after the first
    block holding a deviation above ``tol``.  All of this is read once per
    syndrome table (``_read_classes``).  The scan is fed, block by block
    in (a, b) order, only the entries of ``_deciding_entries``; their
    overlaps are the representative's times kappa, the pair's own mu at
    v_0 over the representative's, from one ``_transfer``.

    Lambda is held as ``_LambdaFactors``.  On a pass it is built here,
    with its summary in closed form; on a fail ``KLReport.lam`` builds it
    when first read.  Returns (scan, failed, lam or its factors, lambda
    summary or None).
    """
    n, rows = code.n_levels, table.rows
    if table.checked is None:
        table.checked = _read_classes(tab, table, n)
    got = table.checked
    scan, failed = _Scan(table.touches, tol, {}), False
    if got.pairs:
        mag = got.mag
        over = np.flatnonzero(mag.max(axis=1) > tol)
        if fail_fast and over.size:
            mag = mag[:over[0] + 1]
        block, a, b, c = np.array(sorted(set(_deciding_entries(
            mag, tol, table.touches, got)))).T
        (target,), (mu,) = _transfer(tab, n, rows[a], rows[b], [0])
        i, j = got.blocks[0][block], got.blocks[1][block]
        observed = np.where(got.targets[j, c] == i,
                            mu / got.mus[0, c] * got.mus[j, c]
                            * tab.kets.norms[i], 0)
        # a diagonal entry expects lambda_ab, mu |v_0|^2 where v_0 is fixed
        scan.lam.update(zip(zip(a.tolist(), b.tolist()), np.where(
            target == 0, mu * got.factors.norm, 0)))
        cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(block)]
        failed = _scan_blocks(scan, (
            (int(i[s]), int(j[s]), a[s:e], b[s:e], mag[block[s:e], c[s:e]],
             observed[s:e]) for s, e in zip(cuts, cuts[1:])), fail_fast)
    if failed:
        return scan, True, got.factors, None
    lam, deviation = got.factors.build()
    return scan, False, lam, got.factors.summary(deviation, tol)


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
    _check_family_width(code.width, family)
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
    corner = lam.corner(k) if isinstance(lam, _LambdaFactors) \
        else _as_dense(lam[:k, :k])
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
        _lam=lam,
        code=code,
        family=family,
    )


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite nonnegative number, "
                         f"not {tol}")


def _as_dense(lam) -> np.ndarray:
    return lam if isinstance(lam, np.ndarray) else lam.toarray()


def _lambda_summary(eigenvalues: np.ndarray, identity_dev: float, size: int,
                    tol: float) -> dict:
    """Kind, rank, size and least eigenvalue of a lambda matrix from its
    eigenvalues and its largest deviation from the identity."""
    scale = max(1.0, float(eigenvalues.max(initial=0.0)))
    rank = int((eigenvalues > max(tol, 1e-9) * scale).sum())
    kind = "identity" if identity_dev <= max(tol, 1e-9) else "degenerate"
    return {"kind": kind, "rank": rank, "dim": size,
            "min_eigenvalue": float(eigenvalues.min())}


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
    # a passing report holds lambda itself, never its factors
    lam = _as_dense(report._lam)
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
