"""The stabilizer formalism over Z_N: Weyl rows, the Howell form, the
tableau read off a code's kets and the syndrome table of a Weyl family.

A Weyl operator X^x Z^z is held as the row (x | z) over Z_N.  Rows compose
by addition up to a phase, and W(s) W(s') = w^<s, s'> W(s') W(s) with the
symplectic product <s, s'> = z.x' - x.z'.  Weyl rows come from one rule,
``_weyl_rows``: a pattern is a row of picks, 0 at a register it leaves
alone and 1 + the index of its operator in a basis or a menu at a hit
register, and a table of (a mod N, b mod N) per operator, entry 0 the
identity, maps picks to rows.  A family's patterns and the channel's
draw are both such rows of picks.

Spans and kernels over Z_N are read off the Howell form (Howell 1986;
Storjohann and Mulders 1998): echelon rows whose pivots divide N, the
entries above each pivot reduced below it, such that the elements of the
span that vanish on the first c columns are the combinations of the rows
whose pivot lies beyond c.  The span then has prod N / pivot elements, a
row is in it iff it reduces to zero, and at prime N the form is the
reduced row echelon form.  Every span and kernel here is one Howell form.

The tableau is the stabilizer S of a code, read off its kets and checked
on every ket term: the affine support and phase ratios of v_0 give v_0's
stabilizer, and S is the part that acts on every ket with one common
phase (Gottesman 1997; Ketkar, Klappenecker, Kumar and Sarvepalli 2006).
It is read once per code and kept on the code, None included.  A
pattern's syndrome is its symplectic products with S, read as one base-N
integer, and its full label its coset of S.

A Weyl family's patterns in order, their Weyl rows, the syndrome class of
each, the earliest pattern of each syndrome and which patterns touch the
code's truncation boundary form one syndrome table, built once per (code,
family) from one walk over the patterns and their rows of picks, and kept
with the code's stabilizer.  The verifier's syndrome engine and the
channel's syndrome decoder read the same table, so a repeated check walks
no pattern objects, and ``_earliest_members`` is the one lookup of
syndromes in it.  The table holds no set of the patterns: the channel
decides membership on its drawn rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codes import UNREAD, CodeSpec
from .errors import ErrorPattern, PatternFamily, _ket_digits


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
            digits, amps = _ket_digits(code.encoded_kets[w])
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


def _weyl_rows(ops, n: int, picks: np.ndarray) -> np.ndarray | None:
    """The Weyl row (x | z) of each row of picks (0 at a register left
    alone, 1 + the index into ``ops`` of the operator at a hit register),
    read off a table of (a mod N, b mod N) per operator, entry 0 the
    identity; None when a picked operator is not a Weyl operator."""
    weyl = np.array([True] + [op.kind == "weyl" for op in ops])
    if not weyl.all() and not weyl[picks].all():
        return None
    table = np.array([(0, 0)] + [(op.a % n, op.b % n) for op in ops])
    return np.hstack([table[picks, 0], table[picks, 1]])


def _syndromes(tab: _Tableau, rows: np.ndarray, n: int) -> np.ndarray:
    """Each Weyl row's syndrome, its symplectic products with S read as one
    base-N integer (exact: N^r stays below 2^62 wherever a tableau reads,
    r the rows of S)."""
    digits = _mod_matmul(rows, _pairing(tab.stabilizer).T, n)
    return digits @ n ** np.arange(digits.shape[1], dtype=np.int64)


@dataclass
class _SyndromeTable:
    """A Weyl family's patterns in order with their Weyl rows and syndromes
    on one code, and which of them touch the code's boundary, built once
    per (code, family) and kept in the tableau's ``frames``.  It answers
    no membership test; ``PatternFamily.contains`` and the channel's row
    rule do.  ``checked`` is the verifier's: what its syndrome engine reads
    off the table before any tolerance, kept on first use."""

    patterns: list[ErrorPattern]
    rows: np.ndarray        # member p as the Weyl row (x | z)
    keys: np.ndarray        # every syndrome the family reaches, sorted
    earliest: np.ndarray    # the first member with each key
    classes: np.ndarray     # each member's index into ``keys``
    touches: np.ndarray     # which members act on a boundary register
    checked: object = None


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
        # one walk gives each pattern its row of picks; a pattern holds the
        # very basis entries it was built from, so they are keyed by id
        pick = {id(op): k for k, op in enumerate(family.basis, 1)}
        patterns = list(family)
        picks = np.zeros((len(patterns), code.width),
                         dtype=np.min_scalar_type(len(family.basis)))
        for p, pattern in enumerate(patterns):
            for pos, op in pattern.ops:
                picks[p, pos - 1] = pick[id(op)]
        rows = _weyl_rows(family.basis, code.n_levels, picks)
        keys, earliest, classes = np.unique(
            _syndromes(tab, rows, code.n_levels), return_index=True,
            return_inverse=True)
        tab.frames[family] = _SyndromeTable(
            patterns, rows, keys, earliest, classes,
            picks[:, [pos - 1 for pos in code.boundary_registers]].any(axis=1))
    return tab, tab.frames[family]


def _earliest_members(tab: _Tableau, table: _SyndromeTable,
                      rows: np.ndarray, n: int) -> np.ndarray:
    """The earliest member of the table's family with each Weyl row's
    syndrome, -1 where no member has it."""
    keys = _syndromes(tab, rows, n)
    where = np.minimum(table.keys.searchsorted(keys), table.keys.size - 1)
    return np.where(table.keys[where] == keys, table.earliest[where], -1)


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
    place = n ** np.arange(tab.characters.shape[1], dtype=np.int64)
    shift = _mod_matmul(rows_b - rows_a, _pairing(tab.logical).T, n)
    (x_a, z_a), (x_b, z_b) = np.hsplit(rows_a, 2), np.hsplit(rows_b, 2)
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
