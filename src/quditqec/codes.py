"""Builders for block and convolutional codes over N-level registers.

A ``CodeSpec`` holds the encoded kets of a finite logical window.
Convolutional codes encode a window of L logical symbols by appending
zero symbols ("flushing") so the tail of the stream is terminated cleanly.
Truncation thins the digit structure at both ends of the row: the first
``memory`` blocks reference symbols pinned to zero before the window, and
the flush blocks reference symbols pinned to zero after it.  Those edge
registers are recorded as the boundary region so verification reports can
count violations near the ends separately; the split is bookkeeping, and a
violation on the boundary need not be a truncation artifact.

Builtin labels:

* ``majority3``    repetition |k> -> |k,k,k> per logical symbol
* ``shor9``        nine registers per symbol, phase-protected repetition
* ``spin_conv``    rate 1/2 convolutional code on digit streams
* ``rate14_conv``  rate 1/4 convolutional code, the Theorem-2 pipeline of
                   ``spin_conv``; it does not correct one error per eight
                   registers (see :func:`build_rate14_conv`)
* ``perfect5``     rate 1/5 convolutional code built from the five-register
                   perfect block code with a running two-symbol logical sum

The superposed kets (``shor9``, ``rate14_conv``, ``perfect5``) are built
from their closed forms in one array pass: a sum over digits x in product
order of an affine digit map of x, with a phase exponent linear in the
logical window (``perfect5`` adds a term quadratic in x).  Each ket keeps
the order of x, stated per builder, and its terms share N scalars.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from math import gcd
from typing import Callable, Iterator, Sequence

import numpy as np

from .cyclotomic import PhaseScalar
from .states import Digits, RegisterState

BUILTIN_LABELS = ("majority3", "shor9", "spin_conv", "rate14_conv", "perfect5")

# marks a CodeSpec whose stabilizer has not been read yet
UNREAD = object()


@dataclass
class CodeSpec:
    """Encoded kets of one logical window, plus block-structure bookkeeping.

    ``n``/``m`` are logical/physical registers per block, ``memory`` is how
    many previous logical symbols the encoder references, ``flush_depth``
    how many zero symbols are appended to terminate the window.

    The encoded kets are treated as immutable once built: the verifier
    reads the code's stabilizer off them once and keeps the result, None
    included, in ``_stabilizer`` (with the syndrome table of each Weyl
    family checked or run on it).  That cache is neither compared nor
    pickled; a code whose kets must change is built anew.
    """

    label: str
    n_levels: int
    n: int
    m: int
    memory: int
    flush_depth: int
    logical_len: int
    encoded_kets: dict[Digits, RegisterState]
    boundary_registers: frozenset[int] = frozenset()
    rebuild: Callable[[int, int, bool], "CodeSpec"] | None = \
        field(default=None, repr=False, compare=False)
    _stabilizer: object = field(default=UNREAD, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        widths = {state.width for state in self.encoded_kets.values()}
        if len(widths) != 1:
            raise ValueError("encoded kets must share a single width")
        levels = {state.n_levels for state in self.encoded_kets.values()}
        if levels != {self.n_levels}:
            raise ValueError(
                f"encoded kets have n_levels {sorted(levels)}, not the "
                f"code's {self.n_levels}")
        expected = self.n * self.logical_len
        for k in self.encoded_kets:
            if len(k) != expected:
                raise ValueError(
                    f"logical window {k} does not have {expected} registers")

    def __getstate__(self):
        # rebuild hooks are closures and cannot cross process boundaries;
        # the stabilizer is read again where it is needed
        state = self.__dict__.copy()
        state["rebuild"] = None
        state.pop("_stabilizer", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state, _stabilizer=UNREAD)

    @property
    def width(self) -> int:
        return next(iter(self.encoded_kets.values())).width

    @property
    def logical_width(self) -> int:
        return self.n * self.logical_len

    @property
    def logical_dim(self) -> int:
        return len(self.encoded_kets)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.n, self.m)

    @property
    def is_classical(self) -> bool:
        """True when every encoded ket is a single computational basis ket."""
        return all(len(state) == 1 for state in self.encoded_kets.values())

    def logical_windows(self) -> list[Digits]:
        return sorted(self.encoded_kets)

    def encode(self, logical: RegisterState) -> RegisterState:
        """Linear extension of the ket map to arbitrary logical states."""
        if logical.n_levels != self.n_levels:
            raise ValueError("logical state has the wrong n_levels")
        if logical.width != self.logical_width:
            raise ValueError(
                f"logical state must have width {self.logical_width}")
        if not logical.terms:
            raise ValueError("cannot encode the zero state")
        # summed into one dict and pruned once
        terms: dict = {}
        for window, amp in logical.terms.items():
            for digits, a in self.encoded_kets[window].terms.items():
                piece = a * amp
                terms[digits] = terms[digits] + piece if digits in terms \
                    else piece
        total = RegisterState._raw(self.n_levels, self.width, terms)
        total._prune()
        return total

    def to_manifest(self) -> dict:
        return {"label": self.label, "N": self.n_levels, "n": self.n,
                "m": self.m, "memory": self.memory, "flush": self.flush_depth,
                "logical_length": self.logical_len, "width": self.width}

    def kets_json(self) -> list[dict]:
        out = []
        for window in self.logical_windows():
            state = self.encoded_kets[window]
            terms = [{"ket": list(k), "amp": [z.real, z.imag]}
                     for k, z in sorted(state.to_complex_terms().items())]
            out.append({"logical": list(window), "terms": terms})
        return out


@dataclass(frozen=True)
class MuMatrix:
    """Square integer matrix mixing logical symbols across blocks."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size = len(self.rows)
        rows = tuple(tuple(int(x) for x in row) for row in self.rows)
        if any(len(row) != size for row in rows):
            raise ValueError("mu matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    def det(self) -> int:
        """Exact integer determinant via rational Gaussian elimination."""
        size = self.size
        mat = [[Fraction(x) for x in row] for row in self.rows]
        sign = 1
        prod = Fraction(1)
        for col in range(size):
            pivot = next((r for r in range(col, size) if mat[r][col]), None)
            if pivot is None:
                return 0
            if pivot != col:
                mat[col], mat[pivot] = mat[pivot], mat[col]
                sign = -sign
            prod *= mat[col][col]
            for r in range(col + 1, size):
                factor = mat[r][col] / mat[col][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
        value = sign * prod
        assert value.denominator == 1
        return int(value)

    def invertible_mod(self, n_levels: int) -> bool:
        """True when the determinant is coprime to n_levels."""
        return gcd(self.det() % n_levels, n_levels) == 1


def lower_bidiagonal_mu(size: int) -> MuMatrix:
    """mu[i][p] = 1 when p is i or i-1, else 0."""
    rows = tuple(tuple(1 if p in (i, i - 1) else 0 for p in range(size))
                 for i in range(size))
    return MuMatrix(rows)


def classical_conv_encode(message: Sequence[int], n_levels: int,
                          flush: bool = True) -> tuple[int, ...]:
    """Interleaved digit-stream code (b_i, c_i) = (a_i + a_(i-2), a_i + a_(i-1) + a_(i-2)).

    Symbols before the start of the message are zero; flushing appends two
    zero symbols, so the output has length 2*(len(message) + 2).
    """
    digits = [int(x) for x in message]
    if any(not 0 <= x < n_levels for x in digits):
        raise ValueError("message digits must lie in range(n_levels)")
    if flush:
        digits = digits + [0, 0]
    out = []
    for i, a_i in enumerate(digits):
        a_im1 = digits[i - 1] if i >= 1 else 0
        a_im2 = digits[i - 2] if i >= 2 else 0
        out.append((a_i + a_im2) % n_levels)
        out.append((a_i + a_im1 + a_im2) % n_levels)
    return tuple(out)


def _windows(n_levels: int, count: int) -> Iterator[Digits]:
    return itertools.product(range(n_levels), repeat=count)


def _sizes(n_levels, logical_len) -> tuple[int, int]:
    """N and L of a builder: integers (not bools), N >= 2 and L >= 1."""
    for name, value, least in (("n_levels", n_levels, 2),
                               ("logical_len", logical_len, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < least:
            raise ValueError(f"{name} must be an integer of at least {least}")
    return int(n_levels), int(logical_len)


def _grid(n_levels: int, count: int) -> np.ndarray:
    """Every assignment of ``count`` digits, one row each, in product order."""
    return np.indices((n_levels,) * count).reshape(count, -1).T


def _superposition(n_levels: int, digits: np.ndarray, exponent: np.ndarray,
                   scalars: Sequence[PhaseScalar]) -> RegisterState:
    """sum_x scalars[exponent[x] mod N] |digits[x] mod N>, one row per
    assignment x of the summed digits, terms in row order; the N scalars are
    shared.  Two rows giving one digit string are refused, not summed."""
    keys = map(tuple, (digits % n_levels).tolist())
    terms = dict(zip(keys, map(scalars.__getitem__, (exponent % n_levels).tolist())))
    if len(terms) != len(digits):
        raise ValueError("two assignments give one digit string")
    return RegisterState._raw(n_levels, digits.shape[1], terms)


def truncation_boundary(total_blocks: int, block_width: int,
                        head_blocks: int, tail_blocks: int) -> frozenset[int]:
    """Registers of the edge blocks affected by window truncation.

    The first ``head_blocks`` blocks have digit forms referencing pre-window
    zeros; the last ``tail_blocks`` blocks lie inside the influence window of
    a logical symbol whose trailing output was cut off (or are flush blocks
    referencing post-window zeros).  Tail depth is max(influence depth,
    flush depth) in blocks, where the influence depth counts how many later
    blocks a logical symbol still touches through encoder memory.
    """
    head = min(head_blocks, total_blocks)
    tail = min(tail_blocks, total_blocks)
    regs: set[int] = set(range(1, head * block_width + 1))
    regs.update(range((total_blocks - tail) * block_width + 1,
                      total_blocks * block_width + 1))
    return frozenset(regs)


def build_spin_conv(n_levels: int, logical_len: int,
                    flush: bool = True) -> CodeSpec:
    """Rate 1/2 code mapping each basis ket through the classical stream encoder."""
    n, L = _sizes(n_levels, logical_len)
    kets = {w: RegisterState.basis(n, classical_conv_encode(w, n, flush=flush))
            for w in _windows(n, L)}
    boundary = truncation_boundary(L + (2 if flush else 0), 2, 2, 2)
    return CodeSpec("spin_conv", n, 1, 2, 2, 2 if flush else 0, L, kets, boundary,
                    rebuild=lambda N, L, f=True: build_spin_conv(N, L, f))


def build_majority3(n_levels: int, logical_len: int,
                    flush: bool = True) -> CodeSpec:
    """Threefold repetition per logical symbol."""
    n, L = _sizes(n_levels, logical_len)
    kets = {w: RegisterState.basis(n, (d for k in w for d in (k, k, k)))
            for w in _windows(n, L)}
    return CodeSpec("majority3", n, 1, 3, 0, 0, L, kets,
                    rebuild=lambda N, L, f=True: build_majority3(N, L))


def build_shor9(n_levels: int, logical_len: int, flush: bool = True) -> CodeSpec:
    """Nine registers per symbol: repeated triples with a phase-protected sign.

    Each symbol k encodes as N^(-3/2) sum_{p,q,r} w_N^(k(p+q+r)) |ppp qqq rrr>;
    at N = 2 the phase is the usual (-1)^(k(p+q+r)).  A window's ket sums
    over (p_1, q_1, r_1, ..., p_L, q_L, r_L), the first symbol's slowest.
    """
    n, L = _sizes(n_levels, logical_len)
    x = _grid(n, 3 * L)
    digits = np.repeat(x, 3, axis=1)
    scalars = [PhaseScalar.monomial(n, 1, 2 * s, 3 * L) for s in range(n)]
    kets = {w: _superposition(n, digits, x @ np.repeat(w, 3), scalars)
            for w in _windows(n, L)}
    return CodeSpec("shor9", n, 1, 9, 0, 0, L, kets,
                    rebuild=lambda N, L, f=True: build_shor9(N, L))


def _perfect5_kets(n: int, logical_len: int,
                   blocks: int) -> dict[Digits, RegisterState]:
    """Kets of B perfect blocks, block i encoding v_i = k_i + k_(i-1)."""
    x = _grid(n, 3 * blocks).reshape(-1, blocks, 3)[:, ::-1]
    p, q, r = x[..., 0], x[..., 1], x[..., 2]
    quadratic = (p * r).sum(axis=1)
    k = np.pad(_grid(n, logical_len), ((0, 0), (1, blocks - logical_len)))  # k_0..k_B
    scalars = [PhaseScalar.monomial(n, 1, 2 * s, 3 * blocks) for s in range(n)]
    kets = {}
    for window, v in zip(_windows(n, logical_len), k[:, 1:] + k[:, :-1]):
        digits = np.stack([p, q, p + r, q + r, p + q + v], -1).reshape(len(x), -1)
        kets[window] = _superposition(n, digits, (p + q + r) @ v + quadratic, scalars)
    return kets


def perfect5_block(n_levels: int) -> CodeSpec:
    """Five-register perfect block code for one logical symbol.

    |k> -> N^(-3/2) sum_{p,q,r} w_N^(k(p+q+r) + p*r) |p, q, p+r, q+r, p+q+k>,
    with terms in (p, q, r) product order.
    """
    n, _ = _sizes(n_levels, 1)
    return CodeSpec("perfect5_block", n, 1, 5, 0, 0, 1, _perfect5_kets(n, 1, 1),
                    rebuild=lambda N, L, f=True: _perfect5_blocks(N, L))


def _perfect5_blocks(n_levels: int, logical_len: int) -> CodeSpec:
    """``logical_len`` independent perfect blocks: the qcc of the identity
    mixing, under the block's label."""
    identity = MuMatrix(tuple(tuple(int(p == i) for p in range(logical_len))
                              for i in range(logical_len)))
    code = build_qcc_from_qbc(perfect5_block(n_levels), identity, logical_len)
    return replace(code, label="perfect5_block")


def build_perfect5(n_levels: int, logical_len: int, flush: bool = True) -> CodeSpec:
    """Convolutional extension of the five-register perfect code.

    Block i carries the running sum v_i = k_i + k_(i-1) through the block
    form of :func:`perfect5_block`, summed over every block's (p, q, r) with
    the last block's slowest; one flush block terminates the window, so the
    width is 5*(logical_len + 1).  Independent of :func:`build_qcc_from_qbc`.
    """
    n, L = _sizes(n_levels, logical_len)
    blocks = L + 1 if flush else L
    return CodeSpec("perfect5", n, 1, 5, 1, 1 if flush else 0,
                    L, _perfect5_kets(n, L, blocks),
                    truncation_boundary(blocks, 5, 1, 1),
                    rebuild=lambda N, L, f=True: build_perfect5(N, L, f))


def build_rate14_conv(n_levels: int, logical_len: int,
                      flush: bool = True) -> CodeSpec:
    """Rate 1/4 convolutional code built directly from its closed form.

    Summing N^(-L) over stream digits (p_1, q_1, ..., p_L, q_L) in product
    order, each block contributes

        phase  w_N^((k_i + k_(i-2)) p_i + (k_i + k_(i-1) + k_(i-2)) q_i)
        digits |p_j + p_(j-1), p_j + p_(j-1) + q_(j-1),
                q_j + q_(j-1),  q_j + q_(j-1) + p_j>

    with one extra digit block j = L + 1 flushing the stream memory, so the
    width is 4*(L + 1).  Digits and symbols outside 1..L are zero.

    The code does not correct one arbitrary error in every eight
    consecutive registers.  At N = 2, Z_(r+8) and Z_r Z_(r+9) for r = 4s + 2
    both have at most one error per eight registers, and their product
    Z_r Z_(r+8) Z_(r+9) acts as an exact logical flip of k_s and k_(s+1)
    (r = 6 at L = 3; r = 10 at L = 5, where every register it touches has
    its untruncated stream form).  A flip
    witness persists up to window 15 (Z_5 Z_20 against Z_8 flips k_1 and
    k_3); the window the infinite stream does correct is still open.
    """
    n, L = _sizes(n_levels, logical_len)
    blocks = L + 1 if flush else L
    x = _grid(n, 2 * L)
    # p_0, ..., p_(L+1) and q_0, ..., q_(L+1) of every assignment
    p, q = np.pad(x[:, 0::2], ((0, 0), (1, 1))), np.pad(x[:, 1::2], ((0, 0), (1, 1)))
    pp, qq = p[:, 1:] + p[:, :-1], q[:, 1:] + q[:, :-1]
    digits = np.stack([pp, pp + q[:, :-1], qq, qq + p[:, 1:]], -1)
    digits = digits[:, :blocks].reshape(len(x), -1)
    k = np.pad(_grid(n, L), ((0, 0), (2, 0)))  # k_(-1), k_0, ..., k_L
    exponents = x[:, 0::2] @ (k[:, 2:] + k[:, :-2]).T + \
        x[:, 1::2] @ (k[:, 2:] + k[:, 1:-1] + k[:, :-2]).T
    scalars = [PhaseScalar.monomial(n, Fraction(1, n ** L), 2 * s, 0) for s in range(n)]
    kets = {w: _superposition(n, digits, e, scalars)
            for w, e in zip(_windows(n, L), exponents.T)}
    # tail depth 3: k_i reaches digit blocks i..i+3 (phase memory 2 plus
    # stream memory 1) but flushing appends only one block, so the last
    # two logical symbols plus the flush block are truncation-affected
    boundary = truncation_boundary(blocks, 4, 1, 3)
    return CodeSpec("rate14_conv", n, 1, 4, 1, 1 if flush else 0,
                    L, kets, boundary,
                    rebuild=lambda N, L_, f=True: build_rate14_conv(N, L_, f))


def build_identity_code(n_levels: int, logical_len: int,
                        flush: bool = True) -> CodeSpec:
    """No encoding at all; useful as a negative control."""
    n, L = _sizes(n_levels, logical_len)
    kets = {w: RegisterState.basis(n, w) for w in _windows(n, L)}
    return CodeSpec("identity", n, 1, 1, 0, 0, L, kets,
                    rebuild=lambda N, L, f=True: build_identity_code(N, L))


def build_qcc_from_qbc(base: CodeSpec, mu: MuMatrix,
                       logical_len: int | None = None) -> CodeSpec:
    """Convolutional code from a block code: block i encodes sum_p mu[i][p] k_p.

    ``mu`` must be invertible modulo N (determinant coprime to N), which makes
    the block-wise mixing reversible and the result an isometry.  The logical
    window may be shorter than mu's size; the remaining symbols are pinned to
    zero, which is how flushing is expressed here.
    """
    if base.logical_len != 1 or base.n != 1:
        raise ValueError("base must be a single-block code with n = 1")
    n = base.n_levels
    if not mu.invertible_mod(n):
        raise ValueError(
            f"mu is singular: determinant {mu.det()} shares a factor "
            f"with n_levels {n}")
    size = mu.size
    if logical_len is None:
        logical_len = size
    if not 1 <= logical_len <= size:
        raise ValueError("logical_len must lie in 1..mu.size")
    kets = {}
    for window in _windows(n, logical_len):
        padded = window + (0,) * (size - logical_len)
        blocks = [sum(x * k for x, k in zip(row, padded)) % n for row in mu.rows]
        kets[window] = reduce(RegisterState.tensor,
                              [base.encoded_kets[(v,)] for v in blocks])
    label = f"qcc({base.label})"
    memory = max((i - min(p for p in range(size) if mu.rows[i][p] % n)
                  for i in range(size)
                  if any(x % n for x in mu.rows[i])), default=0)
    flush = size - logical_len
    boundary = truncation_boundary(size, base.m, memory, max(memory, flush))
    return CodeSpec(label, n, base.n, base.m, memory,
                    flush, logical_len, kets, boundary)


_BUILDERS: dict[str, Callable[[int, int, bool], CodeSpec]] = {
    "majority3": build_majority3,
    "shor9": build_shor9,
    "spin_conv": build_spin_conv,
    "rate14_conv": build_rate14_conv,
    "perfect5": build_perfect5,
    "identity": build_identity_code,
}


def builtin(label: str, n_levels: int, logical_len: int = 1,
            flush: bool = True) -> CodeSpec:
    """Construct a builtin code by label; see BUILTIN_LABELS."""
    if label not in _BUILDERS:
        raise ValueError(f"unknown code label {label!r}; "
                         f"known labels: {', '.join(sorted(_BUILDERS))}")
    return _BUILDERS[label](n_levels, logical_len, flush)
