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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
    included, in ``_stabilizer`` (with the channel's per-family frame
    tables on it).  That cache is neither compared nor pickled; a code
    whose kets must change is built anew.
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
        total: RegisterState | None = None
        for window, amp in logical.terms.items():
            piece = self.encoded_kets[window].scaled(amp)
            total = piece if total is None else total + piece
        if total is None:
            raise ValueError("cannot encode the zero state")
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
    if logical_len < 1:
        raise ValueError("logical_len must be positive")
    kets = {}
    for window in _windows(n_levels, logical_len):
        digits = classical_conv_encode(window, n_levels, flush=flush)
        kets[window] = RegisterState.basis(n_levels, digits)
    blocks = logical_len + (2 if flush else 0)
    boundary = truncation_boundary(blocks, 2, 2, 2)
    return CodeSpec("spin_conv", n_levels, 1, 2, 2, 2 if flush else 0,
                    logical_len, kets, boundary,
                    rebuild=lambda N, L, f=True: build_spin_conv(N, L, f))


def build_majority3(n_levels: int, logical_len: int,
                    flush: bool = True) -> CodeSpec:
    """Threefold repetition per logical symbol."""
    kets = {}
    for window in _windows(n_levels, logical_len):
        digits = tuple(d for k in window for d in (k, k, k))
        kets[window] = RegisterState.basis(n_levels, digits)
    return CodeSpec("majority3", n_levels, 1, 3, 0, 0, logical_len, kets,
                    rebuild=lambda N, L, f=True: build_majority3(N, L))


def build_shor9(n_levels: int, logical_len: int, flush: bool = True) -> CodeSpec:
    """Nine registers per symbol: repeated triples with a phase-protected sign.

    Each symbol k encodes as sum_{p,q,r} w_N^(k(p+q+r)) |ppp qqq rrr>,
    normalized.  At N = 2 the phase is the usual (-1)^(k(p+q+r)).
    """
    n = n_levels
    block_kets: dict[int, RegisterState] = {}
    for k in range(n):
        terms: dict[Digits, PhaseScalar] = {}
        for p, q, r in itertools.product(range(n), repeat=3):
            amp = PhaseScalar.monomial(n, 1, 2 * (k * (p + q + r)), 0)
            terms[(p, p, p, q, q, q, r, r, r)] = amp
        block_kets[k] = RegisterState(n, 9, terms).normalized()
    kets = {}
    for window in _windows(n, logical_len):
        state = block_kets[window[0]]
        for k in window[1:]:
            state = state.tensor(block_kets[k])
        kets[window] = state
    return CodeSpec("shor9", n, 1, 9, 0, 0, logical_len, kets,
                    rebuild=lambda N, L, f=True: build_shor9(N, L))


def perfect5_block(n_levels: int) -> CodeSpec:
    """Five-register perfect block code for one logical symbol.

    |k> -> N^(-3/2) sum_{p,q,r} w_N^(k(p+q+r) + p*r) |p, q, p+r, q+r, p+q+k>.
    """
    n = n_levels
    kets = {}
    for k in range(n):
        terms: dict[Digits, PhaseScalar] = {}
        for p, q, r in itertools.product(range(n), repeat=3):
            digits = (p, q, (p + r) % n, (q + r) % n, (p + q + k) % n)
            terms[digits] = PhaseScalar.monomial(n, 1, 2 * (k * (p + q + r) + p * r), 3)
        kets[(k,)] = RegisterState(n, 5, terms)
    return CodeSpec("perfect5_block", n, 1, 5, 0, 0, 1, kets,
                    rebuild=lambda N, L, f=True: _tensor_power_of(perfect5_block, N, L))


def _tensor_power_of(block_builder, n_levels: int, logical_len: int) -> CodeSpec:
    base = block_builder(n_levels)
    kets = {}
    for window in _windows(n_levels, logical_len):
        state = base.encoded_kets[(window[0],)]
        for k in window[1:]:
            state = state.tensor(base.encoded_kets[(k,)])
        kets[window] = state
    return CodeSpec(base.label, n_levels, base.n, base.m, 0, 0,
                    logical_len, kets)


def build_perfect5(n_levels: int, logical_len: int, flush: bool = True) -> CodeSpec:
    """Convolutional extension of the five-register perfect code.

    Block i carries the running sum k_i + k_(i-1); one flush block terminates
    the window, so width is 5*(logical_len + 1).  Built directly from the
    closed form, independent of :func:`build_qcc_from_qbc`.
    """
    n = n_levels
    if logical_len < 1:
        raise ValueError("logical_len must be positive")
    blocks = logical_len + 1 if flush else logical_len
    kets = {}
    for window in _windows(n, logical_len):
        padded = window + (0,) * (blocks - logical_len)
        terms: dict[Digits, PhaseScalar] = {(): PhaseScalar.exact_one(n)}
        for i in range(blocks):
            v = (padded[i] + (padded[i - 1] if i >= 1 else 0)) % n
            new_terms: dict[Digits, PhaseScalar] = {}
            for p, q, r in itertools.product(range(n), repeat=3):
                digits = (p, q, (p + r) % n, (q + r) % n, (p + q + v) % n)
                amp = PhaseScalar.monomial(n, 1, 2 * (v * (p + q + r) + p * r), 3)
                for prefix, old in terms.items():
                    new_terms[prefix + digits] = old * amp
            terms = new_terms
        kets[window] = RegisterState(n, 5 * blocks, terms)
    boundary = truncation_boundary(blocks, 5, 1, 1)
    return CodeSpec("perfect5", n, 1, 5, 1, 1 if flush else 0,
                    logical_len, kets, boundary,
                    rebuild=lambda N, L, f=True: build_perfect5(N, L, f))


def build_rate14_conv(n_levels: int, logical_len: int,
                      flush: bool = True) -> CodeSpec:
    """Rate 1/4 convolutional code built directly from its closed form.

    Summing over stream digits (p_i, q_i), i = 1..L, each block contributes

        phase  w_N^((k_i + k_(i-2)) p_i + (k_i + k_(i-1) + k_(i-2)) q_i)
        digits |p_j + p_(j-1), p_j + p_(j-1) + q_(j-1),
                q_j + q_(j-1),  q_j + q_(j-1) + p_j>

    with one extra digit block j = L + 1 flushing the stream memory, so the
    width is 4*(L + 1).

    The code does not correct one arbitrary error in every eight
    consecutive registers.  At N = 2, Z_(r+8) and Z_r Z_(r+9) for r = 4s + 2
    both have at most one error per eight registers, and their product
    Z_r Z_(r+8) Z_(r+9) acts as an exact logical flip of k_s and k_(s+1)
    (r = 6 at L = 3; r = 10 at L = 5, where every register it touches has
    its untruncated stream form).  A flip
    witness persists up to window 15 (Z_5 Z_20 against Z_8 flips k_1 and
    k_3); the window the infinite stream does correct is still open.
    """
    n = n_levels
    if logical_len < 1:
        raise ValueError("logical_len must be positive")
    L = logical_len
    blocks = L + 1 if flush else L
    kets = {}
    for window in _windows(n, L):
        k = lambda i: window[i - 1] if 1 <= i <= L else 0
        terms: dict[Digits, PhaseScalar] = {}
        for pq in _windows(n, 2 * L):
            p = lambda i: pq[2 * (i - 1)] if 1 <= i <= L else 0
            q = lambda i: pq[2 * (i - 1) + 1] if 1 <= i <= L else 0
            exponent = sum((k(i) + k(i - 2)) * p(i) +
                           (k(i) + k(i - 1) + k(i - 2)) * q(i)
                           for i in range(1, L + 1))
            digits = []
            for j in range(1, blocks + 1):
                digits.extend(((p(j) + p(j - 1)) % n,
                               (p(j) + p(j - 1) + q(j - 1)) % n,
                               (q(j) + q(j - 1)) % n,
                               (q(j) + q(j - 1) + p(j)) % n))
            amp = PhaseScalar.monomial(n, Fraction(1, n ** L), 2 * exponent, 0)
            key = tuple(digits)
            if key in terms:
                terms[key] = terms[key] + amp
            else:
                terms[key] = amp
        kets[window] = RegisterState(n, 4 * blocks, terms)
    # tail depth 3: k_i reaches digit blocks i..i+3 (phase memory 2 plus
    # stream memory 1) but flushing appends only one block, so the last
    # two logical symbols plus the flush block are truncation-affected
    boundary = truncation_boundary(blocks, 4, 1, 3)
    return CodeSpec("rate14_conv", n, 1, 4, 1, 1 if flush else 0,
                    logical_len, kets, boundary,
                    rebuild=lambda N, L_, f=True: build_rate14_conv(N, L_, f))


def build_identity_code(n_levels: int, logical_len: int,
                        flush: bool = True) -> CodeSpec:
    """No encoding at all; useful as a negative control."""
    kets = {w: RegisterState.basis(n_levels, w)
            for w in _windows(n_levels, logical_len)}
    return CodeSpec("identity", n_levels, 1, 1, 0, 0, logical_len, kets,
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
        state: RegisterState | None = None
        for i in range(size):
            v = sum(mu.rows[i][p] * padded[p] for p in range(size)) % n
            block = base.encoded_kets[(v,)]
            state = block if state is None else state.tensor(block)
        kets[window] = state
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
