"""Reference computations for the benchmark's output checks.

Nothing here calls into the package's kernels.  States arrive as plain
``{digits: complex}`` maps and patterns as ``(position, a, b)`` triples of
Weyl operators X^a Z^b (Z first, X^a Z^b |j> = w^(b j) |j + a>), and every
answer is recomputed with numpy arrays or plain integers:

* a dense state-vector evaluator of <i| A^dagger B |j>, applying Weyl
  operators as a phase then a roll along one axis of an ``(N,)*width`` array;
* a counter of window-constrained supports, for family sizes;
* an integer collision test for additive-flip families on classical
  codewords;
* the rate-1/2 stream encoder (a_i + a_(i-2), a_i + a_(i-1) + a_(i-2)).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


# -- dense state-vector evaluator ---------------------------------------------

def dense_ket(terms: dict, n_levels: int, width: int) -> np.ndarray:
    """``{digits: amplitude}`` as an ``(N,)*width`` complex array."""
    out = np.zeros((n_levels,) * width, dtype=np.complex128)
    for digits, amp in terms.items():
        out[tuple(digits)] += amp
    return out


def apply_weyl(array: np.ndarray, ops, n_levels: int,
               batch_axes: int = 0) -> np.ndarray:
    """Apply X^a Z^b at each 1-based register position of ``ops``.

    The leading ``batch_axes`` axes are not registers (a stack of kets).
    """
    out = array
    for pos, a, b in ops:
        axis = batch_axes + pos - 1
        if b % n_levels:
            shape = [1] * out.ndim
            shape[axis] = n_levels
            phase = np.exp(2j * np.pi * (b % n_levels)
                           * np.arange(n_levels) / n_levels)
            out = out * phase.reshape(shape)
        if a % n_levels:
            out = np.roll(out, a % n_levels, axis=axis)
    return out


def overlap_matrix(kets: np.ndarray, ops_a, ops_b, n_levels: int) -> np.ndarray:
    """G[i, j] = <i| A^dagger B |j> for a stack of kets ``(d,) + (N,)*width``."""
    d = kets.shape[0]
    left = apply_weyl(kets, ops_a, n_levels, batch_axes=1).reshape(d, -1)
    right = apply_weyl(kets, ops_b, n_levels, batch_axes=1).reshape(d, -1)
    return left.conj() @ right.T


def kl_deviation(gram: np.ndarray) -> float:
    """Largest departure of one overlap block from lambda * identity.

    lambda is read at the first logical word, as the package defines it.
    """
    d = gram.shape[0]
    return float(np.abs(gram - gram[0, 0] * np.eye(d)).max())


def witness_deviation(kets: np.ndarray, ops_a, ops_b, i: int, j: int,
                      n_levels: int) -> float:
    """|<i|A^dag B|j>| off the diagonal, |<i|A^dag B|i> - <0|A^dag B|0>| on it."""
    gram = overlap_matrix(kets, ops_a, ops_b, n_levels)
    if i != j:
        return float(abs(gram[i, j]))
    return float(abs(gram[i, i] - gram[0, 0]))


# -- window-constrained supports ------------------------------------------------

def in_window(support, window: int, max_errors: int) -> bool:
    """At most ``max_errors`` positions of ``support`` in any run of
    ``window`` consecutive registers."""
    support = sorted(support)
    for start in support:
        inside = sum(1 for pos in support if start <= pos < start + window)
        if inside > max_errors:
            return False
    return True


@lru_cache(maxsize=None)
def count_family(width: int, window: int, max_errors: int,
                 ops_per_site: int) -> int:
    """Number of patterns: sum over allowed supports of ops_per_site^|support|.

    Dynamic programming over the occupancy of the last ``window - 1``
    registers, so no support is ever listed.
    """
    tail = window - 1
    mask = (1 << tail) - 1 if tail else 0
    states = {0: 1}
    for _ in range(width):
        nxt: dict[int, int] = {}
        for bits, ways in states.items():
            # leave this register clean
            key = (bits << 1) & mask
            nxt[key] = nxt.get(key, 0) + ways
            # hit it, if the window ending here stays within the limit
            if bin(bits).count("1") + 1 <= max_errors:
                key = ((bits << 1) | 1) & mask
                nxt[key] = nxt.get(key, 0) + ways * ops_per_site
        states = nxt
    return sum(states.values())


# -- classical words ----------------------------------------------------------

def stream_encode(message, n_levels: int, flush: bool = True) -> tuple[int, ...]:
    """(b_i, c_i) = (a_i + a_(i-2), a_i + a_(i-1) + a_(i-2)) mod N, interleaved."""
    a = list(message) + ([0, 0] if flush else [])
    out = []
    for i in range(len(a)):
        a1 = a[i - 1] if i >= 1 else 0
        a2 = a[i - 2] if i >= 2 else 0
        out += [(a[i] + a2) % n_levels, (a[i] + a1 + a2) % n_levels]
    return tuple(out)


def repeat_encode(message, copies: int = 3) -> tuple[int, ...]:
    return tuple(k for k in message for _ in range(copies))


def codewords(label: str, n_levels: int, logical_len: int) -> dict:
    """Message -> codeword for the classical builtins."""
    encode = stream_encode if label == "spin_conv" else \
        (lambda msg, _n: repeat_encode(msg))
    return {msg: encode(msg, n_levels)
            for msg in itertools.product(range(n_levels), repeat=logical_len)}


def supports(width: int, window: int, max_errors: int):
    """Every allowed support, by brute force over subsets (small widths)."""
    for size in range(0, width + 1):
        for combo in itertools.combinations(range(1, width + 1), size):
            if in_window(combo, window, max_errors):
                yield combo


def flip_collision(words: dict, n_levels: int, window: int,
                   max_errors: int) -> bool:
    """True when two different messages reach one word under additive flips.

    Every codeword is corrupted by every windowed offset pattern, and the
    corrupted words are compared as base-N integers.
    """
    width = len(next(iter(words.values())))
    owner: dict[int, tuple] = {}
    for support in supports(width, window, max_errors):
        for offsets in itertools.product(range(1, n_levels),
                                         repeat=len(support)):
            for msg, word in words.items():
                corrupted = list(word)
                for pos, off in zip(support, offsets):
                    corrupted[pos - 1] = (corrupted[pos - 1] + off) % n_levels
                key = 0
                for digit in corrupted:
                    key = key * n_levels + digit
                prev = owner.setdefault(key, msg)
                if prev != msg:
                    return True
    return False


def radius_corruptions(n_levels: int, message_len_max: int, window: int,
                       max_errors: int) -> tuple[int, int]:
    """(messages, corruptions) an exhaustive radius certificate must visit."""
    messages = corruptions = 0
    for length in range(1, message_len_max + 1):
        per_word = count_family(2 * (length + 2), window, max_errors,
                                n_levels - 1)
        messages += n_levels ** length
        corruptions += n_levels ** length * per_word
    return messages, corruptions


def dual_amplitudes(word, n_levels: int) -> np.ndarray:
    """Fourier transform of one basis ket: w^(word . t) / sqrt(N^width)."""
    width = len(word)
    grids = np.indices((n_levels,) * width)
    exponent = sum(int(c) * grids[k] for k, c in enumerate(word)) % n_levels
    return np.exp(2j * np.pi * exponent / n_levels) / np.sqrt(n_levels ** width)
