"""Exhaustive certification of the classical stream code's correction radius.

The digit-stream encoder doubles each message symbol into two parity
digits; its design radius is one additive error in any four consecutive
output symbols.  The certificate checks that distinct messages stay
distinguishable under every corruption inside the radius: no corrupted
word may be reachable from two different codewords of equal length.
That is exactly what table-lookup decoding needs, and it is the
classical counterpart of the recoverability condition the quantum
verifier checks, so the spin-flip results can be cross-checked against
this module from outside the quantum machinery.

The search visits every (message, corruption) pair of a message length
L in one order: messages in ``itertools.product(range(N), repeat=L)``
order; for each message, supports in ``iter_supports`` order; for each
support, offsets in ``itertools.product(range(1, N), ...)`` order.  The
first pair whose corrupted word an earlier pair of another message
already reached is the counterexample, and that earlier pair, the
word's first occurrence, is its rival.  Two corruptions of one codeword
never give one word, so every repeated word is such a collision.
Codewords of different lengths are never compared.

Each length is one array pass.  With M = N^L messages and C
corruptions, the pair (m, c) sits at flat index t = m*C + c, which is
its place in that order.  All M codewords come from the encoder's
recurrence at once; each pair gets one exact integer key for its
corrupted word, computed from the codeword's key and the at most
``max_errors``-per-window symbols the corruption touches.  A stable sort
groups equal keys with t ascending, so the smallest t that is not first
in its group is the counterexample and its group's first t the rival.
The working set is a few machine words per pair: M*C keys (one int64
each while N^(2(L+2)) <= 2^62, a few beyond), the M*C sort order, and
one M*C gather of small digits per support slot.

Plain Hamming-nearest decoding is deliberately not the criterion: the
radius is a sliding-window density, not a ball, and at the exact design
density a corrupted word can tie in distance with a far codeword whose
explaining error pattern is way outside the radius.  Such ties are
harmless for windowed decoding and would mask the real property.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .errors import iter_supports


@dataclass(frozen=True)
class RadiusCounterexample:
    """One corrupted word reachable from two different messages."""

    message: tuple[int, ...]
    positions: tuple[int, ...]
    values: tuple[int, ...]
    rival_message: tuple[int, ...]
    rival_positions: tuple[int, ...]
    rival_values: tuple[int, ...]
    word: tuple[int, ...]

    def to_json(self) -> dict:
        return {"message": list(self.message),
                "corruption": {"positions": list(self.positions),
                               "values": list(self.values)},
                "rival_message": list(self.rival_message),
                "rival_corruption": {"positions": list(self.rival_positions),
                                     "values": list(self.rival_values)},
                "corrupted_word": list(self.word)}


@dataclass
class RadiusReport:
    """Outcome of ``certify_radius``: the verdict, what was checked and
    the first counterexample, if any."""

    verdict: str
    n_levels: int
    message_len_max: int
    window: int
    max_errors: int
    messages_checked: int
    corruptions_checked: int
    counterexample: RadiusCounterexample | None
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {"verdict": self.verdict,
                "n_levels": self.n_levels,
                "message_len_max": self.message_len_max,
                "window": self.window,
                "max_errors": self.max_errors,
                "messages_checked": self.messages_checked,
                "corruptions_checked": self.corruptions_checked,
                "counterexample": None if self.counterexample is None
                else self.counterexample.to_json(),
                "elapsed_seconds": self.elapsed_seconds}


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    return int(value)


def _codewords(n: int, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Every message of ``length`` symbols in product order, and its flushed
    codeword from the encoder's recurrence: (M, length) and (M, 2(length+2))."""
    messages = np.indices((n,) * length).reshape(length, -1).T
    # two zero symbols before the message and the two flush symbols after it
    a = np.zeros((len(messages), length + 4), dtype=np.int64)
    a[:, 2:length + 2] = messages
    words = np.empty((len(messages), 2 * (length + 2)), dtype=np.int64)
    words[:, 0::2] = (a[:, 2:] + a[:, :-2]) % n
    words[:, 1::2] = (a[:, 2:] + a[:, 1:-1] + a[:, :-2]) % n
    return messages, words


def _corruptions(n: int, word_len: int, window: int, max_errors: int):
    """Every corruption in support/offset order, as padded slot arrays.

    Returns the supports, each corruption's support index, and (C, k)
    arrays of 0-based positions and offsets, where k is the largest
    support; a slot past a corruption's support holds position 0 and
    offset 0.
    """
    supports = list(iter_supports(word_len, window, max_errors))
    sizes = np.array([len(s) for s in supports], dtype=np.int64)
    slots = int(sizes.max())
    padded = np.array([[p - 1 for p in s] + [0] * (slots - len(s))
                       for s in supports], dtype=np.int64)
    counts = [(n - 1) ** len(s) for s in supports]
    if sum(counts) >= 2 ** 63:
        # an int64 count would wrap and index the wrong corruptions
        raise MemoryError(f"{sum(counts)} corruptions per message "
                          "do not fit in memory")
    counts = np.array(counts, dtype=np.int64)
    owner = np.repeat(np.arange(len(supports)), counts)
    # the rank of a corruption among its support's offset tuples, read
    # as base-(N-1) digits, most significant first
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts,
                                             counts)
    size = sizes[owner][:, None]
    slot = np.arange(slots)
    live = slot < size
    scale = (n - 1) ** np.where(live, size - 1 - slot, 0)
    offsets = np.where(live, rank[:, None] // scale % (n - 1) + 1, 0)
    return supports, owner, padded[owner], offsets


def _keys(n: int, words: np.ndarray, positions: np.ndarray,
          offsets: np.ndarray) -> np.ndarray:
    """One exact key per (message m, corruption c) at column m*C + c.

    A key is the corrupted word read as base-N digits, split into int64
    rows of ``digits`` symbols each with N^digits <= 2^62, so that a
    row and the sum of two never wrap.  A row starts as the codeword's
    value plus the corruption's offsets at their weights; each support
    slot then takes N units of its symbol's weight off every key whose
    symbol plus offset reached N.
    """
    n_words, word_len = words.shape
    digits = 1
    while digits < word_len and n ** (digits + 1) <= 2 ** 62:
        digits += 1
    symbol = np.arange(word_len)
    row_of = symbol // digits
    weight = np.array([n ** (digits - 1 - p % digits) for p in symbol],
                      dtype=np.int64)
    keys = np.empty((int(row_of[-1]) + 1, n_words, len(positions)),
                    dtype=np.int64)
    for r in range(len(keys)):
        mine = row_of == r
        own = words[:, mine] @ weight[mine]
        shift = np.where(row_of[positions] == r, offsets * weight[positions],
                         0).sum(axis=1)
        np.add(own[:, None], shift, out=keys[r])
    small = words.astype(np.min_scalar_type(n - 1))
    for s in range(positions.shape[1]):
        p = positions[:, s]
        wrapped = small[:, p] >= n - offsets[:, s]
        for r in range(len(keys)):
            carry = np.where(row_of[p] == r, n * weight[p], 0)
            np.subtract(keys[r], carry, out=keys[r], where=wrapped)
    return keys.reshape(len(keys), -1)


def _first_repeat(keys: np.ndarray) -> tuple[int, int] | None:
    """The lowest column whose key occurred in an earlier column, and the
    first column holding that key; None when every key is distinct."""
    order = np.lexsort(keys)
    ranked = keys[:, order]
    repeat = (ranked[:, 1:] == ranked[:, :-1]).all(axis=0)
    if not repeat.any():
        return None
    later = int(order[1:][repeat].min())
    first = np.flatnonzero((keys == keys[:, later:later + 1]).all(axis=0))
    return later, int(first[0])


def certify_radius(n_levels: int, message_len_max: int, window: int = 4,
                   max_errors: int = 1) -> RadiusReport:
    """Certify unique decodability under windowed additive corruption.

    For every message length up to the cap, every codeword is corrupted
    by every additive pattern with at most ``max_errors`` nonzero offsets
    in any ``window`` consecutive symbols, and every corrupted word must
    be explainable by exactly one (message, corruption) pair among words
    of that length.  The first collision in message/support/offset
    order is returned as a counterexample, with the word's first
    (message, corruption) pair as the rival, and the two counts stop at
    that collision, as a loop in that order would stop.

    Each length is one array pass over its M = N^length messages and C
    corruptions: M*C exact keys, one stable sort of them, and one M*C
    gather per slot of the largest support, so memory grows as M*C.
    Every argument must be an integer (not a bool).
    """
    n = _integer("n_levels", n_levels)
    message_len_max = _integer("message_len_max", message_len_max)
    window = _integer("window", window)
    max_errors = _integer("max_errors", max_errors)
    if n < 2:
        raise ValueError("n_levels must be at least 2")
    if not 1 <= message_len_max <= 8:
        raise ValueError("message_len_max must lie in 1..8 "
                         "(exhaustive search regime)")
    # the messages of PatternFamily; a word has no fixed width here
    if window < 1:
        raise ValueError("window must satisfy 1 <= window")
    if max_errors < 0:
        raise ValueError("max_errors must be nonnegative")
    started = time.perf_counter()
    messages_checked = 0
    corruptions_checked = 0

    for length in range(1, message_len_max + 1):
        messages, words = _codewords(n, length)
        supports, owner, positions, offsets = _corruptions(
            n, 2 * (length + 2), window, max_errors)
        repeat = _first_repeat(_keys(n, words, positions, offsets))
        if repeat is None:
            messages_checked += len(messages)
            corruptions_checked += len(messages) * len(owner)
            continue
        later, first = repeat
        messages_checked += later // len(owner) + 1
        corruptions_checked += later + 1

        def pair(t):
            m, c = divmod(t, len(owner))
            support = supports[owner[c]]
            return (tuple(int(a) for a in messages[m]), support,
                    tuple(int(o) for o in offsets[c, :len(support)]))

        msg, support, values = pair(later)
        rival = pair(first)
        word = [int(x) for x in words[later // len(owner)]]
        for pos, off in zip(support, values):
            word[pos - 1] = (word[pos - 1] + off) % n
        ce = RadiusCounterexample(msg, support, values, *rival, tuple(word))
        return RadiusReport(
            "fail", n, message_len_max, window, max_errors,
            messages_checked, corruptions_checked, ce,
            time.perf_counter() - started)

    return RadiusReport("pass", n, message_len_max, window, max_errors,
                        messages_checked, corruptions_checked, None,
                        time.perf_counter() - started)
