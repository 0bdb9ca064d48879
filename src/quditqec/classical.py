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

Each length is decided from its C corruptions alone.  The encoder is
Z_N-linear and injective, so (m, c) and (m', c') with m != m' reach one
word iff enc(m - m') = e_c' - e_c: iff the corruptions are distinct and
lie in one coset of the code.  Each corruption gets a coset residue,
itself minus the codeword that agrees with it on the first L even
symbols, read off the recurrence without division, so composite N
works; one sort of the C residues finds the classes of two or more.  A
length without one passes having built no codeword.

Only a length that has such a class is searched pair by pair, and only
over the corruptions in those classes, in their original order: every
repeated word, its first pair and their relative order survive that
cut.  With M = N^L messages, the pair (m, c) sits at flat index
t = m*C + c, its place in the order above.  All M codewords come from
the encoder's recurrence at once; each kept pair gets one exact integer
key for its corrupted word, computed from the codeword's key and the at
most ``max_errors``-per-window symbols the corruption touches.  A stable
sort groups equal keys with t ascending, so the smallest t that is not
first in its group is the counterexample and its group's first t the
rival.  A passing length holds a few words per corruption; a failing
one a few words per (message, kept corruption) pair: M*C' keys (one
int64 each while N^(2(L+2)) <= 2^62, a few beyond), their sort order,
and one gather of small digits per support slot.

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


def _encode(n: int, messages: np.ndarray) -> np.ndarray:
    """The flushed codeword of every row of an (M, L) message array by the
    encoder's recurrence: (M, 2(L+2)), symbols 2i and 2i+1 being
    a_i + a_(i-2) and a_i + a_(i-1) + a_(i-2) mod N."""
    count, length = messages.shape
    # two zero symbols before the message and the two flush symbols after it
    a = np.zeros((count, length + 4), dtype=np.int64)
    a[:, 2:length + 2] = messages
    words = np.empty((count, 2 * (length + 2)), dtype=np.int64)
    words[:, 0::2] = (a[:, 2:] + a[:, :-2]) % n
    words[:, 1::2] = (a[:, 2:] + a[:, 1:-1] + a[:, :-2]) % n
    return words


def _codewords(n: int, length: int) -> np.ndarray:
    """The flushed codeword of every message of ``length`` symbols, in
    product order: (N^length, 2(length+2))."""
    return _encode(n, np.indices((n,) * length).reshape(length, -1).T)


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


def _coset_mates(n: int, length: int, positions: np.ndarray,
                 offsets: np.ndarray) -> np.ndarray:
    """The corruptions, ascending, that share their coset of the code with
    another corruption of a ``length``-symbol message; empty when none do.

    A corruption e's residue is e - enc(d), where d is the message whose
    codeword agrees with e on the first ``length`` even symbols,
    d_i = e_(2i) - d_(i-2) mod N, so two residues are equal exactly when
    the two corruptions differ by a codeword.
    """
    count = len(positions)
    errors = np.zeros((count, 2 * (length + 2)), dtype=np.int64)
    rows = np.arange(count)
    # a slot past a support adds offset 0 at position 0
    for s in range(positions.shape[1]):
        errors[rows, positions[:, s]] += offsets[:, s]
    d = np.zeros((count, length + 2), dtype=np.int64)
    for i in range(length):
        d[:, i + 2] = (errors[:, 2 * i] - d[:, i]) % n
    residues = (errors - _encode(n, d[:, 2:])) % n
    order = np.lexsort(residues.T)
    ranked = residues[order]
    mate = (ranked[1:] == ranked[:-1]).all(axis=1)
    shared = np.zeros(count, dtype=bool)
    shared[order[1:][mate]] = True
    shared[order[:-1][mate]] = True
    return np.flatnonzero(shared)


def _first_collision(n: int, length: int, positions: np.ndarray,
                     offsets: np.ndarray) -> tuple[int, int] | None:
    """``_first_repeat`` of one length's full (message, corruption) key
    table, at its columns m*C + c: None, with no codeword built, when no
    two corruptions share a coset; otherwise found among the pairs whose
    corruption has a coset mate, which hold every repeated word's pairs
    in their original order.
    """
    mates = _coset_mates(n, length, positions, offsets)
    if not len(mates):
        return None
    later, first = _first_repeat(_keys(n, _codewords(n, length),
                                       positions[mates], offsets[mates]))

    def column(t):
        m, c = divmod(t, len(mates))
        return m * len(positions) + int(mates[c])

    return column(later), column(first)


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

    Each length sorts the coset residues of its C corruptions, so a
    passing length costs O(C) memory whatever N^length is.  Only a
    failing length builds its M = N^length codewords and M*C' exact keys,
    C' being the corruptions that share a coset with another, with one
    stable sort of them and one M*C' gather per support slot.
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
        supports, owner, positions, offsets = _corruptions(
            n, 2 * (length + 2), window, max_errors)
        repeat = _first_collision(n, length, positions, offsets)
        if repeat is None:
            messages_checked += n ** length
            corruptions_checked += n ** length * len(owner)
            continue
        later, first = repeat
        messages_checked += later // len(owner) + 1
        corruptions_checked += later + 1

        def pair(t):
            m, c = divmod(t, len(owner))
            support = supports[owner[c]]
            message = np.unravel_index(m, (n,) * length)
            return (tuple(int(a) for a in message), support,
                    tuple(int(o) for o in offsets[c, :len(support)]))

        msg, support, values = pair(later)
        rival = pair(first)
        word = [int(x) for x in _encode(n, np.array([msg]))[0]]
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
