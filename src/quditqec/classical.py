"""Brute-force certification of the classical stream code's correction radius.

The digit-stream encoder doubles each message symbol into two parity
digits; its design radius is one additive error in any four consecutive
output symbols.  The certificate checks that distinct messages stay
distinguishable under every corruption inside the radius: no corrupted
word may be reachable from two different codewords of equal length.
That is exactly what table-lookup decoding needs, and it is the
classical counterpart of the recoverability condition the quantum
verifier checks, so the spin-flip results can be cross-checked against
this module from outside the quantum machinery.

Plain Hamming-nearest decoding is deliberately not the criterion: the
radius is a sliding-window density, not a ball, and at the exact design
density a corrupted word can tie in distance with a far codeword whose
explaining error pattern is way outside the radius.  Such ties are
harmless for windowed decoding and would mask the real property.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .codes import classical_conv_encode
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


def certify_radius(n_levels: int, message_len_max: int, window: int = 4,
                   max_errors: int = 1) -> RadiusReport:
    """Certify unique decodability under windowed additive corruption.

    For every message length up to the cap, every codeword is corrupted
    by every additive pattern with at most ``max_errors`` nonzero offsets
    in any ``window`` consecutive symbols, and every corrupted word must
    be explainable by exactly one (message, corruption) pair among words
    of that length.  The first collision, in message/support/offset
    order, is returned as a counterexample; codewords of different
    lengths are never compared.
    """
    n = n_levels
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
        word_len = 2 * (length + 2)
        supports = list(iter_supports(word_len, window, max_errors))
        seen: dict[tuple[int, ...], tuple] = {}
        for msg in itertools.product(range(n), repeat=length):
            messages_checked += 1
            word = classical_conv_encode(msg, n)
            for support in supports:
                for offsets in itertools.product(range(1, n),
                                                 repeat=len(support)):
                    corruptions_checked += 1
                    corrupted = list(word)
                    for pos, off in zip(support, offsets):
                        corrupted[pos - 1] = (corrupted[pos - 1] + off) % n
                    key = tuple(corrupted)
                    prev = seen.get(key)
                    if prev is None:
                        seen[key] = (msg, support, offsets)
                        continue
                    if prev[0] != msg:
                        ce = RadiusCounterexample(
                            msg, support, offsets,
                            prev[0], prev[1], prev[2], key)
                        return RadiusReport(
                            "fail", n, message_len_max, window, max_errors,
                            messages_checked, corruptions_checked, ce,
                            time.perf_counter() - started)

    return RadiusReport("pass", n, message_len_max, window, max_errors,
                        messages_checked, corruptions_checked, None,
                        time.perf_counter() - started)
