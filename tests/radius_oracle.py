"""Exhaustive dict-lookup route for the classical radius certificate.

The loop below walks every (message, support, offsets) triple in
message/support/offset order, builds each corrupted word as a tuple and
looks it up in a dict of first occurrences.  It shares no kernel with
the package's array pass: only the support enumeration
(``iter_supports``), the encoder (``classical_conv_encode``) and the
report containers are imported.  Only viable for short messages.
"""

import itertools
import time

from quditqec.classical import RadiusCounterexample, RadiusReport
from quditqec.codes import classical_conv_encode
from quditqec.errors import iter_supports


def oracle_certify_radius(n_levels: int, message_len_max: int,
                          window: int = 4,
                          max_errors: int = 1) -> RadiusReport:
    """The report ``certify_radius`` must return, found by dict lookup."""
    n = n_levels
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
