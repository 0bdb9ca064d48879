"""Operation accounting, timing and span tracing for one workload process.

Every call into the package goes through :meth:`Bench.call`, which counts
it, times it, and records a span when tracing is on.  An
operation fails when it raises, when a CLI invocation exits with another
code than expected, or when a check on its output fails; the last case is
a wrong answer and also clears ``correct``.  Decoder mistakes that the
checks explain are outcomes, not failures.
"""

from __future__ import annotations

import bisect
import json
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

# seconds of operation time between two samples of the reference work
REFERENCE_EVERY_S = 0.1
# an operation is scaled by the reference samples taken this close to it,
# and by at least this many of the nearest ones
REFERENCE_WINDOW_S = 1.5
REFERENCE_NEAREST = 4
# the reference work's median time on the machine the figures were taken on
REFERENCE_S = 0.015


class Reference:
    """A fixed piece of work that shares no code with the package.

    On a shared host the speed of a core drifts by tens of percent over
    seconds and minutes, and most of the drift is common to all work on
    it.  Timing this work between the operations measures the drift, so
    that each operation's time can be scaled to a core that runs the work
    in ``REFERENCE_S``.  It mixes, in about equal parts of time, what the
    package spends its time on: interpreted integer and dict work, sparse
    matrix-vector and dense products, and a pass over an array larger than
    the per-core caches.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.sparse = scipy.sparse.random(20000, 20000, density=0.0005,
                                          random_state=rng, format="csr")
        self.vector = rng.random(20000)
        self.dense = rng.random((200, 200))
        self.product = np.empty_like(self.dense)
        self.big = rng.random(2_000_000)

    def run(self) -> float:
        """Time the work once.  It allocates no large array, so that where
        it falls between the operations does not change the heap they see
        (and so ``peak_rss_mb``)."""
        started = time.perf_counter()
        acc, table = 0, {}
        for i in range(24000):
            k = (i * 7919) % 1009
            table[k] = table.get(k, 0) + i
            acc += k * k % 13
        total = 0.0
        for _ in range(8):
            total += float((self.sparse @ self.vector)[0])
        np.dot(self.dense, self.dense, out=self.product)
        self.big *= 1.0
        total += float(self.big.sum()) + float(self.product[0, 0])
        elapsed = time.perf_counter() - started
        if acc < 0 or not total > 0:
            raise AssertionError("the reference work went wrong")
        return elapsed


@dataclass
class Op:
    name: str
    round: int | None
    status: str = "ok"           # ok | error | wrong
    detail: str = ""


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    round: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Bench:
    """Attempted/failed bookkeeping, per-round metric sums and spans."""

    def __init__(self, run_id: str, trace: bool):
        self.run_id = run_id
        self.trace = trace
        self.ops: list[Op] = []
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.round: int | None = None
        self.rounds = 0
        # metric -> sum over the rounds
        self.sums: dict[str, float] = {}
        # (metric, start, elapsed) of every timed operation
        self.timed: list[tuple] = []
        # (perf_counter at its end, seconds) of every reference sample
        self.refs: list[tuple[float, float]] = []
        self._reference: Reference | None = None
        self._since_reference = REFERENCE_EVERY_S

    # -- rounds -------------------------------------------------------------

    def begin_round(self) -> None:
        self.round = self.rounds
        self.rounds += 1

    def end_rounds(self) -> None:
        self.round = None

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Yield the span's attribute dict, so counts can be added to it."""
        if not self.trace:
            yield attrs
            return
        span = Span(len(self.spans), name, layer, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None,
                    round=self.round, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span.attrs
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name,
                    "layer": s.layer, "start": s.start, "end": s.end,
                    "parent": s.parent, "round": s.round,
                    "attrs": s.attrs}) + "\n")

    # -- operations -----------------------------------------------------------

    def add(self, metric: str, value: float) -> None:
        self.sums[metric] = self.sums.get(metric, 0.0) + value

    def call(self, metric: str | None, name: str, layer: str, fn, *args,
             attrs: dict | None = None, count=None, **kwargs):
        """Run one timed operation; returns (op, result or None).

        ``count(result)`` returns work counts for the span; it runs after
        the span has closed, so counting is not timed.
        """
        op = Op(name, self.round)
        self.ops.append(op)
        result = None
        with self.span(name, layer, **(attrs or {})) as span_attrs:
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # an operation that raises has failed
                op.status = "error"
                op.detail = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            finally:
                elapsed = time.perf_counter() - started
                if metric is not None:
                    self.add(metric, elapsed)
                    self.timed.append((metric, started, elapsed))
        if self.round is not None:
            self.sample_reference(elapsed)
        if self.trace and count is not None and op.status == "ok":
            span_attrs.update(count(result))
        return op, result

    def sample_reference(self, elapsed: float = 0.0, force=False) -> None:
        """Time the reference work once every ``REFERENCE_EVERY_S`` of work."""
        if self._reference is None:
            self._reference = Reference()
        self._since_reference += elapsed
        if force or self._since_reference >= REFERENCE_EVERY_S:
            self.refs.append((time.perf_counter(), self._reference.run()))
            self._since_reference = 0.0

    def expect(self, op: Op, ok: bool, message: str) -> bool:
        """Record one output check of ``op``; a failed check is a wrong answer."""
        if not ok and op.status == "ok":
            op.status = "wrong"
            op.detail = message
            print(f"check failed: {op.name}: {message}", file=sys.stderr)
        return ok

    def error(self, op: Op, message: str) -> None:
        """Mark ``op`` failed without calling its answer wrong."""
        if op.status == "ok":
            op.status = "error"
            op.detail = message
            print(f"operation failed: {op.name}: {message}", file=sys.stderr)

    # -- results ------------------------------------------------------------

    def per_round(self, metric: str) -> float:
        """The mean per round of a sum, as the operations measured it."""
        return self.sums.get(metric, 0.0) / max(self.rounds, 1)

    def scaled_per_round(self, metric: str) -> float:
        """The mean per round of a time, each operation scaled by the
        reference work timed around it.

        Rounds are identical, and the machine's speed drifts over seconds;
        the mean over every round averages what the scaling leaves of that
        drift, where a median of the few rounds that fit in a run would
        keep it.
        """
        times = [t for t, _ in self.refs]
        total = 0.0
        for name, started, elapsed in self.timed:
            if name != metric:
                continue
            lo = bisect.bisect_left(times, started - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(times,
                                     started + elapsed + REFERENCE_WINDOW_S)
            if hi - lo < REFERENCE_NEAREST:
                # too few samples in the window: the nearest ones around it
                at = bisect.bisect_left(times, started)
                lo = max(0, min(at - REFERENCE_NEAREST // 2,
                                len(times) - REFERENCE_NEAREST))
                hi = lo + REFERENCE_NEAREST
            local = statistics.median(d for _, d in self.refs[lo:hi])
            total += elapsed * REFERENCE_S / local
        return total / max(self.rounds, 1)

    @property
    def attempted(self) -> int:
        """Operations of the rounds, plus any other operation that failed.

        Every round attempts the same operations, so while nothing outside
        the rounds fails, the failed share is the same in every run however
        many rounds fit in it.
        """
        return sum(op.round is not None or op.status != "ok"
                   for op in self.ops)

    @property
    def failed(self) -> int:
        return sum(op.status != "ok" for op in self.ops)

    @property
    def correct(self) -> bool:
        return all(op.status != "wrong" for op in self.ops)
