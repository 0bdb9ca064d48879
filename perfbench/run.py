"""Benchmark entry point: one workload, its set-up samples, one JSON result.

    python3 perfbench/run.py --workload stream-verify --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run, whose spans
are written to ``.perfbench/trace-<workload>-seed<n>.jsonl``.  Without
``--workload`` every workload runs, each in its own process, and one
result line is printed per workload.

``setup_s`` is the median over several fresh interpreters of the time from
process start to the first timed operation.  Every process this starts is
waited for.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, child_env  # noqa: E402

SETUP_SAMPLES = 3        # extra fresh-interpreter set-ups besides the run's own
DEADLINE_S = 170.0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _worker(args, extra: list[str], timeout: float) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--spawned", repr(spawned), *extra],
        stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
        timeout=max(timeout, 1.0), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited {proc.returncode}")
    return _last_json(proc.stdout)


def run_one(args) -> dict:
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES):
            samples.append(_worker(args, ["--setup-only"],
                                   remaining())["setup_s"])
    result = _worker(args, [], remaining())
    print(f"{args.workload}: {result['rounds']} round(s) in "
          f"{result['measured_s']:.2f}s, {result['attempted']} operations, "
          f"{result['failed']} failed", file=sys.stderr)
    metrics = result["metrics"]
    if not args.trace:
        samples.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(samples),
                               "unit": "s"}, **metrics}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, one line each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quditqec" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        args.workload = name
        try:
            result = run_one(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
