"""Command line front end.

Every subcommand prints one JSON report to standard output (or to the
``--out`` file) and a short human summary to standard error.  Exit codes:
0 for pass/success verdicts, 1 for fail verdicts (the report is still
emitted), 2 for usage or configuration errors, including an ``--out``
file that cannot be written (refused before any work when its directory
is missing or not writable), a request that runs out of memory and any
other unexpected error, and 130 on an interrupt.  Every exit other than 0
and 1 prints one line on standard error and no traceback.

The only environment variable consulted is ``QUDITQEC_REPORT_DIR``; when
set, relative ``--out`` paths are resolved inside that directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .channel import ChannelConfig, run_trials
from .classical import certify_radius
from .codes import BUILTIN_LABELS, CodeSpec, builtin
from .errors import enumerate_family
from .schemas import stamp
from .states import RegisterState
from .transforms import dualize, paste, theorem2_pipeline
from .verifier import kl_check, lambda_matrix

REPORT_DIR_VAR = "QUDITQEC_REPORT_DIR"


class ConfigError(ValueError):
    """Bad parameter combination discovered after argument parsing."""


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("global options")
    group.add_argument("--seed", type=int, default=None,
                       help="PRNG seed; required by randomized subcommands")
    group.add_argument("--tol", type=float, default=1e-9,
                       help="float-mode deviation tolerance (default 1e-9)")
    group.add_argument("--exact", action="store_true",
                       help="use exact cyclotomic arithmetic where supported")
    group.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility and ignored by "
                            "every subcommand (default 1)")
    group.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="quditqec",
        description="Construct, transform, verify, and simulate block "
                    "and convolutional codes over N-level registers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_code_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--code", required=True, choices=BUILTIN_LABELS,
                       help="builtin code label")
        p.add_argument("--n-levels", type=int, default=2,
                       help="register levels N (default 2)")
        p.add_argument("--logical-len", type=int, default=1,
                       help="logical message length L (default 1)")
        p.add_argument("--no-flush", action="store_true",
                       help="skip the trailing flush blocks")

    def add_family_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", type=int, default=8,
                       help="consecutive-register window (default 8)")
        p.add_argument("--max-errors", type=int, default=1,
                       help="errors allowed per window (default 1)")

    p = sub.add_parser("construct", parents=[common],
                       help="build a builtin code and emit its manifest")
    add_code_flags(p)
    p.add_argument("--kets", action="store_true",
                   help="include the encoded kets in the manifest")

    p = sub.add_parser("dualize", parents=[common],
                       help="Fourier-transform every register of a builtin "
                            "code; kets are always included")
    add_code_flags(p)

    p = sub.add_parser("paste", parents=[common],
                       help="compose a classical builtin with its dual "
                            "(dual outer, plain inner) into a general code")
    add_code_flags(p)
    p.add_argument("--reverse", action="store_true",
                   help="paste in the wrong order (plain outer, dual inner); "
                        "the result is expected to fail verification")

    p = sub.add_parser("verify-kl", parents=[common],
                       help="check the recoverability condition over a "
                            "windowed single-register error family")
    add_code_flags(p)
    add_family_flags(p)

    p = sub.add_parser("lambda", parents=[common],
                       help="extract the full lambda matrix of a passing "
                            "code (emits the failing report otherwise)")
    add_code_flags(p)
    add_family_flags(p)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte-Carlo channel with brute-force "
                            "maximum-likelihood recovery")
    add_code_flags(p)
    add_family_flags(p)
    p.add_argument("--p", type=float, required=True,
                   help="per-register error probability")
    p.add_argument("--trials", type=int, required=True,
                   help="number of channel trials")
    p.add_argument("--input", default=None, metavar="DIGITS",
                   help="logical basis ket, e.g. 011 or 0,1,1 "
                        "(default: all zeros)")

    p = sub.add_parser("certify-classical", parents=[common],
                       help="exhaustively certify the classical correction "
                            "radius of the rate-1/2 convolutional encoder")
    p.add_argument("--n-levels", type=int, default=2,
                   help="symbol alphabet size N (default 2)")
    p.add_argument("--max-len", type=int, required=True,
                   help="largest message length to certify (at most 8)")
    p.add_argument("--window", type=int, default=4,
                   help="consecutive-symbol window (default 4)")
    p.add_argument("--max-errors", type=int, default=1,
                   help="errors allowed per window (default 1)")

    return parser


def _report_path(out: str) -> str:
    """The ``--out`` path with the ``QUDITQEC_REPORT_DIR`` rule applied,
    refused before any work when its directory cannot take the file."""
    override = os.environ.get(REPORT_DIR_VAR)
    path = os.path.join(override, out) if override and not os.path.isabs(out) \
        else out
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        problem = "no such directory"
    elif os.path.isdir(path):
        problem = "it is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return path
    raise ConfigError(f"cannot write report to {path}: {problem}")


def _emit(report: dict, args: argparse.Namespace, summary: str) -> None:
    text = json.dumps(stamp(report), indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report to {args.out}: "
                              f"{exc.strerror or exc}") from exc
    else:
        print(text)
    print(summary, file=sys.stderr)


def _make_code(args: argparse.Namespace) -> CodeSpec:
    return builtin(args.code, args.n_levels, args.logical_len,
                   flush=not args.no_flush)


def _make_family(code: CodeSpec, args: argparse.Namespace):
    return enumerate_family(code.width, args.window, args.max_errors,
                            n_levels=code.n_levels)


def _parse_logical(text: str | None, n_levels: int,
                   width: int) -> RegisterState:
    if text is None:
        digits = (0,) * width
    else:
        parts = text.split(",") if "," in text else list(text)
        try:
            digits = tuple(int(part) for part in parts)
        except ValueError:
            raise ConfigError(f"cannot parse logical ket {text!r}")
    if len(digits) != width:
        raise ConfigError(
            f"logical ket needs {width} digits, got {len(digits)}")
    if any(d < 0 or d >= n_levels for d in digits):
        raise ConfigError(f"logical digits must lie in 0..{n_levels - 1}")
    return RegisterState.basis(n_levels, digits)


def _emit_code(code: CodeSpec, args: argparse.Namespace, summary: str,
               kets: bool = True) -> None:
    """Emit a code's manifest, with its encoded kets when ``kets`` is set."""
    manifest = code.to_manifest()
    if kets:
        manifest["kets"] = code.kets_json()
    _emit(manifest, args, summary)


def _cmd_construct(args: argparse.Namespace) -> int:
    code = _make_code(args)
    _emit_code(code, args,
               f"constructed {code.label}: N={code.n_levels} "
               f"L={code.logical_len} width={code.width}", kets=args.kets)
    return 0


def _cmd_dualize(args: argparse.Namespace) -> int:
    code = dualize(_make_code(args))
    _emit_code(code, args,
               f"dualized {args.code}: N={code.n_levels} "
               f"L={code.logical_len} width={code.width}")
    return 0


def _cmd_paste(args: argparse.Namespace) -> int:
    base = _make_code(args)
    if not base.is_classical:
        raise ConfigError(
            f"{args.code} is not a classical (basis-ket) code; "
            "pasting is defined for classical inputs")
    if args.reverse:
        outer = builtin(args.code, args.n_levels, args.logical_len,
                        flush=False)
        inner = dualize(builtin(args.code, args.n_levels, outer.width,
                                flush=True))
        code = paste(outer, inner)
    else:
        code = theorem2_pipeline(base)
    _emit_code(code, args,
               f"pasted {code.label}: N={code.n_levels} width={code.width}")
    return 0


def _cmd_verify_kl(args: argparse.Namespace) -> int:
    code = _make_code(args)
    family = _make_family(code, args)
    report = kl_check(code, family, tol=args.tol, exact=args.exact,
                      jobs=args.jobs)
    summary = (f"{report.verdict}: {code.label} over {report.family_size} "
               f"patterns, max deviation {report.max_deviation:.3e} "
               f"in {report.elapsed_seconds:.2f}s")
    if report.witness is not None:
        w = report.witness
        summary += (f"; witness patterns ({w.pattern_a},{w.pattern_b}) "
                    f"logicals ({w.logical_i},{w.logical_j})")
    _emit(report.to_json(), args, summary)
    return 0 if report.passed else 1


def _cmd_lambda(args: argparse.Namespace) -> int:
    code = _make_code(args)
    family = _make_family(code, args)
    report = kl_check(code, family, tol=args.tol, exact=args.exact,
                      jobs=args.jobs)
    if not report.passed:
        _emit(report.to_json(), args,
              f"fail: {code.label} does not satisfy the recoverability "
              f"condition (max deviation {report.max_deviation:.3e}); "
              "no lambda matrix")
        return 1
    lam = lambda_matrix(code, family, tol=args.tol, jobs=args.jobs,
                        precomputed=report)
    _emit(lam.to_json(), args,
          f"pass: lambda is {lam.kind} with rank {lam.rank} "
          f"over {report.family_size} patterns")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed is None:
        raise ConfigError("simulate is randomized and requires --seed")
    code = _make_code(args)
    family = _make_family(code, args)
    logical = _parse_logical(args.input, code.n_levels, code.logical_width)
    cfg = ChannelConfig(p=args.p, seed=args.seed, trials=args.trials)
    summary = run_trials(code, cfg, family, logical, jobs=args.jobs)
    clean = summary.in_family_success_count == summary.in_family_count
    cond = "n/a" if summary.conditional_success is None \
        else f"{summary.conditional_success:.6f}"
    _emit(summary.to_json(), args,
          f"{'pass' if clean else 'fail'}: {summary.trials} trials, "
          f"{summary.in_family_count} in family, conditional success "
          f"{cond}, mean fidelity {summary.mean_fidelity:.6f}")
    return 0 if clean else 1


def _cmd_certify_classical(args: argparse.Namespace) -> int:
    report = certify_radius(args.n_levels, args.max_len,
                            window=args.window, max_errors=args.max_errors)
    summary = (f"{report.verdict}: {report.messages_checked} messages, "
               f"{report.corruptions_checked} corruptions "
               f"in {report.elapsed_seconds:.2f}s")
    if report.counterexample is not None:
        summary += (f"; counterexample message "
                    f"{list(report.counterexample.message)}")
    _emit(report.to_json(), args, summary)
    return 0 if report.passed else 1


_HANDLERS = {
    "construct": _cmd_construct,
    "dualize": _cmd_dualize,
    "paste": _cmd_paste,
    "verify-kl": _cmd_verify_kl,
    "lambda": _cmd_lambda,
    "simulate": _cmd_simulate,
    "certify-classical": _cmd_certify_classical,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("quditqec: --jobs must be at least 1", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol >= 0):
        print("quditqec: --tol must be a finite nonnegative number",
              file=sys.stderr)
        return 2
    try:
        if args.out:
            args.out = _report_path(args.out)
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc), 2)
    except MemoryError as exc:
        # numpy's allocation failures name the array that did not fit
        return _fail(f"out of memory: {str(exc) or 'allocation failed'}", 2)
    except KeyboardInterrupt:
        return _fail("interrupted", 130)
    except Exception as exc:
        return _fail(f"unexpected {type(exc).__name__}: {exc}", 2)


def _fail(message: str, code: int) -> int:
    """One line on stderr, then the exit code."""
    line = " ".join(message.split())
    print(f"quditqec: {line}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
