import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError

import quditqec.cli as cli
from quditqec.cli import main
from quditqec.schemas import SCHEMA_VERSION, SCHEMAS


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def validate(report, kind):
    assert report["schema_version"] == SCHEMA_VERSION
    jsonschema.validate(report, SCHEMAS[kind])


def test_construct_manifest(capsys):
    code, report, err = run_cli(capsys, [
        "construct", "--code", "majority3", "--logical-len", "2"])
    assert code == 0
    validate(report, "manifest")
    assert report["label"] == "majority3"
    assert report["width"] == 6
    assert "kets" not in report
    assert "constructed" in err


def test_construct_with_kets(capsys):
    code, report, _ = run_cli(capsys, [
        "construct", "--code", "shor9", "--kets"])
    assert code == 0
    validate(report, "manifest")
    assert len(report["kets"]) == 2
    assert len(report["kets"][0]["terms"]) == 8


def test_construct_ternary(capsys):
    code, report, _ = run_cli(capsys, [
        "construct", "--code", "perfect5", "--n-levels", "3"])
    assert code == 0
    validate(report, "manifest")
    assert report["N"] == 3 and report["width"] == 10


def test_dualize_emits_kets(capsys):
    code, report, _ = run_cli(capsys, ["dualize", "--code", "majority3"])
    assert code == 0
    validate(report, "manifest")
    assert report["label"] == "majority3-dual"
    assert len(report["kets"][0]["terms"]) == 8


@pytest.mark.parametrize("label", ["shor9", "majority3"])
def test_construct_refuses_empty_window(capsys, label):
    code, report, err = run_cli(capsys, [
        "construct", "--code", label, "--logical-len", "0"])
    assert code == 2
    assert report is None
    assert "logical_len" in err and "unexpected" not in err


def test_paste_pipeline(capsys):
    code, report, _ = run_cli(capsys, ["paste", "--code", "majority3"])
    assert code == 0
    validate(report, "manifest")
    assert report["label"] == "paste(majority3-dual,majority3)"
    assert report["width"] == 9


def test_paste_reverse_order(capsys):
    code, report, _ = run_cli(capsys, [
        "paste", "--code", "spin_conv", "--reverse"])
    assert code == 0
    validate(report, "manifest")
    assert report["label"].startswith("paste(spin_conv,spin_conv-dual")


def test_paste_rejects_nonclassical(capsys):
    code, report, err = run_cli(capsys, ["paste", "--code", "shor9"])
    assert code == 2
    assert report is None
    assert "classical" in err


def test_verify_pass(capsys):
    code, report, err = run_cli(capsys, [
        "verify-kl", "--code", "shor9", "--window", "9", "--jobs", "1"])
    assert code == 0
    validate(report, "kl_report")
    assert report["verdict"] == "pass"
    assert report["family_size"] == 28
    assert err.startswith("pass")


def test_verify_fail_emits_report(capsys):
    code, report, err = run_cli(capsys, [
        "verify-kl", "--code", "rate14_conv", "--window", "4",
        "--jobs", "1"])
    assert code == 1
    validate(report, "kl_report")
    assert report["verdict"] == "fail"
    assert report["witness"]["deviation"] > 0
    assert "witness" in err


def test_lambda_pass(capsys):
    code, report, _ = run_cli(capsys, [
        "lambda", "--code", "shor9", "--window", "9", "--jobs", "1"])
    assert code == 0
    validate(report, "lambda_report")
    assert report["kind"] == "degenerate"
    assert report["dim"] == 28
    assert len(report["matrix"]) == 28


def test_lambda_on_failing_code_reports_kl(capsys):
    code, report, _ = run_cli(capsys, [
        "lambda", "--code", "rate14_conv", "--window", "4", "--jobs", "1"])
    assert code == 1
    validate(report, "kl_report")
    assert report["verdict"] == "fail"


def test_simulate_requires_seed(capsys):
    code, report, err = run_cli(capsys, [
        "simulate", "--code", "shor9", "--window", "9",
        "--p", "0.05", "--trials", "10"])
    assert code == 2
    assert report is None
    assert "--seed" in err


def test_simulate_clean_run(capsys):
    code, report, _ = run_cli(capsys, [
        "simulate", "--code", "shor9", "--window", "9",
        "--p", "0.05", "--trials", "50", "--seed", "9", "--jobs", "1"])
    assert code == 0
    validate(report, "channel_summary")
    assert report["trials"] == 50
    assert report["seed"] == 9
    assert report["conditional_success"] == 1.0
    assert report["decoder"] == "syndrome"


def test_simulate_logical_input_validation(capsys):
    base = ["simulate", "--code", "rate14_conv", "--logical-len", "2",
            "--window", "4", "--p", "0.1", "--trials", "5", "--seed", "1"]
    code, _, err = run_cli(capsys, base + ["--input", "012"])
    assert code == 2 and "digits" in err
    code, _, err = run_cli(capsys, base + ["--input", "0"])
    assert code == 2 and "2 digits" in err
    code, _, err = run_cli(capsys, base + ["--input", "ab"])
    assert code == 2


def test_simulate_refuses_a_digit_past_n_levels(capsys):
    code, report, err = run_cli(capsys, [
        "simulate", "--code", "majority3", "--window", "3", "--p", "0.1",
        "--trials", "3", "--seed", "1", "--input", "5"])
    assert code == 2
    assert report is None
    assert err == "quditqec: logical digits must lie in 0..1\n"


def test_certify_classical_pass(capsys):
    code, report, _ = run_cli(capsys, [
        "certify-classical", "--max-len", "3"])
    assert code == 0
    validate(report, "radius_report")
    assert report["counterexample"] is None


def test_certify_classical_fail(capsys):
    code, report, _ = run_cli(capsys, [
        "certify-classical", "--max-len", "3", "--max-errors", "2"])
    assert code == 1
    validate(report, "radius_report")
    assert report["counterexample"] is not None


def test_certify_classical_past_the_pair_table(capsys):
    code, report, _ = run_cli(capsys, [
        "certify-classical", "--n-levels", "4", "--max-len", "7"])
    assert code == 0
    validate(report, "radius_report")
    assert report["verdict"] == "pass" and report["counterexample"] is None
    assert report["messages_checked"] == sum(4 ** L for L in range(1, 8))


def test_certify_classical_without_errors(capsys):
    code, report, _ = run_cli(capsys, [
        "certify-classical", "--max-len", "2", "--max-errors", "0"])
    assert code == 0
    validate(report, "radius_report")
    assert report["max_errors"] == 0


def test_certify_classical_refuses_unindexable_request(capsys):
    code, report, err = run_cli(capsys, [
        "certify-classical", "--n-levels", "1500", "--max-len", "1",
        "--window", "1"])
    assert code == 2
    assert report is None
    assert err.startswith("quditqec: out of memory:") and err.count("\n") == 1


def test_bad_global_values(capsys):
    code, _, err = run_cli(capsys, [
        "construct", "--code", "majority3", "--jobs", "0"])
    assert code == 2 and "--jobs" in err
    code, _, err = run_cli(capsys, [
        "construct", "--code", "majority3", "--tol", "-1"])
    assert code == 2 and "--tol" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tol_must_be_finite_and_nonnegative(capsys, tol):
    code, report, err = run_cli(capsys, [
        "verify-kl", "--code", "rate14_conv", "--logical-len", "1",
        "--window", "4", "--tol", tol])
    assert code == 2
    assert report is None
    assert err == "quditqec: --tol must be a finite nonnegative number\n"


@pytest.mark.parametrize("flag, value", [("--window", "0"),
                                         ("--max-errors", "-1")])
def test_certify_classical_rejects_bad_family(capsys, flag, value):
    code, report, err = run_cli(capsys, [
        "certify-classical", "--max-len", "2", flag, value])
    assert code == 2
    assert report is None
    assert err.count("\n") == 1 and flag[2:].replace("-", "_") in err


def test_argparse_rejections():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--code", "not-a-code"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["construct"])
    assert exc.value.code == 2


SUBCOMMANDS = ["construct", "dualize", "paste", "verify-kl", "lambda",
               "simulate", "certify-classical"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_has_help(capsys, command):
    assert sorted(cli._HANDLERS) == sorted(SUBCOMMANDS)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: quditqec {command}")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, report, err = run_cli(capsys, [
        "construct", "--code", "majority3", "--out", str(target)])
    assert code == 0
    assert report is None  # stdout stays empty when --out is given
    assert "constructed" in err
    written = json.loads(target.read_text())
    validate(written, "manifest")


def test_out_file_unwritable_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, report, err = run_cli(capsys, [
        "verify-kl", "--code", "shor9", "--window", "9", "--jobs", "1",
        "--out", str(target)])
    assert code == 2
    assert report is None
    assert err.count("\n") == 1
    assert err.startswith("quditqec: cannot write report")
    assert not target.exists()


@pytest.mark.parametrize("relative", [False, True])
def test_unwritable_out_is_refused_before_the_check(tmp_path, capsys,
                                                    monkeypatch, relative):
    def refuse(*args, **kwargs):
        raise AssertionError("the check ran before --out was checked")
    monkeypatch.setattr(cli, "kl_check", refuse)
    monkeypatch.setattr(cli, "builtin", refuse)
    if relative:
        monkeypatch.setenv("QUDITQEC_REPORT_DIR", str(tmp_path))
        out = os.path.join("missing", "report.json")
    else:
        out = str(tmp_path / "missing" / "report.json")
    code, report, err = run_cli(capsys, [
        "verify-kl", "--code", "shor9", "--window", "9", "--out", out])
    assert code == 2
    assert report is None
    assert err.count("\n") == 1
    assert err.startswith(
        f"quditqec: cannot write report to "
        f"{tmp_path / 'missing' / 'report.json'}: no such directory")
    # a directory given as the report file is refused the same way
    code, _, err = run_cli(capsys, [
        "verify-kl", "--code", "shor9", "--window", "9",
        "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("quditqec: cannot write report")


def test_report_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUDITQEC_REPORT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, [
        "construct", "--code", "majority3", "--out", "nested.json"])
    assert code == 0
    written = json.loads((tmp_path / "nested.json").read_text())
    validate(written, "manifest")
    # absolute --out ignores the override
    target = tmp_path / "abs.json"
    code, _, _ = run_cli(capsys, [
        "construct", "--code", "majority3", "--out", str(target)])
    assert code == 0
    assert target.exists()
    assert os.path.getsize(target) > 0


def _raising(exc):
    def handler(args):
        raise exc
    return handler


@pytest.mark.parametrize("exc, status, text", [
    (_ArrayMemoryError((1 << 40,), np.dtype(np.complex128)), 2,
     "quditqec: out of memory: Unable to allocate 16.0 TiB"),
    (MemoryError(), 2, "quditqec: out of memory: allocation failed"),
    (RuntimeError("solver\nbroke"), 2,
     "quditqec: unexpected RuntimeError: solver broke"),
    (KeyboardInterrupt(), 130, "quditqec: interrupted"),
])
def test_unexpected_exits_are_one_line(capsys, monkeypatch, exc, status,
                                       text):
    monkeypatch.setitem(cli._HANDLERS, "construct", _raising(exc))
    code, report, err = run_cli(capsys, ["construct", "--code", "majority3"])
    assert code == status
    assert report is None
    assert err.count("\n") == 1
    assert err.startswith(text)


# Run in a fresh interpreter: the CLI calls must leave scipy unimported;
# the two Gram checks after them must load it.
_SCIPY_FREE_CHILD = r"""
import contextlib, io, json, sys

from quditqec.cli import main

exits = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        exits.append(main(argv))
before = "scipy" in sys.modules

from quditqec.codes import builtin
from quditqec.errors import enumerate_family, spin_flip
from quditqec.verifier import kl_check

exact = kl_check(builtin("shor9", 2, 1),
                 enumerate_family(9, 9, 1, n_levels=2), exact=True)
flips = kl_check(builtin("majority3", 2, 2),
                 enumerate_family(6, 3, 1, basis=(spin_flip([1, 0]),)))
print(json.dumps({"exits": exits, "before": before,
                  "after": "scipy" in sys.modules,
                  "gram": [[exact.engine, exact.verdict],
                           [flips.engine, flips.verdict]]}))
"""


def test_syndrome_and_usage_paths_never_import_scipy(tmp_path):
    commands = [
        (["verify-kl", "--code", "shor9", "--window", "9",
          "--out", str(tmp_path / "missing" / "report.json")], 2),
        (["dualize", "--code", "majority3"], 0),
        (["lambda", "--code", "shor9", "--window", "9"], 0),
        (["verify-kl", "--code", "rate14_conv", "--logical-len", "3",
          "--window", "8"], 1),
        (["simulate", "--code", "rate14_conv", "--logical-len", "2",
          "--window", "4", "--p", "0.1", "--trials", "20", "--seed", "1"],
         1),
        (["certify-classical", "--max-len", "3"], 0),
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE_CHILD,
         json.dumps([argv for argv, _ in commands])],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["exits"] == [status for _, status in commands]
    assert result["before"] is False
    assert result["after"] is True
    assert result["gram"] == [["exact", "pass"], ["sparse-float", "pass"]]
