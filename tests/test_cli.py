import json
import os

import jsonschema
import pytest

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


def test_simulate_logical_input_validation(capsys):
    base = ["simulate", "--code", "rate14_conv", "--logical-len", "2",
            "--window", "4", "--p", "0.1", "--trials", "5", "--seed", "1"]
    code, _, err = run_cli(capsys, base + ["--input", "012"])
    assert code == 2 and "digits" in err
    code, _, err = run_cli(capsys, base + ["--input", "0"])
    assert code == 2 and "2 digits" in err
    code, _, err = run_cli(capsys, base + ["--input", "ab"])
    assert code == 2


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


def test_bad_global_values(capsys):
    code, _, err = run_cli(capsys, [
        "construct", "--code", "majority3", "--jobs", "0"])
    assert code == 2 and "--jobs" in err
    code, _, err = run_cli(capsys, [
        "construct", "--code", "majority3", "--tol", "-1"])
    assert code == 2 and "--tol" in err


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
