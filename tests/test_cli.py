import json
import os
import shutil
import subprocess
import sys

import pytest

from polyfam.cli import main


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "polyfam", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def records(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_number_first_kind_example():
    proc = run_cli(
        "number", "mp-cauchy-1", "--n", "2", "--k", "1",
        "--alpha", "0,1", "--lengths", "1",
    )
    assert proc.returncode == 0
    (rec,) = records(proc)
    assert rec["value"] == "-1/6"
    assert rec["mode"] == "corrected"
    assert sorted(rec) == ["family", "mode", "params", "value"]
    assert rec["params"]["alpha"] == "0,1"


def test_number_defaults_are_classical():
    explicit = run_cli("number", "poly-bernoulli", "--n", "2", "--k", "1")
    assert records(explicit)[0]["value"] == "1/6"
    base = run_cli("number", "mp-cauchy-1", "--n", "0", "--k", "2",
                   "--lengths", "1,1")
    assert records(base)[0]["value"] == "1"


def test_classic_aliases_force_one_integration():
    proc = run_cli("number", "cauchy-1", "--n", "3", "--k", "5")
    (rec,) = records(proc)
    assert rec["params"]["k"] == "1"
    assert rec["value"] == "1/4"


def test_q_sugar_builds_an_arithmetic_progression():
    via_q = run_cli("number", "mp-cauchy-2", "--n", "3", "--q", "1/2")
    direct = run_cli(
        "number", "mp-cauchy-2", "--n", "3", "--alpha", "0,1/2,1"
    )
    assert records(via_q)[0]["value"] == records(direct)[0]["value"]
    assert records(via_q)[0]["params"]["q"] == "1/2"


def test_alpha_and_q_are_mutually_exclusive():
    proc = run_cli("number", "mp-cauchy-1", "--n", "2",
                   "--alpha", "1,2", "--q", "3")
    assert proc.returncode == 2


def test_poly_coefficients_are_lowest_first():
    proc = run_cli("poly", "mp-cauchy-1", "--n", "2", "--k", "1")
    (rec,) = records(proc)
    assert rec["value"] == ["-1/6", "0", "1"]


def test_poly_evaluation_at_z():
    proc = run_cli("poly", "mp-bernoulli", "--n", "2", "--z", "1/2")
    (rec,) = records(proc)
    assert rec["value"] == "1/6"
    assert rec["params"]["z"] == "1/2"


def test_decimals_adds_an_approx_field():
    proc = run_cli("number", "cauchy-1", "--n", "2", "--decimals", "4")
    (rec,) = records(proc)
    assert rec["value"] == "-1/6"
    assert rec["approx"] == "-0.1667"
    poly = run_cli("poly", "cauchy-1", "--n", "2", "--decimals", "2")
    assert records(poly)[0]["approx"] == ["-0.17", "0.00", "1.00"]


def test_csv_format():
    proc = run_cli("number", "cauchy-1", "--n", "2", "--format", "csv")
    header, row = proc.stdout.splitlines()
    assert header == "family,params,value,mode"
    assert "-1/6" in row
    assert "corrected" in row


def test_table_classical_triangle():
    proc = run_cli("table", "stirling-1", "--n-max", "3")
    rows = records(proc)
    assert len(rows) == 4
    assert rows[3]["value"] == ["0", "2", "-3", "1"]
    assert rows[0]["value"] == ["1"]


def test_table_multiparameter_triangle():
    proc = run_cli("table", "comtet-1", "--n-max", "2", "--alpha", "1,2")
    rows = records(proc)
    assert rows[2]["value"] == ["2", "-3", "1"]
    assert rows[2]["params"]["alpha"] == "1,2"
    via_q = run_cli("table", "comtet-1", "--n-max", "2", "--q", "1")
    assert records(via_q)[2]["value"] == ["0", "-1", "1"]


def test_table_multiparameter_needs_parameters():
    proc = run_cli("table", "comtet-1", "--n-max", "2")
    assert proc.returncode == 3
    assert "precondition violated" in proc.stderr


def test_bad_rational_is_a_usage_error():
    assert run_cli("number", "cauchy-1", "--n", "2",
                   "--lengths", "1/0").returncode == 2
    assert run_cli("number", "cauchy-1", "--n", "2",
                   "--alpha", "x").returncode == 2
    assert run_cli("number", "cauchy-1").returncode == 2


def test_zero_length_is_a_precondition_violation():
    proc = run_cli("number", "cauchy-1", "--n", "2", "--lengths", "0")
    assert proc.returncode == 3
    assert "precondition violated" in proc.stderr


def test_verify_record_schema_and_exit_codes():
    proc = run_cli(
        "verify", "--ids", "T2.1", "--n-max", "2", "--k-max", "1",
        "--points", "1",
    )
    assert proc.returncode == 0
    for rec in records(proc):
        assert sorted(rec) == [
            "corrected", "identity", "note", "point", "verbatim",
        ]
        assert rec["corrected"] == "PASS"
    verbatim = run_cli(
        "verify", "--ids", "T5.2b", "--n-max", "2", "--k-max", "1",
        "--points", "1", "--mode", "verbatim",
    )
    assert verbatim.returncode == 1


def test_verify_rejects_unknown_ids():
    assert run_cli("verify", "--ids", "bogus").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n-max", "-1"),
        ("verify", "--k-max", "0"),
        ("verify", "--points", "-3"),
        ("verify", "--order", "-1"),
        ("verify", "--ids", ","),
        ("number", "cauchy-1", "--n", "2", "--decimals", "-1"),
    ],
)
def test_out_of_range_flags_are_usage_errors(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_errata_is_a_single_document():
    proc = run_cli(
        "verify", "--ids", "T3.1", "--n-max", "2", "--k-max", "1",
        "--points", "5", "--errata",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [e["identity"] for e in doc["entries"]] == ["T3.1"]
    assert doc["entries"][0]["counterexample"]["point"]["n"] >= 0


def test_verify_output_is_deterministic():
    args = ("verify", "--ids", "T2.1,T4.2a", "--n-max", "3", "--k-max", "1",
            "--points", "2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    threaded = run_cli(*args, env={"POLYFAM_THREADS": "3"})
    assert threaded.stdout == first.stdout


def test_main_is_importable_and_returns_exit_codes(capsys):
    assert main(["number", "cauchy-1", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["value"] == "1/2"


@pytest.mark.skipif(
    shutil.which("polyfam") is None, reason="console script not on PATH"
)
def test_console_script_entry_point():
    proc = subprocess.run(
        ["polyfam", "number", "cauchy-2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "5/6"
