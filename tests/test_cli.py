import contextlib
import csv
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CLI, run_cli
from polyfam.cli import NUMBER_FAMILIES, TABLE_FAMILIES, build_parser, main
from polyfam.harness import FAIL, IDENTITY_IDS, GridSpec, sweep

# `main` run in process treats a warning as an error too, as the children
# that `run_cli` starts do. Not libcst's deprecations: hypothesis imports it
# to report a failing example, and an error there would end the whole run.
pytestmark = pytest.mark.filterwarnings("error", "ignore::DeprecationWarning:libcst")

# The `verify` argv after "verify", the sha256 of its stdout and its exit
# code. The seed-0 runs are also perfbench/golden.json's; the other three
# pin the default grid at other seeds, the csv format and deeper series.
VERIFY_SHA256 = {
    "default": (
        ("--seed", "0"),
        "929194616961586e56a7453d28271300cf59c10a63bfc8ef23de9b240bdbb549",
        0,
    ),
    "errata": (
        ("--seed", "0", "--errata"),
        "e878ec4b9e2746ee7d47c078301c83c5520287b67de25939cabd1c817b3f8669",
        0,
    ),
    "verbatim": (
        ("--seed", "0", "--mode", "verbatim"),
        "929194616961586e56a7453d28271300cf59c10a63bfc8ef23de9b240bdbb549",
        1,
    ),
    "seed3-n9-points6": (
        ("--seed", "3", "--n-max", "9", "--points", "6"),
        "87564c2ea1a33967821d62be0d9a69a8f35d4b83a263bc4167f736cc9b02ccba",
        0,
    ),
    "seed7-errata-csv": (
        ("--seed", "7", "--errata", "--format", "csv"),
        "20ea0fb795367a8a8dac8f338ee8a3c3f8e901e133c68cb99c4c1e72f268c316",
        0,
    ),
    "seed5-k3-order8-points4": (
        ("--seed", "5", "--k-max", "3", "--order", "8", "--points", "4"),
        "2dc75a3507ca63c2414612e65779d0bc9a34dff246d3c4ca08bfe2b3de42156a",
        0,
    ),
}


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
    explicit = run_cli("number", "mp-bernoulli", "--n", "2", "--k", "1")
    assert records(explicit)[0]["value"] == "1/6"
    base = run_cli("number", "mp-cauchy-1", "--n", "0", "--k", "2",
                   "--lengths", "1,1")
    assert records(base)[0]["value"] == "1"


# Each flag a value family may be given away from its default, with the
# commands that take it.
_FLAGS = (
    ("--k", "2"),
    ("--lengths", "1/2"),
    ("--alpha", "1/2,-3,2"),
    ("--q", "-2/3"),
    ("--mode", "verbatim"),
)
_FLAG_CASES = [("number", flag) for flag in _FLAGS] + [
    ("poly", flag) for flag in _FLAGS + (("--z", "5/7"),)
]


@pytest.mark.parametrize("family", NUMBER_FAMILIES)
@pytest.mark.parametrize(
    "command, flag", _FLAG_CASES, ids=[f"{c}{f[0]}" for c, f in _FLAG_CASES]
)
def test_a_value_flag_changes_the_value_or_is_refused(command, flag, family, capsys):
    # No family ignores a flag: each one either moves the printed value at
    # n = 3 or exits 3, before any output, naming the flag it takes no.
    assert main([command, family, "--n", "3"]) == 0
    (default,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    code = main([command, family, "--n", "3", *flag])
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["value"] != default["value"]
    else:
        assert (code, out) == (3, "")
        refusal = f"family {family!r} takes no {' '.join(flag)}"
        assert err == f"precondition violated: {refusal}\n"


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
    proc = run_cli("number", "mp-cauchy-1", "--n", "2", "--decimals", "4")
    (rec,) = records(proc)
    assert rec["value"] == "-1/6"
    assert rec["approx"] == "-0.1667"
    poly = run_cli("poly", "mp-cauchy-1", "--n", "2", "--decimals", "2")
    assert records(poly)[0]["approx"] == ["-0.17", "0.00", "1.00"]


def test_decimals_is_bounded_by_the_exponent_bound(capsys):
    # _approx builds 10^D, so --decimals shares the exponent bound: its
    # largest value still renders, and one past it is a usage error.
    assert main(["number", "mp-cauchy-1", "--n", "2", "--decimals", "10000"]) == 0
    (rec,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rec["approx"] == "-0.1" + "6" * 9998 + "7"
    with pytest.raises(SystemExit) as exited:
        main(["number", "mp-cauchy-1", "--n", "2", "--decimals", "10001"])
    assert exited.value.code == 2
    assert "must be at most 10000" in capsys.readouterr().err


def test_csv_format():
    proc = run_cli("number", "mp-cauchy-1", "--n", "2", "--format", "csv")
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


def test_table_has_no_first_kind_noncentral_name():
    # Only the second-kind non-central table is built.
    assert _exit_code(["table", "noncentral-1", "--n-max", "2", "--alpha", "1,2"]) == 2


def test_table_decimals_adds_an_approx_field(capsys):
    assert main(["table", "lah", "--n-max", "2", "--decimals", "2"]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows[2]["value"] == ["0", "2", "1"]
    assert [r["approx"] for r in rows] == [
        ["1.00"], ["0.00", "-1.00"], ["0.00", "2.00", "1.00"]
    ]
    argv = ["table", "comtet-1", "--n-max", "1", "--alpha", "1/3", "--format", "csv"]
    assert main(argv + ["--decimals", "3"]) == 0
    header, _, row = capsys.readouterr().out.splitlines()
    assert header == "family,params,value,mode,approx"
    assert row.endswith(',"[""-0.333"",""1.000""]"')
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "family,params,value,mode"
    # Zero places round half to even and print no "-0": row 1 is (-a, 1).
    for alpha, approx in (("-1/2", "0"), ("1/2", "0"), ("3/2", "-2")):
        argv = ["table", "comtet-1", "--n-max", "1", f"--alpha={alpha}"]
        assert main(argv + ["--decimals", "0"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rows[1]["approx"] == [approx, "1"]


@pytest.mark.parametrize("family", ["stirling-1", "stirling-2", "lah"])
@pytest.mark.parametrize("flag", [("--alpha", "1,2"), ("--q", "1")])
def test_classical_tables_reject_parameters(family, flag, capsys):
    assert main(["table", family, "--n-max", "2", *flag]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"precondition violated: table family {family!r} takes no --alpha or --q\n"
    )


def test_bad_rational_is_a_usage_error():
    assert run_cli("number", "mp-cauchy-1", "--n", "2",
                   "--lengths", "1/0").returncode == 2
    assert run_cli("number", "mp-cauchy-1", "--n", "2",
                   "--alpha", "x").returncode == 2
    assert run_cli("number", "mp-cauchy-1").returncode == 2


def test_zero_length_is_a_precondition_violation():
    proc = run_cli("number", "mp-cauchy-1", "--n", "2", "--lengths", "0")
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


@pytest.mark.parametrize("ids", ["bogus", ",", "T2.1,bogus,x"])
def test_verify_ids_errors_are_the_sweeps_own(ids, capsys):
    with pytest.raises(ValueError) as refused:
        sweep(ids=[part for part in ids.split(",") if part])
    with pytest.raises(SystemExit) as exited:
        main(["verify", "--ids", ids])
    assert exited.value.code == 2
    assert capsys.readouterr().err.endswith(f": {refused.value}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--n-max", "-1"),
        ("verify", "--k-max", "0"),
        ("verify", "--points", "-3"),
        ("verify", "--order", "-1"),
        ("verify", "--ids", ","),
        ("number", "mp-cauchy-1", "--n", "2", "--decimals", "-1"),
        ("number", "mp-cauchy-1", "--n", "2", "--decimals", "1000000000"),
        ("table", "lah", "--n-max", "-1"),
        ("number", "mp-cauchy-1", "--n", "-1"),
        ("number", "mp-cauchy-1", "--n", "2", "--k", "0"),
        ("poly", "mp-bernoulli", "--n", "-2"),
        ("poly", "mp-cauchy-2", "--n", "1", "--k", "-1"),
        # Each integer flag past its bound is refused before any work: a
        # --k of 10^9 would build a 10^9-entry box.
        ("number", "mp-cauchy-1", "--n", "10001"),
        ("number", "mp-cauchy-1", "--n", "1", "--k", "10001"),
        ("poly", "mp-bernoulli", "--n", "10001"),
        ("poly", "mp-cauchy-2", "--n", "1", "--k", "10001"),
        ("table", "lah", "--n-max", "10001"),
        ("verify", "--n-max", "10001"),
        ("verify", "--k-max", "10001"),
        ("verify", "--points", "10001"),
        ("verify", "--order", "10001"),
    ],
)
def test_out_of_range_flags_are_usage_errors(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: argument" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 512


# Commands that exit 0 and write nothing to stderr, each run as a child under
# `-X dev -W error`. Each key says what its command covers.
_CLEAN_RUNS = {
    "errata-seed-7": "verify --errata --seed 7",
    "series-ids-order-8": "verify --ids T4.1,GF-Lif,GF-Li --order 8 --k-max 3",
    "series-ids-order-12-seed-4": (
        "verify --ids T4.1,GF-Lif,GF-Li --order 12 --k-max 3 --seed 4"
    ),
    "polynomial-and-special-value-ids-k-3": (
        "verify --ids T5.1a,T5.1b,C5.1a,C5.1b,CASES-2,CASES-3 --k-max 3"
    ),
    "expansion-ids-n-8-k-3": (
        "verify --ids T4.2a,T4.2b,C4.1a,C4.1b,T4.3a,T4.3b,C4.2a,C4.2b,"
        "T5.2a,T5.2b,T5.2c,T5.2d --n-max 8 --k-max 3"
    ),
    "definition-and-closed-form-ids-n-8-k-3": (
        "verify --ids T2.1,C2.1,T3.1,C3.1,CASES-2,CASES-3 --n-max 8 --k-max 3"
    ),
    "absolute-row-stated-readings-one-sign-webs-one-pass-GF-Lif-deeper": (
        "verify --ids T3.1,C3.1,T5.1a,C5.1a,T5.2a,GF-Lif,CASES-2,CASES-3"
        " --n-max 10 --k-max 3 --order 12 --seed 3"
    ),
    "rows-read-as-X^n-moved-by-_rebase": (
        "verify --ids T2.2,T2.3,T3.1,T3.2,C2.2,C3.2,CASES-2,CASES-3"
        " --n-max 12 --k-max 3 --seed 5"
    ),
    "two-readings-that-share-a-Lah-row-a-sample-pass-or-a-sum": (
        "verify --ids T3.2,C3.2,T5.1a,C5.1a,T5.2a,CASES-2 --n-max 12 --k-max 3 --seed 9"
    ),
    "ids-that-name-their-route-check-or-row-in-their-arguments": (
        "verify --ids T2.1,C2.1,T2.2,C2.2,T2.4,T5.1a,T5.1b,C5.1a,C5.1b,GF-Lif,GF-Li"
        " --n-max 10 --k-max 3 --order 10 --seed 11"
    ),
    "single-integral-corollaries-built-from-their-parents": (
        "verify --ids C2.1,C2.2,C3.1,C3.2,C4.1a,C4.1b,C4.2a,C4.2b,C5.1a,C5.1b"
        " --n-max 10 --seed 13"
    ),
    "number-csv-decimals": "number mp-bernoulli --n 5 --format csv --decimals 3",
    "alpha-of-4401-digits-past-the-int-str-limit": (
        "number mp-cauchy-1 --n 1 --alpha 1" + "0" * 4400
    ),
    "number-bernoulli-verbatim": (
        "number mp-bernoulli --n 4 --k 2 --lengths 1/2,3 --mode verbatim"
    ),
    "poly-at-z": "poly mp-cauchy-2 --n 4 --alpha -1/2,3,0,2/3 --z 5/7",
    "poly-bernoulli-verbatim": (
        "poly mp-bernoulli --n 4 --k 2 --lengths 1/2,3 --mode verbatim"
    ),
    "table-lah": "table lah --n-max 5",
    "table-rational-target-nodes": (
        "table comtet-2 --alpha 1/2,-2/3,3,5/7,-4,9/2 --n-max 6"
        " --format csv --decimals 3"
    ),
    "table-rational-source-nodes": "table noncentral-2 --q 1/3 --n-max 6",
    "bernoulli-row-at-rational-targets-n-120": (
        "number mp-bernoulli --n 120 --k 2 --lengths 1/2,3 --q -2/3"
    ),
    "signless-polynomial-row-n-40": (
        "poly mp-cauchy-2 --n 40 --q 3/5 --k 2 --lengths 2,-1/3"
    ),
    "whole-table-n-40": "table noncentral-2 --q 1/3 --n-max 40",
}


@pytest.mark.parametrize("argv", _CLEAN_RUNS.values(), ids=_CLEAN_RUNS)
def test_a_command_exits_0_with_nothing_on_stderr(argv):
    proc = run_cli(*argv.split())
    assert (proc.returncode, proc.stderr) == (0, "")


def test_verify_errata_is_a_single_document():
    proc = run_cli(
        "verify", "--ids", "T3.1", "--n-max", "2", "--k-max", "1",
        "--points", "5", "--errata",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert [e["identity"] for e in doc["entries"]] == ["T3.1"]
    assert doc["entries"][0]["counterexample"]["point"]["n"] >= 0


def test_verify_errata_csv_of_an_empty_ledger_is_the_header_alone(capsys):
    argv = ["verify", "--ids", "T2.1", "--points", "2", "--errata", "--format", "csv"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (
        "identity,statement,corrected_reading,verbatim_failures,"
        "points_checked,counterexample\n"
    )
    assert list(csv.DictReader(io.StringIO(out))) == []


def test_verify_counts_a_repeated_id_once(capsys):
    ledgers = []
    for ids in ("T3.1", "T3.1,T3.1"):
        assert main(["verify", "--ids", ids, "--errata"]) == 0
        ledgers.append(json.loads(capsys.readouterr().out))
    assert ledgers[1] == ledgers[0]
    entry = ledgers[1]["entries"][0]
    assert (entry["points_checked"], entry["verbatim_failures"]) == (20, 8)


def test_verify_with_too_few_distinct_parameters_exits_3():
    # 511 rationals have height at most 20; order 511 needs 512 of them.
    proc = run_cli("verify", "--ids", "T4.1", "--order", "511")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "precondition violated" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_output_is_deterministic():
    args = ("verify", "--ids", "T2.1,T4.2a", "--n-max", "3", "--k-max", "1",
            "--points", "2")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout


@pytest.mark.parametrize("variant", sorted(VERIFY_SHA256))
def test_verify_stdout_matches_the_golden_hashes(variant, capsys):
    argv, digest, exit_code = VERIFY_SHA256[variant]
    code = main(["verify", *argv])
    stdout, stderr = capsys.readouterr()
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
    assert (code, stderr) == (exit_code, "")


# The sha256 of each command line's --help at 80 columns (argparse wraps at
# the width COLUMNS gives), taken under Python 3.11. They pin every flag,
# choice, default shown and help string of the parser.
HELP_SHA256 = {
    "polyfam": "a68a349a51b558b8740098cc9aa3dcb872eb7bfd28d30f27c11f5c7091997be8",
    "polyfam number": "d0ca4aa959bcad4d4b99b4e5be997b8a1b4d7050b895ef992963555331ef6221",
    "polyfam poly": "2b22409e6b865de72dd465240020bfe34247167112bd62626441374bb07566c2",
    "polyfam table": "4a2e81dea28216426f7dc5dddebcde3383258b977cc7f4e5a570ab8b746398ec",
    "polyfam verify": "57b5e1d295a80aae36745b2117747f0bda9df126da76de7c44c28e9ffbf164aa",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_matches_the_golden_hashes(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        main([*command.split()[1:], "--help"])
    assert exited.value.code == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == HELP_SHA256[command]


def _exit_code(argv):
    """Run cli.main in process, silenced; only SystemExit may escape it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


_id_lists = st.lists(
    st.sampled_from(IDENTITY_IDS + ("all", "bogus", "")), min_size=1, max_size=3
).map(",".join)
_verify_flags = st.fixed_dictionaries(
    {
        "--n-max": st.sampled_from(["-1", "0", "1", "2"]),
        "--points": st.sampled_from(["-1", "0", "1"]),
    },
    optional={
        "--ids": _id_lists,
        "--k-max": st.sampled_from(["0", "1", "2", "x"]),
        "--seed": st.integers(-2, 3).map(str),
        "--order": st.sampled_from(["-1", "0", "2"]),
        "--mode": st.sampled_from(["corrected", "verbatim", "both"]),
        "--format": st.sampled_from(["json", "csv"]),
    },
)


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(flags=_verify_flags, errata=st.booleans())
def test_verify_argv_grammar_keeps_the_exit_code_contract(flags, errata):
    argv = ["verify"] + [part for item in flags.items() for part in item]
    argv += ["--errata"] if errata else []
    code = _exit_code(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        args = build_parser().parse_args(argv)
        grid = GridSpec(
            n_max=args.n_max,
            k_max=args.k_max,
            points=args.points,
            series_order=args.order,
        )
        reports = sweep(ids=args.ids, grid=grid, seed=args.seed)
        column = [getattr(r, args.mode) for r in reports]
        assert (code == 1) == (FAIL in column)


_ints = st.sampled_from(["-1", "0", "1", "2", "x"])
_shared_flags = {
    "--alpha": st.sampled_from(["", "1/2,-3", "0,0,1/7", "1/0", "-1/2,1"]),
    "--q": st.sampled_from(["-2/3", "0", "x"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--decimals": st.sampled_from(["-1", "0", "3"]),
}
_value_flags = st.fixed_dictionaries(
    {"--n": _ints},
    optional={
        "--k": st.sampled_from(["-1", "0", "1", "3"]),
        "--lengths": st.sampled_from(["1", "2,-1/3", "0,1", "1,1,1"]),
        "--mode": st.sampled_from(["corrected", "verbatim", "both"]),
        "--z": st.sampled_from(["1/2", "-3", "z", "-1/2"]),
        **_shared_flags,
    },
)
_table_flags = st.fixed_dictionaries({}, optional={"--n-max": _ints, **_shared_flags})
_argvs = st.one_of(
    st.tuples(
        st.sampled_from(["number", "poly"]),
        st.sampled_from(NUMBER_FAMILIES + ("bogus",)),
        _value_flags,
    ),
    st.tuples(
        st.just("table"),
        st.sampled_from(tuple(TABLE_FAMILIES) + ("bogus",)),
        _table_flags,
    ),
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(_argvs)
def test_value_and_table_argv_grammar_keeps_the_exit_code_contract(argv_parts):
    command, family, flags = argv_parts
    argv = [command, family] + [part for item in flags.items() for part in item]
    code = _exit_code(argv)
    # No identity is checked here, so exit 1 never fits.
    assert code in (0, 2, 3)
    lows = {"--n": 0, "--n-max": 0, "--k": 1}
    if any(flags.get(f, "x") != "x" and int(flags[f]) < low for f, low in lows.items()):
        assert code == 2
    # The Cauchy types have no summation convention to read.
    if family.startswith("mp-cauchy") and flags.get("--mode") == "verbatim":
        assert code != 0


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "comtet-1", "--n-max", "2", "--q", "-2/3"],
        ["number", "mp-cauchy-1", "--n", "2", "--alpha", "-1/2,1"],
        ["number", "mp-cauchy-1", "--n", "1", "--lengths", "-1/2"],
        ["poly", "mp-bernoulli", "--n", "2", "--z", "-1/2"],
    ],
)
def test_a_negative_rational_flag_value_may_follow_a_space(argv, capsys):
    assert main(argv) == 0
    spaced = capsys.readouterr().out
    assert main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"]) == 0
    assert spaced and capsys.readouterr().out == spaced


def test_a_value_past_the_int_string_digit_limit_prints_in_full():
    # 1/2 - 10^5000: a 5001-digit numerator, past CPython's default limit of
    # 4300 digits for int/str conversion.
    proc = run_cli("number", "mp-cauchy-1", "--n", "1", "--alpha", "1e5000")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["value"] == "-1" + "9" * 5000 + "/2"


@pytest.mark.parametrize("flag", ["--alpha", "--q", "--lengths", "--z"])
@pytest.mark.parametrize("exponent", ["1e400000000", "1e-400000000"])
def test_a_huge_exponent_is_a_usage_error_at_once(flag, exponent, capsys):
    # Fraction would build 10^400000000 and never return.
    argv = ["poly" if flag == "--z" else "number", "mp-cauchy-1", "--n", "1"]
    started = time.monotonic()
    with pytest.raises(SystemExit) as exit_:
        main([*argv, flag, exponent])
    assert time.monotonic() - started < 1.0
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"argument {flag}: exponent out of range" in err
    assert "at most 10000 in magnitude" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
def test_main_restores_the_int_string_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert main(["number", "mp-cauchy-1", "--n", "1", "--alpha", "1e5000"]) == 0
    assert main(["number", "mp-cauchy-1", "--n", "0", "--lengths", "0"]) == 3
    with pytest.raises(SystemExit):
        main(["number", "mp-cauchy-1"])
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().out.count("9" * 5000) == 1


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_a_literal_written_in_full_reads_like_its_exponent_form(capsys):
    # 10^4400 has 4401 digits, past CPython's default limit of 4300.
    limit, argv = _digit_limit(), ["number", "mp-cauchy-1", "--n", "1", "--alpha"]
    assert main([*argv, "1" + "0" * 4400]) == 0
    assert _digit_limit() == limit
    full = capsys.readouterr()
    assert main([*argv, "1e4400"]) == 0
    assert _digit_limit() == limit
    assert full.out and full.err == ""
    assert capsys.readouterr() == full


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "1", "--alpha", "1" * 10_001], "--alpha: 10001 digits (at most 10000)"),
        (["--n", "1" * 4401], "--n: must be at most 10000, got 1111"),
    ],
)
def test_a_literal_past_the_bound_is_a_usage_error(argv, message, capsys):
    limit = _digit_limit()
    with pytest.raises(SystemExit) as exit_:
        main(["number", "mp-cauchy-1", *argv])
    assert _digit_limit() == limit
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {message}" in err
    assert "Traceback" not in err
    assert len(err.encode()) < 512


@pytest.mark.parametrize(
    "argv",
    [
        ["number", "mp-cauchy-1", "--n", "1" * 4401],
        ["number", "mp-cauchy-1", "--n", "-" + "1" * 600],
        ["number", "mp-cauchy-1", "--n", "1", "--alpha", "x" + "1" * 4999],
        ["verify", "--ids", "x" * 5000],
        # argparse's own messages: an invalid choice, an unrecognized
        # argument and an invalid int.
        ["number", "--n", "1", "x" * 5000],
        ["table", "x" * 5000],
        ["number", "mp-cauchy-1", "--n", "1", "--format", "x" * 5000],
        ["verify", "--mode", "x" * 5000],
        ["verify", "x" * 5000],
        ["verify", "--seed", "1" * 5000],
        ["verify", "--ids", ",".join(["x"] * 2500)],
        # Whatever the argument holds: spaces, quotes.
        ["number", "mp-cauchy-1", "--n", "1", "--alpha", " ".join(["x"] * 2500)],
        ["number", "mp-cauchy-1", "--n", " ".join(["1"] * 2500)],
        ["number", "mp-cauchy-1", "--n", "1", "--alpha", "x'" * 2500],
    ],
    ids=[
        "n-4401-digits",
        "n-600-digits-negative",
        "alpha-5000",
        "ids-5000",
        "number-family-5000",
        "table-family-5000",
        "format-5000",
        "verify-mode-5000",
        "unrecognized-5000",
        "seed-5000-digits",
        "ids-2500-unknown",
        "alpha-spaced-5000",
        "n-spaced-5000",
        "alpha-quoted-5000",
    ],
)
def test_a_usage_error_names_a_long_argument_by_its_start_and_length(argv, capsys):
    # The message keeps its start and the argument's first 40 characters,
    # then names the argument's length in place of the rest.
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.encode()) < 512
    assert argv[-1][:40] in err and f"… ({len(argv[-1])} characters)" in err


@pytest.mark.parametrize(
    "argv, parts",
    [
        (
            ["verify", *["x"] * 2500],
            ["unrecognized arguments: x x x", "… (5023 characters)"],
        ),
        (
            ["verify", "--ids", "T2.1," + "x" * 5000],
            ["unknown identity ids: " + "x" * 40, "… (5038 characters)"],
        ),
        (
            ["number", "mp-cauchy-1", "--n", "1", "--alpha=" + "x" * 5000],
            ["'" + "x" * 40 + "… (5000 characters)'"],
        ),
        (
            ["number", "mp-cauchy-1", "--n", "1", "--alpha", "\x01" * 200],
            ["'" + r"\x01" * 10 + "… (200 characters)'"],
        ),
        (
            ["number", "x" * 5000, "--n", "1"],
            ["invalid choice: '" + "x" * 40 + "… (5000 characters)'"],
        ),
        # Bounded in bytes: each of these characters takes four.
        (
            ["verify", *["\U0001d465" * 40] * 6],
            ["unrecognized arguments: " + "\U0001d465" * 34, "… (269 characters)"],
        ),
        (
            ["poly", "mp-cauchy-1", "--n", "1", "--lengths", "\U0001d465" * 40],
            ["not a rational number: '" + "\U0001d465" * 40 + "'"],
        ),
    ],
    ids=[
        "unrecognized-2500-words",
        "ids-one-long-piece",
        "alpha-equals-5000",
        "alpha-escaped-200",
        "number-family-first-5000",
        "unrecognized-six-wide-40",
        "lengths-wide-40",
    ],
)
def test_a_usage_error_stays_short_whatever_the_arguments(argv, parts, capsys):
    # An argument given as --flag=value, or shown escaped by repr(), is named
    # by its start and length too; a message still long (many arguments, or
    # a long piece of one) keeps its start and names its own length.
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.encode()) < 512
    assert all(part in err for part in parts)


def test_undecodable_arguments_are_bounded_in_the_bytes_stderr_writes():
    # Each \xff byte reaches argparse as "\udcff", which stderr writes as six
    # bytes; pytest's own capture cannot write it, so this runs as a child.
    proc = run_cli("verify", *["\udcff" * 40] * 6)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.encode()) < 512
    assert "unrecognized arguments: " + r"\udcff" * 20 in proc.stderr


@pytest.mark.parametrize(
    "argv, parts",
    [
        (["table", "foo"], ["(choose from ", *TABLE_FAMILIES]),
        (["number", "mp-cauchy-1", "--n", "-1"], ["must be at least 0, got -1"]),
    ],
    ids=["table-choices", "n-negative"],
)
def test_a_short_usage_error_is_left_whole(argv, parts, capsys):
    # Shortening bounds a long argument; it never cuts a short message.
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    message = capsys.readouterr().err.partition(" error: ")[2]
    assert "characters)" not in message
    assert all(part in message for part in parts)


def test_main_is_importable_and_returns_exit_codes(capsys):
    assert main(["number", "mp-cauchy-1", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["value"] == "1/2"


@pytest.mark.skipif(
    shutil.which("polyfam") is None, reason="console script not on PATH"
)
def test_console_script_entry_point():
    proc = subprocess.run(
        ["polyfam", "number", "mp-cauchy-2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "5/6"


@pytest.mark.parametrize(
    "args, code",
    [
        (("table", "lah", "--n-max", "300"), 0),
        (("table", "lah", "--n-max", "300", "--format", "csv"), 0),
        (("verify", "--mode", "verbatim"), 1),
        (("verify",), 0),
    ],
    ids=["table-json", "table-csv", "verify-json", "verify-default"],
)
def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(args, code):
    # As `| head -1`: one line is read and the pipe closed while the command
    # still writes (each output is larger than a pipe holds). It returns its
    # own status and writes nothing to stderr.
    proc = subprocess.Popen(
        [*CLI, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert first and err == b""
