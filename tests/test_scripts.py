"""The ``crossover`` and ``sweep`` subcommands, driven through
``cli.main``."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symprice
from symprice import cli, formulas
from symprice.cli import SCHEMA


def test_closed_form_table_check_passes(capsys):
    assert cli.main(["crossover", "--max-n", "12", "--check"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_closed_form_table_check_exits_3_on_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(formulas, "sigma_hnk", lambda n, k: -1)
    assert cli.main(["crossover", "--min-n", "11", "--max-n", "12", "--check"]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert "n=11" in err and "n=12" in err


@pytest.mark.parametrize("argv, minimum", [
    (["crossover", "--min-n", "3"], "--min-n must be at least 4"),
    (["sweep", "--min-n", "1"], "--min-n must be at least 2"),
    (["sweep", "--min-n", "7", "--max-n", "7", "--budget", "5"],
     "budget must be at least 10 at n=7"),
    (["crossover", "--min-n", "10", "--max-n", "9"], "--max-n must be at least --min-n (10), got 9"),
    (["sweep", "--min-n", "5", "--max-n", "4"], "--max-n must be at least --min-n (5), got 4"),
    (["sweep", "--max-n", "5", "--budget", "1"], "every order up to n=5 is enumerated"),
    (["sweep", "--min-n", "6", "--max-n", "6", "--seed", "3"], "every order up to n=6 is enumerated"),
], ids=["crossover-min-n", "sweep-min-n", "sweep-budget", "crossover-empty", "sweep-empty",
        "sweep-budget-unused", "sweep-seed-unused"])
def test_scripts_reject_arguments_out_of_range(capsys, argv, minimum):
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and minimum in err


def test_subcommands_refuse_orders_above_the_cap(capsys):
    # before any row: neither the table's first order nor a climb at n = 999
    for argv in (["sweep", "--min-n", "1001", "--max-n", "1001", "--budget", "2000"],
                 ["sweep", "--min-n", "999", "--max-n", "1001"],
                 ["crossover", "--min-n", "1000", "--max-n", "1001", "--check"]):
        assert cli.main(argv) == cli.EXIT_DOMAIN
        assert capsys.readouterr() == ("", "error: graph order capped at n=1000, got 1001\n")


def test_crossover_rows_to_a_closed_stdout_end_quietly():
    src = str(Path(symprice.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "symprice.cli", "crossover", "--max-n", "1000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().split() == [b"n", b"pos(C_n)", b"k", b"pos(H_n(k))", b"winner"]
    proc.stdout.close()  # as `| head -1` does
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""


@pytest.mark.parametrize("argv, modes", [
    (["--min-n", "4", "--max-n", "5"], ["exhaustive", "exhaustive"]),
    (["--min-n", "7", "--max-n", "7", "--budget", "100"], ["heuristic"]),
], ids=["enumerated", "beyond-enumeration"])
def test_conjecture_sweep_climbs_where_enumeration_stops(capsys, argv, modes):
    assert cli.main(["sweep", *argv, "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == SCHEMA
    assert [r["mode"] for r in report["sweep"]] == modes
