import importlib.util
import json
from pathlib import Path

import pytest

from symprice import formulas
from symprice.cli import SCHEMA

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_closed_form_table_check_passes(capsys):
    script = load_script("closed_form_table")
    assert script.main(["--max-n", "12", "--check"]) == 0
    assert capsys.readouterr().err == ""


def test_closed_form_table_check_exits_3_on_mismatch(monkeypatch, capsys):
    script = load_script("closed_form_table")
    monkeypatch.setattr(formulas, "sigma_hnk", lambda n, k: -1)
    assert script.main(["--min-n", "11", "--max-n", "12", "--check"]) == 3
    err = capsys.readouterr().err
    assert "n=11" in err and "n=12" in err


@pytest.mark.parametrize("script, argv, minimum", [
    ("closed_form_table", ["--min-n", "3"], "--min-n must be at least 4"),
    ("conjecture_sweep", ["--min-n", "1"], "--min-n must be at least 2"),
    ("conjecture_sweep", ["--min-n", "7", "--max-n", "7", "--budget", "5"],
     "budget must be at least 10 at n=7"),
])
def test_scripts_reject_arguments_out_of_range(capsys, script, argv, minimum):
    with pytest.raises(SystemExit) as e:
        load_script(script).main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert minimum in err and "Traceback" not in err


@pytest.mark.parametrize("argv, modes", [
    (["--min-n", "4", "--max-n", "5"], ["exhaustive", "exhaustive"]),
    (["--min-n", "7", "--max-n", "7", "--budget", "100"], ["heuristic"]),
], ids=["enumerated", "beyond-enumeration"])
def test_conjecture_sweep_climbs_where_enumeration_stops(capsys, argv, modes):
    assert load_script("conjecture_sweep").main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == SCHEMA
    assert [r["mode"] for r in report["sweep"]] == modes
