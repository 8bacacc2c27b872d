import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symprice
from symprice import families, io, search, transforms
from symprice.cli import build_parser, main
from symprice.digraph import ORDER_CAP, Digraph
from symprice.errors import InvariantViolation
from symprice.families import cycle
from symprice.invariants import INVARIANTS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_text(capsys):
    code, out, _ = run(capsys, "construct", "--family", "cycle:3")
    assert code == 0
    assert io.from_text(out) == cycle(3)


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--family", "backward:4", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "symprice/1"
    assert obj["graph"]["n"] == 4


def test_price_diameter_backward(capsys):
    code, out, _ = run(capsys, "price", "--family", "backward:6",
                       "--invariant", "diameter")
    assert code == 0
    assert "pos_minus    4" in out


def test_price_json_schema(capsys):
    code, out, _ = run(capsys, "price", "--family", "cycle:4",
                       "--invariant", "transmission", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["schema"] == "symprice/1"
    assert obj["price"]["pos_minus"] == {"num": 8, "den": 1}


def test_invariant_from_file(capsys, tmp_path):
    p = tmp_path / "g.txt"
    io.write_graph_file(cycle(5), p)
    code, out, _ = run(capsys, "invariant", "--in", str(p),
                       "--invariant", "transmission")
    assert code == 0
    assert "50" in out


def test_verify_closed_forms_csv(capsys):
    code, out, _ = run(capsys, "verify-closed-forms", "--max-n", "12")
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert rows and all(r["match"] == "True" for r in rows)
    assert {r["parity"] for r in rows} == {"even", "odd"}


def test_verify_closed_forms_json(capsys):
    code, out, _ = run(capsys, "verify-closed-forms", "--max-n", "12", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["schema"] == "symprice/1" and obj["ok"]
    assert obj["rows"] and all(r["match"] for r in obj["rows"])
    assert obj["rows"][0]["k"] is None


@pytest.mark.parametrize("max_n", ["1", "0", "-3"])
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_verify_closed_forms_rejects_empty_range(capsys, max_n, fmt):
    # below 2 the table would be empty: a vacuous pass
    code, out, err = run(capsys, "verify-closed-forms", "--max-n", max_n, *fmt)
    assert code == 1
    assert out == "" and err == f"error: --max-n must be at least 2, got {max_n}\n"


@pytest.mark.parametrize("command", ["price", "invariant"])
def test_graph_source_is_exactly_one_of_family_and_in(capsys, tmp_path, command):
    p = tmp_path / "g.txt"
    io.write_graph_file(cycle(5), p)
    both = ["--family", "cycle:3", "--in", str(p)]
    for source in (both, []):
        code, out, err = run(capsys, command, *source, "--invariant", "transmission")
        assert code == 1 and out == ""
        assert "--family" in err and "--in" in err
    for source, value in ((both[:2], "9"), (both[2:], "50")):
        code, out, _ = run(capsys, command, *source, "--invariant", "transmission")
        assert code == 0 and value in out


def test_invariant_skips_closure(capsys, monkeypatch):
    def closure(self):
        raise AssertionError("invariant must not build the symmetric closure")

    monkeypatch.setattr(Digraph, "symmetric_closure", closure)
    for name in INVARIANTS:
        code, out, _ = run(capsys, "invariant", "--family", "cycle:5", "--invariant", name)
        assert code == 0 and out.startswith(f"{name}: ")


def test_kstar(capsys):
    code, out, _ = run(capsys, "kstar", "--n", "11", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["candidates"] == [4, 5]
    assert obj["k_star"] == 4


def test_kstar_domain_error(capsys):
    code, _, err = run(capsys, "kstar", "--n", "7")
    assert code == 2
    assert "11" in err


def test_kstar_beyond_float_range_is_a_size_error(capsys):
    # the reported float r overflows from n = 2**1024: one error line, no traceback
    for n in (2**1024, 10**400):
        code, out, err = run(capsys, "kstar", "--n", str(n))
        assert code == 2 and out == ""
        assert err == f"error: n of {n.bit_length()} bits does not fit a float\n"
    code, out, _ = run(capsys, "kstar", "--n", str(2**1023))
    assert code == 0 and out.startswith(f"n          {2**1023}")


def test_transform_roundtrip(capsys, tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    trace = tmp_path / "trace.json"
    io.write_graph_file(cycle(3).symmetric_closure(), src)
    code, out, _ = run(capsys, "transform", "--rule", "critical",
                       "--in", str(src), "--out", str(dst),
                       "--trace", str(trace))
    assert code == 0
    g = io.parse_graph_file(dst)
    assert g.is_strongly_connected()
    t = json.loads(trace.read_text())
    assert t["schema"] == "symprice/1"
    assert t["pos_after"] >= t["pos_before"]


def test_transform_no_bridge(capsys, tmp_path):
    src = tmp_path / "in.txt"
    io.write_graph_file(cycle(4), src)
    code, _, err = run(capsys, "transform", "--rule", "break-c2",
                       "--in", str(src))
    assert code == 2
    assert "2-cycle" in err


def test_transform_t1_refuses_orders_above_the_path_cap(capsys, tmp_path):
    src = tmp_path / "in.txt"
    io.write_graph_file(cycle(transforms.EXACT_PATH_LIMIT + 1), src)
    code, _, err = run(capsys, "transform", "--rule", "t1", "--in", str(src))
    assert code == 2
    assert err.startswith("error: longest induced path supported up to")


HUGE = 10 ** 12  # an order no process could hold


@pytest.mark.parametrize("argv", [
    ["construct", "--family", f"path:{HUGE}"],
    ["construct", "--family", f"cycle:{HUGE}"],
    ["price", "--family", f"bag:{HUGE}:5", "--invariant", "transmission"],
    ["price", "--in", "{tmp}/g.txt", "--invariant", "transmission"],
    ["price", "--in", "{tmp}/g.json", "--invariant", "transmission"],
], ids=["path", "cycle", "bag", "text-file", "json-file"])
def test_orders_above_the_order_cap_are_refused(capsys, tmp_path, argv):
    # refused before anything of that order is built, so each case ends at once
    (tmp_path / "g.txt").write_text(f"n {HUGE}\n0 1\n")
    (tmp_path / "g.json").write_text(json.dumps({"n": HUGE, "arrows": []}))
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: graph order capped at n={ORDER_CAP}, got {HUGE}\n"


@pytest.mark.parametrize("argv", [
    ["verify-conjecture", "--n", "7"],
    ["verify-theorems", "--n", "7"],
    ["search", "--mode", "exhaustive", "--n", "7"],
], ids=["verify-conjecture", "verify-theorems", "exhaustive-search"])
def test_orders_beyond_the_code_space_are_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: digraph enumeration at n=7 has 42 slots; a scan covers at most 2^30 codes\n"


@pytest.mark.parametrize("argv, module, work", [
    (["search", "--mode", "heuristic", "--n", str(ORDER_CAP + 1)], search, "_warm_starts"),
    (["verify-closed-forms", "--max-n", str(ORDER_CAP + 1)], families, "family_spec"),
], ids=["heuristic-search", "verify-closed-forms"])
def test_orders_above_the_order_cap_are_refused_before_specs_are_built(
        capsys, monkeypatch, argv, module, work):
    # the spec lists grow as O(n) and O(max_n^2): none of them is started
    calls, build = [], getattr(module, work)

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(module, work, spy)
    code, out, err = run(capsys, *argv)
    assert (code, out, len(calls)) == (2, "", 0)
    assert err == f"error: graph order capped at n={ORDER_CAP}, got {ORDER_CAP + 1}\n"


@pytest.mark.parametrize("argv, work", [
    (["price", "--in", "{tmp}/missing.txt", "--invariant", "transmission"], "symprice.cli.price"),
    (["price", "--in", "{tmp}", "--invariant", "transmission"], "symprice.cli.price"),
    (["price", "--family", "cycle:3", "--invariant", "transmission", "--out", "{tmp}/no/p.txt"],
     "symprice.cli.price"),
    (["search", "--mode", "exhaustive", "--n", "3", "--out", "{tmp}/no/r.json"],
     "symprice.search.exhaustive_search"),
    (["search", "--mode", "heuristic", "--n", "12", "--out", "{tmp}/no/r.json"],
     "symprice.search.hill_climb"),
    (["transform", "--rule", "critical", "--in", "{tmp}/g.txt", "--out", "{tmp}/no/h.txt"],
     "symprice.transforms.make_critical"),
    (["transform", "--rule", "critical", "--in", "{tmp}/g.txt", "--trace", "{tmp}/no/t.json"],
     "symprice.transforms.make_critical"),
    (["verify-conjecture", "--n", "5", "--out", "{tmp}"], "symprice.search.verify_conjecture"),
], ids=["missing-input", "directory-input", "price-out", "search-out", "heuristic-search-out",
        "transform-out", "transform-trace", "directory-out"])
def test_file_errors_exit_1_without_traceback(capsys, monkeypatch, tmp_path, argv, work):
    # the work function never runs: files are checked before it starts
    calls = []
    monkeypatch.setattr(work, lambda *args, **kwargs: calls.append(args))
    io.write_graph_file(cycle(3), tmp_path / "g.txt")
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not calls


def test_output_check_leaves_files_as_they_were(capsys, tmp_path):
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_text("kept\n")
    for out in (new, old):
        code, _, _ = run(capsys, "price", "--family", "cycle:40", "--invariant", "domination",
                         "--out", str(out))
        assert code == 2
    assert not new.exists() and old.read_text() == "kept\n"


def test_json_with_non_integer_numbers_is_a_format_error(capsys, tmp_path):
    src = tmp_path / "f.json"
    src.write_text('{"n": 3.7, "arrows": [[0.9, 1.2], [1, 2], [2, 0]]}')
    code, _, err = run(capsys, "price", "--in", str(src), "--invariant", "transmission")
    assert code == 1
    assert err == "error: bad graph JSON: expected an integer, got 3.7\n"


@pytest.mark.parametrize("name, text", [
    ("g.txt", "n 3\n0 1\n1 2\n2 0\n0 1\n"),
    ("g.json", '{"n": 3, "arrows": [[0, 1], [1, 2], [2, 0], [0, 1]]}'),
], ids=["text", "json"])
def test_repeated_arrow_is_one_warning_line_and_priced_once(capsys, tmp_path, name, text):
    src = tmp_path / name
    src.write_text(text)
    code, out, err = run(capsys, "price", "--in", str(src), "--invariant", "transmission")
    _, want, _ = run(capsys, "price", "--family", "cycle:3", "--invariant", "transmission")
    assert code == 0 and out == want
    assert len(err.splitlines()) == 1 and err.startswith("warning: duplicate arrow (0,1) at ")


def test_search_exhaustive_report(capsys, tmp_path):
    rep = tmp_path / "report.json"
    code, out, _ = run(capsys, "search", "--mode", "exhaustive", "--n", "4",
                       "--objective", "sigma", "--out", str(rep))
    assert code == 0
    obj = json.loads(rep.read_text())
    assert obj["schema"] == "symprice/1"
    assert obj["best_value"] == 8
    assert io.from_text(obj["maximizers"][0]).n == 4


def test_search_heuristic(capsys):
    code, out, _ = run(capsys, "search", "--mode", "heuristic", "--n", "5",
                       "--objective", "sigma", "--budget", "1200", "--seed", "1")
    assert code == 0
    assert "best sigma price at n=5: 20" in out


def test_search_heuristic_report_records_restarts(capsys, tmp_path):
    rep = tmp_path / "report.json"
    code, _, _ = run(capsys, "search", "--mode", "heuristic", "--n", "6",
                     "--budget", "600", "--seed", "2", "--out", str(rep))
    assert code == 0
    obj = json.loads(rep.read_text())
    restarts = obj["restarts"]
    assert [r["start"] for r in restarts[:6]] == ["cycle:6", "backward:6", "bag:6:3",
                                                  "bag:6:4", "bag:6:5", "random"]
    assert sum(r["evals"] for r in restarts) == obj["graphs_visited"]
    assert max(r["end_value"] for r in restarts) == obj["best_value"]
    assert all(r["end_value"] >= r["start_value"] for r in restarts)


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_rejects_non_positive_budget(capsys, budget):
    code, _, err = run(capsys, "search", "--mode", "heuristic", "--n", "6", "--budget", budget)
    assert code == 1
    assert "budget must be positive" in err


@pytest.mark.parametrize("budget", ["1", "14"])
def test_search_rejects_budget_below_start_count(capsys, budget):
    # n = 12: cycle, backward tournament, 9 bags and 4 random starts
    code, out, err = run(capsys, "search", "--mode", "heuristic", "--n", "12", "--budget", budget)
    assert code == 1 and out == ""
    assert err == f"error: budget must be at least 15 at n=12, one evaluation per start, got {budget}\n"


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_search_rejects_thread_count_below_one(capsys, monkeypatch, threads):
    # read as one worker before; a usage error like a non-integer value
    monkeypatch.setenv("SYMPRICE_THREADS", threads)
    code, out, err = run(capsys, "search", "--mode", "heuristic", "--n", "6", "--budget", "100")
    assert code == 1 and out == ""
    assert err == f"error: SYMPRICE_THREADS must be at least 1, got '{threads}'\n"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_search_exhaustive_rejects_order_below_one(capsys, n):
    code, out, err = run(capsys, "search", "--mode", "exhaustive", "--n", n)
    assert code == 1 and out == ""
    assert err == f"error: order must be >= 1, got {n}\n"


def test_domination_search_rejects_order_below_one(capsys):
    # the enumeration refuses the order for the scan of all digraphs too
    code, out, err = run(capsys, "search", "--mode", "exhaustive", "--n", "0", "--objective", "domination")
    assert code == 1 and out == ""
    assert err == "error: order must be >= 1, got 0\n"


@pytest.mark.parametrize("flag", [["--budget", "100"], ["--seed", "3"]])
def test_search_exhaustive_rejects_heuristic_flags(capsys, flag):
    code, _, err = run(capsys, "search", "--mode", "exhaustive", "--n", "3", *flag)
    assert code == 1
    assert "heuristic only" in err


def test_domination_size_guard(capsys):
    code, out, err = run(capsys, "price", "--family", "cycle:40", "--invariant", "domination")
    assert code == 2
    assert err.startswith("error: domination number capped") and "Traceback" not in err


def test_verify_theorems_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-theorems", "--n", "4")
    assert code == 0 and "[ok]" in out
    code, out, _ = run(capsys, "verify-theorems", "--n", "3")
    assert code == 3 and "FAIL" in out


def test_verify_conjecture(capsys):
    code, out, _ = run(capsys, "verify-conjecture", "--n", "4", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["ok"] and obj["best_value"] == 8


def test_usage_errors(capsys):
    assert main(["price", "--bogus"]) == 1
    assert main(["nope"]) == 1
    code, _, _ = run(capsys, "construct", "--family", "wat:3")
    assert code == 1
    assert main(["verify-closed-forms", "--csv"]) == 1


def test_successive_calls_share_no_state(capsys, tmp_path):
    # the parser is built once per process; every call parses afresh
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "kstar", "--n", "11", "--json")
    assert code == 0 and json.loads(out)["k_star"] == 4
    code, out, _ = run(capsys, "kstar", "--n", "11")
    assert code == 0 and out.startswith("n          11\n")
    report = tmp_path / "k.txt"
    code, out, _ = run(capsys, "kstar", "--n", "12", "--out", str(report))
    assert code == 0 and out == "" and report.read_text().startswith("n          12\n")
    code, out, _ = run(capsys, "kstar", "--n", "11")
    assert code == 0 and out.startswith("n          11\n")
    assert main(["kstar"]) == 1
    assert run(capsys, "kstar", "--n", "11")[0] == 0


def test_domain_error_exit(capsys):
    code, _, err = run(capsys, "price", "--family", "path:4",
                       "--invariant", "transmission")
    assert code == 2
    assert "unreachable" in err


def test_internal_error_exit(capsys, tmp_path, monkeypatch):
    def broken(g, p):
        raise InvariantViolation("X side not strongly connected")

    monkeypatch.setattr(transforms, "_check_partition", broken)
    src = tmp_path / "in.txt"
    io.write_graph_file(cycle(2), src)
    code, _, err = run(capsys, "transform", "--rule", "break-c2", "--in", str(src))
    assert code == 4
    assert err == "internal error: X side not strongly connected\n"


def test_closed_stdout_exits_quietly():
    src = str(Path(symprice.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "symprice.cli", "construct", "--family", "complete:200"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"n 200\n"
    proc.stdout.close()  # as `| head -1` does
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert err == b""
