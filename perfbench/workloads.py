"""The two workloads: their fixed command lists, made from the seed.

Each command is what a user would type (an argv for ``symprice.cli.main``)
except the strong-tournament enumeration, which has no subcommand and is
run through ``search.enumerate_tournaments``.  Each workload function
also writes the input graphs its commands read, so it is part of the
set-up a user pays before the first command.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import oracle
from symprice import search

CLIMB_SEEDS_PER_PASS = 6
CLIMB_N = 12
EXHAUSTIVE_N = 5
TOURNAMENT_N = 7
CLOSED_FORMS_MAX_N = 40
KSTAR_ORDERS = range(11, 61)
BAG_ORDERS = (12, 20, 30, 40, 50, 60)  # transmission and diameter prices
DOMINATION_BAG_ORDERS = (10, 13, 16)  # subset search, so kept small
TRANSFORM_INPUTS_PER_RULE = 3


@dataclass
class Command:
    argv: list[str]
    check: Callable[[dict], list[str]]
    graphs: Callable[[dict], int]  # graphs priced, read from the output
    files: dict[str, Path] = field(default_factory=dict)  # output name -> file the command writes
    call: Callable[[], tuple[int, str]] | None = None  # library call in place of the CLI


def _tournaments(n: int) -> tuple[int, str]:
    graphs = search.enumerate_tournaments(n)
    return 0, "\n".join(oracle.to_text((g.n, g.rows)) for g in graphs)


def climb(seed: int, tmp: Path) -> list[Command]:
    rng = random.Random(seed)
    cmds = []
    for i in range(CLIMB_SEEDS_PER_PASS):
        report = tmp / f"climb{i}.json"
        cmds.append(Command(
            ["search", "--mode", "heuristic", "--n", str(CLIMB_N), "--objective", "sigma",
             "--budget", "20000", "--seed", str(rng.randrange(2 ** 31)), "--out", str(report)],
            partial(oracle.check_climb, n=CLIMB_N),
            lambda out: json.loads(out["report"])["graphs_visited"],
            {"report": report}))
    return cmds


def exhaustive(seed: int, tmp: Path) -> list[Command]:
    n = str(EXHAUSTIVE_N)
    cmds = [
        Command(["verify-conjecture", "--n", n, "--json"],
                partial(oracle.check_conjecture, n=EXHAUSTIVE_N),
                lambda out: json.loads(out["stdout"])["classes_checked"]),
        Command(["verify-theorems", "--n", n, "--json"],
                partial(oracle.check_theorems, n=EXHAUSTIVE_N),
                lambda out: sum(r["classes_checked"] for r in json.loads(out["stdout"])["reports"])),
        Command(["enumerate_tournaments", str(TOURNAMENT_N)],
                partial(oracle.check_tournaments, n=TOURNAMENT_N),
                lambda out: len(out["stdout"].split("\n\n")),
                call=partial(_tournaments, TOURNAMENT_N)),
    ]
    for objective in search.OBJECTIVES:
        report = tmp / f"exhaustive-{objective}.json"
        cmds.append(Command(
            ["search", "--mode", "exhaustive", "--n", n, "--objective", objective, "--out", str(report)],
            partial(oracle.check_exhaustive, n=EXHAUSTIVE_N, objective=objective),
            lambda out: json.loads(out["report"])["graphs_visited"],
            {"report": report}))
    # The inputs are fixed; the seed only orders the commands.
    random.Random(seed).shuffle(cmds)
    return cmds


def _random_strong(rng: random.Random, n: int, density: float, offset: int = 0) -> list[tuple[int, int]]:
    """A random hamiltonian cycle plus arrows kept with the given density."""
    order = rng.sample(range(n), n)
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    arcs |= {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density}
    return [(u + offset, v + offset) for u, v in arcs]


def _bridged(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Two random strong sides joined only by a 2-cycle x <-> y."""
    n1, n2 = rng.randint(5, 8), rng.randint(5, 8)
    x, y = rng.randrange(n1), n1 + rng.randrange(n2)
    arcs = _random_strong(rng, n1, 0.3) + _random_strong(rng, n2, 0.3, offset=n1)
    return n1 + n2, arcs + [(x, y), (y, x)]


def analysis(seed: int, tmp: Path) -> list[Command]:
    rng = random.Random(seed)
    cmds = [Command(["verify-closed-forms", "--max-n", str(CLOSED_FORMS_MAX_N)],
                    partial(oracle.check_closed_forms, max_n=CLOSED_FORMS_MAX_N),
                    lambda out: len(list(csv.reader(io.StringIO(out["stdout"])))) - 1)]
    cmds += [Command(["kstar", "--n", str(m), "--json"], partial(oracle.check_kstar, n=m), lambda out: 0)
             for m in KSTAR_ORDERS]
    specs = [(n, rng.randint(3, n - 1), inv) for n in BAG_ORDERS for inv in ("transmission", "diameter")]
    specs += [(n, rng.randint(3, n - 1), "domination") for n in DOMINATION_BAG_ORDERS]
    cmds += [Command(["price", "--family", f"bag:{n}:{k}", "--invariant", inv, "--json"],
                     partial(oracle.check_price, n=n, k=k, invariant=inv), lambda out: 2)
             for n, k, inv in specs]
    for i in range(TRANSFORM_INPUTS_PER_RULE):
        for rule in ("critical", "t1", "break-c2", "contract-c2"):
            if rule in ("critical", "t1"):
                n = rng.randint(9, 12)
                g = oracle.from_arrows(n, _random_strong(rng, n, 0.25))
            else:
                g = oracle.from_arrows(*_bridged(rng))
            src, result, trace = (tmp / f"{rule}{i}{ext}" for ext in (".txt", "-out.txt", "-trace.json"))
            src.write_text(oracle.to_text(g))
            cmds.append(Command(
                ["transform", "--rule", rule, "--in", str(src), "--out", str(result), "--trace", str(trace)],
                partial(oracle.check_transform, rule=rule, source=g), lambda out: 1,
                {"result": result, "trace": trace}))
    return cmds


def bfs(seed: int, tmp: Path) -> list[Command]:
    """The hill climbs, then the analysis commands: every graph they price
    goes through the BFS in ``distances``, and none is enumerated."""
    return climb(seed, tmp) + analysis(seed, tmp)


WORKLOADS = {"bfs": bfs, "exhaustive": exhaustive}
