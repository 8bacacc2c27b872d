"""Reference values the benchmark checks the program against.

Nothing here imports symprice: graphs are (n, rows) pairs of adjacency
bitsets, distances come from a plain list-based BFS, and the closed forms
are typed in from the paper.  Each check returns a list of problems; an
empty list means the output is correct.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import combinations

# Class counts from OEIS.
STRONG_DIGRAPHS_5 = 5048  # A035512(5)
DIGRAPHS_5 = 9608  # A000273(5)
STRONG_TOURNAMENTS_7 = 353  # A051337(7)
BEST_KNOWN_12 = 370  # pos of the best bag at n = 12, the best known family value


# -- graphs ----------------------------------------------------------


def parse_text(text: str) -> tuple[int, tuple[int, ...]]:
    """Parse the 'n <order>' / 'u v' graph text format."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0][0] != "n":
        raise ValueError("missing 'n <order>' header")
    n = int(lines[0][1])
    rows = [0] * n
    for u, v in lines[1:]:
        rows[int(u)] |= 1 << int(v)
    return n, tuple(rows)


def from_arrows(n: int, arrows) -> tuple[int, tuple[int, ...]]:
    rows = [0] * n
    for u, v in arrows:
        rows[u] |= 1 << v
    return n, tuple(rows)


def arrows(g) -> list[tuple[int, int]]:
    n, rows = g
    return [(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1]


def to_text(g) -> str:
    return f"n {g[0]}\n" + "".join(f"{u} {v}\n" for u, v in arrows(g))


def closure(g):
    n, rows = g
    return from_arrows(n, arrows(g) + [(v, u) for u, v in arrows(g)])


def cycle(n: int):
    return from_arrows(n, [(i, (i + 1) % n) for i in range(n)])


def bag(n: int, k: int):
    """Backward tournament on 0..k-1 (path 0 -> 1 -> ... -> k-1 plus every
    arrow i -> j with j <= i - 2) with its arrow k-1 -> 0 doubled by the
    path k-1 -> k -> ... -> n-1 -> 0."""
    arcs = [(i, i + 1) for i in range(k - 1)]
    arcs += [(i, j) for i in range(k) for j in range(i - 1)]
    chain = [k - 1, *range(k, n), 0]
    return from_arrows(n, arcs + list(zip(chain, chain[1:])))


def distances_from(g, s: int) -> list[int | None]:
    n, rows = g
    dist: list[int | None] = [None] * n
    dist[s] = 0
    queue = [s]
    for u in queue:
        for v in range(n):
            if rows[u] >> v & 1 and dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def strongly_connected(g) -> bool:
    return all(None not in distances_from(g, s) for s in range(g[0]))


def transmission(g) -> int:
    total = 0
    for s in range(g[0]):
        dist = distances_from(g, s)
        if None in dist:
            raise ValueError("not strongly connected")
        total += sum(dist)
    return total


def diameter(g) -> int:
    return max(max(distances_from(g, s)) for s in range(g[0]))


def domination(g) -> int:
    """Smallest vertex set D with every vertex in D or an out-neighbour of D."""
    n, rows = g
    full = (1 << n) - 1
    cover = [rows[v] | 1 << v for v in range(n)]
    best = n
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if size >= best:
            continue
        got = 0
        for v in range(n):
            if mask >> v & 1:
                got |= cover[v]
        if got == full:
            best = size
    return best


INVARIANTS = {"transmission": transmission, "diameter": diameter, "domination": domination}


def pos_sigma(g) -> int:
    return transmission(g) - transmission(closure(g))


def is_directed_cycle(g) -> bool:
    n, rows = g
    outs = [bin(r).count("1") for r in rows]
    ins = [sum(r >> v & 1 for r in rows) for v in range(n)]
    return outs == [1] * n and ins == [1] * n and strongly_connected(g)


def is_tournament(g) -> bool:
    n, rows = g
    return all((rows[i] >> j & 1) + (rows[j] >> i & 1) == 1
               for i, j in combinations(range(n), 2))


# -- closed forms from the paper -------------------------------------


def _exact(num: int, den: int) -> int:
    if num % den:
        raise AssertionError(f"closed form {num}/{den} is not an integer")
    return num // den


def sigma_cycle(n: int) -> int:
    return _exact(n * n * (n - 1), 2)


def sigma_cycle_sym(n: int) -> int:
    return _exact(n ** 3, 4) if n % 2 == 0 else _exact(n * (n * n - 1), 4)


def sigma_bag(n: int, k: int) -> int:
    return _exact(3 * n ** 3 - 3 * n * n - 3 * k * (k - 1) * n
                  + (k - 1) * (k * k + 4 * k + 6), 6)


def sigma_bag_sym(n: int, k: int) -> int:
    if (n - k) % 2 == 0:
        return _exact(n ** 3 - (k - 2) * n * n - (k - 2) * (k - 6) * n
                      + k * (k - 2) * (k - 4), 4)
    return _exact(n ** 3 - (k - 2) * n * n - (k * k - 8 * k + 13) * n
                  + (k - 1) * (k - 2) * (k - 3), 4)


def pos_bag(n: int, k: int) -> int:
    return sigma_bag(n, k) - sigma_bag_sym(n, k)


# -- checks, one per command kind ------------------------------------


def _expect(problems: list[str], cond: bool, what: str) -> None:
    if not cond:
        problems.append(what)


def check_climb(out: dict, n: int) -> list[str]:
    p: list[str] = []
    report = json.loads(out["report"])
    _expect(p, report["n"] == n and report["mode"] == "heuristic", "wrong n or mode")
    _expect(p, report["best_value"] >= BEST_KNOWN_12, f"best {report['best_value']} < {BEST_KNOWN_12}")
    _expect(p, report["graphs_visited"] > 0 and report["maximizers"], "no graphs visited")
    for text in report["maximizers"]:
        g = parse_text(text)
        _expect(p, g[0] == n and strongly_connected(g), "maximizer not strongly connected")
        if strongly_connected(g):
            _expect(p, pos_sigma(g) == report["best_value"], "maximizer re-prices differently")
    _expect(p, f"n={n}: {report['best_value']} " in out["stdout"], "summary line disagrees")
    return p


def check_conjecture(out: dict, n: int) -> list[str]:
    p: list[str] = []
    r = json.loads(out["stdout"])
    _expect(p, r["ok"] and r["unique_maximizer"] and r["maximizer_is_cycle"], "conjecture not confirmed")
    _expect(p, r["classes_checked"] == STRONG_DIGRAPHS_5, f"classes {r['classes_checked']}")
    best = sigma_cycle(n) - sigma_cycle_sym(n)
    _expect(p, r["best_value"] == best, f"best {r['best_value']} != {best}")
    values = [t["value"] for t in r["top"]]
    _expect(p, values == sorted(values, reverse=True) and values[0] == best
            and values[1] < best, "top list out of order")
    for t in r["top"]:
        g = parse_text(t["graph"])
        _expect(p, pos_sigma(g) == t["value"], "top graph re-prices differently")
    _expect(p, is_directed_cycle(parse_text(r["top"][0]["graph"])), "maximizer is not the cycle")
    return p


def check_theorems(out: dict, n: int) -> list[str]:
    p: list[str] = []
    r = json.loads(out["stdout"])
    _expect(p, r["ok"], "theorems not confirmed")
    classes = {"diameter": STRONG_DIGRAPHS_5, "domination": DIGRAPHS_5}
    _expect(p, sorted(x["invariant"] for x in r["reports"]) == sorted(classes), "wrong invariants")
    for x in r["reports"]:
        _expect(p, x["classes_checked"] == classes.get(x["invariant"]), f"{x['invariant']} classes")
        _expect(p, x["best_value"] == x["bound_minus"] == n - 2 and x["bound_quot"] == n - 1,
                f"{x['invariant']} bound")
        _expect(p, x["bounds_hold"] and x["maximizers_match_family"]
                and x["counterexample"] is None, f"{x['invariant']} family")
    return p


def check_exhaustive(out: dict, n: int, objective: str) -> list[str]:
    p: list[str] = []
    r = json.loads(out["report"])
    classes = DIGRAPHS_5 if objective == "domination" else STRONG_DIGRAPHS_5
    best = sigma_cycle(n) - sigma_cycle_sym(n) if objective == "sigma" else n - 2
    _expect(p, r["exhaustive"] and r["graphs_visited"] == classes, f"visited {r['graphs_visited']}")
    _expect(p, r["best_value"] == best, f"best {r['best_value']} != {best}")
    inv = INVARIANTS["transmission" if objective == "sigma" else objective]
    for text in r["maximizers"]:
        g = parse_text(text)
        _expect(p, abs(inv(g) - inv(closure(g))) == r["best_value"], "maximizer re-prices differently")
    return p


def check_tournaments(out: dict, n: int) -> list[str]:
    p: list[str] = []
    graphs = [parse_text(t) for t in out["stdout"].split("\n\n") if t]
    _expect(p, len(graphs) == STRONG_TOURNAMENTS_7, f"{len(graphs)} classes")
    _expect(p, all(g[0] == n and is_tournament(g) and strongly_connected(g) for g in graphs),
            "a class is not a strong tournament")
    return p


def check_closed_forms(out: dict, max_n: int) -> list[str]:
    p: list[str] = []
    rows = list(csv.reader(io.StringIO(out["stdout"])))
    expected = []
    for n in range(2, max_n + 1):
        par = "even" if n % 2 == 0 else "odd"
        expected += [(n, "", par, sigma_cycle(n)), (n, "", par, sigma_cycle_sym(n))]
    for n in range(11, max_n + 1):
        for k in range(3, n):
            par = "even" if (n - k) % 2 == 0 else "odd"
            expected += [(n, k, par, sigma_bag(n, k)), (n, k, par, sigma_bag_sym(n, k))]
    _expect(p, rows[0] == ["n", "k", "parity", "sigma_formula", "sigma_bfs", "match"], "header")
    _expect(p, len(rows) - 1 == len(expected), f"{len(rows) - 1} rows, expected {len(expected)}")
    for row, (n, k, par, sigma) in zip(rows[1:], expected):
        if row != [str(n), str(k), par, str(sigma), str(sigma), "True"]:
            p.append(f"row {row} != {sigma}")
    # The typed closed forms themselves, against plain BFS.
    for n in range(2, 21):
        if (transmission(cycle(n)), transmission(closure(cycle(n)))) != (sigma_cycle(n), sigma_cycle_sym(n)):
            p.append(f"typed cycle form wrong at n={n}")
        for k in range(3, n) if n >= 11 else ():
            h = bag(n, k)
            if (transmission(h), transmission(closure(h))) != (sigma_bag(n, k), sigma_bag_sym(n, k)):
                p.append(f"typed bag form wrong at n={n}, k={k}")
    return p


def check_kstar(out: dict, n: int) -> list[str]:
    p: list[str] = []
    r = json.loads(out["stdout"])
    best = max(range(3, n), key=lambda k: (pos_bag(n, k), -k))
    _expect(p, r["n"] == n and r["k_star"] == best, f"k* {r['k_star']} != {best}")
    _expect(p, r["k_star"] in r["candidates"], "k* not a candidate")
    for k, v in r["pos_at_candidates"].items():
        _expect(p, v == pos_bag(n, int(k)), f"pos at k={k}")
    return p


def _frac(x: dict) -> Fraction:
    return Fraction(x["num"], x["den"])


def check_price(out: dict, n: int, k: int, invariant: str) -> list[str]:
    p: list[str] = []
    r = json.loads(out["stdout"])
    pr = r["price"]
    g = bag(n, k)
    inv = INVARIANTS[invariant]
    v_g, v_sym = inv(g), inv(closure(g))
    if invariant == "transmission":
        _expect(p, (v_g, v_sym) == (sigma_bag(n, k), sigma_bag_sym(n, k)), "BFS != closed form")
    _expect(p, r["n"] == n and pr["invariant"] == invariant, "wrong graph or invariant")
    _expect(p, (_frac(pr["value_g"]), _frac(pr["value_sym"])) == (v_g, v_sym),
            f"values {pr['value_g']}, {pr['value_sym']} != {v_g}, {v_sym}")
    _expect(p, _frac(pr["pos_minus"]) == abs(v_g - v_sym), "pos_minus")
    _expect(p, _frac(pr["pos_quot"]) == Fraction(v_g, v_sym), "pos_quot")
    return p


def _noncritical(g) -> bool:
    """True if some arrow can go while keeping strong connectivity and
    strictly raising the transmission price."""
    base = pos_sigma(g)
    for u, v in arrows(g):
        rows = list(g[1])
        rows[u] &= ~(1 << v)
        h = (g[0], tuple(rows))
        if strongly_connected(h) and pos_sigma(h) > base:
            return True
    return False


def check_transform(out: dict, rule: str, source) -> list[str]:
    p: list[str] = []
    trace = json.loads(out["trace"])
    result = parse_text(out["result"])
    _expect(p, trace["rule"] == rule, "wrong rule")
    _expect(p, from_arrows(trace["result"]["n"], trace["result"]["arrows"]) == result,
            "trace and output graph differ")
    _expect(p, trace["pos_before"] == pos_sigma(source), "pos_before re-prices differently")
    _expect(p, result[0] == source[0] and strongly_connected(result), "result order or connectivity")
    if not p:
        _expect(p, trace["pos_after"] == pos_sigma(result), "pos_after re-prices differently")
    before, after, applied = trace["pos_before"], trace["pos_after"], trace["applied"]
    _expect(p, applied == (result != source), "applied flag disagrees with the result")
    if rule == "critical":
        _expect(p, after >= before and set(arrows(result)) <= set(arrows(source)),
                "not a price-raising subgraph")
        _expect(p, not _noncritical(result), "result still has a non-critical arrow")
    elif rule == "t1":
        _expect(p, after > before if applied else after == before, "t1 gain")
    elif rule == "break-c2":
        _expect(p, after >= before and len(arrows(result)) == len(arrows(source)), "break-c2 move")
    else:
        _expect(p, after == before, "contract-c2 changed the price")
    word = "applied" if applied else "not applied"
    _expect(p, out["stdout"].strip() == f"{rule}: {word}, pos {before} -> {after}", "summary line")
    return p
