"""The exhaustive scans against a scalar reference.

The reference is the scan the batched engine replaced: one ``Digraph``
at a time, filtered by ``is_strongly_connected`` and priced by the
scalar ``price``/``pos_sigma``, with an insertion-sorted top list.  It
shares only the orbit-minimum enumeration with the code under test.
"""
import hashlib
from bisect import insort

import numpy as np
import pytest

from symprice import families, search
from symprice.cli import main
from symprice.digraph import Digraph, canonical_form, stack_rows
from symprice.invariants import OBJECTIVES, pos_sigma, price
from symprice.search import (
    ConjectureReport,
    TheoremReport,
    exhaustive_search,
    verify_conjecture,
    verify_theorems,
)

from conftest import objective_fn


def classes(n, strongly_connected):
    return [g for g in search.enumerate_digraphs(n, strongly_connected=False)
            if not strongly_connected or g.is_strongly_connected()]


def reference_scan(graphs, value, top_k=0):
    """(best value, maximisers in enumeration order, count, top_k
    (value, graph) pairs with ties in enumeration order)."""
    best, ties, top, count = None, [], [], 0
    for g in graphs:
        count += 1
        v = value(g)
        if best is None or v > best:
            best, ties = v, [g]
        elif v == best:
            ties.append(g)
        insort(top, (v, g), key=lambda t: -t[0])
        del top[top_k:]
    return best, ties, count, top


def reference_conjecture(n, top_k):
    best, ties, count, top = reference_scan(classes(n, True), pos_sigma, top_k)
    cyc = canonical_form(families.cycle(n))
    return ConjectureReport(n, best, len(ties) == 1, all(canonical_form(g) == cyc for g in ties),
                            top, count)


def reference_theorems(n):
    every = classes(n, False)
    cases = (("diameter", [g for g in every if g.is_strongly_connected()], families.b_family(n)),
             ("domination", every, families.l_set(families.in_star(n), 1)))
    reports = []
    for invariant, graphs, expected in cases:
        over_bound = []

        def pos_minus(g):
            pr = price(g, invariant)
            if pr.pos_minus > n - 2 or (pr.pos_quot is not None and pr.pos_quot > n - 1):
                over_bound.append(g)
            return pr.pos_minus

        best, maxi, count, _ = reference_scan(graphs, pos_minus)
        cex = over_bound[0] if over_bound else None
        family = {canonical_form(g) for g in expected}
        match = {canonical_form(g) for g in maxi} == family and best == n - 2
        if cex is None and not match:
            cex = next((g for g in maxi if canonical_form(g) not in family), maxi[0])
        reports.append(TheoremReport(n, invariant, n - 2, n - 1, int(best), match,
                                     not over_bound, count, cex))
    return reports


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_verify_conjecture_matches_reference(n):
    assert verify_conjecture(n) == reference_conjecture(n, 5)


@pytest.mark.parametrize("n", [3, 4])
def test_verify_conjecture_full_ranking_matches_reference(n):
    # every class in the top list: the whole ranking, ties in enumeration order
    got = verify_conjecture(n, top_k=10 ** 6)
    assert got == reference_conjecture(n, 10 ** 6)
    assert len(got.top) == got.classes_checked


@pytest.mark.parametrize("n", [3, 4, 5])
def test_verify_theorems_matches_reference(n):
    assert verify_theorems(n) == reference_theorems(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("objective", ["sigma", "diameter", "domination"])
def test_exhaustive_search_matches_reference(n, objective):
    got = exhaustive_search(n, objective)
    best, maxi, count, _ = reference_scan(classes(n, objective != "domination"),
                                          objective_fn(objective))
    assert (got.best_value, got.maximizers, got.graphs_visited) == (best, tuple(maxi), count)
    assert got.exhaustive and got.restarts == ()


def mispriced(price_arrays):
    """``price_arrays`` with the value on G of one maximiser raised by 1."""
    def wrong(rows, invariant):
        value_g, value_sym = price_arrays(rows, invariant)
        value_g = value_g.copy()
        value_g[np.argmax(np.abs(value_g - value_sym))] += 1
        return value_g, value_sym
    return wrong


@pytest.mark.parametrize("argv", [
    ["verify-conjecture", "--n", "4", "--json"],
    ["verify-theorems", "--n", "4", "--json"],
    ["search", "--mode", "exhaustive", "--n", "4", "--objective", "sigma"],
    ["search", "--mode", "exhaustive", "--n", "4", "--objective", "domination"],
])
def test_mispriced_maximiser_is_an_internal_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(search, "price_arrays", mispriced(search.price_arrays))
    assert main(argv) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("internal error: batched ")


def test_mispriced_top_entry_below_the_maximum_is_an_internal_error(monkeypatch, capsys):
    price_arrays, below_max = search.price_arrays, []

    def wrong(rows, invariant):
        # both prices of the second-ranked class raised by 1: its rank and
        # difference price stay, so only its re-pricing can tell
        value_g, value_sym = (v.copy() for v in price_arrays(rows, invariant))
        values = np.abs(value_g - value_sym)
        i = np.argsort(-values, kind="stable")[1]
        below_max.append(values[i] < values.max())
        value_g[i] += 1
        value_sym[i] += 1
        return value_g, value_sym

    monkeypatch.setattr(search, "price_arrays", wrong)
    assert main(["verify-conjecture", "--n", "4", "--json"]) == 4
    assert below_max == [True]
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("internal error: batched ")


@pytest.mark.parametrize("report", [
    lambda: verify_conjecture(4),
    lambda: verify_theorems(4),
    *(lambda o=o: exhaustive_search(4, o) for o in OBJECTIVES),
], ids=["verify_conjecture", "verify_theorems", *(f"exhaustive_search-{o}" for o in OBJECTIVES)])
def test_each_exhaustive_report_enumerates_once(report, monkeypatch):
    calls = []
    enumerate_digraphs = search.enumerate_digraphs

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate_digraphs(*args, **kwargs)

    monkeypatch.setattr(search, "enumerate_digraphs", spy)
    report()
    assert len(calls) == 1


@pytest.mark.parametrize("strong, count, digest", [
    (False, 218, "a2b941c95241882acfc31931d50072c0c1a799d01c2a685071a1cb7b371b93be"),
    (True, 83, "39cf12a37dbe88d29e71cfbca6df5c55ce881d7cc4de770ad757b0216a125764"),
], ids=["all", "strong"])
def test_class_rows_check_the_classes_as_one_array(strong, count, digest, monkeypatch):
    # the digest is sha256 of the repr of the classes' rows as lists,
    # recorded when each class was still checked one Digraph at a time
    calls, checks = [], []
    enumerate_digraphs, post_init = search.enumerate_digraphs, Digraph.__post_init__

    def spy(*args, **kwargs):
        calls.append(args)
        return enumerate_digraphs(*args, **kwargs)

    def checked(self):
        checks.append(self)
        post_init(self)

    monkeypatch.setattr(search, "enumerate_digraphs", spy)
    monkeypatch.setattr(Digraph, "__post_init__", checked)
    adj = search._class_rows(4, strong)
    assert (len(calls), len(checks)) == (1, 0)
    assert adj.shape == (count, 4, 4) and adj.dtype == bool
    rows = [list(r) for r in stack_rows(adj)]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_reports_are_plain_python_values():
    # numpy scalars would leak into JSON and dataclass equality
    r = verify_conjecture(4)
    assert type(r.best_value) is int and all(type(v) is int for v, _ in r.top)
    out = exhaustive_search(4, "diameter")
    assert type(out.best_value) is int and type(out.graphs_visited) is int
    assert all(type(r.best_value) is int for r in verify_theorems(4))
