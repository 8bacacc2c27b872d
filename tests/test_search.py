import hashlib
import itertools
import math
import os
import random
import time
import tracemalloc
from dataclasses import replace

import pytest

from symprice import digraph, families, formulas, invariants, search
from symprice.cli import main
from symprice.digraph import Digraph, canonical_form, stack_rows
from symprice.errors import SizeError
from symprice.invariants import pos_sigma, transmission
from symprice.search import (
    enumerate_digraphs,
    enumerate_tournaments,
    exhaustive_search,
    hill_climb,
    random_strongly_connected,
    verify_conjecture,
    verify_theorems,
    worker_count,
)

from test_climber import GOLDEN


def labelled_classes(graphs, strongly_connected):
    """Canonical forms of the given labelled graphs, deduplicated."""
    return {canonical_form(g) for g in graphs
            if not strongly_connected or g.is_strongly_connected()}


def brute_force_classes(n, strongly_connected):
    """Independent labelled enumeration with canonical-form dedup."""
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    return labelled_classes(
        (Digraph.from_arrows(n, [s for b, s in enumerate(slots) if bits >> b & 1])
         for bits in range(1 << len(slots))), strongly_connected)


def brute_force_tournament_classes(n, strongly_connected):
    """Every orientation of every pair, deduplicated by canonical form."""
    pairs = list(itertools.combinations(range(n), 2))
    return labelled_classes(
        (Digraph.from_arrows(n, [(j, i) if bits >> b & 1 else (i, j)
                                 for b, (i, j) in enumerate(pairs)])
         for bits in range(1 << len(pairs))), strongly_connected)


def adjacency_mask(g):
    """Bit (i, j) of the row-major off-diagonal slots, set iff i -> j."""
    slots = [(i, j) for i in range(g.n) for j in range(g.n) if i != j]
    return sum(1 << b for b, (i, j) in enumerate(slots) if g.has_arrow(i, j))


@pytest.mark.parametrize("n,sc", [(2, False), (3, False), (2, True), (3, True)])
def test_enumeration_matches_labelled_oracle(n, sc):
    got = {canonical_form(g) for g in enumerate_digraphs(n, strongly_connected=sc)}
    assert got == brute_force_classes(n, sc)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("sc", [False, True])
def test_tournament_enumeration_matches_labelled_oracle(n, sc):
    got = [canonical_form(g) for g in enumerate_tournaments(n, strongly_connected=sc)]
    assert len(got) == len(set(got))
    assert set(got) == brute_force_tournament_classes(n, sc)


@pytest.mark.parametrize("enumerate_fn,n", [(enumerate_digraphs, 3), (enumerate_digraphs, 4),
                                            (enumerate_tournaments, 5), (enumerate_tournaments, 6)])
def test_representatives_have_minimal_mask_in_ascending_order(enumerate_fn, n):
    masks = []
    for g in enumerate_fn(n, strongly_connected=False):
        mask = adjacency_mask(g)
        assert mask == min(adjacency_mask(g.relabel(p))
                           for p in itertools.permutations(range(n)))
        masks.append(mask)
    assert masks == sorted(masks)


def test_enumeration_known_counts():
    assert sum(1 for _ in enumerate_digraphs(4, strongly_connected=False)) == 218
    assert sum(1 for _ in enumerate_digraphs(4, strongly_connected=True)) == 83
    assert sum(1 for _ in enumerate_digraphs(2, strongly_connected=True)) == 1
    # all (A000273) and strongly connected (A035512) at n = 5
    assert sum(1 for _ in enumerate_digraphs(5, strongly_connected=False)) == 9608
    assert sum(1 for _ in enumerate_digraphs(5)) == 5048


def test_enumeration_all_strongly_connected():
    assert all(g.is_strongly_connected() for g in enumerate_digraphs(4, strongly_connected=True))


def test_enumeration_cap():
    with pytest.raises(SizeError):
        next(enumerate_digraphs(7))


@pytest.mark.parametrize("enumerate_fn, kind, n, slots", [
    (enumerate_digraphs, "digraph", 7, 42),
    (enumerate_tournaments, "tournament", 9, 36),
    (enumerate_digraphs, "digraph", 10 ** 6, 10 ** 6 * (10 ** 6 - 1)),
])
def test_enumeration_is_bounded_by_the_code_space(monkeypatch, enumerate_fn, kind, n, slots):
    # refused from the slot count alone, before the scan or its slot list
    scans = []
    monkeypatch.setattr(search, "_minimal_codes", scans.append)
    t0 = time.monotonic()
    with pytest.raises(SizeError) as e:
        next(enumerate_fn(n))
    assert time.monotonic() - t0 < 0.5
    assert str(e.value) == f"{kind} enumeration at n={n} has {slots} slots; a scan covers at most 2^30 codes"
    assert scans == []


def test_tournament_counts():
    # all: 2, 4, 12, 56, 456 (A000568); strongly connected: 1, 1, 6, 35, 353 (A051337)
    assert sum(1 for _ in enumerate_tournaments(3, strongly_connected=False)) == 2
    assert sum(1 for _ in enumerate_tournaments(4, strongly_connected=False)) == 4
    assert sum(1 for _ in enumerate_tournaments(5, strongly_connected=False)) == 12
    assert sum(1 for _ in enumerate_tournaments(3)) == 1
    assert sum(1 for _ in enumerate_tournaments(5)) == 6
    assert sum(1 for _ in enumerate_tournaments(6, strongly_connected=False)) == 56
    assert sum(1 for _ in enumerate_tournaments(6)) == 35
    assert sum(1 for _ in enumerate_tournaments(7, strongly_connected=False)) == 456
    assert sum(1 for _ in enumerate_tournaments(7)) == 353


def test_each_order_is_scanned_once_per_process(monkeypatch):
    scans = []
    minimal_codes = search._minimal_codes

    def spy(space):
        scans.append((space.n, space.oriented))
        return minimal_codes(space)

    search._class_codes.cache_clear()
    monkeypatch.setattr(search, "_minimal_codes", spy)
    for _ in range(3):
        for sc in (False, True):
            assert sum(1 for _ in enumerate_digraphs(4, strongly_connected=sc)) == (218, 83)[sc]
            assert sum(1 for _ in enumerate_tournaments(5, strongly_connected=sc)) == (12, 6)[sc]
    verify_conjecture(4)
    exhaustive_search(4, "domination")
    assert sorted(scans) == [(4, False), (5, True)]


def test_cached_codes_are_read_only():
    codes = search._class_codes(4, False)
    with pytest.raises(ValueError):
        codes[0] = 1
    assert search._class_codes(4, False) is codes


@pytest.mark.parametrize("enumerate_fn,oriented,max_n", [(enumerate_digraphs, False, 5),
                                                         (enumerate_tournaments, True, 7)])
@pytest.mark.parametrize("sc", [False, True])
def test_repeated_enumeration_matches_a_fresh_scan(enumerate_fn, oriented, max_n, sc):
    for n in range(1, max_n + 1):
        first = [g.rows for g in enumerate_fn(n, strongly_connected=sc)]
        again = [g.rows for g in enumerate_fn(n, strongly_connected=sc)]
        space = search._CodeSpace(n, oriented)
        fresh = [Digraph(n, rows) for rows in stack_rows(space.stack(search._minimal_codes(space)))]
        assert first == again == [g.rows for g in fresh if not sc or g.is_strongly_connected()]


@pytest.mark.parametrize("entries", [1 << 11, 1])  # 1: one run of codes a slice
def test_scan_does_not_depend_on_where_slices_fall(monkeypatch, entries):
    spaces = [search._CodeSpace(n, False) for n in range(1, 6)]
    spaces += [search._CodeSpace(n, True) for n in range(1, 8)]
    default = [search._minimal_codes(space) for space in spaces]
    monkeypatch.setattr(digraph, "TABLE_ENTRIES", entries)
    for space, codes in zip(spaces, default):
        assert search._minimal_codes(space).tolist() == codes.tolist(), (space.n, space.oriented)


@pytest.mark.parametrize("n,oriented,limit_mb", [(7, True, 8), (5, False, 6)])
def test_scan_memory_is_bounded_by_its_slices(n, oriented, limit_mb):
    space = search._CodeSpace(n, oriented)
    search._minimal_codes(search._CodeSpace(3, oriented))  # numpy's first-call allocations
    tracemalloc.start()
    try:
        search._minimal_codes(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb << 20, f"traced peak {peak / 2**20:.1f} MB"


def test_tournaments_are_tournaments():
    for g in enumerate_tournaments(4, strongly_connected=False):
        assert families.is_tournament(g)


def test_only_sc_tournament_of_order_3_is_cycle():
    (t,) = enumerate_tournaments(3)
    assert canonical_form(t) == canonical_form(families.cycle(3))


def test_b5_sigma_maximal_among_tournaments():
    best = max(enumerate_tournaments(5), key=transmission)
    assert transmission(best) == 34
    assert canonical_form(best) == canonical_form(families.backward_tournament(5))


@pytest.mark.parametrize("n, best", [(3, 9), (4, 19), (5, 34), (6, 55), (7, 83),
                                     pytest.param(8, 119, marks=pytest.mark.slow)])
def test_backward_tournament_alone_has_the_largest_transmission(n, best):
    # among the strong tournaments (Moon, Topics on Tournaments, 1968)
    tournaments = list(enumerate_tournaments(n))
    adj = digraph.adjacency_stack((t.rows for t in tournaments), n)
    sigma = invariants.price_arrays(adj, "transmission")[0]
    assert best == sigma.max() == formulas.sigma_backward_tournament(n)
    (top,) = (sigma == best).nonzero()[0]
    assert canonical_form(tournaments[top]) == canonical_form(families.backward_tournament(n))


def test_verify_theorems_n4_and_n5():
    for n in (4, 5):
        for r in verify_theorems(n):
            assert r.ok, (n, r.invariant)
            assert r.best_value == n - 2


def test_verify_theorems_n3_domination_counterexample():
    # the directed triangle attains the bound without being a modified
    # in-star: the equality characterization genuinely misses it at n=3
    diam, domi = verify_theorems(3)
    assert diam.ok
    assert not domi.maximizers_match_family and domi.bounds_hold
    assert canonical_form(domi.counterexample) == canonical_form(families.cycle(3))


def test_verify_conjecture_small():
    for n in (2, 3, 4, 5):
        r = verify_conjecture(n)
        assert r.ok
        assert r.best_value == formulas.pos_cycle(n)
        assert r.top[0][0] == r.best_value


def test_exhaustive_search_sigma():
    out = exhaustive_search(4, "sigma")
    assert out.exhaustive
    assert out.best_value == 8
    assert len(out.maximizers) == 1
    assert canonical_form(out.maximizers[0]) == canonical_form(families.cycle(4))


def test_exhaustive_search_domination():
    out = exhaustive_search(4, "domination")
    assert out.best_value == 2
    assert out.graphs_visited == 218


def test_random_strongly_connected(rng):
    for _ in range(20):
        g = random_strongly_connected(rng.randint(3, 8), rng)
        assert g.is_strongly_connected()


def one_arrow_at_a_time(n, rng, extra=0.3):
    """The reference construction: a hamiltonian cycle, then a new
    Digraph for each extra arrow."""
    order = list(range(n))
    rng.shuffle(order)
    g = Digraph.from_arrows(n, [(order[i], order[(i + 1) % n]) for i in range(n)])
    for u in range(n):
        for v in range(n):
            if u != v and not g.has_arrow(u, v) and rng.random() < extra:
                g = g.add_arrow(u, v)
    return g


@pytest.mark.parametrize("n", [3, 7, 12, 20, 65])
@pytest.mark.parametrize("extra", [0.0, 0.05, 0.3, 1.0])
def test_random_strongly_connected_matches_one_arrow_at_a_time(n, extra):
    # the same graph from the same draws, so seeded searches keep their starts
    for seed in range(4):
        mine, reference = random.Random(seed), random.Random(seed)
        assert random_strongly_connected(n, mine, extra) == one_arrow_at_a_time(n, reference, extra)
        assert mine.random() == reference.random()


def test_hill_climb_reaches_cycle_value():
    out = hill_climb(6, "sigma", budget=3000, seed=0)
    assert out.best_value == formulas.pos_cycle(6)
    assert all(g.is_strongly_connected() for g in out.maximizers)
    assert all(pos_sigma(g) == out.best_value for g in out.maximizers)


def test_hill_climb_deterministic():
    a = hill_climb(5, "sigma", budget=1500, seed=7)
    b = hill_climb(5, "sigma", budget=1500, seed=7)
    assert a.best_value == b.best_value
    assert a.graphs_visited == b.graphs_visited
    assert a.canonical_maximizers() == b.canonical_maximizers()


def test_hill_climb_beats_bag_bound():
    out = hill_climb(12, "sigma", budget=2000, seed=0)
    assert out.best_value >= formulas.pos_hnk(12, families.k_star(12).k_star)


@pytest.mark.parametrize("n, budget", [(12, 15), (12, 100), (12, 500), (7, 30), (9, 1000)])
def test_hill_climb_stays_within_budget(n, budget):
    out = hill_climb(n, "sigma", budget=budget, seed=1)
    assert out.graphs_visited <= budget
    assert sum(r.evals for r in out.restarts) == out.graphs_visited


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SYMPRICE_THREADS", "3")
    assert worker_count() == 3
    for bad in ("zebra", "0", "-2"):
        monkeypatch.setenv("SYMPRICE_THREADS", bad)
        with pytest.raises(ValueError, match=repr(bad)):
            worker_count()
    monkeypatch.delenv("SYMPRICE_THREADS")
    assert worker_count() >= 1


def test_hill_climb_checks_threads_before_any_work(monkeypatch):
    # a bad SYMPRICE_THREADS is refused with the other arguments, before
    # the starts are built or priced
    calls = []
    for name in ("_warm_starts", "price_arrays"):
        monkeypatch.setattr(search, name, lambda *a, name=name: calls.append(name))
    for bad in ("abc", "0"):
        monkeypatch.setenv("SYMPRICE_THREADS", bad)
        with pytest.raises(ValueError, match="SYMPRICE_THREADS"):
            hill_climb(150, "sigma", 2000000, 1)
    assert calls == []


@pytest.mark.parametrize("n", [21, 400])
def test_hill_climb_checks_domination_order_before_any_work(monkeypatch, capsys, n):
    # an order above DOMINATION_ORDER_CAP is refused with the other
    # arguments, before the starts are built, and the CLI exits 2
    calls = []
    for name in ("_warm_starts", "random_strongly_connected"):
        monkeypatch.setattr(search, name, lambda *a, name=name: calls.append(name))
    message = f"domination number capped at n={invariants.DOMINATION_ORDER_CAP}, got {n}"
    with pytest.raises(SizeError, match=message):
        hill_climb(n, "domination", 2000, 1)
    argv = ["search", "--mode", "heuristic", "--n", str(n), "--objective", "domination", "--budget", "2000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


def test_hill_climb_prices_its_starts_as_one_batch(monkeypatch):
    # the starts go through price_arrays with the steps: no scalar price
    monkeypatch.setenv("SYMPRICE_THREADS", "1")
    calls = []
    for module, name in ((invariants, "pos_sigma"), (invariants, "price"), (search, "price")):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
    for args in ((12, "sigma", 2000, 1), (7, "diameter", 3000, 0)):
        hill_climb(*args)
    assert calls == []


def test_hill_climb_starts_at_most_one_process_per_core(monkeypatch):
    pools = []

    class InlinePool:
        """Records its size and runs the jobs in this process."""
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("SYMPRICE_THREADS", "1000000")
    # a search too small to split runs in this process: 15 climbs of
    # 144 moves a round at n = 12, 23 of 400 at n = 20
    for args, groups in (((12, "sigma", 20000, 1), []), ((20, "sigma", 20000, 1), [2])):
        pools.clear()
        hill_climb(*args)
        assert pools == groups
    monkeypatch.setattr(search, "_GROUP_MOVES", 1)  # no search too small
    monkeypatch.setenv("SYMPRICE_THREADS", "1")
    pools.clear()
    serial = {args: replace(hill_climb(*args), elapsed=0) for args in GOLDEN}
    assert pools == []
    # the starts are dealt round-robin into groups, one process each, and
    # the dealing changes nothing in the outcome
    for threads, groups in (("2", 2), ("3", 3), ("1000000", 3)):
        monkeypatch.setenv("SYMPRICE_THREADS", threads)
        for args in GOLDEN:
            pools.clear()
            assert replace(hill_climb(*args), elapsed=0) == serial[args]
            assert pools == [groups]  # at least six starts, three cores


@pytest.mark.slow
def test_enumeration_n6_count():
    assert sum(1 for _ in enumerate_digraphs(6, strongly_connected=False)) == 1540944


@pytest.mark.slow
def test_enumeration_n6_classes_are_pinned():
    codes = search._class_codes(6, False)
    assert (hashlib.sha256(codes.astype("<i8").tobytes()).hexdigest()
            == "384496b37a6b69a2050fb1c38d11966e3e4d5c2c9bf206a46f20ed2e2042eda4")
    assert sum(1 for _ in enumerate_digraphs(6)) == 1047008


@pytest.mark.slow
def test_enumeration_reaches_tournaments_of_order_8():
    # all (A000568) and strongly connected (A051337)
    assert sum(1 for _ in enumerate_tournaments(8, strongly_connected=False)) == 6880
    assert sum(1 for _ in enumerate_tournaments(8)) == 6008
