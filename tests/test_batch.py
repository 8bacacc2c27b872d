"""Differential test of the batched distance engine against the scalar
registry.

Every class of ``enumerate_digraphs`` up to n = 5, every tournament up
to n = 6 and hypothesis adjacency stacks up to n = 7 (strongly connected
or not) are priced both ways: the batched values of G and of its closure
must equal the scalar ``INVARIANTS`` functions over all the graphs an
invariant is defined on (``price_arrays``), and the reached-all flag
must equal ``is_strongly_connected``.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprice.digraph import (ORDER_CAP, TABLE_ENTRIES, Digraph, adjacency_stack, distance_stream, slices,
                              stack_rows, stream, symmetric_closures)
from symprice.distances import all_pairs_distances
from symprice import formulas, invariants
from symprice.errors import DomainError
from symprice.families import build_family, check_closed_forms, path
from symprice.invariants import INVARIANTS, diameter, domination_number, price_arrays, transmission
from symprice.search import enumerate_digraphs, enumerate_tournaments, random_strongly_connected

from conftest import digraphs, spy_engine


def distances(adj):
    """The three arrays of a one-part ``distance_stream`` of the stack."""
    return distance_stream(adj.shape[1], (len(adj), lambda lo, hi: adj[lo:hi]))


def stack(graphs, n=None):
    return adjacency_stack((g.rows for g in graphs), graphs[0].n if n is None else n)


def check_batch(graphs):
    adj = stack(graphs)
    closures = [g.symmetric_closure() for g in graphs]
    assert stack_rows(symmetric_closures(adj)) == [h.rows for h in closures]
    _, _, reached = distances(adj)
    assert reached.tolist() == [g.is_strongly_connected() for g in graphs]
    strong_graphs = [g for g, ok in zip(graphs, reached) if ok]
    for name in ("domination", "transmission", "diameter"):
        f = INVARIANTS[name]
        strong = adj if name == "domination" else adj[reached]
        priced = graphs if name == "domination" else strong_graphs
        if not len(strong):
            continue
        value_g, value_sym = price_arrays(strong, name)
        assert value_g.dtype == value_sym.dtype == np.int64
        assert value_g.tolist() == [f(g) for g in priced], name
        assert value_sym.tolist() == [f(g.symmetric_closure()) for g in priced], name


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("sc", [False, True])
def test_digraph_classes(n, sc):
    check_batch(list(enumerate_digraphs(n, strongly_connected=sc)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tournaments(n):
    check_batch(list(enumerate_tournaments(n, strongly_connected=False)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(digraphs(min_n=n, max_n=n), min_size=1, max_size=12)))
def test_random_row_arrays(graphs):
    # the stacks of hypothesis graphs, drawn as row tuples
    check_batch(graphs)


def test_distance_invariants_refuse_graphs_not_strongly_connected():
    adj = stack([Digraph.from_arrows(3, [(0, 1), (1, 2), (2, 0)]), Digraph.from_arrows(3, [(0, 1), (1, 2)])])
    for name in ("transmission", "diameter"):
        with pytest.raises(DomainError, match=r"graph \[2, 4, 0\] not strongly connected"):
            price_arrays(adj, name)
    assert price_arrays(adj, "domination")[0].tolist() == [2, 2]


def wide_graphs(n):
    """Strongly connected graphs of order n, from a hamiltonian cycle
    alone to dense, and three that are not: the cycle less an arrow, a
    graph whose vertex n - 1 has no in-arrow, and one with no arrows."""
    rng = random.Random(n)
    strong = [random_strongly_connected(n, rng, extra) for extra in (0.0, 3 / n, 0.3)]
    cut = strong[0].remove_arrow(*next(strong[0].arrows()))
    source = Digraph(n, tuple(row & ~(1 << n - 1) for row in strong[1].rows))
    return strong + [cut, source, Digraph.empty(n)]


# orders on both sides of a stack's batch-axis rule (six graphs: stored
# batch-first from n = 7) and of the 64-bit words that adjacency_stack
# splits a row into (n = 1 is in test_digraph_classes)
@pytest.mark.parametrize("n", [*range(2, 71), 100, 130])
def test_kernel_against_scalar_bfs_at_word_boundaries(n):
    graphs = wide_graphs(n)
    total, depth, reached = distances(stack(graphs))
    assert reached.tolist() == [g.is_strongly_connected() for g in graphs] == [True] * 3 + [False] * 3
    for g, t, dm in zip(graphs, total.tolist(), depth.tolist()):
        finite = [x for row in all_pairs_distances(g).dist for x in row if x is not None]
        assert (t, dm) == (sum(finite), max(finite))
        if g.is_strongly_connected():
            assert (t, dm) == (transmission(g), diameter(g))
    priced = price_arrays(stack(graphs[:3]), "transmission")
    assert [p.tolist() for p in priced] == [[transmission(g) for g in graphs[:3]],
                                           [transmission(g.symmetric_closure()) for g in graphs[:3]]]


def test_distance_engine_at_the_order_cap():
    # int16 distances hold at ORDER_CAP: the sentinel of 2n on the pairs a
    # path leaves unreached, and every d + d up to 4n
    n = ORDER_CAP
    (check,) = check_closed_forms([f"cycle:{n}"])
    assert check.bfs == check.forms == (formulas.sigma_cycle(n), formulas.sigma_cycle_sym(n))
    total, depth, reached = distances(stack([path(n)]))
    assert reached.tolist() == [False]
    assert (total.tolist(), depth.tolist()) == ([(n + 1) * n * (n - 1) // 6], [n - 1])


def test_kernel_slices_match_whole(monkeypatch):
    # more graphs than one slice of the distance engine: the slices must
    # join seamlessly (a slice holds TABLE_ENTRIES // n² graphs: 5242 at
    # n = 5, 910 at n = 12, 327 at n = 20) also at a wide order, where a
    # slice holds a few graphs (13 at n = 100); copies of the batch
    # straddle slices
    small = stack(list(enumerate_digraphs(5, strongly_connected=False)))
    balanced = [stack(wide_graphs(n)) for n in (12, 20)]
    wide = stack(wide_graphs(100))
    slices = spy_engine(monkeypatch)
    for batch, copies in ((small, 4), (balanced[0], 200), (balanced[1], 60), (wide, 10)):
        adj = np.concatenate([batch] * copies)
        slices.clear()
        total, depth, reached = distances(adj)
        assert len(slices) > 1 and sum(slices, []) == stack_rows(adj)
        k = len(batch)
        for part in (total, depth, reached):
            assert all((part[i * k:(i + 1) * k] == part[:k]).all() for i in range(copies))
        assert [p.tolist() for p in distances(batch)] == [p[:k].tolist() for p in (total, depth, reached)]


def test_distance_stream_searches_its_parts_as_one_array(monkeypatch):
    # a stream of parts is searched as the concatenation of the parts, in
    # slices that cross part boundaries
    n = 12
    step = TABLE_ENTRIES // (n * n)
    batch = stack(wide_graphs(n))

    cases = [
        [0, 7],  # an empty first part
        [5, 0, 9],  # an empty middle part
        [0, 0],  # no graphs: one empty slice
        [step - 3, 10],  # a part boundary inside a slice
        [2 * step + 5, step + 1, 3],  # parts spanning slices
    ]
    slices = spy_engine(monkeypatch)
    for case in cases:
        parts = [batch[np.arange(count) % len(batch)] for count in case]
        whole = np.concatenate(parts)
        slices.clear()
        built = distance_stream(n, *((len(adj), lambda lo, hi, adj=adj: adj[lo:hi]) for adj in parts))
        assert len(slices) == max(1, -(-len(whole) // step))
        assert sum(slices, []) == stack_rows(whole)
        assert [p.tolist() for p in built] == [p.tolist() for p in distances(whole)]


def test_price_arrays_holds_one_slice_of_closures(monkeypatch):
    # the distance prices build the closures an engine slice at a time, so
    # an n = 6 scan holds one slice of them, not all 1,540,944: the slice
    # [lo, lo + step) of the stream of N graphs, then their N closures,
    # builds the closures of graphs lo - N to lo + step - N that exist
    sizes = []
    closures = invariants.symmetric_closures
    monkeypatch.setattr(invariants, "symmetric_closures", lambda adj: sizes.append(len(adj)) or closures(adj))
    graphs = wide_graphs(12)[:3]
    adj = stack(graphs * 1000)
    count, step = len(adj), TABLE_ENTRIES // (12 * 12)
    value_g, value_sym = price_arrays(adj, "transmission")
    expected = [max(0, min(lo + step, 2 * count) - max(lo, count)) for lo in range(0, 2 * count, step)]
    assert sizes == expected == [0, 0, 0, 640, 910, 910, 540]
    assert value_g.tolist() == [transmission(g) for g in graphs] * 1000
    assert value_sym.tolist() == [transmission(g.symmetric_closure()) for g in graphs] * 1000


@pytest.mark.parametrize("n, copies", [(5, 2000), (65, 20)])
def test_price_arrays_is_one_stream_graphs_first(monkeypatch, n, copies):
    # the N graphs and then their N closures go through the engine as one
    # stream of ceil(2N / step) slices; at these sizes a slice holds
    # graphs and closures both
    graphs = wide_graphs(n)[:3] * copies
    slices = spy_engine(monkeypatch)
    price_arrays(stack(graphs), "diameter")
    step = TABLE_ENTRIES // (n * n)
    assert len(slices) == -(-2 * len(graphs) // step) > 2
    assert sum(slices, []) == [g.rows for g in graphs] + [g.symmetric_closure().rows for g in graphs]


def test_domination_prices_one_slice_at_a_time(monkeypatch):
    # domination prices the graphs and then their closures as one stream
    # of TABLE_ENTRIES // n items, n cover masks each, so a scan holds one
    # slice of closures: three copies of the 9608 classes of order 5 and
    # their closures make three slices, the first of graphs only
    sizes, priced = [], []
    closures, domination = invariants.symmetric_closures, invariants._domination_array
    monkeypatch.setattr(invariants, "symmetric_closures", lambda adj: sizes.append(len(adj)) or closures(adj))
    monkeypatch.setattr(invariants, "_domination_array",
                        lambda adj: priced.append(len(adj)) or domination(adj))
    classes = list(enumerate_digraphs(5, strongly_connected=False))
    value_g, value_sym = price_arrays(stack(classes * 3), "domination")
    step, count = TABLE_ENTRIES // 5, 3 * len(classes)
    assert priced == [step, step, 2 * count - 2 * step] == [26214, 26214, 5220]
    assert sizes == [0, 2 * step - count, 2 * count - 2 * step] == [0, 23604, 5220]
    assert value_g.tolist() == [domination_number(g) for g in classes] * 3
    assert value_sym.tolist() == [domination_number(g.symmetric_closure()) for g in classes] * 3
    priced.clear()  # the classes and their closures alone fit one slice
    price_arrays(stack(classes), "domination")
    assert priced == [2 * len(classes)] == [19216]
    sizes.clear()
    assert [p.tolist() for p in price_arrays(stack([], 5), "domination")] == [[], []]
    assert sizes == [0]


@pytest.mark.parametrize("n", [12, 16, 20])
def test_domination_kernel_matches_scalar_at_large_orders(n):
    # the cycle (gamma n / 2), the in-star (n - 1) and the empty graph (n,
    # every subset size searched), sparse and dense random strong graphs,
    # and the closures that differ from them, against domination_number
    rng = random.Random(n)
    graphs = [build_family(f"cycle:{n}"), build_family(f"instar:{n}"), Digraph.empty(n),
              *(random_strongly_connected(n, rng, extra) for extra in (0.05, 0.05, 0.5, 0.5))]
    graphs += [h for h in map(Digraph.symmetric_closure, graphs) if h not in graphs]
    assert invariants._domination_array(stack(graphs)).tolist() == [domination_number(g) for g in graphs]


def test_domination_kernel_cuts_its_subsets_by_the_slice_rule(monkeypatch):
    # 600 sparse graphs at n = 12 are undecided together at k = 3, whose
    # 220 subsets take several slices of TABLE_ENTRIES // (600 * 3)
    rng = random.Random(7)
    graphs = [random_strongly_connected(12, rng, 0.05) for _ in range(600)]
    cut = []
    monkeypatch.setattr(invariants, "slices", lambda count, size: cut.append((count, size)) or slices(count, size))
    assert invariants._domination_array(stack(graphs)).tolist() == [domination_number(g) for g in graphs]
    assert cut[2] == (220, 600 * 3)
    assert len(slices(*cut[2])) == 4


def test_stream_joins_any_kernel_over_its_parts():
    # a kernel that is not the distance engine, over parts of other
    # arrays: slices of TABLE_ENTRIES // size items cross part boundaries,
    # a slice inside one part is that part's own array, and the kernel's
    # outputs, one array or a tuple of them, are joined in stream order
    size = TABLE_ENTRIES // 100  # 100 items a slice
    parts = [np.arange(count) + 1000 * k for k, count in enumerate([250, 0, 30, 120])]
    whole = np.concatenate(parts)
    seen = []

    def kernel(batch):
        seen.append(batch)
        return batch * 2

    got = stream(kernel, size, *((len(a), lambda lo, hi, a=a: a[lo:hi]) for a in parts))
    assert got.tolist() == (whole * 2).tolist()
    assert [len(b) for b in seen] == [100] * 4
    assert all(np.shares_memory(b, parts[0]) for b in seen[:2])  # inside part 0: not copied
    assert np.shares_memory(seen[3], parts[3])
    assert not np.shares_memory(seen[2], parts[0])  # parts 0, 2 and 3 joined
    assert slices(len(whole), size) == [(lo, lo + 100) for lo in range(0, 400, 100)]
    pair = stream(lambda b: (b.min(keepdims=True), b.max(keepdims=True)), size,
                  (len(whole), lambda lo, hi: whole[lo:hi]))
    assert [p.tolist() for p in pair] == [[0, 100, 200, 3020], [99, 199, 3019, 3119]]


def test_empty_stream_is_one_empty_slice():
    seen = []
    parts = [(0, lambda lo, hi: np.zeros((hi - lo, 3))), (0, lambda lo, hi: np.ones((hi - lo, 3)))]
    got = stream(lambda b: seen.append(b.shape) or b.sum(axis=1), 9, *parts)
    assert seen == [(0, 3)] and got.shape == (0,)
    assert slices(0, 9) == [(0, 0)]
    assert slices(5, 2 * TABLE_ENTRIES) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]  # one item at least


def test_adjacency_stack_round_trips():
    # entry (k, i, j) is bit j of row i of graph k at every order, across
    # byte and 64-bit word boundaries, and stack_rows is the inverse
    for n in (1, 7, 8, 9, 63, 64, 65, 1000):
        rng = random.Random(n)
        graphs = [Digraph.empty(n), Digraph(n, tuple(((1 << n) - 1) & ~(1 << i) for i in range(n)))]
        if n > 1:
            graphs.append(random_strongly_connected(n, rng, 0.3))
        adj = stack(graphs)
        assert adj.shape == (len(graphs), n, n) and adj.dtype == bool
        assert adj.tolist() == [[[bool(row >> j & 1) for j in range(n)] for row in g.rows] for g in graphs]
        assert stack_rows(adj) == [g.rows for g in graphs]
        assert all(type(r) is int for rows in stack_rows(adj) for r in rows)
        assert stack_rows(symmetric_closures(adj)) == [g.symmetric_closure().rows for g in graphs]
        empty = stack([], n)
        assert empty.shape == (0, n, n) and stack_rows(empty) == []
        assert [p.tolist() for p in distances(empty)] == [[], [], []]
