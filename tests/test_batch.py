"""Differential test of the batched kernel against the scalar registry.

Every class of ``enumerate_digraphs`` up to n = 5, every tournament up
to n = 6 and hypothesis row arrays up to n = 7 (strongly connected or
not) are priced both ways: the batched values of G and of its closure
must equal the scalar ``INVARIANTS`` functions over all the graphs an
invariant is defined on (``price_arrays``), and the reached-all flag
must equal ``is_strongly_connected``.
"""
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprice.digraph import (ORDER_CAP, TABLE_ENTRIES, Digraph, adjacency, bfs_arrays, bfs_built, pack_rows,
                              row_words, symmetric_closures)
from symprice.distances import all_pairs_distances
from symprice import formulas, invariants
from symprice.errors import DomainError
from symprice.families import check_closed_forms, path
from symprice.invariants import INVARIANTS, diameter, price_arrays, transmission
from symprice.search import enumerate_digraphs, enumerate_tournaments, random_strongly_connected

from conftest import digraphs, spy_kernel


def check_batch(graphs):
    n = graphs[0].n
    rows = np.array([g.rows for g in graphs], dtype=np.int64).reshape(len(graphs), n)
    closures = [g.symmetric_closure() for g in graphs]
    assert row_words(symmetric_closures(adjacency(rows)))[:, :, 0].tolist() == [list(h.rows) for h in closures]
    _, _, reached = bfs_arrays(rows)
    assert reached.tolist() == [g.is_strongly_connected() for g in graphs]
    strong_graphs = [g for g, ok in zip(graphs, reached) if ok]
    for name in ("domination", "transmission", "diameter"):
        f = INVARIANTS[name]
        strong = rows if name == "domination" else rows[reached]
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
    check_batch(graphs)


def test_distance_invariants_refuse_graphs_not_strongly_connected():
    rows = np.array([Digraph.from_arrows(3, [(0, 1), (1, 2), (2, 0)]).rows,
                     Digraph.from_arrows(3, [(0, 1), (1, 2)]).rows], dtype=np.int64)
    for name in ("transmission", "diameter"):
        with pytest.raises(DomainError, match=r"graph \[2, 4, 0\] not strongly connected"):
            price_arrays(rows, name)
    assert price_arrays(rows, "domination")[0].tolist() == [2, 2]


def wide_graphs(n):
    """Strongly connected graphs of order n, from a hamiltonian cycle
    alone to dense, and three that are not: the cycle less an arrow, a
    graph whose vertex n - 1 has no in-arrow, and one with no arrows."""
    rng = random.Random(n)
    strong = [random_strongly_connected(n, rng, extra) for extra in (0.0, 3 / n, 0.3)]
    cut = strong[0].remove_arrow(*next(strong[0].arrows()))
    source = Digraph(n, tuple(row & ~(1 << n - 1) for row in strong[1].rows))
    return strong + [cut, source, Digraph.empty(n)]


# every block shape of the kernel (n = 1 is in test_digraph_classes): one
# block of n <= 8, balanced blocks of up to 8 vertices, and blocks of 8
# in one, two and three words per row
@pytest.mark.parametrize("n", [*range(2, 71), 100, 130])
def test_kernel_against_scalar_bfs_at_word_boundaries(n):
    graphs = wide_graphs(n)
    total, depth, reached = bfs_arrays(pack_rows([g.rows for g in graphs], n))
    assert reached.tolist() == [g.is_strongly_connected() for g in graphs] == [True] * 3 + [False] * 3
    for g, t, dm in zip(graphs, total.tolist(), depth.tolist()):
        finite = [x for row in all_pairs_distances(g).dist for x in row if x is not None]
        assert (t, dm) == (sum(finite), max(finite))
        if g.is_strongly_connected():
            assert (t, dm) == (transmission(g), diameter(g))
    priced = price_arrays(pack_rows([g.rows for g in graphs[:3]], n), "transmission")
    assert [p.tolist() for p in priced] == [[transmission(g) for g in graphs[:3]],
                                           [transmission(g.symmetric_closure()) for g in graphs[:3]]]


def test_distance_engine_at_the_order_cap():
    # int16 distances hold at ORDER_CAP: the sentinel of 2n on the pairs a
    # path leaves unreached, and every d + d up to 4n
    n = ORDER_CAP
    (check,) = check_closed_forms([f"cycle:{n}"])
    assert check.bfs == check.forms == (formulas.sigma_cycle(n), formulas.sigma_cycle_sym(n))
    total, depth, reached = bfs_arrays(pack_rows([path(n).rows], n))
    assert reached.tolist() == [False]
    assert (total.tolist(), depth.tolist()) == ([(n + 1) * n * (n - 1) // 6], [n - 1])


def test_kernel_slices_match_whole(monkeypatch):
    # more graphs than one slice of the distance engine: the slices must
    # join seamlessly (a slice holds TABLE_ENTRIES // n² graphs: 5242 at
    # n = 5, 910 at n = 12, 327 at n = 20) also at a wide order, where a
    # slice holds a few graphs (13 at n = 100); copies of the batch
    # straddle slices
    small = np.array([g.rows for g in enumerate_digraphs(5, strongly_connected=False)], dtype=np.int64)
    balanced = [pack_rows([g.rows for g in wide_graphs(n)], n) for n in (12, 20)]
    wide = pack_rows([g.rows for g in wide_graphs(100)], 100)
    slices = spy_kernel(monkeypatch)
    for batch, copies in ((small, 4), (balanced[0], 200), (balanced[1], 60), (wide, 10)):
        rows = np.concatenate([batch] * copies)
        slices.clear()
        total, depth, reached = bfs_arrays(rows)
        assert len(slices) > 1 and np.concatenate(slices).reshape(rows.shape).tolist() == rows.tolist()
        k = len(batch)
        for part in (total, depth, reached):
            assert all((part[i * k:(i + 1) * k] == part[:k]).all() for i in range(copies))
        assert [p.tolist() for p in bfs_arrays(batch)] == [p[:k].tolist() for p in (total, depth, reached)]


def test_bfs_built_searches_its_parts_as_one_array(monkeypatch):
    # a stream of parts is searched as the concatenation of the parts, in
    # slices that cross part boundaries, with pieces decoded from (k, n)
    # and (k, n, W) arrays mixed
    n = 12
    step = TABLE_ENTRIES // (n * n)
    batch = pack_rows([g.rows for g in wide_graphs(n)], n)

    cases = [
        [(0, True), (7, False)],  # an empty first part
        [(5, False), (0, True), (9, False)],  # an empty middle part
        [(0, False), (0, True)],  # no graphs: one empty slice
        [(step - 3, True), (10, False)],  # a part boundary inside a slice
        [(2 * step + 5, False), (step + 1, True), (3, False)],  # parts spanning slices
    ]
    slices = spy_kernel(monkeypatch)
    for case in cases:
        parts = [batch[np.arange(count) % len(batch)] for count, _ in case]
        whole = np.concatenate(parts)
        slices.clear()
        built = bfs_built(n, *((len(rows), lambda lo, hi, rows=rows, flat=flat:
                                adjacency(rows[lo:hi, :, 0] if flat else rows[lo:hi]))
                               for rows, (_, flat) in zip(parts, case)))
        assert len(slices) == max(1, -(-len(whole) // step))
        assert np.concatenate(slices).tolist() == whole.tolist()
        assert [p.tolist() for p in built] == [p.tolist() for p in bfs_arrays(whole)]


def test_price_arrays_holds_one_slice_of_closures(monkeypatch):
    # the distance prices build the closures a kernel slice at a time, so
    # an n = 6 scan holds one slice of them, not all 1,540,944: the slice
    # [lo, lo + step) of the stream of N graphs, then their N closures,
    # builds the closures of graphs lo - N to lo + step - N that exist
    sizes = []
    closures = invariants.symmetric_closures
    monkeypatch.setattr(invariants, "symmetric_closures", lambda adj: sizes.append(len(adj)) or closures(adj))
    graphs = wide_graphs(12)[:3]
    rows = pack_rows([g.rows for g in graphs] * 1000, 12)
    count, step = len(rows), TABLE_ENTRIES // (12 * 12)
    value_g, value_sym = price_arrays(rows, "transmission")
    expected = [max(0, min(lo + step, 2 * count) - max(lo, count)) for lo in range(0, 2 * count, step)]
    assert sizes == expected == [0, 0, 0, 640, 910, 910, 540]
    assert value_g.tolist() == [transmission(g) for g in graphs] * 1000
    assert value_sym.tolist() == [transmission(g.symmetric_closure()) for g in graphs] * 1000


@pytest.mark.parametrize("n, copies, one_word", [(5, 2000, True), (65, 20, False)])
def test_price_arrays_is_one_stream_graphs_first(monkeypatch, n, copies, one_word):
    # the N graphs and then their N closures go through the kernel as one
    # stream of ceil(2N / step) slices, on (N, n) and (N, n, W) input; at
    # these sizes a slice holds graphs and closures both
    packed = pack_rows([g.rows for g in wide_graphs(n)[:3]] * copies, n)
    rows = packed[:, :, 0] if one_word else packed
    slices = spy_kernel(monkeypatch)
    price_arrays(rows, "diameter")
    step = TABLE_ENTRIES // (n * n)
    closed = row_words(symmetric_closures(adjacency(packed)))
    assert len(slices) == -(-2 * len(rows) // step) > 2
    assert np.concatenate(slices).tolist() == np.concatenate([packed, closed]).tolist()


def test_pack_rows_splits_rows_into_words():
    g = Digraph.from_arrows(65, [(0, 64), (0, 63), (0, 1), (1, 0), (2, 64), (2, 63), (64, 2)])
    packed = pack_rows([g.rows], 65)
    assert packed.shape == (1, 65, 2) and packed.dtype == np.int64
    assert packed[0, [0, 1, 2, 63, 64]].view(np.uint64).tolist() == [
        [1 << 63 | 2, 1], [1, 0], [1 << 63, 1], [0, 0], [4, 0]]
    assert adjacency(packed)[0].tolist() == [[bool(row >> j & 1) for j in range(65)] for row in g.rows]
    assert (row_words(adjacency(packed)) == packed).all()
    assert (row_words(symmetric_closures(adjacency(packed))) == pack_rows([g.symmetric_closure().rows], 65)).all()
    assert pack_rows([], 65).shape == (0, 65, 2)
    assert [p.tolist() for p in bfs_arrays(pack_rows([], 65))] == [[], [], []]
