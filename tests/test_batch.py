"""Differential test of the batched kernel against the scalar registry.

Every class of ``enumerate_digraphs`` up to n = 5, every tournament up
to n = 6 and hypothesis row arrays up to n = 7 (strongly connected or
not) are priced both ways: the batched values of G and of its closure
must equal the scalar ``INVARIANTS`` functions, and the reached-all
flag must equal ``is_strongly_connected``.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprice.digraph import Digraph, bfs_arrays, closure_array
from symprice.errors import DomainError
from symprice.invariants import INVARIANTS, invariant_array, price_arrays
from symprice.search import enumerate_digraphs, enumerate_tournaments

from conftest import digraphs


def check_batch(graphs):
    n = graphs[0].n
    rows = np.array([g.rows for g in graphs], dtype=np.int64).reshape(len(graphs), n)
    closures = [g.symmetric_closure() for g in graphs]
    assert closure_array(rows).tolist() == [list(h.rows) for h in closures]
    _, _, reached = bfs_arrays(rows)
    assert reached.tolist() == [g.is_strongly_connected() for g in graphs]
    for name in ("domination", "transmission", "diameter"):
        strong = rows if name == "domination" else rows[reached]
        priced = [g for g, ok in zip(graphs, reached) if name == "domination" or ok]
        if not len(strong):
            continue
        value_g, value_sym = price_arrays(strong, name)
        f = INVARIANTS[name]
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
        with pytest.raises(DomainError):
            invariant_array(rows, name)
    assert invariant_array(rows, "domination").tolist() == [2, 2]


def test_kernel_slices_match_whole():
    # more graphs than one kernel slice: the slices must join seamlessly
    rows = np.array([g.rows for g in enumerate_digraphs(5, strongly_connected=False)], dtype=np.int64)
    rows = np.concatenate([rows] * 4)
    total, depth, reached = bfs_arrays(rows)
    k = len(rows) // 4
    for part in (total, depth, reached):
        assert all((part[i * k:(i + 1) * k] == part[:k]).all() for i in range(4))
