import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symprice.digraph import Digraph, are_isomorphic, canonical_form, mask_of, stack_rows
from symprice.errors import SizeError

from conftest import digraphs


def test_no_loops_rejected():
    with pytest.raises(ValueError):
        Digraph(2, (0b01, 0))  # arrow (0,0)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        Digraph(2, (0b100, 0))


@st.composite
def row_arrays(draw, min_graphs=0):
    """(n, an (N, n, n) loop-free boolean adjacency stack), n = 1..8."""
    n = draw(st.integers(1, 8))
    graphs = draw(st.lists(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=n, max_size=n),
                           min_size=min_graphs, max_size=12))
    return n, np.array(graphs, dtype=bool).reshape(-1, n, n) & ~np.eye(n, dtype=bool)


def one_by_one_error(n, adj):
    """The message of the first ``Digraph(n, rows)`` that raises."""
    with pytest.raises(ValueError) as e:
        for rows in stack_rows(adj):
            Digraph(n, rows)
    return str(e.value)


@given(row_arrays())
def test_row_array_graphs_equal_one_by_one_construction(case):
    n, adj = case
    graphs = Digraph.from_stack(adj)
    expected = [Digraph(n, rows) for rows in stack_rows(adj)]
    assert graphs == expected
    assert [hash(g) for g in graphs] == [hash(g) for g in expected]
    assert all(type(g.n) is int and all(type(r) is int for r in g.rows) for g in graphs)


@given(row_arrays(min_graphs=1), st.data())
def test_row_array_faults_raise_as_one_by_one_construction(case, data):
    # up to three loops, so the first graph with a loop and its first
    # looped vertex decide; a stack cannot name a vertex >= n
    n, adj = case
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, n - 1))
        adj[data.draw(st.integers(0, len(adj) - 1)), i, i] = True
    expected = one_by_one_error(n, adj)
    with pytest.raises(ValueError) as e:
        Digraph.from_stack(adj)
    assert str(e.value) == expected


@pytest.mark.parametrize("adj, n, same_fault", [
    (np.zeros(3, bool), 3, (0, 0)),
    (np.zeros((2, 3, 4), bool), 4, (0, 0, 0)),
    (np.zeros((2, 3, 2), bool), 2, (0, 0, 0)),
    (np.zeros((2, 3, 1), bool), 1, (0, 0, 0)),
    (np.zeros((2, 0, 0), bool), 0, ()),
], ids=["1-D", "wide", "narrow", "3-D", "order-0"])
def test_row_array_shape_faults_raise_as_one_by_one_construction(adj, n, same_fault):
    # a stack's order is its row length n; same_fault: rows for one graph
    # of order n with the stack's fault
    with pytest.raises(ValueError) as expected:
        Digraph(n, same_fault)
    with pytest.raises(ValueError) as e:
        Digraph.from_stack(adj)
    assert str(e.value) == str(expected.value)


def test_stack_needs_boolean_entries():
    for dtype in (np.int64, np.uint64, np.uint8):
        with pytest.raises(ValueError, match=f"must be boolean, got {np.dtype(dtype)}"):
            Digraph.from_stack(np.zeros((1, 3, 3), dtype))


def test_from_arrows_roundtrip():
    g = Digraph.from_arrows(3, [(0, 1), (2, 0)])
    assert list(g.arrows()) == [(0, 1), (2, 0)]
    assert g.has_arrow(0, 1) and not g.has_arrow(1, 0)


def test_add_remove_pure():
    g = Digraph.empty(3)
    h = g.add_arrow(0, 1)
    assert g.arrow_count() == 0 and h.arrow_count() == 1
    assert h.remove_arrow(0, 1) == g


def test_degrees():
    g = Digraph.from_arrows(3, [(0, 1), (0, 2), (1, 2)])
    assert g.out_degree(0) == 2
    assert g.in_degree(2) == 2


def test_transpose_involution():
    g = Digraph.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert g.transpose().transpose() == g


@given(digraphs())
def test_symmetric_closure_idempotent(g):
    c = g.symmetric_closure()
    assert c.is_symmetric()
    assert c.symmetric_closure() == c
    for u, v in g.arrows():
        assert c.has_arrow(u, v) and c.has_arrow(v, u)


def test_strong_connectivity():
    cyc = Digraph.from_arrows(3, [(0, 1), (1, 2), (2, 0)])
    assert cyc.is_strongly_connected()
    assert not cyc.remove_arrow(2, 0).is_strongly_connected()
    assert Digraph.empty(1).is_strongly_connected()


def test_reachable_within():
    g = Digraph.from_arrows(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
    assert g.reachable_from(0, within=mask_of([0, 1])) == mask_of([0, 1])
    assert g.is_strongly_connected(within=mask_of([2, 3]))
    assert not g.is_strongly_connected(within=mask_of([1, 2]))


def test_induced():
    g = Digraph.from_arrows(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    h = g.induced(mask_of([0, 1, 2]))
    assert h.n == 3 and h.arrow_count() == 3


@given(digraphs(min_n=2, max_n=6), st.randoms(use_true_random=False))
def test_canonical_form_permutation_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_form(g.relabel(perm)) == canonical_form(g)


def test_canonical_distinguishes():
    path = Digraph.from_arrows(3, [(0, 1), (1, 2)])
    out_star = Digraph.from_arrows(3, [(0, 1), (0, 2)])
    assert canonical_form(path) != canonical_form(out_star)


def test_are_isomorphic():
    g = Digraph.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    h = g.relabel([2, 0, 3, 1])
    assert are_isomorphic(g, h)
    assert not are_isomorphic(g, g.add_arrow(0, 2))


def test_canonical_order_cap():
    with pytest.raises(SizeError):
        canonical_form(Digraph.empty(11))


def test_canonical_exhaustive_n3():
    # every labelled 3-vertex digraph agrees with all its relabellings
    slots = [(i, j) for i in range(3) for j in range(3) if i != j]
    for bits in range(1 << 6):
        g = Digraph.from_arrows(3, [s for b, s in enumerate(slots) if bits >> b & 1])
        forms = {canonical_form(g.relabel(list(p)))
                 for p in itertools.permutations(range(3))}
        assert len(forms) == 1
