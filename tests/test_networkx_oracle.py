"""Differential tests of the BFS-backed functions against networkx.

networkx is an independent oracle used by the tests only; the module is
skipped where it is not installed.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digraphs
from symprice.distances import UNREACHABLE, all_pairs_distances
from symprice.errors import DomainError
from symprice.invariants import diameter, transmission

nx = pytest.importorskip("networkx")


def to_nx(g):
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.arrows())
    return h


def nx_distances(g):
    return dict(nx.all_pairs_shortest_path_length(to_nx(g)))


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=9))
def test_all_pairs_distances(g):
    ref = nx_distances(g)
    d = all_pairs_distances(g)
    for s in range(g.n):
        for t in range(g.n):
            assert d[s, t] == ref[s].get(t, UNREACHABLE)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=9))
def test_transmission_and_diameter(g):
    h = to_nx(g)
    if not nx.is_strongly_connected(h):
        with pytest.raises(DomainError):
            transmission(g)
        with pytest.raises(DomainError):
            diameter(g)
        return
    ref = nx_distances(g)
    assert transmission(g) == sum(sum(row.values()) for row in ref.values())
    assert diameter(g) == max(max(row.values()) for row in ref.values())


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=9), st.data())
def test_reachable_from(g, data):
    s = data.draw(st.integers(0, g.n - 1))
    within = data.draw(st.integers(0, (1 << g.n) - 1))
    h = to_nx(g)
    assert g.reachable_from(s) == sum(1 << v for v in nx.descendants(h, s) | {s})
    # the source counts whether or not it lies in the restriction
    sub = h.subgraph([v for v in range(g.n) if within >> v & 1] + [s])
    expected = nx.descendants(sub, s) | {s}
    assert g.reachable_from(s, within=within) == sum(1 << v for v in expected)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=9))
def test_is_strongly_connected(g):
    assert g.is_strongly_connected() == nx.is_strongly_connected(to_nx(g))
