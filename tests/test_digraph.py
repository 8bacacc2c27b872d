import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symprice.digraph import Digraph, are_isomorphic, canonical_form, mask_of
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
    """(n, an (N, n) int64 array of loop-free row masks), n = 1..8."""
    n = draw(st.integers(1, 8))
    graphs = draw(st.lists(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
                           min_size=min_graphs, max_size=12))
    return n, np.array(graphs, dtype=np.int64).reshape(-1, n) & ~(1 << np.arange(n))


def one_by_one_error(n, rows):
    """The message of the first ``Digraph(n, row)`` that raises."""
    with pytest.raises(ValueError) as e:
        for r in rows.tolist():
            Digraph(n, tuple(r))
    return str(e.value)


@given(row_arrays())
def test_row_array_graphs_equal_one_by_one_construction(case):
    n, rows = case
    graphs = Digraph.from_row_array(n, rows)
    expected = [Digraph(n, tuple(r)) for r in rows.tolist()]
    assert graphs == expected
    assert [hash(g) for g in graphs] == [hash(g) for g in expected]
    assert all(type(g.n) is int and all(type(r) is int for r in g.rows) for g in graphs)


@given(row_arrays(min_graphs=1), st.data())
def test_row_array_faults_raise_as_one_by_one_construction(case, data):
    # up to three faulty rows, each with one to three faults, so the first
    # faulty row and which of its faults is checked first decide
    n, rows = case
    for _ in range(data.draw(st.integers(1, 3))):
        k, i = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, n - 1))
        for fault in data.draw(st.sets(st.sampled_from(["loop", "high bit", "negative"]),
                                       min_size=1)):
            rows[k, i] |= {"loop": 1 << i, "high bit": 1 << data.draw(st.integers(n, 62)),
                           "negative": -1 << 63}[fault]
    expected = one_by_one_error(n, rows)
    with pytest.raises(ValueError) as e:
        Digraph.from_row_array(n, rows)
    assert str(e.value) == expected


@pytest.mark.parametrize("n, rows, same_fault", [
    (3, np.zeros(3, np.int64), (0, 0)),
    (3, np.zeros((2, 4), np.int64), (0, 0, 0, 0)),
    (3, np.zeros((2, 2), np.int64), (0, 0)),
    (3, np.zeros((2, 3, 1), np.int64), (0, 0)),
    (0, np.zeros((2, 0), np.int64), ()),
], ids=["1-D", "wide", "narrow", "3-D", "order-0"])
def test_row_array_shape_faults_raise_as_one_by_one_construction(n, rows, same_fault):
    # same_fault: rows for one graph of order n with the array's fault
    with pytest.raises(ValueError) as expected:
        Digraph(n, same_fault)
    with pytest.raises(ValueError) as e:
        Digraph.from_row_array(n, rows)
    assert str(e.value) == str(expected.value)


@pytest.mark.parametrize("n, rows", [
    (63, np.zeros((1, 63), np.int64)),
    (3, np.zeros((1, 3), np.uint64)),
], ids=["order-63", "uint64"])
def test_row_array_needs_int64_masks_below_the_sign_bit(n, rows):
    with pytest.raises(ValueError):
        Digraph.from_row_array(n, rows)


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
