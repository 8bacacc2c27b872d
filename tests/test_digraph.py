import itertools

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
