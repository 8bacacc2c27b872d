import random

import pytest
from hypothesis import strategies as st

from symprice import digraph
from symprice.digraph import Digraph
from symprice.invariants import objective_invariant, pos_sigma, price


@st.composite
def digraphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    arrows = draw(st.sets(st.sampled_from(slots)) if slots else st.just(set()))
    return Digraph.from_arrows(n, arrows)


def objective_fn(name: str):
    """The function a search maximises for the objective ``name``, one
    graph at a time: the scalar reference of the batched prices."""
    invariant = objective_invariant(name)
    if invariant == "transmission":
        return pos_sigma
    return lambda g: int(price(g, invariant).pos_minus)


def spy_engine(monkeypatch):
    """The graphs of every slice the batched distance engine searches
    from now on, each slice as the row tuples of its graphs in stream
    order."""
    slices = []
    search_slice = digraph._slice_sums
    monkeypatch.setattr(digraph, "_slice_sums",
                        lambda adj: slices.append(digraph.stack_rows(adj)) or search_slice(adj))
    return slices


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
