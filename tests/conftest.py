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


def spy_kernel(monkeypatch):
    """The rows of every slice the batched kernel searches from now on."""
    slices = []
    kernel = digraph._search_slice
    monkeypatch.setattr(digraph, "_search_slice", lambda rows, *a: slices.append(rows.copy()) or kernel(rows, *a))
    return slices


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
