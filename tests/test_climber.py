"""The hill climber's move scoring and its recorded outcomes.

``_sigma_moves`` prices every neighbour of the current graph from its
distance matrices; ``_neighbors`` with ``pos_sigma`` on each neighbour is
the reference it must match, move for move.  The golden outcomes were
recorded from the reference climber, which priced every neighbour with
``pos_sigma``.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symprice.digraph import Digraph
from symprice.invariants import pos_sigma
from symprice.search import _neighbors, _sigma_moves, hill_climb, random_strongly_connected


@st.composite
def strong_digraphs(draw, max_n=9):
    """A hamiltonian cycle in a drawn vertex order plus any drawn arrows."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    arrows = draw(st.sets(st.sampled_from(slots)))
    return Digraph.from_arrows(n, arrows | {(order[i], order[(i + 1) % n]) for i in range(n)})


def reference_moves(g):
    return [(pos_sigma(h), h.rows) for h in _neighbors(g)]


@settings(max_examples=200, deadline=None)
@given(strong_digraphs())
def test_sigma_moves_match_reference(g):
    assert list(_sigma_moves(g)) == reference_moves(g)


@pytest.mark.parametrize("n", [12, 20, 30])
@pytest.mark.parametrize("extra", [0.05, 0.3])
def test_sigma_moves_match_reference_on_random_graphs(n, extra):
    g = random_strongly_connected(n, random.Random(n), extra)
    moves = list(_sigma_moves(g))
    assert all(type(value) is int for value, _ in moves)
    assert moves == reference_moves(g)


# (start, start value, end value, evals) of the eleven family starts at n = 12
WARM_12 = [("cycle:12", 360, 363, 242), ("backward:12", 231, 231, 177),
           *((f"bag:12:{k}", *rec) for k, rec in zip(range(3, 12), [
               (363, 363, 122), (367, 368, 248), (370, 370, 127), (367, 367, 131),
               (359, 359, 136), (347, 347, 142), (326, 326, 149), (303, 303, 157),
               (267, 267, 166)]))]
CYCLE_ARROW_12 = (2, 4, 9, 19, 39, 64, 128, 256, 512, 1024, 2048, 1)

# hill_climb arguments -> (best value, graphs visited, maximizer rows, restarts)
GOLDEN = {
    (12, "sigma", 20000, 1): (370, 7129, [CYCLE_ARROW_12], WARM_12 + [
        ("random", 51, 268, 1333), ("random", 42, 168, 1333),
        ("random", 49, 174, 1333), ("random", 48, 221, 1333)]),
    (12, "sigma", 20000, 2): (370, 7129, [CYCLE_ARROW_12], WARM_12 + [
        ("random", 58, 191, 1333), ("random", 44, 170, 1333),
        ("random", 52, 181, 1333), ("random", 54, 190, 1333)]),
    (12, "sigma", 20000, 3): (370, 7129, [CYCLE_ARROW_12], WARM_12 + [
        ("random", 57, 226, 1333), ("random", 41, 115, 1333),
        ("random", 45, 192, 1333), ("random", 50, 177, 1333)]),
    (7, "diameter", 3000, 0): (5, 529, [(2, 4, 9, 19, 39, 79, 31)], [
        ("cycle:7", 3, 3, 36), ("backward:7", 5, 5, 52), ("random", 1, 4, 130),
        ("random", 0, 2, 162), ("random", 2, 3, 100), ("random", 2, 2, 49)]),
    (7, "domination", 3000, 0): (2, 423, [(34, 4, 8, 16, 32, 64, 1), (40, 17, 3, 64, 5, 12, 17)], [
        ("cycle:7", 1, 2, 72), ("backward:7", 1, 1, 52), ("random", 1, 2, 96),
        ("random", 1, 1, 55), ("random", 1, 1, 51), ("random", 0, 1, 97)]),
}


@pytest.mark.parametrize("args", GOLDEN)
def test_hill_climb_golden(args):
    best, visited, rows, restarts = GOLDEN[args]
    out = hill_climb(*args)
    assert out.best_value == best
    assert out.graphs_visited == visited
    assert [g.rows for g in out.maximizers] == rows
    assert [(r.start, r.start_value, r.end_value, r.evals) for r in out.restarts] == restarts
    assert sum(r.evals for r in out.restarts) == out.graphs_visited


# hill_climb(65, "sigma", 200, 1): two words per row, two evaluations per
# start; the best start, bag:65:27, is the maximizer
BAG_65_27 = (
    2, 4, 9, 19, 39, 79, 159, 319, 639, 1279, 2559, 5119, 10239, 20479, 40959, 81919, 163839,
    327679, 655359, 1310719, 2621439, 5242879, 10485759, 20971519, 41943039, 83886079,
    167772159, 268435456, 536870912, 1073741824, 2147483648, 4294967296, 8589934592,
    17179869184, 34359738368, 68719476736, 137438953472, 274877906944, 549755813888,
    1099511627776, 2199023255552, 4398046511104, 8796093022208, 17592186044416, 35184372088832,
    70368744177664, 140737488355328, 281474976710656, 562949953421312, 1125899906842624,
    2251799813685248, 4503599627370496, 9007199254740992, 18014398509481984, 36028797018963968,
    72057594037927936, 144115188075855872, 288230376151711744, 576460752303423488,
    1152921504606846976, 2305843009213693952, 4611686018427387904, 9223372036854775808,
    18446744073709551616, 1)


def test_hill_climb_golden_beyond_one_word():
    out = hill_climb(65, "sigma", 200, 1)
    assert out.best_value == 78438
    assert out.graphs_visited == 136
    assert [g.rows for g in out.maximizers] == [BAG_65_27]
