"""The hill climber's move pricing and its recorded outcomes.

``_moves`` stacks every single-arrow neighbour of the current graph into
one batch and prices it through ``price_slices``, for every objective.
The reference it must match, move for move, is ``neighbors`` below with
the scalar ``objective_fn`` on each neighbour: removals that keep the
graph strongly connected, then additions, then reversals.  The golden
outcomes were recorded from earlier climbers and must not move.
"""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symprice.digraph import Digraph
from symprice.families import cycle
from symprice.invariants import OBJECTIVES, objective_fn, objective_invariant
from symprice.search import _moves, hill_climb, random_strongly_connected


@st.composite
def strong_digraphs(draw, max_n=9):
    """A hamiltonian cycle in a drawn vertex order plus any drawn arrows."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    arrows = draw(st.sets(st.sampled_from(slots)))
    return Digraph.from_arrows(n, arrows | {(order[i], order[(i + 1) % n]) for i in range(n)})


def neighbors(g):
    """Single-arrow moves preserving strong connectivity, in the order
    the climber scans them."""
    for u, v in g.arrows():
        h = g.remove_arrow(u, v)
        if h.is_strongly_connected():
            yield h
    for u in range(g.n):
        for v in range(g.n):
            if u != v and not g.has_arrow(u, v):
                yield g.add_arrow(u, v)
    for u, v in g.arrows():
        if not g.has_arrow(v, u):
            h = g.remove_arrow(u, v).add_arrow(v, u)
            if h.is_strongly_connected():
                yield h


def check_moves(g, objective, sample=None):
    """``_moves`` against the reference: the same neighbours in the same
    order, each priced as the scalar objective prices it (a seeded
    ``sample`` of them, where pricing all would be slow)."""
    moves = list(_moves(g, objective_invariant(objective)))
    assert all(type(value) is int for value, _ in moves)
    assert [rows for _, rows in moves] == [h.rows for h in neighbors(g)]
    if sample is not None:
        moves = random.Random(0).sample(moves, sample)
    obj = objective_fn(objective)
    assert [value for value, _ in moves] == [obj(Digraph(g.n, rows)) for _, rows in moves]


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=200, deadline=None)
@given(g=strong_digraphs())
@example(g=cycle(6))  # every removal breaks strong connectivity
def test_moves_match_reference(objective, g):
    check_moves(g, objective)


@pytest.mark.parametrize("objective, n, extra", [
    *((objective, n, extra) for objective in ("sigma", "diameter")
      for n in (12, 20, 30, 65) for extra in (0.05, 0.3) if n < 64 or extra == 0.05),
    *(("domination", n, extra) for n in (9, 12) for extra in (0.05, 0.3)),
])
def test_moves_match_reference_on_random_graphs(objective, n, extra):
    g = random_strongly_connected(n, random.Random(n), extra)
    # at two words per row, pricing all 4000-odd neighbours would take seconds
    check_moves(g, objective, sample=60 if n > 64 else None)


# (start, start value, end value, evals) of the eleven family starts at n = 12
WARM_12 = [("cycle:12", 360, 363, 242), ("backward:12", 231, 231, 177),
           *((f"bag:12:{k}", *rec) for k, rec in zip(range(3, 12), [
               (363, 363, 122), (367, 368, 248), (370, 370, 127), (367, 367, 131),
               (359, 359, 136), (347, 347, 142), (326, 326, 149), (303, 303, 157),
               (267, 267, 166)]))]
CYCLE_ARROW_12 = (2, 4, 9, 19, 39, 64, 128, 256, 512, 1024, 2048, 1)

# the backward tournament of order 65, two words per row
BACKWARD_65 = (
    2, 4, 9, 19, 39, 79, 159, 319, 639, 1279, 2559, 5119, 10239, 20479, 40959, 81919, 163839,
    327679, 655359, 1310719, 2621439, 5242879, 10485759, 20971519, 41943039, 83886079,
    167772159, 335544319, 671088639, 1342177279, 2684354559, 5368709119, 10737418239,
    21474836479, 42949672959, 85899345919, 171798691839, 343597383679, 687194767359,
    1374389534719, 2748779069439, 5497558138879, 10995116277759, 21990232555519,
    43980465111039, 87960930222079, 175921860444159, 351843720888319, 703687441776639,
    1407374883553279, 2814749767106559, 5629499534213119, 11258999068426239, 22517998136852479,
    45035996273704959, 90071992547409919, 180143985094819839, 360287970189639679,
    720575940379279359, 1441151880758558719, 2882303761517117439, 5764607523034234879,
    11529215046068469759, 23058430092136939519, 9223372036854775807)

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
    (65, "diameter", 200, 1): (63, 198, [BACKWARD_65], [
        ("cycle:65", 32, 32, 33), ("backward:65", 63, 63, 33), *[("random", 1, 1, 33)] * 4]),
    (12, "domination", 20000, 1): (2, 1079, [
        (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 1),
        (2432, 788, 128, 1041, 14, 3392, 2056, 2055, 1056, 2053, 784, 1577)], [
        ("cycle:12", 2, 2, 121), ("backward:12", 1, 1, 177), ("random", 1, 2, 296),
        ("random", 1, 1, 163), ("random", 1, 1, 162), ("random", 1, 1, 160)]),
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
