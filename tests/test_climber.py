"""The hill climber's rounds and its recorded outcomes.

A round (``search._step``) prices one step of several climbs at once:
``_evaluated`` prices every climb's single-arrow additions and the
closures that add an edge to Ḡ from the round's distance matrices, and
stacks the removals, reversals and distinct closures that remove an
edge of Ḡ into one batch of the distance engine.  The reference it
must match, climb by climb, is ``neighbors`` below walked with the
scalar ``objective_fn`` of conftest: removals that keep the graph
strongly connected, then additions, then reversals, stopping after
``remaining`` evaluations and taking the first strictly best.  The golden outcomes
were recorded from earlier climbers and must not move.
"""
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symprice import search
from symprice.digraph import (TABLE_ENTRIES, Digraph, adjacency_stack, distance_stream, stack_rows,
                              symmetric_closures)
from symprice.distances import all_pairs_distances
from symprice.errors import InvariantViolation
from symprice.families import cycle
from symprice.invariants import OBJECTIVES, objective_invariant, price_arrays
from symprice.search import (_closures, _distances, _evaluated, _inserted, _neighbours, _step, hill_climb,
                             random_strongly_connected)

from conftest import objective_fn, spy_engine


@st.composite
def strong_digraphs(draw, n):
    """A hamiltonian cycle in a drawn vertex order plus any drawn arrows."""
    order = draw(st.permutations(range(n)))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    arrows = draw(st.sets(st.sampled_from(slots)))
    return Digraph.from_arrows(n, arrows | {(order[i], order[(i + 1) % n]) for i in range(n)})


@st.composite
def rounds(draw, max_n=9, max_climbs=4):
    """1..max_climbs strong digraphs of one order, each with a cap of
    remaining evaluations: often one that ends mid-neighbourhood, often
    one above the at most 2n(n - 1) moves, so the whole neighbourhood."""
    n = draw(st.integers(2, max_n))
    graphs = draw(st.lists(strong_digraphs(n), min_size=1, max_size=max_climbs))
    remaining = draw(st.lists(st.integers(1, 4 * n * n), min_size=len(graphs), max_size=len(graphs)))
    return graphs, remaining


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


def moved(g, kind, u, v):
    """The graph a move of ``_neighbours`` makes from g."""
    h = g.add_arrow(u, v) if kind == 1 else g.remove_arrow(u, v)
    return h.add_arrow(v, u) if kind == 2 else h


def reference_step(g, objective, remaining):
    """The scalar walk of one step: g's value, the (rows, value) of the
    first ``remaining`` strong neighbours, and the rows and value of the
    first strictly best of them, or None."""
    obj = objective_fn(objective)
    value = obj(g)
    walked = []
    for h in neighbors(g):
        if len(walked) == remaining:
            break
        walked.append((h.rows, obj(h)))
    best = max((v for _, v in walked), default=value)
    chosen = next(((rows, v) for rows, v in walked if v == best), None) if best > value else None
    return value, walked, chosen


def stack(graphs):
    return adjacency_stack((g.rows for g in graphs), graphs[0].n)


def check_round(graphs, remaining, objective, sample=None):
    """One round over ``graphs`` against the reference walk of each: the
    same moves in the same order, each valued as the scalar objective
    values it (a seeded ``sample`` of them, where valuing all would be
    slow), the same evaluations spent and the same move chosen."""
    adj, cap = stack(graphs), np.array(remaining)
    invariant = objective_invariant(objective)
    climb, kind, u, v, values = _evaluated(adj, cap, invariant)
    assert all(type(x) is int for x in values.tolist())
    refs = [reference_step(g, objective, r) if sample is None else None
            for g, r in zip(graphs, remaining)]
    for c, g in enumerate(graphs):
        mine = [(moved(g, *move).rows, value) for *move, value
                in zip(*(a[climb == c].tolist() for a in (kind, u, v, values)))]
        if sample is None:
            assert mine == refs[c][1]
            continue
        assert [rows for rows, _ in mine] == [h.rows for h in neighbors(g)][:remaining[c]]
        obj = objective_fn(objective)
        for rows, value in random.Random(0).sample(mine, min(sample, len(mine))):
            assert value == obj(Digraph(g.n, rows))
    if sample is not None:
        return
    spent, better, kind, u, v, best = _step(adj, np.array([r[0] for r in refs]), cap, invariant)
    assert spent.tolist() == [len(r[1]) for r in refs]
    steps = {c: (moved(graphs[c], *move).rows, value) for c, *move, value
             in zip(*(a.tolist() for a in (better, kind, u, v, best)))}
    assert steps == {c: r[2] for c, r in enumerate(refs) if r[2] is not None}


# two directed triangles 1 -> 3 -> 4 -> 1 and 2 -> 0 -> 5 -> 2 joined by
# 1 -> 2 and 0 -> 3, labelled so those two come first among the removals:
# neither end of either has degree one, yet removing either breaks the
# graph, so a one-evaluation climb must search past its removals
JOINED_TRIANGLES = Digraph.from_arrows(6, [(0, 5), (0, 3), (1, 2), (1, 3), (3, 4), (4, 1), (2, 0), (5, 2)])
NINE = random_strongly_connected(9, random.Random(9), 0.3)
# 30 removals, more than the 2n - 2 = 10 that can break it, and no addition
COMPLETE_6 = Digraph.from_arrows(6, [(i, j) for i in range(6) for j in range(6) if i != j])


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=200, deadline=None)
@given(rnd=rounds())
@example(rnd=([cycle(6)], [40]))  # every removal and reversal breaks strong connectivity
# whole neighbourhoods at n = 9
@example(rnd=([NINE, cycle(9), NINE.add_arrow(0, 4)], [10 ** 6] * 3))
@example(rnd=([cycle(6), cycle(6).add_arrow(0, 3)], [7, 3]))
@example(rnd=([JOINED_TRIANGLES, cycle(6)], [1, 30]))
@example(rnd=([COMPLETE_6, COMPLETE_6], [3, 21]))
def test_moves_match_reference(objective, rnd):
    check_round(*rnd, objective)


@pytest.mark.parametrize("objective, n, extra", [
    *((objective, n, extra) for objective in ("sigma", "diameter")
      for n in (12, 20, 30, 65) for extra in (0.05, 0.3) if n < 64 or extra == 0.05),
    *(("domination", n, extra) for n in (9, 12) for extra in (0.05, 0.3)),
])
def test_moves_match_reference_on_random_graphs(objective, n, extra):
    rng = random.Random(n)
    graphs = [random_strongly_connected(n, rng, extra), random_strongly_connected(n, rng, extra)]
    if n > 64:  # at two words per row, valuing all 4000-odd neighbours would take seconds
        check_round(graphs, [10 ** 6, 50], objective, sample=60)
    else:
        check_round(graphs, [10 ** 6, 3 * n], objective)


@settings(max_examples=100, deadline=None)
@given(g=st.integers(2, 9).flatmap(strong_digraphs))
@example(g=cycle(6))
def test_closure_keys(g):
    # each neighbour's closure is Ḡ with its key's pair toggled, and two
    # neighbours share a key exactly when they share a closure
    adj = stack([g])
    climb, kind, u, v, _, key = _neighbours(adj)
    closures = stack_rows(_closures(symmetric_closures(adj), key))
    by_key = {}
    for *move, k, rows in zip(kind.tolist(), u.tolist(), v.tolist(), key.tolist(), closures):
        assert rows == moved(g, *move).symmetric_closure().rows
        by_key[k] = rows
    assert len(set(by_key.values())) == len(by_key)


@settings(max_examples=100, deadline=None)
@given(graphs=st.integers(2, 9).flatmap(lambda n: st.lists(strong_digraphs(n), min_size=1, max_size=3)))
@example(graphs=[random_strongly_connected(65, random.Random(65), 0.05)])
def test_distances_match_oracles(graphs):
    # the batched Floyd–Warshall of the graphs and their closures against
    # the scalar BFS levels and networkx, entry by entry
    nx = pytest.importorskip("networkx")
    graphs = graphs + [g.symmetric_closure() for g in graphs]
    dist = _distances(stack(graphs))
    assert dist.dtype == np.int16
    for d, g in zip(dist.tolist(), graphs):
        assert d == [list(row) for row in all_pairs_distances(g).dist]
        h = nx.DiGraph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.arrows())
        ref = dict(nx.all_pairs_shortest_path_length(h))
        assert d == [[ref[s][t] for t in range(g.n)] for s in range(g.n)]


@pytest.mark.parametrize("graphs", [
    [Digraph.from_arrows(3, [(0, 1), (1, 2)])],  # a path
    [cycle(4), Digraph.from_arrows(4, [(0, 1), (1, 0), (2, 3), (3, 2)])],  # two 2-cycles, second
    [Digraph.empty(2)],
])
def test_distances_refuse_graphs_not_strongly_connected(graphs):
    with pytest.raises(InvariantViolation, match=f"graph {len(graphs) - 1} of a climb round"):
        _distances(stack(graphs))


@settings(max_examples=100, deadline=None)
@given(g=st.integers(2, 9).flatmap(strong_digraphs))
@example(g=cycle(6))
@example(g=random_strongly_connected(65, random.Random(65), 0.05))
def test_insertions_match_price_arrays(g):
    # every addition priced from the graph's distances, and every closure
    # that adds an edge to Ḡ from Ḡ's, as price_arrays prices the graph
    sym = g.symmetric_closure()
    dist, sym_dist = _distances(stack([g])), _distances(stack([sym]))
    additions = [(a, b) for a in range(g.n) for b in range(g.n) if a != b and not g.has_arrow(a, b)]
    edges = [(a, b) for a, b in additions if a < b and not sym.has_arrow(a, b)]
    for base, d, pairs, both in ((g, dist, additions, False), (sym, sym_dist, edges, True)):
        if not pairs:
            continue
        a, b = np.array(pairs).T
        graphs = [base.add_arrow(x, y) for x, y in pairs]
        if both:
            graphs = [h.add_arrow(y, x) for h, (x, y) in zip(graphs, pairs)]
        for invariant in ("transmission", "diameter"):
            got = _inserted(d, np.zeros(len(pairs), np.int64), a, b, invariant, both)
            assert got.tolist() == price_arrays(stack(graphs), invariant)[0].tolist()


def test_round_is_one_kernel_batch(monkeypatch):
    # a round of whole neighbourhoods is one engine slice: each climb's
    # removals and reversals, then each distinct closure that removes an
    # edge of a climb's Ḡ once; no addition and no closure that adds an
    # edge to Ḡ reaches the engine
    calls = spy_engine(monkeypatch)
    rng = random.Random(7)
    graphs = [random_strongly_connected(10, rng, extra) for extra in (0.05, 0.2, 0.5)]
    adj = stack(graphs)
    climb, kind, u, v, _, _ = _neighbours(adj)
    _evaluated(adj, np.array([10 ** 6] * 3), "transmission")
    assert len(calls) == 1
    batch = calls[0]
    searched, cuts, additions, inserting = [], [], set(), set()
    for c, g in enumerate(graphs):
        sym, cut = g.symmetric_closure(), set()
        for move in zip(*(x[climb == c].tolist() for x in (kind, u, v))):
            h = moved(g, *move)
            if move[0] == 1:
                additions.add(h.rows)
            else:
                searched.append(h.rows)
            closure = h.symmetric_closure()
            edges = closure.arrow_count() - sym.arrow_count()
            if edges < 0:
                cut.add(closure.rows)
            elif edges > 0:
                inserting.add(closure.rows)
        cuts += cut
    assert batch[:len(searched)] == searched
    assert sorted(batch[len(searched):]) == sorted(cuts)
    assert not (additions | inserting) & set(batch)


def test_round_is_built_one_kernel_slice_at_a_time(monkeypatch):
    # a round larger than an engine slice goes through the engine in
    # slices, each built on its own: full slices, then the rest
    slices = spy_engine(monkeypatch)
    rng = random.Random(30)
    adj = stack([random_strongly_connected(30, rng, extra) for extra in (0.05, 0.3)])
    _evaluated(adj, np.array([10 ** 6] * 2), "transmission")
    calls = [len(rows) for rows in slices]
    step = TABLE_ENTRIES // (30 * 30)
    assert len(calls) > 1 and calls[:-1] == [step] * (len(calls) - 1) and 0 < calls[-1] <= step


def test_short_prefix_is_one_kernel_batch(monkeypatch):
    # JOINED_TRIANGLES at cap 1 searches its removals up to its first one
    # off the branchings at vertex 0 in the same engine batch as the
    # removals and reversals of cycle(6)
    graphs, remaining = [JOINED_TRIANGLES, cycle(6)], [1, 30]
    check_round(graphs, remaining, "sigma")
    calls = spy_engine(monkeypatch)
    _evaluated(stack(graphs), np.array(remaining), "transmission")
    assert len(calls) == 1


def tree_arrows(g):
    """The arrows of the out- and in-branching at vertex 0 that the
    climber keeps: to each v != 0 from its first p with d(0, p) + 1 =
    d(0, v), and from v to its first q with d(q, 0) + 1 = d(v, 0)."""
    d = all_pairs_distances(g)
    return ({(next(p for p in range(g.n) if g.rows[p] >> w & 1 and d[0, p] + 1 == d[0, w]), w)
             for w in range(1, g.n)}
            | {(w, next(q for q in range(g.n) if g.rows[w] >> q & 1 and d[q, 0] + 1 == d[w, 0]))
               for w in range(1, g.n)})


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=100, deadline=None)
@given(rnd=rounds())
@example(rnd=([JOINED_TRIANGLES, cycle(6)], [1, 30]))
@example(rnd=([cycle(5), cycle(5)], [3, 3]))  # equal closures of two climbs stay apart
@example(rnd=([COMPLETE_6, COMPLETE_6], [3, 21]))  # a prefix of removals, then all of them
def test_round_searches_one_exact_prefix(objective, rnd):
    # a climb searches its moves up to its remaining-th known-strong one
    # (an addition, or a removal or reversal of an arrow off its
    # tree_arrows), or all of them where it has fewer.  One
    # distance_stream call per round, and all the engine ever sees: the
    # removals and reversals of those prefixes, then the distinct
    # closures of their moves that remove an edge of Ḡ.  Domination
    # reads only the reached-all flags, so it sends only the removals and
    # reversals of tree arrows, and no closure
    graphs, remaining = rnd
    adj = stack(graphs)
    climb, kind, u, v, _, _ = _neighbours(adj)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "distance_stream", lambda n, *parts: calls.append(n) or distance_stream(n, *parts))
        slices = spy_engine(mp)
        _evaluated(adj, np.array(remaining), objective_invariant(objective))
    assert len(calls) == 1
    searched, cuts = [], []
    for c, (g, r) in enumerate(zip(graphs, remaining)):
        tree, known, cut = tree_arrows(g), 0, set()  # equal closures of two climbs stay apart
        sym = g.symmetric_closure()
        for move in zip(*(x[climb == c].tolist() for x in (kind, u, v))):
            if known == r:
                break
            strong = move[0] == 1 or move[1:] not in tree
            known += strong
            h = moved(g, *move)
            if move[0] != 1 and not (objective == "domination" and strong):
                searched.append(h.rows)
            closure = h.symmetric_closure()
            if closure.arrow_count() < sym.arrow_count():
                cut.add(closure.rows)
        cuts += cut
    engine = sum(slices, [])
    assert engine[:len(searched)] == searched
    assert sorted(engine[len(searched):]) == ([] if objective == "domination" else sorted(cuts))


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


# domination climbs at orders where a round's subset search is most of
# the work; outside GOLDEN, whose every search the pool test runs again
DOMINATION_GOLDEN = {
    (16, "domination", 2000, 1): (3, 1933, [
        (6, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 1)], [
        ("cycle:16", 2, 3, 333), ("backward:16", 1, 1, 331), ("random", 1, 1, 298),
        ("random", 2, 2, 305), ("random", 0, 1, 333), ("random", 1, 2, 333)]),
    (20, "domination", 2000, 1): (3, 1998, [
        (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
         262144, 524288, 1)], [
        ("cycle:20", 3, 3, 333), ("backward:20", 1, 1, 333), ("random", 1, 1, 333),
        ("random", 2, 2, 333), ("random", 1, 1, 333), ("random", 2, 2, 333)]),
}


@pytest.mark.parametrize("args", [*GOLDEN, (16, "domination", 2000, 1),
                                  pytest.param((20, "domination", 2000, 1), marks=pytest.mark.slow)])
def test_hill_climb_golden(args):
    best, visited, rows, restarts = {**GOLDEN, **DOMINATION_GOLDEN}[args]
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


def test_short_caps_search_few_engine_rows(monkeypatch):
    # caps of 2 at n = 65: a climb searches its moves only up to its
    # remaining-th one known to keep it strong, not 2n - 2 removals past
    # its cap (14933 engine rows), and no addition reaches the engine
    monkeypatch.setenv("SYMPRICE_THREADS", "1")
    rows = spy_engine(monkeypatch)
    assert hill_climb(65, "sigma", 200, 1).best_value == 78438
    assert sum(map(len, rows)) == 792


def test_domination_climbs_price_in_slices(monkeypatch):
    # a domination round streams its evaluated graphs and then their
    # closures through _domination_array, TABLE_ENTRIES // n at a time
    # (n cover masks a graph), not all of a round's 15996 in one call
    monkeypatch.setenv("SYMPRICE_THREADS", "1")
    sizes = []
    domination = search._domination_array
    monkeypatch.setattr(search, "_domination_array", lambda adj: sizes.append(len(adj)) or domination(adj))
    out = hill_climb(14, "domination", 400000, 1)
    assert (out.best_value, out.graphs_visited) == (2, 17161)
    assert max(sizes) == TABLE_ENTRIES // 14 == 9362


@pytest.mark.parametrize("keys", [[], [7], [5, 3, 5, 0, 3, 9], list(range(40, 0, -3)) * 2])
def test_distinct_keys_match_unique(keys):
    keys = np.array(keys, np.int64)
    assert search._distinct(keys).tolist() == np.unique(keys).tolist()


def test_large_order_round_steps_climbs_in_slices(monkeypatch):
    # the 103 climbs at n = 100 step TABLE_ENTRIES // n² = 13 at a time, so
    # a round's moves and distance matrices are held for one slice of
    # climbs; each climb's step is its own, so the outcome cannot move
    monkeypatch.setenv("SYMPRICE_THREADS", "1")
    climbs = []
    step = search._step
    monkeypatch.setattr(search, "_step", lambda adj, *args: climbs.append(len(adj)) or step(adj, *args))
    out = hill_climb(100, "sigma", 400, 1)
    assert (out.best_value, out.graphs_visited) == (292183, 309)
    assert climbs == [TABLE_ENTRIES // (100 * 100)] * 7 + [12]
