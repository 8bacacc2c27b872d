from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from symprice import families, transforms
from symprice.digraph import Digraph, iter_bits, mask_of
from symprice.distances import all_pairs_distances, sigma_from_vertex, sigma_to_vertex
from symprice.errors import DomainError, SizeError
from symprice.invariants import pos_sigma, transmission
from symprice.search import random_strongly_connected
from symprice.transforms import (
    EXACT_PATH_LIMIT,
    break_c2,
    contract_c2,
    detect_bunches,
    find_c2_bridge,
    find_non_critical_arrow,
    longest_induced_path,
    make_critical,
    t1_step,
)

from conftest import digraphs


def bridged(rng, n1=3, n2=3):
    """Random graph whose only cross arrows form a 2-cycle between the
    last vertex of a random X side and the first of a random Y side."""
    gx = random_strongly_connected(n1, rng)
    gy = random_strongly_connected(n2, rng)
    arrows = list(gx.arrows())
    arrows += [(u + n1, v + n1) for u, v in gy.arrows()]
    x, y = n1 - 1, n1
    arrows += [(x, y), (y, x)]
    return Digraph.from_arrows(n1 + n2, arrows), x, y


def test_non_critical_arrow_on_cycle_is_none():
    assert find_non_critical_arrow(families.cycle(5)) is None


def test_non_critical_arrow_on_symmetric_triangle():
    g = families.cycle(3).symmetric_closure()
    a = find_non_critical_arrow(g)
    assert a is not None
    h = g.remove_arrow(*a)
    assert h.is_strongly_connected()
    assert pos_sigma(h) > pos_sigma(g)


def test_make_critical_reaches_fixpoint():
    g = families.complete(4)
    h = make_critical(g)
    assert h.is_strongly_connected()
    assert find_non_critical_arrow(h) is None
    assert pos_sigma(h) >= pos_sigma(g)


def test_find_c2_bridge(rng):
    g, x, y = bridged(rng)
    p = find_c2_bridge(g)
    assert p is not None
    assert (p.x, p.y) == (x, y)
    assert p.n1 == 3 and p.n2 == 3


def test_find_c2_bridge_absent():
    assert find_c2_bridge(families.cycle(4)) is None
    # a 2-cycle that is not a pair of bridges
    g = families.cycle(3).add_arrow(1, 0)
    assert find_c2_bridge(g) is None


def test_distance_decomposition_across_bridge(rng):
    for _ in range(50):
        g, x, y = bridged(rng, n1=rng.randint(2, 5), n2=rng.randint(2, 5))
        p = find_c2_bridge(g)
        dx = all_pairs_distances(g.induced(p.X))
        dy = all_pairs_distances(g.induced(p.Y))
        # relabel-aware partial sums: the sides occupy contiguous ranges
        xs = sorted(iter_bits(p.X))
        ys = sorted(iter_bits(p.Y))
        sx = sum(dx[i, j] for i in range(len(xs)) for j in range(len(xs)) if i != j)
        sy = sum(dy[i, j] for i in range(len(ys)) for j in range(len(ys)) if i != j)
        d = all_pairs_distances(g)
        n1, n2 = p.n1, p.n2
        expected = (
            sx + sy
            + n1 * (sigma_to_vertex(d, p.Y & ~(1 << p.y), p.y)
                    + sigma_from_vertex(d, p.y, p.Y & ~(1 << p.y)))
            + n2 * (sigma_to_vertex(d, p.X & ~(1 << p.x), p.x)
                    + sigma_from_vertex(d, p.x, p.X & ~(1 << p.x)))
            + 2 * n1 * n2
        )
        assert transmission(g) == expected


def test_break_c2_never_decreases(rng):
    for _ in range(30):
        g, _, _ = bridged(rng, n1=rng.randint(2, 4), n2=rng.randint(2, 4))
        p = find_c2_bridge(g)
        out = break_c2(g, p)
        assert out.rule == "break-c2"
        if out.applied:
            assert out.pos_after > out.pos_before
            assert out.result.is_strongly_connected()
        else:
            assert out.pos_after == out.pos_before


def test_contract_c2_preserves_order_and_pos(rng):
    for _ in range(30):
        g, _, _ = bridged(rng, n1=rng.randint(2, 4), n2=rng.randint(2, 4))
        p = find_c2_bridge(g)
        out = contract_c2(g, p)
        assert out.applied
        h = out.result
        assert h.n == g.n
        assert out.pos_after == out.pos_before
        n1, n2 = p.n1, p.n2
        assert transmission(h) == (transmission(g) - 2 * n1 * n2
                                   + 2 * n1 + 2 * n2 - 2)


def test_longest_induced_path_cycle():
    p = longest_induced_path(families.cycle(5))
    assert len(p) - 1 == 3  # closing arrows chord anything longer


def test_longest_induced_path_on_path():
    p = longest_induced_path(families.path(6))
    assert p == (0, 1, 2, 3, 4, 5)


def is_induced_path(g, seq):
    """The only arrows among the vertices of seq are seq[i] -> seq[i+1]."""
    return all(bool(g.rows[a] >> b & 1) == (j == i + 1)
               for i, a in enumerate(seq) for j, b in enumerate(seq) if i != j)


@settings(max_examples=150, deadline=None)
@given(digraphs(min_n=1, max_n=7))
def test_longest_induced_path_matches_brute_force(g):
    # longest first; permutations come in lexicographic order, so the
    # first induced one is the smallest of the longest
    expected = next(seq for r in range(g.n, 0, -1) for seq in permutations(range(g.n), r)
                    if is_induced_path(g, seq))
    assert longest_induced_path(g) == expected


def test_longest_induced_path_exact_up_to_the_cap():
    g = families.cycle(EXACT_PATH_LIMIT)
    assert longest_induced_path(g) == tuple(range(EXACT_PATH_LIMIT - 1))
    with pytest.raises(SizeError):
        longest_induced_path(families.cycle(EXACT_PATH_LIMIT + 1))


def test_t1_requires_strong_connectivity():
    with pytest.raises(DomainError):
        t1_step(families.path(4))


def test_t1_on_cycle_not_applied():
    # the cycle is already extremal at small orders; no move helps
    out = t1_step(families.cycle(4))
    assert not out.applied
    assert out.pos_after == out.pos_before


def test_t1_applied_is_strict(rng):
    applied = 0
    for _ in range(40):
        g = random_strongly_connected(rng.randint(4, 7), rng)
        try:
            out = t1_step(g)
        except DomainError:
            continue
        if out.applied:
            applied += 1
            assert out.pos_after > out.pos_before
            assert out.result.n == g.n
            assert out.result.is_strongly_connected()
    assert applied > 0  # the move does fire on random inputs


def test_t1_fixpoint_on_bags():
    for n in (11, 13):
        for k in (3, n - 2):
            out = t1_step(families.canonical_bag(n, k))
            assert not out.applied


def test_t1_on_bags_beyond_order_14():
    # on the exact longest induced path every bag here is a fixpoint but
    # H_17(3), whose step gains 6; a greedy path moves bags with k >= 7
    for n in (15, 16, 17):
        for k in range(3, n):
            out = t1_step(families.canonical_bag(n, k))
            if (n, k) == (17, 3):
                assert (out.applied, out.pos_before, out.pos_after) == (True, 1102, 1108)
            else:
                assert not out.applied


def test_detect_bunches():
    g = Digraph.from_arrows(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    bunches = detect_bunches(g)
    assert len(bunches) == 1
    b = bunches[0]
    assert (b.start, b.end) == (0, 3)
    assert sorted(b.paths) == [(0, 1, 3), (0, 2, 3)]


def test_detect_bunches_none_on_cycle():
    assert detect_bunches(families.cycle(5)) == []


def test_detect_bunches_cross_induced():
    # cross arrow between internal vertices kills the strict reading
    g = Digraph.from_arrows(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (1, 3)])
    loose = detect_bunches(g)
    strict = detect_bunches(g, cross_induced=True)
    assert len(loose) >= len(strict)


def reference_induced_paths(g, s, t, min_len):
    """The induced s-t paths of at least min_len arrows, by a standalone
    depth-first search that keeps its own path bitmask."""
    found = []
    ins = g.transpose().rows

    def extend(path, pathmask, blocked):
        last = path[-1]
        for v in iter_bits(g.rows[last] & ~ins[last] & ~pathmask & ~blocked):
            if v == t:
                if len(path) >= min_len:
                    found.append(tuple(path + [t]))
                continue
            extend(path + [v], pathmask | 1 << v, blocked | g.rows[last] | ins[last])

    extend([s], 1 << s, 0)
    return found


def reference_pair(g, paths, cross_induced):
    """The first two paths, in list order, without a shared inner vertex
    and, under cross_induced, without an arrow between their insides."""
    for a, b in combinations(paths, 2):
        ia, ib = set(a[1:-1]), set(b[1:-1])
        cross = any(g.rows[u] >> w & 1 or g.rows[w] >> u & 1 for u in ia for w in ib)
        if not ia & ib and not (cross_induced and cross):
            return (a, b)
    return None


def test_detect_bunches_matches_reference(rng):
    for i in range(60):
        n = rng.randint(2, 8)
        g = random_strongly_connected(n, rng) if i % 2 else Digraph.from_arrows(
            n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.35])
        for min_len in (1, 2, 3):
            paths = {(s, t): reference_induced_paths(g, s, t, min_len)
                     for s in range(n) for t in range(n) if s != t}
            for (s, t), expected in paths.items():
                assert transforms._induced_paths(g, s, t, min_len) == expected
            for cross_induced in (False, True):
                expected = []
                for (s, t), ps in paths.items():
                    pair = reference_pair(g, ps, cross_induced)
                    if pair is not None:
                        expected.append((s, t, pair))
                got = detect_bunches(g, min_len=min_len, cross_induced=cross_induced)
                assert [(b.start, b.end, b.paths) for b in got] == expected
