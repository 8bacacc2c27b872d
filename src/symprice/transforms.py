"""Price-increasing graph transformations.

Covers non-critical arrow removal, detection of induced 2-cycles whose
arrows are both bridges, the rewiring and contraction moves on such
bridges, the contraction-insertion step driven by the longest induced
path, and bunch detection.  One depth-first walk over induced paths
serves the last two; the longest path is exact at every order accepted.
The walk visits every induced path, and their number can grow
exponentially: on the ladder of 2-vertex layers, each joined to the next
by all four arrows and the last to the first, it took 0.20 s at n = 28,
0.94 s at 32 and 2.3 s at 34 on a 2-core x86 host.  Orders above
``EXACT_PATH_LIMIT`` raise ``SizeError``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterable

from .digraph import Digraph, iter_bits, mask_of
from .errors import DomainError, InvariantViolation, SizeError
from .invariants import pos_sigma
from .distances import all_pairs_distances, sigma_from_vertex, sigma_to_vertex

EXACT_PATH_LIMIT = 32  # ladder timings in the module docstring


@dataclass(frozen=True)
class BridgePartition:
    """Sides of an induced 2-cycle whose both arrows are bridges: the
    only arrows between the vertex sets X and Y are (x, y) and (y, x)."""

    x: int
    y: int
    X: int  # bitmask, contains x
    Y: int  # bitmask, contains y

    @property
    def n1(self) -> int:
        return self.X.bit_count()

    @property
    def n2(self) -> int:
        return self.Y.bit_count()


@dataclass(frozen=True)
class TransformOutcome:
    applied: bool
    result: Digraph | None
    pos_before: int
    pos_after: int
    rule: str


def find_non_critical_arrow(g: Digraph) -> tuple[int, int] | None:
    """First arrow (lexicographic) whose removal keeps strong
    connectivity and strictly raises the transmission price."""
    base = pos_sigma(g)
    for u, v in g.arrows():
        h = g.remove_arrow(u, v)
        if h.is_strongly_connected() and pos_sigma(h) > base:
            return (u, v)
    return None


def make_critical(g: Digraph) -> Digraph:
    """Remove non-critical arrows until none is left."""
    while (a := find_non_critical_arrow(g)) is not None:
        g = g.remove_arrow(*a)
    return g


def find_c2_bridge(g: Digraph) -> BridgePartition | None:
    """First induced 2-cycle (by vertex pair) whose both arrows are
    bridges, together with the induced side partition."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in iter_bits(g.rows[u]):
            if v < u or not g.rows[v] >> u & 1:
                continue
            if g.remove_arrow(u, v).is_strongly_connected():
                continue
            if g.remove_arrow(v, u).is_strongly_connected():
                continue
            X = g.remove_arrow(u, v).remove_arrow(v, u).reachable_from(u)
            p = BridgePartition(x=u, y=v, X=X, Y=full & ~X)
            _check_partition(g, p)
            return p
    return None


def _check_partition(g: Digraph, p: BridgePartition) -> None:
    full = (1 << g.n) - 1
    if p.X | p.Y != full or p.X & p.Y:
        raise InvariantViolation("X, Y do not partition the vertices")
    if not (p.X >> p.x & 1 and p.Y >> p.y & 1):
        raise InvariantViolation("x or y on the wrong side")
    stripped = g.remove_arrow(p.x, p.y).remove_arrow(p.y, p.x)
    for name, side, other in (("X", p.X, "Y"), ("Y", p.Y, "X")):
        for a in iter_bits(side):
            if stripped.rows[a] & ~side:
                raise InvariantViolation(f"extra arrow from {name} vertex {a} into {other}")
        if not stripped.is_strongly_connected(within=side):
            raise InvariantViolation(f"{name} side not strongly connected")


def break_c2(g: Digraph, p: BridgePartition) -> TransformOutcome:
    """Replace the return arrow (y, x) by (y', x') where x' maximises
    the outgoing distance sum over X and y' the incoming sum over Y.

    The price never decreases; it stays equal exactly when the chosen
    pair is (x, y) itself, in which case the move is reported as not
    applied."""
    d = all_pairs_distances(g)
    x_best = max(iter_bits(p.X), key=lambda a: (sigma_from_vertex(d, a, p.X), -a))
    y_best = max(iter_bits(p.Y), key=lambda b: (sigma_to_vertex(d, p.Y, b), -b))
    pos_before = pos_sigma(g)
    if (x_best, y_best) == (p.x, p.y):
        return TransformOutcome(False, None, pos_before, pos_before, "break-c2")
    h = g.remove_arrow(p.y, p.x).add_arrow(y_best, x_best)
    return TransformOutcome(True, h, pos_before, pos_sigma(h), "break-c2")


def _contract(g: Digraph, u: int, v: int) -> tuple[Digraph, list[int]]:
    """Merge v into u, dropping loops and duplicate arrows.  Returns the
    contracted graph and the old->new vertex mapping."""
    mapping = [w - (w > v) for w in range(g.n)]
    mapping[v] = mapping[u]
    rows = [0] * (g.n - 1)
    for a, b in g.arrows():
        ma, mb = mapping[a], mapping[b]
        if ma != mb:
            rows[ma] |= 1 << mb
    return Digraph(g.n - 1, tuple(rows)), mapping


def contract_c2(g: Digraph, p: BridgePartition) -> TransformOutcome:
    """Contract the bridge (x, y) into a vertex z and attach a fresh
    pendant vertex w by a 2-cycle; order and price are preserved."""
    pos_before = pos_sigma(g)
    contracted, mapping = _contract(g, p.x, p.y)
    z = mapping[p.x]
    w = g.n - 1
    rows = list(contracted.rows) + [0]
    rows[z] |= 1 << w
    rows[w] |= 1 << z
    h = Digraph(g.n, tuple(rows))
    return TransformOutcome(True, h, pos_before, pos_sigma(h), "contract-c2")


# -- induced paths ---------------------------------------------------


def _walk_induced_paths(g: Digraph, starts: Iterable[int], visit: Callable[[list[int]], bool]) -> None:
    """Depth-first walk over the directed induced paths that start at
    each of ``starts`` in turn, smaller vertices tried first, so paths
    from one start come in lexicographic order.  ``visit`` sees every
    path as a vertex list (the start alone first; copy it to keep it)
    and the walk extends a path only when ``visit`` returns True."""
    outs, ins = g.rows, g.transpose().rows

    def extend(path: list[int], blocked: int) -> None:
        # blocked: the neighbours of the path's vertices before the last;
        # with the last's in-neighbours it covers the path itself
        last = path[-1]
        for v in iter_bits(outs[last] & ~ins[last] & ~blocked):
            path.append(v)
            if visit(path):
                extend(path, blocked | outs[last] | ins[last])
            path.pop()

    for s in starts:
        if visit([s]):
            extend([s], 0)


def longest_induced_path(g: Digraph) -> tuple[int, ...]:
    """A maximum-length directed induced path as a vertex tuple: the only
    arrows among its vertices are the consecutive forward ones.  Ties go
    to the lexicographically smallest sequence; orders above
    ``EXACT_PATH_LIMIT`` raise ``SizeError``."""
    if g.n > EXACT_PATH_LIMIT:
        raise SizeError(f"longest induced path supported up to n={EXACT_PATH_LIMIT}, got {g.n}")
    best: tuple[int, ...] = ()

    def visit(path: list[int]) -> bool:
        nonlocal best
        if len(path) > len(best):
            best = tuple(path)
        return True

    _walk_induced_paths(g, range(g.n), visit)
    return best


# -- contraction-insertion step --------------------------------------


def t1_step(g: Digraph) -> TransformOutcome:
    """Score every arrow off the longest induced path by the price gain
    of contracting it and re-inserting a vertex on the path; apply the
    best arrow when its gain is strictly positive."""
    if not g.is_strongly_connected():
        raise DomainError("contraction-insertion needs a strongly connected graph")
    p = longest_induced_path(g)
    p_arrows = set(zip(p, p[1:]))
    candidates = [a for a in g.arrows() if a not in p_arrows]
    if not candidates:
        raise DomainError("no arrow outside the longest induced path")
    pos_before = pos_sigma(g)
    best_score = None
    best_graph = None
    for a in candidates:
        h = _contract_insert(g, a, p)
        if h is None or not h.is_strongly_connected():
            continue
        score = pos_sigma(h) - pos_before
        if best_score is None or score > best_score:
            best_score, best_graph = score, h
    if best_score is not None and best_score > 0:
        return TransformOutcome(True, best_graph, pos_before, pos_before + best_score, "t1")
    return TransformOutcome(False, None, pos_before, pos_before, "t1")


def _contract_insert(g: Digraph, a: tuple[int, int], p: tuple[int, ...]) -> Digraph | None:
    contracted, mapping = _contract(g, *a)
    # subdivide the first path arrow that survived the contraction
    for pu, pv in zip(p, p[1:]):
        mu, mv = mapping[pu], mapping[pv]
        if mu != mv and contracted.rows[mu] >> mv & 1:
            z = contracted.n
            rows = list(contracted.rows) + [0]
            rows[mu] &= ~(1 << mv)
            rows[mu] |= 1 << z
            rows[z] = 1 << mv
            return Digraph(contracted.n + 1, tuple(rows))
    return None


# -- bunches ---------------------------------------------------------


@dataclass(frozen=True)
class Bunch:
    start: int
    end: int
    paths: tuple[tuple[int, ...], ...]  # a pair of internally disjoint induced paths


def detect_bunches(g: Digraph, min_len: int = 2, cross_induced: bool = False) -> list[Bunch]:
    """Pairs (s, t) joined by at least two internally disjoint induced
    directed paths of length >= min_len.

    With ``cross_induced`` the two paths must additionally induce no
    arrows between their internal vertices.
    """
    out = []
    for s, t in permutations(range(g.n), 2):
        pair = _disjoint_pair(g, _induced_paths(g, s, t, min_len), cross_induced)
        if pair is not None:
            out.append(Bunch(start=s, end=t, paths=pair))
    return out


def _induced_paths(g: Digraph, s: int, t: int, min_len: int) -> list[tuple[int, ...]]:
    """The induced paths from s to t with at least ``min_len`` arrows,
    in walk order."""
    found: list[tuple[int, ...]] = []

    def visit(path: list[int]) -> bool:
        if path[-1] != t:
            return True
        if len(path) > min_len:
            found.append(tuple(path))
        return False

    _walk_induced_paths(g, (s,), visit)
    return found


def _disjoint_pair(
    g: Digraph, paths: list[tuple[int, ...]], cross_induced: bool
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    inner = [mask_of(p[1:-1]) for p in paths]
    for i, j in combinations(range(len(paths)), 2):
        a, b = inner[i], inner[j]
        if not a & b and not (cross_induced and _arrows_between(g, a, b)):
            return (paths[i], paths[j])
    return None


def _arrows_between(g: Digraph, a: int, b: int) -> bool:
    """Whether an arrow joins the vertex bitmasks a and b either way."""
    return any(g.rows[u] & b for u in iter_bits(a)) or any(g.rows[u] & a for u in iter_bits(b))
