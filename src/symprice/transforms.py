"""Price-increasing graph transformations.

Covers non-critical arrow removal, detection of induced 2-cycles whose
arrows are both bridges, the rewiring and contraction moves on such
bridges, the contraction-insertion step driven by the longest induced
path, and bunch detection.
"""
from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, iter_bits, mask_of
from .errors import DomainError, InvariantViolation
from .invariants import pos_sigma
from .distances import all_pairs_distances, sigma_from_vertex, sigma_to_vertex

EXACT_PATH_LIMIT = 14


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
        if not h.is_strongly_connected():
            continue
        if pos_sigma(h) > base:
            return (u, v)
    return None


def make_critical(g: Digraph) -> Digraph:
    """Remove non-critical arrows until none is left."""
    while True:
        a = find_non_critical_arrow(g)
        if a is None:
            return g
        g = g.remove_arrow(*a)


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
            stripped = g.remove_arrow(u, v).remove_arrow(v, u)
            X = stripped.reachable_from(u)
            Y = full & ~X
            p = BridgePartition(x=u, y=v, X=X, Y=Y)
            _check_partition(g, p)
            return p
    return None


def _check_partition(g: Digraph, p: BridgePartition) -> None:
    full = (1 << g.n) - 1
    if p.X | p.Y != full or p.X & p.Y:
        raise InvariantViolation("X, Y do not partition the vertices")
    if not (p.X >> p.x & 1 and p.Y >> p.y & 1):
        raise InvariantViolation("x or y on the wrong side")
    for a in iter_bits(p.X):
        cross = g.rows[a] & p.Y
        if cross and not (a == p.x and cross == 1 << p.y):
            raise InvariantViolation(f"extra arrow from X vertex {a} into Y")
    for b in iter_bits(p.Y):
        cross = g.rows[b] & p.X
        if cross and not (b == p.y and cross == 1 << p.x):
            raise InvariantViolation(f"extra arrow from Y vertex {b} into X")
    stripped = g.remove_arrow(p.x, p.y).remove_arrow(p.y, p.x)
    if not stripped.strongly_connected_within(p.X):
        raise InvariantViolation("X side not strongly connected")
    if not stripped.strongly_connected_within(p.Y):
        raise InvariantViolation("Y side not strongly connected")


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
    mapping = []
    new = 0
    for w in range(g.n):
        if w == v:
            mapping.append(-1)  # fixed below
        else:
            mapping.append(new)
            new += 1
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


# -- longest induced path --------------------------------------------


@dataclass(frozen=True)
class InducedPath:
    vertices: tuple[int, ...]
    exact: bool

    def __len__(self) -> int:  # length in arrows
        return len(self.vertices) - 1


def longest_induced_path(g: Digraph, exact_limit: int = EXACT_PATH_LIMIT) -> InducedPath:
    """A maximum-length directed induced path: the only arrows among its
    vertices are the consecutive forward ones.

    Exact backtracking up to ``exact_limit`` vertices (ties resolved to
    the lexicographically smallest sequence); a greedy multi-start
    heuristic beyond that, flagged as inexact.
    """
    if g.n <= exact_limit:
        return InducedPath(_lip_exact(g), True)
    return InducedPath(_lip_greedy(g), False)


def _lip_exact(g: Digraph) -> tuple[int, ...]:
    best: list[int] = []
    ins = g.transpose().rows

    def extend(path: list[int], pathmask: int, blocked: int) -> None:
        nonlocal best
        if len(path) > len(best):
            best = list(path)
        last = path[-1]
        for v in iter_bits(g.rows[last] & ~ins[last] & ~pathmask & ~blocked):
            extend(path + [v], pathmask | 1 << v, blocked | g.rows[last] | ins[last])

    for s in range(g.n):
        extend([s], 1 << s, 0)
    return tuple(best)


def _lip_greedy(g: Digraph) -> tuple[int, ...]:
    best: list[int] = []
    ins = g.transpose().rows
    for s in range(g.n):
        path = [s]
        pathmask = 1 << s
        blocked = 0
        while True:
            last = path[-1]
            cand = g.rows[last] & ~ins[last] & ~pathmask & ~blocked
            if not cand:
                break
            v = next(iter_bits(cand))
            path.append(v)
            pathmask |= 1 << v
            blocked |= g.rows[last] | ins[last]
        if len(path) > len(best):
            best = path
    return tuple(best)


# -- contraction-insertion step --------------------------------------


def t1_step(g: Digraph, exact_limit: int = EXACT_PATH_LIMIT) -> TransformOutcome:
    """Score every arrow off the longest induced path by the price gain
    of contracting it and re-inserting a vertex on the path; apply the
    best arrow when its gain is strictly positive."""
    if not g.is_strongly_connected():
        raise DomainError("contraction-insertion needs a strongly connected graph")
    p = longest_induced_path(g, exact_limit=exact_limit).vertices
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
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            paths = _induced_paths(g, s, t, min_len)
            pair = _disjoint_pair(g, paths, cross_induced)
            if pair is not None:
                out.append(Bunch(start=s, end=t, paths=pair))
    return out


def _induced_paths(g: Digraph, s: int, t: int, min_len: int) -> list[tuple[int, ...]]:
    found: list[tuple[int, ...]] = []
    ins = g.transpose().rows

    def extend(path: list[int], pathmask: int, blocked: int) -> None:
        last = path[-1]
        for v in iter_bits(g.rows[last] & ~ins[last] & ~pathmask & ~blocked):
            if v == t:
                if len(path) >= min_len:
                    found.append(tuple(path + [t]))
                continue
            extend(path + [v], pathmask | 1 << v, blocked | g.rows[last] | ins[last])

    extend([s], 1 << s, 0)
    return found


def _disjoint_pair(
    g: Digraph, paths: list[tuple[int, ...]], cross_induced: bool
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            a, b = paths[i], paths[j]
            ia, ib = set(a[1:-1]), set(b[1:-1])
            if ia & ib:
                continue
            if cross_induced and _cross_arrows(g, ia, ib):
                continue
            return (a, b)
    return None


def _cross_arrows(g: Digraph, ia: set[int], ib: set[int]) -> bool:
    for u in ia:
        if g.rows[u] & mask_of(ib):
            return True
    for u in ib:
        if g.rows[u] & mask_of(ia):
            return True
    return False
