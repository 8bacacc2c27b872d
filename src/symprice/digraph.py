"""Bitset-backed simple digraphs.

A digraph on n vertices (labelled 0..n-1) stores its adjacency as n row
bitsets: bit j of ``rows[i]`` is set iff the arrow (i, j) is present.
Instances are immutable values; every mutator returns a new graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import SizeError

ISO_ORDER_CAP = 10  # canonical forms are only claimed up to this order
BATCH_CHUNK = 1 << 15  # graphs per slice of the batched kernels, to bound memory


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bfs_levels(rows: tuple[int, ...], s: int, allowed: int) -> Iterator[int]:
    """Yield the breadth-first levels from s as bitmasks: {s} first, then
    the vertices at distance 1, 2, ... along paths inside ``allowed``.

    ``rows[i]`` is the out-neighbour bitmask of vertex i.  This is the
    one frontier-expansion loop of the package; ``bfs_arrays`` is its
    batched twin.
    """
    seen = frontier = 1 << s
    while frontier:
        yield frontier
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= rows[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & allowed & ~seen
        seen |= frontier


def bfs_arrays(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first search from every source of every graph in ``rows``.

    ``rows`` is an int64 array of shape (N, n); ``rows[k, i]`` is the
    out-neighbour mask of vertex i in graph k.  The level recurrence is
    that of ``bfs_levels``, run for all N * n sources at once: the next
    frontier is the OR of ``rows[:, j]`` over the frontier bits j, less
    the vertices seen.  Returns, per graph, the sum of the distances
    reached, the largest depth reached (the diameter of a strongly
    connected graph) and whether every source reached every vertex.
    """
    count, n = rows.shape
    total = np.zeros(count, np.int64)
    depth_max = np.zeros(count, np.int64)
    reached = np.zeros(count, bool)
    for lo in range(0, count, BATCH_CHUNK):
        r = rows[lo:lo + BATCH_CHUNK]
        frontier = np.broadcast_to(1 << np.arange(n, dtype=np.int64), r.shape).copy()
        seen = frontier.copy()
        for depth in range(1, n):
            nxt = np.zeros_like(frontier)
            for j in range(n):
                nxt |= -(frontier >> j & 1) & r[:, j, None]
            frontier = nxt & ~seen
            seen |= frontier
            total[lo:lo + BATCH_CHUNK] += depth * np.bitwise_count(frontier).sum(axis=1, dtype=np.int64)
            depth_max[lo:lo + BATCH_CHUNK][frontier.any(axis=1)] = depth
        reached[lo:lo + BATCH_CHUNK] = (seen == (1 << n) - 1).all(axis=1)
    return total, depth_max, reached


def closure_array(rows: np.ndarray) -> np.ndarray:
    """Batched ``Digraph.symmetric_closure``: rows | transpose(rows) for
    an (N, n) array of row masks."""
    shifts = np.arange(rows.shape[1], dtype=np.int64)
    closure = rows.copy()
    for i in range(rows.shape[1]):
        closure |= (rows[:, i, None] >> shifts & 1) << i  # arrow i -> j adds j -> i
    return closure


@dataclass(frozen=True)
class Digraph:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"order must be >= 1, got {self.n}")
        if len(self.rows) != self.n:
            raise ValueError("adjacency must have exactly n rows")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {i} references a vertex >= n")
            if row >> i & 1:
                raise ValueError(f"loop at vertex {i}")

    # -- construction ------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Digraph":
        return cls(n, (0,) * n)

    @classmethod
    def from_arrows(cls, n: int, arrows: Iterable[tuple[int, int]]) -> "Digraph":
        rows = [0] * n
        for u, v in arrows:
            _check_arrow(n, u, v)
            rows[u] |= 1 << v
        return cls(n, tuple(rows))

    # -- basic queries -----------------------------------------------

    def has_arrow(self, u: int, v: int) -> bool:
        _check_arrow(self.n, u, v)
        return bool(self.rows[u] >> v & 1)

    def arrows(self) -> Iterator[tuple[int, int]]:
        """Arrows in lexicographic (u, v) order."""
        for u in range(self.n):
            for v in iter_bits(self.rows[u]):
                yield (u, v)

    def arrow_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def out_degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def in_degree(self, v: int) -> int:
        return sum(row >> v & 1 for row in self.rows)

    # -- pure mutators -----------------------------------------------

    def add_arrow(self, u: int, v: int) -> "Digraph":
        _check_arrow(self.n, u, v)
        rows = list(self.rows)
        rows[u] |= 1 << v
        return Digraph(self.n, tuple(rows))

    def remove_arrow(self, u: int, v: int) -> "Digraph":
        _check_arrow(self.n, u, v)
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        return Digraph(self.n, tuple(rows))

    # -- derived graphs ----------------------------------------------

    def transpose(self) -> "Digraph":
        rows = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in iter_bits(row):
                rows[j] |= 1 << i
        return Digraph(self.n, tuple(rows))

    def symmetric_closure(self) -> "Digraph":
        t = self.transpose()
        return Digraph(self.n, tuple(a | b for a, b in zip(self.rows, t.rows)))

    def is_symmetric(self) -> bool:
        return self.rows == self.transpose().rows

    def relabel(self, perm: Iterable[int]) -> "Digraph":
        """Return the graph with vertex i renamed perm[i]."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError("not a permutation of 0..n-1")
        rows = [0] * self.n
        for i, row in enumerate(self.rows):
            for j in iter_bits(row):
                rows[p[i]] |= 1 << p[j]
        return Digraph(self.n, tuple(rows))

    def induced(self, vertices: int) -> "Digraph":
        """Induced subgraph on a vertex bitmask; vertices are relabelled
        0..k-1 in increasing original order."""
        verts = list(iter_bits(vertices))
        pos = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for v in verts:
            for w in iter_bits(self.rows[v] & vertices):
                rows[pos[v]] |= 1 << pos[w]
        return Digraph(len(verts), tuple(rows))

    # -- connectivity ------------------------------------------------

    def reachable_from(self, s: int, within: int | None = None) -> int:
        """Bitmask of vertices reachable from s (s included), optionally
        restricted to a vertex bitmask."""
        allowed = (1 << self.n) - 1 if within is None else within
        seen = 0
        for level in bfs_levels(self.rows, s, allowed):
            seen |= level
        return seen

    def is_strongly_connected(self) -> bool:
        if self.n == 1:
            return True
        full = (1 << self.n) - 1
        if self.reachable_from(0) != full:
            return False
        return self.transpose().reachable_from(0) == full

    def strongly_connected_within(self, vertices: int) -> bool:
        verts = list(iter_bits(vertices))
        if len(verts) <= 1:
            return True
        s = verts[0]
        if self.reachable_from(s, within=vertices) != vertices:
            return False
        return self.transpose().reachable_from(s, within=vertices) == vertices


def _check_arrow(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"arrow ({u},{v}) out of range for order {n}")
    if u == v:
        raise ValueError(f"loop ({u},{u}) not allowed")


# -- isomorphism -----------------------------------------------------


def canonical_form(g: Digraph) -> bytes:
    """Canonical byte-string: equal iff isomorphic.

    Minimises, over all vertex orderings, the level encoding in which
    vertex r contributes the 2r bits describing its arrows to/from the
    r previously placed vertices.  Backtracking with prefix pruning;
    intended for n <= 10 only.
    """
    n = g.n
    if n > ISO_ORDER_CAP:
        raise SizeError(f"canonical form supported up to n={ISO_ORDER_CAP}, got {n}")
    rows = g.rows
    best: list[int] | None = None

    def extend(chosen: list[int], used: int, codes: list[int]) -> None:
        nonlocal best
        r = len(chosen)
        if r == n:
            if best is None or codes < best:
                best = list(codes)
            return
        cands = []
        for v in range(n):
            if used >> v & 1:
                continue
            c = 0
            for u in chosen:
                c = c << 2 | (rows[u] >> v & 1) << 1 | (rows[v] >> u & 1)
            cands.append((c, v))
        cands.sort()
        for c, v in cands:
            codes.append(c)
            if best is not None and codes > best[: r + 1]:
                codes.pop()
                break  # sorted: every later candidate is at least as bad
            extend(chosen + [v], used | 1 << v, codes)
            codes.pop()

    extend([], 0, [])
    assert best is not None
    out = bytearray([n])
    for code in best:
        out += code.to_bytes(4, "big")
    return bytes(out)


def are_isomorphic(g: Digraph, h: Digraph) -> bool:
    if g.n != h.n:
        return False
    if g.arrow_count() != h.arrow_count():
        return False
    if sorted((g.out_degree(v), g.in_degree(v)) for v in range(g.n)) != sorted(
        (h.out_degree(v), h.in_degree(v)) for v in range(h.n)
    ):
        return False
    return canonical_form(g) == canonical_form(h)
