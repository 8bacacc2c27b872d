"""Shortest-path distances and partial transmission sums.

Distances are computed by per-source breadth-first search over the
bitset levels of ``digraph.bfs_levels``.  Unreachable pairs are stored
as ``UNREACHABLE`` (None), never as a sentinel integer, so accidental
arithmetic on them fails loudly.
"""
from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, bfs_levels, iter_bits
from .errors import DomainError

UNREACHABLE = None


@dataclass(frozen=True)
class DistanceMatrix:
    n: int
    dist: tuple[tuple[int | None, ...], ...]

    def __getitem__(self, pair: tuple[int, int]) -> int | None:
        i, j = pair
        return self.dist[i][j]


def all_pairs_distances(g: Digraph) -> DistanceMatrix:
    full = (1 << g.n) - 1
    rows = []
    for s in range(g.n):
        d: list[int | None] = [UNREACHABLE] * g.n
        for depth, level in enumerate(bfs_levels(g.rows, s, full)):
            for j in iter_bits(level):
                d[j] = depth
        rows.append(tuple(d))
    return DistanceMatrix(g.n, tuple(rows))


def bfs_row_sum(g: Digraph, s: int) -> int:
    """Sum of distances from s to every vertex; DomainError if some
    vertex is unreachable."""
    full = (1 << g.n) - 1
    seen = total = 0
    for depth, level in enumerate(bfs_levels(g.rows, s, full)):
        total += depth * level.bit_count()
        seen |= level
    if seen != full:
        missing = next(iter_bits(full & ~seen))
        raise DomainError(f"vertex {missing} unreachable from {s}")
    return total


def _entry(d: DistanceMatrix, i: int, j: int) -> int:
    v = d.dist[i][j]
    if v is UNREACHABLE:
        raise DomainError(f"pair ({i},{j}) is unreachable")
    return v


def sigma_to_vertex(d: DistanceMatrix, X: int, v: int) -> int:
    """sigma(X, v): sum of |x,v| over x in the vertex bitmask X."""
    return sum(_entry(d, x, v) for x in iter_bits(X))


def sigma_from_vertex(d: DistanceMatrix, v: int, X: int) -> int:
    """sigma(v, X): sum of |v,x| over x in the vertex bitmask X."""
    return sum(_entry(d, v, x) for x in iter_bits(X))
