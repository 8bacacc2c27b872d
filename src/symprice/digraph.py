"""Bitset-backed simple digraphs.

A digraph on n vertices (labelled 0..n-1) stores its adjacency as n row
bitsets: bit j of ``rows[i]`` is set iff the arrow (i, j) is present.
Instances are immutable values; every mutator returns a new graph.

A batch of graphs of one order is an (N, n, n) boolean adjacency stack.
``adjacency_stack`` builds one from row tuples at any order and
``stack_rows`` is its inverse; ``Digraph.from_stack`` makes graphs of a
stack.  Only this module cuts batches: ``slices`` bounds a slice to
``TABLE_ENTRIES`` entries, and ``stream`` runs a kernel over a stream of
parts, such as graphs and then their closures, building each slice from
the parts it covers.  ``distance_stack`` is the package's one batched
all-pairs loop: a Floyd–Warshall (Floyd, CACM 1962) over an int16 stack
of N graphs, stored with the batch axis last while N >= n, so each of
its n passes is one numpy operation over the whole stack with inner
loops along the batch.  It always makes n passes, where a breadth-first
search would stop at the diameter; that is the price of one engine for
dense graphs of large order.  ``distance_stream`` streams it.
``bfs_levels`` is the scalar frontier loop for single graphs.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import SizeError

ISO_ORDER_CAP = 10  # canonical forms are only claimed up to this order
ORDER_CAP = 1000  # orders read from family specs and graph files; ladder timings in README
TABLE_ENTRIES = 1 << 17  # entries per slice of a batch (n * n a graph to the engine): bounds memory


def check_order(n: int) -> None:
    """Refuse an order above ``ORDER_CAP`` before anything that large is built."""
    if n > ORDER_CAP:
        raise SizeError(f"graph order capped at n={ORDER_CAP}, got {n}")


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
    one frontier-expansion loop of the package; ``distance_stack`` is
    its batched counterpart.
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


def adjacency_stack(rows: Iterable[tuple[int, ...]], n: int) -> np.ndarray:
    """The (N, n, n) boolean adjacency stack of the graphs of order n
    whose row tuples are ``rows``, in order: entry (k, i, j) is bit j of
    row i of graph k.  The inverse of ``stack_rows``."""
    masks = chain.from_iterable(rows)
    if n > 64:  # a row spans several 64-bit words, low word first
        masks = (r >> k & 0xFFFF_FFFF_FFFF_FFFF for r in masks for k in range(0, n, 64))
    words = np.fromiter(masks, np.uint64).astype("<u8", copy=False).reshape(-1, n, -(-n // 64))
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def stack_rows(adj: np.ndarray) -> list[tuple[int, ...]]:
    """The row tuples of the graphs of an (N, n, n) boolean adjacency
    stack, in order.  The inverse of ``adjacency_stack``."""
    n = adj.shape[-1]
    octets = np.zeros((*adj.shape[:-1], -(-n // 64) * 8), np.uint8)
    octets[..., :-(-n // 8)] = np.packbits(adj, axis=-1, bitorder="little")
    words = octets.view("<u8")
    masks = words[..., -1].astype(object)
    for k in range(words.shape[-1] - 2, -1, -1):  # a row's lower words, highest first
        masks = masks << 64 | words[..., k]
    return list(map(tuple, masks.tolist()))


def symmetric_closures(adj: np.ndarray) -> np.ndarray:
    """Batched ``Digraph.symmetric_closure`` of an (N, n, n) boolean
    adjacency stack."""
    return adj | adj.transpose(0, 2, 1)


def distance_stack(adj: np.ndarray) -> np.ndarray:
    """The all-pairs distances of each graph of an (N, n, n) boolean
    adjacency stack, as an (N, n, n) int16 array: a batched
    Floyd–Warshall from 1 on each arrow and a sentinel of 2n elsewhere,
    which stays on every pair not reached.  Each of the n passes is one
    numpy operation over the whole stack, whose inner loops run along
    the axis innermost in memory, so the stack is stored as (n, n, N),
    batch axis last, while N >= n, and batch-first below.  Distances
    stay below n <= ``ORDER_CAP``, so every d + d, the sentinel's
    included, fits in int16."""
    count, n = adj.shape[:2]
    memory = (1, 2, 0) if count >= n else (0, 1, 2)  # the stored axes, outermost first
    dist = np.where(np.ascontiguousarray(adj.transpose(memory)), np.int16(1), np.int16(2 * n))
    dist = dist.transpose(np.argsort(memory))
    dist[:, np.arange(n), np.arange(n)] = 0
    for k in range(n):
        np.minimum(dist, dist[:, :, k, None] + dist[:, None, k], out=dist)
    return dist


def _slice_sums(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three arrays of ``distance_stream`` for one slice, an (N, n, n)
    boolean adjacency stack."""
    dist = distance_stack(adj)
    reached = dist < 2 * adj.shape[1]
    dist *= reached
    return (dist.sum(axis=(1, 2), dtype=np.int64), dist.max(axis=(1, 2)).astype(np.int64),
            reached.all(axis=(1, 2)))


def slices(count: int, size: int) -> list[tuple[int, int]]:
    """The bounds (lo, hi) of the slices of ``count`` items of ``size``
    entries each, ``TABLE_ENTRIES`` // size items (at least one) a slice;
    one empty slice for no items."""
    step = max(1, TABLE_ENTRIES // size)
    return [(lo, min(lo + step, count)) for lo in range(0, count, step)] or [(0, 0)]


def stream(kernel: Callable, size: int, *parts: tuple[int, Callable[[int, int], np.ndarray]]):
    """``kernel`` over the items of ``parts`` in turn, each a pair (count,
    build) where ``build(lo, hi)`` returns the array of the part's items
    lo to hi - 1.  Each of the ``slices`` of items of ``size`` entries is
    built from every part, with an empty range where it misses one, and
    passed to ``kernel``, uncopied where one part covers it, so a stream
    holds one slice at a time.  Returns the kernel's outputs, one array
    or a tuple of them, joined."""
    starts = list(accumulate((count for count, _ in parts), initial=0))
    out = []
    for lo, hi in slices(starts[-1], size):
        built = [build(min(max(lo - start, 0), count), min(max(hi - start, 0), count))
                 for start, (count, build) in zip(starts, parts)]
        full = [b for b in built if len(b)]
        out.append(kernel(full[0] if len(full) == 1 else np.concatenate(built)))
    if isinstance(out[0], tuple):
        return tuple(map(np.concatenate, zip(*out)))
    return np.concatenate(out)


def distance_stream(n: int, *parts: tuple[int, Callable[[int, int], np.ndarray]]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``stream`` of ``_slice_sums`` over graphs of order n, n² entries
    each, whose ``parts`` build boolean adjacency stacks: per graph, the
    sum of the distances of the pairs reached, the largest of them (the
    diameter of a strongly connected graph) and whether all were reached."""
    return stream(_slice_sums, n * n, *parts)


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

    @classmethod
    def from_stack(cls, adj: np.ndarray) -> list["Digraph"]:
        """The graphs of an (N, n, n) boolean adjacency stack, in stack
        order.  The loop check of ``__post_init__`` runs once over the
        whole stack, with the same error for the first faulty graph; the
        instances are then built without the checks."""
        if adj.dtype != bool:
            raise ValueError(f"an adjacency stack must be boolean, got {adj.dtype}")
        n = adj.shape[-1]
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        if adj.ndim != 3 or adj.shape[1] != n:
            raise ValueError("adjacency must have exactly n rows")
        loops = adj.diagonal(axis1=1, axis2=2)
        if loops.any():  # row-major: the first instance, then its first loop, as one by one
            raise ValueError(f"loop at vertex {int(loops.argmax()) % n}")
        new, set_field = object.__new__, object.__setattr__  # frozen: set past __setattr__
        graphs = []
        for rows in stack_rows(adj):
            g = new(cls)
            set_field(g, "n", n)
            set_field(g, "rows", rows)
            graphs.append(g)
        return graphs

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

    def is_strongly_connected(self, within: int | None = None) -> bool:
        """Whether every vertex reaches every other, optionally in the
        subgraph induced by a vertex bitmask; at most one vertex counts
        as strongly connected."""
        verts = (1 << self.n) - 1 if within is None else within
        if not verts & verts - 1:
            return True
        s = (verts & -verts).bit_length() - 1
        if self.reachable_from(s, within=verts) != verts:
            return False
        return self.transpose().reachable_from(s, within=verts) == verts


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
