"""Exhaustive enumeration and heuristic search.

Enumeration scans a space of integer codes for labelled graphs and keeps
the codes that are minimal under every vertex permutation (vectorised
with numpy).  There are two code spaces:

- digraphs: one bit per ordered pair (u, v), u != v, set when the arrow
  u -> v is present; the code is the adjacency mask itself.
- tournaments: one bit per pair u > v, ordered by (u, v), set when the
  pair points backward (u -> v) and clear when it points forward.  A
  permutation that reverses a pair's order flips its bit.

In both spaces code order is adjacency-mask order, so each class is
represented by its member with the minimal adjacency mask, and the
representatives come out in ascending mask order.  A scan covers at
most 2^``_CODE_BITS`` codes: digraphs to n = 6 (30 slots), tournaments
to n = 8 (28 slots).  Each order's codes are scanned once per process:
``_class_codes`` caches them, read-only, for every later enumeration.
The cache holds codes only, so that bound bounds it; its largest entry,
the 1,540,944 digraph classes of order 6, takes 12.3 MB.

A permutation acts on codes through two lookup tables, one per half of the
slots; a code's image is the XOR of its two entries.  numpy builds the
tables for a block of permutations at once, with one doubling loop per
table, from a (P, slots) int64 array of destination slots read from the
code space's one slot table (``_CodeSpace``): slot (u, v) goes to
``slot[p[u], p[v]]``, the bit deciding the arrow p[u] -> p[v], and flips
where ``flip[p[u], p[v]]`` marks a tournament pair's reverse order.  A
code has at most ``_CODE_BITS`` bits, so the tables are int32; the codes,
which index them, stay int64.  The group is tried in order of points
moved, transpositions first, since small supports reject most non-minimal
codes.  Both stages of the scan are cut by the one slice rule.  The first
runs the first ``_STAGE1_PERMS`` permutations over ``digraph.slices`` of
runs, a run being the 2^half codes that share their high half (over whole
runs, the first permutation's images are the outer XOR of its two tables).
The few survivors meet the rest of the group in blocks of as many
permutations, each block one ``digraph.stream`` of keep-masks over the
survivors, so no temporary spans all of them.  At n = 6 the scan holds
little more than the 3,099,376 survivors of the first stage (24.8 MB) and
one block's tables (12.6 MB).

The surviving codes are decoded, ``digraph.slices`` of classes (n * n
entries each) at a time, into (N, n, n) boolean adjacency stacks, by one
gather of their bits through the slot table; the strong-connectivity
filter is the reached-all flag of ``digraph.distance_stream``.  Each
slice becomes graphs through ``Digraph.from_stack``, which checks it
once as a stack.

The exhaustive reports (``verify_conjecture``, ``verify_theorems``,
``exhaustive_search``) each read one enumeration into such a stack
(``_class_rows``) and make one scan step (``_scan``): price the classes
and then their closures as one stream (``invariants.price_arrays``) and
rank the difference prices.  Every graph a report names (each
maximiser, top entry and counterexample) is priced again by the scalar
``price``, and a disagreement raises InvariantViolation.

The hill climber is a deterministic steepest-ascent search with warm
starts from the known extremal families plus seeded random restarts.  A
step scores the single-arrow moves (removal, addition, reversal) that
keep the graph strongly connected, in that order, and takes the first
strictly best one; a climb ends at a local optimum or at its cap of
evaluations.  The climbs run in lockstep (``_climb_group``): each round
steps every live climb, ``digraph.slices`` of them (n² entries a climb)
at a time, and ``_evaluated`` prices a slice's moves as one batch.  It
builds the exact all-pairs distance matrices of its graphs and, for the
distance objectives, of their closures Ḡ once, as int16, by the
package's one batched Floyd–Warshall (``_distances``, over
``digraph.distance_stack``).  Adding an arrow u -> v only shortens
paths, d'(s, t) = min(d(s, t), d(s, u) + 1 + d(v, t)), the insertion step
of dynamic all-pairs shortest paths (Ausiello, Italiano,
Marchetti-Spaccamela & Nanni, J. Algorithms 1991; Demetrescu & Italiano,
JACM 2004), so every addition, every closure that adds an edge to Ḡ and
Ḡ itself are priced from those matrices (``_inserted``).  A removal or a
reversal of an arrow off an out- and an in-branching at vertex 0
(``_tree_arrows``, at most 2n - 2 arrows) keeps the graph strongly
connected, so each climb searches one exact prefix of its moves, up to
its ``remaining``-th known-strong one.  A move's closure is Ḡ, or Ḡ with
the one pair {u, v} toggled (the removal of a one-way arrow, or an
addition on an empty pair), so it is keyed by that pair and each
distinct closure is priced once.  The prefix's removals and reversals
and the distinct closures that remove an edge of Ḡ go through the same
Floyd–Warshall as one two-part ``digraph.distance_stream``, whose
reached-all flags drop the neighbours that are not strongly connected.
Domination needs only those flags, so it sends only the removals and
reversals not known to keep the graph strong, and streams the evaluated
graphs and their closures through ``_domination_array``, which tests
each subset size at once over the graphs still undecided.  Distinct
closure keys are taken by ``_distinct``, a sort and an adjacent-
difference mask: ``np.unique``'s values without its ``numpy.ma``
import.  The starts of all climbs are priced together by
``invariants.price_arrays`` before any climb is dispatched.  The climbs
are dealt round-robin into ``min(worker_count(), cores, climbs)``
groups, but no more than one per ``_GROUP_MOVES`` moves a round (climbs
times ``min(cap, n * n)``), each run in its own process, or in this
process when there is one; the process pool is imported only where a
search splits.  Only the climbs that end at the best value get a
canonical form (``_dedup_key``), to merge isomorphic maximisers.
"""
from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from .digraph import (ISO_ORDER_CAP, Digraph, adjacency_stack, canonical_form, check_order, distance_stack,
                      distance_stream, slices, stack_rows, stream, symmetric_closures)
from .errors import InvariantViolation, SizeError
# OBJECTIVES stays importable from here for callers of the search API
from .invariants import (OBJECTIVES, _domination_array, check_domination_order,  # noqa: F401
                         objective_invariant, price, price_arrays)
from . import families

# a scan covers at most 2^_CODE_BITS codes: its permutation tables are int32,
# and the 2^30-code digraph scan at n = 6 takes about 21 s
_CODE_BITS = 30
_STAGE1_PERMS = 48  # permutations in the pre-filter, and in each later block
# moves a climb group's round must hold before a second group, and process,
# pays: below it the cost per numpy call, not the data, sets a round's
# time.  On two cores, 15 climbs at n = 12 (2160 moves a round)
# ran faster in one process and 23 at n = 20 (9200) faster in two.
_GROUP_MOVES = 4096


class _CodeSpace:
    """Labelled graphs of order n as integer codes: bit b set means the
    arrow ``slots[b]``, the ordered pairs u != v of a digraph or the pairs
    u > v of a tournament (``oriented``), in lexicographic order.  The
    slot table ``slot[a, b]`` is the bit that decides the arrow a -> b,
    complemented where ``flip[a, b]`` marks a tournament pair's reverse
    order; the diagonal reads bit ``len(slots)``, clear in every code."""

    def __init__(self, n: int, oriented: bool):
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        bits = n * (n - 1) // (2 if oriented else 1)
        if bits > _CODE_BITS:
            raise SizeError(f"{('digraph', 'tournament')[oriented]} enumeration at n={n} has {bits} slots; "
                            f"a scan covers at most 2^{_CODE_BITS} codes")
        self.n, self.oriented = n, oriented
        self.slots = [(u, v) for u in range(n) for v in range(u if oriented else n) if u != v]
        u, v = self.ends = np.array(self.slots, dtype=np.int64).reshape(-1, 2).T
        self.slot, self.flip = np.full((n, n), bits, dtype=np.int64), np.zeros((n, n), dtype=bool)
        if oriented:  # the reverse order reads the same bit, flipped
            self.slot[v, u], self.flip[v, u] = range(bits), True
        self.slot[u, v] = range(bits)

    def slot_maps(self, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of the (P, n) permutation array: the slot each
        slot goes to, as a (P, slots) array, and the flip mask, the
        destination bits of the pairs whose order the permutation reverses."""
        at = perms[:, self.ends[0]] * self.n + perms[:, self.ends[1]]  # (p[u], p[v]), one index for both tables
        dest = self.slot.ravel()[at]
        return dest, (self.flip.ravel()[at] << dest).sum(axis=1)

    def stack(self, codes: np.ndarray) -> np.ndarray:
        """The (N, n, n) boolean adjacency stack of the codes: each
        code's bits gathered through the slot table, XOR its flips."""
        bits = np.unpackbits(codes.astype("<i8", copy=False).view(np.uint8), bitorder="little").reshape(-1, 64)
        return bits.view(bool)[:, self.slot] ^ self.flip


def _group(n: int) -> np.ndarray:
    """The non-identity permutations of range(n) as a (P, n) array, those
    moving the fewest points first (transpositions, then 3-cycles, ...),
    ties in ``itertools.permutations`` order."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64).reshape(-1, n)
    moved = (perms != np.arange(n)).sum(axis=1)
    return perms[np.argsort(moved, kind="stable")[1:]]  # the identity moves none


def _tables(dest: np.ndarray, flip: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Half-code lookup tables for a block of permutations, given by
    their slot maps: row p of ``lo`` (``hi``) takes each code over the
    low ``half`` (the remaining) slots to its bits moved to ``dest[p]``,
    with ``flip[p]`` folded into ``lo``.  The image of code c under p is
    ``lo[p, c & (1 << half) - 1] ^ hi[p, c >> half]``.  A code has at most
    ``_CODE_BITS`` bits, so the tables are int32."""
    half = dest.shape[1] // 2
    halves = dest[:, :half], dest[:, half:]
    lo, hi = (np.zeros((len(dest), 1 << d.shape[1]), dtype=np.int32) for d in halves)
    for table, d in zip((lo, hi), halves):
        bits = (1 << d).astype(np.int32)
        for b in range(d.shape[1]):  # codes with top bit b are those below it plus bit b
            table[:, 1 << b: 2 << b] = table[:, : 1 << b] | bits[:, b, None]
    lo ^= flip[:, None].astype(np.int32)
    return half, lo, hi


def _prefilter(start: int, stop: int, half: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The codes in range(start, stop), a slice of whole runs of 2^half
    codes, that no permutation with a row in the ``_tables`` maps below
    themselves.  Over whole runs the first permutation's images are the
    outer XOR of its two tables; the survivors meet the others one row
    at a time."""
    codes = np.arange(start, stop, dtype=np.int64)
    if len(lo):  # only order 1 has no permutation but the identity
        codes = codes[(hi[0, start >> half: stop >> half, None] ^ lo[0]).ravel() >= codes]
    low = (1 << half) - 1
    for p_lo, p_hi in zip(lo[1:], hi[1:]):
        codes = codes[p_lo[codes & low] ^ p_hi[codes >> half] >= codes]
    return codes


def _minimal_codes(space: _CodeSpace) -> np.ndarray:
    """The codes minimal in their orbit, ascending.  The first
    ``_STAGE1_PERMS`` permutations pre-filter the code space a slice of
    runs at a time (``slices`` of the runs of 2^half codes: whole runs,
    at most ``TABLE_ENTRIES`` codes or one run a slice).  The survivors
    meet the rest of the group in blocks of as many permutations, over
    int32 tables.  Each block is one ``stream`` of keep-masks, a code's
    entries being its images under the block; a code stays if it is at
    most all of them."""
    dest, flip = space.slot_maps(_group(space.n))
    half, lo, hi = _tables(dest[:_STAGE1_PERMS], flip[:_STAGE1_PERMS])
    runs = slices(1 << len(space.slots) >> half, 1 << half)
    codes = np.concatenate([_prefilter(first << half, last << half, half, lo, hi)
                            for first, last in runs])
    low = (1 << half) - 1
    for start in range(_STAGE1_PERMS, len(dest), _STAGE1_PERMS):
        _, lo, hi = _tables(dest[start:start + _STAGE1_PERMS], flip[start:start + _STAGE1_PERMS])
        keep = stream(lambda c: (np.take(lo, c & low, 1) ^ np.take(hi, c >> half, 1) >= c).all(0),
                      len(lo), (len(codes), lambda first, last: codes[first:last]))
        codes = codes[keep]
    return codes


@cache
def _class_codes(n: int, oriented: bool) -> np.ndarray:
    """``_minimal_codes`` of the code space, scanned once per process and
    kept as a read-only array."""
    codes = _minimal_codes(_CodeSpace(n, oriented))
    codes.flags.writeable = False
    return codes


def _enumerate(space: _CodeSpace, strongly_connected: bool):
    """Yield the graphs whose codes are minimal in their orbit, ascending,
    decoded and filtered for strong connectivity as stacks, a slice at a
    time."""
    codes = _class_codes(space.n, space.oriented)
    for lo, hi in slices(len(codes), space.n * space.n):  # a slice of classes, n * n entries each
        adj = space.stack(codes[lo:hi])
        if strongly_connected:
            adj = adj[distance_stream(space.n, (len(adj), lambda lo, hi: adj[lo:hi]))[2]]
        yield from Digraph.from_stack(adj)


def enumerate_digraphs(n: int, strongly_connected: bool = True):
    """Yield one representative per isomorphism class of simple digraphs
    of order n, optionally restricted to strongly connected ones."""
    yield from _enumerate(_CodeSpace(n, oriented=False), strongly_connected)


def enumerate_tournaments(n: int, strongly_connected: bool = True):
    """Yield one representative per isomorphism class of tournaments of
    order n (strongly connected ones by default)."""
    yield from _enumerate(_CodeSpace(n, oriented=True), strongly_connected)


# -- verification ----------------------------------------------------


@dataclass
class TheoremReport:
    n: int
    invariant: str
    bound_minus: int
    bound_quot: int
    best_value: int
    maximizers_match_family: bool
    bounds_hold: bool
    classes_checked: int
    counterexample: Digraph | None = None

    @property
    def ok(self) -> bool:
        return self.maximizers_match_family and self.bounds_hold


def _class_rows(n: int, strongly_connected: bool) -> np.ndarray:
    """The classes of ``enumerate_digraphs(n, strongly_connected)`` as an
    (N, n, n) boolean adjacency stack, in enumeration order."""
    return adjacency_stack((g.rows for g in enumerate_digraphs(n, strongly_connected)), n)


def _scan(adj: np.ndarray, invariant: str, top_k: int = 0):
    """The one scan step: price the classes of the stack ``adj`` together
    and rank their difference prices |I(G) - I(Ḡ)|.  Returns the prices
    (of G and of its closure), the best value, the maximisers in
    enumeration order and the ``top_k`` highest (value, graph) pairs,
    ties in enumeration order; every graph returned is priced again by
    ``_repriced``."""
    prices = price_arrays(adj, invariant)
    values = np.abs(prices[0] - prices[1])
    best = int(values.max())
    ties = np.flatnonzero(values == best).tolist()
    top = np.argsort(-values, kind="stable")[:top_k].tolist()
    maxi = _repriced(adj, prices, invariant, ties)
    ranked = list(zip(values[top].tolist(), _repriced(adj, prices, invariant, top)))
    return prices, best, maxi, ranked


def _repriced(adj: np.ndarray, prices, invariant: str, indices) -> list[Digraph]:
    """The graphs at ``indices`` of the stack ``adj``, each priced again
    by the scalar ``price``; raises InvariantViolation where the batched
    values ``prices`` (for G and for its closure) disagree."""
    graphs = Digraph.from_stack(adj[indices])
    for i, g in zip(indices, graphs):
        pr = price(g, invariant)
        batched = int(prices[0][i]), int(prices[1][i])
        if (pr.value_g, pr.value_sym) != batched:
            raise InvariantViolation(
                f"batched {invariant} of {g.rows} and its closure is {batched}, "
                f"the scalar price gives ({pr.value_g}, {pr.value_sym})")
    return graphs


def verify_theorems(n: int) -> list[TheoremReport]:
    """Exhaustively confirm the diameter and domination price bounds and
    their equality families at order n, as far as ``enumerate_digraphs`` goes."""
    if n < 3:
        raise ValueError(f"the theorems require n >= 3, got {n}")
    reports = []
    every = _class_rows(n, strongly_connected=False)
    strong = distance_stream(n, (len(every), lambda lo, hi: every[lo:hi]))[2]
    cases = (
        ("diameter", every[strong], families.b_family(n)),
        ("domination", every, families.l_set(families.in_star(n), 1)),
    )
    for invariant, adj, expected in cases:
        prices, best, maxi, _ = _scan(adj, invariant)
        value_g, value_sym = prices
        # pos_quot = value_g / value_sym > n - 1, in integers
        over_bound = np.flatnonzero((np.abs(value_g - value_sym) > n - 2)
                                    | (value_sym > 0) & (value_g > (n - 1) * value_sym))
        cex = _repriced(adj, prices, invariant, over_bound[:1])[0] if len(over_bound) else None
        family = {canonical_form(g) for g in expected}
        forms = [canonical_form(g) for g in maxi]
        match = set(forms) == family and best == n - 2
        if cex is None and not match:
            # prefer an unexpected maximizer as the exhibit
            cex = next((g for g, form in zip(maxi, forms) if form not in family), maxi[0])
        reports.append(
            TheoremReport(
                n=n,
                invariant=invariant,
                bound_minus=n - 2,
                bound_quot=n - 1,
                best_value=best,
                maximizers_match_family=match,
                bounds_hold=not len(over_bound),
                classes_checked=len(adj),
                counterexample=cex,
            )
        )
    return reports


@dataclass
class ConjectureReport:
    n: int
    best_value: int
    unique_maximizer: bool
    maximizer_is_cycle: bool
    top: list[tuple[int, Digraph]]
    classes_checked: int

    @property
    def ok(self) -> bool:
        return self.unique_maximizer and self.maximizer_is_cycle


def verify_conjecture(n: int, top_k: int = 5) -> ConjectureReport:
    """Exhaustively check that the directed cycle is the unique
    transmission-price maximiser among strongly connected classes."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    adj = _class_rows(n, strongly_connected=True)
    _, best, maxi, top = _scan(adj, "transmission", top_k)
    cyc = canonical_form(families.cycle(n))
    return ConjectureReport(
        n=n,
        best_value=best,
        unique_maximizer=len(maxi) == 1,
        maximizer_is_cycle=all(canonical_form(g) == cyc for g in maxi),
        top=top,
        classes_checked=len(adj),
    )


# -- heuristic search ------------------------------------------------


@dataclass(frozen=True)
class RestartRecord:
    """One climb of a heuristic search: its start (a family spec such as
    ``bag:12:5``, or ``random``), the objective there and at the local
    optimum, and the evaluations it spent."""
    start: str
    start_value: int
    end_value: int
    evals: int


@dataclass
class SearchOutcome:
    n: int
    objective: str
    best_value: int
    maximizers: tuple[Digraph, ...]
    exhaustive: bool
    graphs_visited: int
    elapsed: float
    restarts: tuple[RestartRecord, ...] = ()  # heuristic searches only, in start order

    def canonical_maximizers(self) -> list[bytes]:
        return sorted(_dedup_key(g) for g in self.maximizers)


def _dedup_key(g: Digraph) -> bytes:
    """Isomorphism-invariant key where affordable, labelled key beyond."""
    if g.n <= ISO_ORDER_CAP:
        return canonical_form(g)
    return b"L" + repr(g.rows).encode()


def worker_count() -> int:
    env = os.environ.get("SYMPRICE_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"SYMPRICE_THREADS must be an integer, got {env!r}") from None
        if count < 1:
            raise ValueError(f"SYMPRICE_THREADS must be at least 1, got {env!r}")
        return count
    return os.cpu_count() or 1


def random_strongly_connected(n: int, rng: random.Random, extra: float = 0.3) -> Digraph:
    """Random hamiltonian cycle plus extra arrows; strongly connected by
    construction."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    for i in range(n):
        rows[order[i]] |= 1 << order[(i + 1) % n]
    for u in range(n):
        for v in range(n):
            if u != v and not rows[u] >> v & 1 and rng.random() < extra:
                rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


def _neighbours(adj: np.ndarray):
    """The single-arrow moves of each graph of a (C, n, n) boolean
    adjacency stack, graph by graph, in the climber's order: removals in
    arrow order, additions in (u, v) order, then reversals of one-way
    arrows.  Returns the arrays (climb, kind, u, v, pos, key): kind 0, 1
    or 2 for the removal, addition or reversal of u -> v, pos the move's
    place among its graph's moves and key its closure's.  The closure of
    a move is Ḡ with the pair {u, v} toggled where it removes a one-way
    arrow or adds one on an empty pair, and Ḡ itself otherwise; its key
    is climb * (n² + 1) plus min(u, v) * n + max(u, v), or plus n² for
    Ḡ, so the additions u -> v and v -> u share one.  A removal or
    reversal of u -> v where u has no other out-arrow or v no other
    in-arrow cannot leave a strongly connected graph, and is left out."""
    n = adj.shape[1]
    cut = (adj.sum(axis=2) == 1)[:, :, None] | (adj.sum(axis=1) == 1)[:, None, :]
    kinds = np.stack([adj & ~cut, ~adj & ~np.eye(n, dtype=bool), adj & ~adj.transpose(0, 2, 1) & ~cut],
                     axis=1)
    climb, kind, u, v = np.nonzero(kinds)
    sizes = kinds.sum(axis=(1, 2, 3))
    pos = np.arange(len(climb)) - (np.cumsum(sizes) - sizes)[climb]
    pair = np.where((kind < 2) & ~adj[climb, v, u], np.minimum(u, v) * n + np.maximum(u, v), n * n)
    return climb, kind, u, v, pos, climb * (n * n + 1) + pair


def _moved(adj: np.ndarray, climb, kind, u, v) -> np.ndarray:
    """The graphs that moves of ``_neighbours`` make: a copy of the
    adjacency of the move's graph with u -> v flipped, and v -> u as
    well for a reversal."""
    batch = adj[climb]
    copy = np.arange(len(climb))
    batch[copy, u, v] ^= True
    rev = kind == 2
    batch[copy[rev], v[rev], u[rev]] ^= True
    return batch


def _closures(sym: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The closures with the given ``_neighbours`` keys: a copy of the
    adjacency of its graph's Ḡ, from ``sym``, with the key's pair
    toggled in both directions."""
    n = sym.shape[1]
    climb, pair = np.divmod(keys, n * n + 1)
    batch = sym[climb]
    copy = np.flatnonzero(pair < n * n)
    u, v = np.divmod(pair[copy], n)
    batch[copy, u, v] ^= True
    batch[copy, v, u] ^= True
    return batch


def _distances(adj: np.ndarray) -> np.ndarray:
    """The exact all-pairs distances of each graph of a (C, n, n) boolean
    adjacency stack, as a (C, n, n) int16 array from
    ``digraph.distance_stack``, stored batch-first, as ``_inserted``
    gathers whole matrices.  A graph that is not strongly connected
    keeps its sentinel of 2n somewhere and raises InvariantViolation,
    since the climber's graphs and their closures all are."""
    dist = distance_stack(adj)
    unreached = (dist == 2 * adj.shape[1]).any(axis=(1, 2))
    if unreached.any():
        raise InvariantViolation(
            f"graph {int(unreached.argmax())} of a climb round is not strongly connected")
    return np.ascontiguousarray(dist)


def _tree_arrows(adj: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """The arrows of an out-branching and an in-branching at vertex 0 of
    each graph of a strongly connected (C, n, n) boolean stack whose
    distances are ``dist``, as a (C, n, n) boolean stack: for each v != 0,
    the arrow p -> v from the first p with d(0, p) + 1 = d(0, v), and the
    arrow v -> q to the first q with d(q, 0) + 1 = d(v, 0).  Removing or
    reversing any other arrow keeps both branchings, so vertex 0 still
    reaches every vertex and is reached by every vertex: the graph stays
    strongly connected."""
    count, n = adj.shape[:2]
    parent = (adj & (dist[:, 0, :, None] + 1 == dist[:, 0, None, :])).argmax(axis=1)
    child = (adj & (dist[:, :, 0, None] == dist[:, None, :, 0] + 1)).argmax(axis=2)
    tree = np.zeros_like(adj)
    graph, vertex = np.arange(count)[:, None], np.arange(1, n)
    tree[graph, parent[:, 1:], vertex] = True
    tree[graph, vertex, child[:, 1:]] = True
    return tree


def _value(dist: np.ndarray, invariant: str) -> np.ndarray:
    """The transmission (sum) or diameter (max) of each (n, n) distance
    matrix of a stack, as int64."""
    if invariant == "transmission":
        return dist.sum(axis=(1, 2), dtype=np.int64)
    return dist.max(axis=(1, 2)).astype(np.int64)


def _inserted(dist: np.ndarray, graph: np.ndarray, u: np.ndarray, v: np.ndarray, invariant: str,
              both: bool = False) -> np.ndarray:
    """The ``_value`` of each graph ``graph[i]`` of distances ``dist`` with
    the arrow u[i] -> v[i] added, and v[i] -> u[i] as well where ``both``,
    by the insertion step of dynamic all-pairs shortest paths: d'(s, t) =
    min(d(s, t), d(s, u) + 1 + d(v, t)), and for ``both`` also d(s, v) + 1
    + d(u, t), the transpose of that sum where d is symmetric.  The
    inserted matrices go through ``_value`` as one ``digraph.stream``."""
    def build(lo: int, hi: int) -> np.ndarray:
        c, a, b = graph[lo:hi], u[lo:hi], v[lo:hi]
        via = dist[c, :, a][:, :, None] + 1 + dist[c, b][:, None, :]
        d = np.minimum(dist[c], via)
        if both:
            np.minimum(d, via.transpose(0, 2, 1), out=d)
        return d

    return stream(lambda d: _value(d, invariant), dist.shape[1] ** 2, (len(graph), build))


def _ranks(flags: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """For each move of ``_neighbours``, at place ``pos`` among its
    graph's moves, how many moves of its graph before it have ``flags``."""
    before = np.cumsum(flags) - flags
    return before - before[np.arange(len(flags)) - pos]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending, as ``np.unique``
    gives them, without the ``numpy.ma`` import that ``np.unique`` pays."""
    keys = np.sort(keys)
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _evaluated(adj: np.ndarray, remaining: np.ndarray, invariant: str):
    """The strongly connected neighbours that each graph of a (C, n, n)
    boolean adjacency stack evaluates in one step, at most
    ``remaining[c]`` for graph c, in the order of ``_neighbours``, with
    their difference prices of ``invariant``.  Returns (climb, kind, u, v,
    value) arrays.

    Each round builds the exact distance matrices of its graphs and, for
    the distance objectives, of their closures Ḡ once (``_distances``).
    An addition, or a removal or reversal of an arrow off the graph's
    ``_tree_arrows``, keeps it strongly connected, so a graph searches
    its moves up to its ``remaining``-th such known-strong one, or all of
    them where it has fewer: that prefix holds at least ``remaining``
    strong moves, and its first ones are those the climb evaluates.

    Each move and each distinct closure is priced by one method, chosen
    by its kind.  An addition, a closure that adds the edge {u, v} to Ḡ
    and Ḡ itself are priced from the distance matrices (``_inserted``,
    ``_value``).  The prefix's removals and reversals and the distinct
    closures that remove an edge of Ḡ, built from the round's adjacency
    stack, go through one ``distance_stream`` of two parts, whose
    reached-all flags drop the removals and reversals that are not
    strongly connected.  Domination needs only those flags: it sends the
    removals and reversals not known to keep the graph strong, and
    streams the evaluated graphs and their closures through
    ``_domination_array``."""
    n = adj.shape[1]
    climb, kind, u, v, pos, key = _neighbours(adj)
    dist = _distances(adj)
    known = (kind == 1) | ~_tree_arrows(adj, dist)[climb, u, v]
    prefix = _ranks(known, pos) < remaining[climb]
    sym = symmetric_closures(adj)
    toggles = key % (n * n + 1) < n * n  # the move's closure is not Ḡ itself
    cut = toggles & (kind == 0)  # its closure is Ḡ less the edge {u, v}

    def parts(moves: np.ndarray, keys: np.ndarray):
        """The moved graphs of ``moves``, then the closures with ``keys``."""
        return ((len(moves), lambda lo, hi: _moved(adj, *(a[moves[lo:hi]] for a in (climb, kind, u, v)))),
                (len(keys), lambda lo, hi: _closures(sym, keys[lo:hi])))

    if invariant == "domination":
        moves, cuts = np.flatnonzero(prefix & ~known), key[:0]
    else:
        moves, cuts = np.flatnonzero(prefix & (kind != 1)), _distinct(key[prefix & cut])
    total, depth_max, reached = distance_stream(n, *parts(moves, cuts))
    strong = prefix.copy()
    strong[moves] = reached[:len(moves)]
    taken = np.flatnonzero(strong & (_ranks(strong, pos) < remaining[climb]))
    if invariant == "domination":
        keys = _distinct(key[taken])
        values = stream(_domination_array, n, *parts(taken, keys))
        value_g, value_sym = values[:len(taken)], values[len(taken) + np.searchsorted(keys, key[taken])]
    else:
        values = total if invariant == "transmission" else depth_max
        sym_dist = _distances(sym)
        value_g, value_sym = np.empty((2, len(taken)), np.int64)
        add = kind[taken] == 1
        value_g[~add] = values[np.searchsorted(moves, taken[~add])]
        value_g[add] = _inserted(dist, *(a[taken[add]] for a in (climb, u, v)), invariant)
        own, gone = ~toggles[taken], cut[taken]
        value_sym[own] = _value(sym_dist, invariant)[climb[taken[own]]]
        value_sym[gone] = values[len(moves) + np.searchsorted(cuts, key[taken[gone]])]
        new = ~own & ~gone  # Ḡ with the edge {u, v} added
        keys = _distinct(key[taken[new]])
        graph, pair = np.divmod(keys, n * n + 1)
        value_sym[new] = _inserted(sym_dist, graph, *np.divmod(pair, n), invariant,
                                   both=True)[np.searchsorted(keys, key[taken[new]])]
    return climb[taken], kind[taken], u[taken], v[taken], np.abs(value_g - value_sym)


def _step(adj: np.ndarray, value: np.ndarray, remaining: np.ndarray, invariant: str):
    """One steepest-ascent step of every graph of a (C, n, n) boolean
    adjacency stack, whose difference prices are ``value``: each walks
    its ``_evaluated`` neighbours and takes the first strictly best.
    Returns the evaluations each graph spent, then, for the graphs that
    found a better neighbour, ascending, the graph, its move (kind, u, v)
    and the move's value."""
    climb, kind, u, v, values = _evaluated(adj, remaining, invariant)
    best = value.copy()
    np.maximum.at(best, climb, values)
    top = np.flatnonzero(values == best[climb])
    top = top[np.diff(climb[top], prepend=-1) != 0]  # the first of each graph
    top = top[best[climb[top]] > value[climb[top]]]
    return (np.bincount(climb, minlength=len(adj)), climb[top], kind[top], u[top], v[top],
            values[top])


def _climb_group(job) -> list[tuple[int, int, tuple[int, ...]]]:
    """Steepest-ascent climbs of a group of starts in lockstep: each round
    steps every live climb, one ``_step`` per slice of them, and a climb
    ends at a local optimum or once it has spent its cap of evaluations.
    ``job`` is (adjacency stack, start values, invariant, cap), each
    start counting as one evaluation; returns (value, evals, rows) per
    start, rows shipped in place of a Digraph to stay small."""
    adj, value, invariant, cap = job
    adj, value = adj.copy(), np.array(value, np.int64)
    evals = np.ones(len(adj), np.int64)
    live = np.flatnonzero(evals < cap)
    while len(live):
        going = []
        for lo, hi in slices(len(live), adj.shape[1] ** 2):  # each climb steps on its own
            part = live[lo:hi]
            spent, better, kind, u, v, best = _step(adj[part], value[part], cap - evals[part], invariant)
            evals[part] += spent
            better = part[better]
            adj[better] = _moved(adj, better, kind, u, v)
            value[better] = best
            going.append(better[evals[better] < cap])
        live = np.concatenate(going)
    return list(zip(value.tolist(), evals.tolist(), stack_rows(adj)))


def _warm_starts(n: int, objective: str) -> list[tuple[str, Digraph]]:
    """The family starts as (family spec, graph) pairs, each graph built
    from its spec."""
    specs = [families.family_spec("cycle", n), families.family_spec("backward", n)]
    if objective == "sigma":
        specs += [families.family_spec("bag", n, k) for k in range(3, n)]
    return [(spec, families.build_family(spec)) for spec in specs]


def hill_climb(n: int, objective: str = "sigma", budget: int = 20000, seed: int = 0) -> SearchOutcome:
    """Randomised-restart steepest ascent over strongly connected
    digraphs of order n.

    Warm starts from the cycle, backward tournament and (for the
    transmission objective) every canonical bag guarantee the search
    never reports worse than the best known family member.  Each start
    gets ``budget // starts`` evaluations, so a budget below the number
    of starts is refused.  Fixed seed gives identical outcomes up to the
    elapsed-time field.
    """
    check_order(n)  # before the O(n) warm-start specs are built
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    invariant = objective_invariant(objective)  # validate early
    if invariant == "domination":
        check_domination_order(n)
    threads = worker_count()
    t0 = time.monotonic()
    rng = random.Random(seed)
    starts = _warm_starts(n, objective)
    restarts = max(4, budget // (40 * n * n))
    if budget < len(starts) + restarts:
        raise ValueError(f"budget must be at least {len(starts) + restarts} at n={n}, "
                         f"one evaluation per start, got {budget}")
    starts.extend(("random", random_strongly_connected(n, rng)) for _ in range(restarts))
    cap = budget // len(starts)
    adj = adjacency_stack((g.rows for _, g in starts), n)
    value_g, value_sym = price_arrays(adj, invariant)
    start_values = np.abs(value_g - value_sym).tolist()
    # starts dealt round-robin: group k climbs starts k, k + groups, ...;
    # a climb searches about min(cap, n * n) moves a round
    groups = min(threads, os.cpu_count() or 1, len(starts),
                 max(1, len(starts) * min(cap, n * n) // _GROUP_MOVES))
    jobs = [(adj[k::groups], start_values[k::groups], invariant, cap) for k in range(groups)]
    if groups > 1:
        from concurrent.futures import ProcessPoolExecutor  # with multiprocessing, only where a search splits
        with ProcessPoolExecutor(max_workers=groups) as ex:
            dealt = list(ex.map(_climb_group, jobs))
    else:
        dealt = [_climb_group(jobs[0])]
    results = [None] * len(starts)
    for k, out in enumerate(dealt):
        results[k::groups] = out

    visited = sum(r[1] for r in results)
    best_value = max(r[0] for r in results)
    seen: dict[bytes, Digraph] = {}
    for value, _, rows in results:
        if value == best_value:  # only these need the canonical form
            g = Digraph(n, rows)
            seen.setdefault(_dedup_key(g), g)
    return SearchOutcome(
        n=n,
        objective=objective,
        best_value=best_value,
        maximizers=tuple(seen[c] for c in sorted(seen)),
        exhaustive=False,
        graphs_visited=visited,
        elapsed=time.monotonic() - t0,
        restarts=tuple(RestartRecord(name, start_value, value, evals)
                       for (name, _), start_value, (value, evals, _)
                       in zip(starts, start_values, results)),
    )


def exhaustive_search(n: int, objective: str) -> SearchOutcome:
    """Exact maximisation of a price objective over isomorphism classes
    (strongly connected ones; all digraphs for domination)."""
    invariant = objective_invariant(objective)
    t0 = time.monotonic()
    adj = _class_rows(n, strongly_connected=objective != "domination")
    _, best, maxi, _ = _scan(adj, invariant)
    return SearchOutcome(
        n=n,
        objective=objective,
        best_value=best,
        maximizers=tuple(maxi),
        exhaustive=True,
        graphs_visited=len(adj),
        elapsed=time.monotonic() - t0,
    )
