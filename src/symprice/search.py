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
representatives come out in ascending mask order.  That is feasible up
to n = 6 for digraphs and n = 7 for tournaments.  Each order's codes are
scanned once per process: ``_class_codes`` caches them, read-only, for
every later enumeration.  The cache holds codes only, so the order caps
bound it; its largest entry, the 1,540,944 digraph classes of order 6,
takes 12.3 MB.

A permutation acts on codes through two lookup tables, one per half of
the slots; a code's image is the XOR of its two entries.  numpy builds
the tables for a block of permutations at once, with one doubling loop
per table, from a (P, slots) int64 array of destination slots: for
digraphs (a, b) is slot a(n - 1) + b - [b > a]; for tournaments the pair
a > b is slot a(a - 1)/2 + b, and its bit flips when the permutation
reverses the pair.  The group is tried in order of points moved,
transpositions first, since small supports reject most non-minimal
codes.  A first stage runs the first ``_STAGE1_PERMS`` permutations over
chunks of the code space (over a chunk's whole runs of low-half codes,
the first permutation's images are the outer XOR of its two tables); the
few survivors meet the rest of the group in blocks.

The surviving codes are decoded, one bit plane at a time, into an (N, n)
int64 array of adjacency row masks; the strong-connectivity filter is
the reached-all flag of the batched kernel ``digraph.bfs_arrays``.  Each
decoded slice becomes graphs through ``Digraph.from_row_array``, which
checks the slice once as an array, not each class one by one.

The exhaustive reports (``verify_conjecture``, ``verify_theorems``,
``exhaustive_search``) each read one enumeration into such a row array
(``_class_rows``) and make one scan step (``_scan``): price every class
at once with ``invariants.price_arrays`` (batched BFS, domination and
closure, all int64) and rank the difference prices.  Every graph a
report names (each maximiser, top entry and counterexample) is priced
again by the scalar ``price``, and a disagreement raises
InvariantViolation.  Single graphs keep the scalar path:
``digraph.bfs_levels`` stays the only scalar frontier loop.

The hill climber is a deterministic steepest-ascent search with warm
starts from the known extremal families plus seeded random restarts.
A step scores every single-arrow move (removal, addition, reversal)
that keeps the graph strongly connected and takes the first strictly
best one.  Every objective goes through one path: the graphs of a
step's moves are stacked into one packed row array (removals in arrow
order, additions in (u, v) order, then reversals of one-way arrows) and
priced by ``invariants.price_slices``.  Its batched BFS gives each
neighbour's reached-all flag together with its distance values, so the
neighbours that are not strongly connected are dropped without a
second search of them; the rest are priced with their closures.  For
the distance objectives the batch is read one ``digraph.bfs_slices``
slice at a time, so a climb that stops at its evaluation cap leaves the
later slices unsearched; domination prices it whole.  The starts of all
climbs are priced together by ``invariants.price_arrays`` before any
climb is dispatched, and each climb gets its start value.  The climbs
run on at most ``worker_count()`` processes, and never on more
processes than the machine has cores.
"""
from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import permutations

import numpy as np

from .digraph import ISO_ORDER_CAP, Digraph, bfs_arrays, canonical_form, check_order, pack_rows
from .errors import InvariantViolation, SizeError
# OBJECTIVES stays importable from here for callers of the search API
from .invariants import (OBJECTIVES, objective_invariant, price, price_arrays,  # noqa: F401
                         price_slices)
from . import families

DIGRAPH_ORDER_CAP = 6
TOURNAMENT_ORDER_CAP = 7
_CHUNK_BITS = 22  # codes per scan chunk, as a power of two (32 MB of int64)
_STAGE1_PERMS = 48  # permutations in the per-chunk pre-filter, and in each later block
_DECODE_CHUNK = 1 << 15  # codes decoded per slice, to bound the rows and graphs held at once


class _CodeSpace:
    """Labelled graphs of order n as integer codes: bit b set means the
    arrow ``slots[b]``.  Digraph slots are the ordered pairs u != v;
    tournament slots (``oriented``) are the pairs u > v, where a clear
    bit means the arrow v -> u.  Slots are in lexicographic order."""

    def __init__(self, n: int, oriented: bool):
        if n < 1:
            raise ValueError(f"order must be >= 1, got {n}")
        self.n, self.oriented = n, oriented
        self.slots = [(u, v) for u in range(n) for v in range(u if oriented else n) if u != v]

    def slot_maps(self, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of the (P, n) permutation array: the slot each
        slot goes to, as a (P, slots) array, and the flip mask, the
        destination bits of the pairs whose order the permutation reverses."""
        u, v = np.array(self.slots, dtype=np.int64).reshape(-1, 2).T
        pu, pv = perms[:, u], perms[:, v]
        if not self.oriented:  # (a, b) is slot a(n-1) + b, less one past the diagonal
            return pu * (self.n - 1) + pv - (pv > pu), np.zeros(len(perms), dtype=np.int64)
        a, b = np.maximum(pu, pv), np.minimum(pu, pv)  # (a, b), a > b, is slot a(a-1)/2 + b
        dest = a * (a - 1) // 2 + b
        return dest, ((pu < pv).astype(np.int64) << dest).sum(axis=1)

    def rows(self, codes: np.ndarray) -> np.ndarray:
        """The (N, n) adjacency row masks of the codes, one bit plane
        (slot) at a time."""
        rows = np.zeros((len(codes), self.n), dtype=np.int64)
        for b, (u, v) in enumerate(self.slots):
            bit = codes >> b & 1
            rows[:, u] |= bit << v
            if self.oriented:
                rows[:, v] |= (bit ^ 1) << u
        return rows


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
    ``lo[p, c & (1 << half) - 1] ^ hi[p, c >> half]``."""
    half = dest.shape[1] // 2
    halves = dest[:, :half], dest[:, half:]
    lo, hi = (np.zeros((len(dest), 1 << d.shape[1]), dtype=np.int64) for d in halves)
    for table, d in zip((lo, hi), halves):
        for b in range(d.shape[1]):  # codes with top bit b are those below it plus bit b
            table[:, 1 << b: 2 << b] = table[:, : 1 << b] | 1 << d[:, b, None]
    lo ^= flip[:, None]
    return half, lo, hi


def _prefilter(start: int, stop: int, half: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The codes in range(start, stop), whole runs of 2^half codes, that
    no permutation with a row in the ``_tables`` maps below themselves.
    Over whole runs the first permutation's images are the outer XOR of
    its two tables; the survivors meet the others one row at a time."""
    codes = np.arange(start, stop, dtype=np.int64)
    if len(lo):  # only order 1 has no permutation but the identity
        codes = np.flatnonzero((hi[0, start >> half: stop >> half, None] ^ lo[0]).ravel() >= codes)
        codes += start
    low = (1 << half) - 1
    for p_lo, p_hi in zip(lo[1:], hi[1:]):
        codes = codes[p_lo[codes & low] ^ p_hi[codes >> half] >= codes]
    return codes


def _minimal_codes(space: _CodeSpace) -> np.ndarray:
    """The codes minimal in their orbit, ascending.  Chunks of the code
    space meet a cheap pre-filter, the first ``_STAGE1_PERMS``
    permutations; the survivors meet the rest of the group in blocks of
    as many, and a code stays if it is at most its image under every
    permutation of the block."""
    dest, flip = space.slot_maps(_group(space.n))
    size = 1 << len(space.slots)
    chunk = min(size, 1 << _CHUNK_BITS)
    half, lo, hi = _tables(dest[:_STAGE1_PERMS], flip[:_STAGE1_PERMS])
    codes = np.concatenate([_prefilter(start, start + chunk, half, lo, hi)
                            for start in range(0, size, chunk)])
    for start in range(_STAGE1_PERMS, len(dest), _STAGE1_PERMS):
        _, lo, hi = _tables(dest[start:start + _STAGE1_PERMS], flip[start:start + _STAGE1_PERMS])
        low_half, high_half = codes & (1 << half) - 1, codes >> half
        keep = np.ones(len(codes), dtype=bool)
        for p_lo, p_hi in zip(lo, hi):
            keep &= p_lo[low_half] ^ p_hi[high_half] >= codes
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
    decoded and filtered for strong connectivity as row arrays, a slice
    at a time."""
    codes = _class_codes(space.n, space.oriented)
    for lo in range(0, len(codes), _DECODE_CHUNK):
        rows = space.rows(codes[lo:lo + _DECODE_CHUNK])
        if strongly_connected:
            rows = rows[bfs_arrays(rows)[2]]
        yield from Digraph.from_row_array(space.n, rows)


def enumerate_digraphs(n: int, strongly_connected: bool = True):
    """Yield one representative per isomorphism class of simple digraphs
    of order n, optionally restricted to strongly connected ones."""
    if n > DIGRAPH_ORDER_CAP:
        raise SizeError(f"digraph enumeration capped at n={DIGRAPH_ORDER_CAP}, got {n}")
    yield from _enumerate(_CodeSpace(n, oriented=False), strongly_connected)


def enumerate_tournaments(n: int, strongly_connected: bool = True):
    """Yield one representative per isomorphism class of tournaments of
    order n (strongly connected ones by default)."""
    if n > TOURNAMENT_ORDER_CAP:
        raise SizeError(f"tournament enumeration capped at n={TOURNAMENT_ORDER_CAP}, got {n}")
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
    (N, n) int64 array of adjacency row masks, in enumeration order."""
    return np.fromiter((g.rows for g in enumerate_digraphs(n, strongly_connected)),
                       dtype=(np.int64, n))


def _scan(rows: np.ndarray, invariant: str, top_k: int = 0):
    """The one scan step: price the classes of ``rows`` together and rank
    their difference prices |I(G) - I(Ḡ)|.  Returns the prices (of G and
    of its closure), the best value, the maximisers in enumeration order
    and the ``top_k`` highest (value, graph) pairs, ties in enumeration
    order; every graph returned is priced again by ``_repriced``."""
    prices = price_arrays(rows, invariant)
    values = np.abs(prices[0] - prices[1])
    best = int(values.max())
    ties = np.flatnonzero(values == best).tolist()
    top = np.argsort(-values, kind="stable")[:top_k].tolist()
    maxi = _repriced(rows, prices, invariant, ties)
    ranked = list(zip(values[top].tolist(), _repriced(rows, prices, invariant, top)))
    return prices, best, maxi, ranked


def _repriced(rows: np.ndarray, prices, invariant: str, indices) -> list[Digraph]:
    """The graphs at ``indices``, each priced again by the scalar
    ``price``; raises InvariantViolation where the batched values
    ``prices`` (for G and for its closure) disagree."""
    graphs = Digraph.from_row_array(rows.shape[1], rows[indices])
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
    their equality families at order n (n <= 5)."""
    if n > 5:
        raise SizeError(f"theorem verification capped at n=5, got {n}")
    if n < 3:
        raise ValueError(f"the theorems require n >= 3, got {n}")
    reports = []
    every = _class_rows(n, strongly_connected=False)
    cases = (
        ("diameter", every[bfs_arrays(every)[2]], families.b_family(n)),
        ("domination", every, families.l_set(families.in_star(n), 1)),
    )
    for invariant, rows, expected in cases:
        prices, best, maxi, _ = _scan(rows, invariant)
        value_g, value_sym = prices
        # pos_quot = value_g / value_sym > n - 1, in integers
        over_bound = np.flatnonzero((np.abs(value_g - value_sym) > n - 2)
                                    | (value_sym > 0) & (value_g > (n - 1) * value_sym))
        cex = _repriced(rows, prices, invariant, over_bound[:1])[0] if len(over_bound) else None
        family = {canonical_form(g) for g in expected}
        found = {canonical_form(g) for g in maxi}
        match = found == family and best == n - 2
        if cex is None and not match:
            # prefer an unexpected maximizer as the exhibit
            cex = next((g for g in maxi if canonical_form(g) not in family),
                       maxi[0])
        reports.append(
            TheoremReport(
                n=n,
                invariant=invariant,
                bound_minus=n - 2,
                bound_quot=n - 1,
                best_value=best,
                maximizers_match_family=match,
                bounds_hold=not len(over_bound),
                classes_checked=len(rows),
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
    rows = _class_rows(n, strongly_connected=True)
    _, best, maxi, top = _scan(rows, "transmission", top_k)
    cyc = canonical_form(families.cycle(n))
    return ConjectureReport(
        n=n,
        best_value=best,
        unique_maximizer=len(maxi) == 1,
        maximizer_is_cycle=all(canonical_form(g) == cyc for g in maxi),
        top=top,
        classes_checked=len(rows),
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
    g = Digraph.from_arrows(n, [(order[i], order[(i + 1) % n]) for i in range(n)])
    for u in range(n):
        for v in range(n):
            if u != v and not g.has_arrow(u, v) and rng.random() < extra:
                g = g.add_arrow(u, v)
    return g


def _toggled(rows: tuple[int, ...], arrows: list[tuple[int, int]]) -> tuple[int, ...]:
    """Adjacency rows with each given arrow flipped (removed if present,
    added if absent)."""
    out = list(rows)
    for u, v in arrows:
        out[u] ^= 1 << v
    return tuple(out)


def _flipped(rows: tuple[int, ...], flips: list[list[tuple[int, int]]]) -> np.ndarray:
    """Batched ``_toggled``: ``pack_rows`` of one copy of ``rows`` per
    entry of ``flips``, copy i with the arrows of ``flips[i]`` flipped."""
    n = len(rows)
    batch = np.repeat(pack_rows([rows], n), len(flips), axis=0)
    copy, u, v = np.array([(i, u, v) for i, arrows in enumerate(flips) for u, v in arrows],
                          dtype=np.int64).reshape(-1, 3).T
    batch[copy, u, v >> 6] ^= 1 << (v & 63)
    return batch


def _moves(g: Digraph, invariant: str):
    """Yield (|I(h) - I(h̄)|, h.rows) for the strongly connected
    single-arrow neighbours h of g: removals in arrow order, additions in
    (u, v) order, then reversals of one-way arrows.  The neighbours are
    stacked into one batch and priced by ``price_slices``, so a reader
    that stops early leaves the later slices unsearched."""
    rows = g.rows
    arrows = list(g.arrows())
    flips = [[a] for a in arrows]
    flips += [[(u, v)] for u in range(g.n) for v in range(g.n) if u != v and not rows[u] >> v & 1]
    flips += [[(u, v), (v, u)] for u, v in arrows if not rows[v] >> u & 1]
    lo = 0
    for strong, value_g, value_sym in price_slices(_flipped(rows, flips), invariant):
        kept = (np.flatnonzero(strong) + lo).tolist()
        lo += len(strong)
        for i, value in zip(kept, np.abs(value_g - value_sym).tolist()):
            yield value, _toggled(rows, flips[i])


def _climb(start: Digraph, value: int, invariant: str, max_evals: int) -> tuple[Digraph, int, int]:
    """Steepest-ascent climb from ``start``, whose difference price of
    ``invariant`` is ``value``; returns (local optimum, value, evals),
    the start counting as one evaluation.  Each step takes the first
    strictly best neighbour."""
    g = start
    evals = 1
    while evals < max_evals:
        best_rows, best_val = None, value
        for v, h_rows in _moves(g, invariant):
            evals += 1
            if v > best_val:
                best_rows, best_val = h_rows, v
            if evals >= max_evals:
                break
        if best_rows is None:
            break
        g, value = Digraph(g.n, best_rows), best_val
    return g, value, evals


def _warm_starts(n: int, objective: str) -> list[tuple[str, Digraph]]:
    """The family starts as (family spec, graph) pairs, each graph built
    from its spec."""
    specs = [families.family_spec("cycle", n), families.family_spec("backward", n)]
    if objective == "sigma":
        specs += [families.family_spec("bag", n, k) for k in range(3, n)]
    return [(spec, families.build_family(spec)) for spec in specs]


def _run_restart(args) -> tuple[int, bytes, int, tuple[int, ...]]:
    g, value, evals = _climb(*args)
    # Digraph is cheap to rebuild; ship rows to stay picklable and small
    return value, _dedup_key(g), evals, g.rows


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
    t0 = time.monotonic()
    rng = random.Random(seed)
    starts = _warm_starts(n, objective)
    restarts = max(4, budget // (40 * n * n))
    if budget < len(starts) + restarts:
        raise ValueError(f"budget must be at least {len(starts) + restarts} at n={n}, "
                         f"one evaluation per start, got {budget}")
    starts.extend(("random", random_strongly_connected(n, rng)) for _ in range(restarts))
    cap = budget // len(starts)
    value_g, value_sym = price_arrays(pack_rows([g.rows for _, g in starts], n), invariant)
    start_values = np.abs(value_g - value_sym).tolist()
    jobs = [(g, value, invariant, cap) for (_, g), value in zip(starts, start_values)]

    workers = min(worker_count(), os.cpu_count() or 1, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_restart, jobs))
    else:
        results = [_run_restart(j) for j in jobs]

    visited = sum(r[2] for r in results)
    best_value = max(r[0] for r in results)
    seen: dict[bytes, Digraph] = {}
    for value, canon, _, rows in results:
        if value == best_value and canon not in seen:
            seen[canon] = Digraph(n, rows)
    return SearchOutcome(
        n=n,
        objective=objective,
        best_value=best_value,
        maximizers=tuple(seen[c] for c in sorted(seen)),
        exhaustive=False,
        graphs_visited=visited,
        elapsed=time.monotonic() - t0,
        restarts=tuple(RestartRecord(name, start_value, value, evals)
                       for (name, _), start_value, (value, _, evals, _)
                       in zip(starts, start_values, results)),
    )


def exhaustive_search(n: int, objective: str) -> SearchOutcome:
    """Exact maximisation of a price objective over isomorphism classes
    (strongly connected ones; all digraphs for domination)."""
    invariant = objective_invariant(objective)
    if n < 1:  # before the scan, which cannot shape rows of no vertices
        raise ValueError(f"order must be >= 1, got {n}")
    t0 = time.monotonic()
    rows = _class_rows(n, strongly_connected=objective != "domination")
    _, best, maxi, _ = _scan(rows, invariant)
    return SearchOutcome(
        n=n,
        objective=objective,
        best_value=best,
        maximizers=tuple(maxi),
        exhaustive=True,
        graphs_visited=len(rows),
        elapsed=time.monotonic() - t0,
    )
