"""Builders for the named digraph families.

Covers cycles, paths, complete digraphs, in-stars, backward tournaments,
the diameter equality family, L_k replacement sets, bags and the
extremal bag order selector k*.  ``FAMILIES`` is the one family table,
name -> builder; a spec such as ``bag:12:5`` names a member.
``check_closed_forms`` compares the closed forms of cycle and bag specs
with the distance engine, and ``best_known`` is the best known
transmission price at order n.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from itertools import combinations, product

from .digraph import ISO_ORDER_CAP, Digraph, adjacency_stack, canonical_form, check_order
from .errors import DomainError, SizeError
from .invariants import price_arrays
from . import formulas


def cycle(n: int) -> Digraph:
    if n < 2:
        raise ValueError(f"cycle needs n >= 2, got {n}")
    return Digraph.from_arrows(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Digraph:
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Digraph.from_arrows(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Digraph:
    if n < 1:
        raise ValueError(f"complete digraph needs n >= 1, got {n}")
    return Digraph.from_arrows(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def in_star(n: int) -> Digraph:
    """Star with all edges oriented towards the centre (vertex 0)."""
    if n < 2:
        raise ValueError(f"in-star needs n >= 2, got {n}")
    return Digraph.from_arrows(n, [(i, 0) for i in range(1, n)])


def backward_tournament(n: int) -> Digraph:
    """Forward hamiltonian path 0 -> 1 -> ... -> n-1 plus every back
    arrow (i, j) with j <= i-2."""
    if n < 3:
        raise ValueError(f"backward tournament needs n >= 3, got {n}")
    arrows = [(i, i + 1) for i in range(n - 1)]
    arrows += [(i, j) for i in range(2, n) for j in range(i - 1)]
    return Digraph.from_arrows(n, arrows)


def b_family(n: int) -> list[Digraph]:
    """All graphs built from the backward tournament by adding any subset
    of reversed path arrows (i+1, i), deduplicated by isomorphism."""
    if n < 3:
        raise ValueError(f"family needs n >= 3, got {n}")
    if n > ISO_ORDER_CAP:  # each of the 2^(n-1) graphs gets a canonical form
        raise SizeError(f"canonical form supported up to n={ISO_ORDER_CAP}, got {n}")
    base = backward_tournament(n)
    back = [(i + 1, i) for i in range(n - 1)]
    seen: dict[bytes, Digraph] = {}
    for r in range(n):
        for subset in combinations(back, r):
            g = base
            for u, v in subset:
                g = g.add_arrow(u, v)
            seen.setdefault(canonical_form(g), g)
    return list(seen.values())


def l_set(g: Digraph, k: int) -> list[Digraph]:
    """Non-isomorphic graphs obtained by replacing at most k arrows
    (u, v) by the reverse arrow (v, u) or by both arrows."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    arrows = list(g.arrows())
    seen: dict[bytes, Digraph] = {canonical_form(g): g}
    for r in range(1, min(k, len(arrows)) + 1):
        for subset in combinations(arrows, r):
            for choice in product(("reverse", "both"), repeat=r):
                h = g
                for (u, v), how in zip(subset, choice):
                    if how == "reverse":
                        h = h.remove_arrow(u, v)
                    h = h.add_arrow(v, u)
                seen.setdefault(canonical_form(h), h)
    return list(seen.values())


@dataclass(frozen=True)
class BagSpec:
    """A tournament of order k with one arrow duplicated and the copy
    replaced by a directed path of length n - k + 1."""

    n: int
    k: int
    tournament: Digraph
    dup_arrow: tuple[int, int]

    @property
    def path_len(self) -> int:
        return self.n - self.k + 1

    def __post_init__(self):
        if not 3 <= self.k < self.n:
            raise ValueError(f"need 3 <= k < n, got k={self.k}, n={self.n}")
        t = self.tournament
        if t.n != self.k:
            raise ValueError("tournament order must equal k")
        if not is_tournament(t):
            raise ValueError("core graph is not a tournament")
        u, v = self.dup_arrow
        if not t.has_arrow(u, v):
            raise ValueError(f"duplicated arrow ({u},{v}) not in tournament")


def is_tournament(g: Digraph) -> bool:
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if (g.rows[i] >> j & 1) + (g.rows[j] >> i & 1) != 1:
                return False
    return True


def bag(spec: BagSpec) -> Digraph:
    """Vertices 0..k-1 carry the tournament; the duplicated arrow (u, v)
    is kept and a path u -> k -> k+1 -> ... -> n-1 -> v is added."""
    u, v = spec.dup_arrow
    arrows = list(spec.tournament.arrows())
    chain = [u] + list(range(spec.k, spec.n)) + [v]
    arrows += list(zip(chain, chain[1:]))
    return Digraph.from_arrows(spec.n, arrows)


def canonical_bag(n: int, k: int) -> Digraph:
    """The bag over the backward tournament of order k, duplicating its
    arrow (v_k, v_1)."""
    if not 3 <= k < n:
        raise ValueError(f"need 3 <= k < n, got k={k}, n={n}")
    # the forward path 0 -> 1 -> ... -> n-1 and the path's arrow n-1 -> 0,
    # plus the back arrows (i, j), j <= i - 2, of the tournament
    rows = [1 << (i + 1) for i in range(n - 1)] + [1]
    for i in range(2, k):
        rows[i] |= (1 << (i - 1)) - 1
    return Digraph(n, tuple(rows))


SQRT2 = math.sqrt(2.0)


def r_value(n: int) -> float:
    try:
        return n * (SQRT2 - 1.0) + 8.0 - 11.0 * SQRT2 / 2.0
    except OverflowError:
        raise SizeError(f"n of {n.bit_length()} bits does not fit a float") from None


@dataclass(frozen=True)
class KStarResult:
    n: int
    r: float
    candidates: tuple[int, ...]
    k_star: int
    pos_at_candidates: dict[int, int]


def k_star(n: int) -> KStarResult:
    """Extremal bag order: the candidate in {floor(r), ceil(r)} with the
    larger exact transmission price, ties towards the smaller k.

    r = (2n-11)/sqrt(2) - n + 8 is irrational, so its floor comes from an
    integer square root and its ceiling is one more.  The float r is
    only reported; an n too large for a float raises SizeError.
    """
    if n < 11:
        raise DomainError(f"k* is defined for n >= 11, got {n}")
    floor_r = math.isqrt((2 * n - 11) ** 2 // 2) - n + 8
    lo = min(max(floor_r, 3), n - 1)
    hi = min(max(floor_r + 1, 3), n - 1)
    candidates = (lo,) if lo == hi else (lo, hi)
    pos = {k: formulas.pos_hnk(n, k) for k in candidates}
    best = max(candidates, key=lambda k: (pos[k], -k))
    return KStarResult(
        n=n,
        r=r_value(n),
        candidates=candidates,
        k_star=best,
        pos_at_candidates=pos,
    )


def best_known(n: int) -> int:
    """The best transmission price of a known family at order n: the
    cycle up to n = 10, the k* bag from n = 11 on."""
    if n < 11:
        return formulas.pos_cycle(n)
    return formulas.pos_hnk(n, k_star(n).k_star)


FAMILIES = {"cycle": cycle, "path": path, "complete": complete, "instar": in_star,
            "backward": backward_tournament, "bag": canonical_bag}
_PARAMS = {name: tuple(inspect.signature(fn).parameters) for name, fn in FAMILIES.items()}
FAMILY_SPECS = tuple(":".join((name, *params)) for name, params in _PARAMS.items())


def family_spec(name: str, *params: int) -> str:
    """The spec of a family member: ``family_spec("bag", 12, 5)`` is ``bag:12:5``."""
    return ":".join((name, *map(str, params)))


def _parse(spec: str) -> tuple[str, list[int]]:
    name, *args = spec.split(":")
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise ValueError(f"non-integer parameter in family spec {spec!r}") from None
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}, expected one of {FAMILY_SPECS}")
    if len(nums) != len(_PARAMS[name]):
        raise ValueError(f"family {name!r} takes {len(_PARAMS[name])} parameter(s), got {len(nums)}")
    check_order(nums[0])  # every family's first parameter is its order
    return name, nums


def build_family(spec: str) -> Digraph:
    """Parse a CLI family specifier such as ``cycle:5`` or ``bag:8:4``."""
    name, nums = _parse(spec)
    return FAMILIES[name](*nums)


@dataclass(frozen=True)
class ClosedFormCheck:
    """(sigma(G), sigma of the closure) by closed form and by the
    distance engine (field ``bfs``, column ``sigma_bfs``), and the parity
    branch: that of n for a cycle (k None), of n - k for a bag."""
    n: int
    k: int | None
    parity: str
    forms: tuple[int, int]
    bfs: tuple[int, int]

    @property
    def ok(self) -> bool:
        return self.forms == self.bfs


def check_closed_forms(specs: list[str]) -> list[ClosedFormCheck]:
    """Compare the closed forms of each ``cycle:n`` or ``bag:n:k`` spec
    with the engine's transmissions of the graph it builds and of its
    closure, in input order.  The graphs of each order are built and
    priced together by ``price_arrays``."""
    parsed, by_order = [], {}
    for i, spec in enumerate(specs):
        name, nums = _parse(spec)
        if name not in ("cycle", "bag"):
            raise ValueError(f"no closed form for family {name!r}, only for cycle and bag")
        parsed.append((name, nums))
        by_order.setdefault(nums[0], []).append(i)
    bfs = {}
    for n, where in by_order.items():
        adj = adjacency_stack((FAMILIES[parsed[i][0]](*parsed[i][1]).rows for i in where), n)
        sigma, sigma_c = price_arrays(adj, "transmission")
        bfs.update(zip(where, zip(sigma.tolist(), sigma_c.tolist())))
    checks = []
    for i, (name, nums) in enumerate(parsed):
        if name == "cycle":
            (n,), k = nums, None
            forms = formulas.sigma_cycle(n), formulas.sigma_cycle_sym(n)
        else:
            n, k = nums
            forms = formulas.sigma_hnk(n, k), formulas.sigma_hnk_sym(n, k)
        checks.append(ClosedFormCheck(n, k, ("even", "odd")[(n if k is None else n - k) % 2],
                                      forms, bfs[i]))
    return checks
