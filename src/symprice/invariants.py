"""Graph invariants and the two price-of-symmetrisation functionals.

Supported invariants: diameter, domination number, transmission and
average distance.  Averages and quotients are exact ``Fraction`` values
so equality cases of the extremal statements stay decidable.
``price_arrays`` prices an (N, n, n) boolean adjacency stack of graphs
and their closures in int64, as one ``digraph.stream`` of the graphs
and then their closures, so no more than a slice of closures is built
at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .digraph import Digraph, bfs_levels, distance_stream, stack_rows, stream, symmetric_closures
from .distances import bfs_row_sum
from .errors import DomainError, SizeError

# Up to 2^n vertex subsets: the empty graph at n = 20 takes about 0.6 s
DOMINATION_ORDER_CAP = 20


def check_domination_order(n: int) -> None:
    """Refuse an order above ``DOMINATION_ORDER_CAP`` for a domination number."""
    if n > DOMINATION_ORDER_CAP:
        raise SizeError(f"domination number capped at n={DOMINATION_ORDER_CAP}, got {n}")


def _eccentricity(g: Digraph, s: int) -> int:
    full = (1 << g.n) - 1
    seen = 0
    for depth, level in enumerate(bfs_levels(g.rows, s, full)):
        seen |= level
    if seen != full:
        raise DomainError(f"graph not strongly connected (seen from {s})")
    return depth


def diameter(g: Digraph) -> int:
    return max(_eccentricity(g, s) for s in range(g.n))


def transmission(g: Digraph) -> int:
    """sigma(G): sum of all n(n-1) ordered-pair shortest-path lengths."""
    return sum(bfs_row_sum(g, s) for s in range(g.n))


def average_distance(g: Digraph) -> Fraction:
    if g.n < 2:
        raise DomainError("average distance needs n >= 2")
    return Fraction(transmission(g), g.n * (g.n - 1))


def domination_number(g: Digraph) -> int:
    """Exact minimum dominating set size.

    Vertex i dominates j iff the arrow (i, j) is present; members of the
    dominating set cover themselves.  Exhaustive search by increasing
    cardinality, so orders above ``DOMINATION_ORDER_CAP`` raise SizeError.
    """
    check_domination_order(g.n)
    full = (1 << g.n) - 1
    cover = [1 << v | g.rows[v] for v in range(g.n)]
    for k in range(1, g.n + 1):
        for subset in combinations(range(g.n), k):
            c = 0
            for v in subset:
                c |= cover[v]
            if c == full:
                return k
    raise AssertionError("unreachable: V always dominates")


def _domination_array(adj: np.ndarray) -> np.ndarray:
    """Batched ``domination_number`` of an (N, n, n) boolean adjacency
    stack: subsets by increasing size, and the first size at which some
    subset's covers OR to the full mask."""
    n = adj.shape[1]
    check_domination_order(n)
    full = (1 << n) - 1
    cover = (adj | np.eye(n, dtype=bool)) @ (1 << np.arange(n))  # (N, n) masks: out-arrows and self
    found = np.zeros(len(adj), np.int64)  # 0 until a dominating subset is seen
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            hit = np.bitwise_or.reduce(cover[:, subset], axis=1) == full
            found[hit & (found == 0)] = k
        if found.all():
            break
    return found


def pos_sigma(g: Digraph) -> int:
    """sigma(G) - sigma of the symmetric closure; always >= 0."""
    return transmission(g) - transmission(g.symmetric_closure())


@dataclass(frozen=True)
class PriceReport:
    invariant: str
    value_g: Fraction
    value_sym: Fraction
    pos_minus: Fraction
    pos_quot: Fraction | None  # None only if the closure value is 0

    def to_json_obj(self) -> dict:
        def frac(x):
            return {"num": x.numerator, "den": x.denominator}

        return {
            "invariant": self.invariant,
            "value_g": frac(self.value_g),
            "value_sym": frac(self.value_sym),
            "pos_minus": frac(self.pos_minus),
            "pos_quot": frac(self.pos_quot) if self.pos_quot is not None else None,
        }


# The invariant registry: the ``--invariant`` names and their functions.
INVARIANTS = {
    "diameter": diameter,
    "domination": domination_number,
    "transmission": transmission,
    "average-distance": average_distance,
}

# Search objectives: each is the difference price of a registry
# invariant; "sigma" is the transmission one, computed by pos_sigma.
OBJECTIVES = ("sigma", "diameter", "domination")


def objective_invariant(name: str) -> str:
    """The registry invariant whose difference price is the objective ``name``."""
    if name not in OBJECTIVES:
        raise ValueError(f"unknown objective {name!r}, expected one of {OBJECTIVES}")
    return "transmission" if name == "sigma" else name


def price_arrays(adj: np.ndarray, invariant: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``invariant`` values of every graph of an (N, n, n) boolean
    adjacency stack and of its symmetric closure, as ``price`` gives
    them one graph at a time, all int64: the N graphs and then their N
    closures are one two-part ``digraph.stream``, each slice's closures
    built from only the graphs it covers.  Domination takes any graph, n
    cover masks each; the distance invariants, through
    ``distance_stream``, need strongly connected graphs, as their scalar
    functions do."""
    count, n = adj.shape[:2]
    parts = (count, lambda lo, hi: adj[lo:hi]), (count, lambda lo, hi: symmetric_closures(adj[lo:hi]))
    if invariant == "domination":
        values = stream(_domination_array, n, *parts)
    elif invariant in ("transmission", "diameter"):
        total, depth_max, reached = distance_stream(n, *parts)
        if not reached[:count].all():
            first = int(reached.argmin())
            raise DomainError(f"graph {list(stack_rows(adj[first:first + 1])[0])} not strongly connected")
        values = total if invariant == "transmission" else depth_max
    else:
        raise ValueError(f"no batched {invariant!r}, expected transmission, diameter or domination")
    return values[:count], values[count:]


def price(g: Digraph, invariant: str) -> PriceReport:
    if invariant not in INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}, expected one of {tuple(INVARIANTS)}")
    f = INVARIANTS[invariant]
    value_g = Fraction(f(g))
    value_sym = Fraction(f(g.symmetric_closure()))
    pos_quot = None if value_sym == 0 else value_g / value_sym
    return PriceReport(
        invariant=invariant,
        value_g=value_g,
        value_sym=value_sym,
        pos_minus=abs(value_g - value_sym),
        pos_quot=pos_quot,
    )
