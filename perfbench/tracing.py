"""Per-layer tracing from outside the package.

``Tracer.install`` wraps public functions of symprice's modules and
rebinds every reference the package holds to them: module attributes
(including names imported with ``from x import f``), values of
module-level dicts and class attributes.  Command-level and module-level
calls become spans (name, start, end, parent).  Hot leaf functions are
only counted, as calls, total and self time per parent span, so memory
and overhead stay bounded when a command makes 10^5 leaf calls.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

clock = time.perf_counter

SPANS = (
    "cli.main",
    "search.hill_climb",
    "search.verify_conjecture",
    "search.verify_theorems",
    "search.exhaustive_search",
    "families.k_star",
    "families.build_family",
    "transforms.make_critical",
    "transforms.t1_step",
    "transforms.find_c2_bridge",
    "transforms.break_c2",
    "transforms.contract_c2",
    "io.parse_graph_file",
)
GENERATORS = ("search.enumerate_digraphs", "search.enumerate_tournaments")  # spans too
LEAVES = (
    "distances.bfs_row_sum",
    "distances.all_pairs_distances",
    "invariants.pos_sigma",
    "invariants.transmission",
    "invariants.diameter",
    "invariants.domination_number",
    "invariants.price",
    "digraph.Digraph.symmetric_closure",
    "digraph.Digraph.is_strongly_connected",
    "digraph.Digraph.add_arrow",
    "digraph.Digraph.remove_arrow",
    "digraph.canonical_form",
    "families.canonical_bag",
    "io.to_text",
)
GROUP = "formulas"  # every public function of symprice.formulas, counted as one
SELF_TIMED = (
    "cli.main",
    "search.enumerate_digraphs",
    "search.enumerate_tournaments",
    "distances.bfs_row_sum",
    "digraph.canonical_form",
    "invariants.domination_number",
)
EXTRAS = (
    ("digraph.Digraph.is_strongly_connected.kept_ratio", "ratio"),  # moves kept / moves tried
    ("search.hill_climb.visited", "count"),
    ("search.hill_climb.budget_use", "ratio"),  # visited / budget
    *((f"{g}.{key}", unit) for g in GENERATORS
      for key, unit in (("classes", "count"), ("first_s", "s"), ("masks", "count"))),
)

# Which layer metrics each workload must exercise; the traced run fails
# its self-check if one of them was never called.
CARRIES = {
    "bfs": (
        # the hill climbs
        "distances.bfs_row_sum", "invariants.pos_sigma", "digraph.Digraph.symmetric_closure",
        "digraph.Digraph.is_strongly_connected", "digraph.Digraph.add_arrow",
        "digraph.Digraph.remove_arrow", "search.hill_climb",
        # the analysis commands
        "invariants.transmission", "invariants.diameter", "invariants.price",
        "distances.all_pairs_distances", "families.canonical_bag", "families.k_star",
        "families.build_family", GROUP, "transforms.make_critical", "transforms.t1_step",
        "transforms.find_c2_bridge", "transforms.break_c2", "transforms.contract_c2",
        "cli.main", "io.to_text", "io.parse_graph_file"),
    "exhaustive": ("search.enumerate_digraphs", "search.enumerate_tournaments",
                   "search.verify_conjecture", "search.verify_theorems", "search.exhaustive_search",
                   "digraph.canonical_form", "invariants.domination_number"),
}

TRACED = (*SPANS, *GENERATORS, *LEAVES, GROUP)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports."""
    out = []
    for name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s")]
        if name in SELF_TIMED:
            out.append((f"{name}.self_s", "s"))
    return out + list(EXTRAS) + [("trace.overhead_s", "s")]


def _masks(name: str, n: int) -> int:
    """Size of the labelled mask space the enumeration scans at order n."""
    pairs = n * (n - 1) if name.endswith("digraphs") else n * (n - 1) // 2
    return 1 << pairs


class Tracer:
    def __init__(self):
        self.frames: list[list[float]] = []  # [start, time in traced children]
        self.root = {"id": 0, "parent": None, "name": "root", "leaves": {}}
        self.open = [self.root]  # spans being executed, innermost last
        self.spans: list[dict] = []
        self.extra: dict[str, float] = defaultdict(float)
        self.bindings: dict[str, list[str]] = {}
        self.depth: dict[str, list[int]] = {}  # per name, shared by a group's functions

    # -- installing --------------------------------------------------

    def install(self) -> None:
        import symprice.cli  # noqa: F401  (loads every module)

        mods = {name.split(".")[1]: mod for name, mod in sys.modules.items()
                if name.startswith("symprice.")}
        for name in TRACED:
            if name == GROUP:
                formulas = mods[GROUP]
                fns = [f for a, f in vars(formulas).items() if not a.startswith("_")
                       and inspect.isfunction(f) and f.__module__ == formulas.__name__]
            else:
                owner = mods[name.split(".")[0]]
                for attr in name.split(".")[1:]:
                    owner = getattr(owner, attr)
                fns = [owner]
            for fn in fns:
                wrap = self._generator if name in GENERATORS else self._call
                self.bindings.setdefault(name, []).extend(self._rebind(fn, wrap(name, fn)))

    @staticmethod
    def _rebind(fn, wrapper) -> list[str]:
        """Replace every reference to fn inside the package by wrapper."""
        sites = []
        for modname, mod in list(sys.modules.items()):
            if modname != "symprice" and not modname.startswith("symprice."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    sites.append(f"{modname}.{attr}")
                elif isinstance(value, dict):
                    for key, v in value.items():
                        if v is fn:
                            value[key] = wrapper
                            sites.append(f"{modname}.{attr}[{key!r}]")
                elif inspect.isclass(value) and value.__module__ == modname:
                    for key, v in list(vars(value).items()):
                        if v is fn:
                            setattr(value, key, wrapper)
                            sites.append(f"{modname}.{attr}.{key}")
        return sites

    # -- wrappers ----------------------------------------------------

    def _call(self, name: str, fn):
        frames, opened, spans, extra = self.frames, self.open, self.spans, self.extra
        is_span = name in SPANS
        depth = self.depth.setdefault(name, [0])  # nested calls of a name count once in total_s
        if name == "digraph.Digraph.is_strongly_connected":
            def after(args, kwargs, result):
                extra[name + ".kept"] += bool(result)
        elif name == "search.hill_climb":
            sig = inspect.signature(fn)

            def after(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra[name + ".visited"] += result.graphs_visited
                extra[name + ".budget"] += bound.arguments["budget"]
        else:
            after = None

        def wrapper(*args, **kwargs):
            if is_span:
                rec = {"id": len(spans) + 1, "parent": opened[-1]["id"], "name": name,
                       "leaves": {}}
                spans.append(rec)
                opened.append(rec)
            depth[0] += 1
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                depth[0] -= 1
                elapsed = end - frame[0]
                if frames:
                    frames[-1][1] += elapsed
                if is_span:
                    opened.pop()
                    rec.update(start=frame[0], end=end, total_s=elapsed, self_s=elapsed - frame[1])
                else:
                    leaves = opened[-1]["leaves"]
                    entry = leaves.get(name)
                    if entry is None:
                        entry = leaves[name] = [0, 0.0, 0.0]
                    entry[0] += 1
                    if depth[0] == 0:
                        entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name: str, fn):
        """Span over a generator: busy time is the time spent inside it,
        first_s the time to its first item."""
        frames, opened, spans, extra = self.frames, self.open, self.spans, self.extra

        def wrapper(n, *args, **kwargs):
            rec = {"id": len(spans) + 1, "parent": opened[-1]["id"], "name": name,
                   "start": clock(), "total_s": 0.0, "self_s": 0.0, "leaves": {}}
            spans.append(rec)
            extra[name + ".masks"] += _masks(name, n)
            it = fn(n, *args, **kwargs)
            first = True
            try:
                while True:
                    opened.append(rec)
                    frame = [clock(), 0.0]
                    frames.append(frame)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - frame[0]
                        frames.pop()
                        opened.pop()
                        if frames:
                            frames[-1][1] += elapsed
                        rec["total_s"] += elapsed
                        rec["self_s"] += elapsed - frame[1]
                        if first:
                            extra[name + ".first_s"] += elapsed
                            first = False
                    extra[name + ".classes"] += 1
                    yield item
            finally:
                rec["end"] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, total_s, self_s], summed over every span."""
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for rec in (self.root, *self.spans):
            if rec is not self.root:
                t = out[rec["name"]]
                t[0] += 1
                t[1] += rec["total_s"]
                t[2] += rec["self_s"]
            for leaf, (calls, total, self_s) in rec["leaves"].items():
                t = out[leaf]
                t[0] += calls
                t[1] += total
                t[2] += self_s
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics (everything divided by the pass count)."""
        totals = self.totals()
        out = {}
        for name in TRACED:
            calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls / passes
            out[f"{name}.total_s"] = total / passes
            if name in SELF_TIMED:
                out[f"{name}.self_s"] = self_s / passes
        x = self.extra
        strong = "digraph.Digraph.is_strongly_connected"
        tried = totals.get(strong, (0,))[0]
        out[f"{strong}.kept_ratio"] = x[f"{strong}.kept"] / tried if tried else 0.0
        out["search.hill_climb.visited"] = x["search.hill_climb.visited"] / passes
        budget = x["search.hill_climb.budget"]
        out["search.hill_climb.budget_use"] = x["search.hill_climb.visited"] / budget if budget else 0.0
        for g in GENERATORS:
            for key in ("classes", "first_s", "masks"):
                out[f"{g}.{key}"] = x[f"{g}.{key}"] / passes
        return out

    def layer_check(self, workload: str) -> list[str]:
        """Names that should carry this workload but were never called."""
        totals = self.totals()
        return [name for name in CARRIES[workload] if totals.get(name, (0,))[0] == 0]
