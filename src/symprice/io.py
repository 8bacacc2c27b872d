"""Graph text and JSON formats.

Text format: first line ``n <order>``, then one line ``u v`` per arrow
(0-based).  ``#`` starts a comment; blank lines are ignored.  JSON form:
``{"n": ..., "arrows": [[u, v], ...]}`` with JSON integers only.  Both
round-trip bit-exactly, and in both a repeated arrow warns and is kept once.
"""
from __future__ import annotations

import json
import warnings
from pathlib import Path

from .digraph import Digraph, check_order
from .errors import FormatError


def to_text(g: Digraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.arrows())
    return "\n".join(lines) + "\n"


def _graph(n: int, arrows: list[tuple[int, int]], places: list[str]) -> Digraph:
    """The graph of ``arrows``; a repeat warns, naming its place, and is kept once."""
    seen: set[tuple[int, int]] = set()
    for arrow, place in zip(arrows, places):
        if arrow in seen:
            warnings.warn(f"duplicate arrow ({arrow[0]},{arrow[1]}) at {place}, deduplicated")
        seen.add(arrow)
    return Digraph.from_arrows(n, arrows)


def from_text(text: str) -> Digraph:
    n = None
    arrows: list[tuple[int, int]] = []
    places: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise FormatError("expected header 'n <order>'", line=lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(f"bad order {parts[1]!r}", line=lineno) from None
            if n < 1:
                raise FormatError(f"order must be >= 1, got {n}", line=lineno)
            check_order(n)
            continue
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer arrow {line!r}", line=lineno) from None
        if u == v:
            raise FormatError(f"loop arrow ({u},{v})", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"arrow ({u},{v}) out of range", line=lineno)
        arrows.append((u, v))
        places.append(f"line {lineno}")
    if n is None:
        raise FormatError("empty graph file, missing 'n <order>' header")
    return _graph(n, arrows, places)


def to_json_obj(g: Digraph) -> dict:
    return {"n": g.n, "arrows": [[u, v] for u, v in g.arrows()]}


def _integer(x) -> int:
    # int() would truncate 3.7 and read true or "2"; bool is an int subclass
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(x)}")
    return x


def from_json_obj(obj: dict) -> Digraph:
    try:
        n = _integer(obj["n"])
        check_order(n)
        arrows = [(_integer(u), _integer(v)) for u, v in obj["arrows"]]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"bad graph JSON: {e}") from None
    try:
        return _graph(n, arrows, [f"arrows[{i}]" for i in range(len(arrows))])
    except ValueError as e:
        raise FormatError(str(e)) from None


def write_graph_file(g: Digraph, path: str | Path) -> None:
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(to_json_obj(g)) + "\n")
    else:
        path.write_text(to_text(g))


def parse_graph_file(path: str | Path) -> Digraph:
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if path.suffix == ".json" or stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormatError(f"bad JSON: {e}") from None
        return from_json_obj(obj)
    return from_text(text)
