"""Command-line driver.

Subcommands: construct, invariant, price, verify-closed-forms, kstar,
transform, search, verify-theorems, verify-conjecture.

Exit codes: 0 success, 1 usage or file error (a malformed graph file, or
one that cannot be read or written), 2 domain/size error, 3 mathematical
verification failure, 4 internal error (a failed structural check, which
indicates a bug).  ``--json`` switches to JSON, ``--out`` writes to a file
instead of standard output.  Every ``--out`` and ``--trace`` path is
checked before the command's work starts.  A closed standard output
(``| head``) ends the command quietly with exit 0.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io as _stdio
import json
import os
import sys
import warnings
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import families, io, search, transforms
from .digraph import Digraph, check_order
from .errors import DomainError, FormatError, InvariantViolation, SizeError
from .invariants import INVARIANTS, OBJECTIVES, pos_sigma, price
from .transforms import TransformOutcome

SCHEMA = "symprice/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_INTERNAL = 4


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_json(args, obj: dict) -> None:
    obj = {"schema": SCHEMA, **obj}
    _emit(args, json.dumps(obj, indent=2))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = _stdio.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _load_graph(args) -> Digraph:
    # argparse requires exactly one of --family and --in
    if args.family is not None:
        return families.build_family(args.family)
    return io.parse_graph_file(args.input)


# -- subcommands -----------------------------------------------------


def cmd_construct(args) -> int:
    g = families.build_family(args.family)
    if args.json:
        _emit_json(args, {"family": args.family, "graph": io.to_json_obj(g)})
    else:
        _emit(args, io.to_text(g).rstrip("\n"))
    return EXIT_OK


def cmd_invariant(args) -> int:
    g = _load_graph(args)
    value = Fraction(INVARIANTS[args.invariant](g))
    if args.json:
        _emit_json(args, {"n": g.n, "invariant": args.invariant,
                          "value": {"num": value.numerator,
                                    "den": value.denominator}})
    else:
        _emit(args, f"{args.invariant}: {value}")
    return EXIT_OK


def cmd_price(args) -> int:
    g = _load_graph(args)
    pr = price(g, args.invariant)
    if args.json:
        _emit_json(args, {"n": g.n, "price": pr.to_json_obj()})
    else:
        quot = pr.pos_quot if pr.pos_quot is not None else "undefined"
        _emit(args, "\n".join([
            f"invariant    {pr.invariant}",
            f"value_g      {pr.value_g}",
            f"value_sym    {pr.value_sym}",
            f"pos_minus    {pr.pos_minus}",
            f"pos_quot     {quot}",
        ]))
    return EXIT_OK


def cmd_verify_closed_forms(args) -> int:
    if args.max_n < 2:
        raise ValueError(f"--max-n must be at least 2, got {args.max_n}")
    check_order(args.max_n)  # before the O(max_n^2) specs are built
    specs = [families.family_spec("cycle", n) for n in range(2, args.max_n + 1)]
    specs += [families.family_spec("bag", n, k)
              for n in range(11, args.max_n + 1) for k in range(3, n)]
    rows = []
    for c in families.check_closed_forms(specs):
        # one row for the graph, one for its closure
        rows += [[c.n, c.k, c.parity, f, b, f == b] for f, b in zip(c.forms, c.bfs)]
    ok = all(r[-1] for r in rows)
    header = ["n", "k", "parity", "sigma_formula", "sigma_bfs", "match"]
    if args.json:
        _emit_json(args, {"max_n": args.max_n, "ok": ok,
                          "rows": [dict(zip(header, r)) for r in rows]})
    else:
        _emit(args, _csv_text(header, rows))
    if not ok:
        print("closed-form mismatch found", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_kstar(args) -> int:
    r = families.k_star(args.n)
    if args.json:
        _emit_json(args, {
            "n": r.n, "r": r.r,
            "candidates": list(r.candidates), "k_star": r.k_star,
            "pos_at_candidates": {str(k): v for k, v in r.pos_at_candidates.items()},
        })
    else:
        lines = [f"n          {r.n}",
                 f"r          {r.r:.6f}",
                 f"candidates {', '.join(map(str, r.candidates))}",
                 f"k_star     {r.k_star}"]
        lines += [f"pos(H_{r.n}({k}))  {v}" for k, v in sorted(r.pos_at_candidates.items())]
        _emit(args, "\n".join(lines))
    return EXIT_OK


_RULES = ("critical", "break-c2", "contract-c2", "t1")


def _apply_rule(g: Digraph, rule: str) -> TransformOutcome:
    if rule == "critical":
        before = pos_sigma(g)
        h = transforms.make_critical(g)
        return TransformOutcome(h is not g, h, before, pos_sigma(h), "critical")
    if rule in ("break-c2", "contract-c2"):
        p = transforms.find_c2_bridge(g)
        if p is None:
            raise DomainError("no induced 2-cycle with both arrows bridges")
        fn = transforms.break_c2 if rule == "break-c2" else transforms.contract_c2
        return fn(g, p)
    return transforms.t1_step(g)


def cmd_transform(args) -> int:
    g = io.parse_graph_file(args.input)
    outcome = _apply_rule(g, args.rule)
    result = outcome.result if outcome.applied else g
    if args.out:
        io.write_graph_file(result, args.out)
    if args.trace:
        trace = {
            "schema": SCHEMA,
            "rule": outcome.rule,
            "applied": outcome.applied,
            "pos_before": outcome.pos_before,
            "pos_after": outcome.pos_after,
            "result": io.to_json_obj(result),
        }
        Path(args.trace).write_text(json.dumps(trace, indent=2) + "\n")
    word = "applied" if outcome.applied else "not applied"
    print(f"{outcome.rule}: {word}, pos {outcome.pos_before} -> {outcome.pos_after}")
    return EXIT_OK


def cmd_search(args) -> int:
    # the flags given; hill_climb supplies the defaults
    heuristic = {k: v for k in ("budget", "seed") if (v := getattr(args, k)) is not None}
    if args.mode == "exhaustive":
        if heuristic:
            raise ValueError("--budget and --seed apply to --mode heuristic only")
        outcome = search.exhaustive_search(args.n, args.objective)
    else:
        outcome = search.hill_climb(args.n, args.objective, **heuristic)
    report = {
        "schema": SCHEMA,
        "n": outcome.n,
        "objective": outcome.objective,
        "mode": args.mode,
        "best_value": outcome.best_value,
        "exhaustive": outcome.exhaustive,
        "graphs_visited": outcome.graphs_visited,
        "elapsed": outcome.elapsed,
        "maximizers": [io.to_text(g) for g in outcome.maximizers],
    }
    if not outcome.exhaustive:
        report["restarts"] = [dataclasses.asdict(r) for r in outcome.restarts]
    text = json.dumps(report, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(f"best {args.objective} price at n={args.n}: {outcome.best_value} "
          f"({len(outcome.maximizers)} maximizer(s), "
          f"{'exhaustive' if outcome.exhaustive else 'heuristic'})")
    return EXIT_OK


def cmd_verify_theorems(args) -> int:
    reports = search.verify_theorems(args.n)
    ok = all(r.ok for r in reports)
    if args.json:
        _emit_json(args, {"n": args.n, "ok": ok, "reports": [
            {"invariant": r.invariant, "best_value": r.best_value,
             "bound_minus": r.bound_minus, "bound_quot": r.bound_quot,
             "maximizers_match_family": r.maximizers_match_family,
             "bounds_hold": r.bounds_hold,
             "classes_checked": r.classes_checked,
             "counterexample": io.to_text(r.counterexample) if r.counterexample else None}
            for r in reports]})
    else:
        lines = []
        for r in reports:
            status = "ok" if r.ok else "FAIL"
            lines.append(f"{r.invariant:11s} n={r.n}  best={r.best_value}  "
                         f"family_match={r.maximizers_match_family}  "
                         f"bounds_hold={r.bounds_hold}  [{status}]")
            if r.counterexample is not None:
                lines.append("  counterexample arrows: "
                             f"{list(r.counterexample.arrows())}")
        _emit(args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify_conjecture(args) -> int:
    r = search.verify_conjecture(args.n)
    if args.json:
        _emit_json(args, {
            "n": r.n, "ok": r.ok, "best_value": r.best_value,
            "unique_maximizer": r.unique_maximizer,
            "maximizer_is_cycle": r.maximizer_is_cycle,
            "classes_checked": r.classes_checked,
            "top": [{"value": v, "graph": io.to_text(g)} for v, g in r.top],
        })
    else:
        lines = [f"n={r.n}  best pos={r.best_value}  unique={r.unique_maximizer}  "
                 f"cycle={r.maximizer_is_cycle}  classes={r.classes_checked}"]
        lines += [f"  {v:6d}  {list(g.arrows())}" for v, g in r.top]
        _emit(args, "\n".join(lines))
    return EXIT_OK if r.ok else EXIT_VERIFY


# -- argument parsing ------------------------------------------------


def _add_format_flags(p):
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.add_argument("--out", help="write output to a file")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``symprice`` parser, built once per process and shared by every
    ``main`` call.

    Callers must not mutate it.  Each subcommand's ``cmd_*`` function is
    bound when the parser is first built, so rebinding ``cli.cmd_*`` later
    does not reach ``main``.  The cache only pays when ``main`` runs more
    than once in a process; a one-shot command builds the parser once
    either way.
    """
    ap = argparse.ArgumentParser(
        prog="symprice",
        description="Price-of-symmetrisation toolkit for digraphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named family member")
    p.add_argument("--family", required=True,
                   help=f"one of {', '.join(families.FAMILY_SPECS)}")
    _add_format_flags(p)
    p.set_defaults(fn=cmd_construct)

    for name, fn in (("invariant", cmd_invariant), ("price", cmd_price)):
        p = sub.add_parser(name, help=f"compute an {name} on a graph")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--family", help="family specifier, e.g. cycle:6")
        source.add_argument("--in", dest="input", help="graph file (text or JSON)")
        p.add_argument("--invariant", required=True, choices=INVARIANTS)
        _add_format_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("verify-closed-forms",
                       help="compare closed forms against the distance engine's transmissions")
    p.add_argument("--max-n", type=int, default=30)
    _add_format_flags(p)
    p.set_defaults(fn=cmd_verify_closed_forms)

    p = sub.add_parser("kstar", help="extremal bag order for a given n")
    p.add_argument("--n", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(fn=cmd_kstar)

    p = sub.add_parser("transform", help="apply a price-increasing transformation")
    p.add_argument("--rule", required=True, choices=_RULES)
    p.add_argument("--in", dest="input", required=True, help="input graph file")
    p.add_argument("--out", help="write the transformed graph here")
    p.add_argument("--trace", help="write a JSON trace here")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("search", help="maximise a price objective")
    p.add_argument("--mode", required=True, choices=("exhaustive", "heuristic"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--objective", default="sigma", choices=OBJECTIVES)
    p.add_argument("--budget", type=int, help="objective evaluations (heuristic mode)")
    p.add_argument("--seed", type=int, help="random seed (heuristic mode)")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify-theorems",
                       help="exhaustive bound and equality-family check")
    p.add_argument("--n", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(fn=cmd_verify_theorems)

    p = sub.add_parser("verify-conjecture",
                       help="exhaustive transmission-price maximiser check")
    p.add_argument("--n", type=int, required=True)
    _add_format_flags(p)
    p.set_defaults(fn=cmd_verify_conjecture)

    return ap


def _check_writable(path: str) -> None:
    """Raise OSError now if ``path`` cannot be written, leaving the file
    as it was: opened for appending, and removed again if it is new."""
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems and 0 on --help
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    with warnings.catch_warnings():  # a warning is one line on standard error
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            # every output path is checked before the work starts
            for path in (getattr(args, "out", None), getattr(args, "trace", None)):
                if path:
                    _check_writable(path)
            return args.fn(args)
        except BrokenPipeError:
            # the reader went away (e.g. `| head`); silence the final flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return EXIT_OK
        except (ValueError, FormatError, OSError) as e:  # OSError: an unreadable input or unwritable output
            print(f"error: {e}", file=sys.stderr)
            return EXIT_USAGE
        except (DomainError, SizeError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_DOMAIN
        except InvariantViolation as e:
            print(f"internal error: {e}", file=sys.stderr)
            return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
