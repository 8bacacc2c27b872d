#!/usr/bin/env python3
"""Sweep the transmission-price maximization question over n.

Small orders are settled exhaustively; larger ones get hill-climbing
runs compared against the best known family value (cycle below the
crossover, extremal bag above it).
"""
import argparse
import json
import sys

from symprice.cli import SCHEMA
from symprice.errors import SizeError
from symprice.families import best_known
from symprice.search import hill_climb, verify_conjecture


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--budget", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    if args.min_n < 2:
        ap.error(f"--min-n must be at least 2, the smallest order with a cycle, got {args.min_n}")

    records = []
    beaten = False
    for n in range(args.min_n, args.max_n + 1):
        target = best_known(n)
        try:
            r = verify_conjecture(n)
        except SizeError:  # beyond the orders enumeration reaches
            try:
                out = hill_climb(n, "sigma", budget=args.budget, seed=args.seed)
            except ValueError as e:  # a budget below the number of starts
                ap.error(str(e))
            rec = {"n": n, "mode": "heuristic", "best": out.best_value,
                   "target": target, "visited": out.graphs_visited,
                   "elapsed": round(out.elapsed, 2)}
        else:
            rec = {"n": n, "mode": "exhaustive", "best": r.best_value,
                   "target": target, "classes": r.classes_checked,
                   "unique_cycle": r.ok}
        if rec["best"] > target:
            rec["note"] = "EXCEEDS KNOWN FAMILY VALUE - investigate"
            beaten = True
        records.append(rec)
        if not args.json:
            print(" ".join(f"{k}={v}" for k, v in rec.items()), flush=True)

    if args.json:
        print(json.dumps({"schema": SCHEMA, "sweep": records}, indent=2))
    return 3 if beaten else 0


if __name__ == "__main__":
    sys.exit(main())
