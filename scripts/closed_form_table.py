#!/usr/bin/env python3
"""Tabulate the cycle/bag transmission-price crossover.

For each order n, prints the exact cycle price, the best bag order and
price, and which family wins.  Everything is exact integer arithmetic;
BFS cross-checks are run when --check is given, and a mismatch exits 3
after naming each failing order on stderr.
"""
import argparse
import csv
import sys

from symprice import families, formulas
from symprice.invariants import transmission


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=40)
    ap.add_argument("--check", action="store_true",
                    help="cross-check closed forms against BFS transmissions")
    ap.add_argument("--csv", action="store_true")
    args = ap.parse_args(argv)

    rows, mismatches = [], []
    for n in range(args.min_n, args.max_n + 1):
        cyc = formulas.pos_cycle(n)
        k, bag = formulas.best_bag_pos(n)
        winner = "cycle" if cyc > bag else ("bag" if bag > cyc else "tie")
        if args.check:
            g = families.canonical_bag(n, k)
            bfs = (transmission(g), transmission(g.symmetric_closure()),
                   transmission(families.cycle(n)))
            if bfs != (formulas.sigma_hnk(n, k), formulas.sigma_hnk_sym(n, k),
                       formulas.sigma_cycle(n)):
                mismatches.append(n)
        rows.append((n, cyc, k, bag, winner))

    if args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["n", "pos_cycle", "best_k", "pos_bag", "winner"])
        w.writerows(rows)
    else:
        print(f"{'n':>4} {'pos(C_n)':>12} {'k':>4} {'pos(H_n(k))':>12}  winner")
        for n, cyc, k, bag, winner in rows:
            print(f"{n:>4} {cyc:>12} {k:>4} {bag:>12}  {winner}")
    for n in mismatches:
        print(f"closed form disagrees with BFS at n={n}", file=sys.stderr)
    return 3 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
