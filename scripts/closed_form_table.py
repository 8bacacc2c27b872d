#!/usr/bin/env python3
"""Tabulate the cycle/bag transmission-price crossover.

For each order n from 4 (the smallest with a bag), prints the exact
cycle price, the best bag order and price, and which family wins.
Everything is exact integer arithmetic; cross-checks against the
transmissions of the distance engine are run when --check is given, and a mismatch exits 3 after naming each failing order
on stderr.
"""
import argparse
import sys

from symprice import families, formulas


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=40)
    ap.add_argument("--check", action="store_true",
                    help="cross-check closed forms against the distance engine's transmissions")
    args = ap.parse_args(argv)
    if args.min_n < 4:
        ap.error(f"--min-n must be at least 4, the smallest order with a bag, got {args.min_n}")

    specs = []
    print(f"{'n':>4} {'pos(C_n)':>12} {'k':>4} {'pos(H_n(k))':>12}  winner")
    for n in range(args.min_n, args.max_n + 1):
        cyc = formulas.pos_cycle(n)
        k, bag = formulas.best_bag_pos(n)
        winner = "cycle" if cyc > bag else ("bag" if bag > cyc else "tie")
        print(f"{n:>4} {cyc:>12} {k:>4} {bag:>12}  {winner}")
        specs += [families.family_spec("bag", n, k), families.family_spec("cycle", n)]
    checks = families.check_closed_forms(specs) if args.check else []
    mismatches = sorted({c.n for c in checks if not c.ok})
    for n in mismatches:
        print(f"closed form disagrees with the distance engine at n={n}", file=sys.stderr)
    return 3 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
