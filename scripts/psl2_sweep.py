#!/usr/bin/env python3
"""Sweep PSL(2, q) over prime powers q and tabulate the central unit
rank against the longest Galois family of classes.

The natural action on the projective line has degree q + 1, so the
sweep stays cheap well past q = 31.
"""

import argparse
import sys

sys.path.insert(0, "src")

from galorb.classtheory import analyze
from galorb.matgroup import projective_line_action
from galorb.numutil import prime_powers_upto
from galorb.permgroup import conjugacy_classes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q-max", type=int, default=31)
    args = ap.parse_args()

    print("    q     order  classes  n_Q  n_R  rank    f")
    for q in prime_powers_upto(args.q_max):
        if q < 4:
            continue  # PSL(2, 2) and PSL(2, 3) are not simple
        spec = projective_line_action(q)
        cs = conjugacy_classes(spec)
        rep = analyze(cs)
        print(f"{q:5d} {rep.group_order:9d} {rep.num_classes:8d} "
              f"{rep.n_Q:4d} {rep.n_R:4d} {rep.rank:5d} {rep.f:4d}")


if __name__ == "__main__":
    main()
