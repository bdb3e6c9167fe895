#!/usr/bin/env python3
"""Apply the torus-totient screen to tabulated torus records.

Each record in the file (data/sample_tori.jsonl by default) is kept or
excluded by the same totient test the family screens use; the family
screens themselves are `galorb screen`.  Run from the repository root.
"""

import argparse
import sys

sys.path.insert(0, "src")

from galorb.screening import exceptional_screen, parse_torus_records


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tori", default="data/sample_tori.jsonl")
    args = ap.parse_args()

    with open(args.tori, "r", encoding="utf-8") as fh:
        records = parse_torus_records(fh.read())
    for v in exceptional_screen(records):
        word = "excluded" if v.excluded else "kept"
        print(f"{v.record.group}: torus order {v.record.torus_order}, "
              f"phi {v.phi}, index bound {v.record.index_bound}: {word}")


if __name__ == "__main__":
    main()
