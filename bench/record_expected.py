"""Pin the benchmark's expected values that have no closed form.

    PYTHONPATH=src python3 bench/record_expected.py

Run from the repository root.  Every value is computed through the
galorb CLI from canonical inputs (no relabeling, fixture rows in shipped
order) and written to bench/expected.json.  Re-record only when a
change is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path

import workloads as w
from oracles import perm_view

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "expected.json"


def cli_json(argv):
    from galorb.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"galorb {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


def record(tmp: Path) -> dict:
    def gens_file(name, degree, gens):
        path = tmp / f"{name}.gens"
        path.write_text(w.format_gens(degree, gens))
        return str(path)

    perm = {}
    for q in w.PSL_QS:
        perm[f"psl2_{q}"] = perm_view(cli_json(
            ["analyze-perm", gens_file(f"psl2_{q}", q + 1, w.psl2_gens(q)), "--format", "json"]))
    perm["a8"] = perm_view(cli_json(
        ["analyze-perm", gens_file("a8", 8, w.alternating_gens(8)), "--format", "json"]))
    perm["s8"] = perm_view(cli_json(
        ["analyze-perm", gens_file("s8", 8, w.symmetric_gens(8)), "--format", "json"]))

    tables = {}
    for name in tuple(w.GATE_GENS) + w.ROW_ONLY:
        argv = ["analyze-table", str(ROOT / "src" / "galorb" / "tables" / f"{name}.json"),
                "--format", "json"]
        if name in w.GATE_GENS:
            argv += ["--gens", gens_file(name, *w.GATE_GENS[name])]
        tables[name] = cli_json(argv)

    cyclic = {}
    for m in w.CYCLIC_FIXED + w.CYCLIC_POOL:
        path = tmp / f"c{m}.json"
        path.write_text(json.dumps(w.cyclic_table(m, random.Random(0))))
        obj = cli_json(["analyze-table", str(path), "--gens",
                        gens_file(f"c{m}", m, w.cyclic_gens(m)), "--format", "json"])
        cyclic[str(m)] = {k: obj[k] for k in
                          ("real_rows", "max_family", "b1", "b2", "cut_by_fields")}

    lo, hi = w.AN_RANK_RANGE
    rows = cli_json(["an-rank", f"{lo}..{hi}", "--format", "json"])["rows"]
    an_rank = {str(r["n"]): {"rank": r["rank"], "injection": r["injection"]} for r in rows}

    reports = [cli_json(["charpoly", "file", w.CHARPOLY_FILE, "--target",
                         str(w.CHARPOLY_FILE_TARGET), "--seed", str(s), "--format", "json"])
               for s in w.CHARPOLY_SEARCH_SEEDS]
    if any(r != reports[0] for r in reports):
        raise SystemExit("charpoly file reports depend on the search seed")

    return {"perm": perm, "tables": tables, "cyclic": cyclic, "an_rank": an_rank,
            "charpoly_file": {"gl2_3": reports[0]}}


def main() -> None:
    tmp = ROOT / "bench" / ".work" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        expected = record(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    OUT.write_text(json.dumps(expected, sort_keys=True, indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}", file=sys.stderr)


if __name__ == "__main__":
    main()
