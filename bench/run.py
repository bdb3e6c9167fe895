"""galorb benchmark: end-to-end pass time, set-up, memory and correctness
per workload, and per-layer spans from a separate traced run.

    python3 bench/run.py --workload perm-groups --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client drives the workload in a
closed loop: pass after pass, each in a fresh interpreter (every galorb
CLI call is a fresh process, and no module cache may carry over), with
BLAS/OpenMP threads pinned to 1.  Passes start while the previous ones
say the next would end within --seconds, and at least MIN_PASSES start
as long as they would end within LIMIT_S.  Every item's output is checked
(oracles.py); the last stdout line is the JSON result.  With --trace 1
each pass runs twice, untraced and traced in alternating order, and the
metrics are the per-layer ones.  A result file with the machine, every
pass and every sample goes to bench/results/.

Times are scaled to a fixed machine speed.  On a shared host the wall
time of identical work drifts by a fifth over minutes, so the pass
process times a fixed pure-Python loop (passrun.reference_s) before the
first item and after each one, and a pass's times are scaled by
REF_NOMINAL_S over the mean of its loop timings.  ``pass_s`` and
``setup_s`` are scaled; the raw wall times are printed and kept as
``pass_wall_s`` and ``setup_wall_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

import oracles
import workloads
from tracer import LAYERS, layer_of

HERE = Path(__file__).resolve().parent
REF_NOMINAL_S = 0.05      # the reference loop's time at the speed times are scaled to
MIN_PASSES = 3
LIMIT_S = 120             # the run must end well within 180 s, whatever --seconds says
PASS_TIMEOUT_S = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
NOISE_NOTE = ("shared, noisy sandbox: `galorb screen all --box 64,96` ran 2.4 s and "
              "then 1.8 s back to back; compare medians of many runs, not single runs")

CYCLOTOMIC_OPS = {f"cyclotomic.CyclotomicNumber.{op}" for op in
                  ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__pow__")} | {
    "cyclotomic.galois_apply", "cyclotomic.field_class", "cyclotomic.value_from_obj"}

UNITS = {"pass_s": "s", "pass_wall_s": "s", "setup_s": "s", "setup_wall_s": "s",
         "peak_rss_mb": "MB", "ref_s": "s", "fail_frac": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here: no program, or a pass that died."""


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "platform": platform.platform(),
        "note": NOISE_NOTE,
    }


# -- passes -------------------------------------------------------------------


def pass_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_pass(root: Path, plan: Path, out: Path, traced: bool, env: dict) -> dict:
    argv = [sys.executable, str(HERE / "passrun.py"), repr(time.monotonic()),
            str(plan), str(out)] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass ran past {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"pass process exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-1500:]}")
    rec = json.loads(out.read_text())
    out.unlink()
    src = (root / "src").resolve()
    if src not in Path(rec["galorb_file"]).resolve().parents:
        raise BenchError(f"galorb was imported from {rec['galorb_file']}, not from {src}")
    return rec


# -- per-layer numbers from spans ------------------------------------------------


def layer_metrics(trace: dict, pass_s: float) -> dict:
    """Per-layer metrics of one traced pass.  Self time is a span minus
    its direct children; inclusive times count only spans with no
    ancestor of the same name, so recursion is not counted twice."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for fid, t0, t1, parent, _item, _extra in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = dict.fromkeys(LAYERS, 0.0)
    incl = defaultdict(float)
    self_by_name = defaultdict(float)
    calls = Counter()
    outer_calls = Counter()
    extras = defaultdict(list)
    charpolys = 0
    for idx, (fid, t0, t1, parent, _item, extra) in enumerate(spans):
        name = names[fid]
        if (name == "matgroup.element_order" and parent >= 0
                and names[spans[parent][0]] == "matgroup.coprime_power_charpoly_count"):
            charpolys += oracles.totient(extra)  # one char_poly per coprime power
        dur = t1 - t0
        self_s[layer_of(name)] += dur - child[idx]
        self_by_name[name] += dur - child[idx]
        calls[name] += 1
        if extra:
            extras[name].append(extra)
        p = parent
        while p >= 0 and spans[p][0] != fid:
            p = spans[p][3]
        if p < 0:
            incl[name] += dur
            outer_calls[name] += 1

    m = {}
    total = sum(self_s.values())
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.self_share"] = self_s[layer] / pass_s
    m["cyclotomic.ops"] = sum(calls[n] for n in CYCLOTOMIC_OPS)
    m["chartab.parse_s"] = incl["chartab.parse_table"]
    m["chartab.report_s"] = incl["chartab.char_report"]
    m["chartab.crosscheck_s"] = incl["chartab.brauer_crosscheck"]
    m["chartab.cells"] = sum(extras["chartab.parse_table"])
    m["permgroup.order_s"] = incl["permgroup.group_order"]
    classes_s = self_by_name["permgroup.conjugacy_classes"]
    elements = sum(extras["permgroup.conjugacy_classes"])
    m["permgroup.classes_s"] = classes_s
    m["permgroup.elements"] = elements
    m["permgroup.elements_per_s"] = elements / classes_s if classes_s > 0 else 0.0
    m["permgroup.alt_classes_s"] = incl["permgroup.alternating_class_structure"]
    m["classtheory.analyze_s"] = incl["classtheory.analyze"]
    m["classtheory.classes"] = sum(extras["classtheory.analyze"])
    m["altcount.rank_s"] = incl["altcount.frobenius_rank"]
    m["altcount.bound_s"] = incl["altcount.prop8_lower_bound"]
    ranks = extras["altcount.frobenius_rank"]
    tried = sum(oracles.distinct_odd_partitions(n) for n, _ in ranks)
    m["altcount.useful_ratio"] = sum(r for _, r in ranks) / tried if tried else 0.0
    m["screening.mtable_s"] = incl["screening.max_m_with_totient_at_most"]
    m["screening.scan_s"] = incl["screening.exception_set"] - m["screening.mtable_s"]
    m["screening.rows"] = sum(r for r, _ in extras["screening.exception_set"])
    m["screening.phi_rows"] = sum(p for _, p in extras["screening.exception_set"])
    m["matgroup.order_s"] = incl["matgroup.element_order"]
    m["matgroup.count_s"] = incl["matgroup.coprime_power_charpoly_count"]
    m["matgroup.field_s"] = incl["matgroup.finite_field"]
    m["matgroup.charpolys"] = charpolys
    m["numutil.factorize_s"] = incl["numutil.factorize"]
    m["numutil.factorize_calls"] = outer_calls["numutil.factorize"]
    m["trace.accounted_frac"] = total / pass_s
    m["trace.spans"] = len(spans)
    return m


# -- summaries --------------------------------------------------------------------


def describe(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    for need in ("src/galorb/cli.py", workloads.CHARPOLY_FILE):
        if not (root / need).is_file():
            print(f"error: {need} not found under {root}; run from the "
                  "repository root", file=sys.stderr)
            return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    wl = workloads.Workload(args.workload, args.seed, root)
    env = pass_env(root)
    work_rel = Path("bench") / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work = root / work_rel
    info = {"machine": machine(), "loadavg_before": loadavg(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    passes = []
    failures = []
    attempted = failed = 0
    try:
        work.mkdir(parents=True, exist_ok=True)
        empty = work / "empty.json"
        empty.write_text("[]")
        run_pass(root, empty, work / "warm.out.json", False, env)  # byte-compile once
        t_start = time.monotonic()
        walls = []  # wall time of each pass index, process start to exit
        i = 0
        while True:
            elapsed = time.monotonic() - t_start
            expect = statistics.median(walls) if walls else 0.0
            if elapsed + expect > (args.seconds if i >= MIN_PASSES else LIMIT_S):
                break
            t_pass = time.monotonic()
            items = wl.write_pass(i, work_rel / f"p{i}")
            plan = work / f"p{i}.plan.json"
            plan.write_text(json.dumps(items))
            modes = [False]
            if args.trace:
                modes = [False, True] if i % 2 == 0 else [True, False]
            for traced in modes:
                rec = run_pass(root, plan, work / f"p{i}.out.json", traced, env)
                refs = rec["refs"]
                scale = REF_NOMINAL_S / statistics.mean(refs)
                wall = sum(r["t"] for r in rec["items"])
                row = {"index": i, "traced": traced, "pass_s": wall * scale,
                       "pass_wall_s": wall, "setup_s": rec["setup_s"] * scale,
                       "setup_wall_s": rec["setup_s"], "refs": refs,
                       "peak_rss_kb": rec["peak_rss_kb"], "items": []}
                for item, res in zip(items, rec["items"]):
                    reason = oracles.check(item, res, expected)
                    attempted += 1
                    if reason:
                        failed += 1
                        failures.append({"pass": i, "traced": traced,
                                         "item": item["id"], "reason": reason})
                    row["items"].append({"id": item["id"], "t": res["t"], "ok": not reason})
                if traced:
                    row["layers"] = layer_metrics(rec["trace"], wall)
                passes.append(row)
            walls.append(time.monotonic() - t_pass)
            i += 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["loadavg_after"] = loadavg()

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    summary = {
        "pass_s": describe([p["pass_s"] for p in plain]),
        "pass_wall_s": describe([p["pass_wall_s"] for p in plain]),
        "setup_s": describe([p["setup_s"] for p in passes]),
        "setup_wall_s": describe([p["setup_wall_s"] for p in passes]),
        "peak_rss_mb": describe([p["peak_rss_kb"] / 1024 for p in plain]),
        "ref_s": describe([r for p in passes for r in p["refs"]]),
        "fail_frac": failed / attempted,
    }
    units = dict(UNITS)
    metrics = {k: {"value": summary[k]["median"], "unit": units[k]}
               for k in (m["name"] for m in spec["end_to_end"])}
    if args.trace:
        per_layer = {}
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_frac":
                by_index = defaultdict(dict)
                for p in passes:
                    by_index[p["index"]][p["traced"]] = p["pass_s"]
                vals = [(d[True] - d[False]) / d[False] for d in by_index.values()]
            else:
                vals = [p["layers"][name] for p in traced]
            summary[name] = describe(vals)
            per_layer[name] = {"value": summary[name]["median"], "unit": m["unit"]}
            units[name] = m["unit"]
        metrics = per_layer

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    out = results_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({**info, "attempted": attempted, "failed": failed,
                               "failures": failures, "summary": summary,
                               "passes": passes}, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} items, {failed} failed; "
          f"loadavg {info['loadavg_before']} -> {info['loadavg_after']}")
    for f in failures[:10]:
        print(f"# FAILED pass {f['pass']} {f['item']}: {f['reason']}")
    for name, s in summary.items():
        if isinstance(s, dict):
            print(f"{name:32s} {s['median']:.6g} {units[name]} "
                  f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})")
        else:
            print(f"{name:32s} {s:.6g} {units[name]}")
    print(f"# result file {out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
