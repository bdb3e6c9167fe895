"""One benchmark pass, in a fresh interpreter.

    python3 bench/passrun.py LAUNCH PLAN OUT [--trace]

LAUNCH is the parent's time.monotonic() just before it started this
process (the clock is system-wide on Linux), so set-up time runs from
interpreter start to ``import galorb.cli`` done.  PLAN is a JSON list of
items (see workloads.py); OUT receives timings, the peak RSS, every item's
exit code and output, the reference timings, and with --trace the spans.
Checking outputs is the parent's job, after the pass.  Run from the
checkout root with PYTHONPATH=src.
"""

import sys
import time

_LAUNCH = float(sys.argv[1])
import galorb.cli  # noqa: E402  (timed: this import is the set-up users pay)

SETUP_S = time.monotonic() - _LAUNCH

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

# Library calls for items with no CLI subcommand.  Names are looked up on
# the modules at call time, so traced runs go through the wrappers.


def _group_order(args):
    orders = []
    for group in args["groups"]:
        with open(group["file"], encoding="utf-8") as fh:
            spec = galorb.permgroup.parse_generators(fh.read())
        orders.append(galorb.permgroup.group_order(spec, max_order=group["max_order"]))
    return {"orders": orders}


def _alt_routes(args):
    n = args["n"]
    cs = galorb.permgroup.alternating_class_structure(n)
    return {"class_rank": galorb.classtheory.analyze(cs).rank,
            "partition_rank": galorb.altcount.frobenius_rank(n)}


LIB_CALLS = {"group_order": _group_order, "alt_routes": _alt_routes}

REF_ITERATIONS = 100_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop (tuple slicing, integer
    arithmetic, dict stores), timed before the first item and after every
    item.  On a shared host the speed of identical work drifts by a fifth
    over minutes; these timings sample the speed through the pass, which
    run.py uses to scale the pass's times to a fixed speed."""
    t0 = time.perf_counter()
    perm = tuple(range(24))
    seen = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        perm = perm[7:] + perm[:7]
        acc = (acc * 31 + perm[i % 24] * i) % 1_000_003
        seen[(perm[0], acc & 1023)] = i
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """Peak resident set of this process in KiB.  Linux carries ru_maxrss
    over from the forked parent, so a pass started by a large parent would
    report the parent's size; VmHWM counts this program's memory only."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_item(item):
    out, err = io.StringIO(), io.StringIO()
    code, exc = 0, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if item["kind"] == "cli":
                code = galorb.cli.main(item["argv"])
            else:
                out.write(json.dumps(LIB_CALLS[item["call"]](item["args"]), sort_keys=True))
    except SystemExit as e:  # argparse rejected the argv
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # an item that raises is a failed item, not a failed pass
        exc = traceback.format_exc()
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()[-2000:], "exc": exc}


def main(plan_path: str, out_path: str, trace: bool) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        items = json.load(fh)
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    results = []
    refs = [reference_s()]
    clock = time.perf_counter
    for idx, item in enumerate(items):
        t0 = clock()
        if tracer is None:
            res = run_item(item)
        else:
            with tracer.item(idx):
                res = run_item(item)
        res["t"] = clock() - t0
        results.append(res)
        refs.append(reference_s())
    if tracer is not None:
        tracer.uninstall()
    record = {"setup_s": SETUP_S, "refs": refs, "peak_rss_kb": peak_rss_kb(),
              "galorb_file": galorb.cli.__file__, "items": results,
              "trace": tracer.export() if tracer is not None else None}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[2], sys.argv[3], "--trace" in sys.argv[4:])
