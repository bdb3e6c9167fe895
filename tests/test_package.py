"""Every exported name resolves, so a deletion that leaves an __all__
entry behind fails here; and the library surface the benchmark harness
reads (bench/tracer.py, bench/run.py, bench/passrun.py) still exists."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import galorb
import galorb.cli
from galorb import altcount, classtheory, permgroup, screening
from galorb.cyclotomic import CyclotomicNumber

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
DATA = BENCH.parent / "data"


def test_exported_names_resolve_and_star_import_works():
    for mod in (galorb, screening):
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (mod.__name__, missing)
        ns = {}
        exec(f"from {mod.__name__} import *", ns)
        assert set(mod.__all__) <= ns.keys()


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the per-name tables of bench/run.py's layer_metrics, keyed by span name
SPAN_TABLES = ("incl", "self_by_name", "extras", "outer_calls")


def _run_span_names(layers) -> set:
    """The "<layer>.<name>" span names bench/run.py reads: the keys it
    looks up in SPAN_TABLES, the strings it compares names with, and
    CYCLOTOMIC_OPS, a set expression of literals."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    nodes, names = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in SPAN_TABLES:
            nodes.append(node.slice)
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq):
            nodes += [node.left, *node.comparators]
        elif (isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "CYCLOTOMIC_OPS"):
            names |= eval(compile(ast.Expression(node.value), "run.py", "eval"), {})
    names |= {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return {n for n in names if n.split(".")[0] in layers}


def _passrun_calls() -> set:
    """(layer, name) of each galorb.<layer>.<name>(...) in bench/passrun.py."""
    tree = ast.parse((BENCH / "passrun.py").read_text(encoding="utf-8"))
    return {(f.value.attr, f.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(f := node.func, ast.Attribute)
            and isinstance(f.value, ast.Attribute)
            and getattr(f.value.value, "id", None) == "galorb"}


def test_benchmark_names_exist():
    # bench/test_bench.py runs outside this suite, so without this a rename
    # in src would leave a per-layer metric silently at 0
    tracer = _load_tracer()
    spans = {*tracer.EXTRA, *_run_span_names(tracer.LAYERS)}
    assert {"permgroup.conjugacy_classes", "matgroup.coprime_power_charpoly_count",
            "cyclotomic.galois_apply", "cyclotomic.CyclotomicNumber.__mul__"} <= spans
    for name in sorted(spans):
        layer, *attr = name.split(".")
        if attr[0] == "CyclotomicNumber":
            assert layer == "cyclotomic" and attr[1] in tracer.CYCLOTOMIC_OPERATORS, name
            continue
        fn = getattr(importlib.import_module(f"galorb.{layer}"), attr[0], None)
        assert len(attr) == 1 and not attr[0].startswith("_") and fn is not None, name
        # lru_cache keeps the wrapped function in __wrapped__
        assert inspect.isfunction(inspect.unwrap(fn)), name
        assert fn.__module__ == f"galorb.{layer}", name
    for op in tracer.CYCLOTOMIC_OPERATORS:
        assert op in vars(CyclotomicNumber), op
    calls = _passrun_calls()
    assert ("permgroup", "group_order") in calls and ("cli", "main") in calls
    for layer, attr in calls:
        assert callable(getattr(importlib.import_module(f"galorb.{layer}"), attr, None)), attr
    # the tracer's counter for the screen reads each row's phi
    result = screening.exception_set("POmegaMinus")
    rows, with_phi = tracer.EXTRA["screening.exception_set"]((), {}, result)
    assert rows == len(result.rows) > with_phi > 0


def test_benchmark_entry_points(capsys):
    # the library calls of bench/passrun.py
    spec = permgroup.parse_generators((DATA / "a5.gens").read_text(encoding="utf-8"))
    assert permgroup.group_order(spec, max_order=60) == 60
    cs = permgroup.alternating_class_structure(5)
    assert classtheory.analyze(cs).rank == altcount.frobenius_rank(5) == 1
    assert galorb.cli.main(["an-rank", "5"]) == 0
    capsys.readouterr()
