"""Every exported name resolves, so a deletion that leaves an __all__
entry behind fails here; and the library surface the benchmark harness
reads (bench/tracer.py, bench/passrun.py) still exists."""

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


def test_benchmark_entry_points(capsys):
    tracer = _load_tracer()
    for op in tracer.CYCLOTOMIC_OPERATORS:
        assert op in vars(CyclotomicNumber), op
    for name in tracer.EXTRA:
        layer, attr = name.split(".")
        fn = getattr(importlib.import_module(f"galorb.{layer}"), attr)
        # lru_cache keeps the wrapped function in __wrapped__
        assert inspect.isfunction(inspect.unwrap(fn)), name
        assert fn.__module__ == f"galorb.{layer}", name
    # the library calls of bench/passrun.py
    spec = permgroup.parse_generators((DATA / "a5.gens").read_text(encoding="utf-8"))
    assert permgroup.group_order(spec, max_order=60) == 60
    cs = permgroup.alternating_class_structure(5)
    assert classtheory.analyze(cs).rank == altcount.frobenius_rank(5) == 1
    assert galorb.cli.main(["an-rank", "5"]) == 0
    capsys.readouterr()
    # the tracer's counter for the screen reads each row's phi
    result = screening.exception_set("POmegaMinus")
    rows, with_phi = tracer.EXTRA["screening.exception_set"]((), {}, result)
    assert rows == len(result.rows) > with_phi > 0
