"""Every exported name resolves, so a deletion that leaves an __all__
entry behind fails here; the library surface the benchmark harness
reads (bench/tracer.py, bench/run.py, bench/passrun.py) still exists;
input numerals and JSON are read in one module; output is rendered
in cli.main alone; and every private helper in src has a reader in src."""

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
SRC = BENCH.parent / "src" / "galorb"


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


def test_input_is_read_in_errors_alone():
    # what an input numeral or JSON object means is decided in one place:
    # errors.read_integer, read_rational and read_json_object
    calls = ("json.loads", ".isdigit(", ".isascii(")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found = [call for call in calls if call in text]
        assert found == (list(calls) if path.name == "errors.py" else []), path.name


def _enclosing_defs(tree: ast.Module) -> dict:
    """Each node of tree mapped to the name of the innermost def around
    it, '' at module level."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else name
            owner[child] = inner
            visit(child, inner)

    visit(tree, "")
    return owner


def test_output_is_rendered_in_main_alone():
    # one output path: handlers return (obj, lines, code), cli.main alone
    # picks the format and cli._json alone serialises
    watched = {("args", "format"), ("json", "dumps")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node, name in _enclosing_defs(ast.parse(path.read_text(encoding="utf-8"))).items():
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in watched):
                found.append((path.stem, name, f"{node.value.id}.{node.attr}"))
    assert sorted(found) == [("cli", "_json", "json.dumps"), ("cli", "main", "args.format")]


def _private_definitions(tree: ast.Module) -> set:
    """The _names a module defines by def or class, anywhere, or by an
    assignment at module level; dunders aside."""
    names = {node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _names_read(tree: ast.Module) -> set:
    """Every name a module reads: loaded names, attributes and imported names."""
    nodes = list(ast.walk(tree))
    return ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})


def test_every_private_helper_has_a_reader_in_src():
    # a helper only the tests read belongs in the tests, like the former
    # searches and reference fields they keep as oracles
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_names_read, trees.values()))
    unread = {name: sorted(_private_definitions(tree) - read) for name, tree in trees.items()}
    assert not any(unread.values()), unread
