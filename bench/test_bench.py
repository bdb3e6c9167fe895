"""Tests of the benchmark itself: seeded inputs, oracles and tracer.

    PYTHONPATH=src python3 -m pytest bench -q

Run from the repository root.  The oracle tests run galorb in-process on
the cheapest instance of each item kind, check that the genuine output
passes, then corrupt it and check that it is rejected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

import oracles
import workloads
from run import layer_metrics
from tracer import CYCLOTOMIC_OPERATORS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def write_passes(tmp: Path, name: str, seed: int, passes: int):
    """Files (relative name -> bytes) and plans of the first passes."""
    wl = workloads.Workload(name, seed, ROOT)
    plans = [wl.write_pass(i, tmp / f"p{i}") for i in range(passes)]
    files = {str(p.relative_to(tmp)): p.read_bytes() for p in sorted(tmp.rglob("*"))
             if p.is_file()}
    return files, json.loads(json.dumps(plans).replace(str(tmp), "DIR"))


def cli(argv):
    from galorb.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"code": code, "out": out.getvalue(), "err": "", "exc": None}


def lib(obj):
    return {"code": 0, "out": json.dumps(obj), "err": "", "exc": None}


# -- inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    a = write_passes(tmp_path / "a", name, 7, 3)
    b = write_passes(tmp_path / "b", name, 7, 3)
    assert a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seeds_give_different_inputs(tmp_path, name):
    files1, plans1 = write_passes(tmp_path / "a", name, 1, 3)
    files2, plans2 = write_passes(tmp_path / "b", name, 2, 3)
    assert (files1, plans1) != (files2, plans2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_no_input_repeats_within_a_pass(tmp_path, name):
    _files, plans = write_passes(tmp_path, name, 3, 4)
    for plan in plans:
        keys = [json.dumps([it.get("argv"), it.get("args")]) for it in plan]
        assert len(keys) == len(set(keys))


def test_an_rank_ranges_cover_the_same_degrees_for_every_seed(tmp_path):
    lo, hi = workloads.AN_RANK_RANGE
    for seed in (1, 2, 3):
        _files, plans = write_passes(tmp_path / str(seed), "counting", seed, 1)
        covered = []
        for it in plans[0]:
            if it["check"]["oracle"] == "an_rank":
                covered += range(it["check"]["lo"], it["check"]["hi"] + 1)
        assert sorted(covered) == list(range(lo, hi + 1))


def test_different_seeds_give_the_same_answers(tmp_path):
    seen = {}
    for seed in (1, 2):
        _files, plans = write_passes(tmp_path / str(seed), "perm-groups", seed, 1)
        for it in plans[0]:
            if it["check"].get("key") in ("a8", "s8"):
                argv = [a.replace("DIR", str(tmp_path / str(seed))) for a in it["argv"]]
                res = cli(argv)
                assert oracles.check(it, res, EXPECTED) is None
                seen.setdefault(it["check"]["key"], []).append(
                    oracles.perm_view(json.loads(res["out"])))
        _files, plans = write_passes(tmp_path / f"t{seed}", "char-tables", seed, 1)
        for it in plans[0]:
            if it["id"] in ("analyze-table a5", "analyze-table c15"):
                argv = [a.replace("DIR", str(tmp_path / f"t{seed}")) for a in it["argv"]]
                res = cli(argv)
                assert oracles.check(it, res, EXPECTED) is None
                seen.setdefault(it["id"], []).append(json.loads(res["out"]))
    assert len(seen) == 4
    for key, answers in seen.items():
        assert answers[0] == answers[1], key


# -- oracles ---------------------------------------------------------------------


def _bump(path, delta=1):
    def corrupt(obj):
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        return obj
    return corrupt


def _setter(path, value):
    def corrupt(obj):
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return obj
    return corrupt


def _drop_exception(obj):
    obj["results"][0]["exceptions"].pop()
    return obj


def _genuine(tmp_path):
    """(check spec, genuine result, corruptions) for every oracle."""
    from galorb.classtheory import analyze
    from galorb.altcount import frobenius_rank
    from galorb.permgroup import alternating_class_structure, group_order, parse_generators

    rng = random.Random(0)

    def gens_file(name, degree, gens):
        path = tmp_path / f"{name}.gens"
        path.write_text(workloads.format_gens(degree, gens))
        return str(path)

    psl = gens_file("psl", 30, workloads.relabel(workloads.psl2_gens(29), 30, rng))
    a8 = gens_file("a8", 8, workloads.relabel(workloads.alternating_gens(8), 8, rng))
    s10 = gens_file("s10", 10, workloads.relabel(workloads.symmetric_gens(10), 10, rng))
    a5 = gens_file("a5", 5, workloads.alternating_gens(5))
    c12 = tmp_path / "c12.json"
    c12.write_text(json.dumps(workloads.cyclic_table(12, rng)))
    c12g = gens_file("c12", 12, workloads.cyclic_gens(12))
    a5t = str(ROOT / "src" / "galorb" / "tables" / "a5.json")
    order = group_order(parse_generators(Path(s10).read_text()), max_order=math.factorial(10))
    box = "%d,%d" % workloads.SCREEN_BOXES[0]
    return [
        ({"oracle": "psl2", "q": 29}, cli(["analyze-perm", psl, "--format", "json"]),
         [_bump(["rank"]), _bump(["num_classes"]), _bump(["group_order"]),
          _bump(["family_contributions", 0])]),
        ({"oracle": "perm_pinned", "key": "a8", "order": math.factorial(8) // 2},
         cli(["analyze-perm", a8, "--format", "json"]), [_bump(["rank"]), _bump(["n_R"])]),
        ({"oracle": "order", "orders": [math.factorial(10)]}, lib({"orders": [order]}),
         [_bump(["orders", 0]), _setter(["orders"], [])]),
        ({"oracle": "table_pinned", "key": "a5", "crosscheck": True},
         cli(["analyze-table", a5t, "--gens", a5, "--format", "json"]),
         [_bump(["rank"]), _setter(["crosscheck", "passed"], False)]),
        ({"oracle": "cyclic_table", "m": 12},
         cli(["analyze-table", str(c12), "--gens", c12g, "--format", "json"]),
         [_bump(["rank"]), _bump(["b1"]), _setter(["crosscheck", "passed"], False)]),
        ({"oracle": "an_rank", "lo": 26, "hi": 30},
         cli(["an-rank", "26..30", "--format", "json"]),
         [_bump(["rows", 0, "rank"]), _bump(["rows", 2, "injection", "count"], 100),
          _setter(["rows"], [])]),
        ({"oracle": "screen"}, cli(["screen", "all", "--box", box, "--format", "json"]),
         [_drop_exception, _setter(["certified"], False),
          _setter(["results", 1, "certified"], False)]),
        ({"oracle": "singer", "n": 2, "q": 16},
         cli(["charpoly", "singer", "2", "16", "--format", "json"]),
         [_bump(["distinct_charpolys"]), _bump(["order"]), _bump(["class_bound"])]),
        ({"oracle": "charpoly_file", "key": "gl2_3"},
         cli(["charpoly", "file", str(ROOT / workloads.CHARPOLY_FILE), "--target", "8",
              "--format", "json"]),
         [_bump(["distinct_charpolys"])]),
        ({"oracle": "alt_routes", "n": 31},
         lib({"class_rank": analyze(alternating_class_structure(31)).rank,
              "partition_rank": frobenius_rank(31)}),
         [_bump(["class_rank"]), _bump(["partition_rank"])]),
    ]


def test_every_oracle_accepts_genuine_and_rejects_corrupted_output(tmp_path):
    cases = _genuine(tmp_path)
    assert {c["oracle"] for c, _res, _bad in cases} == set(oracles.ORACLES)
    for check, res, corruptions in cases:
        item = {"id": check["oracle"], "check": check}
        assert oracles.check(item, res, EXPECTED) is None, check
        for corrupt in corruptions:
            bad = dict(res, out=json.dumps(corrupt(json.loads(res["out"]))))
            assert oracles.check(item, bad, EXPECTED) is not None, (check, corrupt)
        for bad in (dict(res, code=2), dict(res, out="not json"),
                    dict(res, exc="Traceback ...\nAssertionError: boom")):
            assert oracles.check(item, bad, EXPECTED) is not None, check


def test_perm_view_ignores_the_order_of_like_classes():
    obj = json.loads(cli(["analyze-perm", str(ROOT / "data" / "a5.gens"),
                          "--format", "json"])["out"])
    swapped = copy.deepcopy(obj)
    swapped["family_labels"] = [list(reversed(f)) for f in swapped["family_labels"]]
    swapped["families"] = [list(reversed(f)) for f in swapped["families"]]
    assert oracles.perm_view(swapped) == oracles.perm_view(obj)


def test_distinct_odd_partition_count():
    # 1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2 for n = 0..10 (OEIS A000700)
    assert [oracles.distinct_odd_partitions(n) for n in range(11)] == [
        1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2]


# -- tracer ----------------------------------------------------------------------


def _bindings():
    import galorb.cyclotomic
    out = {}
    for name, mod in sys.modules.items():
        if name == "galorb" or name.startswith("galorb."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
    for op in CYCLOTOMIC_OPERATORS:
        out[("CyclotomicNumber", op)] = vars(galorb.cyclotomic.CyclotomicNumber)[op]
    return out


def test_tracer_wraps_imported_names_and_restores_everything(tmp_path):
    import galorb.chartab
    import galorb.cli
    import galorb.permgroup
    before = _bindings()
    tracer = Tracer().install()
    try:
        assert galorb.cli.conjugacy_classes is galorb.permgroup.conjugacy_classes
        original = before[("galorb.permgroup", "conjugacy_classes")]
        assert galorb.cli.conjugacy_classes is not original
        assert galorb.chartab.analyze is galorb.cli.analyze
        # S3 is classified nowhere else in these tests, so no class cache hides work
        gens = tmp_path / "s3.gens"
        gens.write_text(workloads.format_gens(3, workloads.symmetric_gens(3)))
        with tracer.item(0):
            cli(["analyze-table", str(ROOT / "src" / "galorb" / "tables" / "s3.json"),
                 "--gens", str(gens), "--format", "json"])
        with tracer.item(1):
            cli(["charpoly", "singer", "3", "4", "--format", "json"])
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed

    export = tracer.export()
    names = {export["names"][s[0]] for s in export["spans"]}
    for want in ("cli.main", "chartab.parse_table", "chartab.brauer_crosscheck",
                 "permgroup.conjugacy_classes", "permgroup.group_order",
                 "classtheory.analyze", "cyclotomic.galois_apply",
                 "matgroup.coprime_power_charpoly_count", "numutil.factorize"):
        assert want in names, want
    assert {n.split(".")[0] for n in names} - {"item"} <= set(LAYERS)

    roots = [s for s in export["spans"] if s[3] < 0]
    assert [s[4] for s in roots] == [0, 1]
    total = sum(s[2] - s[1] for s in roots)
    m = layer_metrics(export, total)
    assert m["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)
    assert m["chartab.cells"] == 9
    assert m["permgroup.elements"] == 6
    assert m["matgroup.charpolys"] == oracles.totient(63)
    assert m["cyclotomic.ops"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(m) | {"trace.overhead_frac"} == {x["name"] for x in spec["per_layer"]}
