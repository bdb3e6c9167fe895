import hashlib
import inspect
import json
import math
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galorb.permgroup
from galorb import altcount, cli, screening
from galorb.chartab import CharacterTable, fixture_names, fixture_table, parse_table
from galorb.cli import build_parser, main
from galorb.errors import InputError
from galorb.matgroup import (
    MAX_ELEMENT_ORDER, _exact_order, coprime_power_charpoly_count, element_order,
    parse_matrix_group_file, projective_line_action, random_element_search, singer_element,
)
from galorb.permgroup import (
    alternating_group_spec, cyclic_group_spec, symmetric_group_spec,
)
from helpers import format_generators, serialize_table

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
TABLES = ROOT / "src" / "galorb" / "tables"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_perm_text(capsys):
    code, out, _ = run(capsys, "analyze-perm", str(DATA / "a5.gens"))
    assert code == 0
    assert "central rank     1" in out
    assert "longest family   2" in out
    assert "{5A, 5B}" in out


def test_analyze_perm_json(capsys):
    code, out, _ = run(capsys, "analyze-perm", str(DATA / "c5.gens"),
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == 1 and obj["f"] == 4
    assert obj["family_labels"][-1] == ["5A", "5B", "5C", "5D"]


def test_analyze_table_with_crosscheck(capsys):
    code, out, _ = run(capsys, "analyze-table", str(TABLES / "a5.json"),
                       "--gens", str(DATA / "a5.gens"))
    assert code == 0
    assert "cross-check      PASS" in out


def swapped_c5(directory: pathlib.Path) -> pathlib.Path:
    """C5's table with columns 1 and 2 swapped, written into directory:
    its cross-check against C5's classes fails."""
    perm = (0, 2, 1, 3, 4)
    obj = json.loads(serialize_table(fixture_table("c5")))
    obj["irr"] = [[row[p] for p in perm] for row in obj["irr"]]
    obj["class_sizes"] = [obj["class_sizes"][p] for p in perm]
    obj["class_orders"] = [obj["class_orders"][p] for p in perm]
    bad = directory / "bad_c5.json"
    bad.write_text(json.dumps(obj))
    return bad


def test_analyze_table_crosscheck_failure_exits_2(capsys, tmp_path):
    code, out, _ = run(capsys, "analyze-table", str(swapped_c5(tmp_path)),
                       "--gens", str(DATA / "c5.gens"))
    assert code == 2
    assert "FAIL" in out and "MISMATCH" in out


def test_analyze_table_refuses_a_huge_root_order_at_once(capsys, tmp_path):
    obj = json.loads(serialize_table(fixture_table("c5")))
    obj["irr"][1][1] = {"n": 10 ** 10, "coeffs": {"1": "1"}}
    bad = tmp_path / "huge_n.json"
    bad.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze-table", str(bad))
    assert time.perf_counter() - start < 1.0
    assert code == 4 and out == ""
    assert "row 1, column 1" in err
    assert "n <= 1024" in err and f"n = {10 ** 10}" in err


def test_analyze_table_refuses_a_float_coefficient(capsys, tmp_path):
    obj = json.loads(serialize_table(fixture_table("c5")))
    obj["irr"][1][1] = {"n": 5, "coeffs": {"1": 0.1}}
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps(obj))
    code, out, err = run(capsys, "analyze-table", str(bad))
    assert code == 2 and out == ""
    assert "row 1, column 1" in err
    assert "coefficients must be integers or rational strings" in err


def _roots_table_obj(p, q):
    z = {"n": p, "coeffs": {"1": "1"}}, {"n": q, "coeffs": {"1": "1"}}
    return {"name": f"z{p}_{q}", "order": 3, "class_sizes": [1, 1, 1],
            "irr": [[1, 1, 1], [1, z[0], 1], [1, 1, z[1]]]}


@pytest.mark.parametrize("p, q, want", [(1019, 1021, 4), (101, 103, 2)])
def test_analyze_table_orthogonality_lift_limit(
        capsys, tmp_path, p, q, want):
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(_roots_table_obj(p, q)))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze-table", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == want and out == ""
    assert f"table 'z{p}_{q}'" in err


@pytest.mark.parametrize("order", [10 ** 6, 10 ** 10])
def test_analyze_table_refuses_a_class_order_not_dividing_the_order(capsys, tmp_path, order):
    obj = json.loads(serialize_table(fixture_table("c2")))
    obj["class_orders"] = [1, order]
    bad = tmp_path / "bad_order.json"
    bad.write_text(json.dumps(obj))
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze-table", str(bad))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"class order {order} of column 1 does not divide the group order 2" in err


def test_an_rank_range(capsys):
    code, out, _ = run(capsys, "an-rank", "5..13")
    assert code == 0
    ranks = [int(line.split()[1]) for line in out.splitlines()[1:]]
    assert ranks == [1, 1, 0, 0, 0, 1, 1, 0, 1]


def test_an_rank_single_with_injection(capsys):
    code, out, _ = run(capsys, "an-rank", "26", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["rank"] == 5
    assert row["injection"]["count"] == 1
    assert (row["injection"]["p"], row["injection"]["k"]) == (17, 2)


def test_an_rank_bad_inputs(capsys):
    code, _, err = run(capsys, "an-rank", "7..5")
    assert code == 2 and "range" in err
    code, _, err = run(capsys, "an-rank", "x")
    assert code == 2
    code, _, err = run(capsys, "an-rank", "500")
    assert code == 4


def test_an_rank_at_the_limit(capsys):
    code, out, _ = run(capsys, "an-rank", "400..400")
    assert code == 0
    assert out.splitlines()[1].split()[:2] == ["400", "172468858"]


def test_an_rank_past_the_limit_exits_4(capsys):
    code, out, err = run(capsys, "an-rank", "401")
    assert code == 4 and out == ""
    assert "n <= 400" in err and "n = 401" in err


@pytest.mark.parametrize("rng,hi", [
    ("300..401", "401"), ("300..1000", "1000"), ("2..1000000000000", "1000000000000"),
])
def test_an_rank_range_past_the_limit_is_refused_before_any_count(capsys, rng, hi):
    t0 = time.monotonic()
    code, out, err = run(capsys, "an-rank", rng)
    assert time.monotonic() - t0 < 1.0
    assert code == 4 and out == ""
    assert f"n <= 400; n = {hi} requested" in err


def test_an_rank_range_runs_one_programme_at_its_end(capsys, monkeypatch):
    calls = []
    counts = altcount._nonsquare_counts

    def spy(n):
        calls.append(n)
        return counts(n)

    monkeypatch.setattr(altcount, "_nonsquare_counts", spy)
    code, out, _ = run(capsys, "an-rank", "26..114")
    assert code == 0 and len(out.splitlines()) == 1 + 89
    assert calls == [114]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    builds = []

    def spy():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", spy)
    cli._parser.cache_clear()
    try:
        for argv in (("an-rank", "30"), ("charpoly", "bound", "10", "2"),
                     ("an-rank", "26..28", "--format", "json"), ("an-rank", "x")):
            run(capsys, *argv)
        assert build_parser() is not build_parser()
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_an_rank_full_range_is_pinned(capsys):
    code, out, _ = run(capsys, "an-rank", "2..400", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fd34193a2854b9646e3e5b45e98bb3365511068acda0579aba9593abf3735d97")


def test_screen_family(capsys):
    code, out, _ = run(capsys, "screen", "POmegaMinus", "--format", "json")
    assert code == 0
    res = json.loads(out)["results"][0]
    assert res["certified"]
    assert [(e["n"], e["q"]) for e in res["exceptions"]] == [(8, 2), (10, 2), (12, 2)]


def test_screen_uncertified_exits_3(capsys):
    code, out, _ = run(capsys, "screen", "PSL", "--box", "2,8")
    assert code == 3
    assert "NOT certified" in out


class Scanned(Exception):
    """Raised in place of the prime-power sieve: the box passed its guard."""


SCREEN_BOXES = [
    ("5000,64", "n_max^2 x q_max <= 10^8, got 5000^2 x 64 = 1600000000"),
    ("40,1000000", "q_max <= 8192, got 1000000"),
    ("1251,64", "n_max^2 x q_max <= 10^8, got 1251^2 x 64 = 100160064"),
    ("110,8193", "q_max <= 8192, got 8193"),
    # admitted: these reach the sieve
    ("1250,64", None),
    ("110,8192", None),
    ("400,64", None),
    ("80,128", None),
]


@pytest.mark.parametrize("box, message", SCREEN_BOXES, ids=[box for box, _ in SCREEN_BOXES])
def test_screen_box_past_its_work_limit_is_refused_before_any_scan(
        capsys, monkeypatch, box, message):
    # 5000,64 took 17 s and 40,1000000 ran past 90 s before the guard
    def sieve(q_max):
        raise Scanned

    monkeypatch.setattr(screening, "prime_powers_upto", sieve)
    start = time.perf_counter()
    if message is None:
        with pytest.raises(Scanned):
            main(["screen", "all", "--box", box])
        return
    code, out, err = run(capsys, "screen", "all", "--box", box)
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert f"resource limit: screen box is limited to {message}" in err
    assert "--" not in err


@pytest.mark.parametrize("box, family", [("3,8", "PSp"), ("7,64", "POmegaMinus")])
def test_screen_all_refuses_a_box_too_small_before_any_scan(
        capsys, monkeypatch, box, family):
    # every family's box is checked before the first note or scan, so the
    # families ahead of the one the box misses are not scanned
    def sieve(q_max):
        raise Scanned

    monkeypatch.setattr(screening, "prime_powers_upto", sieve)
    code, out, err = run(capsys, "screen", "all", "--box", box)
    n_max, q_max = box.split(",")
    assert code == 2 and out == ""
    assert err == f"error: box too small for family {family}: n_max {n_max}, q_max {q_max}\n"


def test_screen_unknown_family(capsys):
    code, _, err = run(capsys, "screen", "Foo")
    assert code == 2 and "unknown family" in err


def test_charpoly_singer(capsys):
    code, out, _ = run(capsys, "charpoly", "singer", "4", "2")
    assert code == 0
    assert "element order    15" in out
    assert "charpoly count   2" in out


def test_charpoly_file_found_and_not_found(capsys):
    code, out, _ = run(capsys, "charpoly", "file", str(DATA / "gl2_3.json"),
                       "--target", "8")
    assert code == 0 and "element order    8" in out
    code, _, err = run(capsys, "charpoly", "file", str(DATA / "gl2_3.json"),
                       "--target", "7")
    assert code == 3 and "no element of order 7" in err


@pytest.mark.parametrize("fields, field", [({"p": 2, "k": 100000}, "got 2^100000"),
                                           ({"p": 3, "k": 1, "defining_poly": 5}, "GF(3)")])
def test_charpoly_file_malformed_field_exits_2(capsys, tmp_path, fields, field):
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps({"dim": 1, "generators": [[[1]]], **fields}))
    code, out, err = run(capsys, "charpoly", "file", str(path), "--target", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("argv", [
    ("an-rank", "1_0"), ("an-rank", "\u0665"), ("an-rank", "5.. 6"),
    ("screen", "PSL", "--box", "4_0,6_4"), ("screen", "PSL", "--box", "40,\u0666\u0664"),
    ("charpoly", "singer", "\u0662", "1_1"), ("charpoly", "singer", "2", "11", "--center", "1_0"),
    ("charpoly", "singer", "2", "11", "--max-order", "\uff18"),
    ("charpoly", "file", str(DATA / "gl2_3.json"), "--target", "\u0668"),
    ("charpoly", "file", str(DATA / "gl2_3.json"), "--target", "8", "--seed", "1_0"),
    ("charpoly", "bound", "1_6", "3"), ("charpoly", "bound", "16", "\u0663"),
    ("an-rank", "1" * 5000), ("an-rank", "5.." + "1" * 5000),
    ("charpoly", "bound", "1" * 5000, "3"), ("screen", "PSL", "--box", "40," + "1" * 5000),
], ids=["an_rank_separator", "an_rank_arabic_digit", "an_rank_padded",
        "box_separators", "box_arabic_digits", "singer_n_arabic_q_separator",
        "singer_center_separator", "singer_max_order_fullwidth", "file_target_arabic",
        "file_seed_separator", "bound_count_separator", "bound_center_arabic",
        "an_rank_over_long", "an_rank_range_over_long", "bound_count_over_long",
        "box_over_long"])
def test_integer_arguments_take_ascii_numerals_only(capsys, argv):
    # int reads all of these, as 10, 5, 40,64, GF(11)^2 and so on; the CLI does not
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert (code, capsys.readouterr().out) == (2, "")


def test_integer_arguments_keep_their_sign(capsys):
    for seed in ("-3", "+3"):
        code, out, _ = run(capsys, "charpoly", "file", str(DATA / "gl2_3.json"),
                           "--target", "8", "--seed", seed)
        assert code == 0 and "element order    8" in out, seed


def test_charpoly_file_requires_target(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charpoly", "file", str(DATA / "gl2_3.json")])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--target" in out.err


@pytest.mark.parametrize("argv, message", [
    (("file", str(DATA / "gl2_3.json"), "--target", "0"), "--target must be at least 1, got 0"),
    (("file", str(DATA / "gl2_3.json"), "--target", "-4"), "--target must be at least 1, got -4"),
    (("file", str(DATA / "gl2_3.json"), "--target", "8", "--center", "0"),
     "--center must be at least 1, got 0"),
    (("singer", "6", "4", "--center", "0"), "--center must be at least 1, got 0"),
    (("bound", "0", "3"), "count must be at least 1, got 0"),
    (("bound", "5", "0"), "center must be at least 1, got 0"),
    # no element has an order below 1
    (("singer", "2", "3", "--max-order", "0"), "--max-order must be at least 1, got 0"),
    (("singer", "2", "3", "--max-order", "-5"), "--max-order must be at least 1, got -5"),
    (("file", str(DATA / "gl2_3.json"), "--target", "8", "--max-order", "0"),
     "--max-order must be at least 1, got 0"),
], ids=["target_0", "target_negative", "file_center_0", "singer_center_0",
        "bound_count_0", "bound_center_0", "singer_max_order_0", "singer_max_order_negative",
        "file_max_order_0"])
def test_charpoly_refuses_target_and_center_below_one_first(capsys, monkeypatch, argv, message):
    # no search, order or count can make these valid, so none is started
    def unreached(*args, **kwargs):
        pytest.fail("work started before the option check")

    for name in ("parse_matrix_group_file", "random_element_search", "singer_element",
                 "element_order", "coprime_power_charpoly_count", "class_lower_bound"):
        monkeypatch.setattr(cli, name, unreached)
    code, out, err = run(capsys, "charpoly", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_charpoly_bound(capsys):
    code, out, _ = run(capsys, "charpoly", "bound", "16", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["class_bound"] == 5 and obj["at_least_five"]


def test_charpoly_options_follow_the_action(capsys):
    code, out, _ = run(capsys, "charpoly", "singer", "4", "2", "--format", "json")
    assert code == 0 and json.loads(out)["order"] == 15
    code, out, err = run(capsys, "charpoly", "singer", "4", "2", "--max-order", "5")
    assert code == 4 and out == ""
    assert "order 15 exceeds the bound 5; raise it with --max-order" in err
    # declared on the actions only: before the action they are a usage error
    for flag in (("--format", "json"), ("--max-order", "5")):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", *flag, "singer", "4", "2"])
        assert exc.value.code == 2, flag


def test_charpoly_report_computes_the_order_once(capsys):
    # the report and the count both ask for the order; the second is a hit
    _exact_order.cache_clear()
    code, _, _ = run(capsys, "charpoly", "singer", "4", "2")
    assert code == 0
    info = _exact_order.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_charpoly_has_one_order_bound(capsys):
    code, out, err = run(capsys, "charpoly", "singer", "2", "512")
    assert code == 4 and out == ""
    assert "order 262143 exceeds the bound 100000; raise it with --max-order" in err
    code, out, err = run(capsys, "charpoly", "file", str(DATA / "gl2_3.json"),
                         "--target", "8", "--max-order", "7")
    assert code == 4 and out == ""
    assert "target order 8 exceeds the bound 7; raise it with --max-order" in err


def test_charpoly_singer_refuses_its_order_before_the_search(capsys):
    # GL(12, 256)'s Singer element has order 256^12 - 1; the search for
    # its polynomial ran past 600 s before the order was checked
    start = time.perf_counter()
    code, out, err = run(capsys, "charpoly", "singer", "12", "256")
    assert time.perf_counter() - start < 1
    assert code == 4 and out == ""
    assert f"order {256 ** 12 - 1} exceeds the bound 100000; raise it with --max-order" in err
    # the input checks on n and q still come first
    for argv, message in ((("13", "2"), "error: dimension must be in 1..12, got 13"),
                          (("2", "6"), "error: 6 is not a prime power")):
        code, out, err = run(capsys, "charpoly", "singer", *argv)
        assert code == 2 and out == "" and message in err, argv


def test_element_order_bounds_have_one_default():
    for fn, name in ((element_order, "bound"), (random_element_search, "bound"),
                     (singer_element, "bound"),
                     (coprime_power_charpoly_count, "max_order")):
        assert inspect.signature(fn).parameters[name].default == MAX_ELEMENT_ORDER, fn
    parser = build_parser()
    for argv in (["charpoly", "singer", "4", "2"],
                 ["charpoly", "file", "g.json", "--target", "8"]):
        assert parser.parse_args(argv).max_order == MAX_ELEMENT_ORDER, argv


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze-perm", str(DATA / "nope.gens"))
    assert code == 2 and "cannot read" in err


def _c2_table_with(cell):
    obj = json.loads(serialize_table(fixture_table("c2")))
    obj["irr"][1][1] = cell
    return json.dumps(obj)


def _c2_table_named(name):
    return json.dumps({**json.loads(serialize_table(fixture_table("c2"))), "name": name})


def _c2_table_raw(key, raw):
    """The c2 table with the raw JSON text raw as the value of key."""
    return json.dumps({**json.loads(serialize_table(fixture_table("c2"))), key: "@"}).replace(
        '"@"', raw)


def _c3_table_cell(coeffs):
    """The c3 table with the raw JSON text coeffs as its first cell's exponents."""
    return (TABLES / "c3.json").read_text().replace('{"1": "1"}', coeffs, 1)


LONG = "1" * 5000  # past Python's 4300-digit bound on int(str)
GL2_2 = {"p": 2, "k": 1, "dim": 2, "generators": [[[1, 1], [0, 1]]]}
GF3 = {"p": 3, "k": 1, "dim": 1, "generators": [[[1]]]}
MALFORMED_INPUTS = [
    ("analyze-perm", "degree \u00b2\n()\n"),
    ("analyze-perm", "degree 3\n(1,\u00b2)\n"),
    ("analyze-perm", "degree 3\n(1,2\n"),
    ("analyze-table", "{"),
    ("analyze-table", _c2_table_with(-1.0)),
    ("analyze-table", _c2_table_with("-1_0")),
    *(("analyze-table", _c2_table_named(name)) for name in (None, True, 3, [1, 2])),
    ("charpoly", json.dumps({k: v for k, v in GL2_2.items() if k != "dim"})),
    ("charpoly", json.dumps({**GL2_2, "generators": [[[1, 1.0], [0, 1]]]})),
    ("analyze-perm", f"degree {LONG}\n()\n"),
    ("analyze-perm", f"degree 3\n(1,{LONG})\n"),
    ("analyze-table", _c2_table_raw("order", LONG)),
    ("charpoly", json.dumps({**GL2_2, "p": "@"}).replace('"@"', LONG)),
    ("analyze-table", "[" * 100000),
    ("charpoly", json.dumps({**GL2_2, "p": 3})[:-1] + ', "p": 5}'),
    ("analyze-table", _c2_table_raw("name", '"c2", "name": "c2b"')),
    ("analyze-table", _c3_table_cell('{"1": "5", "1": "1"}')),
    ("analyze-table", _c3_table_cell('{"1": "1", "01": "1"}')),
    ("analyze-table", _c3_table_cell('{"1": "1", "+1": "1"}')),
    ("charpoly", json.dumps({**GF3, "defining_poly": [True, 1]})),
    ("charpoly", json.dumps({**GF3, "defining_poly": [1.0, 1]})),
]


@pytest.mark.parametrize("command, text", MALFORMED_INPUTS, ids=[
    "gens_header_superscript", "gens_point_superscript", "gens_unclosed_cycle",
    "table_bad_json", "table_float_cell", "table_separator_cell",
    "table_null_name", "table_true_name", "table_number_name", "table_list_name",
    "matrix_missing_field", "matrix_float_entry",
    "gens_degree_over_long", "gens_point_over_long", "table_order_over_long",
    "matrix_p_over_long", "table_nested_past_recursion", "matrix_repeated_p",
    "table_repeated_name", "table_repeated_exponent", "table_exponent_zero_padded",
    "table_exponent_signed", "matrix_poly_true", "matrix_poly_float"])
def test_malformed_input_file_exits_2_with_one_error_line(capsys, tmp_path, command, text):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path)]
    if command == "charpoly":
        argv = [command, "file", str(path), "--target", "2"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    # a generator file's refusal names its line, over-long numerals too
    assert command != "analyze-perm" or err.startswith("error: line "), err


def _objects(node):
    """Every JSON object in node, outermost first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        yield from _objects(child)


def _dump_repeating(node, target, key, at):
    """node as JSON text, with key of the object target written again at
    position at."""
    if isinstance(node, list):
        return "[" + ", ".join(_dump_repeating(v, target, key, at) for v in node) + "]"
    if not isinstance(node, dict):
        return json.dumps(node)
    items = list(node.items())
    if node is target:
        items.insert(at, (key, node[key]))
    return "{" + ", ".join(
        f"{json.dumps(k)}: {_dump_repeating(v, target, key, at)}" for k, v in items) + "}"


INPUT_FILES = [(parse_table, (TABLES / f"{name}.json").read_text()) for name in fixture_names()]
INPUT_FILES.append((parse_matrix_group_file, (DATA / "gl2_3.json").read_text()))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INPUT_FILES), st.data())
def test_a_key_repeated_in_any_object_is_refused(file, data):
    # json.loads keeps the last of two equal keys; the readers refuse both,
    # even when the two values agree
    parse, text = file
    parse(text)
    tree = json.loads(text)
    target = data.draw(st.sampled_from([obj for obj in _objects(tree) if obj]))
    key = data.draw(st.sampled_from(sorted(target)))
    at = data.draw(st.integers(0, len(target)))
    with pytest.raises(InputError) as exc:
        parse(_dump_repeating(tree, target, key, at))
    assert str(exc.value) == f"repeated key {key!r}"


def test_class_guard_refuses_s11_before_enumeration(capsys, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("elements enumerated past the guard")

    monkeypatch.setattr(galorb.permgroup._Chain, "elements", never)
    for n in (11, 12):
        gens = tmp_path / f"s{n}.gens"
        gens.write_text(format_generators(symmetric_group_spec(n)))
        code, out, err = run(capsys, "analyze-perm", str(gens))
        assert code == 4 and "resource" in err and out == ""
        # the refusal names the element-point limit, the degree, and the
        # order reached against the chain's limit 10^8 // n; the chain
        # stopped before it had found all of S_n
        assert "10^8 element-points" in err and f"on {n} points" in err
        reached = re.search(rf"group order is at least (\d+), above the limit {10**8 // n}$",
                            err.strip())
        assert reached and 10**8 // n < int(reached.group(1)) < math.factorial(n)
        # no option raises this limit (S12 was once told to raise --max-order)
        assert "--" not in err


def argv_in(directory: pathlib.Path, argv) -> list[str]:
    """argv as strings, each input writer in it (such as swapped_c5)
    replaced by the file it writes into directory."""
    return [str(a(directory) if callable(a) else a) for a in argv]


JSON_EXAMPLES = [
    (("analyze-perm", DATA / "a5.gens"), "analyze-perm_a5.json", 0),
    (("analyze-table", TABLES / "a5.json", "--gens", DATA / "a5.gens"),
     "analyze-table_a5.json", 0),
    (("an-rank", "26..40"), "an-rank_26-40.json", 0),
    (("screen", "all"), "screen_all.json", 0),
    # thresholds up to 1280, past the 1024 table boundary
    (("screen", "all", "--box", "80,128"), "screen_all_80-128.json", 0),
    (("charpoly", "singer", "4", "2"), "charpoly_singer_4_2.json", 0),
    (("charpoly", "file", DATA / "gl2_3.json", "--target", "8"),
     "charpoly_file_gl2_3.json", 0),
    # odd p with k >= 2, beyond the README
    (("charpoly", "singer", "3", "9"), "charpoly_singer_3_9.json", 0),
    (("charpoly", "singer", "2", "27"), "charpoly_singer_2_27.json", 0),
    # the benchmark's heavy Singer items
    (("charpoly", "singer", "6", "4"), "charpoly_singer_6_4.json", 0),
    (("charpoly", "singer", "4", "9"), "charpoly_singer_4_9.json", 0),
    (("charpoly", "singer", "3", "16"), "charpoly_singer_3_16.json", 0),
    (("charpoly", "bound", "16", "3"), "charpoly_bound_16_3.json", 0),
    (("analyze-table", swapped_c5, "--gens", DATA / "c5.gens"),
     "analyze-table_crosscheck_fail.json", 2),
]


@pytest.mark.parametrize("argv, golden, want", JSON_EXAMPLES, ids=[
        "analyze-perm", "analyze-table", "an-rank", "screen", "screen-80-128",
        "charpoly-singer", "charpoly-file", "charpoly-singer-3-9", "charpoly-singer-2-27",
        "charpoly-singer-6-4", "charpoly-singer-4-9", "charpoly-singer-3-16",
        "charpoly-bound", "analyze-table-crosscheck-fail"])
def test_readme_examples_json_bytes(capsys, tmp_path, argv, golden, want):
    code, out, _ = run(capsys, *argv_in(tmp_path, argv), "--format", "json")
    assert code == want
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, golden, want", [
    (("screen", "all"), "screen_all.txt", 0),
    (("screen", "PSL", "--box", "2,8"), "screen_psl_2-8.txt", 3),
    (("screen", "PSL", "--box", "2,8", "--format", "json"), "screen_psl_2-8.json", 3),
], ids=["screen", "screen-psl-2-8", "screen-psl-2-8-json"])
def test_screen_text_bytes(capsys, argv, golden, want):
    code, out, _ = run(capsys, *argv)
    assert code == want
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


def readme_examples() -> list[list[str]]:
    """The arguments of each `galorb ...` line of the README's command
    block, with paths relative to the repository root."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("galorb ")]


def test_readme_command_block_has_json_goldens():
    # each `galorb ...` line of the README's command block is a case of
    # test_readme_examples_json_bytes, so no example goes without a golden
    examples = readme_examples()
    cases = [[str(a.relative_to(ROOT)) if isinstance(a, pathlib.Path) else a for a in argv]
             for argv, _, _ in JSON_EXAMPLES]
    assert examples
    for example in examples:
        assert example in cases, " ".join(example)


@pytest.mark.parametrize("argv, golden, want", [
    (("analyze-perm", DATA / "a5.gens"), "analyze-perm_a5.txt", 0),
    (("analyze-table", TABLES / "a5.json", "--gens", DATA / "a5.gens"),
     "analyze-table_a5.txt", 0),
    (("an-rank", "26..40"), "an-rank_26-40.txt", 0),
    (("charpoly", "singer", "4", "2"), "charpoly_singer_4_2.txt", 0),
    (("charpoly", "file", DATA / "gl2_3.json", "--target", "8"),
     "charpoly_file_gl2_3.txt", 0),
    (("charpoly", "bound", "16", "3"), "charpoly_bound_16_3.txt", 0),
    (("analyze-table", TABLES / "q8.json"), "analyze-table_q8.txt", 0),
    (("analyze-table", swapped_c5, "--gens", DATA / "c5.gens"),
     "analyze-table_crosscheck_fail.txt", 2),
], ids=["analyze-perm", "analyze-table", "an-rank", "charpoly-singer", "charpoly-file",
        "charpoly-bound", "analyze-table-q8", "analyze-table-crosscheck-fail"])
def test_readme_examples_text_bytes(capsys, tmp_path, argv, golden, want):
    code, out, _ = run(capsys, *argv_in(tmp_path, argv), "--format", "text")
    assert code == want
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


# Generators the acceptance gate pairs with a fixture, columns aligned.
GATE_SPECS = {
    "c3": cyclic_group_spec(3),
    "c5": cyclic_group_spec(5),
    "s3": symmetric_group_spec(3),
    "a4": alternating_group_spec(4),
    "a5": alternating_group_spec(5),
    "psl2_7": projective_line_action(7),
}


def cyclic_table_obj(m: int) -> dict:
    """Table of C_m, columns in the class order of the m-cycle (element
    order, then exponent) and rows in a fixed shuffle."""
    ks = sorted(range(m), key=lambda k: (m // math.gcd(m, k), k))
    rows = [[1 if j * k % m == 0 else {"n": m, "coeffs": {str(j * k % m): "1"}}
             for k in ks] for j in range(m)]
    random.Random(m).shuffle(rows)
    return {"name": f"c{m}", "order": m, "class_sizes": [1] * m,
            "class_orders": [m // math.gcd(m, k) for k in ks], "irr": rows}


def _table_argv(tmp_path, name):
    if name in fixture_names():
        argv = ["analyze-table", str(TABLES / f"{name}.json")]
        spec = GATE_SPECS.get(name)
    else:
        m = int(name[1:])
        table = tmp_path / f"{name}.json"
        table.write_text(json.dumps(cyclic_table_obj(m)))
        argv = ["analyze-table", str(table)]
        spec = cyclic_group_spec(m)
    if spec is not None:
        gens = tmp_path / f"{name}.gens"
        gens.write_text(format_generators(spec))
        argv += ["--gens", str(gens)]
    return argv + ["--format", "json"]


@pytest.mark.parametrize("name", [
    "a4", "a5", "c2", "c3", "c4", "c5", "psl2_7", "q8", "s3", "c12", "c15", "c16", "c20"])
def test_analyze_table_json_bytes(capsys, tmp_path, name):
    code, out, err = run(capsys, *_table_argv(tmp_path, name))
    assert code == 0, err
    assert out == (GOLDEN / f"analyze-table_{name}.json").read_text(encoding="utf-8")


def test_analyze_table_builds_each_quantity_once(capsys, monkeypatch):
    import galorb.classtheory
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for name in ("_row_maps", "_column_maps"):
        prop = vars(CharacterTable)[name]
        monkeypatch.setattr(prop, "func", counting(name, prop.func))
    monkeypatch.setattr(galorb.classtheory, "q_classes",
                        counting("q_classes", galorb.classtheory.q_classes))
    families = counting("column_families", galorb.chartab.column_families)
    for module in (galorb.chartab, cli):
        monkeypatch.setattr(module, "column_families", families)
    code, out, _ = run(capsys, "analyze-table", str(TABLES / "a5.json"),
                       "--gens", str(DATA / "a5.gens"), "--format", "json")
    assert code == 0 and json.loads(out)["crosscheck"]["passed"]
    assert sorted(calls) == ["_column_maps", "_row_maps", "column_families", "q_classes"]


def test_analyze_table_refuses_rows_the_galois_action_does_not_permute(capsys, tmp_path):
    # the A5 x C5 table (rows in (a5 row, c5 row) order) with its rows
    # r = chi_5 x lambda and s = chi_5 x conj(lambda) replaced by
    # (3/5)r + (4/5)s and (4/5)r - (3/5)s: exactly orthogonal, degrees 7
    # and 1, columns permuted, but k = 2 sends row 21 to no row
    a, c = fixture_table("a5"), fixture_table("c5")
    irr = [tuple(x * y for x in ra for y in rc) for ra in a.irr for rc in c.irr]
    r, s = irr[21], irr[24]
    irr[21] = tuple(Fraction(3, 5) * x + Fraction(4, 5) * y for x, y in zip(r, s))
    irr[24] = tuple(Fraction(4, 5) * x - Fraction(3, 5) * y for x, y in zip(r, s))
    mix = CharacterTable(
        "mix", 300, tuple(x * y for x in a.class_sizes for y in c.class_sizes),
        tuple(math.lcm(x, y) for x in a.class_orders for y in c.class_orders), tuple(irr))
    path = tmp_path / "mix.json"
    path.write_text(serialize_table(mix))
    code, out, err = run(capsys, "analyze-table", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: table 'mix': image of row 21 under the Galois map k = 2 matches no row\n")


def _help_usage(capsys, *command):
    """The usage block that galorb COMMAND --help prints, one line."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split("\n\n", 1)[0].split())


def _flags(text):
    return set(re.findall(r"--[a-z][a-z-]*", text))


def test_readme_option_list_matches_the_help(capsys):
    # each "- `cmd`: ..." bullet of the README's option list names the
    # flags that galorb cmd --help prints, beyond --help, --format, --out
    readme = (ROOT / "README.md").read_text()
    start = readme.index("Every subcommand takes `--format {text,json}` and `--out FILE`.")
    block = readme[start:].split("\n\n", 2)[1]
    bullets = dict(re.findall(r"^- `([a-z -]+)`:(.*(?:\n  .*)*)", block, re.M))
    commands = re.search(r"\{(.*?)\}", _help_usage(capsys)).group(1).split(",")
    actions = re.search(r"\{(.*?)\}", _help_usage(capsys, "charpoly")).group(1).split(",")
    leaves = [c for c in commands if c != "charpoly"] + [f"charpoly {a}" for a in actions]
    assert sorted(bullets) == sorted(leaves)
    for command, text in bullets.items():
        printed = _flags(_help_usage(capsys, *command.split())) - {"--help", "--format", "--out"}
        assert _flags(text) == printed, command


def test_out_flag_writes_file(capsys, tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze-table", str(TABLES / "q8.json"),
                       "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["cut_by_fields"] is True
    # every README example and an uncertified screen, in both formats:
    # with --out F, stdout is empty, the exit code is the same and F holds
    # the bytes stdout prints without it
    monkeypatch.chdir(ROOT)
    for argv in [*readme_examples(), ["screen", "PSL", "--box", "2,8"]]:
        for fmt in ("text", "json"):
            code, printed, _ = run(capsys, *argv, "--format", fmt)
            target = tmp_path / f"report.{fmt}"
            case = (*argv, fmt)
            assert run(capsys, *argv, "--format", fmt, "--out", str(target))[:2] == (code, ""), case
            assert target.read_bytes() == printed.encode("utf-8"), case


@pytest.mark.parametrize("argv", [
    ("an-rank", "30", "--seed", "1"),
    ("screen", "PSp", "--max-order", "5"),
    ("charpoly", "bound", "16", "3", "--seed", "1"),
    ("analyze-perm", str(DATA / "a5.gens"), "--seed", "1"),
    ("analyze-perm", str(DATA / "a5.gens"), "--max-order", "10"),
    ("analyze-table", str(TABLES / "a5.json"), "--max-order", "10"),
], ids=["an-rank", "screen", "charpoly-bound", "analyze-perm",
        "analyze-perm-max-order", "analyze-table-max-order"])
def test_options_a_subcommand_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_byte_identical_repeats(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "analyze-perm", str(DATA / "a5.gens"),
                           "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    for _ in range(2):
        code, out, _ = run(capsys, "screen", "PSp", "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 2
