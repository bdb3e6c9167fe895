import hashlib
import json
import math
import random
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galorb.chartab import (
    CharacterTable, GaloisAction, brauer_crosscheck, char_report,
    column_families, fixture_names, fixture_table, parse_table,
)
from galorb.classtheory import analyze, orbits
from galorb.cyclotomic import (
    CyclotomicNumber, FieldClass, field_class, galois_apply, reduce_terms,
    value_from_obj, zeta,
)
from galorb.errors import InputError, ResourceLimitError
from galorb.numutil import units_mod
from galorb.permgroup import (
    GroupSpec, alternating_class_structure, alternating_group_spec,
    conjugacy_classes, cyclic_class_structure, symmetric_group_spec,
)
from helpers import serialize_table

# rank, longest column family, number of real rows
REPORT_ANCHORS = {
    "c2": (0, 1, 2), "c3": (0, 2, 1), "c4": (0, 2, 2), "c5": (1, 4, 1),
    "s3": (0, 1, 3), "a4": (0, 2, 2), "q8": (0, 1, 5), "a5": (1, 2, 5),
    "psl2_7": (0, 2, 4),
}

Q8_SPEC = GroupSpec(8, ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)))


def row_field_classes(t):
    """Each row's field class, read off the row maps: the field's degree
    is the row's orbit length, and it is real when conjugation fixes the
    row."""
    maps = t._row_maps
    conj = maps[-1 % t.galois_action.exponent]
    length = {i: len(orb) for orb in orbits(zip(*maps.values())) for i in orb}
    return [FieldClass.of(length[i], conj[i] == i) for i in range(len(conj))]


def real_rows(rep):
    """Rows fixed by conjugation, read off a row report: each conjugation
    orbit of rows is a fixed row or a pair."""
    return 2 * rep.n_R - rep.num_classes


def longest_column_family(t):
    return max(map(len, column_families(t)))


def b_set(t):
    """Rows whose field is neither rational nor imaginary quadratic,
    with b1 and b2, the a1 and a2 of the row report."""
    flat = (FieldClass.RATIONAL, FieldClass.IMAGINARY_QUADRATIC)
    rep = char_report(t)
    keep = tuple(i for i, fc in enumerate(row_field_classes(t)) if fc not in flat)
    return keep, rep.a1, rep.a2


def test_fixture_inventory():
    assert set(fixture_names()) == set(REPORT_ANCHORS)


@pytest.mark.parametrize("name", sorted(REPORT_ANCHORS))
def test_fixture_validates_and_round_trips(name):
    t = fixture_table(name)
    # a copy is built, and so checked, again
    assert replace(t) == t
    s = serialize_table(t)
    assert serialize_table(parse_table(s)) == s


@pytest.mark.parametrize("name", sorted(REPORT_ANCHORS))
def test_report_anchors(name):
    t = fixture_table(name)
    rep = char_report(t)
    assert (rep.rank, longest_column_family(t), real_rows(rep)) == REPORT_ANCHORS[name]


def test_rank_consistency_between_rows_and_quantities():
    for name in fixture_names():
        t = fixture_table(name)
        rep = char_report(t)
        conj = t._row_maps[-1 % t.galois_action.exponent]
        h_r = sum(1 for i, j in enumerate(conj) if i == j)
        assert real_rows(rep) == h_r
        assert rep.n_Q == len(orbits(zip(*t._row_maps.values())))
        assert rep.rank == h_r + (len(t.irr) - h_r) // 2 - rep.n_Q
        assert rep.a1 - rep.a2 == rep.rank
        assert 2 * rep.a2 <= rep.a1
        assert rep.f == max(map(len, rep.families))


def test_b_sets():
    assert b_set(fixture_table("c3")) == ((), 0, 0)
    b, b1, b2 = b_set(fixture_table("c5"))
    assert (len(b), b1, b2) == (4, 2, 1)
    b, b1, b2 = b_set(fixture_table("a5"))
    assert (len(b), b1, b2) == (2, 2, 1)
    assert b_set(fixture_table("psl2_7")) == ((), 0, 0)


def test_cut_detection_by_fields():
    # cut exactly when no row's field is past imaginary quadratic: b2 = 0
    for name, cut in (("q8", True), ("s3", True), ("a4", True), ("c5", False),
                      ("a5", False)):
        rep = char_report(fixture_table(name))
        assert rep.is_cut == (rep.a2 == 0) == cut, name


CROSSCHECK_PAIRS = [
    ("c2", lambda: cyclic_class_structure(2)),
    ("c3", lambda: cyclic_class_structure(3)),
    ("c4", lambda: cyclic_class_structure(4)),
    ("c5", lambda: cyclic_class_structure(5)),
    ("s3", lambda: conjugacy_classes(symmetric_group_spec(3))),
    ("a4", lambda: conjugacy_classes(alternating_group_spec(4))),
    ("q8", lambda: conjugacy_classes(Q8_SPEC)),
    ("a5", lambda: conjugacy_classes(alternating_group_spec(5))),
    ("a5", lambda: alternating_class_structure(5)),
]


@pytest.mark.parametrize("name,make_cs", CROSSCHECK_PAIRS,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(CROSSCHECK_PAIRS)])
def test_brauer_crosscheck_passes(name, make_cs):
    t, cs = fixture_table(name), make_cs()
    rep = brauer_crosscheck(t, cs)
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert {c.name for c in rep.checks} == {
        "fixed_counts", "orbit_counts", "column_families", "rank"}
    # the fields Brauer's permutation lemma makes equal on rows and classes
    shared = ("group_order", "num_classes", "n_Q", "n_R", "rank", "is_cut")
    rows, classes = char_report(t), analyze(cs)
    assert [getattr(rows, f) for f in shared] == [getattr(classes, f) for f in shared]


def _permute_columns(t, perm):
    irr = tuple(tuple(row[p] for p in perm) for row in t.irr)
    orders = None if t.class_orders is None else tuple(t.class_orders[p] for p in perm)
    return CharacterTable(t.name, t.group_order,
                          tuple(t.class_sizes[p] for p in perm), orders,
                          irr)


def test_crosscheck_negative_control():
    # swapping the columns of g and g^2 keeps sizes and orders aligned
    # but misplaces values relative to the power maps
    bad = _permute_columns(fixture_table("c5"), (0, 2, 1, 3, 4))
    rep = brauer_crosscheck(bad, cyclic_class_structure(5))
    assert not rep.passed
    assert "column_families" in [c.name for c in rep.checks if not c.passed]


def test_crosscheck_invariant_under_ambiguous_labeling():
    # swapping the two conjugate columns of a5 matches swapping the
    # class labels, which the checks must tolerate
    swapped = _permute_columns(fixture_table("a5"), (0, 1, 2, 4, 3))
    rep = brauer_crosscheck(swapped, conjugacy_classes(alternating_group_spec(5)))
    assert rep.passed, [c for c in rep.checks if not c.passed]


def _order_free(t):
    """The row report's fields that no row order changes, with the
    longest column family."""
    rep = char_report(t)
    return (rep.group_order, rep.num_classes, rep.n_Q, rep.n_R, rep.rank, rep.f,
            sorted(rep.family_contributions), rep.a1, rep.a2, rep.is_cut,
            longest_column_family(t))


def test_report_invariant_under_row_and_column_shuffles():
    t = fixture_table("psl2_7")
    base = _order_free(t)
    shuffled_rows = CharacterTable(t.name, t.group_order, t.class_sizes,
                                   t.class_orders,
                                   tuple(reversed(t.irr)))
    assert _order_free(shuffled_rows) == base
    perm = (0, 3, 1, 5, 2, 4)
    shuffled_cols = _permute_columns(t, perm)
    assert _order_free(shuffled_cols) == base
    # the columns move, the rows do not: the row report is the same
    assert char_report(shuffled_cols) == char_report(t)


def test_crosscheck_rejects_misaligned_inputs():
    with pytest.raises(InputError):
        brauer_crosscheck(fixture_table("a5"), cyclic_class_structure(5))
    with pytest.raises(InputError):
        brauer_crosscheck(fixture_table("c5"), cyclic_class_structure(3))


def test_degenerate_table_detected():
    # equal columns leave the rows short of orthogonal, so a table with
    # them is refused when built, before any column is matched
    one = CyclotomicNumber.rational(1)
    with pytest.raises(InputError, match="rows 0 and 1 violate orthogonality"):
        CharacterTable("deg", 2, (1, 1), (1, 1), ((one, one), (one, one)))


def _c3z():
    """The C3 table with column 1 times zeta_5."""
    one, w, z = CyclotomicNumber.rational(1), zeta(3), zeta(5)
    return CharacterTable("c3z", 3, (1, 1, 1), None,
                          ((one, z, one), (one, w * z, w * w), (one, w * w * z, w)))


def test_table_whose_columns_the_action_does_not_permute_is_refused():
    # the C3 table with column 1 multiplied by zeta_5 stays exactly
    # orthogonal, but k = 2 sends column 1 to no column
    with pytest.raises(InputError) as info:
        char_report(_c3z())
    assert str(info.value) == (
        "table 'c3z': image of column 1 under the Galois map k = 2 matches no column")


def test_exponent_fallback_uses_conductors():
    # the table's order is the lcm of its conductors, recorded orders or not
    t = fixture_table("a5")
    noorders = CharacterTable(t.name, t.group_order, t.class_sizes, None, t.irr)
    assert t.galois_action.exponent == noorders.galois_action.exponent == 5
    assert reference_exponent(t) == 30
    assert char_report(noorders).rank == 1
    assert real_rows(char_report(noorders)) == 5


def test_class_orders_size_no_work():
    # a rational table whose class orders name 1 + d^2: its order is 1, so
    # the action runs over one unit, as with the orders omitted
    d = 2000
    irr = ((CyclotomicNumber.rational(1), CyclotomicNumber.rational(1)),
           (CyclotomicNumber.rational(d), CyclotomicNumber.rational(Fraction(-1, d))))
    start = time.perf_counter()
    t = CharacterTable("d", 1 + d * d, (1, d * d), (1, 1 + d * d), irr)
    bare = CharacterTable("d", 1 + d * d, (1, d * d), None, irr)
    assert char_report(t) == char_report(bare)
    assert char_report(t).families == ((0,), (1,))
    assert column_families(t) == column_families(bare) == ((0,), (1,))
    assert t.galois_action.units == (0,)
    assert time.perf_counter() - start < 1.0


def _roots_table(p, q):
    """Build the 3x3 table whose only irrational cells are zeta_p and
    zeta_q; its order is pq, and its rows are not orthogonal, so it is
    refused when built."""
    one = CyclotomicNumber.rational(1)
    irr = ((one, one, one), (one, zeta(p), one), (one, one, zeta(q)))
    return CharacterTable(f"z{p}_{q}", 3, (1, 1, 1), None, irr)


def test_orthogonality_lift_that_cannot_fit_is_refused():
    # (n - phi(n)) phi(n) = 2039 * 1038360 reductions at n = 1019 * 1021
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        _roots_table(1019, 1021)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        "table 'z1019_1021': orthogonality at n = 1040399, the lcm of the value "
        f"conductors, needs 2117216040 power reductions; the limit is {2 ** 25}")
    # below the limit the check reaches its verdict (433 * 46620 reductions
    # at n = 211 * 223 would too, in about 3 s); 11040 * 3840 at
    # n = 480 * 31 = 14880 is above it
    with pytest.raises(InputError, match="rows 0 and 1 violate orthogonality"):
        _roots_table(101, 103)
    with pytest.raises(ResourceLimitError, match="n = 14880"):
        _roots_table(480, 31)


def test_orthogonality_reductions_are_released_with_the_table():
    # the 203 * 10200 reductions at n = 101 * 103 (about 17 MB, hence the
    # peak) belong to the one check and go with it; the failing sum is
    # canonicalised without them
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="rows 0 and 1 violate orthogonality"):
            _roots_table(101, 103)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak > 10 * 2 ** 20, peak
    assert held < 2 * 2 ** 20, held


def _fixture_obj(name):
    return json.loads(serialize_table(fixture_table(name)))


def test_validate_rejects_wrong_order():
    obj = _fixture_obj("s3")
    obj["order"] = 8
    with pytest.raises(InputError, match="degree"):
        parse_table(json.dumps(obj))


def test_validate_rejects_broken_orthogonality():
    obj = _fixture_obj("s3")
    obj["irr"][1][1] = 1  # was -1 on the transpositions
    with pytest.raises(InputError, match="rows 0 and 1"):
        parse_table(json.dumps(obj))


def test_validate_rejects_bad_shapes():
    obj = _fixture_obj("c2")
    obj["irr"][0] = [1]
    with pytest.raises(InputError):
        parse_table(json.dumps(obj))
    obj = _fixture_obj("c2")
    obj["class_sizes"] = [1, 0]
    with pytest.raises(InputError):
        parse_table(json.dumps(obj))
    obj = _fixture_obj("c2")
    obj["irr"][0][0] = -1
    with pytest.raises(InputError, match="degree"):
        parse_table(json.dumps(obj))
    # a table with no classes has no identity column
    obj = _fixture_obj("c2")
    obj["class_sizes"] = obj["irr"] = []
    with pytest.raises(InputError, match="column 0 must be the identity class"):
        parse_table(json.dumps(obj))


def test_orthogonality_works_at_the_conductors(monkeypatch):
    # S3 has exponent 6 and a rational table: the check runs at conductor
    # 1 and never reduces modulo Phi_6
    import galorb.chartab
    seen = []

    def spy(n, terms, red):
        seen.append(n)
        return reduce_terms(n, terms, red)

    monkeypatch.setattr(galorb.chartab, "reduce_terms", spy)
    t = parse_table(json.dumps(_fixture_obj("s3")))
    assert t.galois_action.exponent == 1
    assert seen and set(seen) == {1}
    # an element of order 27720 (the exponent of S_12) is no element of C2
    obj = _fixture_obj("c2")
    obj["class_orders"] = [1, 27720]
    with pytest.raises(InputError, match="class order 27720 of column 1 does not "
                                         "divide the group order 2"):
        parse_table(json.dumps(obj))


@pytest.mark.parametrize("order", [10 ** 6, 10 ** 10])
def test_validate_refuses_class_orders_not_dividing_the_order(order):
    obj = _fixture_obj("c2")
    obj["class_orders"] = [1, order]
    with pytest.raises(InputError, match=f"'c2': class order {order} of column 1"):
        parse_table(json.dumps(obj))


def test_validate_rejects_foreign_conductor():
    t = fixture_table("c5")
    rows = [list(r) for r in t.irr]
    rows[1][1] = zeta(7)
    with pytest.raises(InputError, match="conductor"):
        CharacterTable(t.name, t.group_order, t.class_sizes, t.class_orders,
                       tuple(tuple(r) for r in rows))


def test_parse_error_reporting():
    with pytest.raises(InputError, match="line 1"):
        parse_table("{nope")
    with pytest.raises(InputError, match="row 0, column 1"):
        parse_table(json.dumps({
            "name": "x", "order": 2, "class_sizes": [1, 1],
            "irr": [[1, {"broken": 1}], [1, -1]]}))
    with pytest.raises(InputError, match="missing"):
        parse_table(json.dumps({"order": 2}))
    # str() would print these as None, True, 3 and [1, 2]
    for name in (None, True, 3, [1, 2]):
        with pytest.raises(InputError, match="^'name' must be a string$"):
            parse_table(json.dumps({**_fixture_obj("c2"), "name": name}))


def _c2_text(irr):
    return json.dumps({"name": "c2", "order": 2, "class_sizes": [1, 1], "irr": irr})


def test_parse_canonicalises_each_distinct_cell_once(monkeypatch):
    import galorb.chartab
    calls = []

    def counting(v):
        calls.append(v)
        return value_from_obj(v)

    monkeypatch.setattr(galorb.chartab, "value_from_obj", counting)
    table = cyclic_table(12, random.Random(12))
    text = serialize_table(table)
    cells = [v for r in json.loads(text)["irr"] for v in r]
    assert parse_table(text) == table
    assert len(cells) == 144
    assert sorted(map(repr, calls)) == sorted(set(map(repr, cells)))
    assert len(calls) == 12
    # 1 and "1" are distinct cells with one value
    c2 = fixture_table("c2")
    calls.clear()
    assert parse_table(_c2_text([[1, "1"], ["1", -1]])).irr == c2.irr
    assert calls == [1, "1", -1]


@pytest.mark.parametrize("irr, message", [
    ([[1, 1], [1, True]], "row 1, column 1: boolean is not a cyclotomic value"),
    ([[1, 1.0], [1, -1]], "row 0, column 1: cannot parse cyclotomic value from float"),
    ([[1, "1/0"], [1, "1/0"]],
     "row 0, column 1: bad rational literal '1/0': Fraction(1, 0)"),
    ([[1, 1], [{"n": 2}, {"n": 2}]],
     "row 1, column 0: bad cyclotomic object {'n': 2}: 'coeffs'"),
], ids=["true_after_1", "float_after_1", "bad_twice", "bad_object_twice"])
def test_parse_cache_reports_the_first_bad_cell(irr, message):
    with pytest.raises(InputError) as exc:
        parse_table(_c2_text(irr))
    assert str(exc.value) == message


@pytest.mark.parametrize("cell, reason", [
    ({"n": 2, "coeffs": [1]}, "coeffs must be an object, not list"),
    ({"n": 2.7, "coeffs": {"1": "1"}}, "n must be an integer, not float"),
    ({"n": 2.0, "coeffs": {"1": "1"}}, "n must be an integer, not float"),
    ({"n": True, "coeffs": {"1": "1"}}, "n must be an integer, not bool"),
    ({"n": "2", "coeffs": {"1": "1"}}, "n must be an integer, not str"),
    ({"n": 2, "coeffs": {"1": 0.1}}, "coefficients must be integers or rational strings"),
    ({"n": 2, "coeffs": {"1": 1.0}}, "coefficients must be integers or rational strings"),
    ({"n": 2, "coeffs": {"1": True}}, "coefficients must be integers or rational strings"),
], ids=["coeffs_list", "n_float", "n_integral_float", "n_bool", "n_string",
        "coeff_float", "coeff_integral_float", "coeff_bool"])
def test_parse_refuses_inexact_or_malformed_objects(cell, reason):
    with pytest.raises(InputError) as exc:
        parse_table(_c2_text([[1, 1], [1, cell]]))
    assert str(exc.value) == f"row 1, column 1: bad cyclotomic object {cell!r}: {reason}"


def test_parse_reads_integer_and_rational_string_coefficients():
    # -1 = zeta_2, spelled with an integer and with rational strings
    c2 = fixture_table("c2")
    for cell in ({"n": 2, "coeffs": {"1": 1}}, {"n": 2, "coeffs": {"1": "2/2"}},
                 {"n": 2, "coeffs": {"0": "-1.5", "1": "-1/2"}}):
        assert parse_table(_c2_text([[1, 1], [1, cell]])).irr == c2.irr, cell


@pytest.mark.parametrize("cell", [
    "1_0", " 1 ", "-1 ", "\u0661", "1/\u0662",
    {"n": 2, "coeffs": {"1_0": "1"}}, {"n": 2, "coeffs": {" 1": "1"}},
    {"n": 2, "coeffs": {"\u0661": "1"}}, {"n": 2, "coeffs": {"1": "1_0"}},
    {"n": 2, "coeffs": {"1": "\t1"}},
], ids=["separator", "padded", "padded_sign", "arabic_digit", "arabic_denominator",
        "key_separator", "key_padded", "key_arabic_digit", "coeff_separator",
        "coeff_padded"])
def test_parse_refuses_numerals_past_plain_ascii(cell):
    # int and Fraction read these, as 10, 1, -1 and so on; the format does not
    with pytest.raises(InputError) as exc:
        parse_table(_c2_text([[1, 1], [1, cell]]))
    kind = "rational literal" if isinstance(cell, str) else "cyclotomic object"
    assert str(exc.value).startswith(f"row 1, column 1: bad {kind} {cell!r}: ")
    assert str(exc.value).endswith("is not a plain ASCII numeral")


# -- reference: the per-cell row and column functions ---------------------


def reference_exponent(t):
    """The lcm of the class orders, or of the value conductors when the
    orders are not recorded: a multiple of the table's order, the
    conductors' lcm.  The action on values factors through that order, so
    the references below run over these units and compare through
    k % act.exponent."""
    if t.class_orders is not None:
        return math.lcm(*t.class_orders)
    return math.lcm(*(z.order for row in t.irr for z in row))


def _row_key(row):
    return tuple(z.sort_key() for z in row)


def _apply_row(row, k):
    return tuple(galois_apply(z, k) for z in row)


def reference_orbit_count(t):
    units = units_mod(reference_exponent(t))
    return len({min(_row_key(_apply_row(row, k)) for k in units) for row in t.irr})


def reference_row_maps(t):
    index = {_row_key(row): i for i, row in enumerate(t.irr)}
    return {k: tuple(index[_row_key(_apply_row(row, k))] for row in t.irr)
            for k in units_mod(reference_exponent(t))}


def reference_column_maps(t):
    cols = [tuple(row[c] for row in t.irr) for c in range(t.num_classes)]
    index = {_row_key(col): c for c, col in enumerate(cols)}
    return {k: tuple(index[_row_key(_apply_row(col, k))] for col in cols)
            for k in units_mod(reference_exponent(t))}


def reference_families(t):
    parent = list(range(t.num_classes))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for images in reference_column_maps(t).values():
        for c, d in enumerate(images):
            rc, rd = find(c), find(d)
            parent[max(rc, rd)] = min(rc, rd)
    groups = {}
    for c in range(t.num_classes):
        groups.setdefault(find(c), []).append(c)
    return tuple(tuple(g) for g in sorted(groups.values()))


def reference_b_sets(t):
    flat = (FieldClass.RATIONAL, FieldClass.IMAGINARY_QUADRATIC)
    keep = [i for i, row in enumerate(t.irr) if field_class(row) not in flat]
    units = units_mod(reference_exponent(t))
    orbit_keys = [min(_row_key(_apply_row(row, k)) for k in units) for row in t.irr]
    conj_keys = {min(_row_key(t.irr[i]), _row_key(_apply_row(t.irr[i], -1))) for i in keep}
    return tuple(keep), len(conj_keys), len({orbit_keys[i] for i in keep})


def _without_orders(t):
    return CharacterTable(t.name, t.group_order, t.class_sizes, None, t.irr)


def cyclic_table(m, rng):
    """Table of C_m with the rows shuffled, columns in exponent order."""
    rows = [tuple(zeta(m, j * k) for k in range(m)) for j in range(m)]
    rng.shuffle(rows)
    orders = tuple(m // math.gcd(m, k) for k in range(m))
    return CharacterTable(f"c{m}", m, (1,) * m, orders, tuple(rows))


ORACLE_TABLES = [(name, lambda name=name: fixture_table(name)) for name in sorted(REPORT_ANCHORS)]
ORACLE_TABLES += [(f"c{m}", lambda m=m: cyclic_table(m, random.Random(m)))
                  for m in range(1, 25)]
ORACLE_TABLES += [(f"{name}-noorders",
                   lambda name=name: _without_orders(fixture_table(name)))
                  for name in sorted(REPORT_ANCHORS)]


@pytest.mark.parametrize("name,make", ORACLE_TABLES, ids=[n for n, _ in ORACLE_TABLES])
def test_galois_action_matches_per_cell_reference(name, make):
    t = make()
    act = t.galois_action
    assert act.exponent == math.lcm(*(z.order for row in t.irr for z in row))
    maps = t._row_maps
    conj = maps[-1 % act.exponent]
    assert [conj[i] == i for i in range(len(t.irr))] == [
        _apply_row(row, -1) == row for row in t.irr]
    for k in units_mod(reference_exponent(t)):
        image = act.images[act.units.index(k % act.exponent)]
        fixed = [tuple(image[v] for v in ids) == ids for ids in act.cells]
        assert fixed == [_apply_row(row, k) == row for row in t.irr], k
        assert sum(i == j for i, j in enumerate(maps[k % act.exponent])) == sum(fixed), k
    assert len(orbits(zip(*maps.values()))) == reference_orbit_count(t)
    assert {k: maps[k % act.exponent]
            for k in units_mod(reference_exponent(t))} == reference_row_maps(t)
    assert {k: t._column_maps[k % act.exponent]
            for k in units_mod(reference_exponent(t))} == reference_column_maps(t)
    assert column_families(t) == reference_families(t)
    assert row_field_classes(t) == [field_class(row) for row in t.irr]
    assert b_set(t) == reference_b_sets(t)


def full_galois_action(t):
    """The action built unit by unit over every unit modulo the table's
    order: galois_apply on each distinct value for each of them."""
    n, values, cells = t._values
    ids = values.copy()
    units = units_mod(n)
    images = tuple(tuple(ids.setdefault(galois_apply(z, k), len(ids)) for z in values)
                   for k in units)
    return GaloisAction(n, units, cells, images)


def assert_action_per_conductor(make):
    """Build the GaloisAction of make()'s table with galois_apply counted:
    it equals the full loop's field for field, image ids included, after
    one call per distinct value and unit of its conductor.  Returns the
    number of calls."""
    t = make()
    calls = []

    def spy(z, k):
        calls.append(k)
        return galois_apply(z, k)
    with mock.patch("galorb.chartab.galois_apply", spy):
        act = t.galois_action
    assert act == full_galois_action(t)
    assert len(calls) == sum(len(units_mod(z.order)) for z in t._values[1])
    return len(calls)


PER_CONDUCTOR_TABLES = [(name, lambda name=name: fixture_table(name))
                        for name in sorted(REPORT_ANCHORS)]
PER_CONDUCTOR_TABLES += [(f"c{m}", lambda m=m: cyclic_table(m, random.Random(m)))
                         for m in range(1, 41)]


@pytest.mark.parametrize("name,make", PER_CONDUCTOR_TABLES,
                         ids=[n for n, _ in PER_CONDUCTOR_TABLES])
def test_galois_action_per_conductor_equals_full_action(name, make):
    assert_action_per_conductor(make)


def test_galois_apply_calls_per_conductor():
    # C_20's values have conductors 1, 2, 4, 5, 10 and 20: one call per
    # value and unit of its conductor, not one per value and unit mod 20
    def make():
        return cyclic_table(20, random.Random(20))
    assert assert_action_per_conductor(make) == 102
    assert len(make()._values[1]) * len(units_mod(20)) == 160


@st.composite
def abelian_tables(draw):
    """The table of C_a x C_b, rows shuffled, and sometimes one column
    past the first times a root of unity: still orthogonal, but then the
    Galois action need not permute the columns."""
    a, b = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rows = [tuple(zeta(a, i * x) * zeta(b, j * y) for x in range(a) for y in range(b))
            for i in range(a) for j in range(b)]
    rows = [rows[i] for i in draw(st.permutations(range(a * b)))]
    if a * b > 1 and draw(st.booleans()):
        col, r = draw(st.integers(1, a * b - 1)), draw(st.integers(2, 12))
        w = zeta(r, draw(st.integers(1, r - 1)))
        rows = [row[:col] + (row[col] * w,) + row[col + 1:] for row in rows]
    return CharacterTable(f"c{a}xc{b}", a * b, (1,) * (a * b), None, tuple(rows))


@given(abelian_tables())
@settings(max_examples=60, deadline=None)
def test_galois_action_per_conductor_on_generated_tables(t):
    assert_action_per_conductor(lambda: replace(t))


def test_galois_action_per_conductor_on_a_refused_table():
    assert_action_per_conductor(_c3z)
    with pytest.raises(InputError, match="matches no column"):
        char_report(_c3z())


def _table_route_repr(t):
    """The table route's values on t, rendered as the row-side record
    that char_report returned before it returned the row GaloisReport:
    real rows, rank, longest column family, b1, b2, cut flag, row
    orbits, and the column families."""
    rep, families = char_report(t), column_families(t)
    return (f"CharReport(h_R={real_rows(rep)!r}, rank_eq1={rep.rank!r}, "
            f"f_table={max(map(len, families))!r}, b1={rep.a1!r}, b2={rep.a2!r}, "
            f"cut_by_fields={rep.is_cut!r}, n_orbits={rep.n_Q!r}, families={families!r})")


def test_table_route_bytes_are_pinned():
    """sha256, updated with _table_route_repr(make()).encode() for each
    (name, make) of ORACLE_TABLES in order, pins every value the table
    route gives on those 42 tables."""
    digest = hashlib.sha256()
    for _, make in ORACLE_TABLES:
        digest.update(_table_route_repr(make()).encode())
    assert digest.hexdigest() == (
        "0c829d31a3942d0515f3f68da9ba6540d1ca9159cbc5be91e81c44f5c30f1078")


def test_galois_action_is_read_only_and_computed_once():
    t = fixture_table("a5")
    act = t.galois_action
    assert t.galois_action is act
    with pytest.raises(TypeError):
        act.images[0] = act.images[1]
    with pytest.raises(AttributeError):
        act.exponent = 7
    assert hash(act) == hash(fixture_table("a5").galois_action)


def test_crosscheck_without_class_orders():
    # the table exponent falls to 1, a proper divisor of the group exponent 6
    t = fixture_table("s3")
    bare = CharacterTable(t.name, t.group_order, t.class_sizes, None, t.irr)
    rep = brauer_crosscheck(bare, conjugacy_classes(symmetric_group_spec(3)))
    assert rep.passed, [c for c in rep.checks if not c.passed]


@pytest.mark.parametrize("name, cell, value, message", [
    ("s3", (1, 1), 1,
     "table 's3': rows 0 and 1 violate orthogonality (got Cyc(6), want 0)"),
    ("a5", (3, 3), {"n": 5, "coeffs": {"1": "1", "2": "1/2"}},
     "table 'a5': rows 0 and 3 violate orthogonality "
     "(got Cyc(n=5, {1: -12, 2: -12, 3: -6}), want 0)"),
    ("psl2_7", (0, 4), {"n": 7, "coeffs": {"1": "1/3"}},
     "table 'psl2_7': rows 0 and 0 violate orthogonality (got Cyc(440/3), want 168)"),
    ("q8", (2, 1), "1/3",
     "table 'q8': rows 0 and 2 violate orthogonality (got Cyc(-2/3), want 0)"),
], ids=["s3", "a5", "psl2_7", "q8"])
def test_orthogonality_message_bytes(name, cell, value, message):
    obj = _fixture_obj(name)
    obj["irr"][cell[0]][cell[1]] = value
    with pytest.raises(InputError) as info:
        parse_table(json.dumps(obj))
    assert str(info.value) == message
