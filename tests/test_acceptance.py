"""Acceptance gate: one test per shipped claim, each printing a single
ACCEPT line when its criterion holds.  Everything here recomputes from
scratch through public entry points; nothing is mocked."""

import json
import time
from pathlib import Path

from galorb.altcount import frobenius_rank, frobenius_ranks, prop8_lower_bound
from galorb.chartab import brauer_crosscheck, char_report, column_families, fixture_table
from galorb.classtheory import analyze, q_classes
from galorb.cli import main
from galorb.matgroup import (
    class_lower_bound, coprime_power_charpoly_count, element_order,
    projective_line_action, singer_element,
)
from galorb.numutil import units_mod
from galorb.permgroup import (
    alternating_group_spec, conjugacy_classes, cyclic_class_structure,
    cyclic_group_spec, symmetric_group_spec,
)
from helpers import format_generators
from test_altcount import partition_record, partitions_exact, prop8_construct

ANALYZED = []  # class structures accumulated for the identity suite


def _accept(tag, detail):
    print(f"ACCEPT {tag} {detail}: PASS")


def _analyze(cs):
    ANALYZED.append(cs)
    return analyze(cs)


def _cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def test_c1_small_group_ranks(capsys, tmp_path):
    expected = {
        "A5": (1, 2), "A6": (1, 2), "A7": (0, 2), "A8": (0, 2), "A9": (0, 2),
        "C2": (0, 1), "C3": (0, 2), "C5": (1, 4),
    }
    specs = {f"A{n}": alternating_group_spec(n) for n in range(5, 10)}
    specs.update({f"C{m}": cyclic_group_spec(m) for m in (2, 3, 5)})
    got = {}
    for name, spec in specs.items():
        path = tmp_path / f"{name}.gens"
        path.write_text(format_generators(spec))
        obj = json.loads(_cli(capsys, "analyze-perm", str(path),
                              "--format", "json"))
        got[name] = (obj["rank"], obj["f"])
        ANALYZED.append(conjugacy_classes(spec))
    assert got == expected, got
    _accept("C1", "small-group ranks and longest families")


def test_c2_psl2_sweep():
    sweep = {}
    for q in (5, 7, 8, 9, 11, 13, 17, 19, 23, 27, 29, 31):
        rep = _analyze(conjugacy_classes(projective_line_action(q)))
        sweep[q] = (rep.rank, rep.f)
    assert {q for q, (_, f) in sweep.items() if f == 2} == {5, 7, 9, 11}
    assert {q for q, (_, f) in sweep.items() if f == 3} == {8, 13, 17, 19}
    assert {q for q, (_, f) in sweep.items() if f == 4} == {29, 31}
    assert {q for q, (_, f) in sweep.items() if f > 4} == {23, 27}
    assert sweep[11][0] == 1
    _accept("C2", "PSL(2, q) orbit-length sweep")


def test_c3_table_rank_equals_class_rank():
    pairs = [
        ("c3", cyclic_class_structure(3)),
        ("c5", cyclic_class_structure(5)),
        ("s3", conjugacy_classes(symmetric_group_spec(3))),
        ("a4", conjugacy_classes(alternating_group_spec(4))),
        ("a5", conjugacy_classes(alternating_group_spec(5))),
        ("psl2_7", conjugacy_classes(projective_line_action(7))),
    ]
    for name, cs in pairs:
        t = fixture_table(name)
        rep = _analyze(cs)
        assert char_report(t).rank == rep.rank, name
        table_fams = {frozenset(f) for f in column_families(t)}
        class_fams = {frozenset(f) for f in q_classes(cs)}
        assert table_fams == class_fams, name
        cross = brauer_crosscheck(t, cs)
        assert cross.passed, (name, [c for c in cross.checks if not c.passed])
    _accept("C3", "table rank matches class rank with fixed-point counts")


def test_c4_identity_suite():
    if not ANALYZED:  # running this test alone still gets a battery
        for spec in (alternating_group_spec(5), symmetric_group_spec(4),
                     cyclic_group_spec(12), projective_line_action(8)):
            ANALYZED.append(conjugacy_classes(spec))
    seen = 0
    for cs in ANALYZED:
        rep = analyze(cs)
        assert 2 * rep.a2 <= rep.a1
        assert 2 * rep.rank >= rep.f - 2
        assert rep.is_cut == (rep.rank == 0)
        seen += 1
    # where a table exists, the character-field criterion must agree
    for name in ("c2", "c3", "c4", "c5", "s3", "a4", "q8", "a5", "psl2_7"):
        t = fixture_table(name)
        rep = char_report(t)
        assert (rep.a2 == 0) == rep.is_cut == (rep.rank == 0)
    _accept("C4", f"identity suite on {seen} analyzed groups plus 9 tables")


def test_c5_frobenius_criterion():
    t0 = time.monotonic()
    ranks = {n: frobenius_rank(n) for n in range(2, 41)}
    assert sorted(n for n, r in ranks.items() if r == 1) == [
        5, 6, 10, 11, 13, 16, 17, 21, 25]
    from galorb.permgroup import alternating_class_structure
    for n in range(5, 14):
        assert ranks[n] == analyze(alternating_class_structure(n)).rank
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    _accept("C5", "partition criterion and rank-one degrees")


def test_c6_injection_suite():
    t0 = time.monotonic()
    for n, r in enumerate(frobenius_ranks(26, 120), start=26):
        b = prop8_lower_bound(n)
        assert b.count <= r, n
        if n <= 60:
            assert r > 1, n
        if not b.feasible:
            assert b.count == 0
            continue
        outs = set()
        for pi in partitions_exact(b.m, b.k - 1):
            out = prop8_construct(b.m, b.k, b.p, pi)
            rec = partition_record(out)
            assert rec.n == n and rec.contributes, (n, out)
            outs.add(out)
        assert len(outs) == b.count, n
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, elapsed
    _accept("C6", "constructed partitions land distinctly below the rank")


def test_c7_screening_exception_sets():
    t0 = time.monotonic()
    from galorb.screening import exception_set
    expected = {
        "PSL": {(2, 7), (2, 8), (2, 11), (2, 13), (2, 17), (2, 19), (2, 23),
                (2, 27), (2, 29), (2, 31), (2, 47), (2, 59), (3, 2), (3, 3),
                (3, 4), (4, 3)},
        "PSp": {(4, 3), (4, 4), (4, 5), (6, 2), (6, 3), (8, 2), (10, 2),
                (12, 2)},
        "PSU_odd": {(6, 3), (6, 4), (6, 5), (10, 2), (18, 2)},
        "POmegaMinus": {(8, 2), (10, 2), (12, 2)},
        "PSU_div4": {(8, 2), (8, 3), (12, 2)},
        "POmega_odd": {(7, 3), (7, 5), (9, 3), (11, 3)},
        "POmegaPlus": {(8, 2), (8, 3), (8, 4), (8, 5), (10, 2), (10, 3),
                       (12, 2), (12, 3), (14, 2), (16, 2)},
    }
    for tag, want in expected.items():
        res = exception_set(tag)
        assert res.exceptions == frozenset(want), tag
        assert res.certified, tag
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, elapsed
    _accept("C7", "exception sets with closure certificates")


def test_c8_charpoly_counts():
    g = singer_element(2, 3)
    assert element_order(g) == 8
    assert coprime_power_charpoly_count(g) == 2
    g = singer_element(4, 2)
    assert element_order(g) == 15
    assert coprime_power_charpoly_count(g) == 2
    # independent orbit count: powering by q = 2 on units mod 15
    units = set(units_mod(15))
    orbits = 0
    while units:
        k = min(units)
        orbits += 1
        while k in units:
            units.discard(k)
            k = (k * 2) % 15
    assert orbits == 2
    assert class_lower_bound(16, 3) == (5, True)
    _accept("C8", "characteristic polynomial counting and the class bound")


def test_c9_deterministic_output(capsys, tmp_path):
    path = tmp_path / "a5.gens"
    path.write_text(format_generators(alternating_group_spec(5)))
    runs = [
        ("analyze-perm", str(path), "--format", "json"),
        ("an-rank", "26..40", "--format", "json"),
        ("screen", "PSp", "--format", "json"),
        ("charpoly", "singer", "4", "2", "--format", "json"),
        ("charpoly", "file", str(Path(__file__).parents[1] / "data" / "gl2_3.json"),
         "--target", "8", "--seed", "7", "--format", "json"),
    ]
    for argv in runs:
        first = _cli(capsys, *argv)
        second = _cli(capsys, *argv)
        assert first == second, argv
    _accept("C9", "byte-identical reports under a fixed seed")
