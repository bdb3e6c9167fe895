"""Class-side invariants: rational and real fusion counts and the rank
they determine, checked against closed forms for cyclic groups and
small simple groups."""

import pytest

from galorb.chartab import fixture_table
from galorb.classtheory import analyze, orbit_counts, orbits, q_classes, r_classes
from galorb.cli import report_to_obj
from galorb.matgroup import projective_line_action
from galorb.numutil import totient
from galorb.permgroup import (
    alternating_class_structure, alternating_group_spec, conjugacy_classes,
    cyclic_class_structure, symmetric_group_spec,
)
from helpers import divisors


def a_set(rep):
    """Classes whose family strictly exceeds their inversion orbit."""
    return sorted(c for fam, contrib in zip(rep.families, rep.family_contributions)
                  if contrib > 0 for c in fam)


def test_c5_quantities():
    cs = cyclic_class_structure(5)
    rep = analyze(cs)
    assert (rep.n_Q, rep.n_R) == (2, 3)
    assert rep.rank == 1
    assert rep.f == 4
    assert (rep.a1, rep.a2) == (2, 1)
    assert not rep.is_cut


def test_a5_quantities():
    cs = conjugacy_classes(alternating_group_spec(5))
    assert len(q_classes(cs)) == 4
    assert len(r_classes(cs)) == 5
    rep = analyze(cs)
    assert rep.rank == 1
    assert rep.f == 2


def test_s3_is_rational():
    cs = conjugacy_classes(symmetric_group_spec(3))
    assert len(q_classes(cs)) == 3
    rep = analyze(cs)
    assert rep.rank == 0
    assert rep.is_cut and not a_set(rep)


@pytest.mark.parametrize("m", list(range(1, 201)))
def test_cyclic_closed_forms(m):
    # rational classes of C_m are indexed by divisors of m; real classes
    # pair d-element classes for d > 2 and keep 1 and 2 fixed
    cs = cyclic_class_structure(m)
    rep = analyze(cs)
    assert rep.n_Q == len(divisors(m))
    want_r = 1 + (1 if m % 2 == 0 else 0)
    want_r += sum(totient(d) // 2 for d in divisors(m) if d > 2)
    assert rep.n_R == want_r
    assert rep.f == max(totient(d) for d in divisors(m))


def test_identity_suite_on_battery():
    battery = [
        cyclic_class_structure(1),
        cyclic_class_structure(2),
        cyclic_class_structure(36),
        conjugacy_classes(symmetric_group_spec(4)),
        conjugacy_classes(alternating_group_spec(6)),
        alternating_class_structure(11),
        alternating_class_structure(25),
        conjugacy_classes(projective_line_action(8)),
        conjugacy_classes(projective_line_action(11)),
    ]
    for cs in battery:
        rep = analyze(cs)
        # analyze already asserts the chained equalities; spot
        # the inequalities here as well
        assert 2 * rep.a2 <= rep.a1
        assert 2 * rep.rank >= rep.f - 2
        assert rep.is_cut == (rep.rank == 0)


def test_a_set_contents():
    cs = cyclic_class_structure(5)
    rep = analyze(cs)
    # the four nontrivial classes are neither rational nor quadratic
    assert len(a_set(rep)) == 4
    assert (rep.a1, rep.a2) == (2, 1)


def test_report_serialization():
    cs = conjugacy_classes(alternating_group_spec(5))
    rep = analyze(cs)
    obj = report_to_obj(rep, labels=cs.labels)
    assert obj["rank"] == 1
    assert obj["group_order"] == 60
    assert ["5A", "5B"] in obj["family_labels"]


def test_orbit_counts_agree_on_rows_and_classes():
    # Brauer's permutation lemma: the Galois actions on the rows and on
    # the classes of A5 give one count; the contributions come in the
    # order of each side's orbits
    cs = conjugacy_classes(alternating_group_spec(5))
    t = fixture_table("a5")
    maps = t._row_maps
    reps = [orbit_counts(60, orbits(zip(*maps.values())), maps[-1 % t.galois_action.exponent]),
            orbit_counts(60, q_classes(cs), cs.inverse_map)]
    for rep in reps:
        assert (rep.group_order, rep.num_classes, rep.n_Q, rep.n_R, rep.rank, rep.f,
                sorted(rep.family_contributions), rep.a1, rep.a2, rep.is_cut) == (
                    60, 5, 4, 5, 1, 2, [0, 0, 0, 1], 2, 1, False)
    assert reps[1] == analyze(cs)


@pytest.mark.parametrize("orbs, conj, message", [
    # three points moved by conjugation cannot pair up
    (((0, 1, 2),), (1, 2, 0), "inversion pairs do not match up"),
    # conjugation swaps two one-point orbits: one pair, but each orbit
    # counts no conjugation orbit of its own
    (((0,), (1,)), (1, 0), "rank disagrees with the per-family contribution sum"),
], ids=["odd_moved", "pair_across_orbits"])
def test_orbit_counts_refuses_malformed_actions(orbs, conj, message):
    with pytest.raises(AssertionError, match=message):
        orbit_counts(len(conj), orbs, conj)
