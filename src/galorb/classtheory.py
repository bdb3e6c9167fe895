"""Orbits of power maps on conjugacy classes and the derived rank data.

Two coarsenings of the set of conjugacy classes drive everything here:
classes fused by all power maps g -> g^k with k coprime to the element
order (called families below), and classes fused only with their
inverses.  The difference of the two counts is the rank of the group of
central units in the integral group ring.  orbit_counts makes that
count, asserts its identities and returns it as one GaloisReport, for
any Galois action with complex conjugation: analyze counts on classes
and chartab.char_report on table rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .permgroup import ClassStructure


def orbits(images) -> tuple[tuple[int, ...], ...]:
    """Orbits of a group acting on classes or columns, ordered by least
    member, given for each point its images under every group element;
    the image sets of an action are its orbits, and disjoint sorted
    orbits sort by their least member."""
    return tuple(sorted({tuple(sorted(set(im))) for im in images}))


def q_classes(cs: ClassStructure) -> tuple[tuple[int, ...], ...]:
    """Orbits of the coprime power maps on classes, ordered by least member.
    Each class's fusion row lists its orbit (every ClassStructure is
    checked for this when built); a row of one repeated index is read as
    its singleton without building a set."""
    return tuple(sorted({(c,) if fus.count(c) == len(fus) else tuple(sorted(set(fus)))
                         for c, fus in enumerate(cs.fusion)}))


def r_classes(cs: ClassStructure) -> tuple[tuple[int, ...], ...]:
    """Orbits of class inversion (singletons and mirror pairs): inverse_map
    is an involution, checked when built, so {c, its inverse} is an orbit,
    read once, from its least class."""
    return tuple((c,) if i == c else (c, i) for c, i in enumerate(cs.inverse_map) if i >= c)


@dataclass(frozen=True)
class GaloisReport:
    """The rank count of one Galois action with complex conjugation, on
    the classes of a group or on the rows of its character table.

    n_Q counts the Galois orbits (families), n_R the orbits of the
    Galois group with conjugation; rank = n_R - n_Q is the rank of the
    central unit group of the integral group ring, and is_cut says it is
    0.  f is the longest family, family_contributions are each family's
    conjugation orbits less one, and a1 and a2 the conjugation and
    Galois orbits of the families that contribute.  By Brauer's
    permutation lemma both actions give equal group_order, num_classes,
    n_Q, n_R, rank and is_cut; the other fields belong to the action
    counted (on rows, a1 and a2 are b1 and b2).
    """

    group_order: int
    num_classes: int
    n_Q: int
    n_R: int
    rank: int
    f: int
    families: tuple[tuple[int, ...], ...]
    family_contributions: tuple[int, ...]
    a1: int
    a2: int
    is_cut: bool


def orbit_counts(group_order: int, orbs, conj) -> GaloisReport:
    """The report of an action of a group of order group_order, with
    Galois orbits orbs and conj the permutation of its points by
    complex conjugation.  Every identity between its fields is
    asserted: AssertionError names the first that fails."""
    moved = sum(1 for p, q in enumerate(conj) if p != q)
    if moved % 2:
        raise AssertionError("inversion pairs do not match up")
    n_r = len(conj) - moved // 2
    contributions = []
    a1 = a2 = 0
    for orb in orbs:
        r_count = (len(orb) + sum(1 for p in orb if conj[p] == p)) // 2
        contributions.append(r_count - 1)
        if r_count > 1:
            a2 += 1
            a1 += r_count
    rank = n_r - len(orbs)
    f = max(map(len, orbs))
    if rank != sum(contributions):
        raise AssertionError("rank disagrees with the per-family contribution sum")
    # with no negative term, the orbits of positive contribution (the
    # a-set) are empty exactly when the rank is 0
    if min(contributions) < 0:
        raise AssertionError("a family contributes a negative rank")
    if rank != a1 - a2:
        raise AssertionError(f"rank {rank} != a1 - a2 = {a1 - a2}")
    if 2 * a2 > a1:
        raise AssertionError(f"2*a2 = {2 * a2} exceeds a1 = {a1}")
    if 2 * rank < f - 2:
        raise AssertionError(f"rank {rank} below f/2 - 1 with f = {f}")
    return GaloisReport(
        group_order=group_order, num_classes=len(conj), n_Q=len(orbs), n_R=n_r,
        rank=rank, f=f, families=tuple(orbs), family_contributions=tuple(contributions),
        a1=a1, a2=a2, is_cut=rank == 0)


def analyze(cs: ClassStructure) -> GaloisReport:
    """The report of one class structure: orbit_counts on the families
    under class inversion, with n_R read again from the inversion pairs."""
    rep = orbit_counts(cs.group_order, q_classes(cs), cs.inverse_map)
    if rep.n_R != len(r_classes(cs)):
        raise AssertionError("n_R disagrees with the direct pair count")
    return rep


def report_to_obj(rep: GaloisReport, labels: tuple[str, ...]) -> dict:
    """JSON-ready dict: the report's fields, with the families rendered
    as labels as well."""
    return {**asdict(rep),
            "family_labels": [[labels[c] for c in f] for f in rep.families]}
