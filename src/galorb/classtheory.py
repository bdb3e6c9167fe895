"""Orbits of power maps on conjugacy classes and the derived rank data.

Two coarsenings of the set of conjugacy classes drive everything here:
classes fused by all power maps g -> g^k with k coprime to the element
order (called families below), and classes fused only with their
inverses.  The difference of the two counts is the rank of the group of
central units in the integral group ring.  orbit_counts makes that
count, and asserts its identities, for any Galois action with complex
conjugation: on classes for analyze, and on table rows for chartab,
which by Brauer's permutation lemma give the same numbers.
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
    """Joint summary of the power-map and inversion orbit structure.

    rank is the rank of the central unit group of the integral group
    ring; f is the longest power-map orbit; a1 and a2 recount the rank
    from the classes whose family is larger than their inverse pair.
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


def orbit_counts(orbs, conj) -> tuple[int, int, int, tuple[int, ...], int, int]:
    """The rank count of an action with Galois orbits orbs, conj the
    permutation of its points by complex conjugation: n_R, the
    conjugation orbits; the rank, n_R less the Galois orbits; f, the
    longest orbit; each orbit's contribution, its conjugation orbits less
    one; and a1 and a2, the conjugation and Galois orbits of the orbits
    that contribute.  Every identity between them is asserted:
    AssertionError names the first that fails."""
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
    return n_r, rank, f, tuple(contributions), a1, a2


def analyze(cs: ClassStructure) -> GaloisReport:
    """The report of one class structure: orbit_counts on the families
    under class inversion, with n_R read again from the inversion pairs."""
    families = q_classes(cs)
    n_r, rank, f, contributions, a1, a2 = orbit_counts(families, cs.inverse_map)
    if n_r != len(r_classes(cs)):
        raise AssertionError("n_R disagrees with the direct pair count")
    return GaloisReport(
        group_order=cs.group_order, num_classes=cs.num_classes, n_Q=len(families),
        n_R=n_r, rank=rank, f=f, families=families, family_contributions=contributions,
        a1=a1, a2=a2, is_cut=rank == 0)


def report_to_obj(rep: GaloisReport, labels: tuple[str, ...]) -> dict:
    """JSON-ready dict: the report's fields, with the families rendered
    as labels as well."""
    return {**asdict(rep),
            "family_labels": [[labels[c] for c in f] for f in rep.families]}
