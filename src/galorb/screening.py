"""Screening of classical simple group families by torus totients.

Each family of classical groups carries a distinguished cyclic maximal
torus whose order is an explicit cyclotomic-style expression in the
dimension parameter n and the field size q.  When Euler's phi of that
order exceeds a linear threshold in n, the group supports long Galois
orbits and leaves every candidate list here; the finitely many (n, q)
below threshold are the exceptions this module computes.

The exact maximum M(t) of m with phi(m) <= t comes from a search over
the m with small phi (a prime p dividing m has p - 1 dividing phi(m)),
not from a totient table.  A finite (n, q) box never proves a list
complete on its own, so each scan carries a certificate: exact boundary
checks against M one step beyond the box in q and up to twice the box
in n, the cruder phi(m) >= sqrt(m/2) for a long n tail (scanned only
until the torus bound, which never decreases in n, clears the tail's
largest threshold), and a closed-form exponential-versus-cubic
comparison beyond that.  Every check uses integer arithmetic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable

from .errors import InputError, ResourceLimitError
from .numutil import is_prime, is_prime_power, prime_powers_upto, totient

__all__ = [
    "max_m_with_totient_at_most", "FamilyRecord", "FAMILIES",
    "singer_order", "check_box", "exception_set", "ScreenResult",
]


# -- exact M(t) = max { m : phi(m) <= t } -------------------------------


@lru_cache(maxsize=None)
def _m_table(limit: int) -> tuple[int, ...]:
    """M(t) for 0 <= t <= limit (M(0) reads 0).

    Every prime p dividing m has p - 1 dividing phi(m), so phi(m) <= limit
    forces p <= limit + 1.  A depth-first search over powers of those
    primes, in increasing order, lists each m with phi(m) <= limit once
    (about 2 limit of them); a running maximum over phi then gives M.
    """
    primes = [p for p in range(2, limit + 2) if is_prime(p)]
    best = [0] * (limit + 1)

    def extend(start: int, m: int, phi: int) -> None:
        best[phi] = max(best[phi], m)
        for i in range(start, len(primes)):
            p = primes[i]
            phi_pk = phi * (p - 1)
            if phi_pk > limit:
                break
            pk = p
            while phi_pk <= limit:
                extend(i + 1, m * pk, phi_pk)
                pk *= p
                phi_pk *= p

    extend(0, 1, 1)
    return tuple(accumulate(best, max))


def max_m_with_totient_at_most(t: int) -> int:
    """Largest m with phi(m) <= t, exactly."""
    if t < 1:
        raise InputError("threshold must be at least 1")
    # one table per power of two, so a scan over growing t builds few
    return _m_table(1 << (t - 1).bit_length())[t]


# -- the seven families -------------------------------------------------


@dataclass(frozen=True)
class FamilyRecord:
    """One classical family: torus order, threshold, and known outliers.

    torus(n, q) = (N, c, a, b) states the distinguished torus once: its
    order is N / (gcd(a, b) c), exactly, with gcd(a, b) the cofactor
    that entered the denominator, and N // (a c) is the lower bound the
    certificate uses.  gcd(a, b) <= a makes the bound at most the order.
    """

    tag: str
    n_min: int
    n_step: int            # admissible n: n_min, n_min + n_step, ...
    q_odd_only: bool
    threshold: Callable[[int], int]
    torus: Callable[[int, int], tuple[int, int, int, int]]
    exclusions: dict[tuple[int, int], str]

    def admissible(self, lo: int, hi: int) -> range:
        """The admissible n with lo <= n <= hi, ascending."""
        start = max(lo, self.n_min)
        return range(start + (self.n_min - start) % self.n_step, hi + 1, self.n_step)

    def in_domain(self, n: int) -> bool:
        return n in self.admissible(n, n)

    def domain_text(self) -> str:
        shape = {(1, 0): "any n", (2, 0): "even n", (2, 1): "odd n",
                 (4, 0): "n divisible by 4", (4, 2): "n = 2 mod 4"}[
                     (self.n_step, self.n_min % self.n_step)]
        q = ", odd q" if self.q_odd_only else ""
        return f"{shape} >= {self.n_min}{q}"

    def order_fn(self, n: int, q: int) -> tuple[int, int]:
        """Torus order at (n, q) and its gcd cofactor."""
        big, c, a, b = self.torus(n, q)
        d = math.gcd(a, b)
        order, rem = divmod(big, d * c)
        assert rem == 0, (self.tag, n, q)
        return order, d

    def order_lb_fn(self, n: int, q: int) -> int:
        """Lower bound on the torus order, monotone in q."""
        big, c, a, _ = self.torus(n, q)
        return big // (a * c)


FAMILIES: dict[str, FamilyRecord] = {
    "PSL": FamilyRecord(
        "PSL", 2, 1, False, lambda n: 4 * n,
        lambda n, q: (q ** n - 1, q - 1, n, q - 1),
        {
            (2, 2): "not simple (solvable of order 6)",
            (2, 3): "not simple (solvable of order 12)",
            (2, 4): "isomorphic to the alternating group on 5 letters",
            (2, 5): "isomorphic to the alternating group on 5 letters",
            (2, 9): "isomorphic to the alternating group on 6 letters",
            (4, 2): "isomorphic to the alternating group on 8 letters",
        }),
    "PSp": FamilyRecord(
        "PSp", 4, 2, False, lambda n: 4 * n,
        lambda n, q: (q ** (n // 2) + 1, 1, 2, q - 1),
        {(4, 2): "not simple (isomorphic to the symmetric group on 6 letters)"}),
    "PSU_odd": FamilyRecord(
        "PSU_odd", 6, 4, False, lambda n: 2 * n,
        lambda n, q: (q ** (n // 2) + 1, q + 1, n // 2, q + 1),
        {(6, 2): "not simple (solvable of order 72)"}),
    "POmegaMinus": FamilyRecord(
        "POmegaMinus", 8, 2, False, lambda n: 4 * n,
        lambda n, q: (q ** (n // 2) + 1, 1, 2, q + 1),
        {}),
    "PSU_div4": FamilyRecord(
        "PSU_div4", 8, 4, False, lambda n: 4 * n,
        lambda n, q: (q ** (n // 2 - 1) + 1, 1, n // 2, q + 1),
        {}),
    "POmega_odd": FamilyRecord(
        "POmega_odd", 7, 2, True, lambda n: 8 * n,
        lambda n, q: (q ** ((n - 1) // 2) + 1, 1, 2, q - 1),
        {}),
    "POmegaPlus": FamilyRecord(
        "POmegaPlus", 8, 2, False, lambda n: 8 * (n - 2),
        lambda n, q: (q ** ((n - 2) // 2) + 1, 1, 2, q + 1),
        {}),
}


def _family(tag: str) -> FamilyRecord:
    rec = FAMILIES.get(tag)
    if rec is None:
        raise InputError(
            f"unknown family {tag!r}; choose from {', '.join(sorted(FAMILIES))}")
    return rec


def singer_order(tag: str, n: int, q: int) -> tuple[int, int]:
    """Order of the family's distinguished cyclic torus at (n, q), with
    the gcd cofactor that entered the denominator."""
    rec = _family(tag)
    if not is_prime_power(q):
        raise InputError(f"q = {q} is not a prime power")
    if rec.q_odd_only and q % 2 == 0:
        raise InputError(f"family {tag} is defined for odd q only")
    if not rec.in_domain(n):
        raise InputError(f"family {tag} needs {rec.domain_text()}, got n = {n}")
    return rec.order_fn(n, q)


# -- box scan with completeness certificate -----------------------------


@dataclass(frozen=True)
class ScreenRow:
    n: int
    q: int
    order: int
    phi: int | None          # None: order alone already proves phi > threshold
    threshold: int


@dataclass(frozen=True)
class Certificate:
    q_boundary_ok: bool
    n_near_ok: bool
    n_tail_range: tuple[int, int]
    n_tail_ok: bool
    asymptotic_ok: bool

    @property
    def ok(self) -> bool:
        return self.q_boundary_ok and self.n_near_ok and self.n_tail_ok and self.asymptotic_ok


@dataclass(frozen=True)
class ScreenResult:
    tag: str
    n_max: int
    q_max: int
    rows: tuple[ScreenRow, ...]
    exceptions: frozenset
    excluded: tuple[tuple[int, int, str], ...]
    certificate: Certificate
    certified: bool


_N_TAIL_END = 4096
# a box of n_max x q_max cells, whose torus orders have up to about n_max
# digits, does work near n_max^2 q_max; the certificate's M-table grows
# with n_max and the prime-power sieve with q_max, so q_max has its own cap
MAX_BOX_WORK = 10**8
MAX_BOX_Q = 8192


def check_box(tag: str, n_max: int, q_max: int) -> FamilyRecord:
    """The family tag names, once its (n, q) box is known to be scannable:
    InputError when the box misses the family, ResourceLimitError past
    MAX_BOX_Q or MAX_BOX_WORK.  No scan is made."""
    rec = _family(tag)
    if n_max < rec.n_min or q_max < 2:
        raise InputError(f"box too small for family {tag}: "
                         f"n_max {n_max}, q_max {q_max}")
    if q_max > MAX_BOX_Q:
        raise ResourceLimitError(f"screen box is limited to q_max <= {MAX_BOX_Q}, got {q_max}")
    if n_max * n_max * q_max > MAX_BOX_WORK:
        raise ResourceLimitError(
            f"screen box is limited to n_max^2 x q_max <= 10^8, got "
            f"{n_max}^2 x {q_max} = {n_max * n_max * q_max}")
    return rec


def _n_tail_ok(rec: FamilyRecord, lo: int, q_min: int) -> bool:
    """Whether order_lb_fn(n, q_min) > 4 thr(n)^2 at every admissible n
    in lo.._N_TAIL_END, thr the family's threshold.  With q_min = 3 for
    POmega_odd and 2 for the others, the check reads, per family:

        PSL          floor((2^n - 1) / n)                > 64 n^2
        PSp          floor((2^(n/2) + 1) / 2)            > 64 n^2
        PSU_odd      floor((2^(n/2) + 1) / (3 n/2))      > 16 n^2
        POmegaMinus  floor((2^(n/2) + 1) / 2)            > 64 n^2
        PSU_div4     floor((2^(n/2 - 1) + 1) / (n/2))    > 64 n^2
        POmega_odd   floor((3^((n-1)/2) + 1) / 2)        > 256 n^2
        POmegaPlus   floor((2^((n-2)/2) + 1) / 2)        > 256 (n - 2)^2

    Every left side never decreases along admissible n and every right
    side grows with n, so once a left side tops the right side at
    _N_TAIL_END, every later n passes and the scan stops there."""
    top = 4 * rec.threshold(_N_TAIL_END) ** 2
    for n in rec.admissible(lo, _N_TAIL_END):
        bound = rec.order_lb_fn(n, q_min)
        if bound > top:
            return True
        if bound <= 4 * rec.threshold(n) ** 2:
            return False
    return True


def exception_set(tag: str, n_max: int = 40, q_max: int = 64) -> ScreenResult:
    """Scan the (n, q) box for sub-threshold torus totients and certify
    that nothing outside the box was missed.  check_box refuses a box
    before any scan."""
    rec = check_box(tag, n_max, q_max)
    rows = []
    exceptions = set()
    excluded = []
    q_boundary_ok = True
    qs = [q for q in prime_powers_upto(q_max) if q % 2 or not rec.q_odd_only]
    for n in rec.admissible(rec.n_min, n_max):
        thr = rec.threshold(n)
        # Torus orders grow exponentially while phi is only needed when
        # it might undercut thr, which forces order <= M(thr).  Larger
        # orders are screened by size alone; factoring them (hundreds of
        # digits, Cunningham-hard) is never attempted.
        cap = max_m_with_totient_at_most(thr)
        for q in qs:
            order, _ = rec.order_fn(n, q)
            phi = totient(order) if order <= cap else None
            if (n, q) in rec.exclusions:
                excluded.append((n, q, rec.exclusions[(n, q)]))
            elif phi is not None and phi <= thr:
                exceptions.add((n, q))
            rows.append(ScreenRow(n, q, order, phi, thr))
        # Completeness, part 1: the torus order lower bound one q past
        # the box already tops every m with small phi.  The lower bound
        # is monotone in q, so one evaluation covers the ray.
        q_boundary_ok &= rec.order_lb_fn(n, q_max + 1) > cap

    # Part 2: the next stretch of n, exactly, at the least admissible q.
    q_min = 3 if rec.q_odd_only else 2
    n_near_ok = all(
        rec.order_lb_fn(n, q_min) > max_m_with_totient_at_most(rec.threshold(n))
        for n in rec.admissible(n_max + 1, 2 * n_max))

    # Part 3: a long tail via phi(m) >= sqrt(m/2), the one place that
    # bound still serves: order > 2 thr^2 suffices, checked with margin,
    # until the bound clears the largest threshold of the tail.
    tail_lo, tail_hi = 2 * n_max + 1, _N_TAIL_END
    n_tail_ok = _n_tail_ok(rec, tail_lo, q_min)

    # Part 4: beyond the tail.  Every family's bound is at least
    # 2^((n-2)/2) / (2n) and every threshold is at most 8n, so
    # 2^((n-2)/2) > 512 n^3 gives phi > threshold; the gap widens with n
    # as soon as n log 2 > 6.  Both sides integer-checked at the first
    # n past the tail.
    n0 = rec.admissible(tail_hi + 1, tail_hi + rec.n_step)[0]
    asymptotic_ok = (2 ** ((n0 - 2) // 2) > 512 * n0 ** 3) and (n0 * 7 > 61)
    # n * 7 > 61 is a safe integer stand-in for n > 6 / log 2 = 8.656...

    cert = Certificate(q_boundary_ok, n_near_ok, (tail_lo, tail_hi),
                       n_tail_ok, asymptotic_ok)
    return ScreenResult(
        tag=rec.tag, n_max=n_max, q_max=q_max,
        rows=tuple(rows),
        exceptions=frozenset(exceptions),
        excluded=tuple(excluded),
        certificate=cert,
        certified=cert.ok,
    )
