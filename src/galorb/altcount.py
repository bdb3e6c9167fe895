"""Combinatorial rank computations for alternating groups.

The central-unit rank of an alternating group integral group ring is a
partition count: partitions of n into distinct odd parts, with the
number of parts congruent to n mod 4, whose part product is not a
perfect square.  This file counts them without listing them, in one
dynamic programme over the odd parts, keyed by (sum, parts mod 4,
parity of each prime exponent).  The parts go in buckets by their
largest prime factor, largest prime first.  Once the bucket of prime P
is done, no later part contains P, so a state with an odd power of P
can never become square; all such states merge into one absorbing mask
value, NEVER, and the rank is the count at NEVER.  Only primes of the
open bucket and below are ever live, which keeps the state count at
3240 or fewer at n = 400, the cap.

The programme run for n holds the counts of every sum s <= n, exactly
as the programme run for s would give them: a partition of s uses only
parts <= s; a bucket whose prime exceeds s holds only parts above s,
so it adds nothing at sums <= s and sets no bit there; and the merge
into NEVER after a bucket does not depend on the target sum.  So the
ranks of a whole range are read off the one programme for its upper
end, and a range that passes the cap is refused before any count.

The explicit enumeration with per-partition flags and its square test,
and the injection from ordinary partitions that drives the asymptotic
lower bound, live in the tests as references; this file keeps the
bound's parameters and its exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .numutil import factorize, is_prime

# largest n for the rank count
MAX_N = 400
# the DP mask of a product with a prime that no later part can even out
NEVER = -1


def _nonsquare_counts(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """For every sum s = 0..n, the distinct-odd partitions of s whose
    part product is not a square, counted by number of parts mod 4."""
    buckets: dict[int, list[tuple[int, int]]] = {}
    for part in range(3, n + 1, 2):
        primes = factorize(part)
        mask = sum(1 << p for p, e in primes.items() if e & 1)
        buckets.setdefault(max(primes), []).append((part, mask))

    # (sum, parts mod 4, bit p set iff p divides the product oddly) -> count;
    # the mask NEVER stands for every product that can no longer be square
    states = {(0, 0, 0): 1}
    for prime in sorted(buckets, reverse=True):
        for part, mask in buckets[prime]:
            grown = dict(states)
            for (s, r, m), c in states.items():
                if s + part <= n:
                    key = (s + part, (r + 1) & 3, m if m == NEVER else m ^ mask)
                    grown[key] = grown.get(key, 0) + c
            states = grown
        # no later part contains prime; NEVER & bit is set too
        bit = 1 << prime
        merged: dict[tuple[int, int, int], int] = {}
        for (s, r, m), c in states.items():
            key = (s, r, NEVER if m & bit else m)
            merged[key] = merged.get(key, 0) + c
        states = merged
    # The part 1 changes no exponent: take it or leave it.
    return tuple(
        tuple(states.get((s, r, NEVER), 0) + states.get((s - 1, (r - 1) & 3, NEVER), 0)
              for r in range(4))
        for s in range(n + 1))


def frobenius_ranks(lo: int, hi: int) -> list[int]:
    """Central-unit ranks for the alternating groups on lo..hi points,
    read off the one programme for hi.

    Both ends are checked before any count: lo < 2 is bad input, and
    hi past MAX_N is refused.
    """
    if lo < 2:
        raise InputError("alternating rank needs n >= 2")
    if hi > MAX_N:
        raise ResourceLimitError(
            f"alternating rank is limited to n <= {MAX_N}; n = {hi} requested")
    counts = _nonsquare_counts(hi)
    return [counts[n][n & 3] for n in range(lo, hi + 1)]


def frobenius_rank(n: int) -> int:
    """Central-unit rank for the alternating group on n points, n >= 2,
    as an exact partition count: frobenius_ranks(n, n), from the one
    programme described at the top of this file."""
    return frobenius_ranks(n, n)[0]


# -- exact partition counts for the injection ---------------------------


def count_partitions_exact(m: int, j: int) -> int:
    """Partitions of m into exactly j positive parts: less one from each
    part, they are the partitions of m - j into parts <= j, counted in one
    table over the sums 0..m - j by taking the parts 1..j in turn."""
    if m < j or j < 0:
        return 0
    ways = [1] + [0] * (m - j)
    for part in range(1, j + 1):
        for s in range(part, m - j + 1):
            ways[s] += ways[s - part]
    return ways[m - j]


# -- the padded-doubling injection --------------------------------------


@dataclass(frozen=True)
class Prop8Bound:
    """Parameters and value of the injection-based lower bound at n."""

    n: int
    p: int
    k: int
    m: int
    count: int
    feasible: bool
    diagnostic: str


def prop8_parameters(n: int) -> tuple[int, int, int]:
    """The (p, k, m) used at n: the least prime above n/2, the admissible
    part count nearest sqrt(p)/10, and the leftover partition weight.

    k runs over every integer congruent to n mod 4, negative values
    included; with x = sqrt(p)/10 the two bracketing candidates are
    compared exactly (p against 25 (lo + hi)^2), the smaller winning
    ties.  m is integral because k and n share parity and p is odd.
    """
    p = n // 2 + 1
    while not is_prime(p):
        p += 1
    # s is the largest k with 100 k^2 <= p, so lo, the largest k <= s
    # congruent to n mod 4, is the largest candidate k <= sqrt(p) / 10
    s = math.isqrt(p // 100)
    lo = s - (s - n) % 4
    hi = lo + 4
    if lo + hi <= 0 or p > 25 * (lo + hi) ** 2:
        # 2 sqrt(p) / 10 > lo + hi: the upper candidate is closer
        k = hi
    else:
        k = lo
    m2 = n - p - k * k + 1
    assert m2 % 2 == 0
    return p, k, m2 // 2


def prop8_lower_bound(n: int) -> Prop8Bound:
    """Exact value of the injection bound at n >= 26; infeasible
    parameter combinations report a zero bound with a diagnostic."""
    if n < 26:
        raise InputError("the injection bound is stated for n >= 26")
    p, k, m = prop8_parameters(n)
    problems = []
    if k <= 0:
        problems.append(f"no positive admissible k (chose {k})")
    if k == 1 and m != 0:
        problems.append(f"k = 1 leaves m = {m} != 0 unplaced")
    if m < 0:
        problems.append(f"m = {m} negative")
    if k > 1 and 0 <= m < k - 1:
        problems.append(f"m = {m} cannot fill {k - 1} parts")
    if problems:
        return Prop8Bound(n, p, k, m, 0, False, "; ".join(problems))
    count = count_partitions_exact(m, k - 1)
    return Prop8Bound(n, p, k, m, count, True, "")
