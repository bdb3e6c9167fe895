"""Partition-side rank computations for alternating groups, checked
against a brute-force partition oracle and the realized class
structures, plus the constructive lower-bound machinery, whose explicit
injection is kept here as a reference."""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import pytest
import sympy

from galorb import altcount
from galorb.altcount import (
    MAX_N, _nonsquare_counts, count_partitions_exact,
    frobenius_rank, frobenius_ranks, prop8_lower_bound, prop8_parameters,
)
from galorb.classtheory import analyze
from galorb.errors import InputError, ResourceLimitError
from galorb.numutil import is_prime
from galorb.permgroup import alternating_class_structure

# -- reference: every distinct-odd partition with its contribution flags --


@lru_cache(maxsize=8)
def _spf_sieve(limit: int) -> tuple[int, ...]:
    """Smallest prime factor for every value up to limit."""
    spf = list(range(limit + 1))
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return tuple(spf)


def _product_is_square(parts: tuple[int, ...]) -> bool:
    """Exact square test on the product, via prime exponent parities.

    Factoring the parts one by one keeps every intermediate small; the
    product itself can be astronomically larger than any sieve.
    """
    if not parts:
        return True
    spf = _spf_sieve(max(parts))
    odd_exponent: set[int] = set()
    for part in parts:
        while part > 1:
            p = spf[part]
            part //= p
            odd_exponent.symmetric_difference_update((p,))
    return not odd_exponent


@dataclass(frozen=True)
class PartitionRecord:
    """One partition of n with the four contribution criteria spelled out."""

    parts: tuple[int, ...]
    n: int
    k: int
    all_odd: bool
    distinct: bool
    congruent_mod4: bool
    product_not_square: bool

    @property
    def contributes(self) -> bool:
        return (self.all_odd and self.distinct and self.congruent_mod4
                and self.product_not_square)


def partition_record(parts: tuple[int, ...]) -> PartitionRecord:
    n = sum(parts)
    k = len(parts)
    return PartitionRecord(
        parts=tuple(parts),
        n=n,
        k=k,
        all_odd=all(p % 2 for p in parts),
        distinct=len(set(parts)) == k,
        congruent_mod4=(k - n) % 4 == 0,
        product_not_square=not _product_is_square(tuple(parts)),
    )


def enumerate_distinct_odd_partitions(n: int):
    """All partitions of n into distinct odd parts, decreasing within
    each partition and in decreasing lexicographic order overall."""
    if n < 0:
        raise InputError("n must be nonnegative")
    if n > MAX_N:
        raise ResourceLimitError(
            f"partition enumeration capped at n = {MAX_N}, got {n}")

    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        top = min(cap, remaining if remaining % 2 else remaining - 1)
        for p in range(top, 0, -2):
            for rest in rec(remaining - p, p - 2):
                yield (p,) + rest

    yield from rec(n, n if n % 2 else n - 1)


def frobenius_records(n: int) -> tuple[PartitionRecord, ...]:
    """Every distinct-odd partition of n with its contribution flags."""
    return tuple(partition_record(parts)
                 for parts in enumerate_distinct_odd_partitions(n))


# -- reference: the padded-doubling injection behind the lower bound --


def partitions_exact(m: int, j: int):
    """Generate the partitions counted by count_partitions_exact,
    parts decreasing within each tuple."""
    if m < 0 or j < 0:
        return
    if j == 0:
        if m == 0:
            yield ()
        return

    def rec(remaining: int, slots: int, cap: int):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        top = min(cap, remaining - (slots - 1))
        for p in range(top, 0, -1):
            if p * slots < remaining:
                break
            for rest in rec(remaining - p, slots - 1, p):
                yield (p,) + rest

    yield from rec(m, j, m)


def prop8_construct(m: int, k: int, p: int,
                    pi: tuple[int, ...]) -> tuple[int, ...]:
    """Map one partition pi of m into exactly k - 1 parts to a
    contributing partition of n = p + k*k - 1 + 2*m.

    Sorted ascending, part i gains i, everything doubles into an odd
    value, and the prime p joins as the largest part.  Since p exceeds
    every other part, it divides the product exactly once, so the
    product cannot be a square.
    """
    if k < 1:
        raise InputError("k must be at least 1")
    if m < 0:
        raise InputError("m must be nonnegative")
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if len(pi) != k - 1:
        raise InputError(f"need exactly {k - 1} parts, got {len(pi)}")
    if any(x < 1 for x in pi):
        raise InputError("partition parts must be positive")
    if sum(pi) != m:
        raise InputError(f"parts sum to {sum(pi)}, not m = {m}")
    if p <= k * k - 1 + 2 * m:
        raise InputError(
            f"p = {p} too small to dominate: need p > {k * k - 1 + 2 * m}")
    n = p + k * k - 1 + 2 * m
    if (n - k) % 4:
        raise InputError(f"k = {k} is not congruent to n = {n} mod 4")

    inc = sorted(pi)
    parts = tuple(2 * (x + i) + 1 for i, x in enumerate(inc, start=1)) + (p,)
    assert sum(parts) == n
    assert all(q % 2 for q in parts)
    assert len(set(parts)) == k
    assert (len(parts) - n) % 4 == 0
    assert not _product_is_square(parts)
    return parts


def brute_distinct_odd(n):
    """All strictly decreasing tuples of distinct odd parts summing to n."""
    odds = list(range(1, n + 1, 2))
    out = set()
    for r in range(len(odds) + 1):
        for combo in combinations(odds, r):
            if sum(combo) == n:
                out.add(tuple(sorted(combo, reverse=True)))
    return sorted(out, reverse=True)


@pytest.mark.parametrize("n", [0, 1, 2, 8, 9, 16])
def test_enumeration_matches_brute_force(n):
    assert list(enumerate_distinct_odd_partitions(n)) == brute_distinct_odd(n)


def test_enumeration_small_cases():
    assert list(enumerate_distinct_odd_partitions(8)) == [(7, 1), (5, 3)]
    assert list(enumerate_distinct_odd_partitions(0)) == [()]
    assert list(enumerate_distinct_odd_partitions(2)) == []


def test_enumeration_guards():
    with pytest.raises(InputError):
        list(enumerate_distinct_odd_partitions(-1))
    with pytest.raises(ResourceLimitError):
        frobenius_rank(401)


@pytest.mark.parametrize("lo,hi,error,msg", [
    (2, 401, ResourceLimitError, "n = 401 requested"),
    (300, 401, ResourceLimitError, "n = 401 requested"),
    (2, 10**12, ResourceLimitError, "n = 1000000000000 requested"),
    (1, 500, InputError, "n >= 2"),
])
def test_range_out_of_bounds_is_refused_before_any_count(monkeypatch, lo, hi, error, msg):
    calls = []
    monkeypatch.setattr(altcount, "_nonsquare_counts", calls.append)
    with pytest.raises(error, match=msg):
        frobenius_ranks(lo, hi)
    assert calls == []


def test_square_product_detection():
    for parts in [(9,), (1,), (25, 1), (9, 4), (3, 3), (5, 3), (2, 8),
                  (49, 25, 9), (45, 5)]:
        rec = partition_record(parts)
        prod = math.prod(parts)
        assert rec.product_not_square == (math.isqrt(prod) ** 2 != prod), parts


def test_rank_one_set_up_to_40():
    ranks = {n: frobenius_rank(n) for n in range(2, 41)}
    rank1 = sorted(n for n, r in ranks.items() if r == 1)
    assert rank1 == [5, 6, 10, 11, 13, 16, 17, 21, 25]


@pytest.mark.parametrize("n", range(2, 101))
def test_rank_matches_enumeration(n):
    assert frobenius_rank(n) == sum(r.contributes for r in frobenius_records(n))


@pytest.mark.parametrize("n", range(0, 61))
def test_parts_mod4_counts_match_enumeration(n):
    counts = [0, 0, 0, 0]
    for parts in enumerate_distinct_odd_partitions(n):
        counts[len(parts) % 4] += not _product_is_square(parts)
    # the programme for n and the one for 60 both hold sum n
    assert _nonsquare_counts(n)[n] == tuple(counts)
    assert _nonsquare_counts(60)[n] == tuple(counts)


def test_one_programme_holds_every_smaller_sum():
    counts = _nonsquare_counts(160)
    assert len(counts) == 161
    for s in range(161):
        assert counts[s] == _nonsquare_counts(s)[s], s


def test_rank_pinned_beyond_cheap_enumeration():
    # n = 200 and 300 were confirmed by full enumeration (minutes at 300)
    ranks = dict(enumerate(frobenius_ranks(2, 400), start=2))
    assert ranks[200] == 171988
    assert ranks[300] == 6521918
    assert ranks[400] == 172468858


def test_rank_agrees_with_class_structures():
    for n in range(5, 14):
        assert frobenius_rank(n) == analyze(alternating_class_structure(n)).rank, n


def test_records_expose_the_contributing_partitions():
    recs = frobenius_records(10)
    contributing = [r.parts for r in recs if r.contributes]
    assert contributing == [(7, 3)]
    # (9, 1) has square product 9, (5, 4, 1) is not all odd and never appears
    assert all(all(p % 2 for p in r.parts) for r in recs)


def test_injection_parameters_at_anchors():
    assert prop8_parameters(26) == (17, 2, 3)
    b = prop8_lower_bound(26)
    assert (b.p, b.k, b.m, b.count, b.feasible) == (17, 2, 3, 1, True)
    b = prop8_lower_bound(27)
    assert not b.feasible and b.k == -1 and b.count == 0


def reference_prop8_parameters(n: int) -> tuple[int, int, int]:
    """prop8_parameters by walking the candidates k congruent to n mod 4
    from n % 4 up or down to the last one with k <= sqrt(p) / 10."""
    p = n // 2 + 1
    while not is_prime(p):
        p += 1

    def below(k: int) -> bool:
        # k <= sqrt(p) / 10, exactly
        return k <= 0 or 100 * k * k <= p

    lo = n % 4
    if below(lo):
        while below(lo + 4):
            lo += 4
    else:
        while not below(lo):
            lo -= 4
    hi = lo + 4
    s = lo + hi
    k = hi if s <= 0 or p > 25 * s * s else lo
    return p, k, (n - p - k * k + 1) // 2


def test_injection_parameters_match_the_walk():
    for n in range(26, 10**4 + 1):
        assert prop8_parameters(n) == reference_prop8_parameters(n), n


def test_injection_bound_far_past_the_rank_cap():
    # 3191 is the first n where the bound reaches 2; the
    # count once recursed about m deep and raised RecursionError there
    b = prop8_lower_bound(3191)
    assert (b.p, b.k, b.m, b.count, b.feasible) == (1597, 3, 793, 396, True)
    b = prop8_lower_bound(10**5)
    assert b.feasible and b.count > 0


def test_bound_below_rank_across_range():
    for n, r in enumerate(frobenius_ranks(26, 400), start=26):
        b = prop8_lower_bound(n)
        assert b.count <= r, (n, b.count, r)
        if n % 4 == 2:
            assert b.feasible and b.count == 1, (n, b)
        elif n % 4 == 3 and b.p > 100:
            # sqrt(p)/10 > 1 puts k = 3 nearer than k = -1, first at n = 195;
            # m then splits into exactly two parts in m // 2 ways
            assert b.feasible and b.k == 3 and b.count == b.m // 2, (n, b)
        else:
            assert not b.feasible, (n, b)
        if n <= 60:
            assert r > 1, (n, r)


def test_construction_anchor():
    parts = prop8_construct(3, 2, 17, (3,))
    assert parts == (9, 17)
    rec = partition_record(parts)
    assert rec.contributes and rec.n == 26 and rec.k == 2


def test_construction_is_injective_and_lands_in_target():
    outs = set()
    for pi in partitions_exact(10, 4):
        out = prop8_construct(10, 5, 53, pi)
        outs.add(out)
        rec = partition_record(out)
        assert rec.contributes and rec.n == 97
    assert len(outs) == count_partitions_exact(10, 4) == 9


@pytest.mark.parametrize("m", range(0, 15))
@pytest.mark.parametrize("j", range(0, 7))
def test_partition_count_matches_generator(m, j):
    assert count_partitions_exact(m, j) == sum(1 for _ in partitions_exact(m, j))


def test_partition_counts_sum_to_the_partition_number():
    m = 1000
    assert sum(count_partitions_exact(m, j) for j in range(m + 1)) == sympy.partition(m)


@pytest.mark.parametrize("bad,msg", [
    (dict(m=3, k=2, p=16, pi=(3,)), "prime"),
    (dict(m=3, k=2, p=17, pi=(2,)), "sum"),
    (dict(m=3, k=2, p=17, pi=(3, 1)), "parts"),
    (dict(m=3, k=2, p=5, pi=(3,)), "dominate"),
    (dict(m=4, k=2, p=17, pi=(4,)), "congruent"),
    (dict(m=3, k=0, p=17, pi=()), "k"),
])
def test_construction_preconditions(bad, msg):
    with pytest.raises(InputError, match=msg):
        prop8_construct(**bad)
