import hashlib
import math
import random

import numpy as np
import pytest

from galorb import screening
from galorb.errors import InputError
from galorb.numutil import prime_powers_upto, totient
from galorb.screening import (
    FAMILIES, exception_set, max_m_with_totient_at_most, singer_order,
)

# frozen exception sets for the default box n <= 40, q <= 64
EXPECTED = {
    "PSL": {(2, 7), (2, 8), (2, 11), (2, 13), (2, 17), (2, 19), (2, 23),
            (2, 27), (2, 29), (2, 31), (2, 47), (2, 59), (3, 2), (3, 3),
            (3, 4), (4, 3)},
    "PSp": {(4, 3), (4, 4), (4, 5), (6, 2), (6, 3), (8, 2), (10, 2), (12, 2)},
    "PSU_odd": {(6, 3), (6, 4), (6, 5), (10, 2), (18, 2)},
    "POmegaMinus": {(8, 2), (10, 2), (12, 2)},
    "PSU_div4": {(8, 2), (8, 3), (12, 2)},
    "POmega_odd": {(7, 3), (7, 5), (9, 3), (11, 3)},
    "POmegaPlus": {(8, 2), (8, 3), (8, 4), (8, 5), (10, 2), (10, 3),
                   (12, 2), (12, 3), (14, 2), (16, 2)},
}


@pytest.mark.parametrize("tag", sorted(EXPECTED))
def test_exception_sets_exact_and_certified(tag):
    res = exception_set(tag)
    assert res.exceptions == frozenset(EXPECTED[tag]), sorted(
        res.exceptions ^ EXPECTED[tag])
    assert res.certified
    cert = res.certificate
    assert cert.q_boundary_ok and cert.n_near_ok
    assert cert.n_tail_ok and cert.asymptotic_ok


def test_psl_exclusions():
    res = exception_set("PSL")
    assert sorted(x[:2] for x in res.excluded) == [
        (2, 2), (2, 3), (2, 4), (2, 5), (2, 9), (4, 2)]


def test_small_box_is_not_certified():
    res = exception_set("PSL", n_max=2, q_max=8)
    assert not res.certified
    # the scan itself is still correct inside the box
    assert res.exceptions == {(2, 7), (2, 8)}


def test_max_totient_table_anchors():
    assert max_m_with_totient_at_most(1) == 2
    assert max_m_with_totient_at_most(2) == 6
    assert max_m_with_totient_at_most(4) == 12
    assert max_m_with_totient_at_most(8) == 30
    # definitional check at a few thresholds against the direct totient
    for t in (3, 6, 10, 16):
        m_star = max_m_with_totient_at_most(t)
        assert totient(m_star) <= t
        assert all(totient(m) > t for m in range(m_star + 1, 4 * t * t + 1))


def _per_prime_totients(limit):
    """Reference phi table: one strided update for every prime up to
    limit."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in np.flatnonzero(sieve):
        phi[p::p] -= phi[p::p] // p
    return phi


def test_totient_table_matches_per_prime_loop():
    # the whole M table against a running maximum over a per-prime phi
    # table; phi(m) >= sqrt(m/2) makes a phi table to 4 t^2 exhaustive
    # for every threshold t <= 256
    t_max = 256
    limit = 4 * t_max * t_max
    phi = _per_prime_totients(limit)
    best = np.zeros(limit + 2, dtype=np.int64)
    np.maximum.at(best, phi[1:], np.arange(1, limit + 1, dtype=np.int64))
    np.maximum.accumulate(best, out=best)
    screening._m_table.cache_clear()
    assert list(screening._m_table(t_max)[1:]) == best[1:t_max + 1].tolist()


def test_max_totient_across_regrow_boundaries():
    # each pair straddles a power-of-two table size; start from an empty
    # cache so that every size is actually built
    screening._m_table.cache_clear()
    ts = (8, 9, 64, 65, 90, 91, 362, 363)
    phi = _per_prime_totients(4 * max(ts) ** 2)
    sizes = []
    for t in ts:
        brute = int(np.flatnonzero(phi[1:4 * t * t + 1] <= t).max()) + 1
        assert max_m_with_totient_at_most(t) == brute, t
        sizes.append(screening._m_table.cache_info().currsize)
    # tables of 8, 16, 64, 128 and 512 thresholds, each built once
    assert sizes == [1, 2, 3, 4, 4, 4, 5, 5]


def test_screen_builds_m_tables_up_to_its_largest_threshold():
    # thresholds 8n for odd 7 <= n <= 80 run from 56 to 632: one table
    # per power of two from 64 to 1024, the largest of 1025 entries
    screening._m_table.cache_clear()
    res = exception_set("POmega_odd")
    assert res.certified and res.exceptions == EXPECTED["POmega_odd"]
    assert screening._m_table.cache_info().misses == 5
    assert len(screening._m_table(1024)) == 1025
    assert screening._m_table.cache_info().misses == 5


def test_cached_m_table_is_a_tuple():
    m_star = max_m_with_totient_at_most(10)
    table = screening._m_table(16)
    assert isinstance(table, tuple) and table is screening._m_table(16)
    assert table[10] == m_star == max_m_with_totient_at_most(10)


def test_tail_inequality_totient_vs_sqrt():
    # 2 phi(m)^2 >= m underpins the tail certificate; verify it outright
    # on a sieve up to a million, after validating the sieve itself
    limit = 1_000_000
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if phi[p] == p:  # p not yet touched, hence prime
            phi[p::p] -= phi[p::p] // p
    rng = random.Random(5)
    for m in [1, 2, 6, 30] + [rng.randrange(2, limit) for _ in range(25)]:
        assert phi[m] == totient(m), m
    m = np.arange(1, limit + 1, dtype=np.int64)
    assert np.all(2 * phi[1:] * phi[1:] >= m)


def test_singer_order_anchors():
    assert singer_order("PSp", 4, 3) == (5, 2)
    assert singer_order("PSL", 2, 7) == (4, 2)
    assert singer_order("POmegaPlus", 8, 2) == (9, 1)
    assert singer_order("PSU_odd", 6, 2) == (1, 3)
    assert singer_order("POmega_odd", 7, 3) == (14, 2)


def test_singer_order_rejects_bad_parameters():
    with pytest.raises(InputError, match="family"):
        singer_order("Nope", 2, 7)
    with pytest.raises(InputError, match="prime power"):
        singer_order("PSL", 2, 6)
    with pytest.raises(InputError, match="odd"):
        singer_order("POmega_odd", 7, 4)
    with pytest.raises(InputError):
        singer_order("PSU_odd", 8, 3)


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_torus_orders_monotone_in_q(tag):
    # certificate soundness leans on the orders growing with q
    rec = FAMILIES[tag]
    qs = [q for q in prime_powers_upto(97) if not (rec.q_odd_only and q % 2 == 0)]
    for n in range(rec.n_min, rec.n_min + 4 * rec.n_step, rec.n_step):
        lbs = [rec.order_lb_fn(n, q) for q in qs]
        assert lbs == sorted(lbs), (tag, n)
        for q in qs:
            assert rec.order_lb_fn(n, q) <= rec.order_fn(n, q)[0], (tag, n, q)


# Reference torus formulas: each family's order and certificate bound
# written as two independent expressions, against FamilyRecord's one
# torus tuple.
def _exact(num, den):
    assert num % den == 0, (num, den)
    return num // den


def _psl_order(n, q):
    d = math.gcd(n, q - 1)
    return _exact(q ** n - 1, d * (q - 1)), d


def _psp_order(n, q):
    d = math.gcd(2, q - 1)
    return _exact(q ** (n // 2) + 1, d), d


def _psu2_order(n, q):
    d = math.gcd(n // 2, q + 1)
    return _exact(q ** (n // 2) + 1, d * (q + 1)), d


def _pom_order(n, q):
    d = math.gcd(2, q + 1)
    return _exact(q ** (n // 2) + 1, d), d


def _psu4_order(n, q):
    d = math.gcd(n // 2, q + 1)
    return _exact(q ** (n // 2 - 1) + 1, d), d


def _poo_order(n, q):
    return _exact(q ** ((n - 1) // 2) + 1, 2), 2


def _pop_order(n, q):
    d = math.gcd(2, q + 1)
    return _exact(q ** ((n - 2) // 2) + 1, d), d


REFERENCE_TORI = {
    "PSL": (_psl_order, lambda n, q: (q ** n - 1) // (n * (q - 1))),
    "PSp": (_psp_order, lambda n, q: (q ** (n // 2) + 1) // 2),
    "PSU_odd": (_psu2_order,
                lambda n, q: (q ** (n // 2) + 1) // ((n // 2) * (q + 1))),
    "POmegaMinus": (_pom_order, lambda n, q: (q ** (n // 2) + 1) // 2),
    "PSU_div4": (_psu4_order, lambda n, q: (q ** (n // 2 - 1) + 1) // (n // 2)),
    "POmega_odd": (_poo_order, lambda n, q: (q ** ((n - 1) // 2) + 1) // 2),
    "POmegaPlus": (_pop_order, lambda n, q: (q ** ((n - 2) // 2) + 1) // 2),
}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_torus_tuple_matches_reference_formulas(tag):
    rec = FAMILIES[tag]
    order_ref, lb_ref = REFERENCE_TORI[tag]
    for n in range(rec.n_min, 200):
        if not rec.in_domain(n):
            continue
        for q in prime_powers_upto(199):
            if rec.q_odd_only and q % 2 == 0:
                continue
            assert rec.order_fn(n, q) == order_ref(n, q), (n, q)
            assert rec.order_lb_fn(n, q) == lb_ref(n, q), (n, q)


def _q_min(rec):
    return 3 if rec.q_odd_only else 2


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_tail_bound_never_decreases_and_thresholds_grow(tag):
    # the two facts that let the tail scan stop early
    rec = FAMILIES[tag]
    ns = rec.admissible(rec.n_min, screening._N_TAIL_END)
    bounds = [rec.order_lb_fn(n, _q_min(rec)) for n in ns]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))
    thresholds = [rec.threshold(n) for n in ns]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_tail_stop_rule_matches_the_full_scan(tag):
    # one pass of the per-n check, read as "every n from here on passes"
    rec = FAMILIES[tag]
    end = screening._N_TAIL_END
    ns = rec.admissible(rec.n_min, end)
    passes = [rec.order_lb_fn(n, _q_min(rec)) > 4 * rec.threshold(n) ** 2 for n in ns]
    suffix_all = [True] * (len(passes) + 1)
    for i in range(len(passes) - 1, -1, -1):
        suffix_all[i] = passes[i] and suffix_all[i + 1]
    assert not suffix_all[0] and suffix_all[-2]
    for lo in range(rec.n_min, end + 2):
        first = len(rec.admissible(rec.n_min, lo - 1))
        assert screening._n_tail_ok(rec, lo, _q_min(rec)) == suffix_all[first], lo


def test_screen_results_are_pinned():
    # sha256 updated with repr(exception_set(tag, n_max, q_max)).encode()
    # for tag in FAMILIES order, n_max in range(n_min, 25), q_max in
    # (2, 8, 64): 396 results, the whole ScreenResult of each
    digest = hashlib.sha256()
    count = 0
    for tag, rec in FAMILIES.items():
        for n_max in range(rec.n_min, 25):
            for q_max in (2, 8, 64):
                digest.update(repr(exception_set(tag, n_max, q_max)).encode())
                count += 1
    assert count == 396
    assert digest.hexdigest() == (
        "92819b8f5163b31a2f40c0038fd29064422b9930b9b54d7552dda2326f129b01")
