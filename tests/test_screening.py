import math
import random
from fractions import Fraction

import numpy as np
import pytest

from galorb import screening
from galorb.errors import InputError
from galorb.numutil import prime_powers_upto, totient
from galorb.screening import (
    FAMILIES, exception_set, exceptional_screen, lemma_bounds,
    max_m_with_totient_at_most, parse_torus_records, singer_order,
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
    assert all(r.ok for r in cert.q_rows)
    assert all(r.ok for r in cert.n_rows)
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
    """Reference phi table: the former M-table loop, one strided update
    for every prime up to limit."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in np.flatnonzero(sieve):
        phi[p::p] -= phi[p::p] // p
    return phi


def test_totient_table_matches_per_prime_loop(monkeypatch):
    limit = 1 << 16
    phi = _per_prime_totients(limit)
    assert np.array_equal(screening._totient_table(limit), phi)
    best = np.zeros(limit + 2, dtype=np.int64)
    np.maximum.at(best, phi[1:], np.arange(1, limit + 1, dtype=np.int64))
    np.maximum.accumulate(best, out=best)
    monkeypatch.setattr(screening, "_M_TABLE", {"limit": 0, "best": None})
    max_m_with_totient_at_most(128)
    assert screening._M_TABLE["limit"] == limit
    assert np.array_equal(screening._M_TABLE["best"], best)


def test_max_totient_across_regrow_boundaries(monkeypatch):
    # each pair straddles a power-of-two table size; start from an empty
    # cache so that every size is actually built
    monkeypatch.setattr(screening, "_M_TABLE", {"limit": 0, "best": None})
    ts = (8, 9, 64, 65, 90, 91, 362, 363)
    phi = _per_prime_totients(4 * max(ts) ** 2)
    limits = []
    for t in ts:
        brute = int(np.flatnonzero(phi[1:4 * t * t + 1] <= t).max()) + 1
        assert max_m_with_totient_at_most(t) == brute, t
        limits.append(screening._M_TABLE["limit"])
    assert limits == [2 ** 8, 2 ** 9, 2 ** 14, 2 ** 15, 2 ** 15, 2 ** 16,
                      2 ** 19, 2 ** 20]


def test_m_table_is_built_once_per_call(monkeypatch):
    # thresholds grow with n, so the table is grown once, up front, to the
    # largest one that the scan and its certificate ask for
    built = []
    totients = screening._totient_table
    monkeypatch.setattr(screening, "_totient_table",
                        lambda limit: built.append(limit) or totients(limit))
    monkeypatch.setattr(screening, "_M_TABLE", {"limit": 0, "best": None})
    res = exception_set("POmega_odd")
    assert res.certified and res.exceptions == EXPECTED["POmega_odd"]
    assert built == [2 ** 21]
    assert not screening._M_TABLE["best"].flags.writeable


def test_cached_m_table_is_read_only():
    m_star = max_m_with_totient_at_most(10)
    with pytest.raises(ValueError):
        screening._M_TABLE["best"][10] = 0
    assert max_m_with_totient_at_most(10) == m_star


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


def test_lemma_bounds_anchors():
    b = lemma_bounds(5, 2)
    assert (b.f_lb, b.r_lb, b.f_exceeds_4) == (2, Fraction(0), False)
    b = lemma_bounds(13, 3)
    assert (b.f_lb, b.r_lb, b.f_exceeds_4) == (4, Fraction(1), False)
    b = lemma_bounds(257, 4)
    assert b.f_lb == 64 and b.f_exceeds_4


def test_torus_record_screen():
    recs = parse_torus_records(
        '{"group": "X1", "torus_order": 57, "index_bound": 8}\n'
        "# comment line\n"
        '{"group": "X2", "torus_order": 91, "index_bound": 30}\n')
    v = exceptional_screen(recs)
    assert v[0].phi == 36 and v[0].excluded
    assert v[1].phi == 72 and not v[1].excluded


def test_torus_record_parsing_guards():
    with pytest.raises(InputError, match="30"):
        parse_torus_records('{"group": "x", "torus_order": 5, "index_bound": 31}')
    with pytest.raises(InputError, match="line 2"):
        parse_torus_records('{"group": "x", "torus_order": 5, "index_bound": 3}\n{oops')
    with pytest.raises(InputError, match="positive"):
        parse_torus_records('{"group": "x", "torus_order": 0, "index_bound": 3}')
    with pytest.raises(InputError, match="missing"):
        parse_torus_records('{"group": "x", "torus_order": 5}')


def test_shipped_torus_data_parses():
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "data" / "sample_tori.jsonl"
    verdicts = exceptional_screen(parse_torus_records(path.read_text()))
    by_name = {v.record.group: v for v in verdicts}
    assert by_name["X1"].excluded and not by_name["X2"].excluded
