"""Primality and factorization at the edge of deterministic Miller-Rabin,
and the one square-and-multiply."""

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from galorb.errors import ResourceLimitError
from galorb.numutil import factorize, is_prime, power, totient, units_mod

# least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_psi_12_is_composite():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)


def test_psi_12_factorization_and_totient_match_sympy():
    assert factorize(PSI_12) == sympy.factorint(PSI_12)
    assert totient(PSI_12) == sympy.totient(PSI_12) == 318665857832833655296800


@pytest.mark.parametrize("n", [PSI_13, PSI_13 + 1, 2 * PSI_13, 10**30])
def test_is_prime_refuses_from_psi_13(n):
    with pytest.raises(ResourceLimitError, match=str(PSI_13)):
        is_prime(n)


def test_is_prime_matches_sympy_near_the_bases():
    assert [n for n in range(2000) if is_prime(n)] == list(sympy.primerange(2000))
    for n in (PSI_13 - 1, PSI_13 - 2, 2**61 - 1, 2**64 + 13, 10**24 + 7):
        assert is_prime(n) == sympy.isprime(n), n


@given(st.integers(1, 5000))
@settings(max_examples=200, deadline=None)
def test_units_mod_is_the_gcd_definition(m):
    want = (0,) if m == 1 else tuple(k for k in range(1, m) if math.gcd(k, m) == 1)
    assert units_mod(m) == want
    assert len(want) == totient(m)


def test_power_matches_pow_and_counts_its_products():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    # e = 0 is the identity with no product
    assert power(7, 0, mul, 1) == 1 and not calls
    for e in range(1, 301):
        calls.clear()
        assert power(3, e, mul, 1) == pow(3, e), e
        # the last squaring is never formed
        assert len(calls) == e.bit_length() + e.bit_count() - 1, e
    with pytest.raises(ValueError):
        power(3, -1, mul, 1)
