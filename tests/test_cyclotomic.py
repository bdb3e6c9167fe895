import json
import math
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from galorb.cyclotomic import (
    MAX_ROOT_ORDER, CyclotomicNumber, FieldClass, _apply_unit, _canonical, _reduce,
    conjugate, cyclotomic_polynomial, field_class, galois_apply, value_from_obj, zeta,
)
from galorb.errors import InputError, ResourceLimitError
from galorb.numutil import totient, units_mod
from helpers import divisors, value_to_obj

_ZERO = Fraction(0)


# -- the stabiliser scan, kept as the reference for _canonical -----------


def _solve_exact(cols, rhs):
    """Solve sum x_j cols[j] = rhs over Q; the system is known consistent."""
    rows = len(rhs)
    ncols = len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [rhs[i]] for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    x = [_ZERO] * ncols
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][-1]
    for i in range(r, rows):
        if aug[i][-1]:
            raise ArithmeticError("inconsistent rewrite system")
    return x


def reference_canonical(n, terms):
    """Conductor from the stabiliser of the value in (Z/n)^*: the least
    divisor d whose kernel k = 1 (mod d) fixes it; coordinates there by
    exact elimination."""
    vec = _reduce(n, terms)
    if n == 1:
        return 1, (vec[0],)
    if not any(vec):
        return 1, (_ZERO,)
    units = units_mod(n)
    stab = {1}
    for k in units:
        if k != 1 and _apply_unit(n, vec, k) == vec:
            stab.add(k)
    if len(stab) == len(units):
        return 1, (vec[0],)
    for d in divisors(n)[1:-1]:
        if all(k in stab for k in units if k % d == 1):
            step = n // d
            cols = [_reduce(n, {(j * step) % n: Fraction(1)}) for j in range(totient(d))]
            return d, tuple(_solve_exact(cols, vec))
    return n, tuple(vec)


@st.composite
def canonical_inputs(draw):
    """(n, terms) with n <= 150; some inputs summed over a subgroup of
    (Z/n)^* so that they fall to a proper subfield."""
    n = draw(st.one_of(
        st.integers(1, 150),
        st.sampled_from([2, 3, 5, 7, 11, 13, 97, 139, 149]),  # prime: p || n, n/p = 1
        st.integers(1, 37).map(lambda j: 4 * j - 2),         # n = 2 mod 4
    ))
    size = draw(st.integers(0, 4))
    terms = {draw(st.integers(0, 2 * n)): Fraction(draw(st.integers(-3, 3)),
                                                    draw(st.integers(1, 4)))
             for _ in range(size)}
    if n > 1 and draw(st.booleans()):
        units = units_mod(n)
        k = draw(st.sampled_from(units))
        orbit = [1]
        while (orbit[-1] * k) % n != 1:
            orbit.append(orbit[-1] * k % n)
        summed: dict[int, Fraction] = {}
        for g in orbit:
            for e, c in terms.items():
                summed[e * g % n] = summed.get(e * g % n, _ZERO) + c
        terms = summed
    if draw(st.booleans()):
        d = draw(st.sampled_from(divisors(n)))
        terms = {e * (n // d): c for e, c in terms.items()}
    return n, terms


@given(canonical_inputs())
@settings(max_examples=300, deadline=None)
def test_canonical_matches_stabiliser_scan(case):
    n, terms = case
    assert _canonical(n, terms) == reference_canonical(n, terms)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 31])
def test_canonical_at_prime_n(n):
    for k in range(n):
        terms = {k: Fraction(1), 0: Fraction(2)}
        assert _canonical(n, terms) == reference_canonical(n, terms)
    ring = {k: Fraction(1) for k in range(1, n)}  # -1 in disguise
    assert _canonical(n, ring) == reference_canonical(n, ring) == (1, (Fraction(-1),))


def test_canonical_of_every_root_of_unity_up_to_40():
    for n in range(1, 41):
        for k in range(n):
            assert _canonical(n, {k: Fraction(1)}) == reference_canonical(n, {k: Fraction(1)})


def test_roots_of_unity_basics():
    for n in [1, 2, 3, 4, 5, 6, 8, 12, 30]:
        z = zeta(n)
        assert z ** n == CyclotomicNumber.rational(1)
        if n > 1:
            assert z ** 1 != CyclotomicNumber.rational(1) or n == 1
    assert zeta(2) == CyclotomicNumber.rational(-1)
    assert zeta(1) == CyclotomicNumber.rational(1)


def test_conductor_is_lowered():
    # Q(zeta_6) = Q(zeta_3), so the order 6 collapses
    assert zeta(6).order == 3
    assert zeta(6) == -(zeta(3) ** 2)
    # 1 + zeta_5 + ... + zeta_5^4 = 0, a rational in disguise
    s = sum((zeta(5, k) for k in range(5)), CyclotomicNumber.rational(0))
    assert s.order == 1 and s.rational_value == 0
    # zeta_8^2 lives in Q(i)
    assert (zeta(8) ** 2).order == 4


def test_arithmetic_identities():
    a = CyclotomicNumber.make(12, {1: 1, 5: Fraction(1, 2)})
    b = CyclotomicNumber.make(12, {7: -2, 0: 3})
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == CyclotomicNumber.rational(0)
    assert (a + b) * (a - b) == a * a - b * b
    assert a * CyclotomicNumber.rational(1) == a


def test_sympy_minimal_polynomial_crosscheck():
    # past 60: many small primes (840, 2310), a prime square (1008), a
    # 2-power (1024), and 14880 = 2^5 3 5 31
    for n in [*range(1, 61), 840, 1008, 1024, 2310, 14880]:
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))).all_coeffs()
        assert list(ours) == list(reversed(theirs)), n


def test_descent_keeps_nothing_per_order():
    # the sum lives at n = 211 * 223 and descends past both primes; the
    # descent computes its index split in place and caches nothing at n
    tracemalloc.start()
    try:
        z = zeta(211) + zeta(223)
        assert z.order == 211 * 223
        del z
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20, held


def test_rational_iff_fixed_by_every_galois_map():
    probes = [
        zeta(7) + zeta(7, 6),
        zeta(5),
        CyclotomicNumber.make(8, {1: 1, 3: 1, 5: 1, 7: 1}),
        CyclotomicNumber.make(12, {0: Fraction(3, 2)}),
        zeta(9) + zeta(9, 4) + zeta(9, 7),
    ]
    for z in probes:
        n = z.order
        fixed = all(galois_apply(z, k) == z for k in units_mod(n)) if n > 1 else True
        assert z.is_rational == fixed, z


@st.composite
def cyclo_values(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15, 16]))
    deg = totient(n)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=deg, max_size=deg))
    return CyclotomicNumber.make(n, {i: c for i, c in enumerate(coeffs)})


@given(cyclo_values(), st.integers(1, 300), st.integers(1, 300))
@settings(max_examples=150, deadline=None)
def test_galois_action_composes(z, a, b):
    n = z.order
    if n == 1:
        assert galois_apply(z, a) == z
        return
    if math.gcd(a, n) != 1 or math.gcd(b, n) != 1:
        return
    left = galois_apply(galois_apply(z, a), b)
    assert left == galois_apply(z, (a * b) % n)


@given(cyclo_values(), st.integers(1, 300))
@settings(max_examples=150, deadline=None)
def test_conjugation_commutes_with_action(z, k):
    n = z.order
    if n > 1 and math.gcd(k, n) != 1:
        return
    assert conjugate(galois_apply(z, k)) == galois_apply(conjugate(z), k)


def test_root_order_limit():
    z = value_from_obj({"n": MAX_ROOT_ORDER, "coeffs": {"1023": "1"}})
    assert z == zeta(1024, 1023) and z.order == 1024
    with pytest.raises(ResourceLimitError, match="n <= 1024; n = 1025 given"):
        value_from_obj({"n": MAX_ROOT_ORDER + 1, "coeffs": {"1": "1"}})


@given(cyclo_values())
@settings(max_examples=150, deadline=None)
def test_encoding_round_trip(z):
    assert value_from_obj(value_to_obj(z)) == z
    # the obj form survives a JSON round trip unchanged
    assert value_from_obj(json.loads(json.dumps(value_to_obj(z)))) == z


def test_field_class_examples():
    assert field_class([CyclotomicNumber.rational(3)]) is FieldClass.RATIONAL
    assert field_class([zeta(3)]) is FieldClass.IMAGINARY_QUADRATIC
    assert field_class([zeta(4)]) is FieldClass.IMAGINARY_QUADRATIC
    golden = zeta(5) + zeta(5, 4)  # (-1 + sqrt 5) / 2
    assert field_class([golden]) is FieldClass.REAL_NONRATIONAL
    assert field_class([zeta(5)]) is FieldClass.OTHER_COMPLEX
    assert field_class([zeta(7) + zeta(7, 2) + zeta(7, 4)]) is FieldClass.IMAGINARY_QUADRATIC
    # a batch generates the compositum
    assert field_class([golden, zeta(3)]) is FieldClass.OTHER_COMPLEX


def test_galois_apply_rejects_noncoprime():
    with pytest.raises(InputError):
        galois_apply(zeta(6), 3)


def test_bad_encodings_rejected():
    with pytest.raises(InputError):
        value_from_obj(True)
    with pytest.raises(InputError):
        value_from_obj("3/0")
    with pytest.raises(InputError):
        value_from_obj({"n": 5})
    with pytest.raises(InputError):
        value_from_obj([1, 2])
