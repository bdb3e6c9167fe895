import json
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galorb.cyclotomic import (
    MAX_ROOT_ORDER, CyclotomicNumber, FieldClass, _canonical, _plain, conjugate,
    cyclotomic_polynomial, field_class, galois_apply, integer_lift, power_reductions,
    reduce_terms, value_from_obj, zeta,
)
from galorb.errors import InputError, ResourceLimitError
from galorb.numutil import factorize, totient, units_mod
from helpers import divisors, value_to_obj

_ZERO = Fraction(0)


# -- the Fraction-vector kernel, kept as the reference for the integer one --
#
# Values as (conductor, tuple of Fraction coordinates at the conductor),
# reduced, descended and lifted by the same steps as the integer kernel,
# with Fraction coefficients throughout.

_ref_reductions = lru_cache(maxsize=None)(power_reductions)


def ref_reduce(n, terms):
    """Fold an exponent -> Fraction map into the power basis of Q(zeta_n)."""
    if n == 1:
        return [sum(terms.values(), _ZERO)]
    phi = totient(n)
    vec = [_ZERO] * phi
    for e, c in terms.items():
        if not c:
            continue
        e %= n
        if e < phi:
            vec[e] += c
        else:
            for i, b in enumerate(_ref_reductions(n)[e - phi]):
                if b:
                    vec[i] += c * b
    return vec


def ref_apply_unit(n, vec, k):
    return ref_reduce(n, {(k * i) % n: c for i, c in enumerate(vec) if c})


def ref_descend_coprime(n, p, vec):
    m = n // p
    u = pow(m, -1, p)
    w = pow(p, -1, m) if m > 1 else 0
    parts = [{} for _ in range(p)]
    for i, c in enumerate(vec):
        if c:
            parts[u * i % p][w * i % m] = c
    last = ref_reduce(m, parts[-1])
    for part in parts[1:-1]:
        if ref_reduce(m, part) != last:
            return None
    return [a - b for a, b in zip(ref_reduce(m, parts[0]), last)]


def ref_canonical(n, terms):
    """(conductor, Fraction coordinates there) by prime descent."""
    vec = ref_reduce(n, {int(e): Fraction(c) for e, c in terms.items()})
    if not any(vec[1:]):
        return 1, (vec[0],)
    for p in sorted(factorize(n)):
        while n % p == 0:
            m = n // p
            if m % p == 0:
                if any(any(vec[r::p]) for r in range(1, p)):
                    break
                vec = vec[::p]
            else:
                sub = ref_descend_coprime(n, p, vec)
                if sub is None:
                    break
                vec = sub
            n = m
    return n, tuple(vec)


def ref_galois_apply(form, k):
    order, vec = form
    return form if order == 1 else (order, tuple(ref_apply_unit(order, vec, k % order)))


def ref_integer_lift(forms, n):
    scale = math.lcm(1, *(c.denominator for _, vec in forms for c in vec))
    return scale, tuple(
        tuple((i * (n // order), c.numerator * (scale // c.denominator))
              for i, c in enumerate(vec) if c)
        for order, vec in forms)


def former_integer_lift(values, n):
    """integer_lift as a formula of its own, from before it read _terms_at."""
    scale = math.lcm(*(z._den for z in values))
    return scale, tuple(tuple((i * (n // z.order), c * (scale // z._den))
                              for i, c in enumerate(z._num) if c) for z in values)


def nonzero(vec):
    return {i: c for i, c in enumerate(vec) if c}


def cleared(terms):
    """(D, D * terms): the terms over their least common denominator D."""
    d = math.lcm(*(Fraction(c).denominator for c in terms.values()))
    return d, {e: int(c * d) for e, c in terms.items()}


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
    vec = ref_reduce(n, terms)
    if n == 1:
        return 1, (vec[0],)
    if not any(vec):
        return 1, (_ZERO,)
    units = units_mod(n)
    stab = {1}
    for k in units:
        if k != 1 and ref_apply_unit(n, vec, k) == vec:
            stab.add(k)
    if len(stab) == len(units):
        return 1, (vec[0],)
    for d in divisors(n)[1:-1]:
        if all(k in stab for k in units if k % d == 1):
            step = n // d
            cols = [ref_reduce(n, {(j * step) % n: Fraction(1)}) for j in range(totient(d))]
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
    # _canonical runs on integers: the terms over their common denominator
    # D give D times the reference coordinates
    n, terms = case
    d, ints = cleared(terms)
    order, vec = reference_canonical(n, terms)
    assert _canonical(n, ints.items()) == (order, tuple(c * d for c in vec))


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13, 31])
def test_canonical_at_prime_n(n):
    for k in range(n):
        terms = {k: 1, 0: 2}
        assert _canonical(n, terms.items()) == reference_canonical(n, terms)
    ring = {k: 1 for k in range(1, n)}  # -1 in disguise
    assert _canonical(n, ring.items()) == reference_canonical(n, ring) == (1, (-1,))


def test_canonical_of_every_root_of_unity_up_to_40():
    for n in range(1, 41):
        for k in range(n):
            assert _canonical(n, [(k, 1)]) == reference_canonical(n, {k: Fraction(1)})


@st.composite
def oracle_terms(draw):
    """(n, terms) with n <= 60 and Fraction coefficients; exponents run
    past n and repeat modulo n, and some inputs are summed over a
    subgroup of (Z/n)^* so that they fall to a proper subfield."""
    n = draw(st.integers(1, 60))
    terms: dict[int, Fraction] = {}
    for _ in range(draw(st.integers(0, 6))):
        e = draw(st.integers(0, n - 1)) + n * draw(st.integers(0, 2))
        c = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 12)))
        terms[e] = terms.get(e, _ZERO) + c
    if n > 1 and draw(st.booleans()):
        k = draw(st.sampled_from(units_mod(n)))
        orbit = [1]
        while orbit[-1] * k % n != 1:
            orbit.append(orbit[-1] * k % n)
        terms = {e * g: c for g in orbit for e, c in terms.items()}
    return n, terms


@given(oracle_terms(), oracle_terms(), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_integer_kernel_matches_fraction_kernel(case, other, mult):
    n, terms = case
    z = CyclotomicNumber.make(n, terms)
    form = ref_canonical(n, terms)
    order, vec = form
    assert z.order == order and z.coeffs == nonzero(vec)
    num, den = z._num, z._den
    assert len(num) == len(vec) and den >= 1 and math.gcd(den, *num) == 1
    assert all(type(c) is int for c in (*num, den))
    for k in units_mod(order):
        assert galois_apply(z, k).coeffs == nonzero(ref_galois_apply(form, k)[1]), k
    y = CyclotomicNumber.make(*other)
    lift_at = math.lcm(z.order, y.order) * mult
    assert integer_lift([z, y], lift_at) == ref_integer_lift(
        [form, ref_canonical(*other)], lift_at)
    assert integer_lift([z, y], lift_at) == former_integer_lift([z, y], lift_at)
    # the same value built other ways is equal and hashes equal
    for same in (CyclotomicNumber.make(2 * n, {2 * e: c for e, c in terms.items()}),
                 CyclotomicNumber.make(n, {e: 2 * c for e, c in terms.items()}) * Fraction(1, 2),
                 z + 0, -(-z), z * 1):
        assert same == z and hash(same) == hash(z)
    if z.is_rational:
        q = z.rational_value
        assert z == q and hash(z) == hash(q) and {z} == {q}
    half = CyclotomicNumber.make(n, {n * mult: Fraction(2, 4)})
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))


@given(st.integers(1, 60).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(-3 * n, 3 * n), st.integers(-9, 9)), max_size=12))))
@example((1, []))
@example((1, [(0, 2), (-4, 3), (7, -1)]))
@example((12, []))
@example((12, [(5, 1), (17, 1), (-7, -2), (5, 4)]))
@settings(max_examples=300, deadline=None)
def test_reduce_terms_matches_the_reference_on_the_merged_map(case):
    # exponents repeat, run negative and past n, and streams may be empty:
    # the terms add up as the exponent -> coefficient map merged from them
    n, pairs = case
    merged: dict[int, int] = {}
    for e, c in pairs:
        merged[e % n] = merged.get(e % n, 0) + c
    want = ref_reduce(n, merged)
    assert reduce_terms(n, pairs) == want
    assert reduce_terms(n, iter(pairs), power_reductions(n)) == want
    assert integer_lift([], n) == former_integer_lift([], n) == (1, ())


def test_rational_values_hash_as_the_int_or_fraction_they_equal():
    assert len({CyclotomicNumber.rational(1), 1}) == 1
    assert 1 in {CyclotomicNumber.rational(1)}
    assert Fraction(1, 2) in {zeta(2) * Fraction(-1, 2)}
    for a in range(-24, 25):
        for b in range(1, 13):
            q = Fraction(a, b)
            ways = (CyclotomicNumber.rational(q),
                    CyclotomicNumber.make(12, {0: Fraction(2 * a, 2 * b)}),
                    value_from_obj(f"{a}/{b}"),
                    value_from_obj({"n": 6, "coeffs": {"6": f"{a}/{b}"}}),
                    CyclotomicNumber.make(5, {k: -q for k in range(1, 5)}))
            for z in ways:
                assert z == q and hash(z) == hash(q)
                assert z in {q} and q in {z} and len({z, q}) == 1
                if b == 1 or a % b == 0:
                    assert z == a // b and hash(z) == hash(a // b) and a // b in {z}


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


NUMERALS = ["0", "-0", "+5", "007", "-12", "12345678901234567890", "", "+", "-", "+-5",
            "--5", "+ 5", "1e3", "1E-2", "1.5", ".5", "5.", "-1/2", "2/4", "1/0", "1/2/3",
            "0x10", "abc", " 5", "5 ", "1_0", "\u0663", "\u00b2"]


def _outcome(read):
    try:
        return read()
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("text", NUMERALS)
def test_numerals_read_as_fraction_reads_them(text):
    # integer numerals are read by int, the rest by Fraction: a cell or a
    # coefficient gives the value, or the refusal text, that Fraction gives
    def by_fraction(build, what, obj):
        try:
            return build(Fraction(_plain(text)))
        except (ValueError, ZeroDivisionError) as exc:
            return f"bad {what} {obj!r}: {exc}"
    obj = {"n": 4, "coeffs": {"1": text}}
    assert _outcome(lambda: value_from_obj(text)) == by_fraction(
        CyclotomicNumber.rational, "rational literal", text)
    assert _outcome(lambda: value_from_obj(obj)) == by_fraction(
        lambda c: CyclotomicNumber.make(4, {1: c}), "cyclotomic object", obj)
