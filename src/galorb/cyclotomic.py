"""Exact arithmetic with cyclotomic numbers.

A value is a finite rational combination of N-th roots of unity.  The
canonical form stores integer numerators over one positive denominator,
in lowest terms, on the power basis z^0 .. z^(phi(N)-1) of Q(zeta_N),
obtained by reducing modulo the N-th cyclotomic polynomial, and N itself
is lowered to the conductor: the least N' such that the value lies in
Q(zeta_N').  Canonical forms are unique, so equality is structural, and
the hash is taken once per value.  The arithmetic runs on integers only;
no floating point is used anywhere in it.

The conductor is found by prime descent, with no Galois action and no
linear solve: a value is rational when its coordinates past the first
vanish; otherwise N drops one prime p at a time while the value stays in
Q(zeta_{N/p}).  For p^2 | N that is a test on the coordinates off the
multiples of p; for p || N the value is split along zeta_N = zeta_p^u
zeta_{N/p}^w and read off over Q(zeta_{N/p}) (see _descend_coprime).

Phi_N is a quotient of products of binomials x^d - 1; the one cache is
_power_reductions, the rows x^k mod Phi_N that canonical forms read.

reduce_terms folds every sum, a stream of (exponent, integer) terms.
integer_lift gives a batch of values as terms at a common multiple of
their conductors, for sums that need no canonical form until the end.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, ResourceLimitError, read_rational
from .numutil import factorize, power, totient, units_mod

# largest root-of-unity order a parsed value may name; canonicalising at
# order n stores phi(n) coefficients and up to (n - phi(n)) phi(n) reductions
MAX_ROOT_ORDER = 1024


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending:
    the product of (x^d - 1)^mu(n/d) over d = n / (a product of distinct
    primes of n).  For n > 1 the exponents sum to 0, so 1 - x^d serves as
    well, and modulo x^(phi(n)+1) multiplying by it is a shifted
    subtraction, dividing a running sum.  Uncached: _power_reductions is."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    top = totient(n)
    num, den = [n], []    # d with mu(n/d) = 1 and = -1
    for p in factorize(n):
        num, den = num + [d // p for d in den], den + [d // p for d in num]
    poly = [1] + [0] * top
    for d in num:
        for i in range(top, d - 1, -1):
            poly[i] -= poly[i - d]
    for d in den:
        for i in range(d, top + 1):
            poly[i] += poly[i - d]
    return tuple(poly)


def power_reductions(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows r[k - phi(n)] give x^k mod Phi_n for phi(n) <= k < n; built
    on every call, (n - phi(n)) phi(n) integers."""
    phi = totient(n)
    base = [-c for c in cyclotomic_polynomial(n)[:-1]]
    rows = [tuple(base)]
    cur = base
    for _ in range(phi + 1, n):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [a + lead * b for a, b in zip(cur, base)]
        rows.append(tuple(cur))
    return tuple(rows)


# the module's one cache, for canonical forms (orders <= MAX_ROOT_ORDER when parsed)
_power_reductions = lru_cache(maxsize=None)(power_reductions)


def reduce_terms(n: int, terms, red=None) -> list[int]:
    """Power-basis coordinates in Q(zeta_n) of the sum of c zeta_n^e over
    the integer terms (e, c), e read mod n; two sums are equal exactly when
    these are.  red is power_reductions(n), from the cache if not given."""
    if n == 1:
        return [sum(c for _, c in terms)]
    phi = totient(n)
    vec = [0] * phi
    for e, c in terms:
        if not c:
            continue
        e %= n
        if e < phi:
            vec[e] += c
        else:
            if red is None:
                red = _power_reductions(n)
            for i, b in enumerate(red[e - phi]):
                if b:
                    vec[i] += c * b
    return vec


def _descend_coprime(n: int, p: int, vec: list[int]) -> list[int] | None:
    """Coordinates in Q(zeta_{n/p}) of a value of Q(zeta_n), p || n, or
    None when the value does not lie there.

    Grouping by the zeta_p factor writes the value as sum_a zeta_p^a y_a
    with y_a in Q(zeta_{n/p}).  Over that field 1, zeta_p, ...,
    zeta_p^(p-2) is a basis and zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)),
    so the value lies in Q(zeta_{n/p}) exactly when y_1 = ... = y_(p-1),
    and is then y_0 - y_(p-1).  For p = 2 that is always the case.  With
    m = n/p and u m + w p = 1 (mod n), zeta_n^i = zeta_p^(u i) zeta_m^(w i)."""
    m = n // p
    u = pow(m, -1, p)
    w = pow(p, -1, m) if m > 1 else 0
    parts: list[list[tuple[int, int]]] = [[] for _ in range(p)]
    for i, c in enumerate(vec):
        if c:
            parts[u * i % p].append((w * i, c))
    last = reduce_terms(m, parts[-1])
    for part in parts[1:-1]:
        if reduce_terms(m, part) != last:
            return None
    return [a - b for a, b in zip(reduce_terms(m, parts[0]), last)]


def _canonical(n: int, terms) -> tuple[int, tuple[int, ...]]:
    """Conductor and power-basis coordinates there, by prime descent.

    The value is rational exactly when its coordinates 1.. vanish.
    Otherwise n is lowered one prime p at a time while the value stays
    in the smaller field: for p^2 | n the power basis of Q(zeta_n) is
    zeta_{n/p}^a zeta_n^r (r < p), so the value lies in Q(zeta_{n/p})
    exactly when its coordinates off the multiples of p vanish, and
    vec[::p] is its vector there; for p || n see _descend_coprime.  The
    fields Q(zeta_d) holding the value are those with conductor | d, so
    the descent ends at the conductor whatever the order of the primes."""
    vec = reduce_terms(n, terms)
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
                sub = _descend_coprime(n, p, vec)
                if sub is None:
                    break
                vec = sub
            n = m
    return n, tuple(vec)


class FieldClass(enum.Enum):
    """Coarse classification of the field generated by a batch of values."""

    RATIONAL = "Rational"
    IMAGINARY_QUADRATIC = "ImaginaryQuadratic"
    REAL_NONRATIONAL = "RealNonRational"
    OTHER_COMPLEX = "OtherComplex"

    @classmethod
    def of(cls, degree: int, real: bool) -> "FieldClass":
        """Class of a subfield of a cyclotomic field from its degree over
        Q and whether it is fixed by complex conjugation."""
        if degree == 1:
            return cls.RATIONAL
        if real:
            return cls.REAL_NONRATIONAL
        if degree == 2:
            return cls.IMAGINARY_QUADRATIC
        return cls.OTHER_COMPLEX


class CyclotomicNumber:
    """Immutable element of some Q(zeta_N), always in canonical form:
    order is the conductor N, and the value is sum_i num[i] zeta_N^i / den
    with integer numerators on the power basis, den >= 1 and
    gcd(den, *num) = 1.  The hash is taken once, when the value is built;
    a rational value hashes as the int or Fraction it equals."""

    __slots__ = ("order", "_num", "_den", "_hash")

    def __init__(self, order: int, num: tuple[int, ...] | list[int], den: int = 1):
        """num / den in lowest terms, num canonical at the conductor order."""
        g = math.gcd(den, *num)
        if g > 1:
            num, den = [c // g for c in num], den // g
        put = object.__setattr__
        put(self, "order", order)
        put(self, "_num", num := tuple(num))
        put(self, "_den", den)
        put(self, "_hash", hash((order, num, den) if order > 1 else Fraction(num[0], den)))

    def __setattr__(self, *a):
        raise AttributeError("CyclotomicNumber is immutable")

    @staticmethod
    def make(n: int, terms: dict[int, Fraction | int]) -> "CyclotomicNumber":
        """Value sum_k c_k zeta_n^k, canonicalized over one common denominator."""
        if n < 1:
            raise InputError("root-of-unity order must be positive")
        clean = {int(e): c if type(c) is int else Fraction(c) for e, c in terms.items()}
        den = math.lcm(*(c.denominator for c in clean.values()))
        return CyclotomicNumber(*_canonical(n, [(e, c.numerator * (den // c.denominator))
                                                for e, c in clean.items()]), den)

    @staticmethod
    def rational(x) -> "CyclotomicNumber":
        x = x if type(x) is int else Fraction(x)
        return CyclotomicNumber(1, (x.numerator,), x.denominator)

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """Nonzero power-basis coefficients at the conductor."""
        return {i: Fraction(c, self._den) for i, c in enumerate(self._num) if c}

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    @property
    def rational_value(self) -> Fraction:
        if self.order != 1:
            raise InputError(f"{self!r} is not rational")
        return Fraction(self._num[0], self._den)

    @property
    def is_integer(self) -> bool:
        return self.order == 1 and self._den == 1

    def sort_key(self):
        """Total order on canonical forms.  The package itself orders no
        values by it: character tables compare rows and columns as tuples
        of value ids."""
        return (self.order, tuple((i, c.numerator, c.denominator) for i, c in
                                  enumerate(Fraction(c, self._den) for c in self._num)))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.order == 1 and (*self._num, self._den) == other.as_integer_ratio()
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (self.order, self._den, self._num) == (other.order, other._den, other._num)

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return any(self._num)

    def _terms_at(self, n: int, scale: int = 1) -> list[tuple[int, int]]:
        """Terms (k, c) of scale * self = sum c zeta_n^k."""
        step = n // self.order
        return [(i * step, c * scale) for i, c in enumerate(self._num) if c]

    @staticmethod
    def _coerce(x) -> "CyclotomicNumber":
        if isinstance(x, CyclotomicNumber):
            return x
        if isinstance(x, (int, Fraction)):
            return CyclotomicNumber.rational(x)
        raise TypeError(f"cannot mix CyclotomicNumber with {type(x).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        n = math.lcm(self.order, other.order)
        den = math.lcm(self._den, other._den)
        terms = self._terms_at(n, den // self._den) + other._terms_at(n, den // other._den)
        return CyclotomicNumber(*_canonical(n, terms), den)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        den = self._den * other._den
        if other.order == 1:
            c = other._num[0]
            if not c:
                return CyclotomicNumber.rational(0)
            return CyclotomicNumber(self.order, [v * c for v in self._num], den)
        if self.order == 1:
            return other * self
        n = math.lcm(self.order, other.order)
        b = other._terms_at(n)
        terms = [(e1 + e2, c1 * c2) for e1, c1 in self._terms_at(n) for e2, c2 in b]
        return CyclotomicNumber(*_canonical(n, terms), den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise InputError("negative powers are not supported")
        return power(self, k, operator.mul, CyclotomicNumber.rational(1))

    def __repr__(self):
        if self.order == 1:
            return f"Cyc({self.rational_value})"
        inner = ", ".join(f"{i}: {c}" for i, c in self.coeffs.items())
        return f"Cyc(n={self.order}, {{{inner}}})"


def zeta(n: int, k: int = 1) -> CyclotomicNumber:
    """The root of unity zeta_n^k."""
    return CyclotomicNumber.make(n, {k: 1})


def galois_apply(z: CyclotomicNumber, k: int) -> CyclotomicNumber:
    """Image of z under the field map zeta -> zeta^k.

    k must be coprime to the conductor of z; the map is applied as k mod
    conductor, so a residue modulo any multiple of the conductor is fine.
    """
    n = z.order
    if n == 1:
        return z
    k %= n
    if math.gcd(k, n) != 1:
        raise InputError(f"galois_apply needs gcd(k, {n}) = 1, got k = {k}")
    vec = reduce_terms(n, [(k * i, c) for i, c in enumerate(z._num) if c])
    return CyclotomicNumber(n, vec, z._den)  # canonical: conductors are Galois-invariant


def conjugate(z: CyclotomicNumber) -> CyclotomicNumber:
    """Complex conjugation, the Galois map zeta -> zeta^(-1)."""
    return galois_apply(z, -1)


def field_class(values) -> FieldClass:
    """Classify the field generated over Q by a batch of values."""
    vals = [CyclotomicNumber._coerce(v) for v in values]
    if not vals:
        raise InputError("field_class needs at least one value")
    n = math.lcm(*(v.order for v in vals))
    if n == 1:
        return FieldClass.RATIONAL
    units = units_mod(n)
    stab = sum(1 for k in units if all(galois_apply(v, k) == v for v in vals))
    return FieldClass.of(len(units) // stab, all(conjugate(v) == v for v in vals))


# -- integer lifts --------------------------------------------------------

def integer_lift(values, n: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """Put values on integers at n, a common multiple of their
    conductors: returns the common denominator D of their coefficients,
    and for each value the terms (k, c) of D * value = sum c zeta_n^k,
    all c integers."""
    scale = math.lcm(*(z._den for z in values))
    return scale, tuple(tuple(z._terms_at(n, scale // z._den)) for z in values)


# -- text encoding ------------------------------------------------------

def value_from_obj(obj) -> CyclotomicNumber:
    """Parse one cell: an int, a rational string such as "-1/2", or
    {"n": N, "coeffs": {"e": "c", ...}} for the sum of c zeta_N^e: N an
    integer, exponents distinct integer strings (equal mod N, they add
    up), coefficients integers or rational strings, never floats; strings
    are read by errors.read_rational.  ResourceLimitError for a
    root-of-unity order above MAX_ROOT_ORDER."""
    if isinstance(obj, bool):
        raise InputError("boolean is not a cyclotomic value")
    if isinstance(obj, (int, str)):
        try:
            return CyclotomicNumber.rational(read_rational(obj))
        except InputError as exc:
            raise InputError(f"bad rational literal {obj!r}: {exc}") from None
    if isinstance(obj, dict):
        try:
            n, coeffs = obj["n"], obj["coeffs"]
            if type(n) is not int:
                raise TypeError(f"n must be an integer, not {type(n).__name__}")
            if not isinstance(coeffs, dict):
                raise TypeError(f"coeffs must be an object, not {type(coeffs).__name__}")
            if not all(type(c) is int or isinstance(c, str) for c in coeffs.values()):
                raise TypeError("coefficients must be integers or rational strings")
            terms = {read_rational(e): read_rational(c) for e, c in coeffs.items()}
            if len(terms) < len(coeffs) or any(type(k) is not int for k in terms):
                raise TypeError("exponents must be distinct integers")
        except (KeyError, TypeError, InputError) as exc:
            raise InputError(f"bad cyclotomic object {obj!r}: {exc}") from None
        if n > MAX_ROOT_ORDER:
            raise ResourceLimitError(
                f"root-of-unity order is limited to n <= {MAX_ROOT_ORDER}; n = {n} given")
        return CyclotomicNumber.make(n, terms)
    raise InputError(f"cannot parse cyclotomic value from {type(obj).__name__}")
