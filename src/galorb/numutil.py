"""Exact number-theory helpers shared across the package.

Everything here is integer arithmetic: factorization by trial division with
a Pollard rho fallback, Miller-Rabin that is exact below psi_13 (about
3.3 * 10**24) and refuses larger inputs, unit groups mod m, and the one
square-and-multiply (power) for any associative product.  No floats.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

from .errors import ResourceLimitError

# Miller-Rabin witnesses: the first 13 primes decide every n below the
# least strong pseudoprime to all of them, psi_13 (Sorenson and Webster,
# Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < 3317044064679887385961981; larger n are refused."""
    if n >= _MR_LIMIT:
        raise ResourceLimitError(
            f"is_prime({n}): Miller-Rabin with bases 2..41 is exact only below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # wheel over 6k +- 1 up to 2**16, then rho on what remains
    f = 7
    incs = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n and f < 1 << 16:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += incs[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def power(base, e: int, mul, one):
    """base^e under the associative product mul with identity one; the
    last squaring is never formed, so e >= 1 takes bit_length(e) +
    popcount(e) - 1 calls to mul, the first product with one among them."""
    if e < 0:
        raise ValueError("power expects a nonnegative exponent")
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


@lru_cache(maxsize=None)
def totient(m: int) -> int:
    """Euler phi of m >= 1."""
    if m < 1:
        raise ValueError("totient expects a positive integer")
    result = m
    for p in factorize(m):
        result -= result // p
    return result


@lru_cache(maxsize=None)
def units_mod(m: int) -> tuple[int, ...]:
    """Canonical residues of (Z/mZ)^*, ascending.  units_mod(1) == (0,)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    if m == 1:
        return (0,)
    # strike out the multiples of each prime factor of m, 0 among them
    unit = bytearray(b"\x01") * m
    for p in factorize(m):
        unit[::p] = bytes(len(range(0, m, p)))
    return tuple(compress(range(m), unit))


def is_prime_power(q: int) -> tuple[int, int] | None:
    """(p, k) with q == p**k, or None when q is not a prime power >= 2."""
    if q < 2:
        return None
    f = factorize(q)
    if len(f) != 1:
        return None
    (p, k), = f.items()
    return p, k


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q with 2 <= q <= limit, ascending."""
    return [q for q in range(2, limit + 1) if is_prime_power(q)]
