"""Matrix groups over small finite fields, exactly.

Field elements are integers 0..q-1 encoding coefficient vectors over
the prime field in base p (see FiniteField).  On one set of polynomial
helpers over GF(q) (`_fpoly_*`), `_factor_degrees` is the one routine
for x^(q^d) - x: its factor degrees give element orders, the irreducible
polynomials (`_irreducibles`) and the one primitive-polynomial search
(`_primitive_poly`, least encoded value) behind both the fields GF(p^k)
and the Singer elements.  Products (`_dot`) and characteristic
polynomials (`char_polys`) run on numpy stacks of matrices, each field
operation a gather from per-field tables.  On top of that: Singer
elements as companion matrices, and the count of characteristic
polynomials among coprime powers behind class-count lower bounds.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from functools import lru_cache, partial

import numpy as np

from .errors import InputError, ResourceLimitError, read_json_object
from .numutil import factorize, is_prime, is_prime_power, power
from .permgroup import GroupSpec

MAX_FIELD = 512
MAX_DIM = 12    # keeps every q^d - 1 we must factor within easy reach
MAX_ELEMENT_ORDER = 100_000    # default bound on an element's order
SEARCH_ATTEMPTS = 100    # elements random_element_search tests
_BLOCK = 1 << 10    # exponents per block of the coprime-power count
_Tables = namedtuple("_Tables", "add sub mul inv")


class FiniteField:
    """GF(p^k) on integer-encoded elements.

    Element v encodes the coefficient vector of its base-p digits.  The
    generator of GF(p) is its largest primitive root (the root of x + c
    for the least c); for k >= 2 it is x modulo the least-encoded
    primitive polynomial of degree k over GF(p).  Multiplication goes
    through exp/log tables of the generator's powers; addition and
    negation through a q x q table built once from the digits.
    """

    __slots__ = ("p", "k", "q", "poly", "exp", "log", "_add", "_neg")

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = q = p ** k
        if k == 1:
            gen = next(g for g in range(p - 1, 0, -1)
                       if all(pow(g, (p - 1) // r, p) != 1 for r in factorize(p - 1)))
            self.poly = (p - gen,)    # x + c with root gen, as files quote it
            powers = [pow(gen, i, p) for i in range(p - 1)]
        else:
            Fp = finite_field(p)
            self.poly = _primitive_poly(k, p)
            f = self.poly + (1,)
            powers = []
            cur = (1,)
            for _ in range(q - 1):
                powers.append(sum(c * p ** j for j, c in enumerate(cur)))
                cur = _fpoly_mulmod(Fp, cur, (0, 1), f)
            assert cur == (1,), "generator order is not q - 1"
        log = [0] * q
        for i, v in enumerate(powers):
            log[v] = i
        self.exp = tuple(powers)
        self.log = tuple(log)
        # addition is digit-wise mod p: each higher digit splits the
        # table into p x p blocks, each a copy of the table below it
        digit_sum = np.add.outer(np.arange(p), np.arange(p)) % p
        table = np.zeros((1, 1), dtype=np.int64)
        for j in range(k):
            n = p ** j
            table = (digit_sum[:, None, :, None] * n
                     + table[None, :, None, :]).reshape(n * p, n * p)
        # cells share one int object per element (tolist makes one per
        # cell above 256): GF(512) keeps 2 MB of table instead of 6 MB
        elems = tuple(range(q))
        self._add = tuple(tuple(map(elems.__getitem__, row)) for row in table.tolist())
        self._neg = tuple(row.index(0) for row in self._add)

    # element operations (integers 0..q-1)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self._neg[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[-self.log[a] % (self.q - 1)]

    @property
    def generator(self) -> int:
        return self.exp[1 % (self.q - 1)]

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=32)
def finite_field(q: int) -> FiniteField:
    if q < 2 or q > MAX_FIELD:
        raise InputError(f"field size must be in 2..{MAX_FIELD}, got {q}")
    pk = is_prime_power(q)
    if pk is None:
        raise InputError(f"{q} is not a prime power")
    return FiniteField(*pk)


# -- matrices -----------------------------------------------------------


class Matrix:
    """Immutable square matrix over a FiniteField."""

    __slots__ = ("field", "rows")

    def __init__(self, field: FiniteField, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise InputError("matrix must be square")
        if any(not (0 <= v < field.q) for r in rows for v in r):
            raise InputError(f"entries must be encoded field elements 0..{field.q - 1}")
        self.field = field
        self.rows = rows

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=int).tolist())

    @property
    def n(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field.q == other.field.q
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field.q, self.rows))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows!r})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        # every GF(q) is built the same way, so its size names it
        if self.field.q != other.field.q or self.n != other.n:
            raise InputError("matrix shapes or fields differ")
        return Matrix(self.field, _dot(_tables(self.field), self._array(), other._array()).tolist())

    def pow(self, e: int) -> "Matrix":
        if e < 0:
            raise InputError("negative matrix powers are not supported")
        mul, one = partial(_dot, _tables(self.field)), np.eye(self.n, dtype=np.intp)
        return Matrix(self.field, power(self._array(), e, mul, one).tolist())

    def _array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.intp).reshape(self.n, self.n)

    @property
    def is_identity(self) -> bool:
        return self == Matrix.identity(self.field, self.n)


@lru_cache(maxsize=4)
def _tables(F: FiniteField) -> _Tables:
    """Read-only q x q tables of F's add, sub and mul, and its inverses
    with inv[0] = 0 (a zero pivot scales by zero), from F's own
    operations: products by exp/log, sums by a + b = a (1 + b/a)."""
    elems = range(F.q)
    log = np.array(F.log)
    mul = np.array(F.exp * 2, dtype=np.intp)[log[:, None] + log]
    mul[0] = mul[:, 0] = 0
    inv = np.array([0, *map(F.inv, elems[1:])], dtype=np.intp)
    add = mul[np.arange(F.q)[:, None], np.array([F.add(1, x) for x in elems])[mul[inv]]]
    add[0] = elems
    tables = _Tables(add, add[:, [F.neg(x) for x in elems]], mul, inv)
    for table in tables:
        table.flags.writeable = False
    return tables


def _dot(T: _Tables, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked products A @ B over the field of T, summed over l one slice
    at a time: each step gathers the terms a_il b_lj of one l and adds
    them in, so no temporary holds more than one term per entry."""
    if not A.shape[-1]:    # empty sums
        return np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                        + (A.shape[-2], B.shape[-1]), dtype=np.intp)
    out = T.mul[A[..., :1], B[..., :1, :]]
    for l in range(1, A.shape[-1]):
        out = T.add[out, T.mul[A[..., l:l + 1], B[..., l:l + 1, :]]]
    return out


def char_polys(F: FiniteField, mats) -> np.ndarray:
    """Monic characteristic polynomials of a (b, n, n) stack over F, one
    row of n + 1 ascending encoded coefficients per matrix: Hessenberg
    reduction, a pivot per matrix, then the leading-minor recurrence."""
    T = _tables(F)
    H = np.array(mats, dtype=np.intp)
    b, n = H.shape[0], H.shape[-1]
    rows = np.arange(b)
    for j in range(n - 2):
        # a nonzero below row j of column j swaps into row j + 1, then
        # H -> L H L^-1, L = I - sum t_i e_i e_(j+1)^T, clears the rest
        piv = j + 1 + np.argmax(H[:, j + 1:, j] != 0, axis=1)
        H[rows, j + 1], H[rows, piv] = H[rows, piv], H[rows, j + 1]
        H[rows, :, j + 1], H[rows, :, piv] = H[rows, :, piv], H[rows, :, j + 1]
        t = T.mul[H[:, j + 2:, j], T.inv[H[:, j + 1, j]][:, None]]
        H[:, j + 2:] = T.sub[H[:, j + 2:], T.mul[t[:, :, None], H[:, j + 1, None]]]
        H[:, :, j + 1] = T.add[H[:, :, j + 1], _dot(T, H[:, :, j + 2:], t[:, :, None])[..., 0]]
    # p_m = x p_(m-1) - sum over k <= m of h_(k-1,m-1) beta_k p_(k-1), with
    # beta_k = h_(k,k-1) ... h_(m-1,m-2) (beta_m = 1: column m - 1 of beta)
    P = np.zeros((b, n + 1, n + 1), dtype=np.intp)
    P[:, 0, 0] = 1
    beta = np.ones((b, n), dtype=np.intp)
    for m in range(1, n + 1):
        P[:, m, 1:] = P[:, m - 1, :-1]
        beta[:, :m - 1] = T.mul[beta[:, :m - 1], H[:, m - 1, m - 2, None]]
        coef = T.mul[H[:, :m, m - 1], beta[:, :m]]
        P[:, m] = T.sub[P[:, m], _dot(T, coef[:, None], P[:, :m])[:, 0]]
    return P[:, n]


def char_poly(M: Matrix) -> tuple[int, ...]:
    """Monic characteristic polynomial, ascending encoded coefficients."""
    return tuple(char_polys(M.field, [M._array()])[0].tolist())


# -- polynomial helpers over the field (field tables, orders, searches) --


def _fpoly_divmod(F: FiniteField, a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = F.inv(lb)
    quo = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            t = F.mul(c, inv)
            quo[i - db] = t
            for j in range(db + 1):
                a[i - db + j] = F.sub(a[i - db + j], F.mul(t, b[j]))
    while a and a[-1] == 0:
        a.pop()
    return tuple(quo), tuple(a)


def _fpoly_gcd(F: FiniteField, a, b):
    while b:
        _, a = _fpoly_divmod(F, a, b)
        a, b = b, a
    if a:
        inv = F.inv(a[-1])
        a = tuple(F.mul(c, inv) for c in a)
    return a


def _fpoly_mulmod(F: FiniteField, a, b, f):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _fpoly_divmod(F, out, f)[1]


def _fpoly_powmod(F: FiniteField, base, e, f):
    return power(base, e, lambda a, b: _fpoly_mulmod(F, a, b, f), (1,))


def _factor_degrees(F: FiniteField, f):
    """Yield the distinct degrees of the monic f's irreducible factors,
    ascending.  The one place x^(q^d) - x is formed: its gcd with what is
    left of f collects the factors of degree d, since ascending d has
    stripped every smaller degree.  x^(q^d) is the q-th power of
    x^(q^(d-1)), and a remainder of degree below 2d is irreducible."""
    rem, xq, d = f, (0, 1), 1
    while len(rem) > 1:
        if len(rem) - 1 < 2 * d:
            yield len(rem) - 1
            return
        xq = _fpoly_powmod(F, xq, F.q, rem)
        diff = list(xq) + [0] * (2 - len(xq))
        diff[1] = F.sub(diff[1], 1)    # x^(q^d) - x, trimmed by the gcd's first division
        g = _fpoly_gcd(F, diff, rem)
        if len(g) > 1:
            yield d
        while len(g) > 1:    # strips repeated factors too
            rem = _fpoly_divmod(F, rem, g)[0]
            g = _fpoly_gcd(F, rem, g)
        d += 1


def _irreducibles(F: FiniteField, n: int):
    """Yield the monic irreducible polynomials of degree n over F, with
    the leading 1, in ascending encoded value (sum of f_i q^i): those
    whose first factor degree is n."""
    for high in itertools.product(range(F.q), repeat=n):
        f = high[::-1] + (1,)
        if next(_factor_degrees(F, f)) == n:
            yield f


def element_order(M: Matrix, bound: int = MAX_ELEMENT_ORDER) -> int:
    """Exact multiplicative order via the factor degrees of the
    characteristic polynomial: the order divides
    p^ceil(log_p n) * lcm(q^d - 1) over the irreducible factor degrees
    d, and trial stripping of that multiple pins it down.  The exact
    order is cached per matrix; the bound is checked on every call."""
    order = _exact_order(M)
    check_order(order, bound)
    return order


def check_order(order: int, bound: int, what: str = "order") -> None:
    """ResourceLimitError, naming the flag that raises the bound, when
    order exceeds bound."""
    if order > bound:
        raise ResourceLimitError(
            f"{what} {order} exceeds the bound {bound}; raise it with --max-order")


@lru_cache(maxsize=256)
def _exact_order(M: Matrix) -> int:
    F, n = M.field, M.n
    if n > MAX_DIM:
        raise ResourceLimitError(
            f"order computation supports dimension up to {MAX_DIM}, got {n}")
    f = char_poly(M)
    if f[0] == 0:
        raise InputError("matrix is singular; no multiplicative order")

    multiple = 1    # p^ceil(log_p n), then the lcm of the q^d - 1
    while multiple < n:
        multiple *= F.p
    primes = {F.p}
    for d in _factor_degrees(F, f):
        sub = F.q ** d - 1
        multiple = math.lcm(multiple, sub)
        primes.update(factorize(sub))

    order = multiple
    for r in sorted(primes):
        while order % r == 0 and M.pow(order // r).is_identity:
            order //= r
    assert M.pow(order).is_identity
    return order


# -- Singer elements and power-coprime invariants -----------------------


def _primitive_poly(n: int, q: int) -> tuple[int, ...]:
    """Primitive degree-n polynomial over GF(q), least encoded value,
    ascending coefficients without the leading 1; the one search for both
    field extensions and Singer elements.  It is the first of
    `_irreducibles` with f(0) != 0 in which x has order q^n - 1: no
    x^((q^n - 1)/r) is 1 mod f for a prime r dividing q^n - 1."""
    F = finite_field(q)
    target = q ** n - 1
    primes = factorize(target)
    return next(f[:-1] for f in _irreducibles(F, n)
                if f[0] and all(_fpoly_powmod(F, (0, 1), target // r, f) != (1,) for r in primes))


def singer_element(n: int, q: int, bound: int = MAX_ELEMENT_ORDER) -> Matrix:
    """Companion matrix of a primitive polynomial: a cyclic generator
    of order q^n - 1 inside the invertible n x n matrices.  That order is
    checked against bound, like `element_order`'s, before the search for
    the polynomial."""
    if n < 1 or n > MAX_DIM:
        raise InputError(f"dimension must be in 1..{MAX_DIM}, got {n}")
    F = finite_field(q)
    check_order(q ** n - 1, bound)
    return Matrix(F, _companion(_tables(F), _primitive_poly(n, q) + (1,)).tolist())


def _companion(T: _Tables, f) -> np.ndarray:
    """Companion matrix of the monic f: -f_0, ..., -f_(n-1) in its last column."""
    n = len(f) - 1
    C = np.eye(n, k=-1, dtype=np.intp)
    C[:, -1] = T.sub[0, list(f[:n])]
    return C


def coprime_power_charpoly_count(g: Matrix, max_order: int = MAX_ELEMENT_ORDER) -> int:
    """Number of distinct characteristic polynomials among g^k with k
    coprime to the order m of g; refused past max_order like
    `element_order`.

    With f = cp(g) and C_f its companion matrix, cp(g^k) = cp(C_f^k):
    both are the product of (X - a^k) over the eigenvalues a of g with
    multiplicity, so f is never factored and g never powered.  The
    eigenvalues have order dividing the p'-part m' of m, and
    cp(g^(qk)) = cp(g^k), so cp(g^k) is constant on each <q>-coset of
    the units mod m' (onto which the units mod m reduce).  Each block of
    `_power_columns` takes one `char_polys` call, on the least unit of
    each coset in it (phi(q^n - 1) / n in all for a Singer element)."""
    m = element_order(g, bound=max_order)
    F = g.field
    while m % F.p == 0:    # from here on m is the p'-part m'
        m //= F.p
    f = char_poly(g)
    n = len(f) - 1
    w = 1 << (max(n, min(_BLOCK, m)) - 1).bit_length()
    leaders = []    # per block of w exponents, its cosets' least units
    for lo in range(0, m, w):
        # k q, k < m, is exact in int64 while m q < 2^63
        ks = np.arange(lo, min(lo + w, m), dtype=np.int64 if m * F.q < 1 << 63 else object)
        least = np.gcd(ks, m) == 1
        cur = ks * F.q % m
        while (cur != ks).any():    # once round every coset
            least &= cur > ks
            cur = cur * F.q % m
        leaders.append(np.flatnonzero(least))
    while not len(leaders[-1]):    # k = 1 leads in the first block
        leaders.pop()
    polys = set()
    for cols, at in zip(_power_columns(_tables(F), f, w), leaders):
        mats = cols[:, at[:, None] + np.arange(n)].transpose(1, 0, 2)
        polys.update(map(bytes, char_polys(F, mats)))
    return len(polys)


def _power_columns(T: _Tables, f, w: int):
    """Yield, for lo = 0, w, 2w, ..., the n x (w + n - 1) columns x^lo,
    ..., x^(lo+w+n-2) mod f: C_f^k for lo <= k < lo + w is columns k - lo,
    ..., k - lo + n - 1.  w is a power of two, at least n = deg f; the
    first block comes by doubling, each next one as C_f^w times the last."""
    n = len(f) - 1
    step = _companion(T, f)
    block = np.eye(n, 1, dtype=np.intp)
    while block.shape[1] < w:    # C_f^s times the first s columns: the next s
        block = np.concatenate((block, _dot(T, step, block)), axis=1)
        step = _dot(T, step, step)
    while True:
        after = _dot(T, step, block)
        yield np.concatenate((block, after[:, :n - 1]), axis=1)
        block = after


def class_lower_bound(count: int, center_order: int) -> tuple[int, bool]:
    """Conjugate matrices share a characteristic polynomial and central
    scalings collapse at most center_order polynomials together, so
    count // center_order classes are forced.  The verdict flags five
    or more, enough to rule out short Galois families."""
    if count < 1 or center_order < 1:
        raise InputError("count and center_order must be positive")
    bound = count // center_order
    return bound, bound >= 5


def random_element_search(gens, target_order: int, seed: int = 0,
                          bound: int = MAX_ELEMENT_ORDER):
    """Deterministic random walk through the generated group, returning
    the first element of the requested order, or None."""
    gens = tuple(gens)
    if not gens:
        raise InputError("at least one generator required")
    rng = random.Random(seed)
    cur = Matrix.identity(gens[0].field, gens[0].n)
    for _ in range(SEARCH_ATTEMPTS):
        for _ in range(rng.randint(1, 3)):
            cur = cur * rng.choice(gens)
        try:
            if element_order(cur, bound=bound) == target_order:
                return cur
        except ResourceLimitError:
            continue
    return None


# -- the projective line ------------------------------------------------


def projective_line_action(q: int) -> GroupSpec:
    """PSL(2, q) permuting the q + 1 points of the projective line:
    field elements by their encodings, then infinity last.  Generators:
    translation by one, scaling by a generator (its square for odd q),
    and the point swap x -> -1/x."""
    if q > 64:
        raise InputError(f"projective line supported for q <= 64, got {q}")
    F = finite_field(q)
    inf = q
    pts = range(q)

    def perm_of(fn):
        images = [fn(x) for x in pts] + [fn(inf)]
        if sorted(images) != list(range(q + 1)):
            raise AssertionError("map is not a bijection on the line")
        return tuple(images)

    lam = F.generator
    scale = F.mul(lam, lam) if q % 2 else lam

    translate = perm_of(lambda x: inf if x == inf else F.add(x, 1))
    scaling = perm_of(lambda x: inf if x == inf else F.mul(scale, x))
    swap = perm_of(
        lambda x: 0 if x == inf else inf if x == 0 else F.neg(F.inv(x)))

    gens = [g for g in (translate, scaling, swap)
            if g != tuple(range(q + 1))]
    return GroupSpec(q + 1, tuple(gens))


# -- file ingestion -----------------------------------------------------


def parse_matrix_group_file(text: str) -> tuple[FiniteField, tuple[Matrix, ...]]:
    """JSON format: {"p": prime, "k": extension degree, "defining_poly":
    ascending coefficients with leading 1, "dim": n, "generators":
    [[row], ...]}.  The polynomial must match this build's canonical
    choice; entries are encoded field elements."""
    obj = read_json_object(text, "matrix group file")
    try:
        p, k, dim, gens = obj["p"], obj["k"], obj["dim"], obj["generators"]
    except KeyError as exc:
        raise InputError(f"missing field {exc.args[0]!r}") from None
    for name, v in (("p", p), ("k", k), ("dim", dim)):
        if type(v) is not int or v < 1:
            raise InputError(f"{name!r} must be a positive integer")
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    if dim > MAX_DIM:
        raise InputError(f"dimension must be at most {MAX_DIM}, got {dim}")
    # 2^k > MAX_FIELD from k = MAX_FIELD.bit_length() on, so p^k is
    # formed only when it is small
    if p > MAX_FIELD or k >= MAX_FIELD.bit_length() or p ** k > MAX_FIELD:
        raise InputError(f"field size must be in 2..{MAX_FIELD}, got {p}^{k}")
    F = finite_field(p ** k)
    want_poly = list(F.poly) + [1]
    got_poly = obj.get("defining_poly")
    if got_poly is not None and (not isinstance(got_poly, list)
                                 or not all(type(c) is int for c in got_poly)):
        raise InputError(f"'defining_poly' of GF({F.q}) must be a list of coefficients")
    if got_poly is not None and got_poly != want_poly:
        raise InputError(
            f"defining_poly {got_poly} does not match the canonical "
            f"choice {want_poly} for GF({p ** k})")
    if not isinstance(gens, list) or not gens:
        raise InputError("'generators' must be a nonempty list of matrices")
    out = []
    for i, rows in enumerate(gens):
        if (not isinstance(rows, list) or len(rows) != dim
                or any(not isinstance(r, list) or len(r) != dim for r in rows)):
            raise InputError(f"generator {i} is not a {dim} x {dim} matrix")
        if any(type(v) is not int or not 0 <= v < F.q for r in rows for v in r):
            raise InputError(
                f"generator {i} has entries outside 0..{F.q - 1}")
        out.append(Matrix(F, rows))
    return F, tuple(out)
