import functools
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galorb import matgroup
from galorb.errors import InputError, ResourceLimitError
from galorb.matgroup import (
    MAX_DIM, MAX_FIELD, FiniteField, Matrix, char_poly, char_polys,
    class_lower_bound, coprime_power_charpoly_count, element_order,
    finite_field, parse_matrix_group_file, projective_line_action,
    random_element_search, singer_element,
)
from galorb.numutil import factorize, prime_powers_upto, totient, units_mod
from galorb.permgroup import (
    alternating_group_spec, conjugacy_classes, group_order,
)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_axioms(q):
    F = finite_field(q)
    for a in range(q):
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
        for b in range(q):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    rng = random.Random(q)
    for _ in range(60):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_canonical_polynomials():
    assert finite_field(4).poly == (1, 1)
    assert finite_field(8).poly == (1, 1, 0)
    assert finite_field(9).poly == (2, 1)
    assert finite_field(16).poly == (1, 1, 0, 0)


# The field construction before GF(p^k) was built on the `_fpoly_*`
# helpers: its own polynomial arithmetic over GF(p), a search over
# base-p encodings, and an addition with one branch per field shape.
# Kept as the reference the one-toolkit field is compared against.


def _ppoly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _ppoly_mulmod(a, b, f, p):
    k = len(f) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * f[j]) % p
    return _ppoly_trim(tuple(out[:k]))


def _ppoly_powmod(base, e, f, p):
    result = (1,)
    while e:
        if e & 1:
            result = _ppoly_mulmod(result, base, f, p)
        base = _ppoly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _is_primitive_mod(f, p, q):
    x = (0, 1)
    if _ppoly_powmod(x, q - 1, f, p) != (1,):
        return False
    return all(_ppoly_powmod(x, (q - 1) // r, f, p) != (1,) for r in factorize(q - 1))


class _ReferenceField(FiniteField):
    __slots__ = ()

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = q = p ** k
        self.poly = self._find_poly()
        exp = [0] * (q - 1)
        log = [0] * q
        cur = (1,)
        gen = (0, 1) if k > 1 else ((self.poly[0] and p - self.poly[0]) % p,)
        for i in range(q - 1):
            val = sum(c * p ** j for j, c in enumerate(cur))
            exp[i] = val
            log[val] = i
            cur = _ppoly_mulmod(cur, gen, self.poly + (1,), p)
        assert cur == (1,)
        self.exp = tuple(exp)
        self.log = tuple(log)
        self._neg = tuple(
            sum(((p - d) % p) * p ** j for j, d in enumerate(self._digits(v)))
            for v in range(q))

    def _digits(self, v):
        out = []
        for _ in range(self.k):
            out.append(v % self.p)
            v //= self.p
        return out

    def _find_poly(self):
        for enc in range(1, self.q):
            coeffs = tuple(self._digits(enc))
            if coeffs[0] and _is_primitive_mod(coeffs + (1,), self.p, self.q):
                return coeffs
        raise AssertionError(f"no primitive polynomial found for GF({self.q})")

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        total = 0
        mult = 1
        for _ in range(self.k):
            total += ((a + b) % self.p) * mult
            a //= self.p
            b //= self.p
            mult *= self.p
        return total


@functools.lru_cache(maxsize=None)
def reference_field(q):
    (p, k), = factorize(q).items()
    return _ReferenceField(p, k)


@pytest.mark.parametrize("q", prime_powers_upto(512))
def test_field_matches_reference(q):
    F, R = finite_field(q), reference_field(q)
    assert (F.poly, F.exp, F.log, F.generator) == (R.poly, R.exp, R.log, R.generator)
    assert [F.neg(a) for a in range(q)] == [R.neg(a) for a in range(q)]
    if q <= 128:
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(5000)]
    for a, b in pairs:
        assert F.add(a, b) == R.add(a, b), (q, a, b)


def _outcome(fn, M):
    try:
        return fn(M)
    except (InputError, ResourceLimitError) as exc:
        return type(exc).__name__


@st.composite
def matrices_over_both_fields(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 25, 27]))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return Matrix(finite_field(q), rows), Matrix(reference_field(q), rows)


@given(matrices_over_both_fields())
@settings(max_examples=150, deadline=None)
def test_matrix_invariants_match_reference_field(pair):
    M, R = pair
    count = functools.partial(coprime_power_charpoly_count, max_order=400)
    want = char_poly(M), _outcome(element_order, M), _outcome(count, M)
    # R equals M, so the order cache would answer for R with M's order
    matgroup._exact_order.cache_clear()
    assert (char_poly(R), _outcome(element_order, R), _outcome(count, R)) == want


def test_products_survive_field_cache_eviction():
    # finite_field keeps 32 fields, so 40 others push GF(3) out of it and
    # the second Singer element is over a newly built GF(3)
    singer = singer_element(2, 3)
    for q in [q for q in prime_powers_upto(MAX_FIELD) if q % 3][:40]:
        finite_field(q)
    again = singer_element(2, 3)
    assert again.field is not singer.field
    assert singer * again == again * singer == singer.pow(2)


def test_field_guards():
    with pytest.raises(InputError):
        finite_field(6)
    with pytest.raises(InputError):
        finite_field(1)
    with pytest.raises(InputError):
        finite_field(513)


# cofactor-expansion determinant of xI - M, an independent oracle
def _poly_add(F, a, b):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple(F.add(x, y) for x, y in zip(a, b))


def _poly_mul(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return tuple(out)


def _charpoly_oracle(M):
    F, n = M.field, M.n
    P = [[((F.neg(M.rows[i][j]), 1) if i == j else (F.neg(M.rows[i][j]),))
          for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if not rows:
            return (1,)
        total = (0,)
        for idx, j in enumerate(cols):
            term = _poly_mul(F, P[rows[0]][j], det(rows[1:], cols[:idx] + cols[idx + 1:]))
            if idx % 2:
                term = tuple(F.neg(x) for x in term)
            total = _poly_add(F, total, term)
        return total

    return tuple(det(tuple(range(n)), tuple(range(n)))[:n + 1])


# The scalar char_poly before the batched kernel: Hessenberg reduction
# one matrix and one field element at a time, then the leading-minor
# recurrence.  Kept as the reference char_polys is compared against.
def _hessenberg_charpoly(M):
    F = M.field
    n = M.n
    h = [list(r) for r in M.rows]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = F.inv(h[j + 1][j])
        for i in range(j + 2, n):
            if not h[i][j]:
                continue
            t = F.mul(h[i][j], inv)
            for c in range(n):
                h[i][c] = F.sub(h[i][c], F.mul(t, h[j + 1][c]))
            for r in range(n):
                h[r][j + 1] = F.add(h[r][j + 1], F.mul(t, h[r][i]))

    polys = [(1,)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        pm = [0] * (m + 1)
        d = h[m - 1][m - 1]
        for i, c in enumerate(prev):
            pm[i + 1] = F.add(pm[i + 1], c)
            if d and c:
                pm[i] = F.sub(pm[i], F.mul(d, c))
        beta = 1
        for k in range(m - 1, 0, -1):
            beta = F.mul(beta, h[k][k - 1])
            if not beta:
                break
            coef = F.mul(h[k - 1][m - 1], beta)
            if coef:
                for i, c in enumerate(polys[k - 1]):
                    if c:
                        pm[i] = F.sub(pm[i], F.mul(coef, c))
        polys.append(tuple(pm))
    return polys[n]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27, 64, 81, 125, 243, 256, 343, 512])
def test_tables_match_the_field_operations(q):
    F = finite_field(q)
    T = matgroup._tables(F)
    assert matgroup._tables(F) is T and not any(t.flags.writeable for t in T)
    rng = random.Random(q)
    pairs = (itertools.product(range(q), repeat=2) if q <= 64 else
             [(rng.randrange(q), rng.randrange(q)) for _ in range(5000)])
    for a, b in pairs:
        assert (T.add[a, b], T.sub[a, b], T.mul[a, b]) == (F.add(a, b), F.sub(a, b), F.mul(a, b))
    assert T.inv[0] == 0 and all(T.inv[a] == F.inv(a) for a in range(1, q))


# The scalar matrix product before the batched kernel, kept as the
# reference Matrix.__mul__ and Matrix.pow are compared against.
def _scalar_product(A, B):
    F = A.field
    cols = tuple(zip(*B.rows))
    return Matrix(F, [[functools.reduce(F.add, map(F.mul, row, col), 0) for col in cols]
                      for row in A.rows])


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 27, 125, 512])
def test_products_and_powers_match_the_scalar_product(q):
    F = finite_field(q)
    rng = random.Random(q)
    for n in (0, 1, 2, 3, 5, 8, MAX_DIM):
        A, B = (Matrix(F, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
                for _ in range(2))
        assert A * B == _scalar_product(A, B)
        power = Matrix.identity(F, n)
        for e in range(6):
            assert A.pow(e) == power, (n, e)
            power = _scalar_product(power, A)


def _pivoting_matrix(rng, q, n):
    """Random n x n rows, a third of them with a zero subdiagonal entry
    in column 0 above a nonzero one (a row swap) and a third with a zero
    column (no pivot at all)."""
    rows = [[rng.randrange(q) if rng.random() < 0.7 else 0 for _ in range(n)]
            for _ in range(n)]
    shape = rng.randrange(3)
    if shape == 1 and n >= 3:
        rows[1][0] = 0
        rows[n - 1][0] = rng.randrange(1, q)
    elif shape == 2:
        c = rng.randrange(n)
        for row in rows:
            row[c] = 0
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81,
                               128, 243, 256, 512])
def test_char_polys_match_scalar_hessenberg_and_cofactors(q):
    F = finite_field(q)
    rng = random.Random(q)
    for n in (*range(1, 7), 8, MAX_DIM):
        batch = [_pivoting_matrix(rng, q, n) for _ in range(20)]
        got = [tuple(row) for row in char_polys(F, batch).tolist()]
        mats = [Matrix(F, rows) for rows in batch]
        assert got == [_hessenberg_charpoly(M) for M in mats], (q, n)
        if n <= 5:
            assert got == [_charpoly_oracle(M) for M in mats], (q, n)
        assert got[:1] == [char_poly(mats[0])]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_char_poly_matches_cofactor_oracle(q):
    F = finite_field(q)
    rng = random.Random(7 * q)
    for n in (1, 2, 3, 4):
        for _ in range(12):
            M = Matrix(F, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            assert char_poly(M) == _charpoly_oracle(M), (q, M.rows)


def test_companion_matrix_reproduces_its_polynomial():
    for n, q in [(2, 3), (3, 2), (4, 2), (2, 9), (3, 4)]:
        g = singer_element(n, q)
        cp = char_poly(g)
        assert len(cp) == n + 1 and cp[-1] == 1
        # the singer element's polynomial has maximal order, so g does too
        assert element_order(g) == q ** n - 1


def _all_invertible(F, n):
    q = F.q
    for entries in itertools.product(range(q), repeat=n * n):
        M = Matrix(F, [list(entries[i * n:(i + 1) * n]) for i in range(n)])
        try:
            element_order(M)
        except InputError:
            continue  # singular
        yield M


def test_singer_count_gl23_against_brute_conjugacy():
    # enumerate all 48 invertible matrices and bucket the coprime powers
    # of the singer element into true conjugacy classes
    F = finite_field(3)
    g = singer_element(2, 3)
    m = element_order(g)
    assert m == 8
    group = list(_all_invertible(F, 2))
    assert len(group) == 48
    powers = [g.pow(k) for k in units_mod(m)]

    def conjugate_in_group(x, y):
        return any(h * x == y * h for h in group)

    classes = []
    for x in powers:
        for cls in classes:
            if conjugate_in_group(x, cls[0]):
                cls.append(x)
                break
        else:
            classes.append([x])
    assert len(classes) == 2
    assert coprime_power_charpoly_count(g) == 2


def test_singer_count_gl32_against_brute_conjugacy():
    F = finite_field(2)
    g = singer_element(3, 2)
    assert element_order(g) == 7
    group = list(_all_invertible(F, 3))
    assert len(group) == 168
    powers = [g.pow(k) for k in units_mod(7)]
    reps = []
    for x in powers:
        if not any(any(h * x == y * h for h in group) for y in reps):
            reps.append(x)
    assert len(reps) == 2
    assert coprime_power_charpoly_count(g) == 2


def test_singer_count_gl42_against_unit_orbit_oracle():
    # powering by q permutes the eigenvalue exponents mod q^n - 1, so
    # the count equals the number of <q>-orbits on units mod 15
    g = singer_element(4, 2)
    assert element_order(g) == 15
    units = set(units_mod(15))
    orbits = 0
    while units:
        k = min(units)
        orbits += 1
        while k in units:
            units.discard(k)
            k = (k * 2) % 15
    assert orbits == 2
    assert coprime_power_charpoly_count(g) == 2


# -- the coprime-power count ------------------------------------------------
# The count before the companion walk: multiply by g up to m - 1 times
# and take the charpoly of every power coprime to m.  Kept as the
# reference the walk is compared against.


def reference_charpoly_count(g, max_order=100_000):
    m = element_order(g, bound=max_order)
    if m == 1:
        return 1
    units = set(units_mod(m))
    polys = set()
    cur = g
    for k in range(1, m):
        if k > 1:
            cur = cur * g
        if k in units:
            polys.add(char_poly(cur))
    return len(polys)


@st.composite
def count_matrices(draw):
    """Random matrices with n <= 4 and q <= 9; about half of them get a
    Jordan block J_b(1), b >= 2, in the top-left corner with zeros below
    it, so that p divides the order (b = n: g is unipotent)."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        b = draw(st.integers(2, n))
        for i in range(n):
            for j in range(b):
                rows[i][j] = int(i < b and j in (i, i + 1))
    return Matrix(finite_field(q), rows)


@given(count_matrices())
@settings(max_examples=300, deadline=None)
def test_count_matches_reference_walk(g):
    count = functools.partial(coprime_power_charpoly_count, max_order=400)
    reference = functools.partial(reference_charpoly_count, max_order=400)
    assert _outcome(count, g) == _outcome(reference, g)


def _companion(F, f):
    n = len(f) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = F.neg(f[i])
    return Matrix(F, rows)


@given(count_matrices(), st.integers(0, 60), st.sampled_from([4, 8, 32]))
@settings(max_examples=150, deadline=None)
def test_block_columns_are_the_companion_power(g, k, w):
    # any k, coprime to the order or not, and singular g too; narrow
    # blocks reach k through many advances
    F = g.field
    f = char_poly(g)
    n = len(f) - 1
    blocks = matgroup._power_columns(matgroup._tables(F), f, w)
    cols = next(itertools.islice(blocks, k // w, None))
    power = Matrix(F, cols[:, k % w:k % w + n].tolist())
    assert power == _companion(F, f).pow(k)
    assert char_poly(power) == char_poly(g.pow(k))


def test_unipotent_and_scalar_counts():
    F = finite_field(9)
    jordan = Matrix(F, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert element_order(jordan) == 3
    assert coprime_power_charpoly_count(jordan) == 1
    # a scalar a of order 8: the unit k gives (X - a^k)^2, and 9 = 1
    # mod 8 leaves each unit its own coset
    a = F.generator
    scalar = Matrix(F, [[a, 0], [0, a]])
    assert coprime_power_charpoly_count(scalar) == 4 == reference_charpoly_count(scalar)


def test_count_takes_one_charpoly_per_coset(monkeypatch):
    F = finite_field(3)
    singer = singer_element(2, 3)
    # J_2(1) beside a Singer block of GF(3)^2: order 3 * 8, p'-part 8,
    # and the units mod 8 fall into the <3>-cosets {1, 3} and {5, 7}
    mixed = Matrix(F, [[1, 1, 0, 0], [0, 1, 0, 0],
                       [0, 0, *singer.rows[0]], [0, 0, *singer.rows[1]]])
    assert element_order(mixed) == 24
    rows = []
    monkeypatch.setattr(matgroup, "char_polys",
                        lambda F, mats: rows.append(len(mats)) or char_polys(F, mats))
    assert coprime_power_charpoly_count(mixed) == 2
    assert rows == [1, 2]    # cp(g), then one row per coset


SINGER_PAIRS = [(n, q) for q in prime_powers_upto(MAX_FIELD)
                for n in range(1, MAX_DIM + 1) if q ** n - 1 <= 10_000]


def test_singer_count_is_the_closed_form():
    # the charpolys of coprime powers of a primitive element are the
    # minimal polynomials of the primitive elements, n roots each
    assert len(SINGER_PAIRS) == 186
    for n, q in SINGER_PAIRS:
        count = coprime_power_charpoly_count(singer_element(n, q))
        assert count == totient(q ** n - 1) // n, (n, q)


def test_count_memory_stays_below_a_table_of_powers():
    g = singer_element(2, 256)
    m = element_order(g)
    assert m == 65535
    # a table of all m powers: one 2-tuple and one list slot per power
    table = m * (sys.getsizeof((0, 0)) + 8)
    tracemalloc.start()
    try:
        count = coprime_power_charpoly_count(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == totient(m) // 2
    # the peak is the result set of 16384 charpolys, next to the 16384
    # coset leaders and one block of 1024 exponents with their power columns
    assert peak < table / 2, (peak, table)


def test_cached_order_still_meets_each_bound():
    g = singer_element(2, 5)
    with pytest.raises(ResourceLimitError,
                       match="order 24 exceeds the bound 3; raise it with --max-order"):
        element_order(g, bound=3)
    assert element_order(g) == 24
    with pytest.raises(ResourceLimitError,
                       match="order 24 exceeds the bound 23; raise it with --max-order"):
        element_order(g, bound=23)
    assert element_order(g, bound=24) == 24


def test_element_order_edges():
    F3 = finite_field(3)
    assert element_order(Matrix.identity(F3, 3)) == 1
    uni = Matrix(F3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert element_order(uni) == 3
    with pytest.raises(InputError, match="singular"):
        element_order(Matrix(F3, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ResourceLimitError):
        element_order(singer_element(2, 5), bound=3)
    with pytest.raises(ResourceLimitError):
        element_order(Matrix.identity(F3, 13))


def test_class_lower_bound_values():
    assert class_lower_bound(16, 3) == (5, True)
    assert class_lower_bound(6, 1) == (6, True)
    assert class_lower_bound(4, 1) == (4, False)
    with pytest.raises(InputError):
        class_lower_bound(0, 1)
    with pytest.raises(InputError):
        class_lower_bound(4, 0)


def test_random_search_and_determinism():
    F2 = finite_field(2)
    a = Matrix(F2, [[1, 1], [0, 1]])
    b = Matrix(F2, [[0, 1], [1, 0]])
    found = random_element_search([a, b], 3)
    assert found is not None and element_order(found) == 3
    assert random_element_search([a, b], 5) is None
    assert (random_element_search([a, b], 3, seed=11)
            == random_element_search([a, b], 3, seed=11))
    assert random_element_search([a, b], 2, seed=4) is not None


@pytest.mark.parametrize("q,order", [(2, 6), (3, 12), (4, 60), (5, 60),
                                     (7, 168), (8, 504), (9, 360), (16, 4080),
                                     (49, 58800), (64, 262080)])
def test_projective_line_orders(q, order):
    assert group_order(projective_line_action(q)) == order


def test_projective_line_class_structures():
    # PSL(2, 5) acting on 6 points is an A5 in disguise
    cs5 = conjugacy_classes(projective_line_action(5))
    a5 = conjugacy_classes(alternating_group_spec(5))
    assert cs5.sizes == a5.sizes and cs5.orders == a5.orders
    cs7 = conjugacy_classes(projective_line_action(7))
    assert cs7.sizes == (1, 21, 56, 42, 24, 24)
    assert cs7.orders == (1, 2, 3, 4, 7, 7)


def test_parse_matrix_group_file():
    text = json.dumps({
        "p": 3, "k": 1, "defining_poly": [1, 1], "dim": 2,
        "generators": [[[0, 1], [1, 2]]],
    })
    F, gens = parse_matrix_group_file(text)
    assert F.q == 3 and gens[0] == singer_element(2, 3)
    with pytest.raises(InputError, match="poly"):
        parse_matrix_group_file(json.dumps({
            "p": 3, "k": 2, "defining_poly": [1, 0, 1], "dim": 1,
            "generators": [[[1]]]}))
    with pytest.raises(InputError):
        parse_matrix_group_file(json.dumps({
            "p": 4, "k": 1, "dim": 1, "generators": [[[1]]]}))
    with pytest.raises(InputError):
        parse_matrix_group_file("[]")


# p^k past the field bound is refused before it is formed: 2^100000 would
# also overflow the int-to-str limit in the message; a defining_poly that
# is no list is refused as such, not passed to list()
MALFORMED_FIELDS = {
    "huge_power": ({"p": 2, "k": 100000}, "field size must be in 2..512, got 2^100000"),
    "poly_not_a_list": ({"p": 3, "k": 1, "defining_poly": 5},
                        "'defining_poly' of GF(3) must be a list of coefficients"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIELDS))
def test_parse_matrix_group_file_names_a_malformed_field(case):
    fields, message = MALFORMED_FIELDS[case]
    obj = {"dim": 1, "generators": [[[1]]], **fields}
    with pytest.raises(InputError) as info:
        parse_matrix_group_file(json.dumps(obj))
    assert str(info.value) == message
