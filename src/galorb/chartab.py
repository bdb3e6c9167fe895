"""Character tables: ingestion, validation, and Galois-orbit analyses.

A table is a square matrix of exact cyclotomic values, rows indexed by
irreducible characters and columns by conjugacy classes, together with
the class sizes and (optionally) the element orders per class.  Row
orthogonality is the validation oracle: a table is checked exactly when
it is built, so none exists unchecked, and the check pins down the
matrix up to row and column permutations.

char_report is the table's classtheory.GaloisReport, orbit_counts on
the Galois orbits of rows under the row map of k = -1.  By Brauer's
permutation lemma it agrees with the report on the group's classes in
order, classes, n_Q, n_R, rank and cut flag.  Its a1 and a2 are b1 and
b2: a row's field has degree its orbit length L and is neither rational
nor imaginary quadratic exactly when L > 1 and (the row is real or
L > 2), that is, when its orbit holds more than one real row.  The
longest family of classes is column_families' to give.  When a
ClassStructure for the same group is available, brauer_crosscheck ties
the two reports together check by check.

A table has one root-of-unity order n, the lcm of the conductors of
its values: the Galois action on the values factors through Q(zeta_n),
so n sizes all the work and class orders size none.  Every analysis
reads one GaloisAction per table, built once: each distinct value gets
an integer id and each unit k modulo n an id map, so rows, columns and
fields are compared as id tuples and galois_apply runs once per
distinct value and unit of that value's conductor, not per cell, query
or unit modulo n: a value's image under k depends on k modulo its
conductor alone.  The action permutes rows and columns alike (Brauer's
permutation lemma); both are read by one code as a permutation per
unit, built once per table, and a table whose rows or columns it does
not permute is refused.  Orthogonality is checked on integer lifts of
the values at n, and refused when the reductions at n would not fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources

from .classtheory import GaloisReport, analyze, orbit_counts, orbits
from .cyclotomic import (
    CyclotomicNumber,
    galois_apply,
    integer_lift,
    power_reductions,
    reduce_terms,
    value_from_obj,
)
from .errors import InputError, ResourceLimitError, read_json_object
from .numutil import totient, units_mod
from .permgroup import ClassStructure

Row = tuple[CyclotomicNumber, ...]
Ids = tuple[int, ...]

# the most power reductions, (n - phi(n)) phi(n) at the table's order n,
# that the orthogonality check may need
MAX_LIFT_REDUCTIONS = 1 << 25


@dataclass(frozen=True)
class GaloisAction:
    """The Galois group of Q(zeta_e), e the lcm of the conductors of the
    table's values, acting on those values.

    cells holds the value ids row by row; ids number the distinct cell
    values from 0.  images[u][v] is the id of the image of value v under
    zeta -> zeta^k for k = units[u], units = units_mod(e); an image that
    is no cell value gets an id past the cell values.  Ids and values
    correspond one to one, so equal id tuples are equal rows or columns.
    """

    exponent: int
    units: tuple[int, ...]
    cells: tuple[Ids, ...]
    images: tuple[Ids, ...]


def _apply(ids: Ids, image: Ids) -> Ids:
    return tuple(map(image.__getitem__, ids))


@dataclass(frozen=True)
class CharacterTable:
    """Exact character table, immutable and checked when built: shapes,
    degrees, sizes, orders and conductors, then exact row orthogonality
    (ResourceLimitError when the check would be too large to make).  The
    Galois action on its rows and columns is checked when first read."""

    name: str
    group_order: int
    class_sizes: tuple[int, ...]
    class_orders: tuple[int, ...] | None
    irr: tuple[Row, ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @cached_property
    def _values(self) -> tuple[int, dict[CyclotomicNumber, int], tuple[Ids, ...]]:
        """The table's order n, the lcm of the conductors of its values;
        the distinct cell values numbered in first-seen order (never
        mutated: readers that add values extend a copy); and the cells as
        those numbers."""
        ids: dict[CyclotomicNumber, int] = {}
        cells = tuple(tuple(ids.setdefault(z, len(ids)) for z in row) for row in self.irr)
        return math.lcm(*(z.order for z in ids)), ids, cells

    @cached_property
    def galois_action(self) -> GaloisAction:
        """Built on first use: one galois_apply per distinct value and unit
        of its conductor c, read for unit k of the table through k mod c.
        Units run outer and values inner, so ids, images that are no cell
        value among them, are numbered in the order of the full loop."""
        n, values, cells = self._values
        ids = values.copy()
        units = units_mod(n)
        seen: dict[tuple[int, int], int] = {}

        def image(z: CyclotomicNumber, v: int, k: int) -> int:
            key = v, k % z.order
            got = seen.get(key)
            if got is None:
                got = seen[key] = ids.setdefault(galois_apply(z, k), len(ids))
            return got

        images = tuple(tuple(image(z, v, k) for z, v in values.items()) for k in units)
        return GaloisAction(n, units, cells, images)

    def _line_maps(self, lines: tuple[Ids, ...], what: str) -> dict[int, Ids]:
        """For each unit k mod the table's order, the permutation of lines
        (rows or columns, as id tuples) induced by applying the Galois map
        entrywise; InputError when an image is no line."""
        act = self.galois_action
        # orthogonal rows make the table invertible, so its rows are
        # distinct and so are its columns
        index = {line: i for i, line in enumerate(lines)}
        maps = {}
        for k, image in zip(act.units, act.images):
            targets = []
            for i, line in enumerate(lines):
                j = index.get(_apply(line, image))
                if j is None:
                    raise InputError(
                        f"table {self.name!r}: image of {what} {i} under the Galois "
                        f"map k = {k} matches no {what}")
                targets.append(j)
            maps[k] = tuple(targets)
        return maps

    @cached_property
    def _row_maps(self) -> dict[int, Ids]:
        """The Galois action on rows; built on first use."""
        return self._line_maps(self.galois_action.cells, "row")

    @cached_property
    def _column_maps(self) -> dict[int, Ids]:
        """The Galois action on columns; built on first use."""
        return self._line_maps(tuple(zip(*self.galois_action.cells)), "column")

    @cached_property
    def _report(self) -> GaloisReport:
        """char_report's value, built on first use: the column maps are
        read first, so a table whose columns the action does not permute
        is refused for its columns; then orbit_counts on the row orbits
        under the row map of k = -1."""
        self._column_maps
        maps = self._row_maps
        return orbit_counts(self.group_order, orbits(zip(*maps.values())),
                            maps[-1 % self.galois_action.exponent])

    def __post_init__(self):
        n = self.num_classes
        if len(self.irr) != n:
            raise InputError(
                f"table {self.name!r}: {len(self.irr)} rows for {n} columns")
        for i, row in enumerate(self.irr):
            if len(row) != n:
                raise InputError(f"table {self.name!r}: row {i} has {len(row)} entries")
        if any(s < 1 for s in self.class_sizes):
            raise InputError(f"table {self.name!r}: class sizes must be positive")
        if tuple(self.class_sizes[:1]) != (1,):
            raise InputError(f"table {self.name!r}: column 0 must be the identity class")
        if self.class_orders is not None:
            if len(self.class_orders) != n:
                raise InputError(f"table {self.name!r}: class_orders length mismatch")
            if self.class_orders[0] != 1 or any(o < 1 for o in self.class_orders):
                raise InputError(
                    f"table {self.name!r}: class_orders must be positive with "
                    "the identity first")
        degsq = 0
        for i, row in enumerate(self.irr):
            d = row[0]
            if not d.is_integer or d.rational_value < 1:
                raise InputError(
                    f"table {self.name!r}: degree of row {i} is not a positive integer")
            degsq += int(d.rational_value) ** 2
        if degsq != self.group_order or sum(self.class_sizes) != self.group_order:
            raise InputError(
                f"table {self.name!r}: degree squares sum to {degsq} and sizes to "
                f"{sum(self.class_sizes)}, group order is {self.group_order}")
        if self.class_orders is not None:
            # an element's order divides the group order, and a value's
            # conductor divides the exponent, the lcm of the orders
            for c, o in enumerate(self.class_orders):
                if self.group_order % o:
                    raise InputError(
                        f"table {self.name!r}: class order {o} of column {c} does not "
                        f"divide the group order {self.group_order}")
            e = math.lcm(*self.class_orders)
            for i, row in enumerate(self.irr):
                for z in row:
                    if e % z.order:
                        raise InputError(
                            f"table {self.name!r}: row {i} has a value of conductor "
                            f"{z.order}, not dividing the exponent {e}")
        self._check_orthogonality()

    def _check_orthogonality(self) -> None:
        """sum_c |c| chi_i(c) conj(chi_j(c)) = |G| delta_ij, on integers.

        Every value lifts once to integer terms (k, c) of D * value at
        zeta_n, D the common denominator and n the table's order;
        conjugation negates k.  A row pair's sum is a cyclic convolution
        into acc, whose terms enumerate(acc) are reduced once to the power
        basis and compared with (|G| D^2, 0, ...).  The (n - phi(n)) phi(n)
        reductions at n are built for this check alone and released with
        it; past MAX_LIFT_REDUCTIONS the check is refused before any is
        made.  A failing sum is canonicalised from its reduced vector.
        """
        n, values, cells = self._values
        phi = totient(n)
        if (n - phi) * phi > MAX_LIFT_REDUCTIONS:
            raise ResourceLimitError(
                f"table {self.name!r}: orthogonality at n = {n}, the lcm of the value "
                f"conductors, needs {(n - phi) * phi} power reductions; the limit is "
                f"{MAX_LIFT_REDUCTIONS}")
        red = power_reductions(n)
        scale, lifts = integer_lift(values, n)
        conj = [tuple((-x % n, c) for x, c in terms) for terms in lifts]
        zero = [0] * phi
        norm = [self.group_order * scale * scale] + zero[1:]
        for i, row in enumerate(cells):
            for j in range(i, len(cells)):
                acc = [0] * n
                for s, a, b in zip(self.class_sizes, row, cells[j]):
                    for x, ca in lifts[a]:
                        sca = s * ca
                        for y, cb in conj[b]:
                            acc[(x + y) % n] += sca * cb
                got = reduce_terms(n, enumerate(acc), red)
                if got != (norm if i == j else zero):
                    total = CyclotomicNumber.make(n, {
                        k: Fraction(c, scale * scale) for k, c in enumerate(got) if c})
                    want = self.group_order if i == j else 0
                    raise InputError(
                        f"table {self.name!r}: rows {i} and {j} violate "
                        f"orthogonality (got {total!r}, want {want})")


# -- parsing ------------------------------------------------------------


def parse_table(text: str) -> CharacterTable:
    """Parse the JSON table format into a checked table."""
    obj = read_json_object(text, "table file")
    try:
        tname, order, sizes, irr = obj["name"], obj["order"], obj["class_sizes"], obj["irr"]
    except KeyError as exc:
        raise InputError(f"missing table field {exc.args[0]!r}") from None
    orders = obj.get("class_orders")
    if not isinstance(tname, str):
        raise InputError("'name' must be a string")
    if type(order) is not int:
        raise InputError("'order' must be an integer")
    if not isinstance(sizes, list) or not all(type(s) is int for s in sizes):
        raise InputError("'class_sizes' must be a list of integers")
    if orders is not None and (not isinstance(orders, list) or not all(
            type(o) is int for o in orders)):
        raise InputError("'class_orders' must be a list of integers")
    if not isinstance(irr, list) or not all(isinstance(r, list) for r in irr):
        raise InputError("'irr' must be a list of rows")
    # each distinct cell is canonicalised once; repr of a JSON value spells
    # its type (true, 1, 1.0 and "1" all differ), and a cell enters the
    # cache only after it parses, so a bad cell reports where it first occurs
    parsed = {}
    rows = []
    for i, r in enumerate(irr):
        row = []
        for j, v in enumerate(r):
            key = repr(v)
            z = parsed.get(key)
            if z is None:
                try:
                    z = parsed[key] = value_from_obj(v)
                except (InputError, ResourceLimitError) as exc:
                    raise type(exc)(f"row {i}, column {j}: {exc}") from None
            row.append(z)
        rows.append(tuple(row))
    return CharacterTable(
        name=tname,
        group_order=order,
        class_sizes=tuple(sizes),
        class_orders=tuple(orders) if orders is not None else None,
        irr=tuple(rows),
    )


def fixture_names() -> tuple[str, ...]:
    root = resources.files("galorb") / "tables"
    return tuple(sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json")))


def fixture_table(name: str) -> CharacterTable:
    path = resources.files("galorb") / "tables" / f"{name}.json"
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise InputError(f"no shipped table named {name!r}; "
                         f"available: {', '.join(fixture_names())}") from None
    return parse_table(text)


# -- row-side analysis --------------------------------------------------


def column_families(t: CharacterTable) -> tuple[tuple[int, ...], ...]:
    """Partition of columns into Galois families, ordered by least member.
    The column maps are the Galois group acting on columns, so a column's
    images under all of them are its family."""
    return orbits(zip(*t._column_maps.values()))


def char_report(t: CharacterTable) -> GaloisReport:
    """The GaloisReport of the Galois action on the table's rows, with
    conjugation the row map of k = -1: its families are row orbits, its
    a1 and a2 the table's b1 and b2, and 2 n_R - num_classes rows are
    real.  Built once per table, after the column maps are read, when
    orbit_counts asserts the rank identities on rows."""
    return t._report


# -- Brauer cross-checks ------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CrosscheckReport:
    table_name: str
    passed: bool
    checks: tuple[CheckResult, ...]


def brauer_crosscheck(t: CharacterTable, cs: ClassStructure) -> CrosscheckReport:
    """Tie the row side of a table to an independently computed class
    structure for the same group, columns aligned to classes.

    Four checks: per-map fixed rows equal fixed classes; row orbits
    equal class families in number; the induced column permutation of
    every Galois map equals the class fusion permutation (and therefore
    the family partitions agree, both being the components of those
    maps); and the ranks agree.  Both sides are GaloisReports of
    classtheory.orbit_counts, on rows and on classes.  Alignment
    failures (sizes, orders, group order) are input errors; check
    failures are reported, not raised.
    """
    if t.num_classes != cs.num_classes:
        raise InputError(
            f"table has {t.num_classes} columns, class data has {cs.num_classes}")
    if t.group_order != cs.group_order:
        raise InputError(
            f"table group order {t.group_order} != class-side {cs.group_order}")
    if t.class_sizes != cs.sizes:
        raise InputError("columnwise class sizes disagree; columns misaligned")
    if t.class_orders is not None and t.class_orders != cs.orders:
        raise InputError("columnwise element orders disagree; columns misaligned")
    e = cs.exponent
    act = t.galois_action
    if e % act.exponent:
        raise InputError(
            f"the lcm {act.exponent} of the table's value conductors does not "
            f"divide the group exponent {e}")

    rep_t = char_report(t)
    rep_c = analyze(cs)
    units = units_mod(e)

    # one pass over the units, each power map read once
    bad_fixed, bad_maps = [], []
    for k in units:
        fusion_map = cs.power_map(k)
        fixed_rows = sum(1 for i, j in enumerate(t._row_maps[k % act.exponent]) if i == j)
        fixed_cols = sum(1 for c, d in enumerate(fusion_map) if d == c)
        if fixed_rows != fixed_cols:
            bad_fixed.append(f"k={k}: {fixed_rows} fixed rows vs {fixed_cols} fixed classes")
        table_map = t._column_maps[k % act.exponent]
        if table_map != fusion_map:
            diffs = [c for c in range(cs.num_classes) if table_map[c] != fusion_map[c]]
            bad_maps.append(f"k={k}: columns {diffs} map to {[table_map[c] for c in diffs]} "
                            f"in the table but classes fuse to {[fusion_map[c] for c in diffs]}")

    checks = (
        CheckResult("fixed_counts", not bad_fixed, "; ".join(bad_fixed) if bad_fixed
                    else f"all {len(units)} Galois maps agree"),
        CheckResult("orbit_counts", rep_t.n_Q == rep_c.n_Q,
                    f"{rep_t.n_Q} row orbits vs {rep_c.n_Q} class families"),
        CheckResult("column_families", not bad_maps, "; ".join(bad_maps) if bad_maps
                    else "column maps match fusion maps for every k"),
        CheckResult("rank", rep_t.rank == rep_c.rank,
                    f"table rank {rep_t.rank} vs class-side rank {rep_c.rank}"),
    )
    return CrosscheckReport(table_name=t.name, passed=all(c.passed for c in checks),
                            checks=checks)
