"""Permutation groups, conjugacy classes, and power-map fusion data.

Permutations on n points are tuples p of length n with p[i] the image of
i.  Group input is a finite generating set wrapped in a GroupSpec.  The
class data consumed by the rest of the package is a ClassStructure:
sizes, element orders, and for each class a tuple recording where the
coprime power maps send it, one entry per unit residue modulo the
element order, ascending.  Each fact is stored once: the exponent and
the power maps on classes, inversion among them, are derived from these.

Orders come from a stabilizer chain built by incremental Schreier-Sims
with one sift-and-promote loop on bytes rows, each product one
bytes.translate: the input generators and each level's Schreier
generators, each formed once, are sifted through the levels, and of a
batch's residues the one that joins the fewest levels is promoted first.
Levels grow in place, and only when complete, as strong generators join
them; each is completed from the pairs its growth made, but for tree
edges, whose Schreier generators are the identity.  The chain refuses,
exactly, once the order it has found passes its limit.
Classes come from one path, under one guard: their chain's limit is 10^8
element-points over the degree, so it stops as soon as order times
degree passes 10^8, before any element is stored.  Only this whole-group
work reads numpy: the complete chain's levels are joined into tables
once, and its transversals enumerate every element as a uint8 row, each
the product of one transversal element per level, so an element's index
is read off its base images by sifting them alone.  The enumeration is
checked to be closed under level 0's strong generators g (the promoted
rows it grew from, at most log2 of the order, however many): each check
ranks every row x g by its base images and compares it in full with the
row at the index found.  As x runs over the group so does x g, so these
checks show the sift exact on every element of the group, and no other
row is compared.  Conjugation by g ranks each g^-1 x g from its base
images g^-1[x[g[b]]] alone, and the classes are the orbits of those
permutations.  One builder makes the chain for orders and classes alike:
given more than two generators, it grows first from two words in them,
seeded from the spec's bytes, and then from the generators, so level 0
has two strong generators, and the class path makes two closure checks,
when the words generate the group; each generator outside their group
adds one more.  Each class's least row is found column by column, and
the coprime powers of all representatives are formed together by binary
powering over their rows, then ranked from their base images in one
batch.  There is no random search; the seeded words change which chain
enumerates, never the result.
Alternating and cyclic groups also get direct combinatorial
constructions that build no permutation: residues for cyclic groups,
and for A_n one recursion node per cycle type, carrying its centralizer
order, element order and whether it splits, with the Jacobi symbol,
read from one table of quadratic non-residues per prime, deciding the
powers of a split pair.  All three builders share one assembly step:
each lists its classes and supplies one class's power images at a
time, or none for a class fixed by every power map (nearly every A_n
class), whose fusion row is then one repeated index; the classes are
numbered and labelled in one place.  A ClassStructure checks itself
when it is built (each class's fusion images must be one orbit, which
a row of one repeated index is at once), so none exists unchecked.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

import numpy as np

from .errors import InputError, ResourceLimitError, read_integer
from .numutil import factorize, is_prime, units_mod

MAX_DEGREE = 256
MAX_GROUP_ORDER = 200_000_000
# the class computation stores order x degree bytes of elements
MAX_ELEMENT_POINTS = 10**8
# a chain first grows from two words of this length in the generators
# when there are more than two of them
PAIR_WORD_LENGTH = 12

# -- permutation primitives ---------------------------------------------


def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def cycles(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles, each starting at its least point, ascending."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return tuple(out)


def perm_order(p: tuple[int, ...]) -> int:
    o = 1
    for c in cycles(p):
        o = math.lcm(o, len(c))
    return o


# -- group input --------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """A generating set for a permutation group on range(degree)."""

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.degree) is not int or not 1 <= self.degree <= MAX_DEGREE:
            raise InputError(f"degree must be in 1..{MAX_DEGREE}, got {self.degree!r}")
        if not self.generators:
            raise InputError("at least one generator required; () denotes the identity")
        for g in self.generators:
            if len(g) != self.degree or sorted(g) != list(range(self.degree)):
                raise InputError(f"not a permutation of {self.degree} points: {g!r}")


def parse_generators(text: str) -> GroupSpec:
    """Read a generator file: a "degree n" header, then one permutation
    per line as a product of disjoint cycles in 1-based points, e.g.
    (1,2,3)(4,5).  "()" is the identity; blank lines and # comments are
    skipped.  Numbers are ASCII digits only."""
    degree = None
    gens = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if degree is not None:
                gens.append(_parse_cycle_line(line, degree))
                continue
            word, *n = line.split()
            degree = read_integer(n[0], signed=False) if word == "degree" and len(n) == 1 else None
            if degree is None:
                raise InputError(f"expected 'degree n' header, got {line!r}")
            if not 1 <= degree <= MAX_DEGREE:
                raise InputError(f"degree must be in 1..{MAX_DEGREE}")
        except InputError as exc:
            raise InputError(f"line {ln}: {exc}") from None
    if degree is None:
        raise InputError("missing 'degree n' header")
    if not gens:
        raise InputError("no generators; give () for the trivial group")
    return GroupSpec(degree=degree, generators=tuple(gens))


def _parse_cycle_line(line: str, degree: int) -> tuple[int, ...]:
    if line.count("(") != line.count(")") or not line.startswith("("):
        raise InputError(f"malformed cycle notation {line!r}")
    perm = list(range(degree))
    used = set()
    body = line.replace(" ", "")
    pos = 0
    while pos < len(body):
        if body[pos] != "(":
            raise InputError(f"expected '(' at position {pos + 1}")
        end = body.find(")", pos)
        if end < 0:
            raise InputError("unclosed cycle")
        inner = body[pos + 1:end]
        pos = end + 1
        if not inner:
            continue  # () is the identity factor
        pts = []
        for tok in inner.split(","):
            x = read_integer(tok, signed=False)
            if x is None:
                raise InputError(f"bad point {tok!r}")
            if not 1 <= x <= degree:
                raise InputError(f"point {x} outside 1..{degree}")
            if x - 1 in used:
                raise InputError(f"point {x} repeated; cycles must be disjoint")
            used.add(x - 1)
            pts.append(x - 1)
        if len(pts) < 2:
            raise InputError("cycle needs at least two points")
        for i, x in enumerate(pts):
            perm[x] = pts[(i + 1) % len(pts)]
    return tuple(perm)


# -- stabilizer chain ---------------------------------------------------

_IDENTITY_TABLE = bytes(range(256))


def _table(row: bytes) -> bytes:
    """row, then the identity to 256 points: h.translate(_table(t)) is t h."""
    return row + _IDENTITY_TABLE[len(row):]


def _inverse_table(row: bytes) -> bytes:
    """The table of the inverse of row: row[i] goes to i."""
    return bytes.maketrans(row, _IDENTITY_TABLE[:len(row)])


class _Level:
    """One level of a stabilizer chain.

    gens holds its strong generators as bytes rows and tabs their
    tables.  The orbit of the base point under them grows in place; u[x]
    is a transversal row sending the base point to x and uinv[x] its
    inverse's table (None off the orbit).  A level grows only when
    complete, so its untested Schreier pairs are those its latest add
    returned.
    """

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens, self.tabs = [], []
        self.orbit = [base]
        self.u, self.uinv = [None] * degree, [None] * degree
        self.u[base], self.uinv[base] = bytes(range(degree)), _IDENTITY_TABLE

    def add(self, g: bytes, tab: bytes) -> list[tuple[int, int]]:
        """Add a strong generator, with its table, and extend the orbit
        and transversal: the new generator acts on the old points, then
        every generator acts on the new points.  Returns the (orbit point,
        generator index) pairs this made, in orbit then generator order
        (each old point with g, each new point with every generator), but
        for the tree edges, whose Schreier generators are the identity."""
        self.gens.append(g)
        self.tabs.append(tab)
        u, uinv, pairs = self.u, self.uinv, []
        work = [(x, len(self.gens) - 1) for x in self.orbit]
        for x, k in work:  # also visits the pairs appended below
            y = self.tabs[k][x]
            if uinv[y] is None:
                # u_y = s u_x for y = s(x)
                u[y] = u[x].translate(self.tabs[k])
                uinv[y] = _inverse_table(u[y])
                self.orbit.append(y)
                work += [(y, j) for j in range(len(self.gens))]
            else:
                pairs.append((x, k))
        return pairs


class _Tables:
    """A complete level as numpy tables: u its transversal rows in orbit
    order, uinv the d x d inverses (unused off the orbit), pos the orbit
    positions (-1 off it), gens the strong generators."""

    def __init__(self, lev: _Level, degree: int):
        def rows(rs):
            return np.frombuffer(b"".join(rs), dtype=np.uint8).reshape(-1, degree)

        self.base = lev.base
        self.u = rows(lev.u[x] for x in lev.orbit)
        self.uinv = rows((t or _IDENTITY_TABLE)[:degree] for t in lev.uinv)
        self.pos = np.full(degree, -1, dtype=np.int32)
        self.pos[lev.orbit] = range(len(lev.orbit))
        self.gens = rows(lev.gens)


class _Chain:
    """Stabilizer chain built by deterministic, incremental Schreier-Sims.

    extend is the one entry point, for the input generators (from level 0)
    and for each level's Schreier generators (from the level below) alike.
    Levels are extended, never rebuilt: a promoted residue grows the orbits
    and transversals of the levels it joins, which are then completed
    deepest first, each from the pairs its add returned: a level grows only
    when complete, since completing level l extends only deeper levels, so
    these are all its untested pairs.  Each (orbit point, strong generator)
    pair of a level is formed into its Schreier generator u_y^-1 g u_x at
    most once; schreier_generators counts them.  The pair (x, g) of a
    Schreier-tree edge, which set u_y = g u_x for the new point y = g(x),
    has the identity as its Schreier generator, so _Level.add leaves it
    out and it is never formed.  Every Schreier generator is sifted, so
    the order is exact.  The product of the orbit lengths never exceeds
    the group order, so the max_order refusal is exact.  Level 0's strong
    generators are the promoted residues of the rows extended from level
    0: they generate the group, and each was outside the group of the
    complete chain before it, so there are at most log2 of the order of
    them, however many rows were given.  elements joins the levels into
    numpy tables, which index reads to sift base images alone, and checks
    index exact on the group by comparing whole rows.
    """

    def __init__(self, degree: int, max_order: int):
        self.degree = degree
        self.max_order = max_order
        self.identity = bytes(range(degree))
        self.levels: list[_Level] = []
        self.tables: list[_Tables] | None = None
        self.schreier_generators = 0

    def order(self) -> int:
        return math.prod(len(lev.orbit) for lev in self.levels)

    def elements(self) -> np.ndarray:
        """Every element, as uint8 rows in mixed-radix order.  The row of
        index i_0 r_0 + ... + i_{L-1} r_{L-1}, where r_l is the product of
        the orbit lengths below level l, is the product u_0 u_1 ... u_{L-1}
        of the transversal elements at orbit positions i_l.  One column
        gather per level of the tables joined here builds them.

        The rows E are then checked to be the group: E g lies in E for
        every strong generator g of level 0, which generate the group, and
        E holds the identity, so E contains the group, and each row is a
        product of group elements, so E is no more than the group.  Each
        check ranks all rows x g by index and compares them in full with
        the rows found; x g runs over the group with x, so it also shows
        index exact on every element of the group."""
        self.tables = [_Tables(lev, self.degree) for lev in self.levels]
        rows = np.arange(self.degree, dtype=np.uint8)[None, :]
        for t in self.tables:
            # row (j, i) is rows[j] u_i: a column permutation of rows[j]
            rows = np.take(rows, t.u, axis=1).reshape(-1, self.degree)
        bases = [t.base for t in self.tables]
        for t in self.tables[:1]:
            for g in t.gens:
                # the base images (x g)[b] = x[g[b]] are the columns g[b]
                idx = self.index(rows.T[g[bases]])
                if not np.array_equal(np.take(rows, idx, axis=0), np.take(rows, g, axis=1)):
                    raise AssertionError("row outside the group: not the element at its index")
        return rows

    def index(self, images: np.ndarray) -> np.ndarray:
        """Index in elements() of each element whose base images are the
        columns of images (one row per level; overwritten), read by
        sifting them alone through its tables: exact on the group, as
        elements() checks, it refuses only a base image off its orbit."""
        idx = np.zeros(images.shape[1], dtype=np.int32)
        for l, t in enumerate(self.tables):
            at = np.take(t.pos, images[l])
            if (at < 0).any():
                raise AssertionError("row outside the group: base image off the orbit")
            idx = idx * len(t.u) + at
            # sifting by u_x^-1 sends each deeper base image y to uinv[x][y],
            # entry x d + y of uinv; x d needs more than the 8 bits of x
            xd = images[l].astype(np.intp) * self.degree
            for m in range(l + 1, len(self.tables)):
                images[m] = np.take(t.uinv, xd + images[m])
        return idx

    def _sift(self, h: list[bytes], start: int) -> tuple[list[bytes], list[int]]:
        """Sift each row of h through levels start..; returns the residues
        and, per row, the level where its base image left the orbit
        (len(levels) if it passed them all).  A residue fixes the base
        points above its level, so sifting it again from start is exact."""
        levels = self.levels[start:]
        residues, stops = [], []
        for row in h:
            stop = start
            for lev in levels:
                t = lev.uinv[row[lev.base]]
                if t is None:
                    break
                row = row.translate(t)
                stop += 1
            residues.append(row)
            stops.append(stop)
        return residues, stops

    def extend(self, h: list[bytes], top: int = 0):
        """Make the group of levels top.. contain the rows h, which fix the
        base points above top.  While some residue of h is not the
        identity, the one that stopped highest (joins the fewest levels;
        the first in batch order on a tie) becomes a strong generator of
        the levels from top down to where it stopped (a new level's base
        point is the least point it moves), and the rest are sifted on
        through the grown chain.  Which residue goes first does not matter
        for exactness, since all are sifted again."""
        while h:
            h, stop = self._sift(h, top)
            moved = [j for j, row in enumerate(h) if row != self.identity]
            if not moved:
                return
            j = min(moved, key=stop.__getitem__)
            self._add_strong(h[j], top, stop[j])
            h = [h[i] for i in moved if i != j]

    def _add_strong(self, g: bytes, top: int, bottom: int):
        """Make g, which fixes the base points above level bottom, a strong
        generator of levels top..bottom, then complete them deepest first:
        each level's untested Schreier generators extend the levels below
        it."""
        if bottom == len(self.levels):
            self.levels.append(_Level(next(i for i, x in enumerate(g) if x != i), self.degree))
        tab = _table(g)
        pairs = [self.levels[l].add(g, tab) for l in range(top, bottom + 1)]
        reached = self.order()
        if reached > self.max_order:
            raise ResourceLimitError(
                f"group order is at least {reached}, above the limit {self.max_order}")
        for l in range(bottom, top - 1, -1):
            lev, made = self.levels[l], pairs[l - top]
            if made:
                self.schreier_generators += len(made)
                self.extend([lev.u[x].translate(lev.tabs[k]).translate(lev.uinv[lev.tabs[k][x]])
                             for x, k in made], l + 1)


def _build_chain(spec: GroupSpec, max_order: int) -> _Chain:
    """The stabilizer chain of the group spec generates, for orders and
    classes alike; ResourceLimitError once its order passes max_order.

    Each strong generator of level 0 costs the class path one closure
    check and one conjugation, so when the spec has more than two
    generators the chain first grows from two words of PAIR_WORD_LENGTH
    letters in them, which usually generate the group, and then from the
    inputs: each input in the words' group sifts to the identity, and each
    outside it joins level 0 as one more strong generator.  Either way the
    chain is exact for the group.  The words are seeded from the spec's
    bytes, so the chain is deterministic; no result depends on it.
    """
    chain = _Chain(spec.degree, max_order)
    rows = [bytes(g) for g in spec.generators]
    if len(rows) > 2:
        rng = random.Random(b"".join(rows))
        picks = rng.choices(range(len(rows)), k=2 * PAIR_WORD_LENGTH)
        # each word w becomes g w for its next letter g
        chain.extend([reduce(lambda w, k: w.translate(_table(rows[k])), letters, chain.identity)
                      for letters in (picks[:PAIR_WORD_LENGTH], picks[PAIR_WORD_LENGTH:])])
    chain.extend(rows)
    return chain


def group_order(spec: GroupSpec, max_order: int = MAX_GROUP_ORDER) -> int:
    """Order of the generated group; ResourceLimitError beyond max_order."""
    return _build_chain(spec, max_order).order()


# -- conjugacy class data -----------------------------------------------


@dataclass(frozen=True)
class ClassStructure:
    """Conjugacy class data of a finite group.

    Classes are indexed 0..n-1 with the identity class at index 0.
    fusion[c] is a tuple holding, for each k in units_mod(orders[c]) in
    that order, the index of the class of k-th powers of class c; the
    trivial class has the single entry for k = 0.  The exponent and the
    power maps are derived from orders and fusion, not stored.  labels
    are human-facing and carry no semantics.  Every structure is checked
    when built: InputError unless its fusion rows are consistent orbits.
    """

    group_order: int
    sizes: tuple[int, ...]
    orders: tuple[int, ...]
    fusion: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    reps: tuple = ()

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    @cached_property
    def exponent(self) -> int:
        """lcm of the element orders."""
        return math.lcm(*self.orders)

    def power_map(self, k: int) -> tuple[int, ...]:
        """Class of the k-th powers of each class, for k prime to the
        exponent."""
        return tuple(fus[bisect_left(units_mod(m), k % m)]
                     for m, fus in zip(self.orders, self.fusion))

    @cached_property
    def inverse_map(self) -> tuple[int, ...]:
        """Class of the inverses of each class: the last fusion entry, as
        the units are ascending and -1 is the greatest (for m <= 2, the
        only one)."""
        return tuple(fus[-1] for fus in self.fusion)

    def __post_init__(self):
        n = self.num_classes
        if not len(self.orders) == len(self.fusion) == len(self.labels) == n:
            raise InputError("class structure fields disagree in length")
        if sum(self.sizes) != self.group_order:
            raise InputError("class sizes do not sum to the group order")
        if tuple(self.orders[:1]) != (1,) or tuple(self.sizes[:1]) != (1,):
            raise InputError("class 0 must be the trivial class")
        # a row of one repeated index (fixed by every power map) has the
        # orbit {c} once it fixes k = 1, and needs no image set of its
        # own; None stands for it, which equals no set of two classes
        images = [None if fus.count(c) == len(fus) else frozenset(fus)
                  for c, fus in enumerate(self.fusion)]
        least: dict[frozenset, int] = {}  # the first class with each image set
        for c in range(n):
            m = self.orders[c]
            fus = self.fusion[c]
            if len(fus) != len(units_mod(m)):
                raise InputError(
                    f"fusion of class {c} has {len(fus)} entries, not one per unit mod {m}")
            if fus[0] != c:
                raise InputError(f"fusion of class {c} does not fix k = 1")
            # c is among its images, so checking each image set once, from
            # its first class, shows that the sets are orbits
            if images[c] is None or least.setdefault(images[c], c) != c:
                continue
            for d in images[c]:
                if not 0 <= d < n:
                    raise InputError(f"fusion image {d} of class {c} is not a class")
                if self.orders[d] != m or self.sizes[d] != self.sizes[c]:
                    raise InputError(
                        f"fusion image {d} of class {c} has different invariants")
                if images[d] != images[c]:
                    raise InputError(
                        f"fusion images of classes {c} and {d} are not one orbit")
        for c, ci in enumerate(self.inverse_map):
            if self.inverse_map[ci] != c:
                raise InputError(f"inverse map is not an involution at class {c}")


def _labels_for(keys: list, lower: bool = False) -> tuple[str, ...]:
    """Spreadsheet-letter labels per element order, in listed sequence."""
    out = []
    counters: dict[int, int] = {}
    for order in keys:
        i = counters.get(order, 0)
        counters[order] = i + 1
        letters = ""
        j = i
        while True:
            letters = chr(ord("A") + j % 26) + letters
            j = j // 26 - 1
            if j < 0:
                break
        out.append(f"{order}{letters.lower() if lower else letters}")
    return tuple(out)


def _assemble(group_order: int, classes: list, powers,
              lower: bool = False) -> ClassStructure:
    """The assembly step every class builder shares.

    classes lists (order, size, key) per class in the builder's own
    numbering, keys distinct; the classes are renumbered by that triple.
    powers(c) gives, for a builder class c of order m, the builder index
    of the class of c^k for each k in units_mod(m), in that order (for
    the trivial class, k = 0 and the class itself), or None when every
    power lies in c's own class: that fusion row is built as one
    repeated index.  The keys become the reps and labels are added; the
    structure checks itself.
    """
    perm = sorted(range(len(classes)), key=classes.__getitem__)
    newpos = [0] * len(perm)
    for new, old in enumerate(perm):
        newpos[old] = new

    def row(new, old):
        images = powers(old)
        if images is None:
            return (new,) * len(units_mod(classes[old][0]))
        return tuple(map(newpos.__getitem__, images))

    orders = tuple(classes[c][0] for c in perm)
    return ClassStructure(
        group_order=group_order,
        sizes=tuple(classes[c][1] for c in perm),
        orders=orders,
        fusion=tuple(map(row, range(len(perm)), perm)),
        labels=_labels_for(orders, lower),
        reps=tuple(classes[c][2] for c in perm),
    )


def _class_labels(chain: _Chain, elems: np.ndarray) -> np.ndarray:
    """For each element, the least index in its class.

    Conjugation by each strong generator g of level 0, which generate the
    group, permutes the indices: x goes to g^-1 x g, whose base images
    g^-1[x[g[b]]] are the columns g[b] of elems mapped through g^-1, and
    index ranks it from them alone, with no conjugate row formed.  Every
    conjugate is in the group, on which elements() checked index, so this
    is exact.  The classes are the orbits of these permutations, found by
    lowering every label to the least label among its images and then
    jumping pointers.
    """
    bases = [t.base for t in chain.tables]
    conj = [chain.index(np.argsort(g).astype(np.uint8)[elems.T[g[bases]]])
            for t in chain.tables[:1] for g in t.gens]
    lab = np.arange(len(elems), dtype=np.int32)
    while True:
        new = lab
        for c in conj:
            new = np.minimum(new, new[c])
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


def _least_rows(elems: np.ndarray, lab: np.ndarray, classes: int) -> np.ndarray:
    """Index of the least row, in tuple order, of each class (labelled by
    lab), ascending by index.  Column by column, only the rows that equal
    their class's least entry in that column are kept, until one row per
    class is left; rows are distinct, so the columns run out no later."""
    keep = np.arange(len(elems))
    least = np.full(len(elems), 255, dtype=np.uint8)
    for j in range(elems.shape[1]):
        col, cl = elems[keep, j], lab[keep]
        np.minimum.at(least, cl, col)
        keep = keep[col == least[cl]]
        if len(keep) == classes:
            break
        least[cl] = 255
    return keep


def _powers(rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """rows[i] to the power ks[i] >= 0, for every i at once, by binary
    powering: per bit of the exponents, one row-wise gather squares every
    row and one multiplies in the rows whose bit is set."""
    out = np.tile(np.arange(rows.shape[1], dtype=np.uint8), (len(rows), 1))
    base = rows
    while True:
        odd = ks & 1 == 1
        # powers of one element commute, so the factor order is free
        out[odd] = np.take_along_axis(base[odd], out[odd], axis=1)
        ks = ks >> 1
        if not ks.any():
            return out
        base = np.take_along_axis(base, base, axis=1)


def conjugacy_classes(spec: GroupSpec) -> ClassStructure:
    """Conjugacy class data of the group generated by spec.

    The chain, from _build_chain, stops, and ResourceLimitError is raised,
    as soon as its order times the degree passes 10^8 element-points.
    Otherwise every element is enumerated as a byte row from the chain's
    transversals, and the enumeration is checked to be closed under its
    level 0's strong generators, two when the spec has two or its seeded
    words generate the group: each product with one of them is
    ranked by sifting its base images and compared in full with the row
    at its index, which shows the sift exact on the group.  Conjugates,
    whose orbits are the classes, and the coprime powers of the
    representatives are then ranked from their base images alone.
    Classes are sorted by (element order, size, least element) and
    representatives are the least elements, so the result does not
    depend on the generating set.  The result is immutable.
    """
    try:
        chain = _build_chain(spec, MAX_ELEMENT_POINTS // spec.degree)
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            f"class computation is limited to order x degree <= 10^8 "
            f"element-points; on {spec.degree} points, {exc}") from None
    elems = chain.elements()
    lab = _class_labels(chain, elems)
    labels = np.flatnonzero(lab == np.arange(len(lab), dtype=np.int32))
    least = _least_rows(elems, lab, len(labels))
    rows = elems[least[np.argsort(lab[least])]]
    sizes = np.bincount(lab)[labels].tolist()
    reps = [tuple(r) for r in rows.tolist()]
    orders = [perm_order(r) for r in reps]
    units = [units_mod(m) for m in orders]
    counts = [len(u) for u in units]
    # every coprime power of every representative, ranked in one batch
    images = _powers(np.repeat(rows, counts, axis=0),
                     np.array([k for u in units for k in u], dtype=np.int64))
    at = chain.index(images.T[[lev.base for lev in chain.levels]])
    found = np.searchsorted(labels, lab[at]).tolist()
    starts = list(accumulate(counts, initial=0))

    def powers(c):
        return found[starts[c]:starts[c + 1]]

    return _assemble(chain.order(), list(zip(orders, sizes, reps)), powers)


# -- direct constructions -----------------------------------------------


def cyclic_group_spec(m: int) -> GroupSpec:
    if m < 1 or m > MAX_DEGREE:
        raise InputError(f"cyclic order must be in 1..{MAX_DEGREE}")
    return GroupSpec(degree=m, generators=(tuple(range(1, m)) + (0,),) if m > 1
                     else (identity_perm(1),))


def symmetric_group_spec(n: int) -> GroupSpec:
    if n < 2 or n > MAX_DEGREE:
        raise InputError(f"symmetric degree must be in 2..{MAX_DEGREE}")
    ncycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    return GroupSpec(degree=n, generators=(swap, ncycle))


def alternating_group_spec(n: int) -> GroupSpec:
    if n < 3 or n > MAX_DEGREE:
        raise InputError(f"alternating degree must be in 3..{MAX_DEGREE}")
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        big = tuple(range(1, n)) + (0,)  # n-cycle, even for odd n
    else:
        big = (0,) + tuple(range(2, n)) + (1,)  # (n-1)-cycle on 1..n-1
    return GroupSpec(degree=n, generators=(three, big))


def cyclic_class_structure(m: int) -> ClassStructure:
    """Class data of the cyclic group of order m, no permutations involved:
    class j is the residue j, and its k-th powers are the class jk mod m."""
    if m < 1:
        raise InputError("cyclic order must be positive")
    classes = [(m // math.gcd(m, j), 1, j) for j in range(m)]
    return _assemble(m, classes, lambda j: [j * k % m for k in units_mod(classes[j][0])])


def _even_classes(n: int):
    """Yield (parts, centralizer order, element order, split) for each
    partition of n with evenly many even parts, parts decreasing, in
    reverse-lexicographic order; split when the parts are odd and
    distinct.

    One recursion node per partition.  A node holds the parts above 1
    chosen so far; each child adds a smaller part p with multiplicity m,
    multiplicities in descending order, and carries on the product of
    the p^m m!, the lcm of the parts, the parity of the even parts and
    the split flag.  A node visits its children, then emits its own
    partition, filled up with ones.  Nodes are yielded, not listed, so
    no second list of the classes is held."""
    fact = [math.factorial(m) for m in range(n + 1)]

    def visit(parts, rest, top, z, order, odd_evens, split):
        for p in range(top if top < rest else rest, 1, -1):
            even = 1 - p % 2
            order_p, split_p = math.lcm(order, p), split and not even
            for m in range(rest // p, 0, -1):
                yield from visit(parts + (p,) * m, rest - p * m, p - 1, z * p ** m * fact[m],
                                 order_p, odd_evens ^ (even & m), split_p and m == 1)
        if not odd_evens:
            yield parts + (1,) * rest, z * fact[rest], order, split and rest <= 1

    return visit((), n, n, 1, 1, 0, True)


def _nonresidues(ell: int) -> np.ndarray:
    """1 at each residue mod the odd prime ell that is not a square."""
    table = np.ones(ell, dtype=np.intp)
    table[np.arange(ell) ** 2 % ell] = 0
    return table


def alternating_class_structure(n: int) -> ClassStructure:
    """Class data of the alternating group on n points, 5 <= n <= 40,
    built from cycle types without touching group elements.

    A class is a partition of n with evenly many even parts, one node of
    _even_classes, which carries its centralizer order and element order;
    it splits into a pair exactly when the parts are odd and distinct.
    An unsplit class is fixed by every power map, so its fusion row is
    one repeated index.  For split parts with product P, the k-th power
    of a class lies in the other half of its pair exactly when the
    Jacobi symbol (k / P) is -1: on a p-cycle, i -> ki mod p conjugates
    the cycle to its k-th power, and its sign is (k / p) by Zolotarev's
    lemma (Frobenius's form for odd p).  (k / P) is read from one table
    of quadratic non-residues per prime dividing P to an odd power.
    """
    if not 5 <= n <= 40:
        raise InputError(f"alternating class data supports 5 <= n <= 40, got {n}")
    nfact = math.factorial(n)
    classes = []  # (order, size, (parts, half))
    swaps = {}  # builder index of half 0 of a split pair: per unit, 1 if powers change half
    nonres = {ell: _nonresidues(ell) for ell in range(3, n + 1, 2) if is_prime(ell)}
    for parts, z, order, split in _even_classes(n):
        size = nfact // z
        if not split:
            classes.append((order, size, (parts, 0)))
            continue
        if size % 2:
            raise AssertionError("split class size must be even")
        # (k / P) is the product of the Legendre symbols (k / ell) over the
        # primes ell dividing P to an odd power, all of them prime to k
        ks = np.array(units_mod(order))
        swap = swaps[len(classes)] = np.zeros(len(ks), dtype=np.intp)
        for ell, e in factorize(math.prod(parts)).items():
            if e % 2:
                swap ^= nonres[ell][ks % ell]
        classes += [(order, size // 2, (parts, 0)), (order, size // 2, (parts, 1))]

    def powers(c):
        half = classes[c][2][1]
        swap = swaps.get(c - half)
        if swap is None:
            return None
        # a split pair is builder classes i (half 0) and i + 1 (half 1)
        return (c + (1 - 2 * half) * swap).tolist()

    return _assemble(nfact // 2, classes, powers, lower=True)
