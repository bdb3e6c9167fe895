import functools
import hashlib
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import sympy
import sympy.combinatorics as sc
from hypothesis import given, settings
from hypothesis import strategies as st

import galorb.permgroup
from galorb.classtheory import orbits, q_classes, r_classes
from galorb.errors import InputError, ResourceLimitError
from galorb.matgroup import projective_line_action
from galorb.numutil import prime_powers_upto, units_mod
from galorb.permgroup import (
    _IDENTITY_TABLE, MAX_GROUP_ORDER, ClassStructure, GroupSpec, _build_chain, _Chain,
    _class_labels, _even_classes, _inverse_table, _labels_for, _Level, _powers, _table,
    alternating_class_structure, alternating_group_spec, conjugacy_classes,
    cyclic_class_structure, cyclic_group_spec, cycles, group_order, identity_perm,
    parse_generators, perm_order, symmetric_group_spec,
)
from helpers import format_generators, pinv, pmul, reference_chain

# -- reference: the tuple-at-a-time class path ----------------------------


def ppow(p, k):
    """p to the power k, one tuple product per step of binary powering."""
    if k < 0:
        return ppow(pinv(p), -k)
    result = identity_perm(len(p))
    base = p
    while k:
        if k & 1:
            result = pmul(result, base)
        base = pmul(base, base)
        k >>= 1
    return result


def _reference_elements(spec):
    e = tuple(range(spec.degree))
    seen = {e}
    queue = [e]
    while queue:
        x = queue.pop()
        for g in spec.generators:
            y = pmul(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return sorted(seen)


def _reference_class_of(x, gens):
    cls = {x}
    queue = [x]
    while queue:
        y = queue.pop()
        for g in gens:
            z = pmul(pmul(g, y), pinv(g))
            if z not in cls:
                cls.add(z)
                queue.append(z)
    return cls


def reference_classes(spec):
    """Class data by explicit tuple enumeration, one element at a time."""
    class_sets, reps, elem_class = [], [], {}
    for x in _reference_elements(spec):
        if x in elem_class:
            continue
        # x is minimal among unassigned elements, hence in its class
        cls = _reference_class_of(x, spec.generators)
        for y in cls:
            elem_class[y] = len(class_sets)
        class_sets.append(cls)
        reps.append(x)
    perm_sort = sorted(range(len(reps)),
                       key=lambda c: (perm_order(reps[c]), len(class_sets[c]), reps[c]))
    newpos = {old: new for new, old in enumerate(perm_sort)}
    reps = [reps[c] for c in perm_sort]
    orders = tuple(perm_order(r) for r in reps)
    fusion = []
    for c, r in enumerate(reps):
        m = orders[c]
        fus = {k: newpos[elem_class[ppow(r, k)]] if m > 1 else c for k in units_mod(m)}
        fusion.append(tuple(fus[k] for k in units_mod(m)))
    return ClassStructure(
        group_order=len(elem_class),
        sizes=tuple(len(class_sets[c]) for c in perm_sort),
        orders=orders,
        fusion=tuple(fusion),
        labels=_labels_for(list(orders)),
        reps=tuple(reps),
    )


# -- reference: Schreier-Sims that rebuilds each level it completes -------


class _ReferenceChain:
    """Deterministic Schreier-Sims on tuples.  Each completion of a level
    recomputes its orbit and re-sifts all of its Schreier generators."""

    def __init__(self, degree):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.base, self.sgens, self.transversal, self.transversal_inv = [], [], [], []

    def order(self):
        return math.prod(len(t) for t in self.transversal)

    def _strong_at(self, level):
        prefix = self.base[:level]
        return [g for g in self.sgens if all(g[b] == b for b in prefix)]

    def sift(self, g, start=0):
        for i in range(start, len(self.base)):
            u_inv = self.transversal_inv[i].get(g[self.base[i]])
            if u_inv is None:
                return g, i
            g = pmul(u_inv, g)
        return g, len(self.base)

    def insert(self, g):
        res, level = self.sift(g)
        if res != self.identity:
            self._add_residue(res, level)
            for i in range(level, -1, -1):
                self._complete_level(i)

    def _add_residue(self, res, level):
        if level == len(self.base):
            b = min(x for x in range(self.degree) if res[x] != x)
            self.base.append(b)
            self.transversal.append({b: self.identity})
            self.transversal_inv.append({b: self.identity})
        self.sgens.append(res)

    def _complete_level(self, i):
        gens = self._strong_at(i)
        gens_inv = [pinv(g) for g in gens]
        b = self.base[i]
        t, t_inv = {b: self.identity}, {b: self.identity}
        queue = [b]
        while queue:
            x = queue.pop()
            for g, g_inv in zip(gens, gens_inv):
                y = g[x]
                if y not in t:
                    t[y] = pmul(g, t[x])
                    t_inv[y] = pmul(t_inv[x], g_inv)
                    queue.append(y)
        self.transversal[i], self.transversal_inv[i] = t, t_inv
        for x in list(t):
            for g in gens:
                s = pmul(t_inv[g[x]], pmul(g, t[x]))
                if s == self.identity:
                    continue
                res, j = self.sift(s, i + 1)
                if res == self.identity:
                    continue
                self._add_residue(res, j)
                for l in range(min(j, len(self.base) - 1), i, -1):
                    self._complete_level(l)


def reference_order(spec):
    """Group order from the rebuilding tuple chain."""
    chain = _ReferenceChain(spec.degree)
    for g in spec.generators:
        chain.insert(g)
    return chain.order()


# -- reference: A_n split-class fusion by explicit conjugators -------------


def _partition_perm(parts, n):
    perm = list(range(n))
    start = 0
    for p in parts:
        for i in range(p):
            perm[start + i] = start + (i + 1) % p
        start += p
    return tuple(perm)


def _conjugator_parity(g, h, parts, n):
    """Parity of some c with c g c^(-1) = h, for distinct odd cycle type.

    The centralizer of g is generated by its own cycles, all of odd
    length, so the parity does not depend on the choice of c.
    """
    by_len_h = {len(c): c for c in cycles(h)}
    c = list(range(n))
    for gc in cycles(g):
        hc = by_len_h[len(gc)]
        for i, x in enumerate(gc):
            c[x] = hc[i]
    cp = tuple(c)
    assert sorted(cp) == list(range(n)) and pmul(pmul(cp, g), pinv(cp)) == h
    return sum(len(cyc) - 1 for cyc in cycles(cp)) % 2


def reference_even_partitions(n):
    """Partitions of n with an even number of even parts, parts
    decreasing, as a list, by a recursion over the parts one at a time."""
    out = []

    def rec(remaining, maxpart, acc, evens):
        if remaining == 0:
            if evens % 2 == 0:
                out.append(tuple(acc))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc, evens + (1 - part % 2))
            acc.pop()

    rec(n, n, [], 0)
    return out


@pytest.mark.parametrize("n", range(1, 41))
def test_even_partitions_match_recursive_reference(n):
    nodes = list(_even_classes(n))
    assert [parts for parts, _, _, _ in nodes] == reference_even_partitions(n)
    # each node's data, recomputed from its parts
    for parts, z, order, split in nodes:
        distinct = set(parts)
        assert z == math.prod(p ** parts.count(p) * math.factorial(parts.count(p))
                              for p in distinct)
        assert order == math.lcm(*parts)
        assert split == (len(distinct) == len(parts) and all(p % 2 for p in parts))


def reference_alternating_class_structure(n):
    """A_n class data with each split class's power map decided by
    building the class's permutation, its k-th power and a conjugator
    between them, one unit k at a time."""
    nfact = math.factorial(n)
    records = []  # (order, size, parts, half, fusion_swap or None)
    for parts in reference_even_partitions(n):
        z = 1
        run = None
        mult = 0
        for p in parts + (0,):
            if p == run:
                mult += 1
            else:
                if run is not None:
                    z *= run ** mult * math.factorial(mult)
                run, mult = p, 1
        size = nfact // z
        order = math.lcm(*parts)
        split = all(p % 2 for p in parts) and len(set(parts)) == len(parts)
        if not split:
            records.append((order, size, parts, 0, None))
            continue
        g = _partition_perm(parts, n)
        swap = {k: _conjugator_parity(g, ppow(g, k), parts, n) for k in units_mod(order)}
        records.append((order, size // 2, parts, 0, swap))
        records.append((order, size // 2, parts, 1, swap))

    records.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    pos = {(r[2], r[3]): c for c, r in enumerate(records)}
    orders = tuple(r[0] for r in records)
    fusion = []
    for order, _size, parts, half, swap in records:
        if swap is None:
            fus = ({k: pos[(parts, 0)] for k in units_mod(order)} if order > 1
                   else {0: pos[(parts, 0)]})
        else:
            fus = {k: pos[(parts, half ^ s)] for k, s in swap.items()}
        fusion.append(tuple(fus[k] for k in units_mod(order)))
    return ClassStructure(
        group_order=nfact // 2,
        sizes=tuple(r[1] for r in records),
        orders=orders,
        fusion=tuple(fusion),
        labels=_labels_for(list(orders), lower=True),
        reps=tuple((r[2], r[3]) for r in records),
    )


def relabeled(spec, seed):
    """spec conjugated by a seeded random relabeling of its points."""
    sigma = list(range(spec.degree))
    random.Random(seed).shuffle(sigma)
    sigma = tuple(sigma)
    return GroupSpec(spec.degree, tuple(pmul(pmul(sigma, g), pinv(sigma))
                                        for g in spec.generators))


Q8_SPEC = GroupSpec(8, ((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)))

def test_group_orders():
    assert group_order(symmetric_group_spec(6)) == 720
    assert group_order(alternating_group_spec(7)) == 2520
    assert group_order(cyclic_group_spec(12)) == 12
    assert group_order(projective_line_action(7)) == 168
    assert group_order(projective_line_action(9)) == 360
    assert group_order(POINTS_256) == 24  # S4 on the points 1, 254, 255, 256


def test_a5_class_structure():
    cs = conjugacy_classes(alternating_group_spec(5))
    assert cs.group_order == 60
    assert cs.sizes == (1, 15, 20, 12, 12)
    assert cs.orders == (1, 2, 3, 5, 5)
    # squaring swaps the two classes of 5-cycles, fourth powers fix them
    assert cs.power_map(2)[3:] == (4, 3)
    assert cs.power_map(4)[3:] == (3, 4)
    # 5-cycles are real: inverse stays in the class
    assert cs.inverse_map[3] == 3 and cs.inverse_map[4] == 4


def test_a6_a7_class_counts():
    a6 = conjugacy_classes(alternating_group_spec(6))
    assert a6.num_classes == 7
    assert sorted(a6.sizes) == [1, 40, 40, 45, 72, 72, 90]
    a7 = conjugacy_classes(alternating_group_spec(7))
    assert a7.num_classes == 9
    # the two split classes of 7-cycles
    sevens = [c for c in range(9) if a7.orders[c] == 7]
    assert len(sevens) == 2
    assert all(a7.sizes[c] == 360 for c in sevens)


@pytest.mark.parametrize("n", range(5, 10))
def test_alternating_formula_matches_enumeration(n):
    generic = conjugacy_classes(alternating_group_spec(n))
    formula = alternating_class_structure(n)
    assert generic.sizes == formula.sizes
    assert generic.orders == formula.orders
    assert generic.inverse_map == formula.inverse_map
    assert generic.fusion == formula.fusion


@pytest.mark.parametrize("n", range(5, 25))
def test_alternating_structure_matches_conjugator_reference(n):
    assert alternating_class_structure(n) == reference_alternating_class_structure(n)


def test_alternating_class_bytes_are_pinned():
    """The A_n class data, pinned byte for byte: one sha256, updated in
    order with repr(alternating_class_structure(n)).encode() for
    n = 5..40.  Any change to a class, its order, size, representative,
    label or fusion row changes it."""
    digest = hashlib.sha256()
    for n in range(5, 41):
        digest.update(repr(alternating_class_structure(n)).encode())
    assert digest.hexdigest() == (
        "9eaaa611b8b6f397957671df83d68026cf279f1cf7229c4736f10da109e86823")


def test_alternating_class_data_peak_memory():
    # 129,140 fusion entries at n = 31, as one tuple per class near 3 MB
    tracemalloc.start()
    try:
        cs = alternating_class_structure(31)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, cs.fusion)) == 129_140
    assert peak < 6 * 2 ** 20, peak


def test_alternating_split_fusion_is_the_jacobi_symbol():
    # g^k leaves its half of a split pair exactly when (k / prod(parts)) = -1
    pairs = 0
    for n in range(5, 35):
        cs = alternating_class_structure(n)
        swaps = {}  # both halves of a pair share their symbols
        for c, (parts, half) in enumerate(cs.reps):
            if not all(p % 2 for p in parts) or len(set(parts)) < len(parts):
                continue
            if parts not in swaps:
                big_p = math.prod(parts)
                swaps[parts] = {k: sympy.jacobi_symbol(k, big_p) == -1
                                for k in units_mod(cs.orders[c])}
            units = units_mod(cs.orders[c])
            assert len(cs.fusion[c]) == len(units)
            for k, d in zip(units, cs.fusion[c]):
                assert cs.reps[d] == (parts, half ^ swaps[parts][k])
                pairs += 1
    assert pairs > 21_766  # the pairs for n <= 31 alone


def test_chain_order_matches_enumeration():
    # the stabilizer chain and the element enumeration must agree
    for spec in [symmetric_group_spec(5), alternating_group_spec(6),
                 projective_line_action(5), cyclic_group_spec(30)]:
        cs = conjugacy_classes(spec)
        assert group_order(spec) == cs.group_order == sum(cs.sizes)


@pytest.mark.parametrize("spec", [
    cyclic_group_spec(12),
    symmetric_group_spec(4),
    alternating_group_spec(5),
    projective_line_action(7),
], ids=["c12", "s4", "a5", "psl2_7"])
def test_fusion_composes(spec):
    # k-th power of the l-th power class is the kl-th power class
    cs = conjugacy_classes(spec)
    units = units_mod(cs.exponent)
    maps = {k: cs.power_map(k) for k in units}
    for k in units:
        for l in units:
            assert tuple(maps[l][d] for d in maps[k]) == maps[k * l % cs.exponent]


def test_validate_accepts_all_builders():
    for cs in [cyclic_class_structure(1), cyclic_class_structure(24),
               alternating_class_structure(12),
               conjugacy_classes(symmetric_group_spec(5))]:
        # a copy is built, and so checked, again
        assert replace(cs) == cs


@given(st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_cyclic_structure_properties(m):
    cs = cyclic_class_structure(m)
    assert cs.group_order == m
    assert cs.num_classes == m
    assert all(s == 1 for s in cs.sizes)
    assert sorted(cs.orders) == sorted(m // math.gcd(m, j) for j in range(m))


def test_generator_file_round_trip():
    for spec in [alternating_group_spec(5), symmetric_group_spec(6),
                 cyclic_group_spec(7), GroupSpec(3, ((0, 1, 2),))]:
        again = parse_generators(format_generators(spec))
        assert again == spec


def test_parse_rejects_garbage():
    with pytest.raises(InputError, match="header"):
        parse_generators("(1,2)\n")
    with pytest.raises(InputError, match="degree"):
        parse_generators("degree 0\n()\n")
    with pytest.raises(InputError, match="outside"):
        parse_generators("degree 3\n(1,4)\n")
    with pytest.raises(InputError, match="disjoint"):
        parse_generators("degree 4\n(1,2)(2,3)\n")
    with pytest.raises(InputError, match="no generators"):
        parse_generators("degree 4\n")
    with pytest.raises(InputError, match="at least one generator"):
        GroupSpec(4, ())
    # str.isdigit holds for these, but only ASCII digits are numbers here
    with pytest.raises(InputError, match="line 1: expected 'degree n' header"):
        parse_generators("degree \u00b2\n()\n")
    with pytest.raises(InputError, match="line 1: expected 'degree n' header"):
        parse_generators("degree \u0661\n()\n")
    with pytest.raises(InputError, match="line 2: bad point"):
        parse_generators("degree 3\n(1,\u00b2)\n")
    with pytest.raises(InputError, match="line 2: bad point"):
        parse_generators("degree 3\n(1,\u0661)\n")


GENERATOR_ALPHABET = "(),# \t\n0123456789\u00b2\u0661"


@given(st.one_of(
    st.text(GENERATOR_ALPHABET, max_size=30),
    st.builds("degree {}\n{}".format,
              st.text("0123456789\u00b2\u0661", min_size=1, max_size=2),
              st.text(GENERATOR_ALPHABET, max_size=30))))
@settings(max_examples=300, deadline=None)
def test_parse_generators_returns_a_spec_or_refuses(text):
    try:
        spec = parse_generators(text)
    except InputError:
        return
    assert isinstance(spec, GroupSpec)


def test_resource_guards():
    with pytest.raises(ResourceLimitError):
        group_order(symmetric_group_spec(20), max_order=1000)
    with pytest.raises(ResourceLimitError):
        conjugacy_classes(symmetric_group_spec(20))


def test_class_order_guard_matches_perm_basics():
    cs = conjugacy_classes(symmetric_group_spec(5))
    spec = symmetric_group_spec(5)
    # representatives, when kept, have the advertised order
    for c, rep in enumerate(cs.reps):
        assert perm_order(rep) == cs.orders[c]
        assert pmul(rep, pinv(rep)) == tuple(range(spec.degree))


# -- the numpy class path against the reference and against sympy -------

POINTS_256 = GroupSpec(256, (
    (255,) + tuple(range(1, 255)) + (0,),  # the transposition (1,256)
    tuple(range(253)) + (254, 255, 253),  # the 3-cycle (254,255,256)
))


REFERENCE_GROUPS = {
    **{f"psl2_{q}": relabeled(projective_line_action(q), q) for q in (5, 7, 8, 9, 11)},
    "a6": alternating_group_spec(6),
    "s5": symmetric_group_spec(5),
    "q8": Q8_SPEC,
    "c30": cyclic_group_spec(30),
    "trivial_1": GroupSpec(1, ((0,),)),
    "trivial_4": GroupSpec(4, ((0, 1, 2, 3),)),
    "s4_on_256": POINTS_256,
}
REFERENCE_SPECS = pytest.mark.parametrize(
    "spec", REFERENCE_GROUPS.values(), ids=REFERENCE_GROUPS)

# the groups whose classes the perm-groups benchmark takes, relabeled
PERM_GROUPS = {
    **{f"psl2_{q}": relabeled(projective_line_action(q), 1000 + q) for q in (29, 32, 37)},
    "a8": relabeled(alternating_group_spec(8), 1008),
    "s8": relabeled(symmetric_group_spec(8), 1008),
}


@REFERENCE_SPECS
def test_classes_match_reference(spec):
    assert conjugacy_classes(spec) == reference_classes(spec)


@REFERENCE_SPECS
def test_power_maps_match_reference_powers(spec):
    # the class of r^k, looked up among the classes of the representatives
    # enumerated one element at a time, for every unit k mod the exponent
    cs = conjugacy_classes(spec)
    class_of = {x: c for c, r in enumerate(cs.reps)
                for x in _reference_class_of(r, spec.generators)}
    for k in units_mod(cs.exponent):
        assert cs.power_map(k) == tuple(class_of[ppow(r, k)] for r in cs.reps), k
    assert cs.inverse_map == cs.power_map(-1) == tuple(class_of[pinv(r)] for r in cs.reps)


# -- the batched powers against ppow --------------------------------------


def wide_specs():
    """150 specs: PSL(2, q) for the 27 prime powers q <= 64, A3-A9,
    S2-S9, eight cyclic groups up to C_256, Q8, S4 on 256 points, two
    trivial groups, and two relabelings of each of degree <= 64 that is
    not trivial."""
    out = {f"psl2_{q}": projective_line_action(q) for q in prime_powers_upto(64)}
    out.update({f"a{n}": alternating_group_spec(n) for n in range(3, 10)})
    out.update({f"s{n}": symmetric_group_spec(n) for n in range(2, 10)})
    out.update({f"c{m}": cyclic_group_spec(m) for m in (1, 2, 6, 12, 30, 64, 120, 256)})
    out.update({"q8": Q8_SPEC, "s4_on_256": POINTS_256, "trivial_1": GroupSpec(1, ((0,),)),
                "trivial_4": GroupSpec(4, ((0, 1, 2, 3),))})
    small = [k for k, s in out.items() if s.degree <= 64 and not k.startswith("trivial")]
    for k in small:
        for seed in (1, 2):
            out[f"{k}_r{seed}"] = relabeled(out[k], seed)
    return out


@functools.cache
def wide_structures():
    """conjugacy_classes of each of wide_specs(), in its order, built once
    for the tests that read them all (each is immutable)."""
    return tuple(map(conjugacy_classes, wide_specs().values()))


def test_batched_powers_match_ppow():
    specs = wide_specs()
    assert len(specs) == 150
    for name, spec in specs.items():
        # each generator and the product of the first and the last, to
        # every power from 0 to its order
        perms = [*spec.generators, pmul(spec.generators[0], spec.generators[-1])]
        counts = [perm_order(p) + 1 for p in perms]
        want = [ppow(p, k) for p, c in zip(perms, counts) for k in range(c)]
        got = _powers(np.repeat(np.array(perms, dtype=np.uint8), counts, axis=0),
                      np.array([k for c in counts for k in range(c)], dtype=np.int64))
        assert got.dtype == np.uint8 and list(map(tuple, got.tolist())) == want, name


# -- the chain's enumeration against the breadth-first one ---------------


def _row_keys(rows):
    """One opaque byte string per uint8 row, compared by memcmp: the
    tuple order of the rows."""
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def reference_element_keys(spec):
    """Sorted keys of every element, grown by breadth-first frontiers:
    each layer's products are sorted, checked against every key so far
    by two searchsorted passes, and merged in by a stable sort."""
    d = spec.degree
    gens = np.array(spec.generators, dtype=np.intp).ravel()
    frontier = np.arange(d, dtype=np.uint8)[None, :]
    keys = _row_keys(frontier)
    while len(frontier):
        cand = np.sort(_row_keys(np.take(frontier, gens, axis=1).reshape(-1, d)),
                       kind="stable")
        fresh = (np.searchsorted(keys, cand)
                 == np.searchsorted(keys, cand, side="right"))
        fresh[1:] &= cand[1:] != cand[:-1]
        frontier = cand[fresh]
        keys = np.sort(np.concatenate((keys, frontier)), kind="stable")
        frontier = frontier.view(np.uint8).reshape(-1, d)
    return keys


@pytest.mark.parametrize("spec", [*REFERENCE_GROUPS.values(), *PERM_GROUPS.values()],
                         ids=[*REFERENCE_GROUPS, *(f"bench_{k}" for k in PERM_GROUPS)])
def test_chain_enumerates_the_breadth_first_elements(spec):
    chain = _build_chain(spec, MAX_GROUP_ORDER)
    elems = chain.elements()
    assert elems.dtype == np.uint8 and elems.shape == (chain.order(), spec.degree)
    assert np.array_equal(np.sort(_row_keys(elems)), reference_element_keys(spec))


def test_closure_check_refuses_rows_outside_the_group():
    for n in (5, 7):
        chain = _build_chain(alternating_group_spec(n), MAX_GROUP_ORDER)
        assert len(chain.elements()) == chain.order()
        # a last-level transversal row with the images of two points off
        # the base swapped: every row built from it keeps its base images,
        # so only the closure check's full compare tells it apart
        bases = [lev.base for lev in chain.levels]
        p, q = sorted(set(range(n)) - set(bases))[:2]
        lev = chain.levels[-1]
        x = lev.orbit[1]
        row = bytearray(lev.u[x])
        row[p], row[q] = row[q], row[p]
        assert [row[b] for b in bases] == [lev.u[x][b] for b in bases]
        lev.u[x] = bytes(row)
        with pytest.raises(AssertionError,
                           match="row outside the group: not the element at its index"):
            chain.elements()
    # index refuses a base image off its level's orbit: the last level
    # fixes the first base point
    images = np.array(bases, dtype=np.uint8)[:, None]
    images[-1] = bases[0]
    with pytest.raises(AssertionError, match="row outside the group: base image off the orbit"):
        chain.index(images)


def test_enumeration_checks_closure_under_the_generators():
    chain = _Chain(5, MAX_GROUP_ORDER)
    chain.extend([bytes(g) for g in alternating_group_spec(5).generators])
    assert len(chain.elements()) == 60
    chain.levels.pop()
    with pytest.raises(AssertionError, match="row outside the group"):
        chain.elements()


def _three_cycle_spec(n, inverses=True):
    """A_n given by all 2 C(n, 3) of its 3-cycles, or without inverses by
    the C(n, 3) cycles (a, b, c) with a < b < c."""
    gens = []
    for a, b, c in itertools.combinations(range(n), 3):
        for x, y, z in ((a, b, c), (a, c, b))[:2 if inverses else 1]:
            g = list(range(n))
            g[x], g[y], g[z] = y, z, x
            gens.append(tuple(g))
    return GroupSpec(n, tuple(gens))


def test_classes_enumerate_from_the_generators_that_grew_the_chain():
    # at most log2 20160 < 15 of the 112 generators enter the element
    # and conjugation gathers; one gather per generator peaked at 34 MB
    spec = _three_cycle_spec(8)
    assert len(spec.generators) == 112
    tracemalloc.start()
    try:
        cs = conjugacy_classes(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cs == conjugacy_classes(alternating_group_spec(8))
    assert peak < 8 * 2 ** 20, peak


# -- conjugation from the lookups against the conjugate rows --------------

M11_TEXT = "(1,2,3,4,5,6,7,8,9,10,11)\n(3,7,11,8)(4,10,5,6)\n"
M11_SPEC = parse_generators("degree 11\n" + M11_TEXT)
M12_SPEC = parse_generators("degree 12\n" + M11_TEXT + "(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)\n")
# C2^3, which no two of its elements generate
C2_CUBED = GroupSpec(6, ((1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)))


def reference_conjugation(chain, elems, g):
    """The index of g^-1 x g for each element x, from the conjugate rows
    themselves, each ranked from its base images and compared in full."""
    # (g^-1 x g)[i] = g^-1[x[g[i]]]
    rows = np.argsort(g)[np.take(elems, g, axis=1)]
    idx = chain.index(rows.T[[lev.base for lev in chain.levels]])
    assert np.array_equal(np.take(elems, idx, axis=0), rows)
    return idx


def reference_labels(conj, count):
    """The least index in each orbit of the permutations conj, by lowering
    each label along them, without pointer jumps, until none changes."""
    lab = np.arange(count)
    while True:
        new = lab
        for c in conj:
            new = np.minimum(new, new[c])
        if np.array_equal(new, lab):
            return lab
        lab = new


def test_class_labels_match_the_conjugate_rows():
    checked = 0
    extra = {"m11": M11_SPEC, "m12": M12_SPEC, "c2_cubed": C2_CUBED}
    for name, spec in {**wide_specs(), **extra}.items():
        chain = _build_chain(spec, MAX_GROUP_ORDER)
        if chain.order() > 50_000 and spec is not M12_SPEC:
            continue
        checked += 1
        elems = chain.elements()
        gens = [g for t in chain.tables[:1] for g in t.gens]
        want = [reference_conjugation(chain, elems, g) for g in gens]
        # the conjugation maps are what index returns inside _class_labels
        conj = []
        index = chain.index

        def recorded(images):
            conj.append(index(images))
            return conj[-1]

        chain.index = recorded
        lab = _class_labels(chain, elems)
        for got, ref in zip(conj, want, strict=True):
            assert got.dtype == np.int32 and np.array_equal(got, ref), name
        assert np.array_equal(lab, reference_labels(want, len(elems))), name
    assert checked == 131


def test_mathieu_classes_from_two_generators():
    # the ATLAS class counts; a chain grown from M12's three inputs alone
    # keeps all three
    assert len(_grown(_Chain, M12_SPEC).levels[0].gens) == 3
    for spec, order, classes in ((M11_SPEC, 7920, 10), (M12_SPEC, 95040, 15)):
        chain = _build_chain(spec, MAX_GROUP_ORDER)
        assert chain.order() == order and len(chain.levels[0].gens) == 2
        assert conjugacy_classes(spec).num_classes == classes


def test_class_path_bytes_are_pinned():
    """The class path's output, pinned byte for byte: one sha256, updated
    in this order with repr(conjugacy_classes(s)).encode() for each of the
    150 wide_specs() in dict order, then M11_SPEC, then M12_SPEC.  Any
    change to a class, its order, size, representative, label or fusion
    row changes it."""
    digest = hashlib.sha256()
    for cs in [*wide_structures(), *map(conjugacy_classes, (M11_SPEC, M12_SPEC))]:
        digest.update(repr(cs).encode())
    assert digest.hexdigest() == (
        "cbcc3eecba4b35856994eda7cea6c0064049da0a736c73e98f698207c9f27ca0")


def test_groups_not_two_generated_keep_the_chain_generators():
    assert len(_build_chain(C2_CUBED, MAX_GROUP_ORDER).levels[0].gens) == 3
    assert conjugacy_classes(C2_CUBED) == reference_classes(C2_CUBED)


def test_pair_choice_does_not_depend_on_the_hash_seed():
    # the chain's level 0 generators, for specs of three generators, whose
    # chains grow first from the seeded words
    script = ("import hashlib; "
              "from galorb.matgroup import projective_line_action; "
              "from galorb.permgroup import _build_chain, parse_generators; "
              f"specs = [parse_generators({format_generators(M12_SPEC)!r}), "
              "*map(projective_line_action, (29, 32, 37))]; "
              "print([hashlib.sha256(b''.join(_build_chain(s, 10**8).levels[0].gens))"
              ".hexdigest()"
              " for s in specs])")
    root = pathlib.Path(__file__).resolve().parent.parent
    src = pathlib.Path(galorb.permgroup.__file__).resolve().parent.parent
    outs = set()
    for seed in ("0", "1", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_corrupted_sift_is_refused():
    # swap two entries of one transversal inverse of level 1, at the base
    # points of the next two levels: the sift then sends the elements
    # through that orbit point to wrong indices, which the closure check's
    # full compare refuses
    chain = _build_chain(M11_SPEC, MAX_GROUP_ORDER)
    lev, p, q = chain.levels[1], chain.levels[2].base, chain.levels[3].base
    x = lev.orbit[1]
    table = bytearray(lev.uinv[x])
    table[p], table[q] = table[q], table[p]
    lev.uinv[x] = bytes(table)
    with pytest.raises(AssertionError,
                       match="row outside the group: not the element at its index"):
        chain.elements()


@pytest.mark.parametrize("spec, compares, indexes", [
    (projective_line_action(37), 2, 5),
    (M12_SPEC, 2, 5),
    (alternating_group_spec(8), 2, 5),
    (cyclic_group_spec(12), 1, 3),
    (projective_line_action(8), 3, 7),
], ids=["psl2_37", "m12", "a8", "c12", "psl2_8"])
def test_class_path_lookup_counts(spec, compares, indexes, monkeypatch):
    # index ranks the products with each of the k level 0 generators (the
    # closure check), the conjugates by each and, once, the powers; only
    # the closure check compares element rows in full, k times; a lookup
    # or compare added back to the path changes these counts.  PSL(2, 8)'s
    # seeded words miss the group, so one input joins level 0 (k = 3)
    calls = {"compares": 0, "index": 0}
    index, array_equal = _Chain.index, np.array_equal

    def counted_index(self, images):
        calls["index"] += 1
        return index(self, images)

    def counted_equal(a, b):
        # element rows are 2-dimensional, one column per point
        calls["compares"] += np.ndim(a) == 2 and np.shape(a)[1] == spec.degree
        return array_equal(a, b)

    monkeypatch.setattr(_Chain, "index", counted_index)
    monkeypatch.setattr(np, "array_equal", counted_equal)
    got = conjugacy_classes(spec)
    assert calls == {"compares": compares, "index": indexes}
    if got.group_order <= 1000:  # the tuple enumeration is slow past that
        assert got == reference_classes(spec)


@pytest.mark.parametrize("q", [32, 64])
def test_class_path_peak_memory_per_element_point(q):
    # the peak is the closure check's: the elements, their product with a
    # generator, the rows gathered at its ranks and the compare, a byte per
    # element-point each (4.1 times at q = 32 and 64); rows built with a
    # uint8 table as a whole np.take index, which numpy casts to intp at
    # once, peaked at 11.3 times
    spec = projective_line_action(q)
    points = group_order(spec) * spec.degree
    tracemalloc.start()
    try:
        conjugacy_classes(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * points, peak / points


@pytest.mark.parametrize("spec, parent_mb", [
    (projective_line_action(64), 69.0),
    (alternating_group_spec(9), 11.4),
    (symmetric_group_spec(9), 22.8),
], ids=["psl2_64", "a9", "s9"])
def test_class_enumeration_peak_memory(spec, parent_mb):
    # parent_mb is the peak of the breadth-first enumeration this path
    # replaced, on the same groups; the chain's is to stay within 1.25 times
    group_order(spec)
    tracemalloc.start()
    try:
        conjugacy_classes(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * parent_mb * 2 ** 20, peak


def test_cached_fusion_maps_are_read_only():
    first = conjugacy_classes(alternating_group_spec(5))
    with pytest.raises(TypeError):
        first.fusion[3][4] = 4
    with pytest.raises(TypeError):
        del first.fusion[0][0]
    again = conjugacy_classes(alternating_group_spec(5))
    assert again == first
    assert replace(again) == again
    assert again.power_map(4)[3] == 3


def test_validate_rejects_malformed_fusion_rows():
    cs = cyclic_class_structure(5)
    assert cs.fusion[1:3] == ((1, 2, 3, 4), (2, 4, 1, 3))
    # replace builds a new structure, which is checked as it is built
    with pytest.raises(InputError, match="has 3 entries, not one per unit mod 5"):
        replace(cs, fusion=(cs.fusion[0], cs.fusion[1][:3]) + cs.fusion[2:])
    with pytest.raises(InputError, match="fusion of class 1 does not fix k = 1"):
        replace(cs, fusion=(cs.fusion[0], cs.fusion[2]) + cs.fusion[2:])
    for bad in [(), (0, 0)]:
        with pytest.raises(InputError, match="class 0 has"):
            replace(cs, fusion=(bad,) + cs.fusion[1:])
    # a structure with no classes has no trivial class
    with pytest.raises(InputError, match="class 0 must be the trivial class"):
        ClassStructure(group_order=0, sizes=(), orders=(), fusion=(), labels=())


def test_validate_rejects_fusion_rows_that_are_not_orbits():
    # classes 1 and 3 reach 2 and 4, which reach only themselves; the
    # inverse map is still an involution
    cs = cyclic_class_structure(5)
    split = ((0,), (1, 2, 2, 1), (2, 2, 2, 2), (3, 4, 4, 3), (4, 4, 4, 4))
    # the images at k = 4 = -1 mod 5
    assert tuple(fus[-1] for fus in split) == (0, 1, 2, 3, 4)
    with pytest.raises(InputError, match="fusion images of classes 1 and 2 are not one orbit"):
        replace(cs, fusion=split)


def test_validate_rejects_constant_rows_inside_another_orbit():
    # the mirror case: class 1 reaches only itself, class 2 reaches 1
    cs = cyclic_class_structure(5)
    split = ((0,), (1, 1, 1, 1), (2, 1, 1, 2), (3, 4, 4, 3), (4, 4, 4, 4))
    assert tuple(fus[-1] for fus in split) == (0, 1, 2, 3, 4)
    with pytest.raises(InputError, match="fusion images of classes 2 and 1 are not one orbit"):
        replace(cs, fusion=split)


def test_orbit_and_inverse_reads_match_the_generic_ones():
    # q_classes and inverse_map read a row fixed by every power map, and
    # the unit -1, directly; the generic reads agree on every builder
    structures = itertools.chain(wide_structures(),
                                 map(cyclic_class_structure, range(1, 61)),
                                 map(alternating_class_structure, range(5, 41)))
    for cs in structures:
        assert q_classes(cs) == orbits(cs.fusion)
        assert r_classes(cs) == orbits(enumerate(cs.inverse_map))
        assert cs.inverse_map == cs.power_map(-1)


def test_equal_structures_hash_equal():
    spec = alternating_group_spec(5)
    cached = conjugacy_classes(spec)
    rebuilt = reference_classes(spec)
    assert rebuilt == cached and rebuilt is not cached
    assert hash(rebuilt) == hash(cached)
    assert len({cached, rebuilt, cyclic_class_structure(5)}) == 2


@st.composite
def small_generating_sets(draw):
    degree = draw(st.integers(1, 7))
    perm = st.permutations(range(degree)).map(tuple)
    return GroupSpec(degree, tuple(draw(st.lists(perm, min_size=1, max_size=3))))


@given(small_generating_sets())
@settings(max_examples=40, deadline=None)
def test_order_and_class_sizes_match_sympy(spec):
    group = sc.PermutationGroup([sc.Permutation(list(g)) for g in spec.generators])
    assert group_order(spec) == group.order()
    cs = conjugacy_classes(spec)
    assert sorted(cs.sizes) == sorted(len(c) for c in group.conjugacy_classes())


@given(small_generating_sets())
@settings(max_examples=40, deadline=None)
def test_index_of_each_element_is_its_position(spec):
    chain = _build_chain(spec, MAX_GROUP_ORDER)
    elems = chain.elements()
    bases = [lev.base for lev in chain.levels]
    assert np.array_equal(chain.index(elems.T[bases]), np.arange(chain.order()))


def test_chain_orders_of_relabeled_large_groups():
    for n in range(16, 25):
        for spec, order in [(relabeled(symmetric_group_spec(n), n), math.factorial(n)),
                            (relabeled(alternating_group_spec(n), n), math.factorial(n) // 2)]:
            assert group_order(spec, max_order=order) == order
    assert group_order(relabeled(symmetric_group_spec(30), 30),
                       max_order=math.factorial(30)) == math.factorial(30)


# -- the incremental chain against the rebuilding reference and sympy ----


@st.composite
def generating_sets_up_to_12(draw):
    degree = draw(st.integers(1, 12))
    perm = st.permutations(range(degree)).map(tuple)
    return GroupSpec(degree, tuple(draw(st.lists(perm, min_size=1, max_size=3))))


@given(generating_sets_up_to_12())
@settings(max_examples=60, deadline=None)
def test_order_matches_reference_and_sympy(spec):
    group = sc.PermutationGroup([sc.Permutation(list(g)) for g in spec.generators])
    order = group_order(spec, max_order=math.factorial(12))
    assert order == reference_order(spec) == group.order()
    # each transversal row sends the base point to its point, and its
    # inverse table undoes it, past the degree too
    for lev in _build_chain(spec, math.factorial(12)).levels:
        for x in lev.orbit:
            assert lev.u[x][lev.base] == x
            assert _table(lev.u[x]).translate(lev.uinv[x]) == _IDENTITY_TABLE


@st.composite
def permutation_pairs(draw):
    degree = draw(st.integers(1, 256))
    perm = st.permutations(range(degree)).map(bytes)
    return draw(perm), draw(perm)


@given(permutation_pairs())
@settings(max_examples=60, deadline=None)
def test_translate_composes_like_numpy(pair):
    # a translated by the table of b is b o a, and b's inverse table
    # undoes b's table on both sides and is the identity past the degree
    a, b = pair
    want = np.frombuffer(b, dtype=np.uint8)[np.frombuffer(a, dtype=np.uint8)]
    assert a.translate(_table(b)) == want.tobytes()
    inv = _inverse_table(b)
    assert _table(b).translate(inv) == inv.translate(_table(b)) == _IDENTITY_TABLE
    assert inv[len(b):] == _IDENTITY_TABLE[len(b):]


@pytest.mark.parametrize("spec, order", [
    (relabeled(f(n), 100 + n), order)
    for n in (16, 17, 18)
    for f, order in ((symmetric_group_spec, math.factorial(n)),
                     (alternating_group_spec, math.factorial(n) // 2))
], ids=[f"{name}{n}" for n in (16, 17, 18) for name in ("s", "a")])
def test_order_guard_boundary(spec, order):
    assert group_order(spec, max_order=order) == order
    with pytest.raises(ResourceLimitError, match=f"above the limit {order - 1}$"):
        group_order(spec, max_order=order - 1)


@pytest.mark.parametrize("spec", [
    relabeled(symmetric_group_spec(18), 7),
    relabeled(alternating_group_spec(17), 7),
    projective_line_action(49),
    POINTS_256,
    Q8_SPEC,
    GroupSpec(4, ((0, 1, 2, 3),)),
], ids=["s18", "a17", "psl2_49", "s4_on_256", "q8", "trivial_4"])
def test_each_schreier_generator_is_formed_once(spec):
    # every (orbit point, generator) pair but the |orbit| - 1 tree edges,
    # whose Schreier generators are the identity and are never formed
    chain = _build_chain(spec, max_order=math.factorial(18))
    assert chain.schreier_generators == sum(
        len(level.orbit) * len(level.gens) - (len(level.orbit) - 1)
        for level in chain.levels)


def _grown(cls, spec):
    """A fresh chain of class cls, grown from the generators of spec."""
    chain = cls(spec.degree, math.factorial(18))
    chain.extend([bytes(g) for g in spec.generators])
    return chain


ADD_GROUPS = pytest.mark.parametrize(
    "spec", [*REFERENCE_GROUPS.values(), relabeled(symmetric_group_spec(18), 7)],
    ids=[*REFERENCE_GROUPS, "s18"])


def _schreier_generators(level, pairs):
    """u_y^-1 g_k u_x for y = g_k(x), one row per pair (x, k), each
    product formed tuple at a time."""
    u = {x: tuple(level.u[x]) for x in level.orbit}
    return [pmul(pinv(u[level.gens[k][x]]), pmul(tuple(level.gens[k]), u[x]))
            for x, k in pairs]


@ADD_GROUPS
def test_pairs_marked_in_add_are_the_identity(spec, monkeypatch):
    # add returns the pairs it made, row-major, but for the tree edges,
    # whose Schreier generators are the identity
    add = _Level.add
    skipped = []

    def checked_add(level, *args):
        old = len(level.orbit)
        returned = add(level, *args)
        gens = len(level.gens)
        made = {(r, k) for r in range(len(level.orbit)) for k in range(gens)
                if r >= old or k == gens - 1}
        at = [(level.orbit.index(x), k) for x, k in returned]
        keys = [r * gens + k for r, k in at]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert made.issuperset(at)
        made.difference_update(at)
        pairs = [(level.orbit[r], k) for r, k in sorted(made)]
        assert set(_schreier_generators(level, pairs)) <= {identity_perm(spec.degree)}
        skipped.append(len(pairs))
        return returned

    monkeypatch.setattr(_Level, "add", checked_add)
    chain = _grown(_Chain, spec)
    assert sum(skipped) == sum(len(level.orbit) - 1 for level in chain.levels)


@ADD_GROUPS
def test_a_level_is_complete_whenever_it_grows(spec, monkeypatch):
    # every Schreier generator of a level sifts to the identity through the
    # levels below it before each add to the level, once it has generators,
    # and at the end
    chain = _Chain(spec.degree, math.factorial(18))
    add = _Level.add

    def assert_complete(l):
        level = chain.levels[l]
        pairs = [(x, k) for x in level.orbit for k in range(len(level.gens))]
        h, _ = chain._sift(list(map(bytes, _schreier_generators(level, pairs))), l + 1)
        assert set(h) <= {chain.identity}

    def checked_add(level, *args):
        if len(level.gens):
            assert_complete(next(l for l, lev in enumerate(chain.levels) if lev is level))
        return add(level, *args)

    monkeypatch.setattr(_Level, "add", checked_add)
    chain.extend([bytes(g) for g in spec.generators])
    for l in range(len(chain.levels)):
        assert_complete(l)


class _FirstResidueChain(_Chain):
    """The chain with the earlier promotion rule: of a batch's residues,
    the first that is not the identity in batch order becomes a strong
    generator, whichever levels it joins."""

    def extend(self, h, top=0):
        while True:
            h, stop = self._sift(h, top)
            moved = [j for j, row in enumerate(h) if row != self.identity]
            if not moved:
                return
            first = moved[0]
            self._add_strong(h[first], top, stop[first])
            h = [h[j] for j in moved[1:]]


@REFERENCE_SPECS
def test_first_residue_rule_gives_the_same_classes(spec, monkeypatch):
    want = group_order(spec), conjugacy_classes(spec)
    with monkeypatch.context() as m:
        m.setattr(galorb.permgroup, "_Chain", _FirstResidueChain)
        assert type(_build_chain(spec, MAX_GROUP_ORDER)) is _FirstResidueChain
        assert (group_order(spec), conjugacy_classes(spec)) == want


# relabeled S_n and A_n, n = 16, 17, 18, with their orders
LARGE_SA = [
    (relabeled(f(n), 100 + n), order)
    for n in (16, 17, 18)
    for f, order in ((symmetric_group_spec, math.factorial(n)),
                     (alternating_group_spec, math.factorial(n) // 2))
]
LARGE_SA_IDS = [f"{name}{n}" for n in (16, 17, 18) for name in ("s", "a")]


@pytest.mark.parametrize("spec, order", LARGE_SA, ids=LARGE_SA_IDS)
def test_first_residue_rule_gives_the_same_order(spec, order):
    assert _grown(_FirstResidueChain, spec).order() == _grown(_Chain, spec).order() == order


def test_schreier_generator_total_on_large_groups():
    # forming the tree edges too and promoting the first residue formed
    # 4469 on these six groups
    assert sum(_grown(_Chain, spec).schreier_generators for spec, _ in LARGE_SA) == 2499


def _grown_one_at_a_time(spec, max_order=math.factorial(18)):
    """A fresh chain extended by one input row at a time, in input order."""
    chain = _Chain(spec.degree, max_order)
    for g in spec.generators:
        chain.extend([bytes(g)])
    return chain


BATCH_GROUPS = {**REFERENCE_GROUPS,
                "a8_3cycles": _three_cycle_spec(8, inverses=False),
                "a9_3cycles": _three_cycle_spec(9, inverses=False)}


@pytest.mark.parametrize("spec", BATCH_GROUPS.values(), ids=BATCH_GROUPS)
def test_batched_and_one_at_a_time_chains_agree(spec, monkeypatch):
    batched, single = _grown(_Chain, spec), _grown_one_at_a_time(spec)
    order = batched.order()
    assert single.order() == order
    for chain in (batched, single):
        # each strong generator of level 0 at least doubled the order
        assert 2 ** sum(len(lev.gens) for lev in chain.levels[:1]) <= order
    want = conjugacy_classes(spec)
    calls = []

    def one_at_a_time(spec, max_order):
        calls.append(spec)
        return _grown_one_at_a_time(spec, max_order)

    with monkeypatch.context() as m:
        m.setattr(galorb.permgroup, "_build_chain", one_at_a_time)
        assert conjugacy_classes(spec) == want
    # the classes were enumerated from the patched chain
    assert calls == [spec]


def test_batched_inputs_form_fewer_schreier_generators():
    specs = [BATCH_GROUPS["a8_3cycles"], BATCH_GROUPS["a9_3cycles"]]
    assert sum(_grown(_Chain, spec).schreier_generators for spec in specs) == 170
    assert sum(_grown_one_at_a_time(spec).schreier_generators for spec in specs) == 267


def test_chain_matches_the_reference_chain():
    # the bytes chain against the uint8-array one it replaced, level by
    # level: base, orbit order, strong generators, transversal rows and
    # their inverses, and the Schreier generators formed; and the same
    # max_order refusal
    limit = math.factorial(18)
    specs = [*REFERENCE_GROUPS.values(), *wide_specs().values(),
             *(spec for spec, _ in LARGE_SA), M11_SPEC, M12_SPEC, C2_CUBED, POINTS_256,
             *(_three_cycle_spec(n, inverses) for n in (8, 9) for inverses in (True, False)),
             *map(projective_line_action, (29, 32, 37, 49, 64))]
    for spec in specs:
        chain, want = _build_chain(spec, limit), reference_chain(spec, limit)
        assert chain.schreier_generators == want.schreier_generators
        assert [lev.base for lev in chain.levels] == [lev.base for lev in want.levels]
        for lev, ref in zip(chain.levels, want.levels, strict=True):
            assert lev.orbit == ref.orbit.tolist()
            assert len(lev.gens) == len(ref.gens)
            assert b"".join(lev.gens) == ref.gens.tobytes()
            assert b"".join(lev.u[x] for x in lev.orbit) == ref.u[ref.orbit].tobytes()
            assert (b"".join(lev.uinv[x][:spec.degree] for x in lev.orbit)
                    == ref.uinv[ref.orbit].tobytes())
    for spec, order in LARGE_SA:
        refusals = []
        for build in (_build_chain, reference_chain):
            with pytest.raises(ResourceLimitError, match=f"above the limit {order - 1}$") as err:
                build(spec, order - 1)
            refusals.append(str(err.value))
        assert refusals[0] == refusals[1]
