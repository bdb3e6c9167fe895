"""Helpers several test modules share: writers, number theory,
permutation products and the reference stabilizer chain that only the
tests call, so they live here rather than in galorb."""

import json
import random

import numpy as np

from galorb.chartab import CharacterTable
from galorb.cyclotomic import CyclotomicNumber
from galorb.errors import ResourceLimitError
from galorb.numutil import factorize
from galorb.permgroup import PAIR_WORD_LENGTH, GroupSpec, cycles


def divisors(n: int) -> list[int]:
    """Sorted list of the positive divisors of n."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def pmul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Composition: apply q, then p."""
    return tuple(map(p.__getitem__, q))


def pinv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def value_to_obj(z: CyclotomicNumber):
    """JSON-ready form: a rational string, or {"n": N, "coeffs": {...}}."""
    if z.order == 1:
        return str(z.rational_value)
    return {"n": z.order, "coeffs": {str(e): str(c) for e, c in z.coeffs.items()}}


def serialize_table(t: CharacterTable) -> str:
    """Canonical JSON rendering; parse(serialize(t)) round-trips exactly."""
    obj = {
        "name": t.name,
        "order": t.group_order,
        "class_sizes": list(t.class_sizes),
        "irr": [[value_to_obj(z) for z in row] for row in t.irr],
    }
    if t.class_orders is not None:
        obj["class_orders"] = list(t.class_orders)
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def format_generators(spec: GroupSpec) -> str:
    """The generator file format parse_generators reads: a degree line,
    then one product of disjoint 1-based cycles per generator."""
    lines = [f"degree {spec.degree}"]
    for g in spec.generators:
        cycs = cycles(g)
        if not cycs:
            lines.append("()")
        else:
            lines.append("".join("(" + ",".join(str(x + 1) for x in c) + ")" for c in cycs))
    return "\n".join(lines) + "\n"


# -- reference: the chain built on uint8 arrays ---------------------------


class ReferenceLevel:
    """One level of the reference chain, on uint8 arrays: gens holds the
    strong generators as rows, the orbit grows in place, pos[x] is the
    position of x in it (-1 outside), u[x] a transversal element sending
    the base point to x and uinv[x] its inverse."""

    def __init__(self, base: int, degree: int):
        identity = np.arange(degree, dtype=np.uint8)
        self.base = base
        self.gens = np.empty((0, degree), dtype=np.uint8)
        self.orbit = np.array([base], dtype=np.intp)
        self.pos = np.full(degree, -1, dtype=np.int32)
        self.pos[base] = 0
        self.u = np.zeros((degree, degree), dtype=np.uint8)
        self.uinv = np.zeros((degree, degree), dtype=np.uint8)
        self.u[base] = self.uinv[base] = identity

    def add(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Add a strong generator and extend the orbit and transversal;
        returns the orbit positions and generator indices, row-major, of
        the pairs this made but for the tree edges."""
        self.gens = np.vstack((self.gens, g))
        gens = self.gens.tolist()
        orbit = self.orbit.tolist()
        seen = set(orbit)
        edges = []  # (y, x, k) with y = gens[k][x] new to the orbit
        last = gens[-1]
        for x in orbit:
            y = last[x]
            if y not in seen:
                seen.add(y)
                edges.append((y, x, len(gens) - 1))
        for y, _, _ in edges:  # also visits the points appended below
            for k, s in enumerate(gens):
                z = s[y]
                if z not in seen:
                    seen.add(z)
                    edges.append((z, y, k))
        for y, x, k in edges:
            # u_y = s u_x for y = s(x)
            self.u[y] = self.gens[k][self.u[x]]
        fresh = np.zeros((len(seen), len(gens)), dtype=bool)
        fresh[:, -1] = True
        fresh[len(orbit):] = True
        if edges:
            pts, xs, ks = map(list, zip(*edges))
            self.uinv[pts] = np.argsort(self.u[pts], axis=1)
            self.pos[pts] = range(len(orbit), len(seen))
            self.orbit = np.concatenate((self.orbit, pts))
            fresh[self.pos[xs], ks] = False
        return np.nonzero(fresh)


class ReferenceChain:
    """The incremental Schreier-Sims of galorb.permgroup._Chain, with the
    same promotion rule and pair order, on uint8 arrays: batches are
    sifted with one gather per level."""

    def __init__(self, degree: int, max_order: int):
        self.degree = degree
        self.max_order = max_order
        self.identity = np.arange(degree, dtype=np.uint8)
        self.levels: list[ReferenceLevel] = []
        self.schreier_generators = 0

    def order(self) -> int:
        o = 1
        for lev in self.levels:
            o *= len(lev.orbit)
        return o

    def _sift(self, h: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
        stop = np.full(len(h), len(self.levels))
        rows = np.arange(len(h))
        cur = h
        for l in range(start, len(self.levels)):
            lev = self.levels[l]
            x = cur[:, lev.base]
            at = lev.pos[x]
            if len(at) and at.min() < 0:
                inside = at >= 0
                out = ~inside
                stop[rows[out]] = l
                h[rows[out]] = cur[out]
                rows, cur, x = rows[inside], cur[inside], x[inside]
            cur = lev.uinv[x[:, None], cur]
        h[rows] = cur
        return h, stop

    def extend(self, h: np.ndarray, top: int = 0):
        while len(h):
            h, stop = self._sift(h, top)
            moved = np.flatnonzero((h != self.identity).any(axis=1))
            if not len(moved):
                return
            j = int(np.argmin(stop[moved]))
            self._add_strong(h[moved[j]], top, int(stop[moved[j]]))
            h = h[np.delete(moved, j)]

    def _add_strong(self, g: np.ndarray, top: int, bottom: int):
        if bottom == len(self.levels):
            self.levels.append(ReferenceLevel(int(np.flatnonzero(g != self.identity)[0]),
                                              self.degree))
        pairs = [self.levels[l].add(g) for l in range(top, bottom + 1)]
        reached = self.order()
        if reached > self.max_order:
            raise ResourceLimitError(
                f"group order is at least {reached}, above the limit {self.max_order}")
        for l in range(bottom, top - 1, -1):
            lev = self.levels[l]
            r, k = pairs[l - top]
            if not len(r):
                continue
            self.schreier_generators += len(r)
            x = lev.orbit[r]
            y = lev.gens[k, x]
            self.extend(lev.uinv[y[:, None], lev.gens[k[:, None], lev.u[x]]], l + 1)


def reference_chain(spec: GroupSpec, max_order: int) -> ReferenceChain:
    """The reference chain grown as galorb.permgroup._build_chain grows
    its own: from two seeded words when there are more than two
    generators, then from the generators."""
    chain = ReferenceChain(spec.degree, max_order)
    gens = np.array(spec.generators, dtype=np.uint8)
    if len(gens) > 2:
        rng = random.Random(gens.tobytes())
        picks = np.array(rng.choices(range(len(gens)), k=2 * PAIR_WORD_LENGTH))
        words = np.tile(chain.identity, (2, 1))
        for step in picks.reshape(2, PAIR_WORD_LENGTH).T:
            # each word w becomes g w for its next letter g
            words = np.take_along_axis(gens[step], words, axis=1)
        chain.extend(words)
    chain.extend(gens)
    return chain
