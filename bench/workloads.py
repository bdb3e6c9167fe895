"""Seeded input generation for the three benchmark workloads.

A workload is a sequence of passes; pass i of a run draws its items from
``random.Random(f"{workload}:{seed}:{i}")`` plus, for the slots that
rotate through a pool, a per-run shuffle of that pool.  Items are plain
dicts the pass process can execute without this module:

    {"id": str, "kind": "cli", "argv": [...], "check": {...}}
    {"id": str, "kind": "lib", "call": name, "args": {...}, "check": {...}}

Input files are written under the pass directory, given relative to the
checkout root, which is the pass process's working directory; the
program sees only those files and argv.  Nothing here imports galorb, so a change to the
program never changes the inputs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("perm-groups", "char-tables", "counting")

# -- perm-groups ---------------------------------------------------------

# q = 32 is the prime power; the rest are primes.  Every pass runs all
# three, so pass time moves only with the relabeling, never with the draw.
PSL_QS = (29, 32, 37)
# Schreier-Sims on relabeled S_n / A_n: about a third of the pass.  The
# relabeling changes the base and with it the time of one order by up
# to 7x, so a pass takes many small ones, four to an item: a run then
# averages some hundred relabelings instead of hanging on a few large ones.
ORDER_BATCHES = ((16, 17, 18, 18),) * 4

# -- char-tables ---------------------------------------------------------

# Fixtures the acceptance gate pairs with generators (GATE_GENS below);
# the others run row-side only.
ROW_ONLY = ("c2", "c4", "q8")
# Cyclic tables: four composite m, the two-odd-prime 15 among them, in
# every pass, and one more taken in turn from a per-run shuffle of a pool
# whose members cost about the same.  No table takes much over a second
# (C_21 takes four), so the reference timings between items sample the
# machine's speed often (see run.py).
CYCLIC_FIXED = (12, 15, 16, 20)
CYCLIC_POOL = (14, 18)

# -- counting ------------------------------------------------------------

AN_RANK_RANGE = (26, 114)
AN_RANK_CHUNKS = 5
# Boxes past the default (40, 64); each screen builds the M-table cold.
SCREEN_BOXES = ((41, 64), (42, 80), (44, 64), (40, 72))
# (n, q) with prime q and prime-power q = 4, 9, 16; the heavy three run
# every pass, one light one in turn.
SINGER_FIXED = ((6, 4), (4, 9), (3, 16))
SINGER_POOL = ((4, 4), (3, 9), (2, 16), (5, 3), (7, 2), (8, 2), (4, 5), (3, 7))
CHARPOLY_FILE = "data/gl2_3.json"
CHARPOLY_FILE_TARGET = 8
CHARPOLY_SEARCH_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)
# Both A_n rank routes; the class route's cost doubles every n or two, so
# the same n run in every pass.
ALT_ROUTE_NS = (30, 31)


# -- permutations and generator files --------------------------------------


def format_gens(degree: int, gens) -> str:
    """Generator file text: 'degree n', then one cycle product per line."""
    lines = [f"degree {degree}"]
    for g in gens:
        seen = set()
        cycs = []
        for start in range(degree):
            if start in seen or g[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = g[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = g[x]
            cycs.append("(" + ",".join(str(p + 1) for p in cyc) + ")")
        lines.append("".join(cycs) or "()")
    return "\n".join(lines) + "\n"


def relabel(gens, degree: int, rng: random.Random):
    """Conjugate every generator by one random relabeling of the points,
    and shuffle the generator order."""
    pi = list(range(degree))
    rng.shuffle(pi)
    out = []
    for g in gens:
        h = [0] * degree
        for i in range(degree):
            h[pi[i]] = pi[g[i]]
        out.append(tuple(h))
    rng.shuffle(out)
    return out


def symmetric_gens(n: int):
    swap = (1, 0) + tuple(range(2, n))
    ncycle = tuple(range(1, n)) + (0,)
    return [swap, ncycle]


def alternating_gens(n: int):
    three = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    return [three, big]


def cyclic_gens(m: int):
    return [tuple(range(1, m)) + (0,)]


def _gf_ops(q: int):
    """(add, mul, neg, generator) on GF(q) encoded as 0..q-1, for q prime
    or q = 32 (polynomials over GF(2) modulo x^5 + x^2 + 1)."""
    if q == 32:
        def mul(a, b):
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & 32:
                    a ^= 0b100101
            return r
        return (lambda a, b: a ^ b), mul, (lambda a: a), 2
    if any(q % p == 0 for p in range(2, math.isqrt(q) + 1)):
        raise ValueError(f"q = {q} is neither prime nor 32")
    primes = [p for p in range(2, q) if (q - 1) % p == 0
              and all(p % r for r in range(2, math.isqrt(p) + 1))]
    gen = next(g for g in range(2, q)
               if all(pow(g, (q - 1) // p, q) != 1 for p in primes))
    return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q), (lambda a: -a % q), gen


def psl2_gens(q: int):
    """PSL(2, q) on the projective line: points 0..q-1 are field elements,
    q is infinity; x+1, x -> s x (s a generator, squared for odd q) and
    x -> -1/x."""
    add, mul, neg, lam = _gf_ops(q)
    inf = q
    scale = mul(lam, lam) if q % 2 else lam
    inv = {x: next(y for y in range(1, q) if mul(x, y) == 1) for x in range(1, q)}
    translate = tuple(inf if x == inf else add(x, 1) for x in range(q + 1))
    scaling = tuple(inf if x == inf else mul(scale, x) for x in range(q + 1))
    swap = tuple(0 if x == inf else inf if x == 0 else neg(inv[x]) for x in range(q + 1))
    return [translate, scaling, swap]


# The acceptance gate's generators for the fixtures it pairs with classes,
# on the points the fixture columns are aligned to: name -> (degree, gens).
GATE_GENS = {"c3": (3, cyclic_gens(3)), "c5": (5, cyclic_gens(5)),
             "s3": (3, symmetric_gens(3)), "a4": (4, alternating_gens(4)),
             "a5": (5, alternating_gens(5)), "psl2_7": (8, psl2_gens(7))}


# -- character tables --------------------------------------------------------


def cyclic_table(m: int, rng: random.Random) -> dict:
    """Character table of C_m with rows shuffled and columns aligned to
    the classes of the m-cycle: ordered by (element order, exponent k)."""
    ks = sorted(range(m), key=lambda k: (m // math.gcd(m, k), k))
    rows = []
    for j in range(m):
        row = []
        for k in ks:
            e = j * k % m
            row.append(1 if e == 0 else {"n": m, "coeffs": {str(e): "1"}})
        rows.append(row)
    rng.shuffle(rows)
    return {"name": f"c{m}", "order": m, "class_sizes": [1] * m,
            "class_orders": [m // math.gcd(m, k) for k in ks], "irr": rows}


def fixture_text(root: Path, name: str, rng: random.Random) -> str:
    """A shipped fixture with its rows shuffled (the identity row stays a
    row like any other; every invariant is row-order free)."""
    obj = json.loads((root / "src" / "galorb" / "tables" / f"{name}.json").read_text())
    rows = list(obj["irr"])
    rng.shuffle(rows)
    obj["irr"] = rows
    return json.dumps(obj, sort_keys=True) + "\n"


# -- the pass plans ------------------------------------------------------------


class Workload:
    """Pass plans for one (workload, seed).  ``write_pass(i, rel)`` writes
    pass i's input files under ``root / rel`` and returns its item list,
    whose paths are relative to root."""

    def __init__(self, name: str, seed: int, root: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.root = root
        run_rng = random.Random(f"{name}:{seed}")
        self._pools = {}
        for key, pool in (("cyclic", CYCLIC_POOL), ("singer", SINGER_POOL),
                          ("box", SCREEN_BOXES), ("search", CHARPOLY_SEARCH_SEEDS)):
            pool = list(pool)
            run_rng.shuffle(pool)
            self._pools[key] = pool

    def _take(self, key: str, i: int):
        pool = self._pools[key]
        return pool[i % len(pool)]

    def write_pass(self, i: int, rel: Path) -> list[dict]:
        (self.root / rel).mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return getattr(self, "_" + self.name.replace("-", "_"))(i, rel, rng)

    def _perm_groups(self, i, d, rng):
        items = []
        groups = [(f"psl2_{q}", q + 1, psl2_gens(q), {"oracle": "psl2", "q": q})
                  for q in PSL_QS]
        groups += [(key, 8, gens, {"oracle": "perm_pinned", "key": key, "order": order})
                   for key, gens, order in (("a8", alternating_gens(8), math.factorial(8) // 2),
                                            ("s8", symmetric_gens(8), math.factorial(8)))]
        for name, degree, gens, check in groups:
            path = d / f"{name}.gens"
            (self.root / path).write_text(format_gens(degree, relabel(gens, degree, rng)))
            items.append({"id": f"analyze-perm {name}", "kind": "cli",
                          "argv": ["analyze-perm", str(path), "--format", "json"],
                          "check": check})
        for j, degrees in enumerate(ORDER_BATCHES):
            groups, orders, names = [], [], []
            for k, n in enumerate(degrees):
                kind = rng.choice("SA")
                gens = symmetric_gens(n) if kind == "S" else alternating_gens(n)
                path = d / f"order{j}_{k}_{kind}{n}.gens"
                (self.root / path).write_text(format_gens(n, relabel(gens, n, rng)))
                groups.append({"file": str(path), "max_order": math.factorial(n)})
                orders.append(math.factorial(n) // (1 if kind == "S" else 2))
                names.append(f"{kind}{n}")
            items.append({"id": f"group_order #{j} {' '.join(names)}", "kind": "lib",
                          "call": "group_order", "args": {"groups": groups},
                          "check": {"oracle": "order", "orders": orders}})
        return items

    def _char_tables(self, i, d, rng):
        items = []
        for name in tuple(GATE_GENS) + ROW_ONLY:
            path = d / f"{name}.json"
            (self.root / path).write_text(fixture_text(self.root, name, rng))
            argv = ["analyze-table", str(path), "--format", "json"]
            if name in GATE_GENS:
                degree, g = GATE_GENS[name]
                gpath = d / f"{name}.gens"
                (self.root / gpath).write_text(format_gens(degree, g))
                argv += ["--gens", str(gpath)]
            items.append({"id": f"analyze-table {name}", "kind": "cli", "argv": argv,
                          "check": {"oracle": "table_pinned", "key": name,
                                    "crosscheck": name in GATE_GENS}})
        for m in CYCLIC_FIXED + (self._take("cyclic", i),):
            path = d / f"c{m}.json"
            (self.root / path).write_text(json.dumps(cyclic_table(m, rng), sort_keys=True) + "\n")
            gpath = d / f"c{m}.gens"
            (self.root / gpath).write_text(format_gens(m, cyclic_gens(m)))
            items.append({"id": f"analyze-table c{m}", "kind": "cli",
                          "argv": ["analyze-table", str(path), "--gens", str(gpath),
                                   "--format", "json"],
                          "check": {"oracle": "cyclic_table", "m": m}})
        return items

    def _counting(self, i, d, rng):
        items = []
        lo, hi = AN_RANK_RANGE
        cuts = sorted(rng.sample(range(lo + 1, hi + 1), AN_RANK_CHUNKS - 1))
        for a, b in zip([lo] + cuts, cuts + [hi + 1]):
            items.append({"id": f"an-rank {a}..{b - 1}", "kind": "cli",
                          "argv": ["an-rank", f"{a}..{b - 1}", "--format", "json"],
                          "check": {"oracle": "an_rank", "lo": a, "hi": b - 1}})
        n_max, q_max = self._take("box", i)
        items.append({"id": f"screen all {n_max},{q_max}", "kind": "cli",
                      "argv": ["screen", "all", "--box", f"{n_max},{q_max}",
                               "--format", "json"],
                      "check": {"oracle": "screen"}})
        for n, q in SINGER_FIXED + (self._take("singer", i),):
            items.append({"id": f"charpoly singer {n} {q}", "kind": "cli",
                          "argv": ["charpoly", "singer", str(n), str(q), "--format", "json"],
                          "check": {"oracle": "singer", "n": n, "q": q}})
        search = self._take("search", i)
        items.append({"id": f"charpoly file gl2_3 seed {search}", "kind": "cli",
                      "argv": ["charpoly", "file", CHARPOLY_FILE,
                               "--target", str(CHARPOLY_FILE_TARGET),
                               "--seed", str(search), "--format", "json"],
                      "check": {"oracle": "charpoly_file", "key": "gl2_3"}})
        for n in ALT_ROUTE_NS:
            items.append({"id": f"rank routes A{n}", "kind": "lib", "call": "alt_routes",
                          "args": {"n": n}, "check": {"oracle": "alt_routes", "n": n}})
        return items
