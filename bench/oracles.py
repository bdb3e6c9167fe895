"""Output checks for every benchmark item.

``check(item, result, expected)`` returns None when the item's output is
right and a one-line reason otherwise.  Closed forms come first; values
with none are compared against ``expected.json``, pinned from canonical
(unrelabeled, unshuffled) inputs by record_expected.py.  Relabeled
permutation inputs are compared through ``perm_view``, which drops only
what a relabeling may legitimately change: the order of classes that
share element order and size.
"""

from __future__ import annotations

import json
import math
import re

# Exception sets of the seven families (acceptance criterion C7).  A
# certified screen over any box at least the default (40, 64) must
# reproduce them exactly.
C7_SETS = {
    "PSL": {(2, 7), (2, 8), (2, 11), (2, 13), (2, 17), (2, 19), (2, 23),
            (2, 27), (2, 29), (2, 31), (2, 47), (2, 59), (3, 2), (3, 3),
            (3, 4), (4, 3)},
    "PSp": {(4, 3), (4, 4), (4, 5), (6, 2), (6, 3), (8, 2), (10, 2), (12, 2)},
    "PSU_odd": {(6, 3), (6, 4), (6, 5), (10, 2), (18, 2)},
    "POmegaMinus": {(8, 2), (10, 2), (12, 2)},
    "PSU_div4": {(8, 2), (8, 3), (12, 2)},
    "POmega_odd": {(7, 3), (7, 5), (9, 3), (11, 3)},
    "POmegaPlus": {(8, 2), (8, 3), (8, 4), (8, 5), (10, 2), (10, 3),
                   (12, 2), (12, 3), (14, 2), (16, 2)},
}


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    r = n
    for p in _factor(n):
        r -= r // p
    return r


def num_divisors(n: int) -> int:
    return math.prod(e + 1 for e in _factor(n).values())


def distinct_odd_partitions(n: int) -> int:
    """Number of partitions of n into distinct odd parts (the candidates
    frobenius_rank examines), by a 0/1 knapsack count."""
    ways = [1] + [0] * n
    for part in range(1, n + 1, 2):
        for s in range(n, part - 1, -1):
            ways[s] += ways[s - part]
    return ways[n]


def perm_view(obj: dict) -> dict:
    """An analyze-perm report with families keyed by member element
    orders instead of class indices, which relabeling may permute."""
    view = {k: obj[k] for k in ("group_order", "num_classes", "n_Q", "n_R",
                                "rank", "f", "a1", "a2", "is_cut")}
    fams = []
    for labels, contrib in zip(obj["family_labels"], obj["family_contributions"]):
        orders = sorted(int(re.match(r"\d+", lab).group()) for lab in labels)
        fams.append([orders, contrib])
    view["families"] = sorted(fams)
    return view


# -- per-oracle checks: (check spec, parsed output, expected) -> reason ---------


def _psl2(c, obj, exp):
    q = c["q"]
    order = q * (q * q - 1) // math.gcd(2, q - 1)
    classes = (q + 5) // 2 if q % 2 else q + 1
    if obj["group_order"] != order:
        return f"order {obj['group_order']} != q(q^2-1)/gcd(2,q-1) = {order}"
    if obj["num_classes"] != classes:
        return f"{obj['num_classes']} classes, closed form gives {classes}"
    return _perm_pinned({"key": f"psl2_{q}", "order": order}, obj, exp)


def _perm_pinned(c, obj, exp):
    if obj["group_order"] != c["order"]:
        return f"order {obj['group_order']} != {c['order']}"
    if perm_view(obj) != exp["perm"][c["key"]]:
        return f"report differs from the pinned {c['key']} report"
    return None


def _order(c, obj, exp):
    if obj["orders"] != c["orders"]:
        return f"group orders {obj['orders']} != {c['orders']}"
    return None


def _table_pinned(c, obj, exp):
    if c["crosscheck"] and not obj.get("crosscheck", {}).get("passed"):
        return "cross-check did not pass"
    if obj != exp["tables"][c["key"]]:
        return f"report differs from the pinned {c['key']} report"
    return None


def _cyclic_table(c, obj, exp):
    m = c["m"]
    rank = m // 2 + 1 - num_divisors(m)
    if (obj["order"], obj["classes"]) != (m, m):
        return f"order/classes {obj['order']}/{obj['classes']} != {m}/{m}"
    if obj["rank"] != rank:
        return f"rank {obj['rank']} != floor(m/2)+1-d(m) = {rank}"
    if not obj.get("crosscheck", {}).get("passed"):
        return "cross-check did not pass"
    rest = {k: obj[k] for k in ("real_rows", "max_family", "b1", "b2", "cut_by_fields")}
    if rest != exp["cyclic"][str(m)]:
        return f"row-side quantities differ from the pinned c{m} values"
    return None


def _an_rank(c, obj, exp):
    rows = obj["rows"]
    if [r["n"] for r in rows] != list(range(c["lo"], c["hi"] + 1)):
        return "rows do not cover the requested range"
    for r in rows:
        pin = exp["an_rank"][str(r["n"])]
        if r["rank"] != pin["rank"]:
            return f"rank at n={r['n']} is {r['rank']}, pinned {pin['rank']}"
        inj = r.get("injection")
        if inj is None or inj["count"] > r["rank"]:
            return f"injection bound missing or above the rank at n={r['n']}"
        if inj != pin["injection"]:
            return f"injection at n={r['n']} differs from the pinned value"
    return None


def _screen(c, obj, exp):
    if obj["certified"] is not True:
        return "screen not certified"
    got = {r["family"]: r for r in obj["results"]}
    if set(got) != set(C7_SETS):
        return f"families {sorted(got)} != {sorted(C7_SETS)}"
    for tag, want in C7_SETS.items():
        res = got[tag]
        if res["certified"] is not True:
            return f"{tag} not certified"
        exc = {(e["n"], e["q"]) for e in res["exceptions"]}
        if exc != want:
            return f"{tag} exceptions differ from C7 by {sorted(exc ^ want)}"
    return None


def _singer(c, obj, exp):
    n, q = c["n"], c["q"]
    order = q ** n - 1
    count = totient(order) // n
    if (obj["dimension"], obj["field"]) != (n, q):
        return f"dimension/field {obj['dimension']}/{obj['field']} != {n}/{q}"
    if obj["order"] != order:
        return f"Singer order {obj['order']} != q^n-1 = {order}"
    if obj["distinct_charpolys"] != count:
        return f"charpoly count {obj['distinct_charpolys']} != phi(q^n-1)/n = {count}"
    if obj["class_bound"] != count or obj["at_least_five"] != (count >= 5):
        return "class bound disagrees with the count at center 1"
    return None


def _charpoly_file(c, obj, exp):
    if obj != exp["charpoly_file"][c["key"]]:
        return f"report differs from the pinned {c['key']} report"
    return None


def _alt_routes(c, obj, exp):
    pin = exp["an_rank"][str(c["n"])]["rank"]
    if not obj["class_rank"] == obj["partition_rank"] == pin:
        return (f"class route {obj['class_rank']}, partition route "
                f"{obj['partition_rank']}, pinned {pin}")
    return None


ORACLES = {
    "psl2": _psl2, "perm_pinned": _perm_pinned, "order": _order,
    "table_pinned": _table_pinned, "cyclic_table": _cyclic_table,
    "an_rank": _an_rank, "screen": _screen, "singer": _singer,
    "charpoly_file": _charpoly_file, "alt_routes": _alt_routes,
}


def check(item: dict, result: dict, expected: dict) -> str | None:
    """None if the item's result is right, else why it is not."""
    if result.get("exc"):
        return "raised " + result["exc"].strip().splitlines()[-1]
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['err'].strip()[-200:]}"
    try:
        obj = json.loads(result["out"])
    except json.JSONDecodeError:
        return "output is not JSON"
    try:
        return ORACLES[item["check"]["oracle"]](item["check"], obj, expected)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"output lacks an expected field: {exc!r}"
