"""Helpers several test modules share: writers, number theory and
permutation products that only the tests call, so they live here rather
than in galorb."""

import json

from galorb.chartab import CharacterTable
from galorb.cyclotomic import CyclotomicNumber
from galorb.numutil import factorize
from galorb.permgroup import GroupSpec, cycles


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
