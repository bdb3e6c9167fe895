"""Helpers several test modules share: writers and number theory that
only the tests call, so they live here rather than in galorb."""

import json

from galorb.chartab import CharacterTable
from galorb.cyclotomic import value_to_obj
from galorb.numutil import factorize
from galorb.permgroup import GroupSpec, cycles


def divisors(n: int) -> list[int]:
    """Sorted list of the positive divisors of n."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


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
