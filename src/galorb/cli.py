"""Command line front end.

Subcommands map onto the library layers: analyze-perm and
analyze-table for single groups (with an optional table-versus-classes
cross-examination), an-rank for alternating-group rank tables, screen
for the classical family scans, charpoly for matrix-side class bounds.

Each subcommand's handler returns (obj, lines, code): its JSON object,
its text lines and its exit code.  main alone reads --format, renders
one of the two and writes it to stdout or --out; every JSON shape lives here.

Exit codes: 0 success, 2 bad input or failed cross-check, 3 a result
that could not be certified (incomplete screen, element not found),
4 a resource guard tripped.  Output is byte-deterministic for fixed
arguments and seed; progress notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__
from .altcount import frobenius_ranks, prop8_lower_bound
from .chartab import brauer_crosscheck, char_report, column_families, parse_table
from .classtheory import GaloisReport, analyze
from .errors import GalorbError, InputError, ResourceLimitError, UncertifiedError, read_integer
from .matgroup import (
    MAX_ELEMENT_ORDER, check_order, class_lower_bound, coprime_power_charpoly_count,
    element_order, parse_matrix_group_file, random_element_search, singer_element,
)
from .permgroup import conjugacy_classes, parse_generators
from .screening import FAMILIES, check_box, exception_set


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _integer(text: str) -> int:
    """read_integer as a type=: argparse exits 2 on ArgumentTypeError."""
    try:
        if (value := read_integer(text)) is not None:
            return value
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


# -- analyze-perm -------------------------------------------------------


def report_to_obj(rep: GaloisReport, labels: tuple[str, ...]) -> dict:
    """JSON-ready dict: the report's fields, with the families rendered
    as labels as well."""
    return {**vars(rep),
            "family_labels": [[labels[c] for c in f] for f in rep.families]}


def _cmd_analyze_perm(args):
    spec = parse_generators(_read(args.file))
    _note(f"degree {spec.degree}, {len(spec.generators)} generators")
    cs = conjugacy_classes(spec)
    rep = analyze(cs)
    fams = ("{" + ", ".join(cs.labels[c] for c in fam) + "}" for fam in rep.families)
    lines = [
        f"group order      {rep.group_order}",
        f"classes          {rep.num_classes}",
        f"rational classes {rep.n_Q}",
        f"real classes     {rep.n_R}",
        f"central rank     {rep.rank}",
        f"longest family   {rep.f}",
        f"a-quantities     a1 = {rep.a1}, a2 = {rep.a2}",
        f"cut property     {'yes' if rep.is_cut else 'no'}",
        "families         " + " ".join(fams),
    ]
    return report_to_obj(rep, labels=cs.labels), lines, 0


# -- analyze-table ------------------------------------------------------


def _cmd_analyze_table(args):
    table = parse_table(_read(args.file))
    rep = char_report(table)
    real_rows = 2 * rep.n_R - rep.num_classes
    max_family = max(map(len, column_families(table)))
    obj = {
        "name": table.name,
        "order": table.group_order,
        "classes": table.num_classes,
        "real_rows": real_rows,
        "rank": rep.rank,
        "max_family": max_family,
        "b1": rep.a1,
        "b2": rep.a2,
        "cut_by_fields": rep.is_cut,
    }
    lines = [
        f"table            {table.name}",
        f"group order      {table.group_order}",
        f"classes          {table.num_classes}",
        f"real rows        {real_rows}",
        f"central rank     {rep.rank}",
        f"longest family   {max_family}",
        f"b-quantities     b1 = {rep.a1}, b2 = {rep.a2}",
        f"cut by fields    {'yes' if rep.is_cut else 'no'}",
    ]
    if not args.gens:
        return obj, lines, 0
    spec = parse_generators(_read(args.gens))
    _note("computing conjugacy classes for the cross-check")
    cross = brauer_crosscheck(table, conjugacy_classes(spec))
    obj["crosscheck"] = {"passed": cross.passed,
                         "checks": [dict(vars(c)) for c in cross.checks]}
    lines.append(f"cross-check      {'PASS' if cross.passed else 'FAIL'}")
    for c in cross.checks:
        lines.append(f"  {c.name:16s} {'ok' if c.passed else 'MISMATCH'}: {c.detail}")
    return obj, lines, 0 if cross.passed else 2


# -- an-rank ------------------------------------------------------------


def _parse_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    a, b = read_integer(lo), read_integer(hi if dots else lo)
    if a is None or b is None:
        raise InputError(f"bad range {text!r}; use N or A..B")
    if a > b:
        raise InputError(f"empty range {text!r}")
    return a, b


def _cmd_an_rank(args):
    lo, hi = _parse_range(args.range)
    rows = []
    lines = ["    n  rank  injection"]
    for n, rank in enumerate(frobenius_ranks(lo, hi), start=lo):
        entry = {"n": n, "rank": rank}
        inj = ""
        if n >= 26:
            b = prop8_lower_bound(n)
            entry["injection"] = {
                "p": b.p, "k": b.k, "m": b.m, "count": b.count,
                "feasible": b.feasible, "diagnostic": b.diagnostic,
            }
            inj = (f"count {b.count} at (p,k,m) = ({b.p},{b.k},{b.m})" if b.feasible
                   else f"infeasible: {b.diagnostic}")
        rows.append(entry)
        lines.append(f"{n:5d} {rank:5d}  {inj}")
    return {"rows": rows}, lines, 0


# -- screen -------------------------------------------------------------


def _screen_obj(res) -> dict:
    # an exception row has its phi computed; most rows do not
    exc_rows = sorted((r for r in res.rows
                       if r.phi is not None and (r.n, r.q) in res.exceptions),
                      key=lambda r: (r.n, r.q))
    return {
        "family": res.tag,
        "n_max": res.n_max,
        "q_max": res.q_max,
        "exceptions": [dict(vars(r)) for r in exc_rows],
        "excluded": [{"n": n, "q": q, "reason": why}
                     for n, q, why in res.excluded],
        "certificate": dict(vars(res.certificate)),
        "certified": res.certified,
    }


def _cmd_screen(args):
    if args.family == "all":
        tags = list(FAMILIES)
    elif args.family in FAMILIES:
        tags = [args.family]
    else:
        raise InputError(
            f"unknown family {args.family!r}; choose from "
            f"{', '.join(sorted(FAMILIES))} or 'all'")
    n_max, q_max = args.box
    for tag in tags:
        check_box(tag, n_max, q_max)
    objs = []
    for tag in tags:
        _note(f"screening {tag} over n <= {n_max}, q <= {q_max}")
        objs.append(_screen_obj(exception_set(tag, n_max=n_max, q_max=q_max)))
    all_certified = all(o["certified"] for o in objs)
    lines = []
    for o in objs:
        lines.append(f"family {o['family']} (n <= {o['n_max']}, q <= {o['q_max']})")
        for e in o["exceptions"]:
            lines.append(
                f"  exception (n, q) = ({e['n']}, {e['q']}): torus order "
                f"{e['order']}, phi {e['phi']} <= {e['threshold']}")
        for e in o["excluded"]:
            lines.append(f"  excluded  (n, q) = ({e['n']}, {e['q']}): {e['reason']}")
        c = o["certificate"]
        lines.append(
            f"  certificate: q-boundary {'ok' if c['q_boundary_ok'] else 'FAIL'}, "
            f"n-near {'ok' if c['n_near_ok'] else 'FAIL'}, "
            f"n-tail to {c['n_tail_range'][1]} {'ok' if c['n_tail_ok'] else 'FAIL'}, "
            f"beyond {'ok' if c['asymptotic_ok'] else 'FAIL'}")
        lines.append(f"  certified: {'yes' if o['certified'] else 'NO'}")
    if not all_certified:
        lines.append("result is NOT certified complete; enlarge the box")
    return {"results": objs, "certified": all_certified}, lines, 0 if all_certified else 3


# -- charpoly -----------------------------------------------------------


def _charpoly_report(g, args):
    order = element_order(g, bound=args.max_order)
    count = coprime_power_charpoly_count(g, max_order=args.max_order)
    bound, verdict = class_lower_bound(count, args.center)
    obj = {
        "dimension": g.n,
        "field": g.field.q,
        "order": order,
        "distinct_charpolys": count,
        "center": args.center,
        "class_bound": bound,
        "at_least_five": verdict,
    }
    lines = [
        f"dimension        {g.n}",
        f"field            GF({g.field.q})",
        f"element order    {order}",
        f"charpoly count   {count}",
        f"class bound      {bound} (center {args.center})",
        f"five or more     {'yes' if verdict else 'no'}",
    ]
    return obj, lines, 0


def _at_least_one(args, *names: str) -> None:
    """InputError naming the first of names (options or arguments, as
    typed) whose value is below 1: no order, count or seed can make such
    a target, count, center or order bound valid."""
    for name in names:
        value = getattr(args, name.lstrip("-").replace("-", "_"))
        if value < 1:
            raise InputError(f"{name} must be at least 1, got {value}")


def _cmd_charpoly_singer(args):
    _at_least_one(args, "--center", "--max-order")
    return _charpoly_report(singer_element(args.n, args.q, bound=args.max_order), args)


def _cmd_charpoly_file(args):
    _at_least_one(args, "--target", "--center", "--max-order")
    check_order(args.target, args.max_order, "target order")
    _, gens = parse_matrix_group_file(_read(args.file))
    g = random_element_search(gens, args.target, seed=args.seed, bound=args.max_order)
    if g is None:
        raise UncertifiedError(
            f"no element of order {args.target} found "
            f"(seed {args.seed}); try another seed")
    return _charpoly_report(g, args)


def _cmd_charpoly_bound(args):
    _at_least_one(args, "count", "center")
    bound, verdict = class_lower_bound(args.count, args.center)
    obj = {"count": args.count, "center": args.center,
           "class_bound": bound, "at_least_five": verdict}
    lines = [f"class bound      {bound} (count {args.count}, center {args.center})",
             f"five or more     {'yes' if verdict else 'no'}"]
    return obj, lines, 0


# -- parser -------------------------------------------------------------


def _box(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected N,Q")
    return _integer(parts[0]), _integer(parts[1])


def _max_order_option(p, bounded: str):
    p.add_argument("--max-order", type=_integer, default=MAX_ELEMENT_ORDER,
                   help=f"bound on {bounded} (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galorb",
        description="Galois orbits on conjugacy classes and central unit ranks")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", help="write output here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-perm", parents=[common],
                       help="class-side analysis of a permutation group")
    p.add_argument("file", help="generator file")
    p.set_defaults(fn=_cmd_analyze_perm)

    p = sub.add_parser("analyze-table", parents=[common],
                       help="row-side analysis of a character table")
    p.add_argument("file", help="table JSON file")
    p.add_argument("--gens", metavar="FILE",
                   help="generator file for a table-versus-classes cross-check")
    p.set_defaults(fn=_cmd_analyze_table)

    p = sub.add_parser("an-rank", parents=[common],
                       help="alternating group ranks by partition count")
    p.add_argument("range", help="N or A..B")
    p.set_defaults(fn=_cmd_an_rank)

    p = sub.add_parser("screen", parents=[common],
                       help="torus-totient screening of classical families")
    p.add_argument("family", help="family tag or 'all'")
    p.add_argument("--box", type=_box, default=(40, 64), metavar="N,Q",
                   help="scan box, default 40,64")
    p.set_defaults(fn=_cmd_screen)

    # charpoly's options belong to its actions, after the action name
    p = sub.add_parser("charpoly", help="characteristic polynomial class bounds")
    psub = p.add_subparsers(dest="action", required=True)
    ps = psub.add_parser("singer", parents=[common],
                         help="Singer element of GL(n, q)")
    ps.add_argument("n", type=_integer)
    ps.add_argument("q", type=_integer)
    ps.add_argument("--center", type=_integer, default=1)
    _max_order_option(ps, "the element's order")
    ps.set_defaults(fn=_cmd_charpoly_singer)
    pf = psub.add_parser("file", parents=[common],
                         help="search a generated matrix group")
    pf.add_argument("file")
    pf.add_argument("--target", type=_integer, required=True)
    pf.add_argument("--center", type=_integer, default=1)
    pf.add_argument("--seed", type=_integer, default=0, help="random search seed")
    _max_order_option(pf, "--target, every order searched and the element's order")
    pf.set_defaults(fn=_cmd_charpoly_file)
    pb = psub.add_parser("bound", parents=[common],
                         help="bare class bound from a count")
    pb.add_argument("count", type=_integer)
    pb.add_argument("center", type=_integer)
    pb.set_defaults(fn=_cmd_charpoly_bound)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call rather than at import;
    parsing leaves a parser as it was, so one serves every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        obj, lines, code = args.fn(args)
    except UncertifiedError as exc:
        print(f"uncertified: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except GalorbError as exc:  # InputError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _json(obj) if args.format == "json" else "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
