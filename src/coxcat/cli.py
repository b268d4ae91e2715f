"""Command-line interface.

Subcommands expose the library computations with deterministic, exact
output: `table`, `roots`, `antichains`, `fpoly`, `os-character`, `gerst`,
and `verify`.  Exit code 0 means every requested check passed, 1 means a
check ran and found a violation, 2 means the request itself was invalid
(unknown label, unknown check, or a computation outside the documented
capacity limits).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List

from .errors import (
    CapacityExceeded,
    GroupTooLarge,
    NonCrystallographic,
    UnsupportedType,
)
from .exact import format_rational
from .reports import CHECK_NAMES, expected_full_count, jsonable, run_all_checks, run_check
from .rootsys import build_root_system

_USAGE_ERRORS = (UnsupportedType, CapacityExceeded, GroupTooLarge, NonCrystallographic)


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    sys.stdout.write("\n")


def cmd_table(args) -> int:
    rows = []
    for label in args.types:
        rs = build_root_system(label)
        counted = rs.full_reflection_count()
        formula = rs.formula_value()
        closed = expected_full_count(rs)
        rows.append(
            {
                "type": rs.label,
                "rank": rs.rank,
                "coxeter_number": rs.coxeter_number,
                "order": rs.order,
                "exponents": list(rs.exponents),
                "full_counted": counted,
                "full_formula": format_rational(formula),
                "match": Fraction(counted) == formula and counted == closed,
            }
        )
    if args.json:
        _emit_json({"rows": rows})
        return 0
    header = ("type", "n", "h", "|W|", "exponents", "f counted", "f formula", "match")
    table = [header]
    for row in rows:
        table.append(
            (
                row["type"],
                str(row["rank"]),
                str(row["coxeter_number"]),
                str(row["order"]),
                ",".join(str(e) for e in row["exponents"]),
                str(row["full_counted"]),
                row["full_formula"],
                "ok" if row["match"] else "MISMATCH",
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
    return 0 if all(row["match"] for row in rows) else 1


def cmd_roots(args) -> int:
    rs = build_root_system(args.type)
    roots = []
    for j in range(rs.n_positive):
        entry = {"index": j, "name": rs.root_name(j)}
        if rs.heights is not None:
            entry["height"] = rs.heights[j]
        roots.append(entry)
    if args.json:
        _emit_json(
            {
                "type": rs.label,
                "rank": rs.rank,
                "n_positive": rs.n_positive,
                "exponents": list(rs.exponents),
                "coxeter_number": rs.coxeter_number,
                "order": rs.order,
                "full_reflections": rs.full_reflection_count(),
                "formula": format_rational(rs.formula_value()),
                "simple_positions": list(rs.simple_positions),
                "roots": roots,
            }
        )
        return 0
    print(
        f"{rs.label}: {rs.n_positive} positive roots, exponents "
        + ",".join(str(e) for e in rs.exponents)
        + f", h={rs.coxeter_number}, |W|={rs.order}, full reflections "
        + f"{rs.full_reflection_count()} (formula {format_rational(rs.formula_value())})"
    )
    print("simples at " + ",".join(str(p) for p in rs.simple_positions))
    for entry in roots:
        height = f"  height {entry['height']}" if "height" in entry else ""
        print(f"  {entry['index']:>3}  {entry['name']}{height}")
    return 0


def cmd_antichains(args) -> int:
    from .poset import (
        enumerate_antichains,
        h_polynomial,
        narayana_polynomial,
        p_polynomial_direct,
    )

    rs = build_root_system(args.type)
    tally = enumerate_antichains(rs)
    narayana = narayana_polynomial(tally)
    h_poly = h_polynomial(tally)
    p_poly = p_polynomial_direct(tally)
    if args.json:
        _emit_json(
            {
                "type": rs.label,
                "total": tally.total,
                "narayana": jsonable(narayana),
                "h": jsonable(h_poly),
                "p": jsonable(p_poly),
            }
        )
        return 0
    print(f"{rs.label}: {tally.total} antichains")
    print(f"  N(x)    = {narayana!r}")
    print(f"  H(x, y) = {h_poly!r}")
    print(f"  P(x)    = {p_poly!r}")
    return 0


def cmd_fpoly(args) -> int:
    from .cluster import ClusterComplex, f_polynomial

    rs = build_root_system(args.type)
    f_poly = f_polynomial(rs, allow_large=args.allow_large)
    complex_ = ClusterComplex(rs, allow_large=args.allow_large)
    n_max, min_size = complex_.maximal_face_count()
    if args.json:
        _emit_json(
            {
                "type": rs.label,
                "vertices": complex_.n_vertices,
                "f": jsonable(f_poly),
                "maximal_faces": n_max,
                "min_maximal_size": min_size,
            }
        )
        return 0
    print(f"{rs.label}: cluster complex on {complex_.n_vertices} vertices")
    print(f"  F(x, y) = {f_poly!r}")
    print(f"  maximal faces: {n_max} (smallest has size {min_size})")
    return 0


def cmd_os_character(args) -> int:
    from .groups import generate_group
    from .osalgebra import g_prime_character, os_graded_character

    rs = build_root_system(args.type)
    group = generate_group(rs)
    gc = os_graded_character(rs, group)
    gp = g_prime_character(gc)
    classes = []
    for cls, poly, val in zip(gc.classes, gc.chars, gp):
        classes.append(
            {
                "class": cls.describe(),
                "size": cls.size,
                "character": poly,
                "g_prime": val,
            }
        )
    if args.json:
        _emit_json(
            {
                "type": rs.label,
                "dims": list(gc.dims),
                "classes": jsonable(classes),
            }
        )
        return 0
    print(f"{rs.label}: graded dimensions {', '.join(str(d) for d in gc.dims)}")
    for entry in classes:
        print(
            f"  {entry['class']:<28} chi = {entry['character']!r}"
            f"   chi_G' = {format_rational(entry['g_prime'])}"
        )
    return 0


def cmd_gerst(args) -> int:
    from .exact import centralizer_order, partitions_of
    from .symfunc import calibrated_bundle, class_value

    max_degree = args.max_degree
    bundle = calibrated_bundle(max_degree + 2)
    gerst_report = run_check("gerst", "A2", max_degree=max_degree)
    bonzero_report = run_check("bonzero", "A2", max_degree=max_degree)
    # the series checks do not depend on any one type label
    gerst_report.type_label = "-"
    bonzero_report.type_label = "-"
    degrees = []
    for n in range(1, max_degree + 1):
        rows = []
        for lam in partitions_of(n):
            rows.append(
                {
                    "class": list(lam),
                    "z": centralizer_order(lam),
                    "character": class_value(bundle, lam),
                }
            )
        degrees.append({"degree": n, "classes": rows})
    if args.json:
        _emit_json(
            {
                "max_degree": max_degree,
                "twist": bundle.twist,
                "degrees": jsonable(degrees),
                "checks": [gerst_report.to_json(), bonzero_report.to_json()],
            }
        )
    else:
        print(f"series truncation {max_degree}, sign twist: {bundle.twist}")
        for block in degrees:
            print(f"degree {block['degree']}:")
            for row in block["classes"]:
                lam = ",".join(str(x) for x in row["class"])
                print(f"  chi(C[{lam}]) = {row['character']!r}")
        print(gerst_report.render())
        print(bonzero_report.render())
    return 0 if gerst_report.passed and bonzero_report.passed else 1


def cmd_verify(args) -> int:
    if args.check == "all":
        reports = run_all_checks(
            args.type, max_degree=args.max_degree, allow_large=args.allow_large
        )
    else:
        reports = [
            run_check(
                args.check,
                args.type,
                max_degree=args.max_degree,
                allow_large=args.allow_large,
            )
        ]
    if args.json:
        _emit_json({"reports": [r.to_json() for r in reports]})
    else:
        for report in reports:
            print(report.render())
    return 0 if all(r.passed for r in reports) else 1


def _positive_int(text: str) -> int:
    """argparse type for --max-degree: a series truncation of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line in one stderr line, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coxcat",
        description="Exact computations for finite Coxeter groups: full "
        "reflections, root-poset antichains, cluster complexes, arrangement "
        "characters, and the power-sum series pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="summary table with full-reflection counts")
    p_table.add_argument("types", nargs="+", metavar="TYPE")
    p_table.add_argument("--json", action="store_true")
    p_table.set_defaults(func=cmd_table)

    p_roots = sub.add_parser("roots", help="positive roots in canonical order")
    p_roots.add_argument("type", metavar="TYPE")
    p_roots.add_argument("--json", action="store_true")
    p_roots.set_defaults(func=cmd_roots)

    p_anti = sub.add_parser("antichains", help="antichain counts and polynomials")
    p_anti.add_argument("type", metavar="TYPE")
    p_anti.add_argument("--json", action="store_true")
    p_anti.set_defaults(func=cmd_antichains)

    p_fpoly = sub.add_parser("fpoly", help="cluster complex face polynomial")
    p_fpoly.add_argument("type", metavar="TYPE")
    p_fpoly.add_argument("--json", action="store_true")
    p_fpoly.add_argument("--allow-large", action="store_true")
    p_fpoly.set_defaults(func=cmd_fpoly)

    p_os = sub.add_parser("os-character", help="graded arrangement characters")
    p_os.add_argument("type", metavar="TYPE")
    p_os.add_argument("--json", action="store_true")
    p_os.set_defaults(func=cmd_os_character)

    p_gerst = sub.add_parser("gerst", help="power-sum series pipeline and identities")
    p_gerst.add_argument("--max-degree", type=_positive_int, default=7, metavar="N")
    p_gerst.add_argument("--json", action="store_true")
    p_gerst.set_defaults(func=cmd_gerst)

    p_verify = sub.add_parser("verify", help="run a named verification")
    p_verify.add_argument("check", choices=CHECK_NAMES + ("all",))
    p_verify.add_argument("type", metavar="TYPE")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--max-degree", type=_positive_int, default=7, metavar="N")
    p_verify.add_argument("--allow-large", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"coxcat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
