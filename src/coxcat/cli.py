"""Command-line interface.

Subcommands expose the library computations with deterministic, exact
output: `table`, `roots`, `antichains`, `fpoly`, `os-character`, `gerst`,
and `verify`.  Exit code 0 means every requested check passed, 1 means a
check ran and found a violation, 2 means the request itself was invalid
(unknown label, unknown check, or a computation outside the documented
capacity limits), and 141 means the reader of stdout closed it early.

Start-up is part of every call, so a command imports only the modules it
runs: each `cmd_*` imports its own.  No coxcat module imports the standard
library's data classes, which would pull `inspect` into every call.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import List

from .errors import UsageError
from .exact import COMMAND_CACHES, centralizer_order, format_rational, partitions_of
from .reports import CHECK_NAMES, jsonable, run_all_checks, run_check


def _emit_json(payload) -> None:
    """Print one JSON line; exact values (Fraction, Z[phi], polynomials) become text."""
    sys.stdout.write(json.dumps(jsonable(payload), sort_keys=True, separators=(", ", ": ")))
    sys.stdout.write("\n")


def cmd_table(args) -> int:
    from .rootsys import build_root_system

    rows = []
    for label in args.types:
        rs = build_root_system(label)
        report = run_check("formula", label)
        rows.append(
            {
                "type": rs.label,
                "rank": rs.rank,
                "coxeter_number": rs.coxeter_number,
                "order": rs.order,
                "exponents": list(rs.exponents),
                "full_counted": report.details["counted"],
                "full_formula": format_rational(report.details["formula"]),
                "match": report.passed,
            }
        )
    passed = all(row["match"] for row in rows)
    if args.json:
        _emit_json({"rows": rows})
        return 0 if passed else 1
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
    return 0 if passed else 1


def cmd_roots(args) -> int:
    from .rootsys import build_root_system

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
                "exponents": rs.exponents,
                "coxeter_number": rs.coxeter_number,
                "order": rs.order,
                "full_reflections": rs.full_reflection_count(),
                "formula": rs.formula_value(),
                "simple_positions": rs.simple_positions,
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
    from .rootsys import build_root_system

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
                "narayana": narayana,
                "h": h_poly,
                "p": p_poly,
            }
        )
        return 0
    print(f"{rs.label}: {tally.total} antichains")
    print(f"  N(x)    = {narayana!r}")
    print(f"  H(x, y) = {h_poly!r}")
    print(f"  P(x)    = {p_poly!r}")
    return 0


def cmd_fpoly(args) -> int:
    from .cluster import ClusterComplex
    from .rootsys import build_root_system

    rs = build_root_system(args.type)
    complex_ = ClusterComplex(rs, allow_large=args.allow_large)
    f_poly = complex_.f_tally()
    n_max, min_size = complex_.maximal_face_count()
    if args.json:
        _emit_json(
            {
                "type": rs.label,
                "vertices": complex_.n_vertices,
                "f": f_poly,
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
    from .osalgebra import g_prime_character, os_graded_character
    from .rootsys import build_root_system

    rs = build_root_system(args.type)
    gc = os_graded_character(rs)
    gp = g_prime_character(gc)
    classes = []
    for cls, poly, val in zip(gc.classes, gc.chars, gp):
        classes.append(
            {
                "class": cls.describe(),
                "size": cls.size,
                "character": poly,
                # a Fraction, so the JSON prints it "num/den" as the text does
                "g_prime": Fraction(val),
            }
        )
    if args.json:
        _emit_json(
            {
                "type": rs.label,
                "dims": list(gc.dims),
                "classes": classes,
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
                "degrees": degrees,
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
        reports = run_all_checks(args.type, max_degree=args.max_degree)
    else:
        reports = [run_check(args.check, args.type, max_degree=args.max_degree)]
    if args.json:
        _emit_json({"reports": [r.to_json() for r in reports]})
    else:
        for report in reports:
            print(report.render())
    return 0 if all(r.passed for r in reports) else 1


# The series cost about triples every four degrees: on 2 vCPUs `gerst
# --max-degree 24` takes 2.8 s and 30 MB, 28 takes 6.7 s and 32 takes 23 s.
_MAX_DEGREE = 24
# ASCII digits only: int() would also take other scripts' digits, "_", "+"
# and surrounding blanks
_INTEGER_RE = re.compile(r"-?[0-9]+")


def _positive_int(text: str) -> int:
    """argparse type for --max-degree: a series truncation in 1.._MAX_DEGREE."""
    try:
        if not _INTEGER_RE.fullmatch(text):
            raise ValueError
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > _MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_DEGREE}, got {value}")
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
    p_verify.add_argument(
        "--allow-large",
        action="store_true",
        help="accepted for symmetry with fpoly; has no effect on checks",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one command line builds its own artefacts, also when main runs twice in a process
    for cached in COMMAND_CACHES:
        cached.cache_clear()
    try:
        code = args.func(args)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"coxcat: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (`coxcat ... | head`), which is no violation: exit
        # 128 + SIGPIPE as shells do, with fd 1 on devnull so the exit-time flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
