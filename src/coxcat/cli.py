"""Command-line interface.

Subcommands expose the library computations with deterministic, exact
output: `table`, `roots`, `antichains`, `fpoly`, `os-character`, `gerst`,
and `verify`.  Exit code 0 means every requested check passed, 1 means a
check ran and found a violation, 2 means the request itself was invalid
(unknown label, unknown check, or a computation outside the documented
capacity limits), and 141 means the reader of stdout closed it early.

Each `cmd_*` computes and writes nothing: it returns its exit code, its
JSON payload and its text lines, the lines as a generator, so a `--json`
call formats no text.  `main` is the one place that writes stdout.

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

from .errors import CheckFailed, UsageError
from .exact import COMMAND_CACHES, centralizer_order, format_rational, partitions_of
from .reports import CHECK_NAMES, jsonable, run_all_checks, run_check


def cmd_table(args):
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

    def lines():
        header = ("type", "n", "h", "|W|", "exponents", "f counted", "f formula", "match")
        table = [header]
        for row in rows:
            # the row's keys are the columns, in order
            cells = dict(
                row,
                exponents=",".join(str(e) for e in row["exponents"]),
                match="ok" if row["match"] else "MISMATCH",
            )
            table.append(tuple(str(cell) for cell in cells.values()))
        widths = [max(len(line[i]) for line in table) for i in range(len(header))]
        for line in table:
            yield "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()

    passed = all(row["match"] for row in rows)
    return (0 if passed else 1), {"rows": rows}, lines()


def cmd_roots(args):
    from .rootsys import build_root_system

    rs = build_root_system(args.type)
    roots = []
    for j in range(rs.n_positive):
        entry = {"index": j, "name": rs.root_name(j)}
        if rs.heights is not None:
            entry["height"] = rs.heights[j]
        roots.append(entry)
    payload = {
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

    def lines():
        yield (
            f"{rs.label}: {rs.n_positive} positive roots, exponents "
            + ",".join(str(e) for e in rs.exponents)
            + f", h={rs.coxeter_number}, |W|={rs.order}, full reflections "
            + f"{payload['full_reflections']} (formula {format_rational(payload['formula'])})"
        )
        yield "simples at " + ",".join(str(p) for p in rs.simple_positions)
        for entry in roots:
            height = f"  height {entry['height']}" if "height" in entry else ""
            yield f"  {entry['index']:>3}  {entry['name']}{height}"

    return 0, payload, lines()


def cmd_antichains(args):
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

    def lines():
        yield f"{rs.label}: {tally.total} antichains"
        yield f"  N(x)    = {narayana!r}"
        yield f"  H(x, y) = {h_poly!r}"
        yield f"  P(x)    = {p_poly!r}"

    payload = {"type": rs.label, "total": tally.total, "narayana": narayana, "h": h_poly, "p": p_poly}
    return 0, payload, lines()


def cmd_fpoly(args):
    from .cluster import ClusterComplex
    from .rootsys import build_root_system

    rs = build_root_system(args.type)
    complex_ = ClusterComplex(rs)
    f_poly = complex_.f_tally()
    n_max, min_size = complex_.maximal_face_count()

    def lines():
        yield f"{rs.label}: cluster complex on {complex_.n_vertices} vertices"
        yield f"  F(x, y) = {f_poly!r}"
        yield f"  maximal faces: {n_max} (smallest has size {min_size})"

    payload = {
        "type": rs.label,
        "vertices": complex_.n_vertices,
        "f": f_poly,
        "maximal_faces": n_max,
        "min_maximal_size": min_size,
    }
    return 0, payload, lines()


def cmd_os_character(args):
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

    def lines():
        yield f"{rs.label}: graded dimensions {', '.join(str(d) for d in gc.dims)}"
        for entry in classes:
            yield (
                f"  {entry['class']:<28} chi = {entry['character']!r}"
                f"   chi_G' = {format_rational(entry['g_prime'])}"
            )

    return 0, {"type": rs.label, "dims": list(gc.dims), "classes": classes}, lines()


def cmd_gerst(args):
    from .symfunc import calibrated_bundle, class_value

    max_degree = args.max_degree
    bundle = calibrated_bundle(max_degree + 2)
    # the series checks read no root system, so they are run with no type label
    reports = [run_check(check, max_degree=max_degree) for check in ("gerst", "bonzero")]
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

    def lines():
        yield f"series truncation {max_degree}, sign twist: {bundle.twist}"
        for block in degrees:
            yield f"degree {block['degree']}:"
            for row in block["classes"]:
                lam = ",".join(str(x) for x in row["class"])
                yield f"  chi(C[{lam}]) = {row['character']!r}"
        yield from (report.render() for report in reports)

    payload = {
        "max_degree": max_degree,
        "twist": bundle.twist,
        "degrees": degrees,
        "checks": [report.to_json() for report in reports],
    }
    return (0 if all(r.passed for r in reports) else 1), payload, lines()


def cmd_verify(args):
    if args.check == "all":
        reports = run_all_checks(args.type, max_degree=args.max_degree)
    else:
        reports = [run_check(args.check, args.type, max_degree=args.max_degree)]
    payload = {"reports": [report.to_json() for report in reports]}
    passed = all(report.passed for report in reports)
    return (0 if passed else 1), payload, (report.render() for report in reports)


# The series cost about triples every four degrees: on 2 vCPUs `gerst
# --max-degree 24` takes 2.8 s and 30 MB, 28 takes 6.7 s and 32 takes 23 s.
_MAX_DEGREE = 24
# ASCII digits only: int() would also take other scripts' digits, "_", "+"
# and surrounding blanks; and at most 4,300 digits, int()'s default limit
_INTEGER_RE = re.compile(r"-?[0-9]{1,4300}")


def _positive_int(text: str) -> int:
    """argparse type for --max-degree: a series truncation in 1.._MAX_DEGREE.

    The range is decided on the significant digits, so int() converts at most
    as many digits as _MAX_DEGREE has, whatever the interpreter's int-string
    limit; a refusal shows the value as int() would print it.
    """
    if not _INTEGER_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    digits = text.lstrip("-").lstrip("0") or "0"
    shown = f"-{digits}" if text[0] == "-" and digits != "0" else digits
    if digits == "0" or text[0] == "-":
        raise argparse.ArgumentTypeError(f"must be at least 1, got {shown}")
    if len(digits) > len(str(_MAX_DEGREE)) or int(digits) > _MAX_DEGREE:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_DEGREE}, got {shown}")
    return int(digits)


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
    # the options several subcommands share, each declared once
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")
    allow_large = argparse.ArgumentParser(add_help=False)
    allow_large.add_argument(
        "--allow-large",
        action="store_true",
        help="accepted for compatibility; has no effect, the Catalan budget always holds",
    )

    def command(name, func, summary, *extra):
        p = sub.add_parser(name, help=summary, parents=[as_json, *extra])
        p.set_defaults(func=func)
        return p

    command("table", cmd_table, "summary table with full-reflection counts").add_argument(
        "types", nargs="+", metavar="TYPE"
    )
    for name, func, summary, *extra in (
        ("roots", cmd_roots, "positive roots in canonical order"),
        ("antichains", cmd_antichains, "antichain counts and polynomials"),
        ("fpoly", cmd_fpoly, "cluster complex face polynomial", allow_large),
        ("os-character", cmd_os_character, "graded arrangement characters"),
    ):
        command(name, func, summary, *extra).add_argument("type", metavar="TYPE")
    p_gerst = command("gerst", cmd_gerst, "power-sum series pipeline and identities")
    p_gerst.add_argument("--max-degree", type=_positive_int, default=7, metavar="N")
    p_verify = command("verify", cmd_verify, "run a named verification", allow_large)
    p_verify.add_argument("check", choices=CHECK_NAMES + ("all",))
    p_verify.add_argument("type", metavar="TYPE")
    p_verify.add_argument("--max-degree", type=_positive_int, default=7, metavar="N")
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # one command line builds its own artefacts, also when main runs twice in a process
    for cached in COMMAND_CACHES:
        cached.cache_clear()
    try:
        code, payload, lines = args.func(args)
        # the one write to stdout: one JSON line, exact values as text, or the text lines
        if args.json:
            print(json.dumps(jsonable(payload), sort_keys=True, separators=(", ", ": ")))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"coxcat: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"coxcat: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe (`coxcat ... | head`), which is no violation: exit
        # 128 + SIGPIPE as shells do, with fd 1 on devnull so the exit-time flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
