"""The benchmark's workloads: fixed CLI calls and a checker for each.

A checker takes a call's exit code and stdout and returns the list of
problems it found; an empty list means the verdict matches the known
answers and the stdout matches the seed digest byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb
from typing import Callable, Dict, List, Tuple

import known_answers as ka

Problems = List[str]


@dataclass(frozen=True)
class Call:
    argv: Tuple[str, ...]
    check_payload: Callable[[dict], Problems]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def check_call(call: Call, exit_code: int, stdout: bytes, digests=None) -> Problems:
    """Every way the call's result differs from the known answers."""
    digests = ka.SEED_DIGESTS if digests is None else digests
    problems: Problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != digests.get(call.key):
        problems.append(f"stdout sha256 {digest[:12]} differs from the seed digest")
    try:
        payload = json.loads(stdout)
        problems.extend(call.check_payload(payload))
    except Exception as exc:  # malformed output is a failed call, not a crash
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems


def _expect(problems: Problems, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _integer(text: str) -> int:
    num, _, den = text.partition("/")
    if den != "1":
        raise ValueError(f"{text!r} is not an integer")
    return int(num)


def _terms(bipoly: dict) -> Dict[Tuple[int, int], int]:
    return {(k, l): _integer(c) for k, l, c in bipoly["terms"]}


def _check_face_polynomial(problems: Problems, label: str, terms) -> None:
    """F(x, y) of the cluster complex of a rank-n type [FZ]."""
    n = ka.TYPES[label][0]
    for l in range(n + 1):
        _expect(problems, f"{label} faces of {l} negative simples", terms.get((0, l)), comb(n, l))
    _expect(problems, f"{label} positive-root vertices", terms.get((1, 0)), ka.POSITIVE_ROOTS[label])
    clusters = sum(c for (k, l), c in terms.items() if k + l == n)
    _expect(problems, f"{label} clusters", clusters, ka.CATALAN[label])


def _check_verify_all(label: str) -> Callable[[dict], Problems]:
    _, _, _, order, full = ka.TYPES[label]

    def check(payload: dict) -> Problems:
        problems: Problems = []
        reports = payload["reports"]
        _expect(problems, "checks", [r["check"] for r in reports], list(ka.CHECK_ORDER))
        notes = {}
        for r in reports:
            _expect(problems, f"{r['check']} status", r["status"], "pass")
            _expect(problems, f"{r['check']} type", r["type"], label)
            if "note" in r["details"]:
                notes[r["check"]] = r["details"]["note"]
        _expect(problems, "not-applicable notes", notes, ka.NOT_APPLICABLE[label])
        details = {r["check"]: r["details"] for r in reports}
        formula = details.get("formula", {})
        _expect(problems, "formula counted", formula.get("counted"), full)
        _expect(problems, "formula closed form", formula.get("closed_form"), full)
        _expect(problems, "formula value", formula.get("formula"), f"{full}/1")
        main = details.get("main", {})
        _expect(problems, "main classes", main.get("classes"), ka.CLASSES[label])
        _expect(problems, "main full count", main.get("full_count"), full)
        _expect(problems, "main f |W|", main.get("identity_lhs"), full * order)
        if "antichain-lemmas" not in ka.NOT_APPLICABLE[label]:
            lemmas = details.get("antichain-lemmas", {})
            _expect(problems, "antichain total", lemmas.get("total"), ka.CATALAN[label])
            _expect(problems, "antichain full count", lemmas.get("full_count"), full)
            _expect(problems, "p-mobius full count", details.get("p-mobius", {}).get("full_count"), full)
        if label.startswith("B"):
            _expect(problems, "b-lemmas classes", details.get("b-lemmas", {}).get("classes"), ka.CLASSES[label])
        _expect(problems, "bonzero", details.get("bonzero", {}).get("gerst_at_one_is_p1"), True)
        return problems

    return check


def _check_gerst(max_degree: int) -> Callable[[dict], Problems]:
    def check(payload: dict) -> Problems:
        problems: Problems = []
        _expect(problems, "max_degree", payload["max_degree"], max_degree)
        degrees = payload["degrees"]
        _expect(problems, "degrees", [d["degree"] for d in degrees], list(range(1, max_degree + 1)))
        for block in degrees:
            n = block["degree"]
            classes = {tuple(row["class"]): row for row in block["classes"]}
            _expect(problems, f"classes in degree {n}", len(classes), ka.PARTITION_COUNTS[n - 1])
            identity = classes.get((1,) * n, {})
            _expect(problems, f"z of 1^{n}", identity.get("z"), ka.FACTORIALS[n - 1])
            coeffs = [_integer(c) for c in identity.get("character", {}).get("coeffs", [])]
            _expect(problems, f"identity class value in degree {n}", tuple(coeffs), ka.IDENTITY_CLASS_VALUES[n - 1])
        _expect(problems, "checks", [(c["check"], c["status"]) for c in payload["checks"]], [("gerst", "pass"), ("bonzero", "pass")])
        return problems

    return check


def _check_fpoly(label: str) -> Callable[[dict], Problems]:
    def check(payload: dict) -> Problems:
        problems: Problems = []
        rank = ka.TYPES[label][0]
        _expect(problems, "type", payload["type"], label)
        _expect(problems, "vertices", payload["vertices"], ka.POSITIVE_ROOTS[label] + rank)
        _expect(problems, "maximal faces", payload["maximal_faces"], ka.CATALAN[label])
        _expect(problems, "smallest maximal face", payload["min_maximal_size"], rank)
        _check_face_polynomial(problems, label, _terms(payload["f"]))
        return problems

    return check


def _check_antichains(label: str) -> Callable[[dict], Problems]:
    def check(payload: dict) -> Problems:
        problems: Problems = []
        _expect(problems, "type", payload["type"], label)
        _expect(problems, "total", payload["total"], ka.CATALAN[label])
        narayana = _terms(payload["narayana"])
        _expect(problems, "Narayana sum", sum(narayana.values()), ka.CATALAN[label])
        _expect(problems, "antichains of size 1", narayana.get((1, 0)), ka.POSITIVE_ROOTS[label])
        rank = ka.TYPES[label][0]
        _expect(problems, "antichains of size n", narayana.get((rank, 0)), 1)
        return problems

    return check


def _check_single_report(check_name: str, label: str, extra) -> Callable[[dict], Problems]:
    def check(payload: dict) -> Problems:
        problems: Problems = []
        (report,) = payload["reports"]
        _expect(problems, "check", report["check"], check_name)
        _expect(problems, "type", report["type"], label)
        _expect(problems, "status", report["status"], "pass")
        extra(problems, report["details"])
        return problems

    return check


def _p_mobius_details(problems: Problems, details: dict) -> None:
    rank, _, _, _, full = ka.TYPES["E8"]
    _expect(problems, "full count", details["full_count"], full)
    # the x^(n-1) coefficient of P counts the full reflections [C]
    _expect(problems, "P top coefficient", _terms(details["p"]).get((rank - 1, 0)), full)


def _hf_details(problems: Problems, details: dict) -> None:
    _check_face_polynomial(problems, "E7", _terms(details["f"]))
    _expect(problems, "H(1, 1)", sum(_terms(details["h"]).values()), ka.CATALAN["E7"])


def _check_table(labels: Tuple[str, ...]) -> Callable[[dict], Problems]:
    def check(payload: dict) -> Problems:
        problems: Problems = []
        rows = payload["rows"]
        _expect(problems, "types", [r["type"] for r in rows], list(labels))
        for row in rows:
            rank, exponents, h, order, full = ka.TYPES[row["type"]]
            want = {
                "rank": rank,
                "exponents": list(exponents),
                "coxeter_number": h,
                "order": order,
                "full_counted": full,
                "full_formula": f"{full}/1",
                "match": True,
            }
            _expect(problems, f"{row['type']} row", {k: row.get(k) for k in want}, want)
        return problems

    return check


TABLE_TYPES = ("A3", "B3", "B4", "D4", "D5", "F4", "H3", "H4", "E6", "E7", "E8", "I2(8)")

# Why each workload, and which layers it stresses, is written down in
# perfbench/README.md.
WORKLOADS: Dict[str, Tuple[Call, ...]] = {
    "verify-all": tuple(
        Call(("verify", "all", label, "--json"), _check_verify_all(label))
        for label in ("A4", "B4", "D4", "H3")
    ),
    "series": (Call(("gerst", "--max-degree", "9", "--json"), _check_gerst(9)),),
    "complexes": (
        Call(("fpoly", "E8", "--allow-large", "--json"), _check_fpoly("E8")),
        Call(("antichains", "E8", "--json"), _check_antichains("E8")),
        Call(("antichains", "E7", "--json"), _check_antichains("E7")),
        Call(("verify", "p-mobius", "E8", "--json"), _check_single_report("p-mobius", "E8", _p_mobius_details)),
        Call(("verify", "hf", "E7", "--allow-large", "--json"), _check_single_report("hf", "E7", _hf_details)),
        Call(("table",) + TABLE_TYPES + ("--json",), _check_table(TABLE_TYPES)),
    ),
}
