"""Verification reports: one named check, one type label, one verdict.

A report passes exactly when its witness list is empty.  The renderings
(text and JSON) are deterministic; timing is kept on the object for
callers but never written to stdout, so output stays byte-identical
across runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List

from .errors import CapacityExceeded, CheckFailed
from .exact import BiPoly, UniPoly, format_rational

CHECK_NAMES = (
    "formula",
    "antichain-lemmas",
    "p-mobius",
    "hf",
    "main",
    "b-lemmas",
    "gerst",
    "bonzero",
)

# closed forms behind the full-reflection column of the summary table
_TABLE_RULES = {
    "A": lambda n, m: 1,
    "B": lambda n, m: n,
    "C": lambda n, m: n,
    "D": lambda n, m: n - 2,
    "E": lambda n, m: {6: 7, 7: 16, 8: 44}[n],
    "F": lambda n, m: 10,
    "G": lambda n, m: 4,
    "H": lambda n, m: {3: 8, 4: 42}[n],
    "I": lambda n, m: m - 2,
}


def expected_full_count(rs) -> int:
    return _TABLE_RULES[rs.family](rs.rank, rs.m)


def jsonable(value):
    """Recursively convert report payloads to JSON-safe structures.

    Fractions become "num/den" strings; polynomials use their exact
    to_json encodings; tuples become lists.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (UniPoly, BiPoly)):
        return value.to_json()
    if isinstance(value, dict):
        return {_key_str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in items]
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed in reports")
    return str(value)


def _key_str(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (tuple, list)):
        return ",".join(str(x) for x in key)
    return str(key)


@dataclass
class VerificationReport:
    check: str
    type_label: str
    status: str
    witnesses: List[str]
    ms: float
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if (self.status == "pass") != (not self.witnesses):
            raise ValueError("status must be pass exactly when witnesses is empty")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "type": self.type_label,
            "status": self.status,
            "witnesses": [jsonable(w) for w in self.witnesses],
            "details": jsonable(self.details),
        }

    def render(self) -> str:
        head = f"[{'PASS' if self.passed else 'FAIL'}] {self.check} {self.type_label}"
        lines = [head]
        for key in sorted(self.details):
            lines.append(f"    {key}: {_detail_str(self.details[key])}")
        for w in self.witnesses:
            lines.append(f"    witness: {w}")
        return "\n".join(lines)


def _detail_str(value) -> str:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (UniPoly, BiPoly)):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ", ".join(
            f"{_key_str(k)}: {_detail_str(v)}" for k, v in sorted(value.items(), key=lambda kv: _key_str(kv[0]))
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_detail_str(v) for v in value) + "]"
    return str(value)


def _report(check: str, label: str, started: float, witnesses: List[str], details: dict) -> VerificationReport:
    return VerificationReport(
        check=check,
        type_label=label,
        status="pass" if not witnesses else "fail",
        witnesses=witnesses,
        ms=(time.perf_counter() - started) * 1000.0,
        details=details,
    )


def _not_applicable(check: str, label: str, started: float, why: str) -> VerificationReport:
    return _report(check, label, started, [], {"note": f"not applicable: {why}"})


def run_check(
    check: str,
    label: str,
    *,
    max_degree: int = 7,
    allow_large: bool = False,
) -> VerificationReport:
    """Run one named verification against one type and report the outcome.

    Witnesses are recorded for genuine mathematical failures; preconditions
    (unknown labels, capacity limits) raise instead, so the caller can map
    them to a usage error.
    """
    if check not in CHECK_NAMES:
        raise ValueError(f"unknown check {check!r}")
    from .rootsys import build_root_system

    started = time.perf_counter()
    rs = build_root_system(label)
    runner = _RUNNERS[check]
    return runner(rs, started, max_degree, allow_large)


def run_all_checks(
    label: str, *, max_degree: int = 7, allow_large: bool = False
) -> List[VerificationReport]:
    """All checks in order; capacity overruns become vacuous passes.

    Requesting one specific check beyond capacity is a usage error, but
    `all` simply runs whatever the oracles can reach for the type.
    """
    reports = []
    for name in CHECK_NAMES:
        started = time.perf_counter()
        try:
            reports.append(
                run_check(name, label, max_degree=max_degree, allow_large=allow_large)
            )
        except CapacityExceeded as exc:
            reports.append(
                _not_applicable(name, label, started, f"outside oracle capacity ({exc})")
            )
    return reports


def _run_formula(rs, started, max_degree, allow_large) -> VerificationReport:
    counted = rs.full_reflection_count()
    formula = rs.formula_value()
    table = expected_full_count(rs)
    witnesses: List[str] = []
    if Fraction(counted) != formula:
        witnesses.append(f"counted {counted} != formula value {format_rational(formula)}")
    if counted != table:
        witnesses.append(f"counted {counted} != closed form {table}")
    details = {"counted": counted, "formula": formula, "closed_form": table}
    return _report("formula", rs.label, started, witnesses, details)


def _run_antichain_lemmas(rs, started, max_degree, allow_large) -> VerificationReport:
    if not rs.crystallographic:
        return _not_applicable(
            "antichain-lemmas", rs.label, started, "needs integer root coordinates"
        )
    from .poset import check_antichain_lemmas

    witnesses: List[str] = []
    details: dict = {}
    try:
        summary = check_antichain_lemmas(rs)
        details = {
            "total": summary["total"],
            "narayana": summary["narayana"],
            "p_top": summary["p_top"],
            "full_count": summary["full_count"],
        }
    except CheckFailed as exc:
        witnesses.append(str(exc))
    return _report("antichain-lemmas", rs.label, started, witnesses, details)


def _run_p_mobius(rs, started, max_degree, allow_large) -> VerificationReport:
    if not rs.crystallographic:
        return _not_applicable(
            "p-mobius", rs.label, started, "needs integer root coordinates"
        )
    from .poset import (
        enumerate_antichains,
        h_polynomial,
        p_polynomial_direct,
        p_polynomial_mobius,
    )

    tally = enumerate_antichains(rs)
    direct = p_polynomial_direct(tally)
    mobius = p_polynomial_mobius(rs)
    witnesses: List[str] = []
    if direct != mobius:
        witnesses.append(
            f"direct {direct!r} != inclusion-exclusion {mobius!r}"
        )
    f_count = rs.full_reflection_count()
    top = direct.coefficient(rs.rank - 1, 0)
    if top != f_count:
        witnesses.append(f"P coefficient of x^(n-1) is {top}, full count is {f_count}")
    h_val = h_polynomial(tally).coefficient(rs.rank - 1, 0)
    if h_val != f_count:
        witnesses.append(f"H(n-1, 0) coefficient is {h_val}, full count is {f_count}")
    details = {"p": direct, "full_count": f_count}
    return _report("p-mobius", rs.label, started, witnesses, details)


def _run_hf(rs, started, max_degree, allow_large) -> VerificationReport:
    if not rs.crystallographic:
        return _not_applicable("hf", rs.label, started, "needs integer root coordinates")
    from .cluster import verify_hf_conjecture

    witnesses: List[str] = []
    details: dict = {}
    try:
        summary = verify_hf_conjecture(rs, allow_large=allow_large)
        details = {"h": summary["h"], "f": summary["f"]}
    except CheckFailed as exc:
        witnesses.append(str(exc))
    return _report("hf", rs.label, started, witnesses, details)


def _run_main(rs, started, max_degree, allow_large) -> VerificationReport:
    from .osalgebra import check_dimension_identity, verify_main_conjecture

    witnesses: List[str] = []
    details: dict = {}
    try:
        identity = check_dimension_identity(rs)
        details["identity_lhs"] = identity["lhs"]
    except CheckFailed as exc:
        witnesses.append(str(exc))
    try:
        summary = verify_main_conjecture(rs)
        details["classes"] = summary["classes"]
        details["full_count"] = summary["f_count"]
    except CheckFailed as exc:
        witnesses.append(str(exc))
    return _report("main", rs.label, started, witnesses, details)


def _run_b_lemmas(rs, started, max_degree, allow_large) -> VerificationReport:
    if rs.family != "B":
        return _not_applicable(
            "b-lemmas", rs.label, started, "stated for the signed-permutation types B"
        )
    from .groups import check_B_lemma, generate_group
    from .osalgebra import check_B_gprime_lemma

    witnesses: List[str] = []
    details: dict = {}
    try:
        group = generate_group(rs)
        summary = check_B_lemma(rs, group)
        details["classes"] = summary["classes"]
        gp = check_B_gprime_lemma(rs)
        details["vanishing_checked"] = gp["vanishing_checked"]
    except CheckFailed as exc:
        witnesses.append(str(exc))
    return _report("b-lemmas", rs.label, started, witnesses, details)


def _run_gerst(rs, started, max_degree, allow_large) -> VerificationReport:
    from .symfunc import (
        ORACLE_MAX_N,
        calibrated_bundle,
        identity_class_value,
        verify_first_derivative_identities,
        verify_second_derivative_identity,
        verify_type_A_conjecture,
    )

    witnesses: List[str] = []
    details: dict = {"max_degree": max_degree}
    try:
        bundle = calibrated_bundle(max_degree + 2)
        details["twist"] = bundle.twist
        details["calibration_degrees"] = list(range(2, ORACLE_MAX_N + 1))
        verify_first_derivative_identities(bundle, max_degree + 1)
        verify_second_derivative_identity(bundle, max_degree)
        for n in range(1, max_degree + 1):
            expected = UniPoly.one()
            for i in range(1, n):
                expected = expected * UniPoly((1, -i))
            got = identity_class_value(bundle, n)
            if got != expected:
                witnesses.append(
                    f"identity class value in degree {n}: {got!r} != {expected!r}"
                )
        verify_type_A_conjecture(bundle, max_degree)
        details["type_a_max_n"] = max_degree
    except CheckFailed as exc:
        witnesses.append(str(exc))
    return _report("gerst", rs.label, started, witnesses, details)


def _run_bonzero(rs, started, max_degree, allow_large) -> VerificationReport:
    from .symfunc import calibrated_bundle, verify_bonzero

    witnesses: List[str] = []
    details: dict = {"max_degree": max_degree}
    try:
        bundle = calibrated_bundle(max_degree + 2)
        summary = verify_bonzero(bundle, max_degree)
        details["gerst_at_one_is_p1"] = summary["gerst_at_one_is_p1"]
    except CheckFailed as exc:
        witnesses.append(str(exc))
    return _report("bonzero", rs.label, started, witnesses, details)


_RUNNERS: Dict[str, Callable] = {
    "formula": _run_formula,
    "antichain-lemmas": _run_antichain_lemmas,
    "p-mobius": _run_p_mobius,
    "hf": _run_hf,
    "main": _run_main,
    "b-lemmas": _run_b_lemmas,
    "gerst": _run_gerst,
    "bonzero": _run_bonzero,
}
