"""Counts and characters are held as `int`, end to end.

N, H and P count antichains, F counts faces and a class character is a
trace, so none of their coefficients may be a `Fraction` (or a float).
"""

import pytest

from coxcat.cluster import ClusterComplex
from coxcat.errors import CapacityExceeded
from coxcat.exact import BiPoly, bipoly_substitute
from coxcat.osalgebra import g_prime_character, os_graded_character
from coxcat.poset import (
    enumerate_antichains,
    h_polynomial,
    narayana_polynomial,
    p_polynomial_direct,
    p_polynomial_mobius,
)
from coxcat.rootsys import build_root_system

TYPES = ["A4", "B4", "D5", "E6", "F4", "G2", "H3", "I2(8)"]


def _coefficients(poly) -> list:
    return list(poly.terms.values() if isinstance(poly, BiPoly) else poly.coeffs)


@pytest.mark.parametrize("label", TYPES)
def test_counts_and_characters_have_int_coefficients(label):
    rs = build_root_system(label)
    checked = {}
    if rs.crystallographic:
        tally = enumerate_antichains(rs)
        f_poly = ClusterComplex(rs).f_tally()
        polys = {
            "N": narayana_polynomial(tally),
            "H": h_polynomial(tally),
            "P": p_polynomial_direct(tally),
            "P_mobius": p_polynomial_mobius(rs),
            "F": f_poly,
            "F_transformed": bipoly_substitute(f_poly, rs.rank),
        }
        checked.update((name, _coefficients(poly)) for name, poly in polys.items())
    try:
        gc = os_graded_character(rs)
    except CapacityExceeded:
        assert rs.order > 10_000, label  # E6: characters only inside the group cap
    else:
        for cls, poly in zip(gc.classes, gc.chars):
            checked[f"chi {cls.describe()}"] = _coefficients(poly)
        checked["chi_G'"] = g_prime_character(gc)
    assert checked
    for name, values in checked.items():
        assert [v for v in values if type(v) is not int] == [], f"{label} {name}"
