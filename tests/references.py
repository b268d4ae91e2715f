"""Reference implementations that left `src/` but still serve the tests."""

from fractions import Fraction
from typing import Dict, List, Tuple

from coxcat.errors import CheckFailed, UsageError
from coxcat.exact import BiPoly, UniPoly, add_scaled, int_poly_mul
from coxcat.groups import _signed_cycles
from coxcat.poset import _components, enumerate_antichains, narayana_polynomial
from coxcat.rootsys import RootSystem


def unipoly_divide_exact(p: UniPoly, q: UniPoly) -> UniPoly:
    """Return p/q when q divides p exactly; raise CheckFailed otherwise."""
    if q.is_zero():
        raise UsageError("division by the zero polynomial")
    if p.is_zero():
        return UniPoly()
    rem = list(p.coeffs)
    qc = q.coeffs
    dq = len(qc) - 1
    lead = qc[-1]
    if len(rem) - 1 < dq:
        raise CheckFailed(f"{p!r} is not divisible by {q!r}")
    quot = [0] * (len(rem) - dq)
    for k in range(len(rem) - 1, dq - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        f = Fraction(c) / lead
        quot[k - dq] = f
        for j in range(dq + 1):
            rem[k - dq + j] -= f * qc[j]
    if any(c != 0 for c in rem):
        raise CheckFailed(f"{p!r} is not divisible by {q!r}")
    return UniPoly(quot)


# -- the two coordinate readers that signed_coordinates replaced --------------


def _letter_pairs(rs: RootSystem) -> Dict[int, tuple]:
    """Type A: map root index -> ordered letter pair (i, j), root = e_i - e_j.

    Positive roots of A_n have interval support [a..b], corresponding to the
    pair (a, b+1) in the letters 0..n.
    """
    pairs = {}
    for j, support in enumerate(rs.supports):
        a, b = min(support), max(support)
        pairs[j] = (a, b + 1)
        pairs[rs.neg(j)] = (b + 1, a)
    return pairs


def permutation_of_letters(rs: RootSystem, g: tuple) -> tuple:
    """Type A: recover the permutation of the n+1 letters from the root action."""
    if rs.family != "A":
        raise UsageError("letter permutations only exist for type A")
    pairs = _letter_pairs(rs)
    index_of = {pair: x for x, pair in pairs.items()}
    n_letters = rs.rank + 1
    image = [None] * n_letters
    for a in range(n_letters):
        b = (a + 1) % n_letters
        x = index_of[(a, b)]
        image[a] = pairs[g[x]][0]
    return tuple(image)


def _cycle_type_a(rs: RootSystem, rep: tuple) -> tuple:
    perm = permutation_of_letters(rs, rep)
    return _signed_cycles([(y, 1) for y in perm])[0]


def _coordinate_roots(rs: RootSystem) -> List[int]:
    """Type B: positive-root indices of the short roots e_1..e_n, in order.

    e_i = alpha_i + ... + alpha_n in simple-root coordinates.
    """
    n = rs.rank
    out = []
    for i in range(n):
        coords = tuple(0 if j < i else 1 for j in range(n))
        out.append(rs.root_index(coords))
    return out


def signed_permutation(rs: RootSystem, g: tuple) -> List[Tuple[int, int]]:
    """Type B: the image of each e_i as (target index, sign)."""
    if rs.family != "B":
        raise UsageError("signed permutations only exist for type B")
    coord = _coordinate_roots(rs)
    place = {x: (i, 1) for i, x in enumerate(coord)}
    place.update({rs.neg(x): (i, -1) for i, x in enumerate(coord)})
    return [place[g[x]] for x in coord]


def reference_class_label(rs: RootSystem, rep: tuple):
    """The class label as the two readers gave it, for types A and B."""
    if rs.family == "A":
        return _cycle_type_a(rs, rep)
    return _signed_cycles(signed_permutation(rs, rep))


# -- the inclusion-exclusion P before its factors were keyed by Cartan submatrix


def p_polynomial_mobius_by_nodes(rs: RootSystem) -> BiPoly:
    """P(x) by inclusion-exclusion, one Narayana factor per component node set."""
    edges = list(rs.edges)
    n_edges = len(edges)
    narayana: Dict[frozenset, list] = {}
    total = [0] * (rs.rank + 1)
    for picked in range(1 << n_edges):
        subset = [edges[i] for i in range(n_edges) if (picked >> i) & 1]
        sign = (-1) ** (n_edges - len(subset))
        product = [sign]
        for component in _components(rs.rank, subset):
            factor = narayana.get(component)
            if factor is None:
                tally = (
                    enumerate_antichains(rs)
                    if len(component) == rs.rank
                    else enumerate_antichains(rs, component)
                )
                n_poly = narayana_polynomial(tally)
                factor = [n_poly.coefficient(k) for k in range(len(component) + 1)]
                narayana[component] = factor
            product = int_poly_mul(product, factor)
        add_scaled(total, product, 1)
    return BiPoly({(k, 0): c for k, c in enumerate(total)})
