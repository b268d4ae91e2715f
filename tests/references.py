"""Reference implementations that left `src/` but still serve the tests."""

from fractions import Fraction

from coxcat.errors import CheckFailed, UsageError
from coxcat.exact import UniPoly


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
