"""Exact scalar and polynomial arithmetic.

Scalars are `int`, `fractions.Fraction` for true rationals, or `GoldenNumber`
(the ring Z[phi], phi**2 = phi + 1, of the H3 and H4 root coordinates).
Polynomials, `UniPoly` (in t, dense) and `BiPoly` (in x, y, sparse), keep
the scalars they are given, so counts and characters stay `int`.
Everything is immutable and hashable, so values can be shared freely across
threads and memo tables.  Counts that never leave the integers are
multiplied as plain coefficient lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import accumulate
from math import comb
from typing import Iterable, Iterator, List, Mapping, Optional, Sequence, Union

from .errors import CheckFailed, InternalError

Scalar = Union[int, Fraction]

# The memo tables of the artefacts one command line shares between its
# checks, registered where they are defined; the CLI clears them before each
# command line.  The list keeps the lru_cache objects themselves, so clearing
# works whatever later rebinds the module attributes.
COMMAND_CACHES: List = []


def command_cache(fn):
    """Memoize fn for one command line (an lru_cache the CLI clears)."""
    cached = lru_cache(maxsize=None)(fn)
    COMMAND_CACHES.append(cached)
    return cached


def format_rational(q: Fraction) -> str:
    """Render a rational as the canonical "num/den" string."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def int_poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Product of two integer coefficient lists, constant term first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@total_ordering
class GoldenNumber:
    """An element a + b*phi of the ring Z[phi], phi = (1+sqrt5)/2, phi**2 = phi + 1.

    The library builds every value from integers, and the ring operations
    keep them integers; there is no division.  Comparisons are exact: the
    sign is decided on integers alone, never by floating-point evaluation.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int = 0, b: int = 0):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("GoldenNumber is immutable")

    def _coerce(self, other) -> "GoldenNumber":
        if isinstance(other, GoldenNumber):
            return other
        if isinstance(other, int):
            return GoldenNumber(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenNumber(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenNumber(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GoldenNumber(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a1 + b1 phi)(a2 + b2 phi) with phi^2 = phi + 1
        return GoldenNumber(
            self.a * o.a + self.b * o.b,
            self.a * o.b + self.b * o.a + self.b * o.b,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def sign(self) -> int:
        """Exact sign of a + b*phi = (x + y*sqrt5) / 2 with x = 2a + b, y = b."""
        x, y = 2 * self.a + self.b, self.b
        sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
        if sx * sy >= 0:
            return sx or sy
        # mixed signs: sqrt5 is irrational, so x^2 and 5 y^2 never tie
        return sx if x * x > 5 * y * y else sy

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def __repr__(self):
        if self.b == 0:
            return f"G({self.a})"
        return f"G({self.a} + {self.b}*phi)"


PHI = GoldenNumber(0, 1)


class UniPoly:
    """Dense polynomial in t, coefficients kept as given, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly()

    @staticmethod
    def one() -> "UniPoly":
        return UniPoly((1,))

    @staticmethod
    def constant(c: Scalar) -> "UniPoly":
        return UniPoly((c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def subs_t_power(self, d: int) -> "UniPoly":
        """Substitute t -> t**d."""
        if d == 1 or self.is_zero():
            return self
        out = [0] * (self.degree * d + 1)
        for k, c in enumerate(self.coeffs):
            out[k * d] = c
        return UniPoly(out)

    def to_json(self) -> dict:
        return {"coeffs": [format_rational(c) for c in self.coeffs]}

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def unipoly_divide_exact(p: UniPoly, q: UniPoly) -> UniPoly:
    """Return p/q when q divides p exactly; raise CheckFailed otherwise."""
    if q.is_zero():
        raise ValueError("division by the zero polynomial")
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


def divide_one_minus_t(coeffs: Sequence[Scalar]) -> Optional[tuple]:
    """p / (1-t) from p's coefficients (constant first), or None if 1-t does
    not divide p: p = (1-t) q gives q_k = p_0 + ... + p_k, and the last
    running sum, p(1), must be 0."""
    sums = tuple(accumulate(coeffs))
    if sums and sums[-1]:
        return None
    return sums[:-1]


class BiPoly:
    """Sparse polynomial in x, y: dict (xdeg, ydeg) -> scalar as given, zeros dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Scalar] = ()):
        clean = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (k, l), c in items:
            if c:
                clean[(int(k), int(l))] = c
        object.__setattr__(self, "terms", dict(clean))

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly({(0, 0): 1})

    @staticmethod
    def monomial(c: Scalar, k: int, l: int = 0) -> "BiPoly":
        return BiPoly({(k, l): c})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, k: int, l: int = 0) -> Scalar:
        return self.terms.get((k, l), 0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.monomial(other, 0, 0)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return BiPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly.monomial(other, 0, 0)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return BiPoly({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiPoly({key: c * other for key, c in self.terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict = {}
        for (k1, l1), c1 in self.terms.items():
            for (k2, l2), c2 in other.terms.items():
                key = (k1 + k2, l1 + l2)
                out[key] = out.get(key, 0) + c1 * c2
        return BiPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def reverse_x(self, n: int) -> "BiPoly":
        """Return x**n * P(1/x, y); requires every x-degree to be at most n."""
        if any(k > n for (k, _) in self.terms):
            raise InternalError(f"x-degree exceeds {n}")
        return BiPoly({(n - k, l): c for (k, l), c in self.terms.items()})

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def to_json(self) -> dict:
        return {
            "terms": [
                [k, l, format_rational(c)] for (k, l), c in self.sorted_terms()
            ]
        }

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for (k, l), c in self.sorted_terms():
            mono = ""
            if k:
                mono += "x" if k == 1 else f"x^{k}"
            if l:
                mono += "y" if l == 1 else f"y^{l}"
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def bipoly_substitute(f: BiPoly, n: int) -> BiPoly:
    """Clear denominators in (1-x)**n * f(x/(1-x), x*y/(1-x)).

    Each term c*x^k*y^l maps to c * x^(k+l) * y^l * (1-x)^(n-k-l), so the
    result is again a polynomial provided k + l <= n for every term.
    """
    out = BiPoly.zero()
    for (k, l), c in f.terms.items():
        m = n - k - l
        if m < 0:
            raise InternalError(f"term x^{k} y^{l} exceeds the budget n={n}")
        # expand (1-x)^m by the binomial theorem
        expansion = {
            (k + l + j, l): c * ((-1) ** j) * comb(m, j) for j in range(m + 1)
        }
        out = out + BiPoly(expansion)
    return out


def centralizer_order(parts: Sequence[int]) -> int:
    z = 1
    for value in set(parts):
        m = list(parts).count(value)
        fact = 1
        for i in range(2, m + 1):
            fact *= i
        z *= value ** m * fact
    return z


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple]:
    """Yield the partitions of n as tuples, in reverse lexicographic order.

    partitions_of(3) yields (3,), (2, 1), (1, 1, 1).
    """
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def conjugate_partition(parts: Sequence[int]) -> tuple:
    """Conjugate of a weakly decreasing nonnegative sequence."""
    ps = sorted((p for p in parts if p > 0), reverse=True)
    if not ps:
        return ()
    return tuple(sum(1 for p in ps if p > i) for i in range(ps[0]))
