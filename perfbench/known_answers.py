"""Known answers for every benchmarked CLI call, written by hand.

Nothing here is computed by coxcat.  Each value comes from the literature
cited next to it; the benchmark's own tests check the table against
itself (|W| and h from the exponents, the product formula, Cat(W)), so a
typo in one column shows up against the others.

Sources:
  [H]  J. E. Humphreys, Reflection Groups and Coxeter Groups (1990),
       Table 2.2 (orders |W|) and Table 3.1 (exponents, Coxeter number h).
  [C]  F. Chapoton, "Enumerative properties of generalized associahedra",
       arXiv math/0405371: full reflections f = n h (e_2-1)...(e_n-1) / |W|
       and the closed forms A_n 1, B_n n, D_n n-2, E6 7, E7 16, E8 44,
       F4 10, H3 8, H4 42, I2(m) m-2.
  [FZ] S. Fomin, A. Zelevinsky, "Y-systems and generalized associahedra",
       Ann. Math. 158 (2003): Cat(W) = prod (h + e_i + 1) / (e_i + 1)
       clusters; the negative simple roots are pairwise compatible; the
       complex has |Phi+| + n vertices and is pure of dimension n - 1.
  [A]  D. Armstrong, "Generalized noncrossing partitions and combinatorics
       of Coxeter groups", Mem. AMS 949 (2009): Cat(W) antichains of the
       root poset (Postnikov), the Narayana numbers summing to Cat(W).
  [Ca] R. W. Carter, "Conjugacy classes in the Weyl group", Compositio
       Math. 25 (1972); Geck-Pfeiffer, Characters of Finite Coxeter Groups
       and Iwahori-Hecke Algebras (2000), Appendix B, for H3.
  [S]  R. P. Stanley, Enumerative Combinatorics 1, 2nd ed. (2012): the
       partition numbers p(n) (OEIS A000041) and the unsigned Stirling
       numbers of the first kind, so that prod_{i<n} (1 - i t) is the
       generating polynomial of the signed Stirling numbers s(n, n-k).
"""

from __future__ import annotations

# type: (rank n, exponents [H], Coxeter number h [H], |W| [H], full reflections [C])
TYPES = {
    "A3": (3, (1, 2, 3), 4, 24, 1),
    "A4": (4, (1, 2, 3, 4), 5, 120, 1),
    "B3": (3, (1, 3, 5), 6, 48, 3),
    "B4": (4, (1, 3, 5, 7), 8, 384, 4),
    "D4": (4, (1, 3, 3, 5), 6, 192, 2),
    "D5": (5, (1, 3, 4, 5, 7), 8, 1920, 3),
    "F4": (4, (1, 5, 7, 11), 12, 1152, 10),
    "H3": (3, (1, 5, 9), 10, 120, 8),
    "H4": (4, (1, 11, 19, 29), 30, 14400, 42),
    "E6": (6, (1, 4, 5, 7, 8, 11), 12, 51840, 7),
    "E7": (7, (1, 5, 7, 9, 11, 13, 17), 18, 2903040, 16),
    "E8": (8, (1, 7, 11, 13, 17, 19, 23, 29), 30, 696729600, 44),
    "I2(8)": (2, (1, 7), 8, 16, 6),
}

# Cat(W) [FZ], [A]: antichains of the root poset, clusters of the complex.
CATALAN = {"A4": 42, "B4": 70, "D4": 50, "E7": 4160, "E8": 25080}

# positive roots |Phi+| = n h / 2 [H]
POSITIVE_ROOTS = {"E7": 63, "E8": 120}

# conjugacy classes [Ca]: p(5) for A4, bipartitions of 4 for B4.
CLASSES = {"A4": 7, "B4": 20, "D4": 13, "H3": 10}

# partition numbers p(n), n = 1..9 [S]
PARTITION_COUNTS = (1, 2, 3, 5, 7, 11, 15, 22, 30)

# prod_{i<n} (1 - i t), coefficients of t^0, t^1, ... for n = 1..9 [S]
IDENTITY_CLASS_VALUES = (
    (1,),
    (1, -1),
    (1, -3, 2),
    (1, -6, 11, -6),
    (1, -10, 35, -50, 24),
    (1, -15, 85, -225, 274, -120),
    (1, -21, 175, -735, 1624, -1764, 720),
    (1, -28, 322, -1960, 6769, -13132, 13068, -5040),
    (1, -36, 546, -4536, 22449, -67284, 118124, -109584, 40320),
)

# n! for n = 1..9, the centraliser order of the identity class of S_n
FACTORIALS = (1, 2, 6, 24, 120, 720, 5040, 40320, 362880)

# `verify all` runs these checks, in this order.
CHECK_ORDER = (
    "formula",
    "antichain-lemmas",
    "p-mobius",
    "hf",
    "main",
    "b-lemmas",
    "gerst",
    "bonzero",
)

_NEEDS_INTEGER = "not applicable: needs integer root coordinates"
_TYPE_B_ONLY = "not applicable: stated for the signed-permutation types B"

# The exact set of checks that `verify all T` reports as not applicable:
# b-lemmas off type B, and the crystallographic-only checks for H3.
NOT_APPLICABLE = {
    "A4": {"b-lemmas": _TYPE_B_ONLY},
    "B4": {},
    "D4": {"b-lemmas": _TYPE_B_ONLY},
    "H3": {
        "antichain-lemmas": _NEEDS_INTEGER,
        "p-mobius": _NEEDS_INTEGER,
        "hf": _NEEDS_INTEGER,
        "b-lemmas": _TYPE_B_ONLY,
    },
}

# sha256 of each call's stdout at the seed commit; output must stay
# byte-identical.
SEED_DIGESTS = {
    "verify all A4 --json": "62aad137d9a711660dde1c24e4dc01256eeb29a467e8f2aecc487fb4e66f0e50",
    "verify all B4 --json": "b8bc66ad03663ebf8db475a429e96c489df20f63c87ada534f470d3ca39e96ea",
    "verify all D4 --json": "2aa9ee91b1221700493a43258af893a3b2ab33e785f33212e00d8adcaf0c6b06",
    "verify all H3 --json": "6f16fffa277bb073bd188b64e1808d6fb0706ac5e697e8674ef2217c76a2ced0",
    "gerst --max-degree 9 --json": "cde0a61f45b234fade33505f859faa2c58c514bcf3efcc81f4a8a3d00382ccdf",
    "fpoly E8 --allow-large --json": "1445a3020b3766d25d475d02ea2e7a0d866baa2f0173f9bbd08525bd5db5b3f9",
    "antichains E8 --json": "c7eb0d8044b4e2a2ae43e2d8ca92a9429f9dad64c6629a5d4984be02428200d1",
    "antichains E7 --json": "356e8cce7446954c458dd15af6d7dd4fb17677cd8f56731d9f2c1d32fe532636",
    "verify p-mobius E8 --json": "f2cc86c03a522c4ba8758fb0f6e402b60ee86376f9a32cce8550696b22168b10",
    "verify hf E7 --allow-large --json": "39e42615e1137218c68569c2ac3a8cdcb4bd4846853f0b65cdf232d50b60c0b7",
    "table A3 B3 B4 D4 D5 F4 H3 H4 E6 E7 E8 I2(8) --json": "13169e13dbc8c46a3d1e818c59d80a4a7a1933a5ccef4217ebc7767e11554a9b",
}
