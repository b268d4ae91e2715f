"""Clique counting over bitmask adjacency.

Vertices are 0..n-1; adj[v] is an int bitmask of the neighbours of v
(irreflexive, symmetric).  Two walks serve two callers:

- face_walk gives the cluster complex both its face counts and its maximal
  faces (the clusters) from one pivoted Bron-Kerbosch walk, whose leaves
  each stand for a run of cliques counted by binomials.
- clique_tally serves the root poset, whose antichain keys also carry the
  OR of the members' covered-edge masks.  It enumerates cliques once each
  by always extending with a vertex of higher index than all current
  members, so the cliques that extend a clique are exactly the cliques of
  its candidate set: its common neighbours of higher index.  It counts each
  candidate set once and shifts that count into every clique sharing it.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Sequence, Tuple

from .errors import InternalError

TallyKey = Tuple[int, int, int]

# Kept because perfbench's setup probe records it; there is no compiled kernel.
USING_COMPILED = False


def clique_tally(
    adj: Sequence[int],
    special_mask: int,
    edge_masks: Sequence[int],
    max_size: int,
) -> Dict[TallyKey, int]:
    """Count every clique (the empty one included).

    Keys are (plain members, special members, OR of the members' edge
    masks), where "special" means the vertex is in special_mask.  Raises
    InternalError if a clique exceeds max_size members.
    """
    n = len(adj)
    # Inside the walk a key is one int: plain | special << w | edge mask << 2w.
    # No count exceeds n < 2**w, so adding a member never carries across fields.
    w = max(n, 1).bit_length()
    step = [1 << w if (special_mask >> v) & 1 else 1 for v in range(n)]
    edges = [e << 2 * w for e in edge_masks]
    # The extension tallies of the candidate sets met under one top-level
    # vertex.  Keeping them for the whole walk is faster but holds every
    # distinct set's tally at once.
    memo: Dict[int, Dict[int, int]] = {}

    def extensions(cand: int) -> Dict[int, int]:
        """Packed tally of the cliques inside cand."""
        if not cand & (cand - 1):
            if not cand:
                return {0: 1}
            v = cand.bit_length() - 1
            return {0: 1, step[v] | edges[v]: 1}
        out = memo.get(cand)
        if out is not None:
            return out
        out = {0: 1}
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            d, e = step[v], edges[v]
            for key, c in extensions(rest & adj[v]).items():
                key = (key + d) | e
                out[key] = out.get(key, 0) + c
        memo[cand] = out
        return out

    packed = {0: 1}
    for v in range(n):
        d, e = step[v], edges[v]
        for key, c in extensions(adj[v] >> (v + 1) << (v + 1)).items():
            key = (key + d) | e
            packed[key] = packed.get(key, 0) + c
        memo.clear()
    field = (1 << w) - 1
    counts: Dict[TallyKey, int] = {}
    for key, c in packed.items():
        j, l = key & field, (key >> w) & field
        if j + l > max_size:
            raise InternalError(f"clique larger than the stated bound {max_size}")
        counts[(j, l, key >> 2 * w)] = c
    return counts


def face_walk(
    adj: Sequence[int], special_mask: int, max_size: int
) -> Tuple[Dict[Tuple[int, int], int], Tuple[int, int]]:
    """Every clique counted, and the maximal ones, in one pivoted walk.

    Returns the clique counts keyed by (plain members, special members),
    the empty clique included, and (number of maximal cliques, smallest
    size among them); the empty graph has one maximal clique, the empty
    one.  Raises InternalError if a clique exceeds max_size members.

    This is Bron-Kerbosch with a pivot drawn from the candidates alone, the
    one with most neighbours among them (Jain and Seshadhri, WSDM 2020).
    A leaf stands for its held members plus any subset of its pivots, and
    every clique lies under exactly one leaf; a pivot drawn from the done
    set, as Tomita, Tanaka and Takahashi allow, would lose the cliques
    inside its neighbourhood.  The all-pivots clique of a leaf is maximal
    exactly when nothing is left done there.
    """
    n = len(adj)
    # A leaf is one int: held plain | held special << w | pivot plain << 2w
    # | pivot special << 3w.  No count exceeds n < 2**w, so none carries.
    w = max(n, 1).bit_length()
    held = [1 << w if (special_mask >> v) & 1 else 1 for v in range(n)]
    pivot = [d << 2 * w for d in held]
    leaves: Dict[int, int] = {}
    maximal: Dict[int, int] = {}

    def walk(key: int, cand: int, done: int) -> None:
        if not cand:
            leaves[key] = leaves.get(key, 0) + 1
            if not done:
                maximal[key] = maximal.get(key, 0) + 1
            return
        best = -1
        rest = cand
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            k = (cand & adj[v]).bit_count()
            if k > best:
                best, p = k, v
        branch = cand & ~adj[p]
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            branch ^= low
            nbrs = adj[v]
            walk(key + (pivot[v] if v == p else held[v]), cand & nbrs, done & nbrs)
            cand ^= low
            done |= low

    walk(0, (1 << n) - 1, 0)
    field = (1 << w) - 1

    def fields(key: int) -> List[int]:
        return [(key >> i * w) & field for i in range(4)]

    counts: Dict[Tuple[int, int], int] = {}
    for key, c in leaves.items():
        held_plain, held_special, pivot_plain, pivot_special = fields(key)
        if held_plain + held_special + pivot_plain + pivot_special > max_size:
            raise InternalError(f"clique larger than the stated bound {max_size}")
        for a in range(pivot_plain + 1):
            ca = c * comb(pivot_plain, a)
            for b in range(pivot_special + 1):
                face = (held_plain + a, held_special + b)
                counts[face] = counts.get(face, 0) + ca * comb(pivot_special, b)
    clusters = (sum(maximal.values()), min(sum(fields(key)) for key in maximal))
    return counts, clusters
