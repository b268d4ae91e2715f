"""Clique counting over bitmask adjacency.

Vertices are 0..n-1; adj[v] is an int bitmask of the neighbours of v
(irreflexive, symmetric).  One pivoted walk serves both callers: the
cluster complex, whose faces are the cliques of its compatibility graph and
whose clusters are the maximal ones, and the root poset, whose antichains
are the cliques of its incomparability graph, keyed also by the OR of the
members' covered-edge masks.
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
) -> Tuple[Dict[TallyKey, int], Tuple[int, int]]:
    """Every clique counted, and the maximal ones, in one pivoted walk.

    Returns the clique counts keyed by (plain members, special members, OR
    of the members' edge masks), the empty clique included, where "special"
    means the vertex is in special_mask; and (number of maximal cliques,
    smallest size among them), the empty graph having one maximal clique,
    the empty one.  Raises InternalError if a clique exceeds max_size
    members.

    This is Bron-Kerbosch with a pivot drawn from the candidates alone, the
    one with most neighbours among them (Jain and Seshadhri, WSDM 2020).
    A leaf stands for its held members plus any subset of its pivots, and
    every clique lies under exactly one leaf; a pivot drawn from the done
    set, as Tomita, Tanaka and Takahashi allow, would lose the cliques
    inside its neighbourhood.  The all-pivots clique of a leaf is maximal
    exactly when nothing is left done there.  Pivots with no edge mask are
    counted by kind and expanded by binomials; each pivot with an edge mask
    keeps its own bit in the leaf and is folded in at the end.
    """
    n = len(adj)
    # A key is one int: held plain | held special << w | pivot plain << 2w
    # | pivot special << 3w | OR of held edge masks << 4w | one bit per
    # edge-masked pivot above that.  No count exceeds n < 2**w, so none carries.
    w = max(n, 1).bit_length()
    edge_at = 4 * w
    named_at = edge_at + max(edge_masks, default=0).bit_length()
    held = [1 << w if (special_mask >> v) & 1 else 1 for v in range(n)]
    edges = [e << edge_at for e in edge_masks]
    pivot = [
        1 << named_at + v if e else d << 2 * w
        for v, (d, e) in enumerate(zip(held, edge_masks))
    ]
    # Bucket i holds the leaves whose highest edge-masked pivot is vertex
    # i - 1, and bucket 0 those with none.
    todo: List[Dict[int, int]] = [{} for _ in range(n + 1)]
    maximal: Dict[int, int] = {}

    def walk(key: int, cand: int, done: int) -> None:
        if not cand:
            bucket = todo[(key >> named_at).bit_length()]
            bucket[key] = bucket.get(key, 0) + 1
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
            key_v = key + pivot[v] if v == p else (key + held[v]) | edges[v]
            walk(key_v, cand & nbrs, done & nbrs)
            cand ^= low
            done |= low

    walk(0, (1 << n) - 1, 0)
    # Fold the edge-masked pivots in from the highest vertex down, popping
    # each bucket, so keys that meet on the way merge before the next fold.
    for v in reversed(range(n)):
        d, e, bit = held[v], edges[v], pivot[v]
        for key, c in todo.pop().items():
            key ^= bit
            for folded in (key, (key + d) | e):
                bucket = todo[(folded >> named_at).bit_length()]
                bucket[folded] = bucket.get(folded, 0) + c
    field = (1 << w) - 1
    counts: Dict[TallyKey, int] = {}
    for key, c in todo.pop().items():
        held_plain, held_special = key & field, key >> w & field
        pivot_plain, pivot_special = key >> 2 * w & field, key >> 3 * w & field
        if held_plain + held_special + pivot_plain + pivot_special > max_size:
            raise InternalError(f"clique larger than the stated bound {max_size}")
        em = key >> edge_at
        for a in range(pivot_plain + 1):
            ca = c * comb(pivot_plain, a)
            for b in range(pivot_special + 1):
                face = (held_plain + a, held_special + b, em)
                counts[face] = counts.get(face, 0) + ca * comb(pivot_special, b)

    def size(key: int) -> int:
        fields = sum(key >> i * w & field for i in range(4))
        return fields + (key >> named_at).bit_count()

    return counts, (sum(maximal.values()), min(map(size, maximal)))
