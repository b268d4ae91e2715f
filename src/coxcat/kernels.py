"""Clique counting over bitmask adjacency.

Vertices are 0..n-1; adj[v] is an int bitmask of the neighbours of v
(irreflexive, symmetric).  Cliques are enumerated once each by always
extending with a vertex of higher index than all current members, so the
cliques that extend a clique are exactly the cliques of its candidate set:
its common neighbours of higher index.  clique_tally counts each candidate
set once and shifts that count into every clique sharing the set;
maximal_cliques counts the maximal ones by a separate pivoted walk, since
maximality depends on the whole common neighbourhood, not on the candidate
set alone.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

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
    ValueError if a clique exceeds max_size members.
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
            raise ValueError(f"clique larger than the stated bound {max_size}")
        counts[(j, l, key >> 2 * w)] = c
    return counts


def maximal_cliques(adj: Sequence[int]) -> Tuple[int, int]:
    """(number of maximal cliques, smallest size among them).

    Bron-Kerbosch with pivoting (Tomita, Tanaka and Takahashi, Theor.
    Comput. Sci. 363, 2006): each call branches only on the candidates
    that are not neighbours of a pivot chosen to leave the fewest.  The
    empty graph has one maximal clique, the empty one.
    """
    count = 0
    smallest = len(adj)

    def expand(size: int, cand: int, done: int) -> None:
        nonlocal count, smallest
        if not cand:
            if not done:
                count += 1
                smallest = min(smallest, size)
            return
        best = -1
        rest = cand | done
        while rest:
            low = rest & -rest
            nbrs = adj[low.bit_length() - 1]
            rest ^= low
            k = (cand & nbrs).bit_count()
            if k > best:
                best, pivot_nbrs = k, nbrs
        branch = cand & ~pivot_nbrs
        while branch:
            low = branch & -branch
            nbrs = adj[low.bit_length() - 1]
            branch ^= low
            expand(size + 1, cand & nbrs, done & nbrs)
            cand ^= low
            done |= low

    expand(0, (1 << len(adj)) - 1, 0)
    return count, smallest

