"""Clique enumeration over bitmask adjacency.

Vertices are 0..n-1; adj[v] is an int bitmask of the neighbours of v
(irreflexive, symmetric).  Cliques are enumerated once each by always
extending with a vertex of higher index than all current members.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

TallyKey = Tuple[int, int, int, bool]

# Kept because perfbench's setup probe records it; there is no compiled kernel.
USING_COMPILED = False


def clique_tally(
    adj: Sequence[int],
    special_mask: int,
    edge_masks: Sequence[int],
    max_size: int,
) -> Dict[TallyKey, int]:
    """Count every clique (the empty one included).

    Keys are (plain members, special members, OR of the members' edge masks,
    maximal), where "special" means the vertex is in special_mask and a
    clique is maximal when no vertex is adjacent to all its members, i.e.
    when the AND of the members' adjacency masks is 0.  Raises ValueError
    if a clique exceeds max_size members.
    """
    n = len(adj)
    counts: Dict[TallyKey, int] = {}

    def rec(cand: int, common: int, j: int, l: int, em: int) -> None:
        if j + l > max_size:
            raise ValueError(f"clique larger than the stated bound {max_size}")
        key = (j, l, em, not common)
        counts[key] = counts.get(key, 0) + 1
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            av = adj[v]
            if (special_mask >> v) & 1:
                rec(cand & av, common & av, j, l + 1, em | edge_masks[v])
            else:
                rec(cand & av, common & av, j + 1, l, em | edge_masks[v])

    everyone = (1 << n) - 1
    rec(everyone, everyone, 0, 0, 0)
    return counts


def iter_cliques(adj: Sequence[int]) -> Iterator[int]:
    """Yield every clique as a member bitmask, the empty clique first.

    For callers that need the members themselves; clique_tally only counts.
    """
    n = len(adj)

    def rec(members: int, cand: int) -> Iterator[int]:
        yield members
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            yield from rec(members | low, cand & adj[v])

    yield from rec(0, (1 << n) - 1)
