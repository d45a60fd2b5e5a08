"""Brute-force reference matcher used to cross-check the index.

Nothing here touches the built index structures; the answer is recomputed
directly from the graph by set refinement. That independence is the point:
the function is slow and obviously correct.
"""

from __future__ import annotations

from .graph import WheelerGraph


def naive_match(g: WheelerGraph, pattern) -> set[int]:
    """Ranks of the vertices where some directed path spelling the pattern
    (labels read first to last) ends."""
    cur = set(range(g.n))
    for c in pattern:
        cur = {v for u, v, lab in g.edges if lab == c and u in cur}
    return cur
