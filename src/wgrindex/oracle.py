"""Brute-force reference implementations used to cross-check the index.

Nothing in this module touches the built index structures; every answer is
recomputed directly from the graph by set refinement or plain scans. That
independence is the point: these functions are slow and obviously correct.
"""

from __future__ import annotations

from .graph import WheelerGraph


def label_index(g: WheelerGraph) -> dict[int, list[tuple[int, int]]]:
    """Group edges by label as (src, dst) pairs."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, lab in g.edges:
        adj.setdefault(lab, []).append((u, v))
    return adj


def naive_step(adj: dict[int, list[tuple[int, int]]], cur: set[int], c: int) -> set[int]:
    """One refinement step: vertices reached from cur by a c-labelled edge."""
    return {v for u, v in adj.get(c, ()) if u in cur}


def naive_trace(g: WheelerGraph, pattern) -> list[set[int]]:
    """Per-step vertex sets for each prefix of the pattern.

    Step 0 is every rank (every vertex ends an empty path); step t+1 keeps
    the vertices reachable from step t via an edge labelled pattern[t].
    """
    adj = label_index(g)
    sets = [set(range(g.n))]
    for c in pattern:
        sets.append(naive_step(adj, sets[-1], c))
    return sets


def naive_match(g: WheelerGraph, pattern) -> set[int]:
    """Ranks of the vertices where some directed path spelling the pattern
    (labels read first to last) ends."""
    return naive_trace(g, pattern)[-1]
