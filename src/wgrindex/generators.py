"""Families of graphs that carry a valid vertex order by construction.

Each family orders its vertices co-lexicographically by the label string
read along the walk into the vertex (last label compared first, empty
string first), which satisfies the ordering axioms for chains, chain
unions, cycles of primitive strings, and tries. Generated instances are
deterministic functions of their parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import WheelerGraph

LabelString = Sequence[int]


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated graph plus a human-readable provenance tag."""

    graph: WheelerGraph
    provenance: str


def suffix_array(seq: Sequence[int]) -> list[int]:
    """Start positions of all non-empty suffixes in lexicographic order.

    Prefix doubling: each round sorts by (rank[i], rank[i+k]) packed into a
    single integer, so a length-N input needs O(log N) sorts.
    """
    n = len(seq)
    if n == 0:
        return []
    uniq = sorted(set(seq))
    code = {v: i for i, v in enumerate(uniq)}
    rank = [code[v] for v in seq]
    k = 1
    base = n + 1
    while max(rank) < n - 1:
        key = [rank[i] * base + (rank[i + k] + 1 if i + k < n else 0) for i in range(n)]
        order = sorted(range(n), key=key.__getitem__)
        rank = [0] * n
        prev_key = key[order[0]]
        r = 0
        for idx in order:
            if key[idx] != prev_key:
                r += 1
                prev_key = key[idx]
            rank[idx] = r
        k <<= 1
    out = [0] * n
    for i, r in enumerate(rank):
        out[r] = i
    return out


def gen_string_path(s: LabelString) -> GeneratedInstance:
    """Chain graph spelling s; one decomposition path.

    Vertex i sits after the first i labels; its order key is that prefix
    read co-lexicographically, i.e. the lexicographic rank of the matching
    suffix of reversed(s), with the empty prefix first.
    """
    s = tuple(s)
    n = len(s)
    sa = suffix_array(s[::-1])
    inv = [0] * n
    for p, start in enumerate(sa):
        inv[start] = p
    rank_of = [0] * (n + 1)
    for i in range(1, n + 1):
        rank_of[i] = 1 + inv[n - i]
    edges = [(rank_of[i], rank_of[i + 1], s[i]) for i in range(n)]
    g = WheelerGraph(n=n + 1, edges=edges)
    return GeneratedInstance(g, f"string_path(len={n},sigma={g.sigma})")


def is_primitive(s: LabelString) -> bool:
    """True iff s is non-empty and not a repetition of a shorter string."""
    s = tuple(s)
    n = len(s)
    if n == 0:
        return False
    doubled = s + s
    return all(doubled[i : i + n] != s for i in range(1, n))


def gen_string_cycle(s: LabelString) -> GeneratedInstance:
    """Cycle graph spelling s endlessly; one decomposition path.

    Vertex i's order key is the last |s| labels of the walk into it, read
    co-lexicographically. Primitivity makes those keys pairwise distinct;
    non-primitive input is rejected because its order would be ambiguous.
    """
    s = tuple(s)
    n = len(s)
    if not is_primitive(s):
        raise ValueError(f"cycle label string must be primitive, got {s!r}")
    keys = [tuple(s[(i - 1 - t) % n] for t in range(n)) for i in range(n)]
    order = sorted(range(n), key=keys.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    edges = [(rank[i], rank[(i + 1) % n], s[i]) for i in range(n)]
    g = WheelerGraph(n=n, edges=edges)
    return GeneratedInstance(g, f"string_cycle(len={n},sigma={g.sigma})")


def gen_multi_paths(strings: Sequence[LabelString]) -> GeneratedInstance:
    """Disjoint union of string paths; one decomposition path per string.

    Order keys merge across components; ties between equal prefixes are
    broken by input position, which keeps the axioms satisfied.
    """
    if not strings:
        raise ValueError("need at least one string")
    strs = [tuple(s) for s in strings]
    verts: list[tuple[tuple[int, ...], int, int]] = []
    for p, s in enumerate(strs):
        for i in range(len(s) + 1):
            verts.append((s[:i][::-1], p, i))
    verts.sort(key=lambda t: (t[0], t[1]))
    rank = {(p, i): r for r, (_, p, i) in enumerate(verts)}
    edges = []
    for p, s in enumerate(strs):
        for i, lab in enumerate(s):
            edges.append((rank[(p, i)], rank[(p, i + 1)], lab))
    g = WheelerGraph(n=len(verts), edges=edges)
    return GeneratedInstance(g, f"multi_paths(k={len(strs)},n={g.n},sigma={g.sigma})")


def gen_trie(strings: Sequence[LabelString]) -> GeneratedInstance:
    """Trie of the strings, edges labelled by the child's character.

    Vertices are the distinct prefixes ordered co-lexicographically with
    the root first; duplicates in the input are allowed and collapse.
    """
    if not strings:
        raise ValueError("need at least one string")
    nodes: set[tuple[int, ...]] = {()}
    for s in strings:
        t = tuple(s)
        for i in range(1, len(t) + 1):
            nodes.add(t[:i])
    ordered = sorted(nodes, key=lambda w: w[::-1])
    rank = {w: r for r, w in enumerate(ordered)}
    edges = [(rank[w[:-1]], rank[w], w[-1]) for w in ordered if w]
    g = WheelerGraph(n=len(ordered), edges=edges)
    return GeneratedInstance(g, f"trie(k={len(strings)},n={g.n},sigma={g.sigma})")
