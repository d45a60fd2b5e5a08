"""Families of graphs that carry a valid vertex order by construction.

Each family orders its vertices co-lexicographically by the label string
read along the walk into the vertex (last label compared first, empty
string first), which satisfies the ordering axioms for chains, chain
unions, cycles of primitive strings, and tries. One ranking of string
rotations gives that order in every family. Generated instances are
deterministic functions of their parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Sequence

from .graph import WheelerGraph

LabelString = Sequence[int]


@dataclass(frozen=True)
class GeneratedInstance:
    """A generated graph plus a human-readable provenance tag."""

    graph: WheelerGraph
    provenance: str


def _rotation_ranks(seq: Sequence[int]) -> list[int]:
    """rank[i]: the place of the rotation of seq from i among all of its
    rotations, which must be pairwise distinct. Cyclic prefix doubling:
    each round ranks by (rank[i], rank[(i + k) mod n]) packed into a single
    integer, so a length-N input needs O(log N) sorts."""
    n, k, rank = len(seq), 1, list(seq)
    while True:
        # The dict of places goes first, then the old ranks' list frees them
        # in order: the + 0 of _colex_ranks reuses that memory side by side.
        rank = list(map({v: r for r, v in enumerate(sorted(set(rank)))}.__getitem__, rank))
        if k >= n or max(rank) == n - 1:
            return rank
        rank = list(map(add, map(mul, rank, repeat(n)), rank[k:] + rank[:k]))
        k <<= 1


def _colex_ranks(strings: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """ranks[p][i]: the co-lexicographic rank of the vertex after the first
    i labels of strings[p], equal prefixes ranked by p. One ranking of the
    rotations of the strings, each reversed with its labels shifted up by
    k = len(strings) and closed by the separator p, gives them all: the
    rotation from i places before separator p reads that prefix backwards,
    then p, and separators sort below every label and by p. Being distinct,
    they also make the rotations sort as the suffixes do."""
    k = len(strings)
    text: list[int] = []
    for p, s in enumerate(strings):
        text.extend(c + k for c in reversed(s))
        text.append(p)
    rank = _rotation_ranks(text)
    ranks, sep = [], -1
    for s in strings:
        sep += len(s) + 1
        # + 0 allocates the rank ints anew in walking order, side by side in
        # memory while rank holds its own: a build's chain walks run faster
        ranks.append([rank[j] + 0 for j in range(sep, sep - len(s) - 1, -1)])
    return ranks


def gen_string_path(s: LabelString) -> GeneratedInstance:
    """Chain graph spelling s; one decomposition path. Vertex i sits after
    the first i labels and is ranked by that prefix, as in gen_multi_paths."""
    s = tuple(s)
    g = gen_multi_paths([s]).graph
    return GeneratedInstance(g, f"string_path(len={len(s)},sigma={g.sigma})")


def is_primitive(s: LabelString) -> bool:
    """True iff s is non-empty and not a repetition of a shorter string: s
    equals one of its rotations exactly when it equals the rotation by a
    proper divisor of its length, so only those are compared."""
    s = tuple(s)
    n = len(s)
    return n > 0 and all(s[d:] + s[:d] != s for d in range(1, n) if n % d == 0)


def gen_string_cycle(s: LabelString) -> GeneratedInstance:
    """Cycle graph spelling s endlessly; one decomposition path. Vertex i's
    order key is the last |s| labels of the walk into it, read
    co-lexicographically: the rotation of reversed(s) from (n - i) mod n.
    Primitivity makes those keys pairwise distinct; non-primitive input is
    rejected because its order would be ambiguous."""
    s = tuple(s)
    n = len(s)
    if not is_primitive(s):
        raise ValueError(f"cycle label string must be primitive, got {s!r}")
    rotation = _rotation_ranks(s[::-1])
    rank = [rotation[-i] + 0 for i in range(n)]  # + 0: as in _colex_ranks
    edges = list(zip(rank, rank[1:] + rank[:1], s))
    g = WheelerGraph(n=n, edges=edges)
    return GeneratedInstance(g, f"string_cycle(len={n},sigma={g.sigma})")


def gen_multi_paths(strings: Sequence[LabelString]) -> GeneratedInstance:
    """Disjoint union of string paths; one decomposition path per string.
    Equal prefixes are ranked by input position (see _colex_ranks)."""
    if not strings:
        raise ValueError("need at least one string")
    strs = [tuple(s) for s in strings]
    edges = [e for s, r in zip(strs, _colex_ranks(strs)) for e in zip(r, r[1:], s)]
    g = WheelerGraph(n=sum(map(len, strs)) + len(strs), edges=edges)
    return GeneratedInstance(g, f"multi_paths(k={len(strs)},n={g.n},sigma={g.sigma})")


def gen_trie(strings: Sequence[LabelString]) -> GeneratedInstance:
    """Trie of the strings, edges listed by child rank and labelled by the
    child's character. Vertices are the distinct prefixes, root first, and
    duplicates collapse. Each is named by the _colex_ranks rank of the first
    prefix that reaches it; equal prefixes are neighbours there, so the
    names sort as the prefixes do co-lexicographically."""
    if not strings:
        raise ValueError("need at least one string")
    strs = [tuple(s) for s in strings]
    arcs: dict[tuple[int, int], int] = {}  # (parent name, label) -> child name
    for s, names in zip(strs, _colex_ranks(strs)):
        v = 0  # the root: the empty prefix of the first string
        for c, name in zip(s, names[1:]):
            v = arcs.setdefault((v, c), name)
    rank = {v: r for r, v in enumerate(sorted([0, *arcs.values()]))}
    edges = sorted(((rank[u], rank[v], c) for (u, c), v in arcs.items()), key=itemgetter(1))
    g = WheelerGraph(n=len(rank), edges=edges)
    return GeneratedInstance(g, f"trie(k={len(strs)},n={g.n},sigma={g.sigma})")
