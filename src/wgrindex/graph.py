"""Edge-labelled directed multigraphs over an ordered vertex set.

The vertex numbering of a graph here is always the order under test: rank k
means "the vertex in position k of the claimed order". Validation checks the
three ordering axioms against that numbering, decomposition chains the edge
set into paths, and identifier assignment numbers the vertices so that
consecutive interior vertices of a chain carry consecutive identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import accumulate, compress, repeat
from operator import gt, indexOf
from typing import NoReturn

from .errors import WgfParseError

Label = int
Edge = tuple[int, int, int]  # (source rank, destination rank, label)

_DECIMAL = re.compile(r"[0-9]+\Z")


@dataclass(frozen=True)
class Violation:
    """One concrete witness of a broken ordering axiom."""

    axiom: str  # "A0", "A1" or "A2"
    witness: tuple[int, ...]  # vertex ranks for A0, edge indices for A1/A2
    message: str

    def __str__(self) -> str:
        return f"{self.axiom}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an axiom check: the violations found, and the transform
    order (see transform_order) that the check scanned."""

    violations: tuple[Violation, ...]
    order: list[int] = field(repr=False, compare=False)

    @property
    def is_wheeler(self) -> bool:
        return not self.violations


@dataclass
class WheelerGraph:
    """Directed multigraph with integer edge labels and a fixed vertex order.

    n: number of vertices, named by rank 0..n-1.
    edges: (src, dst, label) triples; parallel edges are allowed.
    sigma: alphabet size; labels live in [0, sigma). Derived as
        1 + max(label) when not given (0 for an edgeless graph).

    Instances are treated as immutable after construction and are safe for
    concurrent readers.
    """

    n: int
    edges: list[Edge]
    sigma: int | None = None
    in_degrees: list[int] = field(init=False, repr=False, compare=False)
    out_degrees: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if self.sigma is None:
            self.sigma = 1 + max((lab for _, _, lab in self.edges), default=-1)
        ins = [0] * self.n
        outs = [0] * self.n
        for u, v, lab in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}, {lab}) has a rank outside [0, {self.n})")
            if not (0 <= lab < self.sigma):
                raise ValueError(f"edge ({u}, {v}, {lab}) has a label outside [0, {self.sigma})")
            outs[u] += 1
            ins[v] += 1
        self.in_degrees = ins
        self.out_degrees = outs

    @property
    def m(self) -> int:
        return len(self.edges)


def _decimal(token: str, lineno: int) -> int:
    if not _DECIMAL.match(token):
        raise WgfParseError(f"line {lineno}: {token!r} is not a non-negative decimal integer")
    return int(token)


def _record(tokens: list[str], lineno: int, tag: str, count: int) -> list[int]:
    if len(tokens) != count + 1 or tokens[0] != tag or "" in tokens:
        raise WgfParseError(
            f"line {lineno}: expected {tag!r} record with {count} integer field(s)"
        )
    return [_decimal(t, lineno) for t in tokens[1:]]


def _columns(rows: list[str], tags: list[str], count: int) -> list[list[int]] | None:
    """The integer fields of rows that read tags[i] and then count ASCII
    decimals, separated by single spaces; one list per field, or None when
    a row does not. One split of the joined rows, C-level scans, map(int)."""
    if not rows:
        return [[] for _ in range(count)]
    tokens = " ".join(rows).split(" ")
    fields = [tokens[k :: count + 1] for k in range(1, count + 1)]
    if (
        set(map(str.count, rows, repeat(" "))) != {count}  # count + 1 tokens per row
        or tokens[0 :: count + 1] != tags
        or not all(s.isdigit() and s.isascii() for s in map("".join, fields))
    ):
        return None
    try:
        return [list(map(int, f)) for f in fields]
    except ValueError:  # an empty field, or a number too long to convert
        return None


def _raise_first_error(text: str) -> NoReturn:
    """Scan the lines in order and raise the WgfParseError of the first bad
    one; parse_graph calls this only after its bulk checks have failed."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split(" ")))

    if not rows:
        raise WgfParseError("line 1: missing 'n' header")
    (n,) = _record(rows[0][1], rows[0][0], "n", 1)
    if len(rows) < 2:
        raise WgfParseError(f"line {rows[0][0]}: missing 'm' header after 'n'")
    (m,) = _record(rows[1][1], rows[1][0], "m", 1)

    edge_rows = rows[2:]
    if len(edge_rows) > m:
        extra_line = edge_rows[m][0]
        raise WgfParseError(f"line {extra_line}: more than the declared m={m} edge lines")
    if len(edge_rows) < m:
        raise WgfParseError(f"unexpected end of input: declared m={m} but found {len(edge_rows)} edge lines")

    for lineno, tokens in edge_rows:
        u, v, _ = _record(tokens, lineno, "e", 3)
        if u >= n:
            raise WgfParseError(f"line {lineno}: source rank {u} out of range (n={n})")
        if v >= n:
            raise WgfParseError(f"line {lineno}: destination rank {v} out of range (n={n})")
    raise AssertionError("the bulk checks rejected WGF text that the line scan accepts")


def parse_graph(text: str) -> WheelerGraph:
    """Parse WGF text into a graph.

    Format: a header line ``n <N>``, a header line ``m <M>``, then exactly M
    edge lines ``e <src> <dst> <label>``. Fields are ASCII decimal separated
    by single spaces; lines starting with ``#`` and blank lines are ignored.
    The alphabet size is 1 + the largest label (0 when M = 0).

    Raises WgfParseError with the offending line number on malformed input
    or on a rank outside [0, N). Valid text is read in one bulk pass; a
    line-by-line scan runs only when that pass finds a fault, to name it.
    """
    rows = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    head = _columns(rows[:2], ["n", "m"], 1) if len(rows) >= 2 else None
    if head:
        ((n, m),) = head
        body = _columns(rows[2:], ["e"] * m, 3) if len(rows) - 2 == m else None
        if body and max(body[0], default=-1) < n and max(body[1], default=-1) < n:
            return WheelerGraph(n=n, edges=list(zip(*body)))
    _raise_first_error(text)


def to_wgf(g: WheelerGraph) -> str:
    """Render a graph in the WGF text format (inverse of parse_graph)."""
    lines = [f"n {g.n}", f"m {g.m}"]
    lines.extend(f"e {u} {v} {lab}" for u, v, lab in g.edges)
    return "\n".join(lines) + "\n"


def transform_order(g: WheelerGraph) -> list[int]:
    """Edge indices in transform order: by source rank, then destination
    rank, then input index.

    A stable counting sort: edge i goes to the next free position of its
    source's slice, which starts at the out-degree prefix of the source;
    only the sources with out-degree above 1 then sort their slice by
    destination, and that sort is stable too."""
    edges, outs = g.edges, g.out_degrees
    order = [0] * g.m
    slot = [0, *accumulate(outs)]
    for i, (u, _, _) in enumerate(edges):
        order[slot[u]] = i
        slot[u] += 1
    for u in compress(range(g.n), map(gt, outs, repeat(1))):
        lo, hi = slot[u] - outs[u], slot[u]  # u's slice, now that it is filled
        order[lo:hi] = sorted(order[lo:hi], key=lambda i: edges[i][1])
    return order


def validate_wheeler(g: WheelerGraph) -> ValidationReport:
    """Check the three ordering axioms under the input numbering.

    A0: every vertex with in-degree 0 ranks before every vertex with
        positive in-degree.
    A1: for edges (u, v) labelled a and (u', v') labelled a',
        a < a' implies v < v'.
    A2: equal labels with u < u' imply v <= v'.

    Runs in O(m log m); violations carry one concrete witness per axiom
    occurrence found, not an exhaustive enumeration.
    """
    violations: list[Violation] = []

    # A0 fails when the last rank of in-degree 0 comes after the first of
    # positive in-degree; two C-level scans of the in-degrees find both.
    ins = g.in_degrees
    early = next(compress(range(g.n), ins), g.n)
    late = g.n - 1 - indexOf(reversed(ins), 0) if 0 in ins else -1
    if late > early:
        violations.append(
            Violation(
                "A0",
                (late, early),
                f"vertex {late} has in-degree 0 but ranks after vertex {early} "
                f"which has positive in-degree",
            )
        )

    # One scan in transform order, keeping (destination, edge index) keys per
    # label: the smallest and the largest for A1; for A2 the first edge to
    # reach the largest destination so far, and the first violation found.
    # A2 asks that, within one label and in increasing source order, every
    # destination be >= the largest destination of strictly smaller sources.
    edges = g.edges
    lo: list[tuple[int, int] | None] = [None] * g.sigma
    hi: list[tuple[int, int] | None] = [None] * g.sigma
    top: list[tuple[int, int] | None] = [None] * g.sigma
    a2: list[Violation | None] = [None] * g.sigma
    order = transform_order(g)
    for idx in order:
        _, v, lab = edges[idx]
        key = (v, idx)
        if lo[lab] is None:
            lo[lab] = hi[lab] = top[lab] = key
            continue
        if key < lo[lab]:
            lo[lab] = key
        elif key > hi[lab]:
            hi[lab] = key
        # Earlier edges of the same source have destinations <= v, so a
        # larger destination so far always comes from a smaller source.
        top_dst, top_edge = top[lab]
        if v < top_dst:
            if a2[lab] is None:
                a2[lab] = Violation(
                    "A2",
                    (top_edge, idx),
                    f"edges {top_edge} {edges[top_edge]} and {idx} {edges[idx]} share "
                    f"label {lab} with increasing sources but decreasing destinations",
                )
        elif v > top_dst:
            top[lab] = key

    # A1: destinations of lower labels must lie strictly below destinations
    # of higher labels, so one running maximum over ascending labels suffices.
    best_dst = -1
    best_edge = -1
    for lab in range(g.sigma):
        if lo[lab] is None:
            continue
        lo_dst, lo_edge = lo[lab]
        if best_edge >= 0 and best_dst >= lo_dst:
            violations.append(
                Violation(
                    "A1",
                    (best_edge, lo_edge),
                    f"edge {best_edge} {edges[best_edge]} has a smaller label than "
                    f"edge {lo_edge} {edges[lo_edge]} but does not lead to a smaller vertex",
                )
            )
        if hi[lab][0] > best_dst:
            best_dst, best_edge = hi[lab]

    violations.extend(viol for viol in a2 if viol is not None)  # A2, by ascending label
    return ValidationReport(tuple(violations), order)


@dataclass
class PathDecomposition:
    """Partition of the edge set into chained paths.

    paths holds vertex-rank sequences (length >= 1); edge_paths holds, in
    parallel, the edge indices along each path. A vertex sequence of length
    one is an isolated vertex. A path that starts and ends at the same
    vertex is a broken cycle; that vertex counts as an endpoint.
    """

    paths: list[list[int]]
    edge_paths: list[list[int]]
    endpoints: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ends = set()
        for seq in self.paths:
            ends.add(seq[0])
            ends.add(seq[-1])
        self.endpoints = frozenset(ends)

    @property
    def num_paths(self) -> int:
        return len(self.paths)


def decompose_paths(g: WheelerGraph) -> PathDecomposition:
    """Split the edge set into maximal chains.

    Edges e = (u, v) and f = (v, w) belong to the same chain exactly when v
    has in-degree 1 and out-degree 1. A chain that closes into a cycle is
    broken at its minimum-rank vertex; a vertex with no edges becomes a
    single-vertex path. Paths are emitted ordered by (start rank, first
    destination rank, first edge index), which for paths leaving the same
    vertex is the transform order of their first edges, so the output is
    fully deterministic.
    """
    n, m = g.n, g.m
    only_out = [-1] * n
    for i, (u, _, _) in enumerate(g.edges):
        if g.out_degrees[u] == 1:
            only_out[u] = i
    chainable = [g.in_degrees[v] == 1 and g.out_degrees[v] == 1 for v in range(n)]

    def next_edge(i: int) -> int:
        v = g.edges[i][1]
        return only_out[v] if chainable[v] else -1

    visited = [False] * m
    raw: list[tuple[list[int], list[int]]] = []

    # Chains with a definite head: the source vertex cannot be chained into.
    for e in range(m):
        if visited[e] or chainable[g.edges[e][0]]:
            continue
        vseq = [g.edges[e][0]]
        eseq: list[int] = []
        cur = e
        while cur != -1:
            assert not visited[cur]
            visited[cur] = True
            eseq.append(cur)
            vseq.append(g.edges[cur][1])
            cur = next_edge(cur)
        raw.append((vseq, eseq))

    # Everything left lies on pure cycles; break each at its min-rank vertex.
    for e in range(m):
        if visited[e]:
            continue
        cyc = [e]
        cur = next_edge(e)
        while cur != e:
            assert cur != -1 and not visited[cur]
            cyc.append(cur)
            cur = next_edge(cur)
        for i in cyc:
            visited[i] = True
        srcs = [g.edges[i][0] for i in cyc]
        k = srcs.index(min(srcs))
        cyc = cyc[k:] + cyc[:k]
        vseq = [g.edges[cyc[0]][0]] + [g.edges[i][1] for i in cyc]
        raw.append((vseq, cyc))

    for v in range(n):
        if g.in_degrees[v] == 0 and g.out_degrees[v] == 0:
            raw.append(([v], []))

    raw.sort(key=lambda t: (t[0][0], t[0][1], t[1][0]) if t[1] else (t[0][0], -1, -1))
    return PathDecomposition([vs for vs, _ in raw], [es for _, es in raw])


@dataclass
class IdAssignment:
    """Bijection between vertex ranks and numeric identifiers."""

    id_of_rank: list[int]
    rank_of_id: list[int]


def assign_identifiers(g: WheelerGraph, d: PathDecomposition) -> IdAssignment:
    """Number the vertices so interior chain neighbours differ by one.

    Paths are taken in decomposition order; the interior vertices of each
    path receive the next consecutive identifiers in path order. Remaining
    vertices (path endpoints and isolated vertices) then receive the rest in
    increasing rank order. For every edge (u, v) with both ends interior,
    id(v) = id(u) + 1.
    """
    ids: list[int | None] = [None] * g.n
    next_id = 0
    for seq in d.paths:
        for v in seq[1:-1]:
            assert ids[v] is None
            ids[v] = next_id
            next_id += 1
    for v in range(g.n):
        if ids[v] is None:
            ids[v] = next_id
            next_id += 1
    rank_of_id = [0] * g.n
    for rank, ident in enumerate(ids):
        rank_of_id[ident] = rank
    return IdAssignment(ids, rank_of_id)
