"""Edge-labelled directed multigraphs over an ordered vertex set.

The vertex numbering of a graph here is always the order under test: rank k
means "the vertex in position k of the claimed order". Validation checks the
three ordering axioms against that numbering, one walk along the chains lists
the interior ranks of the paths, and identifier assignment numbers them first,
so that consecutive interior vertices of a chain carry consecutive identifiers.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from bisect import bisect_left
from itertools import accumulate, chain, compress, count, repeat
from operator import eq, gt, indexOf, itemgetter, le, lt, not_, or_, sub
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
    """Outcome of an axiom check: the violations found; the label and
    destination columns in transform order (see transform_order) that the
    check read; and runs, the maximal stretches of one label in it, grouped
    by label: each label that occurs, ascending, maps to its runs' ascending
    starts and their ends (each the next start of any label, or m)."""

    violations: tuple[Violation, ...]
    labels: list[int] = field(repr=False, compare=False)
    dsts: list[int] = field(repr=False, compare=False)
    runs: dict[int, tuple[list[int], list[int]]] = field(repr=False, compare=False)

    @property
    def is_wheeler(self) -> bool:
        return not self.violations


@dataclass
class WheelerGraph:
    """Directed multigraph with integer edge labels and a fixed vertex order.

    n: number of vertices, named by rank 0..n-1; it and every rank and
    label must have type int exactly, else construction raises ValueError.
    edges: (src, dst, label) triples, labels >= 0; parallel edges allowed.
    sigma: alphabet size, 1 + the largest label (0 for an edgeless graph).

    Instances are treated as immutable after construction and are safe for
    concurrent readers.
    """

    n: int
    edges: list[Edge]
    sigma: int = field(init=False)
    in_degrees: list[int] = field(init=False, repr=False, compare=False)
    out_degrees: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int:  # a bool or a float would reach an index file
            raise ValueError(f"vertex count {n!r} is not an int")
        if not 0 <= n <= sys.maxsize:  # past sys.maxsize, no list holds the degrees
            raise ValueError(f"vertex count {n} is outside [0, {sys.maxsize}]")
        ins, outs = [0] * n, [0] * n
        for u, v, lab in self.edges:
            if not type(u) is type(v) is type(lab) is int:
                raise ValueError(f"edge ({u!r}, {v!r}, {lab!r}) holds a value that is not an int")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}, {lab}) has a rank outside [0, {n})")
            if lab < 0:
                raise ValueError(f"edge ({u}, {v}, {lab}) has a negative label")
            outs[u] += 1
            ins[v] += 1
        self.sigma = 1 + max(map(itemgetter(2), self.edges), default=-1)
        self.in_degrees, self.out_degrees = ins, outs

    @property
    def m(self) -> int:
        return len(self.edges)


def _decimal(token: str, lineno: int) -> int:
    if not _DECIMAL.match(token):
        raise WgfParseError(f"line {lineno}: {token!r} is not a non-negative decimal integer")
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        raise WgfParseError(f"line {lineno}: a field of {len(token)} digits is too long") from None


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


def transform_order(g: WheelerGraph) -> tuple[list[int], list[int], list[int]]:
    """The edges in transform order, by source rank, destination rank, then
    input index, as columns: order, the indices in g.edges; labels; dsts.

    A stable counting sort: edge i goes to the next free position of its
    source's slice, from the source's out-degree prefix; only sources of
    out-degree above 1 then sort their slice's rows by (destination, index)."""
    outs, m = g.out_degrees, g.m
    order, labels, dsts = [0] * m, [0] * m, [0] * m
    slot = [0, *accumulate(outs)]
    for i, (u, v, lab) in enumerate(g.edges):
        p = slot[u]
        order[p], labels[p], dsts[p] = i, lab, v
        slot[u] = p + 1
    for u in compress(range(g.n), map(gt, outs, repeat(1))):
        s = slice(slot[u] - outs[u], slot[u])  # u's slice, now that it is filled
        dsts[s], order[s], labels[s] = zip(*sorted(zip(dsts[s], order[s], labels[s])))
    return order, labels, dsts


def validate_wheeler(g: WheelerGraph) -> ValidationReport:
    """Check the three ordering axioms under the input numbering.

    A0: every vertex with in-degree 0 ranks before every vertex with
        positive in-degree.
    A1: for edges (u, v) labelled a and (u', v') labelled a',
        a < a' implies v < v'.
    A2: equal labels with u < u' imply v <= v'.

    Runs in O(m log m), with A1 and A2 checked per label over the runs of
    the transform; violations carry one concrete witness per axiom
    occurrence found, not an exhaustive enumeration, and are looked for
    only once the check has failed.
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

    # Transform order takes one label's edges by ascending source, and one
    # source's by ascending destination, so A2 holds exactly when each
    # label's destinations, read in that order, never fall: neither inside
    # a run, where same[p] holds, nor from the last destination of one of
    # its runs to the first of the next. A1 then holds when each label's
    # first destination is above the previous label's last one.
    order, labels, dsts = transform_order(g)
    same = list(map(eq, labels, labels[1:]))  # same[p]: p and p + 1 share a run
    runs = _group_runs(labels, [0, *compress(range(1, len(labels)), map(not_, same))] if labels else [])
    rising, firsts, lasts = not any(compress(map(gt, dsts, dsts[1:]), same)), [], []
    for starts, ends in runs.values():
        heads, tails = list(map(dsts.__getitem__, starts)), list(map(dsts.__getitem__, map(sub, ends, repeat(1))))
        rising = rising and not any(map(gt, tails, heads[1:]))
        firsts.append(heads[0])
        lasts.append(tails[-1])
    if not rising or any(map(le, firsts[1:], lasts)):
        violations += _witnesses(g.edges, order, dsts, runs)
    return ValidationReport(tuple(violations), labels, dsts, runs)


def _group_runs(labels: list[int], bounds: list[int]) -> dict[int, tuple[list[int], list[int]]]:
    """The runs of labels that start at bounds, grouped as in ValidationReport.runs."""
    run_labels = list(map(labels.__getitem__, bounds))
    runs = {c: ([], []) for c in sorted(set(run_labels))}
    for c, s, e in zip(run_labels, bounds, bounds[1:] + [len(labels)]):
        starts, ends = runs[c]
        starts.append(s)
        ends.append(e)
    return runs


def _witnesses(edges: list[Edge], order: list[int], dsts: list[int], runs: dict) -> list[Violation]:
    """The A1 violations, then the A2 ones, by ascending label, of a graph
    whose transform breaks one of them. Per label, over the (destination,
    edge index) keys of its edges in transform order: for A1 the smallest
    and the largest key, a violation wherever the largest destination of
    the smaller labels is not below the smallest; for A2 the first fall of
    the destinations, between the first edge to reach the largest
    destination before it and the edge at it."""
    a1, a2, best_dst, best_edge = [], [], -1, -1
    for lab, (starts, ends) in runs.items():
        at = list(chain.from_iterable(map(range, starts, ends)))
        seq, idx = list(map(dsts.__getitem__, at)), list(map(order.__getitem__, at))
        (lo_dst, lo_edge), hi = min(zip(seq, idx)), max(zip(seq, idx))
        if best_edge >= 0 and best_dst >= lo_dst:
            a1.append(Violation("A1", (best_edge, lo_edge), f"edge {best_edge} {edges[best_edge]} has a smaller label "
                                f"than edge {lo_edge} {edges[lo_edge]} but does not lead to a smaller vertex"))
        if hi[0] > best_dst:
            best_dst, best_edge = hi
        j = next(compress(count(1), map(lt, seq[1:], seq)), 0)
        if j:
            top, low = idx[bisect_left(seq, seq[j - 1], 0, j)], idx[j]
            a2.append(Violation("A2", (top, low), f"edges {top} {edges[top]} and {low} {edges[low]} share label "
                                f"{lab} with increasing sources but decreasing destinations"))
    return a1 + a2


@dataclass
class PathDecomposition:
    """What the index needs of the partition of the edge set into chains:
    interior, the ranks strictly inside a path, path after path and each in
    walking order; num_paths, an isolated rank counting as a path of its
    own; and break_ranks, the ascending ranks of in- and out-degree 1 at
    which a cycle was broken into a path that starts and ends there."""

    interior: list[int]
    num_paths: int
    break_ranks: list[int]


def decompose_paths(g: WheelerGraph) -> PathDecomposition:
    """Split the edge set into maximal chains with one walk.

    Edges (u, v) and (v, w) share a chain exactly when v has in-degree 1
    and out-degree 1; nxt[v] is then w, and -1 elsewhere. The walk follows
    nxt from the head edges, those leaving a rank with nxt -1, which the
    pass that fills nxt collects, taken in (source, destination) order.
    Ranks with nxt that it misses lie on cycles: a scan in rank order meets
    each cycle first at its least rank, which becomes a break rank with nxt
    -1, its edge a head edge, opening the cycle into a chain; the walk reruns.
    """
    n, ins, outs = g.n, g.in_degrees, g.out_degrees
    nxt = [-1] * n
    heads: list[tuple[int, int]] = []
    for u, v, _ in g.edges:
        if ins[u] == 1 == outs[u]:
            nxt[u] = v
        else:
            heads.append((u, v))
    breaks: list[int] = []
    while True:
        heads.sort()  # edges that tie on (u, v) walk the same chain
        interior: list[int] = []
        for v in map(itemgetter(1), heads):
            while nxt[v] >= 0:
                interior.append(v)
                v = nxt[v]
        if breaks or len(interior) == n - nxt.count(-1):
            break
        seen = set(interior)
        for k in range(n):
            if nxt[k] >= 0 and k not in seen:
                breaks.append(k)
                heads.append((k, nxt[k]))  # the edge leaving the break heads its chain
                while k not in seen:
                    seen.add(k)
                    k = nxt[k]
                nxt[k] = -1  # k is back at the break
    isolated = list(map(or_, ins, outs)).count(0)
    return PathDecomposition(interior, len(heads) + isolated, breaks)


@dataclass
class IdAssignment:
    """Bijection between vertex ranks and numeric identifiers."""

    id_of_rank: list[int]
    rank_of_id: list[int]


def assign_identifiers(g: WheelerGraph, d: PathDecomposition) -> IdAssignment:
    """Number the vertices so interior chain neighbours differ by one.

    The interior ranks receive identifiers 0, 1, ... in decomposition
    order; the other ranks (path endpoints and isolated vertices) then
    receive the rest in increasing rank order. For every edge (u, v) with
    both ends interior, id(v) = id(u) + 1.
    """
    id_of = [-1] * g.n
    for i, k in enumerate(d.interior):
        id_of[k] = i
    rest = list(compress(range(g.n), map(lt, id_of, repeat(0))))
    for i, k in enumerate(rest, len(d.interior)):
        id_of[k] = i
    return IdAssignment(id_of, d.interior + rest)
