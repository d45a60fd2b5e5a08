"""Shared helpers: slow reference implementations that only tests use,
instance corpus construction and the pattern sweep that backs the
acceptance criteria.

The sweep walks the trie of all patterns up to a length cap, maintaining in
parallel the oracle's vertex set and the index's match state. Subtrees
rooted at an already-empty pattern are pruned after checking the empty node
itself: the oracle set refinement of an empty set stays empty, and the
index count of any extension of a no-match pattern stays zero (both
behaviours are unit-tested), so pruned patterns cannot introduce
mismatches.
"""

from __future__ import annotations

import base64
import importlib.util
import json
import random
import re
import sys
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, combinations_with_replacement, pairwise, product, repeat
from pathlib import Path

import pytest

from wgrindex import (
    IndexInvariantError,
    WgfParseError,
    WheelerGraph,
    WheelerRIndex,
    assign_identifiers,
    build_index,
    count,
    decompose_paths,
    gen_multi_paths,
    gen_string_cycle,
    gen_string_path,
    gen_trie,
    locate,
    naive_match,
    serialize_index,
    validate_wheeler,
)
from wgrindex.build import _SECTIONS, RLSequence, build_bwt, build_rank_select
from wgrindex.generators import GeneratedInstance, _rotation_ranks, is_primitive
from wgrindex.graph import IdAssignment, Violation, transform_order
from wgrindex.query import step_toehold

def labels_from_ascii(s: str) -> tuple[int, ...]:
    """Map lowercase ASCII to integer labels: 'a' -> 0, 'b' -> 1, ..."""
    labels = []
    for ch in s:
        k = ord(ch) - ord("a")
        if not 0 <= k < 26:
            raise ValueError(f"character {ch!r} is not a lowercase ASCII letter")
        labels.append(k)
    return tuple(labels)


def random_patterns(g: WheelerGraph, max_len: int, seed: int, count: int = 40) -> list[tuple[int, ...]]:
    """Deterministic pattern mix for a graph: walks and uniform strings.

    Even slots follow random edge walks (guaranteed to match, when the
    graph has edges); odd slots draw uniform label strings, which mostly
    miss. Same seed, same list.
    """
    rng = random.Random(seed)
    out_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, lab in g.edges:
        out_adj[u].append((v, lab))
    patterns: list[tuple[int, ...]] = []
    for t in range(count):
        if t % 2 == 0 and g.m:
            u, v, lab = g.edges[rng.randrange(g.m)]
            pat = [lab]
            cur = v
            target = rng.randint(1, max_len)
            while len(pat) < target and out_adj[cur]:
                cur, lab2 = out_adj[cur][rng.randrange(len(out_adj[cur]))]
                pat.append(lab2)
            patterns.append(tuple(pat))
        elif g.sigma:
            patterns.append(
                tuple(rng.randrange(g.sigma) for _ in range(rng.randint(1, max_len)))
            )
        else:
            patterns.append(())
    return patterns


def naive_phi_table(g: WheelerGraph, ids: IdAssignment) -> list[int | None]:
    """table[id(rank k)] = id(rank k-1); None for the rank-0 vertex."""
    table: list[int | None] = [None] * g.n
    for k in range(1, g.n):
        table[ids.id_of_rank[k]] = ids.id_of_rank[k - 1]
    return table


def naive_runs(labels) -> int:
    """Number of maximal constant stretches in a label sequence."""
    runs = 0
    prev = None
    for lab in labels:
        if prev is None or lab != prev:
            runs += 1
        prev = lab
    return runs


def check_contiguity(g: WheelerGraph, pattern) -> bool:
    """True iff the naive match set is a contiguous rank range (or empty)."""
    hits = naive_match(g, pattern)
    return not hits or max(hits) - min(hits) + 1 == len(hits)


def exhaustive_axiom_check(g: WheelerGraph) -> bool:
    """Quadratic all-pairs check of the ordering axioms.

    Reference for validate_wheeler; intended for graphs with m <= 500.
    """
    for x in range(g.n):
        if g.in_degrees[x] != 0:
            continue
        for y in range(g.n):
            if g.in_degrees[y] > 0 and y < x:
                return False
    for u, v, a in g.edges:
        for u2, v2, a2 in g.edges:
            if a < a2 and not v < v2:
                return False
            if a == a2 and u < u2 and not v <= v2:
                return False
    return True


def reference_validation(g: WheelerGraph) -> tuple[tuple[Violation, ...], list[int]]:
    """The violations and the transform order of validate_wheeler as it was
    when it read each edge through the order from g.edges: the witnesses
    and messages that the column scan must reproduce exactly."""
    violations: list[Violation] = []
    ins = g.in_degrees
    early = next((k for k in range(g.n) if ins[k]), g.n)
    late = max((k for k in range(g.n) if not ins[k]), default=-1)
    if late > early:
        violations.append(
            Violation(
                "A0",
                (late, early),
                f"vertex {late} has in-degree 0 but ranks after vertex {early} "
                f"which has positive in-degree",
            )
        )
    edges = g.edges
    order = sorted(range(g.m), key=lambda i: edges[i][:2])  # stable: ties keep input order
    per_label: dict[int, list] = {}
    for idx in order:
        _, v, lab = edges[idx]
        key = (v, idx)
        state = per_label.get(lab)
        if state is None:
            per_label[lab] = [key, key, key, None]
            continue
        if key < state[0]:
            state[0] = key
        elif key > state[1]:
            state[1] = key
        top_dst, top_edge = state[2]
        if v < top_dst:
            if state[3] is None:
                state[3] = Violation(
                    "A2",
                    (top_edge, idx),
                    f"edges {top_edge} {edges[top_edge]} and {idx} {edges[idx]} share "
                    f"label {lab} with increasing sources but decreasing destinations",
                )
        elif v > top_dst:
            state[2] = key
    best_dst = best_edge = -1
    states = [per_label[lab] for lab in sorted(per_label)]
    for (lo_dst, lo_edge), hi, _, _ in states:
        if best_edge >= 0 and best_dst >= lo_dst:
            violations.append(
                Violation(
                    "A1",
                    (best_edge, lo_edge),
                    f"edge {best_edge} {edges[best_edge]} has a smaller label than "
                    f"edge {lo_edge} {edges[lo_edge]} but does not lead to a smaller vertex",
                )
            )
        if hi[0] > best_dst:
            best_dst, best_edge = hi
    violations.extend(state[3] for state in states if state[3] is not None)
    return tuple(violations), order


_DECIMAL = re.compile(r"[0-9]+\Z")


def _ref_decimal(token: str, lineno: int) -> int:
    if not _DECIMAL.match(token):
        raise WgfParseError(f"line {lineno}: {token!r} is not a non-negative decimal integer")
    return int(token)


def _ref_record(tokens: list[str], lineno: int, tag: str, count: int) -> list[int]:
    if len(tokens) != count + 1 or tokens[0] != tag or "" in tokens:
        raise WgfParseError(
            f"line {lineno}: expected {tag!r} record with {count} integer field(s)"
        )
    return [_ref_decimal(t, lineno) for t in tokens[1:]]


def reference_parse_graph(text: str) -> WheelerGraph:
    """The line-by-line WGF parser that parse_graph's bulk pass replaced,
    kept as the reference for every accepted graph and error message."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((lineno, stripped.split(" ")))

    if not rows:
        raise WgfParseError("line 1: missing 'n' header")
    (n,) = _ref_record(rows[0][1], rows[0][0], "n", 1)
    if len(rows) < 2:
        raise WgfParseError(f"line {rows[0][0]}: missing 'm' header after 'n'")
    (m,) = _ref_record(rows[1][1], rows[1][0], "m", 1)

    edge_rows = rows[2:]
    if len(edge_rows) > m:
        extra_line = edge_rows[m][0]
        raise WgfParseError(f"line {extra_line}: more than the declared m={m} edge lines")
    if len(edge_rows) < m:
        raise WgfParseError(f"unexpected end of input: declared m={m} but found {len(edge_rows)} edge lines")

    edges: list[tuple[int, int, int]] = []
    for lineno, tokens in edge_rows:
        u, v, lab = _ref_record(tokens, lineno, "e", 3)
        if u >= n:
            raise WgfParseError(f"line {lineno}: source rank {u} out of range (n={n})")
        if v >= n:
            raise WgfParseError(f"line {lineno}: destination rank {v} out of range (n={n})")
        edges.append((u, v, lab))
    return WheelerGraph(n=n, edges=edges)


G1_TEXT = "n 4\nm 3\ne 0 1 0\ne 1 3 1\ne 3 2 0\n"

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def bench_run():
    """perfbench/run.py as a module, loaded without running its main: the
    guard tests take the names the traced benchmark wraps from it."""
    sys.path.insert(0, str(BENCH_DIR))  # run.py imports its sibling modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH_DIR))
    return run


def dense_f_label(rl: RLSequence, sigma: int, m: int) -> list[int]:
    """The f_label of versions 4 and 5: for c in [0, sigma], the labels
    below c, C[d] of the least label d >= c that occurs, else m.
    One slice per label that occurs, after one allocation."""
    f_label, lo = [0] + [0] * sigma, 0
    for c, runs in rl.runs_of.items():
        f_label[lo : c + 1] = repeat(runs[1][0], c + 1 - lo)
        lo = c + 1
    f_label[lo:] = repeat(m, len(f_label) - lo)
    return f_label


def gaps(values) -> list[int]:
    """The first value, then the difference of each value from the one before."""
    return [b - a for a, b in pairwise([0, *values])]


def reseal(doc: dict) -> bytes:
    """doc as index-file bytes whose last member, crc32, holds zlib.crc32
    of the rest: an edited document passes the checksum, so the load
    reaches its structural checks."""
    body = json.dumps({k: v for k, v in doc.items() if k != "crc32"}, separators=(",", ":")).encode("ascii")
    return body[:-1] + b',"crc32":%d}' % zlib.crc32(body)


WORD_BYTES = {"b": 1, "h": 2, "i": 4, "q": 8}


def narrowest_code(values) -> str:
    """The narrowest of the typecodes b, h, i and q whose signed words hold every value."""
    return next(c for c, w in WORD_BYTES.items() if all(-(1 << 8 * w - 1) <= v < 1 << 8 * w - 1 for v in values))


def pack_section(values, code: str | None = None) -> str:
    """The reference section writer: a typecode, by default
    narrowest_code(values), then the base64 of the values as little-endian
    words of its width."""
    code = code or narrowest_code(values)
    raw = b"".join(v.to_bytes(WORD_BYTES[code], "little", signed=True) for v in values)
    return code + base64.b64encode(raw).decode("ascii")


def unpack_section(section: str) -> list[int]:
    """The ints of a section, read word by word with int.from_bytes."""
    w, raw = WORD_BYTES[section[0]], base64.b64decode(section[1:], validate=True)
    return [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, len(raw), w)]


def lists_of(data: bytes) -> dict:
    """An index file as a document whose sections are int lists again:
    run_starts a list of them, one per label."""
    doc = json.loads(data)
    doc.update((name, unpack_section(doc[name])) for name in _SECTIONS if name != "run_starts")
    doc["run_starts"] = [unpack_section(section) for section in doc["run_starts"]]
    return doc


def is_ints(value) -> bool:
    """Whether value is a list of ints only, which packed writes as a section."""
    return type(value) is list and {type(x) for x in value} <= {int}


def packed(doc: dict, code: str | None = None) -> dict:
    """doc with each section that is a list of ints packed (pack_section,
    in code if given), and run_starts, if a list of such lists, packed
    list by list; crc32 kept. Any other value stays as it is, and a missing
    section stays missing, so a test can write what no writer would."""
    ints = {k: pack_section(v, code) for k, v in doc.items() if k in _SECTIONS and k != "run_starts" and is_ints(v)}
    sections = doc.get("run_starts")
    if type(sections) is list and all(map(is_ints, sections)):
        ints["run_starts"] = [pack_section(v, code) for v in sections]
    return {**doc, **ints}


# Edits of the g1 version-7 file (run_labels "bAAE=", the bytes 0 and 1;
# pred_ids [2, 3, -1, 0]) that a load must reject: (member, value, message
# fragment).
SECTION_CORRUPTIONS = {
    "typecode-d": ("run_labels", "dAAEA", "run_labels is not a section of b, h, i or q words"),
    "typecode-f": ("run_labels", "fAAEA", "run_labels is not a section of b, h, i or q words"),
    "typecode-u": ("run_labels", "uAAEA", "run_labels is not a section of b, h, i or q words"),
    "typecode-Q": ("run_labels", "QAAEA", "run_labels is not a section of b, h, i or q words"),
    "no-typecode": ("run_labels", "", "run_labels is not a section of b, h, i or q words"),
    "not-base64": ("run_labels", "bAA!A", "run_labels is not the base64 of whole b words"),
    "urlsafe-base64": ("run_labels", "b-_8A", "run_labels is not the base64 of whole b words"),
    "space": ("run_labels", "bAA EA", "run_labels is not the base64 of whole b words"),
    "not-ascii": ("run_labels", "bAA\u00e9", "run_labels is not the base64 of whole b words"),
    "bad-padding": ("run_labels", "bAAE", "run_labels is not the base64 of whole b words"),
    "half-a-word": ("run_labels", "hAAEA", "run_labels is not the base64 of whole h words"),
    "six-of-eight": ("anchor_ids", "qAAAAAAAA", "anchor_ids is not the base64 of whole q words"),
    "list": ("run_labels", [0, 1, 0], "run_labels is not a section"),
    "int": ("break_ranks", 0, "break_ranks is not a section"),
    "null": ("pred_ids", None, "pred_ids is not a section"),
    "no-first": ("pred_ids", pack_section([2, 3, 1, 0]), "pred_ids holds 0 first-vertex entries"),
    "two-firsts": ("pred_ids", pack_section([2, -1, -1, 0]), "pred_ids holds 2 first-vertex entries"),
    "minus-2": ("pred_ids", pack_section([2, 3, -1, -2]), "pred_ids holds identifier -2, outside \\[0, n\\)"),
    # run_starts, [[0, 2], [1]] in g1, is a list of sections, one per label
    "one-section": ("run_starts", "bAAIB", "run_starts is not a list of sections, one per label"),
    "label-section": ("run_starts", ["bAAI=", "bA!=="], "run_starts\\[1\\] is not the base64 of whole b words"),
    "label-list": ("run_starts", [[0, 2], [1]], "run_starts\\[0\\] is not a section of b, h, i or q words"),
}


def wide_and_narrow(cases, ids) -> list:
    """pytest params: each case with the typecode "q" appended, under its
    own id, then with None, under "v5-" and that id: a file_of whose
    sections are all 8-byte words, which a load reads as well, then one of
    the narrowest words, as a save writes. (The "v5-" prefix dates from
    when the first of the two ran on a version-4 file.)"""
    return [pytest.param(*case, code, id=f"v5-{i}" if code is None else i)
            for code in ("q", None) for case, i in zip(cases, ids)]


def doc_of(ix: WheelerRIndex) -> dict:
    """The document of ix's file, its sections decoded to int lists."""
    return lists_of(serialize_index(ix))


def file_of(doc: dict, code: str | None = None) -> bytes:
    """An edited doc_of document as file bytes: its int lists packed, in
    code if given, and resealed."""
    return reseal(packed(doc, code))


@dataclass
class Instance:
    provenance: str
    family: str
    graph: WheelerGraph
    index: WheelerRIndex
    ids: IdAssignment
    decomp: ReferenceDecomposition
    bwt_labels: list[int]


def make_instance(family: str, gi: GeneratedInstance) -> Instance:
    g = gi.graph
    ids = assign_identifiers(g, decompose_paths(g))
    ref = reference_decomposition(g)
    return Instance(gi.provenance, family, g, build_index(g), ids, ref, transform_labels(g))


@dataclass
class ReferenceDecomposition:
    """Partition of the edge set into chained paths, listed explicitly.

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


def reference_decomposition(g: WheelerGraph) -> ReferenceDecomposition:
    """Split the edge set into maximal chains, path by path.

    Edges e = (u, v) and f = (v, w) belong to the same chain exactly when v
    has in-degree 1 and out-degree 1. A chain that closes into a cycle is
    broken at its minimum-rank vertex; a vertex with no edges becomes a
    single-vertex path. Paths are emitted ordered by (start rank, first
    destination rank, first edge index), which for paths leaving the same
    vertex is the transform order of their first edges. The one-walk
    decompose_paths must agree with it.
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
    return ReferenceDecomposition([vs for vs, _ in raw], [es for _, es in raw])


def reference_identifiers(g: WheelerGraph, d: ReferenceDecomposition) -> IdAssignment:
    """Identifiers from explicit paths: the interior vertices of each path,
    in path order, then every other vertex in increasing rank order."""
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


def assert_walk_matches_reference(g: WheelerGraph) -> None:
    """decompose_paths and assign_identifiers agree with the reference:
    the interior vertices of the reference paths in path order, the path
    count, the broken cycles' endpoints (the endpoints of in- and
    out-degree 1) and the identifiers."""
    d, ref = decompose_paths(g), reference_decomposition(g)
    assert d.interior == [v for seq in ref.paths for v in seq[1:-1]]
    assert d.num_paths == ref.num_paths
    ones = [k for k in sorted(ref.endpoints) if g.in_degrees[k] == g.out_degrees[k] == 1]
    assert d.break_ranks == ones
    assert assign_identifiers(g, d) == reference_identifiers(g, ref)


def transform_labels(g: WheelerGraph) -> list[int]:
    """The edge labels in transform order, read through its index column."""
    return [g.edges[i][2] for i in transform_order(g)[0]]


def naive_run_groups(labels) -> dict[int, tuple[list[int], list[int]]]:
    """The runs of a label sequence, found one position at a time: each
    label, ascending, with its runs' ascending starts and ends."""
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for p, lab in enumerate(labels):
        if p == 0 or labels[p - 1] != lab:
            starts, ends = groups.setdefault(lab, ([], []))
            starts.append(p)
            ends.append(p + 1)
        else:
            groups[lab][1][-1] = p + 1
    return dict(sorted(groups.items()))


def rl_from_labels(labels, id_at=None) -> RLSequence:
    """Rank/select directories straight from a label sequence, each run
    ending at p with the run-end identifier id_at[p], by default p."""
    positions = range(len(labels))  # each position its own destination
    return build_rank_select(naive_run_groups(labels), positions, positions if id_at is None else id_at)


def rl_of(g: WheelerGraph) -> RLSequence:
    """The rank/select directories that build_index makes for g."""
    _, dsts, runs = build_bwt(g)
    return build_rank_select(runs, dsts, assign_identifiers(g, decompose_paths(g)).id_of_rank)


def run_order(rl: RLSequence) -> tuple[list[int], list[int], list[int]]:
    """Each run's start, label and run-end identifier, in run order: merged
    from the label directories, which keep nothing in run order."""
    runs = sorted((s, c, i) for c, (starts, *_, ids) in rl.runs_of.items() for s, i in zip(starts, ids))
    return tuple(list(col) for col in zip(*runs)) if runs else ([], [], [])


def run_starts_of(rl: RLSequence) -> list[int]:
    """The run starts in run order, merged from the label directories."""
    return run_order(rl)[0]


def label_major(starts, labels, ids) -> tuple[list[list[int]], list[int], list[int]]:
    """Runs given in run order as a version-7 file writes them: each
    label's start gaps, the labels ascending, and the run ends'
    identifiers label by label. Runs of one label keep their order."""
    by_label = {}
    for s, c, i in zip(starts, labels, ids):
        by_label.setdefault(c, []).append((s, i))
    order = sorted(by_label)
    return ([gaps([s for s, _ in by_label[c]]) for c in order], order,
            [i for c in order for _, i in by_label[c]])


def marked_ids(rl: RLSequence, toehold) -> dict[int, int]:
    """Every marked position's identifier, by ascending position: each run
    end's, read off its label's directory, and each extra's."""
    ends = {}
    for starts, cums, _, _, end_ids in rl.runs_of.values():
        for t, s in enumerate(starts):
            ends[s + cums[t + 1] - cums[t] - 1] = end_ids[t]
    assert ends.keys().isdisjoint(toehold.pairs)
    return dict(sorted({**ends, **toehold.pairs}.items()))


def dense_refine(labels, id_at, out_degrees, in_degrees, f_label, s, e, c):
    """What one refine step computes, from dense prefix sums and a scan of
    the label sequence: the ranks of the first and last vertex reached by
    a c-labelled out-edge of ranks [s, e], the position p of the last such
    edge, and id_at[p] if p ends its run, else None; None when there is no
    such edge."""
    out_prefix = [0] + list(accumulate(out_degrees))
    in_prefix = [0] + list(accumulate(in_degrees))
    lo, hi = out_prefix[s], out_prefix[e + 1]
    hits = [p for p in range(lo, hi) if labels[p] == c]
    if not hits:
        return None
    first = f_label[c] + labels[:lo].count(c)
    last = first + len(hits) - 1
    p = hits[-1]
    end = id_at[p] if p + 1 == len(labels) or labels[p + 1] != c else None
    return bisect_right(in_prefix, first) - 1, bisect_right(in_prefix, last) - 1, p, end


def small_graphs(max_m: int):
    """Every graph with n <= 4, labels in {0, 1} and m <= max_m, one per
    edge multiset, most of them not Wheeler."""
    for n in range(5):
        edges = list(product(range(n), range(n), range(2)))
        for m in range(max_m + 1):
            for chosen in combinations_with_replacement(edges, m):
                yield WheelerGraph(n=n, edges=list(chosen))


@cache
def small_wheeler_graphs(max_m: int) -> tuple[WheelerGraph, ...]:
    """The Wheeler graphs among small_graphs(max_m): the small-scope corpus."""
    return tuple(g for g in small_graphs(max_m) if validate_wheeler(g).is_wheeler)


def sampled_wheeler_graphs(count: int, seed: int, keep) -> list[WheelerGraph]:
    """Wheeler graphs g with keep(g), rejection-sampled from random graphs
    with 3 <= n <= 8, m <= 14 and up to 3 labels."""
    rng = random.Random(seed)
    out: list[WheelerGraph] = []
    while len(out) < count:
        n = rng.randint(3, 8)
        sigma = rng.randint(1, 3)
        m = rng.randint(n - 1, 14)
        edges = [(rng.randrange(n), rng.randrange(n), rng.randrange(sigma)) for _ in range(m)]
        g = WheelerGraph(n=n, edges=edges)
        if keep(g) and validate_wheeler(g).is_wheeler:
            out.append(g)
    return out


def shared_in_edge_graphs(count: int, seed: int) -> list[WheelerGraph]:
    """Wheeler graphs with some in-degree above 1 (about 0.7 % of the
    samples qualify). No generator makes them, and only there does a refine
    step have to clamp an in-slot to the rank of an in-degree exception."""
    return sampled_wheeler_graphs(count, seed, lambda g: max(g.in_degrees) > 1)


def broken_cycle_graphs(count: int, seed: int) -> list[WheelerGraph]:
    """Wheeler graphs in which decompose_paths breaks a cycle of ranks with
    in- and out-degree 1, often beside other paths or other cycles; the
    only generator of cycles, gen_string_cycle, makes one cycle alone."""

    return sampled_wheeler_graphs(count, seed, lambda g: bool(decompose_paths(g).break_ranks))


def gen_confluent(arg: tuple[int, int, int]) -> GeneratedInstance:
    """A Wheeler graph whose vertices may have in-degree above 1, built to
    meet the axioms rather than sampled: arg is (seed, n, sigma), with
    n >= sigma + 1. Ranks below a random z >= 1 have in-degree 0 (A0); the
    rest split into sigma contiguous blocks, one per in-label in label
    order (A1); and each label zips its sorted random sources with a
    nondecreasing surjection onto its block, so every block vertex is
    entered and a larger source never enters a smaller rank (A2)."""
    seed, n, sigma = arg
    rng = random.Random(seed)
    z = rng.randint(1, max(1, (n - sigma) // 3))
    edges = []
    for lab, (lo, hi) in enumerate(pairwise([z, *sorted(rng.sample(range(z + 1, n), sigma - 1)), n])):
        k = rng.randint(hi - lo, 2 * (hi - lo))  # this label's edges
        steps = set(rng.sample(range(1, k), hi - lo - 1))  # edge indices that enter the next rank
        v = lo
        for j, u in enumerate(sorted(rng.randrange(n) for _ in range(k))):
            v += j in steps
            edges.append((u, v, lab))
    return GeneratedInstance(WheelerGraph(n=n, edges=edges), f"confluent(seed={seed},n={n},sigma={sigma})")


def random_label_string(rng: random.Random, sigma: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randrange(sigma) for _ in range(rng.randint(lo, hi)))


def suffix_array(seq) -> list[int]:
    """Start positions of all non-empty suffixes in lexicographic order:
    closed by a sentinel below every label, seq's rotations sort as its
    suffixes do."""
    rank = _rotation_ranks([*seq, min(seq, default=0) - 1])
    return sorted(range(len(seq)), key=rank.__getitem__)


# The generators as they were before one suffix array ranked every family:
# each sorts materialised reversed prefixes or rotations, O(sum |s|^2)
# memory (O(n^2) for a cycle), so they suit small inputs only.

def reference_string_path(s) -> GeneratedInstance:
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


def reference_is_primitive(s) -> bool:
    """Non-empty and unequal to each of its proper rotations."""
    s = tuple(s)
    n = len(s)
    if n == 0:
        return False
    doubled = s + s
    return all(doubled[i : i + n] != s for i in range(1, n))


def reference_string_cycle(s) -> GeneratedInstance:
    s = tuple(s)
    n = len(s)
    if not reference_is_primitive(s):
        raise ValueError(f"cycle label string must be primitive, got {s!r}")
    keys = [tuple(s[(i - 1 - t) % n] for t in range(n)) for i in range(n)]
    order = sorted(range(n), key=keys.__getitem__)
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r
    edges = [(rank[i], rank[(i + 1) % n], s[i]) for i in range(n)]
    g = WheelerGraph(n=n, edges=edges)
    return GeneratedInstance(g, f"string_cycle(len={n},sigma={g.sigma})")


def reference_multi_paths(strings) -> GeneratedInstance:
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


def reference_trie(strings) -> GeneratedInstance:
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


# family -> (generator, its reference); string and cycle take one string,
# multi and trie a list of them. Confluent graphs take (seed, n, sigma) and
# have no reference: no earlier generator made them.
FAMILIES = {
    "string": (gen_string_path, reference_string_path),
    "cycle": (gen_string_cycle, reference_string_cycle),
    "multi": (gen_multi_paths, reference_multi_paths),
    "trie": (gen_trie, reference_trie),
    "confluent": (gen_confluent, None),
}


def corpus_inputs(seed: int = 20260810) -> list[tuple[str, object]]:
    """The (family, generator argument) pairs of build_corpus, in order."""
    rng = random.Random(seed)
    out: list[tuple[str, object]] = [
        # Hand-picked edge cases.
        ("string", ()),
        ("string", (0,)),
        ("string", (0, 0, 0, 0)),
        ("string", labels_from_ascii("aba")),
        ("cycle", (0,)),
        ("cycle", (0, 1)),
        ("multi", [(), (0,)]),
        ("multi", [(0, 1), (0, 1)]),
        ("multi", [(0, 1, 0, 0), (1, 1, 0, 0)]),  # unmarked +1 step
        ("multi", [()]),
        ("trie", [()]),
        ("trie", [(0, 1), (0, 2)]),
    ]
    for _ in range(60):
        out.append(("string", random_label_string(rng, 1, 0, 60)))
    for _ in range(400):
        out.append(("string", random_label_string(rng, 2, 1, 40)))
    for _ in range(30):
        out.append(("string", random_label_string(rng, 2, 150, 199)))
    for _ in range(120):
        out.append(("string", random_label_string(rng, 3, 1, 25)))
    for _ in range(40):
        out.append(("string", random_label_string(rng, 4, 1, 15)))
    for _ in range(100):
        sigma = rng.randint(1, 3)
        if sigma == 1:
            s: tuple[int, ...] = (0,)
        else:
            while True:
                s = random_label_string(rng, sigma, 2, 30)
                if is_primitive(s):
                    break
        out.append(("cycle", s))
    for _ in range(150):
        k = rng.randint(2, 6)
        sigma = rng.randint(1, 3)
        out.append(("multi", [random_label_string(rng, sigma, 0, 12) for _ in range(k)]))
    for _ in range(130):
        k = rng.randint(3, 20)
        sigma = rng.randint(2, 3)
        out.append(("trie", [random_label_string(rng, sigma, 0, 8) for _ in range(k)]))
    for _ in range(300):  # the only corpus graphs with in-degree above 1
        sigma = rng.randint(1, 4)
        out.append(("confluent", (rng.randrange(2**32), rng.randint(sigma + 1, 40), sigma)))
    return out


def build_corpus(seed: int = 20260810) -> list[Instance]:
    """Deterministic mix of >= 1000 instances across all families.

    Sizes run up to n = 200 and alphabets up to sigma = 4; the bulk of the
    corpus is kept small so the exhaustive pattern sweep stays fast.
    """
    return [make_instance(family, FAMILIES[family][0](arg)) for family, arg in corpus_inputs(seed)]


@dataclass
class SweepStats:
    instances: int = 0
    nodes: int = 0
    count_mismatches: int = 0
    locate_mismatches: int = 0
    contiguity_failures: int = 0
    interval_mismatches: int = 0
    toehold_mismatches: int = 0
    caseb_violations: int = 0
    examples: list[str] = field(default_factory=list)

    def note(self, kind: str, inst: Instance, pattern) -> None:
        if len(self.examples) < 10:
            self.examples.append(f"{kind}: {inst.provenance} pattern={pattern}")


def _check_node(stats: SweepStats, inst: Instance, pattern, naive: set[int], st) -> None:
    stats.nodes += 1
    ix = inst.index
    idof = inst.ids.id_of_rank

    cnt = count(ix, pattern)
    if cnt != len(naive):
        stats.count_mismatches += 1
        stats.note("count", inst, pattern)

    if naive and max(naive) - min(naive) + 1 != len(naive):
        stats.contiguity_failures += 1
        stats.note("contiguity", inst, pattern)

    if st is None:
        if naive:
            stats.interval_mismatches += 1
            stats.note("interval-none", inst, pattern)
    elif not naive or st[:2] != (min(naive), max(naive)):
        stats.interval_mismatches += 1
        stats.note("interval", inst, pattern)
    elif st[2] != idof[st[1]]:
        stats.toehold_mismatches += 1
        stats.note("toehold", inst, pattern)

    loc = locate(ix, pattern)
    if (
        len(loc) != cnt
        or len(set(loc)) != len(loc)
        or sorted(loc) != sorted(idof[r] for r in naive)
    ):
        stats.locate_mismatches += 1
        stats.note("locate", inst, pattern)


def sweep_instance(inst: Instance, max_len: int, stats: SweepStats) -> None:
    g, ix = inst.graph, inst.index
    adj: dict[int, list[tuple[int, int]]] = {}
    for u, v, lab in g.edges:
        adj.setdefault(lab, []).append((u, v))
    root_naive = set(range(g.n))
    root_state = (0, g.n - 1, ix.last_rank_id) if g.n else None  # (s, e, last_id)
    _check_node(stats, inst, (), root_naive, root_state)

    def rec(pattern: tuple[int, ...], naive: set[int], st) -> None:
        for c in range(g.sigma):
            pat2 = pattern + (c,)
            naive2 = {v for u, v in adj.get(c, ()) if u in naive}
            if st is None:
                st2 = None
            else:
                try:
                    st2 = step_toehold(ix, *st, c)
                except IndexInvariantError:
                    stats.caseb_violations += 1
                    stats.note("case-b-unmarked", inst, pat2)
                    st2 = None
            _check_node(stats, inst, pat2, naive2, st2)
            if naive2 and len(pat2) < max_len:
                rec(pat2, naive2, st2)

    rec((), root_naive, root_state)


def run_sweep(corpus: list[Instance], max_len: int = 6) -> SweepStats:
    stats = SweepStats()
    for inst in corpus:
        stats.instances += 1
        sweep_instance(inst, max_len, stats)
    return stats


def count_occurrences(text: str, pattern: str) -> int:
    """Overlapping occurrence count by direct scanning; the empty pattern
    occurs once per end position, i.e. len(text) + 1 times."""
    if not pattern:
        return len(text) + 1
    hits = 0
    i = text.find(pattern)
    while i != -1:
        hits += 1
        i = text.find(pattern, i + 1)
    return hits
