import ast
import base64
import hashlib
import json
import random
import re
import sys
import zlib
from array import array
from bisect import bisect_left
from dataclasses import replace
from functools import cache
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wgrindex import (
    FirstInOrderError,
    IndexInvariantError,
    NotWheelerError,
    WheelerGraph,
    assign_identifiers,
    build_index,
    count,
    decompose_paths,
    deserialize_index,
    gen_multi_paths,
    gen_string_cycle,
    gen_string_path,
    gen_trie,
    load_index,
    locate,
    naive_match,
    parse_graph,
    save_index,
    serialize_index,
    space_report,
    to_wgf,
)
import wgrindex.build as build_mod
import wgrindex.graph as graph_mod
from wgrindex.build import (
    _SECTIONS,
    PhiStructure,
    RLSequence,
    _f_label,
    _pack,
    _unpack,
    build_bwt,
    build_partial_sums,
    build_phi,
    build_rank_select,
    build_toehold,
)
from wgrindex.generators import is_primitive
from wgrindex.graph import IdAssignment, transform_order
from wgrindex.query import phi

from helpers import (
    G1_TEXT,
    SECTION_CORRUPTIONS,
    bench_run,
    broken_cycle_graphs,
    build_corpus,
    dense_f_label,
    gen_confluent,
    labels_from_ascii,
    make_instance,
    marked_ids,
    naive_phi_table,
    narrowest_code,
    random_label_string,
    small_wheeler_graphs,
    doc_of,
    edge_order,
    file_of,
    gaps,
    label_major,
    lists_of,
    pack_section,
    packed,
    reseal,
    rl_from_labels,
    rl_of,
    run_order,
    run_starts_of,
    shared_in_edge_graphs,
    transform_labels,
    unpack_section,
    wide_and_narrow,
)

DATA = Path(__file__).parent / "data"

label_strings = st.lists(st.integers(0, 3), max_size=12).map(tuple)


@st.composite
def instances(draw):
    family = draw(st.sampled_from(["string", "cycle", "multi", "trie"]))
    if family == "string":
        return make_instance(family, gen_string_path(draw(label_strings)))
    if family == "cycle":
        return make_instance(family, gen_string_cycle(draw(label_strings.filter(is_primitive))))
    if family == "multi":
        gi = gen_multi_paths(draw(st.lists(label_strings, min_size=1, max_size=4)))
        return make_instance(family, gi)
    return make_instance(family, gen_trie(draw(st.lists(label_strings, min_size=1, max_size=6))))


# --- transform ---

def test_bwt_g1(g1):
    labels, dsts, runs = build_bwt(g1)
    assert labels == transform_labels(g1) == [0, 1, 0]
    assert runs == {0: ([0, 2], [1, 3], [1, 2]), 1: ([1], [2], [3])}
    order = edge_order(g1)
    assert order == [0, 1, 2]
    assert [g1.edges[i][:2] for i in order] == [(0, 1), (1, 3), (3, 2)]
    assert dsts == [1, 3, 2]
    rl = build_rank_select(runs, g1.m, assign_identifiers(g1, decompose_paths(g1)).id_of_rank)
    assert run_order(rl)[:2] == ([0, 1, 2], [0, 1, 0])


def test_bwt_empty():
    g = WheelerGraph(n=3, edges=[])
    assert build_bwt(g) == ([], [], {}) and run_starts_of(build_rank_select({}, 0, [])) == []


def test_bwt_single_run():
    g = gen_string_path((0, 0, 0, 0)).graph
    assert transform_labels(g) == [0, 0, 0, 0]
    rl = rl_of(g)
    assert run_order(rl)[:2] == ([0], [0])


def test_bwt_rejects_bad_order():
    with pytest.raises(NotWheelerError, match="A0"):
        build_bwt(WheelerGraph(n=2, edges=[(1, 0, 0)]))


def test_bwt_groups_by_source_then_destination():
    # two sources out of rank order in the input; positions must follow ranks
    g = WheelerGraph(n=3, edges=[(1, 2, 1), (0, 1, 0)])
    assert edge_order(g) == [1, 0]
    assert build_bwt(g)[:2] == ([0, 1], [1, 2]) == transform_order(g)
    assert transform_labels(g) == [0, 1]


# --- rank/select ---

def test_rank_select_g1(g1_index):
    # labels 0, 1, 0: label 0 holds in-slots 0 and 1, label 1 in-slot 2
    rl = g1_index.rl
    assert rl.rank(0, 3) == 2
    assert rl.select(1, 2) == 1
    assert rl.rank(0, 0) == 0
    assert rl.rank(1, 0) == rl.rank(1, 1) == 2 and rl.rank(1, 2) == 3
    assert [cums[-1] - cums[0] for _, cums, _, _, _ in rl.runs_of.values()] == [2, 1]
    # each run's last edge enters the vertex of this identifier
    assert {c: list(runs[4]) for c, runs in rl.runs_of.items()} == {0: [0, 3], 1: [1]}
    assert run_order(rl)[:2] == ([0, 1, 2], [0, 1, 0])  # every position ends its run


@settings(max_examples=150)
@given(instances())
def test_rank_select_matches_naive_scan(inst):
    """rank is the LF value f_label[c] + occurrences of c before p, and
    select inverts it on the in-slots of c, for every label that occurs."""
    labels = inst.bwt_labels
    rl = inst.index.rl
    assert list(rl.runs_of) == sorted(set(labels))
    for c, (_, cums, _, _, _) in rl.runs_of.items():
        below = sum(1 for x in labels if x < c)
        for p in range(len(labels) + 1):
            assert rl.rank(c, p) == below + labels[:p].count(c)
        occ = [p for p, x in enumerate(labels) if x == c]
        assert cums[-1] - cums[0] == len(occ)
        for k, p in enumerate(occ):
            assert rl.select(c, below + k) == p
            assert rl.select(c, rl.rank(c, p)) == p
    starts, run_labels, _ = run_order(rl)
    ends = (starts[1:] + [len(labels)]) if labels else []
    runs = zip(starts, ends, run_labels)
    assert [lab for s, e, lab in runs for _ in range(s, e)] == labels
    last_of_run = [
        p for p in range(len(labels)) if p + 1 == len(labels) or labels[p + 1] != labels[p]
    ]
    assert [e - 1 for e in ends] == last_of_run


def test_rlsequence_from_labels_matches_builder(g1):
    ids = assign_identifiers(g1, decompose_paths(g1)).id_of_rank
    assert rl_from_labels(transform_labels(g1), [ids[v] for v in build_bwt(g1)[1]]) == rl_of(g1)


# --- cut tables ---

def assert_rank_is_dense_lf(rl, labels):
    """rank(c, p) is the LF value below[c] + occ_c[0, p) at every p in
    [0, m] for every label, and each cut table has at most len(starts)/16 + 2
    entries."""
    present = sorted(set(labels))
    below = dict(zip(present, accumulate((labels.count(c) for c in present), initial=0)))
    for c in present:
        starts, _, _, cuts, _ = rl.runs_of[c]
        assert len(cuts) <= len(starts) / 16 + 2
        lf = below[c]
        for p, x in enumerate(labels):
            assert rl.rank(c, p) == lf
            lf += x == c
        assert rl.rank(c, len(labels)) == lf


@pytest.mark.parametrize("m", [2**14, 12_345])
def test_cut_tables_match_dense_rank(m):
    """Labels 0-2 at random over the first 99 % of positions, label 3
    alternating with 0 over the last 1 % only (its early buckets are
    empty), and label 4 once: every table of more than one run has several
    buckets, the one-run table two entries, and rank is exact throughout."""
    rng = random.Random(m)
    tail = m - m // 100
    labels = [rng.randrange(3) for _ in range(tail)] + [3 * (p % 2) for p in range(tail, m)]
    labels[m // 2] = 4
    rl = rl_from_labels(labels)
    assert_rank_is_dense_lf(rl, labels)
    for c, (_, _, _, cuts, _) in rl.runs_of.items():
        assert (len(cuts) == 2) if c == 4 else (len(cuts) > 3)
    starts, _, _, cuts, _ = rl.runs_of[3]
    assert starts[0] >= tail and cuts[0] == cuts[1] == cuts[2] == 0


def test_cut_tables_in_a_built_index_match_naive():
    """A 2**14-edge string path in which label 4 follows only label 5, so
    its edges leave the last-ranked vertices and sit in the last 1 % of the
    transform, and label 3 occurs once: rank over the built transform is
    the dense LF value, and count and locate equal naive_match."""
    rng = random.Random(14)
    text = [rng.randrange(3) for _ in range(2**14 - 1)]
    for k in rng.sample(range(10, len(text) - 10, 2), 80):
        text[k : k + 2] = [5, rng.choice((0, 4))]
    text[7] = 3
    text.append(0)
    g = gen_string_path(text).graph
    ix = build_index(g)
    labels = transform_labels(g)
    assert ix.m == 2**14 and len(ix.rl.runs_of[3][0]) == 1
    assert min(ix.rl.runs_of[4][0]) >= 0.99 * ix.m and len(ix.rl.runs_of[4][0]) > 16
    assert_rank_is_dense_lf(ix.rl, labels)
    idof = assign_identifiers(g, decompose_paths(g)).id_of_rank
    starts = rng.sample(range(len(text) - 8), 30) + [text.index(5), 6]
    patterns = [tuple(text[k : k + rng.randint(1, 8)]) for k in starts]
    patterns += [(5, 4), (4,), (3,), (5, 0, 5), (3, 3), (4, 5, 4)]
    for pattern in patterns:
        want = naive_match(g, pattern)
        assert count(ix, pattern) == len(want)
        assert sorted(locate(ix, pattern)) == sorted(idof[r] for r in want)


# --- partial sums ---

def dense_prefix(degrees):
    return [0] + list(accumulate(degrees))


def first_slots(rl) -> dict[int, int]:
    """Each label's first in-slot, the f_label count its run counts start at."""
    return {c: cums[0] for c, (_, cums, _, _, _) in rl.runs_of.items()}


def test_partial_sums_g1(g1):
    # out-degrees 1, 1, 0, 1 and in-degrees 0, 1, 1, 1: one exception a side
    sums = build_partial_sums(g1)
    assert (sums.out_ranks, sums.out_after) == ([2], [2])
    assert (sums.in_ranks, sums.in_after) == ([0], [0])
    assert [sums.out_prefix(k) for k in range(5)] == [0, 1, 2, 2, 3]
    rl = rl_of(g1)
    assert first_slots(rl) == {0: 0, 1: 2}
    assert _f_label(rl, g1.m) == [0, 0, 1, 2, 3]


def test_partial_sums_empty_graph():
    g = WheelerGraph(n=2, edges=[])
    sums = build_partial_sums(g)
    assert (sums.out_ranks, sums.out_after) == ([0, 1], [0, 0])
    assert (sums.in_ranks, sums.in_after) == ([0, 1], [0, 0])
    assert [sums.out_prefix(k) for k in range(3)] == [0, 0, 0]
    rl = rl_of(g)
    assert first_slots(rl) == {}
    assert _f_label(rl, g.m) == [0]


@settings(max_examples=150)
@given(instances())
def test_partial_sums_handshake(inst):
    """The exceptions are the ranks whose degree is not 1, and out_prefix(k)
    sums the first k out-degrees. The in-side sums are read only by the
    refine step, which test_query checks against dense references. The
    labels' in-slots, in ascending label order, tile [0, m), and f_label
    lists each label with the in-slot its span starts at, then m."""
    g, rl = inst.graph, inst.index.rl
    sums = build_partial_sums(g)
    assert sums.out_ranks == [k for k, d in enumerate(g.out_degrees) if d != 1]
    assert sums.in_ranks == [k for k, d in enumerate(g.in_degrees) if d != 1]
    assert [sums.out_prefix(k) for k in range(g.n + 1)] == dense_prefix(g.out_degrees)
    assert sums.in_after == [dense_prefix(g.in_degrees)[k + 1] for k in sums.in_ranks]
    assert list(rl.runs_of) == sorted(set(inst.bwt_labels))
    spans = [(cums[0], cums[-1]) for _, cums, _, _, _ in rl.runs_of.values()]
    assert [a for a, _ in spans] + [g.m] == [0] + [b for _, b in spans]
    assert _f_label(rl, g.m) == [x for c, (a, _) in zip(rl.runs_of, spans) for x in (c, a)] + [g.m]


@settings(max_examples=200)
@given(
    st.lists(st.tuples(st.integers(0, 5000), st.integers(1, 3)), max_size=12),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
def test_f_label_of_sparse_labels_matches_accumulate(runs, spare, rng):
    """On a few runs of labels spread over [0, 5000], _f_label lists each
    label that occurs with the running sum of the counts of the labels
    below it, then the length. The dense f_label of versions 4 and 5, made
    here with sigma up to 3 past the largest label, is the running sum of
    every label's count and holds the same counts."""
    labels = [c for c, length in runs for _ in range(length)]
    rng.shuffle(labels)
    rl, present = rl_from_labels(labels), sorted(set(labels))
    below = accumulate((labels.count(c) for c in present), initial=0)
    pairs = _f_label(rl, len(labels))
    assert pairs == [x for c, b in zip(present, below) for x in (c, b)] + [len(labels)]
    sigma = max(labels, default=-1) + 1 + spare
    dense = dense_f_label(rl, sigma, len(labels))
    assert dense == list(accumulate((labels.count(c) for c in range(sigma)), initial=0))
    assert pairs[1::2] + [pairs[-1]] == [dense[c] for c in present] + [dense[-1]]


@settings(max_examples=300)
@given(st.lists(st.integers(0, 3), max_size=20))
def test_degree_sums_match_dense_prefixes(degrees):
    """The same on any degree list, on both sides: the generated families
    never have in-degrees above 1. Rank k gets that degree from self-loops."""
    loops = [(k, k, 0) for k, d in enumerate(degrees) for _ in range(d)]
    sums = build_partial_sums(WheelerGraph(n=len(degrees), edges=loops))
    prefix = dense_prefix(degrees)
    assert [sums.out_prefix(k) for k in range(len(degrees) + 1)] == prefix
    assert sums.in_ranks == sums.out_ranks == [k for k, d in enumerate(degrees) if d != 1]
    assert sums.in_after == sums.out_after == [prefix[k + 1] for k in sums.out_ranks]


# --- toehold table ---

def toehold_of(g):
    """The rank/select directories and the toehold table of g, and the
    identifier at each marked position (marked_ids)."""
    d = decompose_paths(g)
    labels, dsts, runs = build_bwt(g)
    ids = assign_identifiers(g, d)
    rl = build_rank_select(runs, g.m, ids.id_of_rank)
    th = build_toehold(ids, labels, dsts, rl, build_partial_sums(g), d.break_ranks)
    return rl, th, marked_ids(rl, th)


def test_toehold_g1(g1):
    rl, th, marks = toehold_of(g1)
    assert marks == {0: 0, 1: 1, 2: 3}
    assert len(marks) == 3
    assert (run_order(rl)[2], th.pairs) == ([0, 1, 3], {})  # the three run ends, and no extras


def test_toehold_unary_chain():
    rl, th, marks = toehold_of(gen_string_path((0, 0, 0, 0)).graph)
    # position 3 ends the single run; positions 0 and 3 touch path endpoints,
    # so 0 is the one extra, kept apart from the run end
    assert list(marks) == [0, 3]
    assert (len(run_order(rl)[2]), list(th.pairs)) == (1, [0])


def test_toehold_marks_before_sink():
    # rank 2 has out-degree 0, so every out-edge of rank 1 is marked
    g = gen_string_path((0, 0, 0, 0)).graph
    *_, marks = toehold_of(g)
    sink = g.n - 1
    assert g.out_degrees[sink] == 0
    for p, i in enumerate(edge_order(g)):
        if g.edges[i][0] == sink - 1:
            assert p in marks


@settings(max_examples=150)
@given(instances())
def test_toehold_exact_membership(inst):
    """Marked positions match a from-scratch scan of the three conditions,
    over the edges in transform order."""
    g, d, ids = inst.graph, inst.decomp, inst.ids
    edge_at = [g.edges[i][:2] for i in edge_order(g)]
    marks = marked_ids(inst.index.rl, inst.index.toehold)
    ends = {seq[0] for seq in d.paths} | {seq[-1] for seq in d.paths}
    expected = set()
    for p, (u, v) in enumerate(edge_at):
        last_of_run = p + 1 == g.m or inst.bwt_labels[p + 1] != inst.bwt_labels[p]
        before_sink = u + 1 < g.n and g.out_degrees[u + 1] == 0
        if last_of_run or u in ends or v in ends or before_sink:
            expected.add(p)
    assert set(marks) == expected
    for p, (u, v) in enumerate(edge_at):
        if p in expected:
            assert marks[p] == ids.id_of_rank[v]


@settings(max_examples=150)
@given(instances())
def test_load_side_marks_match_built_marks(inst):
    """The ranks whose degree is not 1 and the break ranks are exactly the
    path endpoints, so the mark rule, which build and load both apply to
    the break ranks, names exactly the built marks besides the run ends,
    the extras; only a cycle has a break rank."""
    ix = inst.index
    exceptions = set(ix.sums.out_ranks).union(ix.sums.in_ranks)
    assert exceptions.isdisjoint(ix.break_ranks)
    assert exceptions.union(ix.break_ranks) == inst.decomp.endpoints
    assert ix.break_ranks == ([0] if inst.family == "cycle" and inst.graph.m else [])
    marks, into = build_mod._required_marks(ix.rl, ix.sums, ix.break_ranks)
    # rule M1, which the format implies: the last position of each run
    starts = run_starts_of(ix.rl)
    ends = {p - 1 for p in starts[1:] + [ix.m] if p}
    assert marks | ends == set(marked_ids(ix.rl, ix.toehold))
    assert list(ix.toehold.pairs) == sorted(marks - ends)
    # the edges into the endpoints, each with the rank it enters and its
    # label, which the loader checks their marks against: every rank but an
    # endpoint has in-degree 1, so they number m - first
    dsts = transform_order(inst.graph)[1]
    assert all((dsts[p], inst.bwt_labels[p]) == kc for p, kc in into.items())
    assert len(into) == ix.m - (ix.n - len(inst.decomp.endpoints))


# --- phi structure ---

def test_phi_structure_g1(g1):
    d = decompose_paths(g1)
    ids = assign_identifiers(g1, d)
    ph = build_phi(ids)
    # identifier 0 follows 2 and identifier 1 follows 3: pred(1) - 1 gives
    # pred(0), so 0 needs no anchor
    assert list(ph.anchor_ids) == [1, 2, 3]
    assert ph.pred_ids == array("q", [3, -1, 0])


def test_phi_structure_unary_chain():
    g = gen_string_path((0, 0, 0, 0)).graph
    d = decompose_paths(g)
    ids = assign_identifiers(g, d)
    ph = build_phi(ids)
    assert list(ph.anchor_ids) == [0, 2, 3, 4]
    assert ph.pred_ids == array("q", [3, 1, -1, 2])


def test_phi_structure_single_vertex():
    g = WheelerGraph(n=1, edges=[])
    d = decompose_paths(g)
    ids = assign_identifiers(g, d)
    ph = build_phi(ids)
    assert list(ph.anchor_ids) == [0]
    assert ph.pred_ids == array("q", [-1])


@settings(max_examples=150)
@given(instances())
def test_phi_successor_stepping_matches_naive(inst):
    """For every identifier, the anchor successor plus offset arithmetic
    reproduces the naive predecessor table."""
    g = inst.graph
    ph = inst.index.phi
    table = naive_phi_table(g, inst.ids)
    anchors = set(ph.anchor_ids)
    if g.n:
        assert g.n - 1 in anchors  # successor lookups can never fall off the end
    for i in range(g.n):
        j, pred = ph.successor(i)
        assert all(x not in anchors for x in range(i, j))
        if table[i] is None:
            assert j == i and pred == -1
        elif j == i:
            assert pred == table[i]
        else:
            assert pred >= 0 and pred - (j - i) == table[i]


def minimal_anchors(table: list[int | None]) -> list[int]:
    """The identifiers phi cannot step to by an offset, from the naive
    predecessor table: n - 1, the order-first vertex's identifier and the
    one below it, and every i whose successor's predecessor is not
    table[i] + 1."""
    n = len(table)
    return [
        i for i in range(n)
        if i == n - 1 or table[i] is None or table[i + 1] is None or table[i + 1] != table[i] + 1
    ]


def phi_outcome(ix, i):
    """phi(ix, i), or the type of the error it raises: IndexError past the
    last anchor, once the anchor of n - 1, which every load requires, is dropped."""
    try:
        return phi(ix, i)
    except (FirstInOrderError, IndexInvariantError, IndexError) as exc:
        return type(exc)


def test_phi_anchors_are_the_minimal_set():
    """build_phi anchors exactly the identifiers that offset stepping cannot
    serve, and dropping any single anchor changes some phi(i): no smaller
    anchor set answers phi."""
    graphs = [inst.graph for inst in build_corpus()]
    graphs += shared_in_edge_graphs(60, seed=11) + broken_cycle_graphs(40, seed=5)
    dropped = 0
    for g in graphs:
        ix = build_index(g)
        table = naive_phi_table(g, assign_identifiers(g, decompose_paths(g)))
        anchors, preds = ix.phi.anchor_ids, ix.phi.pred_ids
        assert list(anchors) == minimal_anchors(table)
        assert preds == array("q", [-1 if table[i] is None else table[i] for i in anchors])
        for t, a in enumerate(anchors):
            cut_phi = PhiStructure(anchors[:t] + anchors[t + 1:], preds[:t] + preds[t + 1:])
            cut = replace(ix, phi=cut_phi)
            # only the identifiers after the previous anchor, up to a, get a
            # new anchor successor
            affected = range(anchors[t - 1] + 1 if t else 0, a + 1)
            assert any(phi_outcome(cut, i) != phi_outcome(ix, i) for i in affected), (g, a)
            dropped += 1
    assert dropped > 15000


# --- whole index, space, serialization ---

def test_build_index_g1(g1_index):
    ix = g1_index
    assert (ix.n, ix.m, ix.sigma) == (4, 3, 2)
    assert len(run_starts_of(ix.rl)) == 3
    assert ix.num_paths == 1
    assert ix.last_rank_id == 1


def test_build_index_deterministic(g1):
    a = build_index(g1)
    b = build_index(g1)
    assert a == b
    assert serialize_index(a) == serialize_index(b)


def test_space_report_g1(g1_index):
    sr = space_report(g1_index)
    assert sr.marked_count == 3
    assert sr.anchor_count == 3
    # 3 anchors up to identifier 3: buckets of 32 identifiers, 2 cut-table entries
    assert sr.words["phi"] == 2 * 3 + 2
    assert sr.marked_bound == 3 + 4 * 1
    assert sr.anchor_bound == 3 + 8 * 1 + 1
    assert sr.total_words == sum(sr.words.values())
    joined = "\n".join(sr.lines())
    assert "r=3" in joined and "upsilon=1" in joined


def test_space_report_single_run():
    ix = build_index(gen_string_path((0, 0, 0, 0)).graph)
    assert space_report(ix).num_runs == 1


@settings(max_examples=150)
@given(instances())
def test_space_bounds(inst):
    sr = space_report(inst.index)
    assert 0 <= sr.marked_count <= min(sr.marked_bound, inst.graph.m)
    assert 0 <= sr.anchor_count <= min(sr.anchor_bound, inst.graph.n)


def test_serialize_roundtrip(g1_index):
    data = serialize_index(g1_index)
    assert deserialize_index(data) == g1_index


def test_failed_save_leaves_the_old_file_whole(g1_index, tmp_path, monkeypatch):
    path = tmp_path / "g1.idx"
    save_index(g1_index, path)
    old = path.read_bytes()

    def interrupted(ix):
        raise KeyboardInterrupt

    monkeypatch.setattr(build_mod, "serialize_index", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_index(g1_index, path)
    assert path.read_bytes() == old


@settings(max_examples=100)
@given(instances())
def test_serialize_roundtrip_generated(inst):
    data = serialize_index(inst.index)
    ix2 = deserialize_index(data)
    assert ix2 == inst.index
    assert serialize_index(ix2) == data


def fan_graph(labels) -> WheelerGraph:
    """Sources 0..m-1, source i with one edge labelled labels[i], into m
    sinks ranked by (label, source): the transform is labels as given."""
    m = len(labels)
    sinks = sorted(range(m), key=lambda i: (labels[i], i))
    return WheelerGraph(n=2 * m, edges=[(i, m + t, labels[i]) for t, i in enumerate(sinks)])


run_label_sequences = st.one_of(
    st.just([]),
    st.builds(lambda c, k: [c] * k, st.integers(0, 3), st.integers(1, 20)),  # one run
    # every run of length 1: each label differs from the one before
    st.lists(st.integers(1, 3), max_size=20).map(lambda d: list(accumulate(d, lambda a, x: (a + x) % 4, initial=0))),
    st.integers(0, 5).flatmap(lambda k: st.lists(st.integers(0, 3), min_size=2**k, max_size=2**k)),  # m = 2**k
)


@settings(max_examples=150)
@given(run_label_sequences)
def test_save_writes_the_label_directories_of_a_naive_scan(labels):
    """A save writes each label's directory as it stands; built and loaded,
    an index writes, label by label, the runs that a naive scan of its
    transform finds, and its space report counts one word per label that
    occurs."""
    g = fan_graph(labels)
    ix = build_index(g)
    assert transform_labels(g) == labels
    starts = [p for p in range(len(labels)) if p == 0 or labels[p] != labels[p - 1]]
    data = serialize_index(ix)
    doc = lists_of(data)
    present = sorted(set(labels))
    assert doc["run_labels"] == present
    assert doc["run_starts"] == [gaps([p for p in starts if labels[p] == c]) for c in present]
    loaded = deserialize_index(data)
    assert loaded.rl == ix.rl
    assert serialize_index(loaded) == data
    for index in (ix, loaded):
        entries = sum(len(s) + len(cums) + len(cuts) for s, cums, _, cuts, _ in index.rl.runs_of.values())
        assert space_report(index).words["rank_select"] == len(present) + entries


def test_deserialize_rejects_foreign_input(g1_index):
    with pytest.raises(ValueError, match="not an index file"):
        deserialize_index(b"not json at all")
    for data in (b'{"some": "json"}', b"[1, 2]"):
        with pytest.raises(ValueError, match="not an index file: missing format marker"):
            deserialize_index(data)
    with pytest.raises(ValueError, match="unsupported index version 99"):
        deserialize_index(file_of({**doc_of(g1_index), "version": 99}))


def test_deserialize_rejects_deep_nesting():
    # json.loads raises RecursionError here, not JSONDecodeError
    with pytest.raises(ValueError, match="not an index file"):
        deserialize_index(b"[" * 100_000)


ABBA = gen_string_path(labels_from_ascii("abba")).graph
EMPTY, EDGELESS = WheelerGraph(n=0, edges=[]), WheelerGraph(n=3, edges=[])


@pytest.mark.parametrize(
    "member, code", wide_and_narrow([("n",), ("run_labels",), ("break_ranks",)], ["n", "run_labels", "break_ranks"])
)
def test_deserialize_rejects_a_missing_member(member, code):
    doc = doc_of(build_index(ABBA))
    del doc[member]
    with pytest.raises(ValueError, match=f"not an index file: malformed field \\('{member}'\\)"):
        deserialize_index(file_of(doc, code))


@pytest.mark.parametrize(
    "field",
    ["marked_pairs", "marked_positions", "pred_ids", "anchor_ids", "run_labels",
     "run_starts", "out_prefix", "in_prefix", "f_label"],
)
def test_deserialize_rejects_mismatched_lengths(field):
    # before the length checks, a dropped marked pair was silently cut off
    # by zip and a short out_prefix failed mid-query with IndexError; every
    # list of the "abba" document is non-empty, its one extra mark too
    doc = doc_of(build_index(ABBA))
    doc[field].pop()
    with pytest.raises(ValueError, match="corrupt index"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize(
    "edit, fragment",
    # anchor_ids as gaps: [0, 2, 1, 1] stores the anchors 0, 2, 3 and 4
    [
        ({"anchor_ids": [], "pred_ids": []}, "pred_ids holds 0 first-vertex entries"),
        ({"pred_ids": [3, 1, 0, 2]}, "pred_ids holds 0 first-vertex entries"),
        ({"pred_ids": [3, -1, -1, 2]}, "pred_ids holds 2 first-vertex entries"),
        ({"n": 0, "anchor_ids": [0], "pred_ids": [-1], "out_prefix": [0], "in_prefix": [0]},
         "pred_ids holds 1 first-vertex entries, n = 0 needs 0"),
        ({"anchor_ids": [0, 2, 0, 2]}, "anchor_ids"),  # 0, 2, 2, 4
        ({"anchor_ids": [2, -2, 3, 1]}, "anchor_ids"),  # 2, 0, 3, 4
        ({"anchor_ids": [0, 2, 1, 2]}, "anchor_ids"),  # 0, 2, 3, 5
        ({"anchor_ids": [-1, 3, 1, 1]}, "anchor_ids"),  # -1, 2, 3, 4
        # every build anchors n - 1; without it a phi step from n - 1 failed
        # mid-query with no anchor successor
        ({"anchor_ids": [0, 2, 1], "pred_ids": [3, 1, -1]}, "anchor_ids ends at 3, not at n - 1"),
    ],
)
def test_deserialize_rejects_impossible_anchor_sets(edit, fragment):
    # such an index would otherwise fail only at its first phi step
    doc = doc_of(build_index(gen_string_path((0, 0, 0, 0)).graph))
    assert (doc["anchor_ids"], doc["pred_ids"]) == ([0, 2, 1, 1], [3, 1, -1, 2])
    doc.update(edit)
    with pytest.raises(ValueError, match=f"corrupt index: {fragment}"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize(
    "graph, built, last",
    [(ABBA, 2, 0), (ABBA, 2, 4), (ABBA, 2, 5), (ABBA, 2, -1), (ABBA, 2, None),
     (EMPTY, None, 0), (EDGELESS, 2, 0), (EDGELESS, 2, None)],
    ids=["abba-0", "abba-4", "abba-5", "abba-minus-1", "abba-None",
         "empty-0", "edgeless-0", "edgeless-None"],
)
def test_deserialize_rejects_wrong_last_rank_id(graph, built, last):
    # loaded, a wrong id in [0, n) made locate of the empty pattern raise
    # FirstInOrderError, and any other value failed in that query too; with
    # no edges, identifiers follow ranks, so rank n - 1 has id n - 1
    doc = doc_of(build_index(graph))
    assert doc["last_rank_id"] == built
    doc["last_rank_id"] = last
    with pytest.raises(ValueError, match=f"corrupt index: last_rank_id is {last}, not"):
        deserialize_index(file_of(doc))


def trie_doc():
    # out-degrees 2, 2, 0, 0, 0 and in-degrees 0, 1, 1, 1, 1; runs of labels
    # 0, 1 and 2 start at 0, 1 and 3 and end at 0, 2 and 3; position 1 is
    # the one extra mark
    doc = doc_of(build_index(gen_trie([(0, 1), (0, 2), (1,)]).graph))
    assert (doc["n"], doc["m"], doc["f_label"]) == (5, 4, [0, 0, 1, 1, 2, 3, 4])
    assert doc["out_prefix"] == [0, 2, 1, 4, 2, 4, 3, 4, 4, 4]
    assert doc["in_prefix"] == [0, 0]
    assert (doc["run_starts"], doc["run_labels"]) == ([[0], [1], [3]], [0, 1, 2])
    assert doc["marked_positions"] == [1] and doc["marked_pairs"] == [1, 3, 4, 2]
    return doc


@pytest.mark.parametrize(
    "edit, fragment",
    [
        ({"out_prefix": [0, 2, 1, 4, 2, 4, 3, 4, 4]}, "out_prefix has odd length 9"),
        ({"out_prefix": [1, 4, 0, 2, 2, 4, 3, 4, 4, 4]}, "out_prefix ranks are not strictly"),
        ({"out_prefix": [0, 2, 1, 4, 2, 4, 3, 4, 5, 4]}, "out_prefix ranks are not strictly"),
        ({"in_prefix": [-1, 0]}, "in_prefix ranks are not strictly"),
        ({"in_prefix": [0, 0, 1, 1]}, "in_prefix gives rank 1 degree 1"),
        ({"out_prefix": [0, 2, 1, 1, 2, 4, 3, 4, 4, 4]}, "out_prefix gives rank 1 degree -1"),
        ({"out_prefix": [0, 2, 1, 4, 2, 4, 3, 4, 4, 6]}, "out_prefix totals 6 edges, m = 4"),
        ({"in_prefix": []}, "in_prefix totals 5 edges, m = 4"),
        # f_label, (label, count below it) pairs and then m, has one check,
        # against the runs: a count that falls, a start above 0, an end
        # below m, a pair missing, added or relabelled disagrees with them
        ({"f_label": [0, 0, 1, 3, 2, 1, 4]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [0, 1, 1, 1, 2, 3, 4]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [0, 0, 1, 1, 2, 3, 3]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": []}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [0, 0, 1, 2, 2, 3, 4]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [0, 0, 1, 1, 2, 3, 3, 3, 4]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [0, 0, 1, 1, 5, 3, 4]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [0, 0, 2, 3, 4]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [1, 0, 0, 1, 2, 3, 4]}, "f_label disagrees with the label counts of the runs"),
        ({"f_label": [0, 0, 1, 1, 2**63 - 1, 3, 4]}, "f_label disagrees with the label counts of the runs"),
    ],
)
def test_deserialize_rejects_impossible_degree_sums(edit, fragment):
    doc = trie_doc()
    doc.update(edit)
    with pytest.raises(ValueError, match=f"corrupt index: {fragment}"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize(
    "graph, f_label",
    [(gen_string_path((0, 1, 2, 0)).graph, [0, 0, 1, 2, 2, 3, 4]), (EDGELESS, [0])],
    ids=["string", "edgeless"],
)
def test_deserialize_rejects_a_label_pair_that_no_run_holds(graph, f_label):
    # version 5 stored sigma, and a sigma raised by 3 with a dense f_label
    # padded to agree loaded and reported labels that no run holds; the
    # alphabet is now 1 + the largest run label, so only an f_label pair
    # can name such a label, with or without runs
    ix = build_index(graph)
    doc = doc_of(ix)
    assert doc["f_label"] == f_label and "sigma" not in doc
    assert deserialize_index(file_of(doc)).sigma == ix.sigma
    doc["f_label"] = f_label[:-1] + [ix.sigma + 2, ix.m, ix.m]
    with pytest.raises(ValueError, match="corrupt index: f_label disagrees with the label counts of the runs"):
        deserialize_index(file_of(doc))


def without_mark(doc: dict, p: int) -> bytes:
    """doc as file bytes with the extra mark at position p deleted: from
    marked_positions, and its identifier, which follows the identifiers of
    the run ends, one per run, from marked_pairs."""
    i = doc["marked_positions"].index(p)
    j = sum(map(len, doc["run_starts"])) + i
    edited = dict(doc)
    edited["marked_positions"] = doc["marked_positions"][:i] + doc["marked_positions"][i + 1:]
    edited["marked_pairs"] = doc["marked_pairs"][:j] + doc["marked_pairs"][j + 1:]
    return file_of(edited)


@pytest.mark.parametrize(
    "graph, p",
    [
        # edges into the sink, a degree exception (rule M2); loaded without
        # them, locate of "aaa" or "aa" answered [3], not [4]
        (gen_string_path(labels_from_ascii("baaa")).graph, 1),
        (gen_string_path(labels_from_ascii("abaa")).graph, 2),
        # the edge (1, 4) of the trie of "aba" and "bb" is marked only
        # because rank 2 is a sink (rule M3): its run goes on, and neither
        # end is a path endpoint
        (gen_trie([(0, 1, 0), (1, 1)]).graph, 2),
    ],
    ids=["baaa", "abaa", "trie"],
)
def test_deserialize_rejects_unmarked_endpoint_edge(graph, p):
    doc = doc_of(build_index(graph))
    assert p in doc["marked_positions"]
    with pytest.raises(ValueError, match=f"corrupt index: position {p} \\(rule M1-M3\\)"):
        deserialize_index(without_mark(doc, p))


def test_deleting_any_mark_is_rejected_at_load():
    """Every path endpoint is a rank whose degree is not 1 or a stored
    break rank, so each extra mark is checkable at load: an edge at an
    endpoint (M2) or an edge before a sink (M3); the run ends (M1) are
    marked by the format itself. On string paths, multi-paths and tries
    the endpoints are all degree exceptions; on a cycle the break rank is
    one of degree 1 and 1."""
    rng = random.Random(7)
    graphs = [gen_string_path(random_label_string(rng, 2, 1, 12)).graph for _ in range(40)]
    graphs += [
        gen_multi_paths([random_label_string(rng, 2, 0, 6) for _ in range(rng.randint(2, 4))]).graph
        for _ in range(40)
    ]
    graphs += [
        gen_trie([random_label_string(rng, 3, 0, 5) for _ in range(rng.randint(2, 8))]).graph
        for _ in range(40)
    ]
    cycles = [random_label_string(rng, 2, 1, 12) for _ in range(60)]
    graphs += [gen_string_cycle(s).graph for s in cycles if is_primitive(s)]
    graphs += broken_cycle_graphs(20, seed=7)
    deleted = 0
    for g in graphs:
        doc = doc_of(build_index(g))
        for p in doc["marked_positions"]:
            with pytest.raises(ValueError, match="corrupt index"):
                deserialize_index(without_mark(doc, p))
            deleted += 1
    assert deleted > 250


def test_changing_a_mark_to_or_from_an_endpoint_identifier_is_rejected_at_load():
    """assign_identifiers numbers the path endpoints last, in rank order, and
    rule M2 marks every edge into one, so each endpoint identifier has one
    place in the marks: the edges into its rank. Changing any marked id to
    or from an endpoint id, to any other id in [0, n), fails the load."""
    graphs = [gen_string_cycle(labels_from_ascii(s)).graph for s in ("abb", "aab", "abcab", "abbab")]
    graphs += [gen_string_path(labels_from_ascii(s)).graph for s in ("abaab", "abcabba")]
    graphs += [gen_trie([(0, 1, 0), (1, 1), (0, 1, 2)]).graph, gen_multi_paths([(0, 1), (1, 0, 1)]).graph]
    graphs += broken_cycle_graphs(6, seed=7)
    changed = 0
    for g in graphs:
        first = len(decompose_paths(g).interior)  # the least endpoint identifier
        doc = doc_of(build_index(g))
        ids = doc["marked_pairs"]
        for j, old in enumerate(ids):
            for new in range(g.n):
                if new != old and max(old, new) >= first:
                    doc["marked_pairs"] = ids[:j] + [new] + ids[j + 1:]
                    with pytest.raises(ValueError, match="corrupt index"):
                        deserialize_index(file_of(doc))
                    changed += 1
    assert changed > 150


def test_deserialize_rejects_stray_run_label():
    # a zero-length run of label -1, at 1, leaves every count and run end
    # intact; its end holds the identifier of the run end before it. (A
    # label past the others no longer strays: the alphabet is 1 + the
    # largest run label, and f_label must list it.)
    doc = trie_doc()
    doc.update(run_starts=[[1], [0], [1], [3]], run_labels=[-1, 0, 1, 2], marked_pairs=[1, 1, 3, 4, 2])
    with pytest.raises(ValueError, match="corrupt index: run_labels is not strictly increasing from 0"):
        deserialize_index(file_of(doc))
    doc.update(run_starts=[[0], [1], [3], [1]], run_labels=[0, 1, 2, 1])  # label 1 twice, after label 2
    with pytest.raises(ValueError, match="corrupt index: run_labels is not strictly increasing from 0"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize(
    "field, bad",
    # -1 in pred_ids is the first-vertex entry: test_deserialize_rejects_impossible_anchor_sets
    [("marked_pairs", 99), ("marked_pairs", -3), ("marked_pairs", -1), ("pred_ids", 99), ("pred_ids", -3)],
)
def test_deserialize_rejects_identifiers_outside_n(field, bad):
    # loaded, destination 99 (or -3) at marked position 1, the extra mark
    # whose identifier follows the three run ends', made locate of "ab"
    # return [99] (or [-3]) instead of [1]
    ix = build_index(ABBA)
    assert locate(ix, (0, 1)) == [1]
    doc = doc_of(ix)
    assert doc["n"] == 5 and doc["marked_pairs"][3] == 1 and doc["pred_ids"][0] == 4
    doc[field][3 if field == "marked_pairs" else 0] = bad
    with pytest.raises(ValueError, match=f"corrupt index: {field} holds identifier {bad}, outside"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize(
    "positions, extra_ids",
    [([1, 7], [1, 1]), ([1, 1], [1, 1]), ([1, 0], [1, 0]), ([-1, 1], [1, 1])],
    ids=["past-m", "repeated", "unsorted", "negative"],
)
def test_deserialize_rejects_bad_marked_positions(positions, extra_ids):
    # each of these used to load, the extra mark at position 7 with m = 4 too
    doc = doc_of(build_index(ABBA))
    assert (doc["m"], doc["marked_positions"], doc["marked_pairs"]) == (4, [1], [0, 4, 2, 1])
    doc["marked_pairs"] = doc["marked_pairs"][:3] + extra_ids  # after the three run ends'
    doc["marked_positions"] = positions
    with pytest.raises(ValueError, match="corrupt index: marked_positions is not strictly increasing"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize(
    "starts, labels",
    # each label's run starts as gaps: [[0, 3], [1, 0]] stores the starts
    # 0 and 3 of label 0 and 1 and 1 of label 1
    [([[0, 3], [1, 0]], [0, 1]), ([[0, 3, 0], [1]], [0, 1]), ([[3], [1]], [0, 1]),
     ([[3, -3], [1]], [0, 1]), ([[0, 4], [1]], [0, 1]), ([], []), ([[0, 3], [0]], [0, 1]),
     ([[0, 3], []], [0, 1])],
    ids=["empty-run", "empty-last-run", "from-1", "falling", "past-m", "none", "shared-start", "no-run"],
)
def test_deserialize_rejects_run_starts_not_rising_from_0(starts, labels):
    # the empty runs keep every label count and used to load; the others
    # also leave the counts short of f_label
    doc = doc_of(build_index(ABBA))
    assert (doc["run_starts"], doc["run_labels"]) == ([[0, 3], [1]], [0, 1])
    # one identifier per run, no extra marks: the lengths agree
    doc.update(run_starts=starts, run_labels=labels, marked_positions=[],
               marked_pairs=[0] * sum(map(len, starts)))
    with pytest.raises(ValueError, match="corrupt index: run_starts does not rise strictly from 0"):
        deserialize_index(file_of(doc))


def test_deserialize_rejects_neighbouring_runs_with_one_label():
    # runs at [0, 1, 2, 3] labelled [0, 1, 1, 0] split the run of "bb" in
    # two and used to load; each position ends a run, so no mark is extra
    doc = doc_of(build_index(ABBA))
    sections, labels, ids = label_major([0, 1, 2, 3], [0, 1, 1, 0], [0, 1, 2, 4])
    assert (sections, labels, ids) == ([[0, 3], [1, 1]], [0, 1], [0, 4, 1, 2])
    doc.update(run_starts=sections, run_labels=labels, marked_positions=[], marked_pairs=ids)
    with pytest.raises(ValueError, match="corrupt index: two neighbouring runs have the same label"):
        deserialize_index(file_of(doc))


def test_swapped_run_labels_are_rejected_only_by_the_neighbouring_runs_check(monkeypatch):
    """Swapping the labels of two runs of equal length keeps every label
    count, so f_label, the marks and the degree sums all still agree. Of the
    drop, duplicate and neighbour-swap edits of the m <= 4 small-scope
    corpus, this file is the one that only the check of two neighbouring
    runs with one label rejects; with that check off it loads and locate
    answers wrong."""
    g = WheelerGraph(n=4, edges=[(0, 2, 1), (1, 0, 0), (1, 3, 1), (2, 1, 0)])
    ix = build_index(g)
    assert locate(ix, (0, 0)) == [0]
    doc = doc_of(ix)
    starts, labels, ids = run_order(ix.rl)
    assert (starts, labels) == ([0, 1, 2, 3], [1, 0, 1, 0]) and not ix.toehold.pairs
    # each run keeps its start and run-end identifier
    doc["run_starts"], doc["run_labels"], doc["marked_pairs"] = label_major(starts, [0, 1, 1, 0], ids)
    with pytest.raises(ValueError, match="^corrupt index: two neighbouring runs have the same label$"):
        deserialize_index(file_of(doc))
    monkeypatch.setattr(build_mod, "eq", lambda a, b: False)  # the check's only use of eq
    assert locate(deserialize_index(file_of(doc)), (0, 0)) == [1]


ARRAY_FIELDS = ["run_starts", "run_labels", "out_prefix", "in_prefix", "f_label",
                "marked_positions", "marked_pairs", "anchor_ids", "pred_ids"]


@pytest.mark.parametrize("bad", [1.9, "0", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("field", ARRAY_FIELDS + ["n", "m", "last_rank_id"])
def test_deserialize_rejects_values_that_are_not_ints(field, bad):
    # exact types only: 1.9 must not load as 1, nor "0" or True as an int;
    # in place of a section, none of them is a typecode and base64
    doc = doc_of(build_index(ABBA))
    doc[field] = bad
    fragment = f"{field} is not a section" if field in ARRAY_FIELDS else f"holds {re.escape(repr(bad))}, not an int"
    if field == "run_starts":  # a JSON list of sections, one per label
        fragment = "run_starts is not a list of sections"
    with pytest.raises(ValueError, match=f"corrupt index: .*{fragment}"):
        deserialize_index(file_of(doc))


PAST_A_WORD = [
    ("n", 2**63 - 1, "anchor_ids ends at 6, not at n - 1"),
    ("n", 2**63, "n = 9223372036854775808 or m = 6 is past 2\\*\\*63 - 1"),
    ("m", 2**63 - 1, "out_prefix totals 6 edges"),
    ("m", 2**63, "n = 7 or m = 9223372036854775808 is past 2\\*\\*63 - 1"),
    ("run_starts", 2**63 - 1, "run_starts does not rise strictly from 0 within"),
]


@pytest.mark.parametrize(
    ("field", "value", "message", "code"),
    wide_and_narrow(PAST_A_WORD, ["-".join(map(str, case)) for case in PAST_A_WORD]),
)
def test_deserialize_rejects_values_past_a_word(field, value, message, code):
    # an array('q') word holds at most 2**63 - 1, and no section holds more:
    # m = 2**63 and a last run gap of 2**63 - 1 raised OverflowError while
    # the run directories were built, before any check bounded them
    doc = doc_of(build_index(gen_string_path((0, 1, 0, 2, 1, 0)).graph))
    if field == "run_starts":
        doc[field][-1][-1] = value  # the last run gap of the largest label
    else:
        doc[field] = value
    with pytest.raises(ValueError, match=f"corrupt index: {message}"):
        deserialize_index(file_of(doc, code))


@pytest.mark.parametrize("dests", [[[3, 0]] * 4, [3, 1, 4], {}])
def test_deserialize_rejects_malformed_destination_ids(dests):
    # one destination id per run end and per extra mark, four in all
    doc = trie_doc()
    doc["marked_pairs"] = dests
    with pytest.raises(ValueError, match="corrupt index: marked_pairs"):
        deserialize_index(file_of(doc))


ABB_CYCLE = gen_string_cycle(labels_from_ascii("abb")).graph


def test_deserialize_rejects_unmarked_break_edge():
    # the break vertex of a cycle has degrees 1 and 1, so the degree sums do
    # not show it; loaded without position 0, locate of "ab" gave [3], not [0]
    ix = build_index(ABB_CYCLE)
    assert ix.break_ranks == [0] and locate(ix, (0, 1)) == [0]
    doc = doc_of(ix)
    with pytest.raises(ValueError, match="corrupt index: position 0 \\(rule M1-M3\\)"):
        deserialize_index(without_mark(doc, 0))


BREAKS_OUT_OF_ORDER = "break_ranks is not strictly increasing within [0, n) or holds a rank whose degree is not 1"


@pytest.mark.parametrize(
    "breaks, fragment",
    [([0, 0], "break_ranks has 2 entries, num_paths and the degree sums give 1 cycles"),
     ([3], BREAKS_OUT_OF_ORDER),
     ([-1], BREAKS_OUT_OF_ORDER),
     ([0, 1], "break_ranks has 2 entries, num_paths and the degree sums give 1 cycles"),
     ([], "break_ranks has 0 entries, num_paths and the degree sums give 1 cycles")],
)
def test_deserialize_rejects_impossible_break_ranks(breaks, fragment):
    doc = doc_of(build_index(ABB_CYCLE))
    assert (doc["n"], doc["num_paths"], doc["break_ranks"]) == (3, 1, [0])
    doc["break_ranks"] = breaks
    with pytest.raises(ValueError, match=f"^{re.escape(f'corrupt index: {fragment}')}$"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize("interior_id", [0, 1], ids=["v5-0", "v5-1"])
def test_load_rejects_a_lowered_break_identifier(interior_id):
    # the break rank of the "abb" cycle holds the endpoint identifier 2; with
    # the id stored at its in-edge lowered to an interior one, a version-2
    # load that walked the chains still found the break, and a load that
    # trusted the stored break ranks answered locate of "a", "ba", "bba"
    # and "abba" wrong
    ix = build_index(ABB_CYCLE)
    doc = doc_of(ix)
    # the break is the only endpoint, so its identifier is n - 1 = 2; its
    # in-edge at position 2 ends the one run of label 0, which comes first
    assert ix.break_ranks == [0] and doc["marked_pairs"] == [2, 1, 0]
    doc["marked_pairs"][0] = interior_id
    message = f"corrupt index: position 2 enters endpoint rank 0 but holds identifier {interior_id}, not 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        deserialize_index(file_of(doc))


@pytest.mark.parametrize("j", [1, 2])
def test_load_rejects_a_raised_interior_identifier(j):
    # the one edge into the break rank of the "abb" cycle, at position 2,
    # holds the one endpoint identifier, 2; raising another run end's
    # interior identifier to 2 (j = 1), or the extra's (j = 2), leaves that
    # edge right, so only the count of marks holding an endpoint
    # identifier, m - first = 3 - 2, sees it
    doc = doc_of(build_index(ABB_CYCLE))
    assert doc["marked_pairs"] == [2, 1, 0]
    doc["marked_pairs"][j] = 2
    message = "corrupt index: 2 marks hold an endpoint identifier, not the m - first = 1 edges into the endpoints"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        deserialize_index(file_of(doc))


ISOLATED_AND_PATH = gen_multi_paths([(), (0, 1)]).graph


@pytest.mark.parametrize(
    "graph, built, num_paths",
    [(ABBA, 1, 0), (ABBA, 1, 2), (ABB_CYCLE, 1, 0), (ABB_CYCLE, 1, 2),
     (EDGELESS, 3, 2), (EDGELESS, 3, 4), (ISOLATED_AND_PATH, 2, 1), (ISOLATED_AND_PATH, 2, 3)],
    ids=["abba-0", "abba-2", "abb-cycle-0", "abb-cycle-2",
         "edgeless-2", "edgeless-4", "isolated-and-path-1", "isolated-and-path-3"],
)
def test_deserialize_rejects_wrong_num_paths(graph, built, num_paths):
    # the paths no degree exception heads are the cycles, one break rank each;
    # a wrong num_paths used to load and print a wrong upsilon in stats. A
    # rank with no edges heads a path of its own.
    doc = doc_of(build_index(graph))
    assert doc["num_paths"] == built
    doc["num_paths"] = num_paths
    with pytest.raises(ValueError, match="corrupt index: break_ranks has [01] entries, num_paths"):
        deserialize_index(file_of(doc))


def test_deserialize_rejects_break_rank_with_degree_exception():
    # rank 0 of the "abba" path is its source, of in-degree 0
    doc = doc_of(build_index(ABBA))
    assert doc["break_ranks"] == [] and doc["num_paths"] == 1
    doc.update(break_ranks=[0], num_paths=2)
    with pytest.raises(ValueError, match=f"^{re.escape(f'corrupt index: {BREAKS_OUT_OF_ORDER}')}$"):
        deserialize_index(file_of(doc))


def component_fields_of_the_benchmark() -> dict:
    """COMPONENT_FIELDS as perfbench/run.py assigns it, read with ast from
    the file's text: the module is neither imported nor run."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "run.py").read_text(encoding="utf-8"))
    found = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
             and [getattr(t, "id", None) for t in node.targets] == ["COMPONENT_FIELDS"]]
    assert len(found) == 1
    return found[0]


def test_benchmark_component_fields_are_serialized_keys():
    """The traced benchmark sizes each component by the members that
    COMPONENT_FIELDS names, one space_report component each: every one is
    a member of the file a save writes, for every golden graph, with edges
    or without, and no member is named twice."""
    components = component_fields_of_the_benchmark()
    fields = [f for names in components.values() for f in names]
    assert len(fields) == len(set(fields)) == 9
    for g in [*golden_graphs().values(), EDGELESS, EMPTY]:
        ix = build_index(g)
        doc = json.loads(serialize_index(ix))
        assert doc["version"] == 7 and set(fields) <= set(doc), set(fields) - set(doc)
        assert set(components) == set(space_report(ix).words)


def golden_graphs():
    rng = random.Random(3)
    string = tuple(rng.randrange(4) for _ in range(5000))
    multi = [tuple(rng.randrange(4) for _ in range(200)) for _ in range(20)]
    trie = [tuple(rng.randrange(3) for _ in range(rng.randint(0, 12))) for _ in range(60)]
    cycle = tuple(rng.randrange(3) for _ in range(500))
    return {
        "g1": parse_graph(G1_TEXT),
        "string": gen_string_path(string).graph,
        "multi": gen_multi_paths(multi).graph,
        "trie": gen_trie(trie).graph,
        "cycle": gen_string_cycle(cycle).graph,
    }


# The golden graphs through serialize_index.
GOLDEN_V7_SHA256 = {
    "g1": "29658fdcf65eed5d7408ce5fb6cbc91c2f8314ba929f70fb5014b9d3bc965c28",
    "string": "5e9002adcc5829159206593e3c1157238f40ea2016d4ba4dfe21f59942d1b3c2",
    "multi": "832c23e1bda6daaed56e4fc2ffe5bd3738cc4979acd4dd1a752f57321df512ce",
    "trie": "c62ac2e551ab1652554d5a5c1e7a99902fd6122762c01259a5632d8b7fcffb6b",
    "cycle": "574b15d3388c8aa1b2ee03708767df4852870a7c389b58d1145da3f0b25327d7",
}

# Files of three golden graphs in every version. The version-4 files are
# version-3 ones loaded and saved again, the version-5 files the version-4
# ones, the version-6 files the version-5 documents with sigma and
# num_runs dropped and f_label as pairs, and the version-7 files the
# version-6 ones loaded and saved again, each anchoring a superset of what
# a build anchors today. Only version 7 loads. Versions 1-6 are refused,
# and stay as fixtures of that: version 1 holds dense n + 1 prefix arrays,
# versions 1 and 2 hold (source id, destination id) pairs and no break
# ranks, versions 1-3 hold every marked position, absolute run starts and
# anchors, and no checksum, version 4 holds its int lists as JSON lists,
# versions 4 and 5 hold a dense f_label, sigma and num_runs, and versions
# 1-6 hold the runs in run order.
OLDER_SHA256 = {
    (1, "g1"): "88ecf2ff90d95a7fd282cd1ed60e014595779ad7446390a8c86470fa5a0e091d",
    (1, "trie"): "91a7cd4504f3d483c6a3e890210ae5316e2dba7dcf1737edce5eba6c8f383370",
    (1, "cycle"): "d4f338660c57d9976a2ca695d1fcbbed50237b81b0798ff84f21c6813329eeef",
    (2, "g1"): "e4021bc1c3cf9726fd0e34e81e5602fe5790a75b8e7696f14f75ee56ed2c9908",
    (2, "trie"): "a55e5278e273e0973f1a23a5dcd7d281eb455b6651d9dd4ee1dd691754bdd181",
    (2, "cycle"): "ca2bc5458340c0a1d9f23c19228fdf19e01859effaddaa8bc684431622bc27dc",
    (3, "g1"): "7188b5c4e4cdf4539ecb98c72e75242590d42d3fddeac1e16ad27647a805d66e",
    (3, "trie"): "f8d9f533e23e9076650e93fb7c300e4c6661ab701cb522795830a424f5076227",
    (3, "cycle"): "87235321f96f80e1537aa04b5dae2d3c08a4b196c4e39a082be3ffd34e0d2c0c",
    (4, "g1"): "30b1f11a3ebfb603fc79a829964027dcb9738b5236edc7e2621563fac9fefdac",
    (4, "trie"): "21453855521c42b6e6d56df780b8558468d798f44896efa411555ddb7cc68cc2",
    (4, "cycle"): "a38149dc956c20040759afee745fcdda5d43fa124adadb0a96fb1e699019f3b8",
    (5, "g1"): "226349c789fa584cd126532979a31783754269b78d5596d54199311fe2e2d459",
    (5, "trie"): "157e2ddb0e988cdddf8c102cab6dbf42a2301cec57ae3c29ff4c8935bfa99c19",
    (5, "cycle"): "7968b4cc9ae26ca5a39b7528a8e4ee1051762c545a3d4133e4c5117f1d2c0493",
    (6, "g1"): "49bd470bbaaac24a51449fd9a636212b4fb54287fa6015a4f2c69770576417f0",
    (6, "trie"): "b547fbb5b4116223d12c72814845270aac82e7f1206fd699f5671719e7a70824",
    (6, "cycle"): "72b7b1aa9586024a0eb63146318ab275708ebe1e3c77e78c545594cc3600fc45",
    (7, "g1"): "84ccd4c700d9748c9638b9409f403f5fd17e0957f336b9c3d1896d3d3b5a2c3a",
    (7, "trie"): "8e05f1adb1d31c25a0afa1951f75406412bc919035ab3dc66ede7497b8e57afd",
    (7, "cycle"): "574b15d3388c8aa1b2ee03708767df4852870a7c389b58d1145da3f0b25327d7",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_index_bytes_match_golden_hashes():
    """Refactors of the build must keep the serialized bytes of g1 and of
    four seeded graphs: a string, a multi-path, a trie and a cycle. A file
    holds every field of the in-memory index, so that is unchanged too, and
    a load gives it back."""
    graphs = golden_graphs()
    assert (graphs["string"].n, graphs["multi"].n, graphs["cycle"].n) == (5001, 4020, 500)
    built = {name: build_index(g) for name, g in graphs.items()}
    assert {name: sha256(serialize_index(ix)) for name, ix in built.items()} == GOLDEN_V7_SHA256
    assert all(deserialize_index(serialize_index(ix)) == ix for ix in built.values())


def assert_narrow_columns(ix):
    """Each label's run counts, cut table and run-end identifiers, and the
    phi anchors, predecessors and cut table are arrays of the narrowest
    word that holds their values."""
    columns = [ix.phi.anchor_ids, ix.phi.pred_ids, ix.phi.cuts]
    columns += [col for _, cums, _, cuts, end_ids in ix.rl.runs_of.values() for col in (cums, cuts, end_ids)]
    assert [(type(col), col.typecode) for col in columns] == [(array, narrowest_code(col)) for col in columns]


def test_index_columns_are_unboxed_words():
    """The int columns that queries index, and the phi anchors, which they
    bisect, take the narrowest word of b, h, i and q that holds their
    values, the typecode of their file section, after a build and after a
    load, and the load gives back the built index. The space report counts
    phi as two words per anchor and one per cut-table entry."""
    for g in golden_graphs().values():
        ix = build_index(g)
        for index in (ix, deserialize_index(serialize_index(ix))):
            assert index == ix
            assert_narrow_columns(index)
            assert space_report(index).words["phi"] == 2 * len(index.phi.anchor_ids) + len(index.phi.cuts)


def index_columns(ix) -> dict:
    """Every list and array column an index keeps, by name: each label's run
    starts, run counts, cut table and run-end identifiers, the phi anchors,
    predecessors and cut table, the degree exceptions and the break ranks.
    Nothing is kept in run order."""
    columns = {"anchor_ids": ix.phi.anchor_ids, "pred_ids": ix.phi.pred_ids, "phi.cuts": ix.phi.cuts,
               "break_ranks": ix.break_ranks, **vars(ix.sums)}
    for c, (starts, cums, _, cuts, end_ids) in ix.rl.runs_of.items():
        columns |= {f"starts[{c}]": starts, f"cums[{c}]": cums, f"cuts[{c}]": cuts, f"end_ids[{c}]": end_ids}
    return columns


def test_index_columns_are_kept_at_their_exact_size():
    """After a build and after a load, no list or array column of the index
    holds growth slack: sys.getsizeof of each equals that of its slice copy,
    on the golden graphs and a seeded 20k-symbol string path. The anchor
    counts are such that an array filled from an iterator, as loads once
    made the anchors, keeps slack on at least three of these graphs."""
    rng = random.Random(20)
    graphs = [*golden_graphs().values(), gen_string_path(tuple(rng.randrange(4) for _ in range(20_000))).graph]
    iterator_slack = 0
    for g in graphs:
        ix = build_index(g)
        for index in (ix, deserialize_index(serialize_index(ix))):
            slack = {name: sys.getsizeof(col) - sys.getsizeof(col[:]) for name, col in index_columns(index).items()}
            assert {name: b for name, b in slack.items() if b} == {}
        anchors = ix.phi.anchor_ids
        iterator_slack += sys.getsizeof(array(anchors.typecode, iter(anchors))) > sys.getsizeof(anchors)
    assert iterator_slack >= 3


def assert_successor_bisects_the_whole_column(ph: PhiStructure) -> None:
    """successor(i) is the anchor that a bisect of the whole column finds,
    for every i up to the last anchor; with an anchor, the cut table's
    bucket width is the least power of two at or above 16 times the
    identifiers up to the last anchor per anchor."""
    anchors = ph.anchor_ids
    end = anchors[-1] + 1 if anchors else 0
    assert not anchors or 1 << ph.shift >= 16 * end / len(anchors) > 1 << ph.shift - 1
    assert len(ph.cuts) == (end >> ph.shift) + 2
    for i in range(end):
        t = bisect_left(anchors, i)
        assert ph.successor(i) == (anchors[t], ph.pred_ids[t]), i


def test_phi_successor_bisects_one_bucket_as_the_whole_column():
    """On the built and the loaded index of every m <= 4 small-scope graph
    and of the golden graphs, the cut-table successor finds what a plain
    bisect of the anchors finds, also with the last anchor dropped, whose
    table spans only the anchors that remain."""
    graphs = [*small_wheeler_graphs(4), *golden_graphs().values()]
    for g in graphs:
        ix = build_index(g)
        for ph in (ix.phi, deserialize_index(serialize_index(ix)).phi):
            assert_successor_bisects_the_whole_column(ph)
            assert_successor_bisects_the_whole_column(PhiStructure(ph.anchor_ids[:-1], ph.pred_ids[:-1]))


@pytest.mark.parametrize("labels, code", [([0, 127], "b"), ([0, 128], "h"), ([127, 0], "b"), ([128, 0], "h")])
def test_run_labels_take_the_narrowest_word(labels, code):
    """Two runs of one edge each: the run_labels section names the two
    labels, ascending, in the narrowest word, and each label's run counts
    take a b word."""
    ix = build_index(fan_graph(labels))
    section = json.loads(serialize_index(ix))["run_labels"]
    assert (section[0], unpack_section(section)) == (code, sorted(labels))
    assert [(c, cums.typecode) for c, (_, cums, _, _, _) in ix.rl.runs_of.items()] == [(0, "b"), (max(labels), "b")]


@pytest.mark.parametrize("first, m, codes", [
    (2**7 - 2, 2**7 - 1, ("b", "b")),
    (2**7 - 1, 2**7, ("b", "h")),
    (2**15 - 1, 2**15, ("h", "i")),
    (2**15, 2**16, ("i", "i")),
    (2**31 - 1, 2**31, ("i", "q")),
    (2**31, 2**40, ("q", "q")),
])
def test_run_counts_take_the_narrowest_word(first, m, codes):
    """Two runs, of label 0 over [0, first) and of label 1 over [first, m):
    label 0 counts up to first and label 1 up to m, and each cut table
    holds a few entries of at most 1."""
    rl = RLSequence.of_runs(m, {0: ([0], [first], [0]), 1: ([first], [m], [1])})
    directories = rl.runs_of.values()
    assert [list(cums) for _, cums, _, _, _ in directories] == [[0, first], [first, m]]
    assert tuple(cums.typecode for _, cums, _, _, _ in directories) == codes
    for _, _, _, cuts, _ in directories:
        assert 2 <= len(cuts) <= 3 and cuts.typecode == "b" and set(cuts) <= {0, 1}
    assert rl.rank(1, m) == m and rl.select(0, first - 1) == first - 1


def test_cut_tables_take_the_narrowest_word():
    # 128 runs of each of two labels: the last cut is 128, past a b word
    rl = RLSequence.of_runs(256, {c: (list(range(c, 256, 2)), list(range(c + 1, 257, 2)), range(c, 256, 2)) for c in (0, 1)})
    for c, (_, cums, _, cuts, end_ids) in rl.runs_of.items():
        assert (cums.typecode, cuts.typecode, cuts[-1]) == ("h", "h", 128)
        assert (end_ids.typecode, list(end_ids)) == ("h", list(range(c, 256, 2)))  # past a b word too


@pytest.mark.parametrize("n, code", [(128, "b"), (129, "h"), (2**15, "h"), (2**15 + 1, "i")])
def test_phi_predecessors_take_the_narrowest_word(n, code):
    # identifiers in reverse rank order: pred(i) = i + 1 anchors only
    # n - 2, whose predecessor is n - 1, and the order-first vertex n - 1
    ids = IdAssignment(id_of_rank=list(range(n - 1, -1, -1)), rank_of_id=list(range(n - 1, -1, -1)))
    ph = build_phi(ids)
    assert (list(ph.anchor_ids), list(ph.pred_ids), ph.pred_ids.typecode) == ([n - 2, n - 1], [n - 1, -1], code)


@pytest.mark.parametrize("n, code", [(128, "b"), (129, "h"), (2**15, "h"), (2**15 + 1, "i")])
def test_loaded_anchors_take_the_built_word(n, code):
    """A load puts the anchors in the word of n - 1, the last anchor, with
    no width tried: the word a build's _narrow picks for them, on either
    side of the b, h and i boundaries."""
    rng = random.Random(n)
    ix = build_index(gen_string_path([rng.randrange(2) for _ in range(n - 1)]).graph)
    loaded = deserialize_index(serialize_index(ix))
    assert loaded == ix and ix.phi.anchor_ids[-1] == n - 1
    assert (ix.phi.anchor_ids.typecode, loaded.phi.anchor_ids.typecode) == (code, code)
    assert code == narrowest_code(ix.phi.anchor_ids)


def test_saves_of_wider_sections_stay_canonical():
    """A file whose sections all hold the same values in q words loads,
    equals the build, keeps every column in the built word and at the built
    sys.getsizeof, and saves the canonical bytes. The run-end identifiers
    that a load slices from a q marked_pairs section and the pred_ids it
    decodes from a q section are narrowed to the build's word with no
    growth slack, on the golden graphs and a seeded 20k-symbol string path."""
    rng = random.Random(20)
    graphs = {**golden_graphs(), "20k": gen_string_path(tuple(rng.randrange(4) for _ in range(20_000))).graph}
    for name, g in graphs.items():
        ix = build_index(g)
        data = serialize_index(ix)
        assert name == "20k" or sha256(data) == GOLDEN_V7_SHA256[name]
        doc = lists_of(data)
        assert json.loads(data)["pred_ids"][0] != "q" and json.loads(data)["marked_pairs"][0] != "q"
        loaded = deserialize_index(file_of(doc, "q"))
        assert loaded == ix and serialize_index(loaded) == data
        built, wide = index_columns(ix), index_columns(loaded)
        assert {k: (getattr(col, "typecode", None), sys.getsizeof(col)) for k, col in wide.items()} == \
            {k: (getattr(col, "typecode", None), sys.getsizeof(col)) for k, col in built.items()}, name


def test_phi_of_the_first_vertex_raises_on_a_built_and_a_loaded_index():
    """-1 stands for the order-first vertex's predecessor in memory and in
    a file, and phi of that vertex raises FirstInOrderError."""
    ix = build_index(ABBA)
    first = ix.phi.anchor_ids[ix.phi.pred_ids.index(-1)]
    for index in (ix, deserialize_index(serialize_index(ix))):
        with pytest.raises(FirstInOrderError):
            phi(index, first)


# One digest over the indexes of 20 seeded Wheeler graphs with broken
# cycles: 19 with other paths beside a cycle and 5 with several cycles.
MIXED_CYCLES_V7_SHA256 = "ae36dd1a83b84fbf7643ba9e4046c16bcc51fbf8f9028bc27d85657b40e252f9"


def test_index_bytes_of_cycles_beside_paths_match_golden_hash():
    """The cycle golden graph is one cycle alone; these pin the bytes where
    the decomposition breaks cycles beside other paths and other cycles."""
    v7 = hashlib.sha256()
    multiple = beside = 0
    for g in broken_cycle_graphs(20, seed=2026):
        ix = build_index(g)
        v7.update(serialize_index(ix))
        multiple += len(ix.break_ranks) > 1
        beside += ix.num_paths > len(ix.break_ranks)
    assert (multiple, beside) == (5, 19)
    assert v7.hexdigest() == MIXED_CYCLES_V7_SHA256


LOADED = [(v, name) for v, name in sorted(OLDER_SHA256) if v == 7]
REFUSED = [(v, name) for v, name in sorted(OLDER_SHA256) if v < 7]


@pytest.mark.parametrize("version, name", LOADED, ids=[f"v{v}-{name}" for v, name in LOADED])
def test_saved_files_load_and_resave_to_their_own_bytes(version, name):
    """A version-7 file loads with its own anchors and re-saves to its own
    bytes; everything else equals a fresh build, and it answers as one."""
    data = (DATA / f"{name}.v{version}.idx").read_bytes()
    assert sha256(data) == OLDER_SHA256[version, name]
    assert json.loads(data)["version"] == version
    ix = deserialize_index(data)
    assert sha256(serialize_index(ix)) == OLDER_SHA256[7, name]
    g = golden_graphs()[name]
    fresh = build_index(g)
    assert replace(ix, phi=fresh.phi) == fresh
    stored = dict(zip(ix.phi.anchor_ids, ix.phi.pred_ids))
    assert dict(zip(fresh.phi.anchor_ids, fresh.phi.pred_ids)).items() <= stored.items()
    for length in range(5):
        for pattern in product(range(g.sigma), repeat=length):
            assert count(ix, pattern) == count(fresh, pattern)
            assert locate(ix, pattern) == locate(fresh, pattern)


@pytest.mark.parametrize("version, name", REFUSED, ids=[f"v{v}-{name}" for v, name in REFUSED])
def test_files_before_version_4_are_refused(version, name):
    """A file of version 1, 2 or 3, which holds no checksum, of version 4,
    which holds its int lists as JSON lists, of version 5, which holds a
    dense f_label, or of version 6, which holds the runs in run order, does
    not load; the message names the version that loads and how to build the
    index again. (The name dates from when version-4 files loaded.)"""
    path = DATA / f"{name}.v{version}.idx"
    assert sha256(path.read_bytes()) == OLDER_SHA256[version, name]
    fragment = f"unsupported index version {version}: version 7 is read; build the index again"
    with pytest.raises(ValueError, match=fragment):
        load_index(path)


def abba_doc() -> dict:
    # runs at 0, 1 and 3 end at 0, 2 and 3; the first and the last are of
    # label 0, written first; position 1 is the one extra mark
    doc = doc_of(build_index(ABBA))
    assert (doc["n"], doc["m"], doc["run_starts"], doc["anchor_ids"]) == (5, 4, [[0, 3], [1]], [1, 1, 1, 1])
    assert (doc["marked_positions"], doc["marked_pairs"]) == ([1], [0, 4, 2, 1])
    return doc


@pytest.mark.parametrize(
    "edit, fragment, code",
    wide_and_narrow([
        ({"run_starts": [[1, 2], [2]]}, "run_starts does not rise strictly from 0 within \\[0, m\\)"),
        ({"run_starts": [[0, 0], [1]]}, "run_starts does not rise strictly from 0 within \\[0, m\\)"),
        ({"run_starts": [[0, 4], [1]]}, "run_starts does not rise strictly from 0 within \\[0, m\\)"),
        ({"anchor_ids": [1, 0, 2, 1]}, "anchor_ids is not strictly increasing within \\[0, n\\)"),
        ({"anchor_ids": [-1, 2, 2, 1]}, "anchor_ids is not strictly increasing within \\[0, n\\)"),
        ({"anchor_ids": [1, 1, 1, 2]}, "anchor_ids is not strictly increasing within \\[0, n\\)"),
        ({"marked_positions": [2]}, "marked_positions holds run end 2"),
        ({"marked_positions": [4]}, "marked_positions is not strictly increasing within \\[0, m\\)"),
        ({"marked_positions": [-1]}, "marked_positions is not strictly increasing within \\[0, m\\)"),
        ({"marked_positions": [1, 0], "marked_pairs": [0, 4, 2, 1, 0]},
         "marked_positions is not strictly increasing within \\[0, m\\)"),
        ({"marked_pairs": [0, 4, 2]}, "marked_pairs has 3 entries, the run count plus len\\(marked_positions\\) gives 4"),
        ({"marked_pairs": [0, 4, 2, 1, 3]}, "marked_pairs has 5 entries, the run count plus len\\(marked_positions\\) gives 4"),
        # the extra mark deleted with its identifier: an edge into the sink (M2)
        ({"marked_positions": [], "marked_pairs": [0, 4, 2]}, "position 1 \\(rule M1-M3\\) is not marked"),
    ], ["first-run-gap-1", "run-gap-0", "starts-reach-m", "anchor-gap-0", "first-anchor-negative",
        "anchors-reach-n", "extra-is-run-end", "extra-past-m", "extra-negative", "extras-unsorted",
        "one-id-short", "one-id-over", "extra-deleted"]),
)
def test_version_4_rejects_impossible_gaps_and_extras(edit, fragment, code):
    # (the name dates from version 4, which stored the first gaps and extras)
    doc = abba_doc()
    doc.update(edit)
    with pytest.raises(ValueError, match=f"corrupt index: {fragment}"):
        deserialize_index(file_of(doc, code))


def test_version_5_rejects_a_missing_or_wrong_checksum():
    """A file that lacks its crc32 member, or holds another value there,
    does not load."""
    data = serialize_index(build_index(ABBA))
    # the last member holds zlib.crc32 of the document without it
    cut = data.rindex(b',"crc32":')
    crc = zlib.crc32(data[:cut] + b"}")
    assert data[cut:] == b',"crc32":%d}' % crc
    doc = json.loads(data)
    del doc["crc32"]
    with pytest.raises(ValueError, match="corrupt index: checksum missing"):
        deserialize_index(json.dumps(doc).encode("ascii"))
    wrong = data[:cut] + b',"crc32":%d}' % (crc ^ 1)
    with pytest.raises(ValueError, match=f"corrupt index: checksum {crc ^ 1} does not match"):
        deserialize_index(wrong)
    with pytest.raises(ValueError, match="unsupported index version 99"):
        deserialize_index(reseal({**doc, "version": 99}))


@pytest.mark.parametrize(
    "graph, field, before, after, code",
    wide_and_narrow([
        # the trie of (0, 1), (0, 2), (1,) and (2, 2, 1), n = 8 and m = 7:
        # one out-edge of rank 0 moved to rank 1 keeps the ordering axioms
        # and every mark that rule M2 asks for
        (gen_trie([(0, 1), (0, 2), (1,), (2, 2, 1)]).graph, "out_prefix", [0, 3, 1, 5], [0, 2, 1, 5]),
        # the interior identifier 0 at the first run end becomes interior 3
        (gen_string_path(labels_from_ascii("abaab")).graph, "marked_pairs", [0, 2, 5], [3, 2, 5]),
    ], ["out-prefix", "interior-id"]),
)
def test_checksum_rejects_edits_that_pass_every_structural_check(graph, field, before, after, code):
    ix = build_index(graph)
    doc = doc_of(ix)
    assert doc[field][:len(before)] == before
    doc[field][:len(before)] = after
    with pytest.raises(ValueError, match="corrupt index: checksum"):  # the crc32 of the file before the edit
        deserialize_index(json.dumps(packed(doc, code), separators=(",", ":")).encode("ascii"))
    # only the checksum stands in the way: resealed, the edit loads as the
    # index of another graph
    moved = deserialize_index(file_of(doc, code))
    assert moved != ix
    if field == "out_prefix":
        assert (count(ix, (0, 2)), locate(ix, (0, 2))) == (1, [7])
        assert (count(moved, (0, 2)), locate(moved, (0, 2))) == (2, [7, 0])


@pytest.mark.parametrize("name, code", wide_and_narrow([("g1",), ("trie",), ("cycle",)], ["g1", "trie", "cycle"]))
def test_every_single_byte_substitution_is_rejected(name, code):
    """Every byte of a golden file, or of its copy in 8-byte words, changed
    to any other value is rejected, by the checksum or, in its own member,
    by the parse. The full 255 values run on g1 and on the closing 32 bytes
    of each file; elsewhere the eight single-bit flips, since CRC-32 detects
    any error burst up to 32 bits long."""
    data = (DATA / f"{name}.v7.idx").read_bytes()
    data = file_of(lists_of(data), code) if code else data
    assert data.endswith(b"}") and data.rindex(b',"crc32":') > len(data) - 32
    for i, old in enumerate(data):
        every = name == "g1" or i >= len(data) - 32
        values = set(range(256)) if every else {old ^ (1 << k) for k in range(8)}
        head, tail = data[:i], data[i + 1:]
        for v in values - {old}:
            with pytest.raises(ValueError):
                deserialize_index(head + bytes((v,)) + tail)


@pytest.mark.parametrize("label", [2**60 - 1, 2**63 - 2, 2**63 - 1, 2**63, 2**70])
def test_save_rejects_a_label_past_a_word(label):
    """The build answers at any label. A label up to 2**63 - 1, the largest
    a section word holds, saves to a file under 1 KB that loads and answers
    as the build does; a save of a larger one raises ValueError. (Version
    5 refused all five labels: its dense f_label held sigma + 1 entries.)"""
    ix = build_index(WheelerGraph(2, [(0, 1, label)]))
    assert count(ix, (label,)) == 1 and locate(ix, (label,)) == [1]
    if label >= 2**63:
        with pytest.raises(ValueError, match=f"label {label} is past {2**63 - 1}, the largest a section word holds"):
            serialize_index(ix)
        return
    data = serialize_index(ix)
    loaded = deserialize_index(data)
    assert len(data) < 1024 and lists_of(data)["f_label"] == [label, 0, 1]
    assert loaded == ix and loaded.sigma == label + 1
    assert (count(loaded, (label,)), locate(loaded, (label,)), count(loaded, (0,))) == (1, [1], 0)


def test_a_label_of_2_to_the_40_round_trips_through_a_file(tmp_path):
    """A string path over the labels 0, 1 and 2**40: saved and loaded, the
    index is the built one and answers every pattern up to length 3 over
    those labels as it does. Version 5 made the save try to allocate a
    dense f_label of 2**40 + 1 entries, 8 TB."""
    big = 2**40
    g = gen_string_path((0, big, 1, big, big, 0, 1)).graph
    ix = build_index(g)
    path = tmp_path / "big.idx"
    save_index(ix, path)
    assert path.stat().st_size < 1024
    loaded = load_index(path)
    assert loaded == ix and loaded.sigma == big + 1
    for length in range(4):
        for pattern in product((0, 1, big), repeat=length):
            assert count(loaded, pattern) == count(ix, pattern) == len(naive_match(g, pattern))
            assert locate(loaded, pattern) == locate(ix, pattern)


WORD_EDGES = [0, -1, 127, 128, -128, -129, 32767, 32768, -32768, -32769,
              2**31 - 1, 2**31, -2**31, -2**31 - 1, 2**63 - 1, -2**63]


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(WORD_EDGES)), max_size=24))
@example([])
@example([127, -128])  # the edges of each width: the widest value that fits, then the first past it
@example([128])
@example([-129])
@example([32767, -32768])
@example([32768])
@example([-32769])
@example([2**31 - 1, -2**31])
@example([2**31])
@example([-2**31 - 1])
@example([2**63 - 1, -2**63, -1])
def test_sections_round_trip_as_little_endian_words(values):
    """A section is the narrowest typecode of b, h, i and q whose signed
    words hold every value, then the base64 of the values as little-endian
    words; the load gives the values back."""
    section = _pack(values)
    width = {"b": 1, "h": 2, "i": 4, "q": 8}[section[0]]
    fits = [all(-(1 << 8 * w - 1) <= v < 1 << 8 * w - 1 for v in values) for w in (1, 2, 4, 8)]
    assert fits.index(True) == width.bit_length() - 1
    raw = base64.b64decode(section[1:], validate=True)
    assert len(raw) == width * len(values)
    assert [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width)] == values
    assert section == pack_section(values)
    assert _unpack("out_prefix", section) == unpack_section(section) == values


@pytest.mark.parametrize("member, value, fragment", SECTION_CORRUPTIONS.values(), ids=SECTION_CORRUPTIONS)
def test_version_5_rejects_corrupt_sections(member, value, fragment):
    # (the name dates from version 5, which introduced the sections)
    doc = json.loads((DATA / "g1.v7.idx").read_bytes())
    assert (doc["run_labels"], unpack_section(doc["pred_ids"])) == ("bAAE=", [2, 3, -1, 0])
    doc[member] = value
    with pytest.raises(ValueError, match=f"corrupt index: {fragment}"):
        deserialize_index(reseal(doc))


@cache
def fuzz_docs() -> list[dict]:
    """The documents of small graphs of every family that single-field
    edits start from: "abba" first, then a trie, a multi-path, a cycle,
    graphs with broken cycles and confluent graphs."""
    graphs = [ABBA, gen_trie([(0, 1), (0, 2), (1,)]).graph, gen_multi_paths([(0, 1), (1, 0, 1), (2,)]).graph,
              ABB_CYCLE, *broken_cycle_graphs(4, seed=7), *(gen_confluent((s, 12, 3)).graph for s in range(4))]
    return [doc_of(build_index(g)) for g in graphs]


HEADER = ("n", "m", "num_paths", "last_rank_id")


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 11), st.sampled_from(_SECTIONS + HEADER), st.sampled_from(["change", "drop", "duplicate", "swap"]),
       st.integers(0, 99), st.integers(0, 99), st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
# "abba" with the predecessor of anchor 1 lowered from 4 to 0: it loads, and
# locate of the empty pattern raised ValueError from the phi step after the one
# that gave -1
@example(0, "pred_ids", "change", 0, 0, -4)
def test_a_single_field_edit_fails_cleanly(graph, field, edit, i, j, delta):
    """One edit of one field of a file, written again with its checksum:
    an int changed by a little, an entry dropped, duplicated or swapped
    with another, or a header int changed. The load raises nothing but
    ValueError, and on an index that loads, count and locate of every
    pattern up to length 3 raise nothing but IndexInvariantError and
    FirstInOrderError, which the CLI reports as a corrupt index."""
    doc = fuzz_docs()[graph]
    values = doc[field]
    if field in HEADER:
        values += delta
    elif field == "run_starts" and values:  # one section per label: edit one of them
        k = (i + j) % len(values)
        values = values[:k] + [edited(values[k], edit, i, j, delta)] + values[k + 1:]
    else:
        values = edited(values, edit, i, j, delta)
    check_loads_cleanly(doc, field, values)


def edited(values: list[int], edit: str, i: int, j: int, delta: int) -> list[int]:
    """values with one entry changed by delta, dropped, duplicated or swapped with another."""
    if not values:
        return values
    values, i, j = list(values), i % len(values), j % len(values)
    if edit == "change":
        values[i] += delta
    elif edit == "drop":
        del values[i]
    elif edit == "duplicate":
        values.insert(i, values[i])
    else:
        values[i], values[j] = values[j], values[i]
    return values


def check_loads_cleanly(doc: dict, field: str, values) -> None:
    """doc with field set to values, resealed, raises nothing but
    ValueError at load, and an index that loads answers count and locate of
    every pattern up to length 3 raising nothing but IndexInvariantError
    and FirstInOrderError."""
    try:
        ix = deserialize_index(file_of({**doc, field: values}))
    except ValueError:
        return
    for length in range(4):
        for pattern in product(range(ix.sigma + 1), repeat=length):
            for query in (count, locate):
                try:
                    query(ix, pattern)
                except (IndexInvariantError, FirstInOrderError):
                    pass


def test_repetitive_collection_degree_sums_stay_small():
    """50 copies of a 2,000-symbol string, 10 substitutions each, as a
    multi-path union: the degree sums hold only the path endpoints."""
    rng = random.Random(11)
    base = [rng.randrange(4) for _ in range(2000)]
    copies = []
    for _ in range(50):
        s = list(base)
        for _ in range(10):
            s[rng.randrange(len(s))] = rng.randrange(4)
        copies.append(s)
    sr = space_report(build_index(gen_multi_paths(copies).graph))
    assert sr.degree_exceptions == 100 <= sr.degree_bound == 200
    assert sr.words["degree_sums"] <= 2 * sr.degree_exceptions + sr.sigma + 1
    assert sr.total_words < 60_000


def test_build_call_paths_reach_traced_hooks(monkeypatch):
    """build_index reaches every stage that perfbench --trace 1 wraps in the
    build module, through lookups made at call time, once each; validation
    runs inside build_bwt, whose self time the benchmark reports apart."""
    run = bench_run()
    stages = run.GRAPH_STAGES + run.BUILD_STAGES
    calls = []
    stack = [None]

    def counting(name, fn):
        def wrapper(*args):
            calls.append((name, stack[-1]))
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return wrapper

    for name in ("build_index", *stages):
        monkeypatch.setattr(build_mod, name, counting(name, getattr(build_mod, name)))
    build_mod.build_index(gen_string_path((0, 1, 0, 1, 0)).graph)
    expected = {(name, "build_index") for name in stages if name != "validate_wheeler"}
    expected |= {("build_index", None), ("validate_wheeler", "build_bwt")}
    assert sorted(calls) == sorted(expected)


class CountingEdges(list):
    """An edge list that counts the reads made by index or slice."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_build_stages_read_the_transform_columns_not_the_edges():
    """Validation lays the transform out once, as label and destination
    columns, and no later stage reads g.edges by index: a build of each
    family, out-degree above 1 in the trie included, makes no such read
    and gives the same bytes."""
    for gi in (
        gen_string_path(labels_from_ascii("abracadabra")),
        gen_string_cycle((0, 1, 1, 2)),
        gen_multi_paths([(0, 1, 0), (1, 1, 0), (2,)]),
        gen_trie([(0, 1), (0, 2), (1,)]),
        gen_confluent((7, 20, 3)),
    ):
        edges = CountingEdges(gi.graph.edges)
        data = serialize_index(build_index(WheelerGraph(gi.graph.n, edges)))
        assert edges.reads == 0, gi.provenance
        assert data == serialize_index(build_index(gi.graph))


def test_bool_label_never_reaches_an_index_file(tmp_path):
    """WheelerGraph(2, [(0, 1, True)]) built an index that deserialize_index
    rejected ("run_labels holds True"); it is refused up front, and the
    same graph with an int label builds, saves and loads."""
    with pytest.raises(ValueError, match="not an int"):
        WheelerGraph(2, [(0, 1, True)])
    g = WheelerGraph(2, [(0, 1, 1)])
    path = tmp_path / "g.wgri"
    save_index(build_index(g), path)
    assert serialize_index(load_index(path)) == serialize_index(build_index(g))
    assert parse_graph(to_wgf(g)) == g


def test_build_index_groups_the_runs_once(monkeypatch):
    """Validation groups the transform's runs by label, and build_rank_select
    takes that grouping from build_bwt: one build groups them once, and the
    same bytes come out."""
    grouped, handed = [], []
    group, rank_select = graph_mod._group_runs, build_mod.build_rank_select

    def counting(labels, bounds):
        grouped.append(group(labels, bounds))
        return grouped[-1]

    def recording(runs, m, id_of_rank):
        handed.append(runs)
        return rank_select(runs, m, id_of_rank)

    g = gen_multi_paths([(0, 1, 0, 1), (1, 1, 0), (2,)]).graph
    data = serialize_index(build_index(g))
    monkeypatch.setattr(graph_mod, "_group_runs", counting)
    monkeypatch.setattr(build_mod, "build_rank_select", recording)
    assert serialize_index(build_index(g)) == data
    assert len(grouped) == len(handed) == 1 and handed[0] is grouped[0]


def test_build_index_computes_the_transform_order_once(monkeypatch):
    """Validation places the edges once and build_bwt reads the columns from
    the report; the witness search, the only reader of the edge-index
    order, runs only once the check has failed: never in a valid build,
    once for a graph that is not Wheeler."""
    placed, searched = [], []
    witnesses = graph_mod._witnesses

    def counting(g):
        placed.append(g)
        return transform_order(g)

    def searching(*args):
        searched.append(args)
        return witnesses(*args)

    for mod in (graph_mod, build_mod):
        if hasattr(mod, "transform_order"):
            monkeypatch.setattr(mod, "transform_order", counting)
    monkeypatch.setattr(graph_mod, "_witnesses", searching)
    g = gen_string_path((0, 1, 0, 1, 0)).graph
    build_index(g)
    assert (placed, searched) == ([g], [])  # validation's; build_bwt computes none of its own
    bad = WheelerGraph(2, [(0, 1, 1), (0, 1, 0)])
    with pytest.raises(NotWheelerError, match="A1"):
        build_index(bad)
    assert placed == [g, bad] and len(searched) == 1
