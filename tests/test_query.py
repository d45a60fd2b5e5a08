import itertools
import random
import time
from array import array
from collections import Counter
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import wgrindex.query as query_mod
from wgrindex import (
    FirstInOrderError,
    IndexInvariantError,
    WheelerGraph,
    WheelerRIndex,
    assign_identifiers,
    build_index,
    count,
    decompose_paths,
    deserialize_index,
    gen_multi_paths,
    gen_string_cycle,
    gen_string_path,
    gen_trie,
    locate,
    naive_match,
    serialize_index,
)
from wgrindex.build import DegreeSums, PhiStructure, ToeholdTable, _exceptions, build_bwt
from wgrindex.generators import is_primitive
from wgrindex.query import find_interval, phi, step_interval, step_toehold

from helpers import (
    bench_run,
    corpus_inputs,
    dense_refine,
    gen_confluent,
    labels_from_ascii,
    make_instance,
    marked_ids,
    random_patterns,
    rl_from_labels,
    shared_in_edge_graphs,
    transform_labels,
)

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


# --- step_interval ---

def dest_ids(g) -> list[int]:
    """The identifier of the destination of the edge at each transform position."""
    id_of = assign_identifiers(g, decompose_paths(g)).id_of_rank
    return [id_of[v] for v in build_bwt(g)[1]]


def test_step_interval_g1(g1, g1_index):
    ix = g1_index
    # (s', e', p, end): the refined ranks, the position of the last c, and
    # as p ends its run (each run of "aba" has length 1), its destination's id
    assert dest_ids(g1) == [0, 1, 3]
    assert step_interval(ix, 0, 3, 0) == (1, 2, 2, 3)
    assert step_interval(ix, 1, 2, 1) == (3, 3, 1, 1)
    assert step_interval(ix, 0, 3, 2) is None  # unseen label
    assert step_interval(ix, 2, 2, 0) is None  # no out-edges


def test_step_interval_label_that_never_occurs():
    # labels {0, 2}: label 1 lies inside the alphabet but has no runs
    ix = deserialize_index(serialize_index(build_index(gen_string_path((0, 2, 0)).graph)))
    assert ix.sigma == 3 and 1 not in ix.rl.runs_of  # no run counts: it occurs 0 times
    assert step_interval(ix, 0, ix.n - 1, 1) is None
    for pattern in [(1,), (0, 1), (1, 0), (2, 1)]:
        assert count(ix, pattern) == 0
        assert find_interval(ix, pattern) is None
        assert locate(ix, pattern) == []
    assert count(ix, (0, 2, 0)) == 1


def test_sparse_label_builds_and_answers_in_no_time():
    # The label offsets ride in the run counts, and a file's f_label lists
    # only the labels that occur, so nothing of length sigma is built: a
    # label of 10**9 used to allocate a dense f_label of 8 GB.
    start = time.perf_counter()
    g = WheelerGraph(n=3, edges=[(0, 1, 0), (1, 2, 10**9)])
    built = build_index(g)
    ix = deserialize_index(serialize_index(built))
    idof = assign_identifiers(g, decompose_paths(g)).id_of_rank
    assert ix == built and ix.sigma == 10**9 + 1
    assert count(ix, (10**9,)) == count(ix, (0, 10**9)) == 1
    assert count(ix, (0,)) == 1 and count(ix, (5,)) == count(ix, (10**9, 0)) == 0
    assert locate(ix, (0, 10**9)) == [idof[2]] and locate(ix, (0,)) == [idof[1]]
    assert sorted(locate(ix, ())) == [0, 1, 2]
    assert time.perf_counter() - start < 0.1


def test_sparse_label_saves_and_loads_in_time():
    # A save writes f_label, one pair per label that occurs, and a load
    # checks it. The limit is over 4x the 0.32 s that build, save, load and
    # queries took, when f_label was dense, on a 2-core x86_64 machine.
    start = time.perf_counter()
    g = WheelerGraph(n=3, edges=[(0, 1, 0), (1, 2, 10**6)])
    ix = deserialize_index(serialize_index(build_index(g)))
    idof = assign_identifiers(g, decompose_paths(g)).id_of_rank
    assert ix.sigma == 10**6 + 1
    assert count(ix, (0, 10**6)) == 1 and count(ix, (5,)) == count(ix, (10**6, 0)) == 0
    assert locate(ix, (10**6,)) == [idof[2]] and locate(ix, (0,)) == [idof[1]]
    assert time.perf_counter() - start < 1.5


# --- the refine step against dense references ---

@st.composite
def refine_inputs(draw):
    """Out- and in-degree lists with one total m, and m labels over
    [0, 4): the step's arithmetic must match the dense reference on any of
    them, not only on those of a Wheeler graph."""
    out_degrees = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    n, m = len(out_degrees), sum(out_degrees)
    dsts = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    return out_degrees, [dsts.count(k) for k in range(n)], labels


@settings(max_examples=300)
@given(refine_inputs())
def test_refine_matches_dense_reference(inputs):
    """step_interval finds the out-range, the rank and last position of c in it,
    the vertex ranks of two in-slots (clamped at in-degree exceptions) and
    the run-end identifier at that position, exactly as dense prefix arrays
    and a scan do. Run ends take made-up identifiers, 100 + position."""
    out_degrees, in_degrees, labels = inputs
    n, sigma = len(out_degrees), 4
    f_label = [0] + list(accumulate(labels.count(c) for c in range(sigma)))
    id_at = [100 + p for p in range(len(labels))]
    ix = WheelerRIndex(
        n=n, m=len(labels), sigma=sigma, num_paths=0, break_ranks=[],
        last_rank_id=None,
        rl=rl_from_labels(labels, id_at),
        sums=DegreeSums(*_exceptions(out_degrees), *_exceptions(in_degrees)),
        toehold=ToeholdTable({}), phi=PhiStructure(array("b"), array("b")),
    )
    for s, e in combinations_with_replacement(range(n), 2):
        for c in range(sigma + 1):  # label 4 never occurs
            want = dense_refine(labels, id_at, out_degrees, in_degrees, f_label, s, e, c)
            assert step_interval(ix, s, e, c) == want, (s, e, c)


def check_steps(g, ix, labels) -> None:
    """step_interval on every interval and label of g against the dense
    reference, the run-end identifier against id_of_rank of the destination
    at p; every step that matches gives a non-empty interval of ranks,
    0 <= s' <= e' < n, so no query needs an inverted-pair check."""
    f_label = [0] + list(accumulate(labels.count(c) for c in range(g.sigma)))
    id_at = dest_ids(g)
    for s, e in combinations_with_replacement(range(g.n), 2):
        for c in range(g.sigma + 1):
            want = dense_refine(labels, id_at, g.out_degrees, g.in_degrees, f_label, s, e, c)
            got = step_interval(ix, s, e, c)
            assert got == want, (s, e, c)
            if got is not None:
                assert 0 <= got[0] <= got[1] < g.n, (s, e, c, got)


@settings(max_examples=60)
@given(instances())
def test_step_interval_matches_dense_reference(inst):
    check_steps(inst.graph, inst.index, inst.bwt_labels)


@pytest.fixture(scope="module")
def shared_in_edges():
    """Rejection-sampled graphs, n <= 8, and the corpus's confluent graphs
    with n >= 30, whose in-slots clamp at many in-degree exceptions."""
    confluent = [gen_confluent(arg).graph for family, arg in corpus_inputs() if family == "confluent"]
    big = [g for g in confluent if g.n >= 30 and max(g.in_degrees) > 1][:40]
    return shared_in_edge_graphs(150, seed=20261018) + big


def test_shared_in_edge_graphs_match_oracle(shared_in_edges):
    """Wheeler graphs where some vertex has in-degree above 1, so the
    in-slot clamp matters: every step against the dense reference, and
    count and locate of every pattern up to length 3 over sigma + 1 labels
    against the oracle, after a save/load round trip."""
    checked = 0
    for g in shared_in_edges:
        assert max(g.in_degrees) > 1
        ix = deserialize_index(serialize_index(build_index(g)))
        check_steps(g, ix, transform_labels(g))
        idof = assign_identifiers(g, decompose_paths(g)).id_of_rank
        for length in range(4):
            for pat in itertools.product(range(g.sigma + 1), repeat=length):
                hits = naive_match(g, pat)
                assert count(ix, pat) == len(hits), (g, pat)
                assert sorted(locate(ix, pat)) == sorted(idof[r] for r in hits), (g, pat)
                checked += 1
    assert checked > 4_000
    assert sum(g.n >= 30 for g in shared_in_edges) == 40


# --- count ---

def test_count_g1(g1_index):
    ix = g1_index
    assert count(ix, (0,)) == 2
    assert count(ix, (0, 1)) == 1
    assert count(ix, (1, 0)) == 1
    assert count(ix, (1, 1)) == 0
    assert count(ix, ()) == 4
    assert count(ix, (0, 1, 0)) == 1
    assert count(ix, (25, 25)) == 0


def test_count_edgeless_graph():
    ix = build_index(WheelerGraph(n=5, edges=[]))
    assert count(ix, ()) == 5
    assert count(ix, (0,)) == 0
    assert locate(ix, ()) == [4, 3, 2, 1, 0]


def test_count_zero_vertex_graph():
    ix = build_index(WheelerGraph(n=0, edges=[]))
    assert count(ix, ()) == 0
    assert count(ix, (0,)) == 0
    assert locate(ix, ()) == []
    assert find_interval(ix, (0,)) is None


# --- toehold stepping ---

def test_step_toehold_g1_case_b(g1_index):
    # rank 2 has out-degree 0, so the step must fall back to the interval-
    # wide last occurrence, which is marked
    assert step_toehold(g1_index, 1, 2, 3, 1) == (3, 3, 1)


def test_step_toehold_g1_case_a_marked(g1_index):
    assert step_toehold(g1_index, 3, 3, 1, 0) == (2, 2, 3)


def test_step_toehold_empty_result(g1_index):
    # rank 3's only out-label is a, so extending by b matches nothing
    assert step_toehold(g1_index, 3, 3, 1, 1) is None
    assert step_toehold(g1_index, 0, 3, 1, 5) is None


def test_step_toehold_unmarked_increments_by_one():
    """Interior step through an unmarked position applies the +1 rule.

    In the union of the chains for "abaa" and "bbaa", the pattern "ab" ends
    exactly at the interior vertex of the first chain whose out-edge sits
    mid-run and touches no path endpoint, so extending by "a" must take the
    stored-pair bypass.
    """
    inst = make_instance("multi", gen_multi_paths([(0, 1, 0, 0), (1, 1, 0, 0)]))
    ix = inst.index
    assert inst.ids.id_of_rank == [6, 7, 0, 8, 9, 2, 5, 3, 1, 4]
    assert sorted(marked_ids(ix.rl, ix.toehold)) == [0, 1, 2, 3, 4, 5, 7]
    st_ab = find_interval(ix, (0, 1))
    assert st_ab == (8, 8, 1)
    st_aba = step_toehold(ix, *st_ab, 0)
    # position 6 is unmarked, so 2 can only have come from last_id + 1
    assert st_aba == (5, 5, 2)
    assert inst.ids.id_of_rank[5] == 2


def test_step_toehold_unmarked_out_of_range_hit_is_corrupt():
    # in "abba" rank 2 has out-degree 0, so the step from [1, 2] by b lands
    # on position 1, before rank 2's (empty) out-range: not a run end, but
    # an extra (rule M3). Without its stored pair the +1 rule does not
    # apply and the index is corrupt
    ix = build_index(gen_string_path((0, 1, 1, 0)).graph)
    assert ix.toehold.pairs == {1: 1} and step_toehold(ix, 1, 2, 4, 1) == (3, 3, 1)
    del ix.toehold.pairs[1]
    with pytest.raises(IndexInvariantError):
        step_toehold(ix, 1, 2, 4, 1)
    with pytest.raises(IndexInvariantError):
        locate(ix, (0, 1))


@settings(max_examples=150)
@given(instances())
def test_find_interval_single_label_matches_oracle(inst):
    # find_interval's first step is step_toehold from the full interval; its
    # interval and identifier come from the oracle's ranks, not the index
    ix, id_of = inst.index, inst.ids.id_of_rank
    for c in range(ix.sigma + 1):
        hits = naive_match(inst.graph, (c,))
        st = find_interval(ix, (c,))
        if not hits:
            assert st is None, c
            continue
        assert st == (min(hits), max(hits), id_of[max(hits)]), c


# --- find_interval ---

def test_find_interval_g1(g1_index):
    assert find_interval(g1_index, (0,)) == (1, 2, 3)
    assert find_interval(g1_index, (0, 1)) == (3, 3, 1)
    assert find_interval(g1_index, (0, 2)) is None
    assert find_interval(g1_index, ()) == (0, 3, g1_index.last_rank_id)  # the full state


# --- pattern labels ---

@pytest.mark.parametrize("bad", ["a", None, 1.0, 1.5, True, False])
def test_non_int_label_rejected(g1_index, bad):
    for pattern in [(bad,), (0, bad), (0, 1, bad)]:
        with pytest.raises(ValueError, match="not an int"):
            count(g1_index, pattern)
        with pytest.raises(ValueError, match="not an int"):
            find_interval(g1_index, pattern)
        with pytest.raises(ValueError, match="not an int"):
            locate(g1_index, pattern)
    with pytest.raises(ValueError):
        count(g1_index, "ab")


def test_pattern_may_be_an_iterator(g1_index):
    assert count(g1_index, iter((0, 1))) == 1
    assert find_interval(g1_index, iter((0, 1))) == find_interval(g1_index, (0, 1))
    assert locate(g1_index, iter((0, 1))) == locate(g1_index, (0, 1))
    assert locate(g1_index, (c for c in (0, 1))) == locate(g1_index, (0, 1)) == [1]
    assert sorted(locate(g1_index, iter(()))) == [0, 1, 2, 3]


def test_int_label_outside_alphabet_counts_zero(g1_index):
    for pattern in [(-1,), (2,), (0, -1), (0, 10**20)]:
        assert count(g1_index, pattern) == 0
        assert find_interval(g1_index, pattern) is None
        assert locate(g1_index, pattern) == []


# --- phi ---

def test_phi_g1(g1_index):
    assert phi(g1_index, 0) == 2
    assert phi(g1_index, 3) == 0
    assert phi(g1_index, 1) == 3
    with pytest.raises(FirstInOrderError):
        phi(g1_index, 2)
    with pytest.raises(ValueError):
        phi(g1_index, 4)
    with pytest.raises(ValueError):
        phi(g1_index, -1)


@settings(max_examples=150)
@given(instances())
def test_phi_chain_enumerates_all_ranks(inst):
    ix = inst.index
    if ix.n == 0:
        return
    ids = [ix.last_rank_id]
    for _ in range(ix.n - 1):
        ids.append(phi(ix, ids[-1]))
    assert ids == [inst.ids.id_of_rank[k] for k in range(ix.n - 1, -1, -1)]
    with pytest.raises(FirstInOrderError):
        phi(ix, ids[-1])


# --- locate ---

def test_locate_g1(g1_index):
    assert locate(g1_index, (0,)) == [3, 0]
    assert locate(g1_index, (1, 0)) == [3]
    assert locate(g1_index, (25, 25)) == []
    assert locate(g1_index, ()) == [1, 3, 0, 2]


# --- cross-cutting properties ---

@settings(max_examples=120)
@given(instances(), st.integers(0, 2**31))
def test_oracle_equivalence(inst, seed):
    g, ix = inst.graph, inst.index
    idof = inst.ids.id_of_rank
    for pat in random_patterns(g, 6, seed, count=12):
        hits = naive_match(g, pat)
        assert count(ix, pat) == len(hits), pat
        loc = locate(ix, pat)
        assert len(loc) == len(set(loc)) == len(hits), pat
        assert sorted(loc) == sorted(idof[r] for r in hits), pat


@settings(max_examples=120)
@given(instances(), st.integers(0, 2**31))
def test_monotone_refinement(inst, seed):
    ix = inst.index
    for pat in random_patterns(inst.graph, 5, seed, count=8):
        for k in range(len(pat)):
            assert count(ix, pat[: k + 1]) <= count(ix, pat[:k])


@settings(max_examples=120)
@given(instances(), st.integers(0, 2**31), st.integers(0, 3))
def test_empty_is_absorbing(inst, seed, extra):
    """Once a pattern stops matching, every extension keeps count 0 and an
    empty locate; this is what lets exhaustive sweeps prune at empty nodes."""
    ix = inst.index
    for pat in random_patterns(inst.graph, 4, seed, count=6):
        if count(ix, pat) == 0:
            ext = tuple(pat) + (extra,)
            assert count(ix, ext) == 0
            assert locate(ix, ext) == []


def test_g1_exhaustive_patterns(g1, g1_index):
    idof = [2, 0, 3, 1]
    for length in range(0, 7):
        for pat in itertools.product(range(2), repeat=length):
            hits = naive_match(g1, pat)
            assert count(g1_index, pat) == len(hits)
            assert sorted(locate(g1_index, pat)) == sorted(idof[r] for r in hits)


def test_query_call_paths_reach_traced_hooks(monkeypatch):
    """count and locate reach the functions and index attributes that
    perfbench --trace 1 wraps, through lookups made at call time: its
    per-layer metrics divide by these call counts. Both queries take every
    step through step_interval, which alone calls rank, once per step."""
    ix = build_index(gen_string_path((0, 1, 0, 1, 0)).graph)
    calls: Counter = Counter()
    stack = [None]

    def counting(name, fn):
        def wrapper(*args):
            calls[name, stack[-1]] += 1
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()
        return wrapper

    funcs = bench_run().QUERY_FUNCS
    for name in funcs:
        monkeypatch.setattr(query_mod, name, counting(name, getattr(query_mod, name)))
    monkeypatch.setattr(ix.rl, "rank", counting("rank", ix.rl.rank))
    monkeypatch.setattr(ix.phi, "successor", counting("successor", ix.phi.successor))

    class Pairs(dict):
        pass

    pairs = Pairs(ix.toehold.pairs)
    pairs.get = counting("pairs.get", pairs.get)
    monkeypatch.setattr(ix.toehold, "pairs", pairs)

    pattern = (0, 1, 0)  # "aba" ends at two vertices
    assert query_mod.count(ix, pattern) == 2
    assert calls["count", None] == 1
    assert calls["step_interval", "count"] == 3
    assert calls["rank", "step_interval"] == 3  # one rank search per step
    assert [caller for name, caller in calls if name == "rank"] == ["step_interval"]
    checked = {name for name, _ in calls}
    calls.clear()
    assert len(query_mod.locate(ix, pattern)) == 2
    assert calls["locate", None] == 1
    assert calls["find_interval", "locate"] == 1
    assert calls["step_toehold", "find_interval"] == 3  # one per label, from the full state
    assert calls["step_interval", "step_toehold"] == 3
    assert calls["rank", "step_interval"] == 3
    assert [caller for name, caller in calls if name == "rank"] == ["step_interval"]
    assert calls["pairs.get", "step_toehold"] == 3
    assert calls["phi", "locate"] == 1
    assert calls["successor", "phi"] == 1
    checked |= {name for name, _ in calls}
    assert set(funcs) == checked - {"rank", "successor", "pairs.get"}


def trace_shaped_graphs():
    """Small graphs of the benchmark's shapes: a random 4-letter string, 20
    copies of a 60-symbol string with 3 substitutions each as a multi-path
    union, and a cycle."""
    rng = random.Random(31)
    text = [rng.randrange(4) for _ in range(400)]
    base = [rng.randrange(4) for _ in range(60)]
    copies = []
    for _ in range(20):
        copy = list(base)
        for _ in range(3):
            copy[rng.randrange(len(copy))] = rng.randrange(4)
        copies.append(copy)
    return [gen_string_path(text).graph, gen_multi_paths(copies).graph,
            gen_string_cycle(labels_from_ascii("abcabbacbbacabcca")).graph]


@pytest.mark.parametrize("shape", range(3), ids=["rand-string", "rep-multi", "cycle"])
def test_traced_toehold_misses_are_the_unmarked_positions(shape):
    """perfbench --trace 1 wraps toehold.pairs.get and counts a None result
    in a step_toehold as a +1 step. A step's one get has the run end's
    identifier, or None, as its default, so with the same wrapping every
    None falls at an unmarked position, neither a run end nor an extra,
    and every other result at a marked one, with its stored identifier;
    the tally counts exactly the Nones."""
    g = trace_shaped_graphs()[shape]
    ix = build_index(g)
    marks = marked_ids(ix.rl, ix.toehold)
    run = bench_run()
    tracer, tallies = run.Tracer(), {"toehold_steps": 0, "toehold_plus1": 0, "phi_offset": 0}
    for name in run.QUERY_FUNCS:
        tracer.wrap(query_mod, name, name)
    run.instrument_index(tracer, ix, tallies)
    traced_get, seen = ix.toehold.pairs.get, []

    def recording_get(p, default):
        result = traced_get(p, default)
        seen.append((p, result))
        return result

    ix.toehold.pairs.get = recording_get
    try:
        for pattern in random_patterns(g, 8, seed=shape, count=200):
            query_mod.locate(ix, pattern)
    finally:
        tracer.restore()
    assert tallies["toehold_steps"] == len(seen) > 200
    assert tallies["toehold_plus1"] == sum(result is None for _, result in seen) > 0
    for p, result in seen:
        assert result == marks.get(p), p
