import pytest
from hypothesis import given, settings, strategies as st

from wgrindex import (
    build_index,
    count,
    decompose_paths,
    gen_multi_paths,
    gen_string_cycle,
    gen_string_path,
    gen_trie,
    naive_match,
    validate_wheeler,
)
from wgrindex.build import build_bwt, build_rank_select
from wgrindex.generators import is_primitive

from helpers import (
    FAMILIES,
    corpus_inputs,
    gen_confluent,
    labels_from_ascii,
    naive_runs,
    random_patterns,
    reference_is_primitive,
    run_starts_of,
    suffix_array,
    transform_labels,
)

label_strings = st.lists(st.integers(0, 3), max_size=14).map(tuple)


def test_labels_from_ascii():
    assert labels_from_ascii("aba") == (0, 1, 0)
    assert labels_from_ascii("") == ()
    with pytest.raises(ValueError):
        labels_from_ascii("A")


# --- suffix array ---

@settings(max_examples=200)
@given(st.lists(st.integers(0, 3), max_size=40))
def test_suffix_array_matches_naive_sort(seq):
    seq = tuple(seq)
    expected = sorted(range(len(seq)), key=lambda i: seq[i:])
    assert suffix_array(seq) == expected


def test_suffix_array_empty():
    assert suffix_array(()) == []


# --- string paths ---

def test_string_path_aba_is_g1(g1):
    assert gen_string_path(labels_from_ascii("aba")).graph == g1


def test_string_path_empty():
    g = gen_string_path(()).graph
    assert (g.n, g.m) == (1, 0)


def test_string_path_unary_single_run():
    g = gen_string_path((0, 0, 0, 0)).graph
    rl = build_rank_select(build_bwt(g)[0])
    assert (run_starts_of(rl), rl.run_labels) == ([0], [0])


@settings(max_examples=200)
@given(label_strings)
def test_string_path_order_is_colex(s):
    """Vertex ranks equal the sort order of prefixes by reversed value."""
    g = gen_string_path(s).graph
    assert validate_wheeler(g).is_wheeler
    prefixes = [s[:i][::-1] for i in range(len(s) + 1)]
    expected_rank = {i: r for r, i in enumerate(sorted(range(len(prefixes)), key=prefixes.__getitem__))}
    # walk the chain and compare each vertex's rank
    rank = [None] * (len(s) + 1)
    # recover vertex ranks from the edges: start vertex has in-degree 0
    cur = next(v for v in range(g.n) if g.in_degrees[v] == 0) if s else 0
    out = {u: (v, lab) for u, v, lab in g.edges}
    rank[0] = cur
    for i in range(len(s)):
        cur = out[cur][0]
        rank[i + 1] = cur
    assert rank == [expected_rank[i] for i in range(len(s) + 1)]


# --- string cycles ---

def test_cycle_two_labels():
    inst = gen_string_cycle((0, 1))
    g = inst.graph
    assert validate_wheeler(g).is_wheeler
    assert sorted(g.edges) == [(0, 1, 1), (1, 0, 0)]
    assert decompose_paths(g).num_paths == 1


def test_cycle_rejects_non_primitive():
    with pytest.raises(ValueError, match="primitive"):
        gen_string_cycle((0, 0))
    with pytest.raises(ValueError, match="primitive"):
        gen_string_cycle(())
    with pytest.raises(ValueError, match="primitive"):
        gen_string_cycle((0, 1, 0, 1))


@settings(max_examples=150)
@given(label_strings.filter(is_primitive))
def test_cycle_valid_and_single_path(s):
    g = gen_string_cycle(s).graph
    assert validate_wheeler(g).is_wheeler
    assert decompose_paths(g).num_paths == 1


def test_is_primitive():
    assert is_primitive((0,))
    assert is_primitive((0, 1))
    assert not is_primitive((0, 0))
    assert not is_primitive((0, 1, 0, 1, 0, 1))
    assert not is_primitive(())


@settings(max_examples=300)
@given(st.one_of(
    label_strings,
    st.tuples(st.lists(st.integers(0, 2), min_size=1, max_size=5), st.integers(1, 6))
    .map(lambda t: tuple(t[0]) * t[1]),
))
def test_is_primitive_matches_all_rotations(s):
    """Comparing the rotations by proper divisors of the length decides as
    comparing every rotation does."""
    assert is_primitive(s) == reference_is_primitive(s)


def test_cycle_of_a_long_primitive_string():
    # one suffix array of 60k symbols; sorting all-label rotation keys
    # would need about n^2 = 9e8 labels
    s = (1,) + (0,) * 29_999
    g = gen_string_cycle(s).graph
    assert (g.n, g.m) == (30_000, 30_000)
    # co-lex order: vertex 0, entered after n - 1 zeros, is first; vertex 1,
    # entered by the 1, is last; vertex 2 is the last one entered by a 0
    assert g.edges[:2] == [(0, g.n - 1, 1), (g.n - 1, g.n - 2, 0)]
    assert validate_wheeler(g).is_wheeler


# --- multi paths ---

def test_multi_duplicate_strings():
    g = gen_multi_paths([(0, 1), (0, 1)]).graph
    assert decompose_paths(g).num_paths == 2
    assert count(build_index(g), (1,)) == 2


def test_multi_singleton_matches_string_path():
    assert gen_multi_paths([(0,)]).graph == gen_string_path((0,)).graph


def test_multi_copies_of_a():
    for k in (1, 3, 7):
        g = gen_multi_paths([(0,)] * k).graph
        assert decompose_paths(g).num_paths == k


def test_multi_rejects_empty_list():
    with pytest.raises(ValueError):
        gen_multi_paths([])


@settings(max_examples=150)
@given(st.lists(label_strings, min_size=1, max_size=5))
def test_multi_valid_and_path_count(strs):
    g = gen_multi_paths(strs).graph
    assert validate_wheeler(g).is_wheeler
    assert decompose_paths(g).num_paths == len(strs)


# --- tries ---

def test_trie_two_branches():
    g = gen_trie([(0, 1), (0, 2)]).graph
    assert g.n == 4
    ix = build_index(g)
    assert count(ix, (0,)) == 1
    assert count(ix, (1,)) == 1


def test_trie_root_only():
    g = gen_trie([()]).graph
    assert (g.n, g.m) == (1, 0)


@settings(max_examples=100)
@given(st.lists(label_strings, min_size=1, max_size=20), st.integers(0, 2**31))
def test_trie_valid_and_oracle_equivalent(strs, seed):
    g = gen_trie(strs).graph
    assert validate_wheeler(g).is_wheeler
    ix = build_index(g)
    for pat in random_patterns(g, 5, seed, count=8):
        assert count(ix, pat) == len(naive_match(g, pat))


# --- parity with the generators that sort materialised keys ---

def generated_or_error(gen, arg):
    try:
        return gen(arg)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 3), max_size=40).map(tuple))
def test_string_path_matches_reference(s):
    gen, ref = FAMILIES["string"]
    assert gen(s) == ref(s)


@settings(max_examples=200)
@given(st.one_of(label_strings, label_strings.map(lambda s: s * 2)))
def test_string_cycle_matches_reference(s):
    gen, ref = FAMILIES["cycle"]
    assert generated_or_error(gen, s) == generated_or_error(ref, s)


@settings(max_examples=200)
@given(st.lists(label_strings, max_size=6))
def test_multi_paths_match_reference(strs):
    gen, ref = FAMILIES["multi"]
    assert generated_or_error(gen, strs) == generated_or_error(ref, strs)


@settings(max_examples=200)
@given(st.lists(label_strings, max_size=20))
def test_trie_matches_reference(strs):
    gen, ref = FAMILIES["trie"]
    assert generated_or_error(gen, strs) == generated_or_error(ref, strs)


def test_corpus_inputs_generate_as_the_references_do():
    """Same graphs, edge order and provenance on every input of build_corpus
    whose family has a reference generator."""
    for family, arg in corpus_inputs():
        gen, ref = FAMILIES[family]
        if ref is not None:
            assert gen(arg) == ref(arg), (family, arg)


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.integers(1, 4), st.integers(0, 60))
def test_confluent_graphs_are_wheeler(seed, sigma, extra):
    """gen_confluent meets A0-A2 by construction on any (seed, n, sigma)
    with n > sigma, and uses every label."""
    g = gen_confluent((seed, sigma + 1 + extra, sigma)).graph
    assert validate_wheeler(g).is_wheeler
    assert g.sigma == sigma and g.n == sigma + 1 + extra


def test_confluent_corpus_inputs_share_in_edges():
    """The corpus's confluent graphs are small and mostly have a vertex of
    in-degree above 1, which no other family makes."""
    graphs = [gen_confluent(arg).graph for family, arg in corpus_inputs() if family == "confluent"]
    assert len(graphs) == 300
    assert all(g.n <= 40 and g.sigma <= 4 for g in graphs)
    assert sum(max(g.in_degrees) > 1 for g in graphs) > 250
    others = [FAMILIES[f][0](arg).graph for f, arg in corpus_inputs() if f != "confluent"]
    assert all(max(g.in_degrees, default=0) <= 1 for g in others)


# --- random patterns ---

def test_random_patterns_deterministic(g1):
    assert random_patterns(g1, 6, seed=99) == random_patterns(g1, 6, seed=99)
    assert random_patterns(g1, 6, seed=99) != random_patterns(g1, 6, seed=100)


def test_random_patterns_walks_match(g1, g1_index):
    pats = random_patterns(g1, 6, seed=5, count=30)
    for t, pat in enumerate(pats):
        assert len(pat) <= 6
        if t % 2 == 0:  # walk slots are guaranteed matches
            assert count(g1_index, pat) >= 1


def test_pattern_with_absent_label_counts_zero():
    from wgrindex import WheelerGraph

    # labels 0 and 2: label 1 lies inside the alphabet but never occurs
    g = WheelerGraph(n=3, edges=[(0, 1, 0), (1, 2, 2)])
    ix = build_index(g)
    assert ix.sigma == 3
    assert count(ix, (1,)) == 0
    assert count(ix, (0, 1)) == 0
    assert count(ix, (0, 2)) == 1


def test_string_family_runs_match_naive():
    for s in [(0, 0, 0), (0, 1, 0, 1), (2, 2, 1, 1, 0)]:
        g = gen_string_path(s).graph
        rl = build_rank_select(build_bwt(g)[0])
        assert len(run_starts_of(rl)) == naive_runs(transform_labels(g))
