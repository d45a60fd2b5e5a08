import itertools

from hypothesis import given, settings, strategies as st

from wgrindex import WheelerGraph, assign_identifiers, decompose_paths, gen_string_path, naive_match

from helpers import check_contiguity, count_occurrences, naive_phi_table, naive_runs


def test_naive_match_g1(g1):
    assert naive_match(g1, (0,)) == {1, 2}
    assert naive_match(g1, ()) == {0, 1, 2, 3}
    assert naive_match(g1, (0, 1)) == {3}
    assert naive_match(g1, (0, 1, 0)) == {2}
    assert naive_match(g1, (1, 1)) == set()


@settings(max_examples=150)
@given(st.lists(st.integers(0, 2), max_size=15).map(tuple), st.lists(st.integers(0, 2), min_size=0, max_size=4).map(tuple))
def test_naive_match_on_string_path_counts_substrings(s, pat):
    """On a chain spelling s, match size equals the overlapping occurrence
    count of the pattern in s (both count end positions)."""
    g = gen_string_path(s).graph
    text = "".join(map(str, s))
    needle = "".join(map(str, pat))
    assert len(naive_match(g, pat)) == count_occurrences(text, needle)


def test_naive_phi_table_g1(g1):
    ids = assign_identifiers(g1, decompose_paths(g1))
    assert naive_phi_table(g1, ids) == [2, 3, None, 0]


def test_naive_phi_table_single_vertex():
    g = WheelerGraph(n=1, edges=[])
    ids = assign_identifiers(g, decompose_paths(g))
    assert naive_phi_table(g, ids) == [None]


def test_naive_phi_table_identity_ids():
    # an edgeless graph assigns identifiers in rank order
    g = WheelerGraph(n=4, edges=[])
    ids = assign_identifiers(g, decompose_paths(g))
    assert naive_phi_table(g, ids) == [None, 0, 1, 2]


def test_naive_runs():
    assert naive_runs([0, 1, 0]) == 3
    assert naive_runs([]) == 0
    assert naive_runs([0, 0, 0]) == 1
    assert naive_runs([1, 1, 2, 2, 2, 1]) == 3


def test_check_contiguity_g1(g1):
    assert check_contiguity(g1, (0,))
    for length in range(0, 7):
        for pat in itertools.product(range(2), repeat=length):
            assert check_contiguity(g1, pat)
