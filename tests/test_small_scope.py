"""Small-scope exhaustive check: every Wheeler graph up to a small size.

The corpus is every multiset of at most max_m edges over n <= 4 vertices
and the labels {0, 1}, kept when validate_wheeler accepts its numbering.
Each graph is built, saved and loaded; the loaded index equals the built
one, keeps the paper's space budgets, gives the full state for the empty
pattern, answers count and locate of every pattern of up to 3 labels over
{0, 1, 2} as naive_match does, and a save of it gives back the saved bytes.
A build and a load each make the run-order column of run-end identifiers,
so both are checked on every graph. Bugs that show on a large
input almost always show on some small one too, and the small ones can all
be tried (Jackson's small-scope hypothesis).
"""

from itertools import combinations_with_replacement, product

import pytest

from wgrindex import (
    WheelerGraph,
    assign_identifiers,
    build_index,
    count,
    decompose_paths,
    deserialize_index,
    locate,
    naive_match,
    serialize_index,
    space_report,
    validate_wheeler,
)
from wgrindex.query import find_interval

PATTERNS = [pattern for length in range(4) for pattern in product(range(3), repeat=length)]


def small_wheeler_graphs(max_m: int) -> list[WheelerGraph]:
    """The Wheeler graphs with n <= 4, sigma <= 2 and m <= max_m, one per edge multiset."""
    out = []
    for n in range(5):
        edges = list(product(range(n), range(n), range(2)))
        for m in range(max_m + 1):
            for chosen in combinations_with_replacement(edges, m):
                g = WheelerGraph(n=n, edges=list(chosen))
                if validate_wheeler(g).is_wheeler:
                    out.append(g)
    return out


def check_round_trip_answers(g: WheelerGraph) -> None:
    built = build_index(g)
    data = serialize_index(built)
    ix = deserialize_index(data)
    assert ix == built, g
    assert serialize_index(ix) == data, g
    space = space_report(ix)
    assert space.marked_count <= space.marked_bound, g
    assert space.anchor_count <= space.anchor_bound, g
    assert space.degree_exceptions <= space.degree_bound, g
    assert find_interval(ix, ()) == ((0, g.n - 1, ix.last_rank_id) if g.n else None), g
    id_of = assign_identifiers(g, decompose_paths(g)).id_of_rank
    for pattern in PATTERNS:
        hits = naive_match(g, pattern)
        assert count(ix, pattern) == len(hits), (g, pattern)
        assert sorted(locate(ix, pattern)) == sorted(id_of[r] for r in hits), (g, pattern)


@pytest.mark.parametrize("max_m, graphs", [
    (4, 2_807),
    pytest.param(5, 10_655, marks=pytest.mark.slow),
])
def test_every_small_wheeler_graph_answers_as_the_oracle(max_m, graphs):
    corpus = small_wheeler_graphs(max_m)
    assert len(corpus) == graphs
    for g in corpus:
        check_round_trip_answers(g)
