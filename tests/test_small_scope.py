"""Small-scope exhaustive check: every Wheeler graph up to a small size.

The corpus is every multiset of at most max_m edges over n <= 4 vertices
and the labels {0, 1}, kept when validate_wheeler accepts its numbering.
Each graph is built, saved and loaded; the loaded index equals the built
one, keeps the paper's space budgets, gives the full state for the empty
pattern, answers count and locate of every pattern of up to 3 labels over
{0, 1, 2} as naive_match does, and a save of it gives back the saved bytes.
A build groups the runs by label and a load reads them label by label, so
both are checked on every graph. Bugs that show on a large
input almost always show on some small one too, and the small ones can all
be tried (Jackson's small-scope hypothesis).

The same corpus feeds two edit sweeps of every file of the m <= 4
corpus, each edit resealed: one int changed by a little, and one section
entry dropped, duplicated or swapped with the next (run_starts holds one
section per label, each edited on its own). A load raises nothing
but ValueError; no int edit of break_ranks, num_paths or last_rank_id
loads, and no drop or duplicate loads.
"""

from itertools import product

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
)
from wgrindex.build import _SECTIONS
from wgrindex.query import find_interval

from helpers import doc_of, file_of, small_wheeler_graphs

PATTERNS = [pattern for length in range(4) for pattern in product(range(3), repeat=length)]
HEADER = ("n", "m", "num_paths", "last_rank_id")


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


def sections(doc: dict, field: str):
    """Each int list that a member of an index document holds, with a
    function that gives the member with an edited copy in its place:
    run_starts holds one list per label, every other section one list."""
    if field != "run_starts":
        return [(doc[field], lambda values: values)]
    lists = doc[field]
    return [(values, lambda edited, k=k: lists[:k] + [edited] + lists[k + 1:]) for k, values in enumerate(lists)]


def int_edits(doc: dict):
    """Each edit of one int of an index document by -2, -1, +1 or +2, a
    header number or a section entry, as (field, edited value)."""
    for field in HEADER:
        if doc[field] is not None:
            for delta in (-2, -1, 1, 2):
                yield field, doc[field] + delta
    for field in _SECTIONS:
        for values, put in sections(doc, field):
            for i, delta in product(range(len(values)), (-2, -1, 1, 2)):
                yield field, put(values[:i] + [values[i] + delta] + values[i + 1:])


@pytest.mark.slow
def test_every_single_int_edit_of_a_small_index_fails_cleanly_or_loads():
    """Every single-int edit of every m <= 4 file, resealed, either raises
    ValueError at load or loads; none of break_ranks, num_paths and
    last_rank_id loads edited. 11,884 edits loaded when this test was
    written, and as many of the version-7 files, whose run_labels holds a
    label per label rather than per run; a stricter load may only lower
    that."""
    edits = loaded = 0
    for g in small_wheeler_graphs(4):
        doc = doc_of(build_index(g))
        for field, value in int_edits(doc):
            edits += 1
            try:
                deserialize_index(file_of({**doc, field: value}))
            except ValueError:
                continue
            assert field not in ("break_ranks", "num_paths", "last_rank_id"), (g, field, value)
            loaded += 1
    assert edits == 348_460
    assert loaded <= 11_884


def entry_edits(doc: dict):
    """Each drop and duplicate of one section entry of an index document,
    and each swap of two neighbouring entries, as (edit, field, edited
    list)."""
    for field in _SECTIONS:
        for values, put in sections(doc, field):
            for i in range(len(values)):
                yield "drop", field, put(values[:i] + values[i + 1:])
                yield "duplicate", field, put(values[:i + 1] + values[i:])
            for i in range(len(values) - 1):
                yield "swap", field, put(values[:i] + [values[i + 1], values[i]] + values[i + 2:])


@pytest.mark.slow
def test_every_single_entry_edit_of_a_small_index_fails_cleanly_or_loads():
    """Every drop, duplicate and neighbour swap of one section entry of
    every m <= 4 file, resealed, either raises ValueError at load or loads,
    and only swaps load, those of two equal entries among them. 14,984
    edits loaded when this test was written, 14,934 of the version-7
    files, and a stricter load may only lower that."""
    edits = loaded = 0
    for g in small_wheeler_graphs(4):
        doc = doc_of(build_index(g))
        for edit, field, value in entry_edits(doc):
            edits += 1
            try:
                deserialize_index(file_of({**doc, field: value}))
            except ValueError:
                continue
            assert edit == "swap", (g, field, value)
            loaded += 1
    assert edits == 200_901
    assert loaded <= 14_934
