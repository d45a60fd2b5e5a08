import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from wgrindex import (
    WgfParseError,
    WheelerGraph,
    assign_identifiers,
    decompose_paths,
    gen_multi_paths,
    gen_string_cycle,
    gen_string_path,
    gen_trie,
    parse_graph,
    to_wgf,
    validate_wheeler,
)
from wgrindex.generators import is_primitive
from wgrindex.graph import PathDecomposition, transform_order

from helpers import (
    G1_TEXT,
    assert_walk_matches_reference,
    broken_cycle_graphs,
    build_corpus,
    exhaustive_axiom_check,
    gen_confluent,
    naive_run_groups,
    reference_decomposition,
    reference_parse_graph,
    reference_validation,
    shared_in_edge_graphs,
    small_graphs,
)


# --- strategies ---

label_strings = st.lists(st.integers(0, 3), max_size=12).map(tuple)


@st.composite
def arbitrary_graphs(draw):
    """Random multigraphs, mostly not valid Wheeler orders."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 14))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, 3)),
        )
        for _ in range(m)
    ]
    return WheelerGraph(n=n, edges=edges)


@st.composite
def generated_graphs(draw):
    family = draw(st.sampled_from(["string", "cycle", "multi", "trie"]))
    if family == "string":
        return gen_string_path(draw(label_strings)).graph
    if family == "cycle":
        return gen_string_cycle(draw(label_strings.filter(is_primitive))).graph
    if family == "multi":
        return gen_multi_paths(draw(st.lists(label_strings, min_size=1, max_size=4))).graph
    return gen_trie(draw(st.lists(label_strings, min_size=1, max_size=6))).graph


@st.composite
def maybe_mutated_graphs(draw):
    """Generated (valid) graphs, with one edge optionally rewired."""
    g = draw(generated_graphs())
    if g.m and draw(st.booleans()):
        i = draw(st.integers(0, g.m - 1))
        u, v, lab = g.edges[i]
        which = draw(st.sampled_from(["src", "dst", "label"]))
        if which == "src":
            u = draw(st.integers(0, g.n - 1))
        elif which == "dst":
            v = draw(st.integers(0, g.n - 1))
        else:
            lab = draw(st.integers(0, 3))
        edges = list(g.edges)
        edges[i] = (u, v, lab)
        g = WheelerGraph(n=g.n, edges=edges)
    return g


# --- parsing ---

def test_parse_g1(g1):
    assert g1.n == 4
    assert g1.m == 3
    assert g1.sigma == 2
    assert g1.edges == [(0, 1, 0), (1, 3, 1), (3, 2, 0)]
    assert g1.out_degrees == [1, 1, 0, 1]
    assert g1.in_degrees == [0, 1, 1, 1]


def test_parse_single_vertex():
    g = parse_graph("n 1\nm 0\n")
    assert (g.n, g.m, g.sigma) == (1, 0, 0)


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\nn 4\n# sizes\nm 3\ne 0 1 0\n\ne 1 3 1\ne 3 2 0\n"
    assert parse_graph(text) == parse_graph(G1_TEXT)


def test_parse_preserves_duplicate_edges():
    g = parse_graph("n 2\nm 2\ne 0 1 0\ne 0 1 0\n")
    assert g.edges == [(0, 1, 0), (0, 1, 0)]


# (text, the fragment each case is named by, the full message)
PARSE_ERRORS = [
    ("n 2\nm 1\ne 0 5 0\n", "line 3", "line 3: destination rank 5 out of range (n=2)"),
    ("n 2\nm 1\ne 5 0 0\n", "line 3", "line 3: source rank 5 out of range (n=2)"),
    ("n 2\nm 1\nedge 0 1 0\n", "line 3", "line 3: expected 'e' record with 3 integer field(s)"),
    ("n 2\nm 1\ne 0 1\n", "line 3", "line 3: expected 'e' record with 3 integer field(s)"),
    ("n 2\nm 1\ne 0 1 -1\n", "line 3", "line 3: '-1' is not a non-negative decimal integer"),
    ("n x\nm 0\n", "line 1", "line 1: 'x' is not a non-negative decimal integer"),
    ("m 0\nn 2\n", "line 1", "line 1: expected 'n' record with 1 integer field(s)"),
    ("n 2\n", "missing 'm'", "line 1: missing 'm' header after 'n'"),
    ("n 2\nm 2\ne 0 1 0\n", "unexpected end",
     "unexpected end of input: declared m=2 but found 1 edge lines"),
    ("n 2\nm 0\ne 0 1 0\n", "line 3", "line 3: more than the declared m=0 edge lines"),
    ("", "line 1", "line 1: missing 'n' header"),
]


@pytest.mark.parametrize(
    "text,message",
    [(text, message) for text, _, message in PARSE_ERRORS],
    ids=[f"{text}-{fragment}" for text, fragment, _ in PARSE_ERRORS],
)
def test_parse_errors(text, message):
    with pytest.raises(WgfParseError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit")
def test_parse_error_names_the_line_of_a_field_too_long_to_convert():
    # int() refuses more than 4,300 digits with a bare ValueError
    with pytest.raises(WgfParseError) as err:
        parse_graph("n 3\nm 1\ne 0 1 " + "9" * 5000 + "\n")
    assert str(err.value) == "line 3: a field of 5000 digits is too long"


def test_vertex_count_past_the_largest_list_is_a_value_error():
    # a list of 10**19 degrees raised OverflowError, outside the documented errors
    with pytest.raises(ValueError, match=rf"vertex count 10000000000000000000 is outside \[0, {sys.maxsize}\]"):
        parse_graph("n 10000000000000000000\nm 0\n")


WGF_EDITS = ["comment", "blank", "lead", "trail", "tab", "double", "arabic", "plus",
             "tag", "range", "empty", "drop", "repeat", "shift"]


@st.composite
def wgf_texts(draw):
    """to_wgf of a graph, with up to three edits that the format either
    ignores (comments, blank lines, CRLF, outer spaces and tabs) or rejects
    (inner tabs, double spaces, non-ASCII digits, signs, wrong tags, ranks
    out of range, empty fields, missing or extra lines, a field moved to
    the line before)."""
    g = draw(arbitrary_graphs() | generated_graphs())
    lines = to_wgf(g).splitlines()
    for edit in draw(st.lists(st.sampled_from(WGF_EDITS), max_size=3)):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if edit in ("comment", "blank"):
            lines.insert(i, draw(st.sampled_from(["# note", "#", ""])) if edit == "comment"
                         else draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "lead":
            lines[i] = draw(st.sampled_from([" ", "\t", "  "])) + line
        elif edit == "trail":
            lines[i] = line + draw(st.sampled_from([" ", "\t", "\x0c"]))
        elif edit in ("tab", "double"):
            lines[i] = line.replace(" ", "\t" if edit == "tab" else "  ", 1)
        elif edit in ("arabic", "plus"):
            digits = [k for k, ch in enumerate(line) if ch.isdigit()]
            if digits:
                k = draw(st.sampled_from(digits))
                lines[i] = line[:k] + ("\u0663" if edit == "arabic" else "+" + line[k]) + line[k + 1:]
        elif edit == "tag":
            lines[i] = draw(st.sampled_from(["e", "n", "m", "x", "E"])) + line[1:]
        elif edit in ("range", "empty"):
            fields = line.split(" ")
            if len(fields) > 1:
                k = draw(st.integers(1, min(2, len(fields) - 1)))
                fields[k] = str(g.n + draw(st.integers(0, 2))) if edit == "range" else ""
                lines[i] = " ".join(fields)
        elif edit == "drop":
            del lines[i]
        elif edit == "shift":
            if i + 1 < len(lines):
                first, _, rest = lines[i + 1].partition(" ")
                lines[i : i + 2] = [f"{line} {first}", rest]
        elif edit == "repeat":
            lines.insert(i, line)
        if not lines:
            break
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except WgfParseError as err:
        return str(err)


@settings(max_examples=400)
@given(wgf_texts())
@example("n 2\nm 1\ne 0 \u0663 0\n")  # an Arabic-Indic digit three
@example("n 2\nm 1\ne 0 +1 0\n")
@example("n 2\nm 1\ne  1 0\n")  # an empty field between single spaces
@example("n 3\nm 2\ne 0 1 0 e\n1 2 0\n")  # a tag moved to the line before
@example(" n 2 \r\n\t\r\n# c\r\nm 1\r\ne 0 1 0\x0c\r\n")
def test_parse_matches_line_by_line_reference(text):
    assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)


@settings(max_examples=300)
@given(st.sampled_from(["", "n 3\nm 2\n", "n 3\nm 1\ne 0 1 0\n"]),
       st.text(alphabet="nme 0129#\t\r\n\u0663+", max_size=30))
def test_parse_matches_reference_on_noise(prefix, noise):
    text = prefix + noise
    assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse_graph, text)


def test_wgf_roundtrip(g1):
    assert parse_graph(to_wgf(g1)) == g1


# --- transform order ---

@settings(max_examples=300)
@given(arbitrary_graphs() | generated_graphs())
def test_transform_order_is_the_stable_source_destination_sort(g):
    # the counting placement, with only the sources of out-degree above 1
    # sorting their slices, against a plain comparison sort; arbitrary
    # graphs bring parallel edges, tries sources with several out-edges
    order, labels, dsts = transform_order(g)
    assert order == sorted(range(g.m), key=lambda i: g.edges[i][:2])
    assert (labels, dsts) == ([g.edges[i][2] for i in order], [g.edges[i][1] for i in order])
    # validation hands on the columns it read, and their runs grouped by
    # ascending label as a scan one position at a time finds them,
    # whatever its verdict, which is the all-pairs check's
    report = validate_wheeler(g)
    assert (report.labels, report.dsts) == (labels, dsts)
    assert report.runs == naive_run_groups(labels) and list(report.runs) == sorted(report.runs)
    assert report.is_wheeler == (report.violations == ()) == exhaustive_axiom_check(g)


confluent_graphs = st.integers(1, 4).flatmap(
    lambda sigma: st.tuples(st.integers(0, 2**32 - 1), st.integers(sigma + 1, 30), st.just(sigma))
).map(lambda arg: gen_confluent(arg).graph)


@settings(max_examples=400)
@given(arbitrary_graphs() | generated_graphs() | confluent_graphs)
def test_validation_report_matches_the_reference_scan(g):
    """The scan over the transform-order columns finds the same violations,
    witnesses and messages included, as the scan that read each edge from
    g.edges, on invalid graphs (parallel edges, sources of out-degree above
    1) and valid ones (confluent graphs have both); and each column holds
    the field of the edge that the reference order names."""
    report = validate_wheeler(g)
    violations, order = reference_validation(g)
    assert report.violations == violations
    assert transform_order(g)[0] == order
    assert report.labels == [g.edges[i][2] for i in order]
    assert report.dsts == [g.edges[i][1] for i in order]


def test_every_small_graph_gets_the_reference_witnesses():
    """Every edge multiset over n <= 4 vertices, labels {0, 1} and m <= 4:
    on each of the 63,924 graphs that are not Wheeler, the per-label check
    over the runs fails and the witness search finds the reference scan's
    violations, witnesses and messages; the other 2,807 pass both."""
    graphs = failing = 0
    for g in small_graphs(4):
        violations = validate_wheeler(g).violations
        assert violations == reference_validation(g)[0], g
        graphs += 1
        failing += bool(violations)
    assert (graphs, failing) == (66_731, 63_924)


@pytest.mark.parametrize(
    "n, edges",
    [(2.0, []), (True, [(0, 1, 0)]), (2, [(0, 1, True)]), (2, [(0, 1, 1.0)]),
     (2, [(0.0, 1, 0)]), (2, [(0, True, 0)]), (2, [(0, 1, 0), (False, 1, 0)]), (2, [(0, 1, "0")])],
)
def test_values_that_are_not_ints_are_rejected(n, edges):
    # a bool label built an index that the loader rejects and a WGF text
    # that parse_graph rejects; a float rank raised TypeError
    with pytest.raises(ValueError, match="not an int"):
        WheelerGraph(n=n, edges=edges)


def test_negative_label_rejected():
    with pytest.raises(ValueError, match="has a negative label"):
        WheelerGraph(n=2, edges=[(0, 1, -1)])


def test_sigma_is_derived_from_the_labels():
    # 1 + the largest label, absent labels below it included
    assert WheelerGraph(n=2, edges=[(0, 1, 4), (0, 1, 1)]).sigma == 5
    with pytest.raises(TypeError):
        WheelerGraph(n=2, edges=[], sigma=3)


# --- validation ---

def test_validate_g1(g1):
    report = validate_wheeler(g1)
    assert report.is_wheeler
    assert report.violations == ()


def test_validate_a2_violation(g1):
    # relabel the b-edge to a: a-edges now (0,1),(1,3),(3,2); sources 1 < 3
    # but destinations 3 > 2
    g = WheelerGraph(n=4, edges=[(0, 1, 0), (1, 3, 0), (3, 2, 0)])
    report = validate_wheeler(g)
    assert not report.is_wheeler
    assert [v.axiom for v in report.violations] == ["A2"]
    assert report.violations[0].witness == (1, 2)


def test_validate_a0_violation():
    g = WheelerGraph(n=2, edges=[(1, 0, 0)])
    report = validate_wheeler(g)
    assert not report.is_wheeler
    assert report.violations[0].axiom == "A0"
    assert str(report.violations[0]) == (
        "A0: vertex 1 has in-degree 0 but ranks after vertex 0 which has positive in-degree"
    )


@settings(max_examples=300)
@given(arbitrary_graphs())
def test_a0_witness_is_last_sourceless_and_first_fed_vertex(g):
    """The one A0 witness pairs the largest rank of in-degree 0 with the
    smallest rank of positive in-degree, when the first is larger."""
    sourceless = [v for v in range(g.n) if g.in_degrees[v] == 0]
    fed = [v for v in range(g.n) if g.in_degrees[v] > 0]
    want = [(max(sourceless), min(fed))] if sourceless and fed and max(sourceless) > min(fed) else []
    assert [v.witness for v in validate_wheeler(g).violations if v.axiom == "A0"] == want


def test_validate_a1_violation():
    # label 0 goes to vertex 2 while label 1 goes to vertex 1
    g = WheelerGraph(n=3, edges=[(0, 1, 1), (1, 2, 0)])
    report = validate_wheeler(g)
    assert not report.is_wheeler
    assert any(v.axiom == "A1" for v in report.violations)


def test_validate_reports_one_witness_per_label_pair_and_label():
    # A1 by ascending label, then at most one A2 per label. Edges 9 and 10
    # repeat edges 2 and 0: the A1 witness takes the later copy of the
    # largest target, the A2 witness the first edge to reach it.
    g = WheelerGraph(n=6, edges=[
        (0, 3, 0), (1, 2, 0), (2, 4, 0), (0, 1, 1), (3, 5, 1), (4, 2, 1),
        (1, 1, 2), (2, 5, 2), (5, 4, 2), (2, 4, 0), (0, 3, 0),
    ])
    report = validate_wheeler(g)
    assert [(v.axiom, v.witness) for v in report.violations] == [
        ("A1", (9, 3)), ("A1", (4, 6)), ("A2", (0, 1)), ("A2", (4, 5)), ("A2", (7, 8)),
    ]
    assert str(report.violations[2]) == (
        "A2: edges 0 (0, 3, 0) and 1 (1, 2, 0) share label 0 with increasing "
        "sources but decreasing destinations"
    )


@settings(max_examples=200)
@given(maybe_mutated_graphs())
def test_validate_matches_quadratic_oracle(g):
    assert validate_wheeler(g).is_wheeler == exhaustive_axiom_check(g)


@settings(max_examples=200)
@given(arbitrary_graphs())
def test_validate_matches_quadratic_oracle_arbitrary(g):
    assert validate_wheeler(g).is_wheeler == exhaustive_axiom_check(g)


@settings(max_examples=300)
@given(arbitrary_graphs())
def test_validate_witnesses_break_their_axioms(g):
    for viol in validate_wheeler(g).violations:
        if viol.axiom == "A0":
            late, early = viol.witness
            assert g.in_degrees[late] == 0 < g.in_degrees[early] and late > early
            continue
        (u, v, a), (u2, v2, a2) = (g.edges[i] for i in viol.witness)
        if viol.axiom == "A1":
            assert a < a2 and v >= v2
        else:
            assert viol.axiom == "A2"
            assert a == a2 and u < u2 and v > v2


# --- decomposition ---
#
# The path lists are checked on helpers.reference_decomposition, which
# lists every path; decompose_paths must agree with it (see the parity
# properties below).

def test_decompose_g1(g1):
    d = reference_decomposition(g1)
    assert d.paths == [[0, 1, 3, 2]]
    assert d.edge_paths == [[0, 1, 2]]
    assert d.num_paths == 1
    assert d.endpoints == frozenset({0, 2})
    assert decompose_paths(g1) == PathDecomposition(interior=[1, 3], num_paths=1, break_ranks=[])


def test_decompose_disjoint_pairs():
    g = WheelerGraph(n=4, edges=[(0, 2, 0), (1, 3, 0)])
    d = reference_decomposition(g)
    assert d.paths == [[0, 2], [1, 3]]
    assert d.num_paths == 2
    assert decompose_paths(g) == PathDecomposition(interior=[], num_paths=2, break_ranks=[])


def test_decompose_breaks_cycle_at_min_rank():
    # a full cycle (not a Wheeler order; decomposition does not care)
    g = WheelerGraph(n=3, edges=[(1, 2, 0), (2, 0, 0), (0, 1, 0)])
    d = reference_decomposition(g)
    assert d.paths == [[0, 1, 2, 0]]
    assert d.endpoints == frozenset({0})
    assert decompose_paths(g) == PathDecomposition(interior=[1, 2], num_paths=1, break_ranks=[0])


def test_decompose_self_loop():
    g = WheelerGraph(n=1, edges=[(0, 0, 0)])
    d = reference_decomposition(g)
    assert d.paths == [[0, 0]]
    assert decompose_paths(g) == PathDecomposition(interior=[], num_paths=1, break_ranks=[0])


def test_decompose_isolated_vertices():
    g = WheelerGraph(n=3, edges=[(0, 2, 0)])
    d = reference_decomposition(g)
    assert d.paths == [[0, 2], [1]]
    assert d.num_paths == 2
    assert decompose_paths(g) == PathDecomposition(interior=[], num_paths=2, break_ranks=[])


def test_decompose_cycles_beside_a_path():
    # path 0 -> 1 -> 4 and the cycles 2 -> 5 -> 2 and 3 -> 3: the walk
    # breaks each cycle at its least rank and re-walks in head order
    g = WheelerGraph(n=6, edges=[(5, 2, 0), (0, 1, 0), (2, 5, 0), (3, 3, 0), (1, 4, 0)])
    d = reference_decomposition(g)
    assert d.paths == [[0, 1, 4], [2, 5, 2], [3, 3]]
    assert decompose_paths(g) == PathDecomposition(interior=[1, 5], num_paths=3, break_ranks=[2, 3])


@settings(max_examples=200)
@given(arbitrary_graphs())
def test_decompose_invariants(g):
    d = reference_decomposition(g)
    # every edge on exactly one path
    all_edges = [e for path in d.edge_paths for e in path]
    assert sorted(all_edges) == list(range(g.m))
    # vertex sequences are consistent with the edges
    for vseq, eseq in zip(d.paths, d.edge_paths):
        assert len(vseq) == len(eseq) + 1
        for k, e in enumerate(eseq):
            u, v, _ = g.edges[e]
            assert vseq[k] == u and vseq[k + 1] == v
    # interior vertices have in- and out-degree exactly 1
    for vseq in d.paths:
        for v in vseq[1:-1]:
            assert g.in_degrees[v] == 1 and g.out_degrees[v] == 1
    # isolated vertices appear as single-vertex paths
    for v in range(g.n):
        if g.in_degrees[v] == 0 and g.out_degrees[v] == 0:
            assert [v] in d.paths
    assert d.num_paths == len(d.paths)
    # ordered by start rank, then by the transform position of the first edge
    pos = {e: p for p, e in enumerate(transform_order(g)[0])}
    keys = [(vs[0], pos[es[0]] if es else -1) for vs, es in zip(d.paths, d.edge_paths)]
    assert keys == sorted(keys)
    # deterministic
    assert reference_decomposition(g) == d
    assert decompose_paths(g) == decompose_paths(g)


@settings(max_examples=300)
@given(arbitrary_graphs())
def test_walk_matches_reference_decomposition_arbitrary(g):
    """On arbitrary multigraphs, where cycles sit beside paths and beside
    each other far more often than in Wheeler graphs, the one walk lists
    the reference's interior vertices in its order, counts its paths and
    breaks its cycles, and the identifiers agree."""
    assert_walk_matches_reference(g)


def test_walk_matches_reference_decomposition_on_corpora():
    """The same parity on the acceptance corpus and on Wheeler graphs with
    cycles beside paths and with shared in-edges."""
    graphs = [inst.graph for inst in build_corpus()]
    cycles = broken_cycle_graphs(150, seed=23)
    assert sum(len(decompose_paths(g).break_ranks) > 1 for g in cycles) > 10
    for g in graphs + cycles + shared_in_edge_graphs(60, seed=29):
        assert_walk_matches_reference(g)


# --- identifier assignment ---

def test_assign_g1(g1):
    ids = assign_identifiers(g1, decompose_paths(g1))
    assert ids.id_of_rank == [2, 0, 3, 1]
    assert ids.rank_of_id == [1, 3, 0, 2]


def test_assign_star_is_identity():
    g = WheelerGraph(n=4, edges=[(0, 1, 0), (0, 2, 0), (0, 3, 1)])
    ids = assign_identifiers(g, decompose_paths(g))
    assert ids.id_of_rank == [0, 1, 2, 3]


@settings(max_examples=200)
@given(arbitrary_graphs())
def test_assign_invariants(g):
    d = decompose_paths(g)
    ids = assign_identifiers(g, d)
    endpoints = reference_decomposition(g).endpoints
    # bijection
    assert sorted(ids.id_of_rank) == list(range(g.n))
    assert all(ids.id_of_rank[ids.rank_of_id[i]] == i for i in range(g.n))
    # +1 rule along edges whose both ends avoid every path endpoint
    for u, v, _ in g.edges:
        if u not in endpoints and v not in endpoints:
            assert ids.id_of_rank[v] == ids.id_of_rank[u] + 1
    # deterministic
    assert assign_identifiers(g, d) == ids
