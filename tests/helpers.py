"""Shared helpers: instance corpus construction and the pattern sweep that
backs the acceptance criteria.

The sweep walks the trie of all patterns up to a length cap, maintaining in
parallel the oracle's vertex set and the index's match state. Subtrees
rooted at an already-empty pattern are pruned after checking the empty node
itself: the oracle set refinement of an empty set stays empty, and the
index count of any extension of a no-match pattern stays zero (both
behaviours are unit-tested), so pruned patterns cannot introduce
mismatches.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from wgrindex import (
    GeneratedInstance,
    IdAssignment,
    IndexInvariantError,
    PathDecomposition,
    RLSequence,
    WheelerGraph,
    WheelerRIndex,
    assign_identifiers,
    build_bwt,
    build_index,
    count,
    decompose_paths,
    full_state,
    gen_multi_paths,
    gen_string_cycle,
    gen_string_path,
    gen_trie,
    is_primitive,
    labels_from_ascii,
    locate,
    step_toehold,
    validate_wheeler,
)
from wgrindex import oracle

G1_TEXT = "n 4\nm 3\ne 0 1 0\ne 1 3 1\ne 3 2 0\n"


@dataclass
class Instance:
    provenance: str
    family: str
    graph: WheelerGraph
    index: WheelerRIndex
    ids: IdAssignment
    decomp: PathDecomposition
    bwt_labels: list[int]


def make_instance(family: str, gi: GeneratedInstance) -> Instance:
    g = gi.graph
    b = build_bwt(g)
    d = decompose_paths(g)
    ids = assign_identifiers(g, d)
    return Instance(gi.provenance, family, g, build_index(g), ids, d, b.labels)


def rl_from_labels(labels) -> RLSequence:
    """Rank/select directories straight from a label sequence."""
    run_starts = [p for p, lab in enumerate(labels) if p == 0 or lab != labels[p - 1]]
    run_labels = [labels[p] for p in run_starts]
    return RLSequence(length=len(labels), run_starts=run_starts, run_labels=run_labels)


def dense_refine(labels, out_degrees, in_degrees, f_label, s, e, c):
    """What one refine step computes, from dense prefix sums and a scan of
    the label sequence: the ranks of the first and last vertex reached by
    a c-labelled out-edge of ranks [s, e], and the position of the last
    such edge; None when there is none."""
    out_prefix = [0] + list(accumulate(out_degrees))
    in_prefix = [0] + list(accumulate(in_degrees))
    lo, hi = out_prefix[s], out_prefix[e + 1]
    hits = [p for p in range(lo, hi) if labels[p] == c]
    if not hits:
        return None
    first = f_label[c] + labels[:lo].count(c)
    last = first + len(hits) - 1
    return bisect_right(in_prefix, first) - 1, bisect_right(in_prefix, last) - 1, hits[-1]


def shared_in_edge_graphs(count: int, seed: int) -> list[WheelerGraph]:
    """Wheeler graphs with some in-degree above 1, rejection-sampled from
    random graphs with 3 <= n <= 8, m <= 14 and up to 3 labels (about
    0.7 % qualify). No generator makes them, and only there does a refine
    step have to clamp an in-slot to the rank of an in-degree exception."""
    rng = random.Random(seed)
    out: list[WheelerGraph] = []
    while len(out) < count:
        n = rng.randint(3, 8)
        sigma = rng.randint(1, 3)
        m = rng.randint(n - 1, 14)
        edges = [(rng.randrange(n), rng.randrange(n), rng.randrange(sigma)) for _ in range(m)]
        g = WheelerGraph(n=n, edges=edges)
        if max(g.in_degrees) > 1 and validate_wheeler(g).is_wheeler:
            out.append(g)
    return out


def random_label_string(rng: random.Random, sigma: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randrange(sigma) for _ in range(rng.randint(lo, hi)))


def build_corpus(seed: int = 20260810) -> list[Instance]:
    """Deterministic mix of >= 1000 instances across all families.

    Sizes run up to n = 200 and alphabets up to sigma = 4; the bulk of the
    corpus is kept small so the exhaustive pattern sweep stays fast.
    """
    rng = random.Random(seed)
    out: list[Instance] = []

    def add(family: str, gi: GeneratedInstance) -> None:
        out.append(make_instance(family, gi))

    # Hand-picked edge cases.
    add("string", gen_string_path(()))
    add("string", gen_string_path((0,)))
    add("string", gen_string_path((0, 0, 0, 0)))
    add("string", gen_string_path(labels_from_ascii("aba")))
    add("cycle", gen_string_cycle((0,)))
    add("cycle", gen_string_cycle((0, 1)))
    add("multi", gen_multi_paths([(), (0,)]))
    add("multi", gen_multi_paths([(0, 1), (0, 1)]))
    add("multi", gen_multi_paths([(0, 1, 0, 0), (1, 1, 0, 0)]))  # unmarked +1 step
    add("multi", gen_multi_paths([()]))
    add("trie", gen_trie([()]))
    add("trie", gen_trie([(0, 1), (0, 2)]))

    for _ in range(60):
        add("string", gen_string_path(random_label_string(rng, 1, 0, 60)))
    for _ in range(400):
        add("string", gen_string_path(random_label_string(rng, 2, 1, 40)))
    for _ in range(30):
        add("string", gen_string_path(random_label_string(rng, 2, 150, 199)))
    for _ in range(120):
        add("string", gen_string_path(random_label_string(rng, 3, 1, 25)))
    for _ in range(40):
        add("string", gen_string_path(random_label_string(rng, 4, 1, 15)))
    for _ in range(100):
        sigma = rng.randint(1, 3)
        if sigma == 1:
            s: tuple[int, ...] = (0,)
        else:
            while True:
                s = random_label_string(rng, sigma, 2, 30)
                if is_primitive(s):
                    break
        add("cycle", gen_string_cycle(s))
    for _ in range(150):
        k = rng.randint(2, 6)
        sigma = rng.randint(1, 3)
        add("multi", gen_multi_paths([random_label_string(rng, sigma, 0, 12) for _ in range(k)]))
    for _ in range(130):
        k = rng.randint(3, 20)
        sigma = rng.randint(2, 3)
        add("trie", gen_trie([random_label_string(rng, sigma, 0, 8) for _ in range(k)]))
    return out


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
    elif not naive or st.interval.s != min(naive) or st.interval.e != max(naive):
        stats.interval_mismatches += 1
        stats.note("interval", inst, pattern)
    elif st.last_id != idof[st.interval.e]:
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
    adj = oracle.label_index(g)
    root_naive = set(range(g.n))
    root_state = full_state(ix)
    _check_node(stats, inst, (), root_naive, root_state)

    def rec(pattern: tuple[int, ...], naive: set[int], st) -> None:
        for c in range(g.sigma):
            pat2 = pattern + (c,)
            naive2 = {v for u, v in adj.get(c, ()) if u in naive}
            if st is None:
                st2 = None
            else:
                try:
                    st2 = step_toehold(ix, st, c)
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
