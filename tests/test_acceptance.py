"""Acceptance criteria, one test per criterion.

Criteria 1-6 share one corpus of >= 1000 generated instances (string paths
and cycles, multi-path unions, tries; n up to 200, sigma up to 4) and one
exhaustive sweep over every pattern of length <= 6 on each instance
alphabet. The sweep prunes below patterns that already match nothing; that
is sound because empty stays empty on both sides (the oracle refines sets,
and count/locate absorption is unit-tested in test_query).

Each test prints a single machine-readable pass line when its criterion
holds at the stated tolerance (always zero mismatches here).
"""

import random
import time

import pytest

from wgrindex import (
    FirstInOrderError,
    build_index,
    count,
    deserialize_index,
    gen_string_path,
    locate,
    parse_graph,
    serialize_index,
    space_report,
)
from wgrindex.query import phi
from wgrindex.cli import main as cli_main

import helpers
from helpers import naive_phi_table, naive_runs


@pytest.fixture(scope="module")
def corpus():
    return helpers.build_corpus()


@pytest.fixture(scope="module")
def sweep(corpus):
    return helpers.run_sweep(corpus, max_len=6)


def _passed(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_1_count_oracle_equivalence(sweep):
    assert sweep.instances >= 1000
    assert sweep.count_mismatches == 0, sweep.examples
    _passed(
        "criterion-1 count-oracle-equivalence",
        f"{sweep.instances} instances, {sweep.nodes} patterns, 0 mismatches",
    )


def test_criterion_2_locate_oracle_equivalence(sweep):
    assert sweep.locate_mismatches == 0, sweep.examples
    _passed(
        "criterion-2 locate-oracle-equivalence",
        f"{sweep.nodes} patterns, sets+lengths+distinctness all exact",
    )


def test_criterion_3_phi_correctness(corpus):
    checked = 0
    for inst in corpus:
        ix = inst.index
        table = naive_phi_table(inst.graph, inst.ids)
        first_id = inst.ids.id_of_rank[0] if ix.n else None
        for i in range(ix.n):
            if i == first_id:
                with pytest.raises(FirstInOrderError):
                    phi(ix, i)
            else:
                assert phi(ix, i) == table[i], (inst.provenance, i)
                checked += 1
        if ix.n:
            chain = [ix.last_rank_id]
            for _ in range(ix.n - 1):
                chain.append(phi(ix, chain[-1]))
            assert sorted(chain) == list(range(ix.n)), inst.provenance
    _passed("criterion-3 phi-correctness", f"{checked} defined inputs, full enumeration per instance")


def test_criterion_4_toehold_correctness(sweep, corpus):
    assert any(inst.graph.n <= 50 for inst in corpus)
    assert sweep.toehold_mismatches == 0, sweep.examples
    assert sweep.caseb_violations == 0, sweep.examples
    _passed(
        "criterion-4 toehold-correctness",
        "last_id tracked exactly at every step; no unmarked fallback lookups",
    )


def test_criterion_5_wheeler_interval_property(sweep):
    assert sweep.contiguity_failures == 0, sweep.examples
    assert sweep.interval_mismatches == 0, sweep.examples
    _passed(
        "criterion-5 interval-property",
        "every match set contiguous and equal to the refined interval",
    )


def test_criterion_6_space_accounting(corpus):
    for inst in corpus:
        sr = space_report(inst.index)
        assert sr.marked_count <= sr.marked_bound, inst.provenance
        assert sr.anchor_count <= sr.anchor_bound, inst.provenance
        assert sr.degree_exceptions <= sr.degree_bound, inst.provenance
        if inst.family == "string":
            assert inst.index.num_paths == 1, inst.provenance
            assert sr.num_runs == naive_runs(inst.bwt_labels), inst.provenance
    _passed(
        "criterion-6 space-accounting",
        f"{len(corpus)} instances within marked<=r+4u, anchors<=r+8u+1 and degree exceptions<=4u",
    )


def test_criterion_7_string_special_case():
    rng = random.Random(777)
    checked = 0
    for _ in range(100):
        sigma = rng.randint(1, 4)
        n = rng.randint(1, 2000)
        s = tuple(rng.randrange(sigma) for _ in range(n))
        text = "".join(map(str, s))
        ix = build_index(gen_string_path(s).graph)
        for _ in range(50):
            if rng.random() < 0.5 and n > 1:
                length = rng.randint(1, min(12, n))
                start = rng.randrange(n - length + 1)
                pat = s[start : start + length]
            else:
                pat = tuple(rng.randrange(sigma) for _ in range(rng.randint(1, 12)))
            needle = "".join(map(str, pat))
            assert count(ix, pat) == helpers.count_occurrences(text, needle), (s[:20], pat)
            checked += 1
    _passed("criterion-7 string-special-case", f"100 strings x 50 patterns = {checked} checks")


def test_criterion_8_determinism_and_round_trip(corpus, tmp_path):
    # rebuilds byte-identical; serialization round-trips structurally
    for inst in corpus[:15]:
        data = serialize_index(inst.index)
        assert serialize_index(build_index(inst.graph)) == data, inst.provenance
        assert deserialize_index(data) == inst.index, inst.provenance

    # gen -> build -> query through the CLI reproduces library answers
    cases = [
        (["gen", "string", "aba"], ["a", "ab", "ba", "", "zz", "aba"]),
        (["gen", "multi", "ab", "ab", "b"], ["a", "b", "ab", ""]),
        (["gen", "trie", "abc", "abd", "ba"], ["a", "ab", "abc", "b", ""]),
    ]
    for gen_argv, patterns in cases:
        wgf = tmp_path / "case.wgf"
        idx = tmp_path / "case.idx"
        pats = tmp_path / "pats.txt"
        assert cli_main(gen_argv + ["-o", str(wgf)]) == 0
        assert cli_main(["build", str(wgf), str(idx)]) == 0
        pats.write_text("".join(p + "\n" for p in patterns))

        import io
        from contextlib import redirect_stdout

        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["query", str(idx), "--mode", "locate", "--patterns", str(pats)]) == 0

        g = parse_graph(wgf.read_text())
        ix = build_index(g)
        expected = []
        for p in patterns:
            ids = locate(ix, tuple(ord(c) - 97 for c in p))
            expected.append(" ".join(["locate", str(len(ids)), *map(str, ids)]))
        assert buf.getvalue().splitlines() == expected
    _passed("criterion-8 determinism-round-trip", "byte-identical rebuilds; CLI pipeline exact")


def test_criterion_9_performance_smoke():
    rng = random.Random(42)
    n = 100_000
    s = tuple(rng.randrange(4) for _ in range(n))
    patterns = []
    for k in range(10_000):
        if k % 2 == 0:
            start = rng.randrange(n - 10)
            patterns.append(s[start : start + 10])
        else:
            patterns.append(tuple(rng.randrange(4) for _ in range(10)))

    t0 = time.perf_counter()
    ix = build_index(gen_string_path(s).graph)
    built = time.perf_counter()
    total = sum(count(ix, p) for p in patterns)
    done = time.perf_counter()

    elapsed = done - t0
    assert total > 0  # the planted substrings must match
    assert elapsed < 10.0, f"build+queries took {elapsed:.2f}s"
    _passed(
        "criterion-9 performance-smoke",
        f"build {built - t0:.2f}s + 10k queries {done - built:.2f}s = {elapsed:.2f}s < 10s",
    )
