"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload name and the seed. All of it
is made here, with the library's generators, before any timed region starts.
The library is imported inside the functions, because run.py first has to
put the checkout's src/ on the path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from wgrindex import WheelerGraph

LETTERS = "abcd"  # label k is written as LETTERS[k] for the CLI's default map


@dataclass(frozen=True)
class Workload:
    name: str
    via_cli: bool  # setup is `wgrindex build` on a WGF file, not build_index
    cli_patterns: int  # leading patterns written to the CLI query file


# Why each workload exists is recorded in BENCHMARK.json and README.md:
# rand-string is the worst case for run compression (r ~ 0.75 m), rep-multi
# the repetitive collection the index is built for (r << m), and cli-cold the
# parse/build/save/load path through fresh interpreters at three times the size.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("rand-string", via_cli=False, cli_patterns=500),
        Workload("rep-multi", via_cli=False, cli_patterns=500),
        Workload("cli-cold", via_cli=True, cli_patterns=2000),
    )
}


@dataclass
class Inputs:
    graph: WheelerGraph
    patterns: list[tuple[int, ...]]
    must_hit: list[bool]  # pattern is a substring of an input string
    wgf_path: Path | None  # written only for CLI workloads
    sizes: dict[str, int]
    gen_s: float = 0.0  # time make_inputs took, filled in by the caller (reference seconds)
    gen_wall_s: float = 0.0  # the same in wall seconds


def random_string(rng: random.Random, length: int) -> list[int]:
    return [rng.randrange(len(LETTERS)) for _ in range(length)]


def query_mix(
    rng: random.Random, texts: list[list[int]], count: int, lo: int, hi: int, random_half: bool
) -> tuple[list[tuple[int, ...]], list[bool]]:
    """Substrings of the texts (which hit) and, in odd slots when random_half
    is set, uniform random strings (which mostly miss); lengths in [lo, hi]."""
    patterns, must_hit = [], []
    for slot in range(count):
        length = rng.randint(lo, hi)
        if random_half and slot % 2:
            patterns.append(tuple(random_string(rng, length)))
            must_hit.append(False)
        else:
            text = texts[rng.randrange(len(texts))]
            start = rng.randrange(len(text) - length + 1)
            patterns.append(tuple(text[start : start + length]))
            must_hit.append(True)
    return patterns, must_hit


def mutated_copies(rng: random.Random, base: list[int], copies: int, edits: int) -> list[list[int]]:
    out = []
    for _ in range(copies):
        s = list(base)
        for _ in range(edits):
            s[rng.randrange(len(s))] = rng.randrange(len(LETTERS))
        out.append(s)
    return out


def make_inputs(name: str, seed: int, work: Path) -> Inputs:
    from wgrindex import gen_multi_paths, gen_string_path, to_wgf

    rng = random.Random(f"{name}/{seed}")
    wgf_path = None
    if name == "rand-string":
        texts = [random_string(rng, 100_000)]
        graph = gen_string_path(texts[0]).graph
        patterns, must_hit = query_mix(rng, texts, 2000, 8, 32, random_half=True)
    elif name == "rep-multi":
        texts = mutated_copies(rng, random_string(rng, 2000), copies=50, edits=10)
        graph = gen_multi_paths(texts).graph
        patterns, must_hit = query_mix(rng, texts, 2000, 8, 32, random_half=True)
    elif name == "cli-cold":
        texts = [random_string(rng, 300_000)]
        graph = gen_string_path(texts[0]).graph
        patterns, must_hit = query_mix(rng, texts, 2000, 12, 12, random_half=False)
        wgf_path = work / "graph.wgf"
        wgf_path.write_text(to_wgf(graph), encoding="ascii")
    else:
        raise ValueError(f"unknown workload {name!r}")
    sizes = {"symbols": sum(map(len, texts)), "n": graph.n, "m": graph.m, "patterns": len(patterns)}
    return Inputs(graph, patterns, must_hit, wgf_path, sizes)


def pattern_file(patterns: list[tuple[int, ...]], path: Path) -> Path:
    path.write_text("".join("".join(LETTERS[c] for c in p) + "\n" for p in patterns), encoding="ascii")
    return path
