#!/usr/bin/env python3
"""Benchmark for wgrindex: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload rand-string --seed 1 --seconds 5 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation. --trace 1
wraps the library's public functions (and the bound methods of the built
index that queries call), records spans in memory, reports per-layer
metrics instead, and writes the spans to .perfbench_spans/ at the end. Load
is a closed loop with one client and no threads; CLI processes run one at a
time. Every answer is checked; the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from bisect import bisect_left
from pathlib import Path
from time import perf_counter

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_ROOT = ROOT / ".perfbench_spans"  # every traced run writes its spans here

# A run is a few rounds. Each round takes one setup sample, PER_ROUND samples
# of save, load and the CLI query, and one slice of the query loop, so every
# metric sees the machine at several moments of the run.
ROUNDS = 4  # in-process workloads: one build_index per round
CLI_ROUNDS = 3  # CLI workload: one `wgrindex build` process per round
PER_ROUND = 2
STARTUP_REPS = 5  # `wgrindex --help` processes per traced run
ORACLE_SAMPLE = 6  # queries per run compared with oracle.naive_match
OVERHEAD_PATTERNS = 400  # patterns timed both traced and untraced
SUBPROCESS_TIMEOUT_S = 170
CAL_REF_S = 0.002  # calibration time that defines one reference second

# Serialized fields of each index component, as serialize_index names them.
COMPONENT_FIELDS = {
    "rank_select": ("run_starts", "run_labels"),
    "degree_sums": ("out_prefix", "in_prefix", "f_label"),
    "toehold": ("marked_positions", "marked_pairs"),
    "phi": ("anchor_ids", "pred_ids"),
}


def import_library():
    """Import wgrindex from this checkout's src/, never from elsewhere."""
    if not (SRC / "wgrindex" / "__init__.py").is_file():
        raise SystemExit(f"error: no wgrindex package under {SRC.name}/ next to the benchmark")
    sys.path.insert(0, str(SRC))
    import wgrindex

    if not Path(wgrindex.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported wgrindex from {wgrindex.__file__}, not from this checkout")
    return wgrindex


class Ledger:
    """Operations attempted and failed; a failure is never dropped silently."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str, ops: int = 1) -> bool:
        self.attempted += ops
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAILED {what}", file=sys.stderr)
        return ok


class Report:
    """Metrics by name with unit and sample count, plus descriptive facts.

    A time is added in reference units (see Clock) together with the same
    statistic over raw wall time, so the two can be compared."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}
        self.wall: dict[str, float] = {}
        self.facts: dict[str, object] = {}

    def add(self, name: str, value: float, unit: str, samples: int = 1, wall: float | None = None) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "samples": samples}
        if wall is not None:
            self.wall[name] = wall

    def add_times(self, name: str, ref: list[float], wall: list[float], unit: str = "ref_s") -> None:
        """Median of timed blocks, in reference and in wall seconds."""
        med = statistics.median
        self.add(name, med(ref) if ref else float("nan"), unit, len(ref), med(wall) if wall else float("nan"))


class Clock:
    """Times work in reference seconds.

    The cores are shared with other tenants, and the speed one process gets
    swings by up to half again for seconds at a time; no number of repeats
    inside one run averages that out. So each timed block is bracketed by a
    fixed calibration, and its wall time is multiplied by CAL_REF_S over the
    calibration's mean time around the block. A reference second is a second
    on a machine where the calibration takes CAL_REF_S.

    The calibration is the geometric mean of three small kernels that track
    the library's kinds of work: interpreter arithmetic and calls, bisects and
    dict lookups over an 80,000-entry table, and JSON encoding. It never calls
    the library, so a faster library still reads faster.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        rng = random.Random(0)
        self._small = list(range(0, 2048, 2))
        self._keys = sorted(rng.sample(range(10**7), 80_000))
        self._table = {k: (k, k + 1) for k in self._keys}
        self._probes = [rng.randrange(10**7) for _ in range(1000)]
        self._doc = list(range(0, 10**6, 37))

    def _arith(self) -> None:
        small, acc = self._small, 0
        for i in range(4000):
            acc += bisect_left(small, i & 1023) ^ (i * i % 7)

    def _lookup(self) -> None:
        keys, table = self._keys, self._table
        for x in self._probes:
            t = bisect_left(keys, x)
            if t < len(keys):
                table.get(keys[t])

    def _encode(self) -> None:
        json.dumps(self._doc)

    def calibrate(self) -> float:
        """Geometric mean over the kernels of each one's best of 3 runs."""
        product = 1.0
        kernels = (self._arith, self._lookup, self._encode)
        for kernel in kernels:
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                kernel()
                best = min(best, perf_counter() - t0)
            product *= best
        return product ** (1 / len(kernels))

    def factor(self, before: float, after: float) -> float:
        f = 2 * CAL_REF_S / (before + after)
        self.factors.append(f)
        return f

    def timed(self, fn, *args):
        """(reference seconds, wall seconds, result) of fn(*args)."""
        before = self.calibrate()
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        return wall * self.factor(before, self.calibrate()), wall, result

    def facts(self) -> dict[str, float]:
        fs = self.factors
        return {"ref_s": CAL_REF_S, "factor_median": statistics.median(fs), "factor_min": min(fs), "factor_max": max(fs)}


def quantile(xs: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(xs, n=100)[q - 1]


def run_cli(args: list[str], work: Path) -> subprocess.CompletedProcess:
    """One `wgrindex` process in a fresh interpreter, waited for."""
    return subprocess.run(
        [sys.executable, "-m", "wgrindex", *args],
        cwd=work,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )


class QueryLoop:
    """Closed loop, one client: count then locate each pattern in turn.

    Passes go over the whole pattern mix in order. Only the two calls are
    timed, and each answer is checked afterwards. Each pass is scaled to
    reference time by the clock, and a pattern's latency is the median of
    its calls over all passes, which are spread over the run. Raw wall times
    are kept beside the scaled ones.
    """

    def __init__(self, q, ix, patterns, must_hit, ledger: Ledger, clock: Clock) -> None:
        self.count, self.locate = q.count, q.locate  # looked up now, so traced wrappers apply
        self.ix = ix
        self.clock = clock
        self.patterns = patterns
        self.must_hit = must_hit
        self.ledger = ledger
        # per pattern, one entry a pass: [count ref, locate ref, count wall, locate wall]
        self.times: list[tuple[list[float], ...]] = [([], [], [], []) for _ in patterns]
        self.answers: list[list[int] | None] = [None] * len(patterns)
        self.passes = 0

    def run_for(self, seconds: float) -> None:
        """Whole passes until `seconds` have passed; at least one."""
        deadline = perf_counter() + seconds
        self.run_passes(1)
        while perf_counter() < deadline:
            self.run_passes(1)

    def run_passes(self, passes: int) -> None:
        count, locate, ix, ledger = self.count, self.locate, self.ix, self.ledger
        answers = self.answers
        n = len(self.patterns)
        for _ in range(passes):
            self.passes += 1
            pass_count: list[float | None] = [None] * n  # stays None when a call raised
            pass_locate: list[float | None] = [None] * n
            before = self.clock.calibrate()
            for k, p in enumerate(self.patterns):
                try:
                    t0 = perf_counter()
                    c = count(ix, p)
                    t1 = perf_counter()
                    ids = locate(ix, p)
                    t2 = perf_counter()
                except Exception as exc:  # counted, reported, and the loop goes on
                    ledger.check(False, f"query {k} {p}: {exc!r}", ops=2)
                    continue
                pass_count[k] = t1 - t0
                pass_locate[k] = t2 - t1
                first = answers[k]
                if first is None:
                    answers[k] = first = ids
                ledger.check(
                    c == len(ids) == len(set(ids)) and (c > 0 or not self.must_hit[k]) and ids == first,
                    f"query {k} {p}: count {c}, locate {len(ids)} ids ({len(set(ids))} distinct)",
                    ops=2,
                )
            f = self.clock.factor(before, self.clock.calibrate())
            for k, (c_ref, l_ref, c_wall, l_wall) in enumerate(self.times):
                if pass_count[k] is not None:
                    c_ref.append(pass_count[k] * f)
                    l_ref.append(pass_locate[k] * f)
                    c_wall.append(pass_count[k])
                    l_wall.append(pass_locate[k])

    def latencies(self, wall: bool = False) -> tuple[list[float], list[float]]:
        """Median count and locate time per pattern, in reference seconds
        or, with wall set, in wall seconds."""
        med = statistics.median
        c, l = (2, 3) if wall else (0, 1)
        timed = [ts for ts in self.times if ts[0]]
        return [med(ts[c]) for ts in timed], [med(ts[l]) for ts in timed]

    @property
    def occurrences(self) -> int:
        return sum(len(a) for a in self.answers if a)

    @property
    def hits(self) -> int:
        return sum(1 for a in self.answers if a)

    def add_metrics(self, rep: Report) -> None:
        n = len(self.patterns)
        (count_s, locate_s), (count_w, locate_w) = self.latencies(), self.latencies(wall=True)
        k = len(count_s)
        rep.add("count_us.p50", statistics.median(count_s) * 1e6, "ref_us", k, statistics.median(count_w) * 1e6)
        rep.add("count_us.p99", quantile(count_s, 99) * 1e6, "ref_us", k, quantile(count_w, 99) * 1e6)
        rep.add("locate_us.p50", statistics.median(locate_s) * 1e6, "ref_us", k, statistics.median(locate_w) * 1e6)
        rep.add("locate_us.p99", quantile(locate_s, 99) * 1e6, "ref_us", k, quantile(locate_w, 99) * 1e6)
        occ = self.occurrences
        rep.add("locate_occ_per_s", occ / sum(locate_s), "1/ref_s", k, occ / sum(locate_w))
        rep.facts["query_passes"] = self.passes
        rep.facts["hit_frac"] = self.hits / n
        rep.facts["occurrences_per_locate"] = self.occurrences / n


def check_oracle(lib, inputs, answers, rng: random.Random, ledger: Ledger) -> None:
    """Compare a sample of locate answers with oracle.naive_match."""
    g = inputs.graph
    id_of_rank = lib.assign_identifiers(g, lib.decompose_paths(g)).id_of_rank
    hit_idx = [k for k, h in enumerate(inputs.must_hit) if h]
    miss_idx = [k for k, h in enumerate(inputs.must_hit) if not h]
    sample = rng.sample(hit_idx, min(len(hit_idx), ORACLE_SAMPLE // 2))
    sample += rng.sample(miss_idx, min(len(miss_idx), ORACLE_SAMPLE - len(sample)))
    for k in sample:
        want = {id_of_rank[r] for r in lib.naive_match(g, inputs.patterns[k])}
        got = answers[k]
        ledger.check(got is not None and set(got) == want, f"oracle on query {k}: {len(want)} expected")


def check_budget(report, ledger: Ledger) -> None:
    ledger.check(
        report.marked_count <= report.marked_bound,
        f"space budget: marked {report.marked_count} > {report.marked_bound}",
    )
    ledger.check(
        report.anchor_count <= report.anchor_bound,
        f"space budget: anchors {report.anchor_count} > {report.anchor_bound}",
    )


def heap_mib(lib, data: bytes) -> float:
    """Python heap retained by an index deserialized from data (untimed)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ix = lib.deserialize_index(data)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return retained / 2**20


def component_bytes(data: bytes) -> dict[str, int]:
    """Serialized bytes of each component's fields, keys and separators included."""
    doc = json.loads(data)
    return {
        comp: sum(len(json.dumps({f: doc[f]}, separators=(",", ":"))) - 1 for f in fields)
        for comp, fields in COMPONENT_FIELDS.items()
    }


def cli_answers_match(stdout: str, patterns, answers, ledger: Ledger) -> None:
    lines = stdout.splitlines()
    ledger.check(len(lines) == len(patterns), f"CLI printed {len(lines)} lines for {len(patterns)} patterns")
    for k, line in enumerate(lines[: len(patterns)]):
        ids = answers[k]
        want = None if ids is None else " ".join(["locate", str(len(ids)), *map(str, ids)])
        ledger.check(line == want, f"CLI line {k}: {line[:60]!r} != {str(want)[:60]!r}")


# ---------------------------------------------------------------- untraced


def first_checks(lib, ix, rep: Report, ledger: Ledger):
    """Byte identity, space budgets and index sizes; returns the index bytes
    and the space report."""
    data = lib.serialize_index(ix)
    ledger.check(data == lib.serialize_index(ix), "serialize_index gave different bytes twice")
    rep.facts["sha256"] = hashlib.sha256(data).hexdigest()
    space = lib.space_report(ix)
    check_budget(space, ledger)
    rep.add("index_bytes", len(data), "B")
    rep.add("index_words", space.total_words, "words")
    return data, space


def run_end_to_end(lib, wl, inputs, seconds, seed, work, ledger, clock) -> Report:
    rep = Report()
    rounds = CLI_ROUNDS if wl.via_cli else ROUNDS
    cli_idx = work / "cli.idx"
    saved_idx = work / "saved.idx"
    query_idx = cli_idx if wl.via_cli else saved_idx
    cli_pats = inputs.patterns[: wl.cli_patterns]
    pat_path = workloads.pattern_file(cli_pats, work / "patterns.txt")
    query_args = ["query", str(query_idx), "--mode", "locate", "--patterns", str(pat_path)]
    # name -> (reference seconds, wall seconds) of each timed block
    times = {name: ([], []) for name in ("setup_s", "save_s", "load_s", "cli_query_s")}

    def keep(name, ref, wall):
        times[name][0].append(ref)
        times[name][1].append(wall)

    ix = data = loop = space = None
    digests = set()

    for r in range(rounds):
        gc.collect()
        if wl.via_cli:
            cli_idx.unlink(missing_ok=True)
            ref, wall, proc = clock.timed(run_cli, ["build", str(inputs.wgf_path), str(cli_idx)], work)
            if not ledger.check(proc.returncode == 0, f"wgrindex build exit {proc.returncode}: {proc.stderr[-300:]}"):
                raise RuntimeError("wgrindex build failed")
            digests.add(hashlib.sha256(cli_idx.read_bytes()).hexdigest())
            built = lib.load_index(cli_idx) if r == 0 else None
        else:
            ref, wall, built = clock.timed(lib.build_index, inputs.graph)
            if r > 0:
                ledger.check(lib.space_report(built) == space, f"build_index round {r} gave another space report")
        keep("setup_s", ref, wall)
        if r == 0:
            ix = built
            data, space = first_checks(lib, ix, rep, ledger)
            if wl.via_cli:
                ledger.check(data == cli_idx.read_bytes(), "in-process serialization differs from the CLI's file")
            loop = QueryLoop(lib.query, ix, inputs.patterns, inputs.must_hit, ledger, clock)
        built = None

        loop.run_for(seconds / rounds)

        for _ in range(PER_ROUND):
            keep("save_s", *clock.timed(lib.save_index, ix, saved_idx)[:2])
            gc.collect()
            ref, wall, loaded = clock.timed(lib.load_index, saved_idx)
            keep("load_s", ref, wall)
            loaded = None
        if r == 0:
            ledger.check(lib.serialize_index(lib.load_index(saved_idx)) == data, "save/load round trip changed the bytes")

        for _ in range(PER_ROUND):
            ref, wall, proc = clock.timed(run_cli, query_args, work)
            if ledger.check(proc.returncode == 0, f"wgrindex query exit {proc.returncode}: {proc.stderr[-300:]}"):
                keep("cli_query_s", ref, wall)
                cli_answers_match(proc.stdout, cli_pats, loop.answers, ledger)

    if wl.via_cli:
        ledger.check(len(digests) == 1, f"CLI builds gave {len(digests)} different index files")
    # BENCHMARK.json gives setup_s the unit "s"; like every time here, it is in reference seconds.
    rep.add_times("setup_s", *times["setup_s"], unit="s")
    loop.add_metrics(rep)
    for name in ("save_s", "load_s", "cli_query_s"):
        rep.add_times(name, *times[name])
    rep.add("index_heap_mib", heap_mib(lib, data), "MiB")
    check_oracle(lib, inputs, loop.answers, random.Random(f"oracle/{seed}"), ledger)
    return rep


# ---------------------------------------------------------------- traced


GRAPH_STAGES = ("validate_wheeler", "decompose_paths", "assign_identifiers")
BUILD_STAGES = ("build_bwt", "build_rank_select", "build_partial_sums", "build_toehold", "build_phi")
QUERY_FUNCS = ("count", "locate", "find_interval", "step_interval", "step_toehold", "phi")


class _TracedDict(dict):
    """A dict whose get can be wrapped (instances have a __dict__)."""


def instrument_index(tracer, ix, tallies: dict[str, int]) -> None:
    """Wrap the bound methods queries call on the built index."""

    def on_get(args, result, parent):
        if tracer.name_of(parent) == "step_toehold":
            tallies["toehold_steps"] += 1
            tallies["toehold_plus1"] += result is None  # an unmarked hit takes the +1 rule

    def on_successor(args, result, parent):
        tallies["phi_offset"] += result[0] != args[0]

    tracer.wrap(ix.rl, "rank", "rank")
    tracer.wrap(ix.rl, "select", "select")
    tracer.wrap(ix.phi, "successor", "successor", on_successor)
    pairs = _TracedDict(ix.toehold.pairs)
    tracer.replace(ix.toehold, "pairs", pairs)
    tracer.wrap(pairs, "get", "pairs.get", on_get)


def run_traced(lib, wl, inputs, seconds, seed, work, ledger, clock, tracer) -> Report:
    """Per-layer metrics. Span times are wall times multiplied by the run's
    median clock factor, so they are in reference seconds too."""
    build_mod, query_mod = lib.build, lib.query
    rep = Report()
    g = inputs.graph
    text = inputs.wgf_path.read_text(encoding="ascii") if inputs.wgf_path else lib.to_wgf(g)
    *_, parsed = clock.timed(tracer.span, "parse_graph", lib.parse_graph, text)
    ledger.check((parsed.n, parsed.edges) == (g.n, g.edges), "parse_graph(to_wgf(g)) != g")
    del parsed, text

    # build_index looks its stages up in the build module, so wrap them there.
    for name in ("build_index", *GRAPH_STAGES, *BUILD_STAGES, "space_report"):
        tracer.wrap(build_mod, name, name)
    try:
        gc.collect()
        *_, ix = clock.timed(build_mod.build_index, g)
        space = build_mod.space_report(ix)
    finally:
        tracer.restore()
    check_budget(space, ledger)

    reps = CLI_ROUNDS if wl.via_cli else ROUNDS
    datas = [clock.timed(tracer.span, "serialize_index", lib.serialize_index, ix)[2] for _ in range(reps)]
    data = datas[0]
    ledger.check(all(d == data for d in datas), "serialize_index gave different bytes")
    rep.facts["sha256"] = hashlib.sha256(data).hexdigest()
    del datas
    for _ in range(reps):
        loaded = None
        gc.collect()
        *_, loaded = clock.timed(tracer.span, "deserialize_index", lib.deserialize_index, data)
    ledger.check(lib.serialize_index(loaded) == data, "deserialize/serialize round trip changed the bytes")
    del loaded

    tallies = {"toehold_steps": 0, "toehold_plus1": 0, "phi_offset": 0}
    for name in QUERY_FUNCS:
        tracer.wrap(query_mod, name, name)
    instrument_index(tracer, ix, tallies)
    loop = QueryLoop(query_mod, ix, inputs.patterns, inputs.must_hit, ledger, clock)
    try:
        loop.run_for(seconds)
    finally:
        tracer.restore()
    n = OVERHEAD_PATTERNS
    plain = QueryLoop(query_mod, ix, inputs.patterns[:n], inputs.must_hit[:n], ledger, clock)
    plain.run_passes(loop.passes)
    traced_s = sum(sum(ts[:n]) for ts in loop.latencies())
    untraced_s = sum(sum(ts) for ts in plain.latencies())

    startup = ([], [])  # reference and wall seconds
    for _ in range(STARTUP_REPS):
        ref, wall, proc = clock.timed(run_cli, ["--help"], work)
        if ledger.check(proc.returncode == 0 and "wgrindex" in proc.stdout, f"wgrindex --help exit {proc.returncode}"):
            startup[0].append(ref)
            startup[1].append(wall)

    check_oracle(lib, inputs, loop.answers, random.Random(f"oracle/{seed}"), ledger)

    st = tracer.summary()
    f = statistics.median(clock.factors)

    def add_time(name, wall, unit, samples=1):
        rep.add(name, wall * f, unit, samples, wall)

    total_s = lambda name: st[name].total_ns / 1e9  # noqa: E731
    add_time("graph.parse_graph_s", total_s("parse_graph"), "ref_s")
    for name in GRAPH_STAGES:
        add_time(f"graph.{name}_s", total_s(name), "ref_s")
    add_time("build.build_bwt_s", st["build_bwt"].self_ns / 1e9, "ref_s")  # without its validate_wheeler
    for name in BUILD_STAGES[1:]:
        add_time(f"build.{name}_s", total_s(name), "ref_s")
    for name in ("serialize", "deserialize"):
        calls = st[f"{name}_index"].durations_ns
        add_time(f"build.{name}_s", statistics.median(calls) / 1e9, "ref_s", len(calls))

    rep.add("build.r", space.num_runs, "count")
    rep.add("build.upsilon", space.num_paths, "count")
    rep.add("build.marked", space.marked_count, "count")
    rep.add("build.marked_bound", space.marked_bound, "count")
    rep.add("build.anchors", space.anchor_count, "count")
    rep.add("build.anchor_bound", space.anchor_bound, "count")
    for comp, words in space.words.items():
        rep.add(f"build.words.{comp}", words, "words")
    for comp, size in component_bytes(data).items():
        rep.add(f"build.bytes.{comp}", size, "B")

    steps = st["step_interval"].calls
    queries = st["count"].calls + st["locate"].calls
    add_time("query.step_interval_us", st["step_interval"].mean_us(), "ref_us", steps)
    add_time("query.step_toehold_us", st["step_toehold"].mean_us(self_time=True), "ref_us", st["step_toehold"].calls)
    add_time("query.find_interval_us.p50", st["find_interval"].p50_us(), "ref_us", st["find_interval"].calls)
    add_time("query.phi_us", st["phi"].mean_us(), "ref_us", st["phi"].calls)
    add_time("query.rank_us", st["rank"].mean_us(), "ref_us", st["rank"].calls)
    rep.add("query.rank_calls_per_step", st["rank"].calls / steps, "count", steps)
    rep.add("query.select_calls_per_step", st["select"].calls / steps, "count", steps)
    rep.add("query.toehold_plus1_frac", tallies["toehold_plus1"] / tallies["toehold_steps"], "ratio", tallies["toehold_steps"])
    rep.add("query.phi_offset_frac", tallies["phi_offset"] / st["phi"].calls, "ratio", st["phi"].calls)
    rep.add("query.steps_per_query", steps / queries, "count", queries)
    rep.add("query.hit_frac", loop.hits / len(inputs.patterns), "ratio", len(inputs.patterns))
    rep.add_times("cli.startup_s", *startup)
    rep.add("generators.gen_s", inputs.gen_s, "ref_s", wall=inputs.gen_wall_s)
    rep.add("trace.overhead_frac", traced_s / untraced_s - 1, "ratio", n)
    rep.facts["spans"] = len(tracer.start)
    return rep


# ---------------------------------------------------------------- entry point


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed query loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = import_library()
    nproc = len(os.sched_getaffinity(0))
    # One core for this process and the CLI processes it starts, so the clock
    # calibrates the core that does the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    work = WORK_ROOT / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ledger = Ledger()
        clock = Clock()
        gen_s, gen_wall_s, inputs = clock.timed(workloads.make_inputs, wl.name, args.seed, work)
        inputs.gen_s, inputs.gen_wall_s = gen_s, gen_wall_s
        if args.trace:
            tracer = Tracer()
            rep = run_traced(lib, wl, inputs, args.seconds, args.seed, work, ledger, clock, tracer)
            SPANS_ROOT.mkdir(exist_ok=True)
            spans_path = SPANS_ROOT / f"{wl.name}-{args.seed}.tsv"
            tracer.write(spans_path)
            rep.facts["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            rep = run_end_to_end(lib, wl, inputs, args.seconds, args.seed, work, ledger, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    failed_frac = ledger.failed / ledger.attempted
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("input " + " ".join(f"{k}={v}" for k, v in inputs.sizes.items()) + f" gen_s={inputs.gen_s:.3f}")
    print(f"index sha256={rep.facts['sha256']}")
    if "spans_file" in rep.facts:
        print(f"spans {rep.facts['spans_file']} ({rep.facts['spans']} spans)")
    for name, m in rep.metrics.items():
        wall = f" wall={rep.wall[name]:.6g}" if name in rep.wall else ""
        print(f"metric {name} = {m['value']:.6g} {m['unit']} (samples={m['samples']}{wall})")
    print(f"metric failed_frac = {failed_frac:.6g} ratio ({ledger.failed}/{ledger.attempted})")
    print("clock " + " ".join(f"{k}={v:.4g}" for k, v in clock.facts().items()))
    detail = {"env": env, "inputs": inputs.sizes, "failed_frac": failed_frac, "clock": clock.facts(), **rep.facts}
    detail["samples"] = {k: m["samples"] for k, m in rep.metrics.items()}
    detail["wall"] = rep.wall  # the same statistics over raw wall time, in the metric's scale
    print("detail " + json.dumps(detail))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in rep.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
