import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wgrindex
from wgrindex import build_index, count, load_index, locate, parse_graph, to_wgf, validate_wheeler
from wgrindex.cli import main

from helpers import G1_TEXT, SECTION_CORRUPTIONS, doc_of, file_of, reseal


DATA = Path(__file__).parent / "data"


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.wgf"
    path.write_text(G1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ---

def test_validate_ok(capsys, g1_file):
    code, out, _ = run(capsys, "validate", g1_file)
    assert code == 0
    assert out.splitlines()[0] == "wheeler=true"


def test_validate_rejects_mutant(capsys, tmp_path):
    path = tmp_path / "bad.wgf"
    path.write_text("n 4\nm 3\ne 0 1 0\ne 1 3 0\ne 3 2 0\n")  # b-edge relabelled
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "wheeler=false"
    assert any(line.startswith("A2:") for line in lines[1:])


def test_validate_sparse_label_takes_no_time(capsys, tmp_path):
    # the per-label state is kept for the labels that occur: a label near
    # 10**9 used to make validation allocate four lists of that length
    path = tmp_path / "sparse.wgf"
    path.write_text("n 3\nm 2\ne 0 1 0\ne 1 2 1000000000\n")
    g = parse_graph(path.read_text())
    start = time.perf_counter()
    assert validate_wheeler(g).is_wheeler
    assert time.perf_counter() - start < 0.1
    assert run(capsys, "validate", str(path)) == (0, "wheeler=true\n", "")


@pytest.mark.parametrize("command", ["validate", "build"])
def test_vertex_count_past_memory_exits_2(tmp_path, command):
    # the 8 * 10**15 bytes of the degree lists are past the address space,
    # so the allocation raises MemoryError at once: a traceback and exit 1,
    # the code for "not a Wheeler order"
    wgf, idx = tmp_path / "huge.wgf", tmp_path / "huge.idx"
    wgf.write_text("n 1000000000000000\nm 0\n")
    src = str(Path(wgrindex.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wgrindex", command, str(wgf), *([str(idx)] if command == "build" else [])],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: the input is too large for memory\n")
    assert not idx.exists()


def test_validate_vertex_count_past_the_largest_list(capsys, tmp_path):
    # exit 1 means "not a Wheeler order"; this input is unusable, so 2
    path = tmp_path / "huge.wgf"
    path.write_text("n 10000000000000000000\nm 0\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert err == f"error: vertex count 10000000000000000000 is outside [0, {sys.maxsize}]\n"


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "nope.wgf"))
    assert code == 2
    assert "error:" in err


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "broken.wgf"
    path.write_text("n 2\nm 1\ne 0 5 0\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 3" in err


# --- build ---

def test_build_prints_sizes_and_writes_index(capsys, g1_file, tmp_path):
    idx = tmp_path / "g1.idx"
    code, out, _ = run(capsys, "build", g1_file, str(idx))
    assert code == 0
    assert out.startswith("n=4 m=3 r=3 upsilon=1")
    ix = load_index(idx)
    assert count(ix, (0, 1)) == 1


def test_build_byte_identical_rebuild(capsys, g1_file, tmp_path):
    a, b = tmp_path / "a.idx", tmp_path / "b.idx"
    assert run(capsys, "build", g1_file, str(a))[0] == 0
    assert run(capsys, "build", g1_file, str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_rejects_non_wheeler(capsys, tmp_path):
    path = tmp_path / "bad.wgf"
    path.write_text("n 2\nm 1\ne 1 0 0\n")
    code, _, err = run(capsys, "build", str(path), str(tmp_path / "x.idx"))
    assert code == 1
    assert "error:" in err


# --- query ---

@pytest.fixture
def g1_idx(capsys, g1_file, tmp_path):
    idx = tmp_path / "g1.idx"
    assert main(["build", g1_file, str(idx)]) == 0
    capsys.readouterr()
    return str(idx)


def test_query_locate(capsys, g1_idx, tmp_path):
    pats = tmp_path / "p.txt"
    pats.write_text("a\n")
    code, out, _ = run(capsys, "query", g1_idx, "--mode", "locate", "--patterns", str(pats))
    assert code == 0
    assert out == "locate 2 3 0\n"


def test_query_count_modes(capsys, g1_idx, tmp_path):
    pats = tmp_path / "p.txt"
    pats.write_text("ab\n\nzz\nba\n")
    code, out, _ = run(capsys, "query", g1_idx, "--mode", "count", "--patterns", str(pats))
    assert code == 0
    assert out.splitlines() == ["count 1", "count 4", "count 0", "count 1"]


def test_query_reads_stdin(capsys, g1_idx, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a\nab\n"))
    code, out, _ = run(capsys, "query", g1_idx, "--mode", "count")
    assert code == 0
    assert out.splitlines() == ["count 2", "count 1"]


def test_query_patterns_file_and_stdin_agree_on_utf8(capsys, g1_idx, tmp_path, monkeypatch):
    pats = tmp_path / "p.txt"
    pats.write_bytes("äb\n".encode("utf-8"))
    from_file = run(capsys, "query", g1_idx, "--mode", "count", "--patterns", str(pats), "--map", "äb")
    monkeypatch.setattr("sys.stdin", io.StringIO("äb\n"))
    from_stdin = run(capsys, "query", g1_idx, "--mode", "count", "--map", "äb")
    assert from_file == from_stdin == (0, "count 1\n", "")  # same as "ab"


def test_query_custom_map(capsys, g1_idx, tmp_path):
    pats = tmp_path / "p.txt"
    pats.write_text("xy\n")
    code, out, _ = run(capsys, "query", g1_idx, "--mode", "count", "--patterns", str(pats), "--map", "xy")
    assert code == 0
    assert out == "count 1\n"  # same as "ab"


def test_query_rejects_a_map_that_repeats_a_character(capsys, tmp_path):
    # "aab" put a at labels 0 and 1, but a lookup found only label 0, so
    # "ab" counted 0 on the path a, b and no character reached label 1
    wgf, idx, pats = tmp_path / "t.wgf", tmp_path / "t.idx", tmp_path / "p.txt"
    wgf.write_text("n 3\nm 2\ne 0 1 0\ne 1 2 1\n")
    pats.write_text("ab\n")
    assert run(capsys, "build", str(wgf), str(idx))[0] == 0
    code, out, err = run(capsys, "query", str(idx), "--mode", "count", "--patterns", str(pats), "--map", "aab")
    assert (code, out, err) == (2, "", "error: --map repeats character 'a'\n")
    code, out, err = run(capsys, "query", str(idx), "--mode", "locate", "--patterns", str(pats), "--map", "xbyb")
    assert (code, out, err) == (2, "", "error: --map repeats character 'b'\n")
    assert run(capsys, "query", str(idx), "--mode", "count", "--patterns", str(pats), "--map", "ab") == (0, "count 1\n", "")


def test_query_unmapped_character_counts_zero(capsys, g1_idx, tmp_path):
    pats = tmp_path / "p.txt"
    pats.write_text("a!\n")
    code, out, _ = run(capsys, "query", g1_idx, "--mode", "count", "--patterns", str(pats))
    assert code == 0
    assert out == "count 0\n"


def test_query_bad_index_file(capsys, tmp_path):
    bad = tmp_path / "bad.idx"
    bad.write_text("garbage")
    code, _, err = run(capsys, "query", str(bad), "--mode", "count", "--patterns", str(bad))
    assert code == 2
    assert "error:" in err


def _corrupt_copy(src: str, dst, **fields) -> str:
    """The index at src with fields replaced, its checksum written again."""
    doc = doc_of(load_index(src))
    doc.update(fields)
    dst.write_bytes(file_of(doc))
    return str(dst)


def abbabaab_with_sentinel_at(tmp_path, t: int) -> str:
    """A copy of the "abbabaab" path index whose predecessor sentinel -1 is
    swapped into anchor t; every such copy loads."""
    wgf, idx = tmp_path / "abbabaab.wgf", tmp_path / "abbabaab.idx"
    assert main(["gen", "string", "abbabaab", "-o", str(wgf)]) == 0
    assert main(["build", str(wgf), str(idx)]) == 0
    pred_ids = doc_of(load_index(idx))["pred_ids"]
    assert pred_ids == [7, 5, 8, 6, 0, -1, 1]
    pred_ids[5], pred_ids[t] = pred_ids[t], -1
    return _corrupt_copy(str(idx), tmp_path / "bad.idx", pred_ids=pred_ids)


def locate_b_fails_mid_query(capsys, tmp_path, bad: str, message: str) -> None:
    capsys.readouterr()
    pats = tmp_path / "p.txt"
    pats.write_text("b\n")
    code, out, err = run(capsys, "query", bad, "--mode", "locate", "--patterns", str(pats))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: corrupt index: {message}")
    assert "Traceback" not in err


def test_query_corrupt_index_exits_2_without_traceback_v5(capsys, tmp_path):
    # identifier 2 takes its predecessor by an offset from anchor 3, which
    # now holds the sentinel
    bad = abbabaab_with_sentinel_at(tmp_path, 1)
    locate_b_fails_mid_query(capsys, tmp_path, bad, "offset step from anchor 3 to identifier 2 gives predecessor -2")


def test_query_first_in_order_error_exits_2_without_traceback_v5(capsys, tmp_path):
    # the phi step from identifier 5 reaches identifier 4, now named first;
    # a sound index never asks for the predecessor of the first vertex
    bad = abbabaab_with_sentinel_at(tmp_path, 2)
    locate_b_fails_mid_query(capsys, tmp_path, bad, "identifier 4 names the first vertex")


def test_query_offset_below_the_first_identifier_exits_2_without_traceback(capsys, tmp_path):
    # "abba" with the predecessor of anchor 1 lowered from 4 to 0 loads; the
    # phi step from identifier 0 gave -1, and the next one raised ValueError,
    # which the CLI printed without "corrupt index:" beside an empty pattern
    wgf, idx = tmp_path / "abba.wgf", tmp_path / "abba.idx"
    assert main(["gen", "string", "abba", "-o", str(wgf)]) == 0
    assert main(["build", str(wgf), str(idx)]) == 0
    doc = doc_of(load_index(idx))
    assert (doc["anchor_ids"], doc["pred_ids"]) == ([1, 1, 1, 1], [4, 1, -1, 0])
    bad = _corrupt_copy(str(idx), tmp_path / "bad.idx", pred_ids=[0, 1, -1, 0])
    capsys.readouterr()
    pats = tmp_path / "p.txt"
    pats.write_text("\n")
    code, out, err = run(capsys, "query", bad, "--mode", "locate", "--patterns", str(pats))
    assert (code, out) == (2, "")
    assert err == "error: corrupt index: offset step from anchor 1 to identifier 0 gives predecessor -1, below 0\n"


def query_fails_at_load(capsys, tmp_path, bad: str, mode: str, pattern: str, message: str) -> None:
    pats = tmp_path / "p.txt"
    pats.write_text(pattern + "\n")
    code, out, err = run(capsys, "query", bad, "--mode", mode, "--patterns", str(pats))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: corrupt index: {message}")


def test_query_emptied_anchors_rejected_at_load_v5(capsys, g1_idx, tmp_path):
    bad = _corrupt_copy(g1_idx, tmp_path / "bad.idx", anchor_ids=[], pred_ids=[])
    query_fails_at_load(capsys, tmp_path, bad, "locate", "a", "pred_ids")


def test_query_short_prefix_array_rejected_at_load_v5(capsys, g1_idx, tmp_path):
    # the out-degree exceptions of g1 are one pair, rank 2 with prefix 2
    assert doc_of(load_index(g1_idx))["out_prefix"] == [2, 2]
    bad = _corrupt_copy(g1_idx, tmp_path / "bad.idx", out_prefix=[2])
    query_fails_at_load(capsys, tmp_path, bad, "count", "ab", "out_prefix")


def test_query_damaged_file_rejected_by_checksum_v5(capsys, g1_idx, tmp_path):
    # one byte of the run labels changed, from label 1 to label 0: the
    # section holds the bytes 0 and 1, base64 "AAE="
    data = open(g1_idx, "rb").read()
    assert data.count(b'"run_labels":"bAAE="') == 1
    bad = tmp_path / "bad.idx"
    bad.write_bytes(data.replace(b'"run_labels":"bAAE="', b'"run_labels":"bAAA="'))
    query_fails_at_load(capsys, tmp_path, str(bad), "count", "a", "checksum")


@pytest.mark.parametrize("command", ["query", "stats"])
@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("name", ["g1", "trie", "cycle"])
def test_index_before_version_4_exits_2(capsys, tmp_path, name, version, command):
    # a load refuses every version but 7 and names the way to build the
    # index again (the name dates from when version 4 loaded)
    pats = tmp_path / "p.txt"
    pats.write_text("a\n")
    extra = ["--mode", "count", "--patterns", str(pats)] if command == "query" else []
    code, out, err = run(capsys, command, str(DATA / f"{name}.v{version}.idx"), *extra)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: unsupported index version {version}: version 7 is read")
    assert "wgrindex build" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["query", "stats"])
def test_deeply_nested_file_exits_2(capsys, tmp_path, command):
    # json.loads raised RecursionError, and the CLI printed a traceback
    # and exited 1, the code for "not a Wheeler order"
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"[" * 100_000)
    pats = tmp_path / "p.txt"
    pats.write_text("a\n")
    extra = ["--mode", "count", "--patterns", str(pats)] if command == "query" else []
    code, out, err = run(capsys, command, str(bad), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: not an index file")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value",
    # no section word holds 2**63; a last run gap of 2**63 - 1 overflowed too
    [pytest.param("m", 2**63, id="v5-m"), pytest.param("run_starts", 2**63 - 1, id="v5-run_starts")],
)
def test_stats_of_a_value_past_a_word_exits_2(capsys, tmp_path, field, value):
    # m = 2**63, or a last run gap of 2**63 - 1, made the loader raise
    # OverflowError: the CLI printed a traceback and exited 1
    wgf, idx = tmp_path / "abacba.wgf", tmp_path / "abacba.idx"
    assert main(["gen", "string", "abacba", "-o", str(wgf)]) == 0
    assert main(["build", str(wgf), str(idx)]) == 0
    if field == "run_starts":  # the last run gap of the largest label
        sections = doc_of(load_index(idx))["run_starts"]
        value = sections[:-1] + [sections[-1][:-1] + [value]]
    bad = _corrupt_copy(str(idx), tmp_path / "bad.idx", **{field: value})
    src = str(Path(wgrindex.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wgrindex", "stats", bad],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: corrupt index: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["query", "stats"])
@pytest.mark.parametrize("member, value, fragment", SECTION_CORRUPTIONS.values(), ids=SECTION_CORRUPTIONS)
def test_corrupt_section_exits_2(capsys, tmp_path, member, value, fragment, command):
    doc = json.loads((DATA / "g1.v7.idx").read_bytes())
    doc[member] = value
    bad = tmp_path / "bad.idx"
    bad.write_bytes(reseal(doc))
    pats = tmp_path / "p.txt"
    pats.write_text("a\n")
    extra = ["--mode", "count", "--patterns", str(pats)] if command == "query" else []
    code, out, err = run(capsys, command, str(bad), *extra)
    assert (code, out) == (2, "")
    assert re.match(f"error: corrupt index: {fragment}", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("label", [2**60 - 1, 2**63 - 2, 2**63 - 1, 2**63, 2**70])
def test_build_of_a_label_past_a_word_exits_2(capsys, tmp_path, label):
    # a label up to 2**63 - 1, the largest a section word holds, builds a
    # file that loads and answers; a larger one exits 2 and writes no file.
    # (A save of the dense f_label of version 5 raised OverflowError or
    # MemoryError, a traceback and exit 1, before a guard refused them all.)
    wgf, idx = tmp_path / "big.wgf", tmp_path / "big.idx"
    wgf.write_text(f"n 2\nm 1\ne 0 1 {label}\n")
    code, out, err = run(capsys, "build", str(wgf), str(idx))
    if label < 2**63:
        assert (code, out, err) == (0, "n=2 m=1 r=1 upsilon=1 marked=1 anchors=2\n", "")
        ix = load_index(idx)
        assert (ix.sigma, count(ix, (label,)), locate(ix, (label,)), count(ix, (0,))) == (label + 1, 1, [1], 0)
        assert run(capsys, "stats", str(idx))[1].splitlines()[2] == f"sigma={label + 1}"
        return
    assert (code, out) == (2, "")
    assert err == f"error: label {label} is past {2**63 - 1}, the largest a section word holds\n"
    assert not idx.exists()


# --- gen ---

def test_gen_string_writes_g1(capsys, tmp_path):
    out_file = tmp_path / "out.wgf"
    code, out, _ = run(capsys, "gen", "string", "aba", "-o", str(out_file))
    assert code == 0
    assert out == "n=4 upsilon=1\n"
    assert parse_graph(out_file.read_text()) == parse_graph(G1_TEXT)


def test_gen_to_stdout(capsys):
    code, out, err = run(capsys, "gen", "string", "aba")
    assert code == 0
    assert parse_graph(out) == parse_graph(G1_TEXT)
    assert err.strip() == "n=4 upsilon=1"


def test_gen_multi(capsys, tmp_path):
    out_file = tmp_path / "m.wgf"
    code, out, _ = run(capsys, "gen", "multi", "ab", "ab", "-o", str(out_file))
    assert code == 0
    assert out == "n=6 upsilon=2\n"


def test_gen_trie(capsys, tmp_path):
    out_file = tmp_path / "t.wgf"
    code, out, _ = run(capsys, "gen", "trie", "ab", "ac", "-o", str(out_file))
    assert code == 0
    assert out.startswith("n=4 ")


def test_gen_cycle(capsys, tmp_path):
    out_file = tmp_path / "c.wgf"
    code, out, _ = run(capsys, "gen", "cycle", "aabab", "-o", str(out_file))
    assert code == 0
    assert out == "n=5 upsilon=1\n"


@pytest.mark.parametrize(
    "family, strings",
    [("cycle", ["b"]), ("cycle", ["abbab"]), ("trie", ["ab", "ac"]), ("trie", ["a", "ba", "bab", "c"])],
)
def test_gen_upsilon_matches_built_index(capsys, tmp_path, family, strings):
    out_file = tmp_path / "g.wgf"
    code, out, _ = run(capsys, "gen", family, *strings, "-o", str(out_file))
    assert code == 0
    ix = build_index(parse_graph(out_file.read_text()))
    assert out == f"n={ix.n} upsilon={ix.num_paths}\n"


def test_gen_cycle_rejects_non_primitive(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "cycle", "aa", "-o", str(tmp_path / "c.wgf"))
    assert code == 2
    assert "primitive" in err


def test_gen_rejects_a_map_that_repeats_a_character(capsys, tmp_path):
    out_file = tmp_path / "g.wgf"
    code, out, err = run(capsys, "gen", "string", "ab", "--map", "aab", "-o", str(out_file))
    assert (code, out, err) == (2, "", "error: --map repeats character 'a'\n")
    assert not out_file.exists()


@pytest.mark.parametrize("family", ["string", "cycle"])
def test_gen_one_string_family_rejects_two(capsys, family):
    code, out, err = run(capsys, "gen", family, "ab", "ba")
    assert code == 2 and out == ""
    assert f"family '{family}' takes exactly one string" in err


def test_gen_unknown_family(capsys):
    code, _, _ = run(capsys, "gen", "debruijn", "ab")
    assert code == 2


def test_unknown_flag_rejected(capsys, g1_file):
    code, _, _ = run(capsys, "validate", g1_file, "--frobnicate")
    assert code == 2


# --- stats ---

def test_stats(capsys, g1_idx):
    code, out, _ = run(capsys, "stats", g1_idx)
    assert code == 0
    lines = out.splitlines()
    assert "n=4" in lines and "r=3" in lines and "upsilon=1" in lines
    assert "marked=3" in lines and "marked_bound=7" in lines
    assert "anchors=3" in lines and "anchors_bound=12" in lines
    assert "degree_exceptions=2" in lines and "degree_bound=4" in lines
    assert any(line.startswith("words_total=") for line in lines)


# --- pipeline and module entry ---

def test_pipeline_matches_library(capsys, tmp_path):
    wgf = tmp_path / "g.wgf"
    idx = tmp_path / "g.idx"
    pats = tmp_path / "p.txt"
    assert main(["gen", "trie", "abc", "abd", "ba", "-o", str(wgf)]) == 0
    assert main(["build", str(wgf), str(idx)]) == 0
    capsys.readouterr()

    patterns = ["a", "ab", "b", "", "abc", "zzz", "ba"]
    pats.write_text("".join(p + "\n" for p in patterns))
    code, out, _ = run(capsys, "query", str(idx), "--mode", "locate", "--patterns", str(pats))
    assert code == 0

    g = parse_graph(wgf.read_text())
    ix = build_index(g)
    expected = []
    for p in patterns:
        ids = locate(ix, tuple(ord(c) - 97 for c in p))
        expected.append(" ".join(["locate", str(len(ids)), *map(str, ids)]))
    assert out.splitlines() == expected


def test_module_entry_smoke(tmp_path):
    wgf = tmp_path / "g.wgf"
    wgf.write_text(G1_TEXT)
    # the child imports the package the tests import, however pytest found it
    src = str(Path(wgrindex.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "wgrindex", "validate", str(wgf)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "wheeler=true"
