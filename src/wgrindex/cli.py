"""Command-line front end: generate, validate, build, query, stats.

Exit codes: 0 success, 1 domain failure (input numbering is not a valid
order), 2 usage or I/O errors or a corrupt index file. Stdout carries
machine-parseable results; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import string
import sys

from .build import build_index, load_index, save_index, space_report
from .errors import FirstInOrderError, IndexInvariantError, NotWheelerError
from .generators import gen_multi_paths, gen_string_cycle, gen_string_path, gen_trie
from .graph import decompose_paths, parse_graph, to_wgf, validate_wheeler
from .query import count, locate

DEFAULT_MAP = string.ascii_lowercase
GENERATORS = {
    "string": gen_string_path, "cycle": gen_string_cycle, "multi": gen_multi_paths, "trie": gen_trie
}


def _read_graph(path: str):
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def _map_pattern(pattern: str, table: str) -> tuple[int, ...] | None:
    """Translate characters to labels; None when a character has no label
    (such a pattern cannot match anything)."""
    labels = tuple(map(table.find, pattern))
    return None if -1 in labels else labels


def cmd_validate(args) -> int:
    g = _read_graph(args.graph_file)
    report = validate_wheeler(g)
    print(f"wheeler={'true' if report.is_wheeler else 'false'}")
    for violation in report.violations:
        print(violation)
    return 0 if report.is_wheeler else 1


def cmd_build(args) -> int:
    g = _read_graph(args.graph_file)
    ix = build_index(g)
    save_index(ix, args.index_file)
    print(
        f"n={ix.n} m={ix.m} r={len(ix.rl.run_labels)} upsilon={ix.num_paths} "
        f"marked={len(ix.toehold.pairs)} anchors={len(ix.phi.anchor_ids)}"
    )
    return 0


def cmd_query(args) -> int:
    ix = load_index(args.index_file)
    if args.patterns:
        with open(args.patterns, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        lines = sys.stdin.read().splitlines()
    for line in lines:
        pattern = _map_pattern(line, args.map)
        if args.mode == "count":
            k = 0 if pattern is None else count(ix, pattern)
            print(f"count {k}")
        else:
            ids = [] if pattern is None else locate(ix, pattern)
            print(" ".join(["locate", str(len(ids)), *map(str, ids)]))
    return 0


def cmd_gen(args) -> int:
    seqs = [_map_pattern(a, args.map) for a in args.args]
    if any(s is None for s in seqs):
        raise ValueError(f"arguments must use characters from the map {args.map!r}")
    if args.family in ("string", "cycle"):
        if len(seqs) != 1:
            raise ValueError(f"family {args.family!r} takes exactly one string")
        seqs = seqs[0]
    g = GENERATORS[args.family](seqs).graph
    text = to_wgf(g)
    stats = f"n={g.n} upsilon={decompose_paths(g).num_paths}"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(stats)
    else:
        sys.stdout.write(text)
        print(stats, file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    ix = load_index(args.index_file)
    for line in space_report(ix).lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgrindex",
        description="Run-length compressed count/locate index for Wheeler graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the ordering axioms of a WGF file")
    p.add_argument("graph_file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="build and save an index from a WGF file")
    p.add_argument("graph_file")
    p.add_argument("index_file")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer count/locate queries from an index")
    p.add_argument("index_file")
    p.add_argument("--mode", required=True, choices=["count", "locate"])
    p.add_argument("--patterns", help="file with one pattern per line (default: stdin)")
    p.add_argument(
        "--map",
        default=DEFAULT_MAP,
        help="character-to-label table: the k-th character maps to label k "
        "(default: lowercase a-z)",
    )
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("gen", help="emit a generated WGF instance")
    p.add_argument("family", choices=list(GENERATORS))
    p.add_argument("args", nargs="+", help="label strings (in map characters)")
    p.add_argument("-o", "--output", help="write the WGF here instead of stdout")
    p.add_argument("--map", default=DEFAULT_MAP)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="print the space report of a saved index")
    p.add_argument("index_file")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NotWheelerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # WgfParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IndexInvariantError, FirstInOrderError) as exc:  # only a corrupt index raises these
        print(f"error: corrupt index: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
