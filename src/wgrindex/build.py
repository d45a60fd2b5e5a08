"""Construction of the run-length index components from a validated graph.

The index stores, per edge-label position: run boundaries with rank/select
directories that count in-slots, degree partial sums kept only at the ranks
whose degree is not 1, a table of endpoint identifiers at marked positions
(so the identifier of the last matched vertex can be maintained during a
query), and a sorted anchor set from which the order-predecessor of any
identifier can be recovered by successor lookup plus offset arithmetic.
"""

from __future__ import annotations

import json
import sys
import zlib
from array import array
from base64 import b64decode, b64encode
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, pairwise, repeat
from operator import eq, ge, sub

from .errors import NotWheelerError
from .graph import (
    IdAssignment,
    WheelerGraph,
    assign_identifiers,
    decompose_paths,
    validate_wheeler,
)

_FORMAT = "wgrindex"
_VERSION = 7
_SEAL = b',"crc32":'
_SECTIONS = ("run_starts", "run_labels", "out_prefix", "in_prefix", "f_label",
             "marked_positions", "marked_pairs", "break_ranks", "anchor_ids", "pred_ids")
_WORDS = ("b", "h", "i", "q")  # array typecodes of signed 1-, 2-, 4- and 8-byte words
_INT = frozenset((int,))
_INT_OR_NONE = frozenset((int, type(None)))
_PER_BUCKET = 16  # average entries per cut-table bucket: a label's runs, or the phi anchors


def build_bwt(g: WheelerGraph) -> tuple[list[int], list[int], dict[int, tuple[list[int], list[int]]]]:
    """The transform that validation read, as the label and the destination
    rank of the edge at each position, the edges sorted by (source rank,
    destination rank, input order), and its runs grouped by label
    (ValidationReport.runs). Rejects invalid orders."""
    report = validate_wheeler(g)
    if not report.is_wheeler:
        detail = "; ".join(str(v) for v in report.violations)
        raise NotWheelerError(f"input numbering is not a Wheeler order: {detail}")
    return report.labels, report.dsts, report.runs


def _cut_table(values, end: int) -> tuple[int, array]:
    """shift, the least with len(values) << shift >= _PER_BUCKET * end, and
    cuts[b], the values below b << shift, for b up to (end >> shift) + 1:
    for v in [0, end), bisect_left(values, v) is that of the ascending
    values bisected in [cuts[v >> shift], cuts[(v >> shift) + 1]) alone."""
    shift = (-(-_PER_BUCKET * end // max(len(values), 1)) - 1).bit_length()
    return shift, _narrow(list(map(bisect_left, repeat(values), range(0, (end >> shift) + 2 << shift, 1 << shift))))


@dataclass
class RLSequence:
    """Rank/select over a run-length encoded label sequence.

    Keeps, per label in ascending order, a directory of its runs: their
    starts, a list that rank bisects; cums, the in-slots that queries only
    index: the labels below c (the FM-index C[c]) plus the occurrences of
    c before each run, then after the last; shift and cuts, the _cut_table
    of the starts, so rank bisects one bucket's runs; and end_ids, the
    identifier each run's last edge enters (its toehold sample). All but
    starts are narrowest-word arrays (_narrow); storage is O(runs +
    distinct labels), and nothing is kept in run order.
    """

    runs_of: dict[int, tuple[list[int], array, int, array, array]] = field(repr=False)

    @classmethod
    def of_runs(cls, m: int, runs: dict[int, tuple[list[int], list[int], list[int] | array]]) -> RLSequence:
        """The directories of the runs in [0, m): runs maps each label,
        ascending, to its runs' ascending starts, their ends (each the next
        start of any label, or m) and the identifiers their last edges
        enter. Raises ValueError when two neighbouring runs have one label."""
        directories, below = {}, 0
        for c, (starts, ends, ids) in runs.items():
            if any(map(eq, ends, starts[1:])):
                raise ValueError("corrupt index: two neighbouring runs have the same label")
            cums = _narrow(list(accumulate(map(sub, ends, starts), initial=below)))
            # starts[:] drops the slack of appends and accumulate: the list kept is exact
            directories[c], below = (starts[:], cums, *_cut_table(starts, m), _narrow(ids)), cums[-1]
        return cls(directories)

    def rank(self, c: int, p: int) -> int:
        """The LF value of c at p in [0, m]: the labels below c plus the
        occurrences of c in [0, p), for a label c that occurs."""
        starts, cums, shift, cuts, _ = self.runs_of[c]
        b = p >> shift
        t = bisect_left(starts, p, cuts[b], cuts[b + 1])  # runs of c starting strictly before p
        if t == 0:
            return cums[0]
        k = cums[t - 1] + p - starts[t - 1]
        end = cums[t]  # one read: each read of an array makes a new int
        return k if k < end else end  # at most the whole of run t - 1

    def select(self, c: int, k: int) -> int:
        """Position of the c at in-slot k, one that a run of c holds."""
        starts, cums, _, _, _ = self.runs_of[c]
        t = bisect_right(cums, k) - 1
        return starts[t] + (k - cums[t])


def build_rank_select(runs: dict[int, tuple[list[int], list[int]]], dsts: list[int], id_of_rank: list[int]) -> RLSequence:
    """Rank/select directories over the runs of the edge labels in transform
    order, as validation groups them (ValidationReport.runs), each with the
    id of dsts[p] at its last p, just before its end."""
    return RLSequence.of_runs(len(dsts), {
        c: (starts, ends, list(map(id_of_rank.__getitem__, map(dsts.__getitem__, map(sub, ends, repeat(1))))))
        for c, (starts, ends) in runs.items()})


@dataclass
class DegreeSums:
    """Cumulative out-degrees and in-degrees.

    A rank whose degree is not 1 is a path endpoint, so each side stores
    only its exceptions: the ascending ranks whose degree is not 1
    (out_ranks / in_ranks) and the prefix sum just after each of them
    (out_after / in_after). Between exceptions every degree is 1, which
    fills in the rest.
    """

    out_ranks: list[int]
    out_after: list[int]
    in_ranks: list[int]
    in_after: list[int]

    def out_prefix(self, k: int) -> int:
        """Out-edges leaving ranks below k."""
        return _prefix(self.out_ranks, self.out_after, k)


def _exceptions(degrees) -> tuple[list[int], list[int]]:
    """One side's exception ranks and the prefix sum just after each, as
    slices at their exact size: a comprehension leaves growth slack."""
    ranks = [k for k, d in enumerate(degrees) if d != 1]
    # The prefix after rank k is k + 1 plus the excess (d - 1) of the
    # exceptions up to k; every other rank adds exactly 1.
    excess = accumulate(degrees[k] - 1 for k in ranks)
    return ranks[:], [k + 1 + x for k, x in zip(ranks, excess)][:]


def _prefix(ranks: list[int], after: list[int], k: int) -> int:
    """Sum of the first k degrees of one side, from its exceptions."""
    t = bisect_left(ranks, k)  # exceptions below k
    return after[t - 1] + k - ranks[t - 1] - 1 if t else k


def _f_label(rl: RLSequence, m: int) -> list[int]:
    """f_label, which only an index file holds: each label that occurs,
    ascending, then its first in-slot, the FM-index C[c]; last m."""
    return [x for c, runs in rl.runs_of.items() for x in (c, runs[1][0])] + [m]


def build_partial_sums(g: WheelerGraph) -> DegreeSums:
    return DegreeSums(*_exceptions(g.out_degrees), *_exceptions(g.in_degrees))


@dataclass
class ToeholdTable:
    """Endpoint identifiers stored at marked transform positions.

    A marked position holds the identifier of its edge's destination, the
    only endpoint a query step reads. Positions are marked exactly where a
    query step may need a stored answer; everywhere else the tracked
    identifier advances with the +1 rule, so the marks plus that rule cover
    every step. Every run end is marked (rule M1), and a step reads its
    identifier from its run's directory (RLSequence end_ids); pairs maps
    each other marked position, the extras, ascending, to its identifier.
    """

    pairs: dict[int, int]


def _required_marks(rl: RLSequence, sums: DegreeSums, break_ranks) -> tuple[set[int], dict[int, tuple[int, int]]]:
    """The positions that must be marked besides the run ends (rule M1,
    which the index format implies), and those of the edges entering a
    path endpoint, each with the endpoint rank it enters and its label:
      M2: every edge leaving or entering a path endpoint;
      M3: every edge leaving the rank before an endpoint with no out-edges.
    The path endpoints are the ranks whose degree is not 1 and the ranks at
    which cycles are broken. The edge in in-slot s is at select(c, s) for
    the largest label c whose first in-slot is at most s."""
    in_ranks, in_after = sums.in_ranks, sums.in_after
    labels = list(rl.runs_of)  # ascending, and so are their first in-slots
    firsts = [runs[1][0] for runs in rl.runs_of.values()]
    marks, into = set(), {}
    for k in set(sums.out_ranks).union(sums.in_ranks, break_ranks):
        lo, hi = sums.out_prefix(k), sums.out_prefix(k + 1)
        marks.update(range(lo, hi))
        if lo == hi and k > 0:
            marks.update(range(sums.out_prefix(k - 1), lo))
        for slot in range(_prefix(in_ranks, in_after, k), _prefix(in_ranks, in_after, k + 1)):
            c = labels[bisect_right(firsts, slot) - 1]
            into[rl.select(c, slot)] = k, c
    return marks.union(into), into


def build_toehold(
    ids: IdAssignment, labels: list[int], dsts: list[int], rl: RLSequence, sums: DegreeSums, break_ranks: list[int]
) -> ToeholdTable:
    """Record the identifier of dsts[p], the destination rank of the edge at
    p, at each position _required_marks names that is not a run end: the
    label at p + 1 is labels[p]. rl holds the run ends' identifiers."""
    m = len(labels)
    extras = sorted(p for p in _required_marks(rl, sums, break_ranks)[0] if p + 1 < m and labels[p] == labels[p + 1])
    return ToeholdTable({p: ids.id_of_rank[dsts[p]] for p in extras})


@dataclass
class PhiStructure:
    """Sorted identifier anchors with each one's order-predecessor.

    anchor_ids holds, ascending, the identifiers whose order-predecessor is
    stored explicitly, the column successor bisects; pred_ids[t] is the
    identifier of the vertex directly before anchor_ids[t] in the vertex
    order, -1 for the order-first vertex. shift and cuts, the _cut_table of
    the anchors, made here for a build and a load alike, let successor
    bisect one bucket of anchors per reported vertex. The columns may be
    given as lists, which the table bisects without making an int per
    probe; all three are kept as exact-size arrays of the narrowest word
    (_narrow), which stay in cache where int objects do not.
    Between anchors the predecessor of i + 1 is that of i plus one, which
    is what makes successor lookup plus offset arithmetic recover every
    other predecessor.
    """

    anchor_ids: array
    pred_ids: array
    shift: int = field(init=False)
    cuts: array = field(init=False, repr=False)

    def __post_init__(self) -> None:
        anchors = self.anchor_ids
        self.shift, self.cuts = _cut_table(anchors, anchors[-1] + 1 if anchors else 0)
        # the anchors ascend, so the last one's word is _narrow's, found with no trial pass
        self.anchor_ids, self.pred_ids = array(_narrow(anchors[-1:]).typecode, anchors), _narrow(self.pred_ids)

    def successor(self, i: int) -> tuple[int, int]:
        """Smallest anchor >= i, for 0 <= i <= the last anchor, with its stored
        predecessor identifier, -1 for the order-first vertex."""
        cuts = self.cuts
        b = i >> self.shift
        t = bisect_left(self.anchor_ids, i, cuts[b], cuts[b + 1])
        return self.anchor_ids[t], self.pred_ids[t]


def build_phi(ids: IdAssignment) -> PhiStructure:
    """Collect the anchor identifiers and their order-predecessors.

    With pred(i) the identifier of the vertex ranked just before vertex i
    (-1 for the order-first vertex), identifier i is anchored exactly
    when i = n - 1, pred(i) or pred(i + 1) is -1, or pred(i + 1) !=
    pred(i) + 1. Every other i gets pred(j) - (j - i) right from its anchor
    successor j, and each anchor is needed, so no smaller set serves phi.
    Both columns are handed over as lists, which PhiStructure narrows.
    """
    id_of = ids.id_of_rank
    preds = [id_of[k - 1] if k else -1 for k in ids.rank_of_id]
    # pred(n) is taken as -1, so n - 1 is anchored too; q = -1 != p + 1.
    anchors = [i for i, (p, q) in enumerate(pairwise(preds + [-1])) if p < 0 or q != p + 1]
    return PhiStructure(anchor_ids=anchors, pred_ids=[preds[i] for i in anchors])


@dataclass
class WheelerRIndex:
    """Everything needed to answer count and locate queries.

    Immutable once built; safe for unlimited concurrent readers. Note the
    transform itself is not retained, only its run structure.
    """

    n: int
    m: int
    sigma: int
    num_paths: int
    # Ascending ranks with in- and out-degree 1 at which decompose_paths
    # broke a cycle: the path endpoints that the degree sums do not show.
    break_ranks: list[int]
    last_rank_id: int | None  # identifier of the vertex at rank n-1
    rl: RLSequence
    sums: DegreeSums
    toehold: ToeholdTable
    phi: PhiStructure


def build_index(g: WheelerGraph) -> WheelerRIndex:
    """Validate, decompose, assign identifiers and build all components."""
    labels, dsts, runs = build_bwt(g)  # raises NotWheelerError on a bad order
    d = decompose_paths(g)
    ids = assign_identifiers(g, d)
    rl = build_rank_select(runs, dsts, ids.id_of_rank)
    sums = build_partial_sums(g)
    return WheelerRIndex(
        n=g.n,
        m=g.m,
        sigma=g.sigma,
        num_paths=d.num_paths,
        break_ranks=d.break_ranks[:],  # exact size, as a load keeps it
        last_rank_id=ids.id_of_rank[g.n - 1] if g.n else None,
        rl=rl,
        sums=sums,
        toehold=build_toehold(ids, labels, dsts, rl, sums, d.break_ranks),
        phi=build_phi(ids),
    )


@dataclass(frozen=True)
class SpaceReport:
    """Measured sizes of the built components, in stored integers ("words").

    rank_select counts one word per label that occurs, then each label's
    starts, run counts and cut-table entries; the toehold one word per
    break rank and per run end, its identifier in its label's directory,
    and two per extra mark, its position and identifier; phi two per
    anchor, its identifier and predecessor, then its cut-table entries.

    marked_bound, anchor_bound and degree_bound are the budgets the
    construction is expected to stay within: num_runs + 4 * num_paths marked
    positions, num_runs + 8 * num_paths + 1 anchors and 4 * num_paths degree
    exceptions (each side's exceptions are path endpoints, at most 2 per path).
    """

    n: int
    m: int
    sigma: int
    num_runs: int
    num_paths: int
    marked_count: int
    anchor_count: int
    marked_bound: int
    anchor_bound: int
    degree_exceptions: int
    degree_bound: int
    words: dict[str, int]

    @property
    def total_words(self) -> int:
        return sum(self.words.values())

    def lines(self) -> list[str]:
        out = [
            f"n={self.n}",
            f"m={self.m}",
            f"sigma={self.sigma}",
            f"r={self.num_runs}",
            f"upsilon={self.num_paths}",
            f"marked={self.marked_count}",
            f"marked_bound={self.marked_bound}",
            f"anchors={self.anchor_count}",
            f"anchors_bound={self.anchor_bound}",
            f"degree_exceptions={self.degree_exceptions}",
            f"degree_bound={self.degree_bound}",
        ]
        out.extend(f"words_{name}={count}" for name, count in self.words.items())
        out.append(f"words_total={self.total_words}")
        return out


def space_report(ix: WheelerRIndex) -> SpaceReport:
    """Tally stored integers per component and the expected size budgets."""
    rl, sums = ix.rl, ix.sums
    r, anchors = sum(len(runs[0]) for runs in rl.runs_of.values()), len(ix.phi.anchor_ids)
    extras = len(ix.toehold.pairs)
    exceptions = len(sums.out_ranks) + len(sums.in_ranks)
    rl_words = len(rl.runs_of) + sum(len(starts) + len(cums) + len(cuts) for starts, cums, _, cuts, _ in rl.runs_of.values())
    words = {
        "rank_select": rl_words,
        "degree_sums": 2 * exceptions,
        "toehold": r + 2 * extras + len(ix.break_ranks),
        "phi": 2 * anchors + len(ix.phi.cuts),
    }
    return SpaceReport(
        n=ix.n,
        m=ix.m,
        sigma=ix.sigma,
        num_runs=r,
        num_paths=ix.num_paths,
        marked_count=r + extras,
        anchor_count=anchors,
        marked_bound=r + 4 * ix.num_paths,
        anchor_bound=r + 8 * ix.num_paths + 1,
        degree_exceptions=exceptions,
        degree_bound=4 * ix.num_paths,
        words=words,
    )


def _interleave(ranks: list[int], after: list[int]) -> list[int]:
    return [x for pair in zip(ranks, after) for x in pair]


def _gaps(values: list[int]) -> list[int]:
    """The first value, then the difference of each value from the one before."""
    return list(map(sub, values, chain((0,), values)))


def _narrow(values):
    """values, a list or an array, in the first, so narrowest, typecode of
    _WORDS that holds them all, a q word at the widest, which every value
    an index stores fits: each file section and each int column an index
    keeps, but for the bisected run starts and degree exceptions. One pass
    per width tried, and a value too wide fails it early; a narrow array
    is one copy, at its exact size."""
    for code in _WORDS:
        try:
            words = array(code, values)
        except OverflowError:  # a value past this word: try the next width
            continue
        # an array of another word fills this one item by item, with growth slack
        return words if type(values) is not array or values.typecode == code else words[:]


def _pack(values) -> str:
    """A section: the typecode of _narrow(values), then the base64 of its little-endian words."""
    words = _narrow(values)
    if sys.byteorder == "big":
        words.byteswap()
    return words.typecode + b64encode(words).decode("ascii")


def _unpack(name: str, section) -> list | array:
    """A section's ints: a list, or the array for marked_pairs, anchor_ids
    and pred_ids; run_starts, a JSON list of sections, gives a list of
    lists. Raise on any other value."""
    if name == "run_starts":
        if type(section) is not list:
            raise ValueError("corrupt index: run_starts is not a list of sections, one per label")
        return [_unpack(f"run_starts[{k}]", s) for k, s in enumerate(section)]
    if type(section) is not str or section[:1] not in _WORDS:
        raise ValueError(f"corrupt index: {name} is not a section of b, h, i or q words")
    try:  # a character outside base64 or ASCII, or bytes that are not whole words
        words = array(section[0], b64decode(section[1:], validate=True))
    except ValueError as exc:
        raise ValueError(f"corrupt index: {name} is not the base64 of whole {section[0]} words ({exc})") from exc
    if sys.byteorder == "big":
        words.byteswap()
    return words if name in ("marked_pairs", "anchor_ids", "pred_ids") else words.tolist()


def serialize_index(ix: WheelerRIndex) -> bytes:
    """Canonical byte encoding; identical indexes give identical bytes.
    Version 7 writes each label's directory as it stands: its run starts
    as gaps, and its run ends' ids ahead of the extras', the only marks
    whose positions it stores. Anchors are gaps too, each int list a
    section (_pack), and the last member, crc32, is zlib.crc32 of the
    rest. Raises ValueError on a label past 2**63 - 1."""
    if ix.sigma > 1 << 63:
        raise ValueError(f"label {ix.sigma - 1} is past {(1 << 63) - 1}, the largest a section word holds")
    sums, toehold, runs = ix.sums, ix.toehold, ix.rl.runs_of
    extra_ids = list(toehold.pairs.values())
    # the run ends' identifiers, then the extras', in the widest word of them all
    code = max(chain((_narrow(extra_ids).typecode,), (ids.typecode for *_, ids in runs.values())), key=_WORDS.index)
    marked = array(code)
    for *_, ids in runs.values():
        marked.extend(ids if ids.typecode == code else ids.tolist())  # an array extends only its own word
    marked.extend(extra_ids)
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "n": ix.n,
        "m": ix.m,
        "num_paths": ix.num_paths,
        "last_rank_id": ix.last_rank_id,
        "run_starts": [_pack(_gaps(starts)) for starts, *_ in runs.values()],
        "run_labels": _pack(list(runs)),
        "out_prefix": _pack(_interleave(sums.out_ranks, sums.out_after)),
        "in_prefix": _pack(_interleave(sums.in_ranks, sums.in_after)),
        "f_label": _pack(_f_label(ix.rl, ix.m)),
        "marked_positions": _pack(list(toehold.pairs)),  # the extras
        "marked_pairs": _pack(marked),
        "break_ranks": _pack(ix.break_ranks),
        "anchor_ids": _pack(_gaps(ix.phi.anchor_ids)),
        "pred_ids": _pack(ix.phi.pred_ids),  # -1 for the order-first vertex
    }
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    return b"".join((memoryview(body)[:-1], _SEAL, b"%d}" % zlib.crc32(body)))


def _unseal(data: bytes) -> bool:
    """Whether data ends in a crc32 member; raise if it holds another
    checksum than that of the document without it."""
    body, sealed, digits = data.rpartition(_SEAL)
    if not sealed or digits[-1:] != b"}" or not digits[:-1].isdigit():
        return False
    if digits != b"%d}" % zlib.crc32(b"}", zlib.crc32(body)):
        raise ValueError(f"corrupt index: checksum {digits[:-1].decode()} does not match the content")
    return True


def _check_ints(name: str, values: list, allowed: frozenset = _INT) -> None:
    """Raise unless every item of values has exactly an allowed type: one
    C-level scan, so neither bool nor float passes as int."""
    if not set(map(type, values)) <= allowed:
        bad = next(x for x in values if type(x) not in allowed)
        raise ValueError(f"corrupt index: {name} holds {bad!r}, not an int")


def _rising(gaps, sums: list[int], end: int) -> bool:
    """True iff sums, the running sums of gaps, strictly increase within
    [0, end): the first gap is at least 0, every later one at least 1 and
    the last sum below end."""
    return not gaps or (gaps[0] >= 0 and min(islice(gaps, 1, None), default=1) > 0 and sums[-1] < end)


def _check_ids(name: str, values: list[int], n: int, low: int = 0) -> None:
    """Raise unless every value lies in [low, n): an identifier, or the sentinel -1 if low is -1."""
    if values and (min(values) < low or max(values) >= n):
        bad = next(x for x in values if not low <= x < n)
        raise ValueError(f"corrupt index: {name} holds identifier {bad}, outside [0, n)")


def _check_exceptions(doc: dict, name: str) -> tuple[list[int], list[int], set[int]]:
    """One side's exceptions, doc[name], as interleaved (rank, prefix after
    it) pairs: raise unless they describe n degrees summing to m, each
    listed rank with a degree >= 0 that is not 1; return the ranks, the
    prefixes after them and the ranks of degree 0."""
    pairs, n, m = doc[name], doc["n"], doc["m"]
    if len(pairs) % 2:
        raise ValueError(f"corrupt index: {name} has odd length {len(pairs)}")
    ranks, after = pairs[0::2], pairs[1::2]
    if not _rising(_gaps(ranks), ranks, n):
        raise ValueError(f"corrupt index: {name} ranks are not strictly increasing within [0, n)")
    prev_k, prev_a, empty = -1, 0, set()
    for k, a in zip(ranks, after):
        degree = a - prev_a - (k - prev_k - 1)
        if degree < 0 or degree == 1:
            raise ValueError(f"corrupt index: {name} gives rank {k} degree {degree}")
        if not degree:
            empty.add(k)
        prev_k, prev_a = k, a
    total = prev_a + n - 1 - prev_k
    if total != m:
        raise ValueError(f"corrupt index: {name} totals {total} edges, m = {m}")
    return ranks, after, empty


def _ends_among(positions, starts, m: int) -> list[int]:
    """The positions, in their order, that end one of the runs in [0, m) that start at starts, a set or dict."""
    return [p for p in positions if p == m - 1 or p + 1 in starts]


def deserialize_index(data: bytes) -> WheelerRIndex:
    """Inverse of serialize_index, for version 7, the only version it writes.
    The run ends are marked by definition. Each label's run starts and
    anchor gaps are summed into lists and its run-end identifiers sliced
    from marked_pairs, and of_runs and PhiStructure make their columns from
    them as from a build's, so a loaded index has the built words and sizes.

    Raises ValueError on foreign input, on another version (an older file
    has to be built again from its graph) and, as "corrupt index: ...", on
    a crc32 member that is missing or does not match, and on each check
    below, whose message names what failed: the sections' words, the header
    ints, the lengths, ranges and order of the lists, the degree sums,
    f_label against the runs, the break ranks, the marks the mark rule
    names and the endpoint identifiers they hold, and last_rank_id. README
    ("Index files") lists every check."""
    sealed = _unseal(data)
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not an index file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ValueError("not an index file: missing format marker")
    version = doc.get("version")
    if type(version) is not int or version != _VERSION:
        raise ValueError(
            f"unsupported index version {version!r}: version {_VERSION} is read; "
            "build the index again from its graph with wgrindex build"
        )
    if not sealed:
        raise ValueError(f"corrupt index: checksum missing, a version-{_VERSION} file ends in its crc32 member")
    try:
        _check_ints("header", [doc[k] for k in ("n", "m", "num_paths")])
        if max(doc["n"], doc["m"]) >= 1 << 63:  # beyond an array('q') word
            raise ValueError(f"corrupt index: n = {doc['n']} or m = {doc['m']} is past 2**63 - 1")
        _check_ints("last_rank_id", [doc["last_rank_id"]], _INT_OR_NONE)
        # A section holds only ints, so it needs no type scan.
        doc.update((name, _unpack(name, doc[name])) for name in _SECTIONS)
        n, m = doc["n"], doc["m"]
        gaps_of, labels = doc["run_starts"], doc["run_labels"]
        extras, dests = doc["marked_positions"], doc["marked_pairs"]
        anchor_gaps, pred_ids = doc["anchor_ids"], doc["pred_ids"]
        r = sum(map(len, gaps_of))
        for name, other, want in (
            ("pred_ids", "anchor_ids", len(anchor_gaps)),
            ("run_starts", "run_labels", len(labels)),
            ("marked_pairs", "the run count plus len(marked_positions)", r + len(extras)),
        ):
            if len(doc[name]) != want:
                raise ValueError(f"corrupt index: {name} has {len(doc[name])} entries, {other} gives {want}")
        preds = pred_ids.tolist()  # one int per word, for the three scans
        firsts = preds.count(-1)
        if firsts != min(n, 1):
            raise ValueError(f"corrupt index: pred_ids holds {firsts} first-vertex entries, n = {n} needs {min(n, 1)}")
        _check_ids("pred_ids", preds, n, -1)
        anchor_ids = list(accumulate(anchor_gaps))
        if not _rising(anchor_gaps, anchor_ids, n):
            raise ValueError("corrupt index: anchor_ids is not strictly increasing within [0, n)")
        if n and anchor_ids[-1] != n - 1:
            raise ValueError(f"corrupt index: anchor_ids ends at {anchor_ids[-1]}, not at n - 1")
        if not _rising(_gaps(extras), extras, m):
            raise ValueError("corrupt index: marked_positions is not strictly increasing within [0, m)")
        mark_ids = dests.tolist()  # one int per word, for the range check, the extras and the endpoint count
        _check_ids("marked_pairs", mark_ids, n)
        if not _rising(_gaps(labels), labels, 1 << 63):
            raise ValueError("corrupt index: run_labels is not strictly increasing from 0")
        starts_of = [list(accumulate(gaps)) for gaps in gaps_of]
        if not all(gaps and _rising(gaps, starts, m) for gaps, starts in zip(gaps_of, starts_of)):
            raise ValueError("corrupt index: run_starts does not rise strictly from 0 within [0, m)")
        bounds = sorted(chain.from_iterable(starts_of))
        after = dict(zip(bounds, bounds[1:] + [m]))  # each run's end: the next start, or m
        if bounds[:1] != ([0] if m else []) or len(after) < len(bounds):
            raise ValueError("corrupt index: run_starts does not rise strictly from 0 within [0, m)")
        spans = pairwise(accumulate(map(len, starts_of), initial=0))  # each label's run-end ids
        rl = RLSequence.of_runs(m, {c: (s, list(map(after.__getitem__, s)), dests[a:b])
                                    for c, s, (a, b) in zip(labels, starts_of, spans)})
        held = _ends_among(extras, after, m)
        if held:
            raise ValueError(f"corrupt index: marked_positions holds run end {held[0]}")
        pairs = dict(zip(extras, mark_ids[r:]))
        out_ranks, out_after, isolated = _check_exceptions(doc, "out_prefix")
        in_ranks, in_after, sourceless = _check_exceptions(doc, "in_prefix")
        sums, isolated = DegreeSums(out_ranks, out_after, in_ranks, in_after), isolated & sourceless
        if doc["f_label"] != _f_label(rl, m):
            raise ValueError("corrupt index: f_label disagrees with the label counts of the runs")
        top = max(rl.runs_of, default=-1)  # the largest run label
        # The cycles are the paths that no exception heads. An exception
        # heads one path per out-edge, m - n + len(exceptions) in all since
        # every other rank has one out-edge, and one more if it has no edges.
        exceptions = set(sums.out_ranks).union(sums.in_ranks)
        cycles = doc["num_paths"] - (m - n + len(exceptions)) - len(isolated)
        stored = doc["break_ranks"]
        if len(stored) != cycles:
            raise ValueError(f"corrupt index: break_ranks has {len(stored)} entries, "
                             f"num_paths and the degree sums give {cycles} cycles")
        if not _rising(_gaps(stored), stored, n) or not exceptions.isdisjoint(stored):
            raise ValueError("corrupt index: break_ranks is not strictly increasing within [0, n) "
                             "or holds a rank whose degree is not 1")
        marks, into = _required_marks(rl, sums, stored)
        unmarked = marks.difference(pairs, _ends_among(marks, after, m))
        if unmarked:
            raise ValueError(f"corrupt index: position {min(unmarked)} (rule M1-M3) is not marked")
        # assign_identifiers numbers the path endpoints, the exceptions and the
        # breaks, from first up in rank order. Each edge into one holds its
        # identifier; every other rank has in-degree 1, so those m - first
        # edges are the only marks that hold an endpoint identifier.
        first = n - len(exceptions) - cycles
        endpoint_id = {k: i for i, k in enumerate(sorted(exceptions.union(stored)), first)}
        for p, (k, c) in into.items():
            runs = rl.runs_of[c]  # p is an extra, or it ends a run of c
            got = pairs[p] if p in pairs else runs[4][bisect_right(runs[0], p) - 1]
            if got != endpoint_id[k]:
                raise ValueError(f"corrupt index: position {p} enters endpoint rank {k} "
                                 f"but holds identifier {got}, not {endpoint_id[k]}")
        endpoint_marks = sum(map(ge, mark_ids, repeat(first)))
        if endpoint_marks != m - first:
            raise ValueError(f"corrupt index: {endpoint_marks} marks hold an endpoint identifier, "
                             f"not the m - first = {m - first} edges into the endpoints")
        # Rank n - 1 holds in-slot m - 1, the end of the last run of the
        # largest label; with no edges the identifiers follow the ranks.
        last = rl.runs_of[top][4][-1] if m else n - 1 if n else None
        if doc["last_rank_id"] != last:
            raise ValueError(f"corrupt index: last_rank_id is {doc['last_rank_id']}, not {last}")
        return WheelerRIndex(n=n, m=m, sigma=top + 1, num_paths=doc["num_paths"], break_ranks=stored,
                             last_rank_id=doc["last_rank_id"], rl=rl, sums=sums,
                             toehold=ToeholdTable(pairs), phi=PhiStructure(anchor_ids, pred_ids))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not an index file: malformed field ({exc})") from exc


def save_index(ix: WheelerRIndex, path) -> None:
    data = serialize_index(ix)  # before the open, so a failed save leaves an old file whole
    with open(path, "wb") as fh:
        fh.write(data)


def load_index(path) -> WheelerRIndex:
    with open(path, "rb") as fh:
        return deserialize_index(fh.read())
