"""Count and locate queries over a built index.

A pattern is a sequence of integer labels. match(P) is the set of vertices
at which some directed path spelling P (edge labels read first to last)
ends; under a valid vertex order that set is a contiguous rank interval
[s, e]. Each query step maps the interval for a prefix to the interval for
the prefix extended by one label, by rank searches over the interval's
out-range: the transform positions of the edges leaving its vertices. The
same search also finds the last occurrence of the label there, and that
position carries the identifier of the new interval's last vertex: it is
stored at the position when the position is marked, and otherwise follows
from the old last identifier by the +1 rule (the toehold lemma). The whole
result is then reported by repeatedly stepping to order-predecessors.

Steps work on plain ints: an interval is its inclusive ranks s, e, a match
state the triple (s, e, last_id), and no match is None, never an inverted pair.

All functions are pure reads over an immutable index and may be called
concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from .build import WheelerRIndex
from .errors import FirstInOrderError, IndexInvariantError

_INT_ONLY = frozenset((int,))


def _labels(pattern: Sequence[int]) -> tuple[int, ...]:
    """The pattern as a tuple (so an iterator is read once); raises
    ValueError unless every label is an int."""
    labels = tuple(pattern)
    # One scan of the label types per query; bool is excluded by the exact match.
    if not set(map(type, labels)) <= _INT_ONLY:
        bad = next(c for c in labels if type(c) is not int)
        raise ValueError(f"pattern label {bad!r} is not an int")
    return labels


def step_interval(ix: WheelerRIndex, s: int, e: int, c: int) -> tuple[int, int, int, int | None] | None:
    """Ranks s', e' of the interval [s, e] extended by c, the position p
    of the last c in the out-range of [s, e], and end, the identifier
    stored at p when p ends its run, else None; None when nothing matches.

    The first and last occurrences of c among the interval's out-edge labels
    lead to the first and last vertices of the refined interval; their ranks
    are recovered from the in-slots that rank gives and the in-degree
    partial sums, kept only at the ranks whose degree is not 1 (see
    DegreeSums): every rank in between adds exactly one edge or in-slot.
    Both run searches, rank's and the one for hi, bisect only the runs of
    one cut-table bucket, about 16-32 of them (see RLSequence).

    A result always has 0 <= s' <= e' < n on an index that loads: the
    loader checks that the degrees are non-negative and sum to m, so the
    map from in-slot to rank rises monotonically within [0, n), and the
    step returns only when k2 > k1, so the last slot is not below the first.

    count and step_toehold look this name up on every label, so a wrapper
    set on the module sees one call per step of either query.
    """
    rl = ix.rl
    runs = rl.runs_of.get(c)  # None for a label that never occurs
    if runs is None:
        return None
    sums = ix.sums
    # The out-range [lo, hi): out-edges leaving ranks below s and below e + 1.
    ranks, after = sums.out_ranks, sums.out_after
    t = bisect_left(ranks, s)
    lo = after[t - 1] + s - ranks[t - 1] - 1 if t else s
    t = bisect_right(ranks, e, t)
    hi = after[t - 1] + e - ranks[t - 1] if t else e + 1
    if lo >= hi:
        return None
    k1 = rl.rank(c, lo)
    # The last run of c starting before hi holds the last c before hi.
    starts, cums, shift, cuts, end_ids = runs
    b = hi >> shift
    t = bisect_left(starts, hi, cuts[b], cuts[b + 1]) - 1
    if t < 0:
        return None
    before, through = cums[t], cums[t + 1]  # one read each: an array read makes an int
    k2 = before + hi - starts[t]
    if k2 > through:
        k2 = through  # the run ends before hi
    if k2 <= k1:
        return None
    p = starts[t] + k2 - before - 1
    end = end_ids[t] if k2 == through else None  # p ends run t
    # In-slots k1 and k2 - 1 name the first and last vertex reached: a slot
    # past the exception at ranks[t - 1] lies at a rank of in-degree 1
    # after it, unless that passes ranks[t], which then holds the slot.
    ranks, after = sums.in_ranks, sums.in_after
    listed = len(ranks)
    t = bisect_right(after, k1)
    s2 = ranks[t - 1] + 1 + k1 - after[t - 1] if t else k1
    if t < listed and s2 > ranks[t]:
        s2 = ranks[t]
    slot = k2 - 1
    t = bisect_right(after, slot, t)
    e2 = ranks[t - 1] + 1 + slot - after[t - 1] if t else slot
    if t < listed and e2 > ranks[t]:
        e2 = ranks[t]
    return s2, e2, p, end


def count(ix: WheelerRIndex, pattern: Sequence[int]) -> int:
    """Number of vertices where a path spelling the pattern ends: e - s + 1
    for the interval [s, e] that one step_interval per label leaves.

    Raises ValueError when a label is not an int; an int outside the
    alphabet matches nothing.
    """
    pattern = _labels(pattern)
    s, e = 0, ix.n - 1  # with no vertex, e < s and no label occurs
    for c in pattern:
        r = step_interval(ix, s, e, c)
        if r is None:
            return 0
        s, e, _, _ = r
    return e - s + 1


def step_toehold(ix: WheelerRIndex, s: int, e: int, last_id: int, c: int) -> tuple[int, int, int] | None:
    """Refine [s, e] by c and keep the last vertex's identifier: the new
    (s', e', last_id'), or None when nothing matches.

    The new last vertex is reached by the last c in the interval's
    out-range, position p. If p is marked, one pairs.get gives its stored
    identifier: an extra's, else the default, the run end's from step_interval;
    from the full interval p is the globally last c, a run end, so it always
    is. Otherwise (None) p must lie in the out-range of the old last vertex
    e (the two ranges end together), where both endpoints of p's edge are
    chain-interior and the identifier is last_id + 1. An unmarked p before
    that range means the index is corrupt.
    """
    r = step_interval(ix, s, e, c)
    if r is None:
        return None
    s2, e2, p, end = r
    new_id = ix.toehold.pairs.get(p, end)
    if new_id is None:
        if p < ix.sums.out_prefix(e):
            raise IndexInvariantError(
                f"unmarked position {p} reached by an out-of-range step (label {c})"
            )
        new_id = last_id + 1
    return s2, e2, new_id


def find_interval(ix: WheelerRIndex, pattern: Sequence[int]) -> tuple[int, int, int] | None:
    """Match state (s, e, last_id) of the pattern: its interval and the
    identifier of the vertex at rank e, or None when nothing matches.
    One step_toehold per label from the full interval, whose last vertex
    is ix.last_rank_id: the empty pattern's state, None when n = 0.
    Raises ValueError when a label is not an int.
    """
    s, e, last_id = 0, ix.n - 1, ix.last_rank_id  # with no vertex, no label occurs
    for c in _labels(pattern):
        r = step_toehold(ix, s, e, last_id, c)
        if r is None:
            return None
        s, e, last_id = r
    return (s, e, last_id) if ix.n else None


def phi(ix: WheelerRIndex, i: int) -> int:
    """Identifier of the vertex directly before vertex i in the order.

    Anchored identifiers return their stored predecessor; everything else
    steps to its anchor successor j and returns pred(j) - (j - i), which is
    valid because build_phi anchors every i whose successor's predecessor
    is not pred(i) + 1. Raises FirstInOrderError for the order-first vertex,
    IndexInvariantError for an offset below 0, which only a corrupt index gives.
    """
    if not 0 <= i < ix.n:
        raise ValueError(f"identifier {i} out of range [0, {ix.n})")
    j, pred = ix.phi.successor(i)
    if j == i:
        if pred < 0:
            raise FirstInOrderError(f"identifier {i} names the first vertex in the order")
        return pred
    k = pred - (j - i)
    if k < 0:  # so is a pred of -1, the sentinel, which a sound index never offsets from
        raise IndexInvariantError(f"offset step from anchor {j} to identifier {i} gives predecessor {k}, below 0")
    return k


def locate(ix: WheelerRIndex, pattern: Sequence[int]) -> list[int]:
    """Identifiers of all vertices where a path spelling the pattern ends.

    Returns exactly count(ix, pattern) distinct identifiers: last_id from
    find_interval's (s, e, last_id), then e - s order-predecessors, one phi
    call each. The empty pattern reports every vertex. Raises ValueError
    when a label is not an int.
    """
    found = find_interval(ix, pattern)
    if found is None:
        return []
    s, e, last_id = found
    out = [last_id]
    for _ in range(e - s):
        out.append(phi(ix, out[-1]))
    return out
