"""Count and locate queries over a built index.

A pattern is a sequence of integer labels. match(P) is the set of vertices
at which some directed path spelling P (edge labels read first to last)
ends; under a valid vertex order that set is a contiguous rank interval.
Each query step maps the interval for a prefix to the interval for the
prefix extended by one label, by rank searches over the interval's
out-range: the transform positions of the edges leaving its vertices. The
same search also finds the last occurrence of the label there, and that
position carries the identifier of the new interval's last vertex: it is
stored at the position when the position is marked, and otherwise follows
from the old last identifier by the +1 rule (the toehold lemma). The whole
result is then reported by repeatedly stepping to order-predecessors.

All functions are pure reads over an immutable index and may be called
concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from .build import WheelerRIndex
from .errors import FirstInOrderError, IndexInvariantError

_INT_ONLY = frozenset((int,))


@dataclass(slots=True, init=False)
class RankInterval:
    """Non-empty inclusive range of vertex ranks.

    Emptiness is always expressed as None by the query functions, never as
    an inverted pair.
    """

    s: int
    e: int

    def __init__(self, s: int, e: int) -> None:
        if not 0 <= s <= e:
            raise ValueError(f"invalid interval [{s}, {e}]")
        self.s = s
        self.e = e

    def __len__(self) -> int:
        return self.e - self.s + 1


@dataclass(slots=True)
class MatchState:
    """A match interval plus the identifier of the vertex at its top rank."""

    interval: RankInterval
    last_id: int


def full_interval(ix: WheelerRIndex) -> RankInterval | None:
    """Interval of the empty pattern: every vertex (None when n = 0)."""
    return RankInterval(0, ix.n - 1) if ix.n else None


def full_state(ix: WheelerRIndex) -> MatchState | None:
    """Match state of the empty pattern."""
    if ix.n == 0:
        return None
    assert ix.last_rank_id is not None
    return MatchState(RankInterval(0, ix.n - 1), ix.last_rank_id)


def _labels(pattern: Sequence[int]) -> tuple[int, ...]:
    """The pattern as a tuple (so an iterator is read once); raises
    ValueError unless every label is an int."""
    labels = tuple(pattern)
    # One scan of the label types per query; bool is excluded by the exact match.
    if not set(map(type, labels)) <= _INT_ONLY:
        bad = next(c for c in labels if type(c) is not int)
        raise ValueError(f"pattern label {bad!r} is not an int")
    return labels


def _refine(ix: WheelerRIndex, s: int, e: int, c: int) -> tuple[int, int, int] | None:
    """Ranks s', e' of the interval [s, e] extended by c, and the position
    of the last c in the out-range of [s, e]; None when nothing matches.

    The first and last occurrences of c among the interval's out-edge labels
    lead to the first and last vertices of the refined interval; their ranks
    are recovered from the label and in-degree partial sums. Degree sums
    are kept only at the ranks whose degree is not 1 (see DegreeSums):
    every rank in between adds exactly one edge or in-slot.
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
    starts, cums = runs
    t = bisect_left(starts, hi) - 1
    if t < 0:
        return None
    before, through = cums[t], cums[t + 1]  # one read each: an array read makes an int
    k2 = before + hi - starts[t]
    if k2 > through:
        k2 = through  # the run ends before hi
    if k2 <= k1:
        return None
    p = starts[t] + k2 - before - 1
    # In-slots f_label[c] + k1 and f_label[c] + k2 - 1 name the first and
    # last vertex reached: a slot past the exception at ranks[t - 1] lies
    # at a rank of in-degree 1 after it, unless that passes ranks[t], which
    # then holds the slot.
    ranks, after = sums.in_ranks, sums.in_after
    listed = len(ranks)
    slot = sums.f_label[c] + k1
    t = bisect_right(after, slot)
    s2 = ranks[t - 1] + 1 + slot - after[t - 1] if t else slot
    if t < listed and s2 > ranks[t]:
        s2 = ranks[t]
    slot += k2 - k1 - 1
    t = bisect_right(after, slot, t)
    e2 = ranks[t - 1] + 1 + slot - after[t - 1] if t else slot
    if t < listed and e2 > ranks[t]:
        e2 = ranks[t]
    return s2, e2, p


def step_interval(ix: WheelerRIndex, iv: RankInterval, c: int) -> RankInterval | None:
    """Interval of pattern P + [c] given the interval of P."""
    r = _refine(ix, iv.s, iv.e, c)
    return None if r is None else RankInterval(r[0], r[1])


def count(ix: WheelerRIndex, pattern: Sequence[int]) -> int:
    """Number of vertices where a path spelling the pattern ends.

    Raises ValueError when a label is not an int; an int outside the
    alphabet matches nothing.
    """
    pattern = _labels(pattern)
    iv = full_interval(ix)
    if iv is None:
        return 0
    for c in pattern:
        iv = step_interval(ix, iv, c)
        if iv is None:
            return 0
    return len(iv)


def step_toehold(ix: WheelerRIndex, st: MatchState, c: int) -> MatchState | None:
    """Refine the interval by c and keep the last vertex's identifier.

    The new last vertex is reached by the last c in the interval's
    out-range, position p. If p is marked, the stored identifier is used;
    from the full state p is the globally last c, a run end, so it always
    is. Otherwise p must lie in the out-range of the old last vertex (the
    two ranges end together), where both endpoints of p's edge are
    chain-interior and the identifier is last_id + 1. An unmarked p before
    that range means the index is corrupt.
    """
    iv = st.interval
    r = _refine(ix, iv.s, iv.e, c)
    if r is None:
        return None
    s, e, p = r
    new_id = ix.toehold.pairs.get(p)
    if new_id is None:
        if p < ix.sums.out_prefix(iv.e):
            raise IndexInvariantError(
                f"unmarked position {p} reached by an out-of-range step (label {c})"
            )
        new_id = st.last_id + 1
    return MatchState(RankInterval(s, e), new_id)


def find_interval(ix: WheelerRIndex, pattern: Sequence[int]) -> MatchState | None:
    """Match state of a non-empty pattern, or None when nothing matches:
    one step_toehold per label from the full state.
    Raises ValueError on the empty pattern or a label that is not an int.
    """
    pattern = _labels(pattern)
    if len(pattern) == 0:
        raise ValueError("pattern must be non-empty; the empty pattern matches every vertex")
    st = full_state(ix)
    for c in pattern:
        if st is None:
            return None
        st = step_toehold(ix, st, c)
    return st


def phi(ix: WheelerRIndex, i: int) -> int:
    """Identifier of the vertex directly before vertex i in the order.

    Anchored identifiers return their stored predecessor; everything else
    steps to its anchor successor j and returns pred(j) - (j - i), which is
    valid because build_phi anchors every i whose successor's predecessor
    is not pred(i) + 1. Raises FirstInOrderError for the order-first vertex.
    """
    if not 0 <= i < ix.n:
        raise ValueError(f"identifier {i} out of range [0, {ix.n})")
    j, pred = ix.phi.successor(i)
    if j == i:
        if pred is None:
            raise FirstInOrderError(f"identifier {i} names the first vertex in the order")
        return pred
    if pred is None:
        raise IndexInvariantError("sentinel anchor reached by offset stepping")
    return pred - (j - i)


def locate(ix: WheelerRIndex, pattern: Sequence[int]) -> list[int]:
    """Identifiers of all vertices where a path spelling the pattern ends.

    Returns exactly count(ix, pattern) distinct identifiers, starting with
    the last vertex of the match interval and walking order-predecessors.
    The empty pattern reports every vertex. Raises ValueError when a label
    is not an int.
    """
    pattern = tuple(pattern)  # read an iterator once; find_interval checks the labels
    st = find_interval(ix, pattern) if pattern else full_state(ix)
    if st is None:
        return []
    out = [st.last_id]
    for _ in range(len(st.interval) - 1):
        out.append(phi(ix, out[-1]))
    return out
