"""Maximal low-gap blocks, the greedy budgeted partition, and its cross-term bounds.

The greedy partition repeatedly removes a maximum-length subinterval whose
gap sum fits the budget.  Selection, reported sums, and every verifier here
use the same canonical prefix-sum differences, so the structural guarantees
(engulfing, the three-case pair classification, the cross-pair lower bounds)
hold exactly in binary64 arithmetic, not merely up to rounding.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .correlation import IndexInterval, _append, _pairs_within, first_crossing
from .sequences import GapSequence


@dataclass(frozen=True, eq=False)
class BlockSet:
    """The maximal runs of gaps whose canonical sums are all <= the threshold of :func:`maximal_blocks`.

    A run is maximal: the gap immediately before and after each block (when
    inside 1..n) exceeds the threshold.  Block k spans ``left[k]..right[k]``
    (1-based, inclusive); ``blocks`` lists them as :class:`IndexInterval`.
    """

    left: np.ndarray
    right: np.ndarray

    @cached_property
    def blocks(self) -> tuple[IndexInterval, ...]:
        return tuple(map(IndexInterval, self.left.tolist(), self.right.tolist()))

    @property
    def total_length(self) -> int:
        return int(np.sum(self.right - self.left + 1))


class PairClass(enum.Enum):
    """Where an index pair with small window sum can live relative to the parts."""

    SAME_BLOCK = "same_block"
    ADJACENT = "adjacent"
    SANDWICH_SKIP = "sandwich_skip"
    OUTSIDE = "outside"


class BoundCheck(NamedTuple):
    lhs: int
    rhs: float
    ok: bool


@dataclass(frozen=True)
class GreedyPartition:
    """Result of the greedy budgeted decomposition of one parent block.

    ``parts`` are in left-to-right order; ``selection_rank[k-1]`` is the
    1-based pick order of part k (rank 1 was chosen first). ``sums`` are the
    canonical gap sums actually compared against the budget during selection.
    Earlier picks are never shorter than later ones.
    """

    parent: IndexInterval
    parts: tuple[IndexInterval, ...]
    selection_rank: tuple[int, ...]
    sums: tuple[float, ...]
    budget: float

    def __post_init__(self):
        s = len(self.parts)
        if s == 0 or len(self.selection_rank) != s or len(self.sums) != s:
            raise ValueError("parts, selection_rank, and sums must be non-empty and aligned")
        pos = self.parent.left
        for part in self.parts:
            if part.left != pos:
                raise ValueError(f"parts do not tile the parent: gap or overlap at {pos}")
            pos = part.right + 1
        if pos != self.parent.right + 1:
            raise ValueError("parts do not cover the parent")
        if sorted(self.selection_rank) != list(range(1, s + 1)):
            raise ValueError("selection_rank must be a bijection onto 1..s")

    @property
    def size(self) -> int:
        return len(self.parts)

    def part_containing(self, index: int) -> int:
        """1-based part number holding the given gap index."""
        if not self.parent.left <= index <= self.parent.right:
            raise ValueError(f"index {index} outside parent {self.parent}")
        lefts = [p.left for p in self.parts]
        return bisect_right(lefts, index)

    def rank(self, k: int) -> int:
        return self.selection_rank[k - 1]


def maximal_blocks(g: GapSequence, n: int, threshold: float) -> BlockSet:
    """The maximal runs of gaps with canonical sum ``prefix[i] - prefix[i-1]`` <= threshold.

    Parts are budgeted on that float, so a block gap fits a part alone when
    the budget is at least the threshold.  The blocks are those a
    :class:`_PrefixStream` closes over the first n gaps: its prefix sums
    are the floats of ``g.prefix``, and between its steps it holds only the
    open block's.
    """
    closed = []  # (left, right) of the blocks each step closes, and of the one the end closes

    def take(left, right, end):
        closed.append((left, right))
        return stream.n

    stream = _PrefixStream(threshold, n, take)
    if n < 0 or n > g.length:
        raise ValueError(f"n={n} out of range 0..{g.length}")
    stream.gaps(g.gaps)
    stream.end()
    return BlockSet(*(np.concatenate(ends) for ends in zip(*closed)))


# Gaps per step of a prefix stream.  A step holds their prefix sums, the tail that the open block
# and the consumer still reach, and the consumer's temporaries on them.
_STREAM_STEP = 1 << 16


class _PrefixStream:
    """The canonical prefix sums and the blocks of the first ``limit`` gaps, made in one pass, step by step.

    Gaps come through :meth:`gaps`, or as values through :meth:`values`,
    which makes the raw gaps with ``np.diff``, carrying the last value, so
    they are those of :func:`~ppclab.sequences.gaps_of`.  Once the values'
    span overflows, ``gaps_of`` would raise, so no more gaps are made (nor
    any inf or nan).  Each step of at most ``_STREAM_STEP`` gaps:

    * *Prefix sums.*  The step's gaps are written after the last prefix sum
      held, and one ``np.cumsum`` runs from it.  ``np.cumsum`` adds left to
      right, so every float equals that of one ``np.cumsum`` over all gaps,
      :class:`~ppclab.sequences.GapSequence`'s ``prefix``.
    * *Blocks.*  The canonical sums ``prefix[i] - prefix[i-1]`` of the new
      gaps extend the runs of those <= ``threshold``: against the last gap
      before the step, a change into the run mask starts a block and a
      change out of it ends one.
    * *Consumer.*  ``take(left, right, end)`` gets the blocks
      ``left[k]..right[k]`` that closed in the step, :attr:`held` from
      before their first gap, and returns the first prefix index it still
      needs.  ``end`` is true only for the block :meth:`end` closes at gap n.
    * *Tail.*  Only the prefix sums from that index, or from before the
      open block, on are kept, in a buffer that is moved or doubled only
      when full, so a long block costs O(its length) in all.  So memory is
      a step's plus the longest reach across a step's end, not the input's.
    """

    def __init__(self, threshold: float, limit: int, take):
        if not threshold > 0:
            raise ValueError("threshold must be positive")
        self.threshold, self.limit, self.take = threshold, limit, take
        self.points = 0  # values read, all of them
        self.first = self.last = 0.0  # the first and the last value read
        self.overflow = False  # the values' span overflows
        self.n = 0  # gaps taken, at most limit
        self.buf = np.zeros(1)  # buf[lo:hi] holds prefix[base], ..., prefix[n]
        self.lo, self.hi, self.base = 0, 1, 0
        self.open = 0  # the first gap of the block still open, or 0

    @property
    def held(self) -> np.ndarray:
        """The prefix sums held: ``prefix[base], ..., prefix[n]``."""
        return self.buf[self.lo : self.hi]

    def values(self, values: np.ndarray) -> None:
        """Take the values ``values``, which follow those already read, ``_STREAM_STEP`` at a time."""
        for c in range(0, values.size, _STREAM_STEP):
            v, taken = values[c : c + _STREAM_STEP], self.points
            if not taken:
                self.first = float(v[0])
            self.points += v.size
            self.overflow = self.overflow or float(v[-1]) - self.first == math.inf
            need = self.limit - self.n  # gaps still wanted: as many values after the first
            if need > 0 and not self.overflow:
                self.gaps(np.diff(v[:need], prepend=self.last) if taken else np.diff(v[: need + 1]))
            self.last = float(v[-1])

    def gaps(self, g: np.ndarray) -> None:
        """Take the gaps ``g``, which follow those already taken; those past gap ``limit`` are dropped."""
        g = g[: self.limit - self.n]
        for c in range(0, g.size, _STREAM_STEP):
            self._step(g[c : c + _STREAM_STEP])

    def _step(self, g: np.ndarray) -> None:
        """Take at most ``_STREAM_STEP`` gaps: the prefix sums, blocks, consumer and tail of the class doc."""
        old, k = self.n - self.base, g.size  # the last prefix sum held, as an index into the held ones
        self.buf, self.lo, self.hi = _append(self.buf, self.lo, self.hi, g)
        self.n += k
        p = self.held
        np.cumsum(p[old:], out=p[old:])

        fits = np.diff(p[old:]) <= self.threshold  # the canonical sums of gaps n - k + 1 .. n
        inside = int(self.open > 0)
        changes = np.flatnonzero(np.diff(fits, prepend=bool(inside)))
        changes += self.n - k + 1  # a block starts at the gap of a change into it, and ends before one out
        left, right = changes[inside::2], changes[1 - inside :: 2] - 1
        if inside:
            left = np.concatenate(([self.open], left))
        self.open = int(left[-1]) if left.size > right.size else 0
        keep = min(self.take(left[: right.size], right, False), self.open - 1 if self.open else self.n)
        self.lo += keep - self.base
        self.base = keep

    def end(self) -> None:
        """Close the block still open at gap n, if any, and end the stream."""
        self.take(*np.array([[self.open], [self.n]] if self.open else [[], []], dtype=np.intp), True)


def _reach(prefix: np.ndarray, starts: np.ndarray, budget: float) -> np.ndarray:
    """``reach[s]``, the last end e with canonical sum of gaps s..e <= budget, for each s in ``starts``.

    ``reach[s] = s - 1`` when gap s alone exceeds the budget.  ``starts``
    is a valid lower bound for :func:`first_crossing`: prefix is
    non-decreasing, so fl(prefix[e] - prefix[s-1]) <= 0 < budget for every
    e < s, and no end before s can exceed the budget.
    """
    return first_crossing(prefix, prefix[starts - 1], starts, budget, True) - 1


def _unpartitionable(index: int, total: float, budget: float) -> ValueError:
    return ValueError(
        f"unpartitionable singleton: gap at index {index} has canonical sum {total!r}, "
        f"which exceeds budget {budget}"
    )


# A packed key is ``(fit << 32) - position``: the larger of two keys has the longer fit, then the
# smaller position, and ``-key & _POSITION_MASK`` is its position (positions stay below 2^32).
_POSITION_MASK = (1 << 32) - 1
# Fragments go through the greedy in rounds, a pick in each at once, while this many or more are
# left; below it the scalar loop is cheaper.  The two cost the same near 70 fragments (see README).
_FRONTIER_MIN = 64


def _greedy_picks(prefix: np.ndarray, left, right, budget: float):
    """``(multi, firsts, starts, lengths, reach)``: the greedy's picks in the multi-part blocks.

    ``prefix`` is a gap sequence's ``prefix``, or a slice of it from
    ``prefix[k]`` on, with the blocks' gap indices less k.  The slice may
    end at any prefix sum from the blocks' last gap on: a start's reach is
    only ever compared with ends inside its block.

    A block ``[left[k], right[k]]`` whose canonical sum fits the budget is
    one part, decided for all blocks by one comparison; ``multi`` marks the
    others.  Their gaps are laid end to end as positions 0..M-1, block by
    block, and ``firsts`` holds each one's first position.  Each block is
    split into fragments, each fragment by its longest fit.  ``starts`` and
    ``lengths`` give every pick as a first position and a gap count, sorted
    by start, so they tile the positions, and ``reach`` is :func:`_reach` at
    every position, as a position, clipped to its block's last position.
    The first gap that exceeds the budget alone raises the "unpartitionable
    singleton" error.  ``left`` and ``right`` are intp arrays.

    *Longest fit of a fragment [a, b].*  ``reach`` is non-decreasing within
    a block, as IEEE subtraction is monotone, and lies between a position
    and its block's last one, so it is non-decreasing over all positions.
    Let s* be the first s with ``reach[s] >= b``: one ``searchsorted`` over
    ``reach``, raised to a, finds it.  Starts from s* on fit up to b, the
    longest at s*; a start s < s* fits ``reach[s] - s + 1`` gaps (there
    ``reach[s] < b``, so the clip moved nothing), and the longest of those,
    smallest s on ties, is the range-argmax over [a, s* - 1], which wins an
    equal-length tie.  The range-argmax comes from a sparse table of packed
    keys (Bender & Farach-Colton, "The LCA Problem Revisited", 2000) with
    as many levels as the longest block needs, laid end to end in one
    array: O(log L) per pick.

    *Order.*  A fragment's pick depends on the fragment alone, so fragments
    may be split in any order.  :func:`_greedy_round` splits every fragment
    of the frontier at once; once fewer than ``_FRONTIER_MIN`` are left (one
    long block is a chain of one fragment per round), a scalar loop splits
    the rest one at a time from one stack.  The arrays span the blocks
    given: a prefix stream gives those that close in one of its steps.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    length = prefix.size - 1
    if np.any(left < 1) or np.any(left > right) or np.any(right > length):
        raise ValueError(f"blocks must satisfy 1 <= left <= right <= {length}")
    multi = prefix[right] - prefix[left - 1] > budget
    multi_sizes = right[multi] - left[multi] + 1
    firsts = np.cumsum(multi_sizes) - multi_sizes  # each multi-part block's first position
    lasts = firsts + multi_sizes - 1
    shift = np.repeat(left[multi] - firsts, multi_sizes)  # gap index minus position
    position = np.arange(shift.size)
    ends = _reach(prefix, position + shift, budget)
    ends -= shift  # reach, as a position
    bad = np.flatnonzero(ends < position)
    if bad.size:
        index = int(position[bad[0]] + shift[bad[0]])
        raise _unpartitionable(index, float(prefix[index] - prefix[index - 1]), budget)
    del shift
    np.minimum(ends, np.repeat(lasts, multi_sizes), out=ends)  # no reach past its block
    depth = 1  # levels; level k spans 2^k, and a query is shorter than its block
    while 1 << depth < multi_sizes.max(initial=0):
        depth += 1
    sizes = ends.size + 1 - (1 << np.arange(depth))
    offsets = np.cumsum(sizes) - sizes  # level k is table[offsets[k] : offsets[k] + sizes[k]]
    table = np.empty(int(np.sum(sizes)), dtype=np.int64)
    key = table[: ends.size]  # level 0
    np.subtract(ends, position, out=key)  # the fit at each position, less one
    key += 1
    key <<= 32
    key -= position
    del position, key  # no view of the table outlives its build, so it goes with its name below
    for k in range(1, depth):
        below, at, span = offsets[k - 1], offsets[k], 1 << (k - 1)
        np.maximum(table[below : at - span], table[below + span : at], out=table[at : at + sizes[k]])

    starts = np.empty_like(ends)
    picks = 0
    a, b = firsts, lasts
    while a.size >= _FRONTIER_MIN:
        picked, a, b = _greedy_round(table, offsets, ends, a, b)
        starts[picks : picks + picked.size] = picked
        picks += picked.size
    keys, at, reach_at, start_at = memoryview(table), offsets.tolist(), memoryview(ends), memoryview(starts)
    stack = list(zip(a.tolist(), b.tolist(), a.tolist()))  # the scalar loop takes the rest
    while stack:
        a, b, lo = stack.pop()  # lo is at or before the fragment's s*
        s = star = bisect_left(reach_at, b, lo, b)
        if s > a:
            k = (s - a).bit_length() - 1
            x, y = keys[at[k] + a], keys[at[k] + s - (1 << k)]
            t = -(x if x > y else y) & _POSITION_MASK
            e = reach_at[t]
            if e - t >= b - s:
                s = t
                stack.append((e + 1, b, star if star > e else e + 1))
            if s > a:
                stack.append((a, s - 1, a))
        start_at[picks] = s
        picks += 1
    del keys, reach_at, start_at, table

    starts = np.sort(starts[:picks])  # left to right, block after block; parts tile the positions
    return multi, firsts, starts, np.diff(starts, append=ends.size), ends


def _greedy_round(table, offsets, reach, a, b):
    """``(picked, a, b)``: the pick start of every fragment [a[i], b[i]] at once, and their pieces.

    Every s* is one ``searchsorted`` on ``reach``, and every range-argmax
    one gather from ``table``, whose level k starts at ``offsets[k]``.
    """
    star = np.searchsorted(reach, b)
    np.maximum(star, a, out=star)
    picked = star.copy()
    split = np.flatnonzero(star > a)  # fragments with starts before s*
    first, star = a[split], star[split]
    k = np.frexp((star - first).astype(float))[1].astype(np.intp) - 1  # floor(log2(width)), exact below 2^53
    at = offsets[k]
    t = -np.maximum(table[at + first], table[at + star - (1 << k)]) & _POSITION_MASK
    e = reach[t]
    win = e - t >= b[split] - star
    split = split[win]
    t, e = t[win], e[win]
    picked[split] = t
    left = np.flatnonzero(picked > a)
    return picked, np.concatenate((e + 1, a[left])), np.concatenate((b[split], picked[left] - 1))


def _greedy_core(prefix: np.ndarray, left, right, budget: float):
    """``(part_left, part_right, rank, counts, reach, shift)``: the greedy partition of every block.

    ``prefix`` and the blocks are as in :func:`_greedy_picks`; block k is
    ``[left[k], right[k]]``.  Parts are listed block by block,
    left to right; block k owns ``counts[k]`` entries, and ``rank`` is each
    part's 1-based pick order in its block.  The parts are
    :func:`_greedy_picks`' picks, plus one part for each block that fits the
    budget whole.  ``reach`` is the picks' ``reach`` by position; the gaps of
    a multi-part block k sit at positions ``left[k] - shift[k]`` on.

    *Pick order without a heap.*  Greedy picks the longest fit over all
    fragments, ties to the smallest start: a heap keyed by (-length, start).
    A child fragment's longest fit is never longer than the pick that split
    its parent, whose windows include the child's; a left child cannot tie
    it either, or that fit (smaller start) would have been the parent's
    pick.  So keys strictly grow from a pick to every pick below it, and
    starts differ.  Each pick still to come lies below a fragment in the
    heap, keyed at least as high as the one popped; the heap therefore pops
    in sorted order, and the ranks are one lexsort by (block, -length, start).
    """
    left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
    multi, firsts, starts, lengths, reach = _greedy_picks(prefix, left, right, budget)
    picks = starts.size
    block = np.searchsorted(firsts, starts, side="right") - 1
    multi_counts = np.bincount(block, minlength=firsts.size)
    by_pick = np.lexsort((starts, -lengths, block))
    multi_rank = np.empty_like(by_pick)
    multi_rank[by_pick] = np.arange(picks) - np.repeat(np.cumsum(multi_counts) - multi_counts, multi_counts) + 1
    shift = np.zeros_like(left)
    shift[multi] = left[multi] - firsts
    starts += shift[multi][block]
    del by_pick, block

    counts = np.ones(left.size, dtype=np.intp)
    counts[multi] = multi_counts
    in_multi = np.repeat(multi, counts)
    part_left, part_right = np.repeat(left, counts), np.repeat(right, counts)
    part_left[in_multi] = starts
    part_right[in_multi] = starts + lengths - 1
    rank = np.ones(part_left.size, dtype=np.intp)
    rank[in_multi] = multi_rank
    return part_left, part_right, rank, counts, reach, shift


def greedy_partition(g: GapSequence, parent: IndexInterval, budget: float) -> GreedyPartition:
    """Decompose ``parent`` by repeatedly removing the longest budget-respecting subinterval.

    At each step the chosen part is a maximum-length subinterval of the
    remaining index set with gap sum <= budget; among maximum-length
    candidates the one with the smallest left endpoint wins, which makes the
    procedure deterministic.  Every single gap in the parent must fit the
    budget on its own, otherwise no decomposition exists.
    """
    if parent.right > g.length:
        raise ValueError(f"parent {parent} exceeds gap count {g.length}")
    part_left, part_right, rank, *_ = _greedy_core(g.prefix, [parent.left], [parent.right], budget)
    parts = tuple(map(IndexInterval, part_left.tolist(), part_right.tolist()))
    sums = tuple((g.prefix[part_right] - g.prefix[part_left - 1]).tolist())
    return GreedyPartition(parent, parts, tuple(rank.tolist()), sums, budget)


def partition_lengths(g: GapSequence, left, right, budget: float) -> np.ndarray:
    """Part lengths of ``greedy_partition(g, IndexInterval(left[k], right[k]), budget)`` for all k.

    Lengths are concatenated block by block, left to right within a block.
    No :class:`GreedyPartition` is built, and the same "unpartitionable
    singleton" error is raised.
    """
    part_left, part_right, *_ = _greedy_core(g.prefix, left, right, budget)
    part_right -= part_left - 1
    return part_right


def _greedy_lengths(prefix: np.ndarray, left, right, budget: float) -> tuple[int, int, int]:
    """``(count, sum L, sum C(L+1, 2))`` over the part lengths L of :func:`partition_lengths`.

    ``prefix`` and the blocks are as in :func:`_greedy_picks`, whose picks
    are reduced at once to the three sums: a block that is one part adds its
    own length, the others their picks' lengths.  So no array of parts is
    built, and the greedy's arrays span the blocks given: the audit gives
    those that close in one step of its prefix stream.  The first gap over
    the budget raises the "unpartitionable singleton" error of
    :func:`partition_lengths`.
    """
    left, right = np.asarray(left, dtype=np.intp), np.asarray(right, dtype=np.intp)
    multi, _, _, picked, _ = _greedy_picks(prefix, left, right, budget)
    whole = ~multi
    count = total = binom = 0
    for lengths in (right[whole] - left[whole] + 1, picked):
        count += lengths.size
        total += int(np.sum(lengths))
        binom += int(np.sum(lengths * (lengths + 1) // 2))
    return count, total, binom


class PartitionTable(NamedTuple):
    """The greedy partitions of a list of blocks, as flat arrays.

    Parts are listed block by block, left to right within a block; block k
    owns ``counts[k]`` consecutive entries.  Entry for entry, ``left``,
    ``right``, ``rank`` and ``sums`` are what :func:`greedy_partition` puts
    in ``parts``, ``selection_rank`` and ``sums``, and ``sandwiched`` marks
    the members of :func:`sandwiched_indices`.  ``adjacent_lhs`` has one
    entry per pair of neighbouring parts and ``sandwich_lhs`` one per
    sandwiched part, both in part order: the lhs that
    :func:`verify_adjacent_bound` and :func:`verify_sandwich_bound` report.
    ``adjacent_ok`` and ``sandwich_ok`` say, per block, that every one of
    its checks holds.
    """

    left: np.ndarray
    right: np.ndarray
    rank: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    sandwiched: np.ndarray
    adjacent_lhs: np.ndarray
    sandwich_lhs: np.ndarray
    adjacent_ok: np.ndarray
    sandwich_ok: np.ndarray


def _cross_lhs(reach, shift, left, right, j1: np.ndarray, j2: np.ndarray):
    """The :func:`_cross_bound` lhs of every part pair (j1[i], j2[i]), J_j1 left of J_j2, in one pass.

    The canonical sum of s..e grows with e, so the ends of J_j2 within
    budget from s are ``J_j2.left .. min(reach[s], J_j2.right)``: the same
    ``<= budget`` test on the same float that :func:`_pairs_within` makes.
    Both parts of pair i lie in one multi-part block, whose gaps sit in the
    greedy's ``reach`` at their index minus ``shift[i]``; the count is made
    on those positions.
    """
    n1, n2 = right[j1] - left[j1] + 1, right[j2] - left[j2] + 1
    if not j1.size:
        return n1 * n2
    first = np.cumsum(n1) - n1  # where each pair's starts begin in the flat list below
    starts = np.repeat(left[j1] - shift - first, n1) + np.arange(first[-1] + n1[-1])
    lo = np.repeat(left[j2] - shift, n1)
    within = np.minimum(reach[starts], np.repeat(right[j2] - shift, n1)) - lo + 1
    return n1 * n2 - np.add.reduceat(np.maximum(within, 0), first)


def partition_table(g: GapSequence, left, right, budget: float) -> PartitionTable:
    """``greedy_partition`` of every block ``[left[k], right[k]]`` and both cross-pair bounds, as arrays.

    The parts and ranks come from the core :func:`greedy_partition` runs,
    the sums are its subtraction ``prefix[right] - prefix[left - 1]``, and
    every bound check is made in one numpy pass over the greedy's ``reach``
    (see :func:`_cross_lhs`).  No :class:`GreedyPartition` is built.  It
    reads only ``g.prefix``, so CLI ``partition`` makes the same table on
    the prefix sums a :class:`_PrefixStream` holds.

    *Proof that lhs >= C(L+1, 2) >= L^2 / 2.*  Let J, of length L, be the
    later-picked part of the pair, J' (L' >= L) the earlier, and M the gaps
    between.  When J' was picked, J and the M gaps were in its fragment, so
    no window there longer than L' fits, nor one as long starting earlier.
    The window joining the i-th gap of J to the j-th of J', both counted
    from the middle, has i + M + j gaps.  If J is left of J', it starts
    earlier and is over budget once i + M + j >= L', for min(L', i+M+1) >=
    min(L, i+1) of the j; if right, once i + M + j > L', for min(L', i+M)
    >= i of them.  Either sums to at least C(L+1, 2) over i = 1..L.  Both
    "fits" and "over budget" read ``prefix[e] - prefix[s-1] <= budget``, so
    each count is exact, and ``partition --check`` tests the greedy core.
    """
    return _partition_table(g.prefix, left, right, budget)


def _partition_table(prefix: np.ndarray, left, right, budget: float) -> PartitionTable:
    """:func:`partition_table` on ``prefix`` and the blocks as in :func:`_greedy_picks`; parts are indexed as the blocks."""
    part_left, part_right, rank, counts, reach, shift = _greedy_core(prefix, left, right, budget)
    sums = prefix[part_right] - prefix[part_left - 1]

    block_of = np.repeat(np.arange(counts.size), counts)
    position = np.arange(part_left.size) - np.repeat(np.cumsum(counts) - counts, counts)
    has_next = position < np.repeat(counts, counts) - 1
    inner = (position > 0) & has_next
    sandwiched = np.zeros(part_left.size, dtype=bool)
    sandwiched[1:-1] = inner[1:-1] & (rank[1:-1] > np.maximum(rank[:-2], rank[2:]))

    def checks(j1, j2):
        lhs = _cross_lhs(reach, shift[block_of[j1]], part_left, part_right, j1, j2)
        later = np.where(rank[j1] > rank[j2], j1, j2)
        length = part_right[later] - part_left[later] + 1
        ok = 2 * lhs >= length * length  # lhs >= |later part|^2 / 2, in integers
        return lhs, np.bincount(block_of[j1[~ok]], minlength=counts.size) == 0

    adjacent = np.flatnonzero(has_next)
    middle = np.flatnonzero(sandwiched)
    adjacent_lhs, adjacent_ok = checks(adjacent, adjacent + 1)
    sandwich_lhs, sandwich_ok = checks(middle - 1, middle + 1)
    return PartitionTable(
        part_left, part_right, rank, counts, sums, sandwiched,
        adjacent_lhs, sandwich_lhs, adjacent_ok, sandwich_ok,
    )


def _is_sandwiched(p: GreedyPartition, k: int) -> bool:
    """Part k lies in [2, s-1] and was chosen after both neighbors."""
    return 2 <= k < p.size and p.rank(k) > max(p.rank(k - 1), p.rank(k + 1))


def sandwiched_indices(p: GreedyPartition) -> set[int]:
    """Parts chosen after both neighbors: {k in [2, s-1] : rank k > ranks of k-1 and k+1}."""
    return {k for k in range(2, p.size) if _is_sandwiched(p, k)}


def classify_pair(
    p: GreedyPartition, g: GapSequence, n: int, n2: int, budget: float
) -> PairClass:
    """Locate an index pair n <= n2 relative to the parts.

    A pair whose window sum exceeds the budget is OUTSIDE.  A pair within
    budget always lands in one part, in adjacent parts, or skips exactly one
    part whose middle is sandwiched; the greedy construction rules out every
    other placement, so anything else raises.
    """
    if n > n2:
        raise ValueError(f"need n <= n2, got {n} > {n2}")
    if not (p.parent.left <= n and n2 <= p.parent.right):
        raise ValueError(f"pair ({n}, {n2}) outside parent {p.parent}")
    total = float(g.prefix[n2] - g.prefix[n - 1])
    if total > budget:
        return PairClass.OUTSIDE
    k1 = p.part_containing(n)
    k2 = p.part_containing(n2)
    if k1 == k2:
        return PairClass.SAME_BLOCK
    if k2 == k1 + 1:
        return PairClass.ADJACENT
    if k2 == k1 + 2 and _is_sandwiched(p, k1 + 1):
        return PairClass.SANDWICH_SKIP
    raise RuntimeError(
        f"pair ({n}, {n2}) with in-budget sum {total} falls outside the three "
        f"admissible placements; greedy invariants violated"
    )


def _cross_bound(p: GreedyPartition, g: GapSequence, k1: int, k2: int, budget: float) -> BoundCheck:
    """J_k1 x J_k2 against |the later-picked of the two|^2 / 2 over-budget pairs."""
    j1, j2 = p.parts[k1 - 1], p.parts[k2 - 1]
    lhs = j1.length * j2.length - _pairs_within(g.prefix, j1, j2, budget, True)
    later = j1 if p.rank(k1) > p.rank(k2) else j2
    rhs = 0.5 * later.length ** 2
    return BoundCheck(lhs, rhs, lhs >= rhs)


def verify_adjacent_bound(
    p: GreedyPartition, g: GapSequence, k: int, budget: float
) -> BoundCheck:
    """Check that J_k x J_{k+1} has at least |later-picked part|^2 / 2 over-budget pairs."""
    if not 1 <= k <= p.size - 1:
        raise ValueError(f"k={k} out of range 1..{p.size - 1}")
    return _cross_bound(p, g, k, k + 1, budget)


def verify_sandwich_bound(
    p: GreedyPartition, g: GapSequence, k: int, budget: float
) -> BoundCheck:
    """Check the skip-one analogue of :func:`verify_adjacent_bound` for a sandwiched k."""
    if not _is_sandwiched(p, k):
        raise ValueError(f"part {k} is not sandwiched")
    return _cross_bound(p, g, k - 1, k + 1, budget)
