"""Tie-adversarial inputs for the exact counting kernels and their callers.

Dyadic gaps (multiples of 1/8 or 1/16) keep every window sum and every
difference exact, so the direct-summation oracles and the canonical prefix
differences agree and any miscount is the kernel's.  Interval endpoints are
drawn from the realized sums and differences themselves, so the boundary
comparisons are ties in every closedness combination.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab.cli import _dumps, _partition_documents
from ppclab import cli, partition
from ppclab.partition import _FRONTIER_MIN, _cross_bound, _greedy_lengths
from oracles import (
    GreedyOracle,
    brute_cross_pairs_above,
    brute_multi_gap_count,
    brute_pair_count,
    brute_ppc_block,
    brute_ppc_cross,
    bias_bins,
    bin_form,
)
from test_partition import patch_step

# runs of equal dyadic gaps; k = 0 gives runs of zero gaps, i.e. equal prefix values
runs = st.lists(st.tuples(st.integers(0, 8), st.integers(1, 6)), min_size=1, max_size=10)


def expand(run_list, denominator):
    return [k / denominator for k, r in run_list for _ in range(r)]


def window_sums(g):
    """Every canonical window sum of ``g``, sorted."""
    p, n = g.prefix, g.length
    return sorted({float(p[e] - p[s - 1]) for s in range(1, n + 1) for e in range(s, n + 1)})


def realized_interval(data, points):
    """An interval whose endpoints are two of the given realized values."""
    lo, hi = sorted(data.draw(st.lists(st.sampled_from(points), min_size=2, max_size=2)))
    return pl.Interval(lo, hi, data.draw(st.booleans()), data.draw(st.booleans()))


@given(runs, st.integers(1, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_multi_gap_count_on_realized_window_sums(run_list, m_min, data):
    g = pl.GapSequence(expand(run_list, 8))
    n = data.draw(st.integers(1, g.length))
    p = g.prefix
    sums = sorted({float(p[e] - p[s - 1]) for s in range(1, n + 1) for e in range(s, n + 1)})
    interval = realized_interval(data, sums)
    assert pl.multi_gap_count(g, interval, n, m_min) == brute_multi_gap_count(
        g.gaps, interval, n, m_min
    )


@given(runs, st.data())
@settings(max_examples=300, deadline=None)
def test_pair_correlation_on_realized_differences(run_list, data):
    # a step of 1/10 is not dyadic: the values and their differences round, and fl(a - b) = -fl(b - a)
    # must still count each pair with j < i as its mirror in -I
    d = data.draw(st.sampled_from([8, 10]))
    gaps = [k / d or 1 / d for k, r in run_list for _ in range(r)]  # strictly increasing values
    seq = pl.sequence_from_gaps(gaps, start=data.draw(st.integers(-4, 4)) / d)
    n = data.draw(st.integers(1, seq.n))
    v = seq.values[:n]
    diffs = sorted(set((v[None, :] - v[:, None]).ravel().tolist()))
    interval = realized_interval(data, diffs)
    assert pl.pair_correlation(seq, interval, n).pair_count == brute_pair_count(v, interval, n)


@given(st.lists(runs, min_size=1, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_partition_lengths_match_replayed_greedy(blocks, data):
    separator = [0.75]  # above the threshold, so every run list becomes its own block
    gaps = separator + [x for b in blocks for x in expand(b, 16) + separator]
    g = pl.GapSequence(gaps)
    threshold = 0.5
    p = g.prefix
    sums = sorted({float(p[e] - p[s - 1]) for s in range(1, g.length + 1)
                   for e in range(s, min(g.length, s + 12) + 1)})
    budget = data.draw(st.sampled_from([threshold] + [x for x in sums if 0 < x <= threshold]))
    bs = pl.maximal_blocks(g, g.length, threshold)
    try:
        expected = []
        for block in bs.blocks:
            partition = pl.greedy_partition(g, block, budget)
            GreedyOracle(g, block, budget).replay_check(partition)
            expected.extend(part.length for part in partition.parts)
    except ValueError as exc:  # a single gap above a budget chosen below the threshold
        with pytest.raises(ValueError, match="unpartitionable singleton") as caught:
            pl.partition_lengths(g, bs.left, bs.right, budget)
        assert str(caught.value) == str(exc)
        return
    assert pl.partition_lengths(g, bs.left, bs.right, budget).tolist() == expected


# One block's gaps, all <= 1/2: dyadic runs (zero runs among them); one constant gap repeated up
# to 200 times, so that many fits have equal length and the greedy core's range-argmax table
# gets 8 levels; constant runs with zero runs among them; or gaps 2^-30 under 1/2 and 1/4 among
# 2^-30 and zero gaps.  Multiples of 2^-30 keep every sum exact; 0.1, 0.3 and 1/3 do not.
EPS = 2.0**-30
block_gaps = st.one_of(
    runs.map(lambda r: expand(r, 16)),
    st.tuples(st.sampled_from([0.0, 0.1, 0.125, 0.3, 1 / 3, 0.5 - EPS, 0.5]), st.integers(1, 200)).map(
        lambda t: [t[0]] * t[1]
    ),
    st.lists(st.tuples(st.sampled_from([0.0, 0.125, 0.3, 0.5 - EPS]), st.integers(1, 40)), min_size=1, max_size=6)
    .map(lambda rs: [x for x, r in rs for _ in range(r)]),
    st.lists(st.sampled_from([0.5 - EPS, 0.25 - EPS, 0.25, EPS, 0.0]), min_size=1, max_size=24),
)


def table_gaps(blocks):
    separator = [0.75]  # above every budget drawn, so each gap list is its own block
    return separator + [x for b in blocks for x in b + separator]


@st.composite
def table_cases(draw):
    """(blocks, budget, n): block gap lists, a budget among their window sums or 1/2, and a gap count."""
    blocks = draw(st.lists(block_gaps, min_size=1, max_size=5))
    g = pl.GapSequence(table_gaps(blocks))
    p = g.prefix
    sums = sorted({float(p[e] - p[s - 1]) for s in range(1, g.length + 1)
                   for e in range(s, min(g.length, s + 12) + 1)})
    budget = draw(st.sampled_from([0.5] + [x for x in sums if 0 < x <= 0.5]))
    return blocks, budget, draw(st.integers(1, g.length))


@given(table_cases())
# gap 13 is raw 0.5 but its canonical sum is 0.5000000000000004, so it ends its block
@example(([[0.1, 0.1], [0.1] * 6, [0.5, 0.5]], 0.5, 13))
# long blocks: every part one gap, picked left to right; one gap under the budget each; zero runs
@example(([[0.3] * 200, [0.5 - EPS] * 150, [0.0] * 70 + [0.3] * 70 + [0.0] * 60], 0.5, 554))
@settings(max_examples=200, deadline=None)
def test_partition_table_matches_the_object_api_and_the_oracles(case):
    blocks, budget, n = case
    gaps = table_gaps(blocks)
    g = pl.GapSequence(gaps)
    bs = pl.maximal_blocks(g, n, budget)
    partitions = [pl.greedy_partition(g, block, budget) for block in bs.blocks]
    table = pl.partition_table(g, bs.left, bs.right, budget)
    exact = all((x / EPS).is_integer() for x in gaps)  # direct and canonical sums agree

    part, adjacent, sandwich = 0, 0, 0
    for k, (block, expected) in enumerate(zip(bs.blocks, partitions)):
        size = int(table.counts[k])
        rows = range(part, part + size)
        parts = tuple(pl.IndexInterval(int(table.left[i]), int(table.right[i])) for i in rows)
        ranks = tuple(int(table.rank[i]) for i in rows)
        sums_k = tuple(float(table.sums[i]) for i in rows)
        assert (parts, ranks, sums_k) == (expected.parts, expected.selection_rank, expected.sums)
        sandwiched = {j + 1 for j in range(size) if table.sandwiched[part + j]}
        assert sandwiched == pl.sandwiched_indices(expected)
        GreedyOracle(g, block, budget).replay_check(pl.GreedyPartition(block, parts, ranks, sums_k, budget))

        adjacent_ok = sandwich_ok = True
        for j in range(1, size):
            check = _cross_bound(expected, g, j, j + 1, budget)
            assert table.adjacent_lhs[adjacent] == check.lhs
            if exact:
                assert check.lhs == brute_cross_pairs_above(g.gaps, parts[j - 1], parts[j], budget)
            adjacent, adjacent_ok = adjacent + 1, adjacent_ok and check.ok
        for j in sorted(sandwiched):
            check = _cross_bound(expected, g, j - 1, j + 1, budget)
            assert table.sandwich_lhs[sandwich] == check.lhs
            if exact:
                assert check.lhs == brute_cross_pairs_above(g.gaps, parts[j - 2], parts[j], budget)
            sandwich, sandwich_ok = sandwich + 1, sandwich_ok and check.ok
        assert (table.adjacent_ok[k], table.sandwich_ok[k]) == (adjacent_ok, sandwich_ok)
        part += size
    assert (part, adjacent, sandwich) == (table.left.size, table.adjacent_lhs.size, table.sandwich_lhs.size)


# At least twice _FRONTIER_MIN blocks that need more than one part (two gaps of 0.3 at one end, always in
# one block, see to that), so their fragments are split in rounds, all at once, before the scalar loop
# takes the rest; greedy_partition splits one block at a time, always in the scalar loop.
multi_part_gaps = st.tuples(block_gaps, st.booleans()).map(
    lambda t: t[0] + [0.3, 0.3] if t[1] else [0.3, 0.3] + t[0]
)


@given(st.lists(multi_part_gaps, min_size=2 * _FRONTIER_MIN, max_size=2 * _FRONTIER_MIN + 32))
# one pick per block and round for 200 rounds, every pick an equal-length tie won by the smaller start
@example([[0.3] * 200] * 128)
# fits of two gaps that tie at every pick: the smaller start wins, so each block of 201 gaps ends
# in a one-gap part, and a round that let the larger start win would put that part first
@example([[0.25] * 201] * 128)
@settings(max_examples=10, deadline=None)
def test_a_wide_frontier_picks_what_block_by_block_greedy_and_the_oracle_pick(blocks):
    g = pl.GapSequence(table_gaps(blocks))
    bs = pl.maximal_blocks(g, g.length, 0.5)
    assert bs.left.size >= len(blocks)  # a gap of 0.5 whose canonical sum is above 1/2 splits its list
    partitions = [pl.greedy_partition(g, block, 0.5) for block in bs.blocks]
    table = pl.partition_table(g, bs.left, bs.right, 0.5)
    assert np.count_nonzero(table.counts > 1) >= 2 * _FRONTIER_MIN
    parts = [part for partition in partitions for part in partition.parts]
    assert table.left.tolist() == [part.left for part in parts]
    assert table.right.tolist() == [part.right for part in parts]
    assert table.rank.tolist() == [r for partition in partitions for r in partition.selection_rank]
    assert pl.partition_lengths(g, bs.left, bs.right, 0.5).tolist() == [part.length for part in parts]
    replayed = set()
    for block, partition in zip(bs.blocks, partitions):
        gaps = tuple(g.gaps[block.left - 1 : block.right].tolist())
        if gaps not in replayed:  # equal gap lists are equal blocks
            replayed.add(gaps)
            GreedyOracle(g, block, 0.5).replay_check(partition)


def test_a_frontier_of_thousands_of_blocks_picks_what_block_by_block_greedy_picks():
    # 8,193 blocks of two or three gaps of 0.3 between gaps of 1, and one of 200: all go through the rounds
    # in one frontier of 8,194 fragments, and the long block's chain ends in the scalar loop
    sizes = [2 + (k % 3 == 0) for k in range(8193)] + [200]
    g = pl.GapSequence([gap for size in sizes for gap in [0.3] * size + [1.0]])
    bs = pl.maximal_blocks(g, g.length, 0.5)
    partitions = [pl.greedy_partition(g, block, 0.5) for block in bs.blocks]
    table = pl.partition_table(g, bs.left, bs.right, 0.5)
    assert np.count_nonzero(table.counts > 1) == len(sizes)
    parts = [part for partition in partitions for part in partition.parts]
    assert table.left.tolist() == [part.left for part in parts]
    assert table.right.tolist() == [part.right for part in parts]
    assert table.rank.tolist() == [r for partition in partitions for r in partition.selection_rank]
    assert table.sums.tolist() == [s for partition in partitions for s in partition.sums]
    lengths = [part.length for part in parts]
    assert pl.partition_lengths(g, bs.left, bs.right, 0.5).tolist() == lengths
    assert _greedy_lengths(g.prefix, bs.left, bs.right, 0.5) == (
        len(lengths), sum(lengths), sum(L * (L + 1) // 2 for L in lengths)
    )


def test_a_reach_past_its_block_moves_no_pick_of_the_rounds():
    # With a budget above the threshold a start's fits run on across the separators.  Each 0.0
    # between two 0.51 is a one-part block between multi-part ones, which puts an unclipped reach
    # at a block's end; s* taken from such a reach gave a part of sum 2.4375 > 2.
    gaps = ([0.3] * 7 + [0.01] + [0.51, 0.0, 0.51] + [0.4375] + [0.5] * 4 + [2**-7] * 200 + [0.9]) * 80
    g = pl.GapSequence(gaps)
    bs = pl.maximal_blocks(g, g.length, 0.5)
    table = pl.partition_table(g, bs.left, bs.right, 2.0)
    assert np.count_nonzero(table.counts > 1) >= 2 * _FRONTIER_MIN  # the rounds run
    partitions = [pl.greedy_partition(g, block, 2.0) for block in bs.blocks]
    parts = [part for partition in partitions for part in partition.parts]
    assert table.left.tolist() == [part.left for part in parts]
    assert table.right.tolist() == [part.right for part in parts]
    assert table.rank.tolist() == [r for partition in partitions for r in partition.selection_rank]
    assert table.sums.tolist() == [x for partition in partitions for x in partition.sums]
    assert table.sums.max() <= 2.0


# One-part blocks between multi-part ones, under a budget above the threshold 1/2, so that reach,
# unclipped, would run past a block's end.  Every multi-part block ends in five gaps of 1/2, and the
# gaps are dyadic, so every canonical sum is exact and no block is split by rounding.
multi_block = st.lists(st.sampled_from([0.0, 2**-7, 0.25, 0.4375, 0.5]), max_size=12).map(lambda gs: gs + [0.5] * 5)
single_block = st.lists(st.sampled_from([0.0, 2**-7, 0.125, 0.375, 0.5]), min_size=1, max_size=4)
separator = st.sampled_from([[0.625], [1.0], [1.5]])


@given(st.lists(st.tuples(multi_block, separator, st.lists(st.tuples(single_block, separator), max_size=2)),
                min_size=2 * _FRONTIER_MIN, max_size=2 * _FRONTIER_MIN + 16), st.sampled_from([1.25, 2.0]))
@settings(max_examples=20, deadline=None)
def test_the_greedy_reach_is_sorted_and_stays_in_its_block(blocks, budget):
    gaps = [1.0]
    for multi, after, singles in blocks:
        gaps += multi + after + [x for single, end in singles for x in single + end]
    g = pl.GapSequence(gaps)
    bs = pl.maximal_blocks(g, g.length, 0.5)
    multi, firsts, _, _, reach = partition._greedy_picks(g.prefix, bs.left, bs.right, budget)
    sizes = (bs.right - bs.left + 1)[multi]
    assert sizes.size >= 2 * _FRONTIER_MIN and reach.size == sizes.sum()
    assert (np.diff(reach) >= 0).all()
    assert (reach >= np.arange(reach.size)).all()
    assert (reach <= np.repeat(firsts + sizes - 1, sizes)).all()


@given(table_cases(), st.booleans(), st.data())
# parts [1, 2], [3], [4, 5] of the first block, picked in the order 1, 3, 2: the middle one is
# sandwiched; a block of zero gaps is one part of sum 0; no data keeps the table's own verdicts
@example(([[0.125, 0.375, 0.4375, 0.375, 0.125], [0.0] * 4, [0.3] * 3], 0.5, 16), True, None)
@settings(max_examples=200, deadline=None)
def test_partition_documents_are_the_dumps_of_each_block(case, check, data):
    blocks, budget, n = case
    g = pl.GapSequence(table_gaps(blocks))
    bs = pl.maximal_blocks(g, n, budget)
    table = pl.partition_table(g, bs.left, bs.right, budget)
    if data is not None:  # verdicts of either kind, so every shape of the check object is written
        size = bs.left.size
        verdicts = st.lists(st.booleans(), min_size=size, max_size=size).map(lambda v: np.array(v, dtype=bool))
        table = table._replace(adjacent_ok=data.draw(verdicts), sandwich_ok=data.draw(verdicts))
    expected, part = [], 0
    for k, (a, b) in enumerate(zip(bs.left.tolist(), bs.right.tolist())):
        rows = range(part, part + int(table.counts[k]))
        doc = {
            "parent": [a, b],
            "parts": [[int(table.left[i]), int(table.right[i])] for i in rows],
            "ranks": [int(table.rank[i]) for i in rows],
            "sums": [float(table.sums[i]) for i in rows],
            "sandwiched": [i - part + 1 for i in rows if table.sandwiched[i]],
        }
        if check:
            doc["check"] = {"adjacent_ok": bool(table.adjacent_ok[k]), "sandwich_ok": bool(table.sandwich_ok[k])}
        expected.append(_dumps(doc) + "\n")
        part = rows.stop
    for size in (1, 2, cli.PARTITION_FORMAT):  # the text of every block, however many one % call formats
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "PARTITION_FORMAT", size)
            assert "".join(_partition_documents(table, bs.left, bs.right, check)) == "".join(expected)


@given(table_cases())
@example(([[0.1, 0.1], [0.1] * 6, [0.5, 0.5]], 0.5, 13))  # gap 13 above: raw 0.5, out of its block
@example(([[0.3] * 200, [0.5 - EPS] * 150, [0.0] * 70 + [0.3] * 70 + [0.0] * 60], 0.5, 554))
@settings(max_examples=200, deadline=None)
def test_audit_partition_sums_match_partition_lengths(case):
    blocks, _, n = case  # the audit's budget is always 1/2
    g = pl.GapSequence(table_gaps(blocks))
    cfg = pl.AuditConfig(epsilon=1e-9, n=max(n, 2))
    bs = pl.maximal_blocks(g, cfg.n, 0.5)
    lengths = pl.partition_lengths(g, bs.left, bs.right, 0.5)
    report = pl.audit(g, cfg)
    binom = int(np.sum(lengths * (lengths + 1) // 2))
    assert (report.part_count, report.total_block_length) == (lengths.size, int(np.sum(lengths)))
    assert report.partition_mass == binom / cfg.n


@given(table_cases(), st.sampled_from([1, 2, None]))
# blocks 1 and 2 fit a budget of 1/8 gap by gap, but gap 13 of block 3 does not: the greedy raises there
@example(([[0.125, 0.125], [0.125] * 6, [0.125, 0.25]], 0.125, 13), 1)
@example(([[0.3] * 200, [0.5 - EPS] * 150, [0.0] * 70 + [0.3] * 70 + [0.0] * 60], 0.5, 554), 2)
@settings(max_examples=200, deadline=None)
def test_the_audit_partition_sums_are_those_of_partition_lengths_at_every_step(case, step):
    blocks, budget, n = case
    g = pl.GapSequence(table_gaps(blocks))
    cfg = pl.AuditConfig(epsilon=1e-9, n=max(n, 2))
    bs = pl.maximal_blocks(g, n, 0.5)
    try:
        lengths = pl.partition_lengths(g, bs.left, bs.right, budget)
    except ValueError as exc:  # a gap above a budget below the blocks' threshold
        with pytest.raises(ValueError, match="unpartitionable singleton") as caught:
            _greedy_lengths(g.prefix, bs.left, bs.right, budget)
        assert str(caught.value) == str(exc)  # the same first index and canonical sum
    else:
        sums = lengths.size, int(np.sum(lengths)), int(np.sum(lengths * (lengths + 1) // 2))
        assert _greedy_lengths(g.prefix, bs.left, bs.right, budget) == sums
    with pytest.MonkeyPatch.context() as mp:
        if step is not None:  # the audit gives the greedy the blocks that close in one step at a time
            patch_step(mp, step)
        report = pl.audit(g, cfg)
    used = min(cfg.n, g.length)
    bs = pl.maximal_blocks(g, used, 0.5)
    lengths = pl.partition_lengths(g, bs.left, bs.right, 0.5)
    assert (report.part_count, report.total_block_length) == (lengths.size, int(np.sum(lengths)))
    assert report.partition_mass == int(np.sum(lengths * (lengths + 1) // 2)) / used


@st.composite
def gaps_at_a_budget(draw):
    """(gaps, budget): dyadic runs with zero runs among them, or decimal gaps clamped to the budget.

    A decimal gap of at most the budget can still sum above it as a prefix difference.
    """
    budget = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0]))
    decimal = st.lists(st.tuples(st.integers(0, 100), st.sampled_from([10, 100])), min_size=1, max_size=40)
    clamped = decimal.map(lambda xs: [min(k / d, budget) for k, d in xs])
    return draw(st.one_of(runs.map(lambda r: expand(r, 16)), clamped)), budget


@given(gaps_at_a_budget())
@example(([0.1, 0.75, 0.5, 0.75], 0.5))  # gap 3 is 0.5000000000000001 as a prefix difference
@settings(max_examples=200, deadline=None)
def test_no_block_gap_is_unpartitionable_at_a_budget_equal_to_the_threshold(case):
    gaps, budget = case
    g = pl.GapSequence(gaps)
    bs = pl.maximal_blocks(g, g.length, budget)
    table = pl.partition_table(g, bs.left, bs.right, budget)
    assert int(np.sum(table.right - table.left + 1)) == bs.total_length
    report = pl.audit(g, pl.AuditConfig(epsilon=1e-9, n=g.length + 1))
    assert report.total_block_length == int(np.count_nonzero(np.diff(g.prefix) <= 0.5))
    assert report.density_lhs == report.total_block_length / g.length


@given(table_cases())
@example(([[0.125, 0.375, 0.4375, 0.375, 0.125], [0.0] * 4, [0.3] * 3], 0.5, 16))  # one sandwiched part
@example(([[0.3] * 200, [0.5 - EPS] * 150, [0.0] * 70 + [0.3] * 70 + [0.0] * 60], 0.5, 554))
@settings(max_examples=200, deadline=None)
def test_every_cross_pair_has_at_least_the_later_parts_binomial_over_budget(case):
    blocks, budget, n = case
    g = pl.GapSequence(table_gaps(blocks))
    bs = pl.maximal_blocks(g, n, budget)
    table = pl.partition_table(g, bs.left, bs.right, budget)
    length = table.right - table.left + 1

    def binomial_of_later(j1, j2):  # C(L + 1, 2), L the length of the later-picked of parts j1, j2
        later = np.where(table.rank[j1] > table.rank[j2], length[j1], length[j2])
        return later * (later + 1) // 2

    has_next = np.ones(length.size, dtype=bool)
    has_next[np.cumsum(table.counts) - 1] = False  # a block's last part
    adjacent, middle = np.flatnonzero(has_next), np.flatnonzero(table.sandwiched)
    assert np.all(table.adjacent_lhs >= binomial_of_later(adjacent, adjacent + 1))
    assert np.all(table.sandwich_lhs >= binomial_of_later(middle - 1, middle + 1))


@given(runs, st.data())
@settings(max_examples=300, deadline=None)
def test_ppc_block_and_cross_on_realized_window_sums(run_list, data):
    g = pl.GapSequence(expand(run_list, 8))
    n = g.length
    a = data.draw(st.sampled_from(window_sums(g)))
    left = data.draw(st.integers(1, n))
    block = pl.IndexInterval(left, data.draw(st.integers(left, n)))
    assert pl.ppc_block(g, block, a) == brute_ppc_block(g.gaps, block, a)
    assume(n >= 2)
    l1 = data.draw(st.integers(1, n - 1))
    j1 = pl.IndexInterval(l1, data.draw(st.integers(l1, n - 1)))
    l2 = data.draw(st.integers(j1.right + 1, n))
    j2 = pl.IndexInterval(l2, data.draw(st.integers(l2, n)))
    assert pl.ppc_cross(g, j1, j2, a) == brute_ppc_cross(g.gaps, j1, j2, a)


@given(runs, st.data())
@settings(max_examples=300, deadline=None)
def test_cross_bound_lhs_on_realized_window_sums(run_list, data):
    g = pl.GapSequence(expand(run_list, 16))
    n = g.length
    assume(n >= 2)
    lefts = [1] + sorted(data.draw(st.sets(st.integers(2, n), min_size=1)))
    parts = tuple(pl.IndexInterval(a, b - 1) for a, b in zip(lefts, lefts[1:] + [n + 1]))
    ranks = tuple(data.draw(st.permutations(range(1, len(parts) + 1))))
    sums = tuple(g.window_sum(part.left, part.right) for part in parts)
    budget = data.draw(st.sampled_from(window_sums(g)))
    p = pl.GreedyPartition(pl.IndexInterval(1, n), parts, ranks, sums, budget)
    for k in range(1, p.size):
        expected = brute_cross_pairs_above(g.gaps, parts[k - 1], parts[k], budget)
        assert pl.verify_adjacent_bound(p, g, k, budget).lhs == expected
    sandwiched = pl.sandwiched_indices(p)
    for k in range(0, p.size + 2):
        if k in sandwiched:
            expected = brute_cross_pairs_above(g.gaps, parts[k - 2], parts[k], budget)
            assert pl.verify_sandwich_bound(p, g, k, budget).lhs == expected
        else:
            with pytest.raises(ValueError, match="not sandwiched"):
                pl.verify_sandwich_bound(p, g, k, budget)


@given(runs)
@settings(max_examples=300, deadline=None)
def test_bias_check_lhs_on_windows_at_one_eighth_and_one_quarter(run_list):
    gaps = expand(run_list, 32)
    gaps = [x for x, total in zip(gaps, itertools.accumulate(gaps)) if total <= 0.5]
    g = pl.GapSequence(gaps)
    n = g.length
    expected = sum(brute_multi_gap_count(g.gaps, pl.Interval.closed(0.0, t), n, 1) for t in (0.125, 0.25))
    assert pl.bias_check(g).lhs == expected


# numerators of at most 4 over 8, 16 or 32: no gap exceeds 1/2, so truncation never empties a block
short_runs = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)), min_size=1, max_size=12)


@given(short_runs, st.sampled_from([8, 16, 32]))
@settings(max_examples=300, deadline=None)
def test_bias_bound_through_the_bins_with_prefix_values_on_the_bin_edges(run_list, denominator):
    # with denominator 8 every prefix value is one of the edges 0, 1/8, 1/4, 3/8, 1/2
    gaps = expand(run_list, denominator)
    gaps = [x for x, total in zip(gaps, itertools.accumulate(gaps)) if total <= 0.5]
    g = pl.GapSequence(gaps)
    length = g.length
    x = bias_bins(g.prefix)
    assert sum(x) == length + 1
    check = pl.bias_check(g)
    assert check.lhs >= bin_form(x)
    point = pl.LemmaPoint(x[0] + 1, x[0] + x[1] + 1, x[0] + x[1] + x[2] + 1, length + 2)
    assert bin_form(x) + 2 * (length + 1) == pl.lemma512_lhs(point) >= pl.lemma512_rhs(length + 2)
    assert 12 * bin_form(x) >= 5 * length * (length - 1)
    assert check.rhs == pytest.approx(5 * length * (length - 1) / 12)
    assert check.ok


def test_seed_past_a_long_run_of_equal_prefix_values():
    """The rounded seed lands past a run of 10^4 + 1 equal prefix values; the answer is its start."""
    ulp = 2.0**-52
    run = 10**4 + 1
    g = pl.GapSequence([1.0, ulp] + [0.0] * run)
    t = 0.75 * ulp  # 1 + t rounds up to 1 + ulp, the run's prefix value
    interval = pl.Interval.open(t, 1.0)
    p = g.prefix
    seed = int(np.searchsorted(p, p[1] + t, side="right"))
    answer = int(pl.first_crossing(p, p[1:2], 0, t, True)[0])  # lower 0 misses, so the seed is searched
    assert (answer, seed) == (2, g.length + 1)  # the seed misses by the whole run

    started = time.perf_counter()
    got = pl.multi_gap_count(g, interval, g.length, 1)
    assert time.perf_counter() - started < 1.0
    assert got == brute_multi_gap_count(g.gaps, interval, g.length, 1) == run + 1
