"""Maximal blocks, greedy decomposition, pair classification, and cross bounds."""

import numpy as np
import pytest

import ppclab as pl
from ppclab import partition
from oracles import GreedyOracle, brute_cross_pairs_above, random_block_gaps

DELTA = 1e-9


def flanked_middle_gaps(zero=0.0):
    """Two large gaps flanking a middle one, separated by (near-)zero runs."""
    return pl.GapSequence([2 / 5] + [zero] * 3 + [1 / 3] + [zero] * 3 + [2 / 5])


THREE_GAPS = pl.GapSequence([0.1, 0.2, 0.3])
PARENT = pl.IndexInterval(1, 3)
ONE, TWO_THREE, THREE = pl.IndexInterval(1, 1), pl.IndexInterval(2, 3), pl.IndexInterval(3, 3)


@pytest.mark.parametrize("call, message", [
    (lambda: pl.GreedyPartition(PARENT, (), (), (), 0.5),
     "parts, selection_rank, and sums must be non-empty and aligned"),
    (lambda: pl.GreedyPartition(PARENT, (ONE, TWO_THREE), (1,), (0.1, 0.5), 0.5),
     "parts, selection_rank, and sums must be non-empty and aligned"),
    (lambda: pl.GreedyPartition(PARENT, (ONE, THREE), (1, 2), (0.1, 0.3), 0.5),
     "parts do not tile the parent: gap or overlap at 2"),
    (lambda: pl.GreedyPartition(PARENT, (ONE,), (1,), (0.1,), 0.5), "parts do not cover the parent"),
    (lambda: pl.GreedyPartition(PARENT, (ONE, TWO_THREE), (1, 1), (0.1, 0.5), 0.5),
     "selection_rank must be a bijection onto 1..s"),
    (lambda: pl.greedy_partition(THREE_GAPS, PARENT, 1.0).part_containing(4),
     "index 4 outside parent IndexInterval(left=1, right=3)"),
    (lambda: pl.maximal_blocks(THREE_GAPS, 4, 0.5), "n=4 out of range 0..3"),
    (lambda: pl.greedy_partition(THREE_GAPS, PARENT, 0.0), "budget must be positive"),
    (lambda: pl.partition_table(THREE_GAPS, [0], [1], 0.5), "blocks must satisfy 1 <= left <= right <= 3"),
    (lambda: pl.partition_table(THREE_GAPS, [2], [1], 0.5), "blocks must satisfy 1 <= left <= right <= 3"),
    (lambda: pl.partition_table(THREE_GAPS, [1], [4], 0.5), "blocks must satisfy 1 <= left <= right <= 3"),
    (lambda: pl.greedy_partition(THREE_GAPS, pl.IndexInterval(1, 4), 0.5),
     "parent IndexInterval(left=1, right=4) exceeds gap count 3"),
], ids=["no_parts", "misaligned", "gap_in_tiling", "not_covering", "ranks_not_bijection",
        "part_containing_outside", "maximal_blocks_n", "budget_0", "table_left_0", "table_left_past_right",
        "table_right_past", "parent_past"])
def test_bad_arguments_are_refused_by_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_maximal_blocks_example():
    g = pl.GapSequence([0.6, 0.3, 0.4, 0.7, 0.2])
    bs = pl.maximal_blocks(g, 5, 0.5)
    assert [(b.left, b.right) for b in bs.blocks] == [(2, 3), (5, 5)]
    assert bs.total_length == 3


def test_maximal_blocks_empty_and_full():
    g = pl.GapSequence([0.9, 0.8, 0.7])
    assert pl.maximal_blocks(g, 3, 0.5).blocks == ()
    g2 = pl.GapSequence([0.1, 0.2, 0.3])
    assert [(b.left, b.right) for b in pl.maximal_blocks(g2, 3, 0.5).blocks] == [(1, 3)]


def blocks_by_index(g, n, threshold):
    """Maximal runs of the first n gaps with canonical sum <= threshold, one index at a time (1-based)."""
    runs = []
    p = g.prefix.tolist()
    for i in range(1, n + 1):
        if p[i] - p[i - 1] > threshold:
            continue
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return [tuple(r) for r in runs]


@pytest.mark.parametrize(
    "gaps",
    [
        [0.1] * 7,
        [0.9] * 7,
        [0.1, 0.9] * 4,
        [0.9, 0.1] * 4 + [0.9],
        [0.5, 0.9, 0.5, 0.5, 0.9, 0.9, 0.5],  # gaps equal to the threshold are inside
        [0.9, 0.5, 0.5000000000000001, 0.5, 0.5],  # gap 3: above 1/2 raw, 1/2 as a prefix difference
        [0.1, 0.75, 0.5, 0.75],  # gap 3: 1/2 raw, above 1/2 as a prefix difference
    ],
)
def test_maximal_blocks_match_a_per_index_oracle(gaps):
    g = pl.GapSequence(gaps)
    for n in range(len(gaps) + 1):  # n = 0 included: no gap, no block
        bs = pl.maximal_blocks(g, n, 0.5)
        assert list(zip(bs.left.tolist(), bs.right.tolist())) == blocks_by_index(g, n, 0.5)
        assert bs.left.dtype == bs.right.dtype == np.intp


def patch_step(mp, size):
    """Set the prefix stream's step to ``size``; the returned list gets the gap count of every step taken."""
    mp.setattr(partition, "_STREAM_STEP", size)
    sizes, step = [], partition._PrefixStream._step

    def counted(self, g):
        sizes.append(g.size)
        step(self, g)

    mp.setattr(partition._PrefixStream, "_step", counted)
    return sizes


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_maximal_blocks_match_a_per_index_oracle_across_chunk_ends(monkeypatch, chunk):
    sizes = patch_step(monkeypatch, chunk)  # every run starts, ends or goes on at a step's end
    rng = np.random.default_rng(chunk)
    cases = [[0.1] * 7, [0.9] * 7, [0.9, 0.5, 0.5000000000000001, 0.5, 0.5], [0.1, 0.75, 0.5, 0.75]]
    cases += [rng.uniform(0.0, 1.3, int(rng.integers(1, 12))).tolist() for _ in range(50)]
    for gaps in cases:
        g = pl.GapSequence(gaps)
        for n in range(len(gaps) + 1):
            bs = pl.maximal_blocks(g, n, 0.5)
            assert list(zip(bs.left.tolist(), bs.right.tolist())) == blocks_by_index(g, n, 0.5)
            assert bs.left.dtype == bs.right.dtype == np.intp
            assert sizes == [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)  # the stream read the patched step
            sizes.clear()


def test_maximal_blocks_count_identity():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(1, 150))
        g = pl.GapSequence(rng.uniform(0.0, 1.3, n))
        bs = pl.maximal_blocks(g, n, 0.5)
        assert bs.total_length == int(np.count_nonzero(np.diff(g.prefix[: n + 1]) <= 0.5))
        assert abs(n * pl.gap_cdf(g, 0.5, n) - int(np.count_nonzero(g.gaps[:n] <= 0.5))) < 1e-6  # raw gaps


def test_greedy_on_flanked_middle_run():
    for zero in (DELTA, 0.0):
        g = flanked_middle_gaps(zero)
        p = pl.greedy_partition(g, pl.IndexInterval(1, 9), 0.5)
        assert [(x.left, x.right) for x in p.parts] == [(1, 1), (2, 8), (9, 9)]
        assert p.selection_rank == (2, 1, 3)  # middle run picked first
        assert all(s <= 0.5 for s in p.sums)


def test_greedy_all_singletons_tie_break():
    p = pl.greedy_partition(pl.GapSequence([0.3, 0.3, 0.3]), pl.IndexInterval(1, 3), 0.5)
    assert [(x.left, x.right) for x in p.parts] == [(1, 1), (2, 2), (3, 3)]
    assert p.selection_rank == (1, 2, 3)  # ties resolved left to right


def test_greedy_single_index_parent():
    p = pl.greedy_partition(pl.GapSequence([0.4]), pl.IndexInterval(1, 1), 0.5)
    assert p.size == 1 and p.selection_rank == (1,)


def test_greedy_rejects_oversized_singleton():
    with pytest.raises(ValueError, match="unpartitionable singleton"):
        pl.greedy_partition(pl.GapSequence([0.3, 0.7]), pl.IndexInterval(1, 2), 0.5)


def test_an_unpartitionable_gap_is_named_with_its_canonical_sum():
    g = pl.gaps_of(pl.RealSequence([0.1, 0.2, 0.95, 1.45, 2.2]))  # gap 3 is 0.5 raw
    assert g.gaps[2] == 0.5 < g.window_sum(3, 3) == 0.5000000000000001
    message = ("unpartitionable singleton: gap at index 3 has canonical sum 0.5000000000000001, "
               "which exceeds budget 0.5")
    with pytest.raises(ValueError, match=f"^{message}$"):
        pl.greedy_partition(g, pl.IndexInterval(3, 4), 0.5)


def test_greedy_earlier_picks_never_shorter():
    rng = np.random.default_rng(21)
    for _ in range(300):
        g = pl.GapSequence(random_block_gaps(rng))
        parent = pl.IndexInterval(1, g.length)
        p = pl.greedy_partition(g, parent, 0.5)
        by_rank = sorted(range(p.size), key=lambda i: p.selection_rank[i])
        lengths = [p.parts[i].length for i in by_rank]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))


def test_greedy_matches_exhaustive_scan_oracle():
    rng = np.random.default_rng(22)
    for _ in range(500):
        g = pl.GapSequence(random_block_gaps(rng))
        parent = pl.IndexInterval(1, g.length)
        p = pl.greedy_partition(g, parent, 0.5)
        GreedyOracle(g, parent, 0.5).replay_check(p)


def test_adjacent_union_always_over_budget():
    rng = np.random.default_rng(23)
    for _ in range(300):
        g = pl.GapSequence(random_block_gaps(rng))
        parent = pl.IndexInterval(1, g.length)
        p = pl.greedy_partition(g, parent, 0.5)
        for k in range(p.size - 1):
            union = g.window_sum(p.parts[k].left, p.parts[k + 1].right)
            assert union > 0.5


def test_sandwiched_definition_on_synthetic_ranks():
    parts = (pl.IndexInterval(1, 1), pl.IndexInterval(2, 2), pl.IndexInterval(3, 3))
    parent = pl.IndexInterval(1, 3)
    p = pl.GreedyPartition(parent, parts, (1, 3, 2), (0.1, 0.1, 0.1), 0.5)
    assert pl.sandwiched_indices(p) == {2}
    p = pl.GreedyPartition(parent, parts, (2, 1, 3), (0.1, 0.1, 0.1), 0.5)
    assert pl.sandwiched_indices(p) == set()
    short = pl.GreedyPartition(
        pl.IndexInterval(1, 2),
        (pl.IndexInterval(1, 1), pl.IndexInterval(2, 2)),
        (1, 2),
        (0.1, 0.1),
        0.5,
    )
    assert pl.sandwiched_indices(short) == set()


def test_sandwich_fixture():
    g = pl.GapSequence([0.2, 0.2, 0.5, 0.1, 0.1, 0.1])
    p = pl.greedy_partition(g, pl.IndexInterval(1, 6), 0.5)
    assert [(x.left, x.right) for x in p.parts] == [(1, 2), (3, 3), (4, 6)]
    assert p.selection_rank == (2, 3, 1)
    assert pl.sandwiched_indices(p) == {2}
    check = pl.verify_sandwich_bound(p, g, 2, 0.5)
    assert check == (6, 2.0, True)


def test_classify_pair_cases():
    g = pl.GapSequence([0.2, 0.2, 0.5, 0.1, 0.1, 0.1])
    p = pl.greedy_partition(g, pl.IndexInterval(1, 6), 0.5)
    assert pl.classify_pair(p, g, 1, 2, 0.5) is pl.PairClass.SAME_BLOCK
    assert pl.classify_pair(p, g, 4, 6, 0.5) is pl.PairClass.SAME_BLOCK
    assert pl.classify_pair(p, g, 2, 3, 0.5) is pl.PairClass.OUTSIDE  # sum 0.7
    assert pl.classify_pair(p, g, 1, 6, 0.5) is pl.PairClass.OUTSIDE
    with pytest.raises(ValueError):
        pl.classify_pair(p, g, 3, 2, 0.5)
    with pytest.raises(ValueError):
        pl.classify_pair(p, g, 1, 7, 0.5)


def test_classify_pair_adjacent_and_skip():
    # near-zero runs force in-budget pairs across parts
    g = pl.GapSequence([0.3, 1e-6, 0.45, 1e-6, 0.3])
    p = pl.greedy_partition(g, pl.IndexInterval(1, 5), 0.5)
    found = {pl.classify_pair(p, g, n, n2, 0.5)
             for n in range(1, 6) for n2 in range(n, 6)}
    assert pl.PairClass.SAME_BLOCK in found and pl.PairClass.ADJACENT in found

    g2 = pl.GapSequence([0.2, 0.2, 0.5, 0.1, 0.1, 0.1])
    p2 = pl.greedy_partition(g2, pl.IndexInterval(1, 6), 0.5)
    # parts [1,2][3,3][4,6] with the middle sandwiched; (3, 4) spans parts 2..3
    assert pl.classify_pair(p2, g2, 3, 4, 0.7) is pl.PairClass.ADJACENT  # larger budget run
    labels = {}
    for n in range(1, 7):
        for n2 in range(n, 7):
            labels[(n, n2)] = pl.classify_pair(p2, g2, n, n2, 0.5)
    assert all(v is not None for v in labels.values())


def test_classify_pair_exhaustive_scan_never_escapes_three_cases():
    # classify_pair raises if an in-budget pair falls outside the three cases,
    # so scanning every pair of every instance is the totality assertion
    rng = np.random.default_rng(31)
    for _ in range(200):
        g = pl.GapSequence(random_block_gaps(rng))
        parent = pl.IndexInterval(1, g.length)
        p = pl.greedy_partition(g, parent, 0.5)
        for n in range(1, g.length + 1):
            for n2 in range(n, g.length + 1):
                assert pl.classify_pair(p, g, n, n2, 0.5) in pl.PairClass


def test_verify_adjacent_bound_matches_brute_force():
    rng = np.random.default_rng(32)
    for _ in range(300):
        g = pl.GapSequence(random_block_gaps(rng))
        parent = pl.IndexInterval(1, g.length)
        p = pl.greedy_partition(g, parent, 0.5)
        for k in range(1, p.size):
            check = pl.verify_adjacent_bound(p, g, k, 0.5)
            brute = brute_cross_pairs_above(g.gaps, p.parts[k - 1], p.parts[k], 0.5)
            assert check.lhs == brute
            assert check.ok
    with pytest.raises(ValueError):
        p_small = pl.greedy_partition(pl.GapSequence([0.1]), pl.IndexInterval(1, 1), 0.5)
        pl.verify_adjacent_bound(p_small, pl.GapSequence([0.1]), 1, 0.5)


def test_verify_sandwich_bound_matches_brute_force():
    rng = np.random.default_rng(33)
    seen = 0
    for _ in range(400):
        g = pl.GapSequence(random_block_gaps(rng))
        parent = pl.IndexInterval(1, g.length)
        p = pl.greedy_partition(g, parent, 0.5)
        for k in sorted(pl.sandwiched_indices(p)):
            check = pl.verify_sandwich_bound(p, g, k, 0.5)
            brute = brute_cross_pairs_above(g.gaps, p.parts[k - 2], p.parts[k], 0.5)
            assert check.lhs == brute
            assert check.ok
            seen += 1
    assert seen > 0  # the gap families must actually produce sandwiched parts
    g = pl.GapSequence([0.3, 0.3])
    p = pl.greedy_partition(g, pl.IndexInterval(1, 2), 0.5)
    with pytest.raises(ValueError, match="not sandwiched"):
        pl.verify_sandwich_bound(p, g, 1, 0.5)


def test_left_to_right_division_has_quadratic_cross_leakage():
    # dividing just before the running sum exceeds the budget leaves heavy
    # cross contributions; the greedy division keeps them linear
    g = flanked_middle_gaps()
    j1, j2 = pl.IndexInterval(1, 4), pl.IndexInterval(5, 8)
    assert pl.ppc_cross(g, j1, j2, 0.5) == 12  # every pair avoiding the first gap
    greedy = pl.greedy_partition(g, pl.IndexInterval(1, 9), 0.5)
    assert [(x.left, x.right) for x in greedy.parts] == [(1, 1), (2, 8), (9, 9)]
    assert pl.ppc_cross(g, greedy.parts[0], greedy.parts[1], 0.5) == 3  # linear in run length
    assert pl.ppc_cross(g, greedy.parts[1], greedy.parts[2], 0.5) == 3


def test_largest_claims_largest_division_also_leaks():
    # letting the big gaps claim maximal stretches pairs the two near-zero
    # runs across the middle, again quadratically
    g = flanked_middle_gaps()
    j1, j3 = pl.IndexInterval(1, 4), pl.IndexInterval(6, 9)
    leakage = pl.ppc_cross(g, j1, j3, 0.5)
    assert leakage == 9  # the 3x3 zero-run pairs all sneak under 1/2


def test_flat_middle_block_narrative():
    # a run of exactly-budget gaps separates two light runs; the greedy picks
    # the light runs first and every heavy singleton ends up isolated
    k = 5
    g = pl.GapSequence([0.25] + [0.0] * k + [0.5] * k + [0.0] * k + [0.25])
    n = g.length
    p = pl.greedy_partition(g, pl.IndexInterval(1, n), 0.5)
    lengths = sorted(part.length for part in p.parts)
    assert lengths == [1] * k + [k + 1, k + 1]
    for k_idx in range(1, p.size):
        assert pl.verify_adjacent_bound(p, g, k_idx, 0.5).ok
    for k_idx in sorted(pl.sandwiched_indices(p)):
        assert pl.verify_sandwich_bound(p, g, k_idx, 0.5).ok


def test_two_spikes_narrative():
    # two interior spikes: any division leaks across parts, but the counted
    # leakage shows up against the wider interval, as the bounds predict
    k = 4
    g = pl.GapSequence([0.0] * k + [1 / 3] + [0.0] * k + [1 / 3] + [0.0] * k)
    n = g.length
    p = pl.greedy_partition(g, pl.IndexInterval(1, n), 0.5)
    assert [(x.left, x.right) for x in p.parts] == [(1, 9), (10, 14)]
    assert pl.ppc_cross(g, p.parts[0], p.parts[1], 0.5) == k * (k + 1)
    check = pl.verify_adjacent_bound(p, g, 1, 0.5)
    assert check.ok and check.lhs == 9 * 5 - k * (k + 1)


def test_partition_tiles_parent_exactly():
    rng = np.random.default_rng(34)
    for _ in range(200):
        g = pl.GapSequence(random_block_gaps(rng))
        parent = pl.IndexInterval(1, g.length)
        p = pl.greedy_partition(g, parent, 0.5)
        covered = []
        for part in p.parts:
            covered.extend(range(part.left, part.right + 1))
        assert covered == list(range(parent.left, parent.right + 1))
        assert sorted(p.selection_rank) == list(range(1, p.size + 1))
        for part, s in zip(p.parts, p.sums):
            assert s <= 0.5
            assert s == g.window_sum(part.left, part.right)


def test_one_block_of_equal_gaps_is_split_left_to_right():
    """10^5 gaps of 0.3 under budget 0.5: every part is one gap, picked left to right."""
    length = 10**5
    g = pl.GapSequence(np.full(length, 0.3))
    p = pl.greedy_partition(g, pl.IndexInterval(1, length), 0.5)
    assert [(part.left, part.right) for part in p.parts] == [(i, i) for i in range(1, length + 1)]
    assert p.selection_rank == tuple(range(1, length + 1))
    assert pl.partition_lengths(g, [1], [length], 0.5).tolist() == [1] * length
