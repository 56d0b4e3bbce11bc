"""Counting statistics against brute-force enumeration and exact identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import correlation
from oracles import (
    brute_multi_gap_count,
    brute_pair_count,
    brute_ppc_block,
    brute_ppc_cross,
    scan_first_crossing,
)


def random_interval(rng):
    a, b = sorted(rng.uniform(-2.5, 2.5, 2).tolist())
    return pl.Interval(a, b, bool(rng.integers(0, 2)), bool(rng.integers(0, 2)))


def test_interval_basics():
    i = pl.Interval.half_open(0.0, 1.0)
    assert i.contains(0.0) and not i.contains(1.0)
    assert pl.Interval.open(0, 0).is_empty
    assert not pl.Interval.closed(0, 0).is_empty
    assert pl.Interval.closed(0, 0).contains(0.0)
    with pytest.raises(ValueError):
        pl.Interval(1.0, 0.0)
    assert pl.Interval(-1.0, 2.0).length == 3.0


def test_index_interval_validation():
    with pytest.raises(ValueError):
        pl.IndexInterval(0, 3)
    with pytest.raises(ValueError):
        pl.IndexInterval(4, 3)
    assert pl.IndexInterval(2, 5).length == 4


THREE_GAPS = pl.GapSequence([0.1, 0.2, 0.3])


@pytest.mark.parametrize("call, message", [
    (lambda: pl.Interval(math.nan, 1.0), "interval endpoints must not be NaN"),
    (lambda: pl.Interval(0.0, 1.0).scaled(0.0), "scale factor must be positive"),
    (lambda: pl.gap_cdf(THREE_GAPS, 0.5, 4), "n=4 exceeds gap count 3"),
    (lambda: pl.multi_gap_count(THREE_GAPS, pl.Interval(0.0, 1.0), 3, m_min=0), "m_min must be >= 1"),
    (lambda: pl.multi_gap_count(THREE_GAPS, pl.Interval(0.0, 1.0), 4), "n=4 out of range 0..3"),
    (lambda: pl.multi_gap_count(THREE_GAPS, pl.Interval(0.0, 1.0), -1), "n=-1 out of range 0..3"),
    (lambda: pl.ppc_block(THREE_GAPS, pl.IndexInterval(2, 4), 0.5),
     "block IndexInterval(left=2, right=4) exceeds gap count 3"),
    (lambda: pl.ppc_cross(THREE_GAPS, pl.IndexInterval(1, 1), pl.IndexInterval(2, 4), 0.5),
     "block IndexInterval(left=2, right=4) exceeds gap count 3"),
], ids=["interval_nan", "scaled_0", "gap_cdf_n", "m_min_0", "multi_gap_n_high", "multi_gap_n_low",
        "ppc_block_past", "ppc_cross_past"])
def test_bad_arguments_are_refused_by_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_pair_correlation_examples():
    seq = pl.RealSequence([0, 1, 2, 3])
    r = pl.pair_correlation(seq, pl.Interval.closed(0.5, 1.5), 4)
    assert (r.pair_count, r.r_value) == (3, 0.75)
    r = pl.pair_correlation(seq, pl.Interval.closed(-1.5, -0.5), 4)
    assert r.pair_count == 3
    r = pl.pair_correlation(seq, pl.Interval.open(0, 0), 4)
    assert r.pair_count == 0
    with pytest.raises(ValueError):
        pl.pair_correlation(seq, pl.Interval.closed(0, 1), 5)
    with pytest.raises(ValueError):
        pl.pair_correlation(seq, pl.Interval.closed(0, 1), 0)


def test_pair_correlation_matches_brute_force():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        seq = pl.sequence_from_gaps(rng.uniform(0.01, 1.5, n - 1))
        interval = random_interval(rng)
        got = pl.pair_correlation(seq, interval, n).pair_count
        assert got == brute_pair_count(seq.values, interval, n)


def test_pair_correlation_scale_equivariance():
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        seq = pl.sequence_from_gaps(rng.uniform(0.02, 1.2, n - 1))
        interval = random_interval(rng)
        base = pl.pair_correlation(seq, interval, n).pair_count
        for c in (2.0, 0.5, 3.7):  # dyadic scalings are exact; 3.7 exercises rounding
            scaled_seq = pl.RealSequence(seq.values * c)
            assert pl.pair_correlation(scaled_seq, interval.scaled(c), n).pair_count == base


def test_pair_correlation_reflection_symmetry():
    rng = np.random.default_rng(56)
    for _ in range(100):
        n = int(rng.integers(2, 80))
        seq = pl.sequence_from_gaps(rng.uniform(0.02, 1.2, n - 1))
        lo, hi = sorted(rng.uniform(0.0, 3.0, 2).tolist())
        interval = pl.Interval(lo, hi, bool(rng.integers(0, 2)), bool(rng.integers(0, 2)))
        direct = pl.pair_correlation(seq, interval, n).pair_count
        mirrored = pl.pair_correlation(seq, interval.reflected(), n).pair_count
        assert direct == mirrored


def test_gap_cdf_examples():
    assert pl.gap_cdf(pl.GapSequence([1, 1, 1]), 0.5, 3) == 0.0
    assert pl.gap_cdf(pl.GapSequence([0.3, 0.6, 0.9]), 0.6, 3) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        pl.gap_cdf(pl.GapSequence([1.0]), 0.5, 0)


def test_gap_cdf_matches_sorting_oracle():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        g = rng.uniform(0.0, 2.0, n)
        x = float(rng.uniform(-0.5, 2.5))
        got = pl.gap_cdf(pl.GapSequence(g), x, n)
        expected = int(np.searchsorted(np.sort(g), x, side="right")) / n
        assert got == expected


@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=1, max_size=40),
    st.floats(min_value=-1.0, max_value=6.0, allow_nan=False),
    st.floats(min_value=-1.0, max_value=6.0, allow_nan=False),
)
@settings(max_examples=200)
def test_gap_cdf_monotone(gaps, x1, x2):
    g = pl.GapSequence(gaps)
    lo, hi = min(x1, x2), max(x1, x2)
    f_lo = pl.gap_cdf(g, lo, g.length)
    f_hi = pl.gap_cdf(g, hi, g.length)
    assert 0.0 <= f_lo <= f_hi <= 1.0


def test_multi_gap_count_examples():
    g = pl.GapSequence([1.0, 1.0, 1.0])
    assert pl.multi_gap_count(g, pl.Interval.open(0.5, 1.5 + 1e-9), 3, 2) == 0
    g2 = pl.GapSequence([0.3, 0.3, 0.3])
    assert pl.multi_gap_count(g2, pl.Interval(0.5, 1.0, False, True), 3, 2) == 3
    assert pl.multi_gap_count(g, pl.Interval.closed(0.0, 1e18), 3, 1) == 6
    assert pl.multi_gap_count(g, pl.Interval.open(0.5, 0.5), 3, 1) == 0  # empty interval


def test_multi_gap_count_matches_brute_force():
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(1, 100))
        g = rng.uniform(0.0, 0.8, n)
        interval = pl.Interval(
            *sorted(rng.uniform(0.0, 4.0, 2).tolist()),
            bool(rng.integers(0, 2)),
            bool(rng.integers(0, 2)),
        )
        m_min = int(rng.integers(1, 4))
        got = pl.multi_gap_count(pl.GapSequence(g), interval, n, m_min)
        assert got == brute_multi_gap_count(g, interval, n, m_min)


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_count_functions_match_the_oracles_at_any_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(correlation, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    gaps = rng.integers(0, 4, 150) / 8  # dyadic, so direct and canonical sums agree
    gaps[40:60] = 0.0  # a zero-gap run: equal prefix values
    g = pl.GapSequence(gaps)
    values = np.cumsum(rng.integers(1, 5, 120) / 8)
    seq = pl.RealSequence(values)
    intervals = [
        pl.Interval(-0.5, 1.0, True, True),  # lo < 0
        pl.Interval(-0.375, 0.0, False, True),
        pl.Interval.half_open(0.0, 0.25),  # lo == 0 closed
        pl.Interval.closed(0.0, 0.0),
        pl.Interval.open(0.0, 0.25),  # lo == 0 open: zero sums are out
        pl.Interval(0.0, 1.5, False, True),
        pl.Interval(0.25, 1.0, True, False),
        pl.Interval(-1.5, -0.25, True, True),
    ]
    for interval in intervals:
        for n, m_min in ((g.length, 1), (g.length, 2), (100, 3), (1, 1)):
            assert pl.multi_gap_count(g, interval, n, m_min) == brute_multi_gap_count(gaps, interval, n, m_min)
        for n in (seq.n, 65, 1):
            assert pl.pair_correlation(seq, interval, n).pair_count == brute_pair_count(values, interval, n)


def test_multi_gap_count_makes_no_pass_for_a_lower_end_every_sum_passes(monkeypatch):
    calls = []
    real = correlation.first_crossing
    monkeypatch.setattr(correlation, "first_crossing", lambda *args: calls.append(1) or real(*args))
    g = pl.GapSequence(np.full(200, 0.125))
    for interval in (pl.Interval.half_open(0.0, 0.25), pl.Interval(-1.0, 0.25)):
        calls.clear()
        assert pl.multi_gap_count(g, interval, 200, 1) == brute_multi_gap_count(g.gaps, interval, 200, 1)
        assert len(calls) == 1  # the upper end only
    calls.clear()
    pl.multi_gap_count(g, pl.Interval.open(0.0, 0.25), 200, 1)
    assert len(calls) == 2


def test_pair_correlation_makes_no_pass_for_the_lower_end_at_lo_zero(monkeypatch):
    monkeypatch.setattr(correlation, "_CHUNK", 64)
    calls = []
    real = correlation.first_crossing
    monkeypatch.setattr(correlation, "first_crossing", lambda *args: calls.append(1) or real(*args))
    values = np.cumsum(np.random.default_rng(3).integers(1, 5, 200) / 8)
    seq = pl.RealSequence(values)
    chunks = 4  # ceil(200 / 64)
    for interval, passes in (
        (pl.Interval.closed(0.0, 0.5), 1),
        (pl.Interval.open(0.0, 0.5), 1),
        (pl.Interval(-0.0, 0.375, True, True), 1),
        (pl.Interval.open(0.0, 0.0), 1),
        (pl.Interval.half_open(0.125, 0.5), 2),
        (pl.Interval.closed(-0.5, 0.5), 2),
    ):
        calls.clear()
        assert pl.pair_correlation(seq, interval, 200).pair_count == brute_pair_count(values, interval, 200)
        assert len(calls) == passes * chunks, interval


# fl(b + t) is P[1] itself, but P[1] - b rounds below t: a ">= t" seed lands one index early
SEED_EARLY = (8.277025938204417, 1.2275974091074837, 9.5046233473119)
# P[1] is one ulp below fl(b + t), yet P[1] - b == t exactly: a ">= t" seed lands one index late
SEED_LATE = (0.9299199266222835, 2.889545150219205, 3.8194650768414884)


def crossing_cases():
    """(name, P, base, lower, t) inputs for first_crossing: Poisson, dyadic, zero-run and seed-miss."""
    rng = np.random.default_rng(11)
    poisson = np.cumsum(rng.exponential(1.0, 300))
    dyadic = np.cumsum(rng.integers(1, 5, 200) / 8)
    zero_run = np.concatenate(([0.0], np.cumsum(np.repeat([0.125, 0.0, 0.25, 0.0, 0.125], [20, 40, 10, 60, 20]))))
    for name, P, ts in (
        ("poisson", poisson, [-1.0, 0.0, 0.3, 1.0, 2.5, float(poisson[40] - poisson[37])]),
        ("dyadic", dyadic, [-0.25, 0.0, 0.125, 0.5, 1.375]),
        ("zero-run", zero_run, [0.0, 0.125, 0.25, 2.0]),
    ):
        for t in ts:
            yield name, P, P[:-1], 0, t
            yield name, P, P[:-1], np.arange(1, P.size), t
    for name, (b, t, x) in (("seed-early", SEED_EARLY), ("seed-late", SEED_LATE)):
        P = np.array([b - 1.0, b, x, math.nextafter(x, math.inf), x + 1.0])
        yield name, P, np.repeat(P, 20), 0, t
        yield name, P, np.full(9, b), np.arange(9) % 5, t
        # one start in 7 misses at lower 0, 1 and 2, and its seed is one index off: it reaches
        # the search and the repair through the probe path wherever a chunk holds more than one start
        P = np.array([b - 3.0, b - 2.0, b - 1.0, b, x, math.nextafter(x, math.inf), x + 1.0])
        answer = scan_first_crossing(P, P[3:4], 0, t, False)[0]
        yield name + "-past-the-probes", P, np.full(70, b), np.resize([0] + [answer] * 6, 70), t
    # each start's lower sits d positions before its first passing index e0 (d < 0: past it), with
    # d running through a period of 7 starts, so each chunk of 7, and each of 64 nearly, holds the
    # same mix; a chunk of 1 start that misses at lower is more than half missing
    t = 1.0
    e0 = np.array(scan_first_crossing(poisson, poisson[:-1], 0, t, False))
    for name, d in (
        ("all-at-lower", [0, -1, -3, 0, 0, -2, 0]),
        ("lower+1-and-+2", [0, 1, 2, 0, 0, 1, 0]),  # 3 of 7 miss: the probe rounds answer them
        ("past-the-probes", [0, 3, 0, 9, 0, 1, -2]),  # 3 of 7 miss, 2 past the rounds
        ("mostly-missing", [5, 1, -2, 40, 2, 3, -1]),  # 5 of 7 miss: the whole chunk is searched
    ):
        yield name, poisson, poisson[:-1], np.maximum(e0 - np.resize(d, e0.size), 0), t
    yield "empty", np.array([]), np.array([1.0]), 0, 0.5
    yield "empty", np.array([]), np.array([1.0, 2.0]), np.array([3, 0]), 0.5
    yield "lower-past-the-end", np.array([0.0, 1.0]), np.array([0.0, 0.5, -1.0]), 5, 0.5
    yield "lower-past-the-end", np.array([0.0, 1.0]), np.array([0.0, 0.5, -1.0]), np.array([5, 2, -1]), 0.5


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_first_crossing_matches_the_scalar_scan_at_any_chunk_size(monkeypatch, chunk):
    monkeypatch.setattr(correlation, "_CHUNK", chunk)
    for name, P, base, lower, t in crossing_cases():
        for strict in (False, True):
            got = pl.first_crossing(P, base, lower, t, strict).tolist()
            assert got == scan_first_crossing(P, base, lower, t, strict), (name, t, strict)


@pytest.mark.parametrize("case, seed_offset", [(SEED_EARLY, -1), (SEED_LATE, 1)])
def test_a_seed_that_rounding_puts_one_index_off_is_repaired(monkeypatch, case, seed_offset):
    b, t, x = case
    P = np.array([b, x, math.nextafter(x, math.inf), x + 1.0])
    base = np.array([b])
    answer = scan_first_crossing(P, base, 0, t, False)
    assert int(np.searchsorted(P, b + t)) - answer[0] == seed_offset
    repaired = []
    real = correlation._repair
    monkeypatch.setattr(correlation, "_repair", lambda *args: repaired.append(1) or real(*args))
    assert pl.first_crossing(P, base, 0, t, False).tolist() == answer
    assert repaired == [1]


@pytest.mark.parametrize("case", [SEED_EARLY, SEED_LATE])
@pytest.mark.parametrize("misses, searched", [(1, [1]), (3, [3]), (4, [7])])
def test_only_starts_past_the_probe_rounds_are_searched_unless_most_miss(monkeypatch, case, misses, searched):
    """A chunk of 7 starts whose first ``misses`` miss at lower 0, 1 and 2, each with a seed one index off."""
    monkeypatch.setattr(correlation, "_CHUNK", 7)
    b, t, x = case
    P = np.array([b - 3.0, b - 2.0, b - 1.0, b, x, math.nextafter(x, math.inf), x + 1.0])
    base = np.full(7, b)
    answer = scan_first_crossing(P, base[:1], 0, t, False)[0]
    lower = np.array([0] * misses + [answer] * (7 - misses))
    sizes, repaired = [], []
    search, repair = correlation._search, correlation._repair
    monkeypatch.setattr(correlation, "_search", lambda P, b, *a: sizes.append(b.size) or search(P, b, *a))
    monkeypatch.setattr(correlation, "_repair", lambda P, b, *a: repaired.append(b.size) or repair(P, b, *a))
    assert pl.first_crossing(P, base, lower, t, False).tolist() == [answer] * 7
    assert sizes == searched
    assert len(repaired) == 1 and repaired[0] >= misses  # a late seed of a start hit at lower is repaired too


@pytest.mark.parametrize("before, after", [(1, 1), (1, 40), (40, 1), (37, 91), (300, 5)])
def test_repair_bisects_to_an_answer_anywhere_inside_a_wide_bracket(monkeypatch, before, after):
    """The seed lands past the whole array; the answer is where the one-ulp step starts."""
    ulp = 2.0**-52
    P = np.array([0.0] + [1.0] * before + [1.0 + ulp] * after)
    t = 0.75 * ulp  # fl(1 + t) is 1 + ulp, but 1 - 1 does not pass t and (1 + ulp) - 1 does
    base = np.ones(5)
    lower = np.array([0, 1, before, before + 1, P.size - 1])
    repaired = []
    real = correlation._repair
    monkeypatch.setattr(correlation, "_repair", lambda *args: repaired.append(1) or real(*args))
    got = pl.first_crossing(P, base, lower, t, True).tolist()
    assert got == scan_first_crossing(P, base, lower, t, True)
    assert got[:4] == [before + 1] * 4
    assert repaired == [1]


def test_ppc_block_examples():
    g = pl.GapSequence([0.1, 0.1])
    assert pl.ppc_block(g, pl.IndexInterval(1, 2), 0.15) == 2
    assert pl.ppc_block(g, pl.IndexInterval(2, 2), 0.2) == 1  # singleton below a
    assert pl.ppc_block(g, pl.IndexInterval(1, 2), 0.1) == 0  # a at the minimum gap


def test_ppc_cross_examples():
    g = pl.GapSequence([0.1, 0.1, 0.1])
    assert pl.ppc_cross(g, pl.IndexInterval(1, 1), pl.IndexInterval(3, 3), 0.5) == 1
    assert pl.ppc_cross(g, pl.IndexInterval(1, 1), pl.IndexInterval(3, 3), 0.0) == 0
    g2 = pl.GapSequence([0.4, 0.4, 0.4])
    assert pl.ppc_cross(g2, pl.IndexInterval(1, 1), pl.IndexInterval(2, 3), 0.5) == 0
    with pytest.raises(ValueError, match="disjoint"):
        pl.ppc_cross(g, pl.IndexInterval(1, 2), pl.IndexInterval(2, 3), 0.5)


def test_ppc_counts_match_brute_force():
    rng = np.random.default_rng(303)
    for _ in range(200):
        n = int(rng.integers(2, 90))
        g = rng.uniform(0.0, 0.6, n)
        gs = pl.GapSequence(g)
        a = float(rng.uniform(0.0, 2.0))
        l1 = int(rng.integers(1, n + 1))
        r1 = int(rng.integers(l1, n + 1))
        block = pl.IndexInterval(l1, r1)
        assert pl.ppc_block(gs, block, a) == brute_ppc_block(g, block, a)
        if r1 < n:
            l2 = int(rng.integers(r1 + 1, n + 1))
            r2 = int(rng.integers(l2, n + 1))
            j2 = pl.IndexInterval(l2, r2)
            assert pl.ppc_cross(gs, block, j2, a) == brute_ppc_cross(g, block, j2, a)


def test_block_cross_decomposition_is_exact():
    rng = np.random.default_rng(404)
    for _ in range(300):
        n = int(rng.integers(3, 80))
        g = pl.GapSequence(rng.uniform(0.0, 0.4, n))
        left = int(rng.integers(1, n - 1))
        mid = int(rng.integers(left, n))
        right = int(rng.integers(mid + 1, n + 1))
        j = pl.IndexInterval(left, right)
        j1 = pl.IndexInterval(left, mid)
        j2 = pl.IndexInterval(mid + 1, right)
        a = float(rng.uniform(0.0, 1.5))
        assert pl.ppc_block(g, j, a) == (
            pl.ppc_block(g, j1, a) + pl.ppc_block(g, j2, a) + pl.ppc_cross(g, j1, j2, a)
        )


def test_multi_gap_equals_blockwise_sum_below_threshold():
    # windows with sum < x <= threshold are confined to single maximal blocks,
    # so the global count splits exactly across blocks
    rng = np.random.default_rng(505)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        g = pl.GapSequence(rng.uniform(0.01, 1.2, n))
        x = 0.5
        total = pl.multi_gap_count(g, pl.Interval.half_open(0.0, x), n, 1)
        blocks = pl.maximal_blocks(g, n, x)
        split = sum(pl.ppc_block(g, b, x) for b in blocks.blocks)
        assert total == split


def test_report_fields():
    seq = pl.RealSequence([0, 1, 2, 3])
    r = pl.pair_correlation(seq, pl.Interval.closed(0.5, 1.5), 4)
    assert r.n == 4 and r.interval.lo == 0.5
    assert r.r_value == r.pair_count / r.n
