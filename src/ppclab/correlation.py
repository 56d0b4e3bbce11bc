"""Counting statistics: pair correlation, gap CDF, and windowed gap-sum counts.

All window sums are canonical prefix-sum differences (see
:class:`~ppclab.sequences.GapSequence`), and all boundary comparisons are
exact binary64 comparisons with no tolerance.  Counts are integers; the
block/cross decomposition identity holds exactly because every operation
evaluates the same window with the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sequences import GapSequence, RealSequence

_CHUNK = 1 << 16  # starts per pass of the count functions and first_crossing: cache-sized temporaries
# first_crossing tests every start at lower, and the misses at up to _PROBE_ROUNDS next positions,
# before any search.  The value comes from measurements on Poisson input (see README).
_PROBE_ROUNDS = 2


@dataclass(frozen=True)
class Interval:
    """Bounded real interval with explicit endpoint closedness.

    The default is half-open [lo, hi).  A degenerate interval with lo == hi
    is the single point when both ends are closed and empty otherwise.
    """

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = False

    def __post_init__(self):
        if not (self.lo == self.lo and self.hi == self.hi):  # NaN guard
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, False, False)

    @classmethod
    def half_open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, False)

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x):
        """Membership test; works elementwise on numpy arrays."""
        above = x >= self.lo if self.lo_closed else x > self.lo
        below = x <= self.hi if self.hi_closed else x < self.hi
        return above & below if hasattr(x, "__len__") else bool(above and below)

    def reflected(self) -> "Interval":
        """The interval -I; closedness flags swap ends."""
        return Interval(-self.hi, -self.lo, self.hi_closed, self.lo_closed)

    def scaled(self, c: float) -> "Interval":
        if not c > 0:
            raise ValueError("scale factor must be positive")
        return Interval(c * self.lo, c * self.hi, self.lo_closed, self.hi_closed)


@dataclass(frozen=True, order=True)
class IndexInterval:
    """Inclusive 1-based index block [left, right] into a gap sequence."""

    left: int
    right: int

    def __post_init__(self):
        if not 1 <= self.left <= self.right:
            raise ValueError(f"need 1 <= left <= right, got [{self.left}, {self.right}]")

    @property
    def length(self) -> int:
        return self.right - self.left + 1


@dataclass(frozen=True)
class CorrelationReport:
    """Result of a pair-correlation query: the raw count and its 1/n scaling."""

    interval: Interval
    n: int
    pair_count: int
    r_value: float


def first_crossing(P, base, lower, t: float, strict: bool) -> np.ndarray:
    """For each start k, the first index e >= lower[k] where P[e] - base[k] passes t.

    "Passes" means ``> t`` when ``strict`` and ``>= t`` otherwise.  The
    answer is the larger of ``lower[k]`` and the first passing index, or
    ``P.size`` when none passes; a negative ``lower`` counts as 0.  ``P``
    must be non-decreasing, so the true difference ``fl(P[e] - base)`` is
    non-decreasing in e (IEEE subtraction is monotone) and the answer equals
    a two-pointer scan's bit for bit.  Each chunk of starts is answered in
    four steps:

    * Probe: g = ``lower`` is the answer exactly when ``P[g] - base`` passes
      or g is past the end of ``P``.  The starts that miss move on by one
      position, and are probed again, for ``_PROBE_ROUNDS`` more rounds.
      The next three steps run only on the starts still unresolved, each
      raised to its last missed position plus one, a lower bound of its
      answer.  So the kernel pays most when answers lie far from ``lower``,
      and its callers pass tight lower bounds.
    * Seed: ``searchsorted`` on the rounded key ``base + t``, run over the
      slice of ``P`` between the seeds of the smallest and largest key (the
      same integers a whole-array search gives), raised to the lower bound.
    * Check: a seed g is the answer exactly when ``P[g] - base`` passes (or
      g is past the end) and ``P[g-1] - base`` does not (or g is the lower
      bound).  Both are tested on the true difference, for all starts at once.
    * Repair: a failed check says on which side of g the answer lies.  Only
      those starts (e.g. a key that rounding put at the wrong end of a long
      run of equal prefix values) keep a bracket [lo, hi] holding their
      answer, and each bracket is bisected, so none costs more than
      O(log P.size) probes.
    """
    passes = np.greater if strict else np.greater_equal
    out = np.empty(len(base), dtype=np.intp)
    lower = np.broadcast_to(lower, out.shape)
    if not P.size:
        return np.maximum(lower, 0, out=out)
    last = P.size - 1
    # an overflowed key or difference is +-inf, which still orders monotonically
    with np.errstate(over="ignore"):
        for c in range(0, out.size, _CHUNK):
            b, g = base[c : c + _CHUNK], out[c : c + _CHUNK]  # g is a view: answers land in out
            np.maximum(lower[c : c + _CHUNK], 0, out=g)
            hit = passes(P.take(g, mode="clip") - b, t)
            hit |= g > last
            miss = np.flatnonzero(~hit)
            probed, b = g[miss], b[miss]
            open_ = np.ones(miss.size, dtype=bool)  # the starts that missed at probed
            for _ in range(_PROBE_ROUNDS):
                probed += open_
                open_ = passes(P.take(probed, mode="clip") - b, t)
                open_ |= probed > last
                np.logical_not(open_, out=open_)
            g[miss] = probed
            rest = np.flatnonzero(open_)
            if rest.size:
                miss = miss[rest]
                g[miss] = _search(P, b[rest], probed[rest] + 1, t, strict)
    return out


def _search(P, b, low, t, strict):
    """:func:`first_crossing`'s seed, check and repair steps for starts whose answers are >= ``low``."""
    passes = np.greater if strict else np.greater_equal
    side = "right" if strict else "left"
    key = b + t
    s0, s1 = np.searchsorted(P, (key.min(), key.max()), side=side)
    g = np.searchsorted(P[s0:s1], key, side=side)
    del key  # one chunk-sized array fewer held through the check
    g += s0
    np.maximum(g, low, out=g)
    at = passes(P.take(g, mode="clip") - b, t)
    at |= g > P.size - 1
    # g - 1 is read only where g > low >= 0, so it lies inside P
    bad = np.flatnonzero(~at | ((g > low) & passes(P.take(g - 1, mode="clip") - b, t)))
    if bad.size:
        g[bad] = _repair(P, b[bad], low[bad], g[bad], at[bad], t, passes)
    return g


def _repair(P, b, low, g, at, t, passes):
    """First crossings for starts whose seed g failed :func:`first_crossing`'s check.

    Where ``P[g] - b`` does not pass (``at`` false) the answer is past g;
    otherwise ``P[g-1] - b`` passed and it is below g.  Each start keeps a
    bracket [lo, hi] holding its answer, with hi passing or ``P.size``, and
    is bisected until lo == hi.
    """
    lo = np.where(at, low, g + 1)
    hi = np.where(at, g - 1, P.size)
    open_ = np.flatnonzero(lo < hi)
    while open_.size:
        l, h = lo[open_], hi[open_]
        probe = (l + h) // 2
        ok = passes(P[probe] - b[open_], t)
        hi[open_] = np.where(ok, probe, h)
        lo[open_] = np.where(ok, l, probe + 1)
        open_ = open_[lo[open_] < hi[open_]]
    return hi


def _forward_pairs(P, starts: int, offset: int, interval: Interval) -> int:
    """#{(i, j) : i < starts, i + offset <= j < P.size, P[j] - P[i] in I}, for non-decreasing ``P``.

    The differences of one i do not decrease in j, so its admissible j form
    one contiguous run; :func:`first_crossing` finds both of its ends on the
    difference ``P[j] - P[i]`` itself, from the lower bound ``i + offset``,
    ``_CHUNK`` starts at a time, so no temporary is ``P.size`` long.  The
    lower end needs no pass when every difference passes lo.
    """
    # the differences are >= 0, so with lo < 0, or lo == 0 closed, every j passes lo
    lo_trivial = interval.lo < 0 or (interval.lo == 0 and interval.lo_closed)
    total = 0
    for c in range(0, starts, _CHUNK):
        base = P[c : min(c + _CHUNK, starts)]
        lower = np.arange(c + offset, c + offset + base.size)
        first = lower if lo_trivial else first_crossing(P, base, lower, interval.lo, not interval.lo_closed)
        total += int(np.sum(first_crossing(P, base, first, interval.hi, interval.hi_closed) - first))
    return total


def pair_correlation(seq: RealSequence, interval: Interval, n: int) -> CorrelationReport:
    """Count ordered pairs (i, j), i != j, i,j <= n with values[j] - values[i] in I.

    Since fl(a - b) = -fl(b - a), the pairs with j < i and a difference in I
    are the pairs with i < j and a difference in -I.  So the count is two
    forward counts, :func:`_forward_pairs` on I and on -I, each on the
    difference values[j] - values[i] itself, the same expression a
    brute-force enumerator would use.  The values strictly increase, so every
    forward difference is > 0: a half with hi <= 0 holds none and is not
    counted, and a lo <= 0 is a closed 0, whose lower end needs no pass.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n > seq.n:
        raise ValueError(f"n={n} exceeds sequence length {seq.n}")

    values = seq.values[:n]
    count = 0
    for half in (interval, interval.reflected()):
        if half.hi > 0:
            if half.lo <= 0:
                half = Interval(0.0, half.hi, True, half.hi_closed)
            count += _forward_pairs(values, n - 1, 1, half)
    return CorrelationReport(interval, n, count, count / n)


def gap_cdf(g: GapSequence, x: float, n: int) -> float:
    """Empirical distribution function of the first n gaps: (1/n) #{m <= n : g_m <= x}."""
    if n <= 0:
        raise ValueError("n must be positive")
    if n > g.length:
        raise ValueError(f"n={n} exceeds gap count {g.length}")
    return int(np.count_nonzero(g.gaps[:n] <= x)) / n


def multi_gap_count(g: GapSequence, interval: Interval, n: int, m_min: int = 1) -> int:
    """Count windows (start, m) with m >= m_min, start+m-1 <= n, and gap-sum in I.

    The windows are the forward pairs of the canonical prefix sums, counted
    by :func:`_forward_pairs` on ``prefix[e] - prefix[s-1]``.
    """
    if m_min < 1:
        raise ValueError("m_min must be >= 1")
    if n < 0 or n > g.length:
        raise ValueError(f"n={n} out of range 0..{g.length}")
    # start s is the pair (s - 1, e) with e >= s + m_min - 1
    return _forward_pairs(g.prefix[: n + 1], n - m_min + 1, m_min, interval)


def _pairs_within(prefix, starts: IndexInterval, ends: IndexInterval, t: float, strict: bool) -> int:
    """#{(s, e) : s in starts, e in ends, e >= s, prefix[e] - prefix[s-1] does not pass t}.

    "Passes" follows :func:`first_crossing`: ``> t`` when ``strict`` and
    ``>= t`` otherwise.  The sums shrink as s moves right, so the first
    passing end only moves right: one two-pointer pass over a block-local
    list of the prefix sums.  It serves callers that ask about one block or
    block pair at a time, at any threshold: :func:`ppc_block`,
    :func:`ppc_cross`, ``bias_check``, and the per-partition bound checks
    ``verify_adjacent_bound`` and ``verify_sandwich_bound``, which are also
    the test oracles for ``partition_table``'s one-pass bounds.
    """
    off = starts.left - 1
    p = prefix[off : ends.right + 1].tolist()  # p[i] = prefix[off + i]
    bound = math.nextafter(t, math.inf) if strict else t  # a float x <= t exactly when x < bound
    first, last = ends.left - off, ends.right - off
    e = first  # first local end whose sum passes t, for the current start
    total = 0
    for s in range(1, starts.right - off + 1):
        base = p[s - 1]
        if e < s:
            e = s
        while e <= last and p[e] - base < bound:
            e += 1
        total += e - (s if s > first else first)
    return total


def ppc_block(g: GapSequence, block: IndexInterval, a: float) -> int:
    """Count pairs n <= n' inside ``block`` with window sum strictly below ``a``."""
    if block.right > g.length:
        raise ValueError(f"block {block} exceeds gap count {g.length}")
    return _pairs_within(g.prefix, block, block, a, False)


def ppc_cross(g: GapSequence, j1: IndexInterval, j2: IndexInterval, a: float) -> int:
    """Count pairs (n, n') in J1 x J2 with window sum g_n + ... + g_{n'} strictly below ``a``.

    J1 must lie strictly left of J2; the window spans every gap from n
    through n', including the ones between the two blocks.
    """
    if j1.right >= j2.left:
        raise ValueError(f"blocks must be disjoint and ordered: {j1} vs {j2}")
    if j2.right > g.length:
        raise ValueError(f"block {j2} exceeds gap count {g.length}")
    return _pairs_within(g.prefix, j1, j2, a, False)
