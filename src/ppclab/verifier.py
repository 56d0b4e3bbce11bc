"""Executable inequality checks: the seven-term quadratic lower bound, the
small-window bias bound, the closing epsilon inequality, and the end-to-end
finite-N audit of the whole chain.

The quadratic bound is proved for all reals by :func:`lemma512_certificate`,
and the bias bound follows from it (see :func:`bias_check`).
The integer sweep is exact too: integer tuples are compared via
12*LHS >= 5L^2 + 2L - 7 in int64, with no floating point anywhere.  For
fixed (a, L) the sum splits into a convex part in b plus one in c, so the
sweep decides each (a, L) at one tuple, in O(l_max^2) time on one core.
Every audit verdict, the closing inequality's included, is decided in
integer or rational arithmetic; only the printed values are floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .correlation import IndexInterval, Interval, _forward_pairs, _pairs_within
from .partition import BoundCheck, _greedy_lengths, _PrefixStream
from .sequences import GapSequence, RealSequence, _check_gaps


@dataclass(frozen=True)
class LemmaPoint:
    """An admissible tuple 1 <= a <= b <= c <= l; integer or real coordinates."""

    a: float
    b: float
    c: float
    l: float

    def __post_init__(self):
        if not 1 <= self.a <= self.b <= self.c <= self.l:
            raise ValueError(
                f"need 1 <= a <= b <= c <= l, got ({self.a}, {self.b}, {self.c}, {self.l})"
            )


def lemma512_lhs(p: LemmaPoint):
    """The seven-term sum; exact (int) when all coordinates are ints."""
    return _seven_terms(p.a, p.b, p.c, p.l)


def _seven_terms(a, b, c, l):
    """The seven-term sum on scalars or numpy arrays; exact on ints."""
    return (
        (a - 1) * a
        + (b - a) * (b - a + 1)
        + (c - b) * (c - b + 1)
        + (l - c) * (l - c + 1)
        + (a - 1) * (b - a)
        + (b - a) * (c - b)
        + (c - b) * (l - c)
    )


def lemma512_rhs(l):
    """(5/12) l^2 + (1/6) l - 7/12; an exact Fraction for integer l."""
    if not l >= 1:
        raise ValueError("l must be >= 1")
    if isinstance(l, int):
        return Fraction(5 * l * l + 2 * l - 7, 12)
    return (5.0 / 12.0) * l * l + l / 6.0 - 7.0 / 12.0


def _squares(a, b, c, l):
    """The three weighted squares that 12*LHS - (5l^2 + 2l - 7) equals."""
    return 3 * (2 * a - c - 1) ** 2 + 3 * (2 * b - l - 1) ** 2 + (3 * c - 2 * l - 1) ** 2


def lemma512_certificate() -> bool:
    """Prove LHS >= RHS for every real tuple, not only the integer ones swept.

    Checks 12*LHS - (5l^2 + 2l - 7) = 3(2a-c-1)^2 + 3(2b-l-1)^2 + (3c-2l-1)^2
    in exact integer arithmetic at the 81 points of {0, 1, 2}^4.  Both sides
    have degree <= 2 in each variable, and such a polynomial that vanishes on
    {0, 1, 2}^4 is zero (variable by variable: a nonzero one has at most two
    roots), so True proves the identity, and with it the bound, for all
    reals.  The squares all vanish, and the bound is tight, exactly on the
    line a = (l+2)/3, b = (l+1)/2, c = (2l+1)/3.
    """
    return all(
        12 * _seven_terms(a, b, c, l) - (5 * l * l + 2 * l - 7) == _squares(a, b, c, l)
        for a, b, c, l in itertools.product(range(3), repeat=4)
    )


class ExhaustiveResult(NamedTuple):
    checked: int
    counterexamples: list


LEMMA512_MAX_L = 10**4  # about 5 s on one core of a 2-core x86 VM; sweep time grows as l_max^2


def _separable_in_b_and_c() -> bool:
    """True when 12*LHS is u(b) + v(c) for fixed (a, l), each with second difference 24.

    Checks, exactly at the 81 points of {0, 1, 2}^4, that the mixed
    difference of 12*LHS in b and c is 0 and that its second differences in
    b and in c are 24.  Each of the seven terms is a product of two affine
    forms, so each difference minus its target has degree <= 2 in each
    variable; such a polynomial that vanishes on {0, 1, 2}^4 is zero, as in
    :func:`lemma512_certificate`.  So True proves the sweep's premises.
    """
    t = _seven_terms
    return all(
        12 * (t(a, b + 1, c + 1, l) - t(a, b + 1, c, l) - t(a, b, c + 1, l) + t(a, b, c, l)) == 0
        and 12 * (t(a, b + 2, c, l) - 2 * t(a, b + 1, c, l) + t(a, b, c, l)) == 24
        and 12 * (t(a, b, c + 2, l) - 2 * t(a, b, c + 1, l) + t(a, b, c, l)) == 24
        for a, b, c, l in itertools.product(range(3), repeat=4)
    )


def _first_minimizer(start, d0, second, l):
    """Smallest integer minimizer on [start, l] of a convex h with differences d0 + second*k."""
    return start + np.clip((second - 1 - d0) // second, 0, l - start)


def _scan_l_values(l_values) -> ExhaustiveResult:
    """Check every tuple 1 <= a <= b <= c <= l for each l, in O(l) time per l.

    For fixed (a, l), f(b, c) = 12*LHS - (5l^2 + 2l - 7) is u(b) + v(c) with
    u and v convex of second difference 24 (:func:`_separable_in_b_and_c`).
    Let b0 and c0 be the smallest integer minimizers of u and v on [a, l].
    If b0 <= c0, the pair is admissible and minimizes f on all of [a, l]^2.
    Otherwise the minimum lies on b = c.  Take an admissible b < c; then
    b < b0 or c > c0, as b >= b0 > c0 >= c contradicts b < c.  If b < b0, u
    does not increase from b to b + 1 <= min(b0, c); if c > c0, v does not
    increase from c to c - 1 >= max(c0, b).  Each move keeps the tuple
    admissible, never increases f and shortens c - b by one, so a point on
    b = c is no worse.  There f(x, x) is convex with second difference 48.

    All a = 1..l go through as one int64 array; ``checked`` adds w(w+1)/2
    per a, w = l - a + 1.  Only an a whose minimum is negative is walked
    row by row, b = a..l, testing every c in [b, l] directly, so every
    counterexample is listed and memory stays O(l).
    """
    if not _separable_in_b_and_c():
        raise RuntimeError("the seven-term sum is not u(b) + v(c) of second difference 2; the sweep needs it")
    checked = 0
    counterexamples = []
    for l in l_values:
        rhs12 = 5 * l * l + 2 * l - 7
        a = np.arange(1, l + 1, dtype=np.int64)
        f_aa = 12 * _seven_terms(a, a, a, l)
        d_b = 12 * _seven_terms(a, a + 1, a, l) - f_aa
        d_c = 12 * _seven_terms(a, a, a + 1, l) - f_aa
        b0 = _first_minimizer(a, d_b, 24, l)
        c0 = _first_minimizer(a, d_c, 24, l)
        x0 = _first_minimizer(a, d_b + d_c, 48, l)
        split = b0 <= c0
        low = 12 * _seven_terms(a, np.where(split, b0, x0), np.where(split, c0, x0), l)
        w = l - a + 1
        checked += int(np.sum(w * (w + 1) // 2))
        for a_row in (np.flatnonzero(low < rhs12) + 1).tolist():
            for b in range(a_row, l + 1):
                c = np.arange(b, l + 1, dtype=np.int64)
                bad = c[12 * _seven_terms(a_row, b, c, l) < rhs12]
                counterexamples.extend((a_row, b, ci, l) for ci in bad.tolist())
    return ExhaustiveResult(checked, counterexamples)


def lemma512_exhaustive(l_max: int, workers: int = 1) -> ExhaustiveResult:
    """Check every integer tuple 1 <= a <= b <= c <= L <= l_max exactly.

    The comparison is 12*LHS < 5L^2 + 2L - 7 in int64, so no division
    occurs; 12*LHS <= 12L(L-1), far inside int64.  For fixed (a, L), 12*LHS
    splits into a convex part in b plus one in c, so each (a, L) is decided
    at one tuple and the sweep takes O(l_max^2) time (about 5 s on one core
    at ``LEMMA512_MAX_L``) and O(l_max) memory, while still counting every
    tuple and listing every counterexample.  The sweep runs in the calling
    process; ``workers`` must be 1.
    """
    # workers is kept only because bench/replay.py calls fn(l_max, workers=workers)
    if workers != 1:
        raise ValueError(f"workers must be 1: the sweep runs in one process, got {workers!r}")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if l_max > LEMMA512_MAX_L:
        raise ValueError(
            f"l_max must be <= {LEMMA512_MAX_L}: sweep time grows as l_max^2, "
            f"about 5 s on one core at l_max = {LEMMA512_MAX_L}"
        )
    result = _scan_l_values(range(1, l_max + 1))
    return ExhaustiveResult(result.checked, sorted(result.counterexamples))


def bias_check(g: GapSequence) -> BoundCheck:
    """Check the small-window bias bound on one block with total gap <= 1/2.

    lhs counts every window (all lengths m >= 1) with sum <= 1/4, plus every
    window with sum <= 1/8; rhs is (5/6) L(L+1)/2 - (5/6) L.  The thresholds
    are exact dyadics, so the comparisons are exact.

    The bound always holds: it is Lemma 5.12 in bin coordinates.  The L+1
    prefix values lie in [0, 1/2]; let x1..x4 count them in [0, 1/8],
    (1/8, 1/4], (1/4, 3/8] and (3/8, 1/2], so sum(x) = L+1.  Two values in
    one bin differ by at most 1/8 and two in adjacent bins by at most 1/4,
    also as canonical binary64 differences (the prefix is non-decreasing,
    rounding is monotone, and 1/8 and 1/4 are representable), so
    lhs >= B(x) = sum xi(xi - 1) + sum xi x(i+1).  With
    (a, b, c, l) = (x1 + 1, x1 + x2 + 1, x1 + x2 + x3 + 1, L + 2),
    B(x) = LHS(a, b, c, l) - 2(L+1), and :func:`lemma512_certificate` gives
    12 B >= 5L^2 - 2L - 7 = 12 rhs + 3L - 7.  For L <= 2, B is an integer, so
    B >= ceil((5L^2 - 2L - 7)/12) >= rhs (L = 1: 0 >= 0; L = 2: 1 >= 5/6).
    """
    total = float(g.prefix[-1])
    if total > 0.5:
        raise ValueError(f"total gap sum {total} exceeds 1/2")
    length = g.length
    whole = IndexInterval(1, length)
    lhs = sum(_pairs_within(g.prefix, whole, whole, t, True) for t in (0.125, 0.25))
    rhs = (5.0 / 6.0) * (length * (length + 1) / 2.0) - (5.0 / 6.0) * length
    return BoundCheck(lhs, rhs, lhs >= rhs)


def final_inequality(epsilon: float) -> float:
    """(10*sqrt(2)/3) eps^(1/4) + (5/3) sqrt(eps) - 1/24.

    Negative values mean the closing inequality fails at this epsilon, i.e.
    the contradiction argument goes through; the sign flips between 1e-9 and
    1e-8.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return (10.0 * math.sqrt(2.0) / 3.0) * epsilon**0.25 + (5.0 / 3.0) * math.sqrt(epsilon) - 1.0 / 24.0


def _final_inequality_negative(epsilon: float) -> bool:
    """Whether :func:`final_inequality` is negative at ``epsilon``, decided exactly.

    With v = sqrt(eps), f < 0 iff (5/3)v - 1/24 < -(10 sqrt(2)/3) eps^(1/4) < 0.
    So eps < 1/1600, and squaring twice (both sides negative, then positive)
    gives ((25/9)eps + 1/576)^2 > (805/36)^2 eps, in rationals on the
    binary64's exact value.  The float can read >= 0 just below the sign
    change at eps* = 6.028047299031073...e-9; this cannot.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if math.isinf(epsilon):
        return False  # f grows without bound
    e = Fraction(epsilon)
    return e < Fraction(1, 1600) and (Fraction(25, 9) * e + Fraction(1, 576)) ** 2 > Fraction(805, 36) ** 2 * e


# The audit's block threshold and per-part budget.  Its theoretical sides
# are derived at 1/2: partition_mass_rhs is 1/2 - 4 sqrt(2) eps^(1/4), and
# the bias rhs rests on bias_check's per-part bound, which needs part sums
# <= 1/2 so that the windows at 1/8 and 1/4 cut the parts into four bins.
AUDIT_BUDGET = 0.5


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for :func:`audit`: epsilon in (0, 1) and the gap-count prefix n >= 2."""

    epsilon: float
    n: int

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.n < 2:
            raise ValueError("n must be >= 2")


class AuditStep(NamedTuple):
    name: str
    lhs: float
    rhs: float
    direction: str  # "<=" or ">=": the asymptotic statement's direction
    holds: bool


@dataclass(frozen=True)
class AuditReport:
    """Every quantitative step of the gap-bound argument, evaluated at finite N.

    Nothing here is asserted: the underlying statements are asymptotic, so a
    finite sequence may violate any of them.  Each step records its measured
    side, its theoretical side, the direction the asymptotic claim points,
    and whether it holds at this N.
    """

    epsilon: float
    budget: float
    n_used: int
    max_gap: float
    max_gap_ok: bool
    density_lhs: float
    density_rhs: float
    multigap_lhs: float
    multigap_rhs: float
    partition_mass: float
    partition_mass_rhs: float
    bias_lhs: float
    bias_rhs: float
    final_ineq_value: float
    block_count: int
    part_count: int
    total_block_length: int
    steps: tuple[AuditStep, ...]

    @property
    def flags(self) -> dict[str, bool]:
        return {step.name: step.holds for step in self.steps}

    def to_dict(self) -> dict:
        """Every field in declaration order, with the steps as dicts."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["steps"] = [step._asdict() for step in self.steps]
        return doc


def _at_most_two_root_eps(count: int, n: int, epsilon: float) -> bool:
    """count/n <= 2 sqrt(eps), decided exactly: both sides are >= 0, so count^2 <= 4 eps n^2."""
    return count * count <= 4 * Fraction(epsilon) * n * n


def _partition_mass_holds(binom: int, n: int, epsilon: float) -> bool:
    """binom/n >= 1/2 - 4 sqrt(2) eps^(1/4) exactly: r = 1/2 - binom/n <= 0 or r^4 <= 1024 eps."""
    r = Fraction(1, 2) - Fraction(binom, n)
    return r <= 0 or r**4 <= 1024 * Fraction(epsilon)


def _bias_holds(windows: int, binom: int, parts_len: int) -> bool:
    """windows/n >= (5/6) binom/n - (5/3) parts_len/n, times 6n: all integers."""
    return 6 * windows >= 5 * binom - 10 * parts_len


def audit(seq: RealSequence | GapSequence, cfg: AuditConfig) -> AuditReport:
    """Evaluate the whole proof chain on the first ``cfg.n`` gaps of ``seq``.

    ``seq`` is a sequence or its :func:`gaps_of`; both give the same report
    and the same errors: ``cfg.n`` above the points first, then those of
    :func:`gaps_of`.  The counts are made in one pass by :class:`_AuditPass`,
    a prefix stream of ``_STREAM_STEP`` gaps a step (made from as many
    values), so no temporary of the input's length is made.

    Measured quantities (per N): the density of block gaps (canonical sum
    <= 1/2), of multi-gap windows landing in (1/2, 3/2 + eps), the partition
    mass sum of C(|J|+1, 2) over greedy parts (budget 1/2) of all maximal
    blocks, and the near-zero window counts against their lower bound.
    The report also evaluates the closing epsilon inequality.  Each step's
    lhs and rhs are floats, but its ``holds`` is decided exactly from the
    integer counts and the rational value of eps.  Deterministic: equal
    inputs give bit-identical reports.
    """
    points = seq.n if isinstance(seq, RealSequence) else seq.length + 1
    if cfg.n > points:
        raise ValueError(f"cfg.n={cfg.n} exceeds sequence length {points}")
    if isinstance(seq, RealSequence):
        return _audit_values([seq.values], cfg)
    counts = _AuditPass(cfg)
    counts.gaps(seq.gaps)
    return counts.report()


def _audit_values(chunks, cfg: AuditConfig) -> AuditReport:
    """:func:`audit` of the sequence whose values ``chunks`` yields, in order, as float64 arrays.

    Every value is read, and only then is anything raised: the errors of
    :func:`gaps_of` first (they depend only on the first and last value and
    the count), then ``cfg.n`` above the points.  CLI ``audit`` passes the
    chunks of ``sequences._stream``, so a bad line anywhere in the file is
    reported before any of these.
    """
    counts = _AuditPass(cfg)
    for values in chunks:
        counts.values(values)
        del values  # before the next chunk is made
    _check_gaps(np.array([counts.first, counts.last][: counts.points]))
    if cfg.n > counts.points:
        raise ValueError(f"cfg.n={cfg.n} exceeds sequence length {counts.points}")
    return counts.report()


class _AuditPass(_PrefixStream):
    """The counts of :func:`audit` on the first ``cfg.n`` gaps: a prefix stream at threshold 1/2.

    *Blocks.*  The blocks that close in a step go to ``_greedy_lengths`` on
    the held prefix sums.  The greedy compares a start's reach only with
    ends inside its block, so the parts are those of the whole array.
    *Windows.*  The start s - 1 of the windows s..e is decided once the sum
    from it to the last prefix sum held reaches 3/2 + eps (the decided
    starts come first, as the sums fall with s).  Its two bias ends (sums
    >= 1/8, >= 1/4) and its two multigap ends (> 1/2, >= 3/2 + eps) then
    lie among the held prefix sums, so ``_forward_pairs`` on them counts
    what ``multi_gap_count`` counts on ``prefix[:n + 1]``.  The stream keeps
    the prefix sums from the first start not yet counted.
    """

    def __init__(self, cfg: AuditConfig):
        super().__init__(AUDIT_BUDGET, cfg.n, self._take)
        self.cfg = cfg
        self.gap_bound = 1.5 + cfg.epsilon
        self.max_gap = -math.inf
        self.start = 0  # the first window start (a prefix index) not yet counted
        self.block_count = self.part_count = self.parts_len = self.parts_binom = 0
        self.multigap_count = self.windows = 0

    def _step(self, g: np.ndarray) -> None:
        self.max_gap = max(self.max_gap, float(g.max()))
        super()._step(g)

    def _take(self, left: np.ndarray, right: np.ndarray, end: bool) -> int:
        """Count the blocks that closed and the starts decided; the first prefix index still needed."""
        self._count_parts(left, right)
        p = self.held
        decided = np.count_nonzero(p[-1] - p[self.start - self.base : -1] >= self.gap_bound)
        self._count_windows(self.n if end else self.start + int(decided))
        return self.start

    def _count_parts(self, left: np.ndarray, right: np.ndarray) -> None:
        """Add the blocks ``left[k]..right[k]``, all held, to the block and part counts."""
        count, total, binom = _greedy_lengths(self.held, left - self.base, right - self.base, AUDIT_BUDGET)
        self.block_count += left.size
        self.part_count += count
        self.parts_len += total  # it counts every block gap once: the density count
        self.parts_binom += binom

    def _count_windows(self, stop: int) -> None:
        """Count the bias and multigap windows of the starts from ``self.start`` to ``stop``, exclusive."""
        p, starts = self.held[self.start - self.base :], stop - self.start
        for t in (0.125, 0.25):  # windows of one gap or more summing to [0, t)
            self.windows += _forward_pairs(p, starts, 1, Interval.half_open(0.0, t))
        # windows of two gaps or more summing to (1/2, 3/2 + eps)
        self.multigap_count += _forward_pairs(p, starts, 2, Interval.open(AUDIT_BUDGET, self.gap_bound))
        self.start = stop

    def report(self) -> AuditReport:
        """The report on the gaps taken; the pass ends here."""
        n = self.n  # N indexes gaps; a prefix of N points carries N-1 of them
        self.end()  # the block still open ends at gap n, and every start left is counted
        eps = self.cfg.epsilon
        max_gap, max_gap_ok = self.max_gap, self.max_gap <= self.gap_bound
        part_count, parts_len, parts_binom = self.part_count, self.parts_len, self.parts_binom
        multigap_count, windows = self.multigap_count, self.windows

        partition_mass = parts_binom / n
        partition_mass_rhs = 0.5 - 4.0 * math.sqrt(2.0) * eps**0.25

        density_lhs = parts_len / n
        density_rhs = multigap_rhs = 2.0 * math.sqrt(eps)
        multigap_lhs = multigap_count / n

        bias_lhs = windows / n
        bias_rhs = (5.0 / 6.0) * partition_mass - (5.0 / 3.0) * (parts_len / n)

        final_value = final_inequality(eps)

        steps = (
            AuditStep("density", density_lhs, density_rhs, "<=", _at_most_two_root_eps(parts_len, n, eps)),
            AuditStep("multigap", multigap_lhs, multigap_rhs, "<=", _at_most_two_root_eps(multigap_count, n, eps)),
            AuditStep("partition_mass", partition_mass, partition_mass_rhs, ">=",
                      _partition_mass_holds(parts_binom, n, eps)),
            AuditStep("bias", bias_lhs, bias_rhs, ">=", _bias_holds(windows, parts_binom, parts_len)),
            AuditStep("final_inequality", final_value, 0.0, ">=", not _final_inequality_negative(eps)),
        )
        return AuditReport(
            epsilon=eps,
            budget=AUDIT_BUDGET,
            n_used=n,
            max_gap=max_gap,
            max_gap_ok=max_gap_ok,
            density_lhs=density_lhs,
            density_rhs=density_rhs,
            multigap_lhs=multigap_lhs,
            multigap_rhs=multigap_rhs,
            partition_mass=partition_mass,
            partition_mass_rhs=partition_mass_rhs,
            bias_lhs=bias_lhs,
            bias_rhs=bias_rhs,
            final_ineq_value=final_value,
            block_count=self.block_count,
            part_count=part_count,
            total_block_length=parts_len,
            steps=steps,
        )
