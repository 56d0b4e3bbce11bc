"""Executable inequality checks: the seven-term quadratic lower bound, the
small-window bias bound, the closing epsilon inequality, and the end-to-end
finite-N audit of the whole chain.

The quadratic bound is proved for all reals by :func:`lemma512_certificate`,
and the bias bound follows from it (see :func:`bias_check`).
The integer sweep is exact too: integer tuples are compared via
12*LHS >= 5L^2 + 2L - 7 in int64, with no floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .correlation import IndexInterval, Interval, _pairs_within, gap_cdf, multi_gap_count
from .partition import maximal_blocks, partition_lengths
from .sequences import GapSequence, RealSequence, gaps_of


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


LEMMA512_MAX_L = 2000  # the serial sweep to here takes about 90 s on one core of a 2-core x86 VM
_PAIR_CHUNK = 1 << 16  # (a, b) pairs per sweep pass: bounded temporaries at every l


def _convex_in_c() -> bool:
    """True when 12*LHS has second difference exactly 24 in c, for every tuple.

    Checks 12*(LHS(c+2) - 2*LHS(c+1) + LHS(c)) == 24 in exact integer
    arithmetic at the 81 points of {0, 1, 2}^4.  Each of the seven terms is
    a product of two affine forms, so LHS, and with it this second
    difference minus 24, has degree <= 2 in each variable; such a
    polynomial that vanishes on {0, 1, 2}^4 is zero, as in
    :func:`lemma512_certificate`.  So True proves the premise the sweep
    rests on: in c the c^2 coefficient is 1 + 1 - 1 = 1.
    """
    return all(
        12 * (_seven_terms(a, b, c + 2, l) - 2 * _seven_terms(a, b, c + 1, l) + _seven_terms(a, b, c, l))
        == 24
        for a, b, c, l in itertools.product(range(3), repeat=4)
    )


def _violator_runs(a, b, c, l, rhs12):
    """Every (a, b, c', l) with 12*LHS < rhs12, given violating minima c per (a, b).

    By convexity in c the violators of each (a, b) form one run of
    consecutive c' in [b, l] around its minimum, so each run is walked
    outward until 12*LHS >= rhs12 or the end of [b, l].
    """
    lo, hi = c.copy(), c.copy()
    live = np.arange(a.size)
    while live.size:
        live = live[lo[live] > b[live]]
        live = live[12 * _seven_terms(a[live], b[live], lo[live] - 1, l) < rhs12]
        lo[live] -= 1
    live = np.arange(a.size)
    while live.size:
        live = live[hi[live] < l]
        live = live[12 * _seven_terms(a[live], b[live], hi[live] + 1, l) < rhs12]
        hi[live] += 1
    runs = hi - lo + 1
    cs = np.arange(int(runs.sum())) + np.repeat(lo - (np.cumsum(runs) - runs), runs)
    return zip(np.repeat(a, runs).tolist(), np.repeat(b, runs).tolist(), cs.tolist(), itertools.repeat(l))


def _scan_l_values(l_values) -> ExhaustiveResult:
    """Check every tuple 1 <= a <= b <= c <= l for each l, in O(l^3) time per l.

    For fixed (a, b, l), f(c) = 12*LHS - (5l^2 + 2l - 7) has forward
    differences d0 + 24k with d0 = f(b+1) - f(b) (:func:`_convex_in_c`), so
    its minimum on the integers of [b, l] is at
    c = b + clip((23 - d0) // 24, 0, l - b).  If f >= 0 there, all l - b + 1
    values of c pass; otherwise :func:`_violator_runs` lists the failing c.
    The (a, b) pairs go through in int64 chunks of whole rows of a, at most
    max(_PAIR_CHUNK, l) pairs each.
    """
    if not _convex_in_c():
        raise RuntimeError("the seven-term sum does not have second difference 2 in c; the sweep needs it")
    checked = 0
    counterexamples = []
    for l in l_values:
        rhs12 = 5 * l * l + 2 * l - 7
        rows = max(1, _PAIR_CHUNK // l)
        for a0 in range(1, l + 1, rows):
            first_a = np.arange(a0, min(a0 + rows, l + 1), dtype=np.int64)
            width = l - first_a + 1  # b runs over [a, l]
            a = np.repeat(first_a, width)
            b = a + np.arange(a.size) - np.repeat(np.cumsum(width) - width, width)
            f_b = 12 * _seven_terms(a, b, b, l) - rhs12
            d0 = 12 * _seven_terms(a, b, b + 1, l) - rhs12 - f_b
            k = np.clip((23 - d0) // 24, 0, l - b)
            c = b + k
            bad = np.flatnonzero(f_b + k * d0 + 12 * k * (k - 1) < 0)  # f(c), exactly
            checked += int(np.sum(l - b + 1))
            if bad.size:
                counterexamples.extend(_violator_runs(a[bad], b[bad], c[bad], l, rhs12))
    return ExhaustiveResult(checked, counterexamples)


def lemma512_exhaustive(l_max: int, workers: int = 1) -> ExhaustiveResult:
    """Check every integer tuple 1 <= a <= b <= c <= L <= l_max exactly.

    The comparison is 12*LHS < 5L^2 + 2L - 7 in int64, so no division
    occurs; 12*LHS <= 12L(L-1), far inside int64.  Convexity in c lets
    each (a, b, L) be decided at one c, so the sweep takes O(l_max^3) time
    (about 90 s on one core at ``LEMMA512_MAX_L``) while still
    counting every tuple and listing every counterexample; memory is
    bounded by the chunk, not by l_max.  The L-range is striped across
    workers and results merged; the outcome is independent of the worker
    count.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if l_max > LEMMA512_MAX_L:
        raise ValueError(
            f"l_max must be <= {LEMMA512_MAX_L}: sweep time grows as l_max^3, "
            f"about 90 s on one core at l_max = {LEMMA512_MAX_L}"
        )
    stripes = [list(range(1 + r, l_max + 1, workers)) for r in range(workers)]
    stripes = [s for s in stripes if s]
    if len(stripes) == 1:
        result = _scan_l_values(stripes[0])
        return ExhaustiveResult(result.checked, sorted(result.counterexamples))
    with ProcessPoolExecutor(max_workers=len(stripes)) as pool:
        results = list(pool.map(_scan_l_values, stripes))
    checked = sum(r.checked for r in results)
    counterexamples = sorted(x for r in results for x in r.counterexamples)
    return ExhaustiveResult(checked, counterexamples)


class BiasCheck(NamedTuple):
    lhs: int
    rhs: float
    ok: bool


def bias_check(g: GapSequence) -> BiasCheck:
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
    return BiasCheck(lhs, rhs, lhs >= rhs)


def final_inequality(epsilon: float) -> float:
    """(10*sqrt(2)/3) eps^(1/4) + (5/3) sqrt(eps) - 1/24.

    Negative values mean the closing inequality fails at this epsilon, i.e.
    the contradiction argument goes through; the sign flips between 1e-9 and
    1e-8.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return (10.0 * math.sqrt(2.0) / 3.0) * epsilon**0.25 + (5.0 / 3.0) * math.sqrt(epsilon) - 1.0 / 24.0


@dataclass(frozen=True)
class AuditConfig:
    """Knobs for :func:`audit`: epsilon, the gap-count prefix, and the block budget."""

    epsilon: float
    n: int
    budget: float = 0.5

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.budget > 0:
            raise ValueError("budget must be positive")
        if self.budget > 1.5 + self.epsilon:
            raise ValueError(f"budget {self.budget} exceeds 3/2 + epsilon = {1.5 + self.epsilon}")


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


def audit(seq: RealSequence, cfg: AuditConfig) -> AuditReport:
    """Evaluate the whole proof chain on the first ``cfg.n`` gaps of ``seq``.

    Measured quantities (per N): the density of gaps <= budget, the density
    of multi-gap windows landing in (budget, 3/2 + eps), the partition mass
    sum of C(|J|+1, 2) over greedy parts of all maximal blocks, and the
    near-zero window counts against their partition-derived lower bound.
    The report also evaluates the closing epsilon inequality.  Deterministic:
    equal inputs give bit-identical reports.
    """
    if cfg.n > seq.n:
        raise ValueError(f"cfg.n={cfg.n} exceeds sequence length {seq.n}")
    g = gaps_of(seq)
    n = min(cfg.n, g.length)  # N indexes gaps; a prefix of N points carries N-1 of them
    eps = cfg.epsilon
    budget = cfg.budget
    gap_bound = 1.5 + eps

    max_gap = float(np.max(g.gaps[:n]))
    max_gap_ok = max_gap <= gap_bound

    density_lhs = gap_cdf(g, budget, n)
    density_rhs = 2.0 * math.sqrt(eps)

    multigap_lhs = multi_gap_count(g, Interval.open(budget, gap_bound), n, 2) / n
    multigap_rhs = 2.0 * math.sqrt(eps)

    blocks = maximal_blocks(g, n, budget)
    lengths = partition_lengths(g, blocks.left, blocks.right, budget)
    parts_binom = int(np.sum(lengths * (lengths + 1) // 2))
    parts_len = int(np.sum(lengths))
    partition_mass = parts_binom / n
    partition_mass_rhs = 0.5 - 4.0 * math.sqrt(2.0) * eps**0.25

    ppc_eighth = multi_gap_count(g, Interval.half_open(0.0, 0.125), n, 1)
    ppc_quarter = multi_gap_count(g, Interval.half_open(0.0, 0.25), n, 1)
    bias_lhs = (ppc_eighth + ppc_quarter) / n
    bias_rhs = (5.0 / 6.0) * partition_mass - (5.0 / 3.0) * (parts_len / n)

    final_value = final_inequality(eps)

    steps = (
        AuditStep("density", density_lhs, density_rhs, "<=", density_lhs <= density_rhs),
        AuditStep("multigap", multigap_lhs, multigap_rhs, "<=", multigap_lhs <= multigap_rhs),
        AuditStep(
            "partition_mass",
            partition_mass,
            partition_mass_rhs,
            ">=",
            partition_mass >= partition_mass_rhs,
        ),
        AuditStep("bias", bias_lhs, bias_rhs, ">=", bias_lhs >= bias_rhs),
        AuditStep("final_inequality", final_value, 0.0, ">=", final_value >= 0.0),
    )
    return AuditReport(
        epsilon=eps,
        budget=budget,
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
        block_count=int(blocks.left.size),
        part_count=int(lengths.size),
        total_block_length=parts_len,
        steps=steps,
    )
