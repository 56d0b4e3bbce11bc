"""The quadratic lower bound, the bias bound, the closing inequality, and the audit."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import ppclab as pl
from oracles import bias_bins, bin_form, lemma512_brute
from ppclab import verifier


def lhs_direct(a, b, c, l):
    """Direct term-by-term evaluation, kept separate from the library path."""
    return (
        (a - 1) * a
        + (b - a) * (b - a + 1)
        + (c - b) * (c - b + 1)
        + (l - c) * (l - c + 1)
        + (a - 1) * (b - a)
        + (b - a) * (c - b)
        + (c - b) * (l - c)
    )


def test_lemma_point_validation():
    pl.LemmaPoint(1, 1, 1, 1)
    pl.LemmaPoint(1.5, 2.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        pl.LemmaPoint(0.5, 1, 1, 1)
    with pytest.raises(ValueError):
        pl.LemmaPoint(2, 1, 3, 4)


def test_lhs_examples_exact():
    assert pl.lemma512_lhs(pl.LemmaPoint(1, 1, 1, 1)) == 0
    assert pl.lemma512_lhs(pl.LemmaPoint(1, 1, 1, 2)) == 2
    assert pl.lemma512_lhs(pl.LemmaPoint(2, 3, 5, 8)) == 31


def test_rhs_exact_rationals():
    assert pl.lemma512_rhs(1) == 0
    assert pl.lemma512_rhs(2) == Fraction(17, 12)
    assert pl.lemma512_rhs(8) == Fraction(329, 12)
    assert pl.lemma512_rhs(2.0) == pytest.approx(17 / 12)


def test_rhs_rejects_l_below_one_for_ints_and_floats():
    for l_val in (0, -3, 0.0, -3.0, 0.5):
        with pytest.raises(ValueError, match="l must be >= 1"):
            pl.lemma512_rhs(l_val)


def test_equality_witness_at_origin_corner():
    assert pl.lemma512_lhs(pl.LemmaPoint(1, 1, 1, 1)) - pl.lemma512_rhs(1) == 0


def test_degenerate_diagonal_gap_value():
    # at a = b = c = L the seven-term sum collapses to L(L-1) and the gap
    # factors as (7/12)(L-1)^2; direct evaluation confirms it
    for l_val in (1, 2, 5, 9, 30):
        gap = pl.lemma512_lhs(pl.LemmaPoint(l_val, l_val, l_val, l_val)) - pl.lemma512_rhs(l_val)
        assert gap == Fraction(7, 12) * (l_val - 1) ** 2
        assert lhs_direct(l_val, l_val, l_val, l_val) == l_val * (l_val - 1)


def test_interior_critical_point_is_tight():
    # with a=(L+2)/3 and c=(2L+1)/3 the gap is the perfect square
    # (b-(L+1)/2)^2, so the bound is achieved exactly at b=(L+1)/2
    for l_val in (4, 7, 10, 100):
        a, b, c = (l_val + 2) / 3, (l_val + 1) / 2, (2 * l_val + 1) / 3
        gap = pl.lemma512_lhs(pl.LemmaPoint(a, b, c, l_val)) - pl.lemma512_rhs(float(l_val))
        assert abs(gap) <= 1e-9
        for offset in (0.25, 1.0, 2.0):
            if b + offset <= c:
                shifted = pl.lemma512_lhs(pl.LemmaPoint(a, b + offset, c, l_val)) - pl.lemma512_rhs(
                    float(l_val)
                )
                assert shifted == pytest.approx(offset**2, rel=1e-9, abs=1e-9)


def test_exhaustive_matches_fraction_oracle():
    l_max = 20
    checked = 0
    worst = None
    for l_val in range(1, l_max + 1):
        rhs = pl.lemma512_rhs(l_val)
        for a, b, c in itertools.combinations_with_replacement(range(1, l_val + 1), 3):
            gap = Fraction(lhs_direct(a, b, c, l_val)) - rhs
            assert gap >= 0, (a, b, c, l_val)
            checked += 1
            if worst is None or gap < worst:
                worst = gap
    result = pl.lemma512_exhaustive(l_max)
    assert result.checked == checked == math.comb(l_max + 3, 4)
    assert result.counterexamples == []
    assert worst == 0  # the bound is tight


def test_exhaustive_counts_small_cases():
    assert pl.lemma512_exhaustive(1) == (1, [])
    assert pl.lemma512_exhaustive(4).checked == 1 + 4 + 10 + 20


def test_exhaustive_validation(monkeypatch):
    def no_sweep(l_values):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(verifier, "_scan_l_values", no_sweep)
    with pytest.raises(ValueError):
        pl.lemma512_exhaustive(0)
    for workers in (0, 2):
        with pytest.raises(ValueError, match=f"^workers must be 1: the sweep runs in one process, got {workers}$"):
            pl.lemma512_exhaustive(10, workers=workers)


def test_bias_check_trivial_length_one():
    check = pl.bias_check(pl.GapSequence([0.4]))
    assert check.rhs == 0.0 and check.ok


def test_bias_check_small_example():
    check = pl.bias_check(pl.GapSequence([0.1, 0.1]))
    assert type(check) is pl.BoundCheck
    assert check.lhs == 5  # windows .1, .1, .2: three <= 1/4 plus two <= 1/8
    assert check.rhs == pytest.approx(5 / 6)
    assert check.ok


def test_bias_check_strict_scale():
    check = pl.bias_check(pl.GapSequence([0.25, 0.25]))
    # windows .25, .25, .5 -> two <= 1/4, none <= 1/8
    assert check.lhs == 2
    assert check.ok


def test_bias_check_equal_gaps_closed_form():
    length = 64
    check = pl.bias_check(pl.GapSequence(np.full(length, 1 / 128)))
    # window of m gaps sums to m/128 exactly; m <= 32 fits 1/4, m <= 16 fits 1/8
    expected = sum(length - m + 1 for m in range(1, 33)) + sum(
        length - m + 1 for m in range(1, 17)
    )
    assert check.lhs == expected == 2456
    assert check.rhs == pytest.approx((5 / 6) * (length * (length + 1) / 2 - length))
    assert check.ok


def test_bias_check_rejects_heavy_blocks():
    with pytest.raises(ValueError, match="exceeds 1/2"):
        pl.bias_check(pl.GapSequence([0.3, 0.3]))


def test_bias_check_zero_total_is_fine():
    check = pl.bias_check(pl.GapSequence([0.0, 0.0, 0.0]))
    assert check.lhs == 12  # every window counted under both thresholds
    assert check.ok


def test_bias_check_random_property():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        length = int(rng.integers(1, 65))
        raw = rng.uniform(0.0, 1.0, length)
        target = 0.5 * (1.0 - rng.random())
        gaps = raw * (target / raw.sum())
        assert pl.bias_check(pl.GapSequence(gaps)).ok


def bin_form_is_the_seven_term_sum():
    """B(x) + 2 sum(x) == LHS(x1+1, x1+x2+1, x1+x2+x3+1, sum(x)+1) at the 81 points of {0, 1, 2}^4.

    Both sides have degree <= 2 in each x_i, so agreement there proves the
    identity for all reals, as in lemma512_certificate.
    """
    return all(
        bin_form(x) + 2 * sum(x)
        == verifier._seven_terms(x[0] + 1, x[0] + x[1] + 1, x[0] + x[1] + x[2] + 1, sum(x) + 1)
        for x in itertools.product(range(3), repeat=4)
    )


def test_bin_form_is_the_seven_term_sum_in_bin_coordinates():
    assert bin_form_is_the_seven_term_sum()


def test_bin_form_identity_fails_when_the_polynomial_is_perturbed(monkeypatch):
    seven_terms = verifier._seven_terms
    monkeypatch.setattr(verifier, "_seven_terms", lambda a, b, c, l: seven_terms(a, b, c, l) + 1)
    assert not bin_form_is_the_seven_term_sum()


def cluster_block(shares):
    """Prefix values in four clusters at 0, 1/6, 1/3 and 1/2, with the given sizes."""
    gaps = []
    for k, size in enumerate(shares):
        if k:
            gaps.append(1 / 6)
        gaps += [0.0] * (size - 1)
    return pl.GapSequence(gaps)


@pytest.mark.parametrize(
    "shares, lhs, margin",
    [
        ((17, 8, 8, 18), 1034, 13.17),
        ((133, 66, 66, 136), 66606, 106.0),
        ((667, 333, 333, 668), 1666334, 500.67),
    ],
)
def test_bias_check_on_near_tight_cluster_blocks(shares, lhs, margin):
    # the cluster shares 1/3, 1/6, 1/6, 1/3 sit near B's minimum on sum(x) = L + 1,
    # and no pair outside one bin or two adjacent bins falls within 1/4
    g = cluster_block(shares)
    length = g.length
    assert length == sum(shares) - 1 and g.prefix[-1] <= 0.5
    assert bias_bins(g.prefix) == shares
    check = pl.bias_check(g)
    assert check.lhs == bin_form(shares) == lhs
    assert 12 * bin_form(shares) >= 5 * length**2 - 2 * length - 7 > 5 * length * (length - 1)
    assert check.lhs - check.rhs == pytest.approx(margin, abs=0.01)
    assert check.ok


def test_final_inequality_signs_and_values():
    f9 = pl.final_inequality(1e-9)
    f8 = pl.final_inequality(1e-8)
    assert f9 < 0 < f8
    # frozen from direct evaluation of the closed form
    assert f9 == pytest.approx(-0.015104937746762168, abs=1e-12)
    assert f8 == pytest.approx(0.005640452079103173, abs=1e-12)
    assert f8 == pytest.approx(0.005640, abs=1e-5)


def test_final_inequality_monotone_and_limit():
    eps_grid = np.logspace(-12, -0.1, 200)
    values = [pl.final_inequality(float(e)) for e in eps_grid]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert pl.final_inequality(1e-12) < 0
    assert pl.final_inequality(1e-30) == pytest.approx(-1 / 24, abs=1e-6)
    with pytest.raises(ValueError):
        pl.final_inequality(0.0)


EPS_STAR_BELOW = 6.028047299031073e-09  # the largest binary64 epsilon at which the closing inequality fails


def test_final_inequality_sign_is_exact_at_the_sign_change():
    below = math.nextafter(EPS_STAR_BELOW, 0.0)
    above = math.nextafter(EPS_STAR_BELOW, 1.0)
    assert above == 6.028047299031074e-09
    assert verifier._final_inequality_negative(below)
    assert pl.final_inequality(below) > 0  # rounding: the float value misreads the sign here
    assert verifier._final_inequality_negative(EPS_STAR_BELOW)
    assert not verifier._final_inequality_negative(above)
    assert not verifier._final_inequality_negative(math.inf)
    with pytest.raises(ValueError):
        verifier._final_inequality_negative(0.0)


def isqrt_sign(eps):
    """The sign of the closing inequality from integer roots at scale S = 2^200, or None if too close.

    72 S f = 240 (4 eps)^(1/4) S + 120 sqrt(eps) S - 3 S, and floor roots
    bound each root term within 1, so 72 S f lies in [low, low + 360).
    """
    e = Fraction(eps)
    p, q, scale = e.numerator, e.denominator, 1 << 200
    fourth = math.isqrt(math.isqrt(4 * p * scale**4 // q))  # floor((4 eps)^(1/4) S)
    root = math.isqrt(p * scale**2 // q)  # floor(sqrt(eps) S)
    low = 240 * fourth + 120 * root - 3 * scale
    if low + 360 <= 0:
        return -1
    return 1 if low >= 0 else None


def test_final_inequality_sign_matches_an_integer_root_evaluation():
    near = [EPS_STAR_BELOW]
    for _ in range(60):
        near = [math.nextafter(near[0], 0.0), *near, math.nextafter(near[-1], 1.0)]
    rng = np.random.default_rng(11)
    drawn = (10.0 ** rng.uniform(-20, 0, 3000)).tolist()
    for eps in near + drawn:
        sign = isqrt_sign(eps)
        assert sign is not None, eps
        assert verifier._final_inequality_negative(eps) == (sign < 0), eps
    assert sum(verifier._final_inequality_negative(eps) for eps in near) == 61


def test_audit_final_step_reads_the_exact_sign():
    seq = pl.RealSequence(np.arange(100, dtype=float))
    below = math.nextafter(EPS_STAR_BELOW, 0.0)
    report = pl.audit(seq, pl.AuditConfig(epsilon=below, n=99))
    assert report.final_ineq_value > 0
    assert not report.flags["final_inequality"]
    report = pl.audit(seq, pl.AuditConfig(epsilon=math.nextafter(EPS_STAR_BELOW, 1.0), n=99))
    assert report.flags["final_inequality"]


def test_audit_config_validation():
    with pytest.raises(ValueError):
        pl.AuditConfig(epsilon=0.0, n=10)
    with pytest.raises(ValueError):
        pl.AuditConfig(epsilon=1e-9, n=1)


def test_density_verdict_is_exact_at_its_boundary():
    # count/n = 2 sqrt(eps) exactly at count 1, n 4, eps 1/64
    assert verifier._at_most_two_root_eps(1, 4, 1 / 64)
    assert not verifier._at_most_two_root_eps(2, 4, 1 / 64)
    assert not verifier._at_most_two_root_eps(1, 4, math.nextafter(1 / 64, 0.0))
    assert verifier._at_most_two_root_eps(0, 4, 1e-300)
    # the binary64 nearest 1/36 lies below it, so 1/3 > 2 sqrt(eps) exactly; the floats read equal
    eps = 1 / 36
    assert Fraction(eps) < Fraction(1, 36)
    assert 1 / 3 <= 2.0 * math.sqrt(eps)
    assert not verifier._at_most_two_root_eps(1, 3, eps)


def test_partition_mass_verdict_is_exact_at_its_boundary():
    # binom/n = 1/4 gives r = 1/4, and r^4 = 1024 eps exactly at eps = 2^-18
    eps = 2.0**-18
    assert verifier._partition_mass_holds(1, 4, eps)
    assert not verifier._partition_mass_holds(1, 4, math.nextafter(eps, 0.0))
    assert verifier._partition_mass_holds(2, 4, 1e-300)  # r = 0 holds at any epsilon
    assert verifier._partition_mass_holds(3, 4, 1e-300)
    # one ulp below 2^-18 the float rhs still rounds to 1/4, so the float test reads holds
    below = math.nextafter(eps, 0.0)
    assert 1 / 4 >= 0.5 - 4.0 * math.sqrt(2.0) * below**0.25


def test_bias_verdict_is_exact_at_its_boundary():
    # 6 * 5 = 5 * 18 - 10 * 6: equality holds, one window fewer does not
    assert verifier._bias_holds(5, 18, 6)
    assert not verifier._bias_holds(4, 18, 6)
    assert verifier._bias_holds(0, 2, 1)  # 0 >= 5*2 - 10
    # the floats at n = 7 put the rhs above the lhs
    assert 5 / 7 < (5.0 / 6.0) * (18 / 7) - (5.0 / 3.0) * (6 / 7)


def test_audit_steps_read_the_exact_verdicts():
    # 4 gaps: one of 1/4 (a one-gap block, one part) and three of 1; one two-gap window, 1.25,
    # lands in (1/2, 3/2 + eps).  So density = multigap = 1/4 and partition_mass = 1/4.
    seq = pl.sequence_from_gaps([0.25, 1.0, 1.0, 1.0])
    at = pl.audit(seq, pl.AuditConfig(epsilon=1 / 64, n=4))
    assert (at.density_lhs, at.multigap_lhs, at.density_rhs) == (0.25, 0.25, 0.25)
    assert at.flags["density"] and at.flags["multigap"]
    below = pl.audit(seq, pl.AuditConfig(epsilon=math.nextafter(1 / 64, 0.0), n=4)).flags
    assert not below["density"] and not below["multigap"]
    assert pl.audit(seq, pl.AuditConfig(epsilon=2.0**-18, n=4)).flags["partition_mass"]
    report = pl.audit(seq, pl.AuditConfig(epsilon=math.nextafter(2.0**-18, 0.0), n=4))
    assert report.partition_mass >= report.partition_mass_rhs  # the float verdict
    assert not report.flags["partition_mass"]


def test_audit_unit_lattice_is_all_zero():
    seq = pl.RealSequence(np.arange(1000, dtype=float))
    report = pl.audit(seq, pl.AuditConfig(epsilon=1e-9, n=999))
    assert report.density_lhs == 0.0
    assert report.multigap_lhs == 0.0
    assert report.partition_mass == 0.0
    assert report.bias_lhs == 0.0
    assert report.block_count == 0
    assert report.max_gap == 1.0 and report.max_gap_ok
    assert report.flags["density"] and report.flags["multigap"]
    assert not report.flags["final_inequality"]  # the closing inequality fails at 1e-9


def test_audit_poisson_density_matches_exponential_cdf():
    seq = pl.generate(pl.GeneratorConfig("poisson", 100_000, seed=3))
    report = pl.audit(seq, pl.AuditConfig(epsilon=1e-9, n=99_999))
    assert report.density_lhs == pytest.approx(1 - math.exp(-0.5), abs=0.01)
    assert not report.flags["density"]  # a Poisson sequence is nowhere near capped


def test_audit_is_deterministic():
    seq = pl.generate(pl.GeneratorConfig("capped", 2000, seed=8, cap=1.5))
    cfg = pl.AuditConfig(epsilon=1e-9, n=1999)
    a = pl.audit(seq, cfg).to_dict()
    b = pl.audit(seq, cfg).to_dict()
    assert a == b  # exact float equality throughout


def test_audit_clamps_n_to_gap_count():
    seq = pl.RealSequence(np.arange(100, dtype=float))
    report = pl.audit(seq, pl.AuditConfig(epsilon=1e-9, n=100))
    assert report.n_used == 99
    with pytest.raises(ValueError):
        pl.audit(seq, pl.AuditConfig(epsilon=1e-9, n=101))


def test_audit_of_the_gaps_matches_audit_of_the_sequence():
    seq = pl.generate(pl.GeneratorConfig("capped", 3000, seed=5, cap=1.5))
    g = pl.gaps_of(seq)
    for n in (2, 1500, 2999, 3000):
        cfg = pl.AuditConfig(epsilon=1e-9, n=n)
        assert pl.audit(g, cfg).to_dict() == pl.audit(seq, cfg).to_dict()
    errors = []
    for source in (seq, g):
        with pytest.raises(ValueError) as caught:
            pl.audit(source, pl.AuditConfig(epsilon=1e-9, n=3001))
        errors.append(str(caught.value))
    assert errors == ["cfg.n=3001 exceeds sequence length 3000"] * 2


def test_audit_report_structure():
    seq = pl.generate(pl.GeneratorConfig("capped", 500, seed=4, cap=1.5))
    report = pl.audit(seq, pl.AuditConfig(epsilon=1e-9, n=499))
    d = report.to_dict()
    for key in (
        "density_lhs",
        "density_rhs",
        "multigap_lhs",
        "multigap_rhs",
        "partition_mass",
        "partition_mass_rhs",
        "bias_lhs",
        "bias_rhs",
        "final_ineq_value",
        "steps",
    ):
        assert key in d
    assert {s["name"] for s in d["steps"]} == {
        "density",
        "multigap",
        "partition_mass",
        "bias",
        "final_inequality",
    }
    for step in d["steps"]:
        assert step["direction"] in ("<=", ">=")
        assert math.isfinite(step["lhs"]) and math.isfinite(step["rhs"])


def test_certificate_proves_the_sum_of_squares_identity():
    assert pl.lemma512_certificate() is True


def test_certificate_fails_when_the_polynomial_is_perturbed(monkeypatch):
    from ppclab import verifier

    seven_terms = verifier._seven_terms
    monkeypatch.setattr(verifier, "_seven_terms", lambda a, b, c, l: seven_terms(a, b, c, l) + 1)
    assert pl.lemma512_certificate() is False


def test_squares_vanish_on_the_critical_line():
    # the float gap on this line dips below -1e-9 at large l, although the
    # exact gap is zero: rounding, not a counterexample
    from ppclab import verifier

    float_dips = 0
    for l_val in range(10_000, 20_001, 7):
        a, b, c = Fraction(l_val + 2, 3), Fraction(l_val + 1, 2), Fraction(2 * l_val + 1, 3)
        assert verifier._squares(a, b, c, l_val) == 0
        assert 12 * pl.lemma512_lhs(pl.LemmaPoint(a, b, c, l_val)) == 5 * l_val**2 + 2 * l_val - 7
        fa, fb, fc = (l_val + 2) / 3, (l_val + 1) / 2, (2 * l_val + 1) / 3
        gap = pl.lemma512_lhs(pl.LemmaPoint(fa, fb, fc, l_val)) - pl.lemma512_rhs(float(l_val))
        float_dips += gap < -1e-9
    assert float_dips > 0


def test_convex_sweep_matches_the_brute_oracle():
    assert verifier._separable_in_b_and_c() is True
    assert tuple(pl.lemma512_exhaustive(40)) == lemma512_brute(40) == (math.comb(43, 4), [])


@pytest.mark.parametrize("shift, count", [(1, 136), (5, 1785), (40, 23605), (300, 107346)])
def test_convex_sweep_lists_every_counterexample_of_a_lowered_polynomial(monkeypatch, shift, count):
    seven_terms = verifier._seven_terms
    monkeypatch.setattr(verifier, "_seven_terms", lambda a, b, c, l: seven_terms(a, b, c, l) - shift)
    result = pl.lemma512_exhaustive(40)
    assert tuple(result) == lemma512_brute(40)
    assert len(result.counterexamples) == count


@pytest.mark.parametrize("slope", [40, -40, 3, -3])
def test_convex_sweep_with_the_minimum_moved_to_an_end(monkeypatch, slope):
    # a term linear in c and <= 0 on [1, l] tilts the minimum over [b, l]
    # toward c = b (slope > 0) or c = l (slope < 0); at |slope| = 40 it sits there
    seven_terms = verifier._seven_terms

    def tilted(a, b, c, l):
        return seven_terms(a, b, c, l) + slope * (c - l if slope > 0 else c - 1)

    monkeypatch.setattr(verifier, "_seven_terms", tilted)
    result = pl.lemma512_exhaustive(40)
    assert tuple(result) == lemma512_brute(40)
    end = (lambda b, l: b) if slope > 0 else (lambda b, l: l)
    assert any(c == end(b, l) for _, b, c, l in result.counterexamples)


def test_convex_sweep_finds_a_negative_minimum_on_the_diagonal(monkeypatch):
    # 80(c - b) outweighs every first difference of the sum at l <= 40, so u falls and v rises
    # on all of [a, l]: b0 = l > a = c0 whenever a < l, and the minimum lies on b = c
    seven_terms = verifier._seven_terms
    monkeypatch.setattr(verifier, "_seven_terms", lambda a, b, c, l: seven_terms(a, b, c, l) + 80 * (c - b) - 40)
    result = pl.lemma512_exhaustive(40)
    assert tuple(result) == lemma512_brute(40)
    assert result.counterexamples and all(b == c for _, b, c, _ in result.counterexamples)
    assert any(a < l for a, _, _, l in result.counterexamples)


def test_convex_sweep_refuses_a_polynomial_with_a_bc_term(monkeypatch):
    seven_terms = verifier._seven_terms
    monkeypatch.setattr(verifier, "_seven_terms", lambda a, b, c, l: seven_terms(a, b, c, l) + b * c)
    assert verifier._separable_in_b_and_c() is False
    with pytest.raises(RuntimeError, match="second difference"):
        pl.lemma512_exhaustive(5)


def test_convex_sweep_refuses_a_polynomial_that_is_not_quadratic_in_c(monkeypatch):
    seven_terms = verifier._seven_terms
    monkeypatch.setattr(verifier, "_seven_terms", lambda a, b, c, l: seven_terms(a, b, c, l) + c**3)
    assert verifier._separable_in_b_and_c() is False
    with pytest.raises(RuntimeError, match="second difference"):
        pl.lemma512_exhaustive(5)


def test_exhaustive_bound_rejects_before_any_work(monkeypatch):
    def no_sweep(l_values):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(verifier, "_scan_l_values", no_sweep)
    with pytest.raises(ValueError, match=r"l_max must be <= 10000: sweep time grows as l_max\^2"):
        pl.lemma512_exhaustive(verifier.LEMMA512_MAX_L + 1, workers=1)
