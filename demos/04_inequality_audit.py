#!/usr/bin/env python3
"""The inequality chain end to end: exhaustive sweep, bias bound, closing epsilon.

Three exact verifiers and one finite-N audit:

  1. the seven-term quadratic lower bound, swept over every integer tuple and
     proved for all real tuples by an exact sum-of-squares identity;
  2. the bias bound: blocks with total gap <= 1/2 must overweight windows
     with sums <= 1/4 and <= 1/8 (at least 5/6 C(L+1,2) - 5/6 L of them);
  3. the closing inequality in epsilon, whose sign flips between 1e-8 and
     1e-9 -- the flip is what pins the gap threshold 3/2 + 1e-9;
  4. an audit that evaluates every step of the chain on concrete sequences.

The audited statements are asymptotic, so the report shows margins rather
than asserting them at finite N.
"""

import math

import numpy as np

import ppclab as pl


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("1. the quadratic bound: exhaustive integer sweep and proof")
    result = pl.lemma512_exhaustive(150)
    print(f"  tuples checked: {result.checked:,} (closed form {math.comb(153, 4):,})")
    print(f"  counterexamples: {result.counterexamples or 'none'}")
    print("  12*LHS - (5L^2 + 2L - 7) = 3(2a-c-1)^2 + 3(2b-L-1)^2 + (3c-2L-1)^2 for all reals:")
    print(f"  checked exactly on {{0,1,2}}^4, which proves it: {pl.lemma512_certificate()}")
    gap0 = pl.lemma512_lhs(pl.LemmaPoint(1, 1, 1, 1)) - pl.lemma512_rhs(1)
    print(f"  equality witness at (1,1,1,1): gap = {gap0} (the bound is tight)")
    l_val = 10
    a, b, c = (l_val + 2) / 3, (l_val + 1) / 2, (2 * l_val + 1) / 3
    gap_mid = pl.lemma512_lhs(pl.LemmaPoint(a, b, c, l_val)) - pl.lemma512_rhs(float(l_val))
    print(f"  interior critical point (L=10): gap = {gap_mid:.2e} (tight along a whole line)")

    banner("2. bias of small windows inside light blocks")
    rng = np.random.default_rng(1)
    worst = None
    for _ in range(50_000):
        length = int(rng.integers(1, 65))
        raw = rng.uniform(0.0, 1.0, length)
        gaps = raw * (0.5 * (1 - rng.random()) / raw.sum())
        check = pl.bias_check(pl.GapSequence(gaps))
        assert check.ok
        margin = check.lhs - check.rhs
        if worst is None or margin < worst[0]:
            worst = (margin, length)
    print(f"  50,000 random blocks: bound held every time; worst margin {worst[0]:.3f} at L={worst[1]}")
    check = pl.bias_check(pl.GapSequence(np.full(64, 1 / 128)))
    print(f"  64 equal gaps of 1/128: lhs={check.lhs}, rhs={check.rhs:.1f} -> ok={check.ok}")

    banner("3. the closing inequality: sign flip between 1e-8 and 1e-9")
    print("     epsilon        value      verdict")
    for eps in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12):
        v = pl.final_inequality(eps)
        verdict = "holds (no contradiction)" if v >= 0 else "fails (contradiction stands)"
        print(f"  {eps:10.0e}  {v:+.6f}    {verdict}")

    banner("4. finite-N audit of the whole chain")
    for label, seq in (
        ("unit lattice", pl.RealSequence(np.arange(2000, dtype=float))),
        ("poisson", pl.generate(pl.GeneratorConfig("poisson", 50_000, seed=9))),
        ("capped at 1.5", pl.generate(pl.GeneratorConfig("capped", 50_000, seed=9, cap=1.5))),
    ):
        rep = pl.audit(seq, pl.AuditConfig(epsilon=1e-9, n=seq.n - 1))
        print(f"\n  {label} (N = {rep.n_used}):  max gap {rep.max_gap:.3f}, "
              f"{rep.block_count} blocks, {rep.part_count} parts")
        for step in rep.steps:
            status = "holds" if step.holds else "violated at this N"
            print(f"    {step.name:16s} {step.lhs:+.6f} {step.direction} {step.rhs:+.6f}   {status}")
    print("\nNo finite sequence settles the asymptotic statements; the audit makes the")
    print("margins visible so one can see *which* step a candidate sequence strains.")


if __name__ == "__main__":
    main()
