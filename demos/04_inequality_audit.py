#!/usr/bin/env python3
"""The inequality chain end to end: exhaustive sweep, bias bound, closing epsilon.

Three exact verifiers and one finite-N audit:

  1. the seven-term quadratic lower bound, swept over every integer tuple and
     proved for all real tuples by an exact sum-of-squares identity;
  2. the bias bound: blocks with total gap <= 1/2 must overweight windows
     with sums <= 1/4 and <= 1/8 (at least 5/6 C(L+1,2) - 5/6 L of them),
     which is the quadratic bound again once the prefix values are binned;
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

    banner("2. bias of small windows inside light blocks: Lemma 5.12 in bin coordinates")
    print("  bin the L+1 prefix values into [0,1/8], (1/8,1/4], (1/4,3/8], (3/8,1/2]; counts x1..x4")
    print("  same bin: difference <= 1/8; adjacent bins: <= 1/4, so lhs >= B(x) = sum xi(xi-1) + sum xi x(i+1)")
    print("  B(x) = LHS(x1+1, x1+x2+1, x1+x2+x3+1, L+2) - 2(L+1) >= (5L^2 - 2L - 7)/12 by section 1,")
    print("  which is rhs + (3L - 7)/12; for L <= 2, B is an integer, so B >= rhs there too")
    cluster = [0.0] * 16 + [1 / 6] + [0.0] * 7 + [1 / 6] + [0.0] * 7 + [1 / 6] + [0.0] * 17
    for label, gaps in (
        ("clusters of 17, 8, 8, 18 at 0, 1/6, 1/3, 1/2", cluster),
        ("64 equal gaps of 1/128", np.full(64, 1 / 128)),
    ):
        g = pl.GapSequence(gaps)
        length = g.length
        p = g.prefix
        x = np.diff(np.searchsorted(p, [1 / 8, 1 / 4, 3 / 8, 1 / 2], side="right"), prepend=0).tolist()
        bound = sum(v * (v - 1) for v in x) + sum(u * v for u, v in zip(x, x[1:]))
        point = pl.LemmaPoint(x[0] + 1, x[0] + x[1] + 1, x[0] + x[1] + x[2] + 1, length + 2)
        check = pl.bias_check(g)
        print(f"\n  {label} (L = {length}): bins x = {tuple(x)}")
        print(f"    Lemma 5.12 tuple {(point.a, point.b, point.c, point.l)}: "
              f"LHS - 2(L+1) = {pl.lemma512_lhs(point) - 2 * (length + 1)} = B(x)")
        print(f"    lhs = {check.lhs} >= B(x) = {bound} >= rhs = {check.rhs:.2f} -> ok={check.ok}")

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
