"""Independent brute-force oracles for the counting and partition machinery.

Everything here enumerates directly: pair counts by materializing all ordered
differences, window counts by fresh per-start summation, the greedy oracle
by exhaustively scanning every subwindow before each pick, ingest by
reading a text file one line at a time, and the writer by one ``format``
per value.  None of it
shares a code path with the library implementations it checks.
"""

import io
import math

import numpy as np

from ppclab import SequenceFormatError


def ingest_loop(path, mode="raw") -> np.ndarray:
    """``ingest_and_unfold``'s values by a text-mode loop: one ``float(line.strip())`` per line."""
    values = []
    prev = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                val = float(line)
            except ValueError:
                raise SequenceFormatError(f"could not parse {line!r} as a number", lineno) from None
            if not math.isfinite(val):
                raise SequenceFormatError(f"non-finite value {line!r}", lineno)
            if prev is not None and val <= prev:
                raise SequenceFormatError(f"not strictly increasing: {val!r} after {prev!r}", lineno)
            if mode == "zeta_unfold" and val <= 1.0:
                raise SequenceFormatError(f"zeta_unfold requires values > 1, got {val!r}", lineno)
            prev = val
            values.append(val)
    if not values:
        raise SequenceFormatError("file contains no data lines", 1)
    arr = np.asarray(values, dtype=float)
    return arr * np.log(arr) / (2.0 * math.pi) if mode == "zeta_unfold" else arr


def fast_values(content: bytes, mode="raw"):
    """The values ``sequences._parse_fast`` yields for the file ``content``, joined; None where it declines."""
    from ppclab import sequences

    try:
        return np.concatenate([*sequences._parse_fast(io.BytesIO(content), mode)])
    except sequences._Decline:
        return None


def format_loop(values) -> bytes:
    """The lines ``write_sequence`` writes for ``values``: one ``format(v, ".17g")`` per value."""
    return "".join(format(v, ".17g") + "\n" for v in np.asarray(values, dtype=float).tolist()).encode()


def cdf_loop(values, n, lo, step, end) -> str:
    """The CSV ``analyze --cdf-grid`` prints: all m gaps sorted once, one ``searchsorted`` per grid point."""
    m = min(n, len(values) - 1)
    sorted_gaps = np.diff(np.asarray(values, dtype=float)[: m + 1])
    sorted_gaps.sort()
    lines = ["x,F"]
    k = 0
    x = lo
    while x <= end:
        below = int(np.searchsorted(sorted_gaps, x, side="right"))
        lines.append(f"{format(x, '.17g')},{format(below / m, '.17g')}")
        k += 1
        x = lo + k * step
    return "\n".join(lines) + "\n"


def brute_pair_count(values, interval, n) -> int:
    """All-pairs enumeration of ordered (i, j), i != j, with v[j] - v[i] in I."""
    v = np.asarray(values, dtype=float)[:n]
    diffs = v[None, :] - v[:, None]
    mask = interval.contains(diffs)
    np.fill_diagonal(mask, False)
    return int(np.count_nonzero(mask))


def scan_first_crossing(P, base, lower, t, strict) -> list[int]:
    """``first_crossing`` by a scalar two-pointer scan over Python floats.

    The passing ends of a start form a suffix of ``P``, so its answer is the
    larger of ``lower`` and the suffix's first index.  That index only moves
    right while ``base`` does not decrease; the pointer restarts at 0 when it
    does.
    """
    p = P.tolist()
    out = []
    e, prev = 0, -math.inf
    for b, low in zip(base.tolist(), np.broadcast_to(lower, len(base)).tolist()):
        if b < prev:
            e = 0
        while e < len(p) and not (p[e] - b > t if strict else p[e] - b >= t):
            e += 1
        out.append(max(e, low))
        prev = b
    return out


def brute_multi_gap_count(gaps, interval, n, m_min) -> int:
    """Per-start direct summation over every window with m >= m_min."""
    g = np.asarray(gaps, dtype=float)[:n]
    total = 0
    for s in range(1, n - m_min + 2):
        sums = np.cumsum(g[s - 1 :])
        total += int(np.count_nonzero(interval.contains(sums[m_min - 1 :])))
    return total


def brute_ppc_block(gaps, block, a) -> int:
    g = np.asarray(gaps, dtype=float)
    total = 0
    for s in range(block.left, block.right + 1):
        sums = np.cumsum(g[s - 1 : block.right])
        total += int(np.count_nonzero(sums < a))
    return total


def brute_ppc_cross(gaps, j1, j2, a) -> int:
    g = np.asarray(gaps, dtype=float)
    total = 0
    for s in range(j1.left, j1.right + 1):
        sums = np.cumsum(g[s - 1 : j2.right])
        ends = np.arange(s, j2.right + 1)
        total += int(np.count_nonzero(sums[ends >= j2.left] < a))
    return total


def brute_cross_pairs_above(gaps, j1, j2, budget) -> int:
    """#{(n, n') in J1 x J2 : direct window sum > budget}."""
    g = np.asarray(gaps, dtype=float)
    total = 0
    for s in range(j1.left, j1.right + 1):
        sums = np.cumsum(g[s - 1 : j2.right])
        ends = np.arange(s, j2.right + 1)
        total += int(np.count_nonzero(sums[ends >= j2.left] > budget))
    return total


class GreedyOracle:
    """Exhaustive-scan replay of the greedy selection over one parent block.

    Precomputes every window's canonical sum (the same prefix-difference
    convention the library defines), then before each pick finds the best
    window over the remaining fragments by full enumeration: maximum length
    first, then smallest left endpoint.
    """

    def __init__(self, gap_seq, parent, budget):
        self.parent = parent
        self.budget = budget
        prefix = gap_seq.prefix
        lo, hi = parent.left, parent.right
        seg = prefix[lo - 1 : hi + 1]
        # sums[i, j] = canonical sum of window [lo + i, lo + j]
        self.sums = seg[None, 1:] - seg[:-1, None]
        k = hi - lo + 1
        i = np.arange(k)
        self.lengths = np.where(
            (i[None, :] >= i[:, None]) & (self.sums <= budget),
            i[None, :] - i[:, None] + 1,
            0,
        )

    def best_window(self, fragments):
        """Longest fitting window across fragments; ties to smallest left endpoint."""
        lo = self.parent.left
        best = None  # (length, s, e)
        for a, b in fragments:
            sub = self.lengths[a - lo : b - lo + 1, a - lo : b - lo + 1]
            mx = int(sub.max()) if sub.size else 0
            if mx == 0:
                continue
            i, j = np.argwhere(sub == mx)[0]  # row-major: smallest start wins
            if best is None or mx > best[0]:
                best = (mx, a + int(i), a + int(j))
        return best

    def replay_check(self, partition):
        """Assert the partition's picks match the exhaustive oracle step by step."""
        order = sorted(range(partition.size), key=lambda i: partition.selection_rank[i])
        fragments = [(self.parent.left, self.parent.right)]
        for idx in order:
            part = partition.parts[idx]
            best = self.best_window(fragments)
            assert best is not None, "oracle found no feasible window but a pick exists"
            length, s, e = best
            assert (s, e) == (part.left, part.right), (
                f"pick mismatch: oracle wants [{s},{e}] (len {length}), "
                f"partition chose [{part.left},{part.right}]"
            )
            for k, (a, b) in enumerate(fragments):
                if a <= s and e <= b:
                    repl = []
                    if s > a:
                        repl.append((a, s - 1))
                    if e < b:
                        repl.append((e + 1, b))
                    fragments[k : k + 1] = repl
                    break
            else:
                raise AssertionError(f"pick [{s},{e}] not inside any remaining fragment")
        assert not fragments, f"uncovered fragments remain: {fragments}"


def random_block_gaps(rng, max_len=64, budget=0.5):
    """Random gap vector families with every gap <= budget.

    Mixes short-part regimes (uniform near the budget), long-part regimes
    (small uniform gaps), and spiky regimes (near-zero runs with a few large
    gaps) so sandwiched configurations actually occur.
    """
    length = int(rng.integers(1, max_len + 1))
    family = rng.integers(0, 3)
    if family == 0:
        gaps = rng.uniform(0.0, budget, length)
    elif family == 1:
        gaps = rng.uniform(0.0, budget * 0.12, length)
    else:
        gaps = rng.uniform(0.0, budget * 0.01, length)
        spikes = rng.integers(0, max(1, length // 6) + 1)
        for _ in range(int(spikes)):
            gaps[int(rng.integers(0, length))] = rng.uniform(budget * 0.5, budget)
    return gaps


def lemma512_brute(l_max):
    """Every tuple 1 <= a <= b <= c <= l <= l_max, evaluated directly: O(l_max^4).

    Returns ``(checked, sorted counterexamples)``.  Reads the seven-term sum
    from ``ppclab.verifier`` at call time, so a test that patches it patches
    the oracle too.
    """
    from ppclab import verifier

    checked = 0
    counterexamples = []
    for l in range(1, l_max + 1):
        rhs12 = 5 * l * l + 2 * l - 7
        for a in range(1, l + 1):
            b = np.arange(a, l + 1, dtype=np.int64)[:, None]
            c = np.arange(a, l + 1, dtype=np.int64)[None, :]
            valid = b <= c
            lhs12 = 12 * verifier._seven_terms(a, b, c, l)
            bad = valid & (lhs12 < rhs12)
            checked += int(np.count_nonzero(valid))
            bi, ci = np.nonzero(bad)
            counterexamples.extend((a, int(b[i, 0]), int(c[0, j]), l) for i, j in zip(bi, ci))
    return checked, sorted(counterexamples)


def bias_bins(prefix):
    """(x1, x2, x3, x4): how many prefix values lie in [0, 1/8], (1/8, 1/4], (1/4, 3/8], (3/8, 1/2]."""
    edges = (0.0, 0.125, 0.25, 0.375, 0.5)
    p = [float(v) for v in prefix]
    first = sum(edges[0] <= v <= edges[1] for v in p)
    return (first,) + tuple(sum(lo < v <= hi for v in p) for lo, hi in zip(edges[1:], edges[2:]))


def bin_form(x):
    """B(x) = sum x_i (x_i - 1) + sum x_i x_{i+1}: the bias lhs that the binning alone guarantees."""
    return sum(v * (v - 1) for v in x) + sum(u * v for u, v in zip(x, x[1:]))


def audit_whole(seq, cfg):
    """``audit`` made on whole arrays: the gaps, their prefix sums and every block, all held at once.

    The reference for the one-pass audit: the blocks come from one run mask
    over the first n canonical one-gap sums, made here and not by the prefix
    stream the audit and ``maximal_blocks`` share, and the greedy's part sums
    and ``multi_gap_count`` run once over all of them.  So any difference is
    the stream's steps, its carried prefix sums, or the tail it keeps.
    """
    from ppclab import verifier
    from ppclab.correlation import Interval, multi_gap_count
    from ppclab.partition import _greedy_lengths
    from ppclab.sequences import RealSequence, gaps_of

    points = seq.n if isinstance(seq, RealSequence) else seq.length + 1
    if cfg.n > points:
        raise ValueError(f"cfg.n={cfg.n} exceeds sequence length {points}")
    g = gaps_of(seq) if isinstance(seq, RealSequence) else seq
    n = min(cfg.n, g.length)
    eps = cfg.epsilon
    budget = verifier.AUDIT_BUDGET
    gap_bound = 1.5 + eps
    max_gap = float(np.max(g.gaps[:n]))
    fits = np.diff(g.prefix[: n + 1]) <= budget
    edges = np.flatnonzero(np.diff(np.concatenate(([False], fits, [False]))))  # gap k + 1 starts a run, gap k ends one
    left, right = edges[::2] + 1, edges[1::2]
    part_count, parts_len, parts_binom = _greedy_lengths(g.prefix, left, right, budget)
    partition_mass = parts_binom / n
    multigap = multi_gap_count(g, Interval.open(budget, gap_bound), n, 2)
    windows = multi_gap_count(g, Interval.half_open(0.0, 0.125), n, 1)
    windows += multi_gap_count(g, Interval.half_open(0.0, 0.25), n, 1)
    root = 2.0 * math.sqrt(eps)
    bias_rhs = (5.0 / 6.0) * partition_mass - (5.0 / 3.0) * (parts_len / n)
    mass_rhs = 0.5 - 4.0 * math.sqrt(2.0) * eps**0.25
    final_value = verifier.final_inequality(eps)
    steps = (
        verifier.AuditStep("density", parts_len / n, root, "<=", verifier._at_most_two_root_eps(parts_len, n, eps)),
        verifier.AuditStep("multigap", multigap / n, root, "<=", verifier._at_most_two_root_eps(multigap, n, eps)),
        verifier.AuditStep("partition_mass", partition_mass, mass_rhs, ">=",
                           verifier._partition_mass_holds(parts_binom, n, eps)),
        verifier.AuditStep("bias", windows / n, bias_rhs, ">=", verifier._bias_holds(windows, parts_binom, parts_len)),
        verifier.AuditStep("final_inequality", final_value, 0.0, ">=", not verifier._final_inequality_negative(eps)),
    )
    return verifier.AuditReport(
        epsilon=eps, budget=budget, n_used=n, max_gap=max_gap, max_gap_ok=max_gap <= gap_bound,
        density_lhs=parts_len / n, density_rhs=root, multigap_lhs=multigap / n, multigap_rhs=root,
        partition_mass=partition_mass, partition_mass_rhs=mass_rhs, bias_lhs=windows / n, bias_rhs=bias_rhs,
        final_ineq_value=final_value, block_count=int(left.size), part_count=part_count,
        total_block_length=parts_len, steps=steps,
    )


def pair_correlation_whole(seq, interval, n):
    """``pair_correlation`` made on the whole array: two ``_forward_pairs`` counts over all n values at once.

    The reference for the streamed pair counts of CLI ``analyze``, which
    hold only the values that undecided starts still reach.  A half with
    hi <= 0 holds no forward difference, and a lo <= 0 is a closed 0.
    """
    from ppclab.correlation import CorrelationReport, Interval, _forward_pairs

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


def gap_counts_whole(seq, m, xs) -> np.ndarray:
    """#{i <= m : g_i <= x} for each x in ``xs`` over the first m gaps, with the errors of ``gaps_of``.

    The gaps come ``correlation._CHUNK`` at a time from slices of the held
    values, each chunk sorted and searched for every x, as CLI ``analyze``
    counted them before it streamed.
    """
    from ppclab import correlation
    from ppclab.sequences import _check_gaps

    _check_gaps(seq.values)
    counts = np.zeros(xs.size, dtype=np.int64)
    for c in range(0, m, correlation._CHUNK):
        chunk = np.diff(seq.values[c : min(c + correlation._CHUNK, m) + 1])
        chunk.sort()
        counts += np.searchsorted(chunk, xs, side="right")
    return counts
