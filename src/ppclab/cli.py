"""Command-line front end: generation, analysis, partitioning, verification, audit.

Exit codes: 0 success / no violation, 1 verified violation or failed check,
2 usage or input error.  Every run's output carries a manifest from which
the run can be replayed byte-identically; ``partition`` prints it once, as a
header document.  Floats are printed with 17 significant digits, so every
value round-trips; a non-finite float, which JSON cannot hold, is an input
error.

Pair counts follow the ordered-pair convention: an interval containing both
signs counts each unordered pair twice (once per orientation).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .correlation import Interval, pair_correlation
from .partition import _unpartitionable, maximal_blocks, partition_table
from .sequences import (
    GeneratorConfig,
    gaps_of,
    generate,
    ingest_and_unfold,
    normalize_mean_gap,
    write_sequence,
)
from .verifier import (
    AuditConfig,
    _final_inequality_negative,
    audit,
    final_inequality,
    lemma512_exhaustive,
)


CDF_GRID_MAX_POINTS = 10**6  # --cdf-grid rows; a larger or non-finite grid is rejected, not looped over
PARTITION_CHUNK = 4096  # blocks per partition table: bounds the arrays and the text held at once


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _dumps(obj) -> str:
    """Deterministic one-line JSON with 17-significant-digit floats; nan and inf raise ValueError."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"{obj!r} has no JSON form: values must be finite")
        return _fmt(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _manifest(command: str, parameters: dict, seed=None, input_hash=None) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "input_hash": input_hash,
        "tool_version": __version__,
    }


def _parse_interval(text: str, lo_closed: bool, hi_closed: bool) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"interval must be 'lo,hi', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval endpoints must be finite, got {text!r}")
    return Interval(lo, hi, lo_closed, hi_closed)


def _parse_cdf_grid(text: str) -> tuple[float, float, float]:
    """``lo:hi:step`` as (lo, step, end): the grid is lo + k*step, k = 0, 1, ..., while <= end.

    ``end`` is hi plus a relative 1e-15, so hi stays on the grid when rounding
    lands just past it.  A non-finite lo or hi, or more than
    ``CDF_GRID_MAX_POINTS`` points, is rejected before anything is printed.
    """
    pieces = text.split(":")
    if len(pieces) != 3:
        raise ValueError(f"--cdf-grid must be 'lo:hi:step', got {text!r}")
    lo, hi, step = (float(p) for p in pieces)
    if not step > 0:
        raise ValueError("--cdf-grid step must be positive")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--cdf-grid lo and hi must be finite")
    end = hi * (1 + math.copysign(1e-15, hi)) + 1e-300
    if not (end - lo) / step < CDF_GRID_MAX_POINTS:
        raise ValueError(f"--cdf-grid has more than {CDF_GRID_MAX_POINTS} points")
    return lo, step, end


def _interval_flags(args) -> tuple[bool, bool]:
    if args.closed:
        return True, True
    if args.open:
        return False, False
    return True, False  # default half-open [lo, hi)


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        kind=args.kind,
        n_points=args.n,
        seed=args.seed,
        cap=args.cap,
        alpha=args.alpha,
    )
    seq = generate(cfg)
    params = {
        "kind": args.kind,
        "n": args.n,
        "cap": args.cap,
        "alpha": args.alpha,
        "output": str(args.output),
    }
    manifest = _manifest("generate", params, seed=args.seed)
    sidecar = {
        "written": str(args.output),
        "n_points": seq.n,
        "metadata": {k: (float(v) if isinstance(v, float) else v) for k, v in seq.metadata.items()},
        "manifest": manifest,
    }
    text = _dumps(sidecar)  # before any file is written: a non-finite parameter is an input error
    write_sequence(args.output, seq)
    with open(str(args.output) + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0


def cmd_analyze(args) -> int:
    if not args.interval and not args.cdf_grid:
        raise ValueError("nothing to do: give --interval and/or --cdf-grid")
    grid = _parse_cdf_grid(args.cdf_grid) if args.cdf_grid else None
    intervals = [_parse_interval(text, *_interval_flags(args)) for text in args.interval or []]
    seq = ingest_and_unfold(args.input, "raw")
    n = args.n if args.n is not None else seq.n
    if not 1 <= n <= seq.n:
        raise ValueError(f"--n must lie in 1..{seq.n} (the points in the input), got {n}")
    if grid and seq.n < 2:
        raise ValueError("--cdf-grid needs at least 2 points to form gaps")
    params = {
        "input": str(args.input),
        "n": n,
        "intervals": list(args.interval or []),
        "closed": bool(args.closed),
        "open": bool(args.open),
        "cdf_grid": args.cdf_grid,
    }
    manifest = _manifest("analyze", params, input_hash=seq.metadata["input_sha256"])
    for interval in intervals:
        report = pair_correlation(seq, interval, n)
        doc = {
            "lo": interval.lo,
            "hi": interval.hi,
            "lo_closed": interval.lo_closed,
            "hi_closed": interval.hi_closed,
            "n": report.n,
            "pair_count": report.pair_count,
            "r_value": report.r_value,
            "manifest": manifest,
        }
        print(_dumps(doc))
    if grid:
        lo, step, end = grid
        g = gaps_of(seq)
        m = min(n, g.length)
        sorted_gaps = np.sort(g.gaps[:m])  # searchsorted "right" counts the gaps <= x
        lines = ["x,F"]
        k = 0
        x = lo
        while x <= end:
            below = int(np.searchsorted(sorted_gaps, x, side="right"))
            lines.append(f"{_fmt(x)},{_fmt(below / m)}")
            k += 1
            x = lo + k * step
        text = "\n".join(lines) + "\n"
        if args.cdf_out:
            with open(args.cdf_out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return 0


def cmd_partition(args) -> int:
    seq = ingest_and_unfold(args.input, "raw")
    g = gaps_of(seq)
    n = args.n if args.n is not None else g.length
    threshold = args.threshold
    params = {"input": str(args.input), "n": n, "threshold": threshold, "check": bool(args.check)}
    blocks = maximal_blocks(g, n, threshold)
    # block gaps no part can hold: a part's sum is canonical, prefix[i] - prefix[i-1] for one gap
    over = np.flatnonzero((g.gaps[:n] <= threshold) & (np.diff(g.prefix[: n + 1]) > threshold))
    if over.size:
        raise _unpartitionable(int(over[0]) + 1, threshold)
    print(_dumps({"manifest": _manifest("partition", params, input_hash=seq.metadata["input_sha256"])}))
    violation = False
    for first in range(0, blocks.left.size, PARTITION_CHUNK):
        chunk = slice(first, first + PARTITION_CHUNK)
        table = partition_table(g, blocks.left[chunk], blocks.right[chunk], threshold)
        sys.stdout.write(_partition_documents(table, blocks.left[chunk], blocks.right[chunk], args.check))
        violation = violation or not (table.adjacent_ok.all() and table.sandwich_ok.all())
    return 1 if args.check and violation else 0


def _partition_documents(table, left, right, check: bool) -> str:
    """One partition table's block documents, byte for byte as ``_dumps`` writes them.

    Each document is one fixed-shape f-string; ``check`` adds the per-block
    bound verdicts.  A non-finite sum raises ``ValueError``, as in ``_dumps``.
    """
    finite = np.isfinite(table.sums)
    if not finite.all():
        raise ValueError(f"{float(table.sums[~finite][0])!r} has no JSON form: values must be finite")
    parts = [f"[{a},{b}]" for a, b in zip(table.left.tolist(), table.right.tolist())]
    ranks = list(map(str, table.rank.tolist()))
    sums = list(map(_fmt, table.sums.tolist()))
    ends = np.cumsum(table.counts)
    starts = ends - table.counts
    block = np.repeat(np.arange(left.size), table.counts)
    position = np.arange(block.size) - np.repeat(starts, table.counts) + 1
    middle = np.flatnonzero(table.sandwiched)
    sandwiched = [[] for _ in range(left.size)]
    for k, j in zip(block[middle].tolist(), position[middle].tolist()):
        sandwiched[k].append(str(j))
    verdicts = [""] * left.size
    if check:
        verdicts = [
            f',"check":{{"adjacent_ok":{_dumps(a)},"sandwich_ok":{_dumps(b)}}}'
            for a, b in zip(table.adjacent_ok.tolist(), table.sandwich_ok.tolist())
        ]
    return "".join(
        f'{{"parent":[{a},{b}],"parts":[{",".join(parts[i:j])}],"ranks":[{",".join(ranks[i:j])}],'
        f'"sums":[{",".join(sums[i:j])}],"sandwiched":[{",".join(sw)}]{verdict}}}\n'
        for a, b, i, j, sw, verdict in zip(
            left.tolist(), right.tolist(), starts.tolist(), ends.tolist(), sandwiched, verdicts
        )
    )


def cmd_verify_lemma512(args) -> int:
    result = lemma512_exhaustive(args.lmax)
    expected = math.comb(args.lmax + 3, 4)
    doc = {
        "lmax": args.lmax,
        "checked": result.checked,
        "expected_checked": expected,
        "counterexamples": [list(c) for c in result.counterexamples],
    }
    failed = bool(result.counterexamples) or result.checked != expected
    # "workers" stays a constant 1: bench/test_bench.py edits it to show the digest skips the manifest
    doc["manifest"] = _manifest("verify lemma512", {"lmax": args.lmax, "workers": 1})
    print(_dumps(doc))
    return 1 if failed else 0


def cmd_verify_final_ineq(args) -> int:
    value = final_inequality(args.epsilon)
    verdict = (
        "inequality fails; contradiction stands"
        if _final_inequality_negative(args.epsilon)
        else "inequality holds; no contradiction at this epsilon"
    )
    doc = {
        "epsilon": args.epsilon,
        "value": value,
        "verdict": verdict,
        "manifest": _manifest("verify final-ineq", {"epsilon": args.epsilon}),
    }
    print(_dumps(doc))
    return 0


def cmd_audit(args) -> int:
    cfg = AuditConfig(epsilon=args.epsilon, n=args.n)
    seq = ingest_and_unfold(args.input, "raw")
    report = audit(seq, cfg)
    doc = report.to_dict()
    params = {"input": str(args.input), "epsilon": args.epsilon, "n": args.n}
    doc["manifest"] = _manifest("audit", params, input_hash=seq.metadata["input_sha256"])
    print(_dumps(doc))
    return 0


def cmd_ingest(args) -> int:
    seq = ingest_and_unfold(args.input, args.mode)
    if args.normalize:
        seq = normalize_mean_gap(seq)
    write_sequence(args.output, seq)
    params = {
        "input": str(args.input),
        "mode": args.mode,
        "normalize": bool(args.normalize),
        "output": str(args.output),
    }
    doc = {
        "written": str(args.output),
        "n_points": seq.n,
        "manifest": _manifest("ingest", params, input_hash=seq.metadata["input_sha256"]),
    }
    with open(str(args.output) + ".manifest.json", "w", encoding="utf-8") as fh:
        fh.write(_dumps(doc) + "\n")
    print(_dumps(doc))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppclab",
        description="Pair-correlation statistics, gap partitions, and inequality audits.",
        epilog="Exit codes: 0 ok, 1 verified violation or failed check, 2 usage/input error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated sequence file plus manifest sidecar")
    p.add_argument("--kind", required=True, choices=["poisson", "capped", "quadratic_form"])
    p.add_argument("--n", required=True, type=int, help="number of points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=float, default=None, help="gap cap for the capped kind")
    p.add_argument("--alpha", type=float, default=math.sqrt(2.0), help="quadratic form coefficient")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "analyze",
        help="pair-correlation reports (JSON) and gap CDF samples (CSV)",
        description="Counting uses ordered pairs: intervals containing both signs "
        "count each unordered pair twice. Intervals default to half-open [lo, hi).",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=None, help="prefix length (default: all points)")
    p.add_argument(
        "--interval",
        action="append",
        metavar="LO,HI",
        help="repeatable; use --interval=-1.5,-0.5 for negative endpoints",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed", action="store_true", help="treat intervals as closed on both ends")
    group.add_argument("--open", action="store_true", help="treat intervals as open on both ends")
    p.add_argument("--cdf-grid", metavar="LO:HI:STEP", help="emit gap CDF samples on this grid")
    p.add_argument("--cdf-out", default=None, help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("partition", help="greedy partition of each maximal low-gap block (JSON per block)")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, default=None, help="number of gaps to use (default: all)")
    p.add_argument("--threshold", type=float, default=0.5, help="block threshold; also caps each part's sum")
    p.add_argument("--check", action="store_true", help="verify cross-pair lower bounds; exit 1 on violation")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="inequality verifiers")
    vsub = p.add_subparsers(dest="verify_command", required=True)

    v = vsub.add_parser("lemma512", help="exhaustive integer sweep of the quadratic lower bound")
    v.add_argument("--lmax", required=True, type=int)
    v.set_defaults(func=cmd_verify_lemma512)

    v = vsub.add_parser("final-ineq", help="evaluate the closing epsilon inequality")
    v.add_argument("--epsilon", required=True, type=float)
    v.set_defaults(func=cmd_verify_final_ineq)

    p = sub.add_parser("audit", help="finite-N evaluation of the whole inequality chain (JSON)")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", required=True, type=float)
    p.add_argument("--n", required=True, type=int)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ingest", help="read, validate, optionally unfold, and rewrite a sequence file")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["raw", "zeta_unfold"], default="raw")
    p.add_argument("--normalize", action="store_true", help="rescale to mean gap 1 after ingestion")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an input error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
