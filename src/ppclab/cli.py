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

import os
import sys

# ppclab makes no BLAS call, so numpy's OpenBLAS need start no worker thread (about 0.07 s of CPU at
# start-up); a value the user set wins, and a process that has loaded numpy already is left as it is
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .correlation import Interval, _PairPass, pair_correlation
from .partition import _STREAM_STEP, _partition_table, _PrefixStream
from .sequences import (
    GeneratorConfig,
    _check_gaps,
    _format17,
    _ingested,
    _replacing,
    _Spill,
    _stream,
    generate,
    write_sequence,
)
from .verifier import (
    AuditConfig,
    _audit_values,
    _final_inequality_negative,
    final_inequality,
    lemma512_exhaustive,
)

# after numpy and ppclab's modules, as when the package loaded them all first: imported before numpy,
# these leave the process about 0.25 MB larger in resident memory
import argparse
import contextlib
import json
import math
from dataclasses import asdict


CDF_GRID_MAX_POINTS = 10**6  # --cdf-grid rows; a larger or non-finite grid is rejected, not looped over
CDF_ROWS = 4096  # --cdf-grid rows written at a time: bounds the text held at once
PARTITION_CHUNK = 4096  # blocks per partition table: bounds the arrays and the text held at once
PARTITION_FORMAT = 1024  # blocks per % call: bounds the Python ints and floats, and the text, held at once


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _dumps(obj) -> str:
    """Deterministic one-line JSON with 17-significant-digit floats; nan and inf raise ValueError."""
    if obj is None or isinstance(obj, (bool, str)):
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


def _grid_points(lo: float, step: float, end: float):
    """The points lo + k*step of a ``--cdf-grid``, k = 0, 1, ..., while <= end."""
    k, x = 0, lo
    while x <= end:
        yield x
        k += 1
        x = lo + k * step


def cmd_generate(args) -> int:
    cfg = GeneratorConfig(
        kind=args.kind,
        n_points=args.n,
        seed=args.seed,
        cap=args.cap,
        alpha=args.alpha,
    )
    seq = generate(cfg)
    params = {"kind": args.kind, "n": args.n, "cap": args.cap, "alpha": args.alpha, "output": str(args.output)}
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
    intervals = [_parse_interval(text, not args.open, args.closed) for text in args.interval or []]  # default [lo, hi)
    xs = np.fromiter(_grid_points(*grid), float) if grid else np.empty(0)
    # one pass over the file, which holds a chunk of it: every error comes after the last chunk
    counts, input_hash = _stream(args.input, "raw", _PairPass(intervals, args.n, xs).run)
    n = args.n if args.n is not None else counts.points
    if not 1 <= n <= counts.points:
        raise ValueError(f"--n must lie in 1..{counts.points} (the points in the input), got {n}")
    if grid and counts.points < 2:
        raise ValueError("--cdf-grid needs at least 2 points to form gaps")
    params = {"input": str(args.input), "n": n, "intervals": list(args.interval or []), "closed": bool(args.closed),
              "open": bool(args.open), "cdf_grid": args.cdf_grid}
    manifest = _manifest("analyze", params, input_hash=input_hash)
    # the CSV's file is made before anything is printed, and replaces --cdf-out only once it is written whole
    to_file = grid and args.cdf_out
    with _replacing(args.cdf_out, "w", encoding="utf-8") if to_file else contextlib.nullcontext(sys.stdout) as fh:
        for interval in intervals:
            report = pair_correlation(counts, interval, n)
            print(_dumps({**asdict(interval), "n": report.n, "pair_count": report.pair_count,
                          "r_value": report.r_value, "manifest": manifest}))
        if grid:
            _check_gaps(np.array([counts.first, counts.last]))  # the span error of gaps_of
            m, below = min(n, counts.points - 1), counts.below
            fh.write("x,F\n")
            for a in range(0, xs.size, CDF_ROWS):  # the text of CDF_ROWS rows at a time
                rows = zip(xs[a : a + CDF_ROWS].tolist(), below[a : a + CDF_ROWS].tolist())
                fh.write("".join(f"{_fmt(x)},{_fmt(k / m)}\n" for x, k in rows))
    return 0


def cmd_partition(args) -> int:
    violation = False

    def write(left, right, end):
        """Write the blocks that closed in tables of at most ``PARTITION_CHUNK``; the first prefix index still needed."""
        nonlocal violation
        p, base = stream.held, stream.base
        for first in range(0, left.size, PARTITION_CHUNK):
            a, b = left[first : first + PARTITION_CHUNK], right[first : first + PARTITION_CHUNK]
            table = _partition_table(p, a - base, b - base, args.threshold)  # every block gap fits a part alone
            table = table._replace(left=table.left + base, right=table.right + base)
            sys.stdout.writelines(_partition_documents(table, a, b, args.check))
            violation = violation or not (table.adjacent_ok.all() and table.sandwich_ok.all())
        return stream.n

    with _Spill(args.input, "raw") as spill:  # one read: every error comes before the manifest, with its hash
        _check_gaps(np.array([spill.first, spill.last][: spill.count]))  # gaps_of's: one point, or the span
        n = spill.count - 1 if args.n is None else args.n
        stream = _PrefixStream(args.threshold, n, write)
        if n < 0 or n > spill.count - 1:
            raise ValueError(f"n={n} out of range 0..{spill.count - 1}")
        params = {"input": str(args.input), "n": n, "threshold": args.threshold, "check": bool(args.check)}
        print(_dumps({"manifest": _manifest("partition", params, input_hash=spill.sha256)}))
        for values in spill.chunks(_STREAM_STEP):
            stream.values(values)
        stream.end()
    return 1 if args.check and violation else 0


def _partition_documents(table, left, right, check: bool):
    """Yield one partition table's block documents, byte for byte as ``_dumps`` writes them.

    Every value is laid out in print order, and one ``%`` formats those of
    ``PARTITION_FORMAT`` blocks at a time, integers as ints and sums as
    floats, into the text it yields: so the Python objects and the text
    held at once stay bounded.  Its template is joined from one piece per
    block, built once for each block shape in the table: the part count,
    the sandwiched count and, with ``check``, the two bound verdicts.  A
    non-finite sum raises ``ValueError`` before any text, as in ``_dumps``.
    """
    finite = np.isfinite(table.sums)
    if not finite.all():
        raise ValueError(f"{float(table.sums[~finite][0])!r} has no JSON form: values must be finite")
    counts = table.counts
    ends = np.cumsum(counts)
    starts = ends - counts
    middle = np.flatnonzero(table.sandwiched)
    middle_block = np.searchsorted(ends, middle, side="right")
    widths = np.bincount(middle_block, minlength=left.size)  # sandwiched parts per block
    sizes = 2 + 4 * counts + widths  # parent, parts, ranks, sums, sandwiched
    edges = np.cumsum(sizes)
    offset = edges - sizes  # each block's first value
    values = np.zeros(int(sizes.sum()), dtype=np.int64)  # the sums' places stay 0 here
    values[offset] = left
    values[offset + 1] = right
    part = np.arange(table.left.size) - np.repeat(starts, counts)  # 0-based within its block
    base = np.repeat(offset + 2, counts)  # the first value after its block's parent
    size = np.repeat(counts, counts)
    values[base + 2 * part] = table.left
    values[base + 2 * part + 1] = table.right
    values[base + 2 * size + part] = table.rank
    sums_at = base + 3 * size + part
    listed = np.arange(middle.size) - np.repeat(np.cumsum(widths) - widths, widths)  # 0-based within its block
    values[(offset + 2 + 4 * counts)[middle_block] + listed] = part[middle] + 1

    # a block's shape packed in one int: parts from bit 33, sandwiched parts from bit 2, then the two
    # verdicts; np.unique of ints costs far less than np.unique of rows
    shape = (counts.astype(np.int64) << 33) | (widths.astype(np.int64) << 2)
    if check:
        shape |= table.adjacent_ok.astype(np.int64) << 1
        shape |= table.sandwich_ok.astype(np.int64)
    shapes, block_shape = np.unique(shape, return_inverse=True)
    pieces = np.array([_document_piece(code, check) for code in shapes.tolist()], dtype=object)[block_shape]
    for a in range(0, left.size, PARTITION_FORMAT):
        b = min(a + PARTITION_FORMAT, left.size)
        chunk = values[offset[a] : edges[b - 1]].astype(object)
        chunk[sums_at[starts[a] : ends[b - 1]] - offset[a]] = table.sums[starts[a] : ends[b - 1]]
        yield "".join(pieces[a:b].tolist()) % tuple(chunk.tolist())


def _document_piece(shape: int, check: bool) -> str:
    """The ``%`` template of one block document of the shape ``_partition_documents`` packs."""
    parts, sandwiched = shape >> 33, (shape >> 2) & ((1 << 31) - 1)
    verdict = ""
    if check:
        verdict = f',"check":{{"adjacent_ok":{_dumps(bool(shape & 2))},"sandwich_ok":{_dumps(bool(shape & 1))}}}'
    return (
        '{"parent":[%d,%d],"parts":[' + ",".join(["[%d,%d]"] * parts)
        + '],"ranks":[' + ",".join(["%d"] * parts)
        + '],"sums":[' + ",".join(["%.17g"] * parts)
        + '],"sandwiched":[' + ",".join(["%d"] * sandwiched)
        + "]" + verdict + "}\n"
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
    # one pass over the file: the audit holds a chunk of it, and every error comes before any output
    report, input_hash = _stream(args.input, "raw", lambda chunks: _audit_values(chunks, cfg))
    doc = report.to_dict()
    params = {"input": str(args.input), "epsilon": args.epsilon, "n": args.n}
    doc["manifest"] = _manifest("audit", params, input_hash=input_hash)
    print(_dumps(doc))
    return 0


def cmd_ingest(args) -> int:
    with _Spill(args.input, args.mode) as spill:  # one read: the file's errors come first, then the values'
        chunks = _ingested(spill, args.mode, args.normalize)  # all but a normalized non-increase raise here
        with _replacing(args.output) as fh:  # an error leaves --output as it was
            for values in chunks:
                fh.write(_format17(values))
    params = {
        "input": str(args.input),
        "mode": args.mode,
        "normalize": bool(args.normalize),
        "output": str(args.output),
    }
    doc = {
        "written": str(args.output),
        "n_points": spill.count,
        "manifest": _manifest("ingest", params, input_hash=spill.sha256),
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
