"""Traced in-process replay of one ppclab CLI invocation.

Usage: python3 bench/replay.py SPANS_OUT CLI_ARG...

Wraps each public library function the CLI calls, in every loaded ppclab
module that refers to it, then runs ``ppclab.cli.main(CLI_ARGS)`` in this
process, so the calls happen in the CLI's own order.  Every call records a
span (name, start, end, parent) and a few counters read from its result.
Spans stay in memory until ``main`` returns; they are then written to
SPANS_OUT (.npz), and the process exits with ``main``'s code.
The program's stdout is untouched.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
from time import perf_counter

import numpy as np

import ppclab.cli

TRACED = (
    "ingest_and_unfold",
    "gaps_of",
    "pair_correlation",
    "gap_cdf",
    "multi_gap_count",
    "maximal_blocks",
    "greedy_partition",
    "sandwiched_indices",
    "verify_adjacent_bound",
    "verify_sandwich_bound",
    "audit",
    "lemma512_exhaustive",
    "main",
)


class Tracer:
    """Spans as (id, name, parent id, start, end) tuples; the root's parent is -1.

    A span is appended when its call returns, so children precede their
    parent; ids follow call order.  ``facts`` collects, per traced function,
    what its counter read from each call's result.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, float, float]] = []
        self.stack = [-1]
        self.ids = itertools.count()
        self.facts: dict[str, list] = {}
        self.lemma_cpu: list[tuple[float, int]] = []  # (CPU seconds, workers) per sweep

    def wrap(self, fn, count=None):
        name_id = len(self.names)
        self.names.append(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}")
        stack, spans, ids = self.stack, self.spans, self.ids
        facts = self.facts.setdefault(fn.__name__, []).append

        def traced(*args, **kwargs):
            idx = next(ids)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((idx, name_id, parent, t0, t1))
            if count is not None:
                facts(count(result))
            return result

        return traced

    def counters(self) -> dict:
        """Totals over the recorded facts."""
        f = self.facts
        greedy = f.get("greedy_partition", [])
        bounds = f.get("verify_adjacent_bound", []) + f.get("verify_sandwich_bound", [])
        return {
            "points_ingested": sum(f.get("ingest_and_unfold", [])),
            "pair_points": sum(n for n, _ in f.get("pair_correlation", [])),
            "windows_counted": sum(f.get("multi_gap_count", [])),
            "blocks": sum(f.get("maximal_blocks", [])),
            "greedy_blocks": len(greedy),
            "parts": sum(size for _, size, _ in greedy),
            "single_part_blocks": sum(1 for _, size, _ in greedy if size == 1),
            "partitioned_gaps": sum(length for length, _, _ in greedy),
            "max_block_len": max((length for length, _, _ in greedy), default=0),
            "rescan_positions": sum(rescan for _, _, rescan in greedy),
            "bound_checks": len(bounds),
            "bound_violations": bounds.count(False),
            "lemma_tuples": sum(f.get("lemma512_exhaustive", [])),
            "lemma_cpu_s": sum(cpu for cpu, _ in self.lemma_cpu),
            "lemma_workers": max((workers for _, workers in self.lemma_cpu), default=1),
        }

    def dump(self, path) -> None:
        """Write the spans as a (k, 5) float array and the rest as JSON, in one .npz."""
        meta = {
            "names": self.names,
            "counters": self.counters(),
            "pair_counts": [count for _, count in self.facts.get("pair_correlation", [])],
        }
        spans = np.array(self.spans, dtype=float).reshape(-1, 5)
        with open(path, "wb") as fh:
            np.savez(fh, spans=spans, meta=np.array(json.dumps(meta)))


def _cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rescan(p) -> int:
    """Positions of the block still unpicked at each pick, summed over picks."""
    remaining = p.parent.length
    total = 0
    for _, part in sorted(zip(p.selection_rank, p.parts)):
        total += remaining
        remaining -= part.length
    return total


def _greedy_fact(p):
    length, size = p.parent.length, p.size
    return length, size, length if size == 1 else _rescan(p)


COUNTERS = {
    "ingest_and_unfold": lambda seq: seq.n,
    "pair_correlation": lambda report: (report.n, report.pair_count),
    "multi_gap_count": lambda total: total,
    "maximal_blocks": lambda blocks: len(blocks.blocks),
    "greedy_partition": _greedy_fact,
    "verify_adjacent_bound": lambda check: check.ok,
    "verify_sandwich_bound": lambda check: check.ok,
    "lemma512_exhaustive": lambda result: result.checked,
}


def _with_cpu(fn, tracer):
    """``lemma512_exhaustive`` that also records the CPU time of it and its workers."""

    def lemma512_exhaustive(l_max, workers=1):
        before = _cpu_s()
        result = fn(l_max, workers=workers)
        tracer.lemma_cpu.append((_cpu_s() - before, workers))
        return result

    lemma512_exhaustive.__module__ = fn.__module__
    return lemma512_exhaustive


def install(tracer: Tracer) -> None:
    """Replace every reference to a traced function in the loaded ppclab modules."""
    modules = [m for key, m in sorted(sys.modules.items()) if key.partition(".")[0] == "ppclab"]
    originals = {}
    for module in modules:
        for attr in TRACED:
            fn = getattr(module, attr, None)
            if callable(fn) and fn.__module__.startswith("ppclab"):
                originals.setdefault(id(fn), (attr, fn))
    wrapped = {}
    for key, (attr, fn) in originals.items():
        inner = _with_cpu(fn, tracer) if attr == "lemma512_exhaustive" else fn
        wrapped[key] = tracer.wrap(inner, COUNTERS.get(attr))
    for module in modules:
        for attr in TRACED:
            fn = getattr(module, attr, None)
            if id(fn) in wrapped:
                setattr(module, attr, wrapped[id(fn)])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: replay.py SPANS_OUT CLI_ARG...", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    code = ppclab.cli.main(argv[1:])
    sys.stdout.flush()
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
