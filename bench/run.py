#!/usr/bin/env python3
"""Benchmark of the ppclab CLI on four fixed workloads.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]

NAME is one of audit-1e6, analyze-1e6, partition-check, lemma-sweep, or
``all`` for the four in turn.  Each workload runs as a fresh
``python3 -m ppclab.cli`` child with the checkout's ``src`` on the path,
one child at a time (a closed loop with one client), for at least S
seconds.  Each child's stdout is drained while it runs and checked after it
exits (see checks.py); a child with an unexpected exit code, a timeout or a
failed check counts as failed.  Inputs come from ``ppclab generate`` seeded
by ``--seed`` and are written before any timing starts.  Children run
without PPC_LAB_THREADS, so lemma-sweep uses its default worker count.

End-to-end metrics come from the untraced children.  ``--trace 1`` adds one
traced replay (replay.py) of the same invocation, whose spans give the
per-layer metrics; its spans are kept in .bench_work/.  ``--quick`` shrinks
every input and runs each workload once, for the benchmark's own test.

The report starts with the python and numpy versions, CPU count, git sha
and load averages, then lists every metric as ``<workload> <metric> <value>
<unit>`` with quartiles and sample count.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    ANALYZE_CDF_GRID,
    ANALYZE_INTERVALS,
    DIGESTS,
    PARTITION_THRESHOLD,
    Reference,
    check_output,
    read_gaps,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 7
SETUP_REPEATS, SETUP_MIN_S = 3, 2.0  # set up at least this often and this long
CHILD_TIMEOUT_S = 100.0
RUN_BUDGET_S = 170.0  # every child is killed before its workload has run this long


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; ``size`` is Poisson points, or l_max for lemma-sweep."""

    name: str
    size: int
    quick_size: int
    needs_input: bool = True
    replay_always: bool = False  # the output check needs the replay's library counts

    def cli_args(self, size: int, path: str) -> list[str]:
        if self.name == "audit-1e6":
            return ["audit", "--input", path, "--epsilon", "1e-9", "--n", str(size - 1)]
        if self.name == "analyze-1e6":
            intervals = [f"--interval={lo:g},{hi:g}" for lo, hi in ANALYZE_INTERVALS]
            return ["analyze", "--input", path, *intervals, "--cdf-grid", ANALYZE_CDF_GRID]
        if self.name == "partition-check":
            return ["partition", "--input", path, "--threshold", f"{PARTITION_THRESHOLD:g}", "--check"]
        return ["verify", "lemma512", "--lmax", str(size)]

    def items(self, size: int) -> int:
        """Gaps in the input, or integer tuples swept by lemma-sweep."""
        return size - 1 if self.needs_input else math.comb(size + 3, 4)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit-1e6", 10**6, 20_000),
        Workload("analyze-1e6", 10**6, 20_000, replay_always=True),
        Workload("partition-check", 4 * 10**5, 8_000),
        Workload("lemma-sweep", 240, 40, needs_input=False),
    )
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "stdout_bytes": "B",
}

PER_LAYER = {
    "sequences.ingest_s": "s",
    "sequences.ingest_points_per_s": "1/s",
    "sequences.gaps_s": "s",
    "correlation.pair_correlation_s": "s",
    "correlation.pair_correlation_calls": "count",
    "correlation.pair_ns_per_point": "ns",
    "correlation.gap_cdf_s": "s",
    "correlation.gap_cdf_calls": "count",
    "correlation.multi_gap_count_s": "s",
    "correlation.multi_gap_count_calls": "count",
    "correlation.windows_counted": "count",
    "partition.maximal_blocks_s": "s",
    "partition.greedy_s": "s",
    "partition.blocks": "count",
    "partition.parts": "count",
    "partition.bounds_s": "s",
    "partition.bound_checks": "count",
    "partition.bound_violations": "count",
    "partition.max_block_len": "count",
    "partition.single_part_frac": "ratio",
    "partition.rescan_per_gap": "ratio",
    "verifier.audit_s": "s",
    "verifier.audit_self_s": "s",
    "verifier.lemma_s": "s",
    "verifier.lemma_tuples": "count",
    "verifier.lemma_parallel_eff": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: bytes
    code: int | None  # None when the child was killed at its timeout
    err: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PPC_LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], timeout: float) -> ChildRun:
    """Run one command through spawn.py, draining its stdout while it runs.

    Wall, CPU and peak RSS come from spawn.py's ``os.wait4``.  The command
    runs in its own process group, which is killed at the timeout.
    """
    report = WORK / "child.report.json"
    report.unlink(missing_ok=True)
    with open(WORK / "child.stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "spawn.py"), str(report), *argv],
                                stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT,
                                start_new_session=True)
        chunks = []
        reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
        reader.start()
        pidfd = os.pidfd_open(proc.pid)
        exited = False
        try:
            exited = bool(select.select([pidfd], [], [], max(timeout, 0.0))[0])
        finally:
            if not exited:  # the timeout passed, or the benchmark was interrupted
                os.killpg(proc.pid, signal.SIGKILL)
            os.close(pidfd)
        proc.wait()
        reader.join()
        wall = time.perf_counter() - t0
        proc.stdout.close()
        err.seek(0)
        message = err.read().decode("utf-8", "replace")[-2000:]
    out = chunks[0] if chunks else b""
    if not exited:
        return ChildRun(wall, 0.0, 0.0, out, None, message)
    if proc.returncode != 0 or not report.exists():  # spawn.py itself failed
        return ChildRun(wall, 0.0, 0.0, out, proc.returncode or 1, message)
    usage = json.loads(report.read_text())
    return ChildRun(
        wall_s=usage["wall_s"],
        cpu_s=usage["cpu_s"],
        rss_mb=usage["maxrss_kib"] / 1024.0,
        out=out,
        code=usage["code"],
        err=message,
    )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "ppclab.cli", *args]


class Harness:
    """State of one benchmark invocation: counts, report lines, and the
    current workload's start, from which every child's timeout is cut."""

    def __init__(self):
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lines: list[str] = []

    def timeout(self) -> float:
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        return min(CHILD_TIMEOUT_S, left)

    def outcome(self, label: str, run: ChildRun, problems: list[str]) -> bool:
        """Count one checked run; return whether it passed."""
        self.attempted += 1
        if run.code is None:
            problems = [f"{label}: timed out after {run.wall_s:.1f} s"] + problems
        elif run.code != 0:
            problems = [f"{label}: exit code {run.code}: {run.err.strip()[-500:]}"] + problems
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return not problems

    def report(self, workload: str, metric: str, values, unit: str) -> float:
        value = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (value, value, value)
        self.lines.append(f"{workload} {metric} {value:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        return value


def set_up(harness: Harness, w: Workload, size: int, seed: int) -> tuple[Path | None, list[float]]:
    """Set the workload up repeatedly, timing each set-up.

    One set-up is a fresh interpreter that imports ppclab.cli and, for the
    file workloads, generates the input file; the last copy is the input.
    """
    path = (WORK / f"poisson-{size}-{seed}.txt").relative_to(ROOT) if w.needs_input else None
    if path is None:
        argv = [sys.executable, "-c", "import ppclab.cli"]
    else:
        argv = cli("generate", "--kind", "poisson", "--n", str(size), "--seed", str(seed), "-o", str(path))
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        run = run_child(argv, harness.timeout())
        if run.code != 0:
            raise RuntimeError(f"set-up {' '.join(argv[1:])} failed with code {run.code}: {run.err.strip()}")
        times.append(run.wall_s)
    return path, times


def replay(harness: Harness, w: Workload, args: list[str], ref: Reference) -> tuple[ChildRun, dict]:
    """Run the traced replay and check its stdout like any other run's."""
    spans_path = WORK / f"spans-{w.name}.npz"
    spans_path.unlink(missing_ok=True)
    run = run_child([sys.executable, str(HERE / "replay.py"), str(spans_path), *args],
                    harness.timeout())
    trace = load_spans(spans_path) if run.code == 0 and spans_path.exists() else None
    if trace is not None and w.replay_always:
        ref.pair_counts = trace["pair_counts"]
    problems, _ = check_output(w.name, run.out, ref)
    if trace is None:
        problems.append(f"{w.name}: traced replay wrote no spans")
    harness.outcome(f"{w.name} replay", run, problems)
    return run, trace


def load_spans(path: Path) -> dict:
    with np.load(path) as data:
        trace = json.loads(str(data["meta"]))
        trace["spans"] = data["spans"]
    return trace


def layer_metrics(trace: dict, traced_wall: float, wall: float) -> dict[str, float]:
    """Per-layer metrics from the replay's spans and counters."""
    names = trace["names"]
    spans = trace["spans"]
    order = np.argsort(spans[:, 0])  # row k is now span id k
    name = spans[order, 1].astype(np.int64)
    parent = spans[order, 2].astype(np.int64)
    dur = spans[order, 4] - spans[order, 3]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    c = trace["counters"]

    def mask(span: str) -> np.ndarray:
        return name == names.index(span) if span in names else np.zeros(dur.size, dtype=bool)

    def total(span: str) -> float:
        return float(dur[mask(span)].sum())

    def calls(span: str) -> int:
        return int(np.count_nonzero(mask(span)))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pair_s = total("correlation.pair_correlation")
    lemma_s = total("verifier.lemma512_exhaustive")
    return {
        "sequences.ingest_s": total("sequences.ingest_and_unfold"),
        "sequences.ingest_points_per_s": ratio(c["points_ingested"], total("sequences.ingest_and_unfold")),
        "sequences.gaps_s": total("sequences.gaps_of"),
        "correlation.pair_correlation_s": pair_s,
        "correlation.pair_correlation_calls": calls("correlation.pair_correlation"),
        "correlation.pair_ns_per_point": ratio(1e9 * pair_s, c["pair_points"]),
        "correlation.gap_cdf_s": total("correlation.gap_cdf"),
        "correlation.gap_cdf_calls": calls("correlation.gap_cdf"),
        "correlation.multi_gap_count_s": total("correlation.multi_gap_count"),
        "correlation.multi_gap_count_calls": calls("correlation.multi_gap_count"),
        "correlation.windows_counted": c["windows_counted"],
        "partition.maximal_blocks_s": total("partition.maximal_blocks"),
        "partition.greedy_s": total("partition.greedy_partition"),
        "partition.blocks": c["blocks"],
        "partition.parts": c["parts"],
        "partition.bounds_s": total("partition.verify_adjacent_bound") + total("partition.verify_sandwich_bound"),
        "partition.bound_checks": c["bound_checks"],
        "partition.bound_violations": c["bound_violations"],
        "partition.max_block_len": c["max_block_len"],
        "partition.single_part_frac": ratio(c["single_part_blocks"], c["greedy_blocks"]),
        "partition.rescan_per_gap": ratio(c["rescan_positions"], c["partitioned_gaps"]),
        "verifier.audit_s": total("verifier.audit"),
        "verifier.audit_self_s": float(self_time[mask("verifier.audit")].sum()),
        "verifier.lemma_s": lemma_s,
        "verifier.lemma_tuples": c["lemma_tuples"],
        "verifier.lemma_parallel_eff": ratio(c["lemma_cpu_s"], lemma_s * c["lemma_workers"]),
        "cli.main_s": total("cli.main"),
        "cli.self_s": float(self_time[mask("cli.main")].sum()),
        "trace.overhead_frac": ratio(traced_wall, wall) - 1.0,
    }


def run_workload(harness: Harness, w: Workload, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """Set up, measure and check one workload; return the metrics to print as JSON."""
    harness.started = time.perf_counter()
    size = w.quick_size if quick else w.size
    path, setup_times = set_up(harness, w, size, seed)
    args = w.cli_args(size, str(path))
    ref = Reference(
        size=size - 1 if w.name == "audit-1e6" else size,
        gaps=read_gaps(ROOT / path) if path else None,
        digest=DIGESTS.get(f"{w.name}@{'quick' if quick else 'full'}") if seed == DEFAULT_SEED else None,
    )
    attempted, failed = harness.attempted, harness.failed
    traced = None
    if trace or w.replay_always:
        traced = replay(harness, w, args, ref)

    passed, digests = [], set()
    started = time.perf_counter()
    while True:
        run = run_child(cli(*args), harness.timeout())
        problems, digest = check_output(w.name, run.out, ref)
        sample = (run.wall_s, run.cpu_s, run.rss_mb, float(len(run.out)))
        if harness.outcome(w.name, run, problems):
            passed.append(sample)
        digests.add(digest)
        if time.perf_counter() - started >= seconds or harness.timeout() <= 0:
            break
    if path is not None:
        (ROOT / path).unlink(missing_ok=True)
        (ROOT / f"{path}.manifest.json").unlink(missing_ok=True)

    walls, cpus, rss, out_bytes = zip(*(passed or [sample]))  # all failed: report the last run
    values = {
        "wall_s": walls,
        "cpu_s": cpus,
        "items_per_s": [w.items(size) / t for t in walls],
        "peak_rss_mb": rss,
        "setup_s": setup_times,
        "stdout_bytes": out_bytes,
    }
    e2e = {m: harness.report(w.name, m, values[m], unit) for m, unit in END_TO_END.items()}
    attempted, failed = harness.attempted - attempted, harness.failed - failed
    harness.lines.append(f"{w.name} fail_frac {failed / attempted:.6g} ratio "
                         f"({failed} of {attempted} runs failed, traced replay included)")
    harness.lines.append(f"{w.name} digest {' '.join(sorted(digests))}")
    if not trace:
        return e2e
    run, spans = traced
    if spans is None:
        return dict.fromkeys(PER_LAYER, 0.0)
    layers = layer_metrics(spans, run.wall_s, e2e["wall_s"])
    for m, unit in PER_LAYER.items():
        harness.lines.append(f"{w.name} {m} {layers[m]:.6g} {unit}")
    return layers


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    return (
        f"env python {platform.python_version()} numpy {importlib.metadata.version('numpy')} "
        f"nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} git {git_sha()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the ppclab CLI on fixed workloads.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="input generator seed (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: report per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="small inputs, one run per workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ppclab" / "cli.py").is_file():
        print(f"error: no ppclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 64-bit integer")

    WORK.mkdir(exist_ok=True)
    harness = Harness()
    harness.lines.append(environment() + f" load {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    try:
        for name in names:
            found = run_workload(harness, WORKLOADS[name], args.seed, 0.0 if args.quick else args.seconds,
                                 bool(args.trace), args.quick)
            prefix = f"{name}." if args.workload == "all" else ""
            units = PER_LAYER if args.trace else END_TO_END
            metrics.update({prefix + m: {"value": v, "unit": units[m]} for m, v in found.items()})
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    harness.lines.append(f"env load after {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    for line in harness.lines:
        print(line)
    for problem in harness.problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
