"""The benchmark's own test.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
Quick mode runs all four workloads once at small sizes; the tampering tests
show that the output checks reject a wrong output.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_quick_run_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] == 2 * len(spec["workloads"])  # one untraced run and one replay each

    units = {}
    for line in report:
        fields = line.split()
        if len(fields) >= 4:
            units[fields[0], fields[1]] = (fields[2], fields[3])
    metrics = spec["end_to_end"] + spec["per_layer"] + [{"name": "fail_frac", "unit": "ratio"}]
    for workload in spec["workloads"]:
        for metric in metrics:
            value, unit = units[workload["name"], metric["name"]]
            assert unit == metric["unit"], (workload["name"], metric["name"])
            float(value)
        assert float(units[workload["name"], "fail_frac"][0]) == 0.0
        for metric in spec["per_layer"]:
            printed = result["metrics"][f"{workload['name']}.{metric['name']}"]
            assert printed["unit"] == metric["unit"]

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _output(tmp_path, workload: str, size: int) -> tuple[bytes, Path]:
    path = tmp_path / "input.txt"
    if run.WORKLOADS[workload].needs_input:
        subprocess.run([sys.executable, "-m", "ppclab.cli", "generate", "--kind", "poisson",
                        "--n", str(size), "--seed", "3", "-o", str(path)],
                       env=ENV, check=True, capture_output=True)
    args = run.WORKLOADS[workload].cli_args(size, str(path))
    proc = subprocess.run([sys.executable, "-m", "ppclab.cli", *args], env=ENV, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, path


def _library_pair_counts(path: Path, n: int) -> list[int]:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from ppclab import Interval, ingest_and_unfold, pair_correlation
    finally:
        sys.path.pop(0)
    seq = ingest_and_unfold(path)
    return [pair_correlation(seq, Interval(lo, hi), n).pair_count for lo, hi in checks.ANALYZE_INTERVALS]


def _tamper(out: bytes, pattern: bytes, replace) -> bytes:
    tampered, hits = re.subn(pattern, replace, out, count=1)
    assert hits == 1
    return tampered


@pytest.mark.parametrize(
    "workload, size, pattern, replace",
    [
        ("analyze-1e6", 3000, rb'"pair_count":(\d+)', lambda m: b'"pair_count":%d' % (int(m[1]) + 1)),
        ("partition-check", 3000, rb'"sandwich_ok":true', b'"sandwich_ok":false'),
        ("audit-1e6", 3000, rb'"block_count":(\d+)', lambda m: b'"block_count":%d' % (int(m[1]) - 1)),
        ("lemma-sweep", 12, rb'"counterexamples":\[\]', b'"counterexamples":[[1,1,1,12]]'),
    ],
)
def test_tampered_output_fails_the_check(tmp_path, workload, size, pattern, replace):
    out, path = _output(tmp_path, workload, size)
    needs_input = run.WORKLOADS[workload].needs_input
    ref = checks.Reference(
        size=size - 1 if workload == "audit-1e6" else size,
        gaps=checks.read_gaps(path) if needs_input else None,
        pair_counts=_library_pair_counts(path, size) if workload == "analyze-1e6" else None,
    )
    problems, digest = checks.check_output(workload, out, ref)
    assert problems == [] and ref.digest == digest
    problems, _ = checks.check_output(workload, _tamper(out, pattern, replace), ref)
    assert len(problems) >= 2  # the structural check and the digest both object


def test_manifest_is_left_out_of_the_digest(tmp_path):
    out, path = _output(tmp_path, "lemma-sweep", 12)
    ref = checks.Reference(size=12)
    _, digest = checks.check_output("lemma-sweep", out, ref)
    moved = _tamper(out, rb'"workers":\d+', b'"workers":99')
    assert checks.check_output("lemma-sweep", moved, ref) == ([], digest)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit-1e6", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
