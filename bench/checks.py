"""Output checks for the benchmark workloads.

Each check reads a finished child's stdout and returns a list of problems
(empty when the output is correct).  Two kinds of check apply:

* structural checks that hold for every seed, against references the
  benchmark derives from the generated input with plain numpy;
* a SHA-256 digest of the output with every ``manifest`` field stripped,
  compared for the default seed with the digest recorded in
  ``digests.json``, and for any seed with the first correct run's digest,
  so that every run on one input, traced or not, prints the same.  Stripping keeps
  temporary paths, worker counts and a header-only manifest out of the
  digest.  JSON documents are hashed in canonical form (sorted keys,
  shortest float repr), other lines verbatim.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())

ANALYZE_INTERVALS = ((0.0, 1.0), (0.25, 0.75), (-2.0, 2.0))
ANALYZE_CDF_GRID, ANALYZE_CDF_POINTS = "0:4:0.02", 201
AUDIT_BUDGET = 0.5
AUDIT_STEPS = ["density", "multigap", "partition_mass", "bias", "final_inequality"]
PARTITION_THRESHOLD = 2.0


@dataclass
class Reference:
    """What a workload's output is checked against.

    ``gaps`` are the input's consecutive differences, computed the way
    ``gaps_of`` computes them.  ``pair_counts`` are the library's counts
    recorded by the traced replay (analyze only).  ``digest`` is the
    expected output digest; when unset, the first output that passes the
    structural checks sets it.  ``verdicts`` holds each distinct output's
    result by the SHA-256 of its bytes, so a byte-identical repeat is not
    parsed again.
    """

    size: int
    gaps: np.ndarray | None = None
    pair_counts: list[int] | None = None
    digest: str | None = None
    verdicts: dict = field(default_factory=dict)


def read_gaps(path) -> np.ndarray:
    """Gaps of a generated sequence file, parsed with ``float`` as ingest does."""
    with open(path, encoding="utf-8") as fh:
        values = np.array([float(tok) for tok in fh.read().split()])
    return np.diff(values)


def low_runs(gaps: np.ndarray, threshold: float) -> np.ndarray:
    """Maximal 1-based runs [left, right] of gaps <= threshold, as a (k, 2) array."""
    mask = np.concatenate(([False], gaps <= threshold, [False]))
    edges = np.flatnonzero(np.diff(mask.astype(np.int8)))
    runs = edges.reshape(-1, 2)
    return np.column_stack((runs[:, 0] + 1, runs[:, 1]))


def _items(out: bytes, digest):
    """Yield each stdout line: a JSON object without its manifest, or a text line.

    Every yielded line is also fed to ``digest``; a document that held only
    a manifest is skipped.
    """
    for raw in out.splitlines():
        text = raw.decode("utf-8")
        if text.startswith("{"):
            doc = json.loads(text)
            doc.pop("manifest", None)
            if not doc:
                continue
            digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
            yield doc
        else:
            digest.update(raw + b"\n")
            yield text


def _check_audit(items, ref: Reference) -> list[str]:
    docs = list(items)
    if len(docs) != 1 or not isinstance(docs[0], dict):
        return [f"audit: expected one JSON document, got {len(docs)} lines"]
    doc = docs[0]
    g = ref.gaps[: ref.size]
    low = g <= AUDIT_BUDGET
    expected = {
        "n_used": ref.size,
        "max_gap": float(g.max()),
        "density_lhs": int(np.count_nonzero(low)) / ref.size,
        "block_count": len(low_runs(g, AUDIT_BUDGET)),
        "total_block_length": int(np.count_nonzero(low)),
    }
    problems = [
        f"audit: {key} is {doc.get(key)!r}, expected {want!r}"
        for key, want in expected.items()
        if doc.get(key) != want
    ]
    if not doc.get("part_count", 0) >= expected["block_count"]:
        problems.append(f"audit: part_count {doc.get('part_count')!r} below block_count")
    names = [step.get("name") for step in doc.get("steps", [])]
    if names != AUDIT_STEPS:
        problems.append(f"audit: steps {names!r}, expected {AUDIT_STEPS!r}")
    return problems


def _check_analyze(items, ref: Reference) -> list[str]:
    problems = []
    items = list(items)
    docs = [x for x in items if isinstance(x, dict)]
    rows = [x for x in items if isinstance(x, str)]
    if len(docs) != len(ANALYZE_INTERVALS):
        return [f"analyze: {len(docs)} interval documents, expected {len(ANALYZE_INTERVALS)}"]
    n_points = ref.size
    for k, (doc, (lo, hi)) in enumerate(zip(docs, ANALYZE_INTERVALS)):
        if (doc.get("lo"), doc.get("hi"), doc.get("n")) != (lo, hi, n_points):
            problems.append(f"analyze: document {k} is for {doc.get('lo')},{doc.get('hi')} n={doc.get('n')}")
        count = doc.get("pair_count")
        if ref.pair_counts is None or k >= len(ref.pair_counts):
            problems.append(f"analyze: no library pair count for interval {k}")
        elif count != ref.pair_counts[k]:
            problems.append(f"analyze: pair_count {count!r} for interval {k}, library counted {ref.pair_counts[k]}")
        if not isinstance(count, int) or doc.get("r_value") != count / n_points:
            problems.append(f"analyze: r_value {doc.get('r_value')!r} is not pair_count/n")
    if not rows or rows[0] != "x,F" or len(rows) != ANALYZE_CDF_POINTS + 1:
        return problems + [f"analyze: CDF block has {len(rows)} lines, expected header plus {ANALYZE_CDF_POINTS}"]
    xs, fs = np.array([[float(v) for v in row.split(",")] for row in rows[1:]]).T
    m = ref.gaps.size
    want = np.searchsorted(np.sort(ref.gaps), xs, side="right") / m
    bad = np.flatnonzero(fs != want)
    if bad.size:
        k = int(bad[0])
        problems.append(f"analyze: F({xs[k]!r}) is {fs[k]!r}, expected {want[k]!r}")
    return problems


def _check_partition(items, ref: Reference) -> list[str]:
    problems = []
    budget = PARTITION_THRESHOLD  # the CLI's budget defaults to its threshold
    blocks = low_runs(ref.gaps, PARTITION_THRESHOLD).tolist()
    prefix = np.concatenate(([0.0], np.cumsum(ref.gaps)))  # as GapSequence.prefix
    count = 0
    for doc in items:
        k = count
        count += 1
        if len(problems) >= 10:
            continue
        if not isinstance(doc, dict):
            problems.append(f"partition: line {k + 1} is not a JSON document")
            continue
        parent, parts = doc.get("parent"), doc.get("parts", [])
        if k >= len(blocks) or parent != blocks[k]:
            problems.append(f"partition: block {k} is {parent!r}, expected a maximal run")
            continue
        ends = [parent[0] - 1] + [right for _, right in parts]
        tiled = [left for left, _ in parts] == [e + 1 for e in ends[:-1]] and ends[-1] == parent[1]
        if not parts or not tiled or any(left > right for left, right in parts):
            problems.append(f"partition: parts {parts!r} do not tile parent {parent!r}")
            continue
        ranks, sums = doc.get("ranks", []), doc.get("sums", [])
        if sorted(ranks) != list(range(1, len(parts) + 1)):
            problems.append(f"partition: ranks {ranks!r} of block {parent!r} are not a permutation")
            continue
        canonical = [float(prefix[right] - prefix[left - 1]) for left, right in parts]
        if sums != canonical or any(s > budget for s in sums):
            problems.append(f"partition: sums {sums!r} of block {parent!r} are not canonical within budget")
        sandwiched = [j for j in range(2, len(parts)) if ranks[j - 1] > max(ranks[j - 2], ranks[j])]
        if doc.get("sandwiched") != sandwiched:
            problems.append(f"partition: sandwiched {doc.get('sandwiched')!r} of block {parent!r}, expected {sandwiched!r}")
        if doc.get("check") != {"adjacent_ok": True, "sandwich_ok": True}:
            problems.append(f"partition: check {doc.get('check')!r} on block {parent!r}")
    if count != len(blocks):
        problems.append(f"partition: {count} blocks printed, expected {len(blocks)}")
    return problems


def _check_lemma(items, ref: Reference) -> list[str]:
    docs = list(items)
    if len(docs) != 1 or not isinstance(docs[0], dict):
        return [f"lemma: expected one JSON document, got {len(docs)} lines"]
    doc = docs[0]
    expected = math.comb(ref.size + 3, 4)
    problems = []
    if (doc.get("lmax"), doc.get("checked"), doc.get("expected_checked")) != (ref.size, expected, expected):
        problems.append(
            f"lemma: lmax={doc.get('lmax')!r} checked={doc.get('checked')!r} "
            f"expected_checked={doc.get('expected_checked')!r}, want C({ref.size}+3, 4) = {expected}"
        )
    if doc.get("counterexamples") != []:
        problems.append(f"lemma: counterexamples {doc.get('counterexamples')!r}")
    return problems


CHECKS = {
    "audit-1e6": _check_audit,
    "analyze-1e6": _check_analyze,
    "partition-check": _check_partition,
    "lemma-sweep": _check_lemma,
}


def check_output(workload: str, out: bytes, ref: Reference) -> tuple[list[str], str]:
    """Problems found in one finished run's stdout, and the output's digest."""
    key = hashlib.sha256(out).digest()
    if key in ref.verdicts:
        problems, hexdigest = ref.verdicts[key]
        return list(problems), hexdigest
    digest = hashlib.sha256()
    items = _items(out, digest)
    try:
        problems = CHECKS[workload](items, ref)  # every check reads all lines
    except (ValueError, TypeError, AttributeError, IndexError, KeyError) as exc:
        problems, digest = [f"{workload}: unreadable output ({type(exc).__name__}: {exc})"], None
    hexdigest = digest.hexdigest() if digest else ""
    if ref.digest is None:
        if not problems:
            ref.digest = hexdigest
    elif hexdigest != ref.digest:
        problems.append(f"{workload}: output digest {hexdigest[:16]}... differs from the expected {ref.digest[:16]}...")
    ref.verdicts[key] = (list(problems), hexdigest)
    return problems, hexdigest
