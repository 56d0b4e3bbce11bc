"""CLI ``partition`` on the prefix stream against the whole-array path: the same bytes, errors and exit code.

The reference reads the file whole, makes ``gaps_of``, finds the blocks one
index at a time (``blocks_by_index``), and writes ``partition_table`` of all
of them with ``_partition_documents``.  The stream must print the same bytes
however it is cut: the file into small reads, and the gaps into steps of
1, 2 or 3, the blocks that close in each step making one table.  Dyadic
gaps put one-gap sums and part sums exactly on the thresholds 1/2 and 2,
and a first value of -2^53 makes the prefix sums so large that small gaps
sum to 0 or round up.
"""

import os
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import cli, sequences
from ppclab.cli import _dumps, _manifest, _partition_documents, main
from test_audit_stream import ERROR_FILES
from test_cli import run
from test_partition import blocks_by_index, patch_step


def reference(path, threshold: str, n=None):
    """(code, stdout, stderr) of ``partition --check`` made on whole arrays, with its errors in their order."""
    try:
        seq = pl.ingest_and_unfold(path)
        g = pl.gaps_of(seq)
        t = float(threshold)
        used = g.length if n is None else n
        if not t > 0:
            raise ValueError("threshold must be positive")
        if not 0 <= used <= g.length:
            raise ValueError(f"n={used} out of range 0..{g.length}")
        params = {"input": str(path), "n": used, "threshold": t, "check": True}
        out = _dumps({"manifest": _manifest("partition", params, input_hash=seq.metadata["input_sha256"])}) + "\n"
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    blocks = np.array(blocks_by_index(g, used, t), dtype=np.intp).reshape(-1, 2)
    table = pl.partition_table(g, blocks[:, 0], blocks[:, 1], t)
    out += "".join(_partition_documents(table, blocks[:, 0], blocks[:, 1], True))
    return int(not (table.adjacent_ok.all() and table.sandwich_ok.all())), out, ""


def partition_cli(capsys, path, threshold: str, n=None):
    argv = ["partition", "--input", str(path), "--threshold", threshold, "--check"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = run(capsys, *argv, *(() if n is None else ("--n", str(n))))
    assert [str(w.message) for w in caught] == []
    return outcome


@st.composite
def tie_cases(draw):
    """(values, n): values whose gaps come in runs, and an ``--n`` of 0, 1, below the gaps or none.

    The gaps are dyadic, 0.3, or just above 1/2.  Runs of 1/4 reach 1/2 and
    2 exactly, and a long run is one block across every step.  With a first
    value of -2^53, every later prefix sum is at least 2^53, whose spacing
    is 2, so there gaps below 1 sum to 0 and one-gap sums land on 2.
    """
    pool = [1 / 16, 1 / 8, 1 / 4, 3 / 8, 1 / 2, 3 / 4, 1.0, 1.5, 2.0, 2.25, 0.3, 0.5 + 2.0**-30]
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 30)), min_size=1, max_size=8))
    values = pl.sequence_from_gaps([x for x, r in runs for _ in range(r)], 1.0).values
    if draw(st.booleans()):
        values = np.concatenate(([-(2.0**53)], values))
    length = values.size - 1
    return values, draw(st.sampled_from([None, 0, 1, length - 1]) | st.integers(0, length))


@given(tie_cases(), st.sampled_from(["0.5", "2"]))
@example((np.arange(4.0, 205.0) / 4, None), "0.5")  # one block across every step and every read
@example((np.arange(4.0, 205.0) / 4, 150), "2")  # parts of 8 gaps summing to 2, --n below the gaps
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_streamed_partition_prints_the_whole_array_one(tmp_path, capsys, case, threshold):
    values, n = case
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, pl.RealSequence(values))
    expected = reference(path, threshold, n)
    assert expected[0] in (0, 1)
    for step in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            sizes = patch_step(mp, step)
            mp.setattr(sequences, "_INGEST_CHUNK", 64)
            mp.setattr(cli, "PARTITION_FORMAT", 1)  # one % call a block: a step of 3 gaps may close two
            assert partition_cli(capsys, path, threshold, n) == expected, step
        assert max(sizes, default=0) <= step and sum(sizes) == (values.size - 1 if n is None else n)
    assert partition_cli(capsys, path, threshold, n) == expected


@pytest.mark.parametrize("chunk", [8, None])
@pytest.mark.parametrize("name", sorted(ERROR_FILES))
def test_partition_errors_keep_their_messages_and_their_order(tmp_path, capsys, monkeypatch, name, chunk):
    # ERROR_FILES holds every FUZZ_FILES case, the one-point and overflowing files, and bad lines after
    # the first read; --n -1 and --n past the gaps come after every fault of the file.  No run leaves a
    # file, beside the input or under TMPDIR, where the spill of its values goes.
    path = tmp_path / "seq.txt"
    path.write_bytes(ERROR_FILES[name])
    spills = tmp_path / "tmp"
    spills.mkdir()
    monkeypatch.setenv("TMPDIR", str(spills))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    cases = [(t, n) for t in ("0.5", "2") for n in (None, -1, 0, 2, 299, 300, 5000)]
    cases += [(t, None) for t in ("0", "nan", "inf", "-1")]
    expected = {case: reference(path, *case) for case in cases}
    if chunk is not None:
        monkeypatch.setattr(sequences, "_INGEST_CHUNK", chunk)
    for case, outcome in expected.items():
        assert partition_cli(capsys, path, *case) == outcome, case
        assert sorted(os.listdir(tmp_path)) == ["seq.txt", "tmp"] and os.listdir(spills) == [], case


@pytest.mark.parametrize("threshold", ["2", "0.5"])
def test_partition_memory_grows_only_by_the_values(tmp_path, monkeypatch, threshold):
    # partition holds one read of the file, one step of the values read back from the spill, its prefix sums,
    # and the blocks that closed in it, in one table, with its text; none of these grows with the input.  The
    # values of every point would add 8 bytes a point, 2.3 MiB more here.
    peaks = {}
    for n in (100_000, 400_000):
        path = tmp_path / f"poisson{n}.txt"
        pl.write_sequence(path, pl.generate(pl.GeneratorConfig("poisson", n, seed=7)))
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                code = main(["partition", "--input", str(path), "--threshold", threshold, "--check"])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
    assert peaks[400_000] - peaks[100_000] <= 1 << 20, peaks
