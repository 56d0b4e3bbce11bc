"""CLI ``analyze`` in one pass over the file against the whole-array references: the same bytes, errors and exit code.

The reference reads the file whole, counts pairs with
``oracles.pair_correlation_whole`` and the CDF with
``oracles.gap_counts_whole``, and prints as ``analyze`` printed before it
streamed.  The pass must print the same bytes however it is cut: the file
into reads of 16, 64 or 1000 bytes, and the starts into chunks of 1, 2 or 3.
Dyadic values make differences land exactly on dyadic interval endpoints,
and gaps exactly on grid points, so every closedness flag decides a tie.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import correlation, sequences
from ppclab.cli import _dumps, _grid_points, _manifest, _parse_cdf_grid, _parse_interval, main
from oracles import gap_counts_whole, pair_correlation_whole
from test_audit_stream import ERROR_FILES
from test_cli import run

ENDPOINTS = [-2.0, -1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]


def reference(path, intervals=(), flag=None, n=None, grid=None, cdf_out=None):
    """(code, stdout, stderr, CDF file text or None) of ``analyze`` read whole, with its errors in their order."""
    out = []
    try:
        if not intervals and not grid:
            raise ValueError("nothing to do: give --interval and/or --cdf-grid")
        spec = _parse_cdf_grid(grid) if grid else None
        parsed = [_parse_interval(text, flag != "--open", flag == "--closed") for text in intervals]
        seq = pl.ingest_and_unfold(path)
        used = seq.n if n is None else n
        if not 1 <= used <= seq.n:
            raise ValueError(f"--n must lie in 1..{seq.n} (the points in the input), got {used}")
        if spec and seq.n < 2:
            raise ValueError("--cdf-grid needs at least 2 points to form gaps")
        params = {"input": str(path), "n": used, "intervals": list(intervals), "closed": flag == "--closed",
                  "open": flag == "--open", "cdf_grid": grid}
        manifest = _manifest("analyze", params, input_hash=seq.metadata["input_sha256"])
        for interval in parsed:
            report = pair_correlation_whole(seq, interval, used)
            doc = {"lo": interval.lo, "hi": interval.hi, "lo_closed": interval.lo_closed,
                   "hi_closed": interval.hi_closed, "n": report.n, "pair_count": report.pair_count,
                   "r_value": report.r_value, "manifest": manifest}
            out.append(_dumps(doc) + "\n")
        if not spec:
            return 0, "".join(out), "", None
        m = min(used, seq.n - 1)
        below = gap_counts_whole(seq, m, np.fromiter(_grid_points(*spec), float))
        rows = ["x,F"]
        rows += [f"{format(x, '.17g')},{format(int(k) / m, '.17g')}" for x, k in zip(_grid_points(*spec), below)]
    except ValueError as exc:
        return 2, "".join(out), f"error: {exc}\n", None
    text = "\n".join(rows) + "\n"
    if cdf_out:
        return 0, "".join(out), "", text
    return 0, "".join(out) + text, "", None


def analyze_cli(capsys, path, intervals=(), flag=None, n=None, grid=None, cdf_out=None):
    """(code, stdout, stderr, CDF file text or None) of CLI ``analyze``; no warning may be raised."""
    argv = ["analyze", "--input", str(path), *(f"--interval={text}" for text in intervals)]
    argv += [flag] if flag else []
    argv += ["--n", str(n)] if n is not None else []
    argv += [f"--cdf-grid={grid}"] if grid else []
    argv += ["--cdf-out", str(cdf_out)] if cdf_out else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    written = cdf_out.read_text(encoding="utf-8") if cdf_out and cdf_out.exists() else None
    return code, out, err, written


@st.composite
def analyze_cases(draw):
    """(gaps, start, intervals, flag, n, grid): dyadic values, dyadic intervals and a dyadic grid.

    Intervals take any order of dyadic endpoints with lo <= hi, so lo < 0,
    hi <= 0 and lo == hi all occur; n runs from 1 to the points.
    """
    gaps = [k / 8 for k in draw(st.lists(st.integers(1, 24), min_size=1, max_size=60))]
    start = draw(st.integers(-16, 16)) / 8
    pairs = draw(st.lists(st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(ENDPOINTS)), min_size=0, max_size=3))
    intervals = [f"{min(a, b)!r},{max(a, b)!r}" for a, b in pairs]
    flag = draw(st.sampled_from([None, "--closed", "--open"]))
    n = draw(st.one_of(st.none(), st.integers(1, len(gaps) + 1)))
    grid = None
    if draw(st.booleans()) or not intervals:
        lo, step = draw(st.sampled_from([-0.5, 0.0, 0.125])), draw(st.sampled_from([0.125, 0.25, 0.5]))
        grid = f"{lo!r}:{lo + step * draw(st.integers(0, 24))!r}:{step!r}"
    return gaps, start, intervals, flag, n, grid


@given(analyze_cases(), st.sampled_from([16, 64, 1000]), st.sampled_from([1, 2, 3]), st.booleans())
@example(([0.25] * 40, 0.0, ["0.0,1.0", "-1.0,-0.25", "0.5,0.5"], "--closed", None, "0.0:1.0:0.25"), 16, 1, False)
@example(([0.25] * 40, -1.0, ["-2.0,2.0"], None, 7, "0.0:0.5:0.25"), 16, 3, True)  # the CDF reads 7 gaps
@example(([0.5, 1.5] * 20, 0.5, ["0.5,2.0", "-2.0,-0.5"], "--open", 40, None), 64, 2, False)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_pass_prints_what_the_whole_array_references_print(tmp_path, capsys, case, read, chunk, to_file):
    gaps, start, intervals, flag, n, grid = case
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, pl.sequence_from_gaps(gaps, start))
    cdf_out = tmp_path / "cdf.csv" if to_file and grid else None
    if cdf_out:
        cdf_out.unlink(missing_ok=True)
    expected = reference(path, intervals, flag, n, grid, cdf_out)
    assert expected[0] == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_INGEST_CHUNK", read)
        mp.setattr(correlation, "_CHUNK", chunk)
        assert analyze_cli(capsys, path, intervals, flag, n, grid, cdf_out) == expected


def test_a_start_is_decided_only_once_its_differences_pass_every_endpoint(tmp_path, capsys, monkeypatch):
    # From -2^53 the differences to 0.5 and to 1 both round to 2^53, the closed hi: a start decided once
    # its difference reaches hi, rather than passes it, would miss 1 wherever a read ends after 0.5.
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, pl.RealSequence([-(2.0**53), 0.5, 1.0, 1.5, 2.0]))
    expected = reference(path, ["0,9007199254740992"], "--closed")
    assert '"pair_count":8' in expected[1]  # 0.5 and 1 from -2^53, and the six forward pairs after it
    for read in range(1, 25):
        monkeypatch.setattr(sequences, "_INGEST_CHUNK", read)
        assert analyze_cli(capsys, path, ["0,9007199254740992"], "--closed") == expected, read


ARGVS = [  # (intervals, n, grid): pairs only, pairs and the CDF, the CDF only
    (["-1,1"], None, None),
    (["0,1"], None, "0:1:0.5"),
    ([], None, "0:1:0.5"),
    (["0,1"], 0, "0:1:0.5"),
    (["0,1"], 1, None),
    ([], 1, "0:1:0.5"),
    (["0,1"], 2, "0:1:0.5"),
    (["0,1"], 299, "0:1:0.5"),
    (["0,1"], 5000, None),
]


@pytest.mark.parametrize("read", [8, None])
@pytest.mark.parametrize("name", sorted(ERROR_FILES))
def test_errors_keep_their_messages_their_order_and_the_output_before_them(tmp_path, capsys, monkeypatch, name, read):
    path = tmp_path / "seq.txt"
    path.write_bytes(ERROR_FILES[name])
    expected = [reference(path, intervals, None, n, grid) for intervals, n, grid in ARGVS]
    if read is not None:
        monkeypatch.setattr(sequences, "_INGEST_CHUNK", read)
    for (intervals, n, grid), outcome in zip(ARGVS, expected):
        assert analyze_cli(capsys, path, intervals, None, n, grid) == outcome, (intervals, n, grid)


def test_analyze_memory_does_not_grow_with_the_input(tmp_path, capsys):
    # The pass holds one read of the file, the values that undecided starts reach, and the grid's
    # counts: nothing of the input's length, where holding the values took 8 bytes a point.
    peaks = {}
    for n in (100_000, 400_000):
        path = tmp_path / f"poisson{n}.txt"
        pl.write_sequence(path, pl.generate(pl.GeneratorConfig("poisson", n, seed=7)))
        argv = ["analyze", "--input", str(path), "--interval=0,1", "--interval=0.25,0.75", "--interval=-2,2",
                "--cdf-grid", "0:4:0.02"]
        tracemalloc.start()
        try:
            code = main(argv)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
    assert abs(peaks[400_000] - peaks[100_000]) < 1 << 20, peaks
