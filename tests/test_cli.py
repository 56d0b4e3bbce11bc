"""Command-line contract: exit codes, JSON schemas, manifests, and replay determinism."""

import argparse
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import correlation
from ppclab.cli import _parse_cdf_grid, build_parser, main
from oracles import cdf_loop, format_loop


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_lattice(tmp_path, n=4):
    path = tmp_path / "lattice.txt"
    path.write_text("".join(f"{i}\n" for i in range(n)))
    return str(path)


def test_generate_is_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    code1, _, _ = run(capsys, "generate", "--kind", "poisson", "--n", "1000", "--seed", "42", "-o", str(out1))
    code2, _, _ = run(capsys, "generate", "--kind", "poisson", "--n", "1000", "--seed", "42", "-o", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 1000
    manifest = json.loads((tmp_path / "a.txt.manifest.json").read_text())
    assert manifest["manifest"]["seed"] == 42
    assert manifest["manifest"]["tool_version"] == pl.__version__


def test_generate_capped_respects_scaled_cap(tmp_path, capsys):
    out = tmp_path / "capped.txt"
    cap = 1.500000001
    code, _, _ = run(
        capsys, "generate", "--kind", "capped", "--cap", str(cap), "--n", "1000", "--seed", "1", "-o", str(out)
    )
    assert code == 0
    seq = pl.ingest_and_unfold(out, "raw")
    gaps = pl.gaps_of(seq).gaps
    factor = pl.generate(pl.GeneratorConfig("capped", 1000, seed=1, cap=cap)).metadata["renorm_factor"]
    assert float(gaps.max()) <= cap * factor * (1 + 1e-12)


def test_generate_quadratic_form_is_strictly_increasing(tmp_path, capsys):
    out = tmp_path / "qf.txt"
    code, _, _ = run(capsys, "generate", "--kind", "quadratic_form", "--n", "50", "-o", str(out))
    assert code == 0
    seq = pl.ingest_and_unfold(out, "raw")  # ingestion enforces monotonicity
    assert seq.n == 50


def test_analyze_lattice_interval(tmp_path, capsys):
    path = write_lattice(tmp_path)
    code, out, _ = run(capsys, "analyze", "--input", path, "--interval", "0.5,1.5", "--closed")
    assert code == 0
    doc = json.loads(out.splitlines()[0])
    assert doc["pair_count"] == 3
    assert doc["r_value"] == 0.75
    assert doc["lo_closed"] and doc["hi_closed"]
    assert doc["manifest"]["parameters"]["input"] == path
    assert doc["manifest"]["input_hash"]


def test_analyze_empty_open_interval(tmp_path, capsys):
    path = write_lattice(tmp_path)
    code, out, _ = run(capsys, "analyze", "--input", path, "--interval", "0,0", "--open")
    assert code == 0
    assert json.loads(out)["r_value"] == 0.0


def test_analyze_default_interval_is_half_open(tmp_path, capsys):
    path = write_lattice(tmp_path)
    code, out, _ = run(capsys, "analyze", "--input", path, "--interval", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["lo_closed"] and not doc["hi_closed"]
    assert doc["pair_count"] == 3  # differences of exactly 1; 2 excluded


def test_analyze_multiple_intervals_one_json_per_line(tmp_path, capsys):
    path = write_lattice(tmp_path)
    code, out, _ = run(
        capsys, "analyze", "--input", path, "--interval", "0.5,1.5", "--interval=-1.5,-0.5"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)


def test_analyze_replay_is_byte_identical(tmp_path, capsys):
    path = write_lattice(tmp_path, n=50)
    args = ("analyze", "--input", path, "--interval", "0.25,1.75", "--cdf-grid", "0:2:0.25")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_cdf_csv(tmp_path, capsys):
    path = write_lattice(tmp_path)
    csv_out = tmp_path / "cdf.csv"
    code, _, _ = run(
        capsys, "analyze", "--input", path, "--cdf-grid", "0:2:0.5", "--cdf-out", str(csv_out)
    )
    assert code == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "x,F"
    assert len(lines) == 6  # grid 0, .5, 1, 1.5, 2
    assert lines[1] == "0,0"
    assert lines[3] == "1,1"  # lattice gaps are all exactly 1


def test_an_unwritable_cdf_out_fails_before_anything_is_printed(tmp_path, capsys):
    path = write_lattice(tmp_path)
    csv_out = tmp_path / "missing" / "cdf.csv"
    code, out, err = run(capsys, "analyze", "--input", path, "--interval", "0,1", "--cdf-grid", "0:1:0.5",
                         "--cdf-out", str(csv_out))
    assert (code, out, err) == (2, "", f"error: [Errno 2] No such file or directory: {str(csv_out)!r}\n")


def test_a_failed_cdf_leaves_an_earlier_csv_whole(tmp_path, capsys):
    path = tmp_path / "overflow.txt"
    path.write_bytes(FUZZ_FILES["overflow"])  # the span error comes after the pair documents
    csv_out = tmp_path / "cdf.csv"
    csv_out.write_text("x,F\n0,0\n")
    code, out, err = run(capsys, "analyze", "--input", str(path), "--interval", "0,1", "--cdf-grid", "0:1:0.5",
                         "--cdf-out", str(csv_out))
    assert (code, len(out.splitlines())) == (2, 1)
    assert "values span more than the binary64 range" in err
    assert csv_out.read_text() == "x,F\n0,0\n"
    assert sorted(os.listdir(tmp_path)) == ["cdf.csv", "overflow.txt"]


def test_a_failed_generate_leaves_an_earlier_file_whole(tmp_path, capsys, monkeypatch):
    out = tmp_path / "seq.txt"
    argv = ["generate", "--kind", "poisson", "--n", "100000", "-o", str(out)]
    assert run(capsys, *argv, "--seed", "1")[0] == 0
    before = out.read_bytes()
    format17, calls = pl.sequences._format17, []

    def fail_later(values):  # the second chunk of the file, after the first has been written
        calls.append(values.size)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return format17(values)

    monkeypatch.setattr(pl.sequences, "_format17", fail_later)
    assert run(capsys, *argv, "--seed", "2") == (2, "", "error: [Errno 28] No space left on device\n")
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["seq.txt", "seq.txt.manifest.json"]


def test_written_files_get_the_permissions_of_a_new_file(tmp_path, capsys):
    mask = os.umask(0o027)
    try:
        out = tmp_path / "seq.txt"
        assert run(capsys, "generate", "--kind", "poisson", "--n", "10", "-o", str(out))[0] == 0
        assert run(capsys, "ingest", "--input", str(out), "-o", str(tmp_path / "copy.txt"))[0] == 0
    finally:
        os.umask(mask)
    assert {oct(path.stat().st_mode & 0o777) for path in (out, tmp_path / "copy.txt")} == {oct(0o640)}


def test_an_output_through_a_link_or_to_a_pipe_is_written_where_open_would_write_it(tmp_path, capsys):
    real, link, fifo = tmp_path / "real.txt", tmp_path / "link.txt", tmp_path / "fifo"
    real.write_text("old\n")
    link.symlink_to(real)
    argv = ["generate", "--kind", "poisson", "--n", "10", "--seed", "3", "-o"]
    assert run(capsys, *argv, str(link))[0] == 0
    assert link.is_symlink() and real.read_text() != "old\n"
    os.mkfifo(fifo)  # stands for a device such as /dev/stdout: written in place, never replaced
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run(capsys, *argv, str(fifo))[0] == 0
    reader.join(timeout=60)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert got == [real.read_bytes()]


def test_analyze_requires_work(tmp_path, capsys):
    path = write_lattice(tmp_path)
    code, _, err = run(capsys, "analyze", "--input", path)
    assert code == 2
    assert "nothing to do" in err


def test_malformed_file_gives_exit_2_with_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("1\nnope\n")
    code, _, err = run(capsys, "analyze", "--input", str(path), "--interval", "0,1")
    assert code == 2
    assert "line 2" in err


def test_missing_file_gives_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "absent.txt"), "--interval", "0,1")
    assert code == 2
    assert "error" in err


def test_partition_flanked_middle_fixture(tmp_path, capsys):
    delta = 1e-9
    gaps = [2 / 5] + [delta] * 3 + [1 / 3] + [delta] * 3 + [2 / 5]
    seq = pl.sequence_from_gaps(gaps)
    path = tmp_path / "i1.txt"
    pl.write_sequence(path, seq)
    code, out, _ = run(capsys, "partition", "--input", str(path), "--check")
    assert code == 0
    header, line = out.splitlines()
    assert list(json.loads(header)) == ["manifest"]
    doc = json.loads(line)
    assert "manifest" not in doc
    assert doc["parent"] == [1, 9]
    assert doc["parts"] == [[1, 1], [2, 8], [9, 9]]
    assert doc["ranks"] == [2, 1, 3]
    assert doc["check"] == {"adjacent_ok": True, "sandwich_ok": True}


def test_partition_no_blocks_is_empty_success(tmp_path, capsys):
    path = tmp_path / "wide.txt"
    path.write_text("0\n1\n2\n3\n")
    code, out, _ = run(capsys, "partition", "--input", str(path))
    assert code == 0
    (header,) = out.splitlines()  # the manifest header and no block documents
    doc = json.loads(header)
    assert list(doc) == ["manifest"]
    assert doc["manifest"]["command"] == "partition"


def test_partition_checks_every_block_before_printing(tmp_path, capsys):
    path = tmp_path / "two_blocks.txt"
    path.write_text("0\n0.25\n0.5\n5\n5.25\n6\n")  # blocks [1, 2] and [4, 5]; gap 5 is 0.75
    for threshold, message in (("0", "threshold must be positive"), ("nan", "threshold must be positive"),
                               ("inf", "inf has no JSON form: values must be finite")):
        code, out, err = run(capsys, "partition", "--input", str(path), "--threshold", threshold, "--check")
        assert (code, out, err) == (2, "", f"error: {message}\n"), threshold


def test_partition_100_random_capped_sequences_check_passes(tmp_path, capsys):
    for seed in range(100):
        seq = pl.generate(pl.GeneratorConfig("capped", 200, seed=seed, cap=1.5))
        path = tmp_path / f"c{seed}.txt"
        pl.write_sequence(path, seq)
        code, _, _ = run(capsys, "partition", "--input", str(path), "--check")
        assert code == 0


def test_partition_check_stream_equals_the_object_api_across_chunks(tmp_path, capsys):
    from ppclab import cli

    seq = pl.generate(pl.GeneratorConfig("poisson", 45_000, seed=11))
    path = tmp_path / "poisson.txt"
    pl.write_sequence(path, seq)
    g = pl.gaps_of(seq)
    for n_flag in ((), ("--n", "40000")):
        code, out, _ = run(capsys, "partition", "--input", str(path), *n_flag, "--threshold", "2", "--check")
        assert code == 0
        n = int(n_flag[1]) if n_flag else g.length
        params = {"input": str(path), "n": n, "threshold": 2.0, "check": True}
        expected = [cli._dumps({"manifest": cli._manifest("partition", params, input_hash=hashlib.sha256(path.read_bytes()).hexdigest())})]
        blocks = pl.maximal_blocks(g, n, 2.0).blocks
        assert len(blocks) > cli.PARTITION_CHUNK  # at least two tables are written
        for block in blocks:
            p = pl.greedy_partition(g, block, 2.0)
            sandwiched = sorted(pl.sandwiched_indices(p))
            adjacent_ok = all(pl.verify_adjacent_bound(p, g, k, 2.0).ok for k in range(1, p.size))
            sandwich_ok = all(pl.verify_sandwich_bound(p, g, k, 2.0).ok for k in sandwiched)
            expected.append(cli._dumps({
                "parent": [block.left, block.right],
                "parts": [[part.left, part.right] for part in p.parts],
                "ranks": list(p.selection_rank),
                "sums": list(p.sums),
                "sandwiched": sandwiched,
                "check": {"adjacent_ok": adjacent_ok, "sandwich_ok": sandwich_ok},
            }))
        assert out.splitlines() == expected


def test_partition_check_exits_1_on_a_failed_bound_and_prints_every_block(tmp_path, capsys, monkeypatch):
    from ppclab import partition

    # one-gap parts, picked left to right: no part is sandwiched, and with gaps of 0.1 every
    # adjacent pair of gaps sums to 0.2 <= 0.5, so every adjacent lhs is 0 < 1/2
    def one_gap_parts(prefix, left, right, budget):
        blocks = [[(a, b)] if prefix[b] - prefix[a - 1] <= budget else [(i, i) for i in range(a, b + 1)]
                  for a, b in zip(left.tolist(), right.tolist())]
        parts = np.array([part for block in blocks for part in block])
        rank = np.concatenate([np.arange(1, len(block) + 1) for block in blocks])
        reach = partition._reach(prefix, np.arange(1, prefix.size), budget) - 1  # gap s at position s - 1
        shift = np.ones(left.size, dtype=np.intp)
        return parts[:, 0], parts[:, 1], rank, np.array([len(block) for block in blocks]), reach, shift

    monkeypatch.setattr(partition, "_greedy_core", one_gap_parts)
    sizes = (1, 3, 8, 12, 20)
    gaps = [g for size in sizes for g in [1.0] + [0.1] * size]
    path = tmp_path / "constant.txt"
    pl.write_sequence(path, pl.sequence_from_gaps(gaps))
    code, out, _ = run(capsys, "partition", "--input", str(path), "--check")
    assert code == 1
    lines = out.splitlines()[1:]
    parents, gap_of_one = [], 1  # each block follows a gap of 1.0
    for size in sizes:
        parents.append([gap_of_one + 1, gap_of_one + size])
        gap_of_one += size + 1
    assert [json.loads(line)["parent"] for line in lines] == parents
    multi = 0
    for line in lines:
        if len(json.loads(line)["parts"]) > 1:
            multi += 1
            assert '"check":{"adjacent_ok":false,"sandwich_ok":true}' in line
    assert multi == 3  # the blocks of 8, 12 and 20 gaps; 3 gaps of 0.1 fit the budget as one part


def test_partition_writer_refuses_a_non_finite_sum():
    from ppclab import cli

    g = pl.GapSequence([0.25, 0.25, 1.0, 0.5])
    blocks = pl.maximal_blocks(g, g.length, 0.5)
    table = pl.partition_table(g, blocks.left, blocks.right, 0.5)
    text = "".join(cli._partition_documents(table, blocks.left, blocks.right, True))
    assert text.splitlines()[0] == cli._dumps({
        "parent": [1, 2], "parts": [[1, 2]], "ranks": [1], "sums": [0.5], "sandwiched": [],
        "check": {"adjacent_ok": True, "sandwich_ok": True},
    })
    for bad in (math.inf, math.nan):
        broken = table._replace(sums=np.where(np.arange(table.sums.size) == 1, bad, table.sums))
        with pytest.raises(ValueError, match=f"^{bad!r} has no JSON form: values must be finite$"):
            next(cli._partition_documents(broken, blocks.left, blocks.right, True))


def test_verify_lemma512(capsys):
    code, out, _ = run(capsys, "verify", "lemma512", "--lmax", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["checked"] == doc["expected_checked"] == math.comb(33, 4)
    assert doc["counterexamples"] == []


def _subprocess_env() -> dict:
    """os.environ with the imported ppclab first on PYTHONPATH: a child interpreter runs this code."""
    src = str(Path(pl.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_verify_lemma512_runs_in_this_process():
    script = (
        "import sys\n"
        "from ppclab.cli import main\n"
        "code = main(['verify', 'lemma512', '--lmax', '30'])\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    env = _subprocess_env()  # a fresh interpreter, so no test import counts
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out, loaded = proc.stdout.splitlines()
    assert loaded == "[]"
    assert '"workers":1' in out
    assert json.loads(out)["manifest"]["parameters"] == {"lmax": 30, "workers": 1}


def test_verify_final_ineq_is_exact_at_the_sign_change(capsys):
    for eps, verdict in (
        ("6.028047299031073e-09", "inequality fails; contradiction stands"),
        ("6.028047299031074e-09", "inequality holds; no contradiction at this epsilon"),
        ("6.028047299031072e-09", "inequality fails; contradiction stands"),  # its float value is > 0
    ):
        code, out, _ = run(capsys, "verify", "final-ineq", "--epsilon", eps)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == verdict, eps
        assert doc["value"] == pl.final_inequality(float(eps))


def test_verify_final_ineq_rejects_an_infinite_epsilon(capsys):
    code, out, err = run(capsys, "verify", "final-ineq", "--epsilon", "inf")
    assert (code, out) == (2, "")
    assert err == "error: inf has no JSON form: values must be finite\n"


def test_verify_final_ineq_both_signs(capsys):
    code, out, _ = run(capsys, "verify", "final-ineq", "--epsilon", "1e-9")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(-0.015104937746762168, abs=1e-12)
    assert doc["verdict"] == "inequality fails; contradiction stands"

    code, out, _ = run(capsys, "verify", "final-ineq", "--epsilon", "1e-8")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] > 0
    assert "holds" in doc["verdict"]


def test_audit_lattice(tmp_path, capsys):
    path = write_lattice(tmp_path, n=1000)
    code, out, _ = run(
        capsys, "audit", "--input", path, "--epsilon", "1e-9", "--n", "1000"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["density_lhs"] == 0.0
    assert doc["multigap_lhs"] == 0.0
    assert doc["n_used"] == 999  # a 1000-point file carries 999 gaps
    assert doc["manifest"]["parameters"]["epsilon"] == 1e-9


def test_the_retired_cutoff_and_audit_budget_flags_are_unrecognized(tmp_path, capsys):
    path = write_lattice(tmp_path, n=50)
    for argv in (
        ["generate", "--kind", "quadratic_form", "--n", "10", "--cutoff", "5", "-o", str(tmp_path / "qf.txt")],
        ["audit", "--input", path, "--epsilon", "1e-9", "--n", "49", "--budget", "0.5"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "qf.txt").exists()


def test_partition_rejects_the_retired_budget_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "--input", write_lattice(tmp_path, n=50), "--budget", "0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --budget 0.5" in captured.err


def test_verify_bias_is_retired(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bias", "--samples", "10"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'bias'" in captured.err


def test_analyze_poisson_statistical_regression(tmp_path, capsys):
    path = tmp_path / "poisson.txt"
    pl.write_sequence(path, pl.generate(pl.GeneratorConfig("poisson", 100_000, seed=7)))
    code, out, _ = run(capsys, "analyze", "--input", str(path), "--interval", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["r_value"] - 1.0) <= 0.05


def test_ingest_zeta_unfold(tmp_path, capsys):
    src = tmp_path / "zeros.txt"
    src.write_text("14.134725\n21.022040\n25.010858\n")
    out_path = tmp_path / "unfolded.txt"
    code, out, _ = run(
        capsys, "ingest", "--input", str(src), "--mode", "zeta_unfold", "-o", str(out_path)
    )
    assert code == 0
    seq = pl.ingest_and_unfold(out_path, "raw")
    expected = 14.134725 * math.log(14.134725) / (2 * math.pi)
    assert seq.values[0] == pytest.approx(expected, abs=1e-12)
    doc = json.loads(out)
    assert doc["n_points"] == 3


def test_ingest_normalize_writes_the_format_loop_bytes(tmp_path, capsys):
    src = tmp_path / "seq.txt"
    pl.write_sequence(src, pl.generate(pl.GeneratorConfig("poisson", 40_000, seed=12)))
    out_path = tmp_path / "normalized.txt"
    code, _, _ = run(capsys, "ingest", "--input", str(src), "--normalize", "-o", str(out_path))
    assert code == 0
    expected = pl.normalize_mean_gap(pl.ingest_and_unfold(src)).values
    assert expected[0] == 0.0  # a line the writer's kernel leaves to format
    assert out_path.read_bytes() == format_loop(expected)


def test_ingest_rejects_small_zeta_values(tmp_path, capsys):
    src = tmp_path / "zeros.txt"
    src.write_text("0.9\n2.0\n")
    code, _, err = run(
        capsys, "ingest", "--input", str(src), "--mode", "zeta_unfold", "-o", str(tmp_path / "o.txt")
    )
    assert code == 2
    assert "line 1" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "bogus", "--n", "10", "-o", "x"])
    assert exc.value.code == 2


def test_floats_printed_with_17_significant_digits(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "final-ineq", "--epsilon", "1e-9")
    assert code == 0
    doc = json.loads(out)
    # parse-back equality is the round-trip contract
    assert doc["value"] == pl.final_inequality(1e-9)
    assert "-0.015104937746762168" in out


def test_analyze_cdf_grid_keeps_a_negative_upper_end(tmp_path, capsys):
    path = write_lattice(tmp_path)
    code, out, _ = run(capsys, "analyze", "--input", path, "--cdf-grid=-1:-0.5:0.25")
    assert code == 0
    assert out.splitlines() == ["x,F", "-1,0", "-0.75,0", "-0.5,0"]


def test_analyze_cdf_grid_matches_gap_cdf_at_every_point(tmp_path, capsys):
    gaps = [0.25, 0.5, 0.5, 0.75, 1.25, 0.25, 2.0, 0.5]  # several gaps sit exactly on grid points
    seq = pl.sequence_from_gaps(gaps)
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq)
    code, out, _ = run(capsys, "analyze", "--input", str(path), "--n", "7", "--cdf-grid", "0:2.5:0.25")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 11
    g = pl.gaps_of(seq)
    for x, f in rows:
        assert f == format(pl.gap_cdf(g, float(x), 7), ".17g"), x  # analyze reads --n 7 as 7 gaps


@st.composite
def cdf_cases(draw):
    """(gaps, start, n, grid): lattice gaps, and a grid whose points tie with gaps, repeat or go negative.

    Dyadic gaps are exact, so a grid of lattice steps meets them; decimal gaps
    are not, so grids also start at a realized gap or its negative, step by
    a realized gap, or step far under lo's last bit, which repeats points.
    """
    d = draw(st.sampled_from([8, 16, 10, 100]))
    gaps = [k / d for k in draw(st.lists(st.integers(1, 3 * d), min_size=1, max_size=40))]
    start = draw(st.integers(-5, 5)) / d
    realized = sorted(set(np.diff(pl.sequence_from_gaps(gaps, start).values).tolist()))
    tie = st.sampled_from(realized)
    lo = draw(st.one_of(st.just(0.0), tie, tie.map(lambda x: -x), st.sampled_from([1e6, -1e6])))
    step = draw(st.one_of(st.just(1 / d), tie, st.sampled_from([abs(lo) * 2.0**-55 or 1e-300, 1e-11])))
    hi = lo + step * draw(st.integers(0, 40))
    return gaps, start, draw(st.integers(1, len(gaps) + 1)), f"{lo!r}:{hi!r}:{step!r}"


@given(cdf_cases(), st.sampled_from([1, 2, 3, None]))
@example(([0.1, 0.2, 0.1, 0.30000000000000004], 0.0, 5, "0.1:0.5:0.1"), 1)  # grid points on decimal gaps
@example(([0.5] * 3, 0.0, 4, "1000000.0:1000000.0000000001:1e-11"), 2)  # each point repeated
@example(([0.25, 0.125], -0.5, 2, "-0.25:0.5:0.125"), 3)  # negative lo; --n 2 reads one of two gaps
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_analyze_cdf_equals_one_sort_and_one_search_per_point(tmp_path, capsys, case, chunk):
    gaps, start, n, grid = case
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, pl.sequence_from_gaps(gaps, start))
    expected = cdf_loop(pl.ingest_and_unfold(path).values, n, *_parse_cdf_grid(grid))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:  # chunk ends fall between gaps of the same value
            mp.setattr(correlation, "_CHUNK", chunk)
        assert run(capsys, "analyze", "--input", str(path), "--n", str(n), f"--cdf-grid={grid}") == (0, expected, "")


def test_audit_refuses_one_point_and_an_overflowing_span_as_gaps_of_does(tmp_path, capsys):
    messages = {
        "one": "sequence too short: need at least 2 points to form gaps",
        "overflow": "values span more than the binary64 range: 1.7e+308 - -1.7e+308 overflows",
    }
    for name, message in messages.items():
        path = tmp_path / name
        path.write_bytes(FUZZ_FILES[name])
        code, out, err = run(capsys, "audit", "--input", str(path), "--epsilon", "1e-9", "--n", "2")
        assert (code, out, err) == (2, "", f"error: {message}\n"), name


def test_audit_and_the_cdf_hold_no_temporary_of_the_input_length(tmp_path, capsys):
    # Past the arrays a command must hold, its peak is fixed-size temporaries: ingest's 1 MiB buffer and
    # kernel blocks, one read's values, and one step of the audit's pass or one read's pairs and gaps.
    # Neither holds an array of the input's length: audit's whole peak here is about 5.8 MB, where holding
    # the gaps and prefix sums of every point made it 9.3 MB, and analyze once held the values, 8 bytes a
    # point, and all gaps sorted at once made the CDF's excess 3.3 MB.
    n = 400_000
    path = tmp_path / "poisson.txt"
    pl.write_sequence(path, pl.generate(pl.GeneratorConfig("poisson", n, seed=7)))
    runs = {  # argv -> (bytes held, bound on the excess)
        ("audit", "--epsilon", "1e-9", "--n", str(n - 1)): (0, 7 << 20),  # nothing: the pass holds a chunk
        ("analyze", "--cdf-grid", "0:4:0.02"): (0, 5 << 19),  # nothing: the pass holds a chunk
    }
    for (command, *rest), (held, bound) in runs.items():
        tracemalloc.start()
        try:
            code = main([command, "--input", str(path), *rest])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0, command
        assert peak - held < bound, (command, peak - held)


def test_verify_lemma512_rejects_the_retired_fuzz_flags(capsys):
    for extra in (["--real-samples", "10"], ["--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lemma512", "--lmax", "20", *extra])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_generate_quadratic_form_rejects_an_extreme_alpha(tmp_path, capsys):
    # each alpha makes one side of the enumeration grid at least 5e149 cells
    # (1.7e308 overflows the cutoff to inf), so nothing can allocate it
    out = tmp_path / "qf.txt"
    for alpha in ("1e-300", "1e300", "1.7e308"):
        code, stdout, err = run(
            capsys, "generate", "--kind", "quadratic_form", "--n", "10", "--alpha", alpha, "-o", str(out)
        )
        assert (code, stdout) == (2, "")
        assert "grid cells" in err and "Traceback" not in err
        assert not out.exists()
    code, _, _ = run(
        capsys, "generate", "--kind", "quadratic_form", "--n", "10", "--alpha", "1e-8", "-o", str(out)
    )
    assert code == 0  # a 1 x 5000 grid stays under the floor


def test_generate_capped_rejects_a_cap_below_the_floor(tmp_path, capsys):
    out = tmp_path / "capped.txt"
    code, stdout, err = run(
        capsys, "generate", "--kind", "capped", "--cap", "1e-6", "--n", "10", "-o", str(out)
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: capped generator requires cap >= 0.01")
    assert not out.exists()
    code, _, _ = run(capsys, "generate", "--kind", "capped", "--cap", "0.01", "--n", "1000", "-o", str(out))
    assert code == 0


def test_verify_lemma512_rejects_an_lmax_above_the_bound_before_any_work(monkeypatch, capsys):
    from ppclab import verifier

    def no_sweep(l_values):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(verifier, "_scan_l_values", no_sweep)
    for lmax in (verifier.LEMMA512_MAX_L + 1, 20000):
        code, out, err = run(capsys, "verify", "lemma512", "--lmax", str(lmax))
        assert (code, out) == (2, "")
        assert err.startswith("error: l_max must be <= 10000: sweep time grows as l_max^2")


def test_analyze_rejects_an_unbounded_cdf_grid_before_printing(tmp_path, capsys):
    # each of these grids used to loop without end (or for about 10^15 rows)
    path = write_lattice(tmp_path, n=10)
    for grid, message in (
        ("0:inf:1", "lo and hi must be finite"),
        ("-inf:0:1", "lo and hi must be finite"),
        ("nan:1:0.5", "lo and hi must be finite"),
        ("0:nan:0.5", "lo and hi must be finite"),
        ("0:1e300:1e-300", "has more than 1000000 points"),
        ("1e300:1e300:1e270", "has more than 1000000 points"),
        ("0:1:1e-6", "has more than 1000000 points"),
    ):
        code, out, err = run(capsys, "analyze", "--input", path, "--interval", "0,1", f"--cdf-grid={grid}")
        assert (code, out) == (2, ""), grid
        assert err == f"error: --cdf-grid {message}\n", grid


def test_analyze_cdf_grid_point_bound_is_exact(monkeypatch, tmp_path, capsys):
    from ppclab import cli

    monkeypatch.setattr(cli, "CDF_GRID_MAX_POINTS", 5)
    path = write_lattice(tmp_path)
    code, out, _ = run(capsys, "analyze", "--input", path, "--cdf-grid", "0:1:0.25")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0", "0.25,0", "0.5,0", "0.75,0", "1,1"]
    code, out, err = run(capsys, "analyze", "--input", path, "--cdf-grid", "0:1.25:0.25")
    assert (code, out) == (2, "")
    assert err == "error: --cdf-grid has more than 5 points\n"


def test_generate_rejects_too_many_points_before_generating(monkeypatch, tmp_path, capsys):
    from ppclab import cli

    def no_generate(cfg):
        raise AssertionError("generation started")

    monkeypatch.setattr(cli, "generate", no_generate)
    out = tmp_path / "big.txt"
    code, stdout, err = run(capsys, "generate", "--kind", "poisson", "--n", "1000000000000", "-o", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: n_points must be <= 100000000, got 1000000000000\n"
    assert not out.exists()


def test_analyze_checks_all_input_before_printing(tmp_path, capsys):
    path = write_lattice(tmp_path, n=50)
    single = tmp_path / "single.txt"
    single.write_text("0\n")
    for argv, message in (
        (("--n", "0", "--cdf-grid", "0:1:0.5"), "--n must lie in 1..50 (the points in the input), got 0"),
        (("--n", "-5", "--cdf-grid", "0:1:0.5"), "--n must lie in 1..50 (the points in the input), got -5"),
        (("--n", "51", "--interval", "0,1"), "--n must lie in 1..50 (the points in the input), got 51"),
        (("--interval", "0,1", "--interval", "2,1"), "interval endpoints out of order: 2.0 > 1.0"),
        (("--interval", "0,1", "--interval", "bad"), "interval must be 'lo,hi', got 'bad'"),
        (("--interval", "0,1", "--interval", "0,inf"), "interval endpoints must be finite, got '0,inf'"),
        (("--input", str(single), "--interval", "0,1", "--cdf-grid", "0:1:0.5"),
         "--cdf-grid needs at least 2 points to form gaps"),
        (("--interval", "0,1", "--cdf-grid", "0:1"), "--cdf-grid must be 'lo:hi:step', got '0:1'"),
        (("--interval", "0,1", "--cdf-grid", "0:1:0"), "--cdf-grid step must be positive"),
    ):
        code, out, err = run(capsys, "analyze", "--input", path, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: {message}\n", argv


def test_non_finite_floats_never_reach_stdout(tmp_path, capsys):
    from ppclab.cli import _dumps

    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="has no JSON form"):
            _dumps({"x": [1.0, bad]})
    code, out, err = run(capsys, "verify", "final-ineq", "--epsilon", "inf")
    assert (code, out) == (2, "")
    assert err == "error: inf has no JSON form: values must be finite\n"
    code, out, err = run(capsys, "partition", "--input", write_lattice(tmp_path, n=50), "--threshold", "inf")
    assert (code, out) == (2, "")
    assert err == "error: inf has no JSON form: values must be finite\n"
    seq = tmp_path / "capped.txt"
    code, out, err = run(capsys, "generate", "--kind", "capped", "--cap", "inf", "--n", "10", "-o", str(seq))
    assert (code, out) == (2, "")
    assert err == "error: inf has no JSON form: values must be finite\n"
    assert not seq.exists()


def test_dumps_refuses_a_type_json_cannot_hold():
    from ppclab.cli import _dumps

    with pytest.raises(TypeError) as exc:
        _dumps({"x": object()})
    assert str(exc.value) == "cannot serialize <class 'object'>"


def test_a_closed_stdout_pipe_exits_0_with_nothing_on_stderr(tmp_path):
    path = tmp_path / "poisson.txt"
    pl.write_sequence(path, pl.generate(pl.GeneratorConfig("poisson", 45_000, seed=11)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ppclab.cli", "partition", "--input", str(path), "--check"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env(),
    )
    assert proc.stdout.read(64).startswith(b'{"manifest":')  # the output is over 1 MB, past a pipe's buffer
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_a_gap_above_the_threshold_as_a_prefix_difference_ends_its_block(tmp_path, capsys):
    path = tmp_path / "five.txt"
    path.write_text("0.1\n0.2\n0.95\n1.45\n2.2\n")  # gap 3 is 0.5 raw, 0.5000000000000001 as a prefix difference
    g = pl.gaps_of(pl.ingest_and_unfold(path))
    assert g.gaps[2] == 0.5 < g.window_sum(3, 3)
    code, out, err = run(capsys, "audit", "--input", str(path), "--epsilon", "1e-9", "--n", "5")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert (doc["block_count"], doc["total_block_length"], doc["density_lhs"]) == (1, 1, 0.25)
    block = '{"parent":[1,1],"parts":[[1,1]],"ranks":[1],"sums":[0.10000000000000001],"sandwiched":[]'
    for flags, check in (((), ""), (("--check",), ',"check":{"adjacent_ok":true,"sandwich_ok":true}')):
        code, out, err = run(capsys, "partition", "--input", str(path), *flags)
        assert (code, err) == (0, ""), flags
        assert out.splitlines()[1:] == [block + check + "}"]


def test_a_one_megabyte_bad_line_is_quoted_by_its_start_and_length(tmp_path, capsys):
    for name, line, problem in (("junk", b"x" * 10**6, "could not parse"),
                                ("digits", b"1" * 10**6, "non-finite value")):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(b"0.5\n" + line + b"\n")
        code, out, err = run(capsys, "analyze", "--input", str(path), "--interval", "0,1")
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024
        assert err.startswith(f"error: line 2: {problem} '{line[:80].decode()}'... (1000000 characters)")


def test_manifest_input_hash_is_the_sha256_of_the_file_bytes(tmp_path, capsys):
    for name, content in (("plain.txt", "".join(f"{i / 4}\n" for i in range(60))),
                          ("commented.txt", "# header\n" + "".join(f"{i / 4}\r\n" for i in range(60)))):
        path = tmp_path / name
        path.write_bytes(content.encode())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        runs = [
            ("analyze", "--input", str(path), "--interval", "0,1"),
            ("partition", "--input", str(path), "--check"),
            ("audit", "--input", str(path), "--epsilon", "1e-9", "--n", "59"),
            ("ingest", "--input", str(path), "-o", str(tmp_path / "out.txt")),
        ]
        for argv in runs:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            assert json.loads(out.splitlines()[0])["manifest"]["input_hash"] == digest, argv


def test_blank_and_comment_lines_anywhere_are_read_in_one_pass(tmp_path, capsys, monkeypatch):
    clean = tmp_path / "clean.txt"
    pl.write_sequence(clean, pl.generate(pl.GeneratorConfig("poisson", 3000, seed=7)))
    lines = clean.read_bytes().splitlines(keepends=True)
    mixed = tmp_path / "mixed.txt"
    mixed.write_bytes(b"".join([b"# start\n", b"\n", *lines[:1500], b"  # middle\r\n", b" \t\n", *lines[1500:],
                                b"\n", b"# end"]))

    def refuse(text, mode):
        raise AssertionError("the line loop was reached")

    monkeypatch.setattr(pl.sequences, "_parse_lines", refuse)
    commands = [
        ("audit", "--epsilon", "1e-9", "--n", "2999"),
        ("analyze", "--interval=0,1", "--interval=0.25,0.75", "--interval=-2,2", "--cdf-grid", "0:4:0.02"),
        ("partition", "--threshold", "2", "--check"),
        ("ingest", "-o"),
    ]
    for command, *rest in commands:
        outputs = []
        for path in (clean, mixed):
            written = [str(path) + ".out"] if command == "ingest" else []
            code, out, err = run(capsys, command, "--input", str(path), *rest, *written)
            assert (code, err) == (0, ""), (command, path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            outputs.append(out.replace(str(path), "INPUT").replace(digest, "HASH"))
        assert outputs[0] == outputs[1], command
    assert Path(f"{clean}.out").read_bytes() == Path(f"{mixed}.out").read_bytes()


# Sequence files for the argv fuzz test: the valid ones first (one is a long block of equal gaps),
# then every kind of malformed file the reader must turn into exit 2.
FUZZ_FILES = {
    "lattice": b"0\n1\n2\n3\n",
    "equal": "".join(f"{0.3 * i!r}\n" for i in range(2000)).encode(),
    "crlf": b"0\r\n1\r\n2.5\r\n",
    "cr": b"0\r1\r2\r",
    "zeta": b"14.13\n21.02\n25.01\n30.42\n",
    "one": b"5\n",
    "empty": b"",
    "comments": b"# a\n\n# b\n",
    "unsorted": b"1\n0.5\n",
    "duplicate": b"1\n1\n",
    "nonfinite": b"0\ninf\n",
    "text": b"0\nabc\n",
    "binary": b"\x00\xff\xfe\n",
    "bom": "\ufeff1\n2\n".encode(),
    "overflow": b"-1.7e308\n1.7e308\n",
    "subnormal": b"0\n1e-310\n2e-310\n",  # a span too small for --normalize to rescale
    "zeta_overflow": b"1e308\n1.7976931348623157e308\n",  # t*ln(t) overflows
}
FUZZ_NUMBERS = ["0", "1", "-1", "0.5", "1.5", "2", "1e-9", "0.01", "1e308", "nan", "inf", "-inf", "x", "", "1_0"]


# A value is drawn from in-range, edge, out-of-range, non-finite and non-numeric strings, in-range
# ones more often; a ("file", name) or ("out", name) pair stands for a path the test fills in.
_number = st.one_of(st.sampled_from(["1e-9", "0.01", "0.5", "1.5"]), st.sampled_from(FUZZ_NUMBERS))
_count = st.one_of(st.integers(-2, 60).map(str), st.integers(-2, 10**4).map(str), _number)
_source = st.one_of(st.sampled_from(["lattice", "equal", "crlf", "cr", "zeta"]),
                    st.sampled_from([*FUZZ_FILES, "missing", "."])).map(lambda name: ("file", name))
_target = st.sampled_from(["out.txt", ".", "missing/out.txt"]).map(lambda name: ("out", name))
FUZZ_COMMANDS = {  # flag -> value strategy, or None for a switch; (required, optional) per subcommand
    "generate": ({"--kind": st.sampled_from(["poisson", "capped", "quadratic_form", "bogus"]),
                  "--n": _count, "-o": _target},
                 {"--seed": st.sampled_from(["0", "7", "-1", str(2**64), "x"]), "--cap": _number,
                  "--alpha": _number}),
    "analyze": ({"--input": _source},
                {"--n": _count, "--interval": st.sampled_from(["0,1", "-1,1", "1,0", "0,nan", "0", "a,b"]),
                 "--closed": None, "--open": None, "--cdf-out": _target,
                 "--cdf-grid": st.sampled_from(["0:1:0.25", "1:0:0.5", "0:1:0", "0:inf:1", "0:1e300:1e-300", "a"])}),
    "partition": ({"--input": _source},
                  {"--n": _count, "--threshold": _number, "--check": None}),
    "audit": ({"--input": _source, "--epsilon": _number, "--n": _count}, {}),
    "ingest": ({"--input": _source, "-o": _target},
               {"--mode": st.sampled_from(["raw", "zeta_unfold", "bogus"]), "--normalize": None}),
    "verify lemma512": ({"--lmax": st.integers(-2, 30).map(str)}, {}),
    "verify final-ineq": ({"--epsilon": _number}, {}),
}


def _leaf_parsers(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """Every leaf subcommand's parser, keyed like ``FUZZ_COMMANDS`` ("generate", "verify lemma512")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix.strip(): parser}
    return {k: v for word, p in subs[0].choices.items() for k, v in _leaf_parsers(p, f"{prefix}{word} ").items()}


def test_the_fuzz_table_has_every_subcommand():
    assert sorted(_leaf_parsers(build_parser())) == sorted(FUZZ_COMMANDS)


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
def test_the_fuzz_table_names_every_option_of_the_parser(command):
    required, optional = FUZZ_COMMANDS[command]
    table = {**required, **optional}
    parser = _leaf_parsers(build_parser())[command]
    options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    for action in options:
        assert set(action.option_strings) & set(table), (command, action.option_strings)
    known = {flag for action in options for flag in action.option_strings}
    assert set(table) <= known, (command, set(table) - known)


@st.composite
def cli_argv(draw):
    """An argv for one subcommand of ``FUZZ_COMMANDS``: its required flags (each usually present),
    then random flags."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    flags = [flag for flag in required if draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from([*optional]), max_size=3)) if optional else []
    flags += ["--bogus"] * (draw(st.integers(0, 9)) == 0)
    argv = command.split()
    for flag in flags:
        argv.append(flag)
        value = {**required, **optional}.get(flag)
        if value is not None and draw(st.integers(0, 19)):  # now and then the value is missing
            argv.append(draw(value))
    return argv


@given(cli_argv())
@example(argv=["partition", "--input", ("file", "overflow")])  # its one gap overflows to inf
@example(argv=["analyze", "--input", ("file", "overflow"), "--interval", "-1,1"])
@example(argv=["ingest", "--input", ("file", "subnormal"), "-o", ("out", "out.txt"), "--normalize"])
@example(argv=["ingest", "--input", ("file", "zeta_overflow"), "-o", ("out", "out.txt"), "--mode", "zeta_unfold"])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(tmp_path, capsys, argv):
    for name, content in FUZZ_FILES.items():
        path = tmp_path / name
        if not path.exists():
            path.write_bytes(content)
    resolved = [str(tmp_path / token[1]) if isinstance(token, tuple) else token for token in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(resolved)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2), resolved
    assert [str(w.message) for w in caught] == [], resolved


def test_a_file_wider_than_the_float_range_names_the_overflow_and_warns_nowhere(tmp_path, capsys):
    path = tmp_path / "overflow.txt"
    path.write_bytes(FUZZ_FILES["overflow"])  # -1.7e308 and 1.7e308: the one gap overflows to inf
    runs = {
        ("ingest", "-o", str(tmp_path / "out.txt")): 0,
        ("analyze", "--interval=0,1"): 0,
        ("ingest", "-o", str(tmp_path / "normalized.txt"), "--normalize"): 2,
        ("partition",): 2,
        ("audit", "--epsilon", "1e-9", "--n", "2"): 2,
        ("analyze", "--cdf-grid", "0:1:0.5"): 2,
    }
    for (command, *rest), expected in runs.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, "--input", str(path), *rest)
        assert (code, [str(w.message) for w in caught]) == (expected, []), command
        assert "Warning" not in err, command
        if command == "analyze" and expected == 0:
            assert json.loads(out.splitlines()[0])["pair_count"] == 0
        if expected == 2:
            assert "values span more than the binary64 range" in err, command


def test_ingest_edge_files_exit_2_naming_the_cause_and_warn_nowhere(tmp_path, capsys):
    runs = {
        ("subnormal", "--normalize"): "error: span 2e-310 is too small to rescale to mean gap 1: 2/span overflows\n",
        ("zeta_overflow", "--mode", "zeta_unfold"):
            "error: zeta_unfold overflows: t*ln(t) exceeds the binary64 range at t = 1e+308\n",
    }
    for (name, *rest), message in runs.items():
        path = tmp_path / name
        path.write_bytes(FUZZ_FILES[name])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "ingest", "--input", str(path), "-o", str(tmp_path / "out.txt"), *rest)
        assert (code, out, err, [str(w.message) for w in caught]) == (2, "", message, []), name
