"""CLI ``ingest`` and ``partition`` on a spill of their input against the whole-array path.

Both commands read their file once into an unnamed temporary file of
float64 values (``sequences._Spill``), then read it back chunk by chunk.
``ingest`` must write the bytes, and raise the errors in the order, of
``ingest_and_unfold``, ``normalize_mean_gap`` and ``write_sequence`` on
whole arrays, however the spill is cut; a failed run must leave no file,
in the output's directory or under ``TMPDIR``.  Values a few units in the
last place apart collide once unfolded, and a first value of -1e20 makes
later ones collide once shifted, so both increase checks fail somewhere.
"""

import hashlib
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest

import ppclab as pl
from ppclab import sequences
from ppclab.cli import _dumps, _manifest, main
from test_audit_stream import ERROR_FILES
from test_cli import FUZZ_FILES, run
from test_ingest import refuse


def _lines(values) -> bytes:
    return "".join(f"{v!r}\n" for v in values).encode()


_CLOSE = (3.0 * (1 + np.arange(40) * 2.0**-52)).tolist()  # unfolded, the 3rd and 4th collide
_SHIFTED = [-1e20, *np.arange(1.0, 40.0).tolist()]  # less the first, every later value is 1e20

# Files whose values fail only after the read: unfolded or normalized, in every order those errors come.
VALUE_FILES = {
    "unfolded ties": _lines(_CLOSE),
    "unfolded ties late": _lines([2.0 + k / 32 for k in range(30)] + _CLOSE),
    "unfolded ties, then an overflow": _lines(_CLOSE + [1e308, 1.7976931348623157e308]),
    "shifted ties": _lines(_SHIFTED),
    "shifted ties late": _lines([-1e20, *(1e5 * np.arange(1, 31)).tolist(), *(3.1e6 + np.arange(10)).tolist()]),
    "zeta_overflow": FUZZ_FILES["zeta_overflow"],
    "subnormal": FUZZ_FILES["subnormal"],
}
MODES = [("raw", False), ("raw", True), ("zeta_unfold", False), ("zeta_unfold", True)]


def reference(path, out, mode: str, normalize: bool):
    """(code, stdout, stderr, written bytes or None) of ``ingest`` made on whole arrays."""
    try:
        seq = pl.ingest_and_unfold(path, mode)
        if normalize:
            seq = pl.normalize_mean_gap(seq)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n", None
    pl.write_sequence(out, seq)
    params = {"input": str(path), "mode": mode, "normalize": normalize, "output": str(out)}
    doc = {"written": str(out), "n_points": seq.n,
           "manifest": _manifest("ingest", params, input_hash=seq.metadata["input_sha256"])}
    written = out.read_bytes()
    out.unlink()
    return 0, _dumps(doc) + "\n", "", written


def ingest_cli(capsys, path, out, mode: str, normalize: bool):
    """(code, stdout, stderr, written bytes or None) of CLI ``ingest``; no warning may be raised."""
    argv = ["ingest", "--input", str(path), "--mode", mode, "-o", str(out), *(["--normalize"] * normalize)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    return code, stdout, err, out.read_bytes() if out.exists() else None


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    """The input's, the output's and ``TMPDIR``'s directories, each empty."""
    made = {name: tmp_path / name for name in ("input", "output", "tmp")}
    for path in made.values():
        path.mkdir()
    monkeypatch.setenv("TMPDIR", str(made["tmp"]))
    monkeypatch.setattr(tempfile, "tempdir", None)  # read TMPDIR again
    return made


def listed(path):
    return sorted(os.listdir(path))


@pytest.mark.parametrize("chunk", [1, 2, 3, None])
@pytest.mark.parametrize("name", sorted({**ERROR_FILES, **VALUE_FILES}))
def test_ingest_writes_the_whole_array_bytes_or_its_error_and_leaves_no_file(capsys, monkeypatch, dirs, name,
                                                                              chunk):
    path = dirs["input"] / "seq.txt"
    path.write_bytes({**ERROR_FILES, **VALUE_FILES}[name])
    out = dirs["output"] / "out.txt"
    expected = {case: reference(path, out, *case) for case in MODES}
    assert listed(dirs["output"]) == []
    if chunk is not None:  # every value's check runs at a chunk's start, end and middle
        monkeypatch.setattr(sequences, "_WRITE_CHUNK", chunk)
    for case, outcome in expected.items():
        assert ingest_cli(capsys, path, out, *case) == outcome, case
        assert listed(dirs["output"]) == ([] if outcome[0] else ["out.txt", "out.txt.manifest.json"]), case
        assert listed(dirs["tmp"]) == [] and listed(dirs["input"]) == ["seq.txt"], case
        for written in dirs["output"].iterdir():
            written.unlink()


def test_the_value_files_fail_where_they_are_meant_to(tmp_path):
    # each file's first error, read whole, is the one its name says
    messages = {
        ("unfolded ties", "zeta_unfold", False): "sequence not strictly increasing at position 4 ",
        ("unfolded ties late", "zeta_unfold", False): "sequence not strictly increasing at position 34 ",
        ("unfolded ties, then an overflow", "zeta_unfold", False): "zeta_unfold overflows",
        ("shifted ties", "raw", True): "sequence not strictly increasing at position 3 ",
        ("shifted ties late", "raw", True): "sequence not strictly increasing at position 33 ",
    }
    path = tmp_path / "seq.txt"
    for (name, mode, normalize), message in messages.items():
        path.write_bytes(VALUE_FILES[name])
        with pytest.raises(ValueError, match=message.replace("*", r"\*")):
            seq = pl.ingest_and_unfold(path, mode)
            if normalize:
                pl.normalize_mean_gap(seq)


@pytest.mark.parametrize("flags", [[], ["--normalize"], ["--mode", "zeta_unfold"]])
def test_ingest_over_its_own_input_writes_the_whole_array_bytes(tmp_path, capsys, monkeypatch, flags):
    values = pl.generate(pl.GeneratorConfig("poisson", 20_000, seed=7)).values + 2.0  # > 1 for zeta_unfold
    path, copy = tmp_path / "seq.txt", tmp_path / "copy.txt"
    pl.write_sequence(path, pl.RealSequence(values))
    copy.write_bytes(path.read_bytes())
    mode = "zeta_unfold" if "zeta_unfold" in flags else "raw"
    expected = reference(copy, tmp_path / "expected.txt", mode, "--normalize" in flags)
    monkeypatch.setattr(sequences, "_INGEST_CHUNK", 1 << 14)  # the file spans many reads
    code, out, err = run(capsys, "ingest", "--input", str(path), "-o", str(path), *flags)
    assert (code, err) == (0, "")
    assert path.read_bytes() == expected[3]
    assert out == expected[1].replace(str(copy), str(path)).replace(str(tmp_path / "expected.txt"), str(path))


def test_a_lone_cr_in_the_last_read_keeps_the_one_read(tmp_path, capsys, monkeypatch):
    # A line with a lone "\r", which the text reader takes as a line end, sits in the last of many reads:
    # the fast reader reads it as two blank lines, and the spill holds the clean file's values.
    clean = tmp_path / "clean.txt"
    pl.write_sequence(clean, pl.RealSequence(pl.generate(pl.GeneratorConfig("poisson", 3000, seed=7)).values + 2.0))
    cr = tmp_path / "cr.txt"
    cr.write_bytes(clean.read_bytes() + b"\r \n")
    monkeypatch.setattr(sequences, "_INGEST_CHUNK", 4096)
    monkeypatch.setattr(sequences, "_parse_lines", refuse)
    commands = [
        ("partition", "--threshold", "2", "--check"),
        ("partition", "--threshold", "0.5", "--n", "2500"),
        ("ingest", "-o"),
        ("ingest", "--normalize", "-o"),
        ("ingest", "--mode", "zeta_unfold", "--normalize", "-o"),
    ]
    for command, *rest in commands:
        outputs, written = [], []
        for path in (clean, cr):
            target = [str(tmp_path / "out.txt")] if command == "ingest" else []
            code, out, err = run(capsys, command, "--input", str(path), *rest, *target)
            assert (code, err) == (0, ""), (command, rest, path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            outputs.append(out.replace(str(path), "INPUT").replace(digest, "HASH"))
            if target:
                written.append((tmp_path / "out.txt").read_bytes())
        assert outputs[0] == outputs[1], (command, rest)
        assert written[:1] == written[1:], (command, rest)


@pytest.mark.parametrize("flags", [[], ["--normalize"]])
def test_ingest_memory_does_not_grow_with_the_input(tmp_path, capsys, monkeypatch, flags):
    # ingest holds one read of the file, one chunk of the spill read back and that chunk's text; where it
    # read the file whole it held the values, 8 bytes a point, and --normalize a second copy of them.
    peaks = {}
    for n in (100_000, 400_000):
        path = tmp_path / f"poisson{n}.txt"
        pl.write_sequence(path, pl.generate(pl.GeneratorConfig("poisson", n, seed=7)))
        tracemalloc.start()
        try:
            code = main(["ingest", "--input", str(path), "-o", str(tmp_path / "out.txt"), *flags])
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
    assert peaks[400_000] - peaks[100_000] <= 1 << 20, peaks
