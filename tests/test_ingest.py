"""Ingest's whole-file parse against the line-by-line oracle: the same values or the same error."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import sequences
from oracles import fast_values, ingest_loop
from test_audit_stream import audit_cli
from test_cli import FUZZ_FILES
from test_partition_stream import partition_cli, reference


def outcome(read, path, mode="raw"):
    """The values' bytes, or the error's type, message and line."""
    try:
        values = read(path, mode)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return np.asarray(getattr(values, "values", values)).tobytes()


def assert_matches_oracle(path, mode="raw"):
    expected = outcome(ingest_loop, path, mode)
    assert outcome(pl.ingest_and_unfold, path, mode) == expected
    return expected


CASES = {
    "underscores": b"1_000\n2_000\n",
    "whitespace and tabs": b" 1.5 \n\t2.5\t\n  3  \t\n",
    "crlf": b"1\r\n2\r\n3\r\n",
    "lone cr": b"1\r2\r3\r",
    "cr between": b"1\n2\r3\n",
    "cr around a number": b"1\n\r2\n3\r\r\n",
    "vertical tab and form feed": b"1\x0b\n\x0c2\n",
    "file separator": b"1\x1c\n2\n",
    "two numbers on a line": b"1\n1 2\n3\n",
    "infinity": b"1\ninfinity\n",
    "negative infinity": b"-inf\n1\n",
    "nan": b"1\nnan\n",
    "nan beside a comment": b"1\n# c\nnan\n2\n",
    "arabic-indic digits": "١\n٢٫٥\n3\n".encode(),
    "arabic-indic digits only": "١\n٢\n".encode(),
    "leading blank": b"\n1\n2\n",
    "blank after data": b"1\n\n2\n",
    "blank at the end": b"1\n2\n\n",
    "whitespace-only line": b"1\n \t \n2\n",
    "comment first": b"# header\n1\n2\n",
    "two comments with crlf": b"# a\r\n# b\r\n1\r\n2\r\n",
    "lone cr in a comment": b"# a\r1\n2\n",
    "blank after the comments": b"# a\n\n1\n2\n",
    "indented comment": b" # a\n1\n2\n",
    "comment without a newline": b"# a",
    "comment after data": b"1\n# middle\n2\n# end\n",
    "no trailing newline": b"1\n2\n3",
    "one value": b"7",
    "empty": b"",
    "only a newline": b"\n",
    "only comments": b"# a\n# b\n",
    "invalid utf-8": b"1\n\xff\n3\n",
    "invalid utf-8 in a comment": b"1\n# \xff\n3\n",
    "non-ascii comment": "# ζ\n0.5\n2\n".encode(),  # as write_sequence(comment="ζ") writes it
    "truncated utf-8 at the end": b"1\n2\n\xc3",
    "byte order mark": "\ufeff1\n2\n".encode(),
    "nul byte": b"1\x00\n2\n",
    "decrease on the last line": b"1\n2\n3\n2.5\n",
    "tie on the last line": b"1\n2\n2\n",
    "negative zero after zero": b"0\n-0\n",
    "garbage": b"1\nbogus\n3\n",
}


@pytest.mark.parametrize("content", CASES.values(), ids=CASES.keys())
@pytest.mark.parametrize("mode", sequences.INGEST_MODES)
def test_ingest_matches_the_line_loop(tmp_path, content, mode):
    path = tmp_path / "seq.txt"
    path.write_bytes(content)
    assert_matches_oracle(path, mode)


@pytest.mark.parametrize("content", [b"0.5\n2\n", b"1\n2\n", b"2\n3\n1\n", b"1.0000000000000002\n2\n"])
def test_zeta_unfold_bound_matches_the_line_loop(tmp_path, content):
    path = tmp_path / "zeros.txt"
    path.write_bytes(content)
    assert_matches_oracle(path, "zeta_unfold")


def test_float_accept_set_is_kept(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_bytes("1_000\n\t2_000.5 \n٣٠٠٠\n".encode())  # underscores and Arabic-Indic digits parse
    assert pl.ingest_and_unfold(path).values.tolist() == [1000.0, 2000.5, 3000.0]


def test_clean_files_take_the_fast_path_and_others_fall_back():
    assert fast_values(b"1\n2.5\n3e2\n", "raw").tolist() == [1.0, 2.5, 300.0]
    # blank and comment lines anywhere, "\x1c" among the blanks as str.strip takes it
    for content in (b"# c\n#\n1\n2\n", b"1\n\n2\n", b"1\n# c\n2\n", b"1\n\x1c\n2\n"):
        assert fast_values(content, "raw").tolist() == [1.0, 2.0], content
    assert fast_values("١\n".encode(), "raw").tolist() == [1.0]  # non-ASCII digits, as float reads them
    for content in (b"1\n#a\rb\n2\n", b"# c\r1\n", b"# c\n", b"# c", b"1\n1\n", b"1\nnan\n", b"0.5\n", b""):
        mode = "zeta_unfold" if content == b"0.5\n" else "raw"
        assert fast_values(content, mode) is None, content


# Valid files the fast path still hands to the line loop: a lone "\r", where only the text reader ends a line.
STILL_DECLINED = {"lone cr", "cr between", "lone cr in a comment", "fuzz: cr"}


def test_every_valid_file_but_the_named_rare_forms_takes_the_fast_path(tmp_path):
    files = {**CASES, **{f"fuzz: {name}": content for name, content in FUZZ_FILES.items()}}
    path = tmp_path / "seq.txt"
    declined = set()
    for name, content in files.items():
        path.write_bytes(content)
        for mode in sequences.INGEST_MODES:
            try:
                with np.errstate(over="ignore"):  # the line loop's own unfold of a huge t
                    ingest_loop(path, mode)
            except ValueError:
                assert fast_values(content, mode) is None, (name, mode)
                continue
            if fast_values(content, mode) is None:
                declined.add(name)
    assert declined == STILL_DECLINED


@st.composite
def mixed_files(draw):
    """A file of increasing values among blank, whitespace-only and ``#`` lines, now and then a bad line,
    each line ended by LF or CRLF, and the last one maybe by nothing.  A quarter of the files may also
    hold rarer forms: "\\x1c"-"\\x1f" among the blanks, non-ASCII comments (one not UTF-8, which declines)
    and lone-CR ends, which decline."""
    rare = draw(st.integers(0, 3)) == 0
    blank = st.lists(st.sampled_from([b" ", b"\t", b"\x0b", b"\x0c", *[b"\x1c", b"\x1d", b"\x1e", b"\x1f"] * rare]),
                     max_size=3).map(b"".join)
    comment = st.sampled_from([b"#", b"# c", b"##1.5", b"#\t", *[b"# \xce\xb6", b"#\xff"] * rare])
    skipped = st.one_of(blank, st.tuples(blank, comment).map(b"".join))
    pad = st.one_of(st.sampled_from([b"", b"", b" ", b"\t"]), blank)
    gaps = draw(st.lists(st.sampled_from([0.5, 1.0, 0.1, 2.0**-30, 1234.5]), max_size=30))
    values = np.cumsum([draw(st.sampled_from([-2.5, 0.0, 1.5])), *gaps]).tolist()
    lines = []
    for v in values:
        lines += draw(st.lists(skipped, max_size=2))
        form = draw(st.sampled_from([lambda x: format(x, ".17g"), repr, lambda x: format(x, ".25g")]))
        lines.append(draw(pad) + form(v).encode() + draw(pad))
        if draw(st.integers(0, 49)) == 0:
            lines.append(draw(st.sampled_from([b"x", b"1 2", "٣".encode(), b"nan"])))
    lines += draw(st.lists(skipped, max_size=2))
    ends = [draw(st.sampled_from([b"\n", b"\n", b"\r\n", *[b"\r"] * rare])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


def line_loop_only(file, mode):
    raise sequences._Decline
    yield


@given(mixed_files(), st.sampled_from([1, 7, 64, None]), st.sampled_from([1, 5, 64, None]))
@example(b"1\n\n2\n# c\n\r \n3\n", 4, 3)  # a blank, a comment and a declining line straddle reads
@example(b"  # a\r\n\x0b\x0c\r\n1.5\r\n#\r2\n", None, 2)  # an indented comment, and a lone CR in one
@example(b"1\n#\xff\n2\n", None, None)  # a comment the text reader cannot decode
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_blank_and_comment_lines_anywhere_keep_the_fast_path_or_decline(tmp_path, capsys, content, chunk, block):
    path = tmp_path / "seq.txt"
    path.write_bytes(content)
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(sequences, "_INGEST_CHUNK", chunk)
        if block is not None:
            mp.setattr(sequences, "_KERNEL_BLOCK", block)
        got = fast_values(content)
        outcome = audit_cli(capsys, path, 1e-9, 2)
        if got is not None:  # the line loop's values, and the hash of the one read they came from
            seq = pl.ingest_and_unfold(path)
            assert got.tobytes() == seq.values.tobytes() == ingest_loop(path).tobytes()
            assert seq.metadata["input_sha256"] == hashlib.sha256(content).hexdigest()
        mp.setattr(sequences, "_parse_fast", line_loop_only)  # every file as the line loop reads it
        assert audit_cli(capsys, path, 1e-9, 2) == outcome
    try:
        ingest_loop(path)
    except ValueError as exc:  # a bad line is named, whichever path the audit took
        assert outcome == (2, "", f"error: {exc}\n")


def test_a_written_comment_header_keeps_the_fast_path(tmp_path, monkeypatch):
    def refuse(lines, mode):
        raise AssertionError("the line loop was reached")

    monkeypatch.setattr(sequences, "_parse_lines", refuse)
    seq = pl.RealSequence(pl.generate(pl.GeneratorConfig("poisson", 5000, seed=3)).values + 2.0)  # > 1
    path = tmp_path / "seq.txt"
    for comment, header in (("poisson, seed 3\nsecond header line", b"# poisson, seed 3\n# second header line\n"),
                            ("ζ", "# ζ\n".encode())):  # a non-ASCII header too
        pl.write_sequence(path, seq, comment=comment)
        assert path.read_bytes().startswith(header)
        for mode in sequences.INGEST_MODES:
            got = pl.ingest_and_unfold(path, mode).values
            assert got.tobytes() == ingest_loop(path, mode).tobytes()


def test_ingest_records_the_hash_of_the_bytes_it_read(tmp_path):
    for content in (b"1\n2\n3\n", b"# fallback\n1\n2\n"):
        path = tmp_path / "seq.txt"
        path.write_bytes(content)
        seq = pl.ingest_and_unfold(path)
        assert seq.metadata["input_sha256"] == hashlib.sha256(content).hexdigest()


def many_lines(count, bad_line=None, bad=b""):
    lines = [format(1.0 + k / 7, ".17g").encode() for k in range(count)]
    if bad_line is not None:
        lines[bad_line - 1] = bad
    return b"\n".join(lines) + b"\n"


def test_the_hash_covers_every_chunk_of_the_read_the_values_came_from(tmp_path, monkeypatch):
    monkeypatch.setattr(sequences, "_INGEST_CHUNK", 4096)
    parse_lines, reread = sequences._parse_lines, []
    monkeypatch.setattr(sequences, "_parse_lines", lambda lines, mode: reread.append(1) or parse_lines(lines, mode))
    path = tmp_path / "seq.txt"
    for content, fallback in ((many_lines(3000), False), (many_lines(3000, 2000, b"\r "), True)):  # a lone CR
        path.write_bytes(content)
        seq = pl.ingest_and_unfold(path)
        assert (seq.n, bool(reread)) == (3000 - fallback, fallback)
        assert seq.metadata["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_ingest_holds_neither_the_file_nor_a_copy_of_the_values(tmp_path, monkeypatch):
    monkeypatch.setattr(sequences, "_INGEST_CHUNK", 4096)
    n = 200_000
    path = tmp_path / "seq.txt"
    path.write_bytes(many_lines(n))
    assert path.stat().st_size > 2 * 8 * n  # the file's bytes alone outweigh two copies of the values
    tracemalloc.start()
    try:
        seq = pl.ingest_and_unfold(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.n == n
    assert peak < 3 * 8 * n


@pytest.mark.parametrize("content", [*CASES.values(), b"-1.7e308\n1.7e308\n", b"0\n1e-310\n2e-310\n"],
                         ids=[*CASES.keys(), "span overflows", "subnormal gaps"])
def test_gaps_in_the_values_storage_are_those_of_gaps_of(tmp_path, capsys, content):
    # partition makes its gaps from the values it holds, a step at a time: it prints what the blocks of
    # gaps_of print, or raises the errors of ingest and gaps_of in their order
    path = tmp_path / "seq.txt"
    path.write_bytes(content)
    for threshold in ("0.5", "2"):
        assert partition_cli(capsys, path, threshold) == reference(path, threshold)


@pytest.mark.parametrize("chunk", [1, 5, 64])
@pytest.mark.parametrize("bad", [None, b"", b"# c", b"0.5", b"x", b"inf"])
def test_small_chunks_match_the_line_loop(tmp_path, monkeypatch, chunk, bad):
    monkeypatch.setattr(sequences, "_INGEST_CHUNK", chunk)
    path = tmp_path / "seq.txt"
    for bad_line in (1, 2, 17, 40) if bad is not None else (None,):
        path.write_bytes(many_lines(40, bad_line, bad))
        assert_matches_oracle(path)


def test_first_bad_line_in_the_second_chunk(tmp_path):
    content = many_lines(80_000)
    assert len(content) > 1.1 * sequences._INGEST_CHUNK
    bad_line = content.count(b"\n", 0, sequences._INGEST_CHUNK) + 50  # past the first chunk's end
    path = tmp_path / "seq.txt"
    path.write_bytes(content)
    assert isinstance(assert_matches_oracle(path), bytes)
    for bad in (b"1.5", b"", b"x"):
        path.write_bytes(many_lines(80_000, bad_line, bad))
        expected = assert_matches_oracle(path)
        if bad != b"":
            assert expected[2] == bad_line


@pytest.mark.parametrize("form", [repr, lambda x: format(x, ".17g"), lambda x: format(x, ".25g")],
                         ids=["repr", ".17g", ".25g"])
def test_random_bit_doubles_parse_as_float_does(tmp_path, form):
    bits = np.random.default_rng(8).integers(0, 2**64, 10_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = np.unique(values[np.isfinite(values)])
    path = tmp_path / "bits.txt"
    path.write_text("".join(form(x) + "\n" for x in values.tolist()))
    got = pl.ingest_and_unfold(path).values
    assert got.tobytes() == ingest_loop(path).tobytes() == values.tobytes()  # each form round-trips
