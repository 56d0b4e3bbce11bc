"""Ingest's decimal kernel against ``float``: every line it decides, bit for bit, and the lines it must leave.

The kernel reads a line of the form ``[0-9]*.?[0-9]*`` with 1 to 19 digits
as M / 10^k, divides in longdouble and casts to binary64.  That is exact
unless the longdouble quotient lands exactly on a midpoint between two
adjacent doubles, so the tests below aim at those midpoints: integer ties
above 2^53, and decimals built to round to a midpoint at 64 bits.  Whether
a line lands on one is decided here with Python integers, not longdouble.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import sequences
from oracles import fast_values, ingest_loop

W = sequences._WIDTH


def kernel(lines):
    """The kernel's values and decisions for ``lines`` (bytes, each without its newline)."""
    buf = np.frombuffer(b"\n" * W + b"".join(line + b"\n" for line in lines), np.uint8)
    ends = np.flatnonzero(buf == 10)[W:]
    lens = np.diff(ends, prepend=W - 1) - 1
    out = np.full(len(lines), np.nan)
    decided = sequences._decimal_values(np.lib.stride_tricks.sliding_window_view(buf, W), ends, lens, out)
    return out, decided


def lands_on_a_midpoint(m: int, k: int) -> bool:
    """Whether m / 10^k, rounded to 64 significant bits, lies exactly halfway between two adjacent doubles."""
    if m == 0:
        return False
    a, b = m, 10**k  # scale a / b into [2^63, 2^64) by powers of two
    shift = 63 - (a.bit_length() - b.bit_length())
    a, b = (a << shift, b) if shift >= 0 else (a, b << -shift)
    while a < b << 63:
        a <<= 1
    while a >= b << 64:
        b <<= 1
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q & 1):  # to nearest, ties to even
        q += 1
    return q != 1 << 64 and q & 0x7FF == 0x400  # the 11 bits below binary64's 53 read 100...0


def mantissa(line: bytes) -> tuple[int, int]:
    whole, _, fraction = line.partition(b".")
    return int(whole + fraction or b"0"), len(fraction)


decimal_lines = st.text("0123456789", min_size=1, max_size=19).flatmap(
    lambda digits: st.sampled_from([None, *range(len(digits) + 1)]).map(
        lambda dot: (digits if dot is None else digits[:dot] + "." + digits[dot:]).encode()
    )
)

# Found by a seeded search over 2*10^6 random 17-digit mantissas at k = 16:
# each rounds to a binary64 midpoint at 64 bits.  The cast of the longdouble
# quotient rounds the first three the wrong way and the last three the right
# way (ties to even), so both outcomes of an unchecked cast are covered.
MIDPOINT_LINES = [b"9.8791525845165582", b"5.6630505569500591", b"6.4949823179673980",
                  b"2.5991480897723791", b"5.4033387167152509", b"4.6163039695397452"]


@given(st.lists(decimal_lines, min_size=1, max_size=40))
@example([b"9007199254740993", b"9007199254740995", b"9007199254740994"])  # integer ties above 2^53
@example([b"1.", b".5", b"007", b"0", b"0.000", b"0" * 19, b"9" * 19, b"." + b"9" * 19, b"9" * 19 + b"."])
@example(MIDPOINT_LINES)
@settings(max_examples=300, deadline=None)
def test_the_kernel_decides_every_strict_line_but_midpoints_and_gives_float(lines):
    values, decided = kernel(lines)
    for line, value, done in zip(lines, values.tolist(), decided.tolist()):
        if done:
            assert value.hex() == float(line).hex(), line
        assert done == (sequences._LONGDOUBLE_EXACT and not lands_on_a_midpoint(*mantissa(line))), line


def midpoint_decimal(k, e, j):
    """The k-place decimal nearest to the midpoint (2j + 1) * 2^(e - 53), j in [2^52, 2^53)."""
    num, den = (2 * j + 1) * 10**k, 1 << (53 - e)
    m, r = divmod(num, den)
    m += 2 * r > den or (2 * r == den and m & 1)
    return m, f"{m // 10**k}.{m % 10**k:0{k}d}".encode()


# k places and binade [2^e, 2^(e+1)) where a 19-digit decimal hits a midpoint often
@given(st.sampled_from([(19, -1), (18, 2), (17, 5)]), st.integers(1 << 52, (1 << 53) - 1))
@settings(max_examples=200, deadline=None)
def test_lines_on_a_midpoint_are_left_to_float(place, j):
    k, e = place
    m, line = midpoint_decimal(k, e, j)
    assume(lands_on_a_midpoint(m, k))
    line = line.lstrip(b"0")  # 19 digits at most: ".5…" for the first binade
    assert fast_values(line, "raw").tolist() == [float(line)]
    assert not kernel([line])[1][0]


def test_the_midpoint_check_matters_on_this_platform():
    if np.finfo(np.longdouble).nmant != 63:
        pytest.skip("the three wrong casts are those of a 64-bit longdouble")
    cast = [float(np.float64(np.longdouble(m) / np.longdouble(10**k))) for m, k in map(mantissa, MIDPOINT_LINES)]
    assert [c == float(line) for c, line in zip(cast, MIDPOINT_LINES)] == [False] * 3 + [True] * 3
    assert not kernel(MIDPOINT_LINES)[1].any()


@pytest.mark.parametrize("line", [b".", b"", b"1..2", b"1.2.3", b"-0.5", b"+1", b"1e5", b"1_0", b" 1.5", b"1.5 ",
                                  b"1.5\r", b"\t1", b"0x10", b"nan", b"inf", "٣".encode(), b"1" * 20,
                                  b"0" * 20, b"1" * 19 + b".1", b"0.000000000000000000001", b"1" * 25 + b"."])
def test_the_kernel_leaves_other_lines(line):
    lines = [b"1.5", line, b"2.5"]  # its neighbours are decided either way
    assert kernel(lines)[1].tolist() == [sequences._LONGDOUBLE_EXACT, False, sequences._LONGDOUBLE_EXACT]


def counting_kernel(monkeypatch):
    """Wrap the kernel so it counts the lines it is given and the lines it decides."""
    counts = {"lines": 0, "decided": 0}
    decimal_values = sequences._decimal_values

    def count(windows, ends, lens, out):
        decided = decimal_values(windows, ends, lens, out)
        counts["lines"] += ends.size
        counts["decided"] += int(np.count_nonzero(decided))
        return decided

    monkeypatch.setattr(sequences, "_decimal_values", count)
    return counts


@pytest.mark.parametrize("kind", sequences.GENERATOR_KINDS)
def test_the_kernel_decides_nearly_every_line_of_a_written_file(tmp_path, monkeypatch, kind):
    seq = pl.generate(pl.GeneratorConfig(kind, 100_000, seed=5, cap=2.0 if kind == "capped" else None))
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq, comment=kind)
    counts = counting_kernel(monkeypatch)
    got = pl.ingest_and_unfold(path).values
    assert got.tobytes() == seq.values.tobytes() == ingest_loop(path).tobytes()
    assert counts["lines"] == seq.n + 1  # and the header line, which the kernel leaves
    if sequences._LONGDOUBLE_EXACT:
        assert counts["decided"] >= 0.999 * seq.n, counts  # the rest went to float one at a time


def test_crlf_line_ends_keep_the_kernel(tmp_path, monkeypatch):
    seq = pl.generate(pl.GeneratorConfig("poisson", 20_000, seed=4))
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq, comment="written\nwith crlf")
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    counts = counting_kernel(monkeypatch)
    assert pl.ingest_and_unfold(path).values.tobytes() == seq.values.tobytes() == ingest_loop(path).tobytes()
    assert counts["lines"] == seq.n + 2  # and the two header lines
    if sequences._LONGDOUBLE_EXACT:
        assert counts["decided"] >= 0.999 * seq.n, counts


def test_without_an_exact_longdouble_every_line_goes_to_float(tmp_path, monkeypatch):
    seq = pl.generate(pl.GeneratorConfig("poisson", 20_000, seed=9))
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq)
    path.write_bytes(path.read_bytes() + b"30000.5\n30001\n30001.25\n9007199254740993\n")
    expected = pl.ingest_and_unfold(path).values.tobytes()
    monkeypatch.setattr(sequences, "_LONGDOUBLE_EXACT", False)
    counts = counting_kernel(monkeypatch)
    assert pl.ingest_and_unfold(path).values.tobytes() == expected == ingest_loop(path).tobytes()
    assert counts == {"lines": seq.n + 4, "decided": 0}


@given(st.lists(decimal_lines, min_size=1, max_size=60), st.sampled_from([1, 7, 64, 4096]))
@settings(max_examples=100, deadline=None)
def test_decimal_files_match_the_line_loop(tmp_path_factory, lines, chunk):
    lines = sorted(set(lines), key=lambda line: (float(line), line))
    lines = [line for i, line in enumerate(lines) if i == 0 or float(line) > float(lines[i - 1])]
    path = tmp_path_factory.mktemp("decimal") / "seq.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_INGEST_CHUNK", chunk)
        assert pl.ingest_and_unfold(path).values.tobytes() == ingest_loop(path).tobytes()


def test_ingest_peak_memory_is_the_values_and_a_bounded_workspace(tmp_path):
    n = 200_000
    path = tmp_path / "seq.txt"
    path.write_bytes(b"".join(b"%.17g\n" % (1.0 + k / 7) for k in range(n)))
    tracemalloc.start()
    try:
        seq = pl.ingest_and_unfold(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seq.n == n
    assert peak < seq.values.nbytes + (2 << 20)


def lines_with_one_of_length(where, length):
    """A valid file's lines, one of which is ``length`` characters long."""
    def long(value):
        return value + b" " * (length - len(value))  # the blanks strip away

    return {
        "first": [long(b"1"), b"2"],
        "header": [b"#" + b"c" * (length - 1), b"1", b"2"],
        "middle": [b"1", b"2", long(b"3"), b"4"],
        "last without newline": [b"1", b"2", long(b"3")],
        "crlf": [b"1", long(b"2") + b"\r", b"3"],
        "non-ascii header": [("# " + "ζ" * (length - 2)).encode(), b"1", b"2"],  # 2 bytes a character
        "non-ascii blanks": [b"1", "\u3000".encode() * (length - 1) + b"2", b"3"],  # 3 bytes a character
    }[where]


@pytest.mark.parametrize("limit", [64, sequences._LINE_MAX])
@pytest.mark.parametrize("where", ["first", "header", "middle", "last without newline", "crlf",
                                   "non-ascii header", "non-ascii blanks"])
def test_a_line_over_the_limit_is_refused_on_both_paths(tmp_path, monkeypatch, limit, where):
    monkeypatch.setattr(sequences, "_LINE_MAX", limit)
    path = tmp_path / "seq.txt"
    for length in (limit, limit + 1):
        lines = lines_with_one_of_length(where, length)
        content = b"\n".join(lines) + (b"" if where.endswith("newline") else b"\n")
        path.write_bytes(content)
        if length == limit:  # the fast path holds a longest line, in however many bytes
            assert fast_values(content, "raw").tobytes() == ingest_loop(path).tobytes()
            assert pl.ingest_and_unfold(path).values.tobytes() == ingest_loop(path).tobytes()
            continue
        assert fast_values(content, "raw") is None
        lineno = next(i for i, line in enumerate(lines, 1) if len(line) > limit)
        with pytest.raises(sequences.SequenceFormatError, match=f"^line {lineno}: longer than the limit of {limit} "):
            pl.ingest_and_unfold(path)


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_a_line_of_more_bytes_than_the_limit_but_not_more_characters_takes_the_fast_path(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(sequences, "_LINE_MAX", 64)
    if chunk is not None:
        monkeypatch.setattr(sequences, "_INGEST_CHUNK", chunk)
    path = tmp_path / "seq.txt"
    comment = ("# " + "ζ" * 40).encode()  # 82 bytes, 42 characters
    for lines in ([b"1", comment, b"2"], [comment, b"1", comment, b"2", comment]):
        content = b"\n".join(lines) + b"\n"
        path.write_bytes(content)
        assert fast_values(content, "raw").tobytes() == ingest_loop(path).tobytes()
    # after such a line, one of 65 characters, of one byte or two, is refused on both paths
    for line in (b"#" + b"x" * 64, ("#" + "ζ" * 64).encode()):
        content = b"\n".join([b"1", comment, b"2", line, b"3"]) + b"\n"
        path.write_bytes(content)
        assert fast_values(content, "raw") is None
        with pytest.raises(sequences.SequenceFormatError, match="^line 4: longer than the limit of 64 "):
            pl.ingest_and_unfold(path)
    # a line of bytes that only continue UTF-8 characters fills the grown buffer, and is not UTF-8
    content = b"1\n" + b"\x80" * 300 + b"\n2\n"
    path.write_bytes(content)
    assert fast_values(content, "raw") is None
    with pytest.raises(sequences.SequenceFormatError, match="^line 2: byte 0x80 is not UTF-8$"):
        pl.ingest_and_unfold(path)


def test_a_long_line_is_refused_without_being_held(tmp_path):
    path = tmp_path / "seq.txt"
    with open(path, "wb") as fh:
        fh.write(b"1\n2\n")
        for _ in range(16):
            fh.write(b"x" * (1 << 20))  # one 16 MB line
        fh.write(b"\n3\n")
    tracemalloc.start()
    try:
        with pytest.raises(sequences.SequenceFormatError, match="^line 3: longer than the limit"):
            pl.ingest_and_unfold(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * sequences._LINE_MAX
