"""Containers, generators, normalization, and file ingestion."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import sequences
from ppclab.sequences import GENERATOR_MAX_POINTS
from oracles import format_loop

positive_gap_lists = st.lists(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=64,
)


def test_real_sequence_rejects_non_increasing():
    with pytest.raises(ValueError, match="strictly increasing"):
        pl.RealSequence([0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        pl.RealSequence([3.0, 2.0])
    with pytest.raises(ValueError):
        pl.RealSequence([])


def test_real_sequence_is_immutable():
    seq = pl.RealSequence([0.0, 1.0])
    with pytest.raises(ValueError):
        seq.values[0] = 5.0


def test_the_public_constructors_copy_their_input():
    values, gaps = np.array([0.0, 1.0, 3.0]), np.array([0.5, 0.25])
    seq, g = pl.RealSequence(values), pl.GapSequence(gaps)
    values[1], gaps[0] = 2.0, 9.0
    assert seq.values.tolist() == [0.0, 1.0, 3.0]
    assert (g.gaps.tolist(), g.prefix.tolist()) == ([0.5, 0.25], [0.0, 0.5, 0.75])
    assert values.flags.writeable and gaps.flags.writeable  # the caller's arrays stay theirs


def test_every_array_the_library_makes_is_read_only(tmp_path, monkeypatch):
    def refuse(text, mode):
        raise AssertionError("the line reader was reached")

    monkeypatch.setattr(sequences, "_parse_lines", refuse)
    made = []
    for name, text in (("lf.txt", "1.5\n2.5\n4\n"), ("cr.txt", "1.5\n\r \n2.5\n")):  # a lone CR ends a line
        (tmp_path / name).write_bytes(text.encode())
        made += [pl.ingest_and_unfold(tmp_path / name, mode) for mode in sequences.INGEST_MODES]
    assert made[2].values.tolist() == [1.5, 2.5]
    made += [pl.generate(pl.GeneratorConfig(kind, n, seed=2, cap=1.5)) for kind in sequences.GENERATOR_KINDS
             for n in (1, 50)]
    made.append(pl.normalize_mean_gap(made[0]))
    made.append(pl.sequence_from_gaps([0.5, 0.25], start=1.0))
    arrays = [seq.values for seq in made]
    for seq in made:
        if seq.n > 1:
            g = pl.gaps_of(seq)
            arrays += [g.gaps, g.prefix]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0


def test_gap_sequence_rejects_negative():
    with pytest.raises(ValueError, match="negative gap"):
        pl.GapSequence([0.1, -0.2])


def test_gap_sequence_allows_zero_gaps():
    g = pl.GapSequence([0.0, 0.5, 0.0])
    assert g.length == 3
    assert g.window_sum(1, 3) == 0.5


def test_gaps_of_examples():
    assert pl.gaps_of(pl.RealSequence([0, 1, 2, 3])).gaps.tolist() == [1, 1, 1]
    assert pl.gaps_of(pl.RealSequence([0, 0.4, 1.5])).gaps.tolist() == [0.4, 1.1]
    with pytest.raises(ValueError, match="too short"):
        pl.gaps_of(pl.RealSequence([1.0]))


def test_gaps_of_prefix_sum_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        g = rng.uniform(0.05, 3.0, int(rng.integers(1, 80)))
        seq = pl.sequence_from_gaps(g)
        back = pl.gaps_of(seq).gaps
        scale = float(np.sum(g))
        assert np.max(np.abs(back - g)) <= 1e-12 * max(scale, 1.0)


def test_prefix_is_bitwise_the_concatenated_cumsum():
    rng = np.random.default_rng(12)
    families = {
        "exponential": rng.exponential(1.0, 10**5),
        "dyadic with zeros": rng.integers(0, 9, 10**5) / 16,
        "constant": np.full(10**5, 0.3),
    }
    for name, gaps in families.items():
        prefix = pl.GapSequence(gaps).prefix
        assert prefix.tobytes() == np.concatenate(([0.0], np.cumsum(gaps))).tobytes(), name


def test_mean_gap_examples():
    assert pl.mean_gap(pl.RealSequence([0, 1, 2, 3])) == 1.0
    assert pl.mean_gap(pl.RealSequence([0, 0.5, 2.0])) == 1.0
    with pytest.raises(ValueError):
        pl.mean_gap(pl.RealSequence([7.0]))


def test_mean_gap_equals_mean_of_gaps():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g = rng.uniform(0.01, 4.0, int(rng.integers(2, 60)))
        seq = pl.sequence_from_gaps(g, start=float(rng.normal()))
        lhs = pl.mean_gap(seq)
        rhs = float(np.mean(pl.gaps_of(seq).gaps))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_mean_gap_names_a_span_wider_than_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^values span more than the binary64 range: "
                                             r"1\.7e\+308 - -1\.7e\+308 overflows$"):
            pl.mean_gap(pl.RealSequence([-1.7e308, 1.7e308]))


def test_normalize_names_a_span_too_small_to_rescale():
    seq = pl.RealSequence([0.0, 1e-310, 2e-310])  # subnormal span: 2/span overflows, and 0*inf is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^span 2e-310 is too small to rescale to mean gap 1: 2/span overflows$"):
            pl.normalize_mean_gap(seq)
    assert pl.normalize_mean_gap(pl.RealSequence([0.0, 2.0**-1000, 2.0**-999])).values.tolist() == [0.0, 1.0, 2.0]


def test_normalize_examples():
    assert pl.normalize_mean_gap(pl.RealSequence([0, 2, 4])).values.tolist() == [0, 1, 2]
    assert pl.normalize_mean_gap(pl.RealSequence([5, 6, 7])).values.tolist() == [0, 1, 2]


@given(positive_gap_lists)
@settings(max_examples=200)
def test_normalize_properties(gaps):
    seq = pl.sequence_from_gaps(gaps, start=-3.0)
    out = pl.normalize_mean_gap(seq)
    assert out.values[0] == 0.0
    assert pl.mean_gap(out) == pytest.approx(1.0, rel=1e-12)
    twice = pl.normalize_mean_gap(out)
    assert np.max(np.abs(twice.values - out.values)) <= 1e-12 * max(abs(out.values[-1]), 1.0)


def test_generate_rejects_bad_config():
    with pytest.raises(ValueError):
        pl.GeneratorConfig("poisson", 0)
    with pytest.raises(ValueError):
        pl.GeneratorConfig("capped", 10)  # missing cap
    with pytest.raises(ValueError):
        pl.GeneratorConfig("quadratic_form", 10, alpha=-1.0)
    with pytest.raises(ValueError):
        pl.GeneratorConfig("nope", 10)


@pytest.mark.parametrize("call, message", [
    (lambda: pl.RealSequence([0.0, math.inf]), "sequence values must be finite"),
    (lambda: pl.GapSequence([]), "gap sequence must be a non-empty 1-d array"),
    (lambda: pl.GapSequence([math.nan]), "gaps must be finite"),
    (lambda: pl.GapSequence([0.1, 0.2, 0.3]).window_sum(0, 1), "window [0,1] out of range 1..3"),
    (lambda: pl.GapSequence([0.1, 0.2, 0.3]).window_sum(2, 4), "window [2,4] out of range 1..3"),
    (lambda: pl.GeneratorConfig("poisson", 10, seed=-1), "seed must fit in 64 unsigned bits"),
    (lambda: pl.GeneratorConfig("poisson", 10, seed=2**64), "seed must fit in 64 unsigned bits"),
    (lambda: pl.normalize_mean_gap(pl.RealSequence([1.0])),
     "sequence too short: cannot normalize fewer than 2 points"),
    (lambda: pl.quadratic_form_values(0), "n_points must be >= 1"),
    (lambda: pl.quadratic_form_values(10, 0.0), "alpha must be positive"),
    (lambda: pl.ingest_and_unfold("missing.txt", "bogus"),  # refused before the file is opened
     "unknown ingest mode 'bogus'; expected one of ('raw', 'zeta_unfold')"),
], ids=["real_inf", "gaps_empty", "gaps_nan", "window_low", "window_high", "seed_negative", "seed_2_64",
        "normalize_one_point", "quadratic_n_0", "quadratic_alpha_0", "ingest_mode"])
def test_bad_arguments_are_refused_by_name(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_generate_capped_single_point_is_not_renormalized():
    seq = pl.generate(pl.GeneratorConfig("capped", 1, seed=7, cap=1.5))
    assert seq.n == 1 and seq.metadata == {}  # one point has no gap to rescale
    # the seed-7 draw is below the cap, so it is kept as drawn: the poisson point of the same seed
    assert seq.values.tolist() == pl.generate(pl.GeneratorConfig("poisson", 1, seed=7)).values.tolist()


def test_generate_is_deterministic():
    for cfg in (
        pl.GeneratorConfig("poisson", 500, seed=42),
        pl.GeneratorConfig("capped", 500, seed=42, cap=1.5),
        pl.GeneratorConfig("quadratic_form", 200, seed=0),
    ):
        a = pl.generate(cfg)
        b = pl.generate(cfg)
        assert np.array_equal(a.values, b.values)


def test_generate_poisson_single_point():
    a = pl.generate(pl.GeneratorConfig("poisson", 1, seed=7))
    b = pl.generate(pl.GeneratorConfig("poisson", 1, seed=7))
    assert a.n == 1 and np.array_equal(a.values, b.values)
    assert a.values[0] > 0


def test_generate_capped_respects_cap_after_renormalization():
    cap = 1.5 + 1e-9
    for seed in range(100):
        seq = pl.generate(pl.GeneratorConfig("capped", 300, seed=seed, cap=cap))
        factor = seq.metadata["renorm_factor"]
        max_gap = float(np.max(np.diff(seq.values)))
        assert max_gap <= cap * factor * (1 + 1e-12)
        assert pl.mean_gap(seq) == pytest.approx(1.0, rel=1e-12)


def test_generate_quadratic_form_matches_enumeration():
    alpha = math.sqrt(2.0)
    raw, _ = pl.quadratic_form_values(10, alpha)
    brute = sorted(x * x + alpha * y * y for x in range(1, 8) for y in range(1, 8))[:10]
    assert raw.tolist() == brute
    assert raw[0] == 1 + alpha and raw[1] == 4 + alpha  # (1,1) then (2,1)


def test_generate_quadratic_form_output_is_strict_and_normalized():
    seq = pl.generate(pl.GeneratorConfig("quadratic_form", 50))
    assert np.all(np.diff(seq.values) > 0)
    assert pl.mean_gap(seq) == pytest.approx(1.0, rel=1e-12)
    assert seq.metadata["perturbed_ties"] == 0  # irrational alpha: no exact ties expected here


def test_generate_quadratic_form_perturbs_rational_ties():
    seq = pl.generate(pl.GeneratorConfig("quadratic_form", 20, alpha=1.0))
    assert seq.metadata["perturbed_ties"] > 0  # x^2 + y^2 is symmetric in (x, y)
    assert np.all(np.diff(seq.values) > 0)


def test_poisson_law_of_large_numbers():
    for seed in (1, 2, 3, 4, 5):
        seq = pl.generate(pl.GeneratorConfig("poisson", 100_000, seed=seed))
        assert abs(pl.mean_gap(seq) - 1.0) < 0.02


def test_ingest_raw(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\n2\n3\n")
    seq = pl.ingest_and_unfold(path, "raw")
    assert seq.values.tolist() == [1.0, 2.0, 3.0]


def test_ingest_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# header\n1.5\n\n# middle\n2.5\n")
    seq = pl.ingest_and_unfold(path, "raw")
    assert seq.values.tolist() == [1.5, 2.5]


def test_ingest_monotonicity_error_carries_line(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("3\n2\n")
    with pytest.raises(pl.SequenceFormatError) as err:
        pl.ingest_and_unfold(path, "raw")
    assert err.value.line == 2


def test_ingest_parse_error_carries_line(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\nbogus\n3\n")
    with pytest.raises(pl.SequenceFormatError) as err:
        pl.ingest_and_unfold(path, "raw")
    assert err.value.line == 2


def test_ingest_zeta_unfold_formula(tmp_path):
    path = tmp_path / "zeros.txt"
    gamma = 14.134725
    path.write_text(f"{gamma}\n")
    seq = pl.ingest_and_unfold(path, "zeta_unfold")
    expected = gamma * math.log(gamma) / (2 * math.pi)
    assert seq.values[0] == expected
    assert seq.values[0] == pytest.approx(5.9584, abs=1e-4)


def test_ingest_zeta_unfold_rejects_small_values(tmp_path):
    path = tmp_path / "zeros.txt"
    path.write_text("0.5\n2.0\n")
    with pytest.raises(pl.SequenceFormatError) as err:
        pl.ingest_and_unfold(path, "zeta_unfold")
    assert err.value.line == 1


def test_ingest_zeta_unfold_names_the_first_value_that_overflows(tmp_path):
    path = tmp_path / "zeros.txt"
    edge = np.array([14.13, 1e300, 2.5e305])  # 2.5e305 * ln(2.5e305) is just below the binary64 maximum
    path.write_text("".join(f"{t!r}\n" for t in edge.tolist()))
    unfolded = pl.ingest_and_unfold(path, "zeta_unfold").values
    assert unfolded.tobytes() == (edge * np.log(edge) / (2 * np.pi)).tobytes()
    cases = {  # the last one takes the line-by-line path
        b"1e308\n1.7976931348623157e308\n": "1e+308",
        b"14.13\n3e305\n1e308\n": "3e+305",
        b"# c\n14.13\n\n3e305\n": "3e+305",
    }
    for content, first in cases.items():
        path.write_bytes(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^zeta_unfold overflows: t\*ln\(t\) exceeds the binary64 range "
                                                 rf"at t = {re.escape(first)}$"):
                pl.ingest_and_unfold(path, "zeta_unfold")


def test_write_then_ingest_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(3)
    seq = pl.RealSequence(np.cumsum(rng.uniform(0.01, 2.0, 200)))
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq, comment="round trip")
    back = pl.ingest_and_unfold(path, "raw")
    assert np.array_equal(back.values, seq.values)


@pytest.mark.parametrize("chunk", [1, 3, 10**6])
@pytest.mark.parametrize("comment", [None, "two\nlines"])
def test_write_sequence_in_chunks_matches_a_one_shot_join(tmp_path, monkeypatch, chunk, comment):
    monkeypatch.setattr(sequences, "_WRITE_CHUNK", chunk)
    rng = np.random.default_rng(5)
    seq = pl.RealSequence(np.cumsum(rng.exponential(1.0, 100)))
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq, comment=comment)
    header = "" if comment is None else "# two\n# lines\n"
    expected = header + "\n".join(format(v, ".17g") for v in seq.values.tolist()) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("kind", sequences.GENERATOR_KINDS)
@pytest.mark.parametrize("offset", [-1, 1])
def test_generated_files_match_the_format_loop_across_a_chunk_boundary(tmp_path, kind, offset):
    seq = pl.generate(pl.GeneratorConfig(kind, sequences._WRITE_CHUNK + offset, seed=3,
                                         cap=1.5 if kind == "capped" else None))
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq)
    assert path.read_bytes() == format_loop(seq.values)
    assert pl.ingest_and_unfold(path).values.tobytes() == seq.values.tobytes()


@pytest.mark.parametrize("seq", [
    pl.sequence_from_gaps(np.random.default_rng(2).exponential(0.7, 300), start=-5.0),  # negatives, then positives
    pl.RealSequence(np.cumsum(np.random.default_rng(2).exponential(3e-7, 300))),  # exponent forms below 1e-4
], ids=["negative", "tiny"])
def test_negative_and_tiny_values_match_the_format_loop(tmp_path, seq):
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, seq)
    assert path.read_bytes() == format_loop(seq.values)
    assert pl.ingest_and_unfold(path).values.tobytes() == seq.values.tobytes()


def test_a_non_ascii_comment_is_written_as_utf8(tmp_path):
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, pl.RealSequence([0.5, 2.0]), comment="ζ(½ + it), Ø\nzweite Zeile")
    assert path.read_bytes() == "# ζ(½ + it), Ø\n# zweite Zeile\n0.5\n2\n".encode("utf-8")
    assert pl.ingest_and_unfold(path).values.tolist() == [0.5, 2.0]


def test_generator_config_bounds_the_point_count():
    # a config is plain data, so rejecting it allocates nothing
    pl.GeneratorConfig("poisson", GENERATOR_MAX_POINTS)
    with pytest.raises(ValueError, match=r"^n_points must be <= 100000000, got 1000000000000$"):
        pl.GeneratorConfig("poisson", 10**12)
