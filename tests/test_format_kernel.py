"""The writer's 17-digit kernel against ``format``: every line, byte for byte, and the values it leaves.

``_format17`` prints a value x > 0 whose 17-digit exponent E lies in
[-4, 16] from D = rint(x * 10^(16 - E)) in longdouble.  That is exact
unless the longdouble product lands on a half-integer, where rint could
round the wrong way, so the tests below aim there and at the ends of the
exponent range; every case compares with one ``format(v, ".17g")`` per
value.  Whether the kernel decided a value is seen by counting the values
it hands to ``format``.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

import ppclab as pl
from ppclab import sequences
from oracles import format_loop


def assert_formats(values):
    values = np.asarray(values, dtype=float)
    assert sequences._format17(values) == format_loop(values)


def counting_format(monkeypatch):
    """Count the values the kernel gives to ``format`` one at a time, and the values the kernel is given."""
    counts = {"values": 0, "formatted": 0}
    format17 = sequences._format17

    def count_values(values):
        counts["values"] += values.size
        return format17(values)

    def count_format(value, spec):
        counts["formatted"] += 1
        return format(value, spec)

    monkeypatch.setattr(sequences, "_format17", count_values)
    monkeypatch.setattr(sequences, "format", count_format, raising=False)  # shadows the builtin
    return counts


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_positive_bit_patterns(seed):
    rng = np.random.default_rng(seed)
    assert_formats(rng.integers(0, 2**63, 100_000, dtype=np.uint64).view(np.float64))  # nan and inf among them


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_log_uniform_values(seed):
    rng = np.random.default_rng(seed)
    assert_formats(np.exp(rng.uniform(np.log(1e-6), np.log(1e19), 100_000)))


@pytest.mark.parametrize("j", range(-8, 19))
def test_forty_ulps_around_each_power_of_ten(j):
    nearest = np.array([float(f"1e{j}")])
    assert_formats((nearest.view(np.int64) + np.arange(-40, 41)).view(np.float64))


def test_the_doubles_nearest_powers_of_ten_and_the_carries_they_force():
    nearest = [float(f"1e{j}") for j in range(-320, 309)]
    assert_formats(nearest + [np.nextafter(x, 0.0) for x in nearest])
    # 1e-14's double lies within 2e-18 below 10^-14, so its 17 digits carry to "1e-14"
    assert Fraction(1e-14) < Fraction(1, 10**14) and format(1e-14, ".17g") == "1e-14"
    # no double carries where the kernel decides: 10^0 .. 10^17 are exact and
    # the doubles nearest 10^-3 .. 10^-1 lie above them
    assert all(Fraction(float(f"1e{j}")) >= Fraction(10) ** j for j in range(-3, 18))


def half_integer_products(rng, per_k=200):
    """Values x = M * 2^-(k + 1), M odd, whose exact x * 10^k is a half-integer between 10^16 and 10^17."""
    values = []
    for k in range(25):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        if lo < hi:
            for m in rng.integers(lo, hi, per_k).tolist():
                x = (m | 1) / 2 ** (k + 1)
                assert 2 * Fraction(x) * 10**k % 2 == 1
                values.append(x)
    return np.array(values)


def test_exact_half_integer_products_go_to_format(monkeypatch):
    values = half_integer_products(np.random.default_rng(4))
    counts = counting_format(monkeypatch)
    assert sequences._format17(values) == format_loop(values)
    if sequences._LONGDOUBLE_EXACT:
        assert counts["formatted"] == values.size  # each product is exact, so each y is a half-integer


def test_zeros_negatives_subnormals_and_large_values(monkeypatch):
    tiny = np.array([5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308])
    large = np.array([1e17, 1e17 + 16, 1.2345678901234567e18, 1e300, 1.7976931348623157e308])
    values = np.concatenate(([0.0, -0.0, -1.5, -1e-5, -123456.789, -1e300], tiny, -tiny, large, -large))
    counts = counting_format(monkeypatch)
    assert sequences._format17(values) == format_loop(values)
    assert counts["formatted"] == values.size  # none lies where the kernel decides


def test_nan_and_infinities_are_formatted_without_a_warning():
    assert_formats([np.nan, np.inf, -np.inf, 1.5])  # the suite turns a warning into an error


MANTISSAS = ["1", "1.5", "1.25", "2.0000000000000004", "3.3333333333333335", "9.9999999999999982",
             "1.2345678901234567", "7.0000000000000009", "4.5", "6.02214076"]


@pytest.mark.parametrize("exponent", range(-4, 17))
def test_every_exponent_with_and_without_trailing_zeros(monkeypatch, exponent):
    values = np.array([float(f"{m}e{exponent}") for m in MANTISSAS])
    counts = counting_format(monkeypatch)
    assert sequences._format17(values) == format_loop(values)
    digits = [len(line.replace(b".", b"").strip(b"0")) for line in format_loop(values).split()]
    assert min(digits) < 17 == max(digits)  # D with trailing zeros, and D without
    if sequences._LONGDOUBLE_EXACT:
        assert counts["formatted"] < values.size / 2  # the kernel laid most of them out


def test_the_edges_of_the_exponent_range():
    edges = [9.99995e-5, 0.000099999999999999991, 0.0001, 0.00010000000000000002,
             9999999999999998.0, 1e16, 1e16 + 2, 99999999999999968.0, 99999999999999984.0]
    assert_formats(edges)


def mixed_values(n, seed):
    """Increasing values that cross exponents and hold some the kernel leaves to ``format``."""
    rng = np.random.default_rng(seed)
    head = np.sort(np.exp(rng.uniform(np.log(1e-6), np.log(1e3), n // 2)))
    return np.concatenate((head, 1e3 + np.cumsum(rng.exponential(40.0, n - n // 2))))


@pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 15])
def test_chunk_boundaries_do_not_change_the_bytes(tmp_path, monkeypatch, chunk):
    values = mixed_values(1_200, seed=6)
    monkeypatch.setattr(sequences, "_WRITE_CHUNK", chunk)
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, pl.RealSequence(values))
    assert path.read_bytes() == format_loop(values)
    cuts = [0, 1, 2, 599, 600, 1000, values.size]
    assert b"".join(sequences._format17(values[a:b]) for a, b in zip(cuts, cuts[1:])) == format_loop(values)


def test_without_an_exact_longdouble_every_value_goes_to_format(monkeypatch):
    values = np.concatenate((mixed_values(3_000, seed=8), half_integer_products(np.random.default_rng(8), 20),
                             [0.0, -2.5, 1e300]))
    expected = sequences._format17(values)
    monkeypatch.setattr(sequences, "_LONGDOUBLE_EXACT", False)
    counts = counting_format(monkeypatch)
    assert sequences._format17(values) == expected == format_loop(values)
    assert counts["formatted"] == values.size


def test_the_kernel_decides_nearly_every_value_of_the_seed_7_poisson_file(tmp_path, monkeypatch):
    seq = pl.generate(pl.GeneratorConfig("poisson", 10**6, seed=7))
    path = tmp_path / "seq.txt"
    counts = counting_format(monkeypatch)
    pl.write_sequence(path, seq)
    assert hashlib.md5(path.read_bytes()).hexdigest() == "23e8a7c0940b13f3e2c7b826037bec9a"  # the format loop's
    assert counts["values"] == seq.n
    if sequences._LONGDOUBLE_EXACT:
        assert counts["formatted"] <= 0.01 * seq.n, counts  # 4,543 on x87 extended
