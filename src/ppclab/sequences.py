"""Sequence and gap containers, generators, file ingestion, and mean-gap normalization."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

GENERATOR_KINDS = ("poisson", "capped", "quadratic_form")
INGEST_MODES = ("raw", "zeta_unfold")

# Rejection sampling of capped gaps takes about ln(n)/(1 - exp(-cap)) rounds,
# which grows without bound as cap -> 0.  At this floor, n = 10^5 takes
# 0.2-0.4 s on a 2-core x86 VM.
CAPPED_MIN_CAP = 0.01

# Generation holds a few n-element float64 arrays (0.8 GB each at this bound)
# and writes one 17-digit line per point, so larger n is rejected up front.
GENERATOR_MAX_POINTS = 10**8

# Ingest reads a file this many bytes at a time, into one buffer that holds
# the unfinished line too, so no more of the file's bytes are held than that.
_INGEST_CHUNK = 1 << 20

# A line of more characters than this is an error on both paths, so that
# buffer, and the text reader's line, stay bounded however long a line is.
_LINE_MAX = 1 << 20

# The decimal kernel reads the last _WIDTH bytes of each line: 19 digits and
# a dot fill them.  It parses at once the lines that end in each
# _KERNEL_BLOCK bytes read: enough lines that numpy's cost per call is
# small, while its temporaries, about 100 bytes a line, stay under 1 MB.
_WIDTH = 20
_KERNEL_BLOCK = 1 << 17

# Both decimal kernels, ingest's and the writer's, are exact only in an
# IEEE longdouble with at least 64 significant bits (x87 extended,
# binary128): ingest's division must be correctly rounded, and the writer's
# product must hold every half-integer below 2^57.  IBM double-double
# reports 106 bits but only the exponent range of binary64, and its
# arithmetic is not correctly rounded.  Without such a type every line goes
# to float, and every value to format, one at a time.  _SPLIT is Veltkamp's
# constant that rounds a longdouble to 54 bits.  The kernels make their
# small arrays on first use or per call: making them at import would cost
# every command, reading or writing a file or not, about 0.2 MB of resident
# memory for the numpy loops they touch.
_LONGDOUBLE = np.finfo(np.longdouble)
_LONGDOUBLE_EXACT = _LONGDOUBLE.nmant >= 63 and _LONGDOUBLE.nexp > 11
_SPLIT = 2 ** max(_LONGDOUBLE.nmant - 53, 0) + 1

# An ingest error quotes at most this many characters of a bad line, so its
# message stays short however long the line is.
_ECHO_MAX = 80

# write_sequence formats and writes this many values per write, so the text
# of one chunk is alive at once, never the whole file's.  With _format17's
# temporaries that is about 80 bytes a value (2.6 MB), and about 160 where
# every value goes to format one at a time.
_WRITE_CHUNK = 1 << 15

# The longest line format(v, ".17g") gives, "-2.2250738585072014e-308",
# and its newline.
_LINE = 25


class SequenceFormatError(ValueError):
    """Malformed sequence file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class RealSequence:
    """Finite, strictly increasing sequence of reals.

    All statistics in this package are computed over (prefixes of) one of
    these.  ``values`` is stored as a read-only float64 array; ``metadata``
    carries provenance (a generator's tie-perturbation count, the SHA-256 of
    an ingested file) and does not affect any computation.
    """

    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self._own(np.array(self.values, dtype=float))  # a copy: the caller keeps its array

    @classmethod
    def _adopt(cls, values: np.ndarray, metadata: dict | None = None) -> RealSequence:
        """A sequence that takes ``values``, a float64 array no one else holds, without copying it."""
        seq = cls.__new__(cls)
        object.__setattr__(seq, "metadata", {} if metadata is None else metadata)
        seq._own(values)
        return seq

    def _own(self, v: np.ndarray) -> None:
        """Check ``v`` and store it, read-only, as ``values``."""
        _check_values(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


def _check_values(v: np.ndarray) -> None:
    """Raise unless ``v`` is a non-empty 1-d array of finite, strictly increasing reals."""
    if v.ndim != 1 or v.size < 1:
        raise ValueError("sequence must be a non-empty 1-d array of reals")
    if not np.all(np.isfinite(v)):
        raise ValueError("sequence values must be finite")
    _check_increasing(v)


def _check_increasing(v: np.ndarray, before: int = 0) -> None:
    """Raise unless ``v`` is strictly increasing; ``v[0]`` is the sequence's value at 0-based ``before``."""
    increasing = v[1:] > v[:-1]  # no subtraction, so no overflow on a wide span
    if not increasing.all():
        pos = int(np.argmax(~increasing))
        raise ValueError(
            f"sequence not strictly increasing at position {before + pos + 2} "
            f"(value {v[pos + 1]!r} after {v[pos]!r})"
        )


@dataclass(frozen=True, eq=False)
class GapSequence:
    """Consecutive differences g_n of a sequence, plus their prefix sums.

    Gaps must be non-negative; gaps derived from a :class:`RealSequence` via
    :func:`gaps_of` are strictly positive.  Zero gaps are permitted so the
    partition machinery can run on pedagogical fixtures that contain them.

    ``prefix[k]`` is the running sum of the first ``k`` gaps (``prefix[0] = 0``).
    Every window sum in this package is the *canonical* difference
    ``prefix[e] - prefix[s-1]``; using one summation path everywhere is what
    makes the counting decompositions and greedy-partition invariants exact
    in binary64, not just up to rounding.
    """

    gaps: np.ndarray
    prefix: np.ndarray = field(init=False)

    def __post_init__(self):
        self._own(np.array(self.gaps, dtype=float))  # a copy: the caller keeps its array

    @classmethod
    def _adopt(cls, gaps: np.ndarray) -> GapSequence:
        """A gap sequence that takes ``gaps``, a float64 array no one else holds, without copying it."""
        g = cls.__new__(cls)
        g._own(gaps)
        return g

    def _own(self, g: np.ndarray) -> None:
        """Check ``g``, store it read-only as ``gaps``, and add its prefix sums."""
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gap sequence must be a non-empty 1-d array")
        if not np.all(np.isfinite(g)):
            raise ValueError("gaps must be finite")
        if np.any(g < 0):
            pos = int(np.argmax(g < 0))
            raise ValueError(f"negative gap {g[pos]!r} at position {pos + 1}")
        g.flags.writeable = False
        prefix = np.empty(g.size + 1)
        prefix[0] = 0.0
        np.cumsum(g, out=prefix[1:])
        prefix.flags.writeable = False
        object.__setattr__(self, "gaps", g)
        object.__setattr__(self, "prefix", prefix)

    @property
    def length(self) -> int:
        return int(self.gaps.size)

    def window_sum(self, start: int, end: int) -> float:
        """Canonical sum of gaps ``start..end`` (1-based, inclusive)."""
        if not 1 <= start <= end <= self.length:
            raise ValueError(f"window [{start},{end}] out of range 1..{self.length}")
        return float(self.prefix[end] - self.prefix[start - 1])


@dataclass(frozen=True)
class GeneratorConfig:
    """Configuration for :func:`generate`; equal configs give bit-identical output.

    ``n_points`` must lie in [1, ``GENERATOR_MAX_POINTS``].

    ``cap`` is required for the capped kind (units of mean gap) and must be at
    least ``CAPPED_MIN_CAP``.  ``alpha`` is the quadratic-form coefficient in
    x^2 + alpha*y^2; the enumeration cutoff is chosen by
    :func:`quadratic_form_values` and recorded in ``metadata["cutoff"]``.
    """

    kind: str
    n_points: int
    seed: int = 0
    cap: float | None = None
    alpha: float = math.sqrt(2.0)

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_points > GENERATOR_MAX_POINTS:
            raise ValueError(f"n_points must be <= {GENERATOR_MAX_POINTS}, got {self.n_points}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.kind == "capped":
            if self.cap is None or not self.cap >= CAPPED_MIN_CAP:
                raise ValueError(
                    f"capped generator requires cap >= {CAPPED_MIN_CAP}: rejection sampling "
                    f"needs about ln(n)/(1 - exp(-cap)) rounds, got cap={self.cap!r}"
                )
        if self.kind == "quadratic_form":
            if not self.alpha > 0:
                raise ValueError("quadratic_form generator requires alpha > 0")


def gaps_of(seq: RealSequence) -> GapSequence:
    """Consecutive differences of ``seq``; requires at least two points."""
    _check_gaps(seq.values)
    return GapSequence._adopt(np.diff(seq.values))


def _check_gaps(values: np.ndarray) -> None:
    """The errors of :func:`gaps_of`: fewer than two values, or a span past the binary64 range."""
    if values.size < 2:
        raise ValueError("sequence too short: need at least 2 points to form gaps")
    _check_span(values)  # a finite span bounds every gap, so no difference can overflow


def _check_span(values: np.ndarray) -> float:
    """``values[-1] - values[0]`` as a Python float; raises when it overflows to inf."""
    first, last = float(values[0]), float(values[-1])
    if last - first == math.inf:
        raise ValueError(f"values span more than the binary64 range: {last!r} - {first!r} overflows")
    return last - first


def mean_gap(seq: RealSequence) -> float:
    """Average consecutive gap, (last - first)/(N - 1)."""
    if seq.n < 2:
        raise ValueError("sequence too short: mean gap needs at least 2 points")
    return _check_span(seq.values) / (seq.n - 1)


def normalize_mean_gap(seq: RealSequence) -> RealSequence:
    """Translate to start at 0 and rescale so the mean gap is 1.

    Idempotent up to 1e-12 and order-preserving; the first output value is
    exactly 0.
    """
    scale = _mean_gap_scale(seq.n, seq.values)
    values = seq.values - seq.values[0]
    values *= scale
    return RealSequence._adopt(values, dict(seq.metadata))


def _mean_gap_scale(n: int, ends: np.ndarray) -> float:
    """The factor that gives ``n`` points from ``ends[0]`` to ``ends[-1]`` mean gap 1, or the error that none does."""
    if n < 2:
        raise ValueError("sequence too short: cannot normalize fewer than 2 points")
    span = _check_span(ends)  # before the shift, which it keeps finite
    scale = (n - 1) / span
    if scale == math.inf:
        raise ValueError(f"span {span!r} is too small to rescale to mean gap 1: {n - 1}/span overflows")
    return scale


def sequence_from_gaps(gaps, start: float = 0.0) -> RealSequence:
    """Sequence with the given consecutive gaps, beginning at ``start``."""
    g = np.asarray(gaps, dtype=float)
    return RealSequence._adopt(start + np.concatenate(([0.0], np.cumsum(g))))


def quadratic_form_values(n_points: int, alpha: float = math.sqrt(2.0)) -> tuple[np.ndarray, float]:
    """Smallest ``n_points`` values of {x^2 + alpha*y^2 : x, y >= 1 integers}.

    Returns the sorted raw values (duplicates kept, no normalization) and the
    enumeration cutoff actually used.  The cutoff starts from the density
    heuristic and doubles until it admits ``n_points`` values; the values
    returned do not depend on it.  Raises before allocating when the
    ``mx x my`` enumeration grid would exceed 16 * n_points + 2^20 cells: a
    moderate alpha needs at most about 3 * n_points, and the floor keeps
    small requests with an extreme alpha working.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    # Density heuristic: #{(x,y): x^2+alpha*y^2 <= C} ~ (pi/4) C / sqrt(alpha).
    c = max(1.0 + alpha, 4.0 * math.sqrt(alpha) * n_points / math.pi) * 1.25
    grid_limit = 16 * n_points + (1 << 20)
    while True:
        fx = math.sqrt(max(c - alpha, 0.0))
        fy = math.sqrt(max((c - 1.0) / alpha, 0.0))
        if not fx * fy <= grid_limit:  # also rejects the nan and inf of an overflowed cutoff
            raise ValueError(
                f"quadratic_form enumeration needs about {fx * fy:.3g} grid cells, more than the "
                f"{grid_limit} allowed for {n_points} points at cutoff {c!r}: alpha={alpha!r} "
                "is too extreme"
            )
        mx, my = math.floor(fx), math.floor(fy)
        if mx >= 1 and my >= 1:
            xs = np.arange(1, mx + 1, dtype=float) ** 2
            ys = alpha * np.arange(1, my + 1, dtype=float) ** 2
            vals = (xs[:, None] + ys[None, :]).ravel()
            vals = vals[vals <= c]
            if vals.size >= n_points:
                vals.sort(kind="stable")
                return vals[:n_points], c
        c *= 2.0


def generate(cfg: GeneratorConfig) -> RealSequence:
    """Deterministic sequence generator; see :class:`GeneratorConfig`.

    Kinds:

    * ``poisson`` — gaps i.i.d. exponential(mean 1); the first point equals
      the first gap.  Models a Poisson point process on the half-line.
    * ``capped`` — exponential gaps rejection-resampled into (0, cap], then
      the whole sequence renormalized to mean gap 1;
      ``metadata['renorm_factor']`` records the applied scale, which bounds
      every output gap by cap * renorm_factor.
    * ``quadratic_form`` — the smallest values of x^2 + alpha*y^2, sorted,
      exact ties perturbed up by one representable step (strictness), then
      renormalized to mean gap 1.  ``metadata['perturbed_ties']`` records how
      many ties were adjusted.
    """
    n = cfg.n_points
    if cfg.kind == "poisson":
        rng = np.random.default_rng(cfg.seed)
        return RealSequence._adopt(np.cumsum(rng.exponential(1.0, n)))

    if cfg.kind == "capped":
        rng = np.random.default_rng(cfg.seed)
        gaps = rng.exponential(1.0, n)
        while True:
            oversized = gaps > cfg.cap
            k = int(np.count_nonzero(oversized))
            if k == 0:
                break
            gaps[oversized] = rng.exponential(1.0, k)
        values = np.cumsum(gaps)
        if n == 1:
            return RealSequence._adopt(values)
        # after renormalization the gaps are raw*factor, so raw <= cap bounds
        # every output gap by cap*factor; record the factor for callers
        span = float(values[-1] - values[0])
        seq = RealSequence._adopt(values, {"renorm_factor": (n - 1) / span})
        return normalize_mean_gap(seq)

    # quadratic_form; deterministic, seed unused
    vals, used_cutoff = quadratic_form_values(n, cfg.alpha)
    perturbed = 0
    for i in range(1, vals.size):
        if vals[i] <= vals[i - 1]:
            vals[i] = np.nextafter(vals[i - 1], math.inf)
            perturbed += 1
    meta = {"perturbed_ties": perturbed, "cutoff": used_cutoff}
    seq = RealSequence._adopt(vals, meta)
    return normalize_mean_gap(seq) if n >= 2 else seq


def ingest_and_unfold(path, mode: str = "raw") -> RealSequence:
    """Read a sequence file, optionally unfolding a zeta-zero-style table.

    The file holds one decimal number per line (UTF-8, ``#`` comment lines and
    blank lines ignored) and must be strictly increasing.  A line's value is
    ``float(line.strip())``, so ``float``'s accept set holds: ``1_000``,
    ``infinity`` (then rejected as non-finite) and non-ASCII digits parse,
    ``1 2`` does not.  A line of more than ``_LINE_MAX`` characters is an
    error, whatever it holds.  ``zeta_unfold`` maps each value t to
    t*ln(t)/(2*pi), the rescaling under which a sequence counted by
    ~ T*log(T)/(2*pi) acquires asymptotic mean gap 1; it requires every
    value > 1 and names the first t whose t*ln(t) overflows.

    The file is read once, in ``_INGEST_CHUNK``-byte pieces, and never held
    whole: :func:`_collect` copies the values of each piece into one array,
    so the values and one piece's are held, never a second copy.
    ``metadata["input_sha256"]`` is the SHA-256 of the bytes read.
    """
    arr, digest = _stream(path, mode, _collect)
    if mode == "zeta_unfold":
        arr = _unfold(arr)
    return RealSequence._adopt(arr, {"input_sha256": digest})


def _unfold(t: np.ndarray) -> np.ndarray:
    """``t * np.log(t) / TWO_PI`` as a new array; raises naming the first t whose t*ln(t) overflows."""
    with np.errstate(over="ignore"):
        unfolded = np.log(t)
        unfolded *= t
    overflow = np.isinf(unfolded)
    if overflow.any():
        first = float(t[overflow.argmax()])
        raise ValueError(f"zeta_unfold overflows: t*ln(t) exceeds the binary64 range at t = {first!r}")
    unfolded /= TWO_PI  # in place, and the same bytes as t * np.log(t) / TWO_PI
    return unfolded


def _collect(chunks) -> np.ndarray:
    """The values of ``chunks`` in one float64 array, grown in place as they come (no one else holds it)."""
    out = np.empty(1 << 10)
    filled = 0
    for values in chunks:
        if filled + values.size > out.size:  # grow by at least 1/8, so the resizes cost O(n) in all
            out.resize(max(filled + values.size, out.size + (out.size >> 3)), refcheck=False)
        out[filled : filled + values.size] = values
        filled += values.size
        del values  # before the next chunk is made
    out.resize(filled, refcheck=False)
    return out


def _stream(path, mode: str, consume):
    """``(consume(chunks), sha256)``: ``consume`` run once on the file's values, chunk by chunk, in one read.

    ``chunks`` yields float64 arrays whose concatenation is the file's values,
    each finite and above the one before.  ``consume`` must exhaust it and
    hold no chunk it needs later.  The chunks come from :func:`_parse_fast`,
    which reads every valid file and declines, at whatever chunk, only a bad
    one.  The decline passes through ``consume``, and the file is then read
    again by :func:`_parse_lines` only to name its first bad line.  So
    ``consume`` raises its own errors only after the last chunk, and a bad
    line anywhere in the file is reported before them.  The hex SHA-256 is
    that of the bytes read.
    """
    if mode not in INGEST_MODES:
        raise ValueError(f"unknown ingest mode {mode!r}; expected one of {INGEST_MODES}")
    with open(path, "rb", buffering=0) as fh:
        reader = _Sha256Reader(fh)
        with contextlib.suppress(_Decline):
            return consume(_parse_fast(reader, mode)), reader.sha256.hexdigest()
    with open(path, encoding="utf-8") as text:
        _parse_lines(text, mode)
    raise RuntimeError(f"the fast reader declined {os.fspath(path)!r}, but the line reader finds no error in it")


class _Spill:
    """A file's values, read once by :func:`_stream`, as float64 bytes in an unnamed temporary file.

    ``count``, ``first`` and ``last`` are those of the values, and
    ``sha256`` is the hash of the read they came from, so every error of
    the file is known before any value is used; :meth:`chunks` reads the
    values back.  The file takes 8 bytes a point, under ``TMPDIR``, and has
    no name, so nothing is left of it however the process ends.  It is
    closed with the spill, as a context manager.
    """

    def __init__(self, path, mode: str):
        self.file = tempfile.TemporaryFile()
        try:
            (self.count, self.first, self.last), self.sha256 = _stream(path, mode, self._fill)
        except BaseException:
            self.file.close()
            raise

    def _fill(self, chunks) -> tuple[int, float, float]:
        """Write the values of ``chunks`` to the file; their count, and their first and last values."""
        count, first, last = 0, 0.0, 0.0
        for values in chunks:
            if not count:
                first = float(values[0])
            count += values.size
            last = float(values[-1])
            self.file.write(values)
            del values  # before the next chunk is made
        return count, first, last

    def chunks(self, size: int):
        """Yield the values, ``size`` at a time, in one buffer: each chunk is overwritten by the next."""
        self.file.seek(0)
        buf = np.empty(size)
        view = memoryview(buf).cast("B")
        while got := self.file.readinto(view):  # a buffered read fills the view, but at the end
            yield buf[: got // buf.itemsize]

    def __enter__(self) -> _Spill:
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()


def _ingested(spill: _Spill, mode: str, normalize: bool):
    """The chunks of ``ingest_and_unfold``'s values, then ``normalize_mean_gap``'s if ``normalize``, from ``spill``.

    Both steps are elementwise, so each chunk's floats are those of the
    whole array.  Their errors come in their order.  Under ``zeta_unfold``
    a first pass over the spill finds the first t whose t*ln(t) overflows,
    and then the first unfolded value that does not increase, each at its
    position in the whole sequence.  Then come the normalization's errors
    of the count and the span; all of these are raised by this call.  The
    iterator it returns makes each chunk from one ``_WRITE_CHUNK`` of the
    spill, and raises the first normalized value that does not increase.
    """
    first, last = spill.first, spill.last
    if mode == "zeta_unfold":
        error, prev, at = None, np.empty(0), 0
        for t in spill.chunks(_WRITE_CHUNK):
            unfolded = _unfold(t)
            if error is None:
                try:
                    _check_increasing(np.concatenate((prev, unfolded)), at - prev.size)
                except ValueError as exc:  # an overflow further on comes first
                    error = exc
            if not at:
                first = unfolded[0]
            prev, at = unfolded[-1:], at + t.size
        if error is not None:
            raise error
        last = prev[0]
    scale = _mean_gap_scale(spill.count, np.array([first, last])) if normalize else None
    return _ingest_chunks(spill, mode, first, scale)


def _ingest_chunks(spill: _Spill, mode: str, first: float, scale: float | None):
    """The chunks of :func:`_ingested`, checked once ``first`` and ``scale`` are known."""
    prev, at = np.empty(0), 0
    for values in spill.chunks(_WRITE_CHUNK):
        if mode == "zeta_unfold":
            values = _unfold(values)
        if scale is not None:
            values = values - first
            values *= scale
            _check_increasing(np.concatenate((prev, values)), at - prev.size)
            prev, at = values[-1:], at + values.size
        yield values


class _Sha256Reader:
    """Reads the binary file ``file`` and feeds each byte read to ``self.sha256``."""

    def __init__(self, file):
        self._file = file
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer) -> int:
        size = self._file.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:size])
        return size


class _Decline(Exception):
    """:func:`_parse_fast` found the file bad: :func:`_parse_lines` is to name its first bad line."""


def _parse_fast(file, mode: str):
    """Yield the values of each ``_INGEST_CHUNK``-byte read of a valid file; raise :class:`_Decline` on a bad one.

    ``file`` is a binary file read with ``readinto``, ``_INGEST_CHUNK``
    bytes at a time, into one buffer that also holds the line not yet
    ended.  Its lines are those of the text reader's universal newlines:
    each ``\\r`` whose next byte is not ``\\n`` becomes ``\\n`` before the
    lines are split on ``\\n`` (a read's last ``\\r`` waits for the next
    read, or the file's end, to show what follows it), a ``\\r`` before a
    ``\\n`` is left out of its line, and a final ``\\n`` ends the last line.
    A line of more than ``_LINE_MAX`` characters declines, as one that is
    not UTF-8 does.  It is counted in bytes, and only a line of more bytes
    than that is counted in characters, the bytes that do not continue a
    UTF-8 character; on that line the buffer grows to hold 4 bytes a
    character, so a file of shorter lines takes no more.

    The lines that end in each ``_KERNEL_BLOCK`` bytes read go to
    :func:`_decimal_values` at once, which decides every line of the form
    ``[0-9]*.?[0-9]*`` with 1 to 19 digits, except where its quotient sits
    on a binary64 midpoint: on ``write_sequence`` output it leaves only the
    ``#`` header, exponent forms and lines of 20 or more digits.  The lines
    it leaves go to :func:`_line_value`, which reads each with ``float`` as
    bytes and, where that fails, by the line loop's own rule on the decoded
    text.  ``float`` reads bytes as ASCII and strips only ASCII blanks: it
    rejects a line that is not ASCII, and gives any other
    ``float(line.strip())`` or rejects it.  So every line accepted here has
    the value :func:`_parse_lines` gives it, and every line declined here
    is one it refuses.

    Each read's values, less the skipped lines', go into an array sized by
    its newlines, tested for finiteness and strict increase from the last
    value yielded on, and under ``zeta_unfold`` for > 1, before it is
    yielded; a failed test, or a file with no data line, declines.
    """
    buf = np.zeros(_WIDTH + _LINE_MAX + 1, np.uint8)  # the kernel reads _WIDTH bytes before a line's end
    windows = np.lib.stride_tricks.sliding_window_view(buf, _WIDTH)  # row e - _WIDTH ends before byte e
    floor = 1.0 if mode == "zeta_unfold" else -math.inf  # every value must lie above it
    last = floor
    held = 0  # bytes of the line not yet ended, at buf[_WIDTH:]
    while True:
        lo = _WIDTH + held
        got = file.readinto(memoryview(buf)[lo : lo + _INGEST_CHUNK])
        if not got:
            if not held:
                break
            buf[lo] = 10  # end the last line
            got = 1
        # a "\r" not before a "\n" ends a line, as in the text reader: the held line's last byte may be one
        # that this read decides, and this read's last byte waits for the next
        first = lo - bool(held)
        for a in range(first, lo + got - 1, _KERNEL_BLOCK):
            piece = buf[a : min(a + _KERNEL_BLOCK, lo + got - 1)]
            if (piece == 13).any():
                cr = np.flatnonzero(piece == 13) + a
                buf[cr[buf[cr + 1] != 10]] = 10
        pieces = [buf[a : min(a + _KERNEL_BLOCK, lo + got)] for a in range(first, lo + got, _KERNEL_BLOCK)]
        # one value a line, at most; the newlines are counted in a scan of their own, since keeping each
        # block's line ends, or joining or growing the values block by block, raised peak RSS by 0.3-0.8 MB
        out = np.empty(sum(np.count_nonzero(piece == 10) for piece in pieces))
        filled = 0
        start = _WIDTH  # where the next line begins
        for a, piece in zip(range(first, lo + got, _KERNEL_BLOCK), pieces):
            ends = np.flatnonzero(piece == 10)  # "\n"
            if not ends.size:
                continue
            ends += a
            lens = np.empty_like(ends)
            lens[0] = ends[0] - start
            np.subtract(ends[1:], ends[:-1], out=lens[1:])
            lens[1:] -= 1
            start = int(ends[-1]) + 1
            crlf = buf[ends - 1] == 13  # the text reader ends such a line at its \r
            ends -= crlf
            lens -= crlf
            if buf.size > _WIDTH + _LINE_MAX + 1:  # grown, so a line of more bytes than _LINE_MAX may end here
                long = lens > _LINE_MAX
                if any(_characters(buf[e - n : e]) > _LINE_MAX for e, n in zip(ends[long], lens[long])):
                    raise _Decline
            values = out[filled : filled + ends.size]
            undecided = np.flatnonzero(~_decimal_values(windows, ends, lens, values))
            if undecided.size:
                lines = buf[ends[0] - lens[0] : start - 1].tobytes().split(b"\n")  # each with its CRLF's \r
                if undecided.size < len(lines):
                    lines = [lines[i] for i in undecided.tolist()]
                values[undecided] = np.fromiter(map(_line_value, lines), float, undecided.size)
                if np.isnan(values[undecided]).any():  # nan marks a skipped line, and only such a line
                    values = values[~np.isnan(values)]
                    out[filled : filled + values.size] = values
            filled += values.size
        held = lo + got - start
        buf[_WIDTH : _WIDTH + held] = buf[start : lo + got]
        if held > _LINE_MAX:  # held on only if its characters, less a last "\r" that ends it, are few enough
            line = buf[_WIDTH : _WIDTH + held]
            if held == 4 * _LINE_MAX + 2 or _characters(line) - (line[-1] == 13) > _LINE_MAX:  # or buf is full
                raise _Decline
            if buf.size == _WIDTH + _LINE_MAX + 1:  # grow to hold 4 bytes a character, and a "\r\n"
                buf = np.concatenate((buf, np.zeros(3 * _LINE_MAX + 1, np.uint8)))
                windows = np.lib.stride_tricks.sliding_window_view(buf, _WIDTH)
        if filled:
            values = out[:filled]
            if not (np.isfinite(values).all() and values[0] > last and (values[1:] > values[:-1]).all()):
                raise _Decline
            last = float(values[-1])
            yield values
            del out, values  # before the next read's values are made
    if last == floor:  # no data line
        raise _Decline


def _characters(line: np.ndarray) -> int:
    """The characters of the UTF-8 bytes ``line``: the bytes that do not continue a character."""
    return int(np.count_nonzero(line >> 6 != 2))


def _line_value(line: bytes) -> float:
    """``float(line)``, or nan where :func:`_parse_lines` skips the line; raise :class:`_Decline` on any other line.

    ``line`` keeps its CRLF's ``\\r``, if it has one.  A line ``float``
    rejects is read by the line loop's own rule: decoded as UTF-8, stripped
    with ``str.strip``, skipped if empty or ``#``-led, and otherwise given
    to ``float``.  A line that does not decode, or is still rejected,
    declines, as does a line read as nan: so nan marks skipped lines.
    """
    try:
        value = float(line)
    except ValueError:
        try:
            text = line.decode().strip()
            if not text or text.startswith("#"):
                return math.nan
            value = float(text)
        except ValueError:  # UnicodeDecodeError is a ValueError
            raise _Decline from None
    if math.isnan(value):
        raise _Decline
    return value


def _decimal_values(windows: np.ndarray, ends: np.ndarray, lens: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the value of each line the kernel decides, and say which it decided.

    ``windows`` is the ``_WIDTH``-byte sliding window view of a buffer, and
    the i-th line is the ``lens[i]`` bytes before byte ``ends[i]`` of that
    buffer, where ``ends[i] >= _WIDTH``.  The kernel decides a line of the form
    ``[0-9]*.?[0-9]*`` with 1 to 19 digits, and writes ``float(line)``
    for it; every other entry of ``out`` is left to the caller.

    Each line's last ``_WIDTH`` bytes are gathered into one column of a
    ``_WIDTH`` x n array, so every step below runs over all lines at once.
    The digits form an integer M < 10^19 < 2^64, built by Horner's rule on
    pairs of columns in uint8, on pairs of pairs in uint16 and on the five
    groups left in uint64; a dot or a byte before the line multiplies by 1
    where a digit multiplies by 10.  The value is M / 10^k, where k is the
    number of digits after the dot.

    Why the result is exact: M and 10^k (k <= 19) are exact in a longdouble
    of at least 64 significant bits, and IEEE division gives q, the
    quotient correctly rounded to that precision.  Rounding is monotone,
    and every midpoint between adjacent binary64 values has 54 significant
    bits, so it is itself a longdouble.  So unless q lands exactly on such a
    midpoint, q and M / 10^k round to the same binary64, and the cast of q
    is ``float(line)``.  A q with at most 54 significant bits (Veltkamp's
    split leaves it whole) that is not a binary64 is a midpoint; those lines
    are left undecided, as is every line when longdouble is not such a type
    (``_LONGDOUBLE_EXACT``).  The kernel makes no BLAS call.
    """
    if not _LONGDOUBLE_EXACT:
        return np.zeros(ends.size, dtype=bool)
    # Each temporary is deleted once used: the ones alive together set the
    # kernel's peak memory, about 100 bytes a line.
    rows = windows[ends - _WIDTH]
    digits = np.ascontiguousarray(rows.T)  # column c of line i is digits[c, i]
    del rows
    digits -= 48  # "0".."9" become 0..9, and "." becomes 254
    column = np.arange(_WIDTH, dtype=np.uint8)[:, None]
    inside = column >= (_WIDTH - np.minimum(lens, _WIDTH)).astype(np.uint8)  # the byte is the line's
    is_digit = digits < 10
    is_digit &= inside
    is_dot = digits == 254
    is_dot &= inside
    del inside
    n_digits = is_digit.sum(0, dtype=np.uint8)
    n_dots = is_dot.sum(0, dtype=np.uint8)
    decided = (lens == n_digits + n_dots) & (n_dots <= 1) & (n_digits >= 1) & (n_digits <= 19)
    k = (is_dot * (_WIDTH - 1 - column)).sum(0, dtype=np.uint8)  # the bytes after the dot, if one
    np.minimum(k, _WIDTH - 1, out=k)  # and a power of 10 below 2^64 on any line
    del is_dot
    digits *= is_digit
    factor = is_digit * np.uint8(9)
    factor += 1
    del is_digit
    pair = digits[0::2] * factor[1::2]  # <= 99, and its factor <= 100, both uint8
    pair += digits[1::2]
    pair_factor = factor[0::2] * factor[1::2]
    del digits, factor
    quad = pair[0::2].astype(np.uint16) * pair_factor[1::2]  # <= 9999, and its factor <= 10^4
    quad += pair[1::2]
    quad_factor = pair_factor[0::2].astype(np.uint16) * pair_factor[1::2]
    del pair, pair_factor
    m = quad[0].astype(np.uint64)
    for g in range(1, _WIDTH // 4):
        m *= quad_factor[g]
        m += quad[g]
    del quad, quad_factor
    q = m.astype(np.longdouble)
    del m
    q /= (10 ** np.arange(_WIDTH, dtype=np.uint64))[k]  # exact in longdouble
    out[...] = q
    t = q * _SPLIT
    t -= t - q  # q rounded to 54 significant bits
    whole = np.flatnonzero(t == q)
    decided[whole[q[whole] != out[whole]]] = False
    return decided


def _parse_lines(text, mode: str) -> None:
    """Raise :class:`SequenceFormatError` naming the first bad line of ``text``, read one line at a time.

    Each line is read with ``readline(_LINE_MAX + 1)``, so a longer line is
    refused without being held whole.  A file with no bad line returns.
    """
    prev = None
    lineno = 0
    while raw := text.readline(_LINE_MAX + 1):
        lineno += 1
        if len(raw) > _LINE_MAX and not raw.endswith("\n"):
            raise SequenceFormatError(f"longer than the limit of {_LINE_MAX} characters", lineno)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            val = float(line)
        except ValueError:
            raise SequenceFormatError(f"could not parse {_echo(line)} as a number", lineno) from None
        if not math.isfinite(val):
            raise SequenceFormatError(f"non-finite value {_echo(line)}", lineno)
        if prev is not None and val <= prev:
            raise SequenceFormatError(f"not strictly increasing: {val!r} after {prev!r}", lineno)
        if mode == "zeta_unfold" and val <= 1.0:
            raise SequenceFormatError(f"zeta_unfold requires values > 1, got {val!r}", lineno)
        prev = val
    if prev is None:
        raise SequenceFormatError("file contains no data lines", 1)


def _echo(line: str) -> str:
    """``repr(line)``, or for a line over ``_ECHO_MAX`` characters the repr of its start and its length."""
    if len(line) <= _ECHO_MAX:
        return repr(line)
    return f"{line[:_ECHO_MAX]!r}... ({len(line)} characters)"


def write_sequence(path, seq: RealSequence, comment: str | None = None) -> None:
    """Write ``seq`` in the text format read by :func:`ingest_and_unfold`.

    Each value's line is ``format(v, ".17g")``: 17 significant digits, so a
    read-back round-trips bit-exactly.  Each line of ``comment`` becomes a
    ``# `` header line, encoded as UTF-8.  The file is written in binary
    mode, ``_WRITE_CHUNK`` values at a time, each chunk's lines made at once
    by :func:`_format17`; its temporaries and the chunk's text come to about
    80 bytes a value of one chunk (160 where every value goes to ``format``),
    so the whole file's text is never held.  The lines go to a new file in
    ``path``'s directory, which replaces ``path`` once all are written
    (:func:`_replacing`), so a failed or interrupted write leaves any
    earlier file whole.
    """
    with _replacing(path) as fh:
        if comment:
            fh.write("".join(f"# {part}\n" for part in comment.splitlines()).encode("utf-8"))
        for start in range(0, seq.n, _WRITE_CHUNK):
            fh.write(_format17(seq.values[start : start + _WRITE_CHUNK]))


@contextlib.contextmanager
def _replacing(path, mode: str = "wb", encoding: str | None = None):
    """A new file, opened with ``mode``, that replaces ``path`` when the block ends without an error.

    The new file is made in the directory of the file ``path`` names, with
    the permissions ``open`` gives a new file, so the replaced file is
    whole or untouched.  Where the block raises, or is interrupted, the new
    file is removed.  A path that names a device, a pipe or a directory is
    opened as ``open`` opens it.  An error in making or placing the file
    names ``path``, as ``open``'s would.
    """
    path = os.fspath(path)
    target = os.path.realpath(path)  # a symbolic link keeps pointing at the file it names
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:  # O_EXCL: never another's file; and the umask applies, as it does to open's new file
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, mode, encoding=encoding) as fh:
            yield fh
        try:
            os.replace(temp, target)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def _format17(values: np.ndarray) -> bytes:
    """The lines ``format(v, ".17g") + "\\n"`` of the float64 ``values``, joined, as ASCII bytes.

    The kernel decides a value x > 0 whose 17-digit decimal exponent E lies
    in [-4, 16], where ``g`` prints it without an exponent; every other
    value, and every value when longdouble is not exact enough
    (``_LONGDOUBLE_EXACT``), goes to ``format`` one at a time.  Each line is
    laid out in a row of a ``_LINE``-byte-wide array, so every step below
    runs over all values at once, and the rows' lines are joined at the end.

    Why the result is exact: with k = 16 - E <= 20, 10^k = 5^k * 2^k is
    exact in a longdouble of at least 64 significant bits, so y = x * 10^k
    is the exact product z rounded once, and rounding is monotone.  E comes
    from ``log10`` and is kept only if 10^16 <= y < 10^17; both bounds are
    longdoubles, so y < 10^17 implies z < 10^17, and when y lands on 10^16
    with z a little below it, the digits at exponent E - 1 carry to the
    same line.  Otherwise E steps by one and y is made again.  The digits
    are D = rint(y), half to even.  Every half-integer below 2^57 is a
    longdouble, so z and y lie on the same side of each one, and D is z
    rounded to the nearest integer, unless y is itself a half-integer: those
    values are left undecided.  A D of 10^17, which would carry to the next
    E, is left undecided too; it needs x within a relative 5e-18 of
    10^(E + 1), as near as no binary64 comes in this range (10^0 .. 10^17
    are exact, and the doubles nearest 10^-3 .. 10^-1 lie above them).  The
    line is then D's digits with the dot placed by E and its trailing
    zeros, and a bare dot, stripped.  The kernel makes no BLAS call.
    """
    n = values.size
    if not n:
        return b""
    lines = np.empty((n, _LINE), np.uint8)  # line i is the first lens[i] bytes of row i, then "\n"
    lens = np.empty(n, np.uint8)
    decided = np.zeros(n, bool)
    if _LONGDOUBLE_EXACT:
        decided[...] = (values > 0) & (values < 1e17)  # false on nan
        x = np.where(decided, values, 1.0)  # nothing below casts a nan or an inf
        e = np.floor(np.log10(x)).astype(np.int8)
        np.clip(e, -4, 16, out=e)
        x = x.astype(np.longdouble)
        powers = np.cumprod(np.full(21, 10.0)).astype(np.longdouble) / 10  # 10^0 .. 10^20, all exact
        y = x * powers[16 - e]
        off = np.flatnonzero((y < 1e16) | (y >= 1e17))  # log10 was one off, or E is out of range
        if off.size:
            e[off] += np.where(y[off] < 1e16, -1, 1).astype(np.int8)
            np.clip(e, -4, 16, out=e)
            y[off] = x[off] * powers[16 - e[off]]
            decided[off] &= (y[off] >= 1e16) & (y[off] < 1e17)
        del x
        digits = np.rint(y)
        y -= digits
        decided &= (y != 0.5) & (y != -0.5)
        del y
        d = digits.astype(np.uint64)  # below 2^64 on every row, decided or not
        del digits
        decided &= d < 10**17  # a carry to 10^(E + 1): no binary64 in range makes one
        # D = first digit and four groups of four digits; each group becomes
        # one 4-byte row of a table of the ASCII digits of 0 .. 9999.
        table, trailing = _digit_table()
        high = (d // 10**8).astype(np.uint32)  # D's first 9 digits
        low = (d - high * np.uint64(10**8)).astype(np.uint32)  # and its last 8
        del d
        groups = np.empty((5, n), np.uint32)  # x - 10 * (x // 10) is much faster than x % 10
        top = high // 10**4  # D's first 5 digits
        groups[0] = top // 10**4
        groups[1] = top - groups[0] * 10**4
        groups[2] = high - top * 10**4
        groups[3] = low // 10**4
        groups[4] = low - groups[3] * 10**4
        del high, low, top
        chars = np.empty((n, 5), np.uint32)
        for g in range(5):
            chars[:, g] = table[groups[g]]  # the first digit's row is "000d"
        chars = chars.view(np.uint8)[:, 3:]  # D's 17 digits, one row per value
        kept = 17 - trailing[groups[4]]  # D's digits before its trailing zeros
        zero = np.flatnonzero(groups[4] == 0)  # the rows whose groups after g are all zero
        for g in (3, 2, 1):
            kept[zero] -= trailing[groups[g, zero]]
            zero = zero[groups[g, zero] == 0]
        del groups
        # the kept digits, and the dot when a digit follows it
        lens[...] = np.where(e >= 0, np.maximum(kept, e + 1) + (kept > e + 1), kept - e + 1)
        del kept
        first, last = int(e.min()), int(e.max())  # a loop over this range, not np.unique, which sorts e
        for ev in range(first, last + 1):
            rows = slice(None) if first == last else np.flatnonzero(e == ev)
            c = chars[rows]
            if not len(c):  # no value has this exponent
                continue
            if ev >= 0:  # the dot after the first E + 1 digits
                lines[rows, : ev + 1] = c[:, : ev + 1]
                lines[rows, ev + 1] = 46
                lines[rows, ev + 2 : 18] = c[:, ev + 1 :]
            else:  # "0." and -E - 1 zeros before the digits
                lines[rows, : 1 - ev] = 48
                lines[rows, 1] = 46
                lines[rows, 1 - ev : 18 - ev] = c
            del c
        del chars
    left = np.flatnonzero(~decided)
    if left.size:
        spec = f"<{_LINE - 1}.17g"  # padded to one width with blanks
        text = "".join([format(v, spec) for v in values[left].tolist()]).encode()
        block = np.frombuffer(text, np.uint8).reshape(-1, _LINE - 1)
        lines[left, :-1] = block
        lens[left] = (block != 32).sum(1)  # format's own lines hold no blank
    lines[np.arange(n), lens] = 10  # "\n"
    return lines[np.arange(_LINE, dtype=np.uint8) <= lens[:, None]].tobytes()


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """:func:`_format17`'s tables of 0 .. 9999: each one's 4 ASCII digits as a uint32, and its trailing zeros.

    Made on first use, not at import, so a command that writes no file never pays for them.
    """
    i = np.arange(10**4, dtype=np.uint16)
    table = np.empty((10**4, 4), np.uint8)
    for j in range(4):
        table[:, 3 - j] = i // 10**j % 10
    table += 48
    trailing = sum((i % 10**j == 0).astype(np.uint8) for j in range(1, 5))  # zeros ending the group
    return table.view(np.uint32).ravel(), trailing
