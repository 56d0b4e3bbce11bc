"""Sequence and gap containers, generators, file ingestion, and mean-gap normalization."""

from __future__ import annotations

import hashlib
import io
import math
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

# Ingest parses a file this many bytes at a time (rounded up to a line end),
# so the line objects of one chunk are alive at once, never the whole file's.
_INGEST_CHUNK = 1 << 20

# write_sequence formats and writes this many values per write, so the text
# of one chunk is alive at once, never the whole file's.
_WRITE_CHUNK = 1 << 15


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
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("sequence must be a non-empty 1-d array of reals")
        if not np.all(np.isfinite(v)):
            raise ValueError("sequence values must be finite")
        if v.size > 1:
            increasing = v[1:] > v[:-1]  # no subtraction, so no overflow on a wide span
            if not increasing.all():
                pos = int(np.argmax(~increasing))
                raise ValueError(
                    f"sequence not strictly increasing at position {pos + 2} "
                    f"(value {v[pos + 1]!r} after {v[pos]!r})"
                )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return int(self.values.size)


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
        g = np.asarray(self.gaps, dtype=float)
        if g.ndim != 1 or g.size < 1:
            raise ValueError("gap sequence must be a non-empty 1-d array")
        if not np.all(np.isfinite(g)):
            raise ValueError("gaps must be finite")
        if np.any(g < 0):
            pos = int(np.argmax(g < 0))
            raise ValueError(f"negative gap {g[pos]!r} at position {pos + 1}")
        g = g.copy()
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
    if seq.n < 2:
        raise ValueError("sequence too short: need at least 2 points to form gaps")
    _check_span(seq)  # a finite span bounds every gap, so np.diff cannot overflow
    return GapSequence(np.diff(seq.values))


def _check_span(seq: RealSequence) -> float:
    """``last - first`` as a Python float; raises when it overflows to inf."""
    first, last = float(seq.values[0]), float(seq.values[-1])
    if last - first == math.inf:
        raise ValueError(f"values span more than the binary64 range: {last!r} - {first!r} overflows")
    return last - first


def mean_gap(seq: RealSequence) -> float:
    """Average consecutive gap, (last - first)/(N - 1)."""
    if seq.n < 2:
        raise ValueError("sequence too short: mean gap needs at least 2 points")
    return _check_span(seq) / (seq.n - 1)


def normalize_mean_gap(seq: RealSequence) -> RealSequence:
    """Translate to start at 0 and rescale so the mean gap is 1.

    Idempotent up to 1e-12 and order-preserving; the first output value is
    exactly 0.
    """
    if seq.n < 2:
        raise ValueError("sequence too short: cannot normalize fewer than 2 points")
    span = _check_span(seq)  # before the shift, which it keeps finite
    scale = (seq.n - 1) / span
    if scale == math.inf:
        raise ValueError(f"span {span!r} is too small to rescale to mean gap 1: {seq.n - 1}/span overflows")
    return RealSequence((seq.values - seq.values[0]) * scale, metadata=dict(seq.metadata))


def sequence_from_gaps(gaps, start: float = 0.0) -> RealSequence:
    """Sequence with the given consecutive gaps, beginning at ``start``."""
    g = np.asarray(gaps, dtype=float)
    return RealSequence(start + np.concatenate(([0.0], np.cumsum(g))))


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
        return RealSequence(np.cumsum(rng.exponential(1.0, n)))

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
            return RealSequence(values)
        # after renormalization the gaps are raw*factor, so raw <= cap bounds
        # every output gap by cap*factor; record the factor for callers
        span = float(values[-1] - values[0])
        seq = RealSequence(values, metadata={"renorm_factor": (n - 1) / span})
        return normalize_mean_gap(seq)

    # quadratic_form; deterministic, seed unused
    vals, used_cutoff = quadratic_form_values(n, cfg.alpha)
    perturbed = 0
    for i in range(1, vals.size):
        if vals[i] <= vals[i - 1]:
            vals[i] = np.nextafter(vals[i - 1], math.inf)
            perturbed += 1
    meta = {"perturbed_ties": perturbed, "cutoff": used_cutoff}
    seq = RealSequence(vals, metadata=meta)
    return normalize_mean_gap(seq) if n >= 2 else seq


def ingest_and_unfold(path, mode: str = "raw") -> RealSequence:
    """Read a sequence file, optionally unfolding a zeta-zero-style table.

    The file holds one decimal number per line (UTF-8, ``#`` comment lines and
    blank lines ignored) and must be strictly increasing.  A line's value is
    ``float(line.strip())``, so ``float``'s accept set holds: ``1_000``,
    ``infinity`` (then rejected as non-finite) and non-ASCII digits parse,
    ``1 2`` does not.  ``zeta_unfold`` maps each value t to t*ln(t)/(2*pi), the
    rescaling under which a sequence counted by ~ T*log(T)/(2*pi) acquires
    asymptotic mean gap 1; it requires every value > 1 and names the first t
    whose t*ln(t) overflows.

    The file is read once; ``metadata["input_sha256"]`` is the SHA-256 of
    those bytes.  They are parsed by :func:`_parse_fast` and, where that
    declines, line by line by :func:`_parse_lines`, which names the first bad
    line.
    """
    if mode not in INGEST_MODES:
        raise ValueError(f"unknown ingest mode {mode!r}; expected one of {INGEST_MODES}")
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    arr = _parse_fast(data, mode)
    if arr is None:
        arr = _parse_lines(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), mode)
    del data  # RealSequence's checks and copy below hold more n-length arrays at once
    if mode == "zeta_unfold":
        with np.errstate(over="ignore"):
            unfolded = arr * np.log(arr)
        overflow = np.isinf(unfolded)
        if overflow.any():
            t = float(arr[overflow.argmax()])
            raise ValueError(f"zeta_unfold overflows: t*ln(t) exceeds the binary64 range at t = {t!r}")
        unfolded /= TWO_PI  # in place, and the same bytes as arr * np.log(arr) / TWO_PI
        arr = unfolded
    return RealSequence(arr, metadata={"input_sha256": digest})


def _parse_fast(data: bytes, mode: str) -> np.ndarray | None:
    """The values of a file with no blank, comment or bad line after its leading comments, or None.

    Leading lines that begin with ``#`` (the header :func:`write_sequence`
    writes) are skipped; a header holding a ``\\r`` outside a ``\\r\\n`` pair
    declines, since the text reader ends a line there.  The remaining ASCII
    bytes are split on ``\\n`` only, ``_INGEST_CHUNK`` bytes at a time,
    and each line goes to ``float`` as bytes.  On an ASCII line, ``float``
    either rejects the bytes or gives ``float(line.strip())``, and a ``\\r``
    (a line end to the text reader) can only sit in the whitespace around the
    number, so every line accepted here has the value :func:`_parse_lines`
    gives it.  Finiteness, strict increase and the ``zeta_unfold`` bound are
    then tested on the whole array.
    """
    stop = len(data) - data.endswith(b"\n")  # a final newline ends the last line
    if not data.isascii():
        return None
    pos = 0
    while data.startswith(b"#", pos):
        pos = data.find(b"\n", pos, stop) + 1
        if pos == 0:  # no data line follows
            return None
    if pos >= stop or data.count(b"\r", 0, pos) != data.count(b"\r\n", 0, pos):
        return None
    out = np.empty(data.count(b"\n", pos, stop) + 1)
    filled = 0
    try:
        while pos <= stop:  # a chunk ending at data[stop - 1] leaves an empty last line
            end = data.find(b"\n", pos + _INGEST_CHUNK, stop)
            end = stop if end < 0 else end
            lines = data[pos:end].split(b"\n")
            out[filled : filled + len(lines)] = list(map(float, lines))
            filled += len(lines)
            pos = end + 1
    except ValueError:  # a blank, comment or malformed line
        return None
    if not (np.isfinite(out).all() and (out[1:] > out[:-1]).all()):
        return None
    if mode == "zeta_unfold" and not out[0] > 1.0:
        return None
    return out


def _parse_lines(lines, mode: str) -> np.ndarray:
    """Values of ``lines`` one at a time; the first bad line raises :class:`SequenceFormatError`."""
    values = []
    prev = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            val = float(line)
        except ValueError:
            raise SequenceFormatError(f"could not parse {line!r} as a number", lineno) from None
        if not math.isfinite(val):
            raise SequenceFormatError(f"non-finite value {line!r}", lineno)
        if prev is not None and val <= prev:
            raise SequenceFormatError(
                f"not strictly increasing: {val!r} after {prev!r}", lineno
            )
        if mode == "zeta_unfold" and val <= 1.0:
            raise SequenceFormatError(
                f"zeta_unfold requires values > 1, got {val!r}", lineno
            )
        prev = val
        values.append(val)
    if not values:
        raise SequenceFormatError("file contains no data lines", 1)
    return np.asarray(values, dtype=float)


def write_sequence(path, seq: RealSequence, comment: str | None = None) -> None:
    """Write ``seq`` in the text format read by :func:`ingest_and_unfold`.

    Values are printed with 17 significant digits, so a read-back round-trips
    bit-exactly.  Each line of ``comment`` becomes a ``# `` header line.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write("".join(f"# {part}\n" for part in comment.splitlines()))
        for start in range(0, seq.n, _WRITE_CHUNK):
            fh.write("".join(f"{v:.17g}\n" for v in seq.values[start : start + _WRITE_CHUNK].tolist()))
