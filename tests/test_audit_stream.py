"""The one-pass audit against the whole-array audit in ``oracles``, and its errors and memory.

``audit_whole`` runs the counting kernels once over all n gaps, with the gaps,
their prefix sums and every block held at once.  The pass must give the same
report bit for bit however its input is cut: the gaps into the core's chunks,
or a file into ingest's reads.  Dyadic gaps make windows sum exactly to 1/8,
1/4, 1/2 and fl(3/2 + eps), so every threshold is a tie somewhere.
"""

import tracemalloc
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ppclab as pl
from ppclab import partition, sequences
from ppclab.cli import _dumps, _manifest, main
from oracles import audit_whole
from test_cli import FUZZ_FILES, run
from test_partition import patch_step

EPSILONS = [2.0**-10, 2.0**-20, 1e-9, 0.01]


@st.composite
def tie_cases(draw, positive=False):
    """(gaps, eps, n): runs of gaps that sum to the audit's thresholds, and a gap count n >= 2.

    A gap of 1 + eps and one of 1/2 sum to 3/2 + eps, as do two of (3/2 + eps)/2; runs of 1/16,
    1/8 and 1/4 reach 1/8, 1/4 and 1/2 exactly; runs of 0.3 or of zero gaps are long blocks.
    """
    eps = draw(st.sampled_from(EPSILONS))
    bound = 1.5 + eps
    pool = [1 / 16, 1 / 8, 1 / 4, 3 / 8, 1 / 2, 3 / 4, 1.0, bound - 1.0, bound - 0.5, bound / 2, bound, 0.3,
            0.5 + 2.0**-30]
    if not positive:
        pool.append(0.0)
    run_list = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 40)), min_size=1, max_size=8))
    gaps = [x for x, r in run_list for _ in range(r)]
    return gaps, eps, draw(st.integers(2, len(gaps) + 1))


def reports_of_every_chunk(source, cfg):
    reports = []
    for chunk in (1, 2, 3, partition._STREAM_STEP):
        with pytest.MonkeyPatch.context() as mp:
            sizes = patch_step(mp, chunk)
            reports.append(pl.audit(source, cfg).to_dict())
        assert max(sizes) <= chunk and sum(sizes) == reports[-1]["n_used"]  # the pass read the patched step
    return reports


@given(tie_cases())
@example(([0.125] * 300, 2.0**-10, 301))  # one block across every chunk
@example(([0.25] * 8 + [1.0 + 2.0**-10, 0.5] * 20, 2.0**-10, 30))  # multigap windows on 3/2 + eps, n below the gaps
@example(([0.75] * 4 + [(1.5 + 2.0**-20) / 2] * 6, 2.0**-20, 11))  # two-gap windows that sum to the bound
@settings(max_examples=100, deadline=None)
def test_the_pass_over_the_gaps_is_the_whole_array_audit_for_every_chunk(case):
    gaps, eps, n = case
    g = pl.GapSequence(gaps)
    cfg = pl.AuditConfig(eps, n)
    expected = audit_whole(g, cfg).to_dict()
    assert reports_of_every_chunk(g, cfg) == [expected] * 4
    if min(gaps) > 0:  # a sequence, whose gaps are its values' differences
        seq = pl.sequence_from_gaps(gaps, 1.0)
        assert reports_of_every_chunk(seq, cfg) == [audit_whole(seq, cfg).to_dict()] * 4


def reference(path, epsilon: float, n: int):
    """(code, stdout, stderr) of ``audit`` read whole: ingest, ``gaps_of``, then ``audit_whole``."""
    try:
        cfg = pl.AuditConfig(epsilon, n)
        seq = pl.ingest_and_unfold(path)
        report = audit_whole(pl.gaps_of(seq), cfg)
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    doc = report.to_dict()
    params = {"input": str(path), "epsilon": epsilon, "n": n}
    doc["manifest"] = _manifest("audit", params, input_hash=seq.metadata["input_sha256"])
    return 0, _dumps(doc) + "\n", ""


def audit_cli(capsys, path, epsilon: float, n: int):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        outcome = run(capsys, "audit", "--input", str(path), "--epsilon", repr(epsilon), "--n", str(n))
    assert [str(w.message) for w in caught] == []
    return outcome


@given(tie_cases(positive=True), st.sampled_from([16, 64, 1000]))
@example(([0.125] * 300, 2.0**-10, 301), 16)  # one block across every read
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_cli_pass_over_a_file_read_in_small_pieces_is_the_whole_array_audit(tmp_path, capsys, case, chunk):
    gaps, eps, n = case
    path = tmp_path / "seq.txt"
    pl.write_sequence(path, pl.sequence_from_gaps(gaps, 1.0), comment="ties")
    expected = reference(path, eps, n)
    assert expected[0] == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_INGEST_CHUNK", chunk)
        assert audit_cli(capsys, path, eps, n) == expected


def lines(count: int, bad_line=None, bad=b"") -> bytes:
    values = [format(1.0 + k / 7, ".17g").encode() for k in range(count)]
    if bad_line is not None:
        values[bad_line - 1] = bad
    return b"\n".join(values) + b"\n"


# Files whose faults come in every order the audit reports them: a bad line anywhere in the file,
# then too few points, then an overflowing span, then --n above the points.
ERROR_FILES = {
    **FUZZ_FILES,
    "bad after n": lines(300, 250, b"x"),
    "blank after n": lines(300, 250, b""),
    "decrease after n": lines(300, 250, b"1.5"),
    "one point, then a bad line": b"5\nx\n",
    "overflow, then a bad line": b"-1.7e308\n1.7e308\nx\n",
    "overflow late": b"-1.7e308\n0\n1\n2\n1.7e308\n",
    "overflow, one point": b"1.7e308\n",
}


@pytest.mark.parametrize("chunk", [8, None])
@pytest.mark.parametrize("name", sorted(ERROR_FILES))
def test_errors_keep_their_messages_and_their_order(tmp_path, capsys, monkeypatch, name, chunk):
    path = tmp_path / "seq.txt"
    path.write_bytes(ERROR_FILES[name])
    expected = {n: reference(path, 1e-9, n) for n in (2, 300, 301, 5000)}
    if chunk is not None:  # the core has taken its n gaps long before the last read
        monkeypatch.setattr(sequences, "_INGEST_CHUNK", chunk)
    for n, outcome in expected.items():
        assert audit_cli(capsys, path, 1e-9, n) == outcome, n


def test_audit_memory_does_not_grow_with_the_input(tmp_path, capsys, monkeypatch):
    # The pass holds one read of the file and one step of gaps, on either ingest path.  A trailing
    # line with a lone "\r", where only the text reader ends a line, sends the file down the line-by-line
    # path, whose values once made a list of 32 bytes a point (2.4 MB more at the larger of its
    # sizes).  That path runs slowly under tracemalloc, so it reads 64 KiB at a time, and its
    # smaller file spans 7 reads.
    peaks = {}
    for kind, n in (("clean", 100_000), ("clean", 400_000), ("blank", 25_000), ("blank", 100_000)):
        path = tmp_path / f"{kind}{n}.txt"
        pl.write_sequence(path, pl.generate(pl.GeneratorConfig("poisson", n, seed=7)))
        if kind == "blank":
            with open(path, "ab") as fh:
                fh.write(b"\r \n")
            monkeypatch.setattr(sequences, "_INGEST_CHUNK", 1 << 16)
        tracemalloc.start()
        try:
            code = main(["audit", "--input", str(path), "--epsilon", "1e-9", "--n", str(n - 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        peaks[kind, n] = peak
    assert abs(peaks["clean", 400_000] - peaks["clean", 100_000]) < 1 << 20, peaks
    assert abs(peaks["blank", 100_000] - peaks["blank", 25_000]) < 1 << 20, peaks
