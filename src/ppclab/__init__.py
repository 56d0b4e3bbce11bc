"""ppclab: pair-correlation statistics, gap distributions, greedy block
partitions, and executable inequality audits for increasing real sequences.

The public names are resolved on first use (PEP 562), so ``import ppclab``
loads neither a submodule nor numpy: ``ppclab.cli`` can then start numpy's
BLAS single-threaded before anything imports it.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "correlation": "CorrelationReport IndexInterval Interval first_crossing gap_cdf multi_gap_count"
    " pair_correlation ppc_block ppc_cross",
    "partition": "BlockSet BoundCheck GreedyPartition PairClass PartitionTable classify_pair greedy_partition"
    " maximal_blocks partition_lengths partition_table sandwiched_indices verify_adjacent_bound"
    " verify_sandwich_bound",
    "sequences": "GapSequence GeneratorConfig RealSequence SequenceFormatError gaps_of generate ingest_and_unfold"
    " mean_gap normalize_mean_gap quadratic_form_values sequence_from_gaps write_sequence",
    "verifier": "AuditConfig AuditReport AuditStep ExhaustiveResult LemmaPoint audit bias_check final_inequality"
    " lemma512_certificate lemma512_exhaustive lemma512_lhs lemma512_rhs",
}
_MODULE = {name: module for module, names in _NAMES.items() for name in names.split()}  # public name -> submodule

__all__ = ["__version__", *sorted(_MODULE)]


def __getattr__(name: str):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(__all__)
