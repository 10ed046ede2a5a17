"""Ordered dynamic multiset on one segmented slot array and a byte mask.

Exports the structure itself, the reference-model verification harness, and
the benchmark machinery; the ``bwa`` console script wraps all three.
"""

from .bench import (BenchConfig, BenchRow, read_csv, run_bench,
                    run_insert_bench, run_probe_bench, write_csv)
from .core import (BlackWhiteArray, CapacityExceeded, Counters, GrowthPolicy,
                   Stats)
from .oracle import (DEFAULT_MIX, Divergence, OpRecord, ReferenceModel,
                     generate_ops, run_equivalence)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BenchRow", "BlackWhiteArray", "CapacityExceeded",
    "Counters", "DEFAULT_MIX", "Divergence", "GrowthPolicy", "OpRecord",
    "ReferenceModel", "Stats", "generate_ops", "read_csv", "run_bench",
    "run_equivalence", "run_insert_bench", "run_probe_bench", "write_csv",
]
