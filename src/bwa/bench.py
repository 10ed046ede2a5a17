"""Amortized-cost measurement: per-size timing and comparison counts for
insert, search, and delete, written out as CSV.

``run_bench`` is the one sweep: one loop over the sizes per op kind, with
``_insert_rows`` timing inserts and ``_probe_rows`` searches and deletes in
either config, and one path that skips a size numpy cannot allocate.

Methodology notes baked in here:
  - workload values are pre-generated and structures pre-built outside every
    timed region, and timed regions run with the GC paused;
  - stored values are even and miss probes odd, so a zero hit ratio yields
    guaranteed misses;
  - probe counts are fixed up front (never adapted to elapsed time), which
    keeps comparison counts bit-identical across runs of the same seed;
  - read-only probe batches are timed several times and the fastest pass
    wins, so a descheduled run cannot masquerade as structure cost;
  - everything runs on the calling thread; sweeps are never parallelized.
"""

from __future__ import annotations

import csv
import gc
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import BlackWhiteArray, GrowthPolicy

OPS = ("insert", "search", "delete")
CONFIGS = ("perfect", "random")
CSV_HEADER = ("size_exp", "op", "config", "hit_ratio", "ns_per_op", "cmp_per_op")

_PERFECT_PROBES = 4096   # per measurement
_RANDOM_PROBES = 256     # per trial
_SEARCH_REPEATS = 3      # search batches are re-run; the minimum wins


@dataclass(frozen=True)
class BenchConfig:
    """One sweep: sizes 2**min_exp .. 2**max_exp for the chosen ops.

    ``config`` picks structure states: "perfect" measures at exactly 2**m
    slots (a single active segment); "random" averages over ``trials``
    uniformly random slot counts in [1, 2**m - 1].  ``probes`` overrides the
    per-measurement probe count (defaults depend on the config).  Insert
    rows time the same 2**m inserts from empty for every config and hit
    ratio; their ``config`` and ``hit_ratio`` columns only echo the sweep.
    """

    min_exp: int
    max_exp: int
    ops: tuple[str, ...] = OPS
    config: str = "random"
    trials: int = 1000
    hit_ratio: float = 0.5
    seed: int = 0
    probes: Optional[int] = None

    def __post_init__(self) -> None:
        # values are drawn below 2**(m + 2) and doubled: int64 holds them
        # up to m = 60
        if not 1 <= self.min_exp <= self.max_exp <= 60:
            raise ValueError(f"need 1 <= min_exp <= max_exp <= 60, got "
                             f"({self.min_exp}, {self.max_exp})")
        bad = set(self.ops) - set(OPS)
        if bad or not self.ops:
            raise ValueError(f"ops must be a non-empty subset of {OPS}")
        if len(set(self.ops)) != len(self.ops):
            raise ValueError(f"ops name an op twice: {self.ops}")
        if self.config not in CONFIGS:
            raise ValueError(f"config must be one of {CONFIGS}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.0 <= self.hit_ratio <= 1.0:
            raise ValueError("hit_ratio must lie in [0, 1]")
        if self.probes is not None and self.probes < 1:
            raise ValueError("probes must be at least 1")


@dataclass(frozen=True)
class BenchRow:
    size_exp: int
    op: str
    config: str
    hit_ratio: float
    ns_per_op: float
    cmp_per_op: float


def _stored_values(rng: np.random.Generator, count: int, size_exp: int) -> np.ndarray:
    # even values over a range well beyond the structure size
    return rng.integers(0, 4 << size_exp, count, dtype=np.int64) << 1


def _probe_values(rng: np.random.Generator, stored: np.ndarray, count: int,
                  hit_ratio: float, size_exp: int) -> list[int]:
    miss = (rng.integers(0, 4 << size_exp, count, dtype=np.int64) << 1) + 1
    if hit_ratio <= 0.0:
        return miss.tolist()
    hit = rng.choice(stored, size=count)
    if hit_ratio >= 1.0:
        return hit.tolist()
    take = rng.random(count) < hit_ratio
    return np.where(take, hit, miss).tolist()


def _paper_state(stored: np.ndarray, cap_exp: int) -> BlackWhiteArray:
    """The state inserting ``stored`` in order reaches, one segment per set
    bit of its size, as the paper's configurations are defined (not the
    compact layout ``from_values`` writes)."""
    bwa = BlackWhiteArray(cap_exp, GrowthPolicy.FIXED)
    bwa.insert_many(stored)
    return bwa


def _timed_probes(bwa: BlackWhiteArray, op: str, probes: list[int]) -> tuple[int, int]:
    """Run one batch of ``op`` calls, one per value of ``probes``, with the
    GC paused; returns (elapsed_ns, comparisons).

    Search batches leave the structure untouched, so they run
    ``_SEARCH_REPEATS`` times and the fastest pass wins, suppressing
    scheduler noise; every pass performs identical comparisons, so the
    counter delta divides back out exactly.  Insert and delete batches
    mutate and run once.
    """
    fn = getattr(bwa, op)
    repeats = _SEARCH_REPEATS if op == "search" else 1
    before = bwa.counters.comparisons
    was_enabled = gc.isenabled()
    gc.disable()
    elapsed = None
    try:
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for v in probes:
                fn(v)
            once = time.perf_counter_ns() - t0
            if elapsed is None or once < elapsed:
                elapsed = once
    finally:
        if was_enabled:
            gc.enable()
    return elapsed, (bwa.counters.comparisons - before) // repeats


def _insert_rows(cfg: BenchConfig, m: int, rng: np.random.Generator,
                 ops: list[str]) -> list[BenchRow]:
    """Time 2**m inserts into a fresh structure of capacity m + 1.  The
    inserts are the same for every config, trial count and hit ratio: the
    row's ``config`` and ``hit_ratio`` only echo the sweep's."""
    n = 1 << m
    values = _stored_values(rng, n, m).tolist()
    bwa = BlackWhiteArray(m + 1, GrowthPolicy.FIXED)
    elapsed, cmps = _timed_probes(bwa, "insert", values)
    return [BenchRow(m, "insert", cfg.config, cfg.hit_ratio,
                     elapsed / n, cmps / n)]


def _probe_rows(cfg: BenchConfig, m: int, rng: np.random.Generator,
                ops: list[str]) -> list[BenchRow]:
    """Time each of ``ops`` at size 2**m.  "perfect" is one trial at exactly
    2**m slots, capacity m + 1, whose deletes run on a fresh build every
    max(1, 2**m >> 2) probes so no batch can demote.  "random" pools
    ``cfg.trials`` random slot counts, capacity m, one build per op."""
    perfect = cfg.config == "perfect"
    trials, default_probes = (1, _PERFECT_PROBES) if perfect else (
        cfg.trials, _RANDOM_PROBES)
    probe_count = cfg.probes or default_probes
    acc = {op: [0, 0] for op in ops}    # elapsed, comparisons
    for _ in range(trials):
        total = 1 << m if perfect else int(rng.integers(1, 1 << m))
        stored = _stored_values(rng, total, m)
        for op in ops:
            probes = _probe_values(rng, stored, probe_count, cfg.hit_ratio, m)
            batch = probe_count
            if perfect and op == "delete":
                batch = max(1, total >> 2)
            for i in range(0, probe_count, batch):
                bwa = _paper_state(stored, m + 1 if perfect else m)
                d, c = _timed_probes(bwa, op, probes[i:i + batch])
                acc[op][0] += d
                acc[op][1] += c
    count = trials * probe_count
    return [BenchRow(m, op, cfg.config, cfg.hit_ratio, d / count, c / count)
            for op, (d, c) in acc.items()]


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """Sweep the configured ops: all insert rows by size, then the search
    and delete rows by size in ``cfg.ops`` order.  Each kind draws from its
    own generator seeded with ``cfg.seed``.  A size numpy cannot allocate is
    skipped with a line on stderr."""
    insert_ops = [op for op in cfg.ops if op == "insert"]
    probe_ops = [op for op in cfg.ops if op != "insert"]
    rows = []
    for kind, ops, measure in (("insert", insert_ops, _insert_rows),
                               ("probe", probe_ops, _probe_rows)):
        if not ops:
            continue
        rng = np.random.default_rng(cfg.seed)
        for m in range(cfg.min_exp, cfg.max_exp + 1):
            try:
                rows.extend(measure(cfg, m, rng, ops))
            except (MemoryError, ValueError) as exc:  # numpy: no room, too big
                print(f"{kind} bench: cannot allocate 2^{m} ({exc}), "
                      "size skipped", file=sys.stderr)
    return rows


def write_csv(rows: list[BenchRow], path) -> None:
    """Emit rows under the fixed header, one line each, newline-terminated."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for r in rows:
                writer.writerow([r.size_exp, r.op, r.config, r.hit_ratio,
                                 r.ns_per_op, r.cmp_per_op])
    except OSError as exc:
        raise OSError(f"cannot write benchmark CSV to {path}: {exc}") from exc


def read_csv(path) -> list[BenchRow]:
    """Parse a file produced by write_csv back into rows.  What write_csv
    never writes (no header, another header, a row of another width, a
    field that does not parse) raises ValueError naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if not header:
            raise ValueError(f"{path}, line 1: empty file, no CSV header")
        if header != CSV_HEADER:
            raise ValueError(f"{path}, line 1: unexpected CSV header {header!r}")
        rows = []
        for r in reader:
            try:
                if len(r) != len(CSV_HEADER):
                    raise ValueError(f"{len(r)} fields, not {len(CSV_HEADER)}")
                rows.append(BenchRow(int(r[0]), r[1], r[2], float(r[3]),
                                     float(r[4]), float(r[5])))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
        return rows
