"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured numbers (run with ``pytest -s`` to see them live).

Counter-based thresholds are exact; wall-clock checks are trend ratios and
budgets rather than absolute nanoseconds, which are hardware-bound.
"""

import io
import random
import time

import numpy as np

from bwa import (BenchConfig, BlackWhiteArray, generate_ops, run_bench,
                 run_equivalence)
from bwa.cli import main

from conftest import owned_bytes

SEED = 20260810


def _report(name, detail):
    print(f"\n[PASS] {name}: {detail}")


def test_insert_cascade_walkthrough():
    t0 = time.perf_counter()
    bwa = BlackWhiteArray(4, "fixed")
    for v in (83, 67, 59, 21, 76, 33, 45):
        bwa.insert(v)
    merges_before = bwa.counters.merges
    bwa.insert(52)
    cascade = bwa.counters.merges - merges_before

    assert bwa.total == 8
    assert bwa._white[8:16].tolist() == [21, 33, 45, 52, 59, 67, 76, 83]
    assert bwa._wmask[8:16].all()
    assert not any(bwa.is_active(r) for r in range(3))
    assert cascade == 3          # previous total 7 carries through three ranks
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("insert-cascade-walkthrough",
            f"total=8, segment bit-exact, {cascade} merges, {elapsed:.3f}s")


def test_delete_demotion_walkthrough():
    t0 = time.perf_counter()
    bwa = BlackWhiteArray(4, "fixed")
    for v in (6, 10, 20, 52, 59, 67, 70, 83, 21, 77, 80, 91, 45, 82):
        bwa.insert(v)
    for v in (10, 20, 70, 80):
        bwa.delete(v)
    assert bwa.total == 14

    demotes_before = bwa.counters.demotes
    merges_before = bwa.counters.merges
    assert bwa.delete(59) is not None
    assert bwa.total == 10
    assert bwa.segment_slots(3) == [6, 21, 52, 67, 77, 83, 91, None]
    assert not bwa.is_active(2)
    assert bwa.segment_slots(1) == [45, 82]
    assert bwa.counters.demotes - demotes_before == 1
    assert bwa.counters.merges - merges_before == 1
    assert bwa.validate() == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("delete-demotion-walkthrough",
            f"total 14->10, one demotion, one merge, {elapsed:.3f}s")


def test_oracle_equivalence_100k():
    t0 = time.perf_counter()
    divergence = run_equivalence(
        seed=SEED, n=100_000,
        mix={"insert": 0.5, "search": 0.25, "delete": 0.25},
        hit_ratio=0.5, cap_exp=16)
    elapsed = time.perf_counter() - t0
    assert divergence is None, str(divergence)
    assert elapsed < 30.0
    _report("oracle-equivalence-100k",
            f"0 divergences, validation after all 100000 steps, {elapsed:.1f}s")


def _insert_counters(m, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 8 << m, 1 << m, dtype=np.int64).tolist()
    bwa = BlackWhiteArray(m + 1, "fixed")
    for v in values:
        bwa.insert(v)
    return bwa.counters


# the pairwise carry chain's exact charges for the 2**m inserts below:
# (comparisons, moves, merges)
INSERT_COUNTERS = {10: (8_958, 11_264, 1_023),
                   14: (208_662, 245_760, 16_383),
                   18: (4_386_980, 4_980_736, 262_143)}


def test_insert_comparison_bound():
    details = []
    for m in (10, 14, 18):
        ctr = _insert_counters(m, SEED + m)
        cmp_m = ctr.comparisons
        cmp_next = _insert_counters(m + 1, SEED + m + 100).comparisons
        bound = 2 * m * (1 << m)
        ratio = cmp_next / cmp_m
        assert cmp_m <= bound, f"m={m}: {cmp_m} > {bound}"
        assert ratio <= 2.4, f"m={m}: doubling ratio {ratio:.3f} > 2.4"
        assert (cmp_m, ctr.moves, ctr.merges) == INSERT_COUNTERS[m], f"m={m}"
        details.append(f"m={m}: {cmp_m} <= {bound}, x{ratio:.2f}")
    _report("insert-comparison-bound", "; ".join(details))


# every counter after a 100,000-op history over 64 distinct values, so ties,
# voids and demotions are frequent: (comparisons, moves, merges, demotes,
# grows), as the pairwise carry chain charges them
MIXED_MIX = {"insert": 0.42, "delete": 0.33, "search": 0.1, "extract_min": 0.05,
             "extract_max": 0.05, "lower_bound": 0.025, "upper_bound": 0.025}
MIXED_COUNTERS = {"int64": (1313, int, (1_728_361, 613_550, 41_465, 984, 10)),
                  "float64": (1414, lambda v: v / 4 - 8,
                              (1_726_491, 615_510, 41_630, 955, 10))}


def test_mixed_history_counters():
    details = []
    for dtype, (seed, value, want) in MIXED_COUNTERS.items():
        bwa = BlackWhiteArray(4, dtype=dtype)
        for op in generate_ops(seed, 100_000, mix=MIXED_MIX, hit_ratio=0.9,
                               value_range=64):
            getattr(bwa, op.kind)(*map(value, op.args))
        c = bwa.counters
        assert (c.comparisons, c.moves, c.merges, c.demotes, c.grows) == want, dtype
        assert bwa.validate() == []
        details.append(f"{dtype}: {want}")
    _report("mixed-history-counters", "; ".join(details))


def test_search_comparison_counters():
    hit_cfg = BenchConfig(min_exp=16, max_exp=16, ops=("search",),
                          config="perfect", trials=1, hit_ratio=1.0,
                          seed=SEED)
    hit_row = run_bench(hit_cfg)[0]
    assert hit_row.cmp_per_op <= 18.0, hit_row

    miss_cfg = BenchConfig(min_exp=16, max_exp=16, ops=("search",),
                           config="random", trials=1000, hit_ratio=0.0,
                           seed=SEED, probes=256)
    miss_row = run_bench(miss_cfg)[0]
    assert miss_row.cmp_per_op <= 324.0, miss_row

    # at m=18 segments are large enough for bridges; bisecting every active
    # segment whole costs 93.91 comparisons a miss here
    bridged_cfg = BenchConfig(min_exp=18, max_exp=18, ops=("search",),
                              config="random", trials=300, hit_ratio=0.0,
                              seed=SEED, probes=256)
    bridged_row = run_bench(bridged_cfg)[0]
    assert bridged_row.cmp_per_op < 93.91, bridged_row
    _report("search-comparison-counters",
            f"perfect hit {hit_row.cmp_per_op:.2f} <= 18; random miss "
            f"{miss_row.cmp_per_op:.2f} <= 324 over 1000 configurations; "
            f"at 2^18 {bridged_row.cmp_per_op:.2f} < 93.91 over 300")


def test_occupancy_floor():
    bwa = BlackWhiteArray(16, "grow")
    ops = generate_ops(seed=SEED + 1, n=100_000, hit_ratio=0.5,
                       value_range=4 << 16)
    demotions = 0
    for step, op in enumerate(ops):
        if op.kind == "insert":
            bwa.insert(op.value)
        elif op.kind == "search":
            bwa.search(op.value)
        else:
            before = bwa.counters.demotes
            idx = bwa.delete(op.value)
            fired = bwa.counters.demotes - before
            assert fired <= 1, f"step {step}: delete ran {fired} demotions"
            if fired:
                demotions += 1
                rank = idx.bit_length() - 1
                if bwa.is_active(rank):
                    rate = bwa._occ[rank] / (1 << rank)
                    assert rate > 0.75, f"step {step}: post-merge rate {rate}"
                else:
                    rate = bwa._occ[rank - 1] / (1 << (rank - 1))
                    assert rate == 1.0, f"step {step}: demoted rate {rate}"
        occ = bwa._occ
        total = bwa.total
        for rank in range(1, total.bit_length()):
            if (total >> rank) & 1:
                assert occ[rank] << 1 > 1 << rank, \
                    f"step {step}: rank {rank} at or below half"
        if (step + 1) % 4096 == 0:
            assert bwa.validate() == []
    assert bwa.validate() == []
    _report("occupancy-floor",
            f"100000 steps, {demotions} demotions, floor held at every step")


def test_bench_scaling_trend():
    t0 = time.perf_counter()
    insert_rows = run_bench(BenchConfig(
        min_exp=10, max_exp=22, ops=("insert",), config="perfect",
        trials=1, seed=SEED))
    ns = {r.size_exp: r.ns_per_op for r in insert_rows}
    insert_ratio = ns[22] / ns[10]
    assert insert_ratio <= 4.0, f"insert scaling ratio {insert_ratio:.2f}"

    # at each size the two configs are timed back to back, three rounds,
    # and the fastest of each wins, so that load on the machine falls on
    # both alike; their comparison counts do not depend on load at all
    for m in range(10, 23):
        rows = {"perfect": [], "random": []}
        for _ in range(3):
            for config, trials, probes in (("perfect", 1, 2048),
                                           ("random", 3, 512)):
                row, = run_bench(BenchConfig(
                    min_exp=m, max_exp=m, ops=("search",), config=config,
                    trials=trials, hit_ratio=0.5, seed=SEED, probes=probes))
                rows[config].append(row)
        perfect, randomized = (min(r.ns_per_op for r in rows[c])
                               for c in ("perfect", "random"))
        assert randomized > perfect, \
            f"m={m}: random {randomized:.0f} <= perfect {perfect:.0f} ns"
        cmp = {c: {r.cmp_per_op for r in rows[c]} for c in rows}
        assert len(cmp["perfect"]) == len(cmp["random"]) == 1, cmp
        assert cmp["random"].pop() > cmp["perfect"].pop(), f"m={m}: {cmp}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report("bench-scaling-trend",
            f"insert 2^22/2^10 ratio {insert_ratio:.2f} <= 4; random search "
            f"above perfect at all 13 sizes, in ns and in comparisons; "
            f"sweep {elapsed:.0f}s")


def test_space_ratio():
    # one slot array and one mask byte per slot; the paper's layout adds a
    # black scratch array of half the slots
    for dtype in ("int64", "float32", "uint8"):
        for cap_exp in range(1, 15):
            bwa = BlackWhiteArray(cap_exp, dtype=dtype)
            assert owned_bytes(bwa) == bwa.capacity * (bwa.dtype.itemsize + 1)
    grown = BlackWhiteArray(2, "grow")
    for v in range(500):
        grown.insert(v)
        assert owned_bytes(grown) == grown.capacity * (8 + 1)
    assert grown.counters.grows > 0
    _report("space-ratio", f"{owned_bytes(grown)} bytes for "
                           f"{grown.capacity} int64 slots (paper layout "
                           f"{grown.capacity * (1.5 * 8 + 1):.0f}), exact at "
                           f"every capacity and after each of "
                           f"{grown.counters.grows} growth steps")


def test_sort_tool_million(monkeypatch, capsys):
    rng = random.Random(SEED)
    values = [rng.randrange(-(2 ** 31), 2 ** 31) for _ in range(10 ** 6)]
    stdin_text = " ".join(map(str, values))
    expected = " ".join(map(str, sorted(values))) + "\n"

    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    t0 = time.perf_counter()
    assert main(["sort"]) == 0
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert out == expected
    assert elapsed < 10.0
    _report("sort-tool-million",
            f"10^6 integers byte-identical to standard sort, {elapsed:.1f}s")
