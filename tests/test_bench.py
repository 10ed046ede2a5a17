import gc
import math

import pytest

from bwa import (BenchConfig, BenchRow, BlackWhiteArray, read_csv, run_bench,
                 run_insert_bench, run_probe_bench, write_csv)


def _by_size(rows):
    return {r.size_exp: r for r in rows}


class TestBenchConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            BenchConfig(min_exp=5, max_exp=4)
        with pytest.raises(ValueError):
            BenchConfig(min_exp=0, max_exp=4)
        with pytest.raises(ValueError):
            BenchConfig(min_exp=4, max_exp=6, ops=("insert", "sleep"))
        with pytest.raises(ValueError):
            BenchConfig(min_exp=4, max_exp=6, config="ideal")
        with pytest.raises(ValueError):
            BenchConfig(min_exp=4, max_exp=6, trials=0)
        with pytest.raises(ValueError):
            BenchConfig(min_exp=4, max_exp=6, hit_ratio=1.5)
        with pytest.raises(ValueError, match="probes must be at least 1"):
            BenchConfig(min_exp=4, max_exp=6, probes=0)

    def test_exponents_stay_within_int64_values(self):
        # values are drawn below 2**(m + 2) and doubled in int64
        assert BenchConfig(min_exp=60, max_exp=60).max_exp == 60
        with pytest.raises(ValueError):
            BenchConfig(min_exp=4, max_exp=61)


class TestInsertBench:
    CFG = BenchConfig(min_exp=10, max_exp=14, ops=("insert",),
                      config="perfect", trials=1, seed=5)

    def test_one_finite_row_per_size(self):
        rows = run_insert_bench(self.CFG)
        assert [r.size_exp for r in rows] == list(range(10, 15))
        for r in rows:
            assert r.op == "insert"
            assert r.ns_per_op > 0 and math.isfinite(r.ns_per_op)
            assert r.cmp_per_op > 0

    def test_comparisons_grow_logarithmically(self):
        rows = _by_size(run_insert_bench(self.CFG))
        for m in range(10, 14):
            growth = rows[m + 1].cmp_per_op - rows[m].cmp_per_op
            assert 0 < growth <= 1.5  # about one comparison per doubling

    def test_counters_reproducible_across_runs(self):
        a = run_insert_bench(self.CFG)
        b = run_insert_bench(self.CFG)
        assert [r.cmp_per_op for r in a] == [r.cmp_per_op for r in b]


class TestProbeBench:
    def test_perfect_hit_search_counter_bound(self):
        cfg = BenchConfig(min_exp=12, max_exp=12, ops=("search",),
                          config="perfect", trials=1, hit_ratio=1.0, seed=9)
        row = run_probe_bench(cfg)[0]
        assert row.cmp_per_op <= 12 + 2

    def test_random_miss_search_counter_bound(self):
        cfg = BenchConfig(min_exp=12, max_exp=12, ops=("search",),
                          config="random", trials=50, hit_ratio=0.0, seed=9,
                          probes=64)
        row = run_probe_bench(cfg)[0]
        assert 0 < row.cmp_per_op <= (12 + 2) ** 2

    def test_random_search_costs_more_than_perfect(self):
        base = dict(min_exp=12, max_exp=12, ops=("search",), hit_ratio=0.5,
                    seed=9)
        perfect = run_probe_bench(BenchConfig(config="perfect", trials=1,
                                              **base))[0]
        random_ = run_probe_bench(BenchConfig(config="random", trials=20,
                                              **base))[0]
        assert random_.ns_per_op > perfect.ns_per_op
        assert random_.cmp_per_op > perfect.cmp_per_op

    def test_probe_counters_reproducible(self):
        cfg = BenchConfig(min_exp=11, max_exp=11, ops=("search", "delete"),
                          config="random", trials=10, hit_ratio=0.5, seed=13,
                          probes=128)
        a = run_probe_bench(cfg)
        b = run_probe_bench(cfg)
        assert [r.cmp_per_op for r in a] == [r.cmp_per_op for r in b]

    def test_perfect_delete_batches_restore_state(self):
        cfg = BenchConfig(min_exp=8, max_exp=8, ops=("delete",),
                          config="perfect", trials=1, hit_ratio=1.0, seed=7,
                          probes=512)  # forces several rebuild batches
        row = run_probe_bench(cfg)[0]
        assert row.ns_per_op > 0 and row.cmp_per_op > 0

    def test_run_bench_combines_ops(self):
        cfg = BenchConfig(min_exp=10, max_exp=11, config="perfect", trials=1,
                          hit_ratio=0.5, seed=3, probes=256)
        rows = run_bench(cfg)
        assert {(r.op, r.size_exp) for r in rows} == {
            (op, m) for op in ("insert", "search", "delete")
            for m in (10, 11)}


class TestGcRestored:
    @pytest.mark.parametrize("op, run", [("insert", run_insert_bench),
                                         ("search", run_probe_bench)])
    def test_after_memory_error(self, monkeypatch, op, run):
        def out_of_memory(self, value):
            raise MemoryError

        monkeypatch.setattr(BlackWhiteArray, op, out_of_memory)
        assert gc.isenabled()
        cfg = BenchConfig(min_exp=4, max_exp=5, ops=(op,), config="perfect",
                          trials=1, seed=1, probes=8)
        assert run(cfg) == []  # every size skipped
        assert gc.isenabled()


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], path)
        assert path.read_text() == "size_exp,op,config,hit_ratio,ns_per_op,cmp_per_op\n"

    def test_single_row_two_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([BenchRow(10, "insert", "perfect", 0.5, 123.25, 9.5)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "10,insert,perfect,0.5,123.25,9.5"

    def test_round_trip(self, tmp_path):
        rows = [BenchRow(10, "insert", "random", 0.25, 105.949, 9.031),
                BenchRow(11, "search", "perfect", 1.0, 142.289, 13.0)]
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        assert read_csv(path) == rows

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("size_exp,op,ns_per_op\n10,insert,1.5\n")
        with pytest.raises(ValueError, match="unexpected CSV header "
                           r"\('size_exp', 'op', 'ns_per_op'\)"):
            read_csv(path)

    def test_unwritable_destination_reports_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError, match="missing-dir"):
            write_csv([], target)
