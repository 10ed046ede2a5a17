import gc
import math

import pytest

from bwa import (BenchConfig, BenchRow, BlackWhiteArray, read_csv, run_bench,
                 write_csv)


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
        with pytest.raises(ValueError, match="ops name an op twice"):
            BenchConfig(min_exp=4, max_exp=6, ops=("search", "search"))

    def test_exponents_stay_within_int64_values(self):
        # values are drawn below 2**(m + 2) and doubled in int64
        assert BenchConfig(min_exp=60, max_exp=60).max_exp == 60
        with pytest.raises(ValueError):
            BenchConfig(min_exp=4, max_exp=61)


class TestInsertBench:
    CFG = BenchConfig(min_exp=10, max_exp=14, ops=("insert",),
                      config="perfect", trials=1, seed=5)

    def test_one_finite_row_per_size(self):
        rows = run_bench(self.CFG)
        assert [r.size_exp for r in rows] == list(range(10, 15))
        for r in rows:
            assert r.op == "insert"
            assert r.ns_per_op > 0 and math.isfinite(r.ns_per_op)
            assert r.cmp_per_op > 0

    def test_comparisons_grow_logarithmically(self):
        rows = _by_size(run_bench(self.CFG))
        for m in range(10, 14):
            growth = rows[m + 1].cmp_per_op - rows[m].cmp_per_op
            assert 0 < growth <= 1.5  # about one comparison per doubling

    def test_counters_reproducible_across_runs(self):
        a = run_bench(self.CFG)
        b = run_bench(self.CFG)
        assert [r.cmp_per_op for r in a] == [r.cmp_per_op for r in b]


class TestProbeBench:
    def test_perfect_hit_search_counter_bound(self):
        cfg = BenchConfig(min_exp=12, max_exp=12, ops=("search",),
                          config="perfect", trials=1, hit_ratio=1.0, seed=9)
        row = run_bench(cfg)[0]
        assert row.cmp_per_op <= 12 + 2

    def test_random_miss_search_counter_bound(self):
        cfg = BenchConfig(min_exp=12, max_exp=12, ops=("search",),
                          config="random", trials=50, hit_ratio=0.0, seed=9,
                          probes=64)
        row = run_bench(cfg)[0]
        assert 0 < row.cmp_per_op <= (12 + 2) ** 2

    def test_random_search_costs_more_than_perfect(self):
        base = dict(min_exp=12, max_exp=12, ops=("search",), hit_ratio=0.5,
                    seed=9)
        perfect = run_bench(BenchConfig(config="perfect", trials=1,
                                        **base))[0]
        random_ = run_bench(BenchConfig(config="random", trials=20,
                                        **base))[0]
        assert random_.ns_per_op > perfect.ns_per_op
        assert random_.cmp_per_op > perfect.cmp_per_op

    def test_probe_counters_reproducible(self):
        cfg = BenchConfig(min_exp=11, max_exp=11, ops=("search", "delete"),
                          config="random", trials=10, hit_ratio=0.5, seed=13,
                          probes=128)
        a = run_bench(cfg)
        b = run_bench(cfg)
        assert [r.cmp_per_op for r in a] == [r.cmp_per_op for r in b]

    def test_perfect_delete_batches_restore_state(self):
        cfg = BenchConfig(min_exp=8, max_exp=8, ops=("delete",),
                          config="perfect", trials=1, hit_ratio=1.0, seed=7,
                          probes=512)  # forces several rebuild batches
        row = run_bench(cfg)[0]
        assert row.ns_per_op > 0 and row.cmp_per_op > 0

    def test_run_bench_combines_ops(self):
        cfg = BenchConfig(min_exp=10, max_exp=11, config="perfect", trials=1,
                          hit_ratio=0.5, seed=3, probes=256)
        rows = run_bench(cfg)
        assert {(r.op, r.size_exp) for r in rows} == {
            (op, m) for op in ("insert", "search", "delete")
            for m in (10, 11)}


# cmp_per_op of every row of run_bench at m = 8..10, trials=2, probes=256,
# recorded before the perfect and random probe loops became one routine.  The
# insert rows depend on the seed alone; the probe rows run search, delete at
# m = 8, then at 9, then at 10.  A change that reorders the draws moves them.
_GOLDEN_INSERT = {1: (6.6796875, 7.73828125, 8.7265625),
                  2: (6.7109375, 7.734375, 8.7333984375)}
_GOLDEN_PROBES = {
    ("perfect", 0.0, 1): (9.9921875, 10.0, 10.99609375, 10.99609375,
                          12.0, 12.0),
    ("perfect", 0.0, 2): (10.0, 10.0, 11.0, 11.0, 12.0, 12.0),
    ("perfect", 0.5, 1): (9.99609375, 10.02734375, 10.9921875, 11.02734375,
                          12.0, 12.03515625),
    ("perfect", 0.5, 2): (10.0, 10.01953125, 11.0, 11.0234375,
                          12.0, 12.0390625),
    ("perfect", 1.0, 1): (10.0, 10.09375, 11.0, 11.140625, 12.0, 12.109375),
    ("perfect", 1.0, 2): (10.0, 10.125, 11.0, 11.14453125,
                          12.0, 12.14453125),
    ("random", 0.0, 1): (21.197265625, 21.208984375, 34.48828125,
                         34.51953125, 47.341796875, 47.3515625),
    ("random", 0.0, 2): (27.9296875, 27.92578125, 33.0625, 33.134765625,
                         31.255859375, 31.291015625),
    ("random", 0.5, 1): (18.828125, 18.783203125, 12.884765625, 12.06640625,
                         21.83984375, 22.494140625),
    ("random", 0.5, 2): (16.30078125, 15.603515625, 15.849609375, 15.109375,
                         18.111328125, 15.3046875),
    ("random", 1.0, 1): (13.826171875, 14.41015625, 8.8203125, 5.62890625,
                         11.33984375, 13.603515625),
    ("random", 1.0, 2): (13.14453125, 15.08203125, 11.263671875, 12.46875,
                         14.6953125, 14.375),
}


class TestGoldenGrid:
    @pytest.mark.parametrize("config, hit_ratio, seed", sorted(_GOLDEN_PROBES))
    def test_rows_reproduce_recorded_counts(self, config, hit_ratio, seed):
        rows = run_bench(BenchConfig(min_exp=8, max_exp=10, config=config,
                                     hit_ratio=hit_ratio, seed=seed, trials=2,
                                     probes=256))
        assert [(r.size_exp, r.op) for r in rows] == [
            (8, "insert"), (9, "insert"), (10, "insert"),
            (8, "search"), (8, "delete"), (9, "search"), (9, "delete"),
            (10, "search"), (10, "delete")]
        assert all((r.config, r.hit_ratio) == (config, hit_ratio)
                   for r in rows)
        want = _GOLDEN_INSERT[seed] + _GOLDEN_PROBES[config, hit_ratio, seed]
        assert tuple(r.cmp_per_op for r in rows) == want

    @pytest.mark.parametrize("config, probe_rows", [
        ("perfect", (10.02734375, 10.0, 11.03515625, 10.99609375,
                     12.03515625, 12.0)),
        ("random", (17.5078125, 19.076171875, 11.814453125, 12.591796875,
                    22.564453125, 21.765625)),
    ])
    def test_probe_rows_follow_the_ops_order(self, config, probe_rows):
        # inserts still come first; the probe ops draw in the order given
        rows = run_bench(BenchConfig(min_exp=8, max_exp=10, config=config,
                                     ops=("delete", "search", "insert"),
                                     hit_ratio=0.5, seed=1, trials=2,
                                     probes=256))
        assert [(r.size_exp, r.op) for r in rows[3:]] == [
            (8, "delete"), (8, "search"), (9, "delete"), (9, "search"),
            (10, "delete"), (10, "search")]
        assert tuple(r.cmp_per_op for r in rows) == (
            _GOLDEN_INSERT[1] + probe_rows)


class TestGcRestored:
    @pytest.mark.parametrize("op", ["insert", "search"])
    def test_after_memory_error(self, monkeypatch, capsys, op):
        def out_of_memory(self, value):
            raise MemoryError

        monkeypatch.setattr(BlackWhiteArray, op, out_of_memory)
        assert gc.isenabled()
        cfg = BenchConfig(min_exp=4, max_exp=5, ops=(op,), config="perfect",
                          trials=1, seed=1, probes=8)
        assert run_bench(cfg) == []  # every size skipped
        assert gc.isenabled()
        kind = "insert" if op == "insert" else "probe"
        assert capsys.readouterr().err.splitlines() == [
            f"{kind} bench: cannot allocate 2^{m} (), size skipped"
            for m in (4, 5)]


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

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("")
        with pytest.raises(ValueError, match=r"out\.csv, line 1: empty file"):
            read_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([BenchRow(10, "insert", "perfect", 0.5, 123.25, 9.5)], path)
        with open(path, "a") as fh:
            fh.write("11,search,perfect,0.5\n")
        with pytest.raises(ValueError,
                           match=r"out\.csv, line 3: 4 fields, not 6"):
            read_csv(path)

    def test_unwritable_destination_reports_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError, match="missing-dir"):
            write_csv([], target)
