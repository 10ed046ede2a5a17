import copy
import pickle
import random
import warnings

import numpy as np
import pytest

from bwa import BlackWhiteArray, CapacityExceeded, Counters, GrowthPolicy, core

from conftest import EIGHT, Narrow, owned_bytes
from pairwise import merge_comparisons


class TestConstruction:
    def test_shapes(self):
        bwa = BlackWhiteArray(4, "fixed")
        assert bwa._white.size == 16
        assert len(bwa._mask) == 16
        assert bwa.total == 0
        assert bwa.capacity == 16
        assert bwa.occupancy == (0, 0, 0, 0)

    def test_smallest_legal(self):
        bwa = BlackWhiteArray(1, "fixed")
        assert bwa._white.size == 2
        assert len(bwa._mask) == 2

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            BlackWhiteArray(0)

    def test_counters_start_zeroed(self):
        c = BlackWhiteArray(4).counters
        assert (c.comparisons, c.moves, c.merges, c.demotes, c.grows) == (0,) * 5

    def test_counters_reset_as_a_unit(self, eight_value_array):
        c = eight_value_array.counters
        assert c.comparisons > 0 and c.moves > 0 and c.merges > 0
        c.demotes = c.grows = 1
        c.reset()
        assert (c.comparisons, c.moves, c.merges, c.demotes, c.grows) == (0,) * 5
        assert c == Counters()

    def test_policy_accepts_strings(self):
        assert BlackWhiteArray(3, "grow").policy is GrowthPolicy.GROW
        assert BlackWhiteArray(3, GrowthPolicy.FIXED).policy is GrowthPolicy.FIXED


class TestIndexing:
    def test_seg_bounds(self):
        bwa = BlackWhiteArray(6)
        assert bwa.seg_bounds(3) == (8, 15)
        assert bwa.seg_bounds(0) == (1, 1)
        assert bwa.seg_bounds(5) == (32, 63)

    def test_seg_bounds_rejects_out_of_range(self):
        bwa = BlackWhiteArray(4)
        with pytest.raises(ValueError):
            bwa.seg_bounds(4)
        with pytest.raises(ValueError):
            bwa.seg_bounds(-1)

    def test_rank_of(self):
        bwa = BlackWhiteArray(4)
        assert bwa.rank_of(7) == 2
        assert bwa.rank_of(1) == 0
        assert bwa.rank_of(11) == 3

    def test_rank_of_rejects_out_of_range(self):
        bwa = BlackWhiteArray(4)
        with pytest.raises(ValueError):
            bwa.rank_of(0)
        with pytest.raises(ValueError):
            bwa.rank_of(16)

    def test_numpy_integers_accepted_other_types_rejected(self):
        bwa = BlackWhiteArray(4, "fixed")
        bwa.insert(5)
        answers = [bwa.seg_bounds(np.int64(3)), bwa.rank_of(np.uint8(11)),
                   bwa.is_active(np.int32(0)), bwa.segment_slots(np.int16(0))]
        assert answers == [(8, 15), 3, True, [5]]
        assert [type(x) for x in (*answers[0], answers[1])] == [int] * 3
        for helper in (bwa.seg_bounds, bwa.rank_of, bwa.is_active,
                       bwa.segment_slots):
            with pytest.raises(TypeError):
                helper(3.0)
            with pytest.raises(TypeError):
                helper("1")
            with pytest.raises(ValueError, match="outside"):
                helper(np.int64(-1))

    def test_segment_slots_of_an_inactive_rank_rejected(self):
        bwa = BlackWhiteArray(4)
        bwa.insert_many([3, 1, 2])
        assert bwa.segment_slots(0) == [2]
        with pytest.raises(ValueError, match="rank 2 is not active"):
            bwa.segment_slots(2)

    def test_is_active_tracks_bits_of_total(self):
        bwa = BlackWhiteArray(4, "fixed")
        assert not any(bwa.is_active(r) for r in range(4))
        for v in range(7):
            bwa.insert(v)
        assert [bwa.is_active(r) for r in range(4)] == [True, True, True, False]
        bwa.insert(7)
        assert [bwa.is_active(r) for r in range(4)] == [False, False, False, True]


class TestInsert:
    def test_first_insert_lands_in_rank_zero(self):
        bwa = BlackWhiteArray(4, "fixed")
        bwa.insert(5)
        assert bwa.total == 1
        assert bwa.segment_slots(0) == [5]

    def test_cascade_walkthrough(self, eight_value_array):
        bwa = eight_value_array
        assert bwa.total == 8
        assert bwa.segment_slots(3) == [21, 33, 45, 52, 59, 67, 76, 83]
        assert not any(bwa.is_active(r) for r in range(3))
        assert bwa.validate() == []

    def test_intermediate_state_before_final_cascade(self):
        bwa = BlackWhiteArray(4, "fixed")
        for v in EIGHT[:-1]:
            bwa.insert(v)
        assert bwa.total == 7
        assert bwa.segment_slots(2) == [21, 59, 67, 83]
        assert bwa.segment_slots(1) == [33, 76]
        assert bwa.segment_slots(0) == [45]

    def test_merge_count_matches_carry_chain(self):
        # a cascade runs one merge per trailing one-bit of the old total
        bwa = BlackWhiteArray(8, "fixed")
        rng = random.Random(4)
        for _ in range(200):
            trailing = ((bwa.total + 1) & ~bwa.total).bit_length() - 1
            before = bwa.counters.merges
            bwa.insert(rng.randrange(10 ** 6))
            assert bwa.counters.merges - before == trailing

    @pytest.mark.parametrize("ranks, fail, voids", [
        (3, "write", 1), (3, "chain", 1), (5, "write", 2), (5, "chain", 2),
        (5, "sort", 2), (4, "sort", 1), (5, "sort", 0)],
        ids=["3-write", "3-chain", "5-write", "5-chain", "5-sort", "4-sort",
             "5-sort-void-free"])
    def test_failed_write_leaves_state(self, monkeypatch, ranks, fail, voids):
        # total 2**ranks - 1: the next insert carries every active rank, into
        # a segment of 8, 16 or 32 slots, where the runs are gathered and
        # sorted, over ``voids`` voids in the top source segment
        bwa = BlackWhiteArray(6, "fixed")
        for v in range((1 << ranks) - 1):
            bwa.insert(v * 7 % 31)
        for v in bwa.segment_slots(ranks - 1)[1:1 + voids]:
            bwa.delete(v)
        assert bwa.total == (1 << ranks) - 1
        before = (bwa.total, bwa.occupancy, len(bwa), list(bwa))
        counters = dict(vars(bwa.counters))

        def failing(*args, **kwargs):
            raise MemoryError("write failed")

        def count_then_fail(runs, counts, start):
            # every value is gathered in the destination itself, read
            # through the slot view, and the carried value still leads,
            # unsorted
            assert runs is bwa._wv and start == 1 << ranks
            gathered = runs[start:start + sum(counts)]
            assert sorted(gathered) == sorted(before[3] + [100])
            assert gathered[0] == 100
            count(runs, counts, start)
            raise MemoryError("sort failed")

        count = core._chain_comparisons
        with monkeypatch.context() as patch:
            if fail == "write":
                patch.setattr(bwa, "_write", failing)
            elif fail == "chain":
                patch.setattr(core, "_chain_comparisons", failing)
            else:
                patch.setattr(core, "_chain_comparisons", count_then_fail)
            with pytest.raises(MemoryError):
                bwa.insert(100)
        assert bwa.validate() == []
        assert (bwa.total, bwa.occupancy, len(bwa), list(bwa)) == before
        assert vars(bwa.counters) == counters
        bwa.insert(100)                     # the carry runs to the end after
        assert bwa.validate() == [] and list(bwa) == before[3] + [100]
        occupancy = [0] * 6
        occupancy[ranks] = before[2] + 1
        assert bwa.occupancy == tuple(occupancy)

    def test_thousand_random_inserts_drain_sorted(self):
        rng = random.Random(11)
        values = [rng.randrange(4000) for _ in range(1000)]
        bwa = BlackWhiteArray(11, "fixed")
        for v in values:
            bwa.insert(v)
        assert list(bwa) == sorted(values)
        assert bwa.validate() == []


class TestWriteUnit:
    @staticmethod
    def _assert_sorted_padding(bwa, rank, n):
        # every slot of the destination is sorted; the void tail repeats the
        # largest value written
        seg = bwa._white[1 << rank:2 << rank].tolist()
        assert seg == sorted(seg)
        assert seg[n:] == [seg[n - 1]] * ((1 << rank) - n)

    @pytest.fixture(params=["int64", "float64"])
    def bwa(self, request):
        # float slots take _sort's float forms: the stable merge of runs
        # and the zero write-back of an unsorted batch
        return BlackWhiteArray(5, "fixed", dtype=request.param)

    def test_void_skipping_and_top_padding(self, bwa):
        bwa._white[4:8] = [21, 77, 80, 91]  # 80 deleted: the value stays
        bwa._wmask[4:8] = [True, True, False, True]
        bwa._occ[2] = 3
        bwa._total = 4
        bwa._white[8:12] = [6, 52, 67, 83]
        bwa._write(3, 4, 2, True)
        assert bwa._white[8:15].tolist() == [6, 21, 52, 67, 77, 83, 91]
        assert bwa._wmask[8:16].tolist() == [True] * 7 + [False]
        self._assert_sorted_padding(bwa, 3, 7)
        assert bwa.occupancy == (0, 0, 0, 7, 0) and bwa.total == 8
        assert bwa.counters.comparisons == merge_comparisons(
            [6, 52, 67, 83], [21, 77, 91])

    def test_single_slot_sources(self, bwa):
        bwa._white[2] = 52                  # staged in the destination's
        bwa._white[1] = 45                  # first slot, as insert does
        bwa._wmask[1] = True
        bwa._occ[0] = 1
        bwa._total = 1
        bwa._write(1, 1, 0, True)
        assert bwa._white[2:4].tolist() == [45, 52]
        assert bwa._wmask[2:4].tolist() == [True, True]
        assert bwa.occupancy == (0, 2, 0, 0, 0) and bwa.total == 2
        assert bwa.counters.comparisons == 1

    def test_voids_never_compared(self, bwa):
        bwa._white[2:4] = [15, 20]          # 15 deleted: the value stays
        bwa._wmask[2:4] = [False, True]
        bwa._occ[1] = 1
        bwa._total = 2
        bwa._white[4] = 10
        bwa._write(2, 1, 1, True)
        assert bwa._white[4:6].tolist() == [10, 20]
        assert bwa._wmask[4:8].tolist() == [True, True, False, False]
        assert bwa.counters.comparisons == 1
        self._assert_sorted_padding(bwa, 2, 2)

    def test_sorts_a_batch_and_charges_nothing_without_chain(self, bwa):
        bwa._white[2:4] = [15, 20]
        bwa._wmask[2:4] = [True, True]
        bwa._occ[1] = 2
        bwa._total = 2 | 16
        bwa._white[8:10] = [30, 5]
        bwa._write(3, 2, 1)
        assert bwa._white[8:12].tolist() == [5, 15, 20, 30]
        assert bwa._wmask[8:16].tolist() == [True] * 4 + [False] * 4
        self._assert_sorted_padding(bwa, 3, 4)
        assert bwa.total == 8 | 16 and bwa.occupancy == (0, 0, 0, 4, 0)
        assert bwa.counters.comparisons == 0

    def test_chain_charges_each_pairwise_merge(self, bwa):
        # value 50 carried through ranks 0..2: merged with [60], then with
        # rank 1, then with rank 2, each merge charged on its own
        bwa._white[1:8] = [60, 10, 70, 5, 30, 40, 90]
        bwa._wmask[1:8] = [True, True, True, True, False, True, True]
        bwa._occ[:3] = [1, 2, 3]
        bwa._total = 7
        bwa._white[8] = 50
        bwa._write(3, 1, 0, True)
        runs = [[50], [60], [10, 70], [5, 40, 90]]
        want, merged = 0, runs[0]
        for run in runs[1:]:
            want += merge_comparisons(merged, run)
            merged = sorted(merged + run)
        assert bwa.counters.comparisons == want
        assert bwa._white[8:15].tolist() == merged
        assert bwa.total == 8 and bwa.occupancy == (0, 0, 0, 7, 0)

    def test_lone_sorted_run_into_an_empty_rank(self, bwa, monkeypatch):
        # survivors demoted into a free rank: one sorted run, no source
        # rank, more than half of the 8 slots but not all of them
        monkeypatch.setattr(bwa, "_sort", None)  # the run is not sorted again
        bwa._white[8:13] = [4, 9, 9, 30, 41]
        bwa._filter.update([4, 9, 30, 41])  # as a filtered rank 4 held them
        bwa._write(3, 5, 3, True)
        assert bwa._white[8:13].tolist() == [4, 9, 9, 30, 41]
        assert bwa._wmask[8:16].tolist() == [True] * 5 + [False] * 3
        self._assert_sorted_padding(bwa, 3, 5)
        assert bwa.total == 8 and bwa.occupancy == (0, 0, 0, 5, 0)
        assert bwa.counters.comparisons == 0
        assert bwa.validate() == []


class _FailingFilter(set):
    """A search filter whose ``add`` fails, as the growth of a set's table
    can."""

    def add(self, value):
        raise MemoryError("filter add failed")


def _active(bwa, void=None):
    """``total``, the occupancy, the counters, and the slot and mask bytes
    of every active rank, the slot ``void`` by its mask byte alone."""
    c = bwa.counters
    out = [bwa.total, bwa.occupancy,
           (c.comparisons, c.moves, c.merges, c.demotes, c.grows)]
    for r in range(bwa.cap_exp):
        if bwa.is_active(r):
            s = 1 << r
            out.append([None if i == void else bwa._white[i:i + 1].tobytes()
                        for i in range(s, s << 1)])
            out.append(bytes(bwa._mask[s:s << 1]))
    return out


class TestRankOneDemotion:
    @pytest.mark.parametrize("taken", [True, False],
                             ids=["rank-0-taken", "rank-0-free"])
    @pytest.mark.parametrize("op, args", [
        ("delete", (10,)), ("delete", (20,)), ("extract_min", ()),
        ("extract_max", ())], ids=["delete-10", "delete-20", "extract_min",
                                   "extract_max"])
    def test_failed_reinsert_is_undone(self, taken, op, args):
        # rank 2 holds 11-14, rank 1 [10, 20] and, when taken, rank 0 15:
        # the op voids one of rank 1's values, and the re-insert of the
        # other fails at the filter's add
        bwa = BlackWhiteArray(4, "fixed")
        bwa.insert_many([11, 12, 13, 14])
        bwa.insert(20)
        bwa.insert(10)
        if taken:
            bwa.insert(15)
        twin = copy.deepcopy(bwa)           # runs the op to its end
        voided = copy.deepcopy(bwa)         # runs it up to the demotion
        voided._demote = lambda rank: None
        getattr(voided, op)(*args)
        void = 2 if voided._mask[3] else 3
        bwa._filter = _FailingFilter(bwa._filter)
        with pytest.raises(MemoryError):
            getattr(bwa, op)(*args)
        # the state the void left, which validate() reports for rank 1
        assert _active(bwa, void) == _active(voided, void)
        assert bwa.validate() == ["rank 1: occupancy 1/2 not above one half"]
        # the demotion run again completes the op
        bwa._filter = set(bwa._filter)
        bwa._demote(1)
        getattr(twin, op)(*args)
        assert bwa.validate() == []
        assert _active(bwa) == _active(twin)
        assert twin.counters.demotes == 1


class TestCapacity:
    def test_grow_once_at_power_of_two(self):
        bwa = BlackWhiteArray(10, "grow")
        rng = random.Random(0)
        for _ in range(1024):  # capacity 2**10 holds at most 1023 slots
            bwa.insert(rng.randrange(10 ** 6))
        assert bwa.counters.grows == 1
        assert bwa.cap_exp == 11
        assert len(bwa) == 1024
        assert bwa.validate() == []

    def test_fixed_policy_raises_before_mutating(self):
        bwa = BlackWhiteArray(2, "fixed")
        for v in (3, 1, 2):
            bwa.insert(v)
        snapshot = list(bwa)
        with pytest.raises(CapacityExceeded):
            bwa.insert(9)
        assert bwa.total == 3
        assert list(bwa) == snapshot

    @pytest.mark.parametrize("value, error", [(2.5, ValueError),
                                              (2 ** 70, OverflowError)])
    def test_full_fixed_structure_checks_the_value_first(self, value, error):
        bwa = BlackWhiteArray(2, "fixed")
        bwa.insert_many([3, 1, 2])
        before = _state(bwa)
        with pytest.raises(error, match=str(value)):
            bwa.insert(value)
        assert _state(bwa) == before

    def test_space_ratio_two_to_one(self):
        # the slots and one mask byte each; no black scratch array
        for cap_exp in range(1, 13):
            bwa = BlackWhiteArray(cap_exp)
            assert owned_bytes(bwa) == bwa.capacity * 9
        grown = BlackWhiteArray(3, "grow")
        for v in range(20):
            grown.insert(v)
            assert owned_bytes(grown) == grown.capacity * 9
        assert grown.counters.grows > 0


def _voided():
    bwa = BlackWhiteArray.from_values(list(range(40)))
    for v in (3, 17, 30):
        bwa.delete(v)
    return bwa


def _grown_by_insert():
    bwa = BlackWhiteArray(2)
    for v in (5, 3, 8, 1):
        bwa.insert(v)
    assert bwa.counters.grows == 1
    return bwa


def _grown_by_insert_many():
    bwa = BlackWhiteArray(2)
    bwa.insert_many([5, 3, 8, 1, 9, 2])
    assert bwa.counters.grows == 1
    return bwa


class TestMask:
    """The mask is stored once, as a bytearray that numpy sees as a bool
    view; both must stay one mask through growth and copies."""

    @pytest.mark.parametrize("make", [
        lambda: BlackWhiteArray(4),
        _grown_by_insert,
        _grown_by_insert_many,
        lambda: copy.deepcopy(_voided()),
        lambda: pickle.loads(pickle.dumps(_voided())),
    ], ids=["constructed", "grown_by_insert", "grown_by_insert_many",
            "deepcopy", "pickle"])
    def test_view_and_bytes_are_one_mask(self, make):
        bwa = make()
        mask, view = bwa._mask, bwa._wmask
        assert type(mask) is bytearray and view.dtype == bool
        assert np.shares_memory(view, mask)
        assert len(mask) == view.size == bwa.capacity
        for i in (0, bwa.capacity - 1):
            was = mask[i]
            mask[i] = 1 - was
            assert view[i] == (not was)
            view[i] = was
            assert mask[i] == was
        assert bwa.validate() == []

    def test_copies_keep_the_voids(self):
        for clone in (copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b))):
            bwa = _voided()
            dup = clone(bwa)
            assert dup._mask == bwa._mask and dup._mask is not bwa._mask
            assert dup.delete(20) == bwa.delete(20)
            assert dup._mask == bwa._mask
            assert dup.validate() == []


class TestValidate:
    def test_fresh_structure_clean(self):
        assert BlackWhiteArray(5).validate() == []

    def test_random_workload_stays_clean(self):
        from bwa import generate_ops

        bwa = BlackWhiteArray(8, "grow")
        rng_ops = generate_ops(seed=3, n=10_000, hit_ratio=0.6)
        for op in rng_ops:
            if op.kind == "insert":
                bwa.insert(op.value)
            elif op.kind == "search":
                bwa.search(op.value)
            elif op.kind == "delete":
                bwa.delete(op.value)
            assert bwa.validate() == []

    def test_corrupt_total_reported(self, eight_value_array):
        eight_value_array._total += 1
        problems = eight_value_array.validate()
        assert any("mismatch" in p for p in problems)

    def test_mask_length_mismatch_reported(self):
        bwa = BlackWhiteArray(4)
        bwa._mask = bytearray(17)
        assert bwa.validate() == [
            "slot and mask lengths (16, 17) do not match capacity 2**4"]

    def test_corrupt_occupancy_count_reported(self, eight_value_array):
        eight_value_array._occ[3] -= 1
        assert any("mismatch" in p for p in eight_value_array.validate())

    def test_total_outside_capacity_reported(self, eight_value_array):
        eight_value_array._total = 16
        assert "total 16 outside [0, 15]" in eight_value_array.validate()

    def test_occupancy_vector_length_reported(self, eight_value_array):
        eight_value_array._occ.append(0)
        assert eight_value_array.validate() == [
            "occupancy vector length differs from cap_exp"]

    def test_count_on_an_inactive_rank_reported(self, eight_value_array):
        eight_value_array._occ[1] = 2
        assert eight_value_array.validate() == [
            "rank 1: inactive but occupancy count is 2 (total/active mismatch)"]

    def test_void_active_rank_zero_reported(self):
        bwa = BlackWhiteArray(4)
        bwa.insert(5)
        bwa._mask[1] = 0
        bwa._occ[0] = 0
        assert bwa.validate() == ["rank 0: active but its slot is void"]

    def test_half_empty_rank_reported(self, eight_value_array):
        # four voids in rank 3's eight slots, as a missed demotion leaves
        eight_value_array._wmask[8:16:2] = False
        eight_value_array._occ[3] = 4
        assert eight_value_array.validate() == [
            "rank 3: occupancy 4/8 not above one half"]

    def test_bridge_list_length_reported(self, eight_value_array):
        eight_value_array._links.append(None)
        assert eight_value_array.validate() == [
            "bridge list length differs from cap_exp"]

    def test_corrupt_order_reported(self, eight_value_array):
        seg = eight_value_array._white
        seg[8], seg[15] = seg[15].item(), seg[8].item()
        assert any("not sorted" in p for p in eight_value_array.validate())

    def test_unsorted_void_slot_reported(self, demotion_ready_array):
        # slot 9 is void; a value above its occupied neighbour 52 leaves the
        # occupied slots sorted but not the raw slots
        assert not demotion_ready_array._wmask[9]
        demotion_ready_array._white[9] = 60
        assert any("not sorted" in p for p in demotion_ready_array.validate())

    @pytest.fixture
    def bridged(self):
        # ranks 7, 6 and 5: the bridges of 5 and 6 lead to 6 and 7
        values = random.Random(2).sample(range(1000), 2 ** 7 + 2 ** 6 + 2 ** 5)
        bwa = Narrow.from_values(values)
        assert [r for r, link in enumerate(bwa._links) if link] == [5, 6]
        assert bwa.validate() == []
        return bwa

    def test_corrupt_bridge_entry_reported(self, bridged):
        bridged._links[6][0][3] += 1
        assert bridged.validate() == ["rank 6: bridge stale"]

    def test_corrupt_bridge_stride_reported(self, bridged):
        marks, base, shift = bridged._links[5]
        bridged._links[5] = marks, base, shift + 1
        assert bridged.validate() == ["rank 5: bridge stale"]

    def test_missing_bridge_reported(self, bridged):
        bridged._links[5] = None
        assert bridged.validate() == ["rank 5: bridge missing"]

    def test_bridge_where_none_belongs_reported(self, bridged):
        bridged._links[7] = bridged._links[4] = bridged._links[6]
        assert bridged.validate() == ["rank 4: bridge stale",
                                      "rank 7: bridge stale"]

    def test_stale_bridge_after_a_slot_write_reported(self, bridged):
        # rewrite rank 7 as a writer would, without rebuilding the bridge
        # of rank 6 that samples it
        bridged._white[128:256] = np.arange(128) * 8
        assert bridged.validate() == ["rank 6: bridge stale"]


class TestDump:
    def test_active_segments_highest_first(self):
        bwa = BlackWhiteArray(4, "fixed")
        for v in (5, 3, 7):
            bwa.insert(v)
        assert bwa.dump() == "rank=1 [3,5]\nrank=0 [7]"

    def test_voids_render_as_dots(self, demotion_ready_array):
        lines = demotion_ready_array.dump().splitlines()
        assert lines[0] == "rank=3 [6,·,·,52,59,67,·,83]"
        assert lines[1] == "rank=2 [21,77,·,91]"
        assert lines[2] == "rank=1 [45,82]"

    def test_empty_structure_dumps_nothing(self):
        assert BlackWhiteArray(4).dump() == ""

    def test_repr_counts_values_slots_and_capacity(self, demotion_ready_array):
        assert repr(demotion_ready_array) == \
            "BlackWhiteArray(len=10, total=14, capacity=2**4)"
        assert repr(Narrow(3)) == "Narrow(len=0, total=0, capacity=2**3)"


class TestDtype:
    def test_float_elements(self):
        bwa = BlackWhiteArray(4, "fixed", dtype=np.float64)
        for v in (2.5, -1.25, 7.75, 0.5):
            bwa.insert(v)
        assert list(bwa) == [-1.25, 0.5, 2.5, 7.75]
        assert bwa.delete(2.5) is not None
        assert bwa.validate() == []

    def test_negative_integers(self):
        values = [3, -8, 0, -8, 5, -1]
        bwa = BlackWhiteArray(4, "fixed")
        for v in values:
            bwa.insert(v)
        assert list(bwa) == sorted(values)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int16,
                                       np.uint16, np.int32, np.uint32, np.int64,
                                       np.uint64, np.float32, np.float64, "<i8"])
    def test_supported_dtypes(self, dtype):
        values = [1, 0, 1, 1, 0] if dtype is bool else [9, 3, 7, 3, 120, 0, 5]
        bwa = BlackWhiteArray(2, dtype=dtype)
        for v in values:
            bwa.insert(v)
        assert list(bwa) == sorted(values)
        assert bwa.search(values[0]) is not None
        assert bwa.minimum() == min(values) and bwa.maximum() == max(values)
        assert bwa.lower_bound(0) == min(v for v in values if v > 0)
        assert bwa.validate() == []

    @pytest.mark.parametrize("dtype", [np.float16, np.longdouble, ">i8",
                                       np.complex128, object, "datetime64[s]"])
    def test_unsupported_dtype_rejected(self, dtype):
        # the probe path reads slots through a memoryview of the array
        with pytest.raises(ValueError, match="not a native bool, integer"):
            BlackWhiteArray(4, dtype=dtype)


def _state(bwa):
    """Everything a failed insert_many must leave alone."""
    c = bwa.counters
    return (bwa.total, bwa.occupancy, bwa.cap_exp, bwa._white.tolist(),
            bwa._wmask.tolist(),
            (c.comparisons, c.moves, c.merges, c.demotes, c.grows))


class TestInsertMany:
    def test_empty_batch_is_a_no_op(self, demotion_ready_array):
        before = _state(demotion_ready_array)
        demotion_ready_array.insert_many([])
        demotion_ready_array.insert_many(np.array([], dtype=np.int64))
        assert _state(demotion_ready_array) == before

    def test_matches_the_cascade_example(self, eight_value_array):
        bulk = BlackWhiteArray(4, "fixed")
        bulk.insert_many(EIGHT)
        assert bulk.segment_slots(3) == eight_value_array.segment_slots(3)
        assert bulk.total == 8

    def test_fills_voids_of_the_ranks_it_clears(self):
        # total 14 holds ranks 1, 2 and 3 with 2, 3 and 5 occupied slots; a
        # block of two carries through all three into rank 4, which gets
        # the 12 occupied values and a void tail, and the third value lands
        # in rank 0
        scalar = BlackWhiteArray(5)
        bulk = BlackWhiteArray(5)
        for bwa in (scalar, bulk):
            for v in (6, 10, 20, 52, 59, 67, 70, 83, 21, 77, 80, 91, 45, 82):
                bwa.insert(v)
            for v in (10, 20, 70, 80):
                bwa.delete(v)
        for v in (1, 2, 95):
            scalar.insert(v)
        bulk.insert_many([1, 2, 95])
        assert bulk.dump() == scalar.dump()
        assert bulk.segment_slots(4) == [1, 2, 6, 21, 45, 52, 59, 67, 77, 82,
                                         83, 91, None, None, None, None]
        assert bulk._white[28:32].tolist() == [91] * 4
        assert bulk.segment_slots(0) == [95]
        assert bulk.validate() == []

    def test_void_tail_cleared_over_a_stale_segment(self):
        # rank 4 fills, loses its 8 smallest values and is demoted to rank 3,
        # leaving set mask bits behind in slots 24-31; a block carried into
        # rank 4 with voids must clear them in its tail
        scalar = BlackWhiteArray(5)
        bulk = BlackWhiteArray(5)
        for bwa in (scalar, bulk):
            bwa.insert_many(range(16))
            for v in range(8):
                bwa.delete(v)
            for v in (8, 9, 10):
                bwa.delete(v)
            assert bwa.total == 8 and bwa._wmask[24:32].all()
        for v in range(100, 108):
            scalar.insert(v)
        bulk.insert_many(range(100, 108))
        assert bulk.segment_slots(4) == [11, 12, 13, 14, 15, *range(100, 108),
                                         None, None, None]
        assert bulk.segment_slots(4) == scalar.segment_slots(4)
        assert bulk.validate() == []

    def test_counters_charge_segments_and_slots_written(self):
        bwa = BlackWhiteArray(4)
        bwa.insert_many([5, 1, 4, 2, 3])        # rank 2, then rank 0
        c = bwa.counters
        assert (c.comparisons, c.moves, c.merges, c.demotes, c.grows) == \
            (0, 5, 2, 0, 0)
        bwa.insert_many([9, 0, 7])              # total 5 -> 6 -> 8
        assert (c.merges, c.moves) == (4, 5 + 2 + 8)

    def test_from_values_leaves_counters_zeroed(self):
        c = BlackWhiteArray.from_values(range(100, 0, -1)).counters
        assert (c.comparisons, c.moves, c.merges, c.demotes, c.grows) == (0,) * 5

    def test_from_values_too_small_cap_exp_follows_the_policy(self):
        bwa = BlackWhiteArray.from_values(range(8), cap_exp=3)
        assert bwa.cap_exp == 4 and list(bwa) == list(range(8))
        c = bwa.counters
        assert (c.comparisons, c.moves, c.merges, c.demotes, c.grows) == (0,) * 5
        assert bwa.validate() == []
        with pytest.raises(CapacityExceeded):
            BlackWhiteArray.from_values(range(8), cap_exp=3, policy="fixed")

    def test_grows_in_one_step_counting_doublings(self):
        bwa = BlackWhiteArray(1, "grow")
        bwa.insert(7)
        sizes = []
        bwa._grow = lambda cap_exp, grow=bwa._grow: (sizes.append(cap_exp),
                                                     grow(cap_exp))
        bwa.insert_many(range(100))             # total 101 needs 2**7 slots
        assert sizes == [7]
        assert bwa.cap_exp == 7 and bwa.counters.grows == 6
        assert bwa._white.size == 128 and len(bwa._mask) == 128
        assert list(bwa) == sorted([7, *range(100)])
        assert bwa.validate() == []

    def test_tied_floats_land_where_the_scalar_loop_leaves_them(self):
        # -0.0 == 0.0, so only the bytes tell where each zero went: after a
        # scalar prefill, insert_many must leave every active rank's slots
        # and mask as inserting its values one by one does
        def ranks(bwa):
            return [(bwa._white[1 << r:2 << r].tobytes(),
                     bytes(bwa._mask[1 << r:2 << r]))
                    for r in range(bwa.cap_exp) if bwa.is_active(r)]

        rng = random.Random(7)
        for _ in range(2000):
            prefill = [rng.choice((-0.0, 0.0, 1.0))
                       for _ in range(rng.randrange(40))]
            batch = [rng.choice((-0.0, 0.0, -1.0))
                     for _ in range(rng.randrange(1, 40))]
            scalar = BlackWhiteArray(2, dtype=np.float64)
            bulk = BlackWhiteArray(2, dtype=np.float64)
            for bwa in (scalar, bulk):
                for v in prefill:
                    bwa.insert(v)
            for v in batch:
                scalar.insert(v)
            bulk.insert_many(batch)
            assert ranks(bulk) == ranks(scalar), (prefill, batch)
        bwa = BlackWhiteArray(2, dtype=np.float64)
        bwa.insert_many([-0.0, 0.0])
        assert np.signbit(bwa.segment_slots(1)).tolist() == [False, True]

    @pytest.mark.parametrize("kind", ["generator", "set", "map"])
    def test_any_iterable_is_a_batch(self, kind):
        values = [41, 7, 99, 7, 12, 63, 5, 88, 30]
        make = {"generator": lambda: (v for v in values),
                "set": lambda: set(values),
                "map": lambda: map(int, map(str, values))}[kind]
        as_list = list(make())
        bulk = BlackWhiteArray(2)
        for v in (6, 10, 20, 52, 59, 67, 70):
            bulk.insert(v)
        bulk.delete(10)
        ref = copy.deepcopy(bulk)
        bulk.insert_many(make())
        ref.insert_many(as_list)
        assert _state(bulk) == _state(ref) and bulk.validate() == []
        built = BlackWhiteArray.from_values(make())
        assert _state(built) == _state(BlackWhiteArray.from_values(as_list))
        assert sorted(built) == sorted(as_list)

    def test_inexact_value_in_a_generator_named(self, demotion_ready_array):
        bwa = demotion_ready_array
        before = _state(bwa)
        with pytest.raises(ValueError, match="2.5"):
            bwa.insert_many(v for v in [1, 2, 2.5, 4])
        assert _state(bwa) == before
        with pytest.raises(ValueError, match="2.5"):
            BlackWhiteArray.from_values(v for v in [1, 2, 2.5, 4])

    def test_fixed_policy_overflow_leaves_everything(self, demotion_ready_array):
        bwa = demotion_ready_array           # total 14 of 15 usable slots
        bwa.insert_many([1])
        before = _state(bwa)
        with pytest.raises(CapacityExceeded):
            bwa.insert_many([2])
        assert _state(bwa) == before
        with pytest.raises(CapacityExceeded):
            BlackWhiteArray(3, "fixed").insert_many(range(8))


class TestBoundaryCheck:
    def test_fraction_into_integer_dtype_rejected(self):
        with pytest.raises(ValueError, match="2.5"):
            BlackWhiteArray.from_values([2.5, 7])
        with pytest.raises(ValueError, match="1.5"):
            BlackWhiteArray.from_values(np.array([3.0, 1.5]))
        BlackWhiteArray.from_values([2.0, 7])  # integral floats are exact

    def test_nan_into_float_dtype_rejected(self):
        for values in ([1.0, float("nan")], np.array([np.nan, 2.0])):
            with pytest.raises(ValueError, match="NaN"):
                BlackWhiteArray.from_values(values, dtype=np.float64)
        bwa = BlackWhiteArray(4, dtype=np.float64)
        bwa.insert_many([3.5, 1.0])
        before = _state(bwa)
        with pytest.raises(ValueError):
            bwa.insert_many([0.5, float("nan")])
        assert _state(bwa) == before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_keep_their_sign(self, dtype):
        # -0.0 == 0.0, so only the bytes tell them apart: bulk blocks,
        # carries, demotions and the drain must each keep every zero's sign
        rng = random.Random(5)
        values = [rng.choice((-0.0, 0.0, -1.0, 1.0)) for _ in range(600)]
        negative = sum(np.signbit(v) and v == 0 for v in values)
        built = BlackWhiteArray.from_values(values, dtype=dtype)
        grown = BlackWhiteArray(2, dtype=dtype)
        for v in values:
            grown.insert(v)
        for bwa in (built, grown):
            stored = [v for r in range(bwa.cap_exp) if bwa.is_active(r)
                      for v in bwa.segment_slots(r) if v is not None]
            assert sum(np.signbit(v) and v == 0 for v in stored) == negative
            assert sum(np.signbit(v) and v == 0 for v in bwa) == negative
        for v in values:
            if v != 0:                      # delete(-0.0) may take a 0.0
                grown.delete(v)
        assert grown.counters.demotes       # which wrote zeros again
        assert sum(np.signbit(v) and v == 0 for v in grown) == negative

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_nan_into_integer_dtype_named(self, dtype):
        bwa = BlackWhiteArray(4, dtype=dtype)
        want = f"nan is not exactly representable in {np.dtype(dtype)}"
        for insert in (bwa.insert, lambda v: bwa.insert_many([1, v])):
            with pytest.raises(ValueError) as error:
                insert(float("nan"))
            assert str(error.value) == want
        assert bwa.total == 0 and bwa.validate() == []

    def test_integer_outside_dtype_overflows(self, eight_value_array):
        before = _state(eight_value_array)
        for values in ([1, 2 ** 63], [-(2 ** 63) - 1],
                       np.array([2 ** 63], dtype=np.uint64)):
            with pytest.raises(OverflowError):
                eight_value_array.insert_many(values)
        assert _state(eight_value_array) == before
        bwa = BlackWhiteArray(4, dtype=np.uint64)
        bwa.insert_many([2 ** 64 - 1, 0])
        assert list(bwa) == [0, 2 ** 64 - 1]

    def test_integer_a_float_dtype_would_round_rejected(self):
        with pytest.raises(ValueError):
            BlackWhiteArray.from_values([2 ** 53 + 1], dtype=np.float64)
        assert list(BlackWhiteArray.from_values([2 ** 53], dtype=np.float64)) \
            == [2.0 ** 53]

    @pytest.mark.parametrize("dtype, value, error", [
        (np.int64, 2 ** 70, OverflowError), (np.int64, -(2 ** 70), OverflowError),
        (np.int64, float("nan"), ValueError), (np.uint64, -1, OverflowError),
        (np.int64, 2.5, ValueError), (np.float32, 0.1, ValueError),
        (np.float64, float("nan"), ValueError)])
    def test_failed_scalar_insert_does_not_grow(self, dtype, value, error):
        bwa = BlackWhiteArray(2, dtype=dtype)
        for v in (5, 1, 3):                     # every usable slot in use
            bwa.insert(v)
        before = _state(bwa)
        with pytest.raises(error):
            bwa.insert(value)
        assert _state(bwa) == before and bwa.cap_exp == 2
        bwa.insert(4)                           # grows as usual afterwards
        assert bwa.cap_exp == 3 and list(bwa) == [1, 3, 4, 5]

    @pytest.mark.parametrize("dtype, value, error", [
        (np.int64, 2.5, ValueError), (np.int64, np.float64(-1.5), ValueError),
        (np.int64, 2 ** 63, OverflowError), (np.uint64, -1, OverflowError),
        (np.float32, 0.1, ValueError), (np.float32, np.float64(0.1), ValueError),
        (np.float32, 2 ** 24 + 1, ValueError), (np.float64, 2 ** 53 + 1, ValueError),
        (np.float64, float("nan"), ValueError), (bool, 2, ValueError),
        (np.int64, float("nan"), ValueError), (np.uint64, float("nan"), ValueError),
        # beyond what numpy converts: named like any other value lost
        (np.int64, 10 ** 30, OverflowError), (np.int64, -(10 ** 30), OverflowError),
        (np.float32, 10 ** 400, ValueError), (np.float64, 10 ** 400, ValueError)])
    @pytest.mark.parametrize("n", [2, 3])      # rank 0 free, or a carry chain
    def test_inexact_scalar_insert_rejected(self, dtype, value, error, n):
        bwa = BlackWhiteArray(3, dtype=dtype)
        for v in (1, 0, 1)[:n]:
            bwa.insert(v)
        c = bwa.counters

        def state():
            # the raw slots of every active rank, void values included, and
            # the whole mask: a rejection may change only the free slot of
            # an inactive rank that the value was staged in
            active = [r for r in range(bwa.cap_exp) if bwa.is_active(r)]
            return (bwa.total, bwa.occupancy, bwa.dump(), list(bwa),
                    [bwa._white[1 << r:2 << r].tolist() for r in active],
                    bytes(bwa._mask),
                    (c.comparisons, c.moves, c.merges, c.demotes, c.grows))
        before = state()
        with pytest.raises(error) as scalar:
            bwa.insert(value)
        with pytest.raises(error) as batch:
            bwa.insert_many([value])
        assert str(scalar.value) == str(batch.value)
        assert state() == before
        assert bwa.validate() == [] and bwa.search(value) is None
        bwa.insert(1)
        assert list(bwa) == sorted((1, 0, 1)[:n] + (1,))

    @pytest.mark.parametrize("dtype, value", [
        (np.float64, np.int64(2 ** 53 + 1)), (np.float64, np.int64(-(2 ** 53) - 1)),
        (np.float64, np.uint64(2 ** 64 - 1)), (np.float32, np.int32(2 ** 24 + 1)),
        (np.float32, np.int64(2 ** 24 + 1))])
    @pytest.mark.parametrize("n", [2, 3, 7])   # rank 0 free, a carry, a grow
    def test_numpy_integer_a_float_dtype_would_round_rejected(self, dtype, value, n):
        bwa = BlackWhiteArray(3, dtype=dtype)
        for v in range(n):
            bwa.insert(v)
        c = bwa.counters

        def state():                # a failed scalar insert may leave
            return (bwa.cap_exp, bwa.total, bwa.occupancy, bwa.dump(),
                    list(bwa),      # its free staging slot written
                    (c.comparisons, c.moves, c.merges, c.demotes, c.grows))

        before = state()
        for insert in (bwa.insert, lambda v: bwa.insert_many([v]),
                       lambda v: bwa.insert_many(np.array([v]))):
            with pytest.raises(ValueError):
                insert(value)
            assert state() == before
        exact = type(value)(2 ** 24 if dtype == np.float32 else 2 ** 53)
        bwa.insert(exact)
        bwa.insert_many([exact])
        assert list(bwa) == list(range(n)) + [int(exact)] * 2
        assert bwa.search(int(exact)) is not None and bwa.validate() == []

    @pytest.mark.parametrize("dtype, value", [
        (np.float32, 1e39), (np.float32, -1e39), (np.float32, np.float64(1e39)),
        (np.uint64, np.float64(1e39))])
    @pytest.mark.parametrize("n", [2, 3, 7])   # rank 0 free, a carry, a grow
    def test_value_beyond_dtype_range_raises_without_warning(self, dtype, value, n):
        bwa = BlackWhiteArray(3, dtype=dtype)
        for v in range(n):
            bwa.insert(v)
        before = (bwa.cap_exp, bwa.total, bwa.dump(), list(bwa))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for insert in (bwa.insert, lambda v: bwa.insert_many([1.0, v])):
                with pytest.raises(ValueError):
                    insert(value)
                assert bwa.validate() == []
                assert (bwa.cap_exp, bwa.total, bwa.dump(), list(bwa)) == before

    @pytest.mark.parametrize("value", [7.0, np.float64(8.0)])
    @pytest.mark.parametrize("n", [2, 3])      # rank 0 free, or a carry chain
    def test_integral_float_scalar_into_integer_dtype(self, value, n):
        bwa = BlackWhiteArray(3)
        for v in range(n):
            bwa.insert(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bwa.insert(value)
        assert list(bwa) == sorted(list(range(n)) + [int(value)])
        assert bwa.validate() == []

    def test_batch_must_be_one_dimensional(self):
        with pytest.raises(ValueError):
            BlackWhiteArray(4).insert_many(np.zeros((2, 2), dtype=np.int64))
        # the shape is named before any value is converted or looked at
        bwa = BlackWhiteArray(4)
        bwa.insert_many([3, 1])
        before = _state(bwa)
        for batch in ([[1, 2]], [[1, 10 ** 30]], [[1, float("nan")]],
                      [[1.5], [2]]):
            with pytest.raises(ValueError) as error:
                bwa.insert_many(batch)
            assert str(error.value) == "values must form a 1-D batch, not 2-D"
        for batch in ([[1, 2], [3]], [[1], 2], [1, (2, 3)], [1, np.array([2])],
                      [[1, 10 ** 30], [3]]):
            with pytest.raises(ValueError) as error:
                bwa.insert_many(batch)
            assert str(error.value) == (
                "values must form a 1-D batch, not a ragged one")
        assert _state(bwa) == before


def _segments(bwa):
    """(rank, occupied slots) of every active rank, top rank first."""
    return [(r, bwa.occupancy[r]) for r in range(bwa.cap_exp - 1, -1, -1)
            if bwa.is_active(r)]


class TestCompact:
    @pytest.mark.parametrize("n, cap_exp, layout", [
        (774_087, 20, [(19, 1 << 19), (18, 249_799)]),
        (380_871, 19, [(18, 1 << 18), (17, 118_727)]),
        (53_191, 16, [(15, 1 << 15), (14, 1 << 14), (12, 4039)]),
        (7, 3, [(2, 4), (1, 2), (0, 1)]),
        (5, 3, [(2, 4), (0, 1)]),
        (1000, 20, [(10, 1000)]),
        (0, 4, [])])
    def test_layout_examples(self, n, cap_exp, layout):
        assert core._layout(n, cap_exp) == layout

    def test_layout_rule(self):
        # each rank full but the last, which is more than half full, and
        # never more segments than the sequential state's set bits
        for cap_exp in range(1, 11):
            for n in range(1, 1 << cap_exp):
                layout = core._layout(n, cap_exp)
                ranks = [r for r, _ in layout]
                assert ranks == sorted(set(ranks), reverse=True)
                assert ranks[0] < cap_exp
                assert all(k == 1 << r for r, k in layout[:-1])
                r, k = layout[-1]
                assert (1 << r) // 2 < k <= 1 << r
                assert sum(k for _, k in layout) == n
                assert len(layout) <= bin(n).count("1")

    def test_layout_after_deletes_that_left_voids(self):
        values = random.Random(7).sample(range(10 ** 6), 3000)
        bwa = BlackWhiteArray(12)
        bwa.insert_many(values)
        for v in values[::10]:
            bwa.delete(v)
        survivors = sorted(set(values) - set(values[::10]))
        assert len(_segments(bwa)) > 2 and bwa.total > len(bwa)
        bwa.compact()
        assert _segments(bwa) == core._layout(2700, 12) == [(11, 2048),
                                                             (10, 652)]
        assert bwa.total == 2048 + 1024 and bwa.cap_exp == 12
        assert list(bwa) == survivors
        assert bwa.validate() == []

    def test_charges_one_merge_and_every_slot_per_rank(self):
        bwa = BlackWhiteArray(10)
        bwa.insert_many(range(700, 0, -1))
        for v in range(1, 700, 7):
            bwa.delete(v)
        before = dict(vars(bwa.counters))
        bwa.compact()
        layout = core._layout(len(bwa), 10)
        assert len(layout) == 2
        assert vars(bwa.counters) == before | {
            "merges": before["merges"] + len(layout),
            "moves": before["moves"] + sum(1 << r for r, _ in layout)}

    def test_failed_sort_leaves_state_and_counters(self, monkeypatch):
        # the second rank's sort fails after the first rank is written and
        # charged in the fresh structure; nothing of it is adopted
        bwa = Narrow(10)
        bwa.insert_many(random.Random(3).sample(range(5000), 600))
        for v in list(bwa)[::9]:
            bwa.delete(v)
        assert len(core._layout(len(bwa), 10)) == 2
        before = (_state(bwa), copy.deepcopy(bwa._links))
        sort, calls = BlackWhiteArray._sort, []

        def failing(self, seg, runs):
            calls.append(seg.size)
            if len(calls) == 2:
                raise MemoryError("sort failed")
            sort(self, seg, runs)

        with monkeypatch.context() as patch:
            patch.setattr(BlackWhiteArray, "_sort", failing)
            with pytest.raises(MemoryError):
                bwa.compact()
        assert (_state(bwa), bwa._links) == before
        assert bwa.validate() == []
        bwa.compact()
        assert _segments(bwa) == core._layout(len(bwa), 10)
        assert bwa.validate() == []

    def test_empty_structure(self):
        bwa = BlackWhiteArray(5)
        bwa.compact()
        assert (bwa.total, bwa.cap_exp, len(bwa)) == (0, 5, 0)
        bwa.insert_many([4, 2, 9])
        for v in (2, 4, 9):
            bwa.delete(v)
        before = dict(vars(bwa.counters))
        bwa.compact()
        assert (bwa.total, bwa.cap_exp, list(bwa)) == (0, 5, [])
        assert vars(bwa.counters) == before
        assert bwa.validate() == []
        bwa.insert(3)
        assert list(bwa) == [3]

    def test_fixed_policy_keeps_its_capacity(self):
        bwa = BlackWhiteArray(6, "fixed")
        bwa.insert_many(range(63))
        for v in range(0, 63, 5):
            bwa.delete(v)
        bwa.compact()
        assert bwa.cap_exp == 6 and bwa.policy is GrowthPolicy.FIXED
        assert _segments(bwa) == core._layout(50, 6) == [(5, 32), (4, 16),
                                                         (1, 2)]
        assert bwa.validate() == []
        added = 0
        with pytest.raises(CapacityExceeded):
            while True:
                bwa.insert(100 + added)
                added += 1
        assert bwa.total == 63 and bwa.cap_exp == 6
        assert list(bwa) == [v for v in range(63) if v % 5] + \
            list(range(100, 100 + added))
        assert bwa.validate() == []

    def test_grown_capacity_is_kept(self):
        bwa = BlackWhiteArray.from_values(range(1000))
        for v in range(10, 1000):
            bwa.delete(v)
        bwa.compact()
        assert bwa.cap_exp == 10 and _segments(bwa) == [(4, 10)]
        assert list(bwa) == list(range(10)) and bwa.validate() == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zeros_keep_their_sign(self, dtype):
        rng = random.Random(9)
        values = [rng.choice((-0.0, 0.0, -1.0, 1.0, 2.5)) for _ in range(700)]
        bwa = BlackWhiteArray(10, dtype=dtype)
        bwa.insert_many(values)
        for v in (-1.0, 1.0, 2.5) * 40:
            bwa.delete(v)

        def negative_zeros():
            return sum(np.signbit(v) and v == 0 for v in bwa)

        negative = negative_zeros()
        assert 0 < negative < sum(v == 0 for v in values)
        bwa.compact()
        assert negative_zeros() == negative
        assert bwa.validate() == []
