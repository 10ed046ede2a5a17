import random

import pytest

from bwa import BlackWhiteArray, ReferenceModel

from conftest import EIGHT, PRELUDE_DELETES, PRELUDE_INSERTS


def _scan_index(bwa, rank, value):
    """Independent position oracle: linear scan of one segment's slots."""
    start, _ = bwa.seg_bounds(rank)
    for offset, slot in enumerate(bwa.segment_slots(rank)):
        if slot == value:
            return start + offset
    return None


class TestSearch:
    def test_hit_returns_slot_index(self, eight_value_array):
        expected = _scan_index(eight_value_array, 3, 67)
        assert expected == 13
        assert eight_value_array.search(67) == expected

    def test_every_stored_value_found(self, eight_value_array):
        for v in EIGHT:
            idx = eight_value_array.search(v)
            assert idx is not None
            assert eight_value_array._white[idx] == v

    def test_miss_returns_none(self, eight_value_array):
        assert eight_value_array.search(50) is None

    def test_empty_structure_misses(self):
        assert BlackWhiteArray(4).search(7) is None

    def test_search_does_not_mutate(self, eight_value_array):
        before = (eight_value_array.total, list(eight_value_array))
        eight_value_array.search(50)
        eight_value_array.search(67)
        assert (eight_value_array.total, list(eight_value_array)) == before

    def test_search_with_interior_voids(self, demotion_ready_array):
        # voids sit in the probe path of the top segment
        assert demotion_ready_array.search(59) == 12
        assert demotion_ready_array.search(10) is None
        assert demotion_ready_array.search(91) == 7  # rank-2 segment top
        for absent in (7, 60, 100):
            assert demotion_ready_array.search(absent) is None
        # after the demotion the top segment's void tail pads with 91; once
        # 91 itself is deleted a search for it finds only voids
        demotion_ready_array.delete(59)
        assert demotion_ready_array.delete(91) == 14
        assert demotion_ready_array._white[14:16].tolist() == [91, 91]
        assert demotion_ready_array.search(91) is None

    def test_highest_rank_searched_first(self):
        bwa = BlackWhiteArray(4, "fixed")
        for v in (9, 9, 9):
            bwa.insert(v)
        idx = bwa.search(9)
        assert bwa.rank_of(idx) == 1  # duplicate in the higher segment wins


class TestDelete:
    def test_demotion_walkthrough(self, demotion_ready_array):
        bwa = demotion_ready_array
        assert bwa.total == 14
        assert bwa.segment_slots(3) == [6, None, None, 52, 59, 67, None, 83]
        assert bwa.segment_slots(2) == [21, 77, None, 91]
        assert bwa.segment_slots(1) == [45, 82]

        demotes, merges = bwa.counters.demotes, bwa.counters.merges
        assert bwa.delete(59) == 12
        assert bwa.total == 10
        assert bwa.segment_slots(3) == [6, 21, 52, 67, 77, 83, 91, None]
        assert not bwa.is_active(2)
        assert bwa.segment_slots(1) == [45, 82]
        assert bwa.counters.demotes - demotes == 1
        assert bwa.counters.merges - merges == 1
        assert bwa.validate() == []

    def test_delete_sole_value_deactivates(self):
        bwa = BlackWhiteArray(4, "fixed")
        bwa.insert(42)
        assert bwa.delete(42) == 1
        assert bwa.total == 0
        assert list(bwa) == []

    def test_miss_leaves_structure_unchanged(self, eight_value_array):
        before = (eight_value_array.total, eight_value_array.occupancy,
                  list(eight_value_array))
        assert eight_value_array.delete(50) is None
        after = (eight_value_array.total, eight_value_array.occupancy,
                 list(eight_value_array))
        assert before == after

    def test_demotion_into_inactive_rank(self):
        # two values at rank 1; deleting one moves the survivor down
        bwa = BlackWhiteArray(4, "fixed")
        bwa.insert(9)
        bwa.insert(5)
        assert bwa.total == 2
        assert bwa.delete(5) is not None
        assert bwa.total == 1
        assert bwa.is_active(0) and not bwa.is_active(1)
        assert bwa.segment_slots(0) == [9]
        assert bwa.stats().occupancy[0] == 1.0

    def test_demotion_into_active_rank_merges_back(self):
        # ranks 1 and 0 both active; deleting from rank 1 writes its
        # survivor straight back into rank 1 together with rank 0
        bwa = BlackWhiteArray(4, "fixed")
        for v in (9, 5, 7):
            bwa.insert(v)
        assert bwa.delete(5) is not None
        assert bwa.total == 2
        assert bwa.is_active(1) and not bwa.is_active(0)
        assert bwa.segment_slots(1) == [7, 9]

    def test_delete_one_occurrence_of_duplicates(self):
        bwa = BlackWhiteArray(4, "fixed")
        for v in (6, 6, 6, 2):
            bwa.insert(v)
        assert bwa.delete(6) == 5
        assert list(bwa) == [2, 6, 6]
        # the first slot holding 6 is now void; the next occupied one is found
        assert bwa.search(6) == 6
        assert bwa.delete(6) == 6
        assert list(bwa) == [2, 6]

    def test_only_one_demotion_per_delete(self):
        bwa = BlackWhiteArray(8, "grow")
        rng = random.Random(9)
        live = []
        for _ in range(2000):
            if live and rng.random() < 0.5:
                v = live.pop(rng.randrange(len(live)))
                d0, m0 = bwa.counters.demotes, bwa.counters.merges
                assert bwa.delete(v) is not None
                assert bwa.counters.demotes - d0 <= 1
                assert bwa.counters.merges - m0 <= 1
            else:
                v = rng.randrange(5000)
                bwa.insert(v)
                live.append(v)

    def test_interleaved_against_reference_model(self):
        rng = random.Random(21)
        bwa = BlackWhiteArray(8, "grow")
        model = ReferenceModel()
        for _ in range(10_000):
            v = rng.randrange(600)  # small range forces duplicates and hits
            if rng.random() < 0.5:
                bwa.insert(v)
                model.insert(v)
            else:
                assert (bwa.delete(v) is not None) == model.delete(v)
        assert list(bwa) == model.values


class TestOccupancyAfterDemotion:
    def test_inactive_target_reaches_full(self):
        bwa = BlackWhiteArray(5, "fixed")
        for v in range(16):
            bwa.insert(v)          # one full rank-4 segment
        for v in range(8):
            bwa.delete(v)          # eighth delete hits the one-half trigger
        assert bwa.counters.demotes == 1
        assert bwa.is_active(3) and not bwa.is_active(4)
        assert bwa.stats().occupancy[3] == 1.0
        assert bwa.validate() == []

    def test_active_target_ends_above_three_quarters(self, demotion_ready_array):
        bwa = demotion_ready_array
        bwa.delete(59)
        assert bwa.stats().occupancy[3] > 0.75
