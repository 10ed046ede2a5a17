import copy
import random

import numpy as np
import pytest
from sortedcontainers import SortedList

from bwa import BlackWhiteArray

from conftest import EIGHT, Narrow
from test_stateful import spec_interval_charge


def _after_demotion(demotion_ready_array):
    demotion_ready_array.delete(59)
    return demotion_ready_array


class TestExtremes:
    def test_eight_value_state(self, eight_value_array):
        values = sorted(EIGHT)
        assert eight_value_array.maximum() == values[-1] == 83
        assert eight_value_array.minimum() == values[0] == 21

    def test_empty(self):
        bwa = BlackWhiteArray(4)
        for query in (bwa.maximum, bwa.minimum, bwa.extract_min,
                      bwa.extract_max):
            assert query() is None
            assert set(vars(bwa.counters).values()) == {0}

    def test_void_at_segment_top_skipped(self, demotion_ready_array):
        bwa = _after_demotion(demotion_ready_array)
        # top slot of the rank-3 segment is void; 91 beats 82 from rank 1
        assert bwa.segment_slots(3)[-1] is None
        assert bwa.maximum() == 91
        assert bwa.minimum() == 6
        # two void top slots, both padded with 91
        bwa.delete(91)
        assert bwa.maximum() == bwa.upper_bound(100) == 83
        assert bwa.extract_max() == 83
        assert bwa.maximum() == 82

    def test_full_segment_extremes_sit_at_segment_ends(self):
        rng = random.Random(3)
        values = [rng.randrange(10 ** 6) for _ in range(64)]
        bwa = BlackWhiteArray.from_values(values)
        slots = bwa.segment_slots(6)
        assert slots[0] == min(values) == bwa.minimum()
        assert slots[-1] == max(values) == bwa.maximum()


class TestExtract:
    def test_extract_min_voids_bottom_slot(self, eight_value_array):
        assert eight_value_array.extract_min() == 21
        assert eight_value_array.segment_slots(3)[0] is None
        assert eight_value_array.occupancy[3] == 7
        assert eight_value_array.validate() == []
        # a void prefix of two slots
        assert eight_value_array.extract_min() == 33
        assert eight_value_array.minimum() == 45
        assert eight_value_array.lower_bound(0) == 45
        assert eight_value_array.lower_bound(21) == 45

    def test_empty_extract_is_noop(self):
        bwa = BlackWhiteArray(4)
        assert bwa.extract_min() is None
        assert bwa.extract_max() is None
        assert bwa.total == 0

    def test_k_smallest_ascending(self):
        rng = random.Random(17)
        values = [rng.randrange(5000) for _ in range(500)]
        bwa = BlackWhiteArray(10, "fixed")
        for v in values:
            bwa.insert(v)
        k = 40
        assert [bwa.extract_min() for _ in range(k)] == sorted(values)[:k]
        assert bwa.validate() == []

    @pytest.mark.parametrize("cls", [BlackWhiteArray, Narrow])
    @pytest.mark.parametrize("largest", [True, False],
                             ids=["descending", "ascending"])
    def test_k_largest_descending(self, cls, largest):
        rng = random.Random(18)
        values = [rng.randrange(5000) for _ in range(300)]
        bwa = cls(9, "fixed")
        for v in values:
            bwa.insert(v)
        ordered = sorted(values)
        s, t = bwa.seg_bounds(8)
        k = 100  # leaves a void run of more than 64 slots at one end of rank 8
        if largest:
            assert [bwa.extract_max() for _ in range(k)] == ordered[-k:][::-1]
            rest = ordered[:-k]
            assert bwa.maximum() == bwa.upper_bound(10 ** 6) == rest[-1]
            assert not bwa._wmask[t - 64:t + 1].any()
        else:                               # the mirror: a void prefix
            assert [bwa.extract_min() for _ in range(k)] == ordered[:k]
            rest = ordered[k:]
            assert bwa.minimum() == bwa.lower_bound(-1) == rest[0]
            assert not bwa._wmask[s:s + 65].any()
            assert bwa.extract_max() == rest.pop()
        # the search lands on a void run that reaches the segment's end
        assert bwa._white[t] == ordered[-1] and not bwa._wmask[t]
        assert bwa.search(ordered[-1]) is None
        assert list(bwa) == rest
        assert bwa.validate() == []


def _zero_signs(bwa):
    """Signs of the zeros in the occupied slots, highest rank first: True
    for -0.0."""
    return [bool(np.signbit(x)) for r in range(bwa.cap_exp - 1, -1, -1)
            if bwa.is_active(r) for x in bwa.segment_slots(r) if x == 0]


class TestSignedZeroTies:
    """-0.0 == 0.0, so only the sign shows which rank a tied extreme came
    from: the lower rank's zero wins, and an extract voids that slot."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("low", [-0.0, 0.0], ids=["low-neg", "low-pos"])
    @pytest.mark.parametrize("ranks", [(1, 0), (2, 1)],
                             ids=["ranks-1-0", "ranks-2-1"])
    def test_lower_rank_zero_wins(self, dtype, low, ranks):
        high = -low
        top, bottom = ranks
        bwa = BlackWhiteArray(4, dtype=dtype)
        bwa.insert_many([high] * (1 << top))
        bwa.insert_many([low] * (1 << bottom))
        neg = bool(np.signbit(low))
        signs = [not neg] * (1 << top) + [neg] * (1 << bottom)
        assert [r for r in range(4) if bwa.is_active(r)] == [bottom, top]
        assert _zero_signs(bwa) == signs
        for peek in (bwa.minimum, bwa.maximum):
            x = peek()
            assert x == 0 and np.signbit(x) == neg
        for extract in ("extract_min", "extract_max"):
            twin = copy.deepcopy(bwa)
            x = getattr(twin, extract)()
            assert x == 0 and np.signbit(x) == neg
            assert sorted(_zero_signs(twin)) == sorted(signs[:-1])
            assert twin.validate() == []


class TestBounds:
    def test_strictly_above(self, eight_value_array):
        oracle = min(v for v in EIGHT if v > 60)
        assert oracle == 67
        assert eight_value_array.lower_bound(60) == oracle

    def test_strictly_below_absent(self, eight_value_array):
        assert eight_value_array.upper_bound(21) is None  # 21 is the minimum

    def test_empty(self):
        bwa = BlackWhiteArray(4)
        assert bwa.lower_bound(5) is None
        assert bwa.upper_bound(5) is None

    def test_bounds_exclude_equal_values(self, eight_value_array):
        assert eight_value_array.lower_bound(67) == 76
        assert eight_value_array.upper_bound(67) == 59

    def test_against_linear_oracle_across_segments(self):
        rng = random.Random(8)
        values = [rng.randrange(300) for _ in range(77)]  # three active ranks
        bwa = BlackWhiteArray(8, "fixed")
        for v in values:
            bwa.insert(v)
        for probe in range(-5, 305, 7):
            above = [v for v in values if v > probe]
            below = [v for v in values if v < probe]
            assert bwa.lower_bound(probe) == (min(above) if above else None)
            assert bwa.upper_bound(probe) == (max(below) if below else None)


class TestInterval:
    def test_eight_value_window(self, eight_value_array):
        oracle = sorted(v for v in EIGHT if 30 <= v <= 60)
        assert oracle == [33, 45, 52, 59]
        assert eight_value_array.interval(30, 60) == oracle

    def test_empty_structure(self):
        assert BlackWhiteArray(4).interval(0, 100) == []

    def test_full_range_equals_drain(self):
        rng = random.Random(2)
        values = [rng.randrange(2000) for _ in range(600)]
        bwa = BlackWhiteArray(11, "fixed")
        for v in values:
            bwa.insert(v)
        assert bwa.interval(min(values), max(values)) == list(bwa)

    def test_duplicates_kept_with_multiplicity(self):
        bwa = BlackWhiteArray(4, "fixed")
        for v in (4, 4, 4, 9):
            bwa.insert(v)
        assert bwa.interval(4, 4) == [4, 4, 4]

    def test_rejects_reversed_edges(self, eight_value_array):
        with pytest.raises(ValueError):
            eight_value_array.interval(10, 5)

    @pytest.mark.parametrize("lo, hi, charged", [
        (15, 35, 2 + 3 + 6),    # ranks 0 and 1 ruled out by one test of hi;
                                # hi bisected over the 3 slots from 20 on
        (75, 80, 1 + 2 + 3),    # every lo bisection ends past its segment
        (10, 70, 3 + 5 + 7)])   # both bisections run in every segment
    def test_comparisons_charged(self, lo, hi, charged):
        bwa = BlackWhiteArray(4, "fixed")
        for v in (10, 20, 30, 40, 50, 60, 70):  # ranks 2, 1, 0 in that order
            bwa.insert(v)
        before = bwa.counters.comparisons
        bwa.interval(lo, hi)
        assert bwa.counters.comparisons - before == charged

    @pytest.mark.parametrize("lo, hi, charged", [
        (10, 20, 6 + 1 + 5),        # hi ends in the 16 slots from 10 on
        (10, 50, 6 + 1 + 5 + 4)])   # then the 11 slots after them
    def test_hi_bisection_tries_a_window_first(self, lo, hi, charged):
        bwa = BlackWhiteArray.from_values(range(0, 64, 2))     # rank 5 only
        before = bwa.counters.comparisons
        assert bwa.interval(lo, hi) == list(range(lo, hi + 1, 2))
        assert bwa.counters.comparisons - before == charged

    @pytest.mark.parametrize("last", ["i", "b-2", "b-1", "b", "e-1", "past"])
    @pytest.mark.parametrize("voids", [False, True])
    @pytest.mark.parametrize("dtype, hi", [
        (np.int64, 0), (np.float64, 0.0), (np.float64, -0.0)])
    def test_window_edges(self, last, voids, dtype, hi):
        """One rank-5 segment with ``lo`` at slot ``i``: the range's last
        value sits at a window edge, or the range runs past the segment,
        and the window's first and last slots may be voids.  A float range
        ends on a tie of -0.0 and 0.0."""
        i, b, e = 4, 4 + BlackWhiteArray._LOOKAHEAD, 32
        p = {"i": i, "b-2": b - 2, "b-1": b - 1, "b": b,
             "e-1": e - 1, "past": e - 1}[last]
        values = [dtype(k - p).item() for k in range(e)]  # slot p holds 0
        if dtype is np.float64 and p > i:
            values[p - 1] = -0.0
        if last == "past":
            hi += e
        bwa = BlackWhiteArray.from_values(values, dtype=dtype)
        assert bwa.total == e
        lo = values[i]
        stored = SortedList()
        for k, v in enumerate(values):
            if voids and k in (i, b - 1):
                bwa._delete_at(e + k)
            else:
                stored.add(v)
        # lo over 32 slots, the test of hi, the 16-slot window, and the 12
        # slots after it when the window is all in range
        charge = 6 + 1 + 5 + (4 if p >= b - 1 else 0)
        assert spec_interval_charge(bwa, lo, hi) == charge
        before = bwa.counters.comparisons
        got = bwa.interval(lo, hi)
        assert list(map(repr, got)) == list(map(repr, stored.irange(lo, hi)))
        assert bwa.counters.comparisons - before == charge

    def test_window_with_voids(self, demotion_ready_array):
        bwa = demotion_ready_array
        present = [6, 52, 59, 67, 83, 21, 77, 91, 45, 82]
        for lo, hi in ((0, 100), (20, 60), (53, 53), (90, 99)):
            oracle = sorted(v for v in present if lo <= v <= hi)
            assert bwa.interval(lo, hi) == oracle


class TestIterSorted:
    def test_consolidated_segment(self, eight_value_array):
        assert list(eight_value_array.iter_sorted()) == sorted(EIGHT)

    def test_empty(self):
        assert list(BlackWhiteArray(4).iter_sorted()) == []

    def test_large_random_matches_standard_sort(self):
        rng = random.Random(5)
        values = [rng.randrange(1 << 20) for _ in range(1 << 14)]
        bwa = BlackWhiteArray(15, "fixed")
        for v in values:
            bwa.insert(v)
        assert list(bwa.iter_sorted()) == sorted(values)

    def test_power_of_two_totals_read_single_segment(self):
        values = [9, 1, 7, 3]
        bwa = BlackWhiteArray(3, "fixed")
        for v in values:
            bwa.insert(v)
        assert bwa.segment_slots(2) == sorted(values)
        assert list(bwa) == sorted(values)


class TestStats:
    def test_after_demotion(self, demotion_ready_array):
        st = _after_demotion(demotion_ready_array).stats()
        assert st.size == 9
        assert st.slot_count == 10
        assert st.capacity == 16
        assert st.occupancy == {1: 1.0, 3: 7 / 8}

    def test_empty(self):
        st = BlackWhiteArray(4).stats()
        assert st.size == 0 and st.slot_count == 0 and st.occupancy == {}

    def test_without_deletes_size_equals_slot_count(self):
        bwa = BlackWhiteArray(8, "fixed")
        for v in range(100):
            bwa.insert(v)
        st = bwa.stats()
        assert st.size == st.slot_count == 100
