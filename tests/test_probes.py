"""Probes whose type differs from the dtype, NaN probes, float32 values,
and the buffer views the probe path reads slots through: their copies and
their rebuild when the arrays grow."""

import copy
import pickle
import random

import numpy as np
import pytest

from bwa import BlackWhiteArray, ReferenceModel

from conftest import Narrow, Native, record_native

NAN = float("nan")


def _pair(dtype, values, deletes):
    """A structure and a reference model holding the same values."""
    bwa = BlackWhiteArray(1, dtype=dtype)
    ref = ReferenceModel()
    for v in values:
        bwa.insert(v)
        ref.insert(v)
    for v in deletes:
        assert (bwa.delete(v) is not None) == ref.delete(v)
    assert bwa.validate() == []
    return bwa, ref


def _agree(bwa, ref, probes):
    """Every probe op of ``bwa`` returns what ``ref`` returns."""
    for p in probes:
        idx = bwa.search(p)
        assert (idx is not None) == ref.contains(p), p
        if idx is not None:
            assert bwa._white[idx] == p and bwa._wmask[idx]
        assert bwa.lower_bound(p) == ref.lower_bound(p), p
        assert bwa.upper_bound(p) == ref.upper_bound(p), p
        dup, dref = copy.deepcopy(bwa), copy.deepcopy(ref)
        assert (dup.delete(p) is not None) == dref.delete(p), p
        assert list(dup) == dref.values and dup.validate() == []
    for lo in probes:
        for hi in probes:
            if not lo > hi:
                assert bwa.interval(lo, hi) == ref.interval(lo, hi), (lo, hi)


def _mixed(dtype, lo, hi):
    rng = random.Random(11)
    values = [rng.randrange(lo, hi) for _ in range(300)] + [lo, hi - 1, 40]
    deletes = rng.sample(values, 90)
    return _pair(dtype, values, [d for d in deletes if d != 40])


PROBES = [2 ** 70, -(2 ** 70), 2.5, -1.5, 40.0, 41.0, np.int32(40),
          np.int32(-7), np.float64(40.0), np.float64(39.5)]


class TestMixedTypeProbes:
    def test_int64(self):
        bwa, ref = _mixed(np.int64, -(2 ** 63), 2 ** 63)
        lo, hi = -(2 ** 63), 2 ** 63 - 1
        _agree(bwa, ref, PROBES + [lo, hi, lo - 1, hi + 1, float(hi)])

    def test_int64_small_values(self):
        bwa, ref = _mixed(np.int64, -60, 60)
        _agree(bwa, ref, PROBES)

    def test_uint64(self):
        bwa, ref = _mixed(np.uint64, 0, 2 ** 64)
        _agree(bwa, ref, PROBES + [-1, -(2 ** 40), 2 ** 64 - 1, 2 ** 64])

    def test_uint64_small_values(self):
        bwa, ref = _mixed(np.uint64, 0, 120)
        _agree(bwa, ref, PROBES + [-1, 0, -0.5])

    def test_float_equal_to_a_stored_int_hits(self):
        bwa, _ = _pair(np.int64, [40, 7, 90], [])
        assert bwa.search(40.0) is not None
        assert bwa.delete(np.float64(40.0)) is not None
        assert list(bwa) == [7, 90]


class TestNumpyScalarProbes:
    """A numpy scalar probe answers as the Python scalar it equals, where
    numpy itself would compare an integer with a float rounded."""

    BIG = 2 ** 53

    def test_integer_probe_on_float64(self):
        bwa, ref = _pair(np.float64, [float(self.BIG), 1.0], [])
        p = np.int64(self.BIG + 1)
        assert bwa.search(p) is None and p not in bwa
        assert bwa.delete(p) is None and len(bwa) == 2
        assert bwa.interval(p, p) == []
        assert bwa.upper_bound(p) == self.BIG and bwa.lower_bound(p) is None
        assert bwa.interval(np.int64(self.BIG), p) == [self.BIG]
        _agree(bwa, ref, [self.BIG + 1, self.BIG - 1, self.BIG, 1])
        for p in (np.int64(self.BIG + 1), np.uint64(self.BIG - 1),
                  np.int64(self.BIG), np.int32(1)):
            _same_as_python(bwa, p)

    def test_float_probe_on_int64(self):
        bwa, ref = _pair(np.int64, [self.BIG + 1, 7, self.BIG + 3], [7])
        p = np.float64(self.BIG)
        assert bwa.search(p) is None and bwa.delete(p) is None
        assert bwa.lower_bound(p) == self.BIG + 1
        assert bwa.upper_bound(np.float64(self.BIG + 4)) == self.BIG + 3
        assert bwa.interval(p, p) == []
        for p in (np.float64(self.BIG), np.float64(self.BIG + 4),
                  np.float32(7.0), np.float64(2.0 ** 70), np.bool_(True)):
            _same_as_python(bwa, p)

    def test_bridged_structure(self):
        # numpy probes through windowed bisections
        values = [self.BIG + 2 * k for k in range(700)] + [1.0, 3.0]
        bwa = Narrow.from_values(values, dtype=np.float64)
        assert any(bwa._links)
        for k in range(0, 1401, 7):
            _same_as_python(bwa, np.int64(self.BIG + k))
            _same_as_python(bwa, np.uint64(self.BIG + k))


def _same_as_python(bwa, p):
    """Every query answers numpy scalar ``p`` as it answers ``p.item()``."""
    q = p.item()
    assert type(q) in (int, float, bool)
    assert bwa.search(p) == bwa.search(q), p
    assert bwa.lower_bound(p) == bwa.lower_bound(q), p
    assert bwa.upper_bound(p) == bwa.upper_bound(q), p
    assert bwa.interval(p, p) == bwa.interval(q, q), p
    dup = copy.deepcopy(bwa)
    assert dup.delete(p) == bwa.delete(q) and dup.dump() == bwa.dump(), p


class TestNanProbes:
    @pytest.fixture
    def pair(self):
        return _pair(np.float64, [3.0, 1.0, 5.0, 2.0, 4.0], [])

    def test_each_query_agrees_with_the_model(self, pair):
        bwa, ref = pair
        assert bwa.search(NAN) is None and NAN not in bwa
        assert bwa.delete(NAN) is None and len(bwa) == 5
        assert bwa.lower_bound(NAN) is None is ref.lower_bound(NAN)
        assert bwa.upper_bound(NAN) is None is ref.upper_bound(NAN)
        assert bwa.interval(NAN, 3.0) == [1.0, 2.0, 3.0] == ref.interval(NAN, 3.0)
        assert bwa.interval(2.0, NAN) == [2.0, 3.0, 4.0, 5.0] \
            == ref.interval(2.0, NAN)
        assert bwa.interval(NAN, NAN) == ref.interval(NAN, NAN)
        _agree(bwa, ref, [NAN, 0.5, 3.0, 6.0])


class TestViews:
    @pytest.fixture
    def bwa(self):
        bwa, _ = _pair(np.int64, range(0, 200, 2), range(0, 60, 4))
        return bwa

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda b: pickle.loads(pickle.dumps(b))])
    def test_copy_is_independent(self, bwa, clone):
        dup = clone(bwa)
        assert dup.validate() == []
        assert dup.dump() == bwa.dump()
        assert dup._white.tolist() == bwa._white.tolist()
        assert dup._wmask.tolist() == bwa._wmask.tolist()
        assert dup.occupancy == bwa.occupancy and dup.total == bwa.total
        before = bwa.dump()
        assert dup.delete(100) is not None and dup.search(100) is None
        dup.insert(101)
        assert dup.search(101) is not None and dup.lower_bound(100) == 101
        assert bwa.dump() == before and bwa.validate() == []
        assert bwa.search(100) is not None and bwa.search(101) is None
        assert bwa.lower_bound(100) == 102

    def test_probes_see_the_grown_arrays(self):
        bwa = BlackWhiteArray(2)
        for v in (30, 10, 20):
            bwa.insert(v)
        bwa.insert(40)                          # grows; all four in rank 2
        assert bwa.cap_exp == 3 and bwa.occupancy == (0, 0, 4)
        bwa.insert(25)                          # rank 0 slot of the new arrays
        bwa.insert(35)                          # staged in slot 2 of the new arrays
        assert list(bwa) == [10, 20, 25, 30, 35, 40] and bwa.validate() == []
        assert bwa.delete(25) is not None and bwa.delete(35) is not None
        for v in (10, 20, 30, 40):
            assert bwa.search(v) in range(4, 8)
        assert bwa.lower_bound(20) == 30 and bwa.upper_bound(20) == 10
        assert bwa.interval(15, 35) == [20, 30]
        bwa.insert_many(range(50, 80))          # grows twice in one step
        assert bwa.cap_exp == 6 and bwa.occupancy[5] > 0
        assert bwa.search(79) is not None and bwa.upper_bound(1000) == 79
        assert bwa.maximum() == 79 and bwa.extract_max() == 79


class TestFloat32:
    """A float32 structure holds only float32 values, and probes compare
    exactly against them: ``0.1`` is not one, ``float(np.float32(0.1))`` is."""

    F = float(np.float32(0.1))

    @pytest.fixture
    def pair(self):
        return _pair(np.float32, [0.5, 0.25, self.F, 3.0, self.F, 2.0 ** 24], [0.5])

    def test_inexact_value_is_not_inserted(self, pair):
        bwa, ref = pair
        for v in (0.1, np.float64(0.1), 2 ** 24 + 1, 0.3):
            with pytest.raises(ValueError, match="not exactly representable"):
                bwa.insert(v)
        assert list(bwa) == ref.values and bwa.validate() == []
        bwa.insert(np.float32(0.1))             # a float32 scalar is exact
        ref.insert(self.F)
        assert list(bwa) == ref.values

    def test_probes_agree_with_the_model(self, pair):
        bwa, ref = pair
        assert bwa.search(0.1) is None and 0.1 not in bwa
        assert bwa.delete(0.1) is None and len(bwa) == 5
        assert bwa.lower_bound(0.1) == self.F == ref.lower_bound(0.1)
        assert bwa.search(self.F) is not None and np.float32(0.1) in bwa
        _agree(bwa, ref, [0.1, self.F, np.float32(0.1), 0.25, 0.3, 3.0,
                          2 ** 24, 2 ** 24 + 1, NAN])
        assert bwa.delete(np.float32(0.1)) is not None
        assert bwa.delete(self.F) is not None and bwa.delete(self.F) is None
        assert list(bwa) == [0.25, 3.0, 2.0 ** 24] and bwa.validate() == []


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64,
              np.uint8, np.uint16, np.uint32, np.uint64]


def _native_twins(dtype):
    """``Native`` and ``Narrow`` after one history of inserts and deletes
    over values spread across the dtype's range, its ends included."""
    info = np.iinfo(dtype)
    rng = random.Random(29)
    pool = [info.min, info.min + 1, info.max - 1, info.max, 40, 41] + [
        rng.randint(info.min, info.max) for _ in range(30)]
    values = [rng.choice(pool) for _ in range(400)]
    twins = []
    for cls in (Native, Narrow):
        bwa = cls(1, dtype=dtype)
        for v in values:
            bwa.insert(v)
        for v in values[::4]:
            bwa.delete(v)
        assert bwa.validate() == []
        twins.append(bwa)
    return twins, pool


def _answers(bwa, p):
    """Every query's answer for probe ``p``, and the slot a delete of it
    returns on a copy."""
    return (bwa.search(p), bwa.lower_bound(p), bwa.upper_bound(p),
            bwa.interval(p, p), bwa.interval(p, p + 1000),
            copy.deepcopy(bwa).delete(p))


class TestNativeStep:
    """numpy's search of the top segment (``_NATIVE`` slots or more, int64,
    an int probe int64 holds) returns the slots the bisection returns, with
    the same charges: ``Native`` answers every probe as ``Narrow``, whose
    bridges it shares, and counts the same.  Every other integer dtype is
    bisected: numpy would search it in the common dtype of the slots and
    an int probe's int64, converting the segment (float64 on uint64)."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", INT_DTYPES, ids=lambda d: d.__name__)
    def test_mixed_probes_as_the_bisection(self, dtype):
        (native, narrow), pool = _native_twins(dtype)
        searched = []
        record_native(native, searched)
        info = np.iinfo(dtype)
        probes = pool + [p + d for p in pool for d in (-1, 1)] + [
            float(p) for p in pool] + [
            2 ** 70, -(2 ** 70), -1, 2.5, -1.5, 40.0, 41.0,
            np.int64(40), np.int32(-7), np.uint64(41), np.float64(40.0),
            True, False, np.bool_(True)]
        for p in probes:
            assert _answers(native, p) == _answers(narrow, p), p
        assert vars(native.counters) == vars(narrow.counters)
        if dtype is np.int64:                 # the native step ran
            assert native._views and searched
        else:
            assert native._views == {}
        for bwa in (native, narrow):
            assert bwa.validate() == []

    def test_an_int_probe_is_compared_exactly(self):
        # a float64 cast would read 2**53 + 1 as 2**53
        big = 2 ** 53
        bwa = Native.from_values([big + 1 + 2 * k for k in range(8)])
        searched = []
        record_native(bwa, searched)
        assert bwa.lower_bound(2.0 ** 53) == big + 1
        assert bwa.upper_bound(2.0 ** 53 + 2) == big + 1
        assert bwa.search(float(big)) is None and searched == []
        assert bwa.lower_bound(big) == big + 1
        assert bwa.upper_bound(big + 2) == big + 1
        assert bwa.lower_bound(big + 3) == big + 5     # a stored probe: the
        assert bwa.upper_bound(big + 3) == big + 1     # side decides
        assert bwa.search(big + 1) == 8 and searched == [3] * 5

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64])
    def test_other_dtypes_are_bisected(self, dtype):
        # numpy would compare the int probe 2**53 + 1 with 2.0**53 rounded
        big = 2 ** 53
        bwa = Native.from_values([big + 2 * k for k in range(8)], dtype=dtype)
        assert bwa._views == {}
        assert bwa.upper_bound(big + 1) == big
        assert bwa.lower_bound(big - 1) == big
        assert bwa.search(big + 1) is None

    def test_which_steps_are_numpys(self):
        searched = []
        small = Native.from_values(range(4))        # rank 2: 4 slots
        record_native(small, searched)
        small.search(2)
        assert searched == []
        least = Native.from_values(range(8))        # rank 3: _NATIVE slots
        record_native(least, searched)
        assert least.search(2) == 10 and least.lower_bound(2) == 3
        assert least.upper_bound(2) == 1 and least.interval(2, 3) == [2, 3]
        assert searched == [3] * 4
        searched.clear()
        bwa = Native.from_values(range(24))         # ranks 4 and 3
        assert bwa._links[3] is not None            # rank 3 is bridged
        record_native(bwa, searched)
        for p in (20, 3, np.int64(5)):              # the top alone
            bwa.search(p)
            bwa.lower_bound(p)
            bwa.upper_bound(p)
            bwa.interval(p, 30)
        assert searched == [4] * 12
        searched.clear()
        for p in (2.0, 2.5, 2 ** 70, -(2 ** 63) - 1, True):
            bwa.search(p)
            bwa.lower_bound(p)
            bwa.interval(p, 2 ** 70)
        assert searched == []


class TestNativeViews:
    """The views numpy searches cover the ranks of ``_NATIVE`` slots or
    more, over the current slots after every path that replaces them;
    ``validate()`` reports a view left over the old ones."""

    @staticmethod
    def _stale(bwa, old):
        bwa._views = old
        return bwa.validate()

    @pytest.mark.parametrize("path", ["grow", "compact", "pickle", "deepcopy"])
    def test_views_follow_the_slots(self, path):
        bwa = Native.from_values(range(40))
        assert sorted(bwa._views) == [3, 4, 5]
        old = bwa._views
        if path == "grow":
            bwa.insert_many(range(40, 100))
            assert bwa.counters.grows == 1
        elif path == "compact":
            for v in range(0, 40, 3):
                bwa.delete(v)
            bwa.compact()
        else:
            bwa = (pickle.loads(pickle.dumps(bwa)) if path == "pickle"
                   else copy.deepcopy(bwa))
        assert bwa.validate() == []
        assert sorted(bwa._views) == list(range(3, bwa.cap_exp))
        for r, view in bwa._views.items():
            assert np.shares_memory(view, bwa._white)
            assert view.size == 1 << r and view.base is not None
        problems = self._stale(bwa, old)
        stale = [f"rank {r}: segment view stale (not over the current slots)"
                 for r in old]
        if path == "grow":
            assert problems == [
                "segment views of ranks [3, 4, 5], not [3, 4, 5, 6]"] + stale
        else:
            assert problems == stale

    @pytest.mark.parametrize("off", [slice(17, 33), slice(16, 48, 2)],
                             ids=["one-slot-on", "every-other-slot"])
    def test_a_view_off_the_slots_is_stale(self, off):
        bwa = Native.from_values(range(40))
        bwa._views[4] = bwa._white[off]
        assert bwa.validate() == [
            "rank 4: segment view stale (not over the current slots)"]

    def test_the_class_builds_them_from_2_19_slots(self):
        assert BlackWhiteArray._NATIVE == 1 << 19
        assert BlackWhiteArray(19)._views == {}
        assert sorted(BlackWhiteArray(21)._views) == [19, 20]
        for dtype in (np.float64, np.uint64, np.int32):
            assert BlackWhiteArray(21, dtype=dtype)._views == {}
