"""The search filter: the ranks of fewer than ``_small`` slots (at most
``_FILTERED``, and never a rank that can be bridged) keep every value of
their slots in a set, so a search miss skips them.  The same bound splits
every walk: ``_high`` holds the spans of the ranks at or above it.  Answers
and charges must stay those of the walk without the filter: every test
compares them with ``spec_search`` and ``spec_search_charge``, read from
the raw slots, and with a twin whose filter covers no rank (``_small = 1``,
``_high`` every active rank), on int64 and float64 and on the class and
``Narrow``."""

import copy
import pickle
import random

import numpy as np
import pytest

import bwa.core as core
from bwa import BlackWhiteArray, ReferenceModel

from conftest import Narrow
from test_stateful import spec_search, spec_search_charge

CLASSES = [BlackWhiteArray, Narrow]
DTYPES = ["int64", "float64"]


def _unfiltered(bwa):
    """A copy of ``bwa`` whose search bisects every rank it reaches."""
    twin = copy.deepcopy(bwa)
    twin._small = 1
    twin._high = core._high(twin.total, 1)
    return twin


def _charged(bwa, v):
    before = bwa.counters.comparisons
    return bwa.search(v), bwa.counters.comparisons - before


def _agree(bwa, probes):
    """Every probe's slot and charge equal the specs' and the twin's."""
    assert bwa.validate() == []
    twin = _unfiltered(bwa)
    for p in probes:
        want = (spec_search(bwa, p), spec_search_charge(bwa, p))
        assert _charged(bwa, p) == want == _charged(twin, p), p


def _filtered(bwa):
    return [r for r in range(bwa.cap_exp)
            if bwa.is_active(r) and 1 << r < bwa._small]


def _top(cls):
    """The lowest rank ``cls`` does not filter."""
    return cls(1)._small.bit_length() - 1


def _state(cls, dtype, low):
    """An unfiltered top rank over ranks 2, 1 and 0, rank 2 holding
    ``low``: every value of the top rank lies above theirs."""
    top = _top(cls)
    bwa = cls(top + 1, dtype=dtype)
    bwa.insert_many([100 + v for v in range(1 << top)])
    bwa.insert_many(low[::-1])          # rank 2, the order insert_many keeps
    bwa.insert_many([7, 8, 9])          # ranks 1 and 0
    assert bwa.segment_slots(2) == list(low)
    return bwa


class TestBound:
    def test_filtered_ranks(self):
        # the class filters ranks 0..7; Narrow, whose ranks of more than 4
        # slots are bridged, only 0..2
        assert BlackWhiteArray(3)._small == core._FILTERED == 1 << 8
        assert Narrow(3)._small == 8 == Narrow._BRIDGED << 1

    @pytest.mark.parametrize("cls", CLASSES)
    def test_holds_exactly_the_slots_after_a_bulk_build(self, cls):
        values = random.Random(4).choices(range(50), k=2 ** 9 + 2 ** 6 + 3)
        for bwa in (cls.from_values(values), cls.from_values(values[:-2])):
            want = {x for r in _filtered(bwa)
                    for x in bwa._white[1 << r:2 << r].tolist()}
            assert bwa._filter == want
            bwa.compact()
            assert bwa.validate() == []


class TestVoidCompare:
    """A probe equal to a void's stale value, with an occupied slot after
    the void in the same filtered rank, is charged one compare more than a
    miss there: the filter must keep the value once its slot is voided."""

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_void_before_an_occupied_slot(self, cls, dtype):
        bwa = _state(cls, dtype, (10, 20, 30, 40))
        assert bwa.delete(20) == 5              # rank 2: 10, ·, 30, 40
        assert 20 in bwa._filter
        _agree(bwa, [20, 19, 21, 10, 30, 40, 41, 5, 200])
        # the void's compare: one more than a probe between the slots
        assert _charged(bwa, 20)[1] == _charged(bwa, 25)[1] + 1

    @pytest.mark.parametrize("cls", CLASSES)
    def test_signed_zero_probes(self, cls):
        bwa = _state(cls, "float64", (-1.0, 0.0, 0.5, 2.0))
        _agree(bwa, [-0.0, 0.0, -0.5, 0.25])    # -0.0 finds the stored 0.0
        assert bwa.search(-0.0) == 5
        assert bwa.delete(-0.0) == 5            # 0.0 voided, 0.5 after it
        _agree(bwa, [-0.0, 0.0, 0.5, -1.0, 2.0, 3.0])
        assert bwa.search(-0.0) is None

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_padding_of_a_void_tail(self, cls, dtype):
        # ranks 0..2 full; a void in rank 2, then a carry of 7 values into
        # rank 3's 8 slots pads its last slot with the largest, 40; once 40
        # is deleted, only voids hold it
        bwa = cls(5, dtype=dtype)
        for v in (10, 20, 30, 40, 1, 2, 3):
            bwa.insert(v)
        bwa.delete(10)
        bwa.insert(5)
        assert bwa.segment_slots(3) == [1, 2, 3, 5, 20, 30, 40, None]
        assert bwa._white[15] == 40
        _agree(bwa, [40, 39, 41, 10, 2, 0])
        bwa.delete(40)
        _agree(bwa, [40, 39, 41, 30, 10, 2, 0])


class TestSkip:
    @pytest.mark.parametrize("cls", CLASSES)
    def test_a_miss_bisects_no_filtered_rank(self, cls, monkeypatch):
        bwa = _state(cls, "int64", (10, 20, 30, 40))
        bisected = []

        def bisect_left(a, x, lo, hi):
            bisected.append(lo.bit_length() - 1)
            return real(a, x, lo, hi)

        real = core.bisect_left
        monkeypatch.setattr(core, "bisect_left", bisect_left)
        top = _top(cls)
        twin = _unfiltered(bwa)
        # misses bisect the top rank alone; hits every rank down to theirs
        for probe, ranks in ((25, [top]), (6, [top]), (20, [top, 2]),
                             (8, [top, 2, 1]), (9, [top, 2, 1, 0]),
                             (100, [top])):
            bisected.clear()
            got = _charged(bwa, probe)
            assert bisected == ranks, probe
            assert got == _charged(twin, probe), probe
        bisected.clear()
        twin.search(25)
        assert bisected == [top, 2, 1, 0]


class TestUpkeep:
    """Every writer keeps the filter a superset of the filtered slots'
    values, and no stream of ops grows it past three times ``_small``."""

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_random_history(self, cls, dtype):
        rng = random.Random(17)
        bwa, ref = cls(1, dtype=dtype), ReferenceModel()
        for step in range(4000):
            r = rng.random()
            if r < 0.45:
                v = rng.randrange(300)
                bwa.insert(v)
                ref.insert(v)
            elif r < 0.5:
                vs = [rng.randrange(300) for _ in range(rng.randrange(20))]
                bwa.insert_many(vs)
                for v in vs:
                    ref.insert(v)
            elif r < 0.9:
                v = rng.randrange(300)
                assert (bwa.delete(v) is not None) == ref.delete(v)
            else:
                assert bwa.extract_min() == ref.extract_min()
            assert len(bwa._filter) < 3 * bwa._small
            if step % 97 == 0:
                _agree(bwa, range(-1, 302, 7))
        _agree(bwa, range(-1, 302))

    @pytest.mark.parametrize("cls", CLASSES)
    def test_small_queue_stays_bounded(self, cls):
        # a handful of values, each inserted once: no carry reaches the
        # bound, so only demotions and rank 0's deactivation prune it
        bwa = cls(3)
        keep = bwa._small // 4
        for v in range(20000):
            bwa.insert(v)
            if len(bwa) > keep:
                assert bwa.extract_min() == v - keep
            assert len(bwa._filter) < 3 * bwa._small
        one = cls(3)
        for v in range(20000):
            one.insert(v)
            assert one.delete(v) == 1           # rank 0 only
            assert len(one._filter) < 3 * one._small
        assert bwa.total < bwa._small
        _agree(bwa, range(19970, 20001))

    @pytest.mark.parametrize("cls", CLASSES)
    def test_rank_one_demotions_alone_keep_it_bounded(self, cls):
        # ranks 1 and 0 only: each value joins rank 0, and deleting rank
        # 1's smaller value demotes it onto rank 0 and writes both back,
        # with no carry and no deactivation of rank 0 to prune the filter
        bwa = cls(3)
        bwa.insert_many([0, 1])
        for v in range(2, 3 * bwa._small):
            bwa.insert(v)
            assert bwa.delete(v - 2) == 2
            assert len(bwa._filter) < 3 * bwa._small
        assert bwa.total == 2 and bwa.counters.demotes == 3 * bwa._small - 2
        _agree(bwa, range(3 * bwa._small))

    @pytest.mark.parametrize("cls", CLASSES)
    def test_demotion_into_the_filtered_ranks(self, cls):
        # the lowest unfiltered rank, alone, falls to half and moves down
        n = cls(1)._small
        bwa = cls(n.bit_length())
        bwa.insert_many(range(0, 2 * n, 2))
        assert not bwa._filter
        for v in range(0, n, 2):
            bwa.delete(v)
        assert bwa.counters.demotes == 1
        assert bwa.occupancy[_top(cls) - 1] == n // 2
        _agree(bwa, range(-1, 2 * n + 1))

    def test_validate_reports_a_lost_value(self):
        bwa = _state(BlackWhiteArray, "int64", (10, 20, 30, 40))
        bwa.delete(30)
        bwa._filter.discard(30)                 # a void's value
        assert bwa.validate() == [
            "rank 2: slot values [30] missing from the filter"]

    def test_copies_keep_it(self):
        bwa = _state(BlackWhiteArray, "int64", (10, 20, 30, 40))
        for other in (copy.deepcopy(bwa), pickle.loads(pickle.dumps(bwa))):
            assert other._filter == bwa._filter
            assert other._filter is not bwa._filter
            _agree(other, [20, 25, 9, 8])


def _descent(t, stop=0):
    """The spans of the ranks set in ``t`` from rank ``stop`` up, highest
    first, taken off ``total`` one bit at a time."""
    out = []
    while t >> stop:
        s, e, c = core._SPANS[t.bit_length() - 1]
        t ^= s
        out.append((s, e, c))
    return tuple(out)


class TestTables:
    """The walk's parts and the filtered miss's charge, against a descent
    over ``_SPANS``."""

    def test_low_and_missed(self):
        assert len(core._LOW) == len(core._MISSED) == core._FILTERED
        for t in range(core._FILTERED):
            spans = _descent(t)
            assert core._LOW[t] == spans
            # r + 2 per rank: its bisection and the compare where it stops
            assert core._MISSED[t] == (sum(r + 2 for r in range(8)
                                           if t >> r & 1),
                                       tuple(e - 1 for _, e, _ in spans))

    @pytest.mark.parametrize("small", [1, 8, 256])
    def test_high(self, small):
        # the bound of the unfiltered twin, of Narrow and of the class
        rng = random.Random(25)
        totals = [0, 1, 7, 8, 9, 255, 256, 257, 2 ** 62 - 1, 2 ** 62]
        totals += [rng.randrange(2 ** rng.randrange(1, 63))
                   for _ in range(2000)]
        stop = small.bit_length() - 1
        for t in totals:
            assert core._high(t, small) == _descent(t, stop), t
            assert (core._high(t, small) + core._LOW[t & (small - 1)]
                    == _descent(t)), t


_NONZERO = [v for v in range(-600, 600, 2) if v]


def _patterned(cls, dtype, t):
    """``t`` distinct values, 0 among them, written as inserting them in
    order would leave them: one full rank per set bit of ``t``, their
    values interleaved."""
    rng = random.Random(t)
    values = [0] + rng.sample(_NONZERO, t - 1) if t else []
    bwa = cls(9, dtype=dtype)
    bwa.insert_many(values)
    assert bwa.total == t
    return bwa


def _last_slots(bwa):
    return [bwa._white[(2 << r) - 1].item() for r in _filtered(bwa)]


class TestMissCharge:
    """Every pattern of active filtered ranks, probed below, at and above
    each rank's last slot, and at -0.0 over the stored 0: slot and charge
    as the specs and the unfiltered twin read them."""

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_pattern(self, cls, dtype):
        step = 1 if dtype == "int64" else 0.5
        # Narrow walks its unfiltered ranks of 8 to 128 slots first
        above = (0,) if cls is BlackWhiteArray else (0, 0b10101000, 0b1010000)
        for rest in range(cls(1)._small):
            for t in above:
                bwa = _patterned(cls, dtype, t | rest)
                probes = [-0.0, 0.0, -1000, 1000]
                for x in _last_slots(bwa):
                    probes += [x - step, x, x + step]
                _agree(bwa, probes)

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_a_last_slot_equal_to_the_probe(self, cls, dtype):
        # while the filter holds every slot value, a probe equal to a last
        # slot is in it and never charged from the table.  Stripped of the
        # values only a void tail holds, which changes no answer, it sends
        # such a probe down the charged path, where the compare at the last
        # slot must charge the walk's r + 2 for an equal value as well
        for t in range(4, cls(1)._small):
            bwa = _patterned(cls, dtype, t)
            tops = [x for r, x in zip(_filtered(bwa), _last_slots(bwa))
                    if r >= 2]
            for x in tops:
                bwa.delete(x)               # from a full rank: no demotion
            bwa._filter = {x for r in _filtered(bwa)
                           for x in bwa.segment_slots(r) if x is not None}
            for x in tops:
                assert x not in bwa._filter
                want = (None, spec_search_charge(bwa, x))
                assert spec_search(bwa, x) is None
                assert _charged(bwa, x) == want
                assert _charged(_unfiltered(bwa), x) == want


class TestProbeTypes:
    def test_zero_d_arrays(self):
        bwa = BlackWhiteArray(3)
        bwa.insert(np.array(5))
        bwa.insert(np.array(7))
        assert bwa.search(np.array(7)) == bwa.search(7) is not None
        assert bwa.search(np.array(6)) is None
        f = BlackWhiteArray(3, dtype="float64")
        f.insert(np.float32(0.25))
        f.insert(np.array(0.5))
        assert f.search(np.array(0.25)) is not None
        assert f.search(0.5) is not None and f.search(np.float64(0.75)) is None

    @pytest.mark.parametrize("cls", CLASSES)
    def test_mixed_and_nan_probes(self, cls):
        bwa = _state(cls, "int64", (10, 20, 30, 40))
        bwa.delete(20)
        _agree(bwa, [20.0, 20.5, np.int32(30), np.float64(40.0), 2 ** 70,
                     -(2 ** 70), float("nan"), float("inf")])
