"""The query walk's high part and read-only calls.

Every walk is split at the class's filter bound ``_small`` (2^8 slots on
the class, 8 on ``Narrow``): the spans of the active ranks of ``_small`` or
more slots, which the writers keep in ``_high``, then those of the ranks
below from a module table, ``_LOW[total & (_small - 1)]``.  ``_high`` must
equal ``_high(total, _small)`` after every writer, on the class and on
``Narrow``; the readers only read it.  Read-only calls may run
concurrently (the module docstring), so none of them may store anything
on the instance but its comparison count.
"""

import copy
import pickle
import random
import sys
import threading

import numpy as np
import pytest

import bwa.core as core
from bwa import BlackWhiteArray, Counters

from conftest import Narrow, Native

CLASSES = [BlackWhiteArray, Narrow]


def _kept(bwa):
    assert bwa._high == core._high(bwa.total, bwa._small)
    assert bwa.validate() == []


def _spans(cls, *ranks):
    """The spans ``cls`` keeps in ``_high`` when ``ranks``, highest first,
    are active: those of ``cls(1)._small`` or more slots."""
    small = cls(1)._small
    return tuple(core._SPANS[r] for r in ranks if 1 << r >= small)


class TestHighUpkeep:
    def test_validate_reports_it_stale(self):
        bwa = BlackWhiteArray.from_values(range(300))   # 256 and 44 slots
        assert bwa._high == _spans(BlackWhiteArray, 8, 6)
        bwa._high = ()
        assert bwa.validate() == ["walk's high ranks () stale for total 320"]

    @pytest.mark.parametrize("cls", CLASSES)
    def test_scalar_carries(self, cls):
        bwa = cls(1)
        for v in range(1100):
            bwa.insert(v)
            assert bwa._high == core._high(bwa.total, bwa._small), v
        assert bwa._high == _spans(cls, 10, 6, 3, 2)    # 1024 + 64 + 8 + 4
        _kept(bwa)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_blocks_above_and_below_the_high_ranks(self, cls):
        # a block of 256 onto rank 8 carries into rank 9 from low 8; one of
        # 512 lands below rank 10 and keeps it
        bwa = cls.from_values(range(256))
        bwa.insert_many(range(256))
        assert bwa._high == _spans(cls, 9)
        bwa.insert_many(range(1024 - 512))
        assert bwa._high == _spans(cls, 10)
        bwa.insert_many(range(768))         # blocks of 512 and 256
        assert bwa._high == _spans(cls, 10, 9, 8)
        _kept(bwa)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_demotions(self, cls):
        # into a free rank 8; out of the high ranks into rank 7; onto a
        # taken rank 7, written back up into rank 8; onto a taken rank 8,
        # written back up into rank 9; and onto a taken rank 9 above an
        # active rank 8, which stays
        for n, deletes, ranks in ((512, 256, (8,)), (256, 128, (7,)),
                                  (384, 128, (8,)), (768, 256, (9,)),
                                  (1792, 512, (10, 8))):
            bwa = cls.from_values(range(n))
            for v in range(deletes):
                bwa.delete(v)
            assert bwa.counters.demotes == 1
            assert bwa._high == _spans(cls, *ranks), n
            _kept(bwa)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_compact_adopts_it(self, cls):
        # with the whole state of a bulk build of the live values at the
        # same capacity, the views of its slots and mask included, and the
        # same Counters object
        bwa = cls(1)
        for v in range(1500):
            bwa.insert(v)
        assert bwa._high == _spans(cls, 10, 8, 7, 6, 4, 3, 2)
        live, counters = bwa._live(), bwa.counters
        bwa.compact()
        assert bwa.total == 1536 and bwa._high == _spans(cls, 10, 9)
        _kept(bwa)
        built = cls.from_values(live, bwa.cap_exp)
        assert bwa.counters is counters
        assert vars(bwa).keys() == vars(built).keys()
        for k, v in vars(built).items():
            if k != "counters":
                assert _contents(vars(bwa)[k]) == _contents(v), k
        bwa.insert_many(range(300))         # through the adopted views
        for v in range(0, 1500, 2):
            bwa.delete(v)
        _kept(bwa)
        assert list(bwa) == sorted([*range(1, 1500, 2), *range(300)])

    @pytest.mark.parametrize("cls", CLASSES)
    def test_grow(self, cls):
        bwa = cls(9, "grow")
        bwa.insert_many(range(511))
        assert bwa._high == _spans(cls, 8, 7, 6, 5, 4, 3, 2, 1, 0)
        bwa.insert(511)                     # full: grows, then carries
        assert bwa.cap_exp == 10 and bwa._high == _spans(cls, 9)
        _kept(bwa)
        bwa.insert_many(range(700))         # grows to 2**11: 1212 values
        assert bwa.cap_exp == 11
        assert bwa._high == _spans(cls, 10, 7, 5, 4, 3, 2)
        _kept(bwa)

    @pytest.mark.parametrize("cls", CLASSES)
    def test_copies_keep_it(self, cls):
        bwa = cls.from_values(range(700))
        for v in range(0, 700, 3):
            bwa.insert(v)
        for other in (copy.deepcopy(bwa), pickle.loads(pickle.dumps(bwa))):
            assert other._high == bwa._high == core._high(bwa.total,
                                                          bwa._small)
            _kept(other)
            for p in (-1, 0, 5, 350, 699, 700):
                assert other.search(p) == bwa.search(p)
                assert other.lower_bound(p) == bwa.lower_bound(p)
            other.insert_many(range(300))
            assert other._high == core._high(other.total,
                                             other._small) != bwa._high

    @pytest.mark.parametrize("cls", CLASSES)
    def test_random_history(self, cls):
        # grow past 2**12 slots, shrink to half, grow again: carries from
        # every rank and blocks, and demotions of ranks 10 and 12 among
        # about 90 of the low ranks
        rng = random.Random(25)
        bwa = cls(1)
        for phase, steps in ((0.8, 4000), (0.15, 5000), (0.75, 3000)):
            for _ in range(steps):
                r = rng.random()
                if r < phase:
                    if rng.random() < 0.02:
                        bwa.insert_many([rng.randrange(2000)
                                         for _ in range(rng.randrange(40))])
                    else:
                        bwa.insert(rng.randrange(2000))
                elif r < phase + (1 - phase) / 2:
                    bwa.delete(rng.randrange(2000))
                elif rng.random() < 0.5:
                    bwa.extract_min()
                else:
                    bwa.extract_max()
                assert bwa._high == core._high(bwa.total, bwa._small)
            _kept(bwa)
        assert bwa.counters.demotes > 50


def _contents(v):
    """What a read could change in the value of an attribute."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.tobytes()
    if isinstance(v, (bytearray, memoryview)):
        return bytes(v)
    if isinstance(v, Counters):
        return {k: x for k, x in vars(v).items() if k != "comparisons"}
    if isinstance(v, dict):                 # the segment views, _views
        return {k: _contents(x) for k, x in v.items()}
    return copy.deepcopy(v)


def _state(bwa):
    """Every attribute of ``bwa``: the object bound and its contents."""
    return {k: (id(v), _contents(v)) for k, v in vars(bwa).items()}


def _churned(cls, dtype, n, seed):
    """A structure of about ``n`` values after a mixed history: voids,
    padding, several segments, and bridges on ``Narrow``."""
    rng = random.Random(seed)
    bwa = cls.from_values([rng.randrange(4 * n) for _ in range(n)],
                          dtype=dtype)
    for _ in range(n // 2):
        r = rng.random()
        if r < 0.45:
            bwa.insert(rng.randrange(4 * n))
        elif r < 0.9:
            bwa.delete(rng.randrange(4 * n))
        else:
            bwa.extract_min()
    return bwa


def _reads(rng, n, count):
    """``count`` read-only calls as (method name, args)."""
    out = []
    for _ in range(count):
        kind = rng.choice(("search", "__contains__", "lower_bound",
                           "upper_bound", "interval", "minimum", "maximum"))
        if kind in ("minimum", "maximum"):
            out.append((kind, ()))
        elif kind == "interval":
            lo = rng.randrange(-2, 4 * n)
            out.append((kind, (lo, lo + rng.randrange(40))))
        else:
            out.append((kind, (rng.randrange(-2, 4 * n + 2),)))
    return out


def _run(bwa, reads):
    return [getattr(bwa, name)(*args) for name, args in reads]


class TestReadersWriteNothing:
    @pytest.mark.parametrize("cls", [*CLASSES, Native])
    @pytest.mark.parametrize("dtype", ["int64", "float64"])
    def test_every_read_leaves_the_instance(self, cls, dtype):
        bwa = _churned(cls, dtype, 3000, 7)
        assert bwa.total.bit_count() >= 4
        calls = _reads(random.Random(1), 3000, 300) + [
            ("search", (-0.0,)), ("search", (np.float64(5.0),)),
            ("interval", (0, 12000)), ("iter_sorted", ()), ("stats", ()),
            ("validate", ())]
        for name, args in calls:
            before = _state(bwa)
            result = getattr(bwa, name)(*args)
            if name == "iter_sorted":
                list(result)
            assert _state(bwa) == before, (name, args)

    def test_concurrent_reads(self):
        # a churn-sized structure: 2**16 - 12345 values built, then a mixed
        # history, which leaves 12 segments; four readers must return what
        # a sequential run returns and leave it as it was
        n = (1 << 16) - 12345
        bwa = _churned(BlackWhiteArray, "int64", n, 303)
        assert bwa.total.bit_count() >= 10
        plans = [_reads(random.Random(i), n, 1500) for i in range(4)]
        want = [_run(bwa, reads) for reads in plans]
        before = _state(bwa)
        got = [None] * 4
        start = threading.Barrier(4, timeout=60)

        def reader(i):
            start.wait()
            got[i] = _run(bwa, plans[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,))
                       for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == want
        assert _state(bwa) == before
        assert bwa.validate() == []
