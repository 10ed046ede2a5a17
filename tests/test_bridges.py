"""Bridges between active segments: their layout, the windows they give the
queries, and their upkeep by every writer.  ``validate()`` re-derives every
bridge from the raw slots, so each writer test ends with it, and with every
query answered as ``ReferenceModel`` answers it.  The writer tests run on
``Narrow`` structures, whose small constants put bridges on segments of 8
slots, so the states stay small enough to read."""

import copy
import pickle
import random

import numpy as np
import pytest

from bwa import BlackWhiteArray, CapacityExceeded, ReferenceModel

from conftest import Narrow
from test_stateful import spec_bisections, spec_search


def _build(n, seed=3, policy="grow", cap_exp=None, cls=Narrow):
    """The sequential state of ``n`` distinct even values inserted in random
    order, one segment per set bit of ``n``, so each rank holds a random
    sample, and its reference model."""
    values = [2 * v for v in random.Random(seed).sample(range(4 * n), n)]
    bwa = cls(cap_exp or max(1, n.bit_length()), policy)
    bwa.insert_many(values)
    bwa.counters.reset()
    ref = ReferenceModel()
    ref.values = sorted(values)
    return bwa, ref


def _ranks(bwa):
    return [r for r in range(bwa.cap_exp) if bwa.is_active(r)]


def _sound(bwa, ref, probes=None):
    """``bwa`` validates, and every query agrees with ``ref``."""
    assert bwa.validate() == []
    values = ref.values
    top = (values[-1] if values else 0) + 3
    if probes is None:
        probes = range(-3, top, max(1, top // 150))
    for p in probes:
        assert (bwa.search(p) is not None) == ref.contains(p), p
        assert bwa.lower_bound(p) == ref.lower_bound(p), p
        assert bwa.upper_bound(p) == ref.upper_bound(p), p
        assert bwa.interval(p, p + 9) == ref.interval(p, p + 9), p
        assert bwa.interval(p, p + top // 9) == ref.interval(p, p + top // 9)
    assert list(bwa) == values


def _bridged(bwa):
    return [r for r, link in enumerate(bwa._links) if link is not None]


def _delete_from(bwa, ref, rank, count):
    """Delete ``count`` values stored in ``rank``, smallest first."""
    for v in [x for x in bwa.segment_slots(rank) if x is not None][:count]:
        assert bwa.delete(v) is not None and ref.delete(v)


class TestLayout:
    def test_every_large_lower_rank_has_one(self):
        bwa, _ = _build(2 ** 17 + 2 ** 15 + 2 ** 14 + 5, cls=BlackWhiteArray)
        K = bwa._LOOKAHEAD
        assert _ranks(bwa) == [0, 2, 14, 15, 17]
        assert _bridged(bwa) == [15]          # not the top, nor 2**14 slots
        q, u = 15, 17
        marks, base, shift = bwa._links[q]
        s, stride = 1 << q, K << (u - q)
        assert len(marks) == s // K + 2
        assert marks[0] == s and marks[-1] == 2 * s
        assert list(marks) == sorted(marks)
        assert (base, 1 << shift) == ((1 << u) + 1 - stride, stride)
        seg, upper = bwa._white[s:2 * s], bwa._white[1 << u:2 << u]
        for k in range(0, len(marks) - 2, 29):
            sample = upper[k * stride]
            assert int((seg < sample).sum()) == marks[k + 1] - s

    def test_bounded_queries_bisect_windows(self):
        # charged by the window each bisection covers: far below the
        # r + 1 per segment of whole-segment bisections
        bwa, _ = _build(2 ** 18 + 2 ** 17 + 2 ** 16 + 2 ** 15 + 5, seed=5,
                        cls=BlackWhiteArray)
        assert _bridged(bwa) == [15, 16, 17]
        whole = sum(r + 1 for r in _ranks(bwa))
        rng = random.Random(8)
        probes = [2 * rng.randrange(4 * len(bwa)) + 1 for _ in range(200)]
        for query in (bwa.search, bwa.lower_bound, bwa.upper_bound,
                      lambda p: bwa.interval(p, p)):
            bwa.counters.reset()
            for p in probes:
                query(p)
            charged = bwa.counters.comparisons / len(probes)
            assert charged < 0.75 * whole, (query, charged, whole)

    def test_segments_of_at_most_bridged_slots_have_none(self):
        bwa, ref = _build(2 ** 15 - 1, cls=BlackWhiteArray)
        assert _bridged(bwa) == [] and bwa.validate() == []
        _sound(bwa, ref)
        bwa.insert(1)                          # carries into rank 15, the top
        ref.insert(1)
        assert _bridged(bwa) == []
        _sound(bwa, ref)

    def test_carry_chain_on_the_default_constants(self):
        bwa, ref = _build(2 ** 16 + 2 ** 15 - 1, cls=BlackWhiteArray)
        assert _bridged(bwa) == []
        bwa.insert(1)                          # carries 0..14 into rank 15
        ref.insert(1)
        assert _ranks(bwa) == [15, 16] and _bridged(bwa) == [15]
        _sound(bwa, ref)


class _Reads(list):
    """A bridge list that records every rank it is read at."""

    def __init__(self, links):
        super().__init__(links)
        self.read = set()

    def __getitem__(self, key):
        if isinstance(key, int):
            self.read.add(key)
        return super().__getitem__(key)


class TestWalk:
    """The query walk reads a rank's bridge only for a segment of more
    than ``_BRIDGED`` slots, and charges at that boundary what the specs
    read from the raw slots."""

    # ranks 0, 2, 14, 15 and 17 on the class; 0, 1, 2, 3 and 5 on Narrow
    @pytest.mark.parametrize("cls, n", [
        (BlackWhiteArray, 2 ** 17 + 2 ** 15 + 2 ** 14 + 5),
        (Narrow, 2 ** 5 + 2 ** 3 + 2 ** 2 + 3)])
    def test_small_ranks_never_read(self, cls, n):
        bwa, ref = _build(n, cls=cls)
        for v in ref.values[::7]:              # voids for the walk to skip
            assert bwa.delete(v) is not None and ref.delete(v)
        large = {r for r in _ranks(bwa) if 1 << r > bwa._BRIDGED}
        assert _bridged(bwa)
        assert bwa._BRIDGED.bit_length() - 1 in _ranks(bwa)   # the boundary
        bwa._links = _Reads(bwa._links)
        probes = range(-1, 2 * len(ref.values) + 9, max(1, n // 40))
        _sound(bwa, ref, probes)
        assert bwa._links.read == large
        bwa._links.read.clear()
        bwa.minimum(), bwa.maximum()
        assert bwa.extract_min() == ref.extract_min()
        assert bwa._links.read == set()        # extremes bisect nothing

    def test_charges_at_the_bridged_boundary(self):
        # Narrow's 4-slot rank 2 is bisected whole, its 8-slot rank 3
        # through a bridge
        bwa, ref = _build(2 ** 5 + 2 ** 3 + 2 ** 2 + 3)
        _delete_from(bwa, ref, 5, 6)
        assert _ranks(bwa) == [0, 1, 2, 3, 5] and _bridged(bwa) == [3]
        for v in range(-1, 2 * len(ref.values) + 3):
            before = bwa.counters.comparisons
            assert bwa.search(v) == spec_search(bwa, v), v
            if v % 2:                          # a miss: values are even
                reached = sum(bwa._white[(2 << r) - 1] >= v
                              for r in _ranks(bwa))
                assert bwa.counters.comparisons - before == \
                    spec_bisections(bwa, v, False) + reached, v
            for query, right, beyond in (
                    (bwa.lower_bound, True, lambda x: x > v),
                    (bwa.upper_bound, False, lambda x: x < v)):
                found = sum(any(x is not None and beyond(x)
                                for x in bwa.segment_slots(r))
                            for r in _ranks(bwa))
                before = bwa.counters.comparisons
                query(v)
                assert bwa.counters.comparisons - before == \
                    spec_bisections(bwa, v, right) + max(found - 1, 0), v


class TestWriters:
    """Every writer leaves the bridges ``validate()`` re-derives."""

    def test_carry_chain(self):
        bwa, ref = _build(2 ** 7 + 2 ** 5 + 31)
        assert _bridged(bwa) == [3, 4, 5]
        bwa.insert(1)                          # carries 0..5 into rank 6
        ref.insert(1)
        assert _ranks(bwa) == [6, 7] and _bridged(bwa) == [6]
        _sound(bwa, ref)

    def test_insert_many_blocks(self):
        bwa, ref = _build(2 ** 8 + 2 ** 5 + 1)
        values = list(range(1, 2 * 77, 2))
        bwa.insert_many(values)
        for v in values:
            ref.insert(v)
        assert _ranks(bwa) == [1, 2, 3, 5, 6, 8]
        _sound(bwa, ref)

    def test_demotion_into_an_inactive_rank(self):
        bwa, ref = _build(2 ** 7 + 2 ** 5)
        _delete_from(bwa, ref, 7, 2 ** 6)      # half: survivors move to 6
        assert _ranks(bwa) == [5, 6] and _bridged(bwa) == [5]
        assert bwa._links[5][2] == 2          # stride 2 * 2**(6 - 5)
        _sound(bwa, ref)

    def test_demotion_merged_back_up(self):
        bwa, ref = _build(2 ** 7 + 2 ** 6 + 2 ** 5)
        assert _bridged(bwa) == [5, 6]
        _delete_from(bwa, ref, 7, 2 ** 6)      # rank 6 is taken: merge to 7
        assert _ranks(bwa) == [5, 7] and _bridged(bwa) == [5]
        assert bwa._links[5][2] == 3          # stride 2 * 2**(7 - 5)
        _sound(bwa, ref)

    def test_demotion_of_the_top_rank_below_another(self):
        bwa, ref = _build(2 ** 9 + 2 ** 7 + 2 ** 5)
        _delete_from(bwa, ref, 7, 2 ** 6)
        assert _ranks(bwa) == [5, 6, 9] and _bridged(bwa) == [5, 6]
        _sound(bwa, ref)

    def test_grow(self):
        bwa, ref = _build(2 ** 8 + 2 ** 6 + 5, policy="fixed")
        links = copy.deepcopy(bwa._links)
        bwa._grow(bwa.cap_exp + 2)
        assert bwa._links[:len(links)] == links
        assert bwa._links[len(links):] == [None, None]
        _sound(bwa, ref)

    def test_insert_that_grows(self):
        bwa, ref = _build(2 ** 8 - 1)
        bwa.insert(1)                          # grows, then carries to 8
        ref.insert(1)
        assert bwa.cap_exp == 9
        _sound(bwa, ref)

    @pytest.mark.parametrize("largest", [False, True])
    def test_extractions(self, largest):
        bwa, ref = _build(2 ** 9 + 2 ** 7 + 2 ** 5 + 17)
        for step in range(400):
            got = bwa.extract_max() if largest else bwa.extract_min()
            assert got == (ref.extract_max() if largest else ref.extract_min())
            if step % 50 == 0:
                assert bwa.validate() == []
        _sound(bwa, ref)

    def test_delete_without_demotion_rebuilds_nothing(self):
        bwa, ref = _build(2 ** 8 + 2 ** 6)
        before = list(bwa._links)
        _delete_from(bwa, ref, 8, 10)
        _delete_from(bwa, ref, 6, 10)
        assert all(a is b for a, b in zip(bwa._links, before))
        _sound(bwa, ref)

    def test_capacity_exceeded_changes_nothing(self):
        bwa, ref = _build(2 ** 8 - 3, policy="fixed", cap_exp=8)
        links = copy.deepcopy(bwa._links)
        with pytest.raises(CapacityExceeded):
            bwa.insert_many([1, 3, 5])
        assert bwa._links == links and len(bwa) == 2 ** 8 - 3
        for _ in range(2):
            bwa.insert(1)
            ref.insert(1)
        with pytest.raises(CapacityExceeded):
            bwa.insert(5)
        assert bwa._links == links and len(bwa) == 2 ** 8 - 1
        _sound(bwa, ref)

    @pytest.mark.parametrize("clone", [copy.deepcopy,
                                       lambda b: pickle.loads(pickle.dumps(b))])
    def test_copies(self, clone):
        bwa, ref = _build(2 ** 8 + 2 ** 6 + 2 ** 5)
        dup = clone(bwa)
        assert dup._links == bwa._links and dup.validate() == []
        links = copy.deepcopy(bwa._links)
        dup.insert_many(range(1, 2 * 2 ** 5, 2))   # carries 5 into 6
        assert dup.validate() == [] and dup._links != links
        assert bwa._links == links
        _sound(bwa, ref)


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.uint64, np.float32, np.float64,
                                       np.int16])
    def test_queries_agree(self, dtype):
        rng = random.Random(4)
        values = [rng.randrange(0, 4000) for _ in range(2 ** 9 + 2 ** 7 + 40)]
        bwa = Narrow.from_values(values, dtype=dtype)
        ref = ReferenceModel()
        for v in values:
            ref.insert(float(v) if np.dtype(dtype).kind == "f" else v)
        for v in values[:150]:
            assert (bwa.delete(v) is not None) == ref.delete(v)
        assert _bridged(bwa)
        _sound(bwa, ref, probes=[x / 2 for x in range(-4, 8010, 7)])
