"""Differential stateful test of the whole query surface.

A ``hypothesis.stateful`` machine runs inserts, batch inserts, deletes,
searches, extractions, extremes, both bounds and intervals over a small,
duplicate-heavy domain, so void runs, padded void tails and ties all occur.
Values are checked against ``ReferenceModel``; the slots that ``search``,
``delete`` and the extractions pick, and the comparisons bounds and extremes
are charged, are checked against naive specs read from ``segment_slots``.
"""

import copy

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from bwa import BlackWhiteArray, ReferenceModel


def _active(bwa, highest_first=False):
    ranks = [r for r in range(bwa.cap_exp) if bwa.is_active(r)]
    return reversed(ranks) if highest_first else ranks


def spec_search(bwa, v):
    """The first occupied slot at or after the bisection point, in the
    highest active rank where that slot holds ``v``.  Slots before the
    bisection point hold values ``< v`` and those from it ``>= v``, so it is
    the first occupied slot holding a value ``>= v``."""
    for r in _active(bwa, highest_first=True):
        for k, x in enumerate(bwa.segment_slots(r)):
            if x is not None and x >= v:
                if x == v:
                    return (1 << r) + k
                break
    return None


def spec_extreme(bwa, largest):
    """Slot of the first occupied slot (``largest``: the last) of the rank
    whose candidate is smallest (largest); the lower rank wins a tie."""
    best = None
    for r in _active(bwa):
        slots = bwa.segment_slots(r)
        ks = [k for k, x in enumerate(slots) if x is not None]
        k = ks[-1] if largest else ks[0]
        x = slots[k]
        if best is None or ((x > best[1]) if largest else (x < best[1])):
            best = ((1 << r) + k, x)
    return None if best is None else best[0]


def _layout(bwa):
    return (bwa.total, bwa.occupancy, bwa.cap_exp,
            [bwa.segment_slots(r) for r in _active(bwa)])


keys = st.integers(0, 12)
probe_keys = st.integers(-3, 27)


class QuerySurface(RuleBasedStateMachine):
    """int64: values 0..12, probes the ints and halves around them, so a
    probe of another numeric type than the dtype's is common."""

    dtype = np.int64

    @staticmethod
    def value(k):
        return k

    @staticmethod
    def probe(j):
        return j // 2 if j % 2 == 0 else j / 2

    def __init__(self):
        super().__init__()
        self.bwa = BlackWhiteArray(1, dtype=self.dtype)     # grows as it fills
        self.model = ReferenceModel()

    @rule(k=keys)
    def insert(self, k):
        self.bwa.insert(self.value(k))
        self.model.insert(self.value(k))

    @rule(ks=st.lists(keys, max_size=24))
    def insert_many(self, ks):
        values = [self.value(k) for k in ks]
        self.bwa.insert_many(values)
        for v in values:
            self.model.insert(v)

    @rule(j=probe_keys)
    def delete(self, j):
        v = self.probe(j)
        expected = spec_search(self.bwa, v)
        assert self.bwa.delete(v) == expected
        assert self.model.delete(v) == (expected is not None)

    @rule(j=probe_keys)
    def search(self, j):
        v = self.probe(j)
        expected = spec_search(self.bwa, v)
        assert self.bwa.search(v) == expected
        assert self.model.contains(v) == (expected is not None)

    @rule(largest=st.booleans())
    def extract(self, largest):
        slot = spec_extreme(self.bwa, largest)
        twin = copy.deepcopy(self.bwa)
        if slot is not None:
            twin._delete_at(slot)          # void exactly the slot the spec names
        if largest:
            got, want = self.bwa.extract_max(), self.model.extract_max()
        else:
            got, want = self.bwa.extract_min(), self.model.extract_min()
        assert got == want
        assert _layout(self.bwa) == _layout(twin)

    def charged(self, query, *args):
        """The result of a query and the comparisons it was charged."""
        before = self.bwa.counters.comparisons
        result = query(*args)
        return result, self.bwa.counters.comparisons - before

    @rule()
    def extremes(self):
        # one fold per active segment after the first, and no bisection
        folds = max(len(list(_active(self.bwa))) - 1, 0)
        assert self.charged(self.bwa.minimum) == (self.model.minimum(), folds)
        assert self.charged(self.bwa.maximum) == (self.model.maximum(), folds)

    @rule(j=probe_keys)
    def bounds(self, j):
        # r + 1 per active segment, and a fold per further candidate
        v = self.probe(j)
        ranks = list(_active(self.bwa))
        bisections = sum(r + 1 for r in ranks)
        for query, want, beyond in (
                (self.bwa.lower_bound, self.model.lower_bound(v), lambda x: x > v),
                (self.bwa.upper_bound, self.model.upper_bound(v), lambda x: x < v)):
            found = sum(any(x is not None and beyond(x)
                            for x in self.bwa.segment_slots(r)) for r in ranks)
            assert self.charged(query, v) == (want, bisections + max(found - 1, 0))

    @rule(i=probe_keys, j=probe_keys)
    def interval(self, i, j):
        lo, hi = sorted((self.probe(i), self.probe(j)))
        assert self.bwa.interval(lo, hi) == self.model.interval(lo, hi)

    @invariant()
    def sound(self):
        assert self.bwa.validate() == []
        assert len(self.bwa) == len(self.model)


class FloatQuerySurface(QuerySurface):
    """float64: values the halves 0.0..6.0, probes the quarters around them."""

    dtype = np.float64

    @staticmethod
    def value(k):
        return k / 2

    @staticmethod
    def probe(j):
        return j / 4


_settings = settings(max_examples=100, stateful_step_count=60, deadline=None)

TestIntQuerySurface = QuerySurface.TestCase
TestIntQuerySurface.settings = _settings
TestFloatQuerySurface = FloatQuerySurface.TestCase
TestFloatQuerySurface.settings = _settings
