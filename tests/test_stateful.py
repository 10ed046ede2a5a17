"""Differential stateful test of the whole query surface.

A ``hypothesis.stateful`` machine runs inserts, batch inserts, bulk
rebuilds, compactions, deletes, searches, extractions, extremes, both
bounds and intervals over a small, duplicate-heavy domain, so void runs,
padded void tails and ties all occur.  Runs of up to 64 inserts, and of
deletes out of the top rank, reach states with several large ranks and
their demotions within a few steps.  Values are checked against
``ReferenceModel``; the slots that ``search``, ``delete`` and the
extractions pick, and the comparisons searches, bounds, extremes and
intervals are charged, are checked against naive specs read from the raw
slots (a search's as if it bisected every rank it reaches, the ranks its
filter skips included), and each extraction's counters against a copy that
voids the spec's slot, plus one comparison per fold.  ``validate()`` after
every step rechecks the bridges, the search filter and the walk's high
part (``_high``) every writer leaves, and the extremes rule checks that
``minimum`` and ``maximum`` leave the slots, bridges and ``_high`` as
they were.
The int64 and float64 machines run the
class as it is.  The others run ``Narrow``, whose small states already
bisect through bridges: int64, uint64, float32, and int64 under the fixed
policy, where an insert past capacity must leave the structure as it was.
A ``sortedcontainers.SortedList`` runs beside the model as a second oracle:
every answer and the drain after every rule must equal its answers too.
"""

import copy

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from sortedcontainers import SortedList

from bwa import BlackWhiteArray, CapacityExceeded, ReferenceModel
from bwa.core import _layout as compact_layout

from conftest import Narrow


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


def _windows(bwa, v, right):
    """``(rank, charge)`` of the bisection for ``v`` in each active rank,
    highest rank first: the bit length of the rank's window.  The top rank
    and a rank of at most ``_BRIDGED`` slots are bisected whole.  Below
    another active rank ``u``, a rank's window runs between the bisection
    points of the sampled values of ``u`` (every ``_LOOKAHEAD * 2**(u - r)``
    -th slot) that bracket ``v``: after the last sample the probe's side
    (``right``: ``bisect_right``) puts before it, up to the next sample."""
    K = bwa._LOOKAHEAD
    before = (lambda x: x <= v) if right else (lambda x: x < v)
    upper = None
    for r in _active(bwa, highest_first=True):
        seg = bwa._white[1 << r:2 << r].tolist()
        lo, hi = 0, len(seg)
        if upper is not None and len(seg) > bwa._BRIDGED:
            samples = upper[::K * len(upper) // len(seg)]
            j = sum(map(before, samples))
            if j:
                lo = sum(x < samples[j - 1] for x in seg)
            if j < len(samples):
                hi = sum(x < samples[j] for x in seg)
        yield r, (hi - lo).bit_length()
        upper = seg


def spec_bisections(bwa, v, right):
    """Comparisons the bisections of a bound for ``v`` are charged: the sum
    of ``_windows``."""
    return sum(charge for _, charge in _windows(bwa, v, right))


def spec_search_charge(bwa, v):
    """Comparisons a search for ``v`` is charged, as if it bisected every
    rank it reaches, filtered or not: per active rank, highest first, its
    window, then 1 for the first slot ``>= v`` if there is one, and 1 more
    for the next occupied slot when that slot is a void holding ``v`` and
    one follows; the walk ends at the first occupied slot holding ``v``."""
    charged = 0
    for r, window in _windows(bwa, v, False):
        charged += window
        seg = bwa._white[1 << r:2 << r].tolist()
        slots = bwa.segment_slots(r)
        i = sum(x < v for x in seg)
        if i == len(seg):
            continue
        charged += 1
        if seg[i] != v:
            continue
        k = next((k for k in range(i, len(seg)) if slots[k] is not None), None)
        if k is None:
            continue
        if k > i:
            charged += 1
            if seg[k] != v:
                continue
        return charged
    return charged


def spec_interval_charge(bwa, lo, hi):
    """Comparisons an interval is charged: the bisections for ``lo``, then
    per active rank, at its first slot ``i`` at or above ``lo`` (if any), 1
    for the test of ``hi``.  When slot ``i`` is in range, ``hi`` is charged
    as bisected over the window ``[i, b)`` of ``_LOOKAHEAD`` slots, cut at
    the segment's end ``e``, and over ``[b, e)`` too when slot ``b - 1`` is
    in range and ``b < e``."""
    charged = spec_bisections(bwa, lo, False)
    for r in _active(bwa, highest_first=True):
        seg = bwa._white[1 << r:2 << r].tolist()
        e = len(seg)
        i = sum(x < lo for x in seg)
        if i == e:
            continue
        charged += 1
        if seg[i] <= hi:
            b = min(i + bwa._LOOKAHEAD, e)
            charged += (b - i).bit_length()
            if seg[b - 1] <= hi and b < e:
                charged += (e - b).bit_length()
    return charged


def _layout(bwa):
    return (bwa.total, bwa.occupancy, bwa.cap_exp,
            [bwa.segment_slots(r) for r in _active(bwa)])


keys = st.integers(0, 12)
probe_keys = st.integers(-3, 27)


class QuerySurface(RuleBasedStateMachine):
    """int64: values 0..12, probes the ints and halves around them, so a
    probe of another numeric type than the dtype's is common."""

    dtype = np.int64
    cls = BlackWhiteArray

    @staticmethod
    def value(k):
        return k

    @staticmethod
    def probe(j):
        return j // 2 if j % 2 == 0 else j / 2

    policy = "grow"
    cap_exp = 1                                 # grows as it fills

    def __init__(self):
        super().__init__()
        self.bwa = self.cls(self.cap_exp, self.policy, dtype=self.dtype)
        self.model = ReferenceModel()
        self.sorted = SortedList()

    def _add(self, values, write):
        """Run ``write``; it adds ``values`` unless it raises
        ``CapacityExceeded``, which must leave the structure as it was."""
        before = _snapshot(self.bwa)
        try:
            write()
        except CapacityExceeded:
            assert self.policy == "fixed"
            assert _snapshot(self.bwa) == before
            return
        for v in values:
            self.model.insert(v)
        self.sorted.update(values)

    @rule(k=keys)
    def insert(self, k):
        v = self.value(k)
        self._add([v], lambda: self.bwa.insert(v))

    @rule(ks=st.lists(keys, max_size=24))
    def insert_many(self, ks):
        values = [self.value(k) for k in ks]
        self._add(values, lambda: self.bwa.insert_many(values))

    @rule(k=keys, n=st.integers(1, 64))
    def insert_run(self, k, n):
        """Insert ``n`` values in one batch, a run through the domain from
        ``k``: with ``delete_from_top``, it makes states with several
        active ranks of 8 slots or more, ``Narrow``'s ``_high``, common."""
        values = [self.value((k + i) % 13) for i in range(n)]  # keys 0..12
        self._add(values, lambda: self.bwa.insert_many(values))

    @rule(ks=st.lists(keys, max_size=24))
    def from_values(self, ks):
        """Rebuild in bulk from the values held plus a batch."""
        values = list(self.bwa) + [self.value(k) for k in ks]
        cap_exp = None if self.policy == "grow" else self.bwa.cap_exp
        if cap_exp is not None and len(values) >= 1 << cap_exp:
            return                              # more than the fixed capacity
        self.bwa = self.cls.from_values(values, cap_exp, self.policy,
                                        self.dtype)
        for k in ks:
            self.model.insert(self.value(k))
        self.sorted.update(self.value(k) for k in ks)

    @rule()
    def compact(self):
        """The compact layout at the same capacity, charged one merge and
        the rank's slots per rank written."""
        cap_exp, before = self.bwa.cap_exp, dict(vars(self.bwa.counters))
        self.bwa.compact()
        layout = compact_layout(len(self.model), cap_exp)
        assert self.bwa.cap_exp == cap_exp
        assert [(r, self.bwa.occupancy[r])
                for r in _active(self.bwa, highest_first=True)] == layout
        assert vars(self.bwa.counters) == before | {
            "merges": before["merges"] + len(layout),
            "moves": before["moves"] + sum(1 << r for r, _ in layout)}
        assert list(self.bwa) == self.model.values

    @rule(j=probe_keys)
    def delete(self, j):
        self._delete(self.probe(j))

    @rule(n=st.integers(1, 64))
    def delete_from_top(self, n):
        """Delete up to ``n`` of the values the top rank holds, one by one,
        so it can fall to half and demote within one step, past the ranks
        below it: the large ranks, whose spans the writers keep in
        ``_high``, demote only after as many deletes as half their slots."""
        top = max(_active(self.bwa), default=None)
        if top is not None:
            held = [x for x in self.bwa.segment_slots(top) if x is not None]
            for v in held[:n]:
                self._delete(v)

    def _delete(self, v):
        expected = spec_search(self.bwa, v)
        assert self.bwa.delete(v) == expected
        assert self.model.delete(v) == (expected is not None)
        assert (v in self.sorted) == (expected is not None)
        self.sorted.discard(v)

    @rule(j=probe_keys)
    def search(self, j):
        # charged as if every rank reached were bisected, the ranks the
        # filter rules the probe out of included
        v = self.probe(j)
        expected = spec_search(self.bwa, v)
        charge = spec_search_charge(self.bwa, v)
        assert self.charged(self.bwa.search, v) == (expected, charge)
        assert self.model.contains(v) == (expected is not None)
        assert (v in self.sorted) == (expected is not None)

    @rule(largest=st.booleans())
    def extract(self, largest):
        slot = spec_extreme(self.bwa, largest)
        # one fold per active segment after the first, and no bisection
        folds = max(len(list(_active(self.bwa))) - 1, 0)
        twin = copy.deepcopy(self.bwa)
        if slot is not None:
            twin._delete_at(slot)          # void exactly the slot the spec names
        if largest:
            got, want = self.bwa.extract_max(), self.model.extract_max()
        else:
            got, want = self.bwa.extract_min(), self.model.extract_min()
        also = self.sorted.pop(-1 if largest else 0) if self.sorted else None
        assert got == want == also
        assert _layout(self.bwa) == _layout(twin)
        assert vars(self.bwa.counters) == vars(twin.counters) | {
            "comparisons": twin.counters.comparisons + folds}

    def charged(self, query, *args):
        """The result of a query and the comparisons it was charged."""
        before = self.bwa.counters.comparisons
        result = query(*args)
        return result, self.bwa.counters.comparisons - before

    @rule()
    def extremes(self):
        # one fold per active segment after the first, and no bisection;
        # neither query writes a slot or charges any other counter
        folds = max(len(list(_active(self.bwa))) - 1, 0)
        low, high = (self.sorted[0], self.sorted[-1]) if self.sorted else (
            None, None)
        for query, want, also in (
                (self.bwa.minimum, self.model.minimum(), low),
                (self.bwa.maximum, self.model.maximum(), high)):
            before = _snapshot(self.bwa)
            counts = dict(vars(self.bwa.counters))
            assert query() == want == also
            assert _snapshot(self.bwa) == before
            assert vars(self.bwa.counters) == counts | {
                "comparisons": counts["comparisons"] + folds}

    @rule(j=probe_keys)
    def bounds(self, j):
        # a windowed bisection per active segment, and a fold per further
        # candidate
        v = self.probe(j)
        ranks = list(_active(self.bwa))
        i, k = self.sorted.bisect_left(v), self.sorted.bisect_right(v)
        successor = self.sorted[k] if k < len(self.sorted) else None
        predecessor = self.sorted[i - 1] if i else None
        for query, want, also, beyond, right in (
                (self.bwa.lower_bound, self.model.lower_bound(v), successor,
                 lambda x: x > v, True),
                (self.bwa.upper_bound, self.model.upper_bound(v), predecessor,
                 lambda x: x < v, False)):
            found = sum(any(x is not None and beyond(x)
                            for x in self.bwa.segment_slots(r)) for r in ranks)
            charge = spec_bisections(self.bwa, v, right) + max(found - 1, 0)
            assert self.charged(query, v) == (want, charge) == (also, charge)

    @rule(i=probe_keys, j=probe_keys)
    def interval(self, i, j):
        lo, hi = sorted((self.probe(i), self.probe(j)))
        charge = spec_interval_charge(self.bwa, lo, hi)
        got, charged = self.charged(self.bwa.interval, lo, hi)
        assert got == self.model.interval(lo, hi)
        assert got == list(self.sorted.irange(lo, hi))
        assert charged == charge

    @invariant()
    def sound(self):
        assert self.bwa.validate() == []
        assert len(self.bwa) == len(self.model)
        assert list(self.bwa) == list(self.sorted) == self.model.values


class NarrowQuerySurface(QuerySurface):
    """int64 on ``Narrow``."""

    cls = Narrow


class UintQuerySurface(NarrowQuerySurface):
    """uint64: the int64 domain, so a negative probe is common."""

    dtype = np.uint64


class FixedQuerySurface(NarrowQuerySurface):
    """int64 under the fixed policy with 255 usable slots, which the batch
    rules fill, so inserts past capacity are common."""

    policy = "fixed"
    cap_exp = 8


class FloatQuerySurface(QuerySurface):
    """float64: values the halves 0.0..6.0, probes the quarters around them."""

    dtype = np.float64

    @staticmethod
    def value(k):
        return k / 2

    @staticmethod
    def probe(j):
        return j / 4


class Float32QuerySurface(FloatQuerySurface):
    """float32 on ``Narrow``: the float64 domain, every value of which
    float32 holds."""

    dtype = np.float32
    cls = Narrow


def _snapshot(bwa):
    """Slots, counts, bridges and the walk's high part, to compare a state
    with a later one."""
    return (bwa._white.tolist(), bwa._wmask.tolist(),
            bwa.total, bwa.occupancy, bwa.cap_exp, copy.deepcopy(bwa._links),
            bwa._high)


_settings = settings(max_examples=100, stateful_step_count=60, deadline=None)

TestIntQuerySurface = QuerySurface.TestCase
TestIntQuerySurface.settings = _settings
TestNarrowQuerySurface = NarrowQuerySurface.TestCase
TestNarrowQuerySurface.settings = _settings
TestUintQuerySurface = UintQuerySurface.TestCase
TestUintQuerySurface.settings = _settings
TestFixedQuerySurface = FixedQuerySurface.TestCase
TestFixedQuerySurface.settings = _settings
TestFloatQuerySurface = FloatQuerySurface.TestCase
TestFloatQuerySurface.settings = _settings
TestFloat32QuerySurface = Float32QuerySurface.TestCase
TestFloat32QuerySurface.settings = _settings
