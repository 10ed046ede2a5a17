"""Black-white array: an ordered dynamic multiset in one flat slot array.

The structure keeps a *white* array of ``2**cap_exp`` slots and a byte mask
of the same length.  The array is cut into segments: the segment of rank
``i`` spans indices ``[2**i, 2**(i+1) - 1]`` and holds ``2**i`` slots
(index 0 is never used).  The state variable ``total`` counts the slots of
the segments holding live data, and its binary form is the whole
configuration: rank ``i`` is active exactly when bit ``i`` of ``total`` is
set.  The paper's *black* array, the scratch of its pairwise merge chain,
is not needed: every write sorts inside its destination segment.

Inserting therefore behaves like incrementing a binary counter.  A new value
goes to the first slot of the rank that ``total + 1`` sets, which is free
because that rank is inactive: the rank-0 slot when that bit is clear, else
the first slot of the carry's destination, where it waits while one write
sorts it with the occupied slots of every rank the carry clears.  Inserting
a batch (``insert_many``) adds its size to the counter, with one such write
per power-of-two block, which waits in its destination the same way.
Deletion voids a slot in place; when a segment's occupancy falls to half,
its survivors move one rank down, or, when that rank is taken, wait in
their own rank and are written back up with it, which keeps every active
segment strictly more than half full.

Any ``total`` whose active ranks are each more than half full is a valid
state: inserting ``total`` values in a suitable order, then deleting the
extra values of the lowest active rank, reaches it.  The bulk constructor
``from_values`` and ``compact`` write the one with the fewest segments:
from the top rank down, each rank full until the rest fits in a lower
one, the rest in the smallest rank that holds it (``_layout``).  A query
then bisects 1-3 segments for most sizes, where the state that inserts
reach has one per set bit of ``n``.

Every active white segment is sorted over all its slots, voids included: a
delete only clears the slot's mask byte and leaves the value in place, and a
write fills its void tail with the largest value written.  So one ``bisect``
per segment finds any position, and ``find`` or ``rfind`` on the mask, one
byte per slot, finds the nearest occupied slot from there.  Queries walk
the active segments highest rank first, as a tuple of their spans, split
at the class's filter bound (``_small`` slots): those of the ranks at or
above it, which the writers keep in ``_high``, then those of the ranks
below it, from a module table (``_LOW``) indexed by the low bits of
``total``; a reader builds and stores nothing.
A *bridge* from each segment of more than ``_BRIDGED`` slots to the next
higher active one (the lookahead pointers of the cache-oblivious lookahead
array, a form of fractional cascading) bounds its bisection to a window of
about ``_LOOKAHEAD`` slots.
Probes read single slots through a ``memoryview`` of the slots, as plain
Python scalars compared exactly with a probe of any numeric type; numpy
works whole ranges (writes, drains, bridges), reading the mask as a bool
array over the same bytes.

Thread-safety: none is provided.  Mutating calls need exclusive access;
read-only calls (search, bounds, extremes, interval, iteration, stats,
validate) may run concurrently with each other when no writer is active.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import compress
import operator
from typing import Iterator, Optional

import numpy as np


class GrowthPolicy(Enum):
    """What insert does when every slot of every rank is spoken for."""

    GROW = "grow"
    FIXED = "fixed"


class CapacityExceeded(RuntimeError):
    """Insert into a full array under the fixed growth policy."""


@dataclass
class Counters:
    """Cost instrumentation.

    ``comparisons`` counts element comparisons only (void checks are free).
    A query probes each active segment with one bisection over a window of
    ``w`` slots, charged ``w.bit_length()`` (the most a bisection over ``w``
    slots takes): ``r + 1`` for a whole rank-``r`` segment, less where a
    bridge narrows the window.  A search then compares the slot at the
    bisection point with the probe (1), and the next occupied slot as well
    (1) when that slot is a void holding the probe.  A rank is charged so
    without being bisected when the search filter rules the probe out of
    it (``BlackWhiteArray.search``): ``r + 1``, and 1 more unless its last
    slot is below the probe.  Bounds and extremes
    charge 1 per fold of two segments' candidates.  An interval charges 1
    for its early-out test of ``hi`` against the slot at the ``lo``
    bisection point.  When that test passes, ``hi`` is charged as a
    bisection over the window of ``_LOOKAHEAD`` slots from that point (a
    range that ends inside it is read slot by slot), and over the rest of
    the segment only when the range runs past it.  ``moves`` counts slot
    writes, void padding included.  ``grows`` counts capacity doublings.

    Every write of a run of ``k`` values into rank ``r``, together with the
    ranks ``low .. r - 1`` it clears, is charged by one rule.  A scalar
    carry (one value from rank 0 up) or a demotion's survivors are charged
    what the pairwise chain of the binary-counter insert costs: ``r - low``
    merges (the run with rank ``low``, the result with the next rank, ...),
    each writing a whole segment, so ``2 * (2**r - 2**low) + k`` moves with
    the run's own slots, and what a two-pointer merge of each pair's
    occupied values compares.  Ranks 0 and 1 are full when active, so a
    carry into 2 or 4 slots has the runs (1, 1) or (1, 1, 2), and the few
    comparisons with which ``insert`` sorts them give its count: 1, or 3
    or 4; any other such write is counted by ``_chain_comparisons`` from
    its runs as gathered in the destination, before one sort orders them.
    An ``insert_many`` block, and each rank ``compact`` writes, is sorted,
    not merged pairwise: one merge, ``2**r`` moves and no comparisons.
    Beyond writes, an insert into rank 0 and a delete move one slot each,
    and a demotion counts one ``demotes``; rank 1's, a re-insert of its
    survivor, is charged that insert: 1 comparison, 1 merge and 3 moves
    with rank 0's value into rank 1, or 1 move into rank 0.  Bridge builds
    and the search filter's upkeep charge nothing.  ``from_values`` leaves
    every counter at 0.
    """

    comparisons: int = 0
    moves: int = 0
    merges: int = 0
    demotes: int = 0
    grows: int = 0

    def reset(self) -> None:
        self.__init__()     # every field back to its default


@dataclass(frozen=True)
class Stats:
    size: int                      # occupied slots
    slot_count: int                # active slots, voids included (== total)
    occupancy: dict[int, float]    # active rank -> occupied fraction
    capacity: int


def _chain_comparisons(runs, counts, start) -> int:
    """Comparisons of merging sorted runs pairwise, each merge charged what
    a two-pointer merge compares (ties drawn from the runs merged so far,
    the tail left when one run is exhausted copied for free): the first run
    with the second, the result with the third, and so on.  ``_write``
    passes the slot view as ``runs`` and its destination's first slot as
    ``start``, from which the runs lie back to back, none empty, with the
    lengths ``counts``.  With ``C`` the
    runs merged so far and ``W`` the next, a merge costs ``|C| +
    bisect_left(W, max C)`` when ``max C <= max W``, else ``|W| + #(C <=
    max W)``, which bisects only the runs of ``C`` ending above ``max W``."""
    i = start + counts[0]
    top = runs[i - 1]
    done = [(start, i, top)]            # the runs of C: first, end, last value
    cmp = 0
    for n in counts[1:]:
        e = i + n
        last = runs[e - 1]
        if top <= last:                 # |C| is i - start
            cmp += bisect_left(runs, top, i, e) - start
            top = last
        else:
            cmp += n
            for lo, hi, x in done:
                cmp += (hi if x <= last else
                        bisect_right(runs, last, lo, hi)) - lo
        done.append((i, e, last))
        i = e
    return cmp


def _layout(n: int, cap_exp: int) -> list[tuple[int, int]]:
    """The compact layout of ``n < 2**cap_exp`` values as ``(rank, count)``
    pairs, top rank first: walking down from rank ``cap_exp - 1``, each
    rank is filled completely until the rest fits in a lower one, and the
    rest goes to the smallest rank that holds it, which it fills to more
    than half.  So the layout has no more segments than ``n`` has set bits,
    and most ``n`` need 1-3."""
    out = []
    r = cap_exp - 1
    while n:
        q = (n - 1).bit_length()            # the smallest rank that holds n
        if q <= r:
            out.append((q, n))
            break
        out.append((r, 1 << r))
        n -= 1 << r
        r -= 1
    return out


# rank r's segment as a query's walk reads it: its first slot, its end, and
# r + 1, the charge of a bisection over the whole segment; a walk is a tuple
# of these, highest rank first, split at the filter bound ``_small``: the
# high part the writers keep (``_high``), then the low part of ``_LOW``
_SPANS = tuple((1 << r, 2 << r, r + 1) for r in range(64))

# the ranks of fewer slots than an instance's bound ``_small``, at most this,
# keep the values of their slots in a set, which lets a search miss skip them
# (``BlackWhiteArray.search``); ``_LOW`` and ``_MISSED`` cover the ranks
# below this, so they serve every bound
_FILTERED = 1 << 8


def _high(t: int, small: int) -> tuple:
    """The spans of the ranks of ``small`` or more slots set in ``t``,
    highest first: the high part of the walk, which the writers keep
    current in ``_high`` as they change ``total``."""
    return tuple(_SPANS[r] for r in range(t.bit_length() - 1,
                                          small.bit_length() - 2, -1)
                 if t >> r & 1)


# the low part of the walk: the spans of the ranks set in t < _FILTERED
_LOW = tuple(tuple(_SPANS[r] for r in range(t.bit_length() - 1, -1, -1)
                   if t >> r & 1) for t in range(_FILTERED))

# the charge of a search that its filter rules out of the ranks set in
# rest < _FILTERED: (sum of r + 2 over them, the index of each one's last
# slot), 1 less for every last slot below the probe (``search``)
_MISSED = tuple((sum(c + 1 for _, _, c in spans),
                 tuple(e - 1 for _, e, _ in spans)) for spans in _LOW)


def _plain(value):
    """A numpy scalar or 0-d array as the Python scalar it equals, which
    hashes as the equal Python number does.  Python compares an int with a
    float exactly; numpy rounds the int to a float first."""
    if isinstance(value, (np.generic, np.ndarray)) and not value.ndim:
        return value.item()
    return value


def _index(i, name: str, lo: int, hi: int) -> int:
    """``i`` as a Python int in ``[lo, hi]``: TypeError for a value that is
    no integer (numpy integers are), ValueError outside the range."""
    i = operator.index(i)
    if not lo <= i <= hi:
        raise ValueError(f"{name} {i} outside [{lo}, {hi}]")
    return i


class BlackWhiteArray:
    """Ordered multiset over numeric values with amortized-logarithmic ops.

    Slots live in one numpy array; a byte mask (a ``bytearray`` that numpy
    sees as a bool array) marks which slots hold a value, so voids never
    occupy a value of the element domain.  Values must be totally ordered
    under the dtype: ``int64`` by default, or any native bool, integer,
    ``float32`` or ``float64`` dtype (others raise ValueError).

    ``cap_exp`` is the capacity exponent: the white array holds
    ``2**cap_exp`` slots of which ``2**cap_exp - 1`` are usable.
    """

    _LOOKAHEAD = 16   # slots of a lower segment per bridge entry (a power of 2)
    _BRIDGED = 1 << 14  # segments of more slots get a bridge, see _bridge;
                        # at least 4, as ``insert``'s closed form assumes

    def __init__(self, cap_exp: int, policy: GrowthPolicy | str = GrowthPolicy.GROW,
                 dtype=np.int64) -> None:
        if cap_exp < 1:
            raise ValueError("cap_exp must be at least 1 (no segment would exist)")
        self.cap_exp = cap_exp
        self.policy = GrowthPolicy(policy)
        self.dtype = np.dtype(dtype)
        if not (self.dtype.isnative and self.dtype.char in "?bBhHiIlLqQfd"):
            raise ValueError(f"dtype {self.dtype} is not a native bool, integer, "
                             "float32 or float64 dtype")
        n = 1 << cap_exp
        self._white = np.zeros(n, dtype=self.dtype)
        self._mask = bytearray(n)           # 1 per occupied slot
        self._build_views()
        self._occ = [0] * cap_exp       # occupied-slot count per white rank
        self._links = [None] * cap_exp  # bridge per white rank, see _bridge
        # ranks of fewer slots than _small are filtered: _filter holds every
        # value of their slots, voids and padding included (a superset)
        self._small = min(_FILTERED, 1 << self._BRIDGED.bit_length())
        self._filter = set()
        self._total = 0
        self._high = ()                 # _high(total, _small), kept by writers
        self.counters = Counters()

    def __getstate__(self) -> dict:
        # memoryviews do not pickle, and the mask's bool view would come
        # back as a copy of it; __setstate__ builds them again
        return {k: v for k, v in self.__dict__.items()
                if k != "_wmask" and not isinstance(v, memoryview)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_views()

    # -- bookkeeping views ------------------------------------------------

    @property
    def total(self) -> int:
        """Slot count of all active segments, void slots included."""
        return self._total

    @property
    def capacity(self) -> int:
        return 1 << self.cap_exp

    @property
    def occupancy(self) -> tuple[int, ...]:
        """Occupied-slot count per rank (zero on inactive ranks)."""
        return tuple(self._occ)

    def __len__(self) -> int:
        return sum(self._occ)

    def __contains__(self, value) -> bool:
        return self.search(value) is not None

    def __iter__(self) -> Iterator:
        return self.iter_sorted()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(len={len(self)}, total={self._total}, "
                f"capacity=2**{self.cap_exp})")

    def seg_bounds(self, rank: int) -> tuple[int, int]:
        """First and last slot index of the segment of ``rank``."""
        s = 1 << _index(rank, "rank", 0, self.cap_exp - 1)
        return s, (s << 1) - 1

    def is_active(self, rank: int) -> bool:
        """Whether the white segment of ``rank`` holds live data."""
        rank = _index(rank, "rank", 0, self.cap_exp - 1)
        return bool((self._total >> rank) & 1)

    def rank_of(self, index: int) -> int:
        """Rank of the segment containing a white-array index."""
        index = _index(index, "index", 1, (1 << self.cap_exp) - 1)
        return index.bit_length() - 1

    def segment_slots(self, rank: int) -> list:
        """Slot contents of an active segment, ``None`` marking voids."""
        s, t = self.seg_bounds(rank)
        if not self._total & s:
            raise ValueError(f"rank {rank} is not active")
        vals = self._white[s:t + 1].tolist()
        mask = self._wmask[s:t + 1].tolist()
        return [v if o else None for v, o in zip(vals, mask)]

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(cls, values, cap_exp: Optional[int] = None,
                    policy: GrowthPolicy | str = GrowthPolicy.GROW,
                    dtype=np.int64) -> "BlackWhiteArray":
        """Bulk constructor: ``values`` in the compact layout
        (``_layout``), and the policy's answer to a ``cap_exp`` too small.
        All or nothing, as ``insert_many``, whose state on an empty
        structure is the one inserting ``values`` in order reaches.
        Counters stay at zero."""
        if cap_exp is None:
            if not hasattr(values, "__len__"):  # a generator, a map: read once
                values = list(values)
            cap_exp = max(1, len(values).bit_length())
        bwa = cls(cap_exp, policy=policy, dtype=dtype)
        batch = bwa._batch(values)
        bwa._reserve(batch)
        bwa._fill(batch)
        bwa.counters.reset()
        return bwa

    # -- mutation ---------------------------------------------------------

    def insert(self, value) -> None:
        """Add one value; duplicates accumulate.  A value the dtype cannot
        hold exactly raises as in ``insert_many`` and changes nothing, even
        when a full structure would raise CapacityExceeded or grow.

        A carry into 2 or 4 slots is written here: ranks 0 and 1 are full
        when active, so its runs are (1, 1) or (1, 1, 2), sorted and
        counted in closed form.  A larger carry is ``_write``'s."""
        if type(value) is not int and isinstance(value, np.integer):
            value = int(value)              # compared exactly, as Python ints are
        total = self._total
        if total == (1 << self.cap_exp) - 1:
            self._reserve(self._batch((value,)))  # the value checked first
        s = (total + 1) & ~total            # the first slot of the rank that
        wv = self._wv                       # total + 1 sets: inactive, so free
        # stored through the view, read back and compared; what the view
        # refuses (7.0 on an integer dtype, an int beyond the dtype's range)
        # is stored by numpy after _batch checks it
        try:
            wv[s] = value
        except (TypeError, ValueError, OverflowError):
            self._white[s] = self._batch((value,))[0]
        if wv[s] != value:
            self._batch((value,))           # raises: the dtype changed value
        if s < self._small:                 # a plain value as given, which
            self._filter.add(               # holds no new object alive
                value if type(value) is int or type(value) is float else wv[s])
        if s == 1:
            self._mask[1] = 1
            self._occ[0] = 1
            self._total = total + 1
            self.counters.moves += 1
        elif s <= 4:
            # into rank s >> 1, neither bridged nor in the walk's high part
            # (``_BRIDGED``); the chain's charge is s >> 1 merges and
            # 2 * s - 1 moves (``Counters``)
            mask = self._mask
            x, y = wv[s], wv[1]
            p, q = (x, y) if x <= y else (y, x)
            if s == 2:
                wv[2], wv[3] = p, q
                mask[2] = mask[3] = 1
                cmp = 1
            else:                           # then (p, q) with rank 1's (c, d)
                c, d = wv[2], wv[3]
                if q <= c:
                    wv[4], wv[5], wv[6], wv[7] = p, q, c, d
                    cmp = 3
                elif d < p:
                    wv[4], wv[5], wv[6], wv[7] = c, d, p, q
                    cmp = 3
                else:                       # the runs interleave: c < q, p <= d
                    wv[4], wv[5] = (p, c) if p <= c else (c, p)
                    wv[6], wv[7] = (q, d) if q <= d else (d, q)
                    cmp = 4
                mask[4] = mask[5] = mask[6] = mask[7] = 1
            occ = self._occ
            occ[0] = occ[1] = 0
            occ[s >> 1] = s
            self._total = total + 1
            ctr = self.counters
            ctr.comparisons += cmp
            ctr.merges += s >> 1
            ctr.moves += 2 * s - 1
        else:
            # the carry of total + 1: the value and the ranks below s into s
            self._write(s.bit_length() - 1, 1, 0, True)

    _insert = insert    # ``_demote``'s re-insert, past a subclass's ``insert``

    def insert_many(self, values) -> None:
        """Add every value of ``values``, leaving slot for slot the state
        that ``for v in values: insert(v)`` would leave.

        All or nothing: a value the dtype cannot hold exactly, or a batch
        that would pass capacity under the fixed policy, raises before the
        structure changes.  The batch is added to ``total`` like a number
        to a binary counter, in aligned power-of-two blocks: each block is
        as large as the lowest set bit of ``total`` and the values left
        allow, and is sorted once together with the occupied values of the
        ranks its carry clears, into the rank it sets.
        """
        batch = self._batch(values)
        self._reserve(batch)
        k = batch.size
        done = 0
        while done < k:
            total = self._total
            size = 1 << ((k - done).bit_length() - 1)
            if total:
                size = min(size, total & -total)
            s = (total + size) & ~total     # the first slot of the rank
            # total + size sets, free: the block waits there newest first,
            # as the scalar loop leads ties (-0.0, 0.0) with it
            self._white[s:s + size] = batch[done:done + size][::-1]
            self._write(s.bit_length() - 1, size, size.bit_length() - 1)
            done += size

    def compact(self) -> None:
        """Rewrite the live values into the compact layout (``_layout``),
        in the fewest segments the capacity allows, which does not change.

        The values are written into a fresh structure of the same capacity,
        whose whole state, this structure's ``Counters`` object in place of
        its own, is adopted only once every rank is written, so a failure
        (a ``MemoryError``, say) leaves the structure and its counters as
        they were.  Each rank
        written is charged as ``_write`` charges a lone run: one merge and
        the rank's ``2**rank`` slots as moves, no comparisons."""
        fresh = type(self)(self.cap_exp, self.policy, self.dtype)
        fresh._fill(self._live())
        counters = self.counters
        counters.merges += fresh.counters.merges
        counters.moves += fresh.counters.moves
        fresh.counters = counters
        self.__dict__ = vars(fresh)

    def delete(self, value) -> Optional[int]:
        """Void one occurrence; returns the slot index it held, or None."""
        idx = self.search(value)
        if idx is None:
            return None
        self._delete_at(idx)
        return idx

    def extract_min(self):
        """Remove and return the smallest value, or None when empty."""
        return self._first(True)

    def extract_max(self):
        """Remove and return the largest value, or None when empty."""
        return self._last(True)

    # -- queries ------------------------------------------------------------

    def search(self, value) -> Optional[int]:
        """White-array index of one occurrence of ``value``, or None.

        Active segments are probed from the highest rank down, which ends
        sooner on average when a value is stored more than once: first the
        ranks of ``_small`` or more slots (``_high``), then, when their
        filter holds the value, the ranks below (``_LOW``).  A value the
        filter does not hold is in none of their slots: they are charged
        what their bisections and compares would be (``_MISSED``), and
        none is read but its last slot.
        """
        if type(value) is not int and type(value) is not float:
            value = _plain(value)
        wv, links, bridged = self._wv, self._links, self._BRIDGED
        rest = self._total & (self._small - 1)  # filtered ranks, walked last
        walk = self._high
        cmp = i = 0
        while True:
            for s, e, c in walk:
                if s <= bridged or (link := links[c - 1]) is None:
                    # a small rank, or the top
                    i = bisect_left(wv, value, s, e)
                    cmp += c
                else:                       # i is the rank above's point
                    m, base, shift = link
                    j = (i - base) >> shift
                    a, b = m[j], m[j + 1]
                    i = bisect_left(wv, value, a, b)
                    cmp += (b - a).bit_length()
                if i == e:
                    continue
                cmp += 1
                if wv[i] != value:          # then every slot from i on is > value
                    continue
                k = i
                if not self._mask[k]:       # k is void: the first occupied
                    k = self._mask.find(1, k, e)  # slot after it may match
                    if k < 0:
                        continue
                    cmp += 1
                    if wv[k] != value:
                        continue
                self.counters.comparisons += cmp
                return k
            if not rest:
                break
            if value not in self._filter:
                # in none of their slots: each is charged its bisection,
                # and the compare where bisect_left stops, before e unless
                # slot e - 1 is below value
                charge, lasts = _MISSED[rest]
                for k in lasts:
                    if wv[k] < value:
                        charge -= 1
                cmp += charge
                break
            walk, rest = _LOW[rest], 0
        self.counters.comparisons += cmp
        return None

    def minimum(self):
        """Smallest stored value, or None when empty."""
        return self._first(False)

    def maximum(self):
        """Largest stored value, or None when empty."""
        return self._last(False)

    def lower_bound(self, value):
        """Smallest stored value strictly greater than ``value``, or None."""
        return self._nearest(True, value)

    def upper_bound(self, value):
        """Largest stored value strictly smaller than ``value``, or None."""
        return self._nearest(False, value)

    def interval(self, lo, hi) -> list:
        """All stored values in ``[lo, hi]`` ascending, duplicates included."""
        if lo > hi:                         # as the caller's types compare
            raise ValueError(f"interval requires lo <= hi, got ({lo}, {hi})")
        if type(lo) is not int and type(lo) is not float:
            lo = _plain(lo)
        if type(hi) is not int and type(hi) is not float:
            hi = _plain(hi)
        t = self._total & (self._small - 1)
        walk = self._high + _LOW[t] if t else self._high
        wv, mask, links = self._wv, self._mask, self._links
        bridged = self._BRIDGED
        window = self._LOOKAHEAD
        out = []
        cmp = i = 0
        for s, e, c in walk:
            if s <= bridged or (link := links[c - 1]) is None:
                i = bisect_left(wv, lo, s, e)   # a small rank, or the top
                cmp += c
            else:                           # i is the rank above's point
                m, base, shift = link
                j = (i - base) >> shift
                a, b = m[j], m[j + 1]
                i = bisect_left(wv, lo, a, b)
                cmp += (b - a).bit_length()
            if i == e:
                continue
            cmp += 1
            if hi < wv[i]:                  # nothing of the segment in range
                continue
            b = i + window if i + window < e else e
            cmp += (b - i).bit_length()     # hi, as bisected over the window
            if hi < wv[b - 1]:              # a narrow range ends in it: read
                k, x = i, wv[i]             # up to the first slot above hi
                while x <= hi:
                    if mask[k]:
                        out.append(x)
                    k += 1
                    x = wv[k]
                continue
            k = b
            if b < e:
                k = bisect_right(wv, hi, b, e)
                cmp += (e - b).bit_length()
            out += compress(wv[i:k].tolist(), mask[i:k])
        self.counters.comparisons += cmp
        out.sort()                          # merges the presorted runs
        return out

    def iter_sorted(self) -> Iterator:
        """All stored values ascending: the occupied slots of every active
        segment, sorted once."""
        values = self._live()
        self._sort(values, True)
        return iter(values.tolist())

    def stats(self) -> Stats:
        t = self._total
        occupancy = {r: self._occ[r] / (1 << r)
                     for r in range(t.bit_length()) if (t >> r) & 1}
        return Stats(size=sum(self._occ), slot_count=self._total,
                     occupancy=occupancy, capacity=1 << self.cap_exp)

    def validate(self) -> list[str]:
        """Recheck every structural invariant from the raw slots.

        Returns violation messages; an empty list means the state is sound.
        """
        problems = []
        cap = 1 << self.cap_exp
        if not self._white.size == len(self._mask) == cap:
            problems.append(
                f"slot and mask lengths ({self._white.size}, "
                f"{len(self._mask)}) do not match capacity 2**{self.cap_exp}")
        if not 0 <= self._total < cap:
            problems.append(f"total {self._total} outside [0, {cap - 1}]")
        if len(self._occ) != self.cap_exp:
            problems.append("occupancy vector length differs from cap_exp")
        for rank in range(min(self.cap_exp, len(self._occ))):
            s = 1 << rank
            if not (self._total >> rank) & 1:
                if self._occ[rank] != 0:
                    problems.append(
                        f"rank {rank}: inactive but occupancy count is "
                        f"{self._occ[rank]} (total/active mismatch)")
                continue
            m = self._wmask[s:s << 1]
            n = int(m.sum())
            if n != self._occ[rank]:
                problems.append(
                    f"rank {rank}: {n} occupied slots found, "
                    f"{self._occ[rank]} recorded (total/active mismatch)")
            if rank == 0:
                if n != 1:
                    problems.append("rank 0: active but its slot is void")
            elif n << 1 <= s:
                problems.append(
                    f"rank {rank}: occupancy {n}/{s} not above one half")
            seg = self._white[s:s << 1]
            if not bool((seg[1:] >= seg[:-1]).all()):
                problems.append(f"rank {rank}: slots not sorted (voids included)")
            if s < self._small:
                lost = [x for x in seg.tolist() if x not in self._filter]
                if lost:
                    problems.append(f"rank {rank}: slot values {lost} missing "
                                    "from the filter")
        if self._high != _high(self._total, self._small):
            problems.append(f"walk's high ranks {self._high} stale for "
                            f"total {self._total}")
        if len(self._links) != self.cap_exp:
            problems.append("bridge list length differs from cap_exp")
        for rank, link in enumerate(self._links[:self.cap_exp]):
            want = self._bridge(rank)
            if link != want:
                problems.append(f"rank {rank}: bridge "
                                f"{'missing' if link is None else 'stale'}")
        return problems

    def dump(self) -> str:
        """One line per active segment, highest rank first:
        ``rank=<r> [v,...]`` with ``·`` marking void slots."""
        lines = []
        for rank in range(self.cap_exp - 1, -1, -1):
            if (self._total >> rank) & 1:
                cells = ",".join("·" if v is None else str(v)
                                 for v in self.segment_slots(rank))
                lines.append(f"rank={rank} [{cells}]")
        return "\n".join(lines)

    # -- internals ----------------------------------------------------------

    def _reserve(self, batch: np.ndarray) -> None:
        """Make room for the checked values ``batch``: past capacity, raise
        CapacityExceeded under the fixed policy, else grow once as needed."""
        need = (self._total + batch.size).bit_length()
        if need > self.cap_exp:
            if self.policy is GrowthPolicy.FIXED:
                raise CapacityExceeded(
                    f"no room for {batch.size} more: {self._total} of "
                    f"{(1 << self.cap_exp) - 1} usable slots are in use")
            self._grow(need)

    def _grow(self, cap_exp: int) -> None:
        """Resize to ``2**cap_exp`` white slots in one step."""
        n = (1 << cap_exp) - self._white.size
        self._white = np.concatenate([self._white, np.zeros(n, dtype=self.dtype)])
        self._mask = self._mask + bytearray(n)  # numpy holds the old one
        self._occ += [0] * (cap_exp - self.cap_exp)
        self._links += [None] * (cap_exp - self.cap_exp)
        self.counters.grows += cap_exp - self.cap_exp
        self.cap_exp = cap_exp
        self._build_views()

    def _build_views(self) -> None:
        """The slot view for the probe path and the scalar insert's check,
        and the mask as numpy's writable bool view of the same bytes."""
        self._wv = self._white.data
        self._wmask = np.frombuffer(self._mask, dtype=bool)

    def _batch(self, values) -> np.ndarray:
        """``values`` as a 1-D array of the dtype.  A batch of another shape
        raises ValueError before any value is looked at.  A value the dtype
        cannot hold exactly raises, and the first such value is named: an
        integer outside an integer dtype's range raises OverflowError (``N
        does not fit in int64``), any other ValueError (``V is not exactly
        representable in float64``): a fraction on an integer dtype, NaN,
        an integer a float dtype would round or cannot reach."""
        if isinstance(values, np.ndarray) and values.dtype == self.dtype:
            batch, given = values, None
        else:
            # any other iterable is read once, into the list numpy converts;
            # numpy integers as Python ints: numpy would compare them rounded
            if isinstance(values, np.ndarray):
                given = values.tolist()
            else:
                values = given = [int(v) if isinstance(v, np.integer) else v
                                  for v in values]
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # checked below
                    batch = np.asarray(values, dtype=self.dtype)
            except (OverflowError, ValueError):  # an int too large for
                batch = None                     # numpy, NaN to an int, ...
        if batch is None:                   # the shape before the values
            ndim = np.asarray(given, dtype=object).ndim
            if ndim == 1 and any(isinstance(g, (list, tuple)) or np.ndim(g)
                                 for g in given):   # rows of unequal length
                raise ValueError(
                    "values must form a 1-D batch, not a ragged one")
        else:
            ndim = batch.ndim
        if ndim != 1:
            raise ValueError(f"values must form a 1-D batch, not {ndim}-D")
        if batch is not None and batch.dtype.kind == "f" and np.isnan(batch).any():
            raise ValueError("NaN has no place in the order")
        if given is not None and (batch is None or batch.tolist() != given):
            v = next(g for g in given if not self._holds(g))
            if isinstance(v, int) and self.dtype.kind in "iu":
                raise OverflowError(f"{v} does not fit in {self.dtype}")
            raise ValueError(f"{v!r} is not exactly representable in {self.dtype}")
        return batch

    def _holds(self, value) -> bool:
        """Whether the dtype holds the scalar ``value`` exactly."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return np.asarray(value, dtype=self.dtype).item() == value
        except (OverflowError, ValueError):
            return False

    def _write(self, rank: int, k: int, low: int, chain: bool = False) -> None:
        """Fill white rank ``rank`` with the run of ``k`` values waiting in
        its first ``k`` slots and the occupied slots of ranks ``low .. rank
        - 1`` (``[2**low, 2**rank)``, which it clears), sorted with ties in
        that order, the void tail padded with the largest value: every
        write but ``insert``'s carries into 2 and 4 slots, in one shape,
        the sources gathered behind the run and one sort.  ``chain``
        says the run is sorted and charges the pairwise chain (``Counters``
        states both charges).  Into a filtered rank, a sorted run joins the
        filter.  A chain's run is there already, as are the values of the
        ranks it clears: ``insert`` adds its value, and ``_demote`` the
        survivors it brings down from an unfiltered rank.  A write that
        empties every filtered rank clears the filter.  Occupancy, ``total``
        and the walk's high part (``_high``), the charge and bridges are
        recorded after the slots, so a write that raises leaves them as
        they were (the filter may keep the run)."""
        s = 1 << rank
        a = 1 << low
        occ = self._occ
        cmp = 0
        small = self._small
        if s < small and not chain:
            self._filter.update(self._white[s:s + k].tolist())
        counts = occ[low:rank]              # none: the run alone
        n = sum(counts)
        voids = n < s - a                   # a source slot is void
        white, wmask = self._white, self._wmask
        n += k
        if counts:                          # gathered behind the run, the
            white[s + k:s + n] = (          # mask read only over a void
                white[a:s][wmask[a:s]] if voids else white[a:s])
            if chain:
                cmp = _chain_comparisons(self._wv, [k, *counts], s)
            self._sort(white[s:s + n], chain)
        elif not chain:                     # a lone sorted run is in order
            self._sort(white[s:s + n], False)
        wmask[s:s + n] = True
        if n < s:                           # the void tail
            white[s + n:s << 1] = white[s + n - 1]
            wmask[s + n:s << 1] = False
        occ[low:rank] = [0] * (rank - low)
        occ[rank] = n
        total = self._total
        self._total = total & ~(s - a) | s
        if s >= small:                      # the walk's high part
            high = self._high
            if a < small and not total & s:
                # a carry from below small slots into a free rank has
                # cleared every rank from low up: it drops the last spans
                # of high, one per rank from small up to s (the form below
                # cost about 0.5 us more a carry in an insert stream)
                self._high = (high[:len(high) - (s - small).bit_count()]
                              + (_SPANS[rank],))
            else:
                # the spans above rank kept, rank's, then those of the
                # ranks below low kept (a demotion may leave some)
                below = (total & (a - 1) & -small).bit_count()
                self._high = (high[:(total >> (rank + 1)).bit_count()]
                              + (_SPANS[rank],) + high[len(high) - below:])
        ctr = self.counters
        if chain:
            ctr.comparisons += cmp
            ctr.merges += rank - low
            ctr.moves += 2 * (s - a) + k
        else:
            ctr.merges += 1
            ctr.moves += s
        if s > self._BRIDGED:
            self._relink(rank)
        if s >= small and not self._total & (small - 1):
            self._filter = set()            # no filtered rank is left

    def _refilter(self) -> None:
        """Rebuild the filter from the slots of the active filtered ranks.

        A value can leave the filtered slots and stay in the filter: a void
        a write drops, a rank a demotion writes up, rank 0's voided slot.
        A carry that empties the filtered ranks clears the filter, and
        ``total`` only grows between the steps that lower it, demotions
        and rank 0's deactivation, so fewer than ``_small`` values are
        added before such a carry comes.  Those steps rebuild the filter
        once it holds more than twice ``_small`` values, which keeps it
        below three times that."""
        self._filter = set()
        for s, e, _ in _LOW[self._total & (self._small - 1)]:
            self._filter.update(self._white[s:e].tolist())

    def _live(self) -> np.ndarray:
        """A new array of the occupied slots of every active segment, one
        sorted run per segment, lowest rank first."""
        t = self._total
        parts = [self._white[1 << r:2 << r][self._wmask[1 << r:2 << r]]
                 for r in range(t.bit_length()) if (t >> r) & 1]
        return np.concatenate(parts) if parts else np.empty(0, self.dtype)

    def _fill(self, batch: np.ndarray) -> None:
        """Write the checked values ``batch`` into an empty structure in
        ``_layout``: each chunk waits in the first slots of its rank, top
        rank first, and ``_write`` sorts and records it."""
        white = self._white
        done = 0
        for rank, k in _layout(batch.size, self.cap_exp):
            s = 1 << rank
            white[s:s + k] = batch[done:done + k]
            self._write(rank, k, rank)
            done += k

    def _sort(self, seg: np.ndarray, runs: bool) -> None:
        """Sort ``seg`` in place, ties kept in order.  Tied floats differ
        only as -0.0 and 0.0, which numpy's default sort may swap or copy
        over each other: sorted ``runs`` of floats are merged stably, other
        floats sorted with their zeros written back in order.  Each form is
        the cheaper one where it is used: on runs the write-back's extra
        calls cost more than the stable merge, on an unsorted block the
        stable sort is several times slower than the default one."""
        if self.dtype.kind != "f":
            seg.sort()
        elif runs:
            seg.sort(kind="stable")
        else:
            zeros = seg[seg == 0]
            seg.sort()
            seg[seg.searchsorted(0):][:zeros.size] = zeros

    def _demote(self, rank: int) -> None:
        """Move a half-empty segment's survivors one rank down.

        Requires occupancy exactly half, so the survivors fill the lower
        segment completely.  If the lower rank already holds data, they are
        written back into ``rank`` with it; either way occupancy ends above 75%.

        Rank 1's one survivor is inserted again by this class's ``insert``
        (``_insert``, which a subclass's wrapper of ``insert`` does not
        see): into rank 0, or with rank 0's value into rank 1, with the
        slots and charges of either move.  When the filter's add in that
        insert raises, no slot but the survivor's destination has changed,
        and rank 1 is made active again, as the void left it.
        """
        if rank == 1:
            wv = self._wv
            v = wv[2] if self._mask[2] else wv[3]
            self._occ[1] = 0
            self._total -= 2
            try:
                self._insert(v)
            except MemoryError:             # from the filter's add
                self._occ[1] = 1
                self._total += 2
                raise
        else:
            s = 1 << rank
            k = self._occ[rank]
            taken = (self._total >> (rank - 1)) & 1
            d = s if taken else s >> 1      # the destination, where the
            self._white[d:d + k] = (        # survivors wait
                self._white[s:s << 1][self._wmask[s:s << 1]])
            if d < self._small <= s:        # into the filtered ranks
                self._filter.update(self._white[d:d + k].tolist())
            if not taken:                   # rank - 1 is free: move there
                self._occ[rank] = 0
                self._total -= s
                self._links[rank] = None    # a bridge needs an active rank
                if s >= self._small:        # out of the walk's high part
                    n = (self._total >> rank).bit_count()
                    self._high = self._high[:n] + self._high[n + 1:]
            self._write(rank - 1 + taken, k, rank - 1, True)
        self.counters.demotes += 1
        if len(self._filter) > self._small << 1:
            self._refilter()

    def _bridge(self, rank: int) -> Optional[tuple]:
        """The bridge of ``rank`` as the raw slots define it, or None.

        Only an active rank of more than ``_BRIDGED`` slots below another
        active rank has one.  A smaller segment is bisected mostly in
        cache, where reading a bridge costs about what it saves, while
        building one costs about 50 ns an entry, on every write of the
        segment or of the rank above.

        With ``u`` the next higher active rank and ``stride = _LOOKAHEAD *
        2**(u - rank)``, the bridge is ``(marks, base, shift)``.  ``marks``
        holds the segment's first slot, then for every ``stride``-th slot
        of ``u`` the slot where ``bisect_left`` would put that slot's value
        in this segment, then the segment's end.  A probe bisected to slot
        ``i`` of ``u`` lands, bisected on the same side, in ``[marks[j],
        marks[j + 1]]`` of this segment, where ``j = (i - base) >> shift``
        counts the sampled slots before ``i``.
        """
        t = self._total
        s = 1 << rank
        above = t >> (rank + 1)
        if not above or s <= self._BRIDGED or not (t >> rank) & 1:
            return None
        u = rank + (above & -above).bit_length()
        su = 1 << u
        stride = self._LOOKAHEAD << (u - rank)
        white = self._white
        # every mark is at most 2**(rank + 1), so below rank 31 it fits in
        # 32 bits
        code, kind = ("I", np.uintc) if rank < 31 else ("q", np.int64)
        marks = array(code, (s,))
        inner = white[s:s << 1].searchsorted(white[su:su << 1:stride]) + s
        marks.frombytes(inner.astype(kind).tobytes())
        marks.append(s << 1)
        return marks, su + 1 - stride, stride.bit_length() - 1

    def _relink(self, rank: int) -> None:
        """Rebuild the bridges after a write to the white segment of
        ``rank`` (or its deactivation) that may have deactivated ranks
        below it: every rank from ``rank`` down to the second active one
        met, whose next higher active rank may have changed.  Ranks further
        down keep theirs."""
        t = self._total
        links = self._links
        met = 0
        for q in range(rank, self._BRIDGED.bit_length() - 1, -1):
            if not (t >> q) & 1:
                links[q] = None
                continue
            links[q] = self._bridge(q)
            met += 1
            if met == 2:
                return

    def _delete_at(self, idx: int) -> None:
        rank = idx.bit_length() - 1
        self._mask[idx] = 0
        self.counters.moves += 1
        occ = self._occ[rank] - 1
        self._occ[rank] = occ
        if rank == 0:
            self._total -= 1          # sole slot voided: deactivate in place
            if len(self._filter) > self._small << 1:
                self._refilter()
        elif occ << 1 <= 1 << rank:
            self._demote(rank)

    def _nearest(self, above: bool, value):
        """The smallest stored value ``> value`` (``above``) or the largest
        ``< value``, or None.  Ranks are walked highest first, so a tie goes
        to the later candidate: the lower rank."""
        t = self._total & (self._small - 1)
        walk = self._high + _LOW[t] if t else self._high
        wv, mask, links = self._wv, self._mask, self._links
        bridged = self._BRIDGED
        if type(value) is not int and type(value) is not float:
            value = _plain(value)
        bisect = bisect_right if above else bisect_left
        best = None
        cmp = i = 0
        for s, e, c in walk:
            if s <= bridged or (link := links[c - 1]) is None:
                i = bisect(wv, value, s, e)     # a small rank, or the top
                cmp += c
            else:                           # i is the rank above's point
                m, base, shift = link
                j = (i - base) >> shift
                a, b = m[j], m[j + 1]
                i = bisect(wv, value, a, b)
                cmp += (b - a).bit_length()
            if above:                       # first occupied slot > value
                if i == e:
                    continue
                k = i
                if not mask[k]:
                    k = mask.find(1, i, e)
                    if k < 0:
                        continue
            else:                           # last occupied slot < value
                k = i - 1
                if k < s:
                    continue
                if not mask[k]:
                    k = mask.rfind(1, s, k)
                    if k < 0:
                        continue
            x = wv[k]
            if best is not None:
                cmp += 1
                if (x > best) if above else (x < best):
                    continue
            best = x
        self.counters.comparisons += cmp
        return best

    def _first(self, remove: bool):
        """The smallest stored value, or None when empty; its slot is voided
        when ``remove`` is set.  The candidates are the first occupied slot
        of every active segment, highest rank first, with no bisection,
        folded with a tie to the later candidate, the lower rank, as
        ``_nearest`` folds.  The loop tests no direction; the top
        segment's candidate starts the fold, with no compare.  Charged 1
        comparison per fold, one fewer than the active segments.  An
        active segment always holds an occupied slot."""
        t = self._total
        if not t:
            return None
        self.counters.comparisons += t.bit_count() - 1
        wv, mask = self._wv, self._mask
        t &= self._small - 1
        best = value = None
        for s, e, _ in self._high + _LOW[t] if t else self._high:
            k = s if mask[s] else mask.find(1, s, e)
            x = wv[k]
            if value is None or x <= value:
                best, value = k, x
        if remove:
            self._delete_at(best)
        return value

    def _last(self, remove: bool):
        """The largest stored value, or None when empty; its slot is voided
        when ``remove`` is set.  The candidates are the last occupied slot
        of every active segment, walked, folded and charged as in
        ``_first``, a tie to the lower rank."""
        t = self._total
        if not t:
            return None
        self.counters.comparisons += t.bit_count() - 1
        wv, mask = self._wv, self._mask
        t &= self._small - 1
        best = value = None
        for s, e, _ in self._high + _LOW[t] if t else self._high:
            k = e - 1 if mask[e - 1] else mask.rfind(1, s, e)
            x = wv[k]
            if value is None or x >= value:
                best, value = k, x
        if remove:
            self._delete_at(best)
        return value
