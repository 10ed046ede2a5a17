"""Reference writers: the carry as a chain of pairwise merges.

``PairwiseChain`` replaces the writers of ``BlackWhiteArray`` with the
straightforward form of the binary-counter insert: the carried value is
merged with rank 0 into black scratch, the result with rank 1, and so on,
and the last merge lands in the white segment of the first clear rank.
It keeps the paper's layout: a black scratch array of half the white
array's slots, which the real class does without.
Every merge is charged ``merge_comparisons`` of its two runs, and a demotion
onto an active rank is one more such merge.  ``insert_many`` sorts each of
its blocks once.  The tests check that the one-write carry of the real
class leaves the same slots, bridges and counters.
"""

from bisect import bisect_left, bisect_right

import numpy as np

from bwa import BlackWhiteArray, CapacityExceeded, GrowthPolicy


def merge_comparisons(b, w) -> int:
    """Element comparisons a two-pointer merge of sorted runs performs.

    Ties are drawn from ``b`` first.  Every emitted element costs one
    comparison until one run is exhausted; the surviving tail is copied for
    free, so the count is ``len(b) + len(w)`` minus that tail.
    """
    nb, nw = len(b), len(w)
    if nb == 0 or nw == 0:
        return 0
    if b[-1] <= w[-1]:
        tail = nw - bisect_left(w, b[-1])
    else:
        tail = nb - bisect_right(b, w[-1])
    return nb + nw - tail


class PairwiseChain(BlackWhiteArray):

    def __init__(self, cap_exp: int, *args, **kwargs) -> None:
        super().__init__(cap_exp, *args, **kwargs)
        self._black = np.zeros(1 << (cap_exp - 1), dtype=self.dtype)

    def _grow(self, cap_exp: int) -> None:
        n = (1 << (cap_exp - 1)) - self._black.size
        self._black = np.concatenate([self._black, np.zeros(n, self.dtype)])
        super()._grow(cap_exp)

    def insert(self, value) -> None:
        if type(value) is not int and isinstance(value, np.integer):
            value = int(value)
        total = self._total
        if total == (1 << self.cap_exp) - 1:
            if self.policy is GrowthPolicy.FIXED:
                raise CapacityExceeded("full")
            self._batch((value,))
            self._grow(self.cap_exp + 1)
        if total & 1 == 0:
            self._white[1] = value
            if self._wv[1] != value:
                self._batch((value,))
            self._wmask[1] = True
            self._occ[0] = 1
            self._total = total + 1
        else:
            self._black[1] = value
            if self._black.data[1] != value:
                self._batch((value,))
            rank = 0
            bits = total >> 1
            carry = 1
            while bits & 1:
                carry = self._merge(rank, to_black=True, black_n=carry)
                rank += 1
                bits >>= 1
            n = self._merge(rank, to_black=False, black_n=carry)
            top = rank + 1
            self._occ[top] = n
            self._occ[:top] = [0] * top
            self._total = total + 1
            if 1 << top > self._BRIDGED:
                self._relink(top)
        self.counters.moves += 1

    def insert_many(self, values) -> None:
        batch = self._batch(values)
        k = int(batch.size)
        total = self._total
        need = (total + k).bit_length()
        if need > self.cap_exp:
            if self.policy is GrowthPolicy.FIXED:
                raise CapacityExceeded("full")
            self._grow(need)
        white, wmask, occ = self._white, self._wmask, self._occ
        done = 0
        while done < k:
            size = 1 << ((k - done).bit_length() - 1)
            if total:
                size = min(size, total & -total)
            low = rank = size.bit_length() - 1
            parts = [batch[done:done + size]]
            n = size
            while (total >> rank) & 1:
                s = 1 << rank
                parts.append(white[s:s << 1][wmask[s:s << 1]])
                n += occ[rank]
                rank += 1
            s = 1 << rank
            merged = np.sort(np.concatenate(parts))
            white[s:s + n] = merged
            wmask[s:s + n] = True
            white[s + n:s << 1] = merged[-1]
            wmask[s + n:s << 1] = False
            occ[low:rank] = [0] * (rank - low)
            occ[rank] = n
            self.counters.merges += 1
            self.counters.moves += s
            total += size
            done += size
            self._total = total
            if s > self._BRIDGED:
                self._relink(rank)

    def _merge(self, rank: int, to_black: bool, black_n: int) -> int:
        """Merge black and white rank ``rank`` into rank + 1 of the
        destination array; returns the values written."""
        ctr = self.counters
        ctr.merges += 1
        s = 1 << rank
        e = s << 1
        b = self._black[s:s + black_n].tolist()
        w = self._white[s:e][self._wmask[s:e]].tolist()
        ctr.comparisons += merge_comparisons(b, w)
        merged = sorted(b + w)
        n = len(merged)
        if to_black:
            self._black[e:e + n] = merged
        else:
            self._white[e:e + n] = merged
            self._wmask[e:e + n] = True
            self._white[e + n:e << 1] = merged[-1]
            self._wmask[e + n:e << 1] = False
        ctr.moves += e
        return n

    def _demote(self, rank: int) -> None:
        s = 1 << rank
        half = s >> 1
        ctr = self.counters
        ctr.demotes += 1
        vals = self._white[s:s << 1][self._wmask[s:s << 1]]
        if (self._total >> (rank - 1)) & 1:
            self._black[half:s] = vals
            ctr.moves += half
            n = self._merge(rank - 1, to_black=False, black_n=half)
            self._occ[rank] = n
            self._occ[rank - 1] = 0
        else:
            self._white[half:s] = vals
            self._wmask[half:s] = True
            ctr.moves += half
            self._occ[rank - 1] = self._occ[rank]
            self._occ[rank] = 0
        self._total -= half
        if s > self._BRIDGED:
            self._relink(rank)
