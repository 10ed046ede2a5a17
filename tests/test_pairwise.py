"""The one-write carry against the pairwise merge chain it replaces.

Random histories of inserts, batch inserts, deletes and extractions run on
the real class and on ``PairwiseChain`` side by side, on four dtypes and
under both growth policies, with the default bridge constants and with
``Narrow``'s small ones.  After every step the two must agree on the
result, ``total``, the occupancy, every active rank's slots, the bridges
and all five counters.  Every carry into 4 slots over two small domains,
and sampled carries into 8 slots over a void and into 16 and 32 slots,
full or over voids in several ranks, as well as demotions written back up
into 16 and 32 slots, must leave the same slot bytes, so the order of tied
values (-0.0 and 0.0) is pinned too; so must every demotion of rank 1 by a
delete or an extraction, onto a taken or a free rank 0.  A one-value
``insert_many`` block into 2 or 4 slots must leave the slots the scalar
insert leaves.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bwa import BlackWhiteArray, CapacityExceeded

from conftest import Narrow
from pairwise import PairwiseChain


class NarrowChain(PairwiseChain):
    _LOOKAHEAD = Narrow._LOOKAHEAD
    _BRIDGED = Narrow._BRIDGED


# each dtype's values: small integers moved into a range that tests it
VALUES = {"int64": lambda v: v - 100, "uint64": lambda v: 2 ** 64 - 256 + v,
          "float64": lambda v: v / 4, "float32": lambda v: v / 4 - 7}


def _history(seed, grow, steps=400):
    """Ops and arguments: inserts (one in six a batch of up to 40 values)
    with probability ``grow``, else deletes (mostly of a value inserted
    before) and extractions."""
    rng = random.Random(seed)
    seen = [0]
    for _ in range(steps):
        r = rng.random()
        if r < grow / 6:
            batch = [rng.randrange(200) for _ in range(rng.randrange(41))]
            seen += batch
            yield "insert_many", batch
        elif r < grow:
            seen.append(rng.randrange(200))
            yield "insert", seen[-1]
        elif r < grow + (1 - grow) * 0.7:
            hit = rng.random() < 0.9
            yield "delete", rng.choice(seen) if hit else rng.randrange(200)
        else:
            yield rng.choice(("extract_min", "extract_max")), None


def _state(bwa):
    active = [r for r in range(bwa.cap_exp) if bwa.is_active(r)]
    return (bwa.total, bwa.occupancy, bwa.cap_exp,
            [bwa.segment_slots(r) for r in active], bwa._links,
            vars(bwa.counters))


def _apply(bwa, op, arg):
    try:
        return getattr(bwa, op)(*(() if arg is None else (arg,)))
    except CapacityExceeded:
        return CapacityExceeded


@settings(max_examples=150, deadline=None)
@given(dtype=st.sampled_from(sorted(VALUES)),
       policy=st.sampled_from(["grow", "fixed"]), narrow=st.booleans(),
       seed=st.integers(0, 2 ** 32), grow=st.floats(0.1, 0.7))
def test_one_write_carry_matches_pairwise_chain(dtype, policy, narrow, seed,
                                                grow):
    real, ref = (Narrow, NarrowChain) if narrow else (BlackWhiteArray,
                                                      PairwiseChain)
    cap_exp = 2 if policy == "grow" else 8
    a = real(cap_exp, policy=policy, dtype=dtype)
    b = ref(cap_exp, policy=policy, dtype=dtype)
    value = VALUES[dtype]
    for op, arg in _history(seed, grow):
        if op == "insert_many":
            arg = [value(v) for v in arg]
        elif arg is not None:
            arg = value(arg)
        assert _apply(a, op, arg) == _apply(b, op, arg), (op, arg)
        assert _state(a) == _state(b), (op, arg)
    assert a.validate() == [] and b.validate() == []


# each dtype's small domain: with -0.0 and 0.0 the order of ties shows in
# the slot bytes, which == does not see, and -1.0 below them lets every tie
# test of the 4-slot closed form meet such a tie
SMALL = {"int64": (0, 1, 2, 3), "float64": (-1.0, -0.0, 0.0, 1.0)}


def _carry(cls, dtype, values, void=None):
    """Insert ``values`` in order; with ``void``, delete it after the first
    four, so rank 2 keeps a void.  The last insert is the carry looked at."""
    bwa = cls(4, dtype=dtype)
    for i, v in enumerate(values):
        if i == 4 and void is not None:
            assert bwa.delete(void) is not None
        bwa.insert(v)
    return bwa


def _slots(bwa, rank):
    s = 1 << rank
    c = bwa.counters
    return (bwa._white[s:s << 1].tobytes(), bytes(bwa._mask[s:s << 1]),
            bwa.total, bwa.occupancy,
            (c.comparisons, c.moves, c.merges, c.demotes, c.grows))


@pytest.mark.parametrize("dtype", sorted(SMALL))
def test_every_four_slot_carry_matches_pairwise_chain(dtype):
    # rank 1 from the first two values, rank 0 from the third, and the
    # fourth carries all three into rank 2: every state and order
    for values in itertools.product(SMALL[dtype], repeat=4):
        a = _carry(BlackWhiteArray, dtype, values)
        b = _carry(PairwiseChain, dtype, values)
        assert a.total == 4
        assert _slots(a, 2) == _slots(b, 2), values


@pytest.mark.parametrize("dtype", sorted(SMALL))
def test_eight_slot_carry_over_a_void_matches_pairwise_chain(dtype):
    # rank 2 with one void below full ranks 1 and 0, carried into rank 3
    rng = random.Random(13)
    domain = SMALL[dtype]
    for _ in range(300):
        values = [rng.choice(domain) for _ in range(8)]
        void = rng.choice(values[:4])
        a = _carry(BlackWhiteArray, dtype, values, void)
        b = _carry(PairwiseChain, dtype, values, void)
        assert a.total == 8 and a.occupancy[3] == 7
        assert _slots(a, 3) == _slots(b, 3), (values, void)


def _build(cls, dtype, cap_exp, values, holes=()):
    """Insert ``values`` in order, then void the slots ``holes`` in order."""
    bwa = cls(cap_exp, dtype=dtype)
    for v in values:
        bwa.insert(v)
    for i in holes:
        bwa._delete_at(i)
    return bwa


def _holes(rng, ranks):
    """Slots to void in each of ``ranks`` (2 or more): at least one and
    fewer than half of the rank's slots, so that no rank demotes."""
    out = []
    for r in ranks:
        s = 1 << r
        out += rng.sample(range(s, s << 1), rng.randrange(1, s >> 1))
    return out


@pytest.mark.parametrize("dtype", sorted(SMALL))
@pytest.mark.parametrize("top", [4, 5])
def test_sixteen_and_thirty_two_slot_carries_match_pairwise_chain(dtype, top):
    # ranks 0 .. top - 1 carried into top: every rank full, or voids in two
    # or more of ranks 2 .. top - 1; by insert, and as a one-value
    # insert_many block, which sorts instead of charging the chain
    rng = random.Random(top)
    domain = SMALL[dtype]
    for trial in range(240):
        values = [rng.choice(domain) for _ in range(1 << top)]
        holes = []
        if trial % 2:
            holes = _holes(rng, rng.sample(range(2, top),
                                           rng.randrange(2, top - 1)))
        block = trial % 3 == 0
        pair = []
        for cls in (BlackWhiteArray, PairwiseChain):
            bwa = _build(cls, dtype, top + 1, values[:-1], holes)
            if block:
                bwa.insert_many(values[-1:])
            else:
                bwa.insert(values[-1])
            pair.append(bwa)
        a, b = pair
        assert a.total == 1 << top and a.occupancy[top] == len(a)
        assert _slots(a, top) == _slots(b, top), (values, holes, block)


@pytest.mark.parametrize("dtype", sorted(SMALL))
@pytest.mark.parametrize("top", [4, 5])
def test_demotion_merging_back_up_matches_pairwise_chain(dtype, top):
    # ranks top and top - 1 active; voiding half of top's slots demotes its
    # survivors onto top - 1 (full, or with voids), and both are written
    # back into top
    rng = random.Random(10 + top)
    domain = SMALL[dtype]
    s = 1 << top
    for trial in range(120):
        values = [rng.choice(domain) for _ in range(s + (s >> 1))]
        holes = _holes(rng, [top - 1]) if trial % 2 else []
        holes += rng.sample(range(s, s << 1), s >> 1)
        a, b = (_build(cls, dtype, top + 1, values, holes)
                for cls in (BlackWhiteArray, PairwiseChain))
        assert a.counters.demotes == 1 and a.total == s
        assert _slots(a, top) == _slots(b, top), (values, holes)


def test_batches_of_tied_floats_match_pairwise_chain():
    # every rank's slot and mask bytes after each batch over both zeros: the
    # reference takes each block newest first, as the real class does
    rng = random.Random(17)
    domain = SMALL["float64"]
    for _ in range(60):
        a = BlackWhiteArray(2, dtype="float64")
        b = PairwiseChain(2, dtype="float64")
        for _ in range(12):
            batch = [rng.choice(domain) for _ in range(rng.randrange(1, 25))]
            a.insert_many(batch)
            b.insert_many(batch)
            active = [r for r in range(a.cap_exp) if a.is_active(r)]
            assert a.cap_exp == b.cap_exp and a.total == b.total
            assert [_slots(a, r) for r in active] == \
                [_slots(b, r) for r in active], batch


def _active(bwa):
    return [_slots(bwa, r) for r in range(bwa.cap_exp) if bwa.is_active(r)]


@pytest.mark.parametrize("dtype", sorted(SMALL))
@pytest.mark.parametrize("above", [False, True], ids=["alone", "below-2"])
def test_rank_one_demotion_matches_pairwise_chain(dtype, above):
    # rank 1 from two values and, with a third, rank 0 from it, alone or
    # below a rank 2 of the domain's ends, which an extraction reaches
    # after the lower ranks on a tie; a delete or an extraction voids a
    # value, which demotes rank 1 when the value was rank 1's: its survivor
    # goes into rank 0, or with rank 0's value back into rank 1
    domain = SMALL[dtype]
    ends = (domain[0], domain[-1]) * 2 if above else ()
    ops = [("delete", (x,)) for x in domain] + [("extract_min", ()),
                                                ("extract_max", ())]
    seen = set()
    for n in (2, 3):
        for values in itertools.product(domain, repeat=n):
            for op, args in ops:
                pair = []
                for cls in (BlackWhiteArray, PairwiseChain):
                    bwa = cls(4, dtype=dtype)
                    for v in ends + values:
                        bwa.insert(v)
                    pair.append((bwa, getattr(bwa, op)(*args)))
                (a, got), (b, want) = pair
                assert repr(got) == repr(want), (values, op, args)
                assert _active(a) == _active(b), (values, op, args)
                if a.counters.demotes:
                    seen.add((n, op))
    # every op demotes rank 1 onto a taken and onto a free rank 0
    assert seen == {(n, op) for n in (2, 3)
                    for op in ("delete", "extract_min", "extract_max")}


@pytest.mark.parametrize("dtype", sorted(SMALL))
def test_one_value_blocks_into_two_and_four_slots_match_scalar_loop(dtype):
    # total 1 or 3 (and 5, below a rank of 4 slots), then one value as an
    # insert_many block: the carry's slots as the scalar insert leaves
    # them, charged as a block, one merge and the destination's slots
    for n in (1, 3, 5):
        for values in itertools.product(SMALL[dtype], repeat=n + 1):
            a = BlackWhiteArray(4, dtype=dtype)
            b = BlackWhiteArray(4, dtype=dtype)
            for v in values[:-1]:
                a.insert(v)
                b.insert(v)
            before = vars(a.counters).copy()
            a.insert_many(values[-1:])
            b.insert(values[-1])
            s = (n + 1) & ~n
            rank = s.bit_length() - 1
            assert _slots(a, rank)[:4] == _slots(b, rank)[:4], values
            assert vars(a.counters) == before | {
                "merges": before["merges"] + 1,
                "moves": before["moves"] + s}
