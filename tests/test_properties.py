import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bwa import BlackWhiteArray, CapacityExceeded, run_equivalence
from bwa.core import _chain_comparisons, _layout as compact_layout

from pairwise import merge_comparisons

values_lists = st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1), max_size=300)
dup_heavy_lists = st.lists(st.integers(0, 15), max_size=300)


@given(values_lists | dup_heavy_lists, st.data())
def test_drain_equals_standard_sort(values, data):
    bwa = BlackWhiteArray(1, "grow")
    for v in values:
        bwa.insert(v)
    assert list(bwa) == sorted(values)
    assert bwa.validate() == []
    # then voids: delete stored values and extract from both ends
    survivors = sorted(values)
    for pick in data.draw(st.lists(st.integers(0, 10 ** 6), max_size=len(values))):
        if not survivors:
            break
        if pick % 4 == 0:
            assert bwa.extract_min() == survivors.pop(0)
        elif pick % 4 == 1:
            assert bwa.extract_max() == survivors.pop()
        else:
            assert bwa.delete(survivors.pop(pick % len(survivors))) is not None
        assert list(bwa) == survivors
    assert bwa.validate() == []


def _layout(bwa):
    return (bwa.total, bwa.occupancy, bwa.cap_exp,
            [bwa.segment_slots(r) for r in range(bwa.cap_exp) if bwa.is_active(r)])


_history_ops = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 40)),
    st.tuples(st.just("delete"), st.integers(0, 40)),
    st.tuples(st.sampled_from(["extract_min", "extract_max"])),
    st.tuples(st.just("batch"), st.lists(st.integers(0, 40), max_size=70)),
    st.tuples(st.just("batch"), st.lists(st.integers(-(2 ** 31), 2 ** 31),
                                         max_size=20)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_history_ops, max_size=40), st.sampled_from(["grow", "fixed"]),
       st.sampled_from([np.int64, np.float64]), st.integers(1, 7))
def test_insert_many_matches_scalar_loop(history, policy, dtype, cap_exp):
    bulk = BlackWhiteArray(cap_exp, policy, dtype)
    scalar = BlackWhiteArray(cap_exp, policy, dtype)
    for op, *arg in history:
        if op != "batch":
            for bwa in (bulk, scalar):
                try:
                    getattr(bwa, op)(*arg)
                except CapacityExceeded:
                    pass
            continue
        batch = arg[0]
        if policy == "fixed" and bulk.total + len(batch) >= 1 << cap_exp:
            before = _layout(bulk)
            with pytest.raises(CapacityExceeded):
                bulk.insert_many(batch)
            assert _layout(bulk) == before
            continue
        bulk.insert_many(batch)
        for v in batch:
            scalar.insert(v)
        assert _layout(bulk) == _layout(scalar)
        assert bulk.validate() == []
        bulk.insert_many([])
        assert _layout(bulk) == _layout(scalar)


@given(values_lists, st.integers(0, 2))
def test_bulk_constructor_writes_the_compact_layout(values, spare):
    # the sequential state stays pinned on insert_many, by
    # test_insert_many_matches_scalar_loop
    cap_exp = max(1, len(values).bit_length()) + spare
    bulk = BlackWhiteArray.from_values(values, cap_exp)
    sequential = BlackWhiteArray(cap_exp, "fixed")
    sequential.insert_many(values)
    active = [r for r in range(cap_exp - 1, -1, -1) if bulk.is_active(r)]
    assert bulk.cap_exp == cap_exp
    assert [(r, bulk.occupancy[r]) for r in active] == \
        compact_layout(len(values), cap_exp)
    assert list(bulk) == sorted(values)
    assert bulk.validate() == []
    assert len(active) <= bin(sequential.total).count("1")


def _count_with_loop(b, w):
    # straight transliteration of the two-pointer merge, ties from b first
    i = j = count = 0
    while i < len(b) and j < len(w):
        count += 1
        if b[i] <= w[j]:
            i += 1
        else:
            j += 1
    return count


@given(st.lists(st.integers(0, 50)), st.lists(st.integers(0, 50)))
def test_merge_comparison_closed_form(b, w):
    b, w = sorted(b), sorted(w)
    assert merge_comparisons(np.asarray(b, np.int64), np.asarray(w, np.int64)) \
        == _count_with_loop(b, w)


def _count_chain_with_loop(segments):
    # merge the segments pairwise, lowest first, each by a two-pointer loop
    # over its slots that steps over voids (None) without comparing them;
    # ties are drawn from the runs merged so far
    merged = [v for v in segments[0] if v is not None]
    count = 0
    for seg in segments[1:]:
        out, i, j = [], 0, 0
        while True:
            while j < len(seg) and seg[j] is None:
                j += 1
            if i == len(merged) or j == len(seg):
                break
            count += 1
            if merged[i] <= seg[j]:
                out.append(merged[i])
                i += 1
            else:
                out.append(seg[j])
                j += 1
        merged = out + merged[i:] + [v for v in seg[j:] if v is not None]
    return count


segments_with_voids = st.lists(
    st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1,
             max_size=12).filter(lambda seg: any(o for _, o in seg)),
    min_size=1, max_size=7)


@given(segments_with_voids, st.lists(st.integers(0, 30), max_size=3))
def test_chain_comparison_closed_form(segments, prefix):
    segments = [[v if o else None for v, o in zip(sorted(v for v, _ in seg),
                                                  (o for _, o in seg))]
                for seg in segments]
    runs = [[v for v in seg if v is not None] for seg in segments]
    slots = prefix + [v for run in runs for v in run]
    counts = [len(run) for run in runs]
    want = _count_chain_with_loop(segments)
    assert _chain_comparisons(slots, counts, len(prefix)) == want
    flat = np.asarray(slots, np.int64)
    assert _chain_comparisons(flat.data, counts, len(prefix)) == want


@given(st.integers(0, 9))
def test_power_of_two_totals_consolidate(exponent):
    n = 1 << exponent
    bwa = BlackWhiteArray(exponent + 1, "fixed")
    for v in range(n, 0, -1):
        bwa.insert(v)
    active = [r for r in range(bwa.cap_exp) if bwa.is_active(r)]
    assert active == [exponent]
    assert bwa.segment_slots(exponent) == list(range(1, n + 1))


@given(st.lists(st.integers(0, 100), min_size=1, max_size=120))
def test_search_hits_every_stored_value_and_nothing_else(values):
    bwa = BlackWhiteArray(1, "grow")
    for v in values:
        bwa.insert(v)
    present = set(values)
    for probe in range(-1, 102):
        idx = bwa.search(probe)
        if probe in present:
            assert idx is not None
            assert bwa._white[idx] == probe
            assert bwa._wmask[idx]
        else:
            assert idx is None


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), hit_ratio=st.floats(0.0, 1.0))
def test_equivalence_against_model(seed, hit_ratio):
    mix = {"insert": 0.45, "search": 0.15, "delete": 0.2, "extract_min": 0.05,
           "extract_max": 0.05, "lower_bound": 0.04, "upper_bound": 0.03,
           "interval": 0.03}
    divergence = run_equivalence(seed=seed, n=300, mix=mix,
                                 hit_ratio=hit_ratio, cap_exp=3)
    assert divergence is None, str(divergence)


@given(st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=200),
       st.data())
def test_deletion_keeps_occupancy_above_half(values, data):
    bwa = BlackWhiteArray(1, "grow")
    for v in values:
        bwa.insert(v)
    survivors = list(values)
    kills = data.draw(st.lists(
        st.integers(0, len(values) - 1), max_size=len(values)))
    for pick in kills:
        if not survivors:
            break
        victim = survivors.pop(pick % len(survivors))
        assert bwa.delete(victim) is not None
        for rank in range(1, bwa.cap_exp):
            if bwa.is_active(rank):
                assert bwa.occupancy[rank] * 2 > 1 << rank
    assert sorted(survivors) == list(bwa)
