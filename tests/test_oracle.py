import pytest

from bwa import (BlackWhiteArray, Divergence, OpRecord, ReferenceModel,
                 generate_ops, oracle, run_equivalence)

from conftest import Narrow


class TestReferenceModel:
    def test_multiset_semantics(self):
        m = ReferenceModel()
        for v in (5, 3, 5):
            m.insert(v)
        assert m.values == [3, 5, 5]
        assert m.contains(5) and not m.contains(4)
        assert m.delete(5) and m.values == [3, 5]
        assert not m.delete(99)
        assert m.lower_bound(3) == 5
        assert m.upper_bound(5) == 3
        assert m.interval(3, 5) == [3, 5]
        assert m.extract_min() == 3
        assert m.extract_max() == 5
        assert m.extract_min() is None
        m.insert(4)
        assert m.compact() is None and m.values == [4]


class TestGenerateOps:
    def test_deterministic_for_seed(self):
        a = generate_ops(seed=42, n=10_000, hit_ratio=0.5)
        b = generate_ops(seed=42, n=10_000, hit_ratio=0.5)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_ops(1, 500) != generate_ops(2, 500)

    def test_insert_only_mix(self):
        ops = generate_ops(seed=0, n=100, mix={"insert": 1.0})
        assert len(ops) == 100
        assert all(op.kind == "insert" for op in ops)

    def test_full_hit_ratio_draws_from_history(self):
        ops = generate_ops(seed=1, n=400, hit_ratio=1.0)
        seen = set()
        for op in ops:
            if op.kind == "insert":
                seen.add(op.value)
            elif op.kind in ("search", "delete") and seen:
                assert op.value in seen

    def test_compact_takes_no_operand_and_no_draw(self):
        # a zero-operand kind draws no operand: the other ops of a mix are
        # those of the same mix with compact's weight given to extract_min
        mix = {"insert": 0.5, "delete": 0.3, "search": 0.1}
        ops = generate_ops(seed=7, n=600, mix=mix | {"compact": 0.1})
        twin = generate_ops(seed=7, n=600, mix=mix | {"extract_min": 0.1})
        assert any(op.kind == "compact" for op in ops)
        for op, other in zip(ops, twin):
            if op.kind == "compact":
                assert op == OpRecord("compact") and op.args == ()
                assert other == OpRecord("extract_min")
            else:
                assert op == other

    def test_interval_edges_ordered(self):
        ops = generate_ops(seed=2, n=300, mix={"insert": 0.5, "interval": 0.5})
        assert all(op.value <= op.hi for op in ops if op.kind == "interval")

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            generate_ops(0, 10, mix={"insert": -1.0})
        with pytest.raises(ValueError):
            generate_ops(0, 10, mix={"insert": 0.0, "search": 0.0})
        with pytest.raises(ValueError):
            generate_ops(0, 10, mix={"frobnicate": 1.0})
        with pytest.raises(ValueError):
            generate_ops(0, 10, hit_ratio=1.5)


class TestRunEquivalence:
    def test_insert_only_sequence(self):
        assert run_equivalence(seed=3, n=1 << 10, mix={"insert": 1.0},
                               cap_exp=11) is None

    def test_mixed_sequence(self):
        assert run_equivalence(seed=4, n=10_000, hit_ratio=0.5,
                               cap_exp=12) is None

    def test_all_op_kinds(self):
        mix = {"insert": 0.4, "search": 0.1, "delete": 0.1, "extract_min": 0.1,
               "extract_max": 0.1, "lower_bound": 0.1, "upper_bound": 0.05,
               "interval": 0.05}
        assert run_equivalence(seed=5, n=4000, mix=mix, cap_exp=10) is None

    @pytest.mark.parametrize("cls", [BlackWhiteArray, Narrow])
    def test_compact_among_all_op_kinds(self, cls):
        # every query after a compact is checked against the model, and
        # every state validated, bridges included
        mix = dict.fromkeys(oracle.KINDS, 0.1) | {"insert": 0.5,
                                                  "compact": 0.01}
        assert run_equivalence(seed=8, n=6000, mix=mix, cap_exp=3,
                               factory=cls) is None

    def test_growth_exercised(self):
        # tiny starting capacity forces repeated doublings mid-run
        assert run_equivalence(seed=6, n=3000, mix={"insert": 0.8,
                               "delete": 0.2}, cap_exp=2) is None

    def test_determinism_of_verdict(self):
        kwargs = dict(seed=7, n=2000, hit_ratio=0.3, cap_exp=8)
        assert run_equivalence(**kwargs) == run_equivalence(**kwargs)


class _LyingSearch(BlackWhiteArray):
    """Claims every probe is a miss."""

    def search(self, value):
        return None


class _LeakyDelete(BlackWhiteArray):
    """Voids the slot but forgets the occupancy bookkeeping."""

    def _delete_at(self, idx):
        self._wmask[idx] = False


class _LyingSize(BlackWhiteArray):
    """Counts one value more than it holds."""

    def __len__(self):
        return super().__len__() + 1


class _LyingDrain(BlackWhiteArray):
    """Drains its values largest first."""

    def iter_sorted(self):
        return reversed(list(super().iter_sorted()))


class TestFaultInjection:
    def test_lying_size_reported_at_the_first_step(self):
        div = run_equivalence(seed=8, n=200, factory=_LyingSize, cap_exp=8)
        assert div.step == 0 and div.op.kind == "insert"
        assert (div.expected, div.actual) == ("size 1", "size 2")

    def test_lying_drain_reported_at_the_periodic_drain(self, monkeypatch):
        monkeypatch.setattr(oracle, "DRAIN_EVERY", 50)
        div = run_equivalence(seed=8, n=200, factory=_LyingDrain, cap_exp=8)
        assert div.step == 49
        assert (div.expected, div.actual) == ("drain equal to model contents",
                                              "drain differs")

    def test_lying_drain_reported_at_the_final_drain(self):
        div = run_equivalence(seed=8, n=200, factory=_LyingDrain, cap_exp=8)
        assert div.step == 200 and div.op == OpRecord("final-drain")
        assert (div.expected, div.actual) == ("drain equal to model contents",
                                              "drain differs")

    def test_lying_search_reported_with_step(self):
        div = run_equivalence(seed=8, n=2000, factory=_LyingSearch, cap_exp=8)
        assert isinstance(div, Divergence)
        assert 0 <= div.step < 2000
        assert div.op.kind in ("search", "delete")

    def test_broken_bookkeeping_caught_by_validation(self):
        div = run_equivalence(seed=8, n=2000, factory=_LeakyDelete, cap_exp=8)
        assert isinstance(div, Divergence)
        assert div.expected == "no invariant violations"

    def test_divergence_formats_readably(self):
        div = run_equivalence(seed=8, n=2000, factory=_LyingSearch, cap_exp=8)
        text = str(div)
        assert "step" in text and "expected" in text

    def test_divergence_shows_the_op_as_a_script_line(self):
        div = Divergence(3, OpRecord("interval", 3, 9), [], [4])
        assert str(div) == "step 3: interval 3 9 expected [], got [4]"
        assert str(Divergence(0, OpRecord("extract_min"), None, 1)) == \
            "step 0: extract_min expected None, got 1"
