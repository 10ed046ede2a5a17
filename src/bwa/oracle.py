"""Model-based verification: a reference sorted multiset, a deterministic
workload generator, and an equivalence runner that replays the same
operation sequence against both implementations.

Each run is single-threaded; independent runs (different seeds) are safe to
execute in parallel.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Optional

from .core import BlackWhiteArray

# each op kind and its operand count; a harness calls an op by its kind,
# getattr(target, op.kind)(*op.args), on the array and the model alike
KINDS = {"insert": 1, "search": 1, "delete": 1, "extract_min": 0,
         "extract_max": 0, "lower_bound": 1, "upper_bound": 1, "interval": 2,
         "compact": 0}

DEFAULT_MIX = {"insert": 0.5, "search": 0.25, "delete": 0.25}

DRAIN_EVERY = 4096  # steps between full drains in run_equivalence


@dataclass(frozen=True)
class OpRecord:
    """One workload operation; its text form is a ``bwa trace`` line."""

    kind: str
    value: Optional[int] = None
    hi: Optional[int] = None    # upper edge, interval ops only

    @property
    def args(self) -> tuple:
        """The operands in call order: (), (value,) or (value, hi)."""
        return tuple(a for a in (self.value, self.hi) if a is not None)

    def __str__(self) -> str:
        return " ".join((self.kind, *map(str, self.args)))


class ReferenceModel:
    """Sorted-list multiset carrying the same observable surface as the
    array under test.  Deliberately naive: correctness over speed."""

    def __init__(self) -> None:
        self.values: list = []

    def __len__(self) -> int:
        return len(self.values)

    def insert(self, v) -> None:
        insort(self.values, v)

    def contains(self, v) -> bool:
        i = bisect_left(self.values, v)
        return i < len(self.values) and self.values[i] == v

    search = contains

    def delete(self, v) -> bool:
        i = bisect_left(self.values, v)
        if i < len(self.values) and self.values[i] == v:
            del self.values[i]
            return True
        return False

    def minimum(self):
        return self.values[0] if self.values else None

    def maximum(self):
        return self.values[-1] if self.values else None

    def extract_min(self):
        return self.values.pop(0) if self.values else None

    def extract_max(self):
        return self.values.pop() if self.values else None

    def lower_bound(self, v):
        i = bisect_right(self.values, v)
        return self.values[i] if i < len(self.values) else None

    def upper_bound(self, v):
        i = bisect_left(self.values, v)
        return self.values[i - 1] if i > 0 else None

    def interval(self, lo, hi) -> list:
        return self.values[bisect_left(self.values, lo):bisect_right(self.values, hi)]

    def compact(self) -> None:
        """A layout change only: the multiset stays as it is."""


def generate_ops(seed: int, n: int, mix: Optional[dict[str, float]] = None,
                 hit_ratio: float = 0.5,
                 value_range: Optional[int] = None) -> list[OpRecord]:
    """Deterministic operation sequence for a seed.

    ``mix`` maps operation kinds to non-negative weights.  Search and delete
    operands are drawn from the values inserted so far with probability
    ``hit_ratio``, otherwise from fresh randoms.  A drawn value may have
    been deleted already, and a delete leaves its value among those drawn
    from, so the realized hit rate falls below the ratio, the further the
    larger the share of deletes: on perfbench's ``churn`` mix (``hit_ratio``
    0.9, 30 % deletes) 52.5 % of the searches and deletes of the timed
    stream hit (12,645 of 24,086 at seed 303).
    """
    mix = dict(DEFAULT_MIX if mix is None else mix)
    unknown = set(mix) - set(KINDS)
    if unknown:
        raise ValueError(f"unknown op kinds: {sorted(unknown)}")
    if any(w < 0 for w in mix.values()):
        raise ValueError("op weights must be non-negative")
    if not any(mix.values()):
        raise ValueError("op weights must not all be zero")
    if not 0.0 <= hit_ratio <= 1.0:
        raise ValueError("hit_ratio must lie in [0, 1]")
    if value_range is None:
        value_range = max(1024, 4 * n)

    rng = random.Random(seed)
    kinds = rng.choices(tuple(mix), weights=tuple(mix.values()), k=n)
    inserted: list[int] = []
    ops = []
    for kind in kinds:
        if kind == "insert":
            v = rng.randrange(value_range)
            inserted.append(v)
            ops.append(OpRecord("insert", v))
        elif kind in ("search", "delete"):
            if inserted and rng.random() < hit_ratio:
                v = rng.choice(inserted)
            else:
                v = rng.randrange(value_range)
            ops.append(OpRecord(kind, v))
        elif KINDS[kind] == 0:
            ops.append(OpRecord(kind))
        elif kind in ("lower_bound", "upper_bound"):
            ops.append(OpRecord(kind, rng.randrange(value_range)))
        else:
            a = rng.randrange(value_range)
            b = rng.randrange(value_range)
            if a > b:
                a, b = b, a
            ops.append(OpRecord("interval", a, b))
    return ops


@dataclass(frozen=True)
class Divergence:
    """First observed disagreement between the array and the model."""

    step: int
    op: OpRecord
    expected: object
    actual: object

    def __str__(self) -> str:
        return (f"step {self.step}: {self.op} expected "
                f"{self.expected!r}, got {self.actual!r}")


def run_equivalence(seed: int, n: int, mix: Optional[dict[str, float]] = None,
                    hit_ratio: float = 0.5, cap_exp: int = 16,
                    factory: Callable[[int], BlackWhiteArray] = BlackWhiteArray,
                    ) -> Optional[Divergence]:
    """Replay one generated sequence against the array and the model.

    Every step calls the op by name on both, compares the results (hit/miss
    verdicts, extracted and bound values, interval contents), runs
    ``validate()`` and then compares sizes, so an invariant breach counts as
    a divergence even when the outputs still agree.  Hit/miss equality plus
    size equality makes the two multisets equal by induction; full drains
    are compared every ``DRAIN_EVERY`` steps and at the end as a backstop.  Returns None for a
    clean run, else the first divergence.

    ``factory`` builds the structure under test from a capacity exponent;
    tests use it to inject deliberately broken subclasses.
    """
    ops = generate_ops(seed, n, mix=mix, hit_ratio=hit_ratio,
                       value_range=4 << cap_exp)
    bwa = factory(cap_exp)
    model = ReferenceModel()
    for step, op in enumerate(ops):
        expected = getattr(model, op.kind)(*op.args)
        actual = getattr(bwa, op.kind)(*op.args)
        if type(expected) is bool:          # a search or delete: the array
            actual = actual is not None     # answers with a slot or None
        if expected != actual:
            return Divergence(step, op, expected, actual)
        violations = bwa.validate()
        if violations:
            return Divergence(step, op, "no invariant violations", violations)
        if len(bwa) != len(model):
            return Divergence(step, op, f"size {len(model)}", f"size {len(bwa)}")
        if (step + 1) % DRAIN_EVERY == 0:
            if list(bwa) != model.values:
                return Divergence(step, op, "drain equal to model contents",
                                  "drain differs")
    if list(bwa) != model.values:
        return Divergence(len(ops), OpRecord("final-drain"),
                          "drain equal to model contents", "drain differs")
    return None
