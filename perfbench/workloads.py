"""Workloads, timed and traced op loops, and metric reduction for the
repository benchmark.

Every workload is one closed loop: a single client on one thread issues its
next call only after the previous one returned.  A run builds the starting
structure with ``from_values``, runs an optional untimed warm-up stream on
it, then repeats *passes* until its time budget is spent.  A pass times a
few more ``from_values`` builds (the set-up samples), runs the main stream
on a copy of the warmed state (for ``sort``: one ``bwa sort`` through
``bwa.cli``), then *probe streams*, one for each op kind the main stream
does not issue, each on its own copy of the state the main stream left,
and ends with drains and ``validate()``.  Passes are identical, so counter deltas
repeat exactly for a seed, and the i-th call of one pass repeats the i-th
call of every other.

On a machine shared with other work, speed switches within milliseconds
between levels up to 1.7 times apart, and the share of time spent at each
level drifts over seconds and minutes, so wall times alone do not repeat
from run to run.  Every time is therefore scaled to a reference speed: a
fixed calibration kernel, made of the interpreter loop, numpy scalar reads
and small ``searchsorted`` calls the structure's code is made of, runs
before every block of ``BLOCK`` calls of a stream, between set-up builds,
and from a timer every ``SORT_SAMPLE_S`` during a ``bwa sort``; a time is
multiplied by ``REFERENCE_KERNEL_NS`` over the mean kernel time around it.
A reported time is so the time the work would take where the kernel takes
``REFERENCE_KERNEL_NS``, about the kernel's time on a 2-vCPU x86-64 VM at
its fastest.  The kernel does not touch ``bwa``, so a change to the
program moves the scaled times as it moves the wall times.  Each call's
latency is the median of its scaled times over the passes, and percentiles
are taken over the calls; throughput is the work of a pass over the median
of the passes' scaled times.

Inputs, op streams and the expected results (replayed on
``oracle.ReferenceModel`` or ``sorted()``) are all produced before the first
clock read.  Timed regions run with the garbage collector paused.

Only the public surface of ``bwa.core``, ``bwa.cli`` and ``bwa.oracle`` is
driven.  The traced run wraps each public call in a span and reads the
deltas of the public ``counters`` and ``total`` around it; the ``bwa sort``
path is traced through a subclass that ``bwa.cli`` instantiates in place of
``BlackWhiteArray`` for the duration of one call.
"""

from __future__ import annotations

import copy
import gc
import io
import math
import operator
import random
import signal
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from bwa import cli
from bwa.core import BlackWhiteArray
from bwa.oracle import OpRecord, ReferenceModel, generate_ops

KINDS = ("insert", "search", "delete", "extract_min", "lower_bound",
         "upper_bound", "interval")
_CODE = {k: i for i, k in enumerate(KINDS)}
MAX_CHAIN = 19          # longest carry chain below 2**20 slots
BLOCK = 256             # calls per timed block, each after one kernel run
REFERENCE_KERNEL_NS = 140_000  # see the module docstring
SCALE_WINDOW = 4        # blocks on each side whose kernel runs scale a block
SORT_SAMPLE_S = 0.025   # kernel period while a ``bwa sort`` runs
clock = time.perf_counter_ns


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test shrinks them, the benchmark uses these."""

    # 3 * 2**k - 12345 values put about two thirds of them in the top
    # segment, so the median hit sits well inside the top-segment hits
    # instead of on the step to the next segment
    sort_n: int = 3 * (1 << 17) - 12345   # 13 active segments
    lookup_n: int = 3 * (1 << 18) - 12345  # 14 active segments, ~10 MB
    lookup_ops: int = 8000                # main-stream ops per pass
    churn_n: int = (1 << 16) - 12345      # 11 active segments, fits in L2
    churn_warm: int = 50_000              # untimed prefix, run once per run
    churn_ops: int = 50_000               # timed rest of the stream
    probes: int = 3000                    # probe ops per op kind
    setup_builds: int = 10                # from_values builds per pass


# -- inputs ---------------------------------------------------------------

@dataclass
class Plan:
    """Everything one workload needs, generated from the seed up front."""

    name: str
    start: np.ndarray                     # values of the starting structure
    warm: list[OpRecord]                  # run once, before the passes
    main: list[OpRecord]
    probes: list[list[OpRecord]]          # one stream per op kind
    expected_warm: list
    expected_main: list
    expected_probes: list[list]
    final: list                           # sorted contents after the main stream
    sort_text: str = ""
    sort_expected: str = ""


@dataclass(frozen=True)
class _Domain:
    lo: int
    hi: int                               # exclusive
    width: int                            # interval span covering ~4 values

    def draw(self, rng: random.Random) -> int:
        return rng.randrange(self.lo, self.hi)


def _domain(lo: int, hi: int, n: int) -> _Domain:
    return _Domain(lo, hi, max(1, 4 * (hi - lo) // max(1, n)))


def _spread(rng: random.Random, pool: list, k: int) -> list:
    """``k`` values of ``pool`` at evenly spaced positions from a random
    offset, shuffled.  Every seed then draws old and new values in the same
    proportion, so a hit's cost, which depends on where the value sits,
    has the same distribution on every seed."""
    if not pool:
        return []
    n = len(pool)
    offset = rng.randrange(n)
    out = [pool[(offset + j * n // k) % n] for j in range(k)]
    rng.shuffle(out)
    return out


def _searches(rng: random.Random, kind: str, k: int, hit_share: float,
              pool: list, miss) -> list[OpRecord]:
    hits = round(k * hit_share)
    values = _spread(rng, pool, hits) + [miss() for _ in range(k - hits)]
    return [OpRecord(kind, v) for v in values]


def _interval(rng: random.Random, dom: _Domain) -> OpRecord:
    lo = dom.draw(rng)
    return OpRecord("interval", lo, lo + dom.width)


def _probe_ops(rng: random.Random, kinds: tuple[str, ...], per_kind: int,
               pool: list, dom: _Domain) -> list[list[OpRecord]]:
    """One shuffled stream of ``per_kind`` ops for each kind.  Half the
    searches and nine in ten deletes take their operand from ``pool``;
    "bound" means an even split of lower_bound and upper_bound."""
    streams = []
    draw = lambda: dom.draw(rng)          # noqa: E731
    for kind in kinds:
        if kind in ("search", "delete"):
            share = 0.5 if kind == "search" else 0.9
            ops = _searches(rng, kind, per_kind, share, pool, draw)
        elif kind == "insert":
            ops = [OpRecord("insert", draw()) for _ in range(per_kind)]
        elif kind == "extract_min":
            ops = [OpRecord("extract_min")] * per_kind
        elif kind == "bound":
            ops = [OpRecord("lower_bound" if i & 1 else "upper_bound", draw())
                   for i in range(per_kind)]
        else:
            ops = [_interval(rng, dom) for _ in range(per_kind)]
        rng.shuffle(ops)
        streams.append(ops)
    return streams


def replay(model, ops: list[OpRecord]) -> list:
    """Run ``ops`` on a model with the ``ReferenceModel`` surface; returns
    one observable result per op in the form ``observed`` yields."""
    out = []
    for op in ops:
        k = op.kind
        if k == "insert":
            model.insert(op.value)
            r = None
        elif k == "search":
            r = model.contains(op.value)
        elif k == "delete":
            r = model.delete(op.value)
        elif k == "extract_min":
            r = model.extract_min()
        elif k == "lower_bound":
            r = model.lower_bound(op.value)
        elif k == "upper_bound":
            r = model.upper_bound(op.value)
        else:
            r = model.interval(op.value, op.hi)
        out.append(r)
    return out


def _model(values) -> ReferenceModel:
    model = ReferenceModel()
    model.values = sorted(values)
    return model


def _plan(name: str, start: np.ndarray, warm: list[OpRecord],
          main: list[OpRecord], rng: random.Random,
          probe_kinds: tuple[str, ...], pool: list, dom: _Domain,
          sizes: Sizes, **extra) -> Plan:
    """Replay the warm-up and main streams on the reference, draw the
    probe streams, and replay each on a copy of the state they leave."""
    model = _model(start.tolist())
    expected_warm = replay(model, warm)
    expected_main = replay(model, main)
    probes = _probe_ops(rng, probe_kinds, sizes.probes, pool, dom)
    expected_probes = [replay(_model(model.values), ops) for ops in probes]
    return Plan(name, start, warm, main, probes, expected_warm, expected_main,
                expected_probes, model.values, **extra)


def make_sort(seed: int, sizes: Sizes) -> Plan:
    """``bwa sort`` on seeded integers in [-2**31, 2**31).  The probe
    streams run every op kind on the structure the sort builds, which
    ``from_values`` reproduces exactly."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(-(1 << 31), 1 << 31, sizes.sort_n, dtype=np.int64)
    ints = vals.tolist()
    dom = _domain(-(1 << 31), 1 << 31, sizes.sort_n)
    return _plan("sort", vals, [], [], random.Random(seed),
                 ("insert", "search", "delete", "extract_min", "bound",
                  "interval"), ints, dom, sizes,
                 sort_text="\n".join(map(str, ints)) + "\n",
                 sort_expected=" ".join(map(str, sorted(ints))) + "\n")


def make_lookup(seed: int, sizes: Sizes) -> Plan:
    """Read-only stream on a void-free bulk-built structure of even values:
    search (half hits, half odd misses), lower/upper bounds, and narrow
    intervals, weighted 4:1:1:2.  Writes only run in the probe streams,
    after the reads."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, 1 << 40, sizes.lookup_n, dtype=np.int64) << 1
    stored = vals.tolist()
    dom = _domain(0, 1 << 41, sizes.lookup_n)
    r = random.Random(seed)
    kinds = r.choices(("search", "lower_bound", "upper_bound", "interval"),
                      weights=(4, 1, 1, 2), k=sizes.lookup_ops)
    searches = iter(_searches(r, "search", kinds.count("search"), 0.5, stored,
                              lambda: dom.draw(r) | 1))
    main = [next(searches) if k == "search" else
            _interval(r, dom) if k == "interval" else OpRecord(k, dom.draw(r))
            for k in kinds]
    return _plan("lookup", vals, [], main, r,
                 ("insert", "delete", "extract_min"), stored, dom, sizes)


# the mix of the issue that defined the benchmark, plus narrow intervals:
# every op kind then runs in the timed stream, across the states it passes
# through, where a probe stream after it would see one state only, whose
# active-segment count, and so interval cost, differs from seed to seed
CHURN_MIX = {"insert": 0.40, "delete": 0.30, "search": 0.20,
             "extract_min": 0.05, "lower_bound": 0.05, "interval": 0.04}
CHURN_RANGE = 1 << 20


def make_churn(seed: int, sizes: Sizes) -> Plan:
    """Mixed reads and writes on a bulk-built structure that fits in L2.
    The stream comes from ``oracle.generate_ops``: search and delete
    operands are drawn nine in ten from the values it inserted so far, and
    its wide intervals are narrowed to a few values each.  Its first
    ``churn_warm`` ops run once, untimed, to bring voids and demotions to
    their steady level; the rest is the timed main stream, so every pass
    replays it from a copy of the warmed state.  There is no probe
    stream."""
    rng = np.random.default_rng(seed)
    vals = rng.integers(0, CHURN_RANGE, sizes.churn_n, dtype=np.int64)
    dom = _domain(0, CHURN_RANGE, sizes.churn_n)
    r = random.Random(seed)
    ops = [_interval(r, dom) if op.kind == "interval" else op
           for op in generate_ops(seed, sizes.churn_warm + sizes.churn_ops,
                                  mix=CHURN_MIX, hit_ratio=0.9,
                                  value_range=CHURN_RANGE)]
    return _plan("churn", vals, ops[:sizes.churn_warm],
                 ops[sizes.churn_warm:], r, (), [], dom, sizes)


WORKLOADS: dict[str, Callable[[int, Sizes], Plan]] = {
    "sort": make_sort, "lookup": make_lookup, "churn": make_churn}


# -- timing helpers ---------------------------------------------------------

_KERNEL_KEYS = np.arange(0, 3 << 10, 3, dtype=np.int64)


def kernel_ns() -> int:
    """Time of one run of the calibration kernel: fixed work independent of
    ``bwa`` whose time follows the machine's current speed."""
    keys = _KERNEL_KEYS
    acc = []
    t0 = clock()
    for i in range(96):
        j = int(np.searchsorted(keys, i * 29))
        acc.append(int(keys[j]) - i if j < 1000 else i)
    acc.sort()
    return clock() - t0


def scale(kernel: list[int]) -> float:
    """Factor from wall to scaled time for work that ran among the kernel
    runs timed in ``kernel``."""
    return REFERENCE_KERNEL_NS / statistics.fmean(kernel)


def block_scales(kernel: list[int]) -> list[float]:
    """``scale`` for each block of a stream, from the kernel runs before the
    block and its ``SCALE_WINDOW`` neighbours on each side.  The machine can
    switch speed within a millisecond, so no single kernel run gives the
    speed a block ran at; the window gives the mix of speeds around it."""
    w = SCALE_WINDOW
    return [scale(kernel[max(0, i - w):i + w + 1]) for i in range(len(kernel))]


@contextmanager
def kernel_sampler(kernel: list[int]):
    """Run the kernel every ``SORT_SAMPLE_S`` seconds from a ``SIGALRM``
    handler while the block runs, appending its times to ``kernel``; the
    caller subtracts their sum from its wall time.  This samples the speed
    during one long call without touching the code that call runs."""
    def sample(signum, frame):
        kernel.append(kernel_ns())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SORT_SAMPLE_S, SORT_SAMPLE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def gc_paused():
    """Collect once, then keep the collector off until the block exits."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def observed(kind: str, result):
    """A structure's return value in the form the reference model gives."""
    if isinstance(result, Exception):
        return result
    if kind in ("search", "delete"):
        return result is not None
    return result


def _encode(ops: list[OpRecord]) -> list[tuple[int, tuple]]:
    enc = []
    for op in ops:
        if op.kind == "interval":
            args = (op.value, op.hi)
        elif op.value is None:
            args = ()
        else:
            args = (op.value,)
        enc.append((_CODE[op.kind], args))
    return enc


def _latency_keys(ops: list[OpRecord], expected: list) -> list[str]:
    """Bucket per op: searches split by the outcome the reference expects,
    lower and upper bounds pooled."""
    keys = []
    for op, exp in zip(ops, expected):
        k = op.kind
        if k == "search":
            keys.append("search_hit" if exp else "search_miss")
        elif k in ("lower_bound", "upper_bound"):
            keys.append("bound")
        else:
            keys.append(k)
    return keys


def timed_stream(bwa, stream):
    """Closed loop over ``stream`` with one kernel run before every block of
    ``BLOCK`` calls; returns the results, the ns of every call, and the
    wall ns and the kernel ns of every block."""
    meths = tuple(getattr(bwa, k) for k in KINDS)
    n = len(stream)
    out = [None] * n
    lat = [0] * n
    blocks = []
    kernel = []
    with gc_paused():
        for b0 in range(0, n, BLOCK):
            kernel.append(kernel_ns())
            chunk = stream[b0:b0 + BLOCK]
            tb = clock()
            for i, (code, args) in enumerate(chunk, b0):
                m = meths[code]
                t0 = clock()
                try:
                    r = m(*args)
                except Exception as exc:      # counted as a failed op
                    r = exc
                lat[i] = clock() - t0
                out[i] = r
            blocks.append(clock() - tb)
    return out, lat, blocks, kernel


def traced_stream(bwa, stream, keys, rec: "Recorder"):
    """``timed_stream`` with a span and the counter deltas around every
    call, kept in memory and handed to ``rec`` after the last call."""
    meths = tuple(getattr(bwa, k) for k in KINDS)
    ctr = bwa.counters
    n = len(stream)
    out = [None] * n
    spans = []
    blocks = []
    kernel = []
    with gc_paused():
        for b0 in range(0, n, BLOCK):
            kernel.append(kernel_ns())
            chunk = stream[b0:b0 + BLOCK]
            tb = clock()
            for i, (code, args) in enumerate(chunk, b0):
                m = meths[code]
                c0, v0, m0, d0, g0 = (ctr.comparisons, ctr.moves,
                                      ctr.merges, ctr.demotes, ctr.grows)
                segs = bwa.total.bit_count()
                t0 = clock()
                try:
                    r = m(*args)
                except Exception as exc:      # counted as a failed op
                    r = exc
                ns = clock() - t0
                spans.append((ns, (ctr.comparisons - c0, ctr.moves - v0,
                                   ctr.merges - m0, ctr.demotes - d0,
                                   ctr.grows - g0), segs))
                out[i] = r
            blocks.append(clock() - tb)
    k = block_scales(kernel)
    for i, ((code, _), key, r, (ns, deltas, segs)) in enumerate(
            zip(stream, keys, out, spans)):
        rec.call(KINDS[code], key, r, ns * k[i // BLOCK], deltas, segs)
    return out, blocks, kernel


# -- tracing ----------------------------------------------------------------

_FIELDS = ("calls", "ns", "cmp", "moves", "merges", "demotes", "grows",
           "segs", "values")


class Recorder:
    """Spans aggregated in memory by key: call count, busy ns, counter
    deltas, active-segment count at call time, and values returned."""

    def __init__(self) -> None:
        self.acc: dict[str, list[int]] = defaultdict(lambda: [0] * len(_FIELDS))
        self.passes = 0

    def add(self, key: str, ns: int, deltas=(0, 0, 0, 0, 0), segs: int = 0,
            values: int = 0, calls: int = 1) -> None:
        a = self.acc[key]
        a[0] += calls
        a[1] += ns
        for j, d in enumerate(deltas):
            a[2 + j] += d
        a[7] += segs
        a[8] += values

    def call(self, kind: str, key: str, result, ns: int, deltas,
             segs: int) -> None:
        """One span of a public call; ``deltas`` are those of comparisons,
        moves, merges, demotes and grows."""
        if kind == "insert":
            self.add("insert", ns, deltas)
            self.inserted(ns, deltas[2], deltas[4])
        elif kind in ("delete", "extract_min"):
            if kind == "extract_min":
                sub = "extract_min"
            elif deltas[3]:
                sub = "delete.demote"
            else:
                sub = "delete.hit" if result is not None else "delete.miss"
            self.add(sub, ns, deltas)
            if deltas[3]:
                self.add("demote", ns, deltas)
        else:
            values = len(result) if isinstance(result, list) else 0
            self.add(key.replace("_", "."), ns, deltas, segs, values)

    def inserted(self, ns: int, merges: int, grows: int) -> None:
        """Carry-chain length and grow bookkeeping of one insert span."""
        self.add(f"merge{merges}", ns)
        if grows:
            self.add("grow", ns)

    def get(self, *keys: str) -> dict[str, int]:
        """Field sums over ``keys``."""
        tot = [0] * len(_FIELDS)
        for k in keys:
            for j, v in enumerate(self.acc.get(k, ())):
                tot[j] += v
        return dict(zip(_FIELDS, tot))


def kept_class(cls, marks: dict):
    """Subclass of ``cls`` that ``bwa.cli`` builds in place of
    ``BlackWhiteArray`` for one sort; it keeps the instance and the clock at
    the drain start in ``marks``.  Its one override runs once per sort."""

    class Kept(cls):
        def iter_sorted(self):
            marks["drain"] = clock()
            marks["bwa"] = self
            return super().iter_sorted()

    return Kept


def traced_class(cls, spans: list, marks: dict):
    """``kept_class`` that also keeps (ns, merges, grows) of every insert in
    ``spans`` and marks the first insert.  Comparisons and moves are read
    once, from the totals."""

    class Traced(kept_class(cls, marks)):
        def insert(self, value):
            ctr = self.counters
            m0, g0 = ctr.merges, ctr.grows
            t0 = clock()
            if not spans:
                marks["first_insert"] = t0
            super().insert(value)
            spans.append((clock() - t0, ctr.merges - m0, ctr.grows - g0))

    return Traced


# -- one run ----------------------------------------------------------------

@dataclass
class RunState:
    """What the passes of one run accumulate: raw wall and kernel times,
    scaled only when reduced.  Passes are identical, so the i-th call of one
    pass repeats the i-th call of every other."""

    work: int = 0                         # ops (sort: integers) per pass
    # per pass: (mean ns of a set-up build, kernel ns around the builds)
    setup: list[tuple[float, list[int]]] = field(default_factory=list)
    # traced -> per pass: (wall ns, scale) of each main-stream block
    main: dict[bool, list[tuple[list[int], list[float]]]] = field(
        default_factory=lambda: {False: [], True: []})
    # untraced stream name -> per pass: (ns of each call, kernel ns per block)
    lat: dict[str, list[tuple[list[int], list[int]]]] = field(
        default_factory=lambda: defaultdict(list))
    keys: dict[str, list[str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    first_error: Optional[str] = None
    mem_bytes_per_value: float = 0.0
    end_state: dict[str, float] = field(default_factory=dict)
    sort_phases: dict[str, list[float]] = field(
        default_factory=lambda: defaultdict(list))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = what

    def compare(self, ops: list[OpRecord], results: list, expected: list,
                where: str) -> None:
        for i, (op, r, exp) in enumerate(zip(ops, results, expected)):
            got = observed(op.kind, r)
            ok = not isinstance(got, Exception) and got == exp
            self.check(ok, "" if ok else
                       f"{where} op {i}: {op} expected {exp!r}, got {got!r}")

    def setup_s(self) -> float:
        """Scaled seconds of a set-up build in the pass whose mean is the
        median."""
        return statistics.median(ns * scale(kernel)
                                 for ns, kernel in self.setup) / 1e9

    def rate(self, traced: bool) -> float:
        """Work per second of the pass whose scaled main-stream time is the
        median."""
        return self.work * 1e9 / statistics.median(
            sum(map(operator.mul, blocks, k)) for blocks, k in self.main[traced])

    def latencies(self) -> dict[str, list[float]]:
        """Per bucket, the median over the untraced passes of each call's
        scaled ns."""
        out = defaultdict(list)
        for stream, passes in self.lat.items():
            scaled = []
            for calls, kernel in passes:
                k = block_scales(kernel)
                scaled.append([ns * k[i // BLOCK] for i, ns in enumerate(calls)])
            for key, ns in zip(self.keys[stream],
                               map(statistics.median, zip(*scaled))):
                out[key].append(ns)
        return out


def footprint(bwa) -> int:
    """Bytes ``tracemalloc`` sees allocated for a deep copy of ``bwa``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dup = copy.deepcopy(bwa)
        held = tracemalloc.get_traced_memory()[0] - before
        del dup
    finally:
        tracemalloc.stop()
    return held


def _segments(bwa) -> tuple[int, list]:
    return bwa.total, [bwa.segment_slots(r) for r in range(bwa.cap_exp)
                       if bwa.is_active(r)]


def _sort_via_cli(plan: Plan, cls) -> tuple[int, str, int, float,
                                             list[int]]:
    """``bwa sort`` in-process on in-memory stdin/stdout, the kernel
    sampled while it runs; returns the exit code, the output, the clock at
    entry, the clock at return less the time the kernel ran in between, and
    the kernel times in between (the one before, if there were none)."""
    saved = sys.stdin, sys.stdout, cli.BlackWhiteArray
    sys.stdin = io.StringIO(plan.sort_text)
    sys.stdout = out = io.StringIO()
    cli.BlackWhiteArray = cls
    kernel = [kernel_ns()]
    try:
        with gc_paused(), kernel_sampler(kernel):
            t0 = clock()
            code = cli.main(["sort"])
            t1 = clock()
            inside = kernel[1:]
    finally:
        sys.stdin, sys.stdout, cli.BlackWhiteArray = saved
    return code, out.getvalue(), t0, t1 - sum(inside), inside or kernel


def _stream(bwa, ops: list[OpRecord], expected: list, name: str,
            st: RunState, rec: Optional[Recorder]):
    """Run one op stream timed, or traced when ``rec`` is set; returns the
    results, the block times and the kernel times."""
    stream = _encode(ops)
    keys = st.keys.setdefault(name, _latency_keys(ops, expected))
    if rec is not None:
        return traced_stream(bwa, stream, keys, rec)
    res, lat, blocks, kernel = timed_stream(bwa, stream)
    st.lat[name].append((lat, kernel))
    return res, blocks, kernel


def _sort_spans(st: RunState, rec: Recorder, spans: list, marks: dict,
                t_in: int, t_out: int, k: float) -> None:
    """Fold the insert spans of one traced ``bwa sort``, scaled by ``k``,
    into ``rec`` and its phases into ``st``."""
    busy = sum(ns for ns, _, _ in spans) * k
    bwa = marks.get("bwa")
    if bwa is not None:
        ctr = bwa.counters
        rec.add("insert", busy, (ctr.comparisons, ctr.moves, ctr.merges,
                                 ctr.demotes, ctr.grows), calls=len(spans))
    for ns, merges, grows in spans:
        rec.inserted(ns * k, merges, grows)
    st.sort_phases["parse"].append((marks.get("first_insert", t_out) - t_in) * k)
    st.sort_phases["build"].append(busy)
    st.sort_phases["drain"].append((t_out - marks.get("drain", t_out)) * k)


def _check_sorted_structure(st: RunState, built, base) -> None:
    """The structure ``bwa sort`` built must pass ``validate()`` and hold
    the segments of its ``from_values`` twin, on which the probes run."""
    try:
        problems = built.validate()
        same = _segments(built) == _segments(base)
    except Exception as exc:              # counted as a failed check
        problems, same = [repr(exc)], False
    st.check(not problems, f"sort: validate() reported {problems[:3]}")
    st.check(same, "sort: structure differs from its from_values twin")


def _setup_samples(plan: Plan, cls, st: RunState, builds: int) -> None:
    """Build the starting structure ``builds`` times, with a kernel run
    before each build and after the last."""
    kernel = [kernel_ns()]
    ns = 0
    for _ in range(builds):
        t0 = clock()
        cls.from_values(plan.start)
        ns += clock() - t0
        kernel.append(kernel_ns())
    st.setup.append((ns / builds, kernel))


def run_pass(plan: Plan, base, cls, st: RunState, rec: Optional[Recorder],
             first: bool) -> None:
    """One main stream on a copy of ``base`` (for ``sort``, one ``bwa
    sort``, whose structure must equal ``base``), then the probe streams,
    each on its own copy of the state the main stream left, so that no op
    kind runs on voids another left; every output is checked, every copy
    validated, and the main stream's end state drained and validated.
    ``rec`` set means traced: spans go to it instead of latency lists."""
    if plan.name == "sort":
        spans: list = []
        marks: dict = {}
        sorter = (kept_class(cls, marks) if rec is None else
                  traced_class(cls, spans, marks))
        code, out, t_in, t_out, kernel = _sort_via_cli(plan, sorter)
        st.check(code == 0 and out == plan.sort_expected,
                 f"sort: exit code {code}, output differs from sorted()")
        st.work = len(plan.start)
        k = scale(kernel)
        st.main[rec is not None].append(([t_out - t_in], [k]))
        if rec is not None:
            _sort_spans(st, rec, spans, marks, t_in, t_out, k)
        if first:
            _check_sorted_structure(st, marks.get("bwa"), base)
        bwa = base
    else:
        bwa = copy.deepcopy(base)
        res, blocks, kernel = _stream(bwa, plan.main, plan.expected_main,
                                      "main", st, rec)
        st.compare(plan.main, res, plan.expected_main, plan.name)
        st.work = len(plan.main)
        st.main[rec is not None].append((blocks, block_scales(kernel)))
    if rec is not None:
        rec.passes += 1

    if first:
        live = len(bwa)
        st.mem_bytes_per_value = footprint(bwa) / max(1, live)
        occ = bwa.stats().occupancy
        st.end_state = {"void_fraction": 1 - live / max(1, bwa.total),
                        "occupancy_min": min(occ.values(), default=0.0)}

    for j, (ops, expected) in enumerate(zip(plan.probes, plan.expected_probes)):
        dup = copy.deepcopy(bwa)
        res, _, _ = _stream(dup, ops, expected, f"probe{j}", st, rec)
        where = f"{plan.name} probe {ops[0].kind}"
        st.compare(ops, res, expected, where)
        _validate(st, dup, where)

    try:
        t0 = clock()
        drained = list(bwa.iter_sorted())
        ns = clock() - t0
    except Exception as exc:              # counted as a failed check
        drained, ns = exc, 0
    if rec is not None:
        rec.add("iter_sorted", ns, values=len(plan.final))
    st.check(drained == plan.final, f"{plan.name}: drain differs from reference")
    _validate(st, bwa, plan.name)


def _validate(st: RunState, bwa, where: str) -> None:
    try:
        problems = bwa.validate()
    except Exception as exc:              # counted as a failed check
        problems = [repr(exc)]
    st.check(not problems, f"{where}: validate() reported {problems[:3]}")


def run(plan: Plan, seconds: float, trace: bool, cls=BlackWhiteArray,
        sizes: Sizes = Sizes()) -> tuple[RunState, Optional[Recorder]]:
    """Build the starting structure, run the warm-up stream on it, then
    repeat passes while one more is expected to end within ``seconds``; at
    least two.  Each pass starts with ``setup_builds`` timed builds (the
    set-up samples, spread over the run like the passes).  A traced run
    alternates untraced and traced passes."""
    st = RunState()
    rec = Recorder() if trace else None
    base = cls.from_values(plan.start)
    if plan.warm:
        res, _, _, _ = timed_stream(base, _encode(plan.warm))
        st.compare(plan.warm, res, plan.expected_warm, f"{plan.name} warm-up")
    begin = clock()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        with gc_paused():
            _setup_samples(plan, cls, st, max(1, sizes.setup_builds))
        run_pass(plan, base, cls, st, rec if traced else None, i == 0)
        i += 1
        spent = clock() - begin
        if i >= 2 and spent * (i + 1) / i > seconds * 1e9:
            break
    if rec is not None:
        for ns, kernel in st.setup:
            rec.add("from_values", ns * scale(kernel), values=len(plan.start))
    return st, rec


# -- metrics ----------------------------------------------------------------

def _stat(samples: list[float], stat: str) -> float:
    """``stat`` of ns samples, in microseconds: ``mean``, ``p50`` (nearest
    rank) or ``top1pct``, the mean of the slowest 1 % of the samples."""
    if not samples:
        return 0.0
    if stat == "mean":
        return statistics.fmean(samples) / 1e3
    s = sorted(samples)
    if stat == "p50":
        return s[max(0, math.ceil(len(s) / 2) - 1)] / 1e3
    return statistics.fmean(s[-math.ceil(len(s) / 100):]) / 1e3


END_TO_END = {
    # name: (unit, latency bucket(s), statistic) for the latency metrics.
    # Half of all inserts find rank 0 free and merge nothing, so the insert
    # median sits on the step between those and one-merge inserts and
    # flips from seed to seed; the mean is the amortized cost instead.
    # The tail is the mean of the slowest 1 %, not the 99th percentile: on
    # churn the slowest few percent walk void runs of widely spread length,
    # so p99 sits on a steep slope of the distribution, where a small shift
    # moves it far.  Over five seeds p99 spread up to 0.31 of its median,
    # the tail mean up to 0.09.
    "insert_mean_us": ("us", ("insert",), "mean"),
    "insert_top1pct_us": ("us", ("insert",), "top1pct"),
    "search_hit_p50_us": ("us", ("search_hit",), "p50"),
    "search_miss_p50_us": ("us", ("search_miss",), "p50"),
    "search_top1pct_us": ("us", ("search_hit", "search_miss"), "top1pct"),
    "delete_p50_us": ("us", ("delete",), "p50"),
    "delete_top1pct_us": ("us", ("delete",), "top1pct"),
    "extract_min_p50_us": ("us", ("extract_min",), "p50"),
    "extract_min_top1pct_us": ("us", ("extract_min",), "top1pct"),
    "bound_p50_us": ("us", ("bound",), "p50"),
    "bound_top1pct_us": ("us", ("bound",), "top1pct"),
    "interval_p50_us": ("us", ("interval",), "p50"),
}


def end_to_end(st: RunState) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count)."""
    m = {"setup_s": (st.setup_s(), "s", len(st.setup)),
         "ops_per_s": (st.rate(False), "ops/s", len(st.main[False]))}
    lat = st.latencies()
    for name, (unit, buckets, stat) in END_TO_END.items():
        samples = [ns for b in buckets for ns in lat.get(b, ())]
        m[name] = (_stat(samples, stat), unit, len(samples))
    m["mem_bytes_per_value"] = (st.mem_bytes_per_value, "B/value", 1)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(st: RunState, rec: Recorder,
              baselines: dict[str, float]) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count) from the traced passes; busy
    times and counts are per pass, a metric with no samples reads 0."""
    p = max(1, rec.passes)
    m: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit, n):
        m[name] = (value, unit, n)

    for k in range(MAX_CHAIN + 1):
        a = rec.get(f"merge{k}")
        put(f"core.merge.rank{k}.us", _ratio(a["ns"], a["calls"]) / 1e3, "us",
            a["calls"])
    ins = rec.get("insert")
    n = ins["calls"]
    put("core.insert.cmp_per_op", _ratio(ins["cmp"], n), "cmp/op", n)
    put("core.insert.moves_per_op", _ratio(ins["moves"], n), "moves/op", n)
    put("core.insert.merges_per_op", _ratio(ins["merges"], n), "merges/op", n)
    put("core.insert.busy_s", ins["ns"] / 1e9 / p, "s", n)
    grow = rec.get("grow")
    put("core.grow.count", ins["grows"] / p, "count", p)
    put("core.grow.us", _ratio(grow["ns"], grow["calls"]) / 1e3, "us",
        grow["calls"])

    srch = rec.get("search.hit", "search.miss")
    hit, miss = rec.get("search.hit"), rec.get("search.miss")
    put("core.search.busy_s", srch["ns"] / 1e9 / p, "s", srch["calls"])
    put("core.search.hit.cmp_per_op", _ratio(hit["cmp"], hit["calls"]),
        "cmp/op", hit["calls"])
    put("core.search.miss.cmp_per_op", _ratio(miss["cmp"], miss["calls"]),
        "cmp/op", miss["calls"])
    put("core.search.segments_per_op", _ratio(srch["segs"], srch["calls"]),
        "segments/op", srch["calls"])
    put("core.search.miss.us_per_segment",
        _ratio(miss["ns"], miss["segs"]) / 1e3, "us/segment", miss["calls"])

    dele = rec.get("delete.hit", "delete.miss", "delete.demote")
    dem, dhit = rec.get("delete.demote"), rec.get("delete.hit")
    demote = rec.get("demote")
    put("core.delete.busy_s", dele["ns"] / 1e9 / p, "s", dele["calls"])
    put("core.delete.cmp_per_op", _ratio(dele["cmp"], dele["calls"]),
        "cmp/op", dele["calls"])
    put("core.demote.count", demote["demotes"] / p, "count", p)
    put("core.demote.us_extra",
        (_ratio(dem["ns"], dem["calls"]) - _ratio(dhit["ns"], dhit["calls"]))
        / 1e3 if dem["calls"] and dhit["calls"] else 0.0, "us", dem["calls"])
    put("core.demote.merge_share", _ratio(demote["merges"], demote["demotes"]),
        "ratio", demote["demotes"])
    ext = rec.get("extract_min")
    put("core.extract_min.busy_s", ext["ns"] / 1e9 / p, "s", ext["calls"])
    put("core.extract_min.cmp_per_op", _ratio(ext["cmp"], ext["calls"]),
        "cmp/op", ext["calls"])
    put("core.void_fraction", st.end_state.get("void_fraction", 0.0), "ratio", 1)
    put("core.occupancy_min", st.end_state.get("occupancy_min", 0.0), "ratio", 1)

    bnd, itv = rec.get("bound"), rec.get("interval")
    put("core.bound.busy_s", bnd["ns"] / 1e9 / p, "s", bnd["calls"])
    put("core.bound.cmp_per_op", _ratio(bnd["cmp"], bnd["calls"]), "cmp/op",
        bnd["calls"])
    put("core.interval.busy_s", itv["ns"] / 1e9 / p, "s", itv["calls"])
    put("core.interval.us_per_value", _ratio(itv["ns"], itv["values"]) / 1e3,
        "us/value", itv["calls"])
    drain, build = rec.get("iter_sorted"), rec.get("from_values")
    put("core.iter_sorted.ns_per_value", _ratio(drain["ns"], drain["values"]),
        "ns/value", drain["calls"])
    put("core.from_values.ns_per_value", _ratio(build["ns"], build["values"]),
        "ns/value", build["calls"])

    phases = st.sort_phases
    nsort = len(phases["parse"])
    put("cli.sort.parse_s", _ratio(sum(phases["parse"]), nsort) / 1e9, "s", nsort)
    put("cli.sort.build_s", _ratio(sum(phases["build"]), nsort) / 1e9, "s",
        nsort)
    put("cli.sort.drain_s", _ratio(sum(phases["drain"]), nsort) / 1e9, "s", nsort)

    for name, value in baselines.items():
        put(name, value, "ops/s", 1)
    put("trace.overhead", 1 - st.rate(True) / st.rate(False), "ratio",
        len(st.main[True]))
    return m


# -- same-machine baselines (context, never gated) -------------------------

class SortedListModel:
    """``ReferenceModel`` surface over ``sortedcontainers.SortedList``."""

    def __init__(self, values) -> None:
        from sortedcontainers import SortedList
        self.sl = SortedList(values)

    def insert(self, v) -> None:
        self.sl.add(v)

    def contains(self, v) -> bool:
        return v in self.sl

    def delete(self, v) -> bool:
        sl = self.sl
        i = sl.bisect_left(v)
        if i < len(sl) and sl[i] == v:
            del sl[i]
            return True
        return False

    def extract_min(self):
        return self.sl.pop(0) if self.sl else None

    def lower_bound(self, v):
        i = self.sl.bisect_right(v)
        return self.sl[i] if i < len(self.sl) else None

    def upper_bound(self, v):
        i = self.sl.bisect_left(v)
        return self.sl[i - 1] if i > 0 else None

    def interval(self, lo, hi) -> list:
        return list(self.sl.irange(lo, hi))


def _rate(work: int, fn) -> float:
    with gc_paused():
        t0 = clock()
        fn()
        wall = clock() - t0
    return work * 1e9 / wall


def baselines(plan: Plan) -> dict[str, float]:
    """Ops per second of the same main stream on the ``insort`` reference
    model and on ``SortedList``; for ``sort`` the same text through a
    SortedList and a ``sorted()`` pipeline.  A metric that does not apply
    reads 0."""
    out = {"oracle.ref.ops_per_s": 0.0, "baseline.sortedlist.ops_per_s": 0.0,
           "baseline.sorted.ops_per_s": 0.0}
    try:
        from sortedcontainers import SortedList
    except ImportError:
        SortedList = None
    if plan.name == "sort":
        text = plan.sort_text

        def pipeline(build):
            values = [int(t) for t in text.split()]
            return " ".join(map(str, build(values))) + "\n"

        def via_sortedlist(values):
            sl = SortedList()
            for v in values:
                sl.add(v)
            return sl

        n = len(plan.start)
        out["baseline.sorted.ops_per_s"] = _rate(n, lambda: pipeline(sorted))
        if SortedList is not None:
            out["baseline.sortedlist.ops_per_s"] = _rate(
                n, lambda: pipeline(via_sortedlist))
        return out
    start = plan.start.tolist()
    model = _model(start)
    out["oracle.ref.ops_per_s"] = _rate(len(plan.main),
                                        lambda: replay(model, plan.main))
    if SortedList is not None:
        sl = SortedListModel(start)
        out["baseline.sortedlist.ops_per_s"] = _rate(
            len(plan.main), lambda: replay(sl, plan.main))
    return out
