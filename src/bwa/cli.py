"""Command-line entry point: bench, verify, trace, and sort workflows.

Exit codes: 0 success, 1 verification divergence, I/O failure or a
structure too large to allocate, 2 bad flags or arguments.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bench import CONFIGS, BenchConfig, run_bench, write_csv
from .core import BlackWhiteArray
from .oracle import KINDS, OpRecord, run_equivalence

# every kind, inserts outweighing the removing kinds so the structure grows
_VERIFY_MIX = dict.fromkeys(KINDS, 1) | {"insert": 4}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwa",
        description="Segmented-array ordered multiset: benchmarks, "
                    "model-based verification, op-script tracing, sorting.")
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="measure amortized op cost, write CSV")
    bench.add_argument("--min-exp", type=int, default=10, metavar="M")
    bench.add_argument("--max-exp", type=int, default=14, metavar="X")
    bench.add_argument("--ops", default="insert,search,delete", metavar="LIST",
                       help="comma-separated subset of insert,search,delete")
    bench.add_argument("--config", choices=CONFIGS, default="random")
    bench.add_argument("--trials", type=int, default=1000, metavar="T",
                       help="random-configuration trials per size")
    bench.add_argument("--hit-ratio", type=float, default=0.5, metavar="H")
    bench.add_argument("--seed", type=int, default=0, metavar="S")
    bench.add_argument("--out", required=True, metavar="FILE")
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify", help="replay a random workload against "
                                           "the reference model")
    verify.add_argument("--size-exp", type=int, default=14, metavar="E",
                        help="capacity exponent of the structure under test")
    verify.add_argument("--ops", type=int, default=100_000, metavar="N",
                        help="operation count")
    verify.add_argument("--seed", type=int, default=0, metavar="S")
    verify.add_argument("--hit-ratio", type=float, default=0.5, metavar="H")
    verify.set_defaults(func=_cmd_verify)

    trace = sub.add_parser("trace", help="replay an op script, dumping "
                                         "segments after each step")
    trace.add_argument("--script", required=True, metavar="FILE")
    trace.set_defaults(func=_cmd_trace)

    sort = sub.add_parser("sort", help="read whitespace-separated integers on "
                                       "stdin, print them sorted")
    sort.set_defaults(func=_cmd_sort)
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    ops = tuple(s.strip() for s in args.ops.split(",") if s.strip())
    try:
        cfg = BenchConfig(min_exp=args.min_exp, max_exp=args.max_exp, ops=ops,
                          config=args.config, trials=args.trials,
                          hit_ratio=args.hit_ratio, seed=args.seed)
    except ValueError as exc:
        print(f"bwa bench: {exc}", file=sys.stderr)
        return 2
    rows = run_bench(cfg)
    try:
        write_csv(rows, args.out)
    except OSError as exc:
        print(f"bwa bench: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # 62: the largest capacity exponent whose slot indices int64 holds
    if (not 1 <= args.size_exp <= 62 or args.ops < 0
            or not 0.0 <= args.hit_ratio <= 1.0):
        print("bwa verify: size-exp must lie in [1, 62], ops >= 0, "
              "hit-ratio in [0, 1]", file=sys.stderr)
        return 2
    try:
        bwa = BlackWhiteArray(args.size_exp)
    except (MemoryError, ValueError) as exc:  # numpy: no room, or too big
        print(f"bwa verify: cannot allocate 2**{args.size_exp} slots: {exc}",
              file=sys.stderr)
        return 1
    divergence = run_equivalence(seed=args.seed, n=args.ops, mix=_VERIFY_MIX,
                                 hit_ratio=args.hit_ratio,
                                 cap_exp=args.size_exp,
                                 factory=lambda cap_exp: bwa)
    if divergence is None:
        print(f"ok: {args.ops} ops, no divergence")
        return 0
    print(f"divergence: {divergence}")
    return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    try:
        text = Path(args.script).read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"bwa trace: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"bwa trace: {args.script}: not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    bwa = BlackWhiteArray(4)
    for lineno, raw in enumerate(text.splitlines(), 1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        kind, tokens = words[0], words[1:]
        try:
            if KINDS.get(kind) != len(tokens):
                grammar = " | ".join(k + " V" * n for k, n in KINDS.items())
                raise ValueError(f"cannot parse {raw!r} (expected: {grammar})")
            op = OpRecord(kind, *map(int, tokens))
            result = getattr(bwa, kind)(*op.args)
        except (ValueError, OverflowError) as exc:
            print(f"bwa trace: line {lineno}: {exc}", file=sys.stderr)
            return 1
        if kind in ("search", "delete"):
            result = "miss" if result is None else f"hit @{result}"
        print(f"> {op}" if kind in ("insert", "compact") else f"> {op} -> {result}")
        print(bwa.dump() or "(empty)")
    return 0


def _parse_ints(tokens: list[str], dtype: np.dtype) -> np.ndarray:
    """``tokens`` parsed by ``int()`` straight into an array of ``dtype``.
    Raises ValueError for the first token ``int()`` rejects, even one after
    a value out of range, and else OverflowError naming the first value
    out of range."""
    try:
        return np.fromiter(map(int, tokens), dtype=dtype, count=len(tokens))
    except OverflowError:
        pass                                # the tokens after it are unread
    values = list(map(int, tokens))         # raises for a bad token anywhere
    info = np.iinfo(dtype)
    v = next(v for v in values if not info.min <= v <= info.max)
    raise OverflowError(f"{v} does not fit in {dtype}")


_INT64 = np.iinfo(np.int64)
_SPACE = np.zeros(256, bool)                # numpy's separators, by byte
_SPACE[list(b" \t\n\v\f\r")] = True
# a token int() rejects for its length has more than 640 digits (the least
# limit int() can be given); if int64 holds it, 19 or fewer are significant
_LONG_ZEROS = "0" * 622


def _signs_lead_digits(text: str) -> bool:
    """Whether every ``+`` and ``-`` of ASCII ``text`` begins a token (at
    the start or after whitespace) and is followed by an ASCII digit."""
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    sign = b == 45
    if "+" in text:
        sign |= b == 43
    at = np.flatnonzero(sign)
    if not at.size:
        return True
    if at[-1] == b.size - 1:                # no digit can follow it
        return False
    lead = at[1:] if at[0] == 0 else at     # the first byte begins a token
    return bool(((b[at + 1] - 48) < 10).all()            # uint8: wraps
                and _SPACE[b[lead - 1]].all())


def _read_ints(text: str) -> np.ndarray:
    """What ``_parse_ints(text.split(), int64)`` returns, or the exception
    it raises.  numpy's C text parser reads ``text`` when a certificate
    proves that it agrees.  It does not agree on blank text (read as
    ``[0]``), a sign not followed by a digit (``"1 - 2"`` reads ``[1,
    -2]``), a token out of range (clamped to an extreme), or a token with
    more digits than ``int()`` accepts (read for its value)."""
    if (text and text.isascii() and not text.isspace()
            and _LONG_ZEROS not in text and _signs_lead_digits(text)):
        try:
            with warnings.catch_warnings():
                # older numpy warns, not raises, at an unparsed character
                warnings.simplefilter("error", DeprecationWarning)
                batch = np.fromstring(text, np.int64, sep=" ")
            if _INT64.min < batch.min() and batch.max() < _INT64.max:
                return batch
        except (ValueError, DeprecationWarning):
            pass
    return _parse_ints(text.split(), np.dtype(np.int64))


def _cmd_sort(args: argparse.Namespace) -> int:
    try:
        text = sys.stdin.read()
    except UnicodeDecodeError as exc:
        print(f"bwa sort: stdin is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    try:
        batch = _read_ints(text)
    except (ValueError, OverflowError) as exc:
        print(f"bwa sort: {exc}", file=sys.stderr)
        return 1
    bwa = BlackWhiteArray.from_values(batch)
    values = tuple(bwa.iter_sorted())
    out = sys.stdout
    out.write(("%d " * len(values))[:-1] % values)
    # the newline is a write of its own: CPython reports a large write that
    # a closed pipe cut short as a success, so only this one raises
    # BrokenPipeError
    out.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()                  # a closed reader shows here
        return code
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to
        # devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
