"""Repository benchmark: one closed-loop workload of the bwa package.

Run from the repository root:

    python3 perfbench/run.py --workload {sort,lookup,churn} --seed N \\
        --seconds S --trace {0,1}

The program is imported from ``src/`` of the same checkout; nothing needs
building.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead and same-machine baselines.  Every
output is checked against a reference.  One line per metric (name, value,
unit, sample count) and one environment line are printed first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any op
or check failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and make sure ``bwa``
    comes from there, never from an installed copy."""
    pkg = SRC / "bwa"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no bwa sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import bwa
    if Path(bwa.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: bwa imported from {bwa.__file__}, not {pkg}")


def _environment() -> dict:
    import numpy
    try:
        import sortedcontainers
        sc = sortedcontainers.__version__
    except ImportError:
        sc = None
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sortedcontainers": sc,
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sort", "lookup", "churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")

    _import_program()
    import workloads as wl

    plan = wl.WORKLOADS[args.workload](args.seed, wl.Sizes())
    st, rec = wl.run(plan, args.seconds, bool(args.trace))
    if rec is None:
        metrics = wl.end_to_end(st)
    else:
        metrics = wl.per_layer(st, rec, wl.baselines(plan))

    for name, (value, unit, n) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit:11s} n={n}")
    print(f"fail_ratio {st.failed / st.attempted:.6g} "
          f"({st.failed} of {st.attempted} ops and checks)")
    if st.first_error:
        print(f"first failure: {st.first_error}", file=sys.stderr)
    print("env " + json.dumps(_environment(), sort_keys=True))
    print(json.dumps({
        "correct": st.failed == 0,
        "attempted": st.attempted,
        "failed": st.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if st.failed else 0


if __name__ == "__main__":
    sys.exit(main())
