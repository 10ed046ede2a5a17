"""Self-test of the benchmark at tiny sizes; takes a few seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It checks, for every workload, that both trace modes emit exactly the
metrics ``BENCHMARK.json`` declares, that the end-to-end ones are non-zero,
that the unmodified structure passes every output check, that the
counter-derived per-layer metrics repeat exactly for a seed, and that a
deliberately wrong ``BlackWhiteArray`` subclass is caught.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import sys

import run

run._import_program()

import workloads as wl                    # noqa: E402  (needs the path set)
from bwa.core import BlackWhiteArray      # noqa: E402

TINY = wl.Sizes(sort_n=3000, lookup_n=(1 << 12) - 123, lookup_ops=800,
                churn_n=(1 << 10) - 123, churn_warm=2000, churn_ops=1000,
                probes=50, setup_builds=2)

# per-layer metrics read from counters, which must not depend on timing
EXACT = ("core.insert.cmp_per_op", "core.insert.moves_per_op",
         "core.insert.merges_per_op", "core.grow.count",
         "core.search.hit.cmp_per_op", "core.search.miss.cmp_per_op",
         "core.search.segments_per_op", "core.delete.cmp_per_op",
         "core.demote.count", "core.demote.merge_share",
         "core.extract_min.cmp_per_op", "core.void_fraction",
         "core.occupancy_min", "core.bound.cmp_per_op")


class Wrong(BlackWhiteArray):
    """Misses every stored multiple of 3 and drops the largest value when
    drained."""

    def search(self, value):
        idx = super().search(value)
        return None if idx is not None and value % 3 == 0 else idx

    def iter_sorted(self):
        return iter(list(super().iter_sorted())[:-1])


def _declared() -> tuple[set, set]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def _expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)


def main() -> int:
    end_names, layer_names = _declared()
    for name, make in wl.WORKLOADS.items():
        plan = make(7, TINY)

        st, _ = wl.run(plan, 0, False, sizes=TINY)
        e2e = wl.end_to_end(st)
        _expect(set(e2e) == end_names, f"{name}: end-to-end names {sorted(e2e)}")
        _expect(st.failed == 0, f"{name}: {st.first_error}")
        zero = [k for k, (v, _, _) in e2e.items() if not v > 0]
        _expect(not zero, f"{name}: end-to-end metrics read 0: {zero}")

        layers = []
        for _ in range(2):
            st, rec = wl.run(plan, 0, True, sizes=TINY)
            _expect(st.failed == 0, f"{name} traced: {st.first_error}")
            layers.append(wl.per_layer(st, rec, wl.baselines(plan)))
        _expect(set(layers[0]) == layer_names,
                f"{name}: per-layer names {sorted(layers[0])}")
        moved = [k for k in EXACT if layers[0][k][0] != layers[1][k][0]]
        _expect(not moved, f"{name}: counter metrics differ between runs: {moved}")

        st, _ = wl.run(plan, 0, False, cls=Wrong, sizes=TINY)
        _expect(st.failed > 0, f"{name}: wrong structure passed every check")
        print(f"{name}: ok ({st.failed} of {st.attempted} checks caught the "
              f"wrong structure)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
