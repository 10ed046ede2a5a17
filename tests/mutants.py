"""Mutation checks: named patches to ``src/bwa/core.py``, each with the
tests expected to kill it.

A patch replaces one exact string of the module, which must occur there
exactly once (``tests/test_mutants.py`` checks that).  For each patch,
``python tests/mutants.py [name ...]`` copies ``src``, ``tests`` and
``pyproject.toml`` into a temporary directory, applies the patch there and
runs each test the patch names on its own, under the hypothesis profile
``mutants`` (``tests/conftest.py``), which does not shrink a failing
example.  The mutant is *killed* when
every one of them fails, and *survived* when any passes; the exit status is
1 unless every mutant run is killed.  The tests are named by pytest node
id, a stateful machine by its ``TestCase``; each mutant of the walk's high
part (``_high``) names a ``Narrow`` machine, whose small filter bound puts
most of its states' ranks in that part.  pytest does not collect this
file: its name does not start with ``test_``.
"""

from pathlib import Path
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
CORE = "src/bwa/core.py"
PROFILE = "mutants"     # registered in tests/conftest.py


class Mutant(NamedTuple):
    name: str
    old: str            # occurs exactly once in CORE
    new: str
    kills: tuple        # node ids of the tests expected to fail


MUTANTS = (
    Mutant("high-drops-below-low",
           "+ (_SPANS[rank],) + high[len(high) - below:])",
           "+ (_SPANS[rank],))",
           ("tests/test_walk.py::TestHighUpkeep::test_random_history",
            "tests/test_walk.py::TestHighUpkeep::test_demotions",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("high-carry-unguarded",
           "if a < small and not total & s:",
           "if a < small:",
           ("tests/test_walk.py::TestHighUpkeep::test_demotions",
            "tests/test_pairwise.py",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("high-demote-kept",
           "                    n = (self._total >> rank).bit_count()\n"
           "                    self._high = self._high[:n]"
           " + self._high[n + 1:]\n",
           "                    pass\n",
           ("tests/test_walk.py::TestHighUpkeep::test_demotions",
            "tests/test_pairwise.py",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("high-compact-kept",
           "        self.__dict__ = vars(fresh)\n",
           "        fresh._high = self._high\n"
           "        self.__dict__ = vars(fresh)\n",
           ("tests/test_walk.py::TestHighUpkeep::test_compact_adopts_it",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("missed-no-minus-one",
           "charge -= 1",
           "charge -= 0",
           ("tests/test_filter.py::TestMissCharge::test_every_pattern",
            "tests/test_stateful.py::TestIntQuerySurface",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("missed-compare-le",
           "if wv[k] < value:",
           "if wv[k] <= value:",
           ("tests/test_filter.py::TestMissCharge"
            "::test_a_last_slot_equal_to_the_probe",)),
    Mutant("filter-insert-no-add",
           "self._filter.add(",
           "set().add(",
           ("tests/test_stateful.py::TestIntQuerySurface",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("filter-demote-no-add",
           "if d < self._small <= s:",
           "if False:",
           ("tests/test_filter.py::TestUpkeep"
            "::test_demotion_into_the_filtered_ranks",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("minimum-removes",
           "return self._first(False)",
           "return self._first(True)",
           ("tests/test_walk.py::TestReadersWriteNothing"
            "::test_every_read_leaves_the_instance",
            "tests/test_stateful.py::TestIntQuerySurface",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("interval-window-uncharged",
           "cmp += (b - i).bit_length()",
           "cmp += 0",
           ("tests/test_augment.py::TestInterval::test_window_edges",
            "tests/test_stateful.py::TestIntQuerySurface",
            "tests/test_stateful.py::TestNarrowQuerySurface")),
    Mutant("interval-peek-widened",
           "if hi < wv[b - 1]:",
           "if hi <= wv[b - 1]:",
           ("tests/test_augment.py::TestInterval::test_window_edges",
            "tests/test_stateful.py::TestFloatQuerySurface")),
    Mutant("closed-form-tie-to-rank-0",
           "if x <= y",
           "if x < y",
           ("tests/test_pairwise.py"
            "::test_every_four_slot_carry_matches_pairwise_chain",
            "tests/test_pairwise.py"
            "::test_rank_one_demotion_matches_pairwise_chain")),
    Mutant("closed-form-low-pair-strict",
           "if q <= c:",
           "if q < c:",
           ("tests/test_pairwise.py"
            "::test_every_four_slot_carry_matches_pairwise_chain",
            "tests/test_pairwise.py"
            "::test_one_write_carry_matches_pairwise_chain")),
    Mutant("closed-form-high-pair-loose",
           "elif d < p:",
           "elif d <= p:",
           ("tests/test_pairwise.py"
            "::test_every_four_slot_carry_matches_pairwise_chain",
            "tests/test_pairwise.py"
            "::test_one_write_carry_matches_pairwise_chain")),
    Mutant("demote-survivor-from-3",
           "v = wv[2] if self._mask[2] else wv[3]",
           "v = wv[3]",
           ("tests/test_pairwise.py"
            "::test_rank_one_demotion_matches_pairwise_chain",
            "tests/test_core.py::TestRankOneDemotion",
            "tests/test_stateful.py::TestIntQuerySurface")),
    Mutant("demote-uncounted",
           "self.counters.demotes += 1",
           "self.counters.demotes += 0",
           ("tests/test_pairwise.py"
            "::test_rank_one_demotion_matches_pairwise_chain",
            "tests/test_core.py::TestRankOneDemotion")),
    Mutant("demote-refilter-dropped",
           "        self.counters.demotes += 1\n"
           "        if len(self._filter) > self._small << 1:\n"
           "            self._refilter()\n",
           "        self.counters.demotes += 1\n",
           ("tests/test_filter.py::TestUpkeep"
            "::test_rank_one_demotions_alone_keep_it_bounded",)),
    Mutant("demote-undo-dropped",
           "                self._total += 2\n",
           "                pass\n",
           ("tests/test_core.py::TestRankOneDemotion",)),
)


def _copy(mutant: Mutant, where: Path) -> None:
    """The files the tests read, into ``where``, with ``mutant`` applied."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                  ".pytest_cache")
    for d in ("src", "tests"):
        shutil.copytree(ROOT / d, where / d, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", where)
    path = where / CORE
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old string occurs "
                         f"{text.count(mutant.old)} times in {CORE}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _fails(node: str, where: Path) -> bool:
    """Whether the test ``node`` fails in ``where``; an error that is not
    a test failure (collection, usage) raises."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         f"--hypothesis-profile={PROFILE}", node],
        cwd=where, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"pytest {node} exited {run.returncode}:\n"
                         f"{run.stdout[-2000:]}{run.stderr[-2000:]}")
    return run.returncode == 1


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    survived = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            _copy(mutant, Path(tmp))
            passed = [node for node in mutant.kills
                      if not _fails(node, Path(tmp))]
        if passed:
            survived += 1
            print(f"{mutant.name}: survived ({', '.join(passed)} passed)")
        else:
            print(f"{mutant.name}: killed by all {len(mutant.kills)} tests")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
