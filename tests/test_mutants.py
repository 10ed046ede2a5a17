"""The mutation catalogue of ``tests/mutants.py`` stays aimed at the code:
each patch's old string occurs exactly once in ``src/bwa/core.py`` and
changes it, and each test a patch names exists.  Running the mutants is
``python tests/mutants.py``, not a tier-1 test."""

import importlib
from pathlib import Path

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_patch_applies(mutant):
    text = (mutants.ROOT / mutants.CORE).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.kills
    for node in mutant.kills:
        path, *names = node.split("::")
        assert (mutants.ROOT / path).is_file(), node
        obj = importlib.import_module(Path(path).stem)
        for name in names:
            obj = getattr(obj, name)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
