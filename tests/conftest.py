from hypothesis import Phase, settings
import numpy as np
import pytest

from bwa import BlackWhiteArray

# ``tests/mutants.py`` runs each test under this profile: a kill needs only
# the first failure, and shrinking a failing stateful machine can take
# minutes; a plain run keeps hypothesis's default profile
settings.register_profile(
    "mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate,
                       Phase.target))


def owned_bytes(bwa) -> int:
    """Bytes of the buffers ``bwa`` owns: its ndarrays that view no other
    buffer, and its bytearrays."""
    return sum(len(v) if isinstance(v, bytearray) else v.nbytes
               for v in vars(bwa).values()
               if isinstance(v, bytearray)
               or isinstance(v, np.ndarray) and v.base is None)


class Narrow(BlackWhiteArray):
    """Bridges on small structures: one entry per 2 slots of a lower
    segment, on every segment of more than 4 slots below another."""

    _LOOKAHEAD = 2
    _BRIDGED = 4


class Native(Narrow):
    """``Narrow``'s bridges, and numpy's search of a top segment of 8 slots
    or more on an integer dtype, where the class searches from 2**19."""

    _NATIVE = 8


class _Recorded(np.ndarray):
    """A segment view (``_views``) that logs its rank at each search."""

    def searchsorted(self, v, side="left"):
        self.log.append(self.rank)
        return super().searchsorted(v, side)


def record_native(bwa, log):
    """Make each numpy search of a segment of ``bwa`` append its rank to
    ``log``.  The views stay over the same slots, so ``validate()`` passes."""
    for r, view in bwa._views.items():
        bwa._views[r] = view.view(_Recorded)
        bwa._views[r].rank, bwa._views[r].log = r, log


# Eight inserts whose final one triggers a three-level merge cascade,
# consolidating everything into the rank-3 segment.
EIGHT = (83, 67, 59, 21, 76, 33, 45, 52)

# Fourteen inserts then four deletes leave voids at known slots; deleting 59
# afterwards drops the top segment's occupancy to exactly half and forces a
# demotion followed by a merge.
PRELUDE_INSERTS = (6, 10, 20, 52, 59, 67, 70, 83, 21, 77, 80, 91, 45, 82)
PRELUDE_DELETES = (10, 20, 70, 80)


@pytest.fixture
def eight_value_array() -> BlackWhiteArray:
    bwa = BlackWhiteArray(4, "fixed")
    for v in EIGHT:
        bwa.insert(v)
    return bwa


@pytest.fixture
def demotion_ready_array() -> BlackWhiteArray:
    bwa = BlackWhiteArray(4, "fixed")
    for v in PRELUDE_INSERTS:
        bwa.insert(v)
    for v in PRELUDE_DELETES:
        bwa.delete(v)
    return bwa
