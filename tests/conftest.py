"""Fixtures shared by the test modules."""

import pytest

from _instances import EVERY_PAIR
from coxcut import mrf


@pytest.fixture
def every_pair(monkeypatch):
    """Keep each pair the kernels do not round to 0, as an energy over all pairs would."""
    monkeypatch.setattr(mrf, "PAIR_CUTOFF", EVERY_PAIR)
