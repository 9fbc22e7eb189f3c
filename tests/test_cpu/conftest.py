"""Fixtures shared by the timing-model tests."""

import pytest
from timing_matrix import TimingMatrix


@pytest.fixture(scope="session")
def timing_matrix():
    """The equality matrix, each cell timed once per session."""
    return TimingMatrix()
