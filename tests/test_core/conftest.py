"""The test-scale report, collected once for the report and experiment tests."""

import pytest

from repro.api import Session
from repro.core.report import collect, render


@pytest.fixture(scope="session")
def report_rows():
    """Every report table's rows at ``test`` scale, keyed by ledger table."""
    with Session(scale="test", eval_scale="test", seed=0, cache=False) as session:
        return collect(session)


@pytest.fixture(scope="session")
def report_text(report_rows):
    return render(report_rows, "test", "test", 0)
