import numpy as np
import pytest

from attachnet import fixtures
from attachnet.ingest import Demographics, ResponseTable


@pytest.fixture(scope="session")
def fixture_model():
    return fixtures.load_fixture_model()


@pytest.fixture(scope="session")
def fixture_partition():
    return fixtures.load_fixture_partition()


@pytest.fixture(scope="session")
def polarity():
    return fixtures.load_polarity()


def make_table(rows, items=None, age=None, gender=None, country=None):
    """Build a ResponseTable straight from arrays, bypassing CSV parsing."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if items is None:
        items = tuple(f"Q{i + 1:02d}" for i in range(rows.shape[1]))
    demo = Demographics.from_labels(
        age if age is not None else [-1] * n,
        gender if gender is not None else ("unknown",) * n,
        country if country is not None else ("",) * n,
    )
    return ResponseTable(items=tuple(items), rows=rows, demographics=demo)


@pytest.fixture
def rng():
    return np.random.default_rng(20210401)
