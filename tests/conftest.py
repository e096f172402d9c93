import numpy as np
import pytest

from hbcalc.cli import load_catalog

from support import FIXTURES, nondegenerate_trig_loop


@pytest.fixture(scope="session")
def demo_catalog():
    return load_catalog(str(FIXTURES / "catalog_demo.json"))


@pytest.fixture(scope="session")
def fixture_catalog():
    return load_catalog(str(FIXTURES / "catalog_fixture.json"))


@pytest.fixture(scope="session")
def table_catalog():
    return load_catalog(str(FIXTURES / "catalog_table.json"))


@pytest.fixture(scope="session")
def trig_loops():
    """The 20 nondegenerate loops of acceptance criterion 02 (seed 20240601)."""
    rng = np.random.default_rng(20240601)
    return [nondegenerate_trig_loop(rng, n=201) for _ in range(20)]
