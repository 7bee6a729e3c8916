import json

import pytest
from hypothesis import settings

from orbitduality import data

# reproducible property tests that keep no example database on disk
settings.register_profile(
    "orbitduality", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("orbitduality")


@pytest.fixture(scope="session")
def f4_bundle():
    return data.load_builtin_bundle("f4")


@pytest.fixture(scope="session")
def f4_pair(f4_bundle):
    return data.dual_pair(f4_bundle)


@pytest.fixture(scope="session")
def f4_params(f4_bundle):
    return data.parameter_set(f4_bundle, "F4(a3)")


@pytest.fixture()
def f4_doc():
    """Mutable plain-dict copy of the shipped bundle document."""
    return json.loads(data.builtin_bundle_text("f4"))
