import json

import pytest
from hypothesis import settings

from orbitduality import data
from orbitduality.orbits import NilpotentPoset

# reproducible property tests that keep no example database on disk
settings.register_profile(
    "orbitduality", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("orbitduality")


# classical (family, rank) pairs, type D from rank 2: the poset laws are
# cheap to rank 10; special pieces, cubic in the orbit count, stay at rank 6,
# and at rank 4 with the acceptance suite's brute force
LAW_RANKS = [(f, r) for f in "ABCD" for r in range(1 + (f == "D"), 11)]
PIECE_RANKS = [(f, r) for f, r in LAW_RANKS if r <= 6]
ACCEPTANCE_RANKS = [(f, r) for f, r in LAW_RANKS if r <= 4]


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


@pytest.fixture()
def sommers_calls(monkeypatch):
    calls = []
    real = NilpotentPoset.sommers

    def counted(self, label, class_label):
        calls.append((label, class_label))
        return real(self, label, class_label)

    # every table read, ``d``'s included, goes through the base method
    monkeypatch.setattr(NilpotentPoset, "sommers", counted)
    return calls
