import json

import pytest
from hypothesis import settings

from orbitduality import data, duality, packets
from orbitduality.poset import NilpotentPoset

# reproducible property tests that keep no example database on disk
settings.register_profile(
    "orbitduality", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("orbitduality")


# classical (family, rank) pairs, type D from rank 2: the poset laws are
# cheap to rank 10; special pieces, quadratic in the orbit count once each
# poset keeps its specials, stay at rank 7, and at rank 4 with the acceptance
# suite's brute force
LAW_RANKS = [(f, r) for f in "ABCD" for r in range(1 + (f == "D"), 11)]
PIECE_RANKS = [(f, r) for f, r in LAW_RANKS if r <= 7]
ACCEPTANCE_RANKS = [(f, r) for f, r in LAW_RANKS if r <= 4]


@pytest.fixture(scope="session")
def f4_bundle():
    return data.load_builtin_bundle("f4")


@pytest.fixture(scope="session")
def f4_pair(f4_bundle):
    return data.dual_pair(f4_bundle)


@pytest.fixture()
def fresh_f4_pair(f4_bundle):
    """An F4 pair whose refined-duality table no earlier call has filled:
    the session's ``f4_pair`` keeps its table from test to test."""
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


@pytest.fixture()
def az_duals(monkeypatch):
    """The parameters ``packets.az_dual`` is asked to pair, by id."""
    calls = []
    real = packets.az_dual

    def counted(ps, x):
        calls.append(x.id)
        return real(ps, x)

    # the packet queries read the name from their module on each call
    monkeypatch.setattr(packets, "az_dual", counted)
    return calls


@pytest.fixture()
def label_checks(monkeypatch):
    """The labels ``NilpotentPoset.check_label`` is asked to check."""
    calls = []
    real = NilpotentPoset.check_label

    def counted(self, label):
        calls.append(label)
        return real(self, label)

    monkeypatch.setattr(NilpotentPoset, "check_label", counted)
    return calls


@pytest.fixture()
def is_special_calls(monkeypatch):
    """The labels ``NilpotentPoset.is_special`` is asked about."""
    calls = []
    real = NilpotentPoset.is_special

    def counted(self, label):
        calls.append(label)
        return real(self, label)

    monkeypatch.setattr(NilpotentPoset, "is_special", counted)
    return calls


@pytest.fixture()
def cover_searches(monkeypatch):
    """The minimal-special-cover searches that run; memo hits never reach
    ``_least_special``, which each search calls once."""
    calls = []
    real = duality._least_special

    def counted(above, ups, error):
        calls.append(above)
        return real(above, ups, error)

    monkeypatch.setattr(duality, "_least_special", counted)
    return calls


@pytest.fixture()
def special_closures(monkeypatch):
    """The labels ``NilpotentPoset.special_closure`` is asked about."""
    calls = []
    real = NilpotentPoset.special_closure

    def counted(self, label):
        calls.append(label)
        return real(self, label)

    monkeypatch.setattr(NilpotentPoset, "special_closure", counted)
    return calls
