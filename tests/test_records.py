"""The contract every public value type keeps: frozen records compared,
hashed and printed by their fields, in declaration order."""

import pytest

from orbitduality.data import CheckResult, GroupBundle, OrbitRecord, ValidationReport
from orbitduality.duality import DualPair
from orbitduality.orbits import classical_poset
from orbitduality.packets import JiangReport, Parameter, ParameterSet
from orbitduality.rootdata import Coweight, RootSystem

B2, C2 = classical_poset("B", 2), classical_poset("C", 2)
CHECK = CheckResult("closure_order", False, "cycle")
ORBIT = OrbitRecord("A1", True, 16, (1, 0, 0, 0))
PARAM = Parameter("X1", "A1", "triv", False, None, "X2")

# (class, field values in order, exact repr)
CASES = [
    (
        OrbitRecord,
        ("A1", True, 16, (1, 0, 0, 0)),
        "OrbitRecord(label='A1', special=True, dim=16, weighted_dynkin=(1, 0, 0, 0))",
    ),
    (
        GroupBundle,
        ("F4", 4, (1, 2, 3, 4), "F4", (ORBIT,), (("0", "A1"),), {}, {}, (), {},
         None, 1),
        "GroupBundle(group_type='F4', group_rank=4, node_order=(1, 2, 3, 4), "
        "dual_group='F4', orbits=(OrbitRecord(label='A1', special=True, dim=16, "
        "weighted_dynkin=(1, 0, 0, 0)),), closure=(('0', 'A1'),), bar_a={}, "
        "d_s={}, parameter_sets=(), provenance={}, conjectural=None, "
        "format_version=1)",
    ),
    (
        CheckResult,
        ("closure_order", False, "cycle"),
        "CheckResult(name='closure_order', passed=False, details='cycle')",
    ),
    (
        ValidationReport,
        ((CHECK,),),
        "ValidationReport(checks=(CheckResult(name='closure_order', "
        "passed=False, details='cycle'),))",
    ),
    (DualPair, (B2, C2), f"DualPair(g={B2!r}, gd={C2!r})"),
    (
        Parameter,
        ("X1", "A1", "triv", False, None, "X2"),
        "Parameter(id='X1', n_orbit='A1', rho='triv', iwahori=False, "
        "unitary=None, az_partner='X2')",
    ),
    (
        ParameterSet,
        ("A1", (PARAM,)),
        "ParameterSet(ic_orbit='A1', params=(Parameter(id='X1', n_orbit='A1', "
        "rho='triv', iwahori=False, unitary=None, az_partner='X2'),))",
    ),
    (
        JiangReport,
        ("A1", "F4(a1)", (("X1", "A1", True),), (("X1", False),)),
        "JiangReport(ic_orbit='A1', dual_orbit='F4(a1)', "
        "members=(('X1', 'A1', True),), lower_bounds=(('X1', False),))",
    ),
    (
        RootSystem,
        ("G2", 2, ((2, -3), (-1, 2))),
        "RootSystem(label='G2', rank=2, cartan=((2, -3), (-1, 2)))",
    ),
    (Coweight, ((2, -1),), "Coweight(twice=(2, -1))"),
]

FIELDS = {
    OrbitRecord: ("label", "special", "dim", "weighted_dynkin"),
    GroupBundle: (
        "group_type", "group_rank", "node_order", "dual_group", "orbits",
        "closure", "bar_a", "d_s", "parameter_sets", "provenance",
        "conjectural", "format_version",
    ),
    CheckResult: ("name", "passed", "details"),
    ValidationReport: ("checks",),
    DualPair: ("g", "gd"),
    Parameter: ("id", "n_orbit", "rho", "iwahori", "unitary", "az_partner"),
    ParameterSet: ("ic_orbit", "params"),
    JiangReport: ("ic_orbit", "dual_orbit", "members", "lower_bounds"),
    RootSystem: ("label", "rank", "cartan"),
    Coweight: ("twice",),
}

# keyword defaults, and what a call that omits them stores
DEFAULTS = {
    OrbitRecord: (("A1", True), {"dim": None, "weighted_dynkin": None}),
    GroupBundle: (
        ("F4", 4, (), "F4", (), (), {}, {}, (), {}),
        {"conjectural": None, "format_version": 1},
    ),
    CheckResult: (("x", True), {"details": ""}),
    Parameter: (
        ("X1", "0", ""), {"iwahori": True, "unitary": None, "az_partner": ""}
    ),
}

ids = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls,values,text", CASES, ids=ids)
def test_fields_match_args_and_repr(cls, values, text):
    x = cls(*values)
    assert cls.__match_args__ == FIELDS[cls]
    assert tuple(getattr(x, name) for name in FIELDS[cls]) == values
    assert x == cls(**dict(zip(FIELDS[cls], values)))
    assert repr(x) == text


@pytest.mark.parametrize("cls,values,text", CASES, ids=ids)
def test_equality_only_within_the_class(cls, values, text):
    x = cls(*values)
    assert x == cls(*values)
    assert not x != cls(*values)
    assert x != values and not x == values
    assert x.__eq__(values) is NotImplemented
    assert x != object()
    if len(values) > 1:
        assert x != cls(*values[:-1], ())


@pytest.mark.parametrize("cls,values,text", CASES, ids=ids)
def test_hash_is_the_field_tuple_hash(cls, values, text):
    x = cls(*values)
    if cls is GroupBundle:
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == hash(values)
    assert len({x, cls(*values)}) == 1


@pytest.mark.parametrize("cls,values,text", CASES, ids=ids)
def test_fields_cannot_be_assigned_or_deleted(cls, values, text):
    x = cls(*values)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert tuple(getattr(x, name) for name in FIELDS[cls]) == values


@pytest.mark.parametrize("cls,values,text", CASES, ids=ids)
def test_constructor_arguments_are_checked(cls, values, text):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(**dict(zip(FIELDS[cls][1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, not_a_field=None)
    with pytest.raises(TypeError):
        cls(*values, **{FIELDS[cls][0]: values[0]})


@pytest.mark.parametrize("cls", sorted(DEFAULTS, key=lambda c: c.__name__))
def test_keyword_defaults(cls):
    given, defaults = DEFAULTS[cls]
    x = cls(*given)
    assert {name: getattr(x, name) for name in defaults} == defaults
    assert x == cls(*given, **defaults)
    assert x == cls(*given, *defaults.values())


def test_coweights_order_by_their_coordinates():
    a, b = Coweight((0, 2)), Coweight((2, -4))
    assert a < b and a <= b and b > a and b >= a
    assert a <= Coweight((0, 2)) and a >= Coweight((0, 2))
    assert not (a < Coweight((0, 2)) or a > Coweight((0, 2)))
    assert sorted([b, a, Coweight((0, -2))]) == [Coweight((0, -2)), a, b]
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(a, op)((0, 2)) is NotImplemented
    with pytest.raises(TypeError):
        a < (0, 2)
    with pytest.raises(TypeError):
        a >= (0, 2)
    with pytest.raises(TypeError):
        a <= RootSystem("A", 2, ((0, 2),))


def test_only_coweights_are_ordered():
    for cls, values, _ in CASES:
        if cls is not Coweight:
            with pytest.raises(TypeError):
                cls(*values) < cls(*values)
