"""The package namespace: every public name and submodule resolves on
first use, each check in a fresh interpreter that has imported nothing
else from the package."""

import json

import pytest
from test_cli import run_fresh

import orbitduality as od

PUBLIC = [
    "BundlePoset", "BundleValidationError", "ClassicalPoset", "Coweight",
    "DualPair", "GroupBundle", "GroupMismatchError", "InconsistentDataError",
    "MissingTableError", "NonUniqueCoverError", "OrbitDualityError",
    "Parameter", "ParameterSet", "SchemaError", "UnknownLabelError",
    "ValidationReport", "achar_dual", "arthur_packet", "az_dual", "bvls_dual",
    "check_infl_sum", "check_jiang", "classical_poset", "closure_leq", "cuwf",
    "dominant_rep", "dual_pair", "embed", "geometric_wf", "is_special",
    "is_special_pair", "is_tempered", "load_builtin_bundle", "load_bundle",
    "min_special_cover", "pair_leq", "parameter_set", "root_system",
    "serialize_bundle", "sommers_dual", "special_closure", "special_piece_of",
    "validate_bundle", "weak_packet", "weyl_conjugate",
]
SUBMODULES = [
    "cli", "data", "duality", "errors", "orbits", "packets", "partitions",
    "rootdata",
]


def test_public_names_are_pinned():
    assert od.__all__ == PUBLIC
    assert od.__version__ == "0.1.0"


def test_every_name_is_its_home_module_object():
    homes = json.loads(run_fresh(
        "import json, sys, orbitduality as od\n"
        "homes = {}\n"
        "for name in od.__all__:\n"
        "    obj = getattr(od, name)\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "    homes[name] = obj.__module__\n"
        "print(json.dumps(homes))"
    ))
    assert sorted(homes) == PUBLIC
    assert {m.split(".")[1] for m in homes.values()} <= set(SUBMODULES)
    assert homes["Parameter"] == homes["ParameterSet"] == "orbitduality.data"


def test_parameter_types_are_one_object_everywhere():
    assert run_fresh(
        "import orbitduality as od\n"
        "print(od.Parameter is od.data.Parameter is od.packets.Parameter"
        " and od.ParameterSet is od.data.ParameterSet is od.packets.ParameterSet)"
    ) == "True"


def test_star_import_and_dir_list_every_name():
    missing = json.loads(run_fresh(
        "import json, orbitduality as od\n"
        "scope = {}\n"
        "exec('from orbitduality import *', scope)\n"
        "print(json.dumps([sorted(set(od.__all__) - set(scope)),"
        " sorted(set(od.__all__) - set(dir(od)))]))"
    ))
    assert missing == [[], []]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_as_an_attribute_first(name):
    assert run_fresh(
        f"import orbitduality as od\nprint(od.{name}.__name__)"
    ) == f"orbitduality.{name}"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        od.no_such_name
    assert not hasattr(od, "packet")
