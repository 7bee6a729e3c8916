"""Nilpotent-orbit duality maps, special pieces, wavefront-set invariants,
and the packets they cut out, over validated group-data bundles.

Submodules load on first use: ``import orbitduality`` compiles none of
them, and a public name or submodule attribute imports only its home
module (PEP 562).
"""

import sys

__version__ = "0.1.0"

# each submodule and the public names it defines
_EXPORTS = {
    "cli": (),
    "data": (
        "GroupBundle", "Parameter", "ParameterSet", "ValidationReport",
        "dual_pair", "load_builtin_bundle", "load_bundle", "parameter_set",
        "serialize_bundle", "validate_bundle",
    ),
    "duality": (
        "DualPair", "achar_dual", "embed", "is_special_pair",
        "min_special_cover", "pair_leq", "sommers_dual",
    ),
    "errors": (
        "BundleValidationError", "GroupMismatchError", "InconsistentDataError",
        "MissingTableError", "NonUniqueCoverError", "OrbitDualityError",
        "SchemaError", "UnknownLabelError",
    ),
    "orbits": (
        "BundlePoset", "ClassicalPoset", "bvls_dual", "classical_poset",
        "closure_leq", "is_special", "special_closure", "special_piece_of",
    ),
    "packets": (
        "arthur_packet", "az_dual", "check_infl_sum", "check_jiang", "cuwf",
        "geometric_wf", "is_tempered", "weak_packet",
    ),
    "partitions": (),
    "rootdata": ("Coweight", "dominant_rep", "root_system", "weyl_conjugate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module: -X importtime reports only
    # the imports made through it
    __import__(f"{__name__}.{home}")
    value = sys.modules[f"{__name__}.{home}"]
    if home != name:
        value = getattr(value, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
