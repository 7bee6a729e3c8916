"""Bundle format: loading, validation, and serialization of group data.

A bundle is a JSON document carrying one group's orbit poset (as covering
pairs), canonical-quotient class lists, the Sommers duality table, optional
weighted Dynkin and dimension data, and optional parameter sets.  Loading
is strict: structural problems raise SchemaError, semantic problems raise
BundleValidationError naming the violated invariant.  The checks run on the
bundle and on any separate dual bundle in two phases: the laws of d and D
wait for closure_order and ds_table to pass on every side.
"""

from __future__ import annotations

import json
from functools import wraps

from ._record import Record
from .duality import DualPair, normalize_class, refined_duality_failures
from .errors import (
    BundleValidationError,
    OrbitDualityError,
    SchemaError,
    UnknownLabelError,
)
from .poset import BundlePoset, d_table, duality_failures, order_failures
from .rootdata import Coweight, positive_roots, root_system

FORMAT_VERSION = 1
_BRIEF_ITEMS = 4  # the items a failing check names before "... (n total)"


class OrbitRecord(Record):
    label: str
    special: bool
    dim: int | None = None
    weighted_dynkin: tuple[int, ...] | None = None


class Parameter(Record):
    """One parameter; ``n_orbit`` names an orbit of the dual group."""

    id: str
    n_orbit: str
    rho: str
    iwahori: bool = True
    unitary: bool | None = None
    az_partner: str = ""


class ParameterSet(Record):
    """Parameters sharing one infinitesimal-character orbit in the dual group.

    ``ic_orbit`` and each ``n_orbit`` name dual-group orbits.  Parsing does
    not read them; the ``parameter_orbits`` check reads them in the dual
    poset, which is the bundle's own when it is self-dual.
    """

    ic_orbit: str
    params: tuple[Parameter, ...]

    def __post_init__(self):
        # an index beside the fields: not a constructor argument, not compared
        object.__setattr__(self, "_by_id", {x.id: x for x in self.params})

    def __iter__(self):
        return iter(self.params)

    def get(self, param_id: str) -> Parameter:
        try:
            return self._by_id[param_id]
        except (KeyError, TypeError):  # TypeError: unhashable, so not an id
            raise UnknownLabelError(f"unknown parameter id {param_id!r}") from None

    def ids(self) -> list[str]:
        return [x.id for x in self.params]


def natural_key(param_id: str):
    """Sort X2 before X13: split runs of digits into integers."""
    key, num = [], ""
    for ch in param_id:
        if ch.isdecimal():
            num += ch
        else:
            if num:
                key.append((1, int(num)))
                num = ""
            key.append((0, ch))
    if num:
        key.append((1, int(num)))
    return key


class GroupBundle(Record):
    group_type: str
    group_rank: int
    node_order: tuple[int, ...]
    dual_group: str
    orbits: tuple[OrbitRecord, ...]
    closure: tuple[tuple[str, str], ...]
    bar_a: dict
    d_s: dict
    parameter_sets: tuple[ParameterSet, ...]
    provenance: dict
    conjectural: dict | None = None
    format_version: int = FORMAT_VERSION

    def labels(self) -> tuple[str, ...]:
        return tuple(o.label for o in self.orbits)


class CheckResult(Record):
    name: str
    passed: bool
    details: str = ""


class ValidationReport(Record):
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok  " if c.passed else "FAIL"
            line = f"{mark} {c.name}"
            if c.details:
                line += f": {c.details}"
            lines.append(line)
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "details": c.details}
                for c in self.checks
            ],
        }


# -- parsing -----------------------------------------------------------------

def _reject_duplicate_keys(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):  # name the first key given twice
        keys = [key for key, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise SchemaError(f"duplicate key {key!r} in bundle document")
    return obj


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` are not ints here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _need(doc: dict, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object, not {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"missing field {key!r} in {where}")
    value = doc[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise SchemaError(
            f"field {key!r} in {where} has type {type(value).__name__}"
        )
    return value


def parse_bundle(source) -> GroupBundle:
    """Parse a bundle document without running the invariant checks.

    Accepts a path, bytes, a JSON string, or a readable file object.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        elif isinstance(source, bytes) or (
                isinstance(source, str) and source.lstrip()[:1] in ("{", "[")):
            text = source
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"bundle document is not UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"malformed bundle document: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError("bundle document must be a JSON object")

    version = _need(doc, "format_version", int, "bundle")
    if version != FORMAT_VERSION:
        raise SchemaError(f"unsupported format_version {version}")
    group = _need(doc, "group", dict, "bundle")
    gtype = _need(group, "type", str, "group")
    if not gtype:
        raise SchemaError("field 'type' in group is empty")
    grank = _need(group, "rank", int, "group")
    if grank < 1:
        raise SchemaError(f"rank {grank} is below 1")
    orbit_docs = _need(doc, "orbits", list, "bundle")
    if not orbit_docs:
        raise SchemaError("bundle has no orbits")
    if grank >= len(orbit_docs):  # every simple type has more orbits
        raise SchemaError(f"rank {grank} is not below the orbit count {len(orbit_docs)}")
    node_order = group.get("node_order", list(range(1, grank + 1)))
    if not (isinstance(node_order, list) and all(map(_is_int, node_order))):
        raise SchemaError(f"node_order {node_order!r} must be a list of integers")
    node_order = tuple(node_order)
    if sorted(node_order) != list(range(1, grank + 1)):
        raise SchemaError(f"node_order {node_order} is not a permutation")
    dual_group = _need(doc, "dual_group", str, "bundle")

    orbits = []
    labels = set()
    for od in orbit_docs:
        label = _need(od, "label", str, "orbit record")
        if label in labels:
            raise SchemaError(f"duplicate orbit label {label!r}")
        labels.add(label)
        special = _need(od, "special", bool, f"orbit {label}")
        dim = od.get("dim")
        if dim is not None and not _is_int(dim):
            raise SchemaError(f"orbit {label} has non-integer dim")
        wd = od.get("weighted_dynkin")
        if wd is not None:
            if not isinstance(wd, list) or len(wd) != grank:
                raise SchemaError(
                    f"orbit {label} weighted_dynkin must have {grank} entries"
                )
            if not all(map(_is_int, wd)):
                raise SchemaError(
                    f"orbit {label} weighted_dynkin entries must be integers"
                )
            wd = tuple(wd)
        orbits.append(OrbitRecord(label, special, dim, wd))

    closure = []
    for pair in _need(doc, "closure", list, "bundle"):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SchemaError(f"closure entry {pair!r} is not a pair")
        lo, hi = pair
        for lab in (lo, hi):
            if not isinstance(lab, str) or lab not in labels:
                raise SchemaError(f"closure references unknown orbit {lab!r}")
        closure.append((lo, hi))

    bar_a = {}
    for orbit, classes in _need(doc, "bar_a", dict, "bundle").items():
        if orbit not in labels:
            raise SchemaError(f"bar_a references unknown orbit {orbit!r}")
        if not isinstance(classes, list) or not all(
            isinstance(c, str) for c in classes
        ):
            raise SchemaError(f"bar_a[{orbit!r}] must be a list of strings")
        if len(set(classes)) != len(classes):
            raise SchemaError(f"bar_a[{orbit!r}] has duplicate classes")
        if any(normalize_class(c) != c for c in classes):
            raise SchemaError(f"bar_a[{orbit!r}] has a class label with spaces")
        bar_a[orbit] = tuple(classes)

    d_s = {}
    for orbit, table in _need(doc, "d_s", dict, "bundle").items():
        if orbit not in labels:
            raise SchemaError(f"d_s references unknown orbit {orbit!r}")
        if not isinstance(table, dict):
            raise SchemaError(f"d_s[{orbit!r}] must be an object")
        if not all(isinstance(t, str) for t in table.values()):
            raise SchemaError(f"d_s[{orbit!r}] values must be orbit labels")
        d_s[orbit] = dict(table)

    provenance = _need(doc, "provenance", dict, "bundle")
    if not str(provenance.get("d_s", "")).strip():
        raise SchemaError("provenance note for d_s is mandatory")

    param_sets = []
    ps_docs = doc.get("parameter_sets", [])
    if not isinstance(ps_docs, list):
        raise SchemaError("parameter_sets must be a list")
    ids = set()  # across all sets: the CLI's cuwf looks an id up in any set
    for ps_doc in ps_docs:
        ic = _need(ps_doc, "ic_orbit", str, "parameter set")
        if any(ps.ic_orbit == ic for ps in param_sets):
            raise SchemaError(f"duplicate parameter set at {ic!r}")
        params = []
        for pd in _need(ps_doc, "parameters", list, f"parameter set {ic}"):
            pid = _need(pd, "id", str, "parameter")
            if pid in ids:
                raise SchemaError(f"duplicate parameter id {pid!r}")
            ids.add(pid)
            n_orbit = _need(pd, "n_orbit", str, f"parameter {pid}")
            rho = pd.get("rho", "")
            iwahori = pd.get("iwahori", True)
            unitary = pd.get("unitary")
            if not (
                isinstance(rho, str)
                and isinstance(iwahori, bool)
                and isinstance(unitary, (bool, type(None)))
            ):
                raise SchemaError(
                    f"parameter {pid}: rho must be a string, iwahori a "
                    f"boolean, unitary a boolean or null"
                )
            params.append(
                Parameter(
                    id=pid,
                    n_orbit=n_orbit,
                    rho=rho,
                    iwahori=iwahori,
                    unitary=unitary,
                    az_partner=_need(pd, "az", str, f"parameter {pid}"),
                )
            )
        param_sets.append(ParameterSet(ic, tuple(params)))
    if param_sets and not str(provenance.get("parameter_sets", "")).strip():
        raise SchemaError("provenance note for parameter_sets is mandatory")

    return GroupBundle(
        group_type=gtype,
        group_rank=grank,
        node_order=node_order,
        dual_group=dual_group,
        orbits=tuple(orbits),
        closure=tuple(closure),
        bar_a=bar_a,
        d_s=d_s,
        parameter_sets=tuple(param_sets),
        provenance=dict(provenance),
        conjectural=doc.get("conjectural_decomposition"),
        format_version=version,
    )


# -- poset construction --------------------------------------------------------

def bundle_poset(bundle: GroupBundle) -> BundlePoset:
    """Build the orbit poset, unpaired: ``dual_pair`` pairs it."""
    try:
        rs = root_system(bundle.group_type, bundle.group_rank)
    except ValueError:
        rs = None
    dynkin = {}
    for rec in bundle.orbits:
        if rec.weighted_dynkin is not None:
            coords = [0] * bundle.group_rank
            for i, node in enumerate(bundle.node_order):
                coords[node - 1] = rec.weighted_dynkin[i]
            dynkin[rec.label] = Coweight.of(coords)
    ds_flat = {
        (orbit, cls): target
        for orbit, table in bundle.d_s.items()
        for cls, target in table.items()
    }
    gid = bundle.group_type
    if not gid[-1].isdigit():
        gid = f"{gid}{bundle.group_rank}"
    return BundlePoset(
        group_id=gid,
        labels=bundle.labels(),
        covers=bundle.closure,
        bar_a=bundle.bar_a,
        ds=ds_flat,
        dims={o.label: o.dim for o in bundle.orbits if o.dim is not None},
        dynkin=dynkin,
        rs=rs,
    )


def dual_pair(bundle: GroupBundle, dual_bundle: GroupBundle | None = None) -> DualPair:
    """The one place posets are paired: each gets the other's ``d_table`` as
    the ``dual_d`` every law and check reads.  A bundle whose ``dual_group``
    is ``"self"`` is its own dual unless a dual bundle is given; any other
    bundle needs one, else SchemaError.
    """
    if dual_bundle is None and bundle.dual_group != "self":
        raise SchemaError(
            f"bundle declares dual group {bundle.dual_group!r}; "
            f"a dual bundle is required"
        )
    g = bundle_poset(bundle)
    gd = g if dual_bundle is None else bundle_poset(dual_bundle)
    g.dual_d = d_table(gd)
    gd.dual_d = g.dual_d if gd is g else d_table(g)
    return DualPair(g, gd)


def parameter_set(bundle: GroupBundle, ic_orbit: str) -> ParameterSet:
    for ps in bundle.parameter_sets:
        if ps.ic_orbit == ic_orbit:
            return ps
    raise UnknownLabelError(f"bundle has no parameter set at {ic_orbit!r}")


# -- validation ----------------------------------------------------------------

def _brief(items) -> str:
    items = list(items)
    shown = "; ".join(items[:_BRIEF_ITEMS])
    if len(items) > _BRIEF_ITEMS:
        shown += f"; ... ({len(items)} total)"
    return shown


def _check(fn):
    """Make fn, which returns (passed, details), a validator check named
    after it: a package error raised while it reads the data fails that
    check instead of escaping."""
    name = fn.__name__.removeprefix("_check_")

    @wraps(fn)
    def run(*args):
        try:
            return CheckResult(name, *fn(*args))
        except OrbitDualityError as exc:
            return CheckResult(name, False, str(exc))

    return run


@_check
def _check_closure_order(poset, flags):
    bad = order_failures(poset)
    if bad:
        return False, _brief(
            f"antisymmetry violated: {a} <= {b} and {b} <= {a}" for a, b in bad
        )
    zero = poset.zero()
    reg = poset.regular()
    if zero != "0":
        return False, f"minimum orbit is {zero!r}, expected '0'"
    for lab, role in ((zero, "zero"), (reg, "regular")):
        if not flags.get(lab, False):
            return False, f"{role} orbit {lab} is not flagged special"
    return True, f"minimum {zero}, maximum {reg}"


@_check
def _check_bar_classes(poset):
    for label in poset.labels:
        if "1" not in poset.bar_classes(label):
            return False, f"orbit {label} lacks the trivial class"
    return True, ""


@_check
def _check_ds_table(bundle, poset):
    missing = []
    for label in poset.labels:
        for cls in poset.bar_classes(label):
            if cls not in bundle.d_s.get(label, {}):
                missing.append(f"({label}, {cls})")
    if missing:
        return False, "not total: missing " + _brief(missing)
    extra = [
        f"({o}, {c})"
        for o, table in bundle.d_s.items()
        for c in table
        if c not in poset.bar_classes(o)
    ]
    if extra:
        return False, "entries for undeclared classes " + _brief(extra)
    bad = [
        f"({o}, {c}) -> {t}"
        for o, table in bundle.d_s.items()
        for c, t in table.items()
        if t not in poset.dual_d.labels
    ]
    if bad:
        return False, "values outside dual group: " + _brief(bad)
    image = {t for table in bundle.d_s.values() for t in table.values()}
    missed = sorted(set(poset.dual_d.labels) - image)
    if missed:
        return False, "not surjective, missing " + _brief(missed)
    return True, "total and surjective"


@_check
def _check_d_duality(poset):
    failure = duality_failures(poset)
    if failure:
        return False, f"{failure[0]} at {_brief(failure[1])}"
    return True, "d^3 = d and d order-reversing"


@_check
def _check_special_flags(bundle, poset):
    specials = set(poset.specials())
    bad = [o.label for o in bundle.orbits if (o.label in specials) != o.special]
    if bad:
        return False, "flags disagree with d∘d fixed points at " + _brief(bad)
    return True, ""


@_check
def _check_weighted_dynkin(poset):
    bad = []
    for label in poset.labels:
        w = poset.weighted_dynkin(label)
        if w is None:
            continue
        coords = [c // 2 for c in w.twice]
        if any(c not in (0, 1, 2) for c in coords):
            bad.append(f"{label}: coordinates outside {{0,1,2}}")
    return not bad, _brief(bad)


@_check
def _check_dynkin_dims(poset):
    rs = poset.root_system()
    if rs is None:
        return True, "skipped: no root system"
    bad, columns = [], None
    for label in poset.labels:
        w = poset.weighted_dynkin(label)
        d = poset.dim(label)
        if w is None or d is None:
            continue
        pos = positive_roots(rs)  # cached; costly at high rank, so read late
        columns = columns or tuple(zip(*pos))  # each node's coordinate per root
        pairings = [0] * len(pos)  # root_pairing of each root, a node at a time
        for t, column in zip(w.twice, columns):
            if t:
                pairings = [p + t * c for p, c in zip(pairings, column)]
        g0, g1 = pairings.count(0), pairings.count(2)
        expect = 2 * len(pos) + rs.rank - (2 * g0 + rs.rank) - g1
        if expect != d:
            bad.append(f"{label}: dim {d} vs {expect} from weighted Dynkin")
    return not bad, _brief(bad)


@_check
def _check_az_links(bundle):
    for ps in bundle.parameter_sets:
        for x in ps.params:
            if x.az_partner not in ps._by_id:
                return False, f"{x.id} links to missing partner {x.az_partner}"
        for x in ps.params:
            if ps.get(x.az_partner).az_partner != x.id:
                return False, (
                    f"involution broken at {x.id} -> {x.az_partner} -> "
                    f"{ps.get(x.az_partner).az_partner}"
                )
    return True, "involution; ic_orbit shared per parameter set"


@_check
def _check_parameter_orbits(bundle, poset):
    bad = [f"{x.id}: {x.n_orbit} not below {ps.ic_orbit}"
           for ps in bundle.parameter_sets for x in ps.params
           if not poset.dual_d.leq(x.n_orbit, ps.ic_orbit)]
    return not bad, _brief(bad)


@_check
def _check_duality_identities(pair: DualPair):
    failure = refined_duality_failures(pair)
    return failure is None, failure or "embedding injective, D^3 = D, pr1∘D = d_S"


def _independent_checks(bundle, pair):
    """Phase 1 on one side: the checks that read no other check's result."""
    return [
        _check_closure_order(pair.g, {o.label: o.special for o in bundle.orbits}),
        _check_bar_classes(pair.g),
        _check_ds_table(bundle, pair.g),
        _check_weighted_dynkin(pair.g),
        _check_dynkin_dims(pair.g),
        _check_az_links(bundle),
        _check_parameter_orbits(bundle, pair.g),
    ]


def _law_checks(bundle, pair):
    """Phase 2 on one side: the laws of d, then those of D if both hold."""
    laws = [_check_d_duality(pair.g), _check_special_flags(bundle, pair.g)]
    if all(c.passed for c in laws):
        laws.append(_check_duality_identities(pair))
    return laws


def _merge(own, *dual):
    """The bundle's checks by name, with the dual side's failures shown."""
    failed = {c.name: c.details for side in dual for c in side if not c.passed}
    return {c.name: CheckResult(c.name, False, "dual bundle: " + failed[c.name])
            if c.passed and c.name in failed else c for c in own}


def validate_bundle(
    bundle: GroupBundle, dual_bundle: GroupBundle | None = None
) -> ValidationReport:
    """Run every invariant check on the bundle, and on a dual bundle against it.

    The report lists the bundle's checks; one that passes there and fails on
    the dual bundle shows ``dual bundle: <details>``.  A bundle that is not
    self-dual needs its dual bundle (``dual_pair``'s SchemaError).
    """
    return validated_pair(bundle, dual_bundle)[1]


def validated_pair(bundle, dual_bundle=None) -> tuple[DualPair, ValidationReport]:
    """``dual_pair`` and ``validate_bundle``'s report on that pair."""
    pair = dual_pair(bundle, dual_bundle)
    sides = [(bundle, pair)]
    if dual_bundle is not None:
        sides.append((dual_bundle, pair.flip()))
    checks = _merge(*(_independent_checks(*side) for side in sides))
    if checks["closure_order"].passed and checks["ds_table"].passed:
        checks.update(_merge(*(_law_checks(*side) for side in sides)))
    else:
        checks["d_duality"] = CheckResult(
            "d_duality", False, "skipped: prerequisite checks failed")
    return pair, ValidationReport(tuple(checks.values()))


def load_bundle(source, dual_bundle: GroupBundle | None = None) -> GroupBundle:
    """Parse and fully validate a bundle; raise on the first failure."""
    bundle = parse_bundle(source)
    report = validate_bundle(bundle, dual_bundle)
    if not report.passed:
        raise BundleValidationError(report)
    return bundle


# -- serialization ---------------------------------------------------------------

def bundle_to_dict(bundle: GroupBundle) -> dict:
    doc = {
        "format_version": bundle.format_version,
        "group": {
            "type": bundle.group_type,
            "rank": bundle.group_rank,
            "node_order": list(bundle.node_order),
        },
        "dual_group": bundle.dual_group,
        "orbits": [
            {
                "label": o.label,
                "special": o.special,
                **({"dim": o.dim} if o.dim is not None else {}),
                **(
                    {"weighted_dynkin": list(o.weighted_dynkin)}
                    if o.weighted_dynkin is not None
                    else {}
                ),
            }
            for o in bundle.orbits
        ],
        "closure": [list(p) for p in bundle.closure],
        "bar_a": {o: list(cs) for o, cs in bundle.bar_a.items()},
        "d_s": {o: dict(t) for o, t in bundle.d_s.items()},
        "provenance": dict(bundle.provenance),
    }
    if bundle.parameter_sets:
        doc["parameter_sets"] = [
            {
                "ic_orbit": ps.ic_orbit,
                "parameters": [
                    {
                        "id": x.id,
                        "n_orbit": x.n_orbit,
                        "rho": x.rho,
                        "iwahori": x.iwahori,
                        **(
                            {"unitary": x.unitary}
                            if x.unitary is not None
                            else {}
                        ),
                        "az": x.az_partner,
                    }
                    for x in ps.params
                ],
            }
            for ps in bundle.parameter_sets
        ]
    if bundle.conjectural is not None:
        doc["conjectural_decomposition"] = bundle.conjectural
    return doc


def serialize_bundle(bundle: GroupBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n"


def builtin_bundle_text(name: str) -> str:
    from importlib import resources  # only here: slow to import for the CLI

    ref = resources.files("orbitduality").joinpath(f"bundles/{name}.json")
    return ref.read_text(encoding="utf-8")


def load_builtin_bundle(name: str = "f4") -> GroupBundle:
    return load_bundle(builtin_bundle_text(name))
