import io
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitduality import data
from orbitduality.duality import DualPair, achar_dual, all_bar_classes, embed, pair_leq
from orbitduality.errors import (
    BundleValidationError,
    MissingTableError,
    OrbitDualityError,
    SchemaError,
    UnknownLabelError,
)
from orbitduality.orbits import classical_poset
from orbitduality.poset import BundlePoset, d_table
from orbitduality.rootdata import Coweight


def load_doc(doc):
    return data.load_bundle(json.dumps(doc))


def failed_names(doc):
    with pytest.raises(BundleValidationError) as err:
        load_doc(doc)
    return {c.name: c.details for c in err.value.report.failures()}


def test_shipped_bundle_loads(f4_bundle):
    assert len(f4_bundle.orbits) == 16
    assert sum(len(cs) for cs in f4_bundle.bar_a.values()) == 21
    assert len(f4_bundle.parameter_sets) == 1
    assert len(f4_bundle.parameter_sets[0].params) == 20
    assert f4_bundle.conjectural is not None
    assert f4_bundle.conjectural["authoritative"] is False


def test_shipped_bundle_validates(f4_bundle):
    report = data.validate_bundle(f4_bundle)
    assert report.passed
    names = [c.name for c in report.checks]
    for expected in (
        "closure_order",
        "ds_table",
        "d_duality",
        "special_flags",
        "weighted_dynkin",
        "az_links",
        "duality_identities",
    ):
        assert expected in names
    text = report.to_text()
    assert "PASS" in text
    assert json.dumps(report.to_dict())


def test_identities_check_reports_non_unique_cover():
    # (0,1) is non-special with two incomparable minimal special covers
    poset = BundlePoset(
        group_id="toy",
        labels=("0", "a", "b", "r"),
        covers=(("0", "a"), ("0", "b"), ("a", "r"), ("b", "r")),
        bar_a={"r": ("1", "c")},
        ds={
            ("0", "1"): "r",
            ("a", "1"): "r",
            ("b", "1"): "r",
            ("r", "1"): "a",
            ("r", "c"): "b",
        },
    )
    poset.dual_d = d_table(poset)
    result = data._check_duality_identities(DualPair(poset, poset))
    assert result.name == "duality_identities"
    assert not result.passed
    assert "minimal special covers" in result.details


def _reference_identities(pair):
    """The duality_identities check as written before the shared table:
    every bar class through public embed and achar_dual."""
    def failed(details):
        return data.CheckResult("duality_identities", False, details)

    flip = pair.flip()
    try:
        embedded, unembed = {}, {}
        for bc in all_bar_classes(pair.g):
            img = embedded[bc] = embed(pair, bc)
            if img in unembed:
                return failed(
                    f"embedding collision: {unembed[img]} and {bc} "
                    f"both map to {img}"
                )
            unembed[img] = bc
        refined = {bc: achar_dual(pair, bc) for bc in embedded}
        image = dict.fromkeys(refined.values())
        back = {b: achar_dual(flip, b) for b in image}
        back_embedded = {b: embed(flip, b) for b in image}
        for bc, once in refined.items():
            if embedded[bc][1] != once[0]:
                return failed(
                    f"pr1 of the refined dual differs from the Sommers "
                    f"image at {bc}"
                )
            if refined[back[once]] != once:
                return failed(f"D^3 != D at {bc}")
        for x in embedded:
            for y in embedded:
                if pair_leq(pair, embedded[x], embedded[y]) and not pair_leq(
                    flip,
                    back_embedded[refined[y]],
                    back_embedded[refined[x]],
                ):
                    return failed(
                        f"refined duality not order-reversing on {x} <= {y}"
                    )
    except OrbitDualityError as exc:
        return failed(str(exc))
    return data.CheckResult(
        "duality_identities", True, "embedding injective, D^3 = D, pr1∘D = d_S"
    )


def test_identities_check_matches_reference_on_shipped_bundle(f4_pair):
    result = data._check_duality_identities(f4_pair)
    assert result.passed
    assert result == _reference_identities(f4_pair)


def test_identities_check_matches_reference_on_d_s_permutations(f4_doc):
    nontrivial = [(o, c) for o, t in f4_doc["d_s"].items() for c in t if c != "1"]
    assert len(nontrivial) == 5
    targets = [f4_doc["d_s"][o][c] for o, c in nontrivial]
    failing = 0
    for perm in itertools.permutations(targets):
        for (o, c), t in zip(nontrivial, perm):
            f4_doc["d_s"][o][c] = t
        pair = data.dual_pair(data.parse_bundle(json.dumps(f4_doc)))
        result = data._check_duality_identities(pair)
        assert result == _reference_identities(pair), perm
        failing += not result.passed
    assert failing == 96


def _toy_poset(group_id, ds, bar_a=None):
    """Four orbits 0 < a, b < r with classes 1 and c on r, unless ``bar_a``
    gives others."""
    return BundlePoset(
        group_id=group_id,
        labels=("0", "a", "b", "r"),
        covers=(("0", "a"), ("0", "b"), ("a", "r"), ("b", "r")),
        bar_a=bar_a or {"r": ("1", "c")},
        ds=ds,
    )


INJECTIVE_DS = {
    ("0", "1"): "r",
    ("a", "1"): "b",
    ("b", "1"): "a",
    ("r", "1"): "0",
    ("r", "c"): "a",
}
MISSING_DS = {k: v for k, v in INJECTIVE_DS.items() if k != ("r", "c")}


# on g, orbit a's classes 1 and c come before r's class c, which has no entry
A_CLASSES = {"a": ("1", "c"), "r": ("1", "c")}


@pytest.mark.parametrize(
    "g_ds,gd_ds,fragment,g_classes",
    [
        # the collision is reported before the dual side is tabulated
        pytest.param(
            {**INJECTIVE_DS, ("r", "c"): "0"}, MISSING_DS, "embedding collision", None,
            id="embedding-collision",
        ),
        pytest.param(
            INJECTIVE_DS, {**INJECTIVE_DS, ("r", "c"): "0"}, "not injective", None,
            id="dual-side-not-injective",
        ),
        pytest.param(
            INJECTIVE_DS, MISSING_DS, "no duality entry", None,
            id="dual-side-entry-missing",
        ),
        # a collision ahead of a missing entry on the same side comes first
        pytest.param(
            {**MISSING_DS, ("a", "c"): "b"}, INJECTIVE_DS,
            "embedding collision: ('a', '1') and ('a', 'c') both map to ('a', 'b')",
            A_CLASSES, id="collision-then-missing",
        ),
        pytest.param(
            MISSING_DS, INJECTIVE_DS, "no duality entry for (a, c) in toy", A_CLASSES,
            id="missing-only",
        ),
    ],
)
def test_identities_check_matches_reference_on_toy_tables(
    g_ds, gd_ds, fragment, g_classes
):
    g, gd = _toy_poset("toy", g_ds, g_classes), _toy_poset("toy-dual", gd_ds)
    g.dual_d, gd.dual_d = d_table(gd), d_table(g)
    pair = DualPair(g, gd)
    result = data._check_duality_identities(pair)
    assert result == _reference_identities(pair)
    assert not result.passed
    assert fragment in result.details


@pytest.mark.parametrize(
    "edits,fragment",
    [
        ({("F4(a3)", "(123)"): "B2"}, "embedding collision"),
        ({("F4(a3)", "(12)"): "A1", ("F4(a1)", "(12)"): "C3(a1)"}, "pr1 of"),
    ],
    ids=["collision", "pr1-differs"],
)
def test_identities_read_a_stored_tabulation_without_sommers_reads(
    f4_doc, sommers_calls, edits, fragment
):
    for (orbit, cls), target in edits.items():
        f4_doc["d_s"][orbit][cls] = target
    bundle = data.parse_bundle(json.dumps(f4_doc))
    fresh = data._check_duality_identities(data.dual_pair(bundle))
    assert fragment in fresh.details
    pair = data.dual_pair(bundle)
    pair._table.pairs(pair.g)  # stored, as by an earlier query on the pair
    sommers_calls.clear()
    assert data._check_duality_identities(pair) == fresh
    assert sommers_calls == []


def test_round_trip(f4_bundle):
    text = data.serialize_bundle(f4_bundle)
    again = data.load_bundle(text)
    assert again == f4_bundle
    assert data.serialize_bundle(again) == text


def test_node_order_permutation(f4_doc, f4_bundle):
    perm = [4, 3, 2, 1]
    f4_doc["group"]["node_order"] = perm
    for rec in f4_doc["orbits"]:
        wd = rec["weighted_dynkin"]
        rec["weighted_dynkin"] = [wd[node - 1] for node in perm]
    bundle = load_doc(f4_doc)
    poset = data.bundle_poset(bundle)
    reference = data.bundle_poset(f4_bundle)
    for label in poset.labels:
        assert poset.weighted_dynkin(label) == reference.weighted_dynkin(label)


# -- validation failures, one per bundle invariant ---------------------------


def test_closure_cycle_names_antisymmetry(f4_doc):
    f4_doc["closure"].append(["F4", "A1"])
    details = failed_names(f4_doc)
    assert "closure_order" in details
    assert "antisymmetry" in details["closure_order"]


def test_minimum_must_be_zero_orbit(f4_doc):
    text = json.dumps(f4_doc).replace('"0"', '"Z"')
    details = {}
    with pytest.raises(BundleValidationError) as err:
        data.load_bundle(text)
    details = {c.name: c.details for c in err.value.report.failures()}
    assert "closure_order" in details
    assert "expected '0'" in details["closure_order"]


def test_zero_orbit_must_be_special(f4_doc):
    f4_doc["orbits"][0]["special"] = False
    assert "closure_order" in failed_names(f4_doc)


def test_no_unique_zero_orbit_fails_closure_order(f4_doc):
    f4_doc["closure"] = [c for c in f4_doc["closure"] if c[0] != "0"]
    details = failed_names(f4_doc)
    assert details["closure_order"] == "group F4 has no unique extreme orbit"


def test_ds_missing_entry_names_totality(f4_doc):
    del f4_doc["d_s"]["F4(a3)"]["(123)"]
    details = failed_names(f4_doc)
    assert "ds_table" in details
    assert "total" in details["ds_table"]
    assert "(F4(a3), (123))" in details["ds_table"]


def test_ds_undeclared_class_rejected(f4_doc):
    f4_doc["d_s"]["A1"]["(12)"] = "F4(a1)"
    details = failed_names(f4_doc)
    assert "ds_table" in details
    assert "undeclared" in details["ds_table"]


def test_ds_surjectivity(f4_doc):
    f4_doc["d_s"]["F4(a1)"]["(12)"] = "~A1"
    details = failed_names(f4_doc)
    assert "ds_table" in details
    assert "not surjective" in details["ds_table"]


def test_ds_value_outside_group(f4_doc):
    f4_doc["d_s"]["F4"]["1"] = "Q9"
    details = failed_names(f4_doc)
    assert "ds_table" in details
    assert "outside dual group" in details["ds_table"]


def test_d_cube_violation(f4_doc):
    f4_doc["d_s"]["A2"]["1"] = "B3"
    f4_doc["d_s"]["~A2"]["1"] = "C3"
    details = failed_names(f4_doc)
    assert "d_duality" in details
    assert "d^3" in details["d_duality"]


def test_d_order_reversal_violation(f4_doc):
    f4_doc["d_s"]["C3(a1)"]["1"] = "F4"
    details = failed_names(f4_doc)
    assert "d_duality" in details
    assert "order reversal" in details["d_duality"]


def test_special_flag_mismatch(f4_doc):
    for rec in f4_doc["orbits"]:
        if rec["label"] == "F4(a3)":
            rec["special"] = False
    details = failed_names(f4_doc)
    assert "special_flags" in details
    assert "F4(a3)" in details["special_flags"]


def test_weighted_dynkin_range(f4_doc):
    f4_doc["orbits"][1]["weighted_dynkin"] = [3, 0, 0, 0]
    assert "weighted_dynkin" in failed_names(f4_doc)


def test_dynkin_dimension_cross_check(f4_doc):
    f4_doc["orbits"][1]["dim"] = 17
    details = failed_names(f4_doc)
    assert "dynkin_dims" in details


def test_az_involution_broken(f4_doc):
    for p in f4_doc["parameter_sets"][0]["parameters"]:
        if p["id"] == "X9":
            p["az"] = "X8"
    details = failed_names(f4_doc)
    assert "az_links" in details
    assert "involution" in details["az_links"]


def test_az_dangling_link(f4_doc):
    for p in f4_doc["parameter_sets"][0]["parameters"]:
        if p["id"] == "X7":
            p["az"] = "X99"
    details = failed_names(f4_doc)
    assert "az_links" in details
    assert "missing partner" in details["az_links"]


def test_parameter_orbit_bound(f4_doc):
    for p in f4_doc["parameter_sets"][0]["parameters"]:
        if p["id"] == "X20":
            p["n_orbit"] = "F4"
    details = failed_names(f4_doc)
    assert "parameter_orbits" in details


def test_parameter_orbits_are_read_in_the_dual_group(f4_doc):
    # a bundle parses any parameter orbit; the check reads it in the dual
    f4_doc["dual_group"] = "F4-partner"
    f4_doc["parameter_sets"][0]["ic_orbit"] = "E8"
    bundle = data.parse_bundle(json.dumps(f4_doc))
    paired = {c.name: c for c in data.validate_bundle(bundle, bundle).checks}
    assert paired["parameter_orbits"] == data.CheckResult(
        "parameter_orbits", False, "unknown orbit 'E8' in group F4"
    )


def test_bar_class_missing_trivial(f4_doc):
    f4_doc["bar_a"]["F4(a1)"] = ["(12)"]
    details = failed_names(f4_doc)
    assert "bar_classes" in details


# -- schema errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda d: d.pop("format_version"), "format_version"),
        (lambda d: d.update(format_version=2), "format_version"),
        (lambda d: d["orbits"].append({"label": "A1", "special": False}),
         "duplicate orbit"),
        (lambda d: d["closure"].append(["A1", "Q9"]), "unknown orbit"),
        (lambda d: d["bar_a"].update(Q9=["1"]), "unknown orbit"),
        (lambda d: d["d_s"].update(Q9={"1": "F4"}), "unknown orbit"),
        (lambda d: d["provenance"].pop("d_s"), "provenance"),
        (lambda d: d["group"].update(node_order=[1, 1, 2, 3]), "permutation"),
        (lambda d: d["orbits"][0].update(weighted_dynkin=[0, 0]), "entries"),
        (lambda d: d["parameter_sets"][0]["parameters"].append(
            {"id": "X1", "n_orbit": "0", "az": "X1"}), "duplicate parameter"),
        (lambda d: d["bar_a"]["F4(a3)"].append("(12)"), "duplicate classes"),
    ],
)
def test_schema_errors(f4_doc, mutate, fragment):
    mutate(f4_doc)
    with pytest.raises(SchemaError) as err:
        load_doc(f4_doc)
    assert fragment in str(err.value)


PARAM = ["parameter_sets", 0, "parameters", 0]


@pytest.mark.parametrize(
    "path,value",
    [
        pytest.param(["orbits", 0], "label", id="orbit-string"),
        pytest.param(["orbits", 0], 3, id="orbit-int"),
        pytest.param(["group", "node_order"], 4, id="node-order-int"),
        pytest.param(["group", "node_order"], [1, "2", 3, 4], id="node-order-str"),
        pytest.param(["orbits", 3, "weighted_dynkin", 1], "a", id="dynkin-str"),
        pytest.param(["orbits", 3, "weighted_dynkin", 1], True, id="dynkin-bool"),
        pytest.param(["orbits", 3, "dim"], True, id="dim-bool"),
        pytest.param(["group", "rank"], True, id="rank-bool"),
        pytest.param(["format_version"], True, id="version-bool"),
        pytest.param(["parameter_sets", 0, "parameters", 0], 7, id="parameter-int"),
        pytest.param(["parameter_sets", 0], "F4(a3)", id="parameter-set-string"),
        pytest.param(["parameter_sets"], 7, id="parameter-sets-int"),
        pytest.param(["closure", 0], ["0", ["A1"]], id="closure-list-label"),
        # values are stored as given, not converted
        pytest.param(PARAM + ["rho"], 7, id="rho-int"),
        pytest.param(PARAM + ["iwahori"], "false", id="iwahori-str"),
        pytest.param(PARAM + ["iwahori"], 0, id="iwahori-int"),
        pytest.param(PARAM + ["unitary"], "maybe", id="unitary-str"),
        pytest.param(PARAM + ["unitary"], 1, id="unitary-int"),
        pytest.param(["d_s", "A1", "1"], ["F4(a1)"], id="ds-list"),
        pytest.param(["d_s", "0", "1"], None, id="ds-null"),
        # a query normalizes class labels, so it could never name this one
        pytest.param(["bar_a", "F4(a1)", 1], "(1 2)", id="class-with-space"),
    ],
)
def test_malformed_records_raise_schema_error(f4_doc, path, value):
    target = f4_doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError):
        data.parse_bundle(json.dumps(f4_doc))


def test_empty_group_type_is_schema_error(f4_doc):
    f4_doc["group"]["type"] = ""
    with pytest.raises(SchemaError) as err:
        data.parse_bundle(json.dumps(f4_doc))
    assert "'type'" in str(err.value)
    with pytest.raises(SchemaError):
        load_doc(f4_doc)


def _field_paths(node, path=()):
    """Every field path of a JSON document; of each list, the first two entries."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:2])
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


F4_TEXT = data.builtin_bundle_text("f4")
FIELD_PATHS = list(_field_paths(json.loads(F4_TEXT)))
REPLACEMENTS = [None, True, 0, -1, 2.5, "", "x", [], {}, ["1"], {"a": 1}]


@settings(max_examples=400)
@given(path=st.sampled_from(FIELD_PATHS), value=st.sampled_from(REPLACEMENTS))
@example(path=("group", "type"), value="")
def test_single_field_replacement_raises_only_package_errors(path, value):
    doc = json.loads(F4_TEXT)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        data.validate_bundle(data.parse_bundle(json.dumps(doc)))
    except OrbitDualityError:
        pass


PARTNER_DOC = {**json.loads(F4_TEXT), "dual_group": "F4-partner"}


@settings(max_examples=400)
@given(path=st.sampled_from(FIELD_PATHS), value=st.sampled_from(REPLACEMENTS))
@example(path=("d_s",), value={})
@example(path=("d_s", "0", "1"), value=None)
@example(path=("d_s", "A1", "1"), value=[])
def test_broken_dual_bundle_gives_a_report(path, value):
    bundle = data.parse_bundle(json.dumps(PARTNER_DOC))
    doc = json.loads(F4_TEXT)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    try:
        dual = data.parse_bundle(json.dumps(doc))
    except SchemaError:
        return
    assert isinstance(data.validate_bundle(bundle, dual), data.ValidationReport)


def test_missing_parameter_fields_keep_defaults(f4_doc):
    record = f4_doc["parameter_sets"][0]["parameters"][0]
    for key in ("rho", "iwahori", "unitary"):
        del record[key]
    x = data.parse_bundle(json.dumps(f4_doc)).parameter_sets[0].params[0]
    assert (x.rho, x.iwahori, x.unitary) == ("", True, None)
    record["unitary"] = None
    assert data.parse_bundle(json.dumps(f4_doc)).parameter_sets[0].params[0] == x


def test_malformed_document():
    with pytest.raises(SchemaError):
        data.parse_bundle("{ not json")
    with pytest.raises(SchemaError):
        data.parse_bundle("[1, 2]")


NOT_UTF8 = b"\xff\xfe" + F4_TEXT.encode("utf-8")
TOO_DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "content,fragment",
    [(NOT_UTF8, "not UTF-8"), (TOO_DEEP.encode(), "malformed")],
    ids=["not-utf8", "too-deep"],
)
def test_undecodable_documents_are_schema_errors(tmp_path, content, fragment):
    path = tmp_path / "bundle.json"
    path.write_bytes(content)
    sources = [content, str(path), path, io.BytesIO(content)]
    if fragment == "malformed":
        sources.append(TOO_DEEP)
    for source in sources:
        with pytest.raises(SchemaError) as err:
            data.parse_bundle(source)
        assert fragment in str(err.value), source


def test_duplicate_parameter_set_is_schema_error(f4_doc):
    f4_doc["parameter_sets"] *= 2
    with pytest.raises(SchemaError) as err:
        data.parse_bundle(json.dumps(f4_doc))
    assert "duplicate parameter set at 'F4(a3)'" in str(err.value)


def test_parameter_id_in_two_sets_is_schema_error(f4_doc):
    (ps,) = f4_doc["parameter_sets"]
    other = {"ic_orbit": "0", "parameters": [dict(ps["parameters"][0])]}
    f4_doc["parameter_sets"].append(other)
    with pytest.raises(SchemaError) as err:
        data.parse_bundle(json.dumps(f4_doc))
    assert "duplicate parameter id 'X1'" in str(err.value)
    other["parameters"][0]["id"] = other["parameters"][0]["az"] = "Y1"
    assert len(data.parse_bundle(json.dumps(f4_doc)).parameter_sets) == 2


def test_duplicate_json_keys_rejected(f4_doc):
    text = json.dumps(f4_doc)
    text = text[:-1] + ', "format_version": 1}'
    with pytest.raises(SchemaError) as err:
        data.parse_bundle(text)
    assert "duplicate key" in str(err.value)


def test_missing_parameter_provenance(f4_doc):
    del f4_doc["provenance"]["parameter_sets"]
    with pytest.raises(SchemaError) as err:
        load_doc(f4_doc)
    assert "parameter_sets" in str(err.value)


def test_explicit_dual_bundle(f4_doc):
    f4_doc["dual_group"] = "F4-partner"
    text = json.dumps(f4_doc)
    bundle = data.parse_bundle(text)
    partner = data.parse_bundle(text)
    report = data.validate_bundle(bundle, partner)
    assert report.passed
    pair = data.dual_pair(bundle, partner)
    assert pair.g is not pair.gd
    assert pair.g.d("0") == "F4"
    assert pair.gd.d("F4") == "0"
    from orbitduality.packets import arthur_packet

    ps = data.parameter_set(bundle, "F4(a3)")
    assert arthur_packet(pair, ps) == ["X5", "X13", "X17", "X19", "X20"]


@pytest.mark.parametrize(
    "orbit,cls,value", [("F4(a3)", "(12)", "x"), ("A1", "1", "nope")]
)
def test_dual_bundle_ds_values_must_name_main_orbits(f4_doc, orbit, cls, value):
    f4_doc["dual_group"] = "F4-partner"
    bundle = data.parse_bundle(json.dumps(f4_doc))
    f4_doc["d_s"][orbit][cls] = value
    report = data.validate_bundle(bundle, data.parse_bundle(json.dumps(f4_doc)))
    assert not report.passed
    names = [c.name for c in report.checks]
    assert names.count("ds_table") == 1
    ds = {c.name: c for c in report.checks}["ds_table"]
    assert not ds.passed
    bad = f"({orbit}, {cls}) -> {value}"
    assert ds.details == "dual bundle: values outside dual group: " + bad


def test_main_ds_table_failure_wins_over_dual_bundle(f4_doc):
    f4_doc["dual_group"] = "F4-partner"
    partner = json.loads(json.dumps(f4_doc))
    partner["d_s"]["F4(a3)"]["(12)"] = "x"
    del f4_doc["d_s"]["A1"]["1"]
    report = data.validate_bundle(
        data.parse_bundle(json.dumps(f4_doc)),
        data.parse_bundle(json.dumps(partner)),
    )
    ds = {c.name: c for c in report.checks}["ds_table"]
    assert not ds.passed
    assert ds.details.startswith("not total: missing (A1, 1)")


def test_dual_bundle_closure_order_reads_its_own_flags(f4_doc):
    f4_doc["dual_group"] = "F4-partner"
    partner = json.loads(json.dumps(f4_doc))
    partner["orbits"][0]["special"] = False
    dual = data.parse_bundle(json.dumps(partner))
    report = data.validate_bundle(data.parse_bundle(json.dumps(f4_doc)), dual)
    assert [(c.name, c.details) for c in report.failures()][0] == (
        "closure_order", "dual bundle: zero orbit 0 is not flagged special")
    f4_doc["orbits"][-1]["special"] = False  # the bundle's own failure wins
    report = data.validate_bundle(data.parse_bundle(json.dumps(f4_doc)), dual)
    assert report.failures()[0].details == "regular orbit F4 is not flagged special"


def test_only_dual_pair_gives_posets_their_dual_tables(f4_bundle):
    with pytest.raises(MissingTableError):
        data.bundle_poset(f4_bundle).is_special("0")
    for pair in (data.dual_pair(f4_bundle), data.dual_pair(f4_bundle, f4_bundle)):
        for poset, dual in ((pair.g, pair.gd), (pair.gd, pair.g)):
            # the partner's group id, labels and d column, never the partner
            table = poset.dual_d
            assert table is not dual and not hasattr(poset, "dual")
            assert (table.group_id, table.labels) == (dual.group_id, dual.labels)
            assert [table.d(a) for a in table.labels] == [dual.d(a) for a in dual.labels]
            with pytest.raises(UnknownLabelError, match="unknown orbit 'E8' in group F4"):
                table.d("E8")
        flagged = tuple(o.label for o in f4_bundle.orbits if o.special)
        assert pair.g.specials() == pair.gd.specials() == flagged


def test_a_pairing_builds_one_d_table_per_distinct_dual(f4_bundle, monkeypatch):
    built = []
    monkeypatch.setattr(data, "d_table", lambda p: built.append(p) or d_table(p))
    pair = data.dual_pair(f4_bundle)
    assert built == [pair.g] and pair.g.dual_d is pair.gd.dual_d
    built.clear()
    pair = data.dual_pair(f4_bundle, f4_bundle)
    assert built == [pair.gd, pair.g] and pair.g.dual_d is not pair.gd.dual_d


def _two_orbit_type_a_doc(rank):
    return {
        "format_version": 1,
        "group": {"type": "A", "rank": rank},
        "dual_group": "self",
        "orbits": [{"label": "0", "special": True}, {"label": "reg", "special": True}],
        "closure": [["0", "reg"]],
        "bar_a": {},
        "d_s": {"0": {"1": "reg"}, "reg": {"1": "0"}},
        "provenance": {"d_s": "toy: the A1 orbits"},
    }


def test_rank_must_be_below_the_orbit_count():
    # every simple type has more orbits than its rank, so a larger rank is
    # refused before anything of rank size (node order, Cartan matrix) is built
    assert data.validate_bundle(data.parse_bundle(json.dumps(
        _two_orbit_type_a_doc(1)))).passed
    for rank in (2, 2000):
        with pytest.raises(SchemaError) as err:
            data.parse_bundle(json.dumps(_two_orbit_type_a_doc(rank)))
        assert str(err.value) == f"rank {rank} is not below the orbit count 2"
    # no simple type has rank below 1, and the rank is refused as it is read
    for rank in (0, -1, -5):
        doc = _two_orbit_type_a_doc(rank)
        del doc["orbits"]
        with pytest.raises(SchemaError) as err:
            data.parse_bundle(json.dumps(doc))
        assert str(err.value) == f"rank {rank} is below 1"


def test_non_self_dual_bundle_needs_its_dual_bundle(f4_doc):
    f4_doc["dual_group"] = "F4-partner"
    text = json.dumps(f4_doc)
    bundle = data.parse_bundle(text)
    for call in (
        lambda: data.validate_bundle(bundle),
        lambda: data.load_bundle(text),
        lambda: data.dual_pair(bundle),
    ):
        with pytest.raises(SchemaError) as err:
            call()
        assert str(err.value) == (
            "bundle declares dual group 'F4-partner'; a dual bundle is required"
        )


def test_dynkin_dims_reads_the_roots_only_to_compare(f4_doc, monkeypatch):
    # the positive roots cost about rank^4, so an orbit without both a dim
    # and a weighted Dynkin diagram must not build them
    class RootsRead(Exception):
        pass

    def refuse(rs):
        raise RootsRead

    monkeypatch.setattr(data, "positive_roots", refuse)
    kept = f4_doc["orbits"][8]["weighted_dynkin"]
    for rec in f4_doc["orbits"]:
        del rec["weighted_dynkin"]
    report = data.validate_bundle(data.parse_bundle(json.dumps(f4_doc)))
    assert {c.name: c for c in report.checks}["dynkin_dims"].passed
    f4_doc["orbits"][8]["weighted_dynkin"] = kept
    with pytest.raises(RootsRead):
        data.validate_bundle(data.parse_bundle(json.dumps(f4_doc)))


def test_weighted_dynkin_coweights(f4_bundle):
    poset = data.bundle_poset(f4_bundle)
    assert poset.weighted_dynkin("F4(a3)") == Coweight.of([0, 2, 0, 0])
    assert poset.weighted_dynkin("F4") == Coweight.of([2, 2, 2, 2])
    assert poset.dim("F4(a3)") == 40


def test_bundled_coweight_orbits_have_unique_dominant_element(f4_bundle):
    from orbitduality.rootdata import coweight_orbit, dominant_rep

    poset = data.bundle_poset(f4_bundle)
    rs = poset.root_system()
    for label in poset.labels:
        w = poset.weighted_dynkin(label)
        orbit = coweight_orbit(w, rs)
        dominant = [v for v in orbit if all(c >= 0 for c in v.twice)]
        assert dominant == [dominant_rep(w, rs)] == [w], label


def test_load_from_bytes_and_file_object(f4_bundle):
    raw = data.builtin_bundle_text("f4")
    assert data.load_bundle(raw.encode("utf-8")) == f4_bundle
    import io

    assert data.load_bundle(io.StringIO(raw)) == f4_bundle


def test_load_from_binary_file_object(f4_bundle):
    raw = data.builtin_bundle_text("f4")
    assert data.load_bundle(io.BytesIO(raw.encode("utf-8"))) == data.load_bundle(raw)


# -- the bundle path against the partition path ------------------------------

def classical_bundle_doc(poset):
    """A type A classical poset as a bundle document, and its relabelling.

    The document carries the closure pairs, the trivial class on every
    orbit, ``d_s`` = ``d`` and the computed special flags; the zero orbit
    is relabelled "0", which ``closure_order`` requires.
    """
    zero = poset.zero()
    name = {a: "0" if a == zero else a for a in poset.labels}
    doc = {
        "format_version": data.FORMAT_VERSION,
        "group": {"type": poset.family, "rank": poset.rank},
        "dual_group": "self",
        "orbits": [
            {"label": name[a], "special": poset.is_special(a)} for a in poset.labels
        ],
        "closure": [
            [name[a], name[b]]
            for a in poset.labels for b in poset.labels
            if a != b and poset.leq(a, b)
        ],
        "bar_a": {name[a]: ["1"] for a in poset.labels},
        "d_s": {name[a]: {"1": name[poset.d(a)]} for a in poset.labels},
        "provenance": {"d_s": "the partition transpose"},
    }
    return doc, name


@pytest.mark.parametrize("rank", range(5, 13))
def test_type_a_bundle_path_matches_partition_path(rank):
    p = classical_poset("A", rank)
    doc, name = classical_bundle_doc(p)
    bundle = data.parse_bundle(json.dumps(doc))
    assert data.validate_bundle(bundle).passed
    pair = data.dual_pair(bundle)
    g = pair.g
    for a in p.labels:
        assert g.d(name[a]) == name[p.d(a)]
        assert g.is_special(name[a]) == p.is_special(a)
        assert g.special_closure(name[a]) == name[p.special_closure(a)]
        for b in p.labels:
            assert g.leq(name[a], name[b]) == p.leq(a, b), (a, b)
    if rank <= 9:
        classical = DualPair(p, p.dual_d)
        for a in p.labels:
            assert achar_dual(pair, (name[a], "1")) == (name[p.d(a)], "1")
            assert achar_dual(classical, (a, "1")) == (p.d(a), "1")
    if rank <= 7:
        for a in p.labels:
            piece = tuple(name[b] for b in p.special_piece(a))
            assert g.special_piece(name[a]) == piece
