import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from outcome_sweep import cases, documents, relabelled_pair
from test_data import FIELD_PATHS, PARAM, REPLACEMENTS, _two_orbit_type_a_doc

from orbitduality import cli, data, packets
from orbitduality.errors import InconsistentDataError

BUNDLE = None
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden"


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "f4.json"
    path.write_text(data.builtin_bundle_text("f4"), encoding="utf-8")
    return str(path)


def run_cli(capsys, *args):
    code = cli.run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_label():
    assert cli.normalize_label("A1+Ã1") == "A1+~A1"  # precomposed tilde
    assert cli.normalize_label("Ã1") == "~A1"  # combining tilde
    assert cli.normalize_label("F4(a₃)") == "F4(a3)"  # subscript digit
    assert cli.normalize_label("~A1+A2") == "~A1+A2"


def run_fresh(code: str) -> str:
    """The last line ``code`` prints in a fresh interpreter.  ``-S`` keeps
    site ``.pth`` files from loading or hiding any module."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()[-1]


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    return set(run_fresh(code + "\nimport sys; print(*sorted(sys.modules))").split())


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """Every CLI call pays for what importing the CLI loads."""
    loaded = modules_after("import orbitduality.cli")
    assert "orbitduality.cli" in loaded
    assert not {
        "dataclasses", "inspect", "ast", "dis", "tokenize", "importlib.resources"
    } & loaded


def test_package_import_loads_no_submodule():
    loaded = modules_after("import orbitduality")
    assert "orbitduality" in loaded
    assert not {m for m in loaded if m.startswith("orbitduality.")}


def test_orbits_import_leaves_out_bundle_and_packet_layers():
    # a classical worker needs only the orbit layer
    loaded = modules_after("from orbitduality import orbits")
    assert "orbitduality.orbits" in loaded
    # it then times classical_poset, so partitions must load here, not there
    assert "orbitduality.partitions" in loaded
    assert not {
        "orbitduality.data", "orbitduality.duality", "orbitduality.packets",
        "orbitduality.cli",
    } & loaded


def test_dual_compiles_a_pinned_number_of_source_lines(bundle_path):
    """Every CLI call compiles each package module it loads.  A change that
    grows what ``dual 0`` loads edits this pin and says why."""
    lines = run_fresh(
        "import sys, orbitduality.cli as cli\n"
        f"assert cli.run(['--bundle', {bundle_path!r}, 'dual', '0']) == 0\n"
        "print(sum(len(open(m.__file__, encoding='utf-8').readlines())\n"
        "          for n, m in sys.modules.items() if n.split('.')[0] == 'orbitduality'))"
    )
    assert int(lines) == 1873


def test_dual_loads_no_argparse_and_no_classical_code(bundle_path):
    loaded = modules_after(
        "import orbitduality.cli as cli\n"
        f"assert cli.run(['--bundle', {bundle_path!r}, 'dual', '0']) == 0"
    )
    assert not {
        "argparse", "orbitduality.orbits", "orbitduality.partitions"
    } & loaded


@pytest.mark.parametrize(
    "broken, argv, exit_code, loads_packets",
    [
        (False, ["dual", "0"], 0, False),
        (False, ["list"], 0, False),
        (True, ["verify"], 2, False),
        (False, ["packet", "F4(a3)"], 0, True),
        (False, ["verify"], 0, True),
    ],
    ids=["dual", "list", "verify-broken", "packet", "verify"],
)
def test_cli_loads_packets_only_to_run_a_packet_query(
    bundle_path, tmp_path, broken, argv, exit_code, loads_packets
):
    path = bundle_path
    if broken:
        doc = json.loads(data.builtin_bundle_text("f4"))
        doc["closure"].append(["F4", "A1"])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
    args = ["--bundle", str(path)] + argv
    loaded = modules_after(
        f"import orbitduality.cli as cli\nassert cli.run({args!r}) == {exit_code}"
    )
    assert ("orbitduality.packets" in loaded) is loads_packets


def test_dual(capsys, bundle_path):
    code, out, _ = run_cli(capsys, "--bundle", bundle_path, "dual", "0")
    assert code == 0
    assert out == "F4\n"


def test_achar_dual(capsys, bundle_path):
    code, out, _ = run_cli(
        capsys, "--bundle", bundle_path, "achar-dual", "A1", "1"
    )
    assert code == 0
    assert out == "(F4(a1), (12))\n"


def test_closure(capsys, bundle_path):
    code, out, _ = run_cli(capsys, "--bundle", bundle_path, "closure", "A1", "F4(a3)")
    assert code == 0 and out == "true\n"
    code, out, _ = run_cli(capsys, "--bundle", bundle_path, "closure", "F4", "A1")
    assert code == 0 and out == "false\n"


def test_special_piece(capsys, bundle_path):
    code, out, _ = run_cli(
        capsys, "--bundle", bundle_path, "special-piece", "F4(a3)"
    )
    assert code == 0
    assert set(out.split()) == {"F4(a3)", "C3(a1)", "B2", "A1+~A2", "~A1+A2"}


def test_cuwf(capsys, bundle_path):
    code, out, _ = run_cli(capsys, "--bundle", bundle_path, "cuwf", "X2")
    assert code == 0
    assert "cuwf: (F4(a1), (12))" in out
    assert "geometric: F4(a1)" in out


def test_packet(capsys, bundle_path):
    code, out, _ = run_cli(capsys, "--bundle", bundle_path, "packet", "F4(a3)")
    assert code == 0
    ids = [line.split()[0] for line in out.splitlines()]
    assert ids == ["X5", "X13", "X17", "X19", "X20"]


def test_packet_reads_one_duality_table(capsys, bundle_path, sommers_calls):
    # 117 reads validate the bundle: 21 tabulate the pair's one self-dual
    # table, and the laws of d, which store the specials, read 96.  The packet
    # and every member's cuwf then read that table, where a fresh table
    # would add 21 and a table per member 105
    code, _, _ = run_cli(capsys, "--bundle", bundle_path, "packet", "F4(a3)")
    assert code == 0
    assert len(sommers_calls) == 117


def test_validation_stores_the_specials_later_reads_use(f4_bundle, is_special_calls):
    # the laws of d ask each orbit once; the special-flags check, the special
    # pieces and list then read the specials they stored
    pair, report = data.validated_pair(f4_bundle)
    assert len(is_special_calls) == len(f4_bundle.orbits) == 16
    is_special_calls.clear()
    assert len(pair.g.special_piece("F4(a3)")) == 5
    code, _, payload = cli._list(f4_bundle, pair, report)
    assert code == 0 and sum(o["special"] for o in payload["orbits"]) == 11
    assert is_special_calls == []


def test_a_call_pairs_its_bundles_once(capsys, bundle_path, monkeypatch):
    built = []
    real = data.bundle_poset
    monkeypatch.setattr(data, "bundle_poset", lambda b: built.append(b) or real(b))
    for extra, posets in (((), 1), (("--dual-bundle", bundle_path), 2)):
        built.clear()
        code, out, _ = run_cli(capsys, "--bundle", bundle_path, *extra, "dual", "0")
        assert (code, out, len(built)) == (0, "F4\n", posets)


def test_rank_not_below_the_orbit_count_exits_2(capsys, tmp_path):
    for rank, error in ((2000, "is not below the orbit count 2"),
                        (0, "is below 1"), (-1, "is below 1"), (-5, "is below 1")):
        path = tmp_path / f"a{rank}.json"
        path.write_text(json.dumps(_two_orbit_type_a_doc(rank)), encoding="utf-8")
        code, out, err = run_cli(capsys, "--bundle", str(path), "list")
        assert (code, out) == (2, "")
        assert err == f"error: rank {rank} {error}\n"


def test_weak_packet(capsys, bundle_path):
    code, out, _ = run_cli(
        capsys, "--bundle", bundle_path, "weak-packet", "F4(a3)"
    )
    assert code == 0
    ids = [line.split()[0] for line in out.splitlines()]
    assert ids == [
        "X5", "X7", "X8", "X9", "X11", "X13", "X15", "X17", "X18", "X19", "X20",
    ]
    assert "az_orbit=B2" in out


def test_unicode_label_arguments(capsys, bundle_path):
    code, out, _ = run_cli(
        capsys, "--bundle", bundle_path, "dual", "Ã1"
    )
    assert code == 0
    assert out == "F4(a1)\n"
    plain = run_cli(capsys, "--bundle", bundle_path, "packet", "F4(a3)")
    assert plain[0] == 0 and plain[1].startswith("X5 ")
    assert run_cli(capsys, "--bundle", bundle_path, "packet", "F4(a₃)") == plain


def test_parameter_ids_with_non_decimal_digits(capsys, tmp_path):
    # '²'.isdigit() holds but int('²') fails; '٣' is an Arabic-Indic three
    doc = json.loads(data.builtin_bundle_text("f4"))
    renamed = {"X1": "X²", "X3": "X٣"}
    for x in doc["parameter_sets"][0]["parameters"]:
        x["id"] = renamed.get(x["id"], x["id"])
        x["az"] = renamed.get(x["az"], x["az"])
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "--bundle", str(path), "list")
    assert code == 0
    ids = [line.split()[0] for line in out.splitlines() if line.startswith("X")]
    assert ids[:4] == ["X²", "X2", "X٣", "X4"]
    assert run_cli(capsys, "--bundle", str(path), "verify")[0] == 0


def test_json_mirrors_text(capsys, bundle_path):
    code, out, _ = run_cli(
        capsys, "--bundle", bundle_path, "--format", "json", "packet", "F4(a3)"
    )
    assert code == 0
    payload = json.loads(out)
    assert [m["id"] for m in payload["members"]] == [
        "X5", "X13", "X17", "X19", "X20",
    ]
    assert payload["members"][0]["cuwf"] == {"orbit": "F4(a3)", "class": "1"}


def test_deterministic_output(capsys, bundle_path):
    _, first, _ = run_cli(capsys, "--bundle", bundle_path, "list")
    _, second, _ = run_cli(capsys, "--bundle", bundle_path, "list")
    assert first == second
    assert "X20" in first and "F4(a3)" in first


def test_unknown_label_exit_code(capsys, bundle_path):
    code, _, err = run_cli(capsys, "--bundle", bundle_path, "dual", "E8")
    assert code == 1
    assert "E8" in err


@pytest.mark.parametrize("command", ["dual", "special-piece"])
def test_leading_combining_tilde_is_unknown_label(capsys, bundle_path, command):
    code, out, err = run_cli(capsys, "--bundle", bundle_path, command, "\u0303A1")
    assert code == 1
    assert out == ""
    assert err.count("error:") == 1 and "combining tilde" in err
    assert "Traceback" not in err


def test_unknown_parameter_exit_code(capsys, bundle_path):
    code, _, err = run_cli(capsys, "--bundle", bundle_path, "cuwf", "X99")
    assert code == 1
    assert "X99" in err
    # parameter ids are not labels, so a fullwidth X is not folded
    code, out, err = run_cli(capsys, "--bundle", bundle_path, "cuwf", "Ｘ2")
    assert (code, out) == (1, "")
    assert err == "error: unknown parameter id 'Ｘ2'\n"


@pytest.mark.parametrize("command", ["packet", "weak-packet"])
def test_unknown_parameter_set_exit_code(capsys, bundle_path, command):
    code, out, err = run_cli(capsys, "--bundle", bundle_path, command, "A1")
    assert code == 1
    assert out == ""
    assert err == "error: bundle has no parameter set at 'A1'\n"


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "--bundle", "/no/such/file.json", "dual", "0")
    assert code == 2
    assert "error" in err


# the first argv is read without argparse, the second only by argparse
@pytest.mark.parametrize("flag", [["--dual-bundle", ""], ["--dual-bundle="]])
def test_empty_dual_bundle_path_is_a_missing_file(capsys, bundle_path, flag):
    argv = ["--bundle", bundle_path, *flag, "verify"]
    assert (cli.parse_argv(argv) is None) == (len(flag) == 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: ''\n"


def test_verify_ok(capsys, bundle_path):
    code, out, _ = run_cli(capsys, "--bundle", bundle_path, "verify")
    assert code == 0
    assert "PASS" in out
    assert "wavefront equalities" in out


def test_verify_json(capsys, bundle_path):
    code, out, _ = run_cli(
        capsys, "--bundle", bundle_path, "--format", "json", "verify"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["jiang"][0]["passed"] is True


def test_verify_fails_on_broken_bundle(capsys, tmp_path):
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["closure"].append(["F4", "A1"])
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "--bundle", str(path), "verify")
    assert code == 2
    assert "FAIL closure_order" in out


def test_verify_without_unique_zero_orbit_reports(capsys, tmp_path):
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["closure"] = [c for c in doc["closure"] if c[0] != "0"]
    path = tmp_path / "nozero.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "--bundle", str(path), "verify")
    assert code == 2
    assert "FAIL closure_order: group F4 has no unique extreme orbit" in out
    assert "Traceback" not in out + err


def test_query_on_broken_bundle_exits_2(capsys, tmp_path):
    doc = json.loads(data.builtin_bundle_text("f4"))
    del doc["d_s"]["F4(a3)"]["(123)"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, "--bundle", str(path), "dual", "0")
    assert code == 2
    assert "ds_table" in err


def test_dual_bundle_flag(capsys, tmp_path):
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["dual_group"] = "F4-partner"
    path = tmp_path / "f4.json"
    partner = tmp_path / "partner.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    partner.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        "--bundle", str(path), "--dual-bundle", str(partner),
        "packet", "F4(a3)",
    )
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "X5", "X13", "X17", "X19", "X20",
    ]


@pytest.mark.parametrize("command", [["dual", "0"], ["verify"]])
def test_missing_dual_bundle_exits_2(capsys, tmp_path, command):
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["dual_group"] = "F4-partner"
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "--bundle", str(path), *command)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "dual bundle is required" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["verify"],
        ["--format", "json", "verify"],
        ["packet", "F4(a3)"],
        ["weak-packet", "F4(a3)"],
    ],
    ids=["verify", "verify-json", "packet", "weak-packet"],
)
def test_dual_bundle_breaking_the_packet_laws_exits_2(
    capsys, tmp_path, bundle_path, command
):
    # the cover F4(a2) < B2 leaves the dual bundle two minimal orbits, so
    # its closure order fails and the packet queries never run; the
    # parameter orbits, read in that broken order, fail too
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["closure"][doc["closure"].index(["B2", "C3(a1)"])] = ["F4(a2)", "B2"]
    partner = tmp_path / "partner.json"
    partner.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "--bundle", bundle_path, "--dual-bundle", str(partner), *command
    )
    assert code == 2 and "Traceback" not in err
    detail = "dual bundle: group F4 has no unique extreme orbit"
    if command == ["verify"]:
        assert f"FAIL closure_order: {detail}\n" in out and "FAIL (5/8 checks)" in out
    elif command[-1] == "verify":
        assert json.loads(out)["validation"]["checks"][0]["details"] == detail
    else:
        assert out == "" and err.count("error:") == 1


@pytest.mark.parametrize("flip", [False, True], ids=["f4-main", "primed-main"])
def test_distinct_dual_groups_name_parameter_orbits_in_the_dual(capsys, tmp_path, flip):
    # F4 and a copy with every label but 0 primed, as each other's dual
    main, partner = tmp_path / "main.json", tmp_path / "partner.json"
    args = ["--bundle", str(main), "--dual-bundle", str(partner)]
    for dual_labels in (True, False):
        docs = relabelled_pair(dual_labels=dual_labels, flip=flip)
        for path, doc in zip((main, partner), docs):
            path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, *args, "verify")
        if not dual_labels:
            # orbits named in the bundle's own group are unknown in the dual
            assert code == 2 and "FAIL parameter_orbits: unknown orbit" in out
            continue
        ic = "F4(a3)" if flip else "F4(a3)'"
        assert code == 0 and "PASS (10/10 checks)" in out
        assert f"ok   wavefront equalities and lower bound at {ic}\n" in out
        code, out, _ = run_cli(capsys, *args, "packet", ic)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [
            "X5", "X13", "X17", "X19", "X20",
        ]


@pytest.mark.parametrize(
    "case", [c for c in cases() if c["id"].startswith("suffix-relabelled-")],
    ids=lambda case: case["edits"][0][2]["to"] + "-" + case["edits"][0][2]["label"],
)
def test_bundle_labels_ending_in_i_compare_exactly(capsys, tmp_path, case):
    # a non-special orbit renamed to its special closure's label plus I or
    # II is still non-special: only classical type D twins drop the suffix
    renamed = case["edits"][0][2]["to"]
    path = tmp_path / "f4.json"
    path.write_text(documents(case)[0], encoding="utf-8")
    code, out, _ = run_cli(capsys, "--bundle", str(path), "verify")
    assert code == 0 and "PASS (10/10 checks)" in out
    code, out, _ = run_cli(
        capsys, "--bundle", str(path), "special-piece", renamed.rstrip("I"))
    assert code == 0 and renamed in out.split()


COMMANDS = [
    ["dual", "0"],
    ["achar-dual", "0", "1"],
    ["closure", "0", "A1"],
    ["special-piece", "0"],
    ["cuwf", "X1"],
    ["packet", "F4(a3)"],
    ["weak-packet", "F4(a3)"],
    ["verify"],
    ["list"],
]
ALL_COMMANDS = pytest.mark.parametrize(
    "command", COMMANDS, ids=lambda command: command[0]
)


@ALL_COMMANDS
def test_empty_group_type_exits_2(capsys, tmp_path, command):
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["group"]["type"] = ""
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "--bundle", str(path), *command)
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe" + b"{}", ("[" * 100000 + "]" * 100000).encode()],
    ids=["not-utf8", "too-deep"],
)
@pytest.mark.parametrize("flag", ["--bundle", "--dual-bundle"])
def test_undecodable_bundle_exits_2(capsys, tmp_path, bundle_path, content, flag):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    files = {"--bundle": bundle_path, "--dual-bundle": bundle_path, flag: str(bad)}
    args = [arg for item in files.items() for arg in item]
    code, out, err = run_cli(capsys, *args, "dual", "0")
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


def test_duplicate_parameter_set_exits_2(capsys, tmp_path):
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["parameter_sets"] *= 2
    path = tmp_path / "f4.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in (["verify"], ["packet", "F4(a3)"], ["cuwf", "X2"]):
        code, out, err = run_cli(capsys, "--bundle", str(path), *command)
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1 and "duplicate parameter set" in err


@pytest.mark.parametrize(
    "check, edit, detail",
    [
        ("special_flags", lambda d: d["orbits"][8].update(special=True),
         "flags disagree with d∘d fixed points at B2"),
        ("dynkin_dims", lambda d: d["orbits"][8].update(dim=38),
         "B2: dim 38 vs 36 from weighted Dynkin"),
        ("az_links", lambda d: d["parameter_sets"][0]["parameters"][0].update(az="X99"),
         "X1 links to missing partner X99"),
        ("parameter_orbits", lambda d: d["parameter_sets"][0].update(ic_orbit="Q9"),
         "unknown orbit 'Q9' in group F4"),
    ],
    ids=["flag", "dim", "az", "ic-orbit"],
)
def test_every_check_runs_on_the_dual_bundle(capsys, tmp_path, check, edit, detail):
    # orbit 8 is B2: neither extreme, not special, dim 36
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["dual_group"] = "F4-partner"
    main, partner = tmp_path / "main.json", tmp_path / "partner.json"
    main.write_text(json.dumps(doc), encoding="utf-8")
    edit(doc)
    partner.write_text(json.dumps(doc), encoding="utf-8")
    # the dual bundle alone fails; then both do, and the bundle's own shows
    for shown in ("dual bundle: " + detail, detail):
        code, out, _ = run_cli(
            capsys, "--bundle", str(main), "--dual-bundle", str(partner), "verify"
        )
        assert code == 2 and f"FAIL {check}: {shown}\n" in out
        main.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize(
    "path", [["parameter_sets", 0, "ic_orbit"], PARAM + ["n_orbit"]],
    ids=["ic-orbit", "n-orbit"],
)
def test_unknown_parameter_orbit_fails_its_check(capsys, tmp_path, path):
    # parse reads no parameter orbit; parameter_orbits reads them in the dual
    doc = json.loads(data.builtin_bundle_text("f4"))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "Q9"
    bundle = tmp_path / "f4.json"
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "--bundle", str(bundle), "verify")
    assert code == 2
    assert "FAIL parameter_orbits: unknown orbit 'Q9' in group F4\n" in out


@pytest.mark.parametrize(
    "path,value",
    [(("d_s",), {}), (("d_s", "0", "1"), None), (("d_s", "A1", "1"), [])],
    ids=["ds-empty", "ds-null", "ds-list"],
)
@ALL_COMMANDS
def test_broken_dual_bundle_exits_2(capsys, tmp_path, command, path, value):
    doc = json.loads(data.builtin_bundle_text("f4"))
    doc["dual_group"] = "F4-partner"
    main = tmp_path / "f4.json"
    main.write_text(json.dumps(doc), encoding="utf-8")
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    partner = tmp_path / "partner.json"
    partner.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "--bundle", str(main), "--dual-bundle", str(partner), *command
    )
    assert code == 2
    assert "Traceback" not in err


@settings(max_examples=200)
@given(
    path=st.sampled_from(FIELD_PATHS),
    value=st.sampled_from(REPLACEMENTS),
    fmt=st.sampled_from(["text", "json"]),
    command=st.sampled_from(COMMANDS),
)
def test_single_field_replacement_never_prints_a_traceback(path, value, fmt, command):
    doc = json.loads(data.builtin_bundle_text("f4"))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "f4.json"
        bundle.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(["--bundle", str(bundle), "--format", fmt, *command])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


SURFACE = [
    ("dual", "print the duality image of an orbit", "orbit"),
    ("achar-dual", "print the refined dual of (orbit, class)", "orbit class"),
    ("closure", "print whether A <= B in the closure order", "a b"),
    ("special-piece", "print the special piece of an orbit", "orbit"),
    ("cuwf", "print a parameter's wavefront invariants", "param_id"),
    ("packet", "print the packet at an infinitesimal character", "ic_orbit"),
    ("weak-packet", "print the weak packet and witnesses", "ic_orbit"),
    ("verify", "run the full invariant suite", ""),
    ("list", "enumerate orbits, classes, and parameters", ""),
]


def test_subcommand_surface():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = [(choice.dest, choice.help) for choice in sub._choices_actions]
    assert found == [(name, help_text) for name, help_text, _ in SURFACE]
    for name, _, positionals in SURFACE:
        usage = f"usage: orbitduality {name} [-h] {positionals}".rstrip() + "\n"
        assert sub.choices[name].format_usage() == usage


def test_outputs_match_golden(capsys, bundle_path):
    # every text answer, and every JSON answer but closure's 256 label
    # pairs, sampled at the 16 with a = 0: all 666 cost about 4 s
    golden = load_golden("f4_cli.json")
    keys = [
        key for key in golden
        if not key.startswith("json closure ") or key.startswith("json closure 0 ")
    ]
    assert len(keys) == 426  # 333 text, 93 JSON
    assert {tuple(key.split()[:2]) for key in keys} == {
        (fmt, sub) for fmt in ("text", "json") for sub, _, _ in SURFACE
    }
    for key in keys:
        fmt, sub, *args = key.split()
        code, out, _ = run_cli(
            capsys, "--bundle", bundle_path, "--format", fmt, sub, *args
        )
        assert (code, out) == (golden[key]["exit"], golden[key]["stdout"]), key


CORRUPT = load_golden("f4_corrupt.json")
# the benchmark's seeded F4 corruptions, which f4_corrupt.json records
_spec = importlib.util.spec_from_file_location(
    "corrupt", ROOT / "perfbench" / "corrupt.py"
)
corrupt = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(corrupt)


@pytest.mark.parametrize("kind", sorted(CORRUPT))
def test_verify_on_corrupt_bundle_matches_golden(capsys, tmp_path, kind):
    # the first recorded variant of each kind, in both formats; all 386
    # runs would add about 1.5 s to the suite
    variant, outputs = next(iter(CORRUPT[kind]["variants"].items()))
    doc = corrupt.corrupt(json.loads(data.builtin_bundle_text("f4")), kind, variant)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert sorted(outputs) == ["json", "text"]
    for fmt, want in outputs.items():
        code, out, _ = run_cli(capsys, "--bundle", str(path), "--format", fmt, "verify")
        assert (code, out) == (want["exit"], want["stdout"]), (variant, fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_other_package_error_in_a_query_exits_2(capsys, bundle_path, monkeypatch, fmt):
    def broken(pair, ps):
        raise InconsistentDataError("weak packet tables disagree")

    monkeypatch.setattr(packets, "weak_packet", broken)
    code, out, err = run_cli(
        capsys, "--bundle", bundle_path, "--format", fmt, "weak-packet", "F4(a3)"
    )
    assert (code, out, err) == (2, "", "error: weak packet tables disagree\n")


_PARSER = cli.build_parser()
_LABELS = ["f4.json", "", "0", "A1", "~A1", "F4(a₃)", "1", "text", "dual"]
_ODD_PARTS = [
    "--bund", "--dual", "--form", "--bundle=f4.json", "--dual-bundle=f4.json",
    "--format=json", "-h", "--", "-1", "xml",
]


@st.composite
def _argv(draw):
    """Argv of the small parser's shape, ``--bundle`` present or not, with
    up to two parts dropped, put in anywhere or replaced by options, values
    and labels either parser may refuse."""
    options = [("--bundle", draw(st.sampled_from(_LABELS)))] * draw(st.booleans())
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["--bundle", "--dual-bundle", "--format"]))
        values = ["text", "json", "xml"] if name == "--format" else _LABELS
        options.insert(draw(st.integers(0, len(options))),
                       (name, draw(st.sampled_from(values))))
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    count = len(cli.COMMANDS[command][1])
    argv = [part for option in options for part in option] + [command] + draw(
        st.lists(st.sampled_from(_LABELS), min_size=count, max_size=count))
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.integers(0, len(argv) - 1))
        part = draw(st.sampled_from(_ODD_PARTS)
                    | st.sampled_from(_LABELS + sorted(cli.COMMANDS)))
        edit = draw(st.sampled_from(["drop", "insert", "replace"]))
        argv[where:where + (edit != "insert")] = [] if edit == "drop" else [part]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_small_parser_agrees_with_argparse(argv):
    small = cli.parse_argv(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            expected = vars(_PARSER.parse_args(argv))
    except SystemExit:
        assert small is None
    else:
        assert small is None or vars(small) == expected


@pytest.mark.parametrize("argv", [
    ["--bundle", "f4.json", "dual", "0"],
    ["--format", "json", "--bundle", "f4.json", "achar-dual", "A1+~A1", "1"],
    ["--bundle", "a", "--dual-bundle", "b", "--bundle", "", "verify"],
    ["--bundle", "f4.json", "packet", "F4(a₃)"],
])
def test_small_parser_reads_well_formed_argv(argv):
    assert vars(cli.parse_argv(argv)) == vars(_PARSER.parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["--bundle", "f4.json", "-h", "dual", "0"],
    ["--bundle=f4.json", "dual", "0"],
    ["--bund", "f4.json", "dual", "0"],
    ["--bundle", "f4.json", "dual", "--", "0"],
    ["--bundle", "f4.json", "dual", "-1"],
    ["--bundle", "f4.json", "--format", "xml", "--format", "text", "list"],
    ["--bundle", "f4.json", "closure", "0"],
    ["--bundle", "f4.json", "dual", "0", "1"],
    ["--bundle", "-h", "dual", "0"],
    ["--bundle", "--format", "json", "list"],
    ["--format", "json", "dual", "0"],
])
def test_small_parser_leaves_other_argv_to_argparse(argv):
    assert cli.parse_argv(argv) is None


def test_unknown_flag_rejected(bundle_path):
    with pytest.raises(SystemExit) as exc:
        cli.run(["--bundle", bundle_path, "--bogus", "dual", "0"])
    assert exc.value.code == 2
