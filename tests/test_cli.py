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
from test_data import FIELD_PATHS, REPLACEMENTS

from orbitduality import cli, data

BUNDLE = None
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CLI = ROOT / "perfbench" / "golden" / "f4_cli.json"


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
    assert not {
        "orbitduality.data", "orbitduality.duality", "orbitduality.packets",
        "orbitduality.cli",
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
    # 431 reads validate the bundle; the packet and every member's cuwf
    # then share one self-dual table, 21 reads, where a table per member
    # would add 105
    code, _, _ = run_cli(capsys, "--bundle", bundle_path, "packet", "F4(a3)")
    assert code == 0
    assert len(sommers_calls) == 452


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
    # its closure order fails and the packet queries never run
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
        assert f"FAIL closure_order: {detail}\n" in out and "FAIL (6/8 checks)" in out
    elif command[-1] == "verify":
        assert json.loads(out)["validation"]["checks"][0]["details"] == detail
    else:
        assert out == "" and err.count("error:") == 1


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


def test_outputs_match_golden(capsys, bundle_path):
    golden = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
    subcommands = {"packet", "weak-packet", "cuwf", "verify", "list"}
    keys = [key for key in golden if key.split()[1] in subcommands]
    assert len(keys) == 48  # 20 cuwf parameters and 4 other calls, 2 formats
    for key in keys:
        fmt, sub, *args = key.split()
        code, out, _ = run_cli(
            capsys, "--bundle", bundle_path, "--format", fmt, sub, *args
        )
        assert (code, out) == (golden[key]["exit"], golden[key]["stdout"]), key


def test_unknown_flag_rejected(bundle_path):
    with pytest.raises(SystemExit) as exc:
        cli.run(["--bundle", bundle_path, "--bogus", "dual", "0"])
    assert exc.value.code == 2
