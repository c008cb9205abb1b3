"""Command-line surface: pipelines, exit codes, deterministic output."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hombrax.cli import main


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_phi_emits_operator_json(capsys):
    code, out, _ = run(capsys, ["construct", "phi"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2 and doc["arity"] == 2
    assert doc["columns"]["0"] == [["0", "1*l"]]


def test_construct_bql_dim3(capsys):
    code, out, _ = run(capsys, ["construct", "bql", "--dim", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert len(doc["columns"]) == 9


def test_construct_homlie_identity_twist(capsys):
    code, out, _ = run(capsys, ["construct", "homlie", "--algebra", "sl2",
                                "--kind", "1", "--params", "0,1,0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["X", "Y", "Z"]
    assert doc["alpha"][0] == ["1", "0", "0"]
    assert doc["c"]["0,1"] == {"1": "2"}


def test_verify_pipelines(capsys, monkeypatch):
    _, phi_json, _ = run(capsys, ["construct", "phi"])
    code, out, _ = run(capsys, ["verify", "ybe"], stdin=phi_json,
                       monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "PASS ybe"
    code, out, _ = run(capsys, ["verify", "hybe", "--alpha", "a,0;0,d"],
                       stdin=phi_json, monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["PASS compat", "PASS hybe (induced twist)"]
    code, out, _ = run(capsys, ["verify", "hybe", "--alpha", "1,1;0,1"],
                       stdin=phi_json, monkeypatch=monkeypatch)
    assert code == 1
    assert out.splitlines()[0].startswith("FAIL compat column")
    # Identity alpha is compatible with anything, and the HYBE at alpha = Id
    # is the YBE: a perturbed phi fails both, so the direct FAIL line shows
    # the YBE residual.
    doc = json.loads(phi_json)
    doc["columns"]["0"].append(["3", "1"])
    residual = ("column 0 -> 3: 1*l^2 + -1*q^2*l^2, 5: 1*q*l^2 + -1*q^3*l^2, "
                "6: -1*l^2 + 1*q^2*l^2")
    code, out, _ = run(capsys, ["verify", "hybe", "--alpha", "1,0;0,1"],
                       stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 1
    assert out.splitlines() == ["PASS compat", f"FAIL hybe {residual}"]
    code, out, _ = run(capsys, ["verify", "ybe"], stdin=json.dumps(doc),
                       monkeypatch=monkeypatch)
    assert (code, out.strip()) == (1, f"FAIL ybe {residual}")


def test_verify_braid_on_extension_braiding(capsys, monkeypatch):
    from hombrax.homlie import (braiding_on_extension, extended_alpha, sl2,
                                sl2_morphism, yau_twist)
    from hombrax.tensor import op_to_json_dict
    twisted = yau_twist(sl2(), sl2_morphism(1, 0, 2, 0))
    doc = {"operator": op_to_json_dict(braiding_on_extension(twisted)),
           "alpha": [[str(e) for e in row]
                     for row in extended_alpha(twisted).dense()]}
    code, out, _ = run(capsys, ["verify", "braid", "--n", "4"],
                       stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 0
    assert out.startswith("PASS braid (n=4")


def test_verify_hom_jacobi_roundtrip(capsys, monkeypatch):
    _, alg_json, _ = run(capsys, ["construct", "homlie", "--algebra",
                                  "heisenberg", "--params", "1,2,3,4,5,6"])
    code, out, _ = run(capsys, ["verify", "hom-jacobi"], stdin=alg_json,
                       monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "PASS hom-jacobi"


def test_yd_verify_and_braiding(capsys, monkeypatch):
    code, out, _ = run(capsys, ["yd", "verify", "--gallery", "z2"])
    assert code == 0 and out.strip() == "PASS yd"
    code, out, _ = run(capsys, ["yd", "braiding", "--gallery", "z2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"]["3"] == [["3", "-1"]]
    code, out, _ = run(capsys, ["verify", "ybe"], stdin=out,
                       monkeypatch=monkeypatch)
    assert code == 0


def test_yd_verify_json_input(capsys, monkeypatch):
    from hombrax.yd import module_to_json_dict, z2_sign_module
    text = json.dumps(module_to_json_dict(z2_sign_module()))
    code, out, _ = run(capsys, ["yd", "verify"], stdin=text,
                       monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "PASS yd"


def test_construct_tensor_power_verify_roundtrip(capsys, monkeypatch):
    _, pair_json, _ = run(capsys, ["construct", "tensor-power", "--n", "2"])
    code, out, _ = run(capsys, ["verify", "hybe"], stdin=pair_json,
                       monkeypatch=monkeypatch)
    assert code == 0
    assert out.splitlines() == ["PASS compat", "PASS hybe"]


def test_braid_eval_and_power(capsys, monkeypatch):
    _, pair_json, _ = run(capsys, ["construct", "tensor-power", "--n", "1"])
    code, out, _ = run(capsys, ["braid", "eval", "--perm", "3,4,1,2"],
                       stdin=pair_json, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["arity"] == 4
    code, out, _ = run(capsys, ["braid", "power", "--n", "2"],
                       stdin=pair_json, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["operator"]["dim"] == 4


@pytest.mark.scan
def test_classify_compatible_with_field(capsys):
    code, out, _ = run(capsys, ["classify", "compatible", "--dim", "2",
                                "--field", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("6 patterns, 3 maximal shapes")
    assert "PASS field-agreement" in lines


def test_classify_compatible_refuses_degenerate_field(capsys):
    # The default q = 2 is -1 mod 3, where bql degenerates: not a FAIL.
    code, out, err = run(capsys, ["classify", "compatible", "--dim", "2",
                                  "--field", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "degenerate" in err


@pytest.mark.scan
def test_classify_sl2_small_field(capsys):
    code, out, _ = run(capsys, ["classify", "sl2", "--field", "3"])
    assert code == 0
    assert "PASS coverage" in out
    assert "unclassified: 0" in out


@pytest.mark.scan
def test_classify_rejects_even_field(capsys):
    code, _, err = run(capsys, ["classify", "sl2", "--field", "2"])
    assert code == 2
    assert "odd prime" in err


def test_parse_error_exits_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["verify", "ybe"], stdin="not json",
                       monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("error:")


def test_missing_alpha_exits_2(capsys, monkeypatch):
    _, phi_json, _ = run(capsys, ["construct", "phi"])
    code, _, err = run(capsys, ["verify", "hybe"], stdin=phi_json,
                       monkeypatch=monkeypatch)
    assert code == 2
    assert "twisting map" in err


def test_out_file_option(tmp_path, capsys):
    target = tmp_path / "phi.json"
    code, out, _ = run(capsys, ["construct", "phi", "--out", str(target)])
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["dim"] == 2


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["construct", "bql", "--dim", "3"])
    _, second, _ = run(capsys, ["construct", "bql", "--dim", "3"])
    assert first == second


def test_in_and_out_files(tmp_path, capsys):
    src = tmp_path / "phi.json"
    dst = tmp_path / "report.txt"
    run(capsys, ["construct", "phi", "--out", str(src)])
    code, out, _ = run(capsys, ["verify", "ybe", "--in", str(src),
                                "--out", str(dst)])
    assert code == 0 and out == ""
    assert dst.read_text().strip() == "PASS ybe"


def test_unknown_subtarget_exits_2(capsys):
    import pytest
    with pytest.raises(SystemExit) as exc:
        main(["construct", "nonsense"])
    assert exc.value.code == 2


def test_braid_eval_bad_perm_exits_2(capsys, monkeypatch):
    _, pair_json, _ = run(capsys, ["construct", "tensor-power", "--n", "1"])
    code, _, err = run(capsys, ["braid", "eval", "--perm", "1,1"],
                       stdin=pair_json, monkeypatch=monkeypatch)
    assert code == 2 and "error:" in err


# -- golden output -----------------------------------------------------------
#
# Exit code and sha256 of stdout for a fixed list of fast commands.  Any
# refactor of the CLI or of the constructions behind it must keep these
# byte-identical.

def _z2_module_doc(action_g1):
    return {
        "bialgebra": {"dim": 2, "labels": ["g0", "g1"],
                      "mult": {"0,0": {"0": "1"}, "0,1": {"1": "1"},
                               "1,0": {"1": "1"}, "1,1": {"0": "1"}},
                      "unit": ["1", "0"],
                      "comult": {"0": {"0,0": "1"}, "1": {"1,1": "1"}},
                      "counit": ["1", "1"]},
        "dim": 2, "labels": ["v0", "v1"],
        "action": {"0,0": {"0": "1"}, "0,1": {"1": "1"},
                   "1,0": action_g1[0], "1,1": action_g1[1]},
        "coaction": {"0": {"0,0": "1"}, "1": {"1,1": "1"}},
    }


_GOLDEN_INPUTS = {
    "phi": ["construct", "phi"],
    "pair1": ["construct", "tensor-power", "--n", "1"],
    "heis": ["construct", "homlie", "--algebra", "heisenberg",
             "--params", "1,2,3,4,5,6"],
    # Not a Yang-Baxter solution: the identity plus one off-diagonal entry.
    "not-ybe": json.dumps({"dim": 2, "arity": 2, "columns": {
        "0": [["0", "1"]], "1": [["1", "1"], ["2", "1"]],
        "2": [["2", "1"]], "3": [["3", "1"]]}}),
    # The sl(2) bracket with a diagonal alpha that is not a morphism.
    "bad-jacobi": json.dumps({
        "dim": 3, "labels": ["X", "Y", "Z"],
        "c": {"0,1": {"1": "2"}, "1,0": {"1": "-2"}, "0,2": {"2": "-2"},
              "2,0": {"2": "2"}, "1,2": {"0": "1"}, "2,1": {"0": "-1"}},
        "alpha": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "3"]]}),
    "yd-z2": json.dumps(_z2_module_doc(({"0": "1"}, {"1": "-1"}))),
    # g1 swaps the two graded lines: a module and a comodule, not YD.
    "yd-swap": json.dumps(_z2_module_doc(({"1": "1"}, {"0": "1"}))),
    # g1 acts by diag(2, -1): not even a module.
    "yd-not-module": json.dumps(_z2_module_doc(({"0": "2"}, {"1": "-1"}))),
}

_GOLDEN = [
    # (argv, stdin input name, exit code, sha256 of stdout)
    (["construct", "phi"], None, 0,
     "75f02aa5bac88a483a8cf55d52f85fab90d8579208c22c561dc54fcbe480696e"),
    (["construct", "bql", "--dim", "3"], None, 0,
     "8fded68cfb90ee2aeea8277564eca6b53d813a93768a5630d184bb8912d7c72a"),
    (["construct", "homlie", "--algebra", "heisenberg", "--params", "1,2,3,4,5,6"],
     None, 0,
     "a813d896de95a35088c3c8f4a23df7003a9bb7dfe30f3f67b5925fb06a1807cc"),
    (["construct", "homlie", "--algebra", "sl2star", "--kind", "1",
      "--params", "1,2,3,4,5,6"], None, 0,
     "b9a0af7b1488dbabfdf987b3e5a8be03c3bd6c29b422187b1e87d9f563e95ce9"),
    (["construct", "homlie", "--algebra", "sl2star", "--kind", "2",
      "--params", "2,3,5"], None, 0,
     "f9e867b4dee325aef8355bfb29115de3e3b4fc3e762ee83a3066b4b63e3d3309"),
    (["construct", "homlie", "--algebra", "sl2", "--kind", "0"], None, 0,
     "1f77302bae489f20d483397c1ef18fec6c40c78efe6563c71dffa02e491767a7"),
    (["construct", "homlie", "--algebra", "sl2", "--kind", "1", "--params", "0,2,3"],
     None, 0,
     "be9568782f72375025bdb1196a07ec77dc1a9c8d312ab4f86b0c1404fcbf1cb6"),
    (["construct", "homlie", "--algebra", "sl2", "--kind", "3", "--params", "1,2,3"],
     None, 0,
     "57efcb188c8f462a9779494240d47583adc1e60b67d1faeb3f78d47a7fc8ff12"),
    (["construct", "yd-braiding", "--gallery", "z2"], None, 0,
     "e6b0b0f908e6e3ba95e4300ccdb280bf84a1069ce5da12aa980d8367b383ede1"),
    (["construct", "yd-braiding", "--gallery", "trivial"], None, 0,
     "039791c2ff6ac098c9d77de9b7ee35381d4438c12bf6b25551d96f0eb92c1b74"),
    (["construct", "tensor-power", "--n", "1"], None, 0,
     "fa51dcd51b67d3a1d5619fdec70702bc43a41a1c4bb5339f0c99fe07490ed378"),
    (["construct", "tensor-power", "--n", "2"], None, 0,
     "63811c911fd3a2d82584a55a24979382b2e76ec3e7023c2751005987006c598b"),
    (["verify", "ybe"], "phi", 0,
     "ae973bd4881814b847e121ff915223628b2c9a6a78c0e904ac2d4db6ed5dadc6"),
    (["verify", "ybe"], "not-ybe", 1,
     "8786413b6046464e5604ddb9c604b4623cbdce28ef44e5db784fdad091e18d57"),
    (["verify", "hybe", "--alpha", "a,0;0,d"], "phi", 0,
     "b450e136481a20c05b5d2e288b2b304503f4a0b417e00a60a27f57f292359462"),
    (["verify", "hybe"], "pair1", 0,
     "42d3a6cab8bf176eac7c73f331a4ea039c15ffa49e607198ec2198046cf5bf8c"),
    (["verify", "hybe", "--alpha", "1,1;0,1"], "phi", 1,
     "acb93be67742c22539b374026899eb3fae0afd9a138f10c5624d99c008cc8345"),
    (["verify", "compat", "--alpha", "a,0;0,d"], "phi", 0,
     "9c103d765bdf694da398f75e05d35853910b889fa895eea814936ecf43c4c715"),
    (["verify", "compat", "--alpha", "1,1;0,1"], "phi", 1,
     "4d6220ab486d54b0e659d453b9c6a47fcf4624442ec6c552c5e2a214086887c5"),
    (["verify", "hom-jacobi"], "heis", 0,
     "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (["verify", "hom-jacobi"], "bad-jacobi", 1,
     "7a2516a9aab8d5ff863276ec6f73873ef79c7900eecad65a7acdfef4165471a4"),
    (["verify", "yd"], "yd-z2", 0,
     "546e94ebbe27e6a1189995fd2a03a8cf6cd5092c04e8447c5082f2dbdfee9b21"),
    (["verify", "yd"], "yd-swap", 1,
     "10b0f4a091a31ce4bad68f8da46a9d1a5030444b6143072da920105b3dc1e2a0"),
    (["verify", "yd"], "yd-not-module", 1,
     "9422d425c59b95d7b23733cfb22c1b568f4c3cacc73acad0f0700bcba268b327"),
    (["verify", "braid", "--n", "3"], "pair1", 0,
     "1156e2cdb2a1e3614dacd0ad961ce2d538cd7437aabdf8a05eeac157f7f11e99"),
    (["verify", "braid", "--n", "3", "--alpha=2,0;0,3"], "phi", 1,
     "b1cb8b8a3d8c7c59774e09eb7209748fbaa2fb523ecd74a329759ce95ba2260c"),
    (["yd", "verify", "--gallery", "z2"], None, 0,
     "546e94ebbe27e6a1189995fd2a03a8cf6cd5092c04e8447c5082f2dbdfee9b21"),
    (["yd", "verify", "--gallery", "trivial"], None, 0,
     "546e94ebbe27e6a1189995fd2a03a8cf6cd5092c04e8447c5082f2dbdfee9b21"),
    (["yd", "verify"], "yd-swap", 1,
     "10b0f4a091a31ce4bad68f8da46a9d1a5030444b6143072da920105b3dc1e2a0"),
    (["yd", "verify"], "yd-not-module", 1,
     "9422d425c59b95d7b23733cfb22c1b568f4c3cacc73acad0f0700bcba268b327"),
    (["braid", "eval", "--perm", "3,4,1,2"], "pair1", 0,
     "f982059c14e90f67182a280695a08d9ddcbfdecc779085bf90d3955e3a278708"),
    (["braid", "power", "--n", "2"], "pair1", 0,
     "63811c911fd3a2d82584a55a24979382b2e76ec3e7023c2751005987006c598b"),
    (["classify", "compatible", "--dim", "2", "--field", "5"], None, 0,
     "7a1782b8b92375b8eccf83be16966917537a3af45f4c90cc260c77394be83db8"),
    (["classify", "sl2", "--field", "3"], None, 0,
     "97a618ce2f550bd283b0b501d7eab57833f56559e8325c9bdbff3999db4c4c35"),
    (["classify", "heisenberg", "--field", "3"], None, 0,
     "f978c7d2aeff67da414a22f8aa3c0a976e2cdc3c986f41f49c7d88c9dbeaa1ee"),
    (["classify", "sl2star", "--field", "3"], None, 0,
     "497fa8455c4845cc28433760ca72648333b20bb19187d9f8145f0099b1de3561"),
]


@pytest.mark.parametrize(
    "argv, source, code, digest", _GOLDEN,
    ids=[" ".join(argv) + (f" <{src}" if src else "") for argv, src, _, _ in _GOLDEN])
def test_golden_output(capsys, monkeypatch, argv, source, code, digest):
    stdin = None
    if source is not None:
        stdin = _GOLDEN_INPUTS[source]
        if isinstance(stdin, list):
            stdin = run(capsys, stdin)[1]
    got_code, out, _ = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # main builds its parser once per process: a refusal by argparse leaves
    # nothing behind, and a repeated command sees no defaults of the last.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "ybe", "--n", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    picked = [g for g in _GOLDEN if g[0][0] != "classify"][::3]
    for argv, source, code, digest in picked + picked[:2]:
        stdin = _GOLDEN_INPUTS[source] if source else None
        if isinstance(stdin, list):
            stdin = run(capsys, stdin)[1]
        got_code, out, _ = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
        assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv
    from hombrax import cli
    assert cli._build_parser() is cli._build_parser()


def _fresh_env():
    """The environment of a fresh interpreter that imports this hombrax."""
    import hombrax
    src = str(Path(hombrax.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


_FRESH_SCANS = [["classify", "sl2", "--field", "3"],
                ["classify", "heisenberg", "--field", "3"],
                ["classify", "compatible", "--dim", "2", "--field", "5"]]


@pytest.mark.scan
@pytest.mark.parametrize("argv", _FRESH_SCANS, ids=" ".join)
def test_scan_commands_in_a_fresh_process(argv):
    # The `python -m hombrax.cli` entry point in a fresh interpreter, where
    # nothing but the scan path itself loads numpy or the thread pool.
    (code, digest), = [(c, d) for a, src, c, d in _GOLDEN if a == argv and src is None]
    proc = subprocess.run([sys.executable, "-m", "hombrax.cli", *argv], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest()) == (code, digest)


_IMPORT_PROBE = """
import importlib, pkgutil, sys
import hombrax
for mod in pkgutil.iter_modules(hombrax.__path__):
    importlib.import_module("hombrax." + mod.name)
loaded = sorted({"numpy", "concurrent.futures"} & set(sys.modules))
assert not loaded, f"importing hombrax loaded {loaded}"
from hombrax import homlie
homlie.classify_sl2_finite_field(3)
assert "numpy" in sys.modules
"""


@pytest.mark.scan
def test_numpy_loads_only_when_a_scan_runs():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# -- hostile input ------------------------------------------------------------

_NON_STRING_SCALAR = {
    "verify ybe": json.dumps({"dim": 2, "arity": 2, "columns": {"0": [["0", 5]]}}),
    "verify hom-jacobi": json.dumps({"dim": 1, "c": {}, "alpha": [[5]]}),
    "verify yd": json.dumps(_z2_module_doc(({"0": "1"}, {"1": -1}))),
    "braid eval": json.dumps({"operator": {"dim": 2, "arity": 2,
                                           "columns": {"0": [["0", "1"]]}},
                              "alpha": [["1", 0], ["0", "1"]]}),
}


@pytest.mark.parametrize("command", ["verify ybe", "verify hom-jacobi",
                                     "verify yd", "braid eval"])
@pytest.mark.parametrize("kind", ["top-level list", "non-string scalar"])
def test_malformed_json_exits_2(capsys, monkeypatch, command, kind):
    argv = command.split() + (["--perm", "2,1"] if command == "braid eval" else [])
    text = "[1,2]" if kind == "top-level list" else _NON_STRING_SCALAR[command]
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


_DEEP = {"arrays": "[" * 200_000, "objects": '{"a":' * 100_000}


@pytest.mark.parametrize("argv", [["verify", "ybe"], ["verify", "hom-jacobi"],
                                  ["yd", "verify"], ["braid", "eval", "--perm", "2,1"]],
                         ids=" ".join)
@pytest.mark.parametrize("kind", sorted(_DEEP))
def test_deeply_nested_json_exits_2(tmp_path, capsys, argv, kind):
    # Nested past the parser's recursion limit: a refusal, not a traceback.
    path = tmp_path / "deep.json"
    path.write_text(_DEEP[kind])
    start = time.perf_counter()
    code, out, err = run(capsys, argv + ["--in", str(path)])
    assert (code, out) == (2, "") and time.perf_counter() - start < 1
    assert err.startswith("error:") and "nested too deeply" in err


@pytest.mark.parametrize("entry, code", [("1*q^99999999999999999999", 2),
                                         ("1*q^-32768", 2), ("1*q^10923", 2),
                                         ("1*q^10922", 0)])
def test_exponents_outside_the_packing_exit_2(capsys, monkeypatch, entry, code):
    # An entry's exponent must stay below 2^15, and so must the sum over the
    # three factors of each YBE product: exact, or refused, never wrapped.
    doc = {"dim": 2, "arity": 2, "columns": {"0": [["0", entry]]}}
    got, out, err = run(capsys, ["verify", "ybe"], stdin=json.dumps(doc),
                        monkeypatch=monkeypatch)
    if code == 2:
        assert (got, out) == (2, "") and err.startswith("error:") and "outside the range" in err
    else:
        assert (got, out, err) == (0, "PASS ybe\n", "")


@pytest.mark.parametrize("kind", sorted(_DEEP))
def test_op_loads_refuses_deeply_nested_json(kind):
    from hombrax.tensor import op_loads
    with pytest.raises(ValueError, match="nested too deeply"):
        op_loads(_DEEP[kind])


@pytest.mark.parametrize("n", ["0", "1", "2"])
def test_verify_braid_refuses_fewer_than_3_strands(capsys, monkeypatch, n):
    _, pair_json, _ = run(capsys, ["construct", "tensor-power", "--n", "1"])
    code, out, err = run(capsys, ["verify", "braid", "--n", n],
                         stdin=pair_json, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "3 strands" in err


def _with(doc, path, value):
    """A deep copy of doc with the entry at path replaced by value."""
    doc = json.loads(json.dumps(doc))
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    return doc


_PAIR = {"operator": {"dim": 2, "arity": 2,
                      "columns": {"0": [["0", "2"]], "1": [["2", "3"]],
                                  "2": [["1", "1"], ["2", "-1"]], "3": [["3", "2"]]}},
         "alpha": [["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize("command", ["verify ybe", "verify hybe"])
@pytest.mark.parametrize("doc", [
    {"operator": [1]},
    {"operator": {"dim": 2, "arity": 2, "columns": []}, "alpha": _PAIR["alpha"]},
    {"operator": {"dim": 2, "arity": 2, "columns": {"0": 5}}, "alpha": _PAIR["alpha"]},
    {"operator": _PAIR["operator"], "alpha": 5},
    {"operator": _PAIR["operator"], "alpha": [5, 6]},
    # One index or size in two spellings: each used to be read, the last one
    # silently winning.
    _with(_PAIR, ["operator", "columns", "01"], [["1", "5"]]),
    _with(_PAIR, ["operator", "columns", "0_3"], [["3", "5"]]),
    _with(_PAIR, ["operator", "columns", "0"], [["0", "2"], ["00", "1"]]),
    _with(_PAIR, ["operator", "columns", "0"], [["0", "2"], ["0", "1"]]),
    _with(_PAIR, ["operator", "dim"], "0_2"),
    _with(_PAIR, ["operator", "arity"], "+2"),
], ids=["operator list", "columns list", "column int", "alpha int", "alpha row int",
        "column 01", "column 0_3", "row 00", "row repeated", "dim 0_2", "arity +2"])
def test_nested_wrong_type_json_exits_2(capsys, monkeypatch, command, doc):
    code, out, err = run(capsys, command.split(), stdin=json.dumps(doc),
                         monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def _bounded_init(real_init):
    """TensorOp.__init__ that fails at once, instead of allocating, on more
    than 2^14 columns: a missing size check then fails a test, not the host."""
    def init(self, space, arity, columns):
        dim = space.dim
        if dim > 1 and (arity * (dim.bit_length() - 1) >= 15 or dim ** arity > 1 << 14):
            raise AssertionError("an oversized operator reached TensorOp")
        real_init(self, space, arity, columns)
    return init


def _json_values():
    # Integers stay small: oversized shapes are tested one by one below, with
    # every allocation blocked.
    scalars = (st.none() | st.booleans() | st.integers(-3, 40)
               | st.floats() | st.text(max_size=6) | st.sampled_from(["0", "1", "q", "1/0"]))
    keys = st.sampled_from(["dim", "arity", "columns", "0", "1"]) | st.text(max_size=3)
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(keys, inner, max_size=4), max_leaves=12)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["operator", "columns", "alpha"]), _json_values(),
       st.sampled_from(["verify ybe", "verify hybe"]))
def test_random_nested_json_keeps_exit_code_contract(position, value, command):
    import contextlib
    import io
    from unittest import mock

    from hombrax.tensor import TensorOp
    doc = json.loads(json.dumps(_PAIR))
    if position == "columns":
        doc["operator"]["columns"] = value
    else:
        doc[position] = value
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            mock.patch.object(TensorOp, "__init__", _bounded_init(TensorOp.__init__)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error:")


def _refuse(*args, **kwargs):
    raise AssertionError("oversized request reached a builder")


@pytest.mark.parametrize("argv, stdin", [
    (["verify", "ybe"], {"dim": 10, "arity": 9, "columns": {}}),
    (["verify", "ybe"], {"dim": 2, "arity": 10 ** 30, "columns": {}}),
    (["verify", "hybe", "--alpha", "1,0;0,1"], {"operator": {"dim": 2, "arity": 2 ** 40,
                                                             "columns": {}}}),
    (["braid", "eval", "--perm", "2,1"], {"operator": {"dim": 10 ** 30, "arity": 1,
                                                       "columns": {}}}),
    # One column, but the arity still sizes every word built from it.
    (["verify", "ybe"], {"dim": 1, "arity": 10 ** 18, "columns": {}}),
    (["verify", "ybe"], {"dim": 1, "arity": 10 ** 8, "columns": {}}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_oversized_json_exits_2_before_building(capsys, monkeypatch, argv, stdin):
    from hombrax.tensor import BasedSpace, TensorOp
    monkeypatch.setattr(TensorOp, "__init__", _refuse)
    monkeypatch.setattr(BasedSpace, "of_dim", _refuse)
    code, out, err = run(capsys, argv, stdin=json.dumps(stdin), monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the limit" in err


_ONE_DIM = {"dim": 1, "arity": 2, "columns": {"0": [["0", "2"]]}}


@pytest.fixture
def no_large_work(monkeypatch):
    """Make every builder an oversized request could reach fail at once, so a
    missing size check fails the test instead of allocating."""
    from hombrax import braid, hybe, quantum
    from hombrax.tensor import TensorOp

    for module, name in ((braid, "tensor_power_solution"), (braid, "theta_operator"),
                         (hybe, "braid_relation_residuals"), (quantum, "bql")):
        monkeypatch.setattr(module, name, _refuse)
    monkeypatch.setattr(TensorOp, "__init__", _bounded_init(TensorOp.__init__))


@pytest.mark.parametrize("argv, stdin", [
    (["verify", "ybe"], {"dim": 26, "arity": 2, "columns": {}}),
    (["construct", "bql", "--dim", "129"], None),
    (["construct", "tensor-power", "--n", "8"], None),
    (["braid", "power", "--n", "8"], _PAIR),
    (["braid", "eval", "--perm", ",".join(str(k) for k in range(15, 0, -1))], _PAIR),
    (["verify", "braid", "--n", "15"], _PAIR),
    (["verify", "braid", "--n", str(10 ** 20)], _PAIR),
    (["construct", "tensor-power", "--n", "7"], None),
    (["braid", "power", "--n", "7"], _PAIR),
    # A 1-dim pair: dim counts as 2, so 5,000 strands are refused at once.
    (["verify", "braid", "--n", "5000", "--alpha", "1"], _ONE_DIM),
    (["braid", "power", "--n", "3000", "--alpha", "1"], _ONE_DIM),
    pytest.param(["braid", "eval", "--perm", ",".join(str(k) for k in range(3000, 0, -1)),
                  "--alpha", "1"], _ONE_DIM, id="braid eval --perm 3000,...,1 --alpha 1"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_oversized_requests_exit_2_before_building(capsys, monkeypatch, no_large_work,
                                                    argv, stdin):
    text = None if stdin is None else json.dumps(stdin)
    code, out, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the limit" in err


@pytest.mark.parametrize("argv, stdin", [
    (["construct", "tensor-power", "--n", "6"], None),
    (["braid", "power", "--n", "6"], _PAIR),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_tensor_power_limit_admits_n6(capsys, monkeypatch, argv, stdin):
    """n = 6 over a 2-dim pair (2^12 columns) passes the size check."""
    from hombrax import braid

    def reached(B, alpha, n):
        raise ValueError(f"reached the builder at n = {n}")

    monkeypatch.setattr(braid, "tensor_power_solution", reached)
    text = None if stdin is None else json.dumps(stdin)
    code, _, err = run(capsys, argv, stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and "reached the builder at n = 6" in err


# -- oversized scans and structure-constant JSON ------------------------------

@pytest.mark.parametrize("argv", [
    ["classify", "compatible", "--dim", "5", "--field", "7"],
    ["classify", "compatible", "--dim", "40", "--field", "3"],
    ["classify", "heisenberg", "--field", "11"],
    pytest.param(["classify", "sl2", "--field", "131"], marks=pytest.mark.scan),
    ["classify", "sl2star", "--field", str(10 ** 40 + 1)],
], ids=" ".join)
def test_oversized_scans_exit_2_before_scanning(capsys, monkeypatch, argv):
    from hombrax import quantum, runtime
    from hombrax.tensor import TensorOp
    monkeypatch.setattr(runtime, "_decode", _refuse)
    monkeypatch.setattr(TensorOp, "mod_p", _refuse)
    monkeypatch.setattr(quantum, "enumerate_patterns", _refuse)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the limit" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["classify", "sl2", "--field", "2"], marks=pytest.mark.scan),
    ["classify", "heisenberg", "--field", "4"],
    ["classify", "compatible", "--dim", "2", "--field", "2"],
], ids=" ".join)
def test_classify_non_prime_field_exits_2_before_scanning(capsys, monkeypatch, argv):
    from hombrax import runtime
    from hombrax.tensor import TensorOp
    monkeypatch.setattr(runtime, "_decode", _refuse)
    monkeypatch.setattr(TensorOp, "mod_p", _refuse)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "odd prime" in err


_IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_BAD_JACOBI = json.loads(_GOLDEN_INPUTS["bad-jacobi"])


def _yd_doc_with(path, value):
    return _with(_z2_module_doc(({"0": "1"}, {"1": "-1"})), path, value)


@pytest.mark.parametrize("command, doc", [
    pytest.param("verify hom-jacobi", {"dim": 1, "c": [], "alpha": [["1"]]},
                 id="c list"),
    pytest.param("verify hom-jacobi", {"dim": 1, "c": {}, "alpha": 5}, id="alpha int"),
    pytest.param("verify hom-jacobi", {"dim": 1, "c": {"0,0": 5}, "alpha": [["1"]]},
                 id="c entry int"),
    pytest.param("verify hom-jacobi", {"dim": 3, "c": {"0,-1": {"-2": "1"}},
                                       "alpha": _IDENTITY3}, id="c negative index"),
    pytest.param("verify hom-jacobi", {"dim": 3, "c": {"0,1,2": {"0": "1"}},
                                       "alpha": _IDENTITY3}, id="c three-index key"),
    pytest.param("verify hom-jacobi", {"dim": 3, "c": {"0,3": {"0": "1"}},
                                       "alpha": _IDENTITY3}, id="c index past dim"),
    pytest.param("verify hom-jacobi", {"dim": -2, "c": {}, "alpha": []},
                 id="negative dim"),
    pytest.param("verify hom-jacobi", {"dim": 2, "labels": ["X"], "c": {},
                                       "alpha": [["1", "0"], ["0", "1"]]},
                 id="too few labels"),
    pytest.param("verify hom-jacobi", {"dim": 1, "labels": 5, "c": {}, "alpha": [["1"]]},
                 id="labels int"),
    *[pytest.param("verify hom-jacobi", {"dim": 1, "labels": value, "c": {}, "alpha": [["1"]]},
                   id=f"labels {json.dumps(value)}") for value in (False, 0, "", [], None)],
    pytest.param("verify yd", _yd_doc_with(["coaction"], {"0": {"-1,0": "1"}}),
                 id="coaction negative index"),
    pytest.param("verify yd", _yd_doc_with(["action"], {"0,2": {"0": "1"}}),
                 id="action index past dim"),
    pytest.param("verify yd", _yd_doc_with(["coaction"], []), id="coaction list"),
    pytest.param("verify yd", _yd_doc_with(["bialgebra", "unit"], 5), id="unit int"),
    pytest.param("verify yd", _yd_doc_with(["bialgebra", "counit"], ["1"]),
                 id="counit too short"),
    pytest.param("verify yd", _yd_doc_with(["bialgebra", "mult"], {"0,0": {"-1": "1"}}),
                 id="mult negative index"),
    pytest.param("verify yd", _yd_doc_with(["bialgebra", "comult"], {"0": {"0": "1"}}),
                 id="comult one-index key"),
    pytest.param("verify yd", _yd_doc_with(["bialgebra"], [1, 2]), id="bialgebra list"),
    pytest.param("yd verify", _yd_doc_with(["bialgebra", "dim"], "two"),
                 id="bialgebra dim text"),
    # One index or size in two spellings: each used to be read, the last one
    # silently winning.
    pytest.param("verify hom-jacobi", _with(_BAD_JACOBI, ["c", "00,1"], {"1": "2"}),
                 id="c key 00,1"),
    pytest.param("verify hom-jacobi", _with(_BAD_JACOBI, ["c", "0,1", "01"], "2"),
                 id="c index 01"),
    pytest.param("verify hom-jacobi", _with(_BAD_JACOBI, ["dim"], "0_3"), id="dim 0_3"),
    pytest.param("verify yd", _yd_doc_with(["action", "0, 1"], {"1": "1"}),
                 id="action key 0, 1"),
    pytest.param("verify yd", _yd_doc_with(["coaction", "1"], {"1,1": "1", "+1,1": "1"}),
                 id="coaction index +1"),
    pytest.param("verify yd", _yd_doc_with(["dim"], "2 "), id="dim 2 space"),
    pytest.param("verify yd", _yd_doc_with(["bialgebra", "dim"], "0_2"),
                 id="bialgebra dim 0_2"),
])
def test_structure_constant_json_exits_2(capsys, monkeypatch, command, doc):
    code, out, err = run(capsys, command.split(), stdin=json.dumps(doc),
                         monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("command, text", [
    ("verify ybe", '{"dim": 2, ' + json.dumps(_PAIR["operator"])[1:]),
    ("verify ybe", '{"dim": 2, "arity": 2, "columns": {"0": [["0", "1"]], "0": [["1", "1"]]}}'),
    ("verify hybe", '{"alpha": [["1", "0"], ["0", "1"]], ' + json.dumps(_PAIR)[1:]),
    ("verify hom-jacobi", '{"dim": 3, ' + _GOLDEN_INPUTS["bad-jacobi"][1:]),
    ("verify yd", '{"dim": 2, ' + _GOLDEN_INPUTS["yd-z2"][1:]),
], ids=["ybe dim", "ybe column", "hybe alpha", "hom-jacobi dim", "yd dim"])
def test_repeated_json_key_exits_2(capsys, monkeypatch, command, text):
    """A key given twice in one JSON object is refused, not read last-wins."""
    code, out, err = run(capsys, command.split(), stdin=text, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "repeats a key" in err


@pytest.mark.parametrize("command, doc", [
    ("verify hom-jacobi", {"dim": 10 ** 7, "c": {}, "alpha": []}),
    ("verify hom-jacobi", {"dim": 26, "c": {}, "alpha": []}),
    ("verify yd", _yd_doc_with(["dim"], 10 ** 7)),
    ("verify yd", _yd_doc_with(["bialgebra", "dim"], 10 ** 7)),
], ids=["hom-jacobi 10^7", "hom-jacobi 26", "yd module 10^7", "yd bialgebra 10^7"])
def test_oversized_structure_constant_json_exits_2_before_building(
        capsys, monkeypatch, command, doc):
    from hombrax import tensor
    monkeypatch.setattr(tensor, "_zeros", _refuse)
    monkeypatch.setattr(tensor, "_json_labels", _refuse)
    code, out, err = run(capsys, command.split(), stdin=json.dumps(doc),
                         monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the limit" in err


_STRUCTURE_DOCS = {
    "verify hom-jacobi": _BAD_JACOBI,
    "verify yd": _z2_module_doc(({"0": "1"}, {"1": "-1"})),
}

_STRUCTURE_POSITIONS = [
    ("verify hom-jacobi", path) for path in
    (["dim"], ["labels"], ["c"], ["c", "0,1"], ["c", "1,2"], ["alpha"], ["alpha", 0])
] + [
    ("verify yd", path) for path in
    (["dim"], ["labels"], ["action"], ["action", "1,1"], ["coaction"], ["coaction", "1"],
     ["bialgebra"], ["bialgebra", "dim"], ["bialgebra", "labels"], ["bialgebra", "mult"],
     ["bialgebra", "mult", "1,1"], ["bialgebra", "unit"], ["bialgebra", "comult"],
     ["bialgebra", "comult", "1"], ["bialgebra", "counit"])
]


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(_STRUCTURE_POSITIONS), _json_values())
def test_random_structure_constant_json_keeps_exit_code_contract(position, value):
    import contextlib
    import io
    from unittest import mock

    command, path = position
    doc = _with(_STRUCTURE_DOCS[command], path, value)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    assert code in (0, 1, 2)
    assert (code == 2) == err.getvalue().startswith("error:")


# -- seeded perturbations of valid structure constants -------------------------
#
# Exit code and stdout sha256 of `verify hom-jacobi` and `verify yd` on 40
# seeded documents near a valid Hom-Lie algebra or Z/2 YD module: FAIL
# lines with their index tuples, (co)module axiom messages and PASS.  The
# Z/2 host stays valid.

_SL2_C = json.loads(_GOLDEN_INPUTS["bad-jacobi"])["c"]
_HEIS_C = {"1,2": {"0": "1"}, "2,1": {"0": "-1"}}
_Z2 = _z2_module_doc(({"0": "1"}, {"1": "-1"}))


def _perturbed_structure_docs():
    rng = random.Random(2009)

    def frac():
        return str(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    docs = []
    for k in range(20):
        c = json.loads(json.dumps(_SL2_C if k % 2 else _HEIS_C))
        alpha = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                i, j, m = (rng.randrange(3) for _ in range(3))
                c.setdefault(f"{i},{j}", {})[str(m)] = frac()
            else:
                alpha[rng.randrange(3)][rng.randrange(3)] = frac()
        docs.append(("verify hom-jacobi", {"dim": 3, "labels": ["X", "Y", "Z"],
                                           "c": c, "alpha": alpha}))
    for k in range(20):
        doc = json.loads(json.dumps(_Z2))
        kind = k % 5
        if kind == 0:
            h, i, m = (rng.randrange(2) for _ in range(3))
            doc["action"].setdefault(f"{h},{i}", {})[str(m)] = frac()
        elif kind == 1:
            i, h, m = (rng.randrange(2) for _ in range(3))
            doc["coaction"].setdefault(str(i), {})[f"{h},{m}"] = frac()
        elif kind == 2:
            # g1 acts by an involution [[a, b], [(1 - a^2) / b, -a]]: still a module.
            a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.choice([-2, -1, 1, 3]))
            cc = (1 - a * a) / b
            doc["action"]["1,0"] = {"0": str(a), "1": str(cc)}
            doc["action"]["1,1"] = {"0": str(b), "1": str(-a)}
        elif kind == 3:
            # A grading by the projector P = [[1, t], [0, 0]]: still a comodule.
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            doc["coaction"] = {"0": {"0,0": "1"}, "1": {"0,0": str(t), "1,0": str(-t), "1,1": "1"}}
        else:
            # A zero action or coaction keeps one axiom and breaks the (co)unit law.
            doc["action" if k % 2 else "coaction"] = {}
        docs.append(("verify yd" if k % 3 else "yd verify", doc))
    return docs


_PERTURBED = _perturbed_structure_docs()
_PERTURBED_PINS = [
    (0, "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (1, "bd71cc1afa49f824745ca6057f7d001a2bad005a4fe626969d5b9d5f9f1db5fa"),
    (1, "9c991b96ee91d01b1264a0761cacfc7d37d095bbf32350d2aa06e0272d8d3446"),
    (1, "049d5b4dcbffdc03cb3756b3b63977a7569d6ebfc93d3a589d0d8402828ab5db"),
    (0, "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (1, "81d2afdbcc913146db56ed9352cb35a39f14601897bb2df0a28dca55183a6631"),
    (0, "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (1, "dbbdb1e6779e48671bae32166c227b5a130c73c5e74f8f565c6445cac65d88dc"),
    (1, "8b4ba48157811942d5701e1f201d9ed58add4892ca5ff7d1083ef4aa4b984bbf"),
    (0, "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (0, "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (1, "8ba13bb9025e58e1500a4bbc2331957d50641c2d9464cd757a977431f85c3817"),
    (1, "5e17092575f37942a28733cae49e8a02d70a6e0d835f2f6bedc061cd85973ada"),
    (0, "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (1, "05ede6028cbda36e4f74992218d65d204e4a570f9a66634c47259adf71777d02"),
    (1, "490023bd0fdfac576347f623b32a357a0e88dfad636c9d272a5789e7e26989de"),
    (0, "a80e8485099cb253dbdaec016141a8cc4fa147f668166d6b99806452c27958dd"),
    (1, "7bbc8770d52c5b257c20ee6f6a7c64c91242176f683a81116f819de8058c7dce"),
    (1, "25578ead02eb7161b25b175b615a4d09ad81865c16b9b237c0488a3f11d06940"),
    (1, "fc69463536ec3692b32cf8c8161a06d8a9b145fcc88c7fcd2f1633eec1909c59"),
    (0, "546e94ebbe27e6a1189995fd2a03a8cf6cd5092c04e8447c5082f2dbdfee9b21"),
    (1, "d9e20de91f0b2ce6afdd8dcef42d5625283b7c760a62301d2e4867656ac87853"),
    (1, "10b0f4a091a31ce4bad68f8da46a9d1a5030444b6143072da920105b3dc1e2a0"),
    (0, "546e94ebbe27e6a1189995fd2a03a8cf6cd5092c04e8447c5082f2dbdfee9b21"),
    (1, "9f6cf94d356b7f3bfe2963c020acccb9ec7d2a49d9bdaca6976427a132d70a4c"),
    (1, "b125d2a38874a469f6771c2d176331e60896c2418d0cb46c1d7c765d1c2b23f2"),
    (1, "bd229f0eaeb527e5dc714a818b8ac88d05c5aa6e9a412094b15e7f68283358df"),
    (1, "10b0f4a091a31ce4bad68f8da46a9d1a5030444b6143072da920105b3dc1e2a0"),
    (1, "b125d2a38874a469f6771c2d176331e60896c2418d0cb46c1d7c765d1c2b23f2"),
    (1, "be9bafd59916d686f5adf41ef502d30d26017b3fed8ca7ea217d67e2b42e0677"),
    (1, "be1343a60b0e8148cca21328bd2165fb1a0fa83deaf48b201455d81e64d844de"),
    (1, "d80221d57f77979b42d9816150dae13babadf516f3f0d82ba62c97c4be4ed550"),
    (1, "10b0f4a091a31ce4bad68f8da46a9d1a5030444b6143072da920105b3dc1e2a0"),
    (1, "b125d2a38874a469f6771c2d176331e60896c2418d0cb46c1d7c765d1c2b23f2"),
    (1, "9f6cf94d356b7f3bfe2963c020acccb9ec7d2a49d9bdaca6976427a132d70a4c"),
    (0, "546e94ebbe27e6a1189995fd2a03a8cf6cd5092c04e8447c5082f2dbdfee9b21"),
    (0, "546e94ebbe27e6a1189995fd2a03a8cf6cd5092c04e8447c5082f2dbdfee9b21"),
    (1, "10b0f4a091a31ce4bad68f8da46a9d1a5030444b6143072da920105b3dc1e2a0"),
    (1, "b125d2a38874a469f6771c2d176331e60896c2418d0cb46c1d7c765d1c2b23f2"),
    (1, "be9bafd59916d686f5adf41ef502d30d26017b3fed8ca7ea217d67e2b42e0677"),
]


@pytest.mark.parametrize("k", range(len(_PERTURBED_PINS)))
def test_perturbed_structure_output(capsys, monkeypatch, k):
    command, doc = _PERTURBED[k]
    code, out, _ = run(capsys, command.split(), stdin=json.dumps(doc),
                       monkeypatch=monkeypatch)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _PERTURBED_PINS[k]


# g2 g2 = g2 instead of g1 breaks associativity of the Z/3 host; the module
# and coaction are fine over it.
_Z3_BAD_HOST = {
    "bialgebra": {"dim": 3, "labels": ["g0", "g1", "g2"],
                  "mult": {"0,0": {"0": "1"}, "0,1": {"1": "1"}, "0,2": {"2": "1"},
                           "1,0": {"1": "1"}, "1,1": {"2": "1"}, "1,2": {"0": "1"},
                           "2,0": {"2": "1"}, "2,1": {"0": "1"}, "2,2": {"2": "1"}},
                  "unit": ["1", "0", "0"],
                  "comult": {"0": {"0,0": "1"}, "1": {"1,1": "1"}, "2": {"2,2": "1"}},
                  "counit": ["1", "1", "1"]},
    "dim": 1, "labels": ["v"],
    "action": {"0,0": {"0": "1"}, "1,0": {"0": "1"}, "2,0": {"0": "1"}},
    "coaction": {"0": {"0,0": "1"}},
}


@pytest.mark.parametrize("command", ["verify yd", "yd verify"])
def test_yd_verify_checks_the_host_bialgebra(capsys, monkeypatch, command):
    code, out, _ = run(capsys, command.split(), stdin=json.dumps(_Z3_BAD_HOST),
                       monkeypatch=monkeypatch)
    assert (code, out) == (1, "FAIL yd (associativity fails at (1,1,2))\n")


def test_yd_braiding_refuses_a_bad_host(capsys, monkeypatch):
    code, out, err = run(capsys, ["yd", "braiding"], stdin=json.dumps(_Z3_BAD_HOST),
                         monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: associativity fails at (1,1,2)\n"


@pytest.mark.parametrize("dim", ["9", "15", str(10 ** 20)])
def test_classify_compatible_refuses_too_many_patterns(capsys, monkeypatch, dim):
    from hombrax import quantum
    monkeypatch.setattr(quantum, "enumerate_patterns", _refuse)
    code, out, err = run(capsys, ["classify", "compatible", "--dim", dim])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the limit of 16384" in err
