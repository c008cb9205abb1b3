"""Command-line surface: pipelines, exit codes, deterministic output."""

import json

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


def test_verify_braid_on_extension_braiding(capsys, monkeypatch):
    from hombrax.homlie import (braiding_on_extension, extended_alpha, sl2,
                                sl2_morphism, yau_twist)
    from hombrax.tensor import op_to_json_dict
    twisted = yau_twist(sl2(), sl2_morphism(1, 0, 2, 0))
    doc = {"operator": op_to_json_dict(braiding_on_extension(twisted)),
           "alpha": [[str(e) for e in row]
                     for row in extended_alpha(twisted).rows]}
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


def test_classify_sl2_small_field(capsys):
    code, out, _ = run(capsys, ["classify", "sl2", "--field", "3"])
    assert code == 0
    assert "PASS coverage" in out
    assert "unclassified: 0" in out


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
