import glob
import json
import os

import pytest

from trimod import cli, ringio
from trimod import constructions as con
from trimod.errors import ParseError
from trimod.rings import GradedRing

HERE = os.path.dirname(__file__)
RINGS = os.path.join(HERE, os.pardir, "rings")
MODULES = os.path.join(HERE, os.pardir, "modules")

RING_FILES = sorted(glob.glob(os.path.join(RINGS, "*.ring")))


def test_corpus_is_present():
    assert len(RING_FILES) >= 15


@pytest.mark.parametrize("path", RING_FILES, ids=[os.path.basename(p) for p in RING_FILES])
def test_corpus_round_trip(path):
    R = ringio.load_ring(path)
    text = ringio.serialize_ring(R)
    R2 = ringio.parse_ring(text)
    assert R2 == R
    # serialization is canonical: a second pass reproduces the bytes
    assert ringio.serialize_ring(R2) == text
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == text


def test_constructed_ring_round_trip():
    for R in [con.z_mod(4), con.exterior_on_field(con.finite_field(2)), con.laurent_exterior(3, 1, 4)]:
        assert ringio.parse_ring(ringio.serialize_ring(R)) == R


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        ringio.parse_ring('{"characteristic": 4,}')
    assert "line 1" in str(exc.value) and "column" in str(exc.value)


def test_reject_unknown_keys_and_bad_names():
    base = {
        "characteristic": 2,
        "basis": [{"name": "e", "degree": 0}],
        "products": [{"left": "e", "right": "e",
                      "terms": [{"coeff": 1, "basis": "e", "vpow": 0}]}],
    }
    bad = dict(base)
    bad["flavour"] = "sour"
    with pytest.raises(ParseError):
        ringio.ring_from_obj(bad)
    bad = json.loads(json.dumps(base))
    bad["basis"][0]["name"] = "2e"
    with pytest.raises(ParseError):
        ringio.ring_from_obj(bad)


def test_reject_vpow_without_periodicity():
    obj = {
        "characteristic": 2,
        "basis": [{"name": "e", "degree": 0}],
        "products": [{"left": "e", "right": "e",
                      "terms": [{"coeff": 1, "basis": "e", "vpow": 1}]}],
    }
    with pytest.raises(ParseError):
        ringio.ring_from_obj(obj)


def test_reject_unitless_structure_constants():
    obj = {
        "characteristic": 2,
        "basis": [{"name": "e", "degree": 0}],
        "products": [],
    }
    with pytest.raises(ParseError) as exc:
        ringio.ring_from_obj(obj)
    assert "unit" in str(exc.value)


def test_unit_recovery_nontrivial():
    # product ring: the unit is the sum of the two idempotents
    R = con.product_ring(con.z_mod(4), con.exterior_on_field(con.finite_field(2)))
    R2 = ringio.parse_ring(ringio.serialize_ring(R))
    assert R2 == R
    one = R2.one()
    for i in range(R2.dim):
        b = R2.basis_element(i)
        assert one * b == b and b * one == b


def test_module_loading():
    M = ringio.load_module(os.path.join(MODULES, "k_z4.module"))
    assert M.size() == 2
    F = ringio.load_module(os.path.join(MODULES, "free_z4.module"))
    assert F.size() == 4


def test_module_relation_shape_checked():
    obj = {
        "ring": {
            "characteristic": 4,
            "basis": [{"name": "e", "degree": 0}],
            "products": [{"left": "e", "right": "e",
                          "terms": [{"coeff": 1, "basis": "e", "vpow": 0}]}],
        },
        "generators": 2,
        "relations": [[[{"coeff": 2, "basis": "e"}]]],
    }
    with pytest.raises(ParseError):
        ringio.module_from_obj(obj)


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_classify_positive(capsys):
    code, out, _ = _run(["classify", os.path.join(RINGS, "z4.ring"), "--n", "0"], capsys)
    assert code == 0
    assert "is_delta: true" in out


def test_cli_classify_negative(capsys):
    code, out, _ = _run(["classify", os.path.join(RINGS, "f3x.ring")], capsys)
    assert code == 1
    assert "WrongCharacteristic" in out


def test_cli_classify_n1_periodic(capsys):
    code, out, _ = _run(
        ["classify", os.path.join(RINGS, "f3_laurent_x1_y2.ring"), "--n", "1"], capsys)
    assert code == 0
    code, out, _ = _run(
        ["classify", os.path.join(RINGS, "f3_laurent_x1_y3.ring"), "--n", "1"], capsys)
    assert code == 1
    assert "MissingUnitDegree" in out


def test_cli_qf(capsys):
    code, _, _ = _run(["qf", os.path.join(RINGS, "z8.ring")], capsys)
    assert code == 0
    code, _, _ = _run(["qf", os.path.join(RINGS, "f2xy.ring")], capsys)
    assert code == 1


def test_cli_qf_periodic_nonlocal_is_input_error(tmp_path, capsys):
    # F_3[y, y^-1] x F_3[y, y^-1]: periodic rings are only tested when local
    table = {(0, 0): [(1, 0, 0)], (1, 1): [(1, 1, 0)]}
    R = GradedRing(3, [("e", 0), ("f", 0)], table, [(1, 0, 0), (1, 1, 0)], periodicity=("y", 2))
    path = tmp_path / "laurent_square.ring"
    ringio.save_ring(R, str(path))
    code, _, err = _run(["qf", str(path), "--json"], capsys)
    assert code == 2
    assert "NotLocalInput" in err


@pytest.mark.parametrize("name", ["f3_laurent_x1_y2.ring", "f3_laurent_x1_y3.ring",
                                  "f3_laurent_x1_y4.ring"])
def test_cli_qf_periodic_exterior(name, capsys):
    # F_3[y, y^-1][x]/(x^2) is self-injective whatever the degrees
    code, out, _ = _run(["qf", os.path.join(RINGS, name), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["quasi_frobenius"] is True


def test_cli_heller(capsys):
    code, out, _ = _run(
        ["heller", os.path.join(RINGS, "z4.ring"),
         os.path.join(MODULES, "k_z4.module")], capsys)
    assert code == 0
    assert "cube_returns=true" in out


def test_cli_missing_file_exits_2(capsys):
    code, _, err = _run(["classify", os.path.join(RINGS, "missing.ring")], capsys)
    assert code == 2
    assert "input error" in err


def test_cli_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ring"
    bad.write_text("{not json")
    code, _, err = _run(["classify", str(bad)], capsys)
    assert code == 2
    assert "line 1" in err


def test_cli_ggh_exit_codes(capsys):
    code, out, _ = _run(["ggh", "--p", "3", "--n", "1", "--window", "-4:4"], capsys)
    assert code == 0
    assert "verdict: holds" in out
    code, out, _ = _run(["ggh", "--p", "3", "--n", "2", "--window", "-4:4"], capsys)
    assert code == 1
    assert "verdict: fails" in out


def test_cli_dg_verify(capsys):
    code, out, _ = _run(
        ["dg-verify", "--p", "3", "--i", "1", "--n", "1",
         "--window", "-4:4", "--trials", "5", "--seed", "7"], capsys)
    assert code == 0
    assert out.count("PASS") == 4
    code, out, _ = _run(
        ["dg-verify", "--p", "3", "--i", "0", "--n", "0", "--trials", "2"], capsys)
    assert code == 1
    assert "build: FAIL" in out


def test_cli_json_deterministic(capsys):
    argv = ["dg-verify", "--p", "2", "--i", "1", "--n", "1",
            "--window", "-4:4", "--trials", "5", "--seed", "3", "--json"]
    code1, out1, _ = _run(argv, capsys)
    # another subcommand in between: one parser serves every call
    code, out, _ = _run(["classify", os.path.join(RINGS, "z4.ring"), "--n", "0", "--json"], capsys)
    assert code == 0 and json.loads(out)["command"] == "classify"
    code2, out2, _ = _run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema_version"] == 1
    assert data["built"] is True


def test_cli_selftest(capsys):
    code, out, _ = _run(["selftest"], capsys)
    assert code == 0
    assert "FAIL" not in out
