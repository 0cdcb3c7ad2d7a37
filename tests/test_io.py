import copy
import functools
import glob
import json
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trimod import cli, ringio
from trimod import constructions as con
from trimod.classify import classify
from trimod.errors import DegreeMismatch, ParseError, RingSpecError, SizeCapExceeded, TrimodError
from trimod.rings import GradedRing, is_quasi_frobenius, validate_ring

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


def _stock_rings():
    """Each committed ring file's name, with the constructor call that made it."""
    f2, f3 = con.finite_field(2), con.finite_field(3)
    rings = {f"z{m}": con.z_mod(m) for m in (4, 6, 8, 9, 16)}
    rings.update({f"f{p}": con.z_mod(p) for p in (2, 3, 5)})
    rings.update({f"f3_laurent_x1_y{d}": con.laurent_exterior(3, 1, d) for d in (2, 3, 4)})
    rings.update(f4=con.finite_field(4), f5t3=con.truncated_polynomial(5, 3), f2xy=con.square_zero_two_vars(2),
                 gr42=con.galois_ring_4_2(), f2x=con.exterior_on_field(f2), f3x=con.exterior_on_field(f3),
                 f2_x_z4=con.product_ring(f2, con.z_mod(4)),
                 f3_x_f2x=con.product_ring(f3, con.exterior_on_field(f2)))
    return {f"{name}.ring": R for name, R in rings.items()}


def test_ring_files_are_their_constructors():
    # the corpus is the stock constructors' output, byte for byte
    rings = _stock_rings()
    assert sorted(rings) == [os.path.basename(path) for path in RING_FILES]
    for path in RING_FILES:
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == ringio.serialize_ring(rings[os.path.basename(path)]), path


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


@pytest.mark.parametrize("degree", [0, -2, True, None, "2"])
def test_reject_nonpositive_periodicity_degree(degree):
    # a negative period is a parse error, not a RingSpecError from validation
    obj = {
        "characteristic": 2,
        "basis": [{"name": "e", "degree": 0}],
        "periodicity": {"unit": "v", "degree": degree},
        "products": [{"left": "e", "right": "e", "terms": [{"coeff": 1, "basis": "e"}]}],
    }
    with pytest.raises(ParseError, match="periodicity degree must be a positive integer"):
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


def _periodic_f3(one_one, one_x):
    """F_3 on one (degree 0) and x (degree 1), period 2, with the given
    terms of one * one and one * x; x * one = x."""
    def terms(ts):
        return [{"coeff": 1, "basis": b, "vpow": v} for b, v in ts]
    return {
        "characteristic": 3,
        "basis": [{"name": "one", "degree": 0}, {"name": "x", "degree": 1}],
        "periodicity": {"unit": "y", "degree": 2},
        "products": [{"left": "one", "right": "one", "terms": terms(one_one)},
                     {"left": "one", "right": "x", "terms": terms(one_x)},
                     {"left": "x", "right": "one", "terms": terms([("x", 0)])}],
    }


@pytest.mark.parametrize("one_one, one_x, error, message", [
    # a term of the right basis element at the wrong v power is no part of
    # the unit's system, so the system has no solution
    ([("one", 1)], [("x", 0)], ParseError, "admit no multiplicative unit"),
    ([("one", 0)], [("x", 1)], ParseError, "admit no multiplicative unit"),
    # here it has one, and validation meets the ill-graded term
    ([("one", 0), ("one", 1)], [("x", 0)], DegreeMismatch, "term 0 has degree 2, expected 0"),
])
def test_ill_graded_products_in_degree_zero(one_one, one_x, error, message):
    with pytest.raises(error, match=message):
        ringio.ring_from_obj(_periodic_f3(one_one, one_x))


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
    # F_3[y, y^-1] x F_3[y, y^-1]: a periodic product of graded fields is
    # split into its factors, each self-injective
    table = {(0, 0): [(1, 0, 0)], (1, 1): [(1, 1, 0)]}
    R = GradedRing(3, [("e", 0), ("f", 0)], table, [(1, 0, 0), (1, 1, 0)], periodicity=("y", 2))
    path = tmp_path / "laurent_square.ring"
    ringio.save_ring(R, str(path))
    code, out, _ = _run(["qf", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["quasi_frobenius"] is True


def test_cli_qf_and_classify_agree_on_the_rationals(tmp_path, capsys):
    path = tmp_path / "q.ring"
    ringio.save_ring(GradedRing(0, [("e", 0)], {(0, 0): [(1, 0, 0)]}, [(1, 0, 0)]), str(path))
    code, out, _ = _run(["classify", str(path)], capsys)
    assert code == 0 and "factor 0: GradedField" in out
    code, out, err = _run(["qf", str(path)], capsys)
    assert (code, out, err) == (0, "quasi_frobenius: true\n", "")


_SQUARE_ZERO = {(0, 0): [(1, 0, 0)], (0, 1): [(1, 1, 0)], (1, 0): [(1, 1, 0)]}
RATIONAL_RINGS = {
    "Q[x]/(x^2), |x| = 0": GradedRing(0, [("one", 0), ("x", 0)], _SQUARE_ZERO, [(1, 0, 0)]),
    "Q[x]/(x^2), |x| = 2": GradedRing(0, [("one", 0), ("x", 2)], _SQUARE_ZERO, [(1, 0, 0)]),
    "Q x Q": GradedRing(0, [("e", 0), ("f", 0)], {(0, 0): [(1, 0, 0)], (1, 1): [(1, 1, 0)]},
                        [(1, 0, 0), (1, 1, 0)]),
    "Q[y, 1/y], |y| = 2": con.laurent_field(0, 2),
    "Q[y, 1/y][x]/(x^2)": con.laurent_exterior(0, 1, 4),
}


@pytest.mark.parametrize("ring", RATIONAL_RINGS.values(), ids=RATIONAL_RINGS)
def test_rational_rings_past_the_field_name_the_limit(ring, tmp_path, capsys):
    # over Q only the field Q in degree 0 is classified: both verdicts and
    # both commands refuse every other ring with that message
    limit = "over Q, only the field Q in degree 0 is classified"
    R = validate_ring(ring)
    for verdict in (lambda: classify(R, 0), lambda: is_quasi_frobenius(R)):
        with pytest.raises(TrimodError, match=limit):
            verdict()
    path = tmp_path / "q.ring"
    ringio.save_ring(R, str(path))
    for command in ("classify", "qf"):
        code, _, err = _run([command, str(path)], capsys)
        assert code == 2 and limit in err, command


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


def test_cli_heller_past_int64(tmp_path, capsys):
    # over Z/2**63, Omega^3 k = Omega k = R/m^62: a negative verdict, exit 1
    ring = tmp_path / "z2_63.ring"
    ringio.save_ring(con.z_mod(2 ** 63), str(ring))
    module = tmp_path / "k.module"
    module.write_text(json.dumps({"ring": str(ring), "generators": 1,
                                  "relations": [[[{"coeff": 2, "basis": "e"}]]]}))
    code, out, err = _run(["heller", str(ring), str(module)], capsys)
    assert (code, err) == (1, "")
    assert out == f"{module}: sizes [{2 ** 62}, 2, {2 ** 62}] cube_returns=false\n"


MERSENNE_61 = 2 ** 61 - 1


def test_cli_field_of_a_prime_whose_square_passes_int64(tmp_path, capsys):
    # F_p at p = 2**61 - 1: both commands answer, as at small primes
    p = MERSENNE_61
    ring = tmp_path / "fp.ring"
    ringio.save_ring(con.finite_field(p), str(ring))
    code, out, err = _run(["classify", str(ring), "--n", "0", "--json"], capsys)
    assert (code, err) == (0, "")
    verdict = json.loads(out)["verdict"]
    assert verdict["is_delta"] and [f["kind"] for f in verdict["factors"]] == ["GradedField"]
    code, out, err = _run(["qf", str(ring), "--json"], capsys)
    assert (code, err) == (0, "") and json.loads(out)["quasi_frobenius"] is True


def test_cli_heller_over_a_prime_whose_square_passes_int64(tmp_path, capsys):
    # R/(t^2) over R = F_p[t]/(t^3), p = 2**61 - 1: Omega is R/(t), Omega^2
    # R/(t^2) and Omega^3 R/(t) again, which is not the module: exit 1
    p = MERSENNE_61
    ring = tmp_path / "fpt3.ring"
    ringio.save_ring(con.truncated_polynomial(p, 3), str(ring))
    module = tmp_path / "t2.module"
    module.write_text(json.dumps({"ring": str(ring), "generators": 1,
                                  "relations": [[[{"coeff": 1, "basis": "t2"}]]]}))
    code, out, err = _run(["heller", str(ring), str(module), "--json"], capsys)
    assert (code, err) == (1, "")
    (result,) = json.loads(out)["results"]
    assert result["shift_sizes"] == [p, p * p, p] and result["cube_returns"] is False


def test_cli_missing_file_exits_2(capsys):
    code, _, err = _run(["classify", os.path.join(RINGS, "missing.ring")], capsys)
    assert code == 2
    assert "input error" in err
    code, _, err = _run(["heller", os.path.join(RINGS, "z4.ring"), os.path.join(MODULES, "missing.module")], capsys)
    assert code == 2
    assert "input error" in err and "missing.module" in err


def test_cli_malformed_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ring"
    bad.write_text("{not json")
    code, _, err = _run(["classify", str(bad)], capsys)
    assert code == 2
    assert "line 1" in err
    # an integer too long for int() is an input error, not a ValueError
    bad.write_text('{"characteristic": ' + "7" * 5000 + "}")
    code, _, err = _run(["classify", str(bad)], capsys)
    assert code == 2
    assert "input error" in err and "digits" in err


def test_cli_non_integer_coefficient_exits_2(tmp_path, capsys):
    # over F_3, "1/2" is no integer: x * x = (1/2) c0 must not read as x * x = 0
    with open(os.path.join(RINGS, "f3x.ring"), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["products"].append({"left": "x", "right": "x",
                            "terms": [{"coeff": "1/2", "basis": "c0", "vpow": 0}]})
    bad = tmp_path / "f3x_half.ring"
    bad.write_text(json.dumps(obj))
    code, _, err = _run(["classify", str(bad)], capsys)
    assert code == 2
    assert "non-integer coefficient" in err
    module = tmp_path / "half.module"
    module.write_text(json.dumps({"ring": os.path.abspath(os.path.join(RINGS, "z4.ring")), "generators": 1,
                                  "relations": [[[{"coeff": "1/3", "basis": "e"}]]]}))
    code, _, err = _run(["heller", os.path.join(RINGS, "z4.ring"), str(module)], capsys)
    assert code == 2
    assert "non-integer coefficient" in err


def _rational_ring(coeff):
    """Q with basis e and e * e = coeff e, its unit 1/coeff e."""
    return {"characteristic": 0, "basis": [{"name": "e", "degree": 0}],
            "products": [{"left": "e", "right": "e", "terms": [{"coeff": coeff, "basis": "e"}]}]}


@pytest.mark.parametrize("coeff", ["1e10000000", "1.5", " 3 ", "1_0/3", "3/ 4", "1/2\n", "0x10", "1" * 4301])
def test_coefficient_outside_the_rational_grammar_exits_2_at_once(coeff, tmp_path, capsys):
    # only [+-]digits[/digits] is read; an exponent used to stall the parse
    # for some 20 s while Fraction built 10**(10**7)
    path = tmp_path / "q.ring"
    path.write_text(json.dumps(_rational_ring(coeff)))
    start = time.perf_counter()
    code, out, err = _run(["classify", str(path)], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert "input error" in err and "products[0] terms[0] coeff must be an integer or a rational string" in err


@pytest.mark.parametrize("coeff, unit", [("1/2", Fraction(2)), ("-3/4", Fraction(-4, 3)), ("+6/3", Fraction(1, 2))])
def test_rational_coefficient_strings_parse(coeff, unit):
    R = ringio.ring_from_obj(_rational_ring(coeff))
    assert R.unit_terms == ((unit, 0, 0),)


@pytest.mark.parametrize("vpow", [1, "0", 0.5])
def test_cli_module_vpow_exits_2(tmp_path, capsys, vpow):
    module = tmp_path / "vpow.module"
    module.write_text(json.dumps({"ring": os.path.abspath(os.path.join(RINGS, "z4.ring")), "generators": 1,
                                  "relations": [[[{"coeff": 2, "basis": "e", "vpow": vpow}]]]}))
    code, _, err = _run(["heller", os.path.join(RINGS, "z4.ring"), str(module)], capsys)
    assert code == 2
    assert "vpow" in err


def test_cli_ggh_exit_codes(capsys):
    code, out, _ = _run(["ggh", "--p", "3", "--n", "1", "--window", "-4:4"], capsys)
    assert code == 0
    assert "verdict: holds" in out
    code, out, _ = _run(["ggh", "--p", "3", "--n", "2", "--window", "-4:4"], capsys)
    assert code == 1
    assert "verdict: fails" in out


def test_cli_ggh_window_without_degrees_0_to_2(capsys):
    # the verdict is read off the period (k, Omega k): any nonempty window gives it
    code, out, _ = _run(["ggh", "--p", "3", "--n", "2", "--window", "3:5"], capsys)
    assert code == 1
    assert "verdict: fails" in out
    code, out, _ = _run(["ggh", "--p", "3", "--n", "1", "--window", "0:0", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "holds" and report["x_action"] == {}


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


@pytest.mark.parametrize("argv", [
    ["--p", "3", "--i", "1", "--n", "1", "--window", "0:0", "--weight", "4", "--trials", "20", "--seed", "1"],
    ["--p", "2", "--i", "0", "--n", "1", "--window", "-2:2", "--weight", "4", "--seed", "1"]])
def test_cli_dg_verify_calculus_at_the_smallest_weight(argv, capsys):
    # products reach past the weight bound, and the calculus is compared
    # where truncation keeps them exact
    code, out, err = _run(["dg-verify", *argv], capsys)
    assert code == 0, err
    assert "differential calculus (20 random pairs): PASS" in out


def test_cli_dg_verify_names_an_unchecked_rotation(capsys):
    # a window spanning fewer than |n| degrees holds no degree of the
    # rotation check: the line says so instead of a bare PASS
    code, out, err = _run(["dg-verify", "--p", "3", "--i", "1", "--n", "3", "--window", "0:1",
                           "--trials", "3", "--seed", "1"], capsys)
    assert code == 0, err
    assert "random triangles (3): PASS (rotation not checked: window 0:1 holds no degree q" in out
    code, out, err = _run(["dg-verify", "--p", "3", "--i", "1", "--n", "3", "--window", "0:3",
                           "--trials", "3", "--seed", "1"], capsys)
    assert code == 0, err
    assert "random triangles (3): PASS\n" in out


def test_cli_dg_verify_past_the_int64_product_bound(capsys):
    # the least prime the builder admits past the int64 bound of a length-9
    # product: such products are taken in Python integers
    code, out, err = _run(["dg-verify", "--p", "3037000493", "--i", "1", "--n", "1", "--json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["calculus"] and report["homology_free_rank_one"] and report["triangles"] is True


def test_cli_dg_verify_triangles_keep_the_window(capsys):
    # the random triangles use the command's window: at n = 3 a map spanning
    # degrees -3..3 would otherwise widen it past the default weight bound
    code, out, err = _run(["dg-verify", "--p", "3", "--i", "1", "--n", "3",
                           "--trials", "10", "--seed", "4", "--json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["window"] == [-6, 6] and report["triangles"] is True


def test_cli_dg_verify_window_wider_than_the_weight_on_a_periodic_model(capsys):
    # --weight sets the model of the calculus and homology checks, whose
    # periodic records hold any window; the random triangles build their
    # model at its own weight
    code, out, err = _run(["dg-verify", "--p", "3", "--i", "1", "--n", "1", "--weight", "8",
                           "--window", "-10:10", "--trials", "5", "--json"], capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["weight"] == 8 and report["window"] == [-10, 10]
    assert report["calculus"] and report["homology_free_rank_one"] and report["triangles"]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cli_dg_verify_negative_period(p, capsys):
    # 3i + n = -2: the random triangles run over the ring with |y| = 2,
    # whose y^-1 is the model's unit v of degree -2
    code, out, err = _run(["dg-verify", "--p", str(p), "--i", "-1", "--n", "1", "--json"], capsys)
    assert code == 0, err
    assert json.loads(out)["triangles"] is True


@pytest.mark.parametrize("argv", [["--p", "4", "--i", "1", "--n", "1"],
                                  ["--p", "3", "--i", "1", "--n", "1", "--weight", "2"],
                                  ["--p", "9223372036854775837", "--i", "1", "--n", "1"],
                                  ["--p", "18446744073709551629", "--i", "1", "--n", "1"]])
def test_cli_dg_verify_input_errors_exit_2(argv, capsys):
    # a composite p, a too small weight bound or a prime whose entries do not
    # fit int64 (the least primes past 2^63 and 2^64) is no parity
    # obstruction; the large primes get the typed refusal, no traceback
    code, out, err = _run(["dg-verify", *argv, "--trials", "2"], capsys)
    assert code == 2
    assert out == "" and "error:" in err
    if int(argv[1]) >= 2 ** 63:
        assert err == f"error: UnsupportedCoefficients: prime {argv[1]} too large for int64 elimination\n"


def test_cli_dg_verify_answers_past_2_to_the_32(capsys):
    # p^2 >= 2^63 at the least prime past 2^32: the one product takes such
    # sums in Python integers, so the model builds and its triangles pass
    code, out, err = _run(["dg-verify", "--p", "4294967311", "--i", "1", "--n", "1", "--trials", "2", "--json"],
                          capsys)
    assert code == 0, err
    assert json.loads(out)["triangles"] is True


def test_cli_dg_verify_negative_trials_exit_2(capsys):
    argv = ["dg-verify", "--p", "3", "--i", "1", "--n", "1", "--trials", "-2"]
    with pytest.raises(ParseError, match="bad trial count -2"):
        cli.cmd_dg_verify(cli.build_parser().parse_args(argv))
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == "" and "input error: bad trial count -2" in err
    # no trial at all is a valid, if empty, check
    code, out, _ = _run(["dg-verify", "--p", "3", "--i", "1", "--n", "1", "--trials", "0"], capsys)
    assert code == 0 and "differential calculus (0 random pairs): PASS" in out


@pytest.mark.parametrize("p, n", [(2, -1), (4, 1), (1, 1)])
def test_cli_ggh_bad_group_exits_2(p, n, capsys):
    code, _, err = _run(["ggh", "--p", str(p), "--n", str(n)], capsys)
    assert code == 2
    assert "RingSpecError" in err


@pytest.mark.parametrize("argv, error", [
    (["--p", "2", "--n", "12", "--json"], "SizeCapExceeded"),
    (["--p", "3", "--n", "6"], "SizeCapExceeded"),
    # 4**10000 has more digits than int() may print: p is refused first
    (["--p", "4", "--n", "10000"], "RingSpecError"),
    # a prime near 10**18: primality is decided before the group order
    (["--p", "1000000000000000003", "--n", "1"], "SizeCapExceeded"),
])
def test_cli_ggh_oversized_group_exits_2_at_once(argv, error, capsys):
    start = time.perf_counter()
    code, out, err = _run(["ggh"] + argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and error in err


@pytest.mark.parametrize("p", [2, 3])
def test_cli_ggh_trivial_group_exits_2(p, capsys):
    # n = 0 is the trivial group: a scope error before any module is built
    code, out, err = _run(["ggh", "--p", str(p), "--n", "0"], capsys)
    assert code == 2 and out == ""
    assert "RingSpecError" in err and "trivial" in err and "stable module category is zero" in err


@pytest.mark.parametrize("argv, line", [(["classify", "--n", "0"], "factor 0: GradedField"),
                                        (["classify", "--n", "1"], "factor 0: GradedField"),
                                        (["qf"], "quasi_frobenius: true")],
                         ids=["classify-n0", "classify-n1", "qf"])
def test_cli_periodic_ring_of_huge_prime_characteristic_is_a_graded_field_at_once(argv, line, tmp_path, capsys):
    # F_p[y, 1/y] at p near 10**18: the field lane is exact at every prime
    path = tmp_path / "big.ring"
    path.write_text(json.dumps({
        "characteristic": 10 ** 18 + 3,
        "basis": [{"name": "one", "degree": 0}],
        "periodicity": {"unit": "y", "degree": 2},
        "products": [{"left": "one", "right": "one", "terms": [{"coeff": 1, "basis": "one", "vpow": 0}]}],
    }))
    start = time.perf_counter()
    code, out, err = _run(argv[:1] + [str(path)] + argv[1:], capsys)
    assert time.perf_counter() - start < 1
    assert code == 0 and err == "" and line in out.splitlines()


def test_cli_json_deterministic(capsys):
    argv = ["dg-verify", "--p", "2", "--i", "1", "--n", "1",
            "--window", "-4:4", "--trials", "5", "--seed", "3", "--json"]
    code1, out1, _ = _run(argv, capsys)
    # another subcommand in between: one parser serves every call
    code, out, _ = _run(["classify", os.path.join(RINGS, "z4.ring"), "--n", "0", "--json"], capsys)
    assert code == 0 and json.loads(out)["command"] == "classify"
    ggh = ["ggh", "--p", "3", "--n", "2", "--json"]
    code_g1, out_g1, _ = _run(ggh, capsys)
    code2, out2, _ = _run(argv, capsys)
    code_g2, out_g2, _ = _run(ggh, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema_version"] == 1
    assert data["built"] is True
    assert code_g1 == code_g2 == 1  # the verdict fails for Z/9
    assert out_g1 == out_g2
    assert json.loads(out_g1)["verdict"] == "fails"


def test_cli_selftest(capsys):
    code, out, _ = _run(["selftest"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_python_dash_m_runs_the_cli(capsys):
    # the package runs from a checkout, with src on the path
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "trimod", "selftest", "--json"],
                          capture_output=True, text=True, env=env, timeout=120)
    code, out, _ = _run(["selftest", "--json"], capsys)
    assert (proc.returncode, proc.stdout) == (code, out)


# -- the file schema ---------------------------------------------------------

_DELETE = object()


def _spec(name):
    """A committed ring or module file as JSON, a module's ring path made absolute."""
    folder = RINGS if name.endswith(".ring") else MODULES
    with open(os.path.join(folder, name), "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if "ring" in obj:
        obj["ring"] = os.path.abspath(os.path.join(MODULES, obj["ring"]))
    return obj


def _edited(name, place, value):
    """The file `name` with the value at `place` (a path of keys and
    indices) replaced by value, or deleted for _DELETE."""
    obj = _spec(name)
    if not place:
        return value
    *head, last = place
    parent = functools.reduce(operator.getitem, head, obj)
    if value is _DELETE:
        del parent[last]
    else:
        parent[last] = value
    return obj


@pytest.mark.parametrize("name, place, value, error, message", [
    # the type of every field, named by its place in the file
    ("z4.ring", (), [], ParseError, "spec must be an object"),
    ("z4.ring", ("basis",), True, ParseError, "basis must be an array"),
    ("z4.ring", ("basis",), 0.5, ParseError, "basis must be an array"),
    ("z4.ring", ("products",), 3, ParseError, "products must be an array"),
    ("z4.ring", ("products", 0, "terms"), None, ParseError, "products[0] terms must be an array"),
    ("z4.ring", ("products", 0, "terms"), "", ParseError, "products[0] terms must be an array"),
    ("z4.ring", ("products", 0, "left"), [], ParseError, "products[0] left must be an identifier"),
    ("z4.ring", ("products", 0, "terms", 0, "basis"), {}, ParseError,
     "products[0] terms[0] basis must be an identifier"),
    ("z4.ring", ("products", 0, "terms", 0, "coeff"), 0.5, ParseError,
     "products[0] terms[0] coeff must be an integer or a rational string"),
    ("z4.ring", ("products", 0, "terms", 0, "coeff"), "1/0", ParseError,
     "products[0] terms[0] coeff must be an integer or a rational string"),
    ("z4.ring", ("products", 0, "terms", 0, "vpow"), None, ParseError,
     "products[0] terms[0] vpow must be an integer"),
    ("z4.ring", ("characteristic",), True, ParseError, "characteristic must be a nonnegative integer"),
    ("z4.ring", ("characteristic",), -4, ParseError, "characteristic must be a nonnegative integer"),
    ("z4.ring", ("basis", 0, "degree"), False, ParseError, "basis[0] degree must be an integer"),
    ("z4.ring", ("basis", 0, "order"), None, ParseError, "basis[0] order must be a nonnegative integer"),
    ("z4.ring", ("basis", 0, "name"), "2e", ParseError, "basis[0] name must be an identifier"),
    ("f3_laurent_x1_y2.ring", ("periodicity",), [], ParseError, "periodicity must be an object"),
    ("f3_laurent_x1_y2.ring", ("periodicity", "unit"), 3, ParseError, "periodicity unit must be an identifier"),
    ("z4.ring", ("flavour",), "sour", ParseError, "unknown keys ['flavour']"),
    ("z4.ring", ("basis", 0, "colour"), "red", ParseError, "unknown keys ['colour'] in basis[0]"),
    ("z4.ring", ("characteristic",), _DELETE, ParseError, "missing key 'characteristic'"),
    ("z4.ring", ("products", 0, "right"), _DELETE, ParseError, "missing key 'right' in products[0]"),
    # checks across fields, after the walk
    ("z4.ring", ("basis",), [], ParseError, "basis must be nonempty"),
    ("z4.ring", ("basis",), [{"name": "e", "degree": 0}] * 2, ParseError, "duplicate name 'e'"),
    ("f3_laurent_x1_y2.ring", ("periodicity", "unit"), "x", ParseError, "duplicate name 'x'"),
    ("z4.ring", ("products", 0, "left"), "f", ParseError, "unknown basis name 'f'"),
    ("z4.ring", ("products", 0, "terms", 0, "basis"), "f", ParseError, "unknown basis name 'f'"),
    ("z4.ring", ("products",), [{"left": "e", "right": "e", "terms": []}] * 2, ParseError,
     "duplicate product e * e"),
    ("z4.ring", ("characteristic",), 1, RingSpecError, "characteristic 1 not supported"),
    ("f5.ring", ("basis", 0, "degree"), 1, ParseError, "degree-0 slice is empty: no unit"),
    # module files
    ("k_z4.module", ("relations",), 2, ParseError, "relations must be an array"),
    ("k_z4.module", ("relations",), None, ParseError, "relations must be an array"),
    ("k_z4.module", ("relations",), {}, ParseError, "relations must be an array"),
    ("k_z4.module", ("relations",), [[True]], ParseError, "relations[0][0] must be an array"),
    ("k_z4.module", ("relations",), [[0.5]], ParseError, "relations[0][0] must be an array"),
    ("k_z4.module", ("relations",), [[{}]], ParseError, "relations[0][0] must be an array"),
    ("k_z4.module", ("relations", 0, 0, 0, "basis"), {}, ParseError,
     "relations[0][0][0] basis must be an identifier"),
    ("k_z4.module", ("relations", 0, 0, 0, "basis"), [], ParseError,
     "relations[0][0][0] basis must be an identifier"),
    ("k_z4.module", ("relations", 0, 0, 0, "basis"), "f", ParseError, "unknown basis name 'f'"),
    ("k_z4.module", ("generators",), True, ParseError, "generators must be a nonnegative integer"),
    ("k_z4.module", ("ring",), 3, ParseError, "ring must be a path or an object"),
    ("k_z4.module", ("ring",), {"characteristic": 4}, ParseError, "missing key 'basis'"),
    ("k_z4.module", ("ring",), "no_such.ring", ParseError, "no_such.ring"),
    ("k_z4.module", ("relations",), [[[], []]], ParseError,
     "each relation must list one element per generator"),
    # generator counts past what a module can represent, refused before
    # anything is allocated
    ("free_z4.module", ("generators",), 2 ** 31, SizeCapExceeded, "2147483648 generators"),
    ("free_z4.module", ("generators",), 2 ** 63, SizeCapExceeded, "9223372036854775808 generators"),
])
def test_malformed_spec_names_its_fault(name, place, value, error, message, tmp_path, capsys):
    obj = _edited(name, place, value)
    parse = ringio.ring_from_obj if name.endswith(".ring") else ringio.module_from_obj
    with pytest.raises(error) as info:
        parse(obj)
    assert message in str(info.value)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    argv = ["classify", str(path)] if name.endswith(".ring") else ["heller", os.path.join(RINGS, "z4.ring"), str(path)]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("input error: " if error is ParseError else f"error: {error.__name__}: ")
    assert message in err


def test_null_periodicity_is_no_periodicity():
    assert ringio.ring_from_obj(_edited("z4.ring", ("periodicity",), None)) == con.z_mod(4)


_ATOMS = [None, True, 0, -1, 0.5, "", "2e", [], {}, [[]], 2 ** 31, 2 ** 63, "1/0"]
_SPECS = [os.path.basename(p) for p in RING_FILES] + sorted(os.listdir(MODULES))


def _places(value, place=()):
    """Every place in a JSON value, its root first."""
    yield place
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _places(child, place + (key,))


@st.composite
def _mutated_spec(draw):
    """A committed file after one or two mutations: a value replaced by an
    atom, a key or entry deleted, an entry duplicated or an integer bumped."""
    name = draw(st.sampled_from(_SPECS))
    obj = _spec(name)
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["atom", "delete", "duplicate", "bump"]))
        places = [p for p in _places(obj) if p or op == "atom"]
        if op == "duplicate":
            places = [p for p in places if isinstance(p[-1], int)]
        elif op == "bump":
            places = [p for p in places if type(functools.reduce(operator.getitem, p, obj)) is int]
        if not places:
            continue
        place = draw(st.sampled_from(places))
        if not place:
            obj = copy.deepcopy(draw(st.sampled_from(_ATOMS)))
            continue
        *head, last = place
        parent = functools.reduce(operator.getitem, head, obj)
        if op == "atom":
            # a copy, so that a later mutation leaves _ATOMS as it was
            parent[last] = copy.deepcopy(draw(st.sampled_from(_ATOMS)))
        elif op == "delete":
            del parent[last]
        elif op == "duplicate":
            parent.insert(last, json.loads(json.dumps(parent[last])))
        else:
            parent[last] += draw(st.sampled_from([-2, -1, 1, 2]))
    return name, obj


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_spec())
def test_mutated_specs_exit_with_a_code(tmp_path, capsys, spec):
    # whatever a file holds, each command ends in an exit code, not a traceback
    name, obj = spec
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    if name.endswith(".ring"):
        runs = [["classify", str(path)], ["qf", str(path)]]
    else:
        runs = [["heller", os.path.join(RINGS, "f2x.ring" if "f2x" in name else "z4.ring"), str(path)]]
    for argv in runs:
        assert _run(argv, capsys)[0] in (0, 1, 2)
