import random

import pytest
from hypothesis import given, settings, strategies as st

from trimod import constructions as con
from trimod.classify import (
    classify,
    classify_local,
    has_unit_in_degree,
)
from trimod.errors import NotLocalInput
from trimod.rings import GradedRing, validate_ring


def f2x():
    return con.exterior_on_field(con.finite_field(2))


def f3x():
    return con.exterior_on_field(con.finite_field(3))


def test_has_unit_in_degree():
    E = con.laurent_exterior(3, 1, 2)
    assert has_unit_in_degree(E, 0)
    assert has_unit_in_degree(E, 4)
    assert not has_unit_in_degree(E, 3)
    assert not has_unit_in_degree(con.z_mod(4), 2)


def test_positive_table_n0():
    for R in [con.z_mod(4), con.finite_field(2), f2x(),
              con.product_ring(con.finite_field(2), con.z_mod(4)),
              con.product_ring(con.finite_field(3), f2x())]:
        v = classify(R, 0)
        assert v.is_delta, R


def test_negative_table_n0():
    cases = [
        (con.z_mod(9), "WrongCharacteristic"),
        (con.z_mod(8), "AnnihilatorNotPrincipalEqual"),
        (f3x(), "WrongCharacteristic"),
        (con.truncated_polynomial(5, 3), "AnnihilatorNotPrincipalEqual"),
        (con.square_zero_two_vars(2), "NotQuasiFrobenius"),
    ]
    for R, reason in cases:
        v = classify(R, 0)
        assert not v.is_delta, R
        assert v.first_reason == reason, (R, v.first_reason)


def test_local_kinds():
    assert classify_local(con.z_mod(4), 0).kind == "TMod4"
    assert classify_local(con.finite_field(4), 0).kind == "GradedField"
    lv = classify_local(f2x(), 0)
    assert lv.kind == "ExteriorAlgebra"
    assert lv.x_degree == 0 and lv.unit_degree_found == 0


def test_classify_local_rejects_nonlocal():
    with pytest.raises(NotLocalInput):
        classify_local(con.z_mod(6), 0)


def test_laurent_exterior_n1():
    E2 = con.laurent_exterior(3, 1, 2)
    v = classify(E2, 1)
    assert v.is_delta
    lv = v.factors[0][1]
    assert lv.kind == "ExteriorAlgebra"
    assert lv.unit_degree_found == 4
    E3 = con.laurent_exterior(3, 1, 3)
    v = classify(E3, 1)
    assert not v.is_delta
    lv = v.factors[0][1]
    assert lv.reason == "MissingUnitDegree" and lv.reason_detail == 4


def test_z4_fails_at_n1():
    v = classify(con.z_mod(4), 1)
    assert not v.is_delta
    assert v.first_reason == "OddSuspensionCharacteristicClash"


def test_galois_ring_positive_n0():
    v = classify(con.galois_ring_4_2(), 0)
    assert v.is_delta
    assert v.factors[0][1].kind == "TMod4"


def test_confidence_flag_outside_01():
    v = classify(f2x(), 2)
    assert v.confidence != "complete"
    v01 = classify(f2x(), 0)
    assert v01.confidence == "complete"


def test_verdict_serialization_keys():
    v = classify(con.z_mod(6), 0)
    d = v.to_dict()
    assert set(d) == {"is_delta", "suspension", "confidence", "factors"}
    for f in d["factors"]:
        assert set(f) == {"kind", "reason", "reason_detail", "x_degree", "unit_degree_found"}


def _permuted_rescaled(R, rng):
    """An isomorphic copy: permuted basis, each element rescaled by a unit scalar."""
    perm = list(range(R.dim))
    rng.shuffle(perm)
    inv = [0] * R.dim
    for new, old in enumerate(perm):
        inv[old] = new
    units = []
    for i in perm:
        choices = [u for u in range(1, R.orders[i]) if _coprime(u, R.orders[i])]
        units.append(rng.choice(choices))
    # new basis j corresponds to units[j] * old basis perm[j]
    uinv = [pow(u, _totient(R.orders[perm[j]]) - 1, R.orders[perm[j]]) for j, u in enumerate(units)]
    products = {}
    for (i, j), terms in R.products.items():
        ni, nj = inv[i], inv[j]
        scale = units[ni] * units[nj]
        newterms = []
        for c, k, t in terms:
            nk = inv[k]
            newterms.append((c * scale * uinv[nk], nk, t))
        products[(ni, nj)] = newterms
    unit = [(c * uinv[inv[k]], inv[k], t) for c, k, t in R.unit_terms]
    basis = [(R.basis_names[old], R.degrees[old]) for old in perm]
    orders = [R.orders[old] for old in perm]
    return validate_ring(GradedRing(R.char, basis, products, unit, periodicity=R.periodicity, orders=orders))


def _coprime(a, b):
    import math
    return math.gcd(a, b) == 1


def _totient(m):
    return sum(1 for a in range(1, m) if _coprime(a, m))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_classify_invariant_under_change_of_basis(seed):
    rng = random.Random(seed)
    pool = [
        con.z_mod(4), con.z_mod(8), con.z_mod(9), con.finite_field(4),
        con.galois_ring_4_2(), f2x(), f3x(), con.square_zero_two_vars(2),
        con.product_ring(con.finite_field(3), f2x()),
    ]
    R = rng.choice(pool)
    S = _permuted_rescaled(R, rng)
    for n in (0, 1):
        a, b = classify(R, n), classify(S, n)
        assert a.is_delta == b.is_delta
        assert sorted(lv.kind for _, lv in a.factors) == sorted(lv.kind for _, lv in b.factors)
        assert a.first_reason == b.first_reason
