import functools
import glob
import os
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from brute_force import (
    Factor,
    annihilator,
    double_annihilator_holds,
    enumerate_slice,
    oracle_is_delta,
    primitive_idempotents,
    principal_ideal,
    reference_algebra_generators,
    reference_maximal_ideal,
    ring_multiply,
    same_ideal,
    socle,
)
from hypothesis import given, settings, strategies as st
from test_classify import _permuted_rescaled
from test_quotient_oracle import key_without_names, reference_corner_ring
from test_validate_oracle import RINGS as VALIDATE_RINGS

from trimod import constructions as con
from trimod import linalg
from trimod import rings
from trimod import modules as md
from trimod.errors import (
    AssociativityViolation,
    CommutativityViolation,
    NoUnit,
    NotLocal,
    NotLocalInput,
    RingSpecError,
    SizeCapExceeded,
    UnsupportedCoefficients,
)
from trimod.classify import ANN_NOT_EQUAL, EXTERIOR, GRADED_FIELD, classify, has_unit_in_degree
from trimod.ringio import load_ring, parse_ring, serialize_ring
from trimod.rings import (
    GradedRing,
    Ideal,
    algebra_generators,
    decompose_product,
    idempotents,
    is_graded_field,
    is_local,
    is_quasi_frobenius,
    is_unit,
    maximal_ideal,
    residue_characteristic,
    residue_field,
    residue_size,
    validate_ring,
)


def elem(R, n):
    """n * 1 in R."""
    acc = R.zero()
    one = R.one()
    for _ in range(n):
        acc = acc + one
    return acc


def test_validate_rejects_nonassociative():
    # e*e = e but g*g = e, e*g = 0 breaks associativity
    products = {(0, 0): [(1, 0, 0)], (1, 1): [(1, 0, 0)]}
    R = GradedRing(2, [("e", 0), ("g", 0)], products, [(1, 0, 0)])
    with pytest.raises(RingSpecError):
        validate_ring(R)


def _unital(char, basis, products, periodicity=None):
    """A ring on basis[0] = 1 with the given further products."""
    table = {(0, j): [(1, j, 0)] for j in range(len(basis))}
    table.update({(j, 0): [(1, j, 0)] for j in range(len(basis))})
    table.update(products)
    return GradedRing(char, basis, table, [(1, 0, 0)], periodicity=periodicity)


F2_ABC = [("one", 0), ("a", 0), ("b", 0)]
F3_XYZ = [("one", 0), ("x", 1), ("y", 1), ("z", 2)]


@pytest.mark.parametrize("ring, error, indices", [
    # a^2 = b, ab = ba = a, b^2 = 0: (aa)b = 0 but a(ab) = b
    (_unital(2, F2_ABC, {(1, 1): [(1, 2, 0)], (1, 2): [(1, 1, 0)], (2, 1): [(1, 1, 0)]}),
     AssociativityViolation, (1, 1, 2)),
    (_unital(2, F2_ABC, {(1, 2): [(1, 1, 0)]}), CommutativityViolation, (1, 2)),
    # odd-degree x, y must anticommute in characteristic 3: yx = -xy
    (_unital(3, F3_XYZ, {(1, 2): [(1, 3, 0)], (2, 1): [(1, 3, 0)]}), CommutativityViolation, (1, 2)),
    # periodic, |x| = 1, |y| = 2: x^2 = y would have to equal -x^2
    (_unital(3, [("one", 0), ("x", 1)], {(1, 1): [(1, 0, 1)]}, ("y", 2)), CommutativityViolation, (1, 1)),
    # periodic, |a| = 1, |v| = 1: a^2 = b v^2, ab = ba = a, b^2 = 0
    (_unital(2, [("one", 0), ("a", 1), ("b", 0)],
             {(1, 1): [(1, 2, 2)], (1, 2): [(1, 1, 0)], (2, 1): [(1, 1, 0)]}, ("v", 1)),
     AssociativityViolation, (1, 1, 2)),
])
def test_validate_names_first_violation(ring, error, indices):
    with pytest.raises(error) as info:
        validate_ring(ring)
    assert info.value.indices == indices


@pytest.mark.parametrize("build", [lambda: con.truncated_polynomial(4, 2), lambda: con.truncated_polynomial(3, 0),
                                   lambda: con.group_algebra_cyclic(2, -1), lambda: con.group_algebra_cyclic(6, 1),
                                   lambda: con.group_algebra_cyclic(4, 10 ** 4)])
def test_bad_group_parameters_rejected(build):
    with pytest.raises(RingSpecError):
        build()


def test_validate_accepts_graded_signs():
    # the exterior algebra on x, y of degree 1 over F_3: yx = -xy, and the
    # checks of the generators x and y pass with that sign
    R = validate_ring(_unital(3, F3_XYZ, {(1, 2): [(1, 3, 0)], (2, 1): [(2, 3, 0)]}))
    assert algebra_generators(R) == [1, 2]
    assert [rings._associator(R, s) for s in (1, 2)] == [None, None]


def test_generator_check_sums_modulo_the_orders():
    # F_3[x, y]/(x^2, y^3) on z = 2xy, w = y^2, u = xy^2: (xy)y = 2z.y = 4u
    # and x(yy) = x.w = u agree modulo 3 only
    products = {(1, 2): [(2, 3, 0)], (2, 1): [(2, 3, 0)], (2, 2): [(1, 4, 0)], (1, 4): [(1, 5, 0)],
                (4, 1): [(1, 5, 0)], (2, 3): [(2, 5, 0)], (3, 2): [(2, 5, 0)]}
    R = validate_ring(_unital(3, [(name, 0) for name in ("one", "x", "y", "z", "w", "u")], products))
    assert algebra_generators(R) == [1, 2]
    assert [rings._associator(R, s) for s in (1, 2)] == [None, None]


def test_validate_rings_over_a_prime_whose_square_passes_int64():
    # the spin is exact at every prime, so t alone generates F_p[t]/(t^3)
    p = 2 ** 61 - 1
    assert con.z_mod(p).dim == 1 and con.truncated_polynomial(p, 2).dim == 2
    assert algebra_generators(con.truncated_polynomial(p, 3)) == [1]
    # a a = b, b b = a and a b = 0: (a a) b = a, but a (a b) = 0; a spins 1
    # to the whole ring, and its associator names the failure
    R = _unital(p, [("one", 0), ("a", 0), ("b", 0)], {(1, 1): [(1, 2, 0)], (2, 2): [(1, 1, 0)]})
    assert algebra_generators(R) == reference_algebra_generators(R) == [1]
    with pytest.raises(AssociativityViolation) as e:
        validate_ring(R)
    assert e.value.indices == (1, 1, 2)


def test_validate_rejects_bad_orders():
    with pytest.raises(RingSpecError):
        validate_ring(GradedRing(4, [("e", 0)], {(0, 0): [(1, 0, 0)]}, [(1, 0, 0)], orders=[3]))


_E = {(0, 0): [(1, 0, 0)]}


@pytest.mark.parametrize("ring, error, message", [
    (GradedRing(1, [("e", 0)], _E, [(1, 0, 0)]), RingSpecError, "characteristic 1 not supported"),
    (GradedRing(-2, [("e", 0)], _E, [(1, 0, 0)]), RingSpecError, "characteristic -2 not supported"),
    (GradedRing(2, [("2e", 0)], _E, [(1, 0, 0)]), RingSpecError, "bad identifier '2e'"),
    (GradedRing(3, [("e", 0)], _E, [(1, 0, 0)], periodicity=("1v", 2)), RingSpecError, "bad identifier '1v'"),
    (GradedRing(2, [("e", 0), ("e", 0)], _E, [(1, 0, 0)]), RingSpecError, "duplicate basis names"),
    (GradedRing(4, [("e", 0)], _E, [(1, 0, 0)], orders=[2]), RingSpecError, "lcm of the additive orders"),
    (GradedRing(3, [("e", 0)], _E, [(1, 0, 0)], periodicity=("y", 0)), RingSpecError, "period must be positive"),
    (GradedRing(4, [("e", 0)], _E, [(1, 0, 0)], periodicity=("y", 2)), UnsupportedCoefficients,
     "periodic rings need field coefficients"),
    (GradedRing(2, [("e", 0)], {(0, 0): [(1, 0, 1)]}, [(1, 0, 0)]), RingSpecError,
     "v powers require a periodicity declaration"),
    (GradedRing(2, [("e", 0)], {**_E, (0, 3): [(1, 0, 0)]}, [(1, 0, 0)]), RingSpecError,
     "product index (0, 3) out of range"),
    # f has order 2, so 2 (f f) = 2 e must vanish in Z/4
    (GradedRing(4, [("e", 0), ("f", 0)], {**_E, (0, 1): [(1, 1, 0)], (1, 0): [(1, 1, 0)], (1, 1): [(1, 0, 0)]},
                [(1, 0, 0)], orders=[4, 2]), RingSpecError, "product of basis 1,1 incompatible with additive orders"),
    (GradedRing(2, [("e", 0), ("x", 1)], _E, [(1, 1, 0)]), NoUnit, "unit element must have degree 0"),
    (GradedRing(2, [("e", 0), ("x", 1)], _E, [(1, 0, 0), (1, 1, 0)]), NoUnit,
     "unit element must be homogeneous of degree 0"),
    (GradedRing(2, [("e", 0)], _E, [(1, 0, 1)]), NoUnit, "unit element has v powers but the ring has no periodicity"),
])
def test_validate_names_what_is_wrong(ring, error, message):
    with pytest.raises(error) as info:
        validate_ring(ring)
    assert message in str(info.value)


@pytest.mark.parametrize("products, unit", [({(0, 0): [(1, 5, 0)]}, [(1, 0, 0)]),
                                            ({(0, 0): [(1, -1, 0)]}, [(1, 0, 0)]),
                                            (_E, [(1, 4, 0)])])
def test_term_index_out_of_range_is_a_ring_spec_error(products, unit):
    # a term names a basis element by its index, which the ring checks
    # before it reduces the term modulo that element's order
    with pytest.raises(RingSpecError, match="term index -?[0-9] out of range"):
        GradedRing(2, [("e", 0)], products, unit)


def test_units_z4():
    R = con.z_mod(4)
    assert is_unit(elem(R, 1))
    assert is_unit(elem(R, 3))
    assert not is_unit(elem(R, 2))
    assert not is_unit(R.zero())


def test_idempotents_z6():
    R = con.z_mod(6)
    # the primitive ones: 3 for the factor Z/2, 4 for Z/3
    assert [sum(e.terms.values()) % 6 for e in idempotents(R)] == [3, 4]


def test_decompose_z6():
    R = con.z_mod(6)
    sizes = sorted(f.size() for f in decompose_product(R))
    assert sizes == [2, 3]
    for f in decompose_product(R):
        assert is_local(f)


def test_decompose_f2_times_z4():
    R = con.product_ring(con.finite_field(2), con.z_mod(4))
    sizes = sorted(f.size() for f in decompose_product(R))
    assert sizes == [2, 4]
    small, big = sorted(decompose_product(R), key=lambda f: f.size())
    assert big.char == 4
    assert is_local(big)


def test_decompose_f3_times_f2x():
    f2x = con.exterior_on_field(con.finite_field(2))
    R = con.product_ring(con.finite_field(3), f2x)
    sizes = sorted(f.size() for f in decompose_product(R))
    assert sizes == [3, 4]


@pytest.mark.parametrize("q", [6, 8, 9, 1])
def test_finite_field_refuses_an_order_with_no_constructor(q):
    # z_mod(q) is no field here: F_8 would come out as Z/8, F_6 as Z/6
    with pytest.raises(RingSpecError, match=f"q={q}"):
        con.finite_field(q)


@pytest.mark.parametrize("p", [4, 6, 1])
def test_square_zero_two_vars_refuses_a_composite_characteristic(p):
    with pytest.raises(RingSpecError, match=f"p={p}"):
        con.square_zero_two_vars(p)


@pytest.mark.parametrize("base", [lambda: con.z_mod(6), lambda: con.z_mod(4),
                                  lambda: con.square_zero_two_vars(2)])
def test_exterior_on_field_refuses_a_base_that_is_no_field(base):
    # over Z/6 the result classified as [ExteriorAlgebra, NotDelta]
    with pytest.raises(UnsupportedCoefficients, match="finite field"):
        con.exterior_on_field(base())


def test_local_cases():
    assert is_local(con.z_mod(4))
    assert is_local(con.z_mod(8))
    assert is_local(con.z_mod(9))
    assert not is_local(con.z_mod(6))
    assert is_local(con.finite_field(4))
    assert is_local(con.exterior_on_field(con.finite_field(2)))
    assert is_local(con.square_zero_two_vars(2))
    assert is_local(con.galois_ring_4_2())
    assert not is_local(con.product_ring(con.finite_field(2), con.z_mod(4)))


def test_local_big_prime_char():
    # size 3^27 is far past brute force; exercised through the p-power map
    R = con.group_algebra_cyclic(3, 3)
    assert is_local(R)


def test_characteristic_past_trial_division_answers_at_once():
    # two primes near 10**9: the composite cofactor has no factor below the
    # trial bound, so locality refuses it by name instead of dividing to 10**9
    c = (10 ** 9 + 7) * (10 ** 9 + 9)
    start = time.perf_counter()
    with pytest.raises(UnsupportedCoefficients, match=str(c)):
        classify(con.z_mod(c), 0)
    assert time.perf_counter() - start < 1
    # a prime cofactor is taken at once
    assert rings._prime_powers(8 * (10 ** 9 + 7)) == [(2, 8), (10 ** 9 + 7, 10 ** 9 + 7)]


def test_graded_composite_characteristic():
    # Z/4[x]/(x^2) with |x| = 1: the nonunits of its slices give m = (2, x)
    R = validate_ring(_unital(4, [("one", 0), ("x", 1)], {}))
    x = R.basis_element(1)
    assert is_local(R) and not is_unit(x) and is_unit(elem(R, 3))
    assert same_ideal(maximal_ideal(R), Ideal.from_generators(R, [elem(R, 2), x]))
    assert residue_field(R).size() == 2
    assert is_quasi_frobenius(R)
    assert same_ideal(annihilator(R, x), principal_ideal(R, x))
    assert same_ideal(socle(R), principal_ideal(R, elem(R, 2) * x))


def test_zero_unit_terms_dropped():
    R = _unital(3, [("one", 0), ("x", 1)], {})
    S = GradedRing(3, [("one", 0), ("x", 1)], R.products, [(1, 0, 0), (3, 1, 0)])
    assert validate_ring(S) == validate_ring(R)


def test_maximal_ideal_sizes():
    assert maximal_ideal(con.z_mod(4)).size() == 2
    assert maximal_ideal(con.z_mod(8)).size() == 4
    assert maximal_ideal(con.z_mod(9)).size() == 3
    assert maximal_ideal(con.finite_field(5)).size() == 1
    assert maximal_ideal(con.square_zero_two_vars(2)).size() == 4


def test_residue_field_basics():
    k = residue_field(con.z_mod(4))
    assert k.size() == 2
    k = residue_field(con.galois_ring_4_2())
    assert k.size() == 4
    assert is_graded_field(k)
    k = residue_field(con.square_zero_two_vars(3))
    assert k.size() == 3


def test_residue_size_counts_one_period():
    # a periodic ring has no size, and its residue field is counted over one
    # period of degrees, as the maximal ideal is
    assert residue_size(con.laurent_exterior(3, 1, 4)) == 3
    assert residue_size(con.laurent_field(5, 2)) == 5
    assert residue_size(con.z_mod(9)) == 3
    # over Q the residue field is infinite
    with pytest.raises(UnsupportedCoefficients):
        residue_size(con.laurent_field(0, 2))


def test_residue_characteristic():
    assert residue_characteristic(con.z_mod(4)) == 2
    assert residue_characteristic(con.z_mod(9)) == 3
    assert residue_characteristic(con.galois_ring_4_2()) == 2


def test_annihilators_z8():
    R = con.z_mod(8)
    two, four = elem(R, 2), elem(R, 4)
    assert annihilator(R, two).size() == 2
    assert annihilator(R, two).contains(four)
    assert annihilator(R, four).size() == 4
    assert same_ideal(annihilator(R, four), principal_ideal(R, two))


def test_annihilator_equality_z4():
    R = con.z_mod(4)
    two = elem(R, 2)
    assert same_ideal(annihilator(R, two), principal_ideal(R, two))


def test_double_annihilator():
    assert double_annihilator_holds(con.z_mod(4)) == (True, None)
    assert double_annihilator_holds(con.z_mod(8))[0] is True
    assert double_annihilator_holds(con.truncated_polynomial(5, 3))[0] is True
    ok, witness = double_annihilator_holds(con.square_zero_two_vars(2))
    assert not ok and witness is not None


def test_socle_and_qf():
    assert socle(con.z_mod(4)).size() == 2
    assert socle(con.square_zero_two_vars(2)).size() == 4
    assert is_quasi_frobenius(con.z_mod(4))
    assert is_quasi_frobenius(con.z_mod(8))
    assert is_quasi_frobenius(con.exterior_on_field(con.finite_field(2)))
    assert is_quasi_frobenius(con.truncated_polynomial(5, 3))
    assert not is_quasi_frobenius(con.square_zero_two_vars(2))
    assert is_quasi_frobenius(con.product_ring(con.finite_field(2), con.z_mod(4)))


def test_ideal_size_counts_one_period():
    # a periodic ring is infinite; its ideals are counted over degree_support,
    # as socle_is_simple compares them with one period of the ring
    for p in (3, 5):
        R = con.laurent_exterior(p, 1, 4)
        assert R.size() is None and R.degree_support() == [0, 1]
        assert maximal_ideal(R).size() == p == socle(R).size()
        assert is_quasi_frobenius(R)


def test_ring_predicates_once_per_ring(monkeypatch):
    calls = []
    degree_zero = rings._degree_zero_mod_p

    def counted(R):
        calls.append(R)
        return degree_zero(R)

    monkeypatch.setattr(rings, "_degree_zero_mod_p", counted)
    k = md.residue_module(con.truncated_polynomial(3, 3))
    md.stable_hom(k, k)
    first = len(calls)
    md.stable_hom(md.heller_shift(k), k)
    assert first > 0 and len(calls) == first


def test_failed_cap_is_not_cached():
    # a per-object call that raises leaves nothing in the ring's cache
    R = con.z_mod(6)
    with pytest.raises(NotLocal):
        maximal_ideal(R)
    assert ("maximal_ideal",) not in R._cache


def test_periodic_graded_field():
    K = con.laurent_field(3, 2)
    assert is_graded_field(K)
    assert is_local(K)
    E = con.laurent_exterior(3, 1, 2)
    assert not is_graded_field(E)
    assert is_local(E)


def test_periodic_annihilator():
    E = con.laurent_exterior(3, 1, 2)
    x = E.basis_element(1)
    assert same_ideal(annihilator(E, x), principal_ideal(E, x))
    assert double_annihilator_holds(E) == (True, None)


def test_periodic_odd_period():
    # the distinguished periodicity unit commutes strictly, so an odd
    # period is allowed in any characteristic
    K = con.laurent_field(3, 3)
    assert is_graded_field(K)
    E = con.laurent_exterior(3, 1, 3)
    assert is_local(E)


def test_rational_idempotents():
    R = validate_ring(GradedRing(0, [("e", 0)], {(0, 0): [(1, 0, 0)]}, [(1, 0, 0)]))
    assert [sum(e.terms.values(), Fraction(0)) for e in idempotents(R)] == [1]


def test_rational_field_is_quasi_frobenius():
    # Q is a graded field, and a graded field is self-injective, so qf
    # agrees with classify at either suspension
    Q = validate_ring(GradedRing(0, [("e", 0)], _E, [(1, 0, 0)]))
    assert is_graded_field(Q) and is_quasi_frobenius(Q)
    for n in (0, 1):
        verdict = classify(Q, n)
        assert verdict.is_delta and [lv.kind for _, lv in verdict.factors] == [GRADED_FIELD]
    # Q[x]/(x^2) with |x| = 2 is no field, and over Q nothing else is classified
    with pytest.raises(NotLocalInput, match="rational non-field"):
        classify(validate_ring(_unital(0, [("one", 0), ("x", 2)], {})), 0)


def test_duplicate_unit_terms_are_summed():
    # over F_5 the unit terms 1 + 1 declare the element 2, which is no unit
    table = {(0, 0): [(1, 0, 0)]}
    twice = GradedRing(5, [("e", 0)], table, [(1, 0, 0), (1, 0, 0)])
    assert twice.key() == GradedRing(5, [("e", 0)], table, [(2, 0, 0)]).key()
    assert twice.one() == twice.basis_element(0, coeff=2)
    with pytest.raises(NoUnit):
        validate_ring(twice)


def laurent_square(p=3, degree=2):
    """F_p[y, y^-1] x F_p[y, y^-1] on idempotents e, f with unit e + f."""
    table = {(0, 0): [(1, 0, 0)], (1, 1): [(1, 1, 0)]}
    return validate_ring(GradedRing(p, [("e", 0), ("f", 0)], table, [(1, 0, 0), (1, 1, 0)],
                                    periodicity=("y", degree)))


def laurent_x2_plus_1(p):
    """F_p[y, y^-1][x]/(x^2 + 1), |x| = 0, |y| = 2: a graded field for p = 3,
    a product of two for p = 5."""
    return validate_ring(_unital(p, [("one", 0), ("x", 0)], {(1, 1): [(p - 1, 0, 0)]}, ("y", 2)))


def test_qf_refuses_periodic_nonlocal():
    # a product of graded fields is self-injective, and periodic rings split
    R = laurent_square()
    assert not is_local(R)
    assert is_quasi_frobenius(R)
    assert [lv.kind for _, lv in classify(R, 0).factors] == [GRADED_FIELD, GRADED_FIELD]


# ---------------------------------------------------------------------------
# locality and the maximal ideal against enumeration
# ---------------------------------------------------------------------------

def _small_finite():
    rings_ = [con.z_mod(m) for m in (2, 3, 4, 6, 8, 9, 12, 16, 25, 27)]
    rings_ += [con.galois_ring_4_2(), con.finite_field(4), con.square_zero_two_vars(2),
               con.truncated_polynomial(3, 3), con.exterior_on_field(con.finite_field(4), 1)]
    # Z/q[x]/(x^2) with graded x
    rings_ += [validate_ring(_unital(q, [("one", 0), ("x", d)], {})) for q in (2, 3, 4, 8, 9) for d in (0, 1, 2)]
    return rings_


def _small_periodic():
    rings_ = []
    for p in (2, 3, 5):
        rings_ += [con.laurent_field(p, d) for d in (1, 2, 3)]
        rings_ += [con.laurent_exterior(p, i, d) for i in (0, 1, 2) for d in (1, 2, 4)]
        rings_ += [laurent_square(p, 2),
                   # x^2 = y: x is a unit of degree 2
                   validate_ring(_unital(p, [("one", 0), ("x", 2)], {(1, 1): [(1, 0, 1)]}, ("y", 4))),
                   laurent_x2_plus_1(p)]
    return rings_


FINITE, PERIODIC = _small_finite(), _small_periodic()


def _random_ring(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(PERIODIC)
    small = [R for R in FINITE if R.size() <= 16]
    R = con.product_ring(rng.choice(small), rng.choice(small)) if kind == 1 else rng.choice(FINITE)
    return _permuted_rescaled(R, rng) if rng.random() < 0.5 else R


def _frobenius_by_elements(R, p, pos):
    """b**p for the degree-0 basis elements b at the slice positions pos, by
    RingElement products: their coordinates at pos, mod p."""
    n, out = len(R.slice_terms(0)), []
    for j in pos:
        b = R.from_slice_coords(0, [int(k == j) for k in range(n)])
        power = R.slice_coords(functools.reduce(lambda x, _: x * b, range(p - 1), b), 0)
        out.append([power[k] % p for k in pos])
    return out


def _frobenius_matches_element_powers(R):
    for p, _, pos, F, _ in rings._degree_zero_mod_p(R):
        assert F.T.tolist() == _frobenius_by_elements(R, p, pos)


@pytest.mark.parametrize("R", FINITE + PERIODIC, ids=repr)
def test_frobenius_matches_element_powers_on_the_constructors(R):
    _frobenius_matches_element_powers(R)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_frobenius_matches_element_powers_on_random_rings(seed):
    _frobenius_matches_element_powers(_random_ring(random.Random(seed)))


def _coords(x):
    """Basis coordinates of a homogeneous element, its v powers dropped."""
    v = [0] * x.ring.dim
    for (k, _), c in x.terms.items():
        v[k] = c
    return v


def _spin_by_elements(R, gens):
    """The additive span of the words b_s1 (b_s2 (... 1)), s_i in gens, by
    element arithmetic through `brute_force.ring_multiply`."""
    span, todo = linalg.Subgroup([], R.orders), [R.one()]
    while todo:
        x = todo.pop()
        if not span.contains(_coords(x)):
            span = span.extend([_coords(x)])
            todo += [ring_multiply(R.basis_element(s), x) for s in gens]
    return span


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.data())
def test_algebra_generators_spin_the_unit_to_the_ring(seed, data):
    R = data.draw(st.sampled_from(VALIDATE_RINGS)) if data.draw(st.booleans()) else _random_ring(random.Random(seed))
    gens = algebra_generators(R)
    # the spin grown in place keeps the generators of one grown by extend
    assert gens == reference_algebra_generators(R)
    # R is a ring, so every generator check passes without the full loop
    assert all(rings._associator(R, s) is None for s in gens)
    products = [_coords(ring_multiply(R.basis_element(i), R.basis_element(j)))
                for i in range(R.dim) for j in range(R.dim)]
    assert _spin_by_elements(R, gens) == linalg.Subgroup(products, R.orders)
    # greedy in basis order: b_i joins exactly when the earlier ones miss it
    for i in range(R.dim):
        earlier = _spin_by_elements(R, [s for s in gens if s < i])
        assert (i in gens) == (not earlier.contains(_coords(R.basis_element(i))))


# Z/m-lane spins: mixed or composite orders
HERMITE_SPINS = [con.z_mod(8), con.galois_ring_4_2(), con.product_ring(con.z_mod(4), con.finite_field(2)),
                 con.product_ring(con.z_mod(8), con.galois_ring_4_2()), con.product_ring(con.z_mod(9), con.z_mod(4))]


def test_algebra_generators_match_the_extended_spin():
    # the spin grown in place keeps the generators of one grown by extend
    for R in VALIDATE_RINGS + HERMITE_SPINS:
        assert algebra_generators(R) == reference_algebra_generators(R), R


def test_algebra_generators_stop_once_the_spin_is_whole(monkeypatch):
    # t spins 1 to all of F_2[t]/t^16: membership is asked of b_0 and b_1
    # only, in the one spin that validating the ring makes
    calls = []
    contains = linalg.Subgroup.contains
    monkeypatch.setattr(linalg.Subgroup, "contains", lambda S, v: calls.append(v) or contains(S, v))
    R = con.truncated_polynomial(2, 16)
    assert len(calls) == 2 and algebra_generators(R) == [1]


def test_ring_equality_ignores_the_order_of_unit_terms():
    # F_2 x F_2 on e, f with the unit e + f listed both ways
    table = {(0, 0): [(1, 0, 0)], (1, 1): [(1, 1, 0)]}
    R, S = (validate_ring(GradedRing(2, [("e", 0), ("f", 0)], table, unit))
            for unit in ([(1, 0, 0), (1, 1, 0)], [(1, 1, 0), (1, 0, 0)]))
    assert R == S and hash(R) == hash(S)
    assert R.one().terms == S.one().terms
    assert md.iso_test(md.free_module(R, 1), md.free_module(S, 1))


def test_ring_equality_sums_and_sorts_product_terms():
    # F_4 = F_2[g]/(g^2 + g + 1) with g*g = g + 1 listed both ways, and with
    # the 1 written three times
    table = {(0, 0): [(1, 0, 0)], (0, 1): [(1, 1, 0)], (1, 0): [(1, 1, 0)]}
    R, S, T = (validate_ring(GradedRing(2, [("one", 0), ("g", 0)], {**table, (1, 1): gg}, [(1, 0, 0)]))
               for gg in ([(1, 1, 0), (1, 0, 0)], [(1, 0, 0), (1, 1, 0)], [(1, 1, 0)] + [(1, 0, 0)] * 3))
    for X in (S, T):
        assert X == R and hash(X) == hash(R)
        assert serialize_ring(X) == serialize_ring(R)
        assert md.iso_test(md.free_module(R, 1), md.free_module(X, 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_random_rings_round_trip_through_ring_files(seed):
    # the unit is solved for again on parsing, and is not always a basis element
    R = _random_ring(random.Random(seed))
    assert parse_ring(serialize_ring(R)) == R


def _random_homogeneous(R, q, rng):
    """A random element of the degree-q slice of R."""
    if R.char == 0:
        return R.from_slice_coords(q, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in R.slice_terms(q)])
    return R.from_slice_coords(q, [rng.randrange(m) for m in R.slice_moduli(R.slice_terms(q))])


# Q[z^-1, z] over y = z^2, |z| = 2, z * z = y / 2: the product of z with
# itself carries a v power
RATIONAL_PERIODIC = validate_ring(_unital(0, [("one", 0), ("z", 2)], {(1, 1): [(Fraction(1, 2), 0, 1)]}, ("y", 4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_products_with_v_powers_match_pairwise_products(seed):
    rng = random.Random(seed)
    R = rng.choice(PERIODIC + [RATIONAL_PERIODIC])
    d = R.periodicity[1]
    for _ in range(5):
        # degrees over four periods, v powers of both signs
        qx, qy = rng.randint(-2 * d, 2 * d), rng.randint(-2 * d, 2 * d)
        x, y = _random_homogeneous(R, qx, rng), _random_homogeneous(R, qy, rng)
        assert x * y == ring_multiply(x, y)
        # v commutes strictly, so the graded sign needs |v| even or char 2
        if d % 2 == 0 or R.char == 2:
            assert x * y == y * x * (-1 if qx * qy % 2 else 1)


def _nonunits_by_enumeration(R, q):
    """Coordinates of the nonzero nonunits of the degree-q slice."""
    return [R.slice_coords(x, q) for x in enumerate_slice(R, q) if not x.is_zero and not is_unit(x)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_locality_matches_enumeration(seed):
    R = _random_ring(random.Random(seed))
    spans, local = {}, True
    for q in R.degree_support():
        nonunits = _nonunits_by_enumeration(R, q)
        spans[q] = linalg.Subgroup(nonunits, R.slice_moduli(R.slice_terms(q)))
        # nonunits contain 0 and are closed under negation, so they form a
        # subgroup exactly when they are as many as their span
        local = local and spans[q].size() == len(nonunits) + 1
    assert is_local(R) == local
    assert is_graded_field(R) == (local and all(span.rank == 0 for span in spans.values()))
    if not local:
        with pytest.raises(NotLocal):
            maximal_ideal(R)
        return
    m, ref = maximal_ideal(R), reference_maximal_ideal(R)
    assert m.slices == spans == ref.slices and m.generators == ref.generators
    assert residue_characteristic(R) == next(k for k in range(1, R.char + 1) if not is_unit(elem(R, k)))
    assert idempotents(R) == [R.one()]
    assert [e for e in enumerate_slice(R, 0) if ring_multiply(e, e) == e] == [R.zero(), R.one()]
    for d in range(-4, 5):
        assert has_unit_in_degree(R, d) == any(is_unit(x) for x in enumerate_slice(R, d))


RING_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "rings", "*.ring")))


def _maximal_ideal_rings():
    """Factors of the ring files, the group algebras of the generation
    verdicts, Laurent rings over F_2, F_3, F_5 and further small rings,
    among them periodic ones with units in nonzero degrees."""
    rings_ = [F for path in RING_FILES for F in decompose_product(load_ring(path))]
    rings_ += [con.group_algebra_cyclic(p, n) for p, top in ((2, 5), (3, 3), (5, 1)) for n in range(1, top + 1)]
    rings_ += [con.laurent_exterior(p, i, d) for p in (2, 3, 5) for i in range(-2, 3) for d in (1, 2, 3, 4, 5, 7)]
    rings_ += [con.z_mod(m) for m in (2, 4, 8, 9, 16, 25, 27)]
    rings_ += [con.truncated_polynomial(p, e, degree) for p, e in ((2, 4), (3, 3), (5, 2)) for degree in (0, 2, -2)]
    return rings_ + [con.galois_ring_4_2(), con.finite_field(4), con.square_zero_two_vars(2),
                     con.square_zero_two_vars(3), con.laurent_field(3, 2), con.exterior_on_field(con.finite_field(4), 1),
                     *FINITE, *PERIODIC]


def _maximal_ideal_outcome(find, R):
    try:
        m = find(R)
    except NotLocal as e:
        return str(e)
    return m.slices, m.generators


def test_maximal_ideal_matches_the_per_slice_system():
    # m_0 = m0 and a finite ring's whole slices agree with solving
    # x R_{-q} in m0 at every degree
    for R in _maximal_ideal_rings():
        assert _maximal_ideal_outcome(maximal_ideal, R) == _maximal_ideal_outcome(reference_maximal_ideal, R), R


@pytest.mark.parametrize("build, calls", [
    (lambda: con.group_algebra_cyclic(2, 3), 0),
    (lambda: con.z_mod(8), 0),
    (lambda: con.truncated_polynomial(3, 3, 2), 0),
    (lambda: con.exterior_on_field(con.finite_field(4), 1), 0),
    # one degree of one period: m0 alone
    (lambda: con.laurent_field(3, 2), 0),
    # |x| = 1 and |y| = 2: the slice of degree 1 solves its system
    (lambda: con.laurent_exterior(3, 1, 2), 2),
], ids=["F2[C8]", "Z/8", "F3[t]/t3", "F4[x]/x2", "F3[y, 1/y]", "F3[y, 1/y][x]/x2"])
def test_maximal_ideal_solves_systems_only_on_periodic_rings(monkeypatch, build, calls):
    R, seen = build(), []
    for name in ("quotient_presentation", "congruence_kernel"):
        inner = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, inner=inner, name=name: seen.append(name) or inner(*a))
    maximal_ideal(R)
    assert len(seen) == calls


def test_periodic_exterior_past_the_enumeration_cap():
    # every slice has 4099 elements
    R = con.laurent_exterior(4099, 1, 2)
    assert [lv.kind for _, lv in classify(R, 1).factors] == [EXTERIOR]
    assert is_quasi_frobenius(R)


def test_z_mod_past_the_enumeration_cap():
    assert classify(con.z_mod(2 ** 13), 0).first_reason == ANN_NOT_EQUAL


def test_rational_periodic_is_unsupported():
    R = con.laurent_exterior(0, 1, 4)
    with pytest.raises(UnsupportedCoefficients):
        classify(R, 1)
    with pytest.raises(UnsupportedCoefficients):
        is_quasi_frobenius(R)


# ---------------------------------------------------------------------------
# idempotents and products against enumeration
# ---------------------------------------------------------------------------

def laurent_field_times_exterior():
    """F_3[y, y^-1] x F_3[y, y^-1][x]/(x^2), |x| = 1, |y| = 2, on e, f, fx."""
    table = {(0, 0): [(1, 0, 0)], (1, 1): [(1, 1, 0)], (1, 2): [(1, 2, 0)], (2, 1): [(1, 2, 0)]}
    return validate_ring(GradedRing(3, [("e", 0), ("f", 0), ("x", 1)], table, [(1, 0, 0), (1, 1, 0)],
                                    periodicity=("y", 2)))


SMALL = [R for R in FINITE if R.size() <= 9]
PERIODIC_PRODUCTS = [laurent_square(3), laurent_square(5, 1), laurent_x2_plus_1(3), laurent_x2_plus_1(5),
                     laurent_field_times_exterior()]


def _random_product(rng):
    """A permuted, rescaled product of two or three small rings, or a
    periodic ring with idempotents in degree 0."""
    if rng.random() < 0.2:
        R = rng.choice(PERIODIC_PRODUCTS)
    else:
        R = rng.choice(SMALL)
        for _ in range(rng.choice((1, 2))):
            R = con.product_ring(R, rng.choice(SMALL))
    return _permuted_rescaled(R, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_products_split_as_enumeration(seed):
    R = _random_product(random.Random(seed))
    prim = primitive_idempotents(R)
    assert idempotents(R) == prim
    if len(prim) > 1:
        assert [key_without_names(F) for F in decompose_product(R)] == \
            [key_without_names(reference_corner_ring(R, e)) for e in prim]
    if any(R.degrees):
        return
    # R is R0, or R0[y, y^-1]: its corner rings by enumeration are its factors
    assert is_quasi_frobenius(R) == all(Factor(R, e).socle_is_simple() for e in prim)
    if R.is_finite and R.size() <= 16:
        for n in (0, 1):
            assert classify(R, n).is_delta == oracle_is_delta(R, n)


@pytest.mark.parametrize("R, verdict", [
    # degree-0 slices of 39366 and 32768 elements
    (con.product_ring(con.truncated_polynomial(3, 9), con.finite_field(2)),
     ["GradedField", "NotDelta(AnnihilatorNotPrincipalEqual)"]),
    (con.product_ring(con.z_mod(4), con.truncated_polynomial(2, 13)),
     ["NotDelta(AnnihilatorNotPrincipalEqual)", "TMod4"]),
    # a large prime: the split tries c = 0, 1, ... one at a time
    (con.product_ring(con.z_mod(10 ** 9 + 7), con.z_mod(10 ** 9 + 7)), ["GradedField", "GradedField"]),
], ids=["F3[t]/t^9 x F2", "Z/4 x F2[t]/t^13", "F_p x F_p, p = 10^9 + 7"])
def test_products_past_the_enumeration_cap(R, verdict):
    assert [repr(lv) for _, lv in classify(R, 0).factors] == verdict
    assert is_quasi_frobenius(R)


@pytest.mark.parametrize("R, n, kinds", [
    (laurent_x2_plus_1(5), 0, [GRADED_FIELD, GRADED_FIELD]),
    (laurent_x2_plus_1(5), 1, [GRADED_FIELD, GRADED_FIELD]),
    # the unit y^2 has degree 3|x| + 1
    (laurent_field_times_exterior(), 1, [EXTERIOR, GRADED_FIELD]),
], ids=["F5[y^-1, y][x]/(x^2+1), n=0", "F5[y^-1, y][x]/(x^2+1), n=1", "F3[y^-1, y] x F3[y^-1, y][x]/x^2, n=1"])
def test_periodic_products_split(R, n, kinds):
    assert [lv.kind for _, lv in classify(R, n).factors] == kinds
    assert is_quasi_frobenius(R)


def test_module_action_tables_above_the_cap_are_refused():
    cap = rings.MAX_TABLE_DIM
    # refused before the e**2 product table or the e**3 action table is built
    with pytest.raises(SizeCapExceeded):
        con.truncated_polynomial(2, cap + 1)
    with pytest.raises(SizeCapExceeded):
        con.group_algebra_cyclic(2, 9)
    R = GradedRing(2, [(f"b{j}", 0) for j in range(cap + 1)], {}, [(1, 0, 0)])
    with pytest.raises(SizeCapExceeded):
        md.free_module(R, 1).size()


def test_rings_above_the_table_cap_validate_and_classify():
    # F_2[t]/(t^257), |t| = 1: the ring layer reads the products alone
    e = rings.MAX_TABLE_DIM + 1
    R = validate_ring(GradedRing(
        2, [(f"t{j}" if j else "one", j) for j in range(e)],
        {(i, j): [(1, i + j, 0)] for i in range(e) for j in range(e - i)}, [(1, 0, 0)]))
    for n in (0, 1):
        assert [lv.reason for _, lv in classify(R, n).factors] == [ANN_NOT_EQUAL]
    assert is_quasi_frobenius(R)


def test_ring_predicates_build_no_dense_table():
    # a dim**3 table of dimension 81 alone would take 4.3 MB as int64
    tracemalloc.start()
    try:
        R = con.group_algebra_cyclic(3, 4)
        assert [lv.reason for _, lv in classify(R, 1).factors] == [ANN_NOT_EQUAL]
        assert is_quasi_frobenius(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


BOUNDARY_PRIME = 3037000493  # the largest prime p with p * p < 2**63


@pytest.mark.parametrize("build, kinds", [
    (lambda p: con.z_mod(p), ["GradedField"]),
    (lambda p: con.truncated_polynomial(p, 2), ["NotDelta(MissingUnitDegree(1))"]),
    (lambda p: con.laurent_exterior(p, 1, 4), ["ExteriorAlgebra"]),
    (lambda p: con.exterior_on_field(con.z_mod(p), 1), ["NotDelta(MissingUnitDegree(4))"]),
    (lambda p: con.product_ring(con.z_mod(p), con.truncated_polynomial(p, 2)),
     ["NotDelta(MissingUnitDegree(1))", "GradedField"]),
], ids=["Z/p", "F_p[t]/t^2", "laurent_exterior", "exterior_on_field", "product"])
def test_rings_at_the_int64_boundary_prime(build, kinds):
    R = build(BOUNDARY_PRIME)
    assert [repr(lv) for _, lv in classify(R, 1).factors] == kinds
    assert is_quasi_frobenius(R)
