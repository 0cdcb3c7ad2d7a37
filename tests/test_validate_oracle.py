"""validate_ring against an element-wise reference on corrupted product tables.

The reference checks the unit, graded commutativity and associativity by
multiplying basis elements one tuple at a time with
`brute_force.ring_multiply`; validate_ring checks the same
identities on the structure constants, associativity on the algebra
generators first.  Both must accept the same rings and reject the others with
the same error and the same first indices.
"""

import math
import re

import pytest
from brute_force import ring_multiply
from hypothesis import given, settings, strategies as st

from trimod import constructions as con
from trimod import linalg
from trimod import rings
from trimod.errors import (
    AssociativityViolation,
    CommutativityViolation,
    DegreeMismatch,
    NoUnit,
    RingSpecError,
    UnsupportedCoefficients,
)
from trimod.rings import GradedRing, validate_ring

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def reference_validate(ring):
    """validate_ring as loops over basis tuples, the elements multiplied by
    `brute_force.ring_multiply`."""
    R = ring
    if R.char < 0 or R.char == 1:
        raise RingSpecError(f"characteristic {R.char} not supported")
    for name in R.basis_names + ((R.periodicity[0],) if R.periodicity else ()):
        if not NAME_RE.match(name):
            raise RingSpecError(f"bad identifier {name!r}")
    if len(set(R.basis_names)) != len(R.basis_names):
        raise RingSpecError("duplicate basis names")
    if R.char == 0:
        pass
    else:
        for o in R.orders:
            if o < 2 or R.char % o != 0:
                raise RingSpecError(f"additive order {o} does not divide characteristic {R.char}")
        lcm = 1
        for o in R.orders:
            lcm = lcm * o // math.gcd(lcm, o)
        if lcm != R.char:
            raise RingSpecError("characteristic must be the lcm of the additive orders")
    if R.periodicity is not None:
        name, d = R.periodicity
        if d <= 0:
            raise RingSpecError("period must be positive")
        if R.char != 0 and not linalg.is_prime(R.char):
            raise UnsupportedCoefficients("periodic rings need field coefficients")
    else:
        for (i, j), terms in R.products.items():
            for c, k, t in terms:
                if t != 0:
                    raise RingSpecError("v powers require a periodicity declaration")
    # indices and degree homogeneity of the product table
    for (i, j), terms in R.products.items():
        if not (0 <= i < R.dim and 0 <= j < R.dim):
            raise RingSpecError(f"product index ({i}, {j}) out of range")
        want = R.degrees[i] + R.degrees[j]
        for c, k, t in terms:
            if not 0 <= k < R.dim:
                raise RingSpecError(f"product term index {k} out of range")
            have = R.degrees[k] + (t * R.periodicity[1] if R.periodicity else 0)
            if have != want:
                raise DegreeMismatch(f"product of basis {i},{j}: term {k} has degree {have}, expected {want}")
        if R.char != 0:
            # additive order of b_i kills b_i * b_j
            for o in (R.orders[i], R.orders[j]):
                for c, k, t in terms:
                    if (o * c) % R.orders[k] != 0:
                        raise RingSpecError(
                            f"product of basis {i},{j} incompatible with additive orders"
                        )
    one = R.one()
    try:
        if one.degree not in (0, None):
            raise NoUnit("unit element must have degree 0")
    except ValueError:
        raise NoUnit("unit element must be homogeneous of degree 0")
    for i in range(R.dim):
        b = R.basis_element(i)
        if ring_multiply(one, b) != b or ring_multiply(b, one) != b:
            raise NoUnit(f"1 * basis[{i}] != basis[{i}]")
    for i in range(R.dim):
        for j in range(R.dim):
            sign = -1 if (R.degrees[i] * R.degrees[j]) % 2 else 1
            lhs = ring_multiply(R.basis_element(i), R.basis_element(j))
            rhs = ring_multiply(R.basis_element(j), R.basis_element(i)) * sign
            if lhs != rhs:
                raise CommutativityViolation(i, j)
    for i in range(R.dim):
        for j in range(R.dim):
            for k in range(R.dim):
                bi, bj, bk = R.basis_element(i), R.basis_element(j), R.basis_element(k)
                if ring_multiply(ring_multiply(bi, bj), bk) != ring_multiply(bi, ring_multiply(bj, bk)):
                    raise AssociativityViolation(i, j, k)
    return R


RINGS = [
    con.z_mod(4),
    con.z_mod(9),
    con.truncated_polynomial(2, 4),
    con.truncated_polynomial(2, 3, degree=1),
    con.truncated_polynomial(3, 4, degree=2),
    con.exterior_on_field(con.finite_field(4)),
    con.exterior_on_field(con.finite_field(3), x_degree=1),
    con.galois_ring_4_2(),
    con.product_ring(con.z_mod(4), con.finite_field(2)),
    con.product_ring(con.finite_field(3), con.truncated_polynomial(3, 2)),
    con.laurent_exterior(3, 1, 2),
    con.laurent_exterior(2, 1, 3),
    con.laurent_exterior(5, 2, 4),
    # one generator, t: a corrupted table fails its check, and the loop over
    # every basis element then names the first violation
    con.group_algebra_cyclic(2, 3),
    con.truncated_polynomial(3, 9),
]


def _outcome(check, R):
    try:
        check(R)
    except RingSpecError as e:
        return type(e), str(e), getattr(e, "indices", None)
    return None


def _term_for(R, i, j, k):
    """The v power that puts basis[k] in the degree of basis[i] * basis[j],
    or None when no power does."""
    gap = R.degrees[i] + R.degrees[j] - R.degrees[k]
    if R.periodicity is None:
        return 0 if gap == 0 else None
    return gap // R.periodicity[1] if gap % R.periodicity[1] == 0 else None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tensor_validation_matches_reference(data):
    R = data.draw(st.sampled_from(RINGS))
    i = data.draw(st.integers(0, R.dim - 1))
    j = data.draw(st.integers(0, R.dim - 1))
    # mostly a term of the right degree, so that the check reaches the axioms
    fits = [k for k in range(R.dim) if _term_for(R, i, j, k) is not None]
    k = data.draw(st.sampled_from(fits) if fits and data.draw(st.integers(0, 9)) else st.integers(0, R.dim - 1))
    c = data.draw(st.integers(0, R.orders[k] - 1))
    t = _term_for(R, i, j, k) or 0
    products = {key: list(terms) for key, terms in R.products.items()}
    products[(i, j)] = [term for term in products.get((i, j), []) if term[1] != k] + [(c, k, t)]
    basis = list(zip(R.basis_names, R.degrees))
    corrupted = GradedRing(R.char, basis, products, R.unit_terms, R.periodicity, R.orders)
    assert _outcome(validate_ring, corrupted) == _outcome(reference_validate, corrupted)


def test_group_algebra_validates_on_its_one_generator(monkeypatch):
    # F_3[t]/t^81 is spun from 1 by t alone, so one generator check passes
    # and decides associativity, and no loop over the basis runs
    checks = []
    inner = rings._associator
    monkeypatch.setattr(rings, "_associator", lambda R, s: checks.append((s, inner(R, s))) or checks[-1][1])
    con.group_algebra_cyclic(3, 4)
    assert checks == [(1, None)]


def _corrupted(R, key, terms):
    """R with the product at key replaced by terms."""
    products = {**R.products, key: terms}
    return GradedRing(R.char, list(zip(R.basis_names, R.degrees)), products, R.unit_terms, R.periodicity, R.orders)


@pytest.mark.parametrize("R, key, terms, error, message", [
    # orders 4 and 2: b_e b_e = a_e is not killed by 2
    (con.product_ring(con.z_mod(4), con.finite_field(2)), (1, 1), [(1, 0, 0)], RingSpecError,
     "product of basis 1,1 incompatible with additive orders"),
    # |x| = 1, an odd sign: x x = y would have to equal -x x, through the
    # fallback's signed diff
    (con.laurent_exterior(3, 1, 2), (1, 1), [(1, 0, 1)], CommutativityViolation, "(1, 1)"),
    # every sign +1, g x = x but x g is still g x: the table differs from
    # its transpose, and the fallback names the pair
    (con.exterior_on_field(con.finite_field(4)), (1, 2), [(1, 2, 0)], CommutativityViolation, "(1, 2)"),
], ids=["mixed-orders", "odd-sign", "transpose"])
def test_corrupted_tables_name_the_first_violation(R, key, terms, error, message):
    corrupted = _corrupted(R, key, terms)
    with pytest.raises(error, match=re.escape(message)):
        validate_ring(corrupted)
    assert _outcome(validate_ring, corrupted) == _outcome(reference_validate, corrupted)
