"""Builders for the stock rings used in tests, demos, and the bundled corpus."""

from __future__ import annotations

import math

from . import linalg
from .errors import RingSpecError, SizeCapExceeded, UnsupportedCoefficients
from .rings import MAX_TABLE_DIM, GradedRing, is_graded_field, validate_ring


def z_mod(m: int) -> GradedRing:
    """The ring of integers modulo m."""
    if m < 2:
        raise RingSpecError("modulus must be at least 2")
    R = GradedRing(m, [("e", 0)], {(0, 0): [(1, 0, 0)]}, [(1, 0, 0)])
    return validate_ring(R)


def truncated_polynomial(p: int, e: int, name: str = "t", degree: int = 0) -> GradedRing:
    """k[t]/(t**e) over the prime field of order p, with |t| = degree."""
    if not linalg.is_prime(p) or e < 1:
        raise RingSpecError(f"need a prime p and e >= 1, got p={p}, e={e}")
    if e > MAX_TABLE_DIM:
        raise SizeCapExceeded(f"k[t]/(t**{e}) has dimension above {MAX_TABLE_DIM}")
    basis = [(f"{name}{j}" if j else "one", j * degree) for j in range(e)]
    products = {}
    for i in range(e):
        for j in range(e):
            if i + j < e:
                products[(i, j)] = [(1, i + j, 0)]
    R = GradedRing(p, basis, products, [(1, 0, 0)])
    return validate_ring(R)


def finite_field(q: int) -> GradedRing:
    """The field with q elements, for q prime or 4."""
    if q == 4:
        # F_2[g] with g*g = g + 1
        products = {
            (0, 0): [(1, 0, 0)],
            (0, 1): [(1, 1, 0)],
            (1, 0): [(1, 1, 0)],
            (1, 1): [(1, 1, 0), (1, 0, 0)],
        }
        R = GradedRing(2, [("one", 0), ("g", 0)], products, [(1, 0, 0)])
        return validate_ring(R)
    if not linalg.is_prime(q):
        raise RingSpecError(f"need q prime or 4, got q={q}")
    return z_mod(q)


def exterior_on_field(k: GradedRing, x_degree: int = 0, name: str = "x") -> GradedRing:
    """k[x]/(x**2) on an ungraded finite field k, with |x| = x_degree."""
    if not k.is_finite or k.char == 0 or any(k.degrees) or not is_graded_field(k):
        raise UnsupportedCoefficients("base must be an ungraded finite field")
    n = k.dim
    basis = [(f"c{i}", 0) for i in range(n)] + [(f"{name}{i}" if i else name, x_degree) for i in range(n)]
    products = {}
    for (i, j), terms in k.products.items():
        base = [(c, t, 0) for c, t, _ in terms]
        products[(i, j)] = base
        products[(i, j + n)] = [(c, t + n, 0) for c, t, _ in terms]
        products[(i + n, j)] = [(c, t + n, 0) for c, t, _ in terms]
        # x * x = 0
    unit = [(c, t, 0) for c, t, _ in k.unit_terms]
    R = GradedRing(k.char, basis, products, unit)
    return validate_ring(R)


def square_zero_two_vars(p: int) -> GradedRing:
    """k[x, y]/(x**2, x*y, y**2) over the prime field of order p."""
    if not linalg.is_prime(p):
        raise RingSpecError(f"need a prime p, got p={p}")
    products = {
        (0, 0): [(1, 0, 0)],
        (0, 1): [(1, 1, 0)],
        (1, 0): [(1, 1, 0)],
        (0, 2): [(1, 2, 0)],
        (2, 0): [(1, 2, 0)],
    }
    R = GradedRing(p, [("one", 0), ("x", 0), ("y", 0)], products, [(1, 0, 0)])
    return validate_ring(R)


def galois_ring_4_2() -> GradedRing:
    """Z/4[g]/(g**2 + g + 1), the unramified degree-2 extension of Z/4."""
    products = {
        (0, 0): [(1, 0, 0)],
        (0, 1): [(1, 1, 0)],
        (1, 0): [(1, 1, 0)],
        (1, 1): [(3, 1, 0), (3, 0, 0)],
    }
    R = GradedRing(4, [("one", 0), ("g", 0)], products, [(1, 0, 0)])
    return validate_ring(R)


def product_ring(A: GradedRing, B: GradedRing) -> GradedRing:
    """Direct product of two finite rings, componentwise operations."""
    if not (A.is_finite and B.is_finite) or A.char == 0 or B.char == 0:
        raise UnsupportedCoefficients("product requires finite factors")
    char = A.char * B.char // math.gcd(A.char, B.char)
    basis = [(f"a_{n}", d) for n, d in zip(A.basis_names, A.degrees)]
    basis += [(f"b_{n}", d) for n, d in zip(B.basis_names, B.degrees)]
    orders = list(A.orders) + list(B.orders)
    na = A.dim
    products = {}
    for (i, j), terms in A.products.items():
        products[(i, j)] = [(c, k, 0) for c, k, _ in terms]
    for (i, j), terms in B.products.items():
        products[(i + na, j + na)] = [(c, k + na, 0) for c, k, _ in terms]
    unit = [(c, k, 0) for c, k, _ in A.unit_terms] + [(c, k + na, 0) for c, k, _ in B.unit_terms]
    R = GradedRing(char, basis, products, unit, orders=orders)
    return validate_ring(R)


def laurent_field(p: int, degree: int, unit_name: str = "y") -> GradedRing:
    """F_p[y, y**-1] with |y| = degree."""
    R = GradedRing(
        p,
        [("one", 0)],
        {(0, 0): [(1, 0, 0)]},
        [(1, 0, 0)],
        periodicity=(unit_name, degree),
    )
    return validate_ring(R)


def laurent_exterior(p: int, x_degree: int, y_degree: int, unit_name: str = "y") -> GradedRing:
    """F_p[y, y**-1][x]/(x**2) with |x| = x_degree and |y| = y_degree."""
    products = {
        (0, 0): [(1, 0, 0)],
        (0, 1): [(1, 1, 0)],
        (1, 0): [(1, 1, 0)],
    }
    R = GradedRing(
        p,
        [("one", 0), ("x", x_degree)],
        products,
        [(1, 0, 0)],
        periodicity=(unit_name, y_degree),
    )
    return validate_ring(R)


def group_algebra_cyclic(p: int, n: int) -> GradedRing:
    """F_p[Z/p**n], presented as F_p[t]/(t**(p**n)) with t = g - 1."""
    if n < 0:
        raise RingSpecError(f"group order p**n needs n >= 0, got n={n}")
    if not linalg.is_prime(p):
        raise RingSpecError(f"need a prime p, got p={p}")
    # p**n >= 2**n, so p**n is only computed when it can be small
    if n >= MAX_TABLE_DIM.bit_length() or p ** n > MAX_TABLE_DIM:
        raise SizeCapExceeded(f"F_{p}[Z/{p}**{n}] has dimension above {MAX_TABLE_DIM}")
    return truncated_polynomial(p, p ** n)
