"""Builders for the stock rings used in tests, demos, and the bundled corpus:
monomial rings through `_monomial_ring`, the others from the rings given."""

from __future__ import annotations

import math
import operator

from . import linalg
from .errors import RingSpecError, SizeCapExceeded, UnsupportedCoefficients
from .rings import MAX_TABLE_DIM, GradedRing, is_graded_field, validate_ring


def _monomial_ring(char, basis, rewrite=None, periodicity=None):
    """The ring mod char (Q for char 0) on monomials (name, degree, exponents),
    unit first, exponents closed under division: b_i b_j is the monomial at the
    exponent sum, or else the terms (coeff, index, vpow) of rewrite(sum), or 0."""
    index = {e: k for k, (_, _, e) in enumerate(basis)}
    products = {}
    for i, (_, _, a) in enumerate(basis):
        for j, (_, _, b) in enumerate(basis):
            s = tuple(map(operator.add, a, b))
            if s in index:
                products[i, j] = [(1, index[s], 0)]
            elif rewrite:
                products[i, j] = rewrite(s)
    R = GradedRing(char, [(name, d) for name, d, _ in basis], products, [(1, 0, 0)], periodicity=periodicity)
    return validate_ring(R)


# one, g with g*g = -g - 1: F_4 over F_2, GR(4, 2) over Z/4
_G_BASIS = [("one", 0, (0,)), ("g", 0, (1,))]


def _g_squared(_):
    return [(-1, 0, 0), (-1, 1, 0)]


def z_mod(m: int) -> GradedRing:
    """The ring of integers modulo m."""
    if m < 2:
        raise RingSpecError("modulus must be at least 2")
    return _monomial_ring(m, [("e", 0, ())])


def truncated_polynomial(p: int, e: int, degree: int = 0) -> GradedRing:
    """k[t]/(t**e) over the prime field of order p, with |t| = degree."""
    if not linalg.is_prime(p) or e < 1:
        raise RingSpecError(f"need a prime p and e >= 1, got p={p}, e={e}")
    if e > MAX_TABLE_DIM:
        raise SizeCapExceeded(f"k[t]/(t**{e}) has dimension above {MAX_TABLE_DIM}")
    return _monomial_ring(p, [(f"t{j}" if j else "one", j * degree, (j,)) for j in range(e)])


def finite_field(q: int) -> GradedRing:
    """The field with q elements, for q prime or 4."""
    if q == 4:
        return _monomial_ring(2, _G_BASIS, _g_squared)
    if not linalg.is_prime(q):
        raise RingSpecError(f"need q prime or 4, got q={q}")
    return z_mod(q)


def exterior_on_field(k: GradedRing, x_degree: int = 0) -> GradedRing:
    """k[x]/(x**2) on an ungraded finite field k, with |x| = x_degree."""
    if not k.is_finite or k.char == 0 or any(k.degrees) or not is_graded_field(k):
        raise UnsupportedCoefficients("base must be an ungraded finite field")
    n = k.dim
    basis = [(f"c{i}", 0) for i in range(n)] + [(f"x{i}" if i else "x", x_degree) for i in range(n)]
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
    return _monomial_ring(p, [("one", 0, (0, 0)), ("x", 0, (1, 0)), ("y", 0, (0, 1))])


def galois_ring_4_2() -> GradedRing:
    """Z/4[g]/(g**2 + g + 1), the unramified degree-2 extension of Z/4."""
    return _monomial_ring(4, _G_BASIS, _g_squared)


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


def laurent_field(p: int, degree: int) -> GradedRing:
    """F_p[y, y**-1] with |y| = degree."""
    return _monomial_ring(p, [("one", 0, ())], periodicity=("y", degree))


def laurent_exterior(p: int, x_degree: int, y_degree: int) -> GradedRing:
    """F_p[y, y**-1][x]/(x**2) with |x| = x_degree and |y| = y_degree."""
    return _monomial_ring(p, [("one", 0, (0,)), ("x", x_degree, (1,))], periodicity=("y", y_degree))


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
