"""Build the two-generator DG algebra and inspect its homology.

The model has generators a and u with d(a) = u^2 and the relation
a*u + u*a = -v.  Its homology is free of rank one over k[x]/(x^2), which is
what makes the cone construction produce honest triangles.

The algebra is held as its degree slices: each slice A_s is a vector space
over F_p with the monomials v^t a^e u^m as basis, and d and products are
matrices between slices.  This walkthrough reads the defining relations off
those matrices.

Run as: python3 demos/demo_dg_model.py
"""

import numpy as np

from trimod import dga as dg
from trimod.errors import ParityObstruction

alg = dg.build_two_generator_dga(3, 1, 1)
A = dg.algebra_module(alg)
print(f"model at p=3, |u|={alg.i}, shift n={alg.n}: |a|={alg.adeg}, |v|={alg.vdeg}")

a, u = (0, 1, 0), (0, 0, 1)  # monomials v^t a^e u^m as (t, e, m)


def vector(s, key):
    """The monomial key as a coordinate vector of the slice A_s."""
    return np.array([int(b == (0, key)) for b in dg.slice_basis(A, s)])


def right_multiplication(s, key):
    """Matrix of x -> x * key on A_s, read off the slice differential of the
    module on g0, g1 with d(g1) = c * key * g0, left unchecked, since d^2 = 0
    there only when d(key) = 0.  Its block from the A_s of g1 to g0 is
    x -> (-1)^{ns} x * c * key (the Leibniz sign), so c = (-1)^{ns}."""
    deg, n = alg.monomial_degree(*key), alg.n
    zero, c = dg.DGElement(alg, {}), -1 if n * s % 2 else 1
    X = dg.DGModule(alg, [0, deg + n], [[zero, dg.DGElement(alg, {key: c})], [zero, zero]], check=False)
    q = s + deg + n
    return dg.slice_differential(X, q)[:len(dg.slice_basis(A, q - n)), len(dg.slice_basis(A, q)):]


def power(x, k):
    return "" if k == 0 else x if k == 1 else f"{x}^{k}"


def show(s, vec):
    """A vector of the slice A_s as a sum of monomials, with coefficients
    between -p/2 and p/2."""
    terms = []
    for (_, (t, e, m)), c in zip(dg.slice_basis(A, s), vec % alg.p):
        if c:
            c = int(c) - alg.p if c > alg.p // 2 else int(c)
            word = "*".join(filter(None, (power("v", t), power("a", e), power("u", m)))) or "1"
            terms.append({1: "", -1: "-"}.get(c, f"{c}*") + word)
    return " + ".join(terms) or "0"


d_a = dg.slice_differential(A, alg.adeg) @ vector(alg.adeg, a)
print("d(a) =", show(alg.adeg - alg.n, d_a))
d_u = dg.slice_differential(A, alg.i) @ vector(alg.i, u)
print("d(u) =", show(alg.i - alg.n, d_u))
au = right_multiplication(alg.adeg, u) @ vector(alg.adeg, a)
ua = right_multiplication(alg.i, a) @ vector(alg.i, u)
print("a*u + u*a =", show(alg.adeg + alg.i, au + ua))

H = dg.homology(A, (-4, 4))
print()
print("homology dimensions by degree:")
for q in range(-4, 5):
    print(f"  H_{q}: {H[q]['dim']}")

print()
print("not every parameter triple works; the differential must kill both")
print("defining relations:")
try:
    dg.build_two_generator_dga(3, 0, 0)
except ParityObstruction as e:
    print("  (p=3, i=0, n=0) ->", e)
