"""rings._quotient_ring against the three quotient builders it replaced.

`reference_corner_ring` builds the product factor eR on lifts multiplied by
e, for the primitive idempotents e found by enumeration,
`reference_residue_sliced` the residue ring slice by slice and
`reference_residue_mixed` the residue ring of a finite ring of composite
characteristic from one quotient of the whole additive group.  The factors
of `decompose_product` and the rings of `residue_field` must equal theirs in
everything `GradedRing.key()` holds apart from the basis names.  The slice
multiplication matrices read off the structure constants must equal those
built from element products, and every reference multiplies its elements by
`brute_force.ring_multiply`, not by the library's product loop.
"""

import glob
import math
import os
from fractions import Fraction

import pytest
from brute_force import primitive_idempotents, ring_multiply

from trimod import constructions as con
from trimod import linalg
from trimod import rings
from trimod.ringio import load_ring
from trimod.rings import GradedRing, Ideal, validate_ring


# ---------------------------------------------------------------------------
# references


def reference_mult_matrix_slice(R, x, q):
    src = R.slice_terms(q)
    tgt = R.slice_terms(q + (x.degree or 0))
    pos = {mt: idx for idx, mt in enumerate(tgt)}
    cols = []
    for i, t in src:
        col = [0] * len(tgt)
        for mt, c in ring_multiply(x, R.basis_element(i, t)).terms.items():
            col[pos[mt]] = c
        cols.append(col)
    return [[cols[j][r] for j in range(len(src))] for r in range(len(tgt))]


def _unit_vector(j, n):
    return [int(k == j) for k in range(n)]


def _product_table(basis, down):
    table = {}
    for a, wa in enumerate(basis):
        for b, wb in enumerate(basis):
            terms = [(c, k, t) for (k, t), c in down(ring_multiply(wa, wb)).items()]
            if terms:
                table[(a, b)] = terms
    return table


def reference_corner_ring(R, e):
    basis, names, orders, block = [], [], [], {}
    for q in R.degree_support():
        moduli = R.slice_moduli(R.slice_terms(q))
        ker = linalg.congruence_kernel(reference_mult_matrix_slice(R, e, q), moduli, moduli)
        qm, proj, lift = linalg.quotient_presentation(ker, moduli)
        block[q] = (proj, len(basis), qm)
        for j in range(len(qm)):
            basis.append(ring_multiply(e, R.from_slice_coords(q, linalg.apply_matrix(lift, _unit_vector(j, len(qm))))))
            names.append((f"w{len(names)}", q))
        orders += qm

    def down(x):
        out = {}
        for q, comp in x.homogeneous_components().items():
            rep = R.rep_degree(q)
            proj, offset, qm = block[rep]
            vshift = 0 if R.periodicity is None else (q - rep) // R.periodicity[1]
            for j, c in enumerate(linalg.apply_matrix(proj, R.slice_coords(comp, q))):
                if c % qm[j]:
                    out[(offset + j, vshift)] = c % qm[j]
        return out

    char = math.lcm(*orders)
    unit = [(c, k, t) for (k, t), c in down(e).items()]
    return GradedRing(char, names, _product_table(basis, down), unit, periodicity=R.periodicity, orders=orders)


def reference_residue_sliced(R, m):
    basis, names, block = [], [], {}
    for q in R.degree_support():
        rel = m.slices[q].cols()
        qm, proj, lift = linalg.quotient_presentation(rel, R.slice_moduli(R.slice_terms(q)))
        block[q] = (proj, len(basis), qm)
        for j in range(len(qm)):
            basis.append(R.from_slice_coords(q, linalg.apply_matrix(lift, _unit_vector(j, len(qm)))))
            names.append((f"r{len(names)}", q))

    def down(x):
        out = {}
        for q, comp in x.homogeneous_components().items():
            rep = q if R.periodicity is None else q % R.periodicity[1]
            proj, offset, qm = block[rep]
            vshift = 0 if R.periodicity is None else (q - rep) // R.periodicity[1]
            for j, c in enumerate(linalg.apply_matrix(proj, R.slice_coords(comp, q))):
                if R.char != 0:
                    c %= qm[j]
                if c:
                    out[(offset + j, vshift)] = c
        return out

    unit = [(c, k, t) for (k, t), c in down(R.one()).items()]
    orders = None if R.char == 0 else [R.char] * len(basis)
    return validate_ring(GradedRing(R.char, names, _product_table(basis, down), unit,
                                    periodicity=R.periodicity, orders=orders))


def reference_residue_mixed(R, m):
    rel = []
    for q in R.degree_support():
        pos = [i for i, _ in R.slice_terms(q)]
        for v in m.slices[q].cols():
            full = [0] * R.dim
            for idx, c in zip(pos, v):
                full[idx] = c
            rel.append(full)
    qm, proj, lift = linalg.quotient_presentation(rel, list(R.orders))
    basis = [R.from_full_coords(linalg.apply_matrix(lift, _unit_vector(j, len(qm)))) for j in range(len(qm))]

    def down(x):
        img = linalg.apply_matrix(proj, R.full_coords(x))
        return {(j, 0): c % qm[j] for j, c in enumerate(img) if c % qm[j]}

    unit = [(c, k, t) for (k, t), c in down(R.one()).items()]
    names = [(f"r{j}", 0) for j in range(len(qm))]
    return validate_ring(GradedRing(math.lcm(*qm), names, _product_table(basis, down), unit, orders=list(qm)))


def reference_residue_field(R):
    m = rings.maximal_ideal(R)
    if R.is_finite and R.char != 0 and not linalg.is_prime(R.char):
        return reference_residue_mixed(R, m)
    return reference_residue_sliced(R, m)


def key_without_names(R):
    key = R.key()
    return key[:1] + key[2:]


# ---------------------------------------------------------------------------
# rings


def _graded_exterior_z4():
    """Z/4[x]/(x^2) with |x| = 1: composite characteristic on two degrees."""
    products = {(0, 0): [(1, 0, 0)], (0, 1): [(1, 1, 0)], (1, 0): [(1, 1, 0)]}
    return validate_ring(GradedRing(4, [("one", 0), ("x", 1)], products, [(1, 0, 0)]))


def _laurent_square_root(p):
    """F_p[z^-1, z] with |z| = 2, presented over y = z^2: z * z wraps past
    the period."""
    products = {(0, 0): [(1, 0, 0)], (0, 1): [(1, 1, 0)], (1, 0): [(1, 1, 0)], (1, 1): [(1, 0, 1)]}
    return validate_ring(GradedRing(p, [("one", 0), ("z", 2)], products, [(1, 0, 0)], periodicity=("y", 4)))


RING_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "rings", "*.ring")))

CONSTRUCTED = {
    "F3 x F3": lambda: con.product_ring(con.finite_field(3), con.finite_field(3)),
    "F2[x]/x^2 x F4": lambda: con.product_ring(con.exterior_on_field(con.finite_field(2)), con.finite_field(4)),
    "Z/4 x Z/4": lambda: con.product_ring(con.z_mod(4), con.z_mod(4)),
    "Z/4 x Z/9": lambda: con.product_ring(con.z_mod(4), con.z_mod(9)),
    "F2 x Z/4": lambda: con.product_ring(con.finite_field(2), con.z_mod(4)),
    "F3 x F2[x]/x^2 x F2": lambda: con.product_ring(
        con.product_ring(con.finite_field(3), con.exterior_on_field(con.finite_field(2))), con.finite_field(2)),
    "Z/12": lambda: con.z_mod(12),
    "F5[t]/t^3, |t| = 2": lambda: con.truncated_polynomial(5, 3, degree=2),
    "F4[x]/x^2, |x| = 1": lambda: con.exterior_on_field(con.finite_field(4), 1),
    "Z/4[x]/x^2, |x| = 1": _graded_exterior_z4,
    "F3[y^-1, y][x]/x^2": lambda: con.laurent_exterior(3, 1, 2),
    "F5[z^-1, z] over y = z^2": lambda: _laurent_square_root(5),
}


def _rings():
    out = [pytest.param(load_ring(path), id=os.path.basename(path)) for path in RING_FILES]
    return out + [pytest.param(build(), id=name) for name, build in CONSTRUCTED.items()]


def test_ring_files_present():
    assert len(RING_FILES) == 19


@pytest.mark.parametrize("R", _rings())
def test_factors_and_residue_fields_match_references(R):
    for q in R.degree_support():
        # the basis of the slice, and the sum of its elements times -1
        xs = [R.from_slice_coords(q, _unit_vector(j, len(R.slice_terms(q)))) for j in range(len(R.slice_terms(q)))]
        xs.append(R.from_slice_coords(q, [-1] * len(xs)))
        for x in xs:
            for src in R.degree_support():
                assert R.mult_matrix_slice(x, src) == reference_mult_matrix_slice(R, x, src)
    prim = primitive_idempotents(R)
    factors = rings.decompose_product(R)
    if len(prim) > 1:
        assert [key_without_names(f) for f in factors] == \
            [key_without_names(reference_corner_ring(R, e)) for e in prim]
    for F in factors:
        if rings.is_local(F):
            assert key_without_names(rings.residue_field(F)) == key_without_names(reference_residue_field(F))


def test_rational_quotient_matches_reference():
    # Q[y^-1, y][x]/(x^2), |x| = 1, |y| = 2, modulo (x)
    products = {(0, 0): [(1, 0, 0)], (0, 1): [(1, 1, 0)], (1, 0): [(1, 1, 0)]}
    R = validate_ring(GradedRing(0, [("one", 0), ("x", 1)], products, [(1, 0, 0)], periodicity=("y", 2)))
    x = R.basis_element(1)
    for q in range(-2, 3):
        for y in (R.one(), x, R.basis_element(1, -1, Fraction(2, 3))):
            assert R.mult_matrix_slice(y, q) == reference_mult_matrix_slice(R, y, q)
    m = Ideal.from_generators(R, [x])
    quotient = validate_ring(rings._quotient_ring(R, {q: s.cols() for q, s in m.slices.items()}))
    assert key_without_names(quotient) == key_without_names(reference_residue_sliced(R, m))
    assert quotient.char == 0 and quotient.dim == 1
    # Q[z^-1, z] over y = z^2, modulo 0: z * z = y lands past the period
    products = {(0, 0): [(1, 0, 0)], (0, 1): [(1, 1, 0)], (1, 0): [(1, 1, 0)], (1, 1): [(Fraction(1, 2), 0, 1)]}
    R = validate_ring(GradedRing(0, [("one", 0), ("z", 2)], products, [(1, 0, 0)], periodicity=("y", 4)))
    m = Ideal.from_generators(R, [])
    quotient = validate_ring(rings._quotient_ring(R, {q: s.cols() for q, s in m.slices.items()}))
    assert key_without_names(quotient) == key_without_names(reference_residue_sliced(R, m))
    assert quotient.products[(1, 1)] == ((Fraction(1, 2), 0, 1),)
