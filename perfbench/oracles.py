"""Independent oracles for the benchmark's correctness checks.

Finite rings are handled by brute force on coordinate tuples, multiplied
straight from the ring's structure constants, so no check here goes through
the library's element arithmetic or decision procedures.  The triangle oracle
counts slice ranks of the map itself, as acceptance criterion 4 does.
"""

from __future__ import annotations

import itertools

from trimod import linalg


class FiniteTable:
    """Brute-force arithmetic of a finite graded ring on coordinate tuples."""

    def __init__(self, R):
        if R.periodicity is not None or R.char == 0:
            raise ValueError("brute force needs a finite ring")
        self.orders = R.orders
        self.dim = R.dim
        self.products = [((i, j), [(c, k) for c, k, _ in terms])
                         for (i, j), terms in sorted(R.products.items())]
        self.zero = (0,) * R.dim
        one = [0] * R.dim
        for c, k, _ in R.unit_terms:
            one[k] = c % self.orders[k]
        self.one = tuple(one)
        self.elements = list(itertools.product(*(range(o) for o in R.orders)))

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.orders))

    def mul(self, x, y):
        out = [0] * self.dim
        for (i, j), terms in self.products:
            if x[i] and y[j]:
                for c, k in terms:
                    out[k] += x[i] * y[j] * c
        return tuple(v % m for v, m in zip(out, self.orders))

    def power(self, x, e):
        out = self.one
        for _ in range(e):
            out = self.mul(out, x)
        return out

    def is_unit_in(self, a, unit, elements):
        return any(self.mul(a, b) == unit for b in elements)


def chain_structure(R, max_size=256):
    """(pi, e) when R is an ungraded finite chain ring, else None.

    A finite local ring whose maximal ideal is principal, m = pi*R, is a
    chain ring; e is the least power with pi**e = 0 (e = 1 for a field).
    Over such a ring every module is a sum of R/pi**a, and the stable
    category is well understood, which the module checks rely on.
    """
    if R.periodicity is not None or R.char == 0 or any(R.degrees) or R.size() > max_size:
        return None
    T = FiniteTable(R)
    nonunits = [x for x in T.elements if not T.is_unit_in(x, T.one, T.elements)]
    nonunit_set = set(nonunits)
    if any(T.add(x, y) not in nonunit_set for x in nonunits for y in nonunits):
        return None  # not local
    for pi in nonunits:
        if {T.mul(pi, r) for r in T.elements} == nonunit_set:
            e = 1
            while T.power(pi, e) != T.zero:
                e += 1
            return pi, e
    return None


def stable_hom_length(exps_a, exps_b, e):
    """Length of the stable Hom between sums of R/pi**a over a chain ring."""
    return sum(min(a, b, e - a, e - b) for a in exps_a for b in exps_b)


def is_delta_by_brute_force(R):
    """Criterion-7 oracle: the n = 0 verdict from enumerated elements."""
    T = FiniteTable(R)
    idempotents = [x for x in T.elements if x != T.zero and T.mul(x, x) == x]
    primitive = [e for e in idempotents
                 if not any(f != e and T.mul(e, f) == f for f in idempotents)]
    return all(_factor_positive(T, e) for e in primitive)


def _factor_positive(T, e):
    factor = sorted({T.mul(e, r) for r in T.elements})
    nonunits = [a for a in factor if not T.is_unit_in(a, e, factor)]
    if len(nonunits) == 1:
        return True  # a field: only zero fails to invert
    order, acc = 1, e
    while acc != T.zero:
        acc = T.add(acc, e)
        order += 1
    if order == 2:
        # exterior shape: square-zero radical of dimension one over the field
        return (all(T.mul(a, b) == T.zero for a in nonunits for b in nonunits)
                and len(nonunits) ** 2 == len(factor))
    if order == 4:
        return {T.add(r, r) for r in factor} == set(nonunits)
    return False


# ---------------------------------------------------------------------------
# criterion-4 slice-rank oracle for triangles over laurent_exterior(p, 1, d)


def _free_slice(R, degs, q):
    return [(j, mt) for j, d in enumerate(degs) for mt in R.slice_terms(q - d)]


def _free_slice_matrix(R, src_degs, tgt_degs, entries, q):
    """Matrix of the map on degree-q slices of the free modules."""
    src = _free_slice(R, src_degs, q)
    tgt = _free_slice(R, tgt_degs, q)
    pos = {key: idx for idx, key in enumerate(tgt)}
    cols = []
    for j, mt in src:
        terms = R.slice_terms(q - src_degs[j])
        elem = R.from_slice_coords(q - src_degs[j], [int(t == mt) for t in terms])
        col = [0] * len(tgt)
        for i, td in enumerate(tgt_degs):
            prod = entries[i][j] * elem
            if prod.is_zero:
                continue
            tterms = R.slice_terms(q - td)
            for idx, c in enumerate(R.slice_coords(prod, q - td)):
                if c:
                    col[pos[(i, tterms[idx])]] = c
        cols.append(col)
    matrix = [[cols[j][r] for j in range(len(src))] for r in range(len(tgt))]
    return matrix, len(src), len(tgt)


def triangle_dims(R, n, src, tgt, entries, window):
    """Expected (a, b, c, sa) per degree: C_q = coker f_q + ker f_{q-n}."""
    out = {}
    lo, hi = window
    for q in range(lo, hi + 1):
        mat, a, b = _free_slice_matrix(R, src, tgt, entries, q)
        smat, sa, _ = _free_slice_matrix(R, src, tgt, entries, q - n)
        rk = linalg.modp_rank(mat, R.char)
        srk = linalg.modp_rank(smat, R.char)
        out[q] = (a, b, (b - rk) + (sa - srk), sa)
    return out
