"""Distinguished triangles on free graded modules, built through the DG model.

A map f between finite free graded modules over k[x]/(x^2) lifts to the
two-generator DG algebra (1 -> 1, x -> u); the third term of the triangle is
the degreewise homology of the cone of the lift.  Everything is recorded as
per-degree slice data over the prime field, which is what exactness checks
consume.
"""

from __future__ import annotations

import random

from . import dga as dg
from . import linalg
from .errors import (
    LiftFailure,
    NotProjectiveInput,
    ShapeMismatch,
)


class Triangle:
    """Slicewise record of A -> B -> C -> A[n].

    For each degree q in the window:
      f[q]: A_q -> B_q, g[q]: B_q -> C_q, h[q]: C_q -> (A[n])_q,
      sf[q]: (A[n])_q -> (B[n])_q  (the suspended map, used for exactness).
    dims[q] = (a, b, c, sa, sb) with sa = dim (A[n])_q, sb = dim (B[n])_q.
    """

    def __init__(self, p, n, window, dims, f, g, h, sf, third_generator_degrees):
        self.p = p
        self.n = n
        self.window = window
        self.dims = dims
        self.f = f
        self.g = g
        self.h = h
        self.sf = sf
        self.third_generator_degrees = third_generator_degrees


def _lift_entry(alg, R, x):
    """k[x]/(x^2) element to a cycle in the DG algebra: 1 -> 1, x -> u."""
    out = {}
    for (bidx, t), c in x.terms.items():
        if alg.vdeg == 0 and t != 0:
            raise LiftFailure("periodic coefficient in a non-periodic model")
        if bidx == 0:
            out[(t, 0, 0)] = c
        elif bidx == 1:
            out[(t, 0, 1)] = c
        else:
            raise LiftFailure(f"basis element {R.basis_names[bidx]} has no lift")
    return dg.DGElement(alg, out)


def _check_lift_ring(R, n):
    """The ring must be k[x]/(x^2) with a unit of degree 3|x| + n."""
    if R.dim != 2 or R.degrees[0] != 0:
        raise LiftFailure("expected a rank-2 exterior algebra over a graded field")
    i = R.degrees[1]
    vdeg = 3 * i + n
    if vdeg == 0:
        if R.periodicity is not None:
            raise LiftFailure("unexpected periodicity: 3|x| + n = 0 needs none")
    else:
        if R.periodicity is None or R.periodicity[1] != vdeg:
            raise LiftFailure(f"need an invertible element of degree {vdeg}")
    p = R.char
    if p == 0 or not linalg.is_prime(p):
        raise LiftFailure("coefficient field must be a prime field")
    sq = R.basis_element(1) * R.basis_element(1)
    if not sq.is_zero:
        raise LiftFailure("generator does not square to zero")
    return p, i


def _generator_degrees(Cmod, H, window, i, vdeg, p):
    """Degrees of module generators of H: classes not hit by the x-action."""
    lo, hi = window
    per_key = {}
    for q in range(lo, hi + 1):
        key = q % vdeg if vdeg else q
        if key in per_key or not H[q]["dim"] or not (lo <= q - i <= hi):
            continue
        count = H[q]["dim"] - linalg.modp_rank(dg.u_action_matrix(Cmod, H, q - i), p)
        if count > 0:
            per_key[key] = (q, count)
    out = []
    for q, count in sorted(per_key.values()):
        out.extend([q] * count)
    return out


def triangle_from_map(R, n, source_degrees, target_degrees, entries,
                      window=None, weight=dg.DEFAULT_WEIGHT,
                      source_relations=None, target_relations=None):
    """Complete f: A -> B between free graded modules to a triangle.

    source_degrees/target_degrees list generator degrees; entries is the
    matrix of f with entries[i][j] homogeneous of degree
    source_degrees[j] - target_degrees[i].
    """
    if source_relations or target_relations:
        raise NotProjectiveInput("inputs must be finite free graded modules")
    p, i = _check_lift_ring(R, n)
    alg = dg.build_two_generator_dga(p, i, n, weight)
    for row_idx, row in enumerate(entries):
        for col_idx, x in enumerate(row):
            if x.is_zero:
                continue
            want = source_degrees[col_idx] - target_degrees[row_idx]
            if x.degree != want:
                raise ShapeMismatch(
                    f"entry ({row_idx},{col_idx}) has degree {x.degree}, expected {want}"
                )
    M = dg.DGModule(alg, source_degrees)
    N = dg.DGModule(alg, target_degrees)
    lifted = [[_lift_entry(alg, R, x) for x in row] for row in entries]
    fmap = dg.DGMap(M, N, lifted)
    C = dg.cone(fmap)
    Mn = dg.shift(M, n)
    Nn = dg.shift(N, n)

    if window is None:
        degs = list(source_degrees) + list(target_degrees) or [0]
        margin = abs(n) + max(abs(i), 1)
        window = (min(degs) - margin, max(degs) + margin)
    lo, hi = window

    HA = dg.homology(M, window)
    HB = dg.homology(N, window)
    HC = dg.homology(C, window)
    HAs = dg.homology(Mn, window)
    HBs = dg.homology(Nn, window)

    gn, gm = len(target_degrees), len(source_degrees)
    incl = [[alg.one() if (r == c) else alg.zero() for c in range(gn)] for r in range(gn + gm)]
    proj = [[alg.one() if (c == gn + r) else alg.zero() for c in range(gn + gm)] for r in range(gm)]
    gmap = dg.DGMap(N, C, incl)
    hmap = dg.DGMap(C, Mn, proj)

    dims, fs, gs, hs, sfs = {}, {}, {}, {}, {}
    for q in range(lo, hi + 1):
        dims[q] = (HA[q]["dim"], HB[q]["dim"], HC[q]["dim"], HAs[q]["dim"], HBs[q]["dim"])
        fs[q] = dg.induced_matrix(dg.map_slice(fmap, q), HA[q], HB[q], p)
        gs[q] = dg.induced_matrix(dg.map_slice(gmap, q), HB[q], HC[q], p)
        hs[q] = dg.induced_matrix(dg.map_slice(hmap, q), HC[q], HAs[q], p)
        # the connecting map H(A[n])_q -> H(B[n])_q: f with a (-1)^{n|y|}
        # twist on each coefficient y.  It differs from the naively suspended
        # matrix by an invertible sign diagonal, so ranks agree with f, but
        # only this version makes consecutive composites vanish.
        sfs[q] = dg.induced_matrix(dg.map_slice(fmap, q - n, twist=n), HAs[q], HBs[q], p)

    third = _generator_degrees(C, HC, window, i, alg.vdeg, p)
    return Triangle(p, n, window, dims, fs, gs, hs, sfs, third)


# position -> (detail when the composite is nonzero, detail when the ranks
# do not add up); the last map is -f[n], and the sign changes neither
# kernels, images nor whether a composite vanishes
_DETAILS = {
    "B": ("g*f != 0", "im f != ker g"),
    "C": ("h*g != 0", "im g != ker h"),
    "SA": ("(-f[n])*h != 0", "im h != ker f[n]"),
    "SB": ("g[n]*f[n] != 0", "im(-f[n]) != ker g[n]"),
}


def _exact_at(T, q, position):
    """Report of the first failed exactness check at one position in degree
    q, or None.  A position is exact when the composite through it vanishes
    and the ranks of the maps in and out add up to its dimension."""
    p, n = T.p, T.n
    if position == "SB":
        # in by -f[n], out by g[n], which is conjugate to g at q - n; the
        # composite is checked on the unsuspended maps
        incoming, outgoing, dim = T.sf[q], T.g[q - n], T.dims[q - n][1]
        composite = linalg.modp_matmul(T.g[q - n], T.f[q - n], p)
    else:
        incoming, outgoing, dim = {"B": (T.f[q], T.g[q], T.dims[q][1]),
                                   "C": (T.g[q], T.h[q], T.dims[q][2]),
                                   "SA": (T.h[q], T.sf[q], T.dims[q][3])}[position]
        composite = linalg.modp_matmul(outgoing, incoming, p)
    zero_detail, rank_detail = _DETAILS[position]
    if any(map(any, composite)):
        detail = zero_detail
    elif linalg.modp_rank(incoming, p) + linalg.modp_rank(outgoing, p) != dim:
        detail = rank_detail
    else:
        return None
    return {"pass": False, "degree": q, "position": position, "detail": detail}


def verify_triangle_exact(T):
    """Slicewise exactness at B, C and A[n]; report PASS or first failure."""
    lo, hi = T.window
    for q in range(lo, hi + 1):
        for position in ("B", "C", "SA"):
            failure = _exact_at(T, q, position)
            if failure:
                return failure
    return {"pass": True, "degree": None, "position": None, "detail": "exact in window"}


def verify_rotation(T):
    """Exactness of the rotated triangle B -> C -> A[n] -> B[n].

    The suspension of g is conjugate to g shifted by n, so the check at B[n]
    only needs data already recorded on the original triangle.
    """
    lo, hi = T.window
    for q in range(lo, hi + 1):
        if not (lo <= q - T.n <= hi):
            continue
        for position in ("C", "SA", "SB"):
            failure = _exact_at(T, q, position)
            if failure:
                return failure
    return {"pass": True, "degree": None, "position": None, "detail": "rotation exact in window"}


def random_map(R, n, rng, max_rank=3, deg_lo=-3, deg_hi=3):
    """Seeded random map between free graded modules, for stress tests."""
    src = [rng.randint(deg_lo, deg_hi) for _ in range(rng.randint(1, max_rank))]
    tgt = [rng.randint(deg_lo, deg_hi) for _ in range(rng.randint(1, max_rank))]
    entries = []
    for td in tgt:
        row = []
        for sd in src:
            row.append(_random_homogeneous(R, sd - td, rng))
        entries.append(row)
    return src, tgt, entries


def _random_homogeneous(R, d, rng):
    terms = R.slice_terms(d)
    return R.from_slice_coords(d, [rng.randint(0, R.char - 1) for _ in terms])


def run_random_trials(R, n, trials, seed, window=None, weight=dg.DEFAULT_WEIGHT):
    """Build and verify `trials` seeded random triangles; returns a report."""
    rng = random.Random(seed)
    results = []
    for k in range(trials):
        src, tgt, entries = random_map(R, n, rng)
        T = triangle_from_map(R, n, src, tgt, entries, window=window, weight=weight)
        rep = verify_triangle_exact(T)
        rot = verify_rotation(T)
        results.append({
            "trial": k,
            "exact": rep["pass"],
            "rotation": rot["pass"],
            "third_degrees": T.third_generator_degrees,
            "detail": rep if not rep["pass"] else rot if not rot["pass"] else None,
        })
    ok = all(r["exact"] and r["rotation"] for r in results)
    return {"pass": ok, "trials": trials, "results": results}
