"""Distinguished triangles on free graded modules, built through the DG model.

A map f between finite free graded modules over k[x]/(x^2) lifts to the
two-generator DG algebra (1 -> 1, x -> u); the third term of the triangle is
the degreewise homology of the cone of the lift.  Only f is a constructed
chain map, checked by its cone, and every map is read off the cone: f is
a block of its slice differentials, g and h its slice inclusion of B and
projection onto A[n]; A[n], B[n] are read off A and B n degrees lower, and
f[n] off f there by one sign per source generator.  Everything is recorded
as read-only per-degree slice data over the prime field, which is what the
exactness checks consume, sharing one record of checks per triangle.
"""

from __future__ import annotations

import random

import numpy as np

from . import dga as dg
from . import linalg
from . import rings as rc
from .errors import LiftFailure, WindowEmpty


class Triangle:
    """Slicewise record of A -> B -> C -> A[n].

    For each degree q in the window, int64 arrays over F_p in the
    representative bases of the homology records:
      f[q]: A_q -> B_q, g[q]: B_q -> C_q, h[q]: C_q -> (A[n])_q,
      sf[q]: (A[n])_q -> (B[n])_q  (the suspended map, used for exactness),
    of shapes (b, a), (c, b), (sa, c) and (sb, sa) for the homology
    dimensions dims[q] = (a, b, c, sa, sb), sa = dim (A[n])_q, sb = dim (B[n])_q.
    The arrays are read-only, and the verifiers share one record of the
    checks passed and the ranks made.  period: |v| if periodic, else 0.
    """

    def __init__(self, p, n, window, dims, f, g, h, sf, third_generator_degrees, period=0):
        self.p = p
        self.n = n
        self.window = window
        self.dims = dims
        self.f = f
        self.g = g
        self.h = h
        self.sf = sf
        self.third_generator_degrees = third_generator_degrees
        self.period = period
        # the checks passed and the ranks made, shared by both verifiers
        self._checks = ({}, {})


def _lift_entry(alg, R, x):
    """k[x]/(x^2) element to a cycle in the DG algebra: 1 -> 1, x -> u, and
    y^t -> v^-t when |v| = -|y|."""
    out = {}
    for (bidx, t), c in x.terms.items():
        if alg.vdeg == 0 and t != 0:
            raise LiftFailure("periodic coefficient in a non-periodic model")
        if alg.vdeg < 0:
            t = -t
        if bidx == 0:
            out[(t, 0, 0)] = c
        elif bidx == 1:
            out[(t, 0, 1)] = c
        else:
            raise LiftFailure(f"basis element {R.basis_names[bidx]} has no lift")
    return dg.DGElement(alg, out)


def _check_lift_ring(R, n):
    """The ring must be k[x]/(x^2) with a unit of degree 3|x| + n, or of its
    negative: y^-1 is then that unit."""
    if R.dim != 2 or R.degrees[0] != 0:
        raise LiftFailure("expected a rank-2 exterior algebra over a graded field")
    i = R.degrees[1]
    vdeg = 3 * i + n
    if vdeg == 0:
        if R.periodicity is not None:
            raise LiftFailure("unexpected periodicity: 3|x| + n = 0 needs none")
    else:
        if R.periodicity is None or R.periodicity[1] != abs(vdeg):
            raise LiftFailure(f"need an invertible element of degree {vdeg}")
    p = R.char
    if p == 0 or not linalg.is_prime(p):
        raise LiftFailure("coefficient field must be a prime field")
    sq = R.basis_element(1) * R.basis_element(1)
    if not sq.is_zero:
        raise LiftFailure("generator does not square to zero")
    return p, i


@rc.per_object
def _model(R, n, weight):
    """The validated DG model of R at (n, weight), cached with its slices and H(A)."""
    return dg.build_two_generator_dga(*_check_lift_ring(R, n), n, weight)


def _generator_degrees(Cmod, H, window):
    """Degrees of module generators of H, classes not hit by x: per residue class, at its first
    degree q with q - |x| in the window, else, if periodic, its first, reading H at q - |x|."""
    alg, (lo, hi) = Cmod.alg, window
    per_key = {}
    for q in sorted(range(lo, hi + 1), key=lambda q: not lo <= q - alg.i <= hi):
        key = dg.residue(alg, q)
        if key in per_key or not H[q]["dim"] or not (lo <= q - alg.i <= hi or alg.vdeg):
            continue
        below = H if lo <= q - alg.i <= hi else dg.homology(Cmod, (q - alg.i, q - alg.i)) | {q: H[q]}
        # the count repeats with period |v|, also when it is 0
        per_key[key] = (q, H[q]["dim"] - linalg.modp_rank(dg.u_action_matrix(Cmod, below, q - alg.i), alg.p))
    return [q for q, count in sorted(per_key.values()) for _ in range(count)]


def triangle_from_map(R, n, source_degrees, target_degrees, entries, window=None):
    """Complete f: A -> B between free graded modules to a triangle.

    source_degrees/target_degrees list generator degrees; entries is the
    matrix of f with entries[i][j] homogeneous of degree
    source_degrees[j] - target_degrees[i] (checked on the lift, as a chain
    map, by its cone).  The cone's generators are B's followed by A's
    shifted by n, so its degree-q slice is B_q followed by (A[n])_q: g and h
    are read off the cone's records as that slice inclusion and projection.
    The cone's differential holds f as its block from A[n] to B, so f is
    read off the slice rows its homology builds (`dg.map_slice`),
    once per residue class.  A[n] and B[n] are free, so their records at q
    are those of A and B at q - n, and f[n] at q is f at q - n with a sign
    on each source block.  The maps are read-only.  The model is built at
    dg.MIN_WEIGHT, except when |v| = 0 and |x| != 0: a slice then holds one
    weight, and the window sets W = span + 2 PADDING (see dga).
    """
    p, i = _check_lift_ring(R, n)
    if window is None:
        degs = list(source_degrees) + list(target_degrees) or [0]
        margin = abs(n) + max(abs(i), 1)
        window = (min(degs) - margin, max(degs) + margin)
    lo, hi = window
    alg = _model(R, n, hi - lo + 2 * dg.PADDING if i and not 3 * i + n else dg.MIN_WEIGHT)
    M = dg.DGModule(alg, source_degrees)
    N = dg.DGModule(alg, target_degrees)
    lifted = [[_lift_entry(alg, R, x) for x in row] for row in entries]
    fmap = dg.DGMap(M, N, lifted)
    C = dg.cone(fmap)

    HA = dg.homology(M, window)
    HB = dg.homology(N, window)
    HC = dg.homology(C, window)
    # A[n] and B[n] at q are A and B at q - n; the window keeps its span,
    # so the weight-bound check is the same; when the window spans a
    # period, these are the records just made for A and B
    HAs = dg.homology(M, (lo - n, hi - n))
    HBs = dg.homology(N, (lo - n, hi - n))

    # f on homology once per residue class, whose degrees share their
    # slices and records
    f_at = {}

    def induced_f(q, HX, HY):
        r = dg.residue(alg, q)
        if r not in f_at:
            f_at[r] = dg.induced_matrix(dg.map_slice(fmap, q), HX[q], HY[q], p)
        return f_at[r]

    dims, fs, gs, hs, sfs = {}, {}, {}, {}, {}
    period = abs(alg.vdeg)
    for q in range(lo, hi + 1):
        if period and q - period >= lo:
            # slices and records at q are those at q - |v| with t shifted
            for rec in (dims, fs, gs, hs, sfs):
                rec[q] = rec[q - period]
            continue
        reps_b, reps_c = HB[q]["reps"], HC[q]["reps"]
        b = reps_b.shape[1]
        dims[q] = (HA[q]["dim"], HB[q]["dim"], HC[q]["dim"], HAs[q - n]["dim"], HBs[q - n]["dim"])
        fs[q] = induced_f(q, HA, HB)
        padded = np.zeros((len(reps_b), reps_c.shape[1]), dtype=np.int64)
        padded[:, :b] = reps_b
        gs[q] = dg.class_coordinates(HC[q], p, padded)
        hs[q] = dg.class_coordinates(HAs[q - n], p, reps_c[:, b:])
        # the connecting map H(A[n])_q -> H(B[n])_q: the cone's Leibniz sign
        # negates each source block j where n (q - n - deg gen_j) is odd, and
        # the reps of a free module lie each in one block, so it is f at
        # q - n with those reps' columns negated.  It differs from the naively
        # suspended matrix by an invertible sign diagonal, so ranks agree
        # with f, but only this version makes consecutive composites vanish.
        # Over F_2 every sign is +1, and f[n] is f's own array
        sfs[q] = f = induced_f(q - n, HAs, HBs)
        if p != 2:
            flip = HAs[q - n]["reps"][:, dg.odd_blocks(M, q - n, n)].any(axis=1)
            sfs[q] = f * np.where(flip, p - 1, 1) % p if flip.any() else f
        for m in (fs[q], gs[q], hs[q], sfs[q]):
            m.setflags(write=False)

    third = _generator_degrees(C, HC, window)
    return Triangle(p, n, window, dims, fs, gs, hs, sfs, third, period)


# position -> (its maps in and out, its dimension and the two factors of the
# composite through it, at degree q; detail when the composite is nonzero,
# detail when the ranks do not add up).  The last map is -f[n], and the sign
# changes neither kernels, images nor whether a composite vanishes; at SB,
# g[n] is conjugate to g at q - n, and the composite is checked on the
# unsuspended maps
_POSITIONS = {
    "B": (lambda T, q: (T.f[q], T.g[q], T.dims[q][1], T.g[q], T.f[q]), "g*f != 0", "im f != ker g"),
    "C": (lambda T, q: (T.g[q], T.h[q], T.dims[q][2], T.h[q], T.g[q]), "h*g != 0", "im g != ker h"),
    "SA": (lambda T, q: (T.h[q], T.sf[q], T.dims[q][3], T.sf[q], T.h[q]), "(-f[n])*h != 0", "im h != ker f[n]"),
    "SB": (lambda T, q: (T.sf[q], T.g[q - T.n], T.dims[q - T.n][1], T.g[q - T.n], T.f[q - T.n]),
           "g[n]*f[n] != 0", "im(-f[n]) != ker g[n]"),
}


def _exact_at(T, q, position):
    """Report of the first failed exactness check at one position in degree
    q, or None.  A position is exact when the composite through it vanishes
    and the ranks of the maps in and out add up to its dimension.

    A check is made once per triangle, whichever verifier asks: T's check
    record holds each check passed, keyed by position, dimension and matrix
    ids, and each rank made, keyed by id.  Its entries keep their matrices,
    so no id is reused while it lives, and the matrices are read-only, so
    no result goes stale."""
    passed, ranks = T._checks
    maps, zero_detail, rank_detail = _POSITIONS[position]
    incoming, outgoing, dim, left, right = maps(T, q)
    key = (position, dim, id(incoming), id(outgoing), id(left), id(right))
    if key in passed:
        return None
    if linalg.modp_matmul(left, right, T.p).any():
        detail = zero_detail
    else:
        for m in (incoming, outgoing):
            if id(m) not in ranks:
                ranks[id(m)] = (linalg.modp_rank(m, T.p), m)
        if ranks[id(incoming)][0] + ranks[id(outgoing)][0] == dim:
            passed[key] = (incoming, outgoing, left, right)
            return None
        detail = rank_detail
    return {"pass": False, "degree": q, "position": position, "detail": detail}


def _unrepeated(T, degrees, shift):
    """The degrees of the range less each q whose checks repeat those at
    q - |v| in it: dims and maps at q and at q - shift the same objects."""
    P, (dims, f, g, h, sf) = T.period, (T.dims, T.f, T.g, T.h, T.sf)

    def repeats(x):
        return dims[x] == dims[x - P] and f[x] is f[x - P] and g[x] is g[x - P] and h[x] is h[x - P] \
            and sf[x] is sf[x - P]

    for q in degrees:
        if not (P and q - P >= degrees.start and repeats(q) and repeats(q - shift)):
            yield q


def _verify(T, degrees, positions, shift):
    """The first failure of `_exact_at` at the positions, degree by degree
    over the range less its repeats (`_unrepeated`), or None."""
    for q in _unrepeated(T, degrees, shift):
        for position in positions:
            failure = _exact_at(T, q, position)
            if failure:
                return failure
    return None


def verify_triangle_exact(T):
    """Slicewise exactness at B, C and A[n]; report PASS or first failure."""
    lo, hi = T.window
    return _verify(T, range(lo, hi + 1), ("B", "C", "SA"), 0) or \
        {"pass": True, "degree": None, "position": None, "detail": "exact in window"}


def verify_rotation(T):
    """Exactness of the rotated triangle B -> C -> A[n] -> B[n].

    The suspension of g is conjugate to g shifted by n, so the check at B[n]
    only needs data already recorded on the original triangle.  WindowEmpty
    when no degree q of the window has q - n in it.
    """
    lo, hi = T.window
    degrees = range(max(lo, lo + T.n), min(hi, hi + T.n) + 1)
    if not degrees:
        raise WindowEmpty(f"window {lo}:{hi} holds no degree q with q - n in it, at n = {T.n}")
    return _verify(T, degrees, ("C", "SA", "SB"), T.n) or \
        {"pass": True, "degree": None, "position": None, "detail": "rotation exact in window"}


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


def run_random_trials(R, n, trials, seed, window=None):
    """Build and verify `trials` seeded random triangles; returns a report.
    Where the window is too narrow for verify_rotation, each result's
    rotation is None and "unchecked" holds the reason."""
    rng = random.Random(seed)
    results, unchecked = [], None
    for k in range(trials):
        src, tgt, entries = random_map(R, n, rng)
        T = triangle_from_map(R, n, src, tgt, entries, window=window)
        rep = verify_triangle_exact(T)
        try:
            rot = verify_rotation(T)
        except WindowEmpty as e:
            rot, unchecked = {"pass": None}, str(e)
        results.append({
            "trial": k,
            "exact": rep["pass"],
            "rotation": rot["pass"],
            "third_degrees": T.third_generator_degrees,
            "detail": rep if not rep["pass"] else rot if rot["pass"] is False else None,
        })
    ok = all(r["exact"] and r["rotation"] is not False for r in results)
    return {"pass": ok, "trials": trials, "results": results, "unchecked": unchecked}
