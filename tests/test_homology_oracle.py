"""dga.homology and its elimination kernels against straightforward references.

`reference_homology` computes every slice on its own: both slice
differentials from scratch, one monomial at a time through the element-wise
Leibniz rule (against which `slice_differential` and `map_slice` are also
compared), the representatives by a greedy loop that keeps
a low-weight cycle when it is not yet in the span of the boundaries and the
cycles kept before it.  `homology` must return the same records: modules
with zero differential take them from H(A), the others from one echelon form
per representative set.  The class coordinates of a batch of cycles must be
what one solve per cycle gives, `modp_rref` must agree with a pure-Python
Gauss-Jordan elimination, and the per-position exactness check of
`verify_triangle_exact`/`verify_rotation` must report what two loops of
explicit checks report, also on corrupted triangles.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from trimod import constructions as con
from trimod import dga as dg
from trimod import linalg
from trimod import triangles as tr
from trimod.errors import ShapeMismatch

KEYS = ("dim", "reps", "basis", "im")


# ---------------------------------------------------------------------------
# references


def reference_apply_diff(M, elem):
    """d of the element {gen index: A-element}, in the same form, by the
    Leibniz rule d(x gen_j) = d(x) gen_j + (-1)^{n|x|} x d(gen_j)."""
    alg = M.alg
    out = {}
    for j, x in elem.items():
        if x.is_zero:
            continue
        dx = alg.differential(x, truncate=True)
        if not dx.is_zero:
            out[j] = out.get(j, alg.zero()) + dx
        sign = -1 if (alg.n * x.degree()) % 2 else 1
        for i in range(len(M.gen_degrees)):
            entry = M.diff[i][j]
            if entry.is_zero:
                continue
            contrib = alg.multiply(x, entry, truncate=True) * sign
            if not contrib.is_zero:
                out[i] = out.get(i, alg.zero()) + contrib
    return {k: v for k, v in out.items() if not v.is_zero}


def reference_apply_map(f, elem):
    """f of the element {gen index: A-element}, coefficientwise."""
    alg = f.source.alg
    out = {}
    for j, x in elem.items():
        for i in range(len(f.target.gen_degrees)):
            entry = f.matrix[i][j]
            if entry.is_zero:
                continue
            contrib = alg.multiply(x, entry, truncate=True)
            if not contrib.is_zero:
                out[i] = out.get(i, alg.zero()) + contrib
    return {k: v for k, v in out.items() if not v.is_zero}


def reference_matrix(apply, alg, src_basis, tgt_basis, twist=0):
    """Matrix of apply from the src slice to the tgt slice, one monomial at a
    time; with twist the monomial y is first scaled by (-1)^{twist |y|}."""
    pos = {key: idx for idx, key in enumerate(tgt_basis)}
    cols = []
    for j, key in src_basis:
        sign = -1 if (twist * alg.monomial_degree(*key)) % 2 else 1
        img = apply({j: dg.DGElement(alg, {key: sign})})
        col = [0] * len(tgt_basis)
        for i, x in img.items():
            for k, c in x.terms.items():
                if (i, k) in pos:
                    col[pos[(i, k)]] = c % alg.p
        cols.append(col)
    return [[cols[j][r] for j in range(len(src_basis))] for r in range(len(tgt_basis))]


def reference_slice_matrix(M, src_basis, tgt_basis):
    return reference_matrix(lambda e: reference_apply_diff(M, e), M.alg, src_basis, tgt_basis)


def reference_homology(M, window, padding=dg.PADDING):
    alg, p = M.alg, M.alg.p
    out = {}
    for q in range(window[0], window[1] + 1):
        basis = dg.slice_basis(M, q)
        below = dg.slice_basis(M, q - alg.n)
        above = dg.slice_basis(M, q + alg.n)
        d_here = reference_slice_matrix(M, basis, below)
        d_above = reference_slice_matrix(M, above, basis)
        ker = linalg.modp_kernel(d_here, p) if basis else []
        if not below:
            ker = [[int(a == b) for a in range(len(basis))] for b in range(len(basis))]
        im = [[row[j] for row in d_above] for j in range(len(above))] if above else []
        im = [col for col in im if any(col)]
        high = [idx for idx, (_, (_, _, m)) in enumerate(basis) if m > alg.weight - padding]
        ker_low = [list(v) for v in ker]
        if ker and high:
            ker_low = []
            for comb in linalg.modp_kernel([[v[idx] for v in ker] for idx in high], p):
                vec = [sum(c * v[r] for c, v in zip(comb, ker)) % p for r in range(len(basis))]
                if any(vec):
                    ker_low.append(vec)
        reps = []
        span = linalg.Subgroup(im, [p] * len(basis))
        for v in ker_low:
            if not span.contains(v):
                reps.append(v)
                span = span.extend([v])
        out[q] = {"dim": len(reps), "reps": reps, "basis": basis, "im": im}
    return out


def reference_rref(A, p):
    R = [[x % p for x in row] for row in A]
    nr, nc = len(R), len(R[0]) if R else 0
    pivots, r = [], 0
    for c in range(nc):
        i = next((i for i in range(r, nr) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        for i in range(nr):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [(x - f * y) % p for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def composite_is_zero(A, B, p):
    """Is A B = 0 mod p?  B has len(B) rows, A has that many columns."""
    cols = len(B[0]) if B else 0
    return all(sum(row[k] * B[k][c] for k in range(len(B))) % p == 0 for row in A for c in range(cols))


def reference_verify_exact(T):
    p = T.p
    for q in range(T.window[0], T.window[1] + 1):
        a, b, c, sa, sb = T.dims[q]
        fq, gq, hq, sfq = T.f[q], T.g[q], T.h[q], T.sf[q]
        neg = [[(-x) % p for x in row] for row in sfq]
        for pos, first, second, dim, zero_msg, rank_msg in (
                ("B", fq, gq, b, "g*f != 0", "im f != ker g"),
                ("C", gq, hq, c, "h*g != 0", "im g != ker h"),
                ("SA", hq, neg, sa, "(-f[n])*h != 0", "im h != ker f[n]")):
            if not composite_is_zero(second, first, p):
                return {"pass": False, "degree": q, "position": pos, "detail": zero_msg}
            rk = linalg.modp_rank(first, p) + linalg.modp_rank(sfq if pos == "SA" else second, p)
            if rk != dim:
                return {"pass": False, "degree": q, "position": pos, "detail": rank_msg}
    return {"pass": True, "degree": None, "position": None, "detail": "exact in window"}


def reference_verify_rotation(T):
    p, n = T.p, T.n
    lo, hi = T.window
    for q in range(lo, hi + 1):
        if not (lo <= q - n <= hi):
            continue
        a, b, c, sa, sb = T.dims[q]
        gq, hq, sfq = T.g[q], T.h[q], T.sf[q]
        gprev, fprev = T.g[q - n], T.f[q - n]
        for pos, zero, ranks, dim, zero_msg, rank_msg in (
                ("C", (hq, gq), (gq, hq), c, "h*g != 0", "im g != ker h"),
                ("SA", (sfq, hq), (hq, sfq), sa, "(-f[n])*h != 0", "im h != ker f[n]"),
                ("SB", (gprev, fprev), (sfq, gprev), T.dims[q - n][1],
                 "g[n]*f[n] != 0", "im(-f[n]) != ker g[n]")):
            if not composite_is_zero(zero[0], zero[1], p):
                return {"pass": False, "degree": q, "position": pos, "detail": zero_msg}
            if linalg.modp_rank(ranks[0], p) + linalg.modp_rank(ranks[1], p) != dim:
                return {"pass": False, "degree": q, "position": pos, "detail": rank_msg}
    return {"pass": True, "degree": None, "position": None, "detail": "rotation exact in window"}


# ---------------------------------------------------------------------------
# drawn modules: free modules, their shifts, cones of random lifted maps

# (p, i, n, weight, window); the i = 0 model only exists in characteristic 2
MODELS = [(2, 1, 1, 8, (-2, 2)), (3, 1, 1, 8, (-2, 2)), (5, 1, 1, 8, (-2, 2)),
          (2, 0, 0, 4, (-2, 2))]


def lift_ring(p, i, n):
    if i == 0:
        return con.exterior_on_field(con.finite_field(p))
    return con.laurent_exterior(p, i, 3 * i + n)


def drawn_map(p, i, n, weight, rng):
    """A random map of free modules, lifted to the DG algebra."""
    alg = dg.build_two_generator_dga(p, i, n, weight)
    R = lift_ring(p, i, n)
    src, tgt, entries = tr.random_map(R, n, rng, max_rank=3, deg_lo=-2, deg_hi=2)
    M, N = dg.DGModule(alg, src), dg.DGModule(alg, tgt)
    return dg.DGMap(M, N, [[tr._lift_entry(alg, R, x) for x in row] for row in entries])


def drawn_modules(p, i, n, weight, seed):
    """A free module, a shift of it, and the cone of a random lifted map."""
    rng = random.Random(seed)
    f = drawn_map(p, i, n, weight, rng)
    return [f.source, dg.shift(f.target, rng.randint(-2, 2)), dg.cone(f)]


def same_records(H, ref):
    assert H.keys() == ref.keys()
    for q in ref:
        assert {k: H[q][k] for k in KEYS} == ref[q], f"degree {q}"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 2 ** 32))
def test_homology_matches_reference(model, seed):
    p, i, n, weight, window = model
    for M in drawn_modules(p, i, n, weight, seed):
        # both paddings on one algebra: its cached H(A) slices must not mix
        for padding in (2, 1):
            same_records(dg.homology(M, window, padding), reference_homology(M, window, padding))
        for q in range(window[0] - 1, window[1] + 2):
            want = reference_slice_matrix(M, dg.slice_basis(M, q), dg.slice_basis(M, q - n))
            assert dg.slice_differential(M, q).tolist() == want, f"degree {q}"
    # the maps of a triangle: f, the inclusion into its cone, the projection
    # to the shifted source, and the connecting map of the cone sequence
    f = drawn_map(p, i, n, weight, random.Random(seed))
    C = dg.cone(f)
    gn, gm = len(f.target.gen_degrees), len(f.source.gen_degrees)
    alg = C.alg
    incl = dg.DGMap(f.target, C, [[alg.one() if r == c else alg.zero() for c in range(gn)]
                                  for r in range(gn + gm)])
    proj = dg.DGMap(C, dg.shift(f.source, n), [[alg.one() if c == gn + r else alg.zero()
                                                for c in range(gn + gm)] for r in range(gm)])
    for q in range(window[0], window[1] + 1):
        for g in (f, incl, proj):
            want = reference_matrix(lambda e: reference_apply_map(g, e), alg,
                                    dg.slice_basis(g.source, q), dg.slice_basis(g.target, q))
            assert dg.map_slice(g, q).tolist() == want, f"degree {q}"
        want = reference_matrix(lambda e: reference_apply_map(f, e), alg,
                                dg.slice_basis(dg.shift(f.source, n), q),
                                dg.slice_basis(dg.shift(f.target, n), q), twist=n)
        assert dg.map_slice(f, q - n, twist=n).tolist() == want, f"degree {q}"


def test_homology_of_triangle_modules_matches_reference():
    # the modules triangle_from_map builds, at the default weight: the free
    # ones share the H(A) slices cached on their algebra
    R = con.laurent_exterior(3, 1, 4)
    rng = random.Random(5)
    for _ in range(3):
        src, tgt, entries = tr.random_map(R, 1, rng)
        alg = dg.build_two_generator_dga(3, 1, 1)
        M, N = dg.DGModule(alg, src), dg.DGModule(alg, tgt)
        f = dg.DGMap(M, N, [[tr._lift_entry(alg, R, x) for x in row] for row in entries])
        for X in (M, N, dg.shift(M, 1), dg.shift(N, 1), dg.cone(f)):
            same_records(dg.homology(X, (-5, 5)), reference_homology(X, (-5, 5)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 2 ** 32))
def test_class_coordinates_match_per_vector_solve(model, seed):
    p, i, n, weight, window = model
    rng = random.Random(seed)
    for M in drawn_modules(p, i, n, weight, seed):
        for Hq in dg.homology(M, window).values():
            reps, im = Hq["reps"], Hq["im"]
            size = len(Hq["basis"])
            gens = reps + im
            cycles = []
            for _ in range(3):
                coeffs = [rng.randrange(p) for _ in gens]
                cycles.append([sum(c * v[r] for c, v in zip(coeffs, gens)) % p
                               for r in range(size)])
            got = dg.class_coordinates(Hq, p, cycles)
            assert len(got) == len(reps) and all(len(row) == len(cycles) for row in got)
            if not gens:
                continue
            A = [[v[r] for v in gens] for r in range(size)]
            for c, z in enumerate(cycles):
                want = linalg.modp_solve(A, z, p)[:len(reps)]
                assert [row[c] for row in got] == want
            if linalg.modp_rank(A, p) < size:
                # a vector outside span(reps, im) has no class
                outside = next(e for e in ([int(r == k) for r in range(size)] for k in range(size))
                               if linalg.modp_solve(A, e, p) is None)
                with pytest.raises(ShapeMismatch):
                    dg.class_coordinates(Hq, p, cycles + [outside])


# ---------------------------------------------------------------------------
# modp_rref against Gauss-Jordan over Python integers


@st.composite
def matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    nr, nc = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(["random", "zero", "deficient"]))
    if kind == "zero" or nr == 0:
        A = [[0] * nc for _ in range(nr)]
    elif kind == "random":
        A = draw(st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=nc, max_size=nc),
                          min_size=nr, max_size=nr))
    else:
        # rows combined from a few base rows: rank at most len(base)
        base = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=nc, max_size=nc),
                             min_size=1, max_size=max(1, min(nr, nc) - 1)))
        A = []
        for _ in range(nr):
            coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(base), max_size=len(base)))
            A.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(nc)])
    return A, p


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_modp_rref_matches_reference(case):
    A, p = case
    R, pivots = linalg.modp_rref(A, p)
    want_R, want_pivots = reference_rref(A, p)
    assert pivots == want_pivots
    assert R.tolist() == want_R


def test_modp_rref_empty_shapes():
    for A in ([], [[]], [[], []]):
        R, pivots = linalg.modp_rref(A, 3)
        assert pivots == [] and R.size == 0


# ---------------------------------------------------------------------------
# the shared per-position exactness check


def corruptions(T, rng):
    """Copies of T with one matrix entry or one dimension changed."""
    slots = [(name, q) for name in ("f", "g", "h", "sf") for q in getattr(T, name)
             if any(getattr(T, name)[q])]
    for _ in range(6):
        bent = tr.Triangle(T.p, T.n, T.window, dict(T.dims), dict(T.f), dict(T.g),
                           dict(T.h), dict(T.sf), T.third_generator_degrees)
        if slots and rng.random() < 0.7:
            name, q = rng.choice(slots)
            mat = [list(row) for row in getattr(bent, name)[q]]
            r, c = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
            mat[r][c] = (mat[r][c] + rng.randrange(1, T.p)) % T.p
            getattr(bent, name)[q] = mat
        else:
            q = rng.choice(sorted(T.dims))
            dims = list(bent.dims[q])
            k = rng.randrange(5)
            dims[k] += rng.choice([-1, 1])
            bent.dims[q] = tuple(dims)
        yield bent


def test_shared_position_check_reports_like_reference():
    R = con.laurent_exterior(3, 1, 4)
    rng = random.Random(11)
    for _ in range(6):
        src, tgt, entries = tr.random_map(R, 1, rng)
        T = tr.triangle_from_map(R, 1, src, tgt, entries)
        for X in [T] + list(corruptions(T, rng)):
            assert tr.verify_triangle_exact(X) == reference_verify_exact(X)
            assert tr.verify_rotation(X) == reference_verify_rotation(X)
