"""dga.homology and its elimination kernels against straightforward references.

`reference_homology` computes every slice on its own: both slice
differentials from scratch, one monomial at a time through the element-wise
Leibniz rule of `brute_force` (against which `slice_differential` and
`map_slice` are also compared), the representatives by a greedy loop that keeps
a low-weight cycle when it is not yet in the span of the boundaries and the
cycles kept before it.  `homology` must return the same records: modules
with zero differential take them from H(A), the others from one echelon
basis per slice grown by insertion, and on windows spanning two periods of v, where
`homology` eliminates one degree per residue class mod |v| and transports
the records to the others, every degree must still match; so must the
slice differential, which each module builds once per residue class.  One
triangle must build each slice object once per module and residue class,
and a one-generator free module must take H(A)'s records as they are; the
elimination of a slice must keep its rows sparse, and the column of 1 * gen
in a slice differential must hold d(gen) as a slice-basis lookup does.  A
map must raise NotChainMap exactly when element arithmetic finds
f(d gen) != d(f gen) on a generator.  The
class coordinates of a batch of cycles must be what one solve per cycle
gives, `modp_rref` must agree with a pure-Python
Gauss-Jordan elimination over F_p and over Q, and the per-position exactness check of
`verify_triangle_exact`/`verify_rotation` must report what two loops of
explicit checks report, also on corrupted triangles, while checking one
period of degrees where the later ones repeat it.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from brute_force import dg_add, dg_degree, dg_differential, dg_multiply
from hypothesis import given, settings, strategies as st

from trimod import constructions as con
from trimod import dga as dg
from trimod import linalg
from trimod import triangles as tr
from trimod.errors import NotChainMap, ShapeMismatch

# ---------------------------------------------------------------------------
# references


def reference_apply_diff(M, elem):
    """d of the element {gen index: term dict of A}, in the same form, by the
    Leibniz rule d(x gen_j) = d(x) gen_j + (-1)^{n|x|} x d(gen_j)."""
    alg = M.alg
    out = {}
    for j, x in elem.items():
        out[j] = dg_add(alg, out.get(j, {}), dg_differential(alg, x))
        sign = -1 if (alg.n * dg_degree(alg, x)) % 2 else 1
        for i, row in enumerate(M.diff):
            out[i] = dg_add(alg, out.get(i, {}), dg_multiply(alg, x, row[j].terms), sign)
    return out


def reference_apply_map(f, elem):
    """f of the element {gen index: term dict of A}, coefficientwise."""
    alg = f.source.alg
    out = {}
    for j, x in elem.items():
        for i, row in enumerate(f.matrix):
            out[i] = dg_add(alg, out.get(i, {}), dg_multiply(alg, x, row[j].terms))
    return out


def reference_matrix(apply, alg, src_basis, tgt_basis):
    """Matrix of apply from the src slice to the tgt slice, one monomial at a
    time."""
    pos = {key: idx for idx, key in enumerate(tgt_basis)}
    cols = []
    for j, key in src_basis:
        img = apply({j: {key: 1}})
        col = [0] * len(tgt_basis)
        for i, x in img.items():
            for k, c in x.items():
                if (i, k) in pos:
                    col[pos[(i, k)]] = c % alg.p
        cols.append(col)
    return [[cols[j][r] for j in range(len(src_basis))] for r in range(len(tgt_basis))]


def reference_slice_matrix(M, src_basis, tgt_basis):
    return reference_matrix(lambda e: reference_apply_diff(M, e), M.alg, src_basis, tgt_basis)


def reference_homology(M, window):
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
        high = [idx for idx, (_, (_, _, m)) in enumerate(basis) if m > alg.weight - dg.PADDING]
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
        out[q] = {"dim": len(reps), "reps": reps, "basis": basis, "boundaries": im}
    return out


def reference_rref(A, p):
    """Gauss-Jordan on whole rows, column by column.  Over F_p, or over Q in
    Fraction arithmetic for p = 0."""
    red = (lambda x: x % p) if p else Fraction
    R = [[red(x) for x in row] for row in A]
    nr, nc = len(R), len(R[0]) if R else 0
    pivots, r = [], 0
    for c in range(nc):
        i = next((i for i in range(r, nr) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p) if p else 1 / R[r][c]
        R[r] = [red(x * inv) for x in R[r]]
        for i in range(nr):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [red(x - f * y) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def composite_is_zero(A, B, p):
    """Is A B = 0 mod p?  B has len(B) rows, A has that many columns."""
    cols = len(B[0]) if len(B) else 0
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

# (p, i, n, weight, window); the models with |v| = 3i + n = 0 only exist in
# characteristic 2, and at (i, n) = (1, -3) some slices hold only cycles of
# unreliable weight and no boundaries.  Periodic models at the least weight
# take windows wider than W - 2 PADDING, which only |v| = 0 bounds
MODELS = [(2, 1, 1, 8, (-2, 2)), (3, 1, 1, 8, (-2, 2)), (5, 1, 1, 8, (-2, 2)),
          (2, 0, 0, 4, (-2, 2)), (2, 1, -3, 8, (-2, 2)),
          (2, 1, 1, 4, (-3, 3)), (3, 1, 1, 4, (-3, 3)), (2, 0, 1, 4, (-2, 2))]


def lift_ring(p, i, n):
    if 3 * i + n == 0:
        return con.exterior_on_field(con.finite_field(p), x_degree=i)
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


def same_records(H, ref, p):
    """dim and reps as the reference's, and coords = [P; Z] the coordinate
    map of span(reps, boundaries): the reps have the unit coordinates, every
    reference boundary b has P b = 0 and Z b = 0, and Z has full rank
    size - dim - rank(boundaries), so its kernel is no larger than that span."""
    assert H.keys() == ref.keys()
    for q in ref:
        got, dim, size = H[q], ref[q]["dim"], len(ref[q]["basis"])
        assert (got["dim"], got["reps"].tolist()) == (dim, ref[q]["reps"]), f"degree {q}"
        # reps and coords are coordinate rows over the slice basis
        assert got["reps"].shape[1] == got["coords"].shape[1] == size, f"degree {q}"
        coords, boundaries = got["coords"], ref[q]["boundaries"]
        bounds = np.array(boundaries, dtype=np.int64).reshape(len(boundaries), size)
        assert linalg.modp_matmul(coords, got["reps"].T, p).tolist() == \
            np.eye(len(coords), dim, dtype=np.int64).tolist(), f"degree {q}"
        assert not linalg.modp_matmul(coords, bounds.T, p).any(), f"degree {q}"
        assert len(coords) - dim == size - dim - linalg.modp_rank(bounds, p) == \
            linalg.modp_rank(coords[dim:], p), f"degree {q}"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 2 ** 32))
def test_homology_matches_reference(model, seed):
    p, i, n, weight, window = model
    for M in drawn_modules(p, i, n, weight, seed):
        same_records(dg.homology(M, window), reference_homology(M, window), p)
        for q in range(window[0] - 1, window[1] + 2):
            want = reference_slice_matrix(M, dg.slice_basis(M, q), dg.slice_basis(M, q - n))
            assert dg.slice_differential(M, q).tolist() == want, f"degree {q}"
    # the maps of a triangle: f, the inclusion into its cone and the
    # projection to the shifted source
    f = drawn_map(p, i, n, weight, random.Random(seed))
    C = dg.cone(f)
    gn, gm = len(f.target.gen_degrees), len(f.source.gen_degrees)
    alg = C.alg
    one, zero = dg.DGElement(alg, {(0, 0, 0): 1}), dg.DGElement(alg, {})
    incl = dg.DGMap(f.target, C, [[one if r == c else zero for c in range(gn)] for r in range(gn + gm)])
    proj = dg.DGMap(C, dg.shift(f.source, n), [[one if c == gn + r else zero for c in range(gn + gm)]
                                                for r in range(gm)])
    for q in range(window[0], window[1] + 1):
        for g in (f, incl, proj):
            want = reference_matrix(lambda e: reference_apply_map(g, e), alg,
                                    dg.slice_basis(g.source, q), dg.slice_basis(g.target, q))
            assert dg.map_slice(g, q).tolist() == want, f"degree {q}"


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
            same_records(dg.homology(X, (-5, 5)), reference_homology(X, (-5, 5)), 3)


# (p, i, n) with |v| = 3i + n > 0, which have a lifted ring, and with |v| < 0,
# which have none
POSITIVE_PERIODS = [(3, 1, 1), (3, 1, -1), (5, 1, 1), (2, 2, -1)]
NEGATIVE_PERIODS = [(3, -1, 1), (5, -1, -1), (2, -2, -1)]


def two_periods(i, n):
    """A window spanning two periods of v, and the least weight bound it allows."""
    period = abs(3 * i + n)
    return (-period, period), 2 * period + 2 * dg.PADDING


@pytest.mark.parametrize("model", POSITIVE_PERIODS)
def test_transported_homology_matches_reference(model):
    # homology eliminates one degree per residue class mod |v|; the
    # reference eliminates every degree of the window
    p, i, n = model
    window, weight = two_periods(i, n)
    for seed in range(4):
        for M in drawn_modules(p, i, n, weight, seed):
            same_records(dg.homology(M, window), reference_homology(M, window), p)


@pytest.mark.parametrize("model", NEGATIVE_PERIODS)
def test_transported_homology_matches_reference_negative_period(model):
    p, i, n = model
    window, weight = two_periods(i, n)
    alg = dg.build_two_generator_dga(p, i, n, weight)
    A = dg.algebra_module(alg)
    for M in (A, dg.DGModule(alg, [-1, 0, 2]), dg.shift(A, 3), dg.shift(dg.DGModule(alg, [1, 1]), -2)):
        same_records(dg.homology(M, window), reference_homology(M, window), p)


def test_one_elimination_per_residue_class(monkeypatch):
    calls = []
    eliminate = dg._slice_homology
    monkeypatch.setattr(dg, "_slice_homology", lambda *args: calls.append(args) or eliminate(*args))
    alg = dg.build_two_generator_dga(3, 1, 1)
    H = dg.homology(dg.algebra_module(alg), (-5, 5))
    assert len(H) == 11 and len(calls) == abs(alg.vdeg)


def cycle_map(alg, rng):
    """A random map of free modules over alg, its entries sums of the cycles
    v^t u^m; for the models with |v| < 0, which have no lifted ring."""
    src, tgt = ([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))] for _ in range(2))
    return dg.DGMap(dg.DGModule(alg, src), dg.DGModule(alg, tgt), [
        [dg.DGElement(alg, {key: rng.randrange(alg.p) for key in dg._algebra_basis(alg, sd - td) if not key[1]})
         for sd in src] for td in tgt])


@pytest.mark.parametrize("model", MODELS + [(3, -1, 1, 8, (-2, 2)), (2, -2, -1, 8, (-2, 2))])
def test_shared_slice_matrices_are_exact(model):
    # one set of sparse slice rows per module and residue class mod |v|,
    # whose array, made on demand, must be the matrix of d at each degree of
    # the class, built from scratch, and read-only
    p, i, n, weight, _ = model
    period = abs(3 * i + n)
    rng = random.Random(sum(model[:4]))
    alg = dg.build_two_generator_dga(p, i, n, weight)
    for _ in range(3):
        f = drawn_map(p, i, n, weight, rng) if 3 * i + n >= 0 else cycle_map(alg, rng)
        for M in (dg.cone(f), dg.shift(f.target, rng.randint(-2, 2))):
            for q in range(-period - 2, period + 3):
                want = reference_slice_matrix(M, dg.slice_basis(M, q), dg.slice_basis(M, q - n))
                got = dg.slice_differential(M, q)
                assert got.tolist() == want, f"degree {q}"
                assert dg._slice_rows(M, q + period) is dg._slice_rows(M, q)
                with pytest.raises(ValueError):
                    got[:] = 0


def test_transported_degrees_share_their_record():
    # a record holds arrays over the slice basis, not the basis, so the
    # degrees |v| apart share one record object
    alg = dg.build_two_generator_dga(3, 1, 1)
    period, window = abs(alg.vdeg), (-5, 5)
    f = drawn_map(3, 1, 1, dg.DEFAULT_WEIGHT, random.Random(3))
    for M in (dg.cone(f), dg.DGModule(alg, [-1, 0, 2])):
        H = dg.homology(M, window)
        shared = [q for q in H if q + period in H]
        assert shared and all(H[q] is H[q + period] for q in shared)
        assert not any("basis" in record for record in H.values())


def test_one_triangle_makes_slice_objects_once_per_residue_class(monkeypatch):
    # per module and residue class mod |v|: one set of sparse slice rows,
    # read by the elimination, the cone's check and the map slices, and no
    # slice differential array; the cells of A's slice matrices only at the
    # degrees that the rows of one period read; and one record of a free
    # module, which the shifted windows of A[n] and B[n] reuse.  A
    # one-generator free module takes its records from H(A) as they are, a
    # module on more generators assembles each of them once, in one pass
    modules, assembled, windows = [], [], []
    cone, homology, assemble = dg.cone, dg.homology, dg._free_record

    def spied_cone(f):
        # the map's check, the triangle and its map slices share one cone
        C = cone(f)
        if C not in modules:
            modules.extend((f.source, f.target, C))
        return C

    def spied_homology(M, window):
        start = len(assembled)
        H = homology(M, window)
        windows.append((M, window, len(assembled) - start))
        return H

    monkeypatch.setattr(dg, "cone", spied_cone)
    monkeypatch.setattr(dg, "homology", spied_homology)
    monkeypatch.setattr(dg, "_free_record", lambda blocks: assembled.append(blocks) or assemble(blocks))
    R = con.laurent_exterior(3, 1, 4)
    rng = random.Random(4)
    src, tgt, entries = tr.random_map(R, 1, rng, max_rank=3)
    tr.triangle_from_map(R, 1, src, tgt, entries, window=(-5, 5))
    M, N, C = modules
    period = abs(C.alg.vdeg)

    def built(X, name):
        return len({id(value) for key, value in X._cache.items() if key[0] == name})

    assert 0 < built(C, "_slice_rows") <= period and all(built(X, "_slice_rows") <= period for X in (M, N))
    assert not [key for X in (M, N, C) for key in X._cache if key[0] == "slice_differential"]
    # the rows read the cells of d_A and of right multiplication by each term
    # of the cone's entries at the degrees r - deg(gen_j), r in one period
    # (A itself has its generator in degree 0); the u-action reads the left
    # multiplications by u
    reach = {r - gd for r in range(period) for gd in C.gen_degrees + [0]}
    keys = {None} | {key for row in C.diff for x in row for key in x.terms}
    right = [key[1:] for key in C.alg._cache if key[0] == "_algebra_cells" and key[3:] != (True,)]
    assert all(s in reach and key in keys for s, key in right)
    assert 0 < len(right) <= len(reach) * len(keys)
    assert all(0 < built(X, "_homology_record") <= period for X in (M, N))
    # the map is [-1] -> [2]: every record of A and B is one of H(A)
    assert (M.gen_degrees, N.gen_degrees) == ([-1], [2])
    assert all(dg._homology_record(X, q) is dg._algebra_homology(C.alg, q - X.gen_degrees[0])
               for X in (M, N) for q in range(-6, 6))
    assert [(X, a) for X, w, a in windows if w == (-5, 5) and X is not C] == [(M, 0), (N, 0)]
    assert [(X, a) for X, w, a in windows if w == (-6, 4)] == [(M, 0), (N, 0)]

    # free modules on several generators: one assembly per record, each
    # record assembled once per residue class, none for the shifted window
    while len(src) < 2 or len(tgt) < 2:
        src, tgt, entries = tr.random_map(R, 1, rng, max_rank=3)
    modules.clear()
    windows.clear()
    tr.triangle_from_map(R, 1, src, tgt, entries, window=(-5, 5))
    M, N, C = modules
    assert all(0 < built(X, "_homology_record") <= period for X in (M, N))
    assert [(X, a) for X, w, a in windows if w == (-5, 5) and X is not C] == \
        [(X, built(X, "_homology_record")) for X in (M, N)]
    assert [(X, a) for X, w, a in windows if w == (-6, 4)] == [(M, 0), (N, 0)]


def reference_column(M, q, entries):
    """Coordinates of sum_i entries[i] * gen_i over the whole slice basis."""
    pos = {b: r for r, b in enumerate(dg.slice_basis(M, q))}
    col = [0] * len(pos)
    for i, x in enumerate(entries):
        for key, c in x.terms.items():
            if (i, key) in pos:
                col[pos[(i, key)]] = c
    return col


@pytest.mark.parametrize("p, i, n", [(3, 1, 1), (5, -1, -1), (2, 1, -3)])
def test_column_matches_slice_basis_reference(p, i, n):
    # the d^2 = 0 checks read d(gen) as the column of 1 * gen in the slice
    # differential at deg(gen): here a fifth generator, of degree q + n, over
    # generators of equal degree, with d(gen) holding terms up to u-weight
    # W + 3, those past the weight bound W dropped
    alg = dg.build_two_generator_dga(p, i, n, 6)
    M = dg.DGModule(alg, [0, 1, 1, -2])
    wide = dg.build_two_generator_dga(p, i, n, alg.weight + 3)
    rng, dropped, zero = random.Random(p), 0, dg.DGElement(alg, {})
    for q in range(-6, 7):
        entries = [dg.DGElement(alg, {key: rng.randrange(1, p) for key in dg._algebra_basis(wide, q - gd)
                                      if rng.random() < 0.6}) for gd in M.gen_degrees]
        dropped += sum(m > alg.weight for x in entries for _, _, m in x.terms)
        X = dg.DGModule(alg, M.gen_degrees + [q + n], [[zero] * 4 + [x] for x in entries] + [[zero] * 5],
                        check=False)
        col = dg.slice_differential(X, q + n)[:, dg.slice_basis(X, q + n).index((4, (0, 0, 0)))]
        assert col.tolist() == reference_column(X, q, entries + [zero]), f"degree {q}"
    assert dropped


# (p, i, n): p = 2 with |v| = 0, odd n at p = 2, 3 and 5, and a negative
# period at p = 5
CHAIN_MODELS = [(2, 1, -3), (2, 1, 1), (3, 1, 1), (5, -1, -1)]


def low_weight_matrix(source, target, rng, cycles):
    """Random entries of the right degrees with u-weights at most 2, so that
    no product or differential of the check reaches the weight bound.  When
    cycles, a chain map: sums of the cycles v^t u^m, zero on the rows of the
    target generators with d(gen) != 0 and on the columns of the source
    generators that a differential hits."""
    alg = source.alg
    closed = [not cycles or all(x.is_zero for x in col) for col in zip(*target.diff)]
    unhit = [not cycles or all(x.is_zero for x in row) for row in source.diff]

    def entry(deg, keep):
        keys = [key for key in dg._algebra_basis(alg, deg) if keep and key[2] <= 2 and not (cycles and key[1])]
        return dg.DGElement(alg, {key: rng.randrange(alg.p) for key in keys if rng.random() < 0.5})

    return [[entry(sd - td, closed[i] and unhit[j]) for j, sd in enumerate(source.gen_degrees)]
            for i, td in enumerate(target.gen_degrees)]


def drawn_chain_module(alg, rng):
    """A free module, or the cone of a map of free modules with cycle entries."""
    free = [dg.DGModule(alg, [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]) for _ in range(2)]
    if rng.random() < 0.5:
        return free[0]
    return dg.cone(dg.DGMap(*free, low_weight_matrix(*free, rng, cycles=True)))


def commutes_with_d(f):
    """f(d gen_j) == d(f gen_j) on every source generator, by term
    arithmetic with no weight bound."""
    def nonzero(elem):
        return {i: x for i, x in elem.items() if x}

    for j in range(len(f.source.gen_degrees)):
        gen = {j: {(0, 0, 0): 1}}
        fd = reference_apply_map(f, nonzero(reference_apply_diff(f.source, gen)))
        df = reference_apply_diff(f.target, nonzero(reference_apply_map(f, gen)))
        if nonzero(fd) != nonzero(df):
            return False
    return True


@pytest.mark.parametrize("model", CHAIN_MODELS)
def test_not_chain_map_exactly_when_brute_force_finds_one(model):
    # the chain-map check of DGMap is the d^2 = 0 check of its cone; both
    # outcomes are drawn, and chain maps that are nonzero with a cone on
    # one side.  A unit times the identity, one entry of it sometimes
    # redrawn, is nonzero on the generators that a differential hits
    alg = dg.build_two_generator_dga(*model)
    rng, outcomes = random.Random(sum(model)), []
    for _ in range(80):
        M, N = drawn_chain_module(alg, rng), drawn_chain_module(alg, rng)
        mode = rng.random()
        if mode < 0.25:
            N, c, g = M, rng.randrange(1, alg.p), len(M.gen_degrees)
            matrix = [[dg.DGElement(alg, {(0, 0, 0): c * (i == j)}) for j in range(g)] for i in range(g)]
            if mode < 0.1:
                i, j = rng.randrange(g), rng.randrange(g)
                matrix[i][j] = low_weight_matrix(M, M, rng, cycles=False)[i][j]
        else:
            matrix = low_weight_matrix(M, N, rng, cycles=mode < 0.5)
        commutes = commutes_with_d(dg.DGMap(M, N, matrix, check=False))
        try:
            dg.DGMap(M, N, matrix)
        except NotChainMap:
            assert not commutes
        else:
            assert commutes
        nonzero = any(not x.is_zero for X in (M, N) for row in X.diff for x in row) and \
            any(not x.is_zero for row in matrix for x in row)
        outcomes.append((commutes, nonzero))
    assert sum(not c for c, _ in outcomes) >= 10 and sum(c for c, _ in outcomes) >= 10
    assert outcomes.count((True, True)) >= 3


def test_two_eliminations_per_slice_and_none_on_homology(monkeypatch):
    # a slice builds two held echelon bases, that of its kernel and the one
    # grown by insertion that yields its reps and coordinate map: after
    # homology, induced matrices and class coordinates are products only
    builds, bases, inserts = [], [], []
    eliminate, basis, insert = dg._slice_homology, linalg._echelon_basis, linalg._echelon_insert

    def counted(*args):
        start = len(inserts)
        record = eliminate(*args)
        # the recorded inserts keep their held bases alive, so no id is reused
        builds.append(len({id(held) for held, *_ in inserts[start:]}))
        return record

    monkeypatch.setattr(dg, "_slice_homology", counted)
    monkeypatch.setattr(linalg, "_echelon_basis", lambda *args: bases.append(args) or basis(*args))
    monkeypatch.setattr(linalg, "_echelon_insert", lambda *args: inserts.append(args) or insert(*args))
    f = drawn_map(3, 1, 1, dg.DEFAULT_WEIGHT, random.Random(7))
    C, window = dg.cone(f), (-4, 4)
    H = {X: dg.homology(X, window) for X in (f.source, f.target, C)}
    assert builds and builds == [2] * len(builds)
    bases.clear()
    inserts.clear()
    for q in range(window[0], window[1] + 1):
        dg.induced_matrix(dg.map_slice(f, q), H[f.source][q], H[f.target][q], 3)
        for X in (f.source, f.target, C):
            # the reps and the boundaries, the columns of the slice differential from q + n
            dg.class_coordinates(H[X][q], 3, np.vstack((H[X][q]["reps"], dg.slice_differential(X, q + 1).T)))
            if q + 1 <= window[1]:
                dg.u_action_matrix(X, H[X], q)
    assert bases == [] and inserts == []


@pytest.mark.parametrize("model", MODELS)
def test_slice_homology_keeps_its_rows_sparse(monkeypatch, model):
    # kernel rows, tagged cycles, reps and the coordinate map are filled
    # from sparse rows: no held basis is padded into an array
    def refuse(*args):
        raise AssertionError("a held basis was padded into an array")

    monkeypatch.setattr(linalg, "_echelon_matrix", refuse)
    p, i, n, weight, window = model
    f = drawn_map(p, i, n, weight, random.Random(p + weight))
    C = dg.cone(f)
    same_records(dg.homology(C, window), reference_homology(C, window), p)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 2 ** 32))
def test_class_coordinates_match_per_vector_solve(model, seed):
    p, i, n, weight, window = model
    rng = random.Random(seed)
    for M in drawn_modules(p, i, n, weight, seed):
        for q, Hq in dg.homology(M, window).items():
            # the boundaries: the columns of the slice differential from q + n
            reps, im = Hq["reps"].tolist(), dg.slice_differential(M, q + n).T.tolist()
            size = Hq["reps"].shape[1]
            gens = reps + im
            cycles = []
            for _ in range(3):
                coeffs = [rng.randrange(p) for _ in gens]
                cycles.append([sum(c * v[r] for c, v in zip(coeffs, gens)) % p
                               for r in range(size)])
            got = dg.class_coordinates(Hq, p, np.array(cycles, dtype=np.int64).reshape(3, size))
            assert got.shape == (len(reps), len(cycles))
            # with no reps and no boundaries A has no columns, and only 0 has a class
            A = [[v[r] for v in gens] for r in range(size)]
            for c, z in enumerate(cycles):
                want = linalg.modp_solve(A, z, p)[:len(reps)]
                assert got[:, c].tolist() == want
            if linalg.modp_rank(A, p) < size:
                # a vector outside span(reps, im) has no class
                outside = next(e for e in ([int(r == k) for r in range(size)] for k in range(size))
                               if linalg.modp_solve(A, e, p) is None)
                with pytest.raises(ShapeMismatch):
                    dg.class_coordinates(Hq, p, np.array(cycles + [outside], dtype=np.int64).reshape(4, size))


# ---------------------------------------------------------------------------
# modp_rref against Gauss-Jordan over Python integers and Fractions


@st.composite
def matrices(draw):
    """(A, p): a matrix over F_p, or over Q with fraction entries for p = 0.
    Either small (random, zero, or of deficient rank) or shaped like a DG
    slice: [E | I] with E sparse (about 3% nonzero).  A comes in a form the callers
    pass: a list of rows, an int64 array (an object array over Q), or over
    F_p a list of rows of numpy int64 scalars."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7, 101]))
    entry = st.integers(-2 * p, 2 * p) if p else st.fractions(-5, 5, max_denominator=4)
    coeff = st.integers(0, p - 1) if p else st.integers(-3, 3)
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        nr, width = draw(st.integers(1, 50)), draw(st.integers(1, 50))
        value = (lambda: rng.randrange(1, p)) if p else (lambda: Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
        A = [[value() if rng.random() < 0.03 else 0 for _ in range(width)] + [int(r == c) for c in range(nr)]
             for r in range(nr)]
    else:
        nr, nc = draw(st.integers(0, 7)), draw(st.integers(0, 7))
        kind = draw(st.sampled_from(["random", "zero", "deficient"]))
        if kind == "zero" or nr == 0:
            A = [[0] * nc for _ in range(nr)]
        elif kind == "random":
            A = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
        else:
            # rows combined from a few base rows: rank at most len(base)
            base = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                                 min_size=1, max_size=max(1, min(nr, nc) - 1)))
            A = []
            for _ in range(nr):
                coeffs = draw(st.lists(coeff, min_size=len(base), max_size=len(base)))
                A.append([sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(nc)])
    form = draw(st.sampled_from(["list", "array", "numpy scalars"]))
    if form == "array":
        A = np.array(A, dtype=np.int64 if p else object).reshape(len(A), len(A[0]) if A else 0)
    elif form == "numpy scalars" and p:
        A = [[np.int64(x) for x in row] for row in A]
    return A, p


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_modp_rref_matches_reference(case):
    A, p = case
    R, pivots = linalg.modp_rref(A, p)
    want_R, want_pivots = reference_rref([[x if p == 0 else int(x) for x in row] for row in A], p)
    assert pivots == want_pivots
    assert R.dtype == (np.int64 if p else object)
    assert R.tolist() == want_R


def test_modp_rref_empty_shapes():
    for A in ([], [[]], [[], []]):
        for p in (3, 0):
            R, pivots = linalg.modp_rref(A, p)
            assert pivots == [] and R.size == 0


# ---------------------------------------------------------------------------
# the shared per-position exactness check


def corruptions(T, rng):
    """Copies of T with one matrix entry or one dimension changed."""
    slots = [(name, q) for name in ("f", "g", "h", "sf") for q in getattr(T, name)
             if getattr(T, name)[q].any()]
    for _ in range(6):
        bent = tr.Triangle(T.p, T.n, T.window, dict(T.dims), dict(T.f), dict(T.g),
                           dict(T.h), dict(T.sf), T.third_generator_degrees)
        if slots and rng.random() < 0.7:
            name, q = rng.choice(slots)
            mat = getattr(bent, name)[q].copy()
            r, c = rng.randrange(mat.shape[0]), rng.randrange(mat.shape[1])
            mat[r, c] = (mat[r, c] + rng.randrange(1, T.p)) % T.p
            getattr(bent, name)[q] = mat
        else:
            q = rng.choice(sorted(T.dims))
            dims = list(bent.dims[q])
            k = rng.randrange(5)
            dims[k] += rng.choice([-1, 1])
            bent.dims[q] = tuple(dims)
        yield bent


def test_shared_position_check_reports_like_reference():
    # both verifiers share one record of passed checks per triangle, so each
    # must report like its reference whichever runs first; corruptions
    # replace the read-only arrays of a copy rather than writing into them
    R = con.laurent_exterior(3, 1, 4)
    rng = random.Random(11)
    for _ in range(6):
        src, tgt, entries = tr.random_map(R, 1, rng)
        T = tr.triangle_from_map(R, 1, src, tgt, entries)
        state = rng.getstate()
        for X in [T] + list(corruptions(T, rng)):
            assert tr.verify_triangle_exact(X) == reference_verify_exact(X)
            assert tr.verify_rotation(X) == reference_verify_rotation(X)
        # the same corruptions of a fresh triangle, rotation first
        again = random.Random()
        again.setstate(state)
        T = tr.triangle_from_map(R, 1, src, tgt, entries)
        for X in [T] + list(corruptions(T, again)):
            assert tr.verify_rotation(X) == reference_verify_rotation(X)
            assert tr.verify_triangle_exact(X) == reference_verify_exact(X)


def test_verifiers_check_one_period_and_report_corruptions_past_it(monkeypatch):
    # at +-30 each verifier checks one period of degrees, whose dims and maps
    # the later degrees repeat as the same objects.  A copy with one array
    # replaced past the first period, by zeros, by an equal copy or by a
    # copy with one entry changed, is checked at that degree, and both
    # verifiers report like the references
    R = con.laurent_exterior(3, 1, 4)
    rng = random.Random(30)

    def bumped(a):
        a = a.copy()
        if a.size:
            a[rng.randrange(a.shape[0]), rng.randrange(a.shape[1])] += 1
        return a % 3

    calls, exact_at = [], tr._exact_at
    monkeypatch.setattr(tr, "_exact_at", lambda T, q, position: calls.append((q, position)) or exact_at(T, q, position))
    failures = 0
    for _ in range(3):
        T = tr.triangle_from_map(R, 1, *tr.random_map(R, 1, rng, max_rank=4), window=(-30, 30))
        period = T.period
        assert period == 4
        calls.clear()
        assert tr.verify_triangle_exact(T)["pass"]
        assert calls == [(q, pos) for q in range(-30, -30 + period) for pos in ("B", "C", "SA")]
        calls.clear()
        assert tr.verify_rotation(T)["pass"]
        assert calls == [(q, pos) for q in range(-29, -29 + period) for pos in ("C", "SA", "SB")]
        for name, q in [(name, rng.randint(-30 + period, 30)) for name in ("f", "g", "h", "sf") for _ in range(3)]:
            for replace in (np.zeros_like, np.copy, bumped):
                bent = tr.Triangle(T.p, T.n, T.window, dict(T.dims), dict(T.f), dict(T.g), dict(T.h),
                                   dict(T.sf), T.third_generator_degrees, T.period)
                getattr(bent, name)[q] = replace(getattr(T, name)[q])
                calls.clear()
                exact = tr.verify_triangle_exact(bent)
                assert exact == reference_verify_exact(bent) and any(d == q for d, _ in calls)
                assert tr.verify_rotation(bent) == reference_verify_rotation(bent)
                if replace is np.zeros_like and getattr(T, name)[q].any():
                    assert exact["degree"] == q
                    failures += 1
    assert failures


def test_records_and_triangle_maps_are_read_only():
    # records and maps are shared by degrees, triangles and the check record,
    # so none can be written in place
    R = con.laurent_exterior(3, 1, 4)
    src, tgt, entries = tr.random_map(R, 1, random.Random(2), max_rank=3)
    T = tr.triangle_from_map(R, 1, src, tgt, entries, window=(-5, 5))
    alg = tr._model(R, 1, dg.DEFAULT_WEIGHT)
    f = drawn_map(3, 1, 1, dg.DEFAULT_WEIGHT, random.Random(3))
    records = [Hq for M in (dg.cone(f), dg.DGModule(alg, [-1, 0, 2]), dg.algebra_module(alg))
               for Hq in dg.homology(M, (-3, 3)).values()]
    arrays = [Hq[key] for Hq in records for key in ("reps", "coords")] + \
        [m for mats in (T.f, T.g, T.h, T.sf) for m in mats.values()]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_class_coordinates_refuse_a_vector_outside_the_span():
    # the rows of coords past dim are the span check, on an eliminated record
    # and on one assembled for a free module on several generators
    alg = dg.build_two_generator_dga(3, 1, 1)
    u = dg.DGElement(alg, {(0, 0, 1): 1})
    C = dg.cone(dg.DGMap(dg.DGModule(alg, [1]), dg.DGModule(alg, [0]), [[u]]))
    F = dg.DGModule(alg, [-1, 0, 2])
    refused = {C: 0, F: 0}
    for M in refused:
        for q, Hq in dg.homology(M, (-3, 3)).items():
            assert Hq["coords"].shape[0] >= Hq["dim"]
            span = np.vstack((Hq["reps"], dg.slice_differential(M, q + 1).T))
            rank = linalg.modp_rank(span, 3)
            for k in range(span.shape[1]):
                e = np.zeros((1, span.shape[1]), dtype=np.int64)
                e[0, k] = 1
                if linalg.modp_rank(np.vstack((span, e)), 3) > rank:
                    with pytest.raises(ShapeMismatch):
                        dg.class_coordinates(Hq, 3, np.vstack((Hq["reps"], e)))
                    refused[M] += 1
                else:
                    assert dg.class_coordinates(Hq, 3, e).shape == (Hq["dim"], 1)
    assert all(refused.values())
