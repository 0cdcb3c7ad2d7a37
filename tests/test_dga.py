import random

import pytest

from trimod import constructions as con
from trimod import dga as dg
from trimod import linalg
from trimod import triangles as tr
from trimod.errors import (
    NotChainMap,
    ParityObstruction,
    ShapeMismatch,
    WeightOverflow,
    WindowEmpty,
    WindowTooWideForWeightBound,
)


PARAMS_OK = [(3, 1, 1), (2, 0, 0), (2, 1, 1), (5, 1, 1), (3, 1, 3)]
PARAMS_BAD = [(3, 0, 0), (5, 0, 0), (5, 1, 0), (3, 1, 2)]


def test_parity_obstruction():
    for p, i, n in PARAMS_OK:
        dg.build_two_generator_dga(p, i, n)
    for p, i, n in PARAMS_BAD:
        with pytest.raises(ParityObstruction):
            dg.build_two_generator_dga(p, i, n)


def test_defining_relations():
    A = dg.build_two_generator_dga(3, 1, 1)
    a, u, v = A.gen_a(), A.gen_u(), A.gen_v()
    assert (a * a).is_zero
    assert u * a == -(a * u) - v
    assert A.differential(a) == u * u
    assert A.differential(u).is_zero


def test_product_associative_random():
    A = dg.build_two_generator_dga(3, 1, 1, weight=40)
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (A.random_monomial(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_leibniz_random_pairs():
    rng = random.Random(11)
    for p, i, n in PARAMS_OK:
        A = dg.build_two_generator_dga(p, i, n, weight=40)
        for _ in range(200 // len(PARAMS_OK) + 1):
            x, y = A.random_monomial(rng), A.random_monomial(rng)
            assert A.leibniz_holds(x, y)


def test_d_squared_zero():
    A = dg.build_two_generator_dga(2, 1, 1, weight=40)
    rng = random.Random(3)
    for _ in range(50):
        x = A.random_monomial(rng)
        assert A.differential(A.differential(x)).is_zero


def test_weight_overflow():
    A = dg.build_two_generator_dga(3, 1, 1, weight=8)
    u5 = A.monomial(m=5)
    with pytest.raises(WeightOverflow):
        _ = A.multiply(u5, u5)


def test_homology_of_algebra_is_exterior():
    for p, i, n in [(3, 1, 1), (2, 1, 1), (5, 1, 1)]:
        A = dg.build_two_generator_dga(p, i, n)
        M = dg.algebra_module(A)
        assert dg.homology_is_free_rank_one(M, (-6, 6))
    A0 = dg.build_two_generator_dga(2, 0, 0)
    assert dg.homology_is_free_rank_one(dg.algebra_module(A0), (-4, 4))


def test_window_guard():
    A = dg.build_two_generator_dga(3, 1, 1, weight=8)
    with pytest.raises(WindowTooWideForWeightBound):
        dg.homology(dg.algebra_module(A), (-10, 10))


def test_empty_window():
    # the same error as tate_ring, also where the weight bound would pass
    A = dg.build_two_generator_dga(3, 1, 1, weight=8)
    with pytest.raises(WindowEmpty):
        dg.homology(dg.algebra_module(A), (1, 0))


def test_cone_of_u_differential():
    # cone of u: A[i] -> A couples the two slots through multiplication by u
    A = dg.build_two_generator_dga(3, 1, 1)
    M = dg.algebra_module(A)
    f = dg.DGMap(dg.shift(M, A.i), M, [[A.gen_u()]])
    C = dg.cone(f)
    assert C.gen_degrees == [0, A.i + A.n]
    assert C.diff[0][1] == A.gen_u()
    # d(a * g_1), read off its column of the slice differential
    q = C.gen_degrees[1] + A.adeg
    col = dg.slice_differential(C, q)[:, dg.slice_basis(C, q).index((1, (0, 1, 0)))]
    terms = {}
    for (j, key), c in zip(dg.slice_basis(C, q - A.n), col.tolist()):
        if c:
            terms.setdefault(j, {})[key] = c
    img = {j: dg.DGElement(A, t) for j, t in terms.items()}
    sign = -1 if (A.n * A.adeg) % 2 else 1
    assert img[0] == A.gen_a() * A.gen_u() * sign
    assert img[1] == A.differential(A.gen_a())


def test_cone_of_identity_is_acyclic():
    A = dg.build_two_generator_dga(3, 1, 1)
    M = dg.algebra_module(A)
    f = dg.DGMap(M, M, [[A.one()]])
    C = dg.cone(f)
    H = dg.homology(C, (-4, 4))
    assert all(H[q]["dim"] == 0 for q in range(-4, 5))


def test_d_squared_nonzero_rejected():
    # d g2 = g1, d g1 = g0, so d^2 g2 = g0
    A = dg.build_two_generator_dga(3, 1, 1)
    one, zero = A.one(), A.zero()
    diff = [[zero, one, zero], [zero, zero, one], [zero, zero, zero]]
    with pytest.raises(ShapeMismatch, match="d\\^2"):
        dg.DGModule(A, [0, 1, 2], diff)
    # the same generators with d g1 = 0 form a module
    dg.DGModule(A, [0, 1, 2], [[zero, zero, zero], [zero, zero, one], [zero, zero, zero]])


def test_differential_entry_of_wrong_degree_rejected():
    # d g1 must have coefficient of degree 1 - n - 0 = 0 on g0; u has degree 1
    A = dg.build_two_generator_dga(3, 1, 1)
    zero = A.zero()
    with pytest.raises(ShapeMismatch, match="degree"):
        dg.DGModule(A, [0, 1], [[zero, A.gen_u()], [zero, zero]])


def test_not_chain_map():
    A = dg.build_two_generator_dga(3, 1, 1)
    M = dg.DGModule(A, [A.adeg])
    N = dg.DGModule(A, [0])
    with pytest.raises(NotChainMap):
        dg.DGMap(M, N, [[A.gen_a()]])


def lift_ring():
    # k[x]/(x^2), |x| = 1, over F_3 with an invertible element of degree 4
    return con.laurent_exterior(3, 1, 4)


def test_triangle_of_x():
    R = lift_ring()
    x = R.basis_element(1)
    T = tr.triangle_from_map(R, 1, [1], [0], [[x]])
    rep = tr.verify_triangle_exact(T)
    assert rep["pass"], rep
    rot = tr.verify_rotation(T)
    assert rot["pass"], rot
    assert len(T.third_generator_degrees) == 1


def test_triangle_of_zero_map():
    R = lift_ring()
    T = tr.triangle_from_map(R, 1, [0], [0], [[R.zero()]])
    rep = tr.verify_triangle_exact(T)
    assert rep["pass"], rep
    # cone of 0 splits: third term has two generators
    assert len(T.third_generator_degrees) == 2


def _free_slice(R, degs, q):
    out = []
    for j, d in enumerate(degs):
        for mt in R.slice_terms(q - d):
            out.append((j, mt))
    return out


def _free_slice_matrix(R, src_degs, tgt_degs, entries, q):
    src = _free_slice(R, src_degs, q)
    tgt = _free_slice(R, tgt_degs, q)
    pos = {k: idx for idx, k in enumerate(tgt)}
    cols = []
    for (j, mt) in src:
        terms = R.slice_terms(q - src_degs[j])
        elem = R.from_slice_coords(q - src_degs[j], [1 if t == mt else 0 for t in terms])
        col = [0] * len(tgt)
        for i in range(len(tgt_degs)):
            prod = entries[i][j] * elem
            if prod.is_zero:
                continue
            tterms = R.slice_terms(q - tgt_degs[i])
            for idx2, c in enumerate(R.slice_coords(prod, q - tgt_degs[i])):
                if c:
                    col[pos[(i, tterms[idx2])]] = c
        cols.append(col)
    return [[cols[j][r] for j in range(len(src))] for r in range(len(tgt))], len(src), len(tgt)


def test_random_triangles_against_rank_oracle():
    R = lift_ring()
    rng = random.Random(20260823)
    for _ in range(10):
        src, tgt, entries = tr.random_map(R, 1, rng)
        T = tr.triangle_from_map(R, 1, src, tgt, entries)
        assert tr.verify_triangle_exact(T)["pass"]
        assert tr.verify_rotation(T)["pass"]
        lo, hi = T.window
        for q in range(lo, hi + 1):
            mat, a_dim, b_dim = _free_slice_matrix(R, src, tgt, entries, q)
            smat, sa_dim, sb_dim = _free_slice_matrix(R, src, tgt, entries, q - 1)
            rk = linalg.modp_rank(mat, R.char)
            srk = linalg.modp_rank(smat, R.char)
            a, b, c, sa, sb = T.dims[q]
            assert (a, b) == (a_dim, b_dim)
            assert (sa, sb) == (sa_dim, sb_dim)
            assert c == (b_dim - rk) + (sa_dim - srk)
