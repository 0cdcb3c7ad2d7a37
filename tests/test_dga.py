import random

import brute_force
import numpy as np
import pytest

from trimod import constructions as con
from trimod import dga as dg
from trimod import linalg
from trimod import triangles as tr
from trimod.errors import (
    LiftFailure,
    NotChainMap,
    ParityObstruction,
    ShapeMismatch,
    UnsupportedCoefficients,
    WindowEmpty,
    WindowTooWideForWeightBound,
)


PARAMS_OK = [(3, 1, 1), (2, 0, 0), (2, 1, 1), (5, 1, 1), (3, 1, 3)]
PARAMS_BAD = [(3, 0, 0), (5, 0, 0), (5, 1, 0), (3, 1, 2)]

# normal-form monomials (t, e, m) of v^t a^e u^m
ONE, U, A_GEN, V = (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)


def element(A, key=None):
    """The monomial key as an entry of a module differential or map, or 0."""
    return dg.DGElement(A, {} if key is None else {key: 1})


def test_parity_obstruction():
    for p, i, n in PARAMS_OK:
        dg.build_two_generator_dga(p, i, n)
    for p, i, n in PARAMS_BAD:
        with pytest.raises(ParityObstruction):
            dg.build_two_generator_dga(p, i, n)


def test_models_that_build_have_even_n_times_period():
    # slice matrices and homology records are shared across periods of v
    # without a sign because (-1)^{n|v|} = 1 in every model that builds; in
    # characteristic 2 every sign is 1
    built = 0
    for p in (2, 3, 5):
        for i in range(-4, 5):
            for n in range(-4, 5):
                try:
                    A = dg.build_two_generator_dga(p, i, n)
                except ParityObstruction:
                    continue
                built += p != 2
                assert p == 2 or n * A.vdeg % 2 == 0, (p, i, n)
    assert built


def test_defining_relations():
    A = dg.build_two_generator_dga(3, 1, 1)
    # v is the periodicity generator, of degree 3i + n = 4
    a, u, v = {A_GEN: 1}, {U: 1}, {V: 1}
    mul, d = brute_force.dg_multiply, brute_force.dg_differential
    assert not mul(A, a, a)
    # u a = -a u - v
    assert not brute_force.dg_add(A, brute_force.dg_add(A, mul(A, u, a), mul(A, a, u)), v)
    assert d(A, a) == mul(A, u, u)
    assert not d(A, u)


def test_product_associative_random():
    A = dg.build_two_generator_dga(3, 1, 1, weight=40)
    mul = brute_force.dg_multiply
    rng = random.Random(7)
    for _ in range(200):
        x, y, z = (brute_force.dg_random_monomial(A, rng) for _ in range(3))
        assert mul(A, mul(A, x, y), z) == mul(A, x, mul(A, y, z))


def test_leibniz_random_pairs():
    rng = random.Random(11)
    for p, i, n in PARAMS_OK:
        A = dg.build_two_generator_dga(p, i, n, weight=40)
        for _ in range(200 // len(PARAMS_OK) + 1):
            x, y = brute_force.dg_random_monomial(A, rng), brute_force.dg_random_monomial(A, rng)
            assert brute_force.dg_leibniz_holds(A, x, y)


def test_d_squared_zero():
    A = dg.build_two_generator_dga(2, 1, 1, weight=40)
    rng = random.Random(3)
    for _ in range(50):
        x = brute_force.dg_random_monomial(A, rng)
        assert not brute_force.dg_differential(A, brute_force.dg_differential(A, x))


def test_calculus_holds_on_every_slice_and_monomial():
    for p, i, n in PARAMS_OK:
        A = dg.build_two_generator_dga(p, i, n, weight=4)
        keys = [(t, e, m) for t in ((-1, 0, 1) if A.vdeg else (0,)) for e in (0, 1) for m in range(5)]
        assert all(dg.calculus_holds(A, s, key) for s in range(-8, 9) for key in keys), (p, i, n)


def test_calculus_check_rejects_a_wrong_product_sign(monkeypatch):
    # a * u^m for even m with its sign flipped breaks the Leibniz rule
    right = dg.DGAlgebra._mul_monomials

    def wrong(alg, k1, k2):
        out = right(alg, k1, k2)
        if (k1[1], k2[1], k1[2] % 2) == (0, 1, 0):
            out[(k1[0] + k2[0], 1, k1[2] + k2[2])] = -1
        return out

    monkeypatch.setattr(dg.DGAlgebra, "_mul_monomials", wrong)
    for p in (3, 5):
        A = dg.build_two_generator_dga(p, 1, 1)
        assert not all(dg.calculus_holds(A, s, (0, e, m)) for s in range(-4, 5) for e in (0, 1) for m in range(4))


def _outcome(build, *args):
    """None when the build passes, else the exception's type and message."""
    try:
        build(*args)
    except Exception as e:
        return type(e), str(e)
    return None


def test_build_matches_the_word_rewriter():
    # the closed-form parity and weight checks against the generic rewriter
    def reference(p, i, n, weight):
        brute_force._check_well_defined(dg.DGAlgebra(p, i, n, weight))

    for p in (2, 3, 5, 7):
        for i in range(-4, 5):
            for n in range(-4, 5):
                for weight in (-2, -1, 0, 1, 2, 3, 4, 8):
                    args = (p, i, n, weight)
                    assert _outcome(dg.build_two_generator_dga, *args) == _outcome(reference, *args), args


def _random_entry(alg, rng, deg, cycles):
    """A random element of A of degree deg with u-weight <= W, several terms
    where the slice holds several, or only the cycles v^t u^m when cycles."""
    return dg.DGElement(alg, {key: rng.randrange(alg.p) for key in dg._algebra_basis(alg, deg)
                              if not (cycles and key[1])})


def _whole_record(size):
    """A homology record whose classes are the whole slice: reps and coords
    the identity, so a matrix induced on it is the slice matrix itself."""
    eye = np.eye(size, dtype=np.int64)
    return {"dim": size, "reps": eye, "coords": eye}


def test_slice_differential_matches_the_block_reference():
    # the slices built from the nonzero cells of the entries' terms
    # against the block-by-block assembly, one callback per block, on every
    # model of the rewriter's grid that builds: a module with random entries
    # everywhere, diagonal blocks included (d^2 = 0 is not needed to read a
    # slice), its shift, and the cone of a map whose entries are cycles, a
    # chain map over any model.  The odd primes have odd Leibniz signs, and
    # (2, 1, -3) and (2, 0, 0) have |v| = 0.  On each slice too, the cells
    # of left multiplication by u that u_action_matrix places at the slice
    # offsets, read on records whose classes are the whole slice, against
    # y -> u y by dg_multiply
    models = [(p, i, n, weight) for p in (2, 3, 5, 7) for i in range(-4, 5) for n in range(-4, 5)
              for weight in (-2, -1, 0, 1, 2, 3, 4, 8) if _outcome(dg.build_two_generator_dga, p, i, n, weight) is None]
    assert {(2, 1, -3, 4), (2, 0, 0, 8), (3, 1, 1, 4), (7, -1, 1, 8)} <= set(models)
    odd_signs = u_actions = 0
    for p, i, n, weight in models:
        alg = dg.build_two_generator_dga(p, i, n, weight)
        rng = random.Random(1000 * p + 100 * i + 10 * n + weight)
        degrees = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] for _ in range(3)]
        X = dg.DGModule(alg, degrees[0], [[_random_entry(alg, rng, dj - n - di, False) for dj in degrees[0]]
                                          for di in degrees[0]], check=False)
        f = dg.DGMap(dg.DGModule(alg, degrees[1]), dg.DGModule(alg, degrees[2]),
                     [[_random_entry(alg, rng, dj - di, True) for dj in degrees[1]] for di in degrees[2]])
        for M in (X, dg.shift(X, 1), dg.cone(f)):
            for q in range(-3, 4):
                got, want = dg.slice_differential(M, q), brute_force.slice_differential(M, q)
                assert got.shape == want.shape and np.array_equal(got, want), (p, i, n, weight, M.gen_degrees, q)
                odd_signs += p != 2 and sum(n * (q - gd) % 2 and any(row[j].terms for row in M.diff)
                                            for j, gd in enumerate(M.gen_degrees))
                H = {r: _whole_record(len(dg.slice_basis(M, r))) for r in (q, q + i)}
                got, want = dg.u_action_matrix(M, H, q), brute_force.u_action(M, q)
                assert got.shape == want.shape and np.array_equal(got, want), (p, i, n, weight, M.gen_degrees, q)
                u_actions += want.any()
    assert odd_signs and u_actions


def test_homology_of_algebra_is_exterior():
    for p, i, n in [(3, 1, 1), (2, 1, 1), (5, 1, 1)]:
        A = dg.build_two_generator_dga(p, i, n)
        M = dg.algebra_module(A)
        assert dg.homology_is_free_rank_one(M, (-6, 6))
    A0 = dg.build_two_generator_dga(2, 0, 0)
    assert dg.homology_is_free_rank_one(dg.algebra_module(A0), (-4, 4))


def test_window_guard():
    # with |v| = 0 the slice in degree q holds one weight per a-exponent, so
    # the window is bounded by the weight
    A0 = dg.build_two_generator_dga(2, 1, -3, weight=8)
    with pytest.raises(WindowTooWideForWeightBound, match="weight bound 8 too small for window span 10"):
        dg.homology(dg.algebra_module(A0), (-5, 5))
    assert dg.homology_is_free_rank_one(dg.algebra_module(A0), (-2, 2))
    # a periodic model's records repeat with period |v|: any window holds,
    # with the classes 1 and u in the degrees 0 and 1 mod 4
    A = dg.build_two_generator_dga(3, 1, 1, weight=8)
    H = dg.homology(dg.algebra_module(A), (-10, 10))
    assert [H[q]["dim"] for q in range(-10, 11)] == [int(q % 4 in (0, 1)) for q in range(-10, 11)]
    assert dg.homology_is_free_rank_one(dg.algebra_module(A), (-10, 10))


def test_empty_window():
    # the same error as tate_ring, also where the weight bound would pass
    A = dg.build_two_generator_dga(3, 1, 1, weight=8)
    with pytest.raises(WindowEmpty):
        dg.homology(dg.algebra_module(A), (1, 0))


def test_cone_of_u_differential():
    # cone of u: A[i] -> A couples the two slots through multiplication by u
    A = dg.build_two_generator_dga(3, 1, 1)
    M = dg.algebra_module(A)
    f = dg.DGMap(dg.shift(M, A.i), M, [[element(A, U)]])
    C = dg.cone(f)
    assert C.gen_degrees == [0, A.i + A.n]
    assert C.diff[0][1].terms == {U: 1}
    # d(a * g_1), read off its column of the slice differential
    q = C.gen_degrees[1] + A.adeg
    col = dg.slice_differential(C, q)[:, dg.slice_basis(C, q).index((1, (0, 1, 0)))]
    terms = {}
    for (j, key), c in zip(dg.slice_basis(C, q - A.n), col.tolist()):
        if c:
            terms.setdefault(j, {})[key] = c
    sign = -1 if (A.n * A.adeg) % 2 else 1
    assert terms[0] == brute_force.dg_add(A, {}, brute_force.dg_multiply(A, {A_GEN: 1}, {U: 1}), sign)
    assert terms[1] == brute_force.dg_differential(A, {A_GEN: 1})


def test_cone_of_identity_is_acyclic():
    A = dg.build_two_generator_dga(3, 1, 1)
    M = dg.algebra_module(A)
    f = dg.DGMap(M, M, [[element(A, ONE)]])
    C = dg.cone(f)
    H = dg.homology(C, (-4, 4))
    assert all(H[q]["dim"] == 0 for q in range(-4, 5))


def test_identity_of_a_module_with_odd_entries_is_a_chain_map():
    # entries of odd degree change sign under the suspension: in the cone of
    # f: [-4] -> [0, -1] with entries v^-1 and v^-1 u, and in the module with
    # d g1 = -u^2 g0 and d g2 = a g0 + g1, which is no cone.  The cone of
    # the identity of either is acyclic, and the suspension keeps d^2 = 0
    A = dg.build_two_generator_dga(3, 1, 1)
    f = dg.DGMap(dg.DGModule(A, [-4]), dg.DGModule(A, [0, -1]),
                 [[element(A, (-1, 0, 0))], [element(A, (-1, 0, 1))]])
    z, minus_u2 = element(A), dg.DGElement(A, {(0, 0, 2): -1})
    M = dg.DGModule(A, [0, 3, 4], [[z, minus_u2, element(A, A_GEN)], [z, z, element(A, ONE)], [z, z, z]])
    for X in (dg.cone(f), M):
        g = len(X.gen_degrees)
        ident = dg.DGMap(X, X, [[element(A, ONE if r == c else None) for c in range(g)] for r in range(g)])
        H = dg.homology(dg.cone(ident), (-4, 4))
        assert all(H[q]["dim"] == 0 for q in range(-4, 5))
        S = dg.shift(X, 1)
        dg.DGModule(A, S.gen_degrees, S.diff)


def test_d_squared_nonzero_rejected():
    # d g2 = g1, d g1 = g0, so d^2 g2 = g0
    A = dg.build_two_generator_dga(3, 1, 1)
    one, zero = element(A, ONE), element(A)
    diff = [[zero, one, zero], [zero, zero, one], [zero, zero, zero]]
    with pytest.raises(ShapeMismatch, match="d\\^2"):
        dg.DGModule(A, [0, 1, 2], diff)
    # the same generators with d g1 = 0 form a module
    dg.DGModule(A, [0, 1, 2], [[zero, zero, zero], [zero, zero, one], [zero, zero, zero]])


def test_differential_entry_of_wrong_degree_rejected():
    # d g1 must have coefficient of degree 1 - n - 0 = 0 on g0; u has degree 1
    A = dg.build_two_generator_dga(3, 1, 1)
    zero = element(A)
    with pytest.raises(ShapeMismatch, match="degree"):
        dg.DGModule(A, [0, 1], [[zero, element(A, U)], [zero, zero]])


def test_not_chain_map():
    A = dg.build_two_generator_dga(3, 1, 1)
    M = dg.DGModule(A, [A.adeg])
    N = dg.DGModule(A, [0])
    with pytest.raises(NotChainMap):
        dg.DGMap(M, N, [[element(A, A_GEN)]])


def test_map_is_checked_by_its_one_cone():
    # the chain-map check is the cone's d^2 = 0 check, made once per map:
    # the cone is one object, and a map built unchecked raises where its
    # slices are read off the cone
    A = dg.build_two_generator_dga(3, 1, 1)
    M, N = dg.DGModule(A, [A.adeg]), dg.DGModule(A, [0])
    f = dg.DGMap(dg.DGModule(A, [A.i]), N, [[element(A, U)]])
    assert dg.cone(f) is dg.cone(f)
    g = dg.DGMap(M, N, [[element(A, A_GEN)]], check=False)
    with pytest.raises(NotChainMap, match="generator 0"):
        dg.map_slice(g, A.adeg)
    with pytest.raises(NotChainMap):
        dg.cone(g)


def test_differential_of_wrong_shape_rejected():
    A = dg.build_two_generator_dga(3, 1, 1)
    z = element(A)
    for diff in ([[z, z]], [[z, z], [z]], [[z, z], [z, z, z]], [[z, z], [z, z], [z, z]]):
        with pytest.raises(ShapeMismatch, match="shape"):
            dg.DGModule(A, [0, 1], diff)
    dg.DGModule(A, [0, 1], [[z, z], [z, z]])


def test_one_algebra_per_module_and_map():
    A3, A5 = dg.build_two_generator_dga(3, 1, 1), dg.build_two_generator_dga(5, 1, 1)
    # an entry over another algebra, even one built with the same parameters
    for other in (A5, dg.build_two_generator_dga(3, 1, 1)):
        with pytest.raises(ShapeMismatch, match="another algebra"):
            dg.DGModule(A3, [0, 0], [[element(A3), element(other)], [element(A3), element(A3)]])
        with pytest.raises(ShapeMismatch, match="another algebra"):
            dg.DGMap(dg.DGModule(A3, [0]), dg.DGModule(A3, [0]), [[element(other, ONE)]])
    with pytest.raises(ShapeMismatch, match="different algebras"):
        dg.DGMap(dg.DGModule(A3, [0]), dg.DGModule(A5, [0]), [[element(A3, ONE)]])
    dg.DGMap(dg.DGModule(A3, [0]), dg.DGModule(A3, [0]), [[element(A3, ONE)]])


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


@pytest.mark.parametrize("period, n", [(6, 3), (2, -1)])
def test_rotation_check_needs_a_degree_and_its_shift(period, n):
    # the rotated triangle is checked at the degrees q with q - n in the
    # window; a window spanning fewer than |n| degrees holds none of them,
    # and the check raises instead of passing vacuously
    R = con.laurent_exterior(3, 1, period)
    for hi in range(abs(n)):
        T = tr.triangle_from_map(R, n, [0], [0], [[R.one()]], window=(0, hi))
        assert tr.verify_triangle_exact(T)["pass"]
        with pytest.raises(WindowEmpty):
            tr.verify_rotation(T)
    T = tr.triangle_from_map(R, n, [0], [0], [[R.one()]], window=(0, abs(n)))
    assert tr.verify_rotation(T)["pass"]
    # the command reports the rotation as not checked
    report = tr.run_random_trials(R, n, 3, 1, window=(0, abs(n) - 1))
    assert report["pass"] and "q - n" in report["unchecked"]
    assert [r["rotation"] for r in report["results"]] == [None] * 3
    assert tr.run_random_trials(R, n, 3, 1, window=(0, abs(n)))["unchecked"] is None


def test_triangle_of_zero_map():
    R = lift_ring()
    T = tr.triangle_from_map(R, 1, [0], [0], [[R.zero()]])
    rep = tr.verify_triangle_exact(T)
    assert rep["pass"], rep
    # cone of 0 splits: third term has two generators
    assert len(T.third_generator_degrees) == 2


@pytest.mark.parametrize("ring, n, message", [
    (lambda: con.laurent_exterior(3, 1, 2), 1, "need an invertible element of degree 4"),
    (lambda: con.z_mod(4), 1, "expected a rank-2 exterior algebra"),
    (lambda: con.laurent_field(3, 2), 1, "expected a rank-2 exterior algebra"),
    (lambda: con.exterior_on_field(con.finite_field(4)), 1, "expected a rank-2 exterior algebra"),
    (con.galois_ring_4_2, 0, "coefficient field must be a prime field"),
    (lambda: con.finite_field(4), 0, "generator does not square to zero"),
])
def test_triangle_scope_limits_raise_lift_failure(ring, n, message):
    # rings outside the DG model's scope: k[x]/(x^2) over a prime field with
    # a unit of degree 3|x| + n
    R = ring()
    with pytest.raises(LiftFailure, match=message):
        tr.triangle_from_map(R, n, [0], [0], [[R.one()]])


def test_random_trials_check_the_ring_before_drawing():
    # Q[y^+-1][x]/(x^2): random entries have no finite field to be drawn
    # from, whichever map the seed would draw first
    for seed in range(6):
        with pytest.raises(LiftFailure, match="prime field"):
            tr.run_random_trials(con.laurent_exterior(0, 1, 4), 1, 3, seed)


@pytest.mark.parametrize("p, period, n", [(2, 4, 1), (3, 4, 1), (5, 4, 1), (3, 2, -1)])
def test_g_and_h_match_the_explicit_inclusion_and_projection(p, period, n):
    # reference: g and h as checked chain maps B -> C(f) and C(f) -> A[n]
    R = con.laurent_exterior(p, 1, period)
    alg = tr._model(R, n, dg.DEFAULT_WEIGHT)
    rng = random.Random(p * period)
    for _ in range(4):
        src, tgt, entries = tr.random_map(R, n, rng)
        T = tr.triangle_from_map(R, n, src, tgt, entries)
        M, N = dg.DGModule(alg, src), dg.DGModule(alg, tgt)
        C = dg.cone(dg.DGMap(M, N, [[tr._lift_entry(alg, R, x) for x in row] for row in entries]))
        Mn, gn, gm = dg.shift(M, n), len(tgt), len(src)
        incl = [[element(alg, ONE if r == c else None) for c in range(gn)] for r in range(gn + gm)]
        proj = [[element(alg, ONE if c == gn + r else None) for c in range(gn + gm)] for r in range(gm)]
        gmap, hmap = dg.DGMap(N, C, incl, check=True), dg.DGMap(C, Mn, proj, check=True)
        HB, HC, HAs = (dg.homology(X, T.window) for X in (N, C, Mn))
        lo, hi = T.window
        for q in range(lo, hi + 1):
            assert np.array_equal(T.g[q], dg.induced_matrix(dg.map_slice(gmap, q), HB[q], HC[q], p))
            assert np.array_equal(T.h[q], dg.induced_matrix(dg.map_slice(hmap, q), HC[q], HAs[q], p))


@pytest.mark.parametrize("p, period, n", [(2, 4, 1), (3, 4, 1), (5, 4, 1), (3, 2, -1)])
def test_f_and_suspended_f_match_their_chain_map(p, period, n):
    # reference: f and f[n] induced by the slice matrices of the lifted map,
    # assembled block by block; the triangle reads them off the cone's
    # differential, which carries a Leibniz sign on each source block of odd
    # n * degree
    R = con.laurent_exterior(p, 1, period)
    alg = tr._model(R, n, dg.DEFAULT_WEIGHT)
    rng = random.Random(p * period + n)
    for _ in range(4):
        # sources with generators of both parities, so that the sign acts on
        # some blocks and not on others
        src = []
        while len({d % 2 for d in src}) < 2:
            src, tgt, entries = tr.random_map(R, n, rng, max_rank=4)
        T = tr.triangle_from_map(R, n, src, tgt, entries, window=(-5, 5))
        M, N = dg.DGModule(alg, src), dg.DGModule(alg, tgt)
        fmap = dg.DGMap(M, N, [[tr._lift_entry(alg, R, x) for x in row] for row in entries])
        HA, HAs, HB, HBs = (dg.homology(X, w) for X in (M, N) for w in ((-5, 5), (-5 - n, 5 - n)))
        for q in range(-5, 6):
            f, sf = brute_force.map_slice(fmap, q), brute_force.map_slice(fmap, q - n, twist=n)
            assert np.array_equal(dg.map_slice(fmap, q), f), f"degree {q}"
            assert np.array_equal(T.f[q], dg.induced_matrix(f, HA[q], HB[q], p))
            assert np.array_equal(T.sf[q], dg.induced_matrix(sf, HAs[q - n], HBs[q - n], p))


@pytest.mark.parametrize("p, i, n, window", [
    (2, 1, 1, (-5, 5)), (3, 1, 1, (-5, 5)), (5, 1, 1, (-5, 5)),
    # windows narrower than |v|, as at the rotation check's limits
    (3, 1, 3, (0, 2)), (3, 1, -1, (0, 0)),
    # |v| = 0: every degree is its own residue class
    (2, 1, -3, (-5, 5))])
def test_suspended_f_is_read_off_f(p, i, n, window):
    # reference: f[n] induced from the connecting map's slice matrix,
    # assembled block by block with twist n, on the records of A[n] and B[n];
    # the triangle reads it off f at q - n with a sign per source generator
    # block
    R = con.exterior_on_field(con.finite_field(p), i) if 3 * i + n == 0 else con.laurent_exterior(p, i, 3 * i + n)
    alg = tr._model(R, n, dg.DEFAULT_WEIGHT)
    rng = random.Random(p * 7 + n)
    lo, hi = window
    for _ in range(4):
        src = []
        while len({d % 2 for d in src}) < 2:
            src, tgt, entries = tr.random_map(R, n, rng, max_rank=4)
        T = tr.triangle_from_map(R, n, src, tgt, entries, window=window)
        M, N = dg.DGModule(alg, src), dg.DGModule(alg, tgt)
        fmap = dg.DGMap(M, N, [[tr._lift_entry(alg, R, x) for x in row] for row in entries])
        HAs, HBs = (dg.homology(X, (lo - n, hi - n)) for X in (M, N))
        for q in range(lo, hi + 1):
            want = dg.induced_matrix(brute_force.map_slice(fmap, q - n, twist=n), HAs[q - n], HBs[q - n], p)
            assert T.sf[q].shape == want.shape and np.array_equal(T.sf[q], want), f"degree {q}"
            if p == 2 and lo <= q - n <= hi:
                # over F_2 every sign is +1
                assert T.sf[q] is T.f[q - n]


def test_one_product_per_class_coordinates_and_one_rank_per_matrix(monkeypatch):
    # class coordinates are one product with the record's [P; Z], and the two
    # verifiers share one record of checks and ranks per triangle
    products, ranked, per_call = [], [], []
    matmul, rank, coordinates = linalg.modp_matmul, linalg.modp_rank, dg.class_coordinates

    def counted(*args):
        start = len(products)
        out = coordinates(*args)
        per_call.append(len(products) - start)
        return out

    monkeypatch.setattr(linalg, "modp_matmul", lambda *args: products.append(args) or matmul(*args))
    # the ranked matrices are kept, so no id is reused
    monkeypatch.setattr(linalg, "modp_rank", lambda A, p: ranked.append(A) or rank(A, p))
    monkeypatch.setattr(dg, "class_coordinates", counted)
    for p in (2, 3, 5):
        R = con.laurent_exterior(p, 1, 4)
        rng = random.Random(p)
        for _ in range(3):
            T = tr.triangle_from_map(R, 1, *tr.random_map(R, 1, rng, max_rank=4), window=(-5, 5))
            ranked.clear()
            assert tr.verify_triangle_exact(T)["pass"] and tr.verify_rotation(T)["pass"]
            assert ranked and len({id(A) for A in ranked}) == len(ranked)
    assert per_call and set(per_call) == {1}


def test_modp_matmul_takes_reduced_operands(monkeypatch):
    # every product on the triangle path multiplies int64 arrays whose
    # entries lie in [0, p), so modp_matmul reduces only the product: at
    # p = 2, 3, 5, 7 and on the |v| = 0 model (2, 1, -3)
    matmul, primes = linalg.modp_matmul, set()

    def checked(A, B, p):
        for X in (A, B):
            assert X.dtype == np.int64 and X.ndim == 2 and (X.size == 0 or 0 <= X.min() <= X.max() < p)
        primes.add(p)
        return matmul(A, B, p)

    monkeypatch.setattr(linalg, "modp_matmul", checked)
    cases = [(con.laurent_exterior(p, 1, 4), 1) for p in (2, 3, 5, 7)] + \
        [(con.exterior_on_field(con.finite_field(2), 1), -3)]
    for R, n in cases:
        rng = random.Random(R.char + n)
        for _ in range(5):
            T = tr.triangle_from_map(R, n, *tr.random_map(R, n, rng, max_rank=4))
            assert tr.verify_triangle_exact(T)["pass"] and tr.verify_rotation(T)["pass"]
    assert primes == {2, 3, 5, 7}
    # products with k (p - 1)^2 >= 2^63 on reduced operands are taken in
    # Python integers, exactly, and come back as int64
    q = 3037000493
    assert (q - 1) ** 2 < 2 ** 63 <= 2 * (q - 1) ** 2
    top = np.full((1, 1), q - 1, dtype=np.int64)
    assert matmul(top, top, q).tolist() == [[1]]
    for A, B, p in (([[q - 1, q - 1]], [[q - 1], [q - 1]], q), ([[1]], [[1]], 4294967311),
                    ([[q - 1, 2, q - 3]], [[q - 1, 1], [q - 2, 0], [5, q - 1]], q)):
        got = matmul(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64), p)
        want = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]
        assert got.dtype == np.int64 and got.tolist() == want
    # the builder refuses exactly the primes whose entries do not fit int64,
    # before any slice is made: the least prime past 2^63 is refused, and
    # q, the least prime past 2^32 and the largest below 2^63 build
    for p in (q, 4294967311, 9223372036854775783):
        assert linalg.is_prime(p) and dg.build_two_generator_dga(p, 1, 1).p == p
    big = 9223372036854775837
    assert linalg.is_prime(big) and linalg.int_dtype(big) is object
    with pytest.raises(UnsupportedCoefficients, match=f"^prime {big} too large for int64 elimination$"):
        dg.build_two_generator_dga(big, 1, 1)
    R = con.laurent_exterior(big, 1, 4)
    with pytest.raises(UnsupportedCoefficients, match=f"^prime {big} too large for int64 elimination$"):
        tr.triangle_from_map(R, 1, *tr.random_map(R, 1, random.Random(big)))


def test_triangle_input_errors():
    R = lift_ring()
    x = R.basis_element(1)
    with pytest.raises(ShapeMismatch, match="degree"):
        tr.triangle_from_map(R, 1, [0], [0], [[x]])
    # two rows for one target generator
    with pytest.raises(ShapeMismatch):
        tr.triangle_from_map(R, 1, [0], [0], [[R.one()], [R.one()]])


def test_non_homogeneous_map_entry_raises_shape_mismatch():
    # the lift of 1 + x has terms of degrees 0 and 1
    R = lift_ring()
    x = R.basis_element(1)
    with pytest.raises(ShapeMismatch, match="map entry \\(0,0\\) has a term of degree 1, expected 0"):
        tr.triangle_from_map(R, 1, [0], [0], [[R.one() + x]])


def test_completion_builds_only_f_and_the_cone_shift(monkeypatch):
    R = lift_ring()
    rng = random.Random(11)
    maps = [tr.random_map(R, 1, rng) for _ in range(3)]
    tr.triangle_from_map(R, 1, *maps[0])  # the DG model is cached before counting
    calls = []

    def counted(name):
        original = getattr(dg, name)
        return lambda *args, **kw: calls.append(name) or original(*args, **kw)

    for name in ("DGMap", "shift"):
        monkeypatch.setattr(dg, name, counted(name))
    for src, tgt, entries in maps:
        tr.triangle_from_map(R, 1, src, tgt, entries)
    assert calls == ["DGMap", "shift"] * len(maps)


def triangle_record(T):
    # the maps are arrays, compared by shape and entries
    maps = [{q: (m.shape, m.tolist()) for q, m in mats.items()} for mats in (T.f, T.g, T.h, T.sf)]
    return T.window, T.dims, *maps, T.third_generator_degrees


def test_dg_model_built_once_per_ring_and_suspension(monkeypatch):
    R = lift_ring()
    rng = random.Random(8)
    target, *others = [tr.random_map(R, 1, rng) for _ in range(7)]
    fresh = triangle_record(tr.triangle_from_map(lift_ring(), 1, *target))
    builds = []
    build = dg.build_two_generator_dga
    monkeypatch.setattr(dg, "build_two_generator_dga", lambda *args: builds.append(args) or build(*args))
    records = [triangle_record(tr.triangle_from_map(R, 1, *target))]
    for other in others:
        tr.triangle_from_map(R, 1, *other)
    records.append(triangle_record(tr.triangle_from_map(R, 1, *target)))
    # a wider window reads the same model, and its records at the default
    # window's degrees are the default window's
    wide = tr.triangle_from_map(R, 1, *target, window=(-30, 30))
    records.append(triangle_record(tr.triangle_from_map(R, 1, *target)))
    assert records == [fresh] * 3
    lo, hi = fresh[0]
    assert {q: wide.dims[q] for q in range(lo, hi + 1)} == fresh[1]
    # another suspension with the same period is another model on the ring
    tr.triangle_from_map(R, -7, *tr.random_map(R, -7, rng))
    # one model per (n, weight) on the ring, periodic ones at the least weight
    assert builds == [(3, 1, 1, dg.MIN_WEIGHT), (3, 1, -7, dg.MIN_WEIGHT)]


# the 120 models of test_build_matches_the_word_rewriter's grid that build
# with |v| != 0, |x| = 0 among them at p = 2, each over its lifted ring
# laurent_exterior(p, i, |v|)
PERIODIC_MODELS = [(p, i, n) for p in (2, 3, 5, 7) for i in range(-4, 5) for n in range(-4, 5)
                   if 3 * i + n and _outcome(dg.build_two_generator_dga, p, i, n) is None]


@pytest.mark.parametrize("p, i, n", PERIODIC_MODELS)
def test_periodic_records_do_not_depend_on_the_weight(p, i, n, monkeypatch):
    # records oracle: a periodic model's triangle records at its own weight
    # equal those at W = max(16, span + 4), the weight a window of that span
    # asks for when |v| = 0; one window of +-30, the others narrow and placed
    # anywhere in it
    model = tr._model
    R = con.laurent_exterior(p, i, abs(3 * i + n))
    rng = random.Random(100 * p + 10 * i + n)
    for k in range(20):
        src, tgt, entries = tr.random_map(R, n, rng)
        lo = rng.randint(-30, 26)
        window = (-30, 30) if k == 0 else (lo, lo + rng.randint(0, 4))
        T = tr.triangle_from_map(R, n, src, tgt, entries, window)
        weight = max(dg.DEFAULT_WEIGHT, window[1] - window[0] + 2 * dg.PADDING)
        monkeypatch.setattr(tr, "_model", lambda R, n, _: model(R, n, weight))
        reference = tr.triangle_from_map(R, n, src, tgt, entries, window)
        monkeypatch.setattr(tr, "_model", model)
        assert triangle_record(T) == triangle_record(reference), k


def verifier_reports(T):
    """Both verifiers' reports; the rotation's WindowEmpty message where the
    window holds no degree q with q - n in it."""
    try:
        rotation = tr.verify_rotation(T)
    except WindowEmpty as e:
        rotation = str(e)
    return tr.verify_triangle_exact(T), rotation


# the models with |v| = 0: exterior_on_field(F_p, i) at n = -3i, and
# F_2[x]/(x^2) with |x| = 0 at n = 0
FLAT_MODELS = [(2, 1, -3), (2, -1, 3), (2, 2, -6), (2, 3, -9), (3, 1, -3), (3, -1, 3), (5, 1, -3), (7, -1, 3),
               (2, 0, 0)]


@pytest.mark.parametrize("p, i, n", FLAT_MODELS)
def test_flat_records_do_not_depend_on_the_weight(p, i, n, monkeypatch):
    # records oracle: with |v| = 0 a triangle's records and verifier reports
    # at its own weight, span + 4 (MIN_WEIGHT when |x| = 0), equal those at
    # W = max(16, span + 4), on windows of span at most 12 placed around the
    # maps' degrees
    model = tr._model
    R = con.exterior_on_field(con.finite_field(p), i)
    rng = random.Random(100 * p + 10 * i + n)
    for k in range(20):
        src, tgt, entries = tr.random_map(R, n, rng)
        lo = rng.randint(-8, 4)
        window = (lo, lo + rng.randint(0, 12))
        T = tr.triangle_from_map(R, n, src, tgt, entries, window)
        weight = max(16, window[1] - window[0] + 2 * dg.PADDING)
        monkeypatch.setattr(tr, "_model", lambda R, n, _: model(R, n, weight))
        reference = tr.triangle_from_map(R, n, src, tgt, entries, window)
        monkeypatch.setattr(tr, "_model", model)
        assert triangle_record(T) == triangle_record(reference), k
        assert verifier_reports(T) == verifier_reports(reference), k


@pytest.mark.parametrize("p, i, n", PERIODIC_MODELS[::8])
def test_narrow_windows_count_every_generator_class(p, i, n):
    # a residue class of H(C) with a degree in the window has its generators
    # counted there, also where no degree q of it has q - |x| in the
    # window: H at q - |x| is then read off its residue record.  Residues and
    # counts are those of a window spanning two periods
    period = abs(3 * i + n)
    R = con.laurent_exterior(p, i, period)
    rng = random.Random(1000 * p + 10 * i + n)
    for _ in range(6):
        src, tgt, entries = tr.random_map(R, n, rng)
        lo = rng.randint(-10, 10)
        wide = tr.triangle_from_map(R, n, src, tgt, entries, window=(lo, lo + 2 * period + abs(i)))
        counts = {}
        for q in wide.third_generator_degrees:
            counts[q % period] = counts.get(q % period, 0) + 1
        for width in range(4):
            a = rng.randint(-10, 10)
            third = tr.triangle_from_map(R, n, src, tgt, entries, window=(a, a + width)).third_generator_degrees
            assert all(a <= q <= a + width for q in third)
            classes = {q % period for q in range(a, a + width + 1)}
            assert sorted(q % period for q in third) == \
                sorted(r for r, c in counts.items() if r in classes for _ in range(c)), (src, tgt, a, width)


def test_narrow_window_repro():
    # the map [0, 3] -> [0] of the second draw at seed 5: H(C)_0 has one
    # class not hit by x, which the window (0, 3) holds without degree -1
    R = lift_ring()
    rng = random.Random(5)
    tr.random_map(R, 1, rng)
    src, tgt, entries = tr.random_map(R, 1, rng)
    assert (src, tgt) == ([0, 3], [0])
    third = {w: tr.triangle_from_map(R, 1, src, tgt, entries, window=w).third_generator_degrees
             for w in ((0, 3), (0, 0), (-1, 3), (-8, 8))}
    assert third == {(0, 3): [0], (0, 0): [0], (-1, 3): [0], (-8, 8): [-4]}


def test_a_wide_window_eliminates_what_one_period_does(monkeypatch):
    # a periodic model's weight does not follow the window, and its records
    # are made once per residue class: a triangle on +-80 eliminates the
    # same slices, of the same sizes, as one on +-5, and both verifiers pass
    R = lift_ring()
    src, tgt, entries = tr.random_map(R, 1, random.Random(13))
    tr.triangle_from_map(R, 1, src, tgt, entries, window=(-80, 80))  # H(A) on the model
    sizes = []
    eliminate = dg._slice_homology
    monkeypatch.setattr(dg, "_slice_homology", lambda M, q: sizes.append(len(dg.slice_basis(M, q))) or eliminate(M, q))
    made = []
    for window in ((-5, 5), (-80, 80)):
        sizes.clear()
        T = tr.triangle_from_map(R, 1, src, tgt, entries, window=window)
        assert tr.verify_triangle_exact(T)["pass"] and tr.verify_rotation(T)["pass"]
        made.append(sorted(sizes))
    assert made[0] and made[0] == made[1]


def test_default_weight_holds_the_default_window(monkeypatch):
    # at n = -3 the default window pads the map's degrees by 4 on each side,
    # wider than the default weight holds
    R = con.exterior_on_field(con.finite_field(2), 1)
    rng = random.Random(0)
    spans = []
    for _ in range(25):
        T = tr.triangle_from_map(R, -3, *tr.random_map(R, -3, rng))
        assert tr.verify_triangle_exact(T)["pass"] and tr.verify_rotation(T)["pass"]
        spans.append(T.window[1] - T.window[0])
    assert max(spans) + 2 * dg.PADDING > dg.DEFAULT_WEIGHT
    # with |v| = 0 the model's weight follows the window, wider than any
    # default one here: span 15 builds it at 19
    builds = []
    build = dg.build_two_generator_dga
    monkeypatch.setattr(dg, "build_two_generator_dga", lambda *args: builds.append(args) or build(*args))
    tr.triangle_from_map(R, -3, [0], [0], [[R.one()]], window=(-7, 8))
    assert builds == [(2, 1, -3, 15 + 2 * dg.PADDING)]
    # span 4 builds it at 8, below the default weight, and F_2[x]/(x^2) with
    # |x| = 0 at n = 0, whose slices hold every weight, builds at the least
    builds.clear()
    tr.triangle_from_map(R, -3, [0], [0], [[R.one()]], window=(-2, 2))
    F = con.exterior_on_field(con.finite_field(2), 0)
    tr.triangle_from_map(F, 0, [0], [0], [[F.one()]], window=(-2, 2))
    assert builds == [(2, 1, -3, 4 + 2 * dg.PADDING), (2, 0, 0, dg.MIN_WEIGHT)]
    # and a model at the default weight refuses that window
    with pytest.raises(WindowTooWideForWeightBound, match="weight bound 16 too small for window span 15"):
        dg.homology(dg.algebra_module(tr._model(R, -3, dg.DEFAULT_WEIGHT)), (-7, 8))


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
