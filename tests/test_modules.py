import collections
import functools
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from brute_force import (
    cofiber_presentation,
    cokernel_presentation,
    column,
    coords,
    flatten,
    kernel_presentation,
    map_columns,
    map_from_matrix,
    map_matrix,
    module_elements,
    unflatten,
)

from trimod import constructions as con
from trimod import linalg
from trimod import modules as md
from trimod import rings as rc
from trimod import tate
from trimod.errors import IllFormedMap, NotQuasiFrobenius, ShapeMismatch, SizeCapExceeded
from trimod.modules import (
    FiniteModule,
    ModuleMap,
    cokernel,
    free_module,
    heller_cube_check,
    heller_inverse,
    heller_power,
    heller_shift,
    identity_map,
    image,
    iso_test,
    kernel,
    projective_cover,
    quotient_module,
    residue_module,
    stable_hom,
    stable_iso_test,
)


def z4():
    return con.z_mod(4)


def f2x():
    return con.exterior_on_field(con.finite_field(2))


def f3t3():
    return con.truncated_polynomial(3, 3)


def t_elem(R):
    # generator of the maximal ideal of a truncated polynomial ring
    return R.basis_element(1)


def apply_column(R, matrix, col):
    """Reference: a matrix over R applied to a column, term by term."""
    out = []
    for row in matrix:
        acc = R.zero()
        for x, c in zip(row, col):
            acc = acc + x * c
        out.append(acc)
    return out


def unit_columns(M):
    """The generators of M as columns over the ring."""
    R = M.ring
    return [[R.one() if i == j else R.zero() for i in range(M.generators)] for j in range(M.generators)]


def compose(R, g, f):
    """Reference: the columns of g . f over R, g's matrix times each column of f."""
    G = map_matrix(g)
    return [apply_column(R, G, col) for col in map_columns(f)]


def test_mult_by_two_on_z4():
    R = z4()
    M = free_module(R, 1)
    two = R.one() + R.one()
    f = map_from_matrix(M, M, [[two]])
    K, _ = kernel(f)
    I, _ = image(f)
    C, _ = cokernel(f)
    assert K.size() == 2
    assert I.size() == 2
    assert C.size() == 2


def test_zero_map_kernel_is_source():
    R = z4()
    M = quotient_module(R, [R.one() + R.one()])  # Z/2
    N = free_module(R, 1)
    f = md.zero_map(M, N)
    K, _ = kernel(f)
    assert K.size() == M.size() == 2
    C, _ = cokernel(f)
    assert C.size() == N.size()


def test_augmentation_kernel_f3t3():
    R = f3t3()
    M = free_module(R, 1)
    k = residue_module(R)
    proj = map_from_matrix(M, k, [[R.one()]])
    K, _ = kernel(proj)
    assert K.size() == 9


def test_exactness_count_random_maps():
    R = z4()
    M = free_module(R, 1)
    two = R.one() + R.one()
    for mat in ([[R.zero()]], [[R.one()]], [[two]]):
        f = map_from_matrix(M, M, mat)
        K, _ = kernel(f)
        I, _ = image(f)
        assert K.size() * I.size() == M.size()


def test_ill_formed_map_rejected():
    R = z4()
    M = quotient_module(R, [R.one() + R.one()])  # Z/2
    N = free_module(R, 1)
    with pytest.raises(IllFormedMap):
        map_from_matrix(M, N, [[R.one()]])  # 1 does not kill the relation 2
    # the constructor takes image arrays: integers of shape r_target x g_source
    assert ModuleMap(N, M, [[1]]).images.tolist() == [[1]]
    # images reduced into the target's coordinates, whatever their integers;
    # 2**63 + 1 comes in as uint64, which meets int64 in float64
    assert ModuleMap(N, N, np.array([[-1]], dtype=object)).images.tolist() == [[3]]
    assert ModuleMap(N, N, [[2 ** 63 + 1]]).images.tolist() == [[1]]
    for images in ([1], [[1, 0]], [[1], [0]], np.zeros((1, 1, 1), dtype=np.int64), [], [[1], [0, 1]],
                   [[1.5]], [[True]], [[R.one()]], np.array([[1.0]], dtype=object)):
        with pytest.raises(ShapeMismatch):
            ModuleMap(N, M, images)
        with pytest.raises(ShapeMismatch):
            ModuleMap(N, M, images, check=False)
    # 1 and 3 do not kill the relation 2; 2 does
    for x in (1, 3):
        with pytest.raises(IllFormedMap):
            ModuleMap(M, N, [[x]])
    assert ModuleMap(M, N, [[2]]).images.tolist() == [[2]]
    # a builder of maps that hold by construction skips the relation check
    assert ModuleMap(M, N, [[1]], check=False).images.tolist() == [[1]]


def test_a_refused_presentation_is_not_interned():
    R = z4()
    for _ in range(2):
        with pytest.raises(ShapeMismatch, match="nonnegative"):
            FiniteModule(R, -1, [])
    assert all(g >= 0 for g, _ in R._cache.get("modules", {}))
    with pytest.raises(SizeCapExceeded):
        FiniteModule(R, rc.MAX_TABLE_DIM ** 2 + 1, [])
    assert all(0 <= g <= rc.MAX_TABLE_DIM ** 2 for g, _ in R._cache.get("modules", {}))
    assert free_module(R, 1).size() == 4


def test_relation_entries_lie_over_the_modules_ring():
    R, S = z4(), f2x()
    # z4() builds an equal ring apart from R, whose elements are not R's
    for entry in (S.basis_element(1), S.one(), z4().one(), 2, None):
        with pytest.raises(ShapeMismatch, match="ring"):
            FiniteModule(R, 1, [[entry]])
        with pytest.raises(ShapeMismatch, match="ring"):
            FiniteModule(R, 2, [[R.one(), R.zero()], [R.zero(), entry]])
    assert FiniteModule(R, 1, [[R.one() * 2]]).size() == 2


def test_compose_checks_the_middle_module():
    R = f3t3()
    t = t_elem(R)
    F1, F2 = free_module(R, 1), free_module(R, 2)
    f = map_from_matrix(F1, F2, [[R.one()], [t]])
    # same ring, other generator count: used to return a 1 -> 1 map
    with pytest.raises(ShapeMismatch):
        identity_map(F1).compose(f)
    # same ring and generator count, other relation span
    Q, Q_unit, Q_t = (quotient_module(R, [x]) for x in (t * t, t * t * (R.one() + t), t))
    with pytest.raises(ShapeMismatch):
        identity_map(Q_t).compose(map_from_matrix(Q, Q, [[R.one()]]))
    # t^2 (1 + t) reduces to t^2: one presentation, one object, which composes
    assert Q_unit is Q
    g = identity_map(Q_unit).compose(map_from_matrix(Q, Q, [[t]]))
    assert g.source is Q and g.target is Q_unit and map_matrix(g) == [[t]]
    # over Z/4 an equal relation span in another object is another module:
    # maps compose only through one module object
    Z = z4()
    one, zero = Z.one(), Z.zero()
    A = FiniteModule(Z, 2, [[one * 3, one * 3]])
    B = FiniteModule(Z, 2, [[one * 3, one * 3], [one * 2, one * 2]])
    assert A is not B and A.size() == B.size()
    with pytest.raises(ShapeMismatch):
        identity_map(B).compose(map_from_matrix(A, A, [[one, zero], [zero, one]]))


def test_act_all_matches_per_element_products():
    # the int64 path and, with char 3**30, the exact Python-integer path
    rng = random.Random(1)
    S, Z = f3t3(), con.z_mod(3 ** 30)
    t = t_elem(S)
    cases = [FiniteModule(S, 2, [[t, t * t]]), FiniteModule(Z, 2, [[Z.one() * 3 ** 15, Z.one() * 6]])]
    assert [M.action().dtype for M in cases] == [np.int64, object]
    for M in cases:
        R, A, qm = M.ring, M.action(), M.quotient()[0]
        r = len(qm)

        def act_one(x):
            # one product per element, as `act` was made before `act_all`
            c = np.array(R.full_coords(x), dtype=A.dtype)
            return np.tensordot(c, A, 1) % np.array(qm, dtype=A.dtype).reshape(-1, 1)

        xs = [R.from_full_coords([rng.randrange(o) for o in R.orders]) for _ in range(6)]
        got = M.act_all(xs)
        assert got.shape == (6, r, r) and got.dtype == A.dtype
        for x, mat in zip(xs, got):
            assert mat.tolist() == act_one(x).tolist() == M.act_all([x])[0].tolist()
        assert M.act_all([]).shape == (0, r, r)
        for cols in ([xs[:2], xs[2:4], xs[4:]], [xs[:3]], [[]], []):
            old = [row for c in cols for row in np.hstack(
                [np.zeros((r, 0), dtype=A.dtype)] + [act_one(x) for x in c]).tolist()]
            width = len(cols[0]) * R.dim if cols else 0
            C = np.array([flatten(M, c) for c in cols], dtype=A.dtype).reshape(len(cols), width)
            assert md._combination_rows(C, M).tolist() == old


def test_action_matches_ring_multiplication():
    # the cached action matrices against ring arithmetic on lifted columns;
    # char 3**30 takes the exact Python-integer path instead of int64, and
    # the Smith transforms of the Z/(3 * 2**28) presentation exceed int64
    rng = random.Random(0)
    S, Z, W = f3t3(), con.z_mod(3 ** 30), con.z_mod(3 * 2 ** 28)
    t = t_elem(S)
    cases = [FiniteModule(S, 2, [[t, t * t]]), FiniteModule(Z, 2, [[Z.one() * 3 ** 15, Z.one() * 6]]),
             FiniteModule(W, 2, [[W.one() * 21, W.one() * 2051]])]
    assert [M.action().dtype for M in cases] == [np.int64, object, np.int64]
    for M in cases:
        R, qm = M.ring, M.quotient()[0]
        for _ in range(20):
            x = R.from_full_coords([rng.randrange(o) for o in R.orders])
            v = [rng.randrange(m) for m in qm]
            got = [a % m for a, m in zip(linalg.apply_matrix(M.act_all([x])[0].tolist(), v), qm)]
            assert got == coords(M, [x * y for y in column(M, v)])


def is_projective(M):
    """Free test over a local ring: M/Mm needs d generators, and a free
    module on d generators has |R|**d elements."""
    d = md._log(rc.residue_size(M.ring), M.size() // md._radical(M).size())
    return M.size() == M.ring.size() ** d


def test_is_projective():
    R = z4()
    assert is_projective(free_module(R, 1))
    assert is_projective(free_module(R, 2))
    assert not is_projective(quotient_module(R, [R.one() + R.one()]))
    S = f3t3()
    sub = quotient_module(S, [t_elem(S) * t_elem(S)])  # R/(t^2) = (t) as module
    assert not is_projective(sub)


def test_projective_cover_z2_over_z4():
    R = z4()
    M = quotient_module(R, [R.one() + R.one()])
    cover = projective_cover(M)
    assert cover.source.generators == 1
    K, _ = kernel(cover)
    assert K.size() == 2


def test_projective_cover_minimal_on_sum():
    R = z4()
    two = R.one() + R.one()
    M = FiniteModule(R, 2, [[two, R.zero()]])  # Z/2 + R
    cover = projective_cover(M)
    assert cover.source.generators == 2


def test_heller_basics():
    R = z4()
    k = residue_module(R)
    assert iso_test(heller_shift(k), k)
    assert heller_shift(free_module(R, 1)).size() == 1
    S = f2x()
    kS = residue_module(S)
    assert iso_test(heller_shift(kS), kS)


def test_heller_period_two_chain():
    R = f3t3()
    k = residue_module(R)
    o1 = heller_shift(k)
    o2 = heller_shift(o1)
    assert o1.size() == 9
    assert iso_test(o2, k)
    # syzygies come minimally presented: one generator, one relation
    assert (o2.generators, len(o2.relations)) == (1, 1)
    o2 = heller_power(residue_module(con.group_algebra_cyclic(3, 3)), 2)
    assert (o2.generators, len(o2.relations)) == (1, 1)


def test_iso_test_examples():
    R = z4()
    two = R.one() + R.one()
    A = FiniteModule(R, 2, [[two, R.zero()]])
    B = FiniteModule(R, 2, [[R.zero(), two]])
    assert iso_test(A, B)
    C = FiniteModule(R, 2, [[two, R.zero()], [R.zero(), two]])
    assert not iso_test(free_module(R, 1), C)
    S = f3t3()
    t = t_elem(S)
    sub = quotient_module(S, [t * t])
    aug = map_from_matrix(free_module(S, 1), residue_module(S), [[S.one()]])
    K, _ = kernel(aug)
    assert iso_test(K, sub)
    # cyclic against split: the Smith form may give Z/6 or Z/2 x Z/3
    for m, a, b in ((6, 3, 2), (12, 3, 4)):
        Zm = con.z_mod(m)
        split = FiniteModule(Zm, 2, [[Zm.one() * a, Zm.zero()], [Zm.zero(), Zm.one() * b]])
        assert iso_test(free_module(Zm, 1), split)
        assert md._brute_force_iso(free_module(Zm, 1), split)


def test_stable_iso_drops_free_summands():
    R = z4()
    two = R.one() + R.one()
    M = FiniteModule(R, 2, [[two, R.zero()]])  # Z/2 + R
    assert stable_iso_test(M, quotient_module(R, [two]))
    assert not stable_iso_test(M, free_module(R, 0))
    assert stable_iso_test(free_module(R, 3), free_module(R, 0))


def test_stable_iso_limits():
    # local but not a chain ring: a typed limit
    R = con.square_zero_two_vars(2)
    with pytest.raises(ShapeMismatch):
        stable_iso_test(residue_module(R), residue_module(R))
    assert not stable_iso_test(residue_module(z4()), residue_module(con.z_mod(8)))
    # Loewy length 70; Omega^3 k = Omega k = R/m^69 is not stably k
    R = con.z_mod(2 ** 70)
    assert stable_iso_test(free_module(R, 1), free_module(R, 0))
    assert not heller_cube_check([residue_module(R)])


def test_heller_shift_past_int64():
    # moduli of 2**63 and more are held as exact Python numbers
    k = residue_module(con.z_mod(2 ** 63))
    assert [heller_power(k, j).size() for j in (1, 2, 3)] == [2 ** 62, 2, 2 ** 62]
    assert heller_shift(residue_module(con.z_mod(2 ** 70))).size() == 2 ** 69


def test_brute_force_iso_ranges_over_hom_orders():
    # (Z/2)^2 against its swapped presentation over Z/(2 * 4099), not local:
    # each Hom generator has order 2, so the search visits 16 maps
    Z = con.z_mod(2 * 4099)
    two = Z.one() * 2
    A = FiniteModule(Z, 2, [[two, Z.zero()], [Z.zero(), two]])
    B = FiniteModule(Z, 2, [[Z.zero(), two], [two, Z.zero()]])
    start = time.perf_counter()
    assert iso_test(A, B)
    assert time.perf_counter() - start < 1
    # (Z/4099)^2: 4099**4 maps, past the cap
    C = FiniteModule(Z, 2, [[Z.one() * 4099, Z.zero()], [Z.zero(), Z.one() * 4099]])
    with pytest.raises(SizeCapExceeded):
        iso_test(C, C)


@pytest.mark.parametrize("rank", [2 ** 31, 2 ** 63])
def test_free_module_past_the_coordinate_cap(rank):
    # refused before any array is allocated; the cap itself is allowed
    Z4 = con.z_mod(4)
    assert free_module(Z4, rc.MAX_TABLE_DIM ** 2).generators == rc.MAX_TABLE_DIM ** 2
    with pytest.raises(SizeCapExceeded, match=f"{rank} generators"):
        free_module(Z4, rank)


def test_stable_hom_examples():
    R = f2x()
    k = residue_module(R)
    dim, reps = stable_hom(k, k)
    assert dim == 1 and len(reps) == 1
    dim, reps = stable_hom(free_module(R, 1), k)
    assert dim == 0
    Z = z4()
    k2 = residue_module(Z)
    dim, reps = stable_hom(k2, k2)
    assert dim == 1


def test_heller_inverse_inverts():
    for R in (z4(), f2x(), f3t3()):
        k = residue_module(R)
        back = heller_power(heller_inverse(k), 1)
        assert stable_iso_test(back, k)


def test_heller_cube_over_delta_rings():
    for R in (z4(), f2x()):
        k = residue_module(R)
        assert heller_cube_check([free_module(R, 1), k])


def _chain_sum(rng, R, lengths):
    """The sum of R/m^a over the lengths, under a random unitriangular change
    of basis: relation i is g^a_i times column i of the change of basis."""
    g, n = rc.chain_generator(R), len(lengths)
    rels = []
    for i, a in enumerate(lengths):
        col = [R.from_full_coords([rng.randrange(o) for o in R.orders]) for _ in range(i)]
        col += [R.one()] + [R.zero()] * (n - i - 1)
        for _ in range(a):
            col = [x * g for x in col]
        rels.append(col)
    return FiniteModule(R, n, rels)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_heller_cube_random_sums(seed):
    # a module over a chain ring of Loewy length e is a sum of R/m^a, a <= e;
    # R/m^e is free, and Omega(R/m^a) = R/m^(e-a)
    rng = random.Random(seed)
    R, e = rng.choice([(z4(), 2), (con.z_mod(8), 3), (con.z_mod(9), 2), (f2x(), 2), (f3t3(), 3),
                       (con.galois_ring_4_2(), 2)])
    lengths = [rng.randint(1, e) for _ in range(rng.randint(1, 3))]
    M = _chain_sum(rng, R, lengths)
    assert md._cyclic_lengths(M) == tuple(sorted(lengths))
    stable = sorted(a for a in lengths if a < e)
    other = stable + [e] * rng.randint(0, 1) if rng.random() < 0.5 else \
        [rng.randint(1, e) for _ in range(rng.randint(1, 3))]
    rng.shuffle(other)
    N = _chain_sum(rng, R, other)
    assert stable_iso_test(M, N) == (stable == sorted(b for b in other if b < e))
    assert heller_cube_check([M]) == (stable == sorted(e - a for a in stable))


def _draw_module(data, R):
    """A cyclic or two-generator module with up to three random relations."""
    g = data.draw(st.integers(1, 2))
    entries = st.tuples(*[st.integers(0, o - 1) for o in R.orders])
    rels = data.draw(st.lists(st.lists(entries, min_size=g, max_size=g), max_size=3))
    return FiniteModule(R, g, [[R.from_full_coords(list(c)) for c in col] for col in rels])


def _relation_span(N):
    """The relations of N times every ring basis element, as one subgroup."""
    R = N.ring
    cols = [flatten(N, [x * R.basis_element(l) for x in col]) for col in N.relations for l in range(R.dim)]
    return linalg.Subgroup(cols, N.ambient_moduli)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([z4, f3t3, f2x]), st.data())
def test_hom_group_against_brute_force(ring, data):
    R = ring()
    M, N = _draw_module(data, R), _draw_module(data, R)
    assume(N.size() ** M.generators <= 1000)
    rel_N = _relation_span(N)
    homs = md.hom_group(M, N)
    # every returned map sends each relation of M into the relations of N
    for F in homs:
        for col in M.relations:
            assert rel_N.contains(flatten(N, apply_column(R, map_matrix(F), col)))
    # the span of the maps, as generator images modulo the relations of N
    g, width = M.generators, len(N.ambient_moduli)
    images = [[x for col in unit_columns(M) for x in flatten(N, apply_column(R, map_matrix(F), col))] for F in homs]
    rels = [[0] * (j * width) + c + [0] * ((g - 1 - j) * width) for j in range(g) for c in rel_N.cols()]
    span_size = linalg.Subgroup(images + rels, N.ambient_moduli * g).size() // rel_N.size() ** g
    # |Hom(M, N)|: every choice of generator images that kills each relation
    elements = [unflatten(N, v) for v in module_elements(N)]
    count = 0
    for images in itertools.product(elements, repeat=M.generators):
        count += all(
            rel_N.contains(flatten(N, [
                sum((c * n[i] for c, n in zip(col, images)), R.zero()) for i in range(N.generators)
            ]))
            for col in M.relations
        )
    assert span_size == count


def _random_hom(data, M, N):
    """An element of Hom(M, N): a random combination of its generators."""
    homs = md._hom_vectors(M, N)
    coeffs = data.draw(st.lists(st.integers(0, M.ring.char - 1), min_size=len(homs), max_size=len(homs)))
    width = len(md._hom_moduli(M, N))
    return md._map_from_hom(M, N, [sum(c * h[i] for c, h in zip(coeffs, homs)) for i in range(width)])


def _images(N, cols):
    """Columns over the ring in N's quotient coordinates, one list each."""
    return [coords(N, col) for col in cols]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([z4, f3t3, f2x]), st.data())
def test_map_arrays_against_ring_arithmetic(ring, data):
    R = ring()
    M, N, P = (_draw_module(data, R) for _ in range(3))
    entries = st.tuples(*[st.integers(0, o - 1) for o in R.orders])
    # a matrix over the ring is a map exactly when it sends the relations of
    # M into those of N, and then its images are those of its columns
    mat = [[R.from_full_coords(list(data.draw(entries))) for _ in range(M.generators)] for _ in range(N.generators)]
    cols = [[row[j] for row in mat] for j in range(M.generators)]
    if all(not any(coords(N, apply_column(R, mat, col))) for col in M.relations):
        assert map_from_matrix(M, N, mat).images.T.tolist() == _images(N, cols)
    else:
        with pytest.raises(IllFormedMap):
            map_from_matrix(M, N, mat)
    f, g = _random_hom(data, M, N), _random_hom(data, N, P)
    assert g.compose(f).images.T.tolist() == _images(P, compose(R, g, f))
    # g . f factors through g, and the factor h has g . h = g . f
    gf_cols = compose(R, g, f)
    gf = map_from_matrix(M, P, [[col[i] for col in gf_cols] for i in range(P.generators)])
    h = md._factor_through(gf, g)
    assert h.source is M and h.target is N
    ModuleMap(M, N, h.images)  # IllFormedMap unless h kills M's relations
    assert _images(P, compose(R, g, h)) == _images(P, gf_cols)
    # a map that does not factor through g is not g . h for any h
    k = _random_hom(data, M, P)
    try:
        h = md._factor_through(k, g)
    except IllFormedMap:
        homs = [map_columns(H) for H in md.hom_group(M, N)]
        assume(R.char ** len(homs) <= 256)
        G = map_matrix(g)
        for combo in itertools.product(range(R.char), repeat=len(homs)):
            cols = [[sum((H[j][i] * c for c, H in zip(combo, homs)), R.zero()) for i in range(N.generators)]
                    for j in range(M.generators)]
            assert _images(P, [apply_column(R, G, col) for col in cols]) != k.images.T.tolist()
    else:
        ModuleMap(M, N, h.images)
        assert _images(P, compose(R, g, h)) == k.images.T.tolist()


def _seeded_module(rng, R, relations):
    """A cyclic or two-generator module with the given number of random
    relations."""
    g = rng.randint(1, 2)
    return FiniteModule(R, g, [[R.from_full_coords([rng.randrange(o) for o in R.orders]) for _ in range(g)]
                               for _ in range(relations)])


def _seeded_hom(rng, M, N):
    """A random combination of the generators of Hom(M, N)."""
    homs, moduli = md._hom_vectors(M, N), md._hom_moduli(M, N)
    coeffs = [rng.randrange(M.ring.char) for _ in homs]
    return md._map_from_hom(M, N, [sum(c * h[i] for c, h in zip(coeffs, homs)) % m for i, m in enumerate(moduli)])


def test_factorizations_are_module_maps():
    # g = f . h0 with M carrying relations and f leaving a free module: the
    # generator-by-generator solve alone returned images breaking M's
    # relations on 3 of these 280 triples
    rings = [z4(), f3t3(), f2x()]
    for seed in range(280):
        rng = random.Random(seed)
        R = rings[seed % 3]
        M = _seeded_module(rng, R, rng.randint(1, 3))
        N = free_module(R, rng.randint(1, 2))
        P = _seeded_module(rng, R, rng.randint(0, 3))
        f, h0 = _seeded_hom(rng, N, P), _seeded_hom(rng, M, N)
        g = f.compose(h0)
        h = md._factor_through(g, f)
        assert h.source is M and h.target is N, seed
        ModuleMap(M, N, h.images)  # IllFormedMap unless h kills M's relations
        assert f.compose(h).images.tolist() == g.images.tolist(), seed


def test_factor_through_needs_one_target_object():
    R = z4()
    with pytest.raises(ShapeMismatch):
        md._factor_through(identity_map(free_module(R, 1)), identity_map(residue_module(R)))


def test_maps_and_homs_stay_over_one_ring():
    Z4, Z9 = z4(), con.z_mod(9)
    F4, F9 = free_module(Z4, 1), free_module(Z9, 1)
    with pytest.raises(ShapeMismatch, match="rings"):
        ModuleMap(F4, F9, [[1]])
    with pytest.raises(ShapeMismatch, match="rings"):
        md.hom_group(F4, F9)
    k4, k9 = residue_module(Z4), residue_module(Z9)
    with pytest.raises(ShapeMismatch, match="rings"):
        stable_hom(k4, k9)
    assert not iso_test(k4, k9) and not stable_iso_test(k4, k9)
    # an equal ring in another object is the same ring
    assert len(md.hom_group(F4, free_module(z4(), 1))) == 1


@pytest.mark.parametrize("count", [2.5, True, False, "2", None])
def test_generator_count_is_an_integer(count):
    with pytest.raises(ShapeMismatch, match="integer"):
        FiniteModule(z4(), count, [])


def f2_klein():
    """F_2[x, y]/(x^2, y^2), the group algebra of Z/2 x Z/2."""
    products = {(0, j): [(1, j, 0)] for j in range(4)}
    products.update({(j, 0): [(1, j, 0)] for j in range(1, 4)})
    products.update({(1, 2): [(1, 3, 0)], (2, 1): [(1, 3, 0)]})
    R = rc.GradedRing(2, [("one", 0), ("x", 0), ("y", 0), ("xy", 0)], products, [(1, 0, 0)])
    return rc.validate_ring(R)


def _span_through(emb, N):
    """The maps from emb.source to N that factor through emb, as a subgroup
    of hom coordinates (what `stable_projective_span` holds for emb)."""
    return linalg.Subgroup(md._combination_rows(md._lifted(emb).T, N).T.tolist(),
                           md._hom_moduli(emb.source, N))


QF_RINGS = [lambda: con.group_algebra_cyclic(2, 1), lambda: con.group_algebra_cyclic(2, 2),
            lambda: con.group_algebra_cyclic(3, 1), lambda: con.group_algebra_cyclic(2, 3), z4, f2x, f2_klein]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(QF_RINGS), st.data())
def test_seeded_envelope_of_a_syzygy_matches_the_hom_envelope(ring, data):
    R = ring()
    assert rc.is_quasi_frobenius(R)
    M = _draw_module(data, R)
    K, inc = md._syzygy(M)
    assume(md.injective_envelope(K) is inc)
    assert md.heller_inverse(K) is M
    hom_env = md.injective_envelope.__wrapped__(K)
    for N in (residue_module(R), M, K):
        P = _span_through(hom_env, N)
        assert md.stable_projective_span(K, N) == P
        homs = md._hom_vectors(K, N)
        quot = P.extend(homs).size() // P.size()
        assert rc.residue_size(R) ** stable_hom(K, N)[0] == quot


def test_heller_inverse_undoes_heller_shift_on_minimal_modules():
    R = con.group_algebra_cyclic(3, 2)
    t = t_elem(R)
    for M in (residue_module(R), FiniteModule(R, 2, [[t * t, R.zero()], [R.zero(), t]])):
        assert heller_inverse(heller_shift(M)) is M
    # not quasi-Frobenius: the envelope of Omega k is built from homs
    S = con.square_zero_two_vars(2)
    omega = heller_shift(residue_module(S))
    back = heller_inverse(omega)
    assert (omega.generators, back.generators, back.size()) == (2, 4, 2 ** 10)
    # a redundant generator: the cover has rank 1, so Omega M gets no seed
    M = FiniteModule(R, 2, [[R.zero(), R.one()]])
    assert projective_cover(M).source.generators == 1
    omega = heller_shift(M)
    assert ("injective_envelope",) not in omega._cache and ("_cosyzygy",) not in omega._cache
    assert heller_inverse(omega) is not M


def test_equal_presentations_are_one_module():
    R = f3t3()
    t = t_elem(R)
    M = FiniteModule(R, 2, [[t, R.zero()]])
    assert FiniteModule(R, 2, [[t, R.zero()]]) is M
    assert quotient_module(R, [t]) is FiniteModule(R, 1, [[t]])
    # the same relation coordinates over another ring, or another generator count
    S = con.truncated_polynomial(5, 3)
    N = FiniteModule(S, 2, [[t_elem(S), S.zero()]])
    assert N is not M and (N.size(), M.size()) == (5 ** 4, 3 ** 4)
    assert FiniteModule(R, 3, [[t, R.zero(), R.zero()]]) is not M
    # a separate but equal ring keeps its own modules
    R2 = f3t3()
    assert R2 == R and FiniteModule(R2, 2, [[t_elem(R2), R2.zero()]]) is not M


def test_interned_syzygy_keeps_an_earlier_envelope():
    R = con.group_algebra_cyclic(3, 2)
    k = residue_module(R)
    emb = md.injective_envelope(k)
    inv = heller_inverse(k)
    assert heller_shift(heller_shift(k)) is k
    assert md.injective_envelope(k) is emb and heller_inverse(k) is inv
    # with no envelope before, Omega(Omega k) = k seeds it: Omega^-1 k is Omega k
    R = con.group_algebra_cyclic(3, 2)
    k = residue_module(R)
    omega = heller_shift(k)
    assert heller_shift(omega) is k and heller_inverse(k) is omega


def test_per_object_keys_each_argument():
    R = con.group_algebra_cyclic(3, 1)
    k = residue_module(R)
    calls = []

    @rc.per_object
    def scaled_size(M, c):
        calls.append(c)
        return c * M.size()

    # two arguments give two entries, each computed once
    assert [scaled_size(k, 2), scaled_size(k, 5), scaled_size(k, 2)] == [6, 15, 6]
    assert calls == [2, 5]
    assert (k._cache[("scaled_size", 2)], k._cache[("scaled_size", 5)]) == (6, 15)
    F = free_module(R, 1)
    first, free = md.stable_hom(k, k), md.stable_hom(k, F)
    assert k._cache[("stable_hom", k)] is first and k._cache[("stable_hom", F)] is free
    assert (first[0], free[0]) == (1, 0)


def test_per_object_caches_nothing_when_the_call_raises():
    S = con.square_zero_two_vars(2)
    k = residue_module(S)
    with pytest.raises(NotQuasiFrobenius):
        md.stable_hom(k, k)
    assert ("stable_hom", k) not in k._cache


def _seeded_chain_modules(R, e, seed):
    """Two each of the sums of 1, 2 and 3 cyclic modules R/m^a, 1 <= a <= e,
    on generators changed by a random unitriangular matrix, as in the
    corpus benchmark."""
    rng, pi, mods = random.Random(seed), rc.chain_generator(R), []
    for g in (1, 2, 3) * 2:
        exps = [rng.randint(1, e) for _ in range(g)]
        U = [[R.one() if r == c else R.from_full_coords([rng.randrange(m) for m in R.orders]) if r < c
              else R.zero() for c in range(g)] for r in range(g)]
        cyclic = [functools.reduce(lambda x, _: x * pi, range(a), R.one()) for a in exps]
        mods.append(FiniteModule(R, g, [[U[r][c] * cyclic[c] for r in range(g)] for c in range(g)]))
    return mods


# chain rings and their Loewy lengths: two over F_p, and Z/8 and GR(4, 2) on
# the integer lane
CHAIN_RINGS = {"F3[t]/t^9": (lambda: con.truncated_polynomial(3, 9), 9),
               "F2[t]/t^8": (lambda: con.truncated_polynomial(2, 8), 8),
               "Z/8": (lambda: con.z_mod(8), 3), "GR(4, 2)": (con.galois_ring_4_2, 2)}


@pytest.mark.parametrize("name", CHAIN_RINGS)
def test_radical_rows_are_made_once_per_module(name, monkeypatch):
    # the action of the maximal ideal is made once per module, across the
    # covers of both shifts and the radical filtrations of the lengths
    build, e = CHAIN_RINGS[name]
    acted, act_all = collections.Counter(), FiniteModule.act_all
    monkeypatch.setattr(FiniteModule, "act_all", lambda M, xs: acted.update([M]) or act_all(M, xs))
    for M in _seeded_chain_modules(build(), e, len(name)):
        assert stable_iso_test(heller_power(M, 2), M)
    assert acted and max(acted.values()) == 1


@pytest.mark.parametrize("name", CHAIN_RINGS)
def test_stable_hom_scan_stops_at_the_whole_group(name, monkeypatch):
    # a Hom generator is tested against the span only until the span is all
    # of Hom(M, N): at most once per generator up to the one after which the
    # span is whole
    build, e = CHAIN_RINGS[name]
    R = build()
    mods, cut = _seeded_chain_modules(R, e, len(name)), 0
    # the ring's predicates are answered before any call is counted
    assert rc.is_quasi_frobenius(R) and rc.is_local(R)
    contains, asked = linalg.Subgroup.contains, []
    for M, N in itertools.product(mods, repeat=2):
        P, homs = md.stable_projective_span(M, N), md._hom_vectors(M, N)
        until = next(k for k in range(len(homs) + 1) if P.extend(homs[:k]) == P.extend(homs))
        cut += until < len(homs)
        asked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(linalg.Subgroup, "contains", lambda S, v: asked.append(v) or contains(S, v))
            stable_hom(M, N)
        assert asked == homs[:len(asked)] and len(asked) <= until, (M, N)
    # the span is whole before the last generator on some pairs
    assert cut


def _seeded_modules(R, seed):
    """Six modules on 1 to 3 generators with up to three seeded relations."""
    rng, mods = random.Random(seed), []
    for g in (1, 2, 3) * 2:
        rels = [[R.from_full_coords([rng.randrange(o) for o in R.orders]) for _ in range(g)]
                for _ in range(rng.randint(0, 3))]
        mods.append(FiniteModule(R, g, rels))
    return mods


def _seeded_maps(mods, seed, count=8):
    """count maps between seeded pairs of the modules, each a seeded
    combination of the Hom generators."""
    rng, maps = random.Random(seed), []
    for _ in range(count):
        M, N = rng.choice(mods), rng.choice(mods)
        homs, moduli = md._hom_vectors(M, N), md._hom_moduli(M, N)
        coeffs = [rng.randrange(M.ring.char) for _ in homs]
        maps.append(md._map_from_hom(M, N, [sum(c * h[i] for c, h in zip(coeffs, homs)) % m
                                            for i, m in enumerate(moduli)]))
    return maps


PINNED_RINGS = {name: build for name, (build, _) in CHAIN_RINGS.items()} | {
    "Z/4": z4, "Z/4 x F3": lambda: con.product_ring(con.z_mod(4), con.finite_field(3))}


@pytest.mark.parametrize("name", PINNED_RINGS)
def test_integer_presentations_are_the_ring_element_ones(name):
    # kernels, cokernels and cofibers, built from integer relation rows, are
    # the very modules interned from the relation columns over the ring
    R = PINNED_RINGS[name]()
    e = CHAIN_RINGS[name][1] if name in CHAIN_RINGS else None
    mods = _seeded_chain_modules(R, e, len(name)) if e else _seeded_modules(R, len(name))
    for f in _seeded_maps(mods, len(name)):
        assert kernel(f)[0] is FiniteModule(R, *kernel_presentation(f)), f
        assert cokernel(f)[0] is FiniteModule(R, *cokernel_presentation(f)), f
        assert tate.cofiber_stmod(f)[0] is FiniteModule(R, *cofiber_presentation(f)), f
