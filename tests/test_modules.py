import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from trimod import constructions as con
from trimod import linalg
from trimod import modules as md
from trimod import rings as rc
from trimod.errors import IllFormedMap
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
    is_projective,
    iso_test,
    kernel,
    projective_cover,
    quotient_module,
    residue_module,
    stable_hom,
    stable_iso_test,
    strip_projective_summands,
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


def direct_sum(R, lengths, powers):
    """Module with one generator per entry, relation gen * powers[i]."""
    g = len(lengths)
    rels = []
    for i, a in enumerate(lengths):
        if a is None:
            continue
        col = [R.zero()] * g
        col[i] = powers[a]
        rels.append(col)
    return FiniteModule(R, g, rels)


def test_mult_by_two_on_z4():
    R = z4()
    M = free_module(R, 1)
    two = R.one() + R.one()
    f = ModuleMap(M, M, [[two]])
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
    proj = ModuleMap(M, k, [[R.one()]])
    K, _ = kernel(proj)
    assert K.size() == 9


def test_exactness_count_random_maps():
    R = z4()
    M = free_module(R, 1)
    two = R.one() + R.one()
    for mat in ([[R.zero()]], [[R.one()]], [[two]]):
        f = ModuleMap(M, M, mat)
        K, _ = kernel(f)
        I, _ = image(f)
        assert K.size() * I.size() == M.size()


def test_ill_formed_map_rejected():
    R = z4()
    M = quotient_module(R, [R.one() + R.one()])  # Z/2
    N = free_module(R, 1)
    with pytest.raises(IllFormedMap):
        ModuleMap(M, N, [[R.one()]])  # 1 does not kill the relation 2


def test_action_matches_ring_multiplication():
    # the cached action matrices against ring arithmetic on lifted columns;
    # char 3**30 takes the exact Python-integer path instead of int64
    rng = random.Random(0)
    S, Z = f3t3(), con.z_mod(3 ** 30)
    t = t_elem(S)
    cases = [FiniteModule(S, 2, [[t, t * t]]), FiniteModule(Z, 2, [[Z.one() * 3 ** 15, Z.one() * 6]])]
    assert cases[1].action().dtype == object
    for M in cases:
        R, qm = M.ring, M.quotient()[0]
        for _ in range(20):
            x = R.from_full_coords([rng.randrange(o) for o in R.orders])
            v = [rng.randrange(m) for m in qm]
            got = [a % m for a, m in zip(linalg.apply_matrix(M.act(x).tolist(), v), qm)]
            assert got == M.coords([x * y for y in M.column(v)])


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
    aug = ModuleMap(free_module(S, 1), residue_module(S), [[S.one()]])
    K, _ = kernel(aug)
    assert iso_test(K, sub)


def test_strip_projective_summands():
    R = z4()
    two = R.one() + R.one()
    M = FiniteModule(R, 2, [[two, R.zero()]])  # Z/2 + R
    S = strip_projective_summands(M)
    assert S.size() == 2
    assert iso_test(S, quotient_module(R, [two]))
    assert strip_projective_summands(free_module(R, 3)).size() == 1


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
        assert heller_cube_check(R, [free_module(R, 1), k])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_heller_cube_random_sums(seed):
    rng = random.Random(seed)
    R = rng.choice([z4(), f2x()])
    g = rc.chain_generator(R)
    powers = {0: R.one(), 1: g, 2: g * g}
    n = rng.randint(1, 3)
    lengths = [rng.choice([1, 2]) for _ in range(n)]
    M = direct_sum(R, [a if a < 2 else None for a in lengths], powers)
    assert heller_cube_check(R, [M])


def _draw_module(data, R):
    """A cyclic or two-generator module with up to three random relations."""
    g = data.draw(st.integers(1, 2))
    coords = st.tuples(*[st.integers(0, o - 1) for o in R.orders])
    rels = data.draw(st.lists(st.lists(coords, min_size=g, max_size=g), max_size=3))
    return FiniteModule(R, g, [[R.from_full_coords(list(c)) for c in col] for col in rels])


def _relation_span(N):
    """The relations of N times every ring basis element, as one subgroup."""
    R = N.ring
    cols = [N.flatten([x * R.basis_element(l) for x in col]) for col in N.relations for l in range(R.dim)]
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
            assert rel_N.contains(N.flatten(F.apply_column(col)))
    # the span of the maps, as generator images modulo the relations of N
    g, width = M.generators, len(N.ambient_moduli)
    images = [[x for col in M.generator_columns() for x in N.flatten(F.apply_column(col))] for F in homs]
    rels = [[0] * (j * width) + c + [0] * ((g - 1 - j) * width) for j in range(g) for c in rel_N.cols()]
    span_size = linalg.Subgroup(images + rels, N.ambient_moduli * g).size() // rel_N.size() ** g
    # |Hom(M, N)|: every choice of generator images that kills each relation
    elements = [N.unflatten(v) for v in N.elements()]
    count = 0
    for images in itertools.product(elements, repeat=M.generators):
        count += all(
            rel_N.contains(N.flatten([
                sum((c * n[i] for c, n in zip(col, images)), R.zero()) for i in range(N.generators)
            ]))
            for col in M.relations
        )
    assert span_size == count
