import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trimod import linalg
from trimod.errors import UnsupportedCoefficients


def test_modp_rref_identity():
    R, piv = linalg.modp_rref([[1, 0], [0, 1]], 3)
    assert piv == [0, 1]


def test_modp_kernel_and_solve():
    A = [[1, 2, 0], [0, 0, 1]]
    ker = linalg.modp_kernel(A, 5)
    assert len(ker) == 1
    for v in ker:
        assert all(sum(a * x for a, x in zip(row, v)) % 5 == 0 for row in A)
    x = linalg.modp_solve(A, [3, 4], 5)
    assert x is not None
    assert [sum(a * v for a, v in zip(row, x)) % 5 for row in A] == [3, 4]
    assert linalg.modp_solve([[2], [1]], [1, 2], 5) is None


def test_smith_diagonalizes():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag, U, V, _ = linalg.smith_normal_form(A)
    n = len(A)
    UA = [[sum(U[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            expect = diag[i] if i == j else 0
            assert UAV[i][j] == expect


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_smith_uinv_random(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    A = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
    diag, U, V, Ui = linalg.smith_normal_form(A, want_uinv=True)
    # U * Ui == I
    for i in range(nr):
        for j in range(nr):
            s = sum(U[i][k] * Ui[k][j] for k in range(nr))
            assert s == (1 if i == j else 0)


def test_subgroup_basics_z4():
    moduli = [4, 4]
    b = linalg.Subgroup([[2, 0]], moduli)
    assert b.contains([2, 0])
    assert b.contains([6, 0])
    assert not b.contains([1, 0])
    assert b.size() == 2
    full = linalg.Subgroup([[1, 0], [0, 1]], moduli)
    assert full.size() == 16


def test_subgroup_mixed_orders():
    moduli = [2, 4]
    b = linalg.Subgroup([[1, 2]], moduli)
    assert b.size() == 2
    assert b.contains([1, 2])
    assert not b.contains([1, 0])


def test_subgroup_equality_is_canonical():
    moduli = [4, 4]
    b1 = linalg.Subgroup([[2, 0], [0, 2]], moduli)
    b2 = linalg.Subgroup([[2, 2], [0, 2], [2, 0]], moduli)
    assert b1 == b2


def test_congruence_kernel_z8():
    # kernel of multiplication by 2 on Z/8 is (4)
    gens = linalg.congruence_kernel([[2]], [8], [8])
    basis = linalg.Subgroup(gens, [8])
    assert basis.size() == 2
    assert basis.contains([4])


def test_congruence_kernel_prime():
    gens = linalg.congruence_kernel([[1, 1]], [5], [5, 5])
    basis = linalg.Subgroup(gens, [5, 5])
    assert basis.size() == 5


def test_congruence_solve_mixed():
    # 2x = 2 mod 4 has solution
    x = linalg.congruence_solve([[2]], [2], [4])
    assert x is not None and (2 * x[0]) % 4 == 2
    assert linalg.congruence_solve([[2]], [1], [4]) is None
    # all-zero moduli solve over Q
    assert linalg.congruence_solve([[2]], [1], [0]) == [Fraction(1, 2)]


def test_modp_empty_matrix():
    # the empty matrix is handled by the elimination itself, not by callers
    R, piv = linalg.modp_rref([], 3)
    assert R.shape == (0, 0) and piv == []
    assert linalg.modp_solve([], [], 3) == []
    assert linalg.modp_rank([], 3) == 0
    assert linalg.Subgroup([], [3, 3]).size() == 1


def test_modp_overflow_guard():
    # p*p overflows int64, where elimination would return a wrong (empty) kernel
    p = 4294967311
    with pytest.raises(UnsupportedCoefficients):
        linalg.modp_kernel([[p - 1, p - 1], [1, 1]], p)
    with pytest.raises(UnsupportedCoefficients):
        linalg.Subgroup([[p - 1, p - 1], [1, 1]], [p, p])
    # a prime just below the bound is still exact
    q = 3037000493
    assert linalg.modp_kernel([[q - 1, q - 1], [1, 1]], q) == [[q - 1, 1]]
    S = linalg.Subgroup([[q - 1, q - 1], [1, 1]], [q, q])
    assert S.size() == q and S.contains([2, 2]) and not S.contains([1, 2])


# (moduli, coefficient range for generators and test vectors); Q^2 is
# probed on integer vectors
SMALL_GROUPS = [([2, 2, 2], 2), ([3, 3], 3), ([4, 2], 4), ([6, 3], 6), ([0, 0], 3)]


def _brute_span(gens, moduli):
    """All elements generated by gens, by closing {0} under adding a generator."""
    span = {tuple(0 for _ in moduli)}
    frontier = list(span)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def _rational_contains(gens, v):
    """Membership in a span in Q^2 through 2x2 determinants."""
    det = lambda a, b: a[0] * b[1] - a[1] * b[0]
    nonzero = [g for g in gens if any(g)]
    if any(det(a, b) for a, b in itertools.combinations(nonzero, 2)):
        return True
    if not nonzero:
        return not any(v)
    return det(nonzero[0], v) == 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_subgroup_against_brute_force(data):
    moduli, r = data.draw(st.sampled_from(SMALL_GROUPS))
    vec = st.lists(st.integers(-r + 1, r - 1), min_size=len(moduli), max_size=len(moduli))
    gens = data.draw(st.lists(vec, max_size=3))
    v = data.draw(vec)
    S = linalg.Subgroup(gens, moduli)
    if any(moduli):
        span = _brute_span(gens, moduli)
        assert S.size() == len(span)
        for x in itertools.product(*[range(m) for m in moduli]):
            assert S.contains(x) == (x in span)
        assert S.contains(v) == (tuple(x % m for x, m in zip(v, moduli)) in span)
        assert (S.rank == 0) == (len(span) == 1)
    else:
        assert S.contains(v) == _rational_contains(gens, v)
        assert S.contains([sum(c * g[i] for c, g in zip((1, -2, 3), gens)) for i in range(2)])
        assert (S.rank == 0) == (not any(map(any, gens)))
    assert linalg.Subgroup(data.draw(st.permutations(gens)), moduli) == S
    assert (S.extend([v]) == S) == S.contains(v)


def test_quotient_presentation_z4_by_2():
    qm, proj, lift = linalg.quotient_presentation([[2]], [4])
    assert qm == [2]
    img = linalg.apply_matrix(proj, [1])
    assert img[0] % 2 == 1
    back = linalg.apply_matrix(lift, [1])
    # lift of the generator maps back to an odd element of Z/4
    assert back[0] % 2 == 1


def test_quotient_presentation_prime():
    qm, proj, lift = linalg.quotient_presentation([[1, 1, 0]], [3, 3, 3])
    assert qm == [3, 3]
    # proj(lift(x)) == x
    for unit in ([1, 0], [0, 1]):
        amb = linalg.apply_matrix(lift, unit)
        again = [x % 3 for x in linalg.apply_matrix(proj, amb)]
        assert again == unit
    # relation maps to zero
    assert [x % 3 for x in linalg.apply_matrix(proj, [1, 1, 0])] == [0, 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_quotient_presentation_random(seed):
    rng = random.Random(seed)
    D = rng.randint(1, 4)
    moduli = [rng.choice([2, 3, 4, 8, 9]) for _ in range(D)]
    rels = [[rng.randrange(m) for m in moduli] for _ in range(rng.randint(0, 3))]
    qm, proj, lift = linalg.quotient_presentation(rels, moduli)
    # every relation projects to zero
    for r in rels:
        img = linalg.apply_matrix(proj, r)
        assert all(x % m == 0 for x, m in zip(img, qm))
    # proj . lift = identity on the quotient
    for j in range(len(qm)):
        unit = [int(k == j) for k in range(len(qm))]
        amb = linalg.apply_matrix(lift, unit)
        again = [x % m for x, m in zip(linalg.apply_matrix(proj, amb), qm)]
        assert again == unit
    # sizes multiply out: |ambient| = |subgroup| * |quotient|
    sub = linalg.Subgroup(rels, moduli)
    qsize = 1
    for m in qm:
        qsize *= m
    total = 1
    for m in moduli:
        total *= m
    assert sub.size() * qsize == total
