import copy
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brute_force import batch_hnf_columns, dense_congruence_kernel, dense_congruence_solve, dense_remainder, dense_rref
from trimod import linalg
from trimod.errors import ShapeMismatch, UnsupportedCoefficients


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


def test_solves_on_numpy_array_rows():
    # the matrix of a map is an int64 array: its rows are arrays and their
    # entries numpy scalars, and pivots such as 3 need an inverse mod p
    A = np.array([[3, 2, 0], [0, 0, -2], [3, 2, -2]], dtype=np.int64)
    b = [1, 4, 5]
    for m in (2, 3, 5, 7, 6):
        x = linalg.congruence_solve(A, b, [m] * 3)
        assert all(type(v) is int for v in x)
        assert ((A @ x - b) % m == 0).all()
        assert linalg.congruence_solve(A, [1, 0, 0], [m] * 3) is None
        if linalg.is_prime(m):
            assert linalg.modp_solve(A, b, m) == x
            assert linalg.modp_solve(A, [1, 0, 0], m) is None


def _diagonal_column_lattice(diag, nr):
    return linalg.hnf_columns([[(j, d)] for j, d in enumerate(diag)], [0] * nr)


def _column_lattice(UA, nc):
    return linalg.hnf_columns([enumerate([row[j] for row in UA]) for j in range(nc)], [0] * len(UA))


def test_smith_diagonalizes():
    # U A V = diag for a unimodular V: U A and diag span the same columns
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    diag, U, _ = linalg.smith_normal_form(A)
    n = len(A)
    UA = [[sum(U[i][k] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert _column_lattice(UA, n) == _diagonal_column_lattice(diag, n)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_smith_uinv_random(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)
    A = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
    diag, U, Ui = linalg.smith_normal_form(A)
    # U * Ui == I
    for i in range(nr):
        for j in range(nr):
            s = sum(U[i][k] * Ui[k][j] for k in range(nr))
            assert s == (1 if i == j else 0)
    UA = [[sum(U[i][k] * A[k][j] for k in range(nr)) for j in range(nc)] for i in range(nr)]
    assert _column_lattice(UA, nc) == _diagonal_column_lattice(diag, nr)


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


def test_subgroup_size_with_a_zero_modulus():
    # a span nonzero at a coordinate of modulus 0 is infinite; otherwise it
    # is counted in the coordinates of nonzero modulus
    with pytest.raises(UnsupportedCoefficients):
        linalg.Subgroup([[1, 0]], [0, 4]).size()
    assert linalg.Subgroup([[0, 1]], [0, 4]).size() == 4
    assert linalg.Subgroup([[0, 2]], [0, 4]).size() == 2
    assert linalg.Subgroup([], [0, 4]).size() == 1


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


@st.composite
def _congruence_systems(draw):
    """A homomorphism A: +Z/col_moduli -> +Z/row_moduli, at most 3 x 3:
    A[i][j] * col_moduli[j] vanishes modulo row_moduli[i]."""
    moduli = st.sampled_from([2, 3, 4, 6, 8, 9])
    nr, nc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rm = draw(st.lists(moduli, min_size=nr, max_size=nr))
    cm = draw(st.lists(moduli, min_size=nc, max_size=nc))
    A = [[r // math.gcd(r, c) * draw(st.integers(0, 8)) for c in cm] for r in rm]
    return A, rm, cm


def _apply(A, x, rm):
    return tuple(sum(a * v for a, v in zip(row, x)) % r for row, r in zip(A, rm))


@settings(max_examples=200, deadline=None)
@given(_congruence_systems(), st.data())
def test_congruence_kernel_and_solve_against_enumeration(system, data):
    A, rm, cm = system
    domain = list(itertools.product(*(range(c) for c in cm)))
    kernel = {x for x in domain if not any(_apply(A, x, rm))}
    image = {_apply(A, x, rm) for x in domain}
    # the kernel generators span exactly the enumerated kernel
    gens = linalg.congruence_kernel(A, rm, cm)
    span = {tuple([0] * len(cm))}
    for g in gens:
        assert tuple(g) in kernel
        span |= {tuple((a + k * b) % c for a, b, c in zip(s, g, cm)) for s in span for k in range(math.lcm(*cm))}
    assert span == kernel
    # a right-hand side is solved exactly when it is in the image
    for b in (data.draw(st.sampled_from(sorted(image))),
              tuple(data.draw(st.integers(0, r - 1)) for r in rm)):
        x = linalg.congruence_solve(A, list(b), rm)
        assert (x is not None) == (b in image)
        if x is not None:
            assert _apply(A, x, rm) == b


def test_modp_empty_matrix():
    # the empty matrix is handled by the elimination itself, not by callers
    R, piv = linalg.modp_rref([], 3)
    assert R.shape == (0, 0) and piv == []
    assert linalg.modp_solve([], [], 3) == []
    assert linalg.modp_rank([], 3) == 0
    assert linalg.Subgroup([], [3, 3]).size() == 1


def test_modp_rank_of_empty_shapes_eliminates_nothing(monkeypatch):
    monkeypatch.setattr(linalg, "modp_rref", None)
    for A in ([], [[]], [[], []], np.zeros((0, 3), dtype=np.int64), np.zeros((2, 0), dtype=np.int64)):
        assert linalg.modp_rank(A, 3) == 0


def test_modp_kernel_zero_rows_keeps_width():
    # with no equations every vector is in the kernel
    assert linalg.modp_kernel(np.zeros((0, 3), dtype=np.int64), 5) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.modp_kernel([], 5) == []


@pytest.mark.parametrize("p", [2, 3, 7, 0])
def test_kernel_rows_match_modp_kernel(p):
    # sparse rows read off the held basis: the rows of modp_kernel without
    # their zeros, keyed by their non-pivot column, each a solution of A x = 0
    rng = random.Random(p)

    def entry():
        if rng.random() < 0.5:
            return 0
        return rng.randrange(1, p) if p else Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    shapes = [(0, 4), (3, 0), (0, 0)] + [(rng.randint(1, 6), rng.randint(1, 8)) for _ in range(60)]
    for nr, nc in shapes:
        A = [[entry() for _ in range(nc)] for _ in range(nr)] if nr else np.zeros((0, nc), dtype=np.int64)
        held = linalg._echelon_basis(A, p, nc)
        rows = linalg._kernel_rows(held, nc, p)
        assert list(rows) == [f for f in range(nc) if f not in held]
        assert all(row[f] == 1 and all(row.values()) for f, row in rows.items())
        assert [[row.get(j, 0) for j in range(nc)] for row in rows.values()] == linalg.modp_kernel(A, p)
        for row, a in itertools.product(rows.values(), A):
            value = sum(a[j] * x for j, x in row.items())
            assert (value % p if p else value) == 0


@pytest.mark.parametrize("rows,inner,cols", [(0, 2, 3), (2, 0, 3), (3, 2, 0), (0, 0, 0), (3, 4, 2)])
def test_modp_matmul_shapes(rows, inner, cols):
    rng = random.Random(rows * 100 + inner * 10 + cols)
    A = [[rng.randrange(-7, 7) for _ in range(inner)] for _ in range(rows)]
    B = [[rng.randrange(-7, 7) for _ in range(cols)] for _ in range(inner)]
    want = [[sum(A[r][k] * B[k][c] for k in range(inner)) % 5 for c in range(cols)] for r in range(rows)]
    got = linalg.modp_matmul(np.array(A, dtype=np.int64).reshape(rows, inner),
                             np.array(B, dtype=np.int64).reshape(inner, cols), 5)
    # with no inner dimension the product is the zero array of shape (rows, cols)
    assert got.dtype == np.int64 and got.shape == (rows, cols) and got.tolist() == want


def test_is_prime_is_deterministic_miller_rabin():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert all(linalg.is_prime(n) == trial(n) for n in range(-3, 20000))
    # strong pseudoprimes to the first 2, 3, ..., 12 prime bases, and Carmichael numbers
    pseudo = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461, 561, 41041]
    assert not any(linalg.is_prime(n) for n in pseudo)
    assert linalg.is_prime(10 ** 18 + 3) and linalg.is_prime(2 ** 61 - 1)
    assert not linalg.is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
    # the smallest strong pseudoprime to every base up to 41, and a prime past
    # it: where the bases are not proven, a number passing them all is refused
    for n in (3317044064679887385961981, 2 ** 89 - 1):
        with pytest.raises(UnsupportedCoefficients):
            linalg.is_prime(n)
    assert not linalg.is_prime(2 ** 89 + 1)


def test_modp_overflow_guard():
    # past p * p >= 2**63 the field lane is exact: it eliminates in Python
    # integers, so kernels, spans and sizes are those of a pure-Python reading
    q = 3037000493
    for p in (q, 4294967311, 9223372036854775837):
        A = [[p - 1, p - 1], [1, 1]]
        assert linalg.modp_kernel(A, p) == [[p - 1, 1]]
        assert python_product(A, [[p - 1], [1]], p) == [[0], [0]]
        S = linalg.Subgroup(A, [p, p])
        assert S.cols() == dense_rref(A, p)[0][:1] == [[1, 1]]
        assert S.size() == p and S.contains([2, 2]) and not S.contains([1, 2])
        assert S.remainder([1, p + 2]) == dense_remainder(A, [1, p + 2], [p, p]) == [0, 1]
        E = linalg.Subgroup([], [p, p])
        assert not E.contains([1, 0]) and E.contains([p, 0]) and E.remainder([1, p + 2]) == [1, 2]
        assert E.size() == 1 and E == linalg.Subgroup([], [p, p]) == E.extend([])
        assert E.extend([[1, 0]]).size() == p and E.extend([[1, 0]]).extend(A).size() == p * p
        assert linalg.modp_rank([[2, 3], [p - 4, p - 6]], p) == 1
    assert linalg.modp_matmul(np.array([[q - 1]]), np.array([[q - 1]]), q).tolist() == [[1]]
    # past its int64 bound the product is exact, in Python integers
    p = 4294967311
    for A, B, r in (([[q - 1, q - 1]], [[q - 1], [q - 1]], q), ([[1, p - 1, 2]], [[p - 1], [p - 2], [3]], p)):
        got = linalg.modp_matmul(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64), r)
        assert got.dtype == np.int64 and got.tolist() == python_product(A, B, r)


def python_product(A, B, p):
    """A B mod p for lists of rows, in Python integers."""
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


@st.composite
def sparse_row_inputs(draw):
    """(A, p, cells): a matrix of 0 to 400 cells, about a third of them
    nonzero, as an int64 array over F_p, an object array of Fractions over
    Q, or a list of rows of numpy ints over Q, and its cells as Python
    numbers."""
    kind = draw(st.sampled_from(["int64", "fractions", "numpy ints"]))
    p = draw(st.sampled_from([2, 3, 7, 3037000493])) if kind == "int64" else 0
    nr, nc = draw(st.integers(0, 20)), draw(st.integers(0, 20))
    big = 3 * p if p else 10 ** 12
    value = st.fractions(-5, 5, max_denominator=4) if kind == "fractions" else st.integers(-big, big)
    cells = draw(st.lists(st.lists(st.one_of(st.just(0), st.just(0), value), min_size=nc, max_size=nc),
                          min_size=nr, max_size=nr))
    A = np.empty((nr, nc), dtype=np.int64 if p else object)
    for r, c in itertools.product(range(nr), range(nc)):
        A[r, c] = cells[r][c]
    if kind == "numpy ints":
        A = [[np.int64(x) for x in row] for row in cells]
    return A, p, cells


@settings(max_examples=100, deadline=None)
@given(sparse_row_inputs())
def test_sparse_rows_match_a_pure_python_reading(case):
    # every array is read through one tolist(), on either side of 32 cells;
    # entries come back as Python ints in [0, p), or exact Fractions over Q
    A, p, cells = case
    want = [{c: x % p if p else Fraction(x) for c, x in enumerate(row) if (x % p if p else x)} for row in cells]
    got = linalg._sparse_rows(A, p)
    assert got == want
    assert all(type(x) is (int if p else Fraction) for row in got for x in row.values())
    # a prime whose square passes int64 reads integer cells exactly too
    P = 4294967311
    if all(Fraction(x).denominator == 1 for row in cells for x in row):
        assert linalg._sparse_rows(A, P) == [{c: x % P for c, x in enumerate(row) if x % P} for row in cells]


@st.composite
def rational_systems(draw):
    """(A, b): a small matrix of fractions, often of deficient rank, and a
    right-hand side that is either A y for a drawn y or arbitrary."""
    frac = st.fractions(-4, 4, max_denominator=3)
    nr, nc, rank = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 4))
    # rows are combinations of `rank` base rows
    base = draw(st.lists(st.lists(frac, min_size=nc, max_size=nc), min_size=rank, max_size=rank))
    A = [[sum((c * row[j] for c, row in zip(coeffs, base)), Fraction(0)) for j in range(nc)]
         for coeffs in draw(st.lists(st.lists(frac, min_size=rank, max_size=rank),
                                     min_size=nr, max_size=nr))]
    if draw(st.booleans()):
        y = draw(st.lists(frac, min_size=nc, max_size=nc))
        b = [sum((a * x for a, x in zip(row, y)), Fraction(0)) for row in A]
    else:
        b = draw(st.lists(frac, min_size=nr, max_size=nr))
    return A, b


def _times(A, x):
    return [sum((a * v for a, v in zip(row, x)), Fraction(0)) for row in A]


@settings(max_examples=80, deadline=None)
@given(rational_systems())
def test_rational_kernel_and_solve(system):
    # over Q (p = 0) the field lane is exact: no entry is reduced
    A, b = system
    nc = len(A[0]) if A else 0
    rank = linalg.modp_rank(A, 0)
    K = linalg.modp_kernel(A, 0)
    assert all(not any(_times(A, v)) for v in K)
    if A:
        assert len(K) == nc - rank
        assert linalg.modp_rank(K, 0) == len(K)
    x = linalg.modp_solve(A, b, 0)
    inconsistent = nc in linalg.modp_rref([row + [c] for row, c in zip(A, b)], 0)[1]
    assert (x is None) == inconsistent
    if x is not None:
        assert _times(A, x) == b


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
    # the span of the same vectors in another order, one at a time and by a
    # chain of extensions compares equal, hashes equal and has equal cols
    perm = data.draw(st.permutations(gens))
    chained = linalg.Subgroup([], moduli)
    for g in perm:
        chained = chained.extend([g])
    for U in (linalg.Subgroup(perm, moduli), chained, linalg.Subgroup(perm[:1], moduli).extend(perm[1:])):
        assert U == S and hash(U) == hash(S) and U.cols() == S.cols()
    assert (S.extend([v]) == S) == S.contains(v)
    more = data.draw(st.lists(vec, max_size=3))
    T = S.extend(more)
    if any(moduli):
        span = _brute_span(gens + more, moduli)
        assert T.size() == len(span)
        assert all(T.contains(x) == (x in span) for x in itertools.product(*[range(m) for m in moduli]))
    else:
        assert T.contains(v) == _rational_contains(gens + more, v)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_grow_in_place_matches_extend(data):
    # the spin's in-place insertion: it grows exactly when the vector lies
    # outside, to the span that extend builds
    moduli, r = data.draw(st.sampled_from(SMALL_GROUPS + [([4, 2, 8], 8), ([12, 18, 3], 12), ([0, 0, 0], 2)]))
    vec = st.lists(st.integers(-r + 1, r - 1), min_size=len(moduli), max_size=len(moduli))
    S = linalg.Subgroup(data.draw(st.lists(vec, max_size=2)), moduli)
    for v in data.draw(st.lists(vec, max_size=5)):
        outside, T = not S.contains(v), S.extend([v])
        assert S._grow(v) == outside
        assert S == T and S.cols() == T.cols()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_whole_span_contains_every_unit_vector(data):
    # the spin stops on is_whole, which reads the canonical form: the whole
    # group is the span that holds each unit vector
    moduli, r = data.draw(st.sampled_from(SMALL_GROUPS + [([4, 2, 8], 8), ([12, 18, 3], 12), ([0, 0, 0], 2)]))
    vec = st.lists(st.integers(-r + 1, r - 1), min_size=len(moduli), max_size=len(moduli))
    S = linalg.Subgroup(data.draw(st.lists(vec, max_size=5)), moduli)
    units = [[int(a == b) for a in range(len(moduli))] for b in range(len(moduli))]
    assert S.is_whole() == all(S.contains(e) for e in units)
    assert linalg.Subgroup(units, moduli).is_whole()


# moduli of the F_p, Q and integer lanes, the last with moduli 0 among others
INSERTION_MODULI = [[2] * 4, [5] * 3, [0] * 3, [4, 2, 8], [6, 0, 9], [0, 4], [12, 18, 3]]


def _written_out(held, moduli):
    """A Hermite basis of `hnf_columns` in the form of `batch_hnf_columns`:
    dense columns, with m_i e_i at each row i of nonzero modulus that holds
    no column.  Held columns are explicit: nonzero entries, pivots below
    their moduli."""
    D = len(moduli)
    assert list(held) == sorted(held)
    assert all(0 not in col.values() and 0 < col[r] and not 0 < moduli[r] <= col[r] for r, col in held.items())
    cols = {i: tuple(m * (i == j) for j in range(D)) for i, m in enumerate(moduli) if m}
    cols.update((r, tuple(col.get(j, 0) for j in range(D))) for r, col in held.items())
    return tuple(sorted(cols.items()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_insertion_matches_batch_elimination(data):
    moduli = data.draw(st.sampled_from(INSERTION_MODULI))
    D, p = len(moduli), linalg._lane(moduli)
    vec = st.lists(st.integers(-20, 20), min_size=D, max_size=D)
    a, b, c = (data.draw(st.lists(vec, max_size=4)) for _ in range(3))
    # Hermite insertion into a returned form is the batch form of all
    # columns and the moduli columns, which it holds implicitly
    held = linalg.hnf_columns(map(enumerate, b), moduli, linalg.hnf_columns(map(enumerate, a), moduli))
    assert _written_out(held, moduli) == batch_hnf_columns(a + b + linalg._moduli_cols(moduli), D)
    S = linalg.Subgroup(a + b + c, moduli)
    if p is None:
        assert _written_out(S._held, moduli) == batch_hnf_columns(a + b + c + linalg._moduli_cols(moduli), D)
    else:
        R, pivots = linalg.modp_rref(a + b + c, p)
        assert (S.cols(), sorted(S._held)) == (R[:len(pivots)].tolist(), pivots)
    # one extension, chained extensions and one vector at a time
    assert linalg.Subgroup(a, moduli).extend(b + c) == S
    assert linalg.Subgroup(a, moduli).extend(b).extend(c) == S
    T = linalg.Subgroup([], moduli)
    for v in a + b + c:
        T = T.extend([v])
    assert T == S and hash(T) == hash(S)


# moduli of the integer lane only: some mixed, one with a modulus 0, one cyclic
CONGRUENCE_MODULI = [[4, 2, 8], [6, 0, 9], [12, 18, 3], [16]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_congruence_systems_match_the_dense_hermite_reference(data):
    # the generator lists module presentations are built from, byte for byte
    rm, cm = (data.draw(st.sampled_from(CONGRUENCE_MODULI)) for _ in range(2))
    entry = st.integers(-40, 40)
    vec = st.lists(entry, min_size=len(cm), max_size=len(cm))
    A = data.draw(st.lists(vec, min_size=len(rm), max_size=len(rm)))
    x = data.draw(vec)
    # a right-hand side in the image half of the time, so both answers occur
    b = data.draw(st.one_of(st.just([sum(a * y for a, y in zip(row, x)) for row in A]),
                            st.lists(entry, min_size=len(rm), max_size=len(rm))))
    assert repr(linalg.congruence_kernel(A, rm, cm)) == repr(dense_congruence_kernel(A, rm, cm))
    assert repr(linalg.congruence_solve(A, b, rm)) == repr(dense_congruence_solve(A, b, rm))
    gens = data.draw(st.lists(vec, max_size=5))
    for v in (x, *gens[:1]):
        assert repr(linalg.Subgroup(gens, cm).remainder(v)) == repr(dense_remainder(gens, v, cm))


ORDER_MODULI = CONGRUENCE_MODULI + [[3, 3, 3], [3, 3], [0, 0]]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_congruence_kernel_order_is_the_size_of_its_span(data):
    # read off the kernel's own elimination, on both lanes: p**k over F_p,
    # and the index of the Hermite columns of the graph over Z/m
    rm, cm = (data.draw(st.sampled_from(ORDER_MODULI)) for _ in range(2))
    vec = st.lists(st.integers(-40, 40), min_size=len(cm), max_size=len(cm))
    A = data.draw(st.lists(vec, min_size=len(rm), max_size=len(rm)))
    K, order = linalg.congruence_kernel_order(A, rm, cm)
    assert K == linalg.congruence_kernel(A, rm, cm)
    assert order == (None if 0 in cm else linalg.Subgroup(K, cm).size())


def test_extend_inserts_into_the_held_basis(monkeypatch):
    # a field-lane extension eliminates no matrix; an integer-lane one makes
    # one Hermite insertion, into the basis the span holds
    calls = []
    rref, hnf = linalg.modp_rref, linalg.hnf_columns
    monkeypatch.setattr(linalg, "modp_rref", lambda *a, **kw: calls.append(("rref", a, kw)) or rref(*a, **kw))
    monkeypatch.setattr(linalg, "hnf_columns", lambda *a, **kw: calls.append(("hnf", a, kw)) or hnf(*a, **kw))
    for p in (3, 0):
        S = linalg.Subgroup([[1, 2, 0]], [p] * 3)
        calls.clear()
        T = S.extend([[0, 1, 1], [1, 3, 1]])
        assert calls == [] and T.rank == 2
    S = linalg.Subgroup([[2, 0, 1]], [4, 4, 2])
    calls.clear()
    T = S.extend([[0, 2, 0]])
    assert len(calls) == 1
    name, args, kw = calls[0]
    start = kw["held"] if "held" in kw else args[2] if len(args) > 2 else None
    assert name == "hnf" and start is S._held
    assert T == linalg.Subgroup([[2, 0, 1], [0, 2, 0]], [4, 4, 2])


def test_rational_span_of_int64_rows_is_exact():
    # int64 entries over Q become exact numbers: 2**32 * 2**32 would wrap to 0
    A = np.array([[1, 2 ** 32], [2 ** 32, 0]], dtype=np.int64)
    S = linalg.Subgroup(A, [0, 0])
    assert S.rank == 2 and all(type(x) is Fraction for row in S.cols() for x in row)
    assert S.extend(A) == S == linalg.Subgroup([[1, 0], [0, 1]], [0, 0])


def test_rational_lane_of_int64_list_rows_is_exact():
    # list rows of int64 scalars over Q: 2**32 * 2**32 would wrap to 0
    A = list(np.array([[1, 2 ** 32], [2 ** 32, 0]], dtype=np.int64))
    assert linalg.modp_rank(A, 0) == 2 == linalg.modp_rank(np.array(A), 0)
    R, pivots = linalg.modp_rref(A, 0)
    assert R.tolist() == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert linalg.modp_kernel(A, 0) == [] == linalg.congruence_kernel(A, [0, 0], [0, 0])
    x = linalg.modp_solve(A, [1, 0], 0)
    assert x == [0, Fraction(1, 2 ** 32)] == linalg.congruence_solve(A, [1, 0], [0, 0])


def test_congruence_systems_refuse_mismatched_shapes():
    # A, b and the moduli agree in shape on every lane
    A = [[1, 0], [0, 1]]
    for m in (3, 0, 4, 6):
        for b, rm in (([1, 0, 5], [m, m]), ([1], [m, m]), ([1, 0], [m, m, m]), ([1, 0], [m])):
            with pytest.raises(ShapeMismatch):
                linalg.congruence_solve(A, b, rm)
        with pytest.raises(ShapeMismatch):
            linalg.congruence_solve([[1, 0], [0]], [1, 0], [m, m])
        for rm, cm in (([m, m], [m, m, m]), ([m, m], [m]), ([m], [m, m]), ([m, m, m], [m, m])):
            with pytest.raises(ShapeMismatch):
                linalg.congruence_kernel(A, rm, cm)
        with pytest.raises(ShapeMismatch):
            linalg.congruence_kernel([[1, 0], [0, 1, 1]], [m, m], [m, m])
        assert linalg.congruence_solve(A, [1, 0], [m, m]) == [1, 0]
        assert linalg.congruence_kernel(A, [m, m], [m, m]) == []


def _extend_leaves_parent_alone(gens, vs, moduli):
    """S.extend(vs), after checking that S answers as before it."""
    S = linalg.Subgroup(gens, moduli)
    probes = [list(v) for v in itertools.product([0, 1], repeat=len(moduli))] + vs
    before = (S.cols(), copy.deepcopy(S._held), hash(S), [S.remainder(v) for v in probes])
    T = S.extend(vs)
    assert T == linalg.Subgroup(gens + vs, moduli)
    assert (S.cols(), S._held, hash(S), [S.remainder(v) for v in probes]) == before
    return S, T


PARENT_MODULI = [[3] * 4, [0] * 4, [4, 2, 4, 8], [5] * 4]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PARENT_MODULI), st.data())
def test_extension_leaves_its_parent_alone(moduli, data):
    vec = st.lists(st.integers(-9, 9), min_size=4, max_size=4)
    _extend_leaves_parent_alone(data.draw(st.lists(vec, max_size=4)), data.draw(st.lists(vec, max_size=4)), moduli)


def test_extension_that_clears_held_columns_leaves_its_parent_alone():
    # the new vectors take pivots where the held rows (columns, on the
    # integer lane) are nonzero, so the extension replaces those; it shares
    # the ones at the pivots in shared, on every lane
    for gens, vs, shared in (([[1, 2, 0, 1], [0, 0, 1, 2]], [[0, 1, 0, 0], [0, 0, 0, 1]], set()),
                             ([[1, 1, 1, 1], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0], [2, 0, 1, 3]], {1})):
        for moduli in PARENT_MODULI:
            S, T = _extend_leaves_parent_alone(gens, vs, moduli)
            assert {c for c, row in S._held.items() if T._held[c] is row} == shared


def test_modp_solve_refuses_mismatched_shapes():
    # a long b was cut to the rows of A, and a short one raised IndexError
    for p in (3, 0):
        for b in ([1, 0, 5], [1]):
            with pytest.raises(ShapeMismatch):
                linalg.modp_solve([[1, 0], [0, 1]], b, p)
        with pytest.raises(ShapeMismatch):
            linalg.modp_solve([[1, 0], [0]], [1, 0], p)
        assert linalg.modp_solve([[1, 0], [0, 1]], [1, 0], p) == [1, 0]


def test_subgroup_refuses_vectors_of_the_wrong_length():
    # every vector has one coordinate per modulus, on every lane
    for moduli in ([3, 3], [4, 4], [0, 0]):
        with pytest.raises(ShapeMismatch):
            linalg.Subgroup([[1]], moduli)
        S = linalg.Subgroup([[1, 0]], moduli)
        with pytest.raises(ShapeMismatch):
            S.contains([1])
        with pytest.raises(ShapeMismatch):
            S.remainder([1, 0, 0])
        with pytest.raises(ShapeMismatch):
            S.extend([[0, 1], [1]])


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


def test_congruence_solve_zero_rows_keeps_width():
    for moduli in ([4], [5]):
        assert linalg.congruence_solve(np.zeros((0, 3), dtype=np.int64), [], moduli) == [0, 0, 0]
