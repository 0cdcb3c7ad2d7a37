"""Prime independence: the field lane answers at every prime.

The verdicts on rings built from graded fields and exterior algebras over
F_p do not depend on p, so each one at primes whose square passes int64,
up to one past 2**63 and one past 2**64, must read as at p = 3 and 5.  The
linear algebra under them is checked against the pure-Python references of
`brute_force` at two such primes."""

import random

import numpy as np
import pytest
from brute_force import dense_congruence_kernel, dense_congruence_solve, dense_remainder, dense_rref

from trimod import constructions as con
from trimod import linalg
from trimod import modules as md
from trimod.classify import classify
from trimod.rings import is_quasi_frobenius

SMALL_PRIMES = (3, 5)
LARGE_PRIMES = (3037000507, 2 ** 61 - 1, 10 ** 18 + 3, 10 ** 20 + 39)

RINGS = {
    "F_p": lambda p: con.z_mod(p),
    "F_p[t]/(t^2)": lambda p: con.truncated_polynomial(p, 2),
    "F_p[t]/(t^3)": lambda p: con.truncated_polynomial(p, 3),
    "F_p[x]/(x^2), |x| = 1": lambda p: con.exterior_on_field(con.finite_field(p), 1),
    "F_p x F_p[t]/(t^2)": lambda p: con.product_ring(con.z_mod(p), con.truncated_polynomial(p, 2)),
    "F_p x F_p": lambda p: con.product_ring(con.z_mod(p), con.z_mod(p)),
    "F_p[y, 1/y][x]/(x^2), |x| = 1, |y| = 4": lambda p: con.laurent_exterior(p, 1, 4),
    "F_p[y, 1/y], |y| = 2": lambda p: con.laurent_field(p, 2),
}


def _verdicts(R):
    """The factor dicts and confidence of `classify` at n = 0, 1, 2, and
    whether R is quasi-Frobenius."""
    return [(v.to_dict()["factors"], v.confidence) for v in (classify(R, n) for n in (0, 1, 2))] \
        + [is_quasi_frobenius(R)]


@pytest.mark.parametrize("build", RINGS.values(), ids=RINGS)
def test_verdicts_do_not_depend_on_the_prime(build):
    want = _verdicts(build(SMALL_PRIMES[0]))
    for p in SMALL_PRIMES[1:] + LARGE_PRIMES:
        assert _verdicts(build(p)) == want, p


@pytest.mark.parametrize("p", SMALL_PRIMES + LARGE_PRIMES)
def test_heller_shifts_of_the_residue_field_do_not_depend_on_the_prime(p):
    # k over F_p[t]/(t^4): Omega^j k is R/(t^3) at odd j and k at even j
    k = md.residue_module(con.truncated_polynomial(p, 4))
    sizes = [md.heller_power(k, j).size() for j in (-2, -1, 1, 2, 3)]
    assert sizes == [p ** e for e in (1, 3, 3, 1, 3)]
    assert md.stable_hom(k, k)[0] == 1


def _reference_solve(A, b, p):
    """One solution of A x = b over F_p from `dense_rref` of (A | b): the
    free coordinates 0, or None."""
    nc = len(A[0])
    R, pivots = dense_rref([row + [y] for row, y in zip(A, b)], p)
    if nc in pivots:
        return None
    x = [0] * nc
    for r, c in enumerate(pivots):
        x[c] = R[r][nc]
    return x


@pytest.mark.parametrize("p", [4294967311, 9223372036854775837])
def test_field_lane_matches_the_references_past_int64(p):
    rng = random.Random(p)
    for _ in range(12):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        # rows of small rank often, so kernels and unsolvable systems occur
        base = [[rng.randrange(p) for _ in range(nc)] for _ in range(rng.randint(1, nr))]
        A = [[sum(rng.choice((0, 1, p - 1)) * row[j] for row in base) % p for j in range(nc)] for _ in range(nr)]
        b = rng.choice([[rng.randrange(p) for _ in range(nr)], [sum(A[i]) % p for i in range(nr)]])
        R, pivots = linalg.modp_rref(A, p)
        assert R.dtype == (np.int64 if p < 2 ** 63 else object)
        assert (R.tolist(), pivots) == dense_rref(A, p)
        assert linalg.modp_solve(A, b, p) == linalg.congruence_solve(A, b, [p] * nr) == _reference_solve(A, b, p)
        assert (linalg.congruence_solve(A, b, [p] * nr) is None) == (dense_congruence_solve(A, b, [p] * nr) is None)
        K, order = linalg.congruence_kernel_order(A, [p] * nr, [p] * nc)
        assert order == p ** (nc - len(pivots)) == p ** len(K)
        dense = dense_congruence_kernel(A, [p] * nr, [p] * nc)
        assert all(not any(dense_remainder(K, v, [p] * nc)) for v in dense)
        assert all(not any(dense_remainder(dense, v, [p] * nc)) for v in K)
        S = linalg.Subgroup(A, [p] * nc)
        assert S.cols() == R[:len(pivots)].tolist() and S.size() == p ** len(pivots)
        v = [rng.randrange(p) for _ in range(nc)]
        assert S.remainder(v) == dense_remainder(A, v, [p] * nc)
        assert all(map(S.contains, A))
