"""The module layer over R = F_p[t]/(t^N) against the closed forms of its
cyclic modules R/t^i (`brute_force.cyclic_*`), at orders that enumeration
cannot reach: the Hom groups, Heller shifts, stable Hom groups and stable
zero classes of every pair i, j at N <= 16, and of 50 seeded pairs at N = 27
and N = 32, and the stable Heller shifts and cube checks of seeded sums."""

import random

import pytest

from brute_force import (
    cyclic_hom_size,
    cyclic_power_is_stably_zero,
    cyclic_stable_hom_dim,
    cyclic_sum_syzygy,
    cyclic_syzygy_length,
    map_from_matrix,
)

from trimod import constructions as con
from trimod import linalg
from trimod import modules as md

# (p, N) with N = p^n, the rings of the generation verdict
EVERY_PAIR = [(2, 2), (2, 4), (2, 8), (2, 16), (3, 3), (3, 9), (5, 5), (7, 7), (11, 11), (13, 13)]
SEEDED_PAIRS = [(3, 27), (2, 32)]


def _pairs(n, sample):
    pairs = [(i, j) for i in range(1, n) for j in range(1, n)]
    return random.Random(n).sample(pairs, sample) if sample else pairs


@pytest.mark.parametrize("p, n, sample", [(p, n, 0) for p, n in EVERY_PAIR] + [(p, n, 50) for p, n in SEEDED_PAIRS])
def test_cyclic_modules_match_their_closed_forms(p, n, sample):
    R = con.truncated_polynomial(p, n)
    t = [R.basis_element(a) for a in range(n)]  # t[a] = t^a
    cyclic = {i: md.quotient_module(R, [t[i]]) for i in range(1, n)}
    for i, j in _pairs(n, sample):
        M, N = cyclic[i], cyclic[j]
        where = (p, n, i, j)
        homs = md._hom_vectors(M, N)
        assert linalg.Subgroup(homs, md._hom_moduli(M, N)).size() == cyclic_hom_size(p, i, j), where
        omega = md.heller_shift(M)
        length = cyclic_syzygy_length(n, i)
        assert omega.size() == p ** length and md.iso_test(omega, cyclic[length]), where
        dim, reps = md.stable_hom(M, N)
        assert dim == len(reps) == cyclic_stable_hom_dim(n, i, j), where
        for a in range(max(0, j - i), j):
            f = map_from_matrix(M, N, [[t[a]]])
            assert md.stable_class_is_zero(f) == cyclic_power_is_stably_zero(n, i, a), (*where, a)


def _cyclic_sum(R, lengths):
    """The sum of the R/t^a, a in lengths, with R/t^N free."""
    g, n = len(lengths), R.dim
    power = [R.basis_element(a) if a < n else R.zero() for a in lengths]
    return md.FiniteModule(R, g, [[power[c] if r == c else R.zero() for r in range(g)] for c in range(g)])


@pytest.mark.parametrize("p, n", EVERY_PAIR + SEEDED_PAIRS)
def test_sums_of_cyclic_modules_shift_by_their_closed_form(p, n):
    # Omega M is stably the sum of the R/t^(N - a), and Omega^3 M, stably
    # Omega M since Omega^2 is the identity here, is stably M exactly when
    # those lengths are M's non-free lengths
    R, rng = con.truncated_polynomial(p, n), random.Random(p * n)
    for _ in range(10):
        lengths = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
        M, shifted = _cyclic_sum(R, lengths), cyclic_sum_syzygy(n, lengths)
        assert md.stable_iso_test(md.heller_shift(M), _cyclic_sum(R, shifted)), (p, n, lengths)
        returns = shifted == sorted(a for a in lengths if a < n)
        assert md.heller_cube_check([M]) == returns, (p, n, lengths)
