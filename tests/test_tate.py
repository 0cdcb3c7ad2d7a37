import functools

import pytest
from test_ggh_golden import CASES as GOLDEN_CASES

from trimod import constructions as con
from trimod import modules as md
from trimod import rings as rc
from trimod import tate
from trimod.classify import classify
from trimod.errors import ShapeMismatch, WindowEmpty
from trimod.linalg import modp_rank


WINDOW = (-4, 4)
# the count pins hold in every window, however wide
PIN_WINDOWS = [(-4, 4), (-6, 6), (-40, 40)]


def test_window_validation():
    with pytest.raises(WindowEmpty):
        tate.tate_ring(3, 1, (2, -2))
    # a window without degrees 0..2 is laid out from the period like any other
    assert tate.tate_ring(3, 1, (1, 2)).dims == {1: 1, 2: 1}


def test_tate_ring_shape_p3():
    for n in (1, 2):
        T = tate.tate_ring(3, n, WINDOW)
        assert all(d == 1 for d in T.dims.values())
        v = classify(T.ring, 1)
        assert v.is_delta
        assert v.factors[0][1].kind == "ExteriorAlgebra"


def test_period_that_does_not_close_is_refused(monkeypatch):
    # the period (k, Omega k) is the scope: a shift that does not come back
    # to k is a typed limit, not a fallback to the window
    monkeypatch.setattr(md, "heller_shift", lambda M: md.free_module(M.ring, 0))
    with pytest.raises(ShapeMismatch, match="Omega\\^2 k is not k"):
        tate.tate_ring(3, 1, WINDOW)


def test_pi0_is_ground_field():
    for p, n in [(3, 1), (5, 1), (2, 1)]:
        T = tate.tate_ring(p, n, (0, 2))
        assert T.dims[0] == 1


def test_p2_graded_field():
    T = tate.tate_ring(2, 1, WINDOW)
    assert T.ring.periodicity is not None
    assert T.ring.dim == 1  # graded field, no exterior generator


def test_pi_of_projective_vanishes():
    T = tate.tate_ring(3, 1, (-2, 2))
    F = md.free_module(T.omegas[0].ring, 1)
    for j in range(-2, 3):
        dim, _ = md.stable_hom(T.omegas[j], F)
        assert dim == 0


def test_cofiber_of_zero_splits():
    T = tate.tate_ring(3, 1, (0, 2))
    k = T.omegas[0]
    C, _, _ = tate.cofiber_stmod(md.zero_map(k, k))
    dim, _ = md.stable_hom(k, C)
    assert dim == 2  # k plus its inverse shift each contribute one class


def test_cofiber_of_identity_is_trivial():
    T = tate.tate_ring(3, 1, (0, 2))
    k = T.omegas[0]
    C, _, _ = tate.cofiber_stmod(md.identity_map(k))
    for j in (0, 1, 2):
        dim, _ = md.stable_hom(T.omegas[j], C)
        assert dim == 0


def test_cofiber_of_x_over_f3c3():
    T = tate.tate_ring(3, 1, WINDOW)
    C, _, _ = tate.cofiber_stmod(T.x_rep)
    # middle term I(Omega k) + k has F_3-dimension 4; the cofiber keeps 2
    assert C.size() == 9


def test_ggh_dichotomy():
    v1 = tate.ggh_verdict(3, 1, WINDOW)
    assert v1["condition1"] and v1["condition2"] and v1["verdict"] == "holds"
    assert v1["computed_extrapolation"] is False
    v2 = tate.ggh_verdict(3, 2, WINDOW)
    assert v2["condition1"] and not v2["condition2"] and v2["verdict"] == "fails"


def test_ggh_p2():
    v = tate.ggh_verdict(2, 1, WINDOW)
    assert v["verdict"] == "holds"
    assert v["computed_extrapolation"] is True


def _class_coords(f, reps, p):
    """Coordinates of a stable class in a small representative basis."""
    from itertools import product
    if not reps:
        assert md.stable_class_is_zero(f)
        return []
    for coeffs in product(range(p), repeat=len(reps)):
        images = f.images - sum(c * r.images for c, r in zip(coeffs, reps))
        if md.stable_class_is_zero(md.ModuleMap(f.source, f.target, images)):
            return list(coeffs)
    raise AssertionError("class outside the span of representatives")


def test_long_exact_sequence_slicewise():
    p = 3
    T = tate.tate_ring(p, 1, (-2, 2))
    M, N = T.x_rep.source, T.x_rep.target
    C, n_to_c, c_to_omega = tate.cofiber_stmod(T.x_rep)
    OmegaInv = c_to_omega.target
    for j in range(-2, 3):
        src = T.omegas[j]
        _, rM = md.stable_hom(src, M)
        _, rN = md.stable_hom(src, N)
        _, rC = md.stable_hom(src, C)
        _, rO = md.stable_hom(src, OmegaInv)
        alpha = [_class_coords(T.x_rep.compose(c), rN, p) for c in rM]
        beta = [_class_coords(n_to_c.compose(c), rC, p) for c in rN]
        gamma = [_class_coords(c_to_omega.compose(c), rO, p) for c in rC]

        def rank(cols, rows):
            mat = [[col[r] for col in cols] for r in range(rows)]
            return modp_rank(mat, p)

        ra = rank(alpha, len(rN))
        rb = rank(beta, len(rC))
        rg = rank(gamma, len(rO))
        # exact at N and at C
        assert ra + rb == len(rN)
        assert rb + rg == len(rC)


@pytest.mark.parametrize("p, n, window", [(3, 1, WINDOW), (3, 2, WINDOW), (2, 3, WINDOW), (3, 1, (0, 2))])
def test_heller_ladders_match_omega_power(p, n, window):
    # (0, 2) is the window where hi - 1 < 2: the x shifts still reach 2.
    # Omega^j x: Omega^{j+1} k -> Omega^j k and Omega^j y: Omega^{j+2} k ->
    # Omega^j k land on the omegas, Omega^2 k being k itself
    lo, hi = window
    T = tate.tate_ring(p, n, window)
    for rep, d, top in ((T.x_rep, 1, max(hi - 1, 2)), (T.y_rep, 2, hi - 2)):
        for j in range(lo, top + 1):
            f = md.omega_power_of_map(rep, j)
            assert f.target is T.omegas[j]
            assert f.source is T.omegas[j + d if j + d <= hi else j + d - 2]


def _count_bodies(monkeypatch, names):
    """Replace each cached map shift by one that records the maps whose
    shift is computed, not the cache hits."""
    calls = []
    for name in names:
        body = getattr(md, name).__wrapped__
        monkeypatch.setattr(md, name, rc.per_object(functools.wraps(body)(
            lambda f, body=body: calls.append(f) or body(f))))
    return calls


def test_each_shift_of_a_map_computed_once(monkeypatch):
    calls = _count_bodies(monkeypatch, ("heller_of_map", "omega_inverse_of_map"))
    lo, hi = window = (-6, 6)
    assert tate.ggh_verdict(3, 2, window)["verdict"] == "fails"
    assert 0 < len(calls) <= 2 * (hi - lo)


def test_each_power_of_a_map_is_one_shift_call(monkeypatch):
    # the verdict reads Omega x and Omega^2 x, each the shift of the power
    # before it: two shift calls, cache hits included, in every window
    calls = []
    for name in ("heller_of_map", "omega_inverse_of_map"):
        shift = getattr(md, name)
        monkeypatch.setattr(md, name, lambda f, shift=shift: calls.append(f) or shift(f))
    for window in PIN_WINDOWS:
        calls.clear()
        assert tate.ggh_verdict(3, 2, window)["verdict"] == "fails"
        assert len(calls) == 2


def test_heller_ladders_stay_on_the_omegas(monkeypatch):
    computed, made = [], []
    inner = md.injective_envelope.__wrapped__
    # count the envelopes actually computed, not the cache hits
    monkeypatch.setattr(md, "injective_envelope", rc.per_object(functools.wraps(inner)(
        lambda M: computed.append(M) or inner(M))))
    build = tate.tate_ring
    monkeypatch.setattr(tate, "tate_ring", lambda *a: made.append(build(*a)) or made[-1])
    for p, n in [(2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1)]:
        for lo, hi in [(-4, 4), (-6, 6)]:
            computed.clear()
            made.clear()
            verdict = tate.ggh_verdict(p, n, (lo, hi))["verdict"]
            assert verdict == ("holds" if bccm_holds(p, n) else "fails")
            (T,) = made
            omegas = list(T.omegas.values())
            for rep, top in ((T.x_rep, hi - 1), (T.y_rep, hi - 2)):
                for j in range(lo, top + 1):
                    f = md.omega_power_of_map(rep, j)
                    assert any(f.source is M for M in omegas) and any(f.target is M for M in omegas)
            assert all(md.heller_inverse(T.omegas[j]) is T.omegas[j - 1] for j in range(1, hi + 1))
            # the cofiber of x is built on the rank-1 cover of k
            assert md.injective_envelope(T.x_rep.source) is md._syzygy(T.omegas[0])[1]
            # every envelope is a syzygy inclusion seeded by _syzygy: none from Hom
            assert len(computed) == 0, (p, n, lo, hi)


def test_generation_verdict_folds_onto_the_period(monkeypatch):
    # Omega^2 k = k over F_3[t]/t^9: the ladders close after two syzygies
    syzygies, made = [], []
    inner = md._syzygy.__wrapped__
    monkeypatch.setattr(md, "_syzygy", rc.per_object(functools.wraps(inner)(
        lambda M: syzygies.append(M) or inner(M))))
    shifts = _count_bodies(monkeypatch, ("heller_of_map", "omega_inverse_of_map"))
    build = tate.tate_ring
    monkeypatch.setattr(tate, "tate_ring", lambda *a: made.append(build(*a)) or made[-1])
    for window in PIN_WINDOWS:
        syzygies.clear()
        shifts.clear()
        made.clear()
        assert tate.ggh_verdict(3, 2, window)["verdict"] == "fails"
        (T,) = made
        assert len(syzygies) == 2
        assert len({id(M) for M in T.omegas.values()}) == 2
        assert len(shifts) == 2  # Omega x and Omega^2 x, whatever the window


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1)])
def test_period_matches_the_per_degree_computation(p, n):
    # the reference computes each degree of the window on its own: Omega^j k
    # by j shifts of k, pi_j of k and of the cofiber, and Omega^j x.  The
    # verdict is read off the period, so windows without degrees 0..2 give it too
    for lo, hi in [(-6, 6), (-9, 4), (-3, 7), (3, 5), (1, 2), (0, 0), (-3, -1)]:
        T = tate.tate_ring(p, n, (lo, hi))
        k = T.period[0]
        assert T.dims == {j: md.stable_hom(md.heller_power(k, j), k)[0] for j in range(lo, hi + 1)}
        C, _, _ = tate.cofiber_stmod(T.x_rep)
        report = {}
        for j in range(lo, hi):
            dim, reps = md.stable_hom(md.heller_power(k, j), C)
            shifted_x = md.omega_power_of_map(T.x_rep, j)
            nonzero = sum(not md.stable_class_is_zero(c.compose(shifted_x)) for c in reps)
            report[j] = {"dim": dim, "x_nonzero_on": nonzero}
        verdict = tate.ggh_verdict(p, n, (lo, hi))
        assert verdict["x_action"] == report
        assert (verdict["verdict"] == "holds") == bccm_holds(p, n)


def bccm_holds(p, n):
    """Benson, Chebolu, Christensen and Minac: for a p-group G, generation
    holds in stmod(kG) exactly when G is C_2 or C_3."""
    return p ** n in (2, 3)


REGRESSION_CASES = [(5, 1), (7, 1), (5, 2), (2, 5), (3, 4), (2, 6)]


@pytest.mark.parametrize("p, n", REGRESSION_CASES)
def test_ggh_regression_verdicts(p, n):
    v = tate.ggh_verdict(p, n)
    assert (v["verdict"] == "holds") == bccm_holds(p, n)
    assert v["condition1"] and not v["condition2"]


@pytest.mark.parametrize("p, n", sorted(set(GOLDEN_CASES + REGRESSION_CASES)))
def test_group_algebra_is_generated_by_t(p, n):
    # validation checks associativity for t alone
    assert rc.algebra_generators(con.group_algebra_cyclic(p, n)) == [1]
