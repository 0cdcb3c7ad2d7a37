import functools

import pytest

from trimod import constructions as con
from trimod import modules as md
from trimod import rings as rc
from trimod import tate
from trimod.classify import classify
from trimod.errors import ShapeMismatch, WindowEmpty
from trimod.linalg import modp_rank


WINDOW = (-4, 4)


def test_window_validation():
    with pytest.raises(WindowEmpty):
        tate.tate_ring(3, 1, (2, -2))
    with pytest.raises(WindowEmpty):
        tate.tate_ring(3, 1, (1, 2))


def test_tate_ring_shape_p3():
    for n in (1, 2):
        T = tate.tate_ring(3, n, WINDOW)
        assert all(d == 1 for d in T.dims.values())
        v = classify(T.ring, 1)
        assert v.is_delta
        assert v.factors[0][1].kind == "ExteriorAlgebra"


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
        acc = f
        for c, r in zip(coeffs, reps):
            acc = tate._map_minus(acc, tate._map_scale(r, c))
        if md.stable_class_is_zero(acc):
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
    # (0, 2) is the window where hi - 1 < 2: the x ladder still reaches 2
    lo, hi = window
    T = tate.tate_ring(p, n, window)
    for ladder, rep, top in ((T.x_shifts, T.x_rep, max(hi - 1, 2)), (T.y_shifts, T.y_rep, hi - 2)):
        for j in range(lo, top + 1):
            got, want = tate.shifted(ladder, j), md.omega_power_of_map(rep, j)
            assert got.source is want.source and got.target is want.target
            assert md._hom_coordinates(got) == md._hom_coordinates(want)
        assert sorted(ladder) == list(range(lo, top + 1))


def test_each_shift_of_a_map_computed_once(monkeypatch):
    calls = []
    for name in ("heller_of_map", "omega_inverse_of_map"):
        fn = getattr(md, name)
        monkeypatch.setattr(md, name, lambda f, *a, fn=fn, name=name: calls.append(name) or fn(f, *a))
    lo, hi = window = (-6, 6)
    assert tate.ggh_verdict(3, 2, window)["verdict"] == "fails"
    assert 0 < len(calls) <= 2 * (hi - lo)


def test_heller_ladders_stay_on_the_omegas(monkeypatch):
    computed, made = [], []
    inner = md.injective_envelope.__wrapped__
    # count the envelopes actually computed, not the cache hits
    monkeypatch.setattr(md, "injective_envelope", rc.per_object(functools.wraps(inner)(
        lambda M: computed.append(M) or inner(M))))
    build = tate.tate_ring
    monkeypatch.setattr(tate, "tate_ring", lambda *a: made.append(build(*a)) or made[-1])
    lo, hi = window = (-6, 6)
    assert tate.ggh_verdict(3, 2, window)["verdict"] == "fails"
    (T,) = made
    omegas = list(T.omegas.values())
    for ladder in (T.x_shifts, T.y_shifts):
        assert min(ladder) == lo
        for f in ladder.values():
            assert any(f.source is M for M in omegas) and any(f.target is M for M in omegas)
    assert all(md.heller_inverse(T.omegas[j]) is T.omegas[j - 1] for j in range(1, hi + 1))
    # the cofiber of x is built on the rank-1 cover of k
    assert md.injective_envelope(T.x_rep.source) is md._syzygy(T.omegas[0])[1]
    assert len(computed) <= hi - lo + 1


def test_generation_verdict_folds_onto_the_period(monkeypatch):
    # Omega^2 k = k over F_3[t]/t^9: the ladders close after two syzygies
    syzygies, shifts, made = [], [], []
    inner = md._syzygy.__wrapped__
    monkeypatch.setattr(md, "_syzygy", rc.per_object(functools.wraps(inner)(
        lambda M: syzygies.append(M) or inner(M))))
    for name in ("heller_of_map", "omega_inverse_of_map"):
        body = getattr(md, name).__wrapped__
        monkeypatch.setattr(md, name, md._per_map(functools.wraps(body)(
            lambda f, body=body: shifts.append(f) or body(f))))
    build = tate.tate_ring
    monkeypatch.setattr(tate, "tate_ring", lambda *a: made.append(build(*a)) or made[-1])
    assert tate.ggh_verdict(3, 2, (-6, 6))["verdict"] == "fails"
    (T,) = made
    assert len(syzygies) == 2
    assert len({id(M) for M in T.omegas.values()}) == 2
    assert len(shifts) == 8  # one per distinct map, where one per degree would be 2 * (hi - lo)


def bccm_holds(p, n):
    """Benson, Chebolu, Christensen and Minac: for a p-group G, generation
    holds in stmod(kG) exactly when G is C_2 or C_3."""
    return p ** n in (2, 3)


@pytest.mark.parametrize("p, n", [(5, 1), (7, 1), (5, 2), (2, 5)])
def test_ggh_regression_verdicts(p, n):
    v = tate.ggh_verdict(p, n)
    assert (v["verdict"] == "holds") == bccm_holds(p, n)
    assert v["condition1"] and not v["condition2"]
