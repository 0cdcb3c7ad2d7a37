"""Stable homotopy of cyclic-group algebras and the generation criterion.

For R = F_p[t]/(t^{p^n}) and k the trivial module, pi_j S = stable maps
Omega^j k -> k.  For odd p this is F_p[y, y^-1] tensor an exterior class x
with |x| = 1, |y| = 2; for p = 2 it is the graded field F_2[y^{+-1}] with
|y| = 1.  The generation verdict combines the shape of this ring with the
nonvanishing of x on the homotopy of the cofiber of x.

The shifts Omega^j x and Omega^j y are read from `omega_power_of_map`,
whose steps `heller_of_map` and `omega_inverse_of_map` are each computed once
per map and cached on the modules.  They stay on the objects of `omegas`,
since Omega^-1 of a syzygy is the module it came from, and Omega^2 k comes
out as k itself: `omegas` holds at most two modules (see `modules`).
"""

from __future__ import annotations

from . import constructions as con
from .classify import EXTERIOR, classify
from . import modules as md
from .errors import RingSpecError, ShapeMismatch, WindowEmpty

DEFAULT_WINDOW = (-6, 6)


class TateRing:
    """Windowed stable-homotopy ring data for k over F_p[t]/(t^{p^n})."""

    def __init__(self, p, n, window, ring, dims, omegas, x_rep, y_rep):
        self.p = p
        self.n = n
        self.window = window
        self.ring = ring
        self.dims = dims
        self.omegas = omegas
        self.x_rep = x_rep
        self.y_rep = y_rep


def _build_omegas(k, window):
    """Omega^j k over the window.  The syzygies come first: each seeds its
    own envelope with its inclusion into the cover, so that no inverse shift
    computes an envelope from Hom."""
    lo, hi = window
    omegas = {0: k}
    for j in range(1, hi + 1):
        omegas[j] = md.heller_shift(omegas[j - 1])
    for j in range(-1, lo - 1, -1):
        omegas[j] = md.heller_inverse(omegas[j + 1])
    return omegas


def tate_ring(p, n, window=DEFAULT_WINDOW):
    """pi_* of the sphere in the window, with its verified ring shape."""
    if n < 1:
        raise RingSpecError(f"need n >= 1, got n={n}: for n = 0 the group is trivial, "
                            "and its stable module category is zero")
    lo, hi = window
    if lo > hi:
        raise WindowEmpty("empty degree window")
    if lo > 0 or hi < 2:
        raise WindowEmpty("window must contain degrees 0..2 to see x and y")
    R = con.group_algebra_cyclic(p, n)
    k = md.residue_module(R)
    omegas = _build_omegas(k, window)
    dims, reps = {}, {}
    for j in range(lo, hi + 1):
        d, r = md.stable_hom(omegas[j], k)
        dims[j] = d
        reps[j] = r
        if d != 1:
            raise ShapeMismatch(f"pi_{j} has dimension {d}, expected 1")
    x_rep = reps[1][0]
    y_rep = reps[2][0]

    xx = x_rep.compose(md.omega_power_of_map(x_rep, 1))
    if p == 2 and not md.stable_class_is_zero(xx):
        # the degree-1 class is invertible: graded field F_2[y^{+-1}], |y| = 1
        ring = con.laurent_field(2, 1)
        return TateRing(p, n, window, ring, dims, omegas, x_rep, y_rep)

    # x^2 = 0 (pi_2 is 1-dimensional) and y * x != 0
    if not md.stable_class_is_zero(xx):
        raise ShapeMismatch("degree-1 class does not square to zero")
    yx = y_rep.compose(md.omega_power_of_map(x_rep, 2))
    if md.stable_class_is_zero(yx):
        raise ShapeMismatch("product of the degree-1 and degree-2 classes vanishes")
    # y-periodicity: composing with y is injective on every 1-dim slice
    for j in range(lo, hi - 1):
        prod = reps[j][0].compose(md.omega_power_of_map(y_rep, j))
        if md.stable_class_is_zero(prod):
            raise ShapeMismatch(f"periodicity fails: y * pi_{j} = 0")
    ring = con.laurent_exterior(p, 1, 2)
    return TateRing(p, n, window, ring, dims, omegas, x_rep, y_rep)


def cofiber_stmod(f):
    """Cokernel of (emb, f): M -> I(M) + N, with the maps N -> C -> Omega^-1 M."""
    M, N = f.source, f.target
    R = M.ring
    emb = md.injective_envelope(M)
    I = emb.target
    g_total = I.generators + N.generators
    # the relations of I(M) + N, then the columns of (emb, f)
    rels = [[R.zero()] * I.generators + col for col in N.relations]
    rels += [a + b for a, b in zip(emb.columns(), f.columns())]
    C = md.FiniteModule(R, g_total, rels)
    # N -> C: include into the sum, then project
    inc_mat = [[R.zero()] * N.generators for _ in range(g_total)]
    for i in range(N.generators):
        inc_mat[I.generators + i][i] = R.one()
    n_to_c = md.ModuleMap(N, C, inc_mat, check=True)
    # C -> Omega^-1 M: forget N, land in I(M)/M
    out_mat = [[R.zero()] * g_total for _ in range(I.generators)]
    for i in range(I.generators):
        out_mat[i][i] = R.one()
    c_to_omega = md.ModuleMap(C, md.heller_inverse(M), out_mat, check=True)
    return C, n_to_c, c_to_omega


def x_action_report(T, C):
    """Rank of multiplication by x on pi_j C = stable maps Omega^j k -> C, for
    each usable degree j."""
    lo, hi = T.window
    report = {}
    for j in range(lo, hi):
        dim, reps = md.stable_hom(T.omegas[j], C)
        shifted_x = md.omega_power_of_map(T.x_rep, j)
        nonzero = 0
        for c in reps:
            if not md.stable_class_is_zero(c.compose(shifted_x)):
                nonzero += 1
        report[j] = {"dim": dim, "x_nonzero_on": nonzero}
    return report


def _condition2_from(T, verdict):
    if not verdict.is_delta:
        raise ShapeMismatch("stable homotopy ring is not of the admissible shape")
    kinds = [lv.kind for _, lv in verdict.factors]
    if EXTERIOR not in kinds:
        # graded field case: no exterior factor, nothing to test
        return True, {}
    C, _, _ = cofiber_stmod(T.x_rep)
    report = x_action_report(T, C)
    holds = any(entry["x_nonzero_on"] > 0 for entry in report.values())
    return holds, report


def ggh_verdict(p, n, window=DEFAULT_WINDOW):
    """Combined verdict: ring shape (1) and x-action on the cofiber (2)."""
    T = tate_ring(p, n, window)
    verdict = classify(T.ring, 1)
    condition1 = verdict.is_delta
    report = {}
    if condition1:
        condition2, report = _condition2_from(T, verdict)
    else:
        condition2 = False
    return {
        "p": p,
        "n": n,
        "window": list(window),
        "condition1": condition1,
        "condition2": condition2,
        "verdict": "holds" if (condition1 and condition2) else "fails",
        # the p = 3 family is the independently cross-checked reference case
        "computed_extrapolation": p != 3,
        "x_action": report,
    }
