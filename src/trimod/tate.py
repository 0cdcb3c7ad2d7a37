"""Stable homotopy of cyclic-group algebras and the generation criterion.

For R = F_p[t]/(t^{p^n}) and k the trivial module, pi_j S = stable maps
Omega^j k -> k.  For odd p this is F_p[y, y^-1] tensor an exterior class x
with |x| = 1, |y| = 2; for G = C_2 it is the graded field F_2[y^{+-1}] with
|y| = 1.  The generation verdict combines the shape of this ring with the
nonvanishing of x on the homotopy of the cofiber of x.

Everything is computed on one Heller period (k, Omega k): Omega^2 k comes
out as k itself (see `modules`), so Omega^j k, pi_j and the x-action on pi_j
of the cofiber depend on j mod 2 only, and the verdict holds in every degree.
The window only sets the printed range, over which `TateRing.omegas`,
`TateRing.dims` and the x-action report are laid out by parity; any nonempty
window gives the same verdict.  The shifts Omega x and Omega^2 x come from
`omega_power_of_map`, cached on the map x.  Every module and map here is
built through the public functions of `modules`, the cofiber of x included
(`cofiber_stmod` is `modules.stable_cofiber`).
"""

from __future__ import annotations

from . import constructions as con
from .classify import EXTERIOR, classify
from . import modules as md
from .errors import RingSpecError, ShapeMismatch, WindowEmpty

DEFAULT_WINDOW = (-6, 6)


class TateRing:
    """Stable-homotopy ring data for k over F_p[t]/(t^{p^n}), on the period
    (k, Omega k) and laid out over the window by parity."""

    def __init__(self, p, n, window, ring, period, x_rep, y_rep):
        self.p = p
        self.n = n
        self.window = window
        self.ring = ring
        self.period = period
        lo, hi = window
        self.omegas = {j: period[j % 2] for j in range(lo, hi + 1)}
        self.dims = dict.fromkeys(self.omegas, 1)
        self.x_rep = x_rep
        self.y_rep = y_rep


def tate_ring(p, n, window=DEFAULT_WINDOW):
    """pi_* of the sphere, with its verified ring shape, printed on the window."""
    if n < 1:
        raise RingSpecError(f"need n >= 1, got n={n}: for n = 0 the group is trivial, "
                            "and its stable module category is zero")
    lo, hi = window
    if lo > hi:
        raise WindowEmpty("empty degree window")
    R = con.group_algebra_cyclic(p, n)
    k = md.residue_module(R)
    # both syzygies come first: each seeds the envelope of the module it
    # returns, so no inverse shift computes an envelope from Hom
    period = (k, md.heller_shift(k))
    if md.heller_shift(period[1]) is not k:
        raise ShapeMismatch("Omega^2 k is not k: the Heller shifts do not close after one period")
    reps = []
    for j, omega in enumerate(period):
        d, r = md.stable_hom(omega, k)
        if d != 1:
            raise ShapeMismatch(f"pi_{j} has dimension {d}, expected 1")
        reps.append(r[0])
    # Omega^2 k is k, so pi_2 = pi_0 and y is the class of pi_0
    y_rep, x_rep = reps

    xx = x_rep.compose(md.omega_power_of_map(x_rep, 1))
    if p == 2 and not md.stable_class_is_zero(xx):
        # the degree-1 class is invertible: graded field F_2[y^{+-1}], |y| = 1
        ring = con.laurent_field(2, 1)
    else:
        # x^2 = 0 (pi_2 is 1-dimensional) and y * x != 0.  pi_0 = F_p y, so y
        # is a stable automorphism of Omega^2 k = k, and composing with y is
        # injective in every degree
        if not md.stable_class_is_zero(xx):
            raise ShapeMismatch("degree-1 class does not square to zero")
        yx = y_rep.compose(md.omega_power_of_map(x_rep, 2))
        if md.stable_class_is_zero(yx):
            raise ShapeMismatch("product of the degree-1 and degree-2 classes vanishes")
        ring = con.laurent_exterior(p, 1, 2)
    return TateRing(p, n, window, ring, period, x_rep, y_rep)


# the package exports the stable cofiber under this name, and perfbench's tracer wraps it
cofiber_stmod = md.stable_cofiber


def x_action_report(T, C):
    """Rank of multiplication by x on pi_j C = stable maps Omega^j k -> C, for
    j = 0 and 1.  These two entries are every degree's, by parity: Omega^j k
    has period 2, and Omega^{j+2} x is a nonzero multiple of Omega^j x, pi_1
    being 1-dimensional."""
    report = []
    for j, omega in enumerate(T.period):
        dim, reps = md.stable_hom(omega, C)
        shifted_x = md.omega_power_of_map(T.x_rep, j)
        nonzero = sum(not md.stable_class_is_zero(c.compose(shifted_x)) for c in reps)
        report.append({"dim": dim, "x_nonzero_on": nonzero})
    return report


def ggh_verdict(p, n, window=DEFAULT_WINDOW):
    """Combined verdict: ring shape (1) and x-action on the cofiber (2),
    decided on the period; the x-action is printed over the window."""
    T = tate_ring(p, n, window)
    verdict = classify(T.ring, 1)
    period = []
    if verdict.is_delta and EXTERIOR in [lv.kind for _, lv in verdict.factors]:
        period = x_action_report(T, cofiber_stmod(T.x_rep)[0])
        condition2 = any(entry["x_nonzero_on"] > 0 for entry in period)
    else:
        # a graded field has no exterior class: nothing to test
        condition2 = verdict.is_delta
    lo, hi = window
    return {
        "p": p,
        "n": n,
        "window": list(window),
        "condition1": verdict.is_delta,
        "condition2": condition2,
        "verdict": "holds" if condition2 else "fails",
        # the p = 3 family is the independently cross-checked reference case
        "computed_extrapolation": p != 3,
        "x_action": {j: period[j % 2] for j in range(lo, hi)} if period else {},
    }
