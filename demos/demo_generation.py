"""Generation dichotomy for cyclic p-group algebras at p = 3.

The trivial module generates the stable category for Z/3 but not for Z/9 or
Z/27.  The verdict combines the shape of the stable-homotopy ring with the
action of its degree-one class x on the cofiber of x.  Both are computed on
one Heller period (Omega^2 k is k) and printed on the window -6..6; the
verdict holds in every degree.

Run as: python3 demos/demo_generation.py  (each case takes well under a second)
"""

from trimod import tate

for n in (1, 2, 3):
    v = tate.ggh_verdict(3, n, (-6, 6))
    print(f"group Z/3^{n}: condition1={v['condition1']}, "
          f"condition2={v['condition2']}, verdict: {v['verdict']}")
    for j in sorted(v["x_action"]):
        e = v["x_action"][j]
        print(f"    pi_{j} of cofiber: dim {e['dim']}, x nonzero on {e['x_nonzero_on']}")
