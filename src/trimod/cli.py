"""Command-line front end: classify, qf, heller, dg-verify, ggh, selftest.

Exit codes: 0 for a positive verdict or all checks passing, 1 for a negative
mathematical verdict, 2 for input errors.  `--json` emits a versioned,
deterministic machine-readable report.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import random
import sys

from . import constructions as con
from . import dga as dg
from . import modules as md
from . import rings as rc
from . import ringio
from . import tate
from . import triangles as tr
from .classify import classify
from .errors import ParseError, TrimodError

SCHEMA_VERSION = 1

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _parse_window(text):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad window {text!r}, expected LO:HI")


def _emit(report, as_json):
    if as_json:
        report = dict(report)
        report["schema_version"] = SCHEMA_VERSION
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in report.get("lines", []):
            print(line)


def cmd_classify(args):
    R = ringio.load_ring(args.ring_path)
    v = classify(R, args.n)
    lines = [f"is_delta: {str(v.is_delta).lower()}", f"suspension: {v.suspension}",
             f"confidence: {v.confidence}"]
    for idx, (_, lv) in enumerate(v.factors):
        reason = "" if lv.reason is None else f" reason={lv.reason}"
        detail = "" if lv.reason_detail is None else f"({lv.reason_detail})"
        lines.append(f"factor {idx}: {lv.kind}{reason}{detail}")
    report = {"command": "classify", "ring": args.ring_path, "lines": lines,
              "verdict": v.to_dict()}
    _emit(report, args.json)
    return EXIT_POSITIVE if v.is_delta else EXIT_NEGATIVE


def cmd_qf(args):
    R = ringio.load_ring(args.ring_path)
    ok = rc.is_quasi_frobenius(R)
    report = {"command": "qf", "ring": args.ring_path,
              "quasi_frobenius": ok,
              "lines": [f"quasi_frobenius: {str(ok).lower()}"]}
    _emit(report, args.json)
    return EXIT_POSITIVE if ok else EXIT_NEGATIVE


def cmd_heller(args):
    R = ringio.load_ring(args.ring_path)
    lines = []
    results = []
    all_ok = True
    for mpath in args.module_paths:
        M = ringio.load_module(mpath)
        if M.ring != R:
            raise ParseError(f"module {mpath} is not over the given ring", mpath)
        sizes = []
        current = M
        for _ in range(3):
            current = md.heller_shift(current)
            sizes.append(current.size())
        ok = md.stable_iso_test(current, M)
        all_ok = all_ok and ok
        results.append({"module": mpath, "shift_sizes": sizes, "cube_returns": ok})
        lines.append(f"{mpath}: sizes {sizes} cube_returns={str(ok).lower()}")
    report = {"command": "heller", "ring": args.ring_path, "results": results,
              "lines": lines}
    _emit(report, args.json)
    return EXIT_POSITIVE if all_ok else EXIT_NEGATIVE


def cmd_dg_verify(args):
    window = _parse_window(args.window)
    report = {"command": "dg-verify", "p": args.p, "i": args.i, "n": args.n,
              "window": list(window), "weight": args.weight,
              "trials": args.trials, "seed": args.seed}
    try:
        alg = dg.build_two_generator_dga(args.p, args.i, args.n, args.weight)
    except TrimodError as e:
        report["built"] = False
        report["obstruction"] = str(e)
        report["lines"] = [f"build: FAIL ({e})"]
        _emit(report, args.json)
        return EXIT_NEGATIVE
    report["built"] = True
    lines = ["build: PASS"]

    rng = random.Random(args.seed)
    ok_rules = True
    for _ in range(args.trials):
        x, y = alg.random_monomial(rng), alg.random_monomial(rng)
        if not alg.leibniz_holds(x, y):
            ok_rules = False
            break
        if not alg.differential(alg.differential(x, truncate=True), truncate=True).is_zero:
            ok_rules = False
            break
    report["calculus"] = ok_rules
    lines.append(f"differential calculus ({args.trials} random pairs): "
                 + ("PASS" if ok_rules else "FAIL"))

    free_rank_one = dg.homology_is_free_rank_one(dg.algebra_module(alg), window)
    report["homology_free_rank_one"] = free_rank_one
    lines.append("homology free of rank one: " + ("PASS" if free_rank_one else "FAIL"))

    triangles_ok = None
    vdeg = 3 * args.i + args.n
    if vdeg != 0:
        R = con.laurent_exterior(args.p, args.i, vdeg)
        trial = tr.run_random_trials(R, args.n, args.trials, args.seed,
                                     weight=args.weight)
        triangles_ok = trial["pass"]
        lines.append(f"random triangles ({args.trials}): "
                     + ("PASS" if triangles_ok else "FAIL"))
    report["triangles"] = triangles_ok
    report["lines"] = lines
    _emit(report, args.json)
    ok = ok_rules and free_rank_one and triangles_ok is not False
    return EXIT_POSITIVE if ok else EXIT_NEGATIVE


def cmd_ggh(args):
    window = _parse_window(args.window)
    v = tate.ggh_verdict(args.p, args.n, window)
    lines = [f"condition1: {str(v['condition1']).lower()}",
             f"condition2: {str(v['condition2']).lower()}",
             f"verdict: {v['verdict']}"]
    for j in sorted(v["x_action"]):
        e = v["x_action"][j]
        lines.append(f"pi_{j} of cofiber: dim {e['dim']}, x nonzero on {e['x_nonzero_on']}")
    if v["computed_extrapolation"]:
        lines.append("note: computed extrapolation beyond the reference family p = 3")
    report = dict(v)
    report["command"] = "ggh"
    report["x_action"] = {str(j): e for j, e in v["x_action"].items()}
    report["lines"] = lines
    _emit(report, args.json)
    return EXIT_POSITIVE if v["verdict"] == "holds" else EXIT_NEGATIVE


def cmd_selftest(args):
    checks = []

    R = con.z_mod(4)
    checks.append(("classify z4 positive", classify(R, 0).is_delta))
    checks.append(("classify z9 negative", not classify(con.z_mod(9), 0).is_delta))
    checks.append(("qf z4", rc.is_quasi_frobenius(R)))
    k = md.residue_module(R)
    checks.append(("heller cube z4", md.heller_cube_check(R, [k])))
    alg = dg.build_two_generator_dga(3, 1, 1)
    checks.append(("dg homology", dg.homology_is_free_rank_one(dg.algebra_module(alg), (-4, 4))))
    v = tate.ggh_verdict(3, 1, (-4, 4))
    checks.append(("ggh dichotomy holds at n=1", v["verdict"] == "holds"))

    lines = [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks]
    report = {"command": "selftest", "lines": lines,
              "results": {name: ok for name, ok in checks}}
    _emit(report, args.json)
    return EXIT_POSITIVE if all(ok for _, ok in checks) else EXIT_NEGATIVE


# lets window values such as -6:6 pass as arguments instead of flags
_WINDOW_ARG = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+:-?\d+$")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(prog="trimod",
                                     description="exact computations in triangulated module categories")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide the triangulation verdict for a ring file")
    p.add_argument("ring_path")
    p.add_argument("--n", type=int, default=0, help="suspension shift")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("qf", help="quasi-Frobenius test for a ring file")
    p.add_argument("ring_path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_qf)

    p = sub.add_parser("heller", help="shift modules three times and compare")
    p.add_argument("ring_path")
    p.add_argument("module_paths", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_heller)

    p = sub.add_parser("dg-verify", help="build the DG model and verify triangles")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", default="-6:6")
    p.add_argument("--weight", type=int, default=dg.DEFAULT_WEIGHT)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dg_verify)
    p._negative_number_matcher = _WINDOW_ARG

    p = sub.add_parser("ggh", help="generation verdict for a cyclic group algebra")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", default="-6:6")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ggh)
    p._negative_number_matcher = _WINDOW_ARG

    p = sub.add_parser("selftest", help="run a quick fixed battery")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except TrimodError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
