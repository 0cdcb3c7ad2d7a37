"""End-to-end acceptance battery.

Each test covers one headline guarantee of the package and prints a single
pass/fail line.  The checks here recompute everything against independent
oracles: brute-force ring arithmetic, slicewise rank counts over the
coefficient ring, and explicit syzygy iteration.
"""

import glob
import os
import random

import pytest
from brute_force import (
    dg_differential,
    dg_leibniz_holds,
    dg_random_monomial,
    enumerate_slice,
    oracle_is_delta,
)

from trimod import constructions as con
from trimod import dga as dg
from trimod import linalg
from trimod import modules as md
from trimod import ringio
from trimod import rings as rc
from trimod import tate
from trimod import triangles as tr
from trimod.classify import (
    ANN_NOT_EQUAL,
    MISSING_UNIT,
    NOT_QF,
    WRONG_CHAR,
    classify,
)
from trimod.errors import ParityObstruction
from trimod.modules import FiniteModule

HERE = os.path.dirname(__file__)
RINGS_DIR = os.path.join(HERE, os.pardir, "rings")


def _report(num, name, ok):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# 1. classification of ten ungraded test rings


def test_criterion_1_classification():
    f2 = con.finite_field(2)
    f3 = con.finite_field(3)
    positives = [
        con.z_mod(4),
        f2,
        con.exterior_on_field(f2),
        con.product_ring(f2, con.z_mod(4)),
        con.product_ring(f3, con.exterior_on_field(f2)),
    ]
    negatives = [
        (con.z_mod(9), WRONG_CHAR),
        (con.z_mod(8), ANN_NOT_EQUAL),
        (con.exterior_on_field(f3), WRONG_CHAR),
        (con.truncated_polynomial(5, 3), ANN_NOT_EQUAL),
        (con.square_zero_two_vars(2), NOT_QF),
    ]
    ok = 0
    for R in positives:
        if classify(R, 0).is_delta:
            ok += 1
    for R, reason in negatives:
        v = classify(R, 0)
        if not v.is_delta and v.first_reason == reason:
            ok += 1
    _report(1, "classification of ten test rings", ok == 10)


# ---------------------------------------------------------------------------
# 2. shifted classification of periodic exterior algebras


def test_criterion_2_shifted_periodic():
    good = classify(con.laurent_exterior(3, 1, 2), 1)
    bad = classify(con.laurent_exterior(3, 1, 3), 1)
    ok = (
        good.is_delta
        and good.factors[0][1].unit_degree_found == 4
        and not bad.is_delta
        and bad.first_reason == MISSING_UNIT
        and bad.factors[0][1].reason_detail == 4
    )
    _report(2, "shift-1 verdicts for periodic exterior algebras", ok)


# ---------------------------------------------------------------------------
# 3. two-generator DG models on a wide window


def test_criterion_3_dg_models():
    ok = True
    rng = random.Random(31)
    for p, i, n in [(3, 1, 1), (2, 0, 0), (2, 1, 1), (5, 1, 1)]:
        alg = dg.build_two_generator_dga(p, i, n, weight=26)
        for _ in range(200):
            x, y = dg_random_monomial(alg, rng), dg_random_monomial(alg, rng)
            ok = ok and dg_leibniz_holds(alg, x, y)
            ok = ok and not dg_differential(alg, dg_differential(alg, x))
        ok = ok and dg.homology_is_free_rank_one(dg.algebra_module(alg), (-10, 10))
    with pytest.raises(ParityObstruction):
        dg.build_two_generator_dga(3, 0, 0, weight=26)
    _report(3, "DG models, wide window homology", ok)


# ---------------------------------------------------------------------------
# 4. fifty random triangles checked against a slice-rank oracle

R_Y2 = con.laurent_exterior(3, 1, 2)   # |x| = 1, |y| = 2
R_V4 = con.laurent_exterior(3, 1, 4)   # |x| = 1, |v| = 4, v plays y^2


def _convert_entry(z):
    """2x2 block over R_V4 for an R_Y2 entry under R = R0 + R0[2]."""
    blocks = [[{} for _ in range(2)] for _ in range(2)]
    for (bidx, s), c in z.terms.items():
        for dsub in range(2):
            for tsub in range(2):
                if (s + dsub - tsub) % 2 == 0:
                    t = (s + dsub - tsub) // 2
                    key = (bidx, t)
                    blocks[tsub][dsub][key] = blocks[tsub][dsub].get(key, 0) + c
    return [[R_V4.element(b) for b in row] for row in blocks]


def _double(src, tgt, entries):
    src2 = [d for d0 in src for d in (d0, d0 + 2)]
    tgt2 = [d for d0 in tgt for d in (d0, d0 + 2)]
    big = [[None] * len(src2) for _ in range(len(tgt2))]
    for i in range(len(tgt)):
        for j in range(len(src)):
            blk = _convert_entry(entries[i][j])
            for a in range(2):
                for b in range(2):
                    big[2 * i + a][2 * j + b] = blk[a][b]
    return src2, tgt2, big


def _free_slice(R, degs, q):
    out = []
    for j, d in enumerate(degs):
        for mt in R.slice_terms(q - d):
            out.append((j, mt))
    return out


def _free_slice_matrix(R, src_degs, tgt_degs, entries, q):
    src = _free_slice(R, src_degs, q)
    tgt = _free_slice(R, tgt_degs, q)
    pos = {k: idx for idx, k in enumerate(tgt)}
    cols = []
    for (j, mt) in src:
        terms = R.slice_terms(q - src_degs[j])
        elem = R.from_slice_coords(q - src_degs[j], [1 if t == mt else 0 for t in terms])
        col = [0] * len(tgt)
        for i in range(len(tgt_degs)):
            prod = entries[i][j] * elem
            if prod.is_zero:
                continue
            tterms = R.slice_terms(q - tgt_degs[i])
            for idx2, c in enumerate(R.slice_coords(prod, q - tgt_degs[i])):
                if c:
                    col[pos[(i, tterms[idx2])]] = c
        cols.append(col)
    return [[cols[j][r] for j in range(len(src))] for r in range(len(tgt))], len(src), len(tgt)


def test_criterion_4_random_triangles():
    rng = random.Random(20260823)
    good = 0
    for _ in range(50):
        src, tgt, entries = tr.random_map(R_Y2, 1, rng)
        src2, tgt2, big = _double(src, tgt, entries)
        T = tr.triangle_from_map(R_V4, 1, src2, tgt2, big)
        if not (tr.verify_triangle_exact(T)["pass"] and tr.verify_rotation(T)["pass"]):
            continue
        lo, hi = T.window
        agree = True
        for q in range(lo, hi + 1):
            mat, a_dim, b_dim = _free_slice_matrix(R_V4, src2, tgt2, big, q)
            smat, sa_dim, _ = _free_slice_matrix(R_V4, src2, tgt2, big, q - 1)
            rk = linalg.modp_rank(mat, 3)
            srk = linalg.modp_rank(smat, 3)
            a, b, c, sa, sb = T.dims[q]
            agree = agree and (a, b, sa) == (a_dim, b_dim, sa_dim)
            agree = agree and c == (b_dim - rk) + (sa_dim - srk)
        if agree:
            good += 1
    _report(4, "fifty random triangles vs rank oracle", good == 50)


# ---------------------------------------------------------------------------
# 5. the third syzygy returns every module to itself


def _random_module(R, rng):
    gens = rng.randint(1, 3)
    n_rels = rng.randint(0, 3)
    elems = list(enumerate_slice(R, 0))
    rels = [[rng.choice(elems) for _ in range(gens)] for _ in range(n_rels)]
    return FiniteModule(R, gens, rels)


def test_criterion_5_syzygy_cube():
    ok = True
    for R in (con.z_mod(4), con.exterior_on_field(con.finite_field(2))):
        sample = [md.free_module(R, 1), md.residue_module(R)]
        rng = random.Random(R.size())
        sample.extend(_random_module(R, rng) for _ in range(20))
        ok = ok and md.heller_cube_check(sample)
    _report(5, "third syzygy returns modules", ok)


# ---------------------------------------------------------------------------
# 6. generation dichotomy for cyclic group algebras at p = 3


def test_criterion_6_generation_dichotomy():
    v1 = tate.ggh_verdict(3, 1, (-6, 6))
    v2 = tate.ggh_verdict(3, 2, (-6, 6))
    v3 = tate.ggh_verdict(3, 3, (-6, 6))
    ok = (
        v1["verdict"] == "holds"
        and v2["verdict"] == "fails" and v2["condition1"] and not v2["condition2"]
        and v3["verdict"] == "fails" and v3["condition1"] and not v3["condition2"]
    )
    _report(6, "generation dichotomy at p = 3", ok)


# ---------------------------------------------------------------------------
# 7. corpus verdicts vs a brute-force membership oracle


def test_criterion_7_corpus_vs_oracle():
    checked = 0
    agree = 0
    for path in sorted(glob.glob(os.path.join(RINGS_DIR, "*.ring"))):
        R = ringio.load_ring(path)
        if R.periodicity is not None or R.size() > 16:
            continue
        checked += 1
        if classify(R, 0).is_delta == oracle_is_delta(R):
            agree += 1
    _report(7, f"corpus verdicts vs brute-force oracle ({checked} rings)",
            checked >= 10 and agree == checked)
