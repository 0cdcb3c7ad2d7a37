"""Local verdicts decided by counting, against the enumerated references.

`classify_local` reads its conditions as sizes over one period of degrees:
the socle is simple when it is as large as R/m, m = (g) when (g) is as large
as m, and ann(x) = (x) when |m| = |R/m|.  These tests rebuild the socle,
principal ideals and annihilators from enumerated elements
(`brute_force`), and check that every reason `classify` can give is given
on the corpus and on seeded rings.
"""

import ast
import importlib
import pathlib
import random

from brute_force import annihilator, principal_ideal, same_ideal, socle
from test_rings import _random_ring

from trimod import rings
from trimod.ringio import load_ring

cl = importlib.import_module("trimod.classify")
ROOT = pathlib.Path(__file__).resolve().parent.parent
RING_FILES = [load_ring(str(path)) for path in sorted((ROOT / "rings").glob("*.ring"))]


def _corpus(seeds):
    """The ring files, then one `_random_ring` draw per seed."""
    return RING_FILES + [_random_ring(random.Random(seed)) for seed in seeds]


def _reasons():
    """The reason constants of `classify`: each name passed as `reason=` to
    a LocalVerdict."""
    tree = ast.parse(pathlib.Path(cl.__file__).read_text(encoding="utf-8"))
    return {getattr(cl, kw.value.id) for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "reason" and isinstance(kw.value, ast.Name)}


def test_every_verdict_reason_is_reachable():
    # a reason that no ring gives is a dead branch of classify_local
    seen = {lv.reason for R in _corpus(range(60)) for n in range(-3, 4)
            for _, lv in cl.classify(R, n).factors if not lv.positive}
    assert _reasons() and seen == _reasons()


def _local_factors(seeds):
    """The distinct local factors with m != 0 of the corpus rings."""
    out = {}
    for R in _corpus(seeds):
        for F in rings.decompose_product(R):
            if not rings.is_graded_field(F):
                out.setdefault(F.key(), F)
    return list(out.values())


def test_counting_criteria_match_the_references():
    factors = _local_factors(range(300))
    assert len(factors) >= 100
    chains = char_four = 0
    for F in factors:
        m, residue = rings.maximal_ideal(F), rings.residue_size(F)
        # the socle is simple exactly when it is as large as R/m
        assert rings.socle_is_simple(F) == (socle(F).size() == residue)
        # the first generator of m that generates it alone
        x = rings.chain_generator(F)
        assert x == next((g for g in m.generators if same_ideal(principal_ideal(F, g), m)), None)
        if x is None:
            continue
        chains += 1
        ann_is_x = same_ideal(annihilator(F, x), principal_ideal(F, x))
        assert ((x * x).is_zero and m.size() == residue) == ann_is_x
        # ann(x) lies in m and is as large as R/m, so the count alone decides
        assert (m.size() == residue) == ann_is_x
        verdict = cl.classify_local(F, 0)
        assert (verdict.reason == cl.ANN_NOT_EQUAL) == (not ann_is_x)
        if ann_is_x and F.char == 4:
            # m is simple and holds 2 != 0, so 2 generates it
            char_four += 1
            assert same_ideal(principal_ideal(F, F.one() + F.one()), m)
            assert verdict.reason != cl.M_NOT_PRINCIPAL
    assert chains >= 50 and char_four >= 3
