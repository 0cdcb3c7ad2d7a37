"""Triangle records pinned to a committed fixture.

`triangle_from_map` chooses homology representatives and class coordinates;
a change to the elimination kernels may keep every rank and still pick other
bases, which moves the matrices of f, g, h and f[n].  The fixture holds the
full records of twelve seeded maps over laurent_exterior(p, 1, 4), and this
test rebuilds them.  Regenerate (only after an intended change of basis
choices) with:

    PYTHONPATH=src python3 tests/test_triangles_golden.py
"""

import json
import pathlib
import random

from trimod import constructions as con
from trimod import triangles as tr

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "triangles_golden.json"
SEED = 20261018
N = 1


def records():
    """Full Triangle records of four seeded random maps per prime."""
    rng = random.Random(SEED)
    out = []
    for p in (2, 3, 5):
        R = con.laurent_exterior(p, 1, 4)
        for max_rank in (2, 3, 4, 5):
            src, tgt, entries = tr.random_map(R, N, rng, max_rank)
            T = tr.triangle_from_map(R, N, src, tgt, entries)
            lo, hi = T.window
            out.append({
                "p": p, "source_degrees": src, "target_degrees": tgt,
                "window": [lo, hi],
                "third_generator_degrees": T.third_generator_degrees,
                "slices": [{"q": q, "dims": list(T.dims[q]), "f": T.f[q].tolist(), "g": T.g[q].tolist(),
                            "h": T.h[q].tolist(), "sf": T.sf[q].tolist()} for q in range(lo, hi + 1)],
            })
    return out


def test_triangle_records_match_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(records()))
    assert len(got) == len(expected) == 12
    for rec, want in zip(got, expected):
        assert rec == want, f"p={want['p']} src={want['source_degrees']} tgt={want['target_degrees']}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(records(), sort_keys=True) + "\n", encoding="utf-8")
