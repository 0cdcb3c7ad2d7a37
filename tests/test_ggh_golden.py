"""Generation verdicts pinned to a committed fixture.

`ggh_verdict` reports, besides the verdict, the dimension of pi_j of the
cofiber of x and the number of its classes on which x acts nonzero, for each
degree of the window.  The fixture holds the full verdict dicts of the six
benchmark cases on two windows, and this test rebuilds them.  Regenerate
(only after an intended change of the reports) with:

    PYTHONPATH=src python3 tests/test_ggh_golden.py
"""

import json
import pathlib

from trimod import tate

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "ggh_golden.json"
CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]
WINDOWS = [(-4, 4), (-6, 6)]


def verdicts():
    return [tate.ggh_verdict(p, n, w) for p, n in CASES for w in WINDOWS]


def test_ggh_verdicts_match_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(verdicts()))
    assert len(got) == len(expected) == len(CASES) * len(WINDOWS)
    for rec, want in zip(got, expected):
        assert rec == want, f"p={want['p']} n={want['n']} window={want['window']}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(verdicts(), sort_keys=True) + "\n", encoding="utf-8")
