"""Command-line reports pinned to a committed fixture.

The README promises that `--json` output is byte-identical for identical
inputs.  The fixture holds the stdout and exit code of `classify --n 0`,
`classify --n 1` and `qf` on every ring of the corpus, of `heller` on every
module of the corpus, and of `dg-verify` on the README command at p = 2, 3
and 5, at (p, i, n) = (5, -1, 1) and on the build failure (3, 0, 0), all with
`--json`; this test reruns them from the repository root.  Regenerate (only after an intended change of the reports)
with:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib

from trimod import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "cli_golden.json"


def commands():
    """Argument lists, with paths relative to the repository root."""
    out = []
    for ring in sorted((ROOT / "rings").glob("*.ring")):
        path = f"rings/{ring.name}"
        out += [["classify", path, "--n", "0", "--json"],
                ["classify", path, "--n", "1", "--json"],
                ["qf", path, "--json"]]
    for module in sorted((ROOT / "modules").glob("*.module")):
        ring = json.loads(module.read_text(encoding="utf-8"))["ring"]
        ring = os.path.relpath(module.parent / ring, ROOT)
        out.append(["heller", ring, f"modules/{module.name}", "--json"])
    for p, i, n in ((2, 1, 1), (3, 1, 1), (5, 1, 1), (5, -1, 1), (3, 0, 0)):
        out.append(["dg-verify", "--p", str(p), "--i", str(i), "--n", str(n), "--window", "-6:6",
                    "--trials", "20", "--seed", "0", "--json"])
    return out


def records():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        out = []
        for argv in commands():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            out.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
        return out
    finally:
        os.chdir(cwd)


def test_cli_reports_match_fixture():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    got = records()
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for rec, want in zip(got, expected):
        assert rec == want, " ".join(want["argv"])


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(records(), indent=1) + "\n", encoding="utf-8")
