"""The benchmark's three workloads.

Each workload builds one pass of items from the seed (`setup`), runs one item
through the library (`run`, the timed part), and checks a result against an
independent oracle (`verify`, never timed).  `verify` returns failure records
`(kind, detail)`; `known_defect` says which of those are defects the project
already tracks, which still count as failures.  `PASS_S` is about the time
of one pass at reference speed when it was set; the launcher derives a
run's fixed pass count from it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

from trimod import cli
from trimod import constructions as con
from trimod import modules as md
from trimod import ringio
from trimod import tate
from trimod import triangles as tr

import oracles


class Generation:
    """`tate.ggh_verdict` for cyclic group algebras; the seed only shuffles order.

    (3, 3) is left out (about a minute per verdict), and p >= 5 has no
    paper-backed expectation.
    """

    CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)]
    PASS_S = 9.5
    WINDOWS = [(-4, 4), (-6, 6)]

    def __init__(self, seed, workdir):
        items = [(p, n, w) for p, n in self.CASES for w in self.WINDOWS]
        random.Random(seed).shuffle(items)
        self.items = items

    def run(self, item):
        v = tate.ggh_verdict(*item)
        return v["verdict"], v["condition1"], v["condition2"]

    def expected(self, item):
        # the paper's dichotomy: generation holds for Z/p and fails from Z/p^2 on
        _, n, _ = item
        return ("holds", True, True) if n == 1 else ("fails", True, False)

    def verify(self, item, result, expected):
        if result != expected:
            return [("verdict", f"ggh{item}: got {result}, expected {expected}")]
        return []

    def known_defect(self, item, failure, expected):
        return False


class Triangles:
    """Seeded `random_map` maps over laurent_exterior(p, 1, 4), n = 1.

    Half the maps are drawn with max_rank=3 and half with max_rank=6.  Every
    pass holds the same generator counts (s, t): each pair from
    COUNTS[max_rank] x COUNTS[max_rank] once per prime, an even spread over
    what random_map draws.  Every triangle is completed on the window
    (-5, 5), the default for maps whose degrees span random_map's range.
    The seed draws the degrees and the entries; left to draw the counts and
    the window as well, the cost of a pass would follow those draws more
    than the library.  i = 0 models are left out (about a minute per
    triangle).
    """

    PRIMES = (2, 3, 5)
    PASS_S = 22.0
    N = 1
    COUNTS = {3: (1, 2, 3), 6: (1, 3, 5)}
    WINDOW = (-5, 5)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.rings = {p: con.laurent_exterior(p, 1, 4) for p in self.PRIMES}
        self.items = []
        for p in self.PRIMES:
            R = self.rings[p]
            for max_rank, counts in self.COUNTS.items():
                for shape in itertools.product(counts, counts):
                    while True:
                        src, tgt, entries = tr.random_map(R, self.N, rng, max_rank)
                        if (len(src), len(tgt)) == shape:
                            break
                    self.items.append((p, src, tgt, entries))

    def run(self, item):
        p, src, tgt, entries = item
        T = tr.triangle_from_map(self.rings[p], self.N, src, tgt, entries, window=self.WINDOW)
        exact = tr.verify_triangle_exact(T)["pass"]
        rotation = tr.verify_rotation(T)["pass"]
        return T.window, {q: d[:4] for q, d in T.dims.items()}, exact, rotation

    def expected(self, item):
        p, src, tgt, entries = item
        return oracles.triangle_dims(self.rings[p], self.N, src, tgt, entries, self.WINDOW)

    def verify(self, item, result, expected):
        p, src, tgt, _ = item
        window, dims, exact, rotation = result
        label = f"p={p} src={src} tgt={tgt}"
        failures = []
        if not exact:
            failures.append(("exactness", label))
        if not rotation:
            failures.append(("rotation", label))
        if window != self.WINDOW or dims != expected:
            failures.append(("slice_rank", f"{label}: window {window}"))
        return failures

    def known_defect(self, item, failure, expected):
        return False


# constructed rings: (label, builder from the seeded generator)
def _constructed_specs(rng):
    pick = rng.choice
    small = [lambda: con.z_mod(4), lambda: con.finite_field(2), lambda: con.finite_field(3),
             lambda: con.exterior_on_field(con.finite_field(2))]
    specs = [
        ("z_mod composite", lambda m=pick([6, 10, 12, 14, 15, 18, 20]): con.z_mod(m)),
        ("square_zero_two_vars", lambda p=pick([2, 3]): con.square_zero_two_vars(p)),
        ("galois_ring_4_2", con.galois_ring_4_2),
        ("product_ring 2", lambda a=pick(small), b=pick(small): con.product_ring(a(), b())),
        ("product_ring 3", lambda a=pick(small), b=pick(small), c=pick(small):
            con.product_ring(con.product_ring(a(), b()), c())),
        ("laurent_field", lambda p=pick([2, 3, 5]), d=pick([1, 2, 3]): con.laurent_field(p, d)),
    ]
    # two of each chain-ring family, so that the median item is a ring with
    # module checks rather than one on the border of the two kinds
    for k in (1, 2):
        specs += [
            (f"z_mod prime power {k}", lambda m=pick([4, 8, 9, 16, 25, 27]): con.z_mod(m)),
            (f"finite_field {k}", lambda q=pick([2, 3, 4, 5, 7]): con.finite_field(q)),
            (f"exterior_on_field {k}",
             lambda q=pick([2, 3, 5]): con.exterior_on_field(con.finite_field(q))),
            (f"truncated_polynomial {k}",
             lambda p=pick([2, 3, 5]): con.truncated_polynomial(p, 3)),
        ]
    # laurent_exterior(p, i, d) is a positive shape at n = 1 when d divides
    # 3i + 1; one ring from each side of that line
    i = pick([1, 2])
    specs.append(("laurent_exterior positive",
                  lambda p=pick([2, 3, 5]), d=pick([d for d in (1, 2, 4, 7) if (3 * i + 1) % d == 0]):
                  con.laurent_exterior(p, i, d)))
    specs.append(("laurent_exterior negative",
                  lambda p=pick([2, 3, 5]), d=pick([5, 6, 8]): con.laurent_exterior(p, 1, d)))
    specs.append(("past the enumeration cap", lambda: con.laurent_exterior(4099, 1, 2)))
    return specs


class Corpus:
    """Every `rings/*.ring` file plus seeded constructed rings, through `cli.main`.

    Per ring: `classify --n 0`, `classify --n 1` and `qf`, all with `--json`.
    Over local chain rings (the local quasi-Frobenius rings `stable_iso_test`
    supports), three seeded modules are shifted twice with `heller_power`
    and compared back with `stable_iso_test`, and every pair gets a
    `stable_hom`.
    """

    MODULE_SUMMANDS = (1, 2, 3)
    PASS_S = 1.5

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        rings_dir = "rings"
        paths = sorted(os.path.join(rings_dir, f) for f in os.listdir(rings_dir)
                       if f.endswith(".ring"))
        os.makedirs(workdir, exist_ok=True)
        for idx, (label, build) in enumerate(_constructed_specs(rng)):
            path = os.path.join(workdir, f"c{idx:02d}_{label.replace(' ', '_')}.ring")
            ringio.save_ring(build(), path)
            paths.append(path)
        self.items = [(path, self._modules(path, rng)) for path in paths]

    @staticmethod
    def _modules(path, rng):
        """Seeded sums of cyclic modules R/pi**a under a random change of basis."""
        R = ringio.load_ring(path)
        chain = _chain_structure(R)
        if chain is None:
            return None
        pi, e = chain
        T = oracles.FiniteTable(R)
        mods = []
        for g in Corpus.MODULE_SUMMANDS:
            exps = [rng.randint(1, e) for _ in range(g)]
            # unitriangular U: the generators are U times those of the cyclic sum
            U = [[T.one if r == c else rng.choice(T.elements) if r < c else T.zero
                  for c in range(g)] for r in range(g)]
            rels = [[T.mul(U[r][c], T.power(pi, exps[c])) for r in range(g)]
                    for c in range(g)]
            mods.append((g, rels, exps))
        return e, mods

    def run(self, item):
        path, modules = item
        outputs = [_run_cli(argv) for argv in _commands(path)]
        if modules is None:
            return outputs, None
        R = ringio.load_ring(path)
        mods = [md.FiniteModule(R, g, [[R.from_full_coords(v) for v in col] for col in rels])
                for g, rels, _ in modules[1]]
        returns = [md.stable_iso_test(md.heller_power(M, 2), M) for M in mods]
        dims = [[md.stable_hom(A, B)[0] for B in mods] for A in mods]
        return outputs, (returns, dims)

    def expected(self, item):
        path, modules = item
        R = ringio.load_ring(path)
        small = R.periodicity is None and R.size() <= 16
        return {
            "outputs": [_run_cli(argv) for argv in _commands(path)],
            "is_delta_n0": oracles.is_delta_by_brute_force(R) if small else None,
            "dims": None if modules is None else
                [[oracles.stable_hom_length(a, b, modules[0]) for _, _, b in modules[1]]
                 for _, _, a in modules[1]],
            "periodic": R.periodicity is not None,
        }

    def verify(self, item, result, expected):
        path = item[0]
        outputs, module_result = result
        failures = []
        verdicts = []
        for argv, (code, out, err), again in zip(_commands(path), outputs, expected["outputs"]):
            if code == cli.EXIT_INPUT:
                failures.append(("cli_error", f"{' '.join(argv)}: {err.strip()}"))
                verdicts.append(None)
                continue
            if (code, out, err) != again:
                failures.append(("json_not_identical", " ".join(argv)))
            verdicts.append(_json_verdict(out))
        n0, n1, qf = verdicts
        if expected["is_delta_n0"] is not None and n0 is not None and n0 != expected["is_delta_n0"]:
            failures.append(("classify_vs_brute_force", f"{path}: classify --n 0 says {n0}"))
        if qf is False and (n0 or n1):
            failures.append(("qf_vs_classify",
                             f"{path}: classify positive (n0={n0}, n1={n1}) but qf false"))
        if module_result is not None:
            returns, dims = module_result
            if not all(returns):
                failures.append(("heller_square", f"{path}: Omega^2 M not stably M: {returns}"))
            if dims != expected["dims"]:
                failures.append(("stable_hom", f"{path}: dims {dims}, expected {expected['dims']}"))
        return failures

    def known_defect(self, item, failure, expected):
        # ROADMAP item 4: qf treats every periodic ring as "field or not", and
        # periodic predicates enumerate whole slices up to a size cap
        kind, detail = failure
        return expected["periodic"] and (
            kind == "qf_vs_classify"
            or (kind == "cli_error" and "SizeCapExceeded" in detail))


def _commands(path):
    return (["classify", path, "--n", "0", "--json"],
            ["classify", path, "--n", "1", "--json"],
            ["qf", path, "--json"])


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _json_verdict(text):
    report = json.loads(text)
    if "verdict" in report:
        return report["verdict"]["is_delta"]
    return report["quasi_frobenius"]


# brute-force chain analysis by ring key: oracle work, so only the first
# set-up of a process pays for it and timed set-ups do not
_CHAIN = {}


def _chain_structure(R):
    key = R.key()
    if key not in _CHAIN:
        _CHAIN[key] = oracles.chain_structure(R)
    return _CHAIN[key]


WORKLOADS = {"generation": Generation, "triangles": Triangles, "corpus": Corpus}
