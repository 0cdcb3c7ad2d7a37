"""The two-generator differential graded algebra and its semifree modules.

A = k<a, u> / (a^2, au + ua + v) with |u| = i, |a| = 2i + n, |v| = 3i + n,
da = u^2, du = 0, and the signed Leibniz rule d(xy) = d(x)y + (-1)^{n|x|}xd(y).
Normal-form monomials are v^t a^eps u^m with eps in {0, 1}; the rewriting
rules a*a -> 0 and u*a -> -a*u - v terminate and are confluent, which the
constructor cross-checks with a generic word rewriter.

Well-definedness of d forces a parity condition on (i, n, char k); the
constructor raises ParityObstruction when it fails.

Homology is computed slice by slice over F_p.  A module with zero
differential (a free module, its shifts, the cone of a zero map) takes its
homology from H(A): its slice complex is a direct sum of slices of A, whose
homology each algebra computes once per degree.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from . import linalg
from .errors import (
    NotChainMap,
    ParityObstruction,
    ShapeMismatch,
    WeightOverflow,
    WindowEmpty,
    WindowTooWideForWeightBound,
)

DEFAULT_WEIGHT = 16
PADDING = 2


class DGElement:
    """Finite sum of monomials v^t a^eps u^m with coefficients mod p."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        p = alg.p
        clean = {}
        for key, c in terms.items():
            c %= p
            if c:
                clean[key] = c
        self.terms = clean

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        degs = {self.alg.monomial_degree(*k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return DGElement(self.alg, out)

    def __neg__(self):
        return DGElement(self.alg, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return DGElement(self.alg, {k: c * other for k, c in self.terms.items()})
        return self.alg.multiply(self, other)

    def __rmul__(self, scalar):
        return self * scalar

    def __eq__(self, other):
        return isinstance(other, DGElement) and self.alg is other.alg and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (t, e, m), c in sorted(self.terms.items()):
            s = [] if c == 1 else [str(c)]
            if t:
                s.append(f"v^{t}" if t != 1 else "v")
            if e:
                s.append("a")
            if m:
                s.append(f"u^{m}" if m != 1 else "u")
            bits.append("*".join(s) or "1")
        return " + ".join(bits)


class DGAlgebra:
    """Normal-form arithmetic for the two-generator algebra at parameters (p, i, n)."""

    def __init__(self, p, i, n, weight=DEFAULT_WEIGHT):
        self.p = p
        self.i = i
        self.n = n
        self.weight = weight
        self.vdeg = 3 * i + n
        self.adeg = 2 * i + n
        # padding -> {degree: homology record of A as a module over itself}
        self.algebra_slices = {}

    def monomial_degree(self, t, e, m):
        return t * self.vdeg + e * self.adeg + m * self.i

    def zero(self):
        return DGElement(self, {})

    def one(self):
        return DGElement(self, {(0, 0, 0): 1})

    def monomial(self, t=0, e=0, m=0, c=1):
        if self.vdeg == 0 and t != 0:
            raise ShapeMismatch("no periodicity unit when 3i+n = 0")
        return DGElement(self, {(t, e, m): c})

    def gen_u(self):
        return self.monomial(m=1)

    def gen_a(self):
        return self.monomial(e=1)

    def gen_v(self):
        if self.vdeg == 0:
            return self.one()
        return self.monomial(t=1)

    # -- products --------------------------------------------------------

    def _mul_monomials(self, k1, k2):
        """Product of two normal-form monomials as a term dict.

        Uses u^m a = a u^m (m even) and u^m a = -a u^m - v u^{m-1} (m odd),
        both consequences of u a = -a u - v.
        """
        (t1, e1, m1), (t2, e2, m2) = k1, k2
        t = t1 + t2
        out = {}
        if e2 == 0:
            out[(t, e1, m1 + m2)] = 1
        elif e1 == 0 and e2 == 1:
            if m1 % 2 == 0:
                out[(t, 1, m1 + m2)] = 1
            else:
                out[(t, 1, m1 + m2)] = -1
                out[(t + 1, 0, m1 + m2 - 1)] = -1
        else:  # e1 == e2 == 1
            if m1 % 2 == 0:
                pass  # a u^{m1} a u^{m2} = a a u^{m1+m2} = 0
            else:
                out[(t + 1, 1, m1 + m2 - 1)] = -1
        if self.vdeg == 0:
            out = {(0, e, m): c for (t_, e, m), c in out.items()}
        return out

    def multiply(self, x, y, truncate=False):
        out = {}
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                for k, c in self._mul_monomials(k1, k2).items():
                    if k[2] > self.weight:
                        if truncate:
                            continue
                        raise WeightOverflow(f"u-exponent {k[2]} exceeds bound {self.weight}")
                    out[k] = out.get(k, 0) + c1 * c2 * c
        return DGElement(self, out)

    # -- differential ----------------------------------------------------

    def differential(self, x, truncate=False):
        """d(v^t a u^m) = (-1)^{n * t * |v|} v^t u^{m+2}; d(v^t u^m) = 0."""
        out = {}
        for (t, e, m), c in x.terms.items():
            if e == 0:
                continue
            if m + 2 > self.weight:
                if truncate:
                    continue
                raise WeightOverflow(f"u-exponent {m + 2} exceeds bound {self.weight}")
            sign = -1 if (self.n * t * self.vdeg) % 2 else 1
            key = (t, 0, m + 2)
            out[key] = out.get(key, 0) + c * sign
        return DGElement(self, out)

    def leibniz_holds(self, x, y):
        lhs = self.differential(self.multiply(x, y, truncate=True), truncate=True)
        sign = -1 if (self.n * x.degree()) % 2 else 1
        rhs = self.multiply(self.differential(x, truncate=True), y, truncate=True) + (
            self.multiply(x, self.differential(y, truncate=True), truncate=True) * sign
        )
        return lhs == rhs

    def random_monomial(self, rng, max_m=6, max_t=2):
        t = rng.randint(-max_t, max_t) if self.vdeg != 0 else 0
        e = rng.randint(0, 1)
        m = rng.randint(0, max_m)
        c = rng.randint(1, self.p - 1)
        return self.monomial(t, e, m, c)

    def __repr__(self):
        return f"DGAlgebra(p={self.p}, i={self.i}, n={self.n})"


# ---------------------------------------------------------------------------
# generic word rewriting, used to validate the closed forms
# ---------------------------------------------------------------------------

def _rewrite_word(alg, coeff, vpow, word):
    """Rewrite a word in letters 'a', 'u' to normal-form terms.

    Rules: 'aa' -> 0, 'ua' -> -'au' - v.  Returns {(t, e, m): coeff}.
    """
    out = {}
    stack = [(coeff, vpow, list(word))]
    while stack:
        c, t, w = stack.pop()
        changed = False
        for pos in range(len(w) - 1):
            if w[pos] == "a" and w[pos + 1] == "a":
                changed = True
                break  # term dies
            if w[pos] == "u" and w[pos + 1] == "a":
                w1 = w[:pos] + ["a", "u"] + w[pos + 2:]
                w2 = w[:pos] + w[pos + 2:]
                stack.append((-c, t, w1))
                stack.append((-c, t + 1, w2))
                changed = True
                break
        if changed:
            continue
        e = w.count("a")
        m = w.count("u")
        if alg.vdeg == 0:
            t = 0
        key = (t, e, m)
        out[key] = (out.get(key, 0) + c) % alg.p
    return {k: c for k, c in out.items() if c}


def _word_differential(alg, coeff, vpow, word):
    """Formal Leibniz differential of a word; returns rewritten terms."""
    out = {}
    prefix_deg = vpow * alg.vdeg
    for pos, letter in enumerate(word):
        if letter != "a":
            prefix_deg += alg.i
            continue
        sign = -1 if (alg.n * prefix_deg) % 2 else 1
        new_word = word[:pos] + ["u", "u"] + word[pos + 1:]
        for k, c in _rewrite_word(alg, coeff * sign, vpow, new_word).items():
            out[k] = (out.get(k, 0) + c) % alg.p
        prefix_deg += alg.adeg
    return {k: c for k, c in out.items() if c}


def _check_well_defined(alg):
    """d must kill both defining relations, and rewriting must be confluent."""
    # d(a*a) = 0
    if _word_differential(alg, 1, 0, ["a", "a"]):
        raise ParityObstruction(
            f"differential not well-defined at (p={alg.p}, i={alg.i}, n={alg.n}): d(a*a) != 0"
        )
    # d(u*a + a*u + v) = d(u*a) + d(a*u) (dv = 0)
    acc = {}
    for w in (["u", "a"], ["a", "u"]):
        for k, c in _word_differential(alg, 1, 0, w).items():
            acc[k] = (acc.get(k, 0) + c) % alg.p
    if any(c for c in acc.values()):
        raise ParityObstruction(
            f"differential not well-defined at (p={alg.p}, i={alg.i}, n={alg.n}): d(ua+au+v) != 0"
        )
    # confluence: all words of length <= 4 rewrite consistently with the
    # closed-form monomial product
    letters = ["a", "u"]
    for length in range(5):
        for word in itertools.product(letters, repeat=length):
            terms = _rewrite_word(alg, 1, 0, list(word))
            # same word evaluated through normal-form multiplication
            acc = alg.one()
            for letter in word:
                factor = alg.gen_a() if letter == "a" else alg.gen_u()
                acc = alg.multiply(acc, factor)
            if terms != acc.terms:
                raise ShapeMismatch(f"rewriting disagreement on word {''.join(word)}")


def build_two_generator_dga(p, i, n, weight=DEFAULT_WEIGHT):
    """Validated algebra; raises ParityObstruction when d is ill-defined."""
    if p < 2 or not linalg.is_prime(p):
        raise ShapeMismatch("coefficient field must be a prime field")
    alg = DGAlgebra(p, i, n, weight)
    _check_well_defined(alg)
    return alg


# ---------------------------------------------------------------------------
# semifree DG modules
# ---------------------------------------------------------------------------

class DGModule:
    """Free A-module on generators with integer degrees, plus a differential.

    d(gen_j) = sum_i diff[i][j] * gen_i with entries in A of the degree
    forced by deg(gen_j) - n - deg(gen_i); d^2 = 0 checked symbolically.
    """

    def __init__(self, alg, gen_degrees, diff=None, check=True):
        self.alg = alg
        self.gen_degrees = list(gen_degrees)
        g = len(self.gen_degrees)
        if diff is None:
            diff = [[alg.zero() for _ in range(g)] for _ in range(g)]
        self.diff = [list(row) for row in diff]
        if check:
            self._validate()

    def _validate(self):
        alg = self.alg
        g = len(self.gen_degrees)
        for i in range(g):
            for j in range(g):
                x = self.diff[i][j]
                if x.is_zero:
                    continue
                want = self.gen_degrees[j] - alg.n - self.gen_degrees[i]
                if x.degree() != want:
                    raise ShapeMismatch(
                        f"differential entry ({i},{j}) has degree {x.degree()}, expected {want}"
                    )
        for j in range(g):
            dd = self.apply_diff({j: alg.one()})
            ddd = self.apply_diff(dd)
            if any(not x.is_zero for x in ddd.values()):
                raise ShapeMismatch(f"d^2 != 0 on generator {j}")

    def apply_diff(self, elem, truncate=True):
        """elem: {gen index: A-element}; returns d(elem) in the same form."""
        alg = self.alg
        out = {}
        for j, x in elem.items():
            if x.is_zero:
                continue
            dx = alg.differential(x, truncate=truncate)
            if not dx.is_zero:
                out[j] = out.get(j, alg.zero()) + dx
            # sign (-1)^{n|x|} from the Leibniz rule on x * gen_j
            deg = x.degree()
            sign = -1 if (alg.n * deg) % 2 else 1
            for i in range(len(self.gen_degrees)):
                entry = self.diff[i][j]
                if entry.is_zero:
                    continue
                contrib = alg.multiply(x, entry, truncate=truncate) * sign
                if not contrib.is_zero:
                    out[i] = out.get(i, alg.zero()) + contrib
        return {k: v for k, v in out.items() if not v.is_zero}

    def __repr__(self):
        return f"DGModule(degrees={self.gen_degrees})"


def algebra_module(alg):
    """A as a DG module over itself."""
    return DGModule(alg, [0])


def shift(M, j):
    """Degrees shifted by j; differential scaled by (-1)^j."""
    sign = -1 if j % 2 else 1
    diff = [[x * sign for x in row] for row in M.diff]
    return DGModule(M.alg, [d + j for d in M.gen_degrees], diff, check=False)


class DGMap:
    """Degree-0 chain map between semifree modules, entries in A."""

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = [list(row) for row in matrix]
        if check:
            self._validate()

    def _validate(self):
        alg = self.source.alg
        gs = len(self.source.gen_degrees)
        gt = len(self.target.gen_degrees)
        if len(self.matrix) != gt or any(len(r) != gs for r in self.matrix):
            raise ShapeMismatch("map matrix shape mismatch")
        for i in range(gt):
            for j in range(gs):
                x = self.matrix[i][j]
                if x.is_zero:
                    continue
                want = self.source.gen_degrees[j] - self.target.gen_degrees[i]
                if x.degree() != want:
                    raise ShapeMismatch(f"map entry ({i},{j}) has wrong degree")
        for j in range(gs):
            lhs = self.apply(self.source.apply_diff({j: alg.one()}))
            rhs = self.target.apply_diff(self.apply({j: alg.one()}))
            if _elem_sub(alg, lhs, rhs):
                raise NotChainMap(f"map does not commute with d on generator {j}")

    def apply(self, elem):
        alg = self.source.alg
        out = {}
        for j, x in elem.items():
            for i in range(len(self.target.gen_degrees)):
                entry = self.matrix[i][j]
                if entry.is_zero:
                    continue
                contrib = alg.multiply(x, entry, truncate=True)
                if not contrib.is_zero:
                    out[i] = out.get(i, alg.zero()) + contrib
        return {k: v for k, v in out.items() if not v.is_zero}


def _elem_sub(alg, e1, e2):
    out = {}
    for k, v in e1.items():
        out[k] = v
    for k, v in e2.items():
        out[k] = out.get(k, alg.zero()) - v
    return {k: v for k, v in out.items() if not v.is_zero}


def cone(f):
    """Generators of the target followed by source generators shifted by n.

    D(n', m) = (d_N n' + f(m), (-1)^n d_M m); reproduces the displayed
    differential D(a, b) = (da + ub, (-1)^{i+n} db) for f = u: A[i] -> A.
    """
    alg = f.source.alg
    N, M = f.target, f.source
    Mn = shift(M, alg.n)
    gn, gm = len(N.gen_degrees), len(M.gen_degrees)
    degs = list(N.gen_degrees) + list(Mn.gen_degrees)
    diff = [[alg.zero() for _ in range(gn + gm)] for _ in range(gn + gm)]
    for i in range(gn):
        for j in range(gn):
            diff[i][j] = N.diff[i][j]
    for i in range(gm):
        for j in range(gm):
            diff[gn + i][gn + j] = Mn.diff[i][j]
    for i in range(gn):
        for j in range(gm):
            diff[i][gn + j] = f.matrix[i][j]
    return DGModule(alg, degs, diff, check=True)


# ---------------------------------------------------------------------------
# degree-slice homology
# ---------------------------------------------------------------------------

def slice_basis(M, q):
    """Monomial basis (gen index, (t, e, m)) of the degree-q slice, m <= W."""
    alg = M.alg
    out = []
    for j, gd in enumerate(M.gen_degrees):
        rest = q - gd
        for e in (0, 1):
            for m in range(alg.weight + 1):
                r = rest - e * alg.adeg - m * alg.i
                if alg.vdeg != 0:
                    if r % alg.vdeg == 0:
                        out.append((j, (r // alg.vdeg, e, m)))
                else:
                    if r == 0:
                        out.append((j, (0, e, m)))
    return out


def slice_coords(elem, pos, p):
    """Coordinates of {gen index: A-element} in a slice basis given as
    {(gen index, monomial): position}; terms off the slice are dropped."""
    out = [0] * len(pos)
    for j, x in elem.items():
        for k, c in x.terms.items():
            idx = pos.get((j, k))
            if idx is not None:
                out[idx] = (out[idx] + c) % p
    return out


def slice_element(alg, basis, vec):
    """The module element {gen index: A-element} with coordinates vec."""
    terms = {}
    for (j, key), c in zip(basis, vec):
        if c:
            terms.setdefault(j, {})[key] = c
    return {j: DGElement(alg, t) for j, t in terms.items()}


def _slice_matrix(M, src_basis, tgt_basis):
    """Matrix of d from the src slice to the tgt slice over F_p, as an array
    of shape (target, source)."""
    # terms truncated past the weight bound are dropped; the reliability
    # filter of the homology excludes the affected classes
    pos = {key: idx for idx, key in enumerate(tgt_basis)}
    cols = [slice_coords(M.apply_diff({j: DGElement(M.alg, {key: 1})}), pos, M.alg.p)
            for j, key in src_basis]
    return _columns(cols, len(tgt_basis))


def _columns(vectors, size):
    """The matrix with these coordinate vectors of length size as columns."""
    return np.array(vectors, dtype=np.int64).reshape(len(vectors), size).T


def _slice_homology(alg, basis, d_here, d_above, padding):
    """Homology record of one slice from d_here (to the slice n below) and
    d_above (from the slice n above), both arrays of shape (target, source).

    Representatives are cycles supported on u-weights <= W - padding; of
    these, a cycle is kept when it lies outside the span of the boundaries
    and the cycles kept before it, i.e. when its column is a pivot of one
    echelon form of [im | ker_low].
    """
    p, size = alg.p, len(basis)
    if d_here.shape[0]:
        ker = linalg.modp_kernel(d_here.tolist(), p)
    else:
        ker = [[int(a == b) for a in range(size)] for b in range(size)]
    im = [col for col in d_above.T.tolist() if any(col)]
    # reliability: intersect the cycles with the low-weight coordinates
    high = [idx for idx, (_, (_, _, m)) in enumerate(basis) if m > alg.weight - padding]
    ker_low = ker
    if ker and high:
        ker_low = []
        for comb in linalg.modp_kernel([[v[idx] for v in ker] for idx in high], p):
            vec = [0] * size
            for c, v in zip(comb, ker):
                if c:
                    vec = [(x + c * y) % p for x, y in zip(vec, v)]
            if any(vec):
                ker_low.append(vec)
    reps = []
    if ker_low:
        _, pivots = linalg.modp_rref(_columns(im + ker_low, size), p)
        reps = [ker_low[c - len(im)] for c in pivots if c >= len(im)]
    return {"dim": len(reps), "reps": reps, "basis": basis, "im": im}


def _slices(M, degrees, padding):
    """Homology records of M at the given degrees; every slice basis and
    slice differential is built once (d_above at q is d_here at q + n)."""
    n = M.alg.n
    near = {q + s for q in degrees for s in (0, n)}
    bases = {q: slice_basis(M, q) for q in near | {q - n for q in near}}
    diffs = {q: _slice_matrix(M, bases[q], bases[q - n]) for q in near}
    return {q: _slice_homology(M.alg, bases[q], diffs[q], diffs[q + n], padding) for q in degrees}


def _free_homology(M, window, padding):
    """Homology of a module with zero differential: its slice complex is the
    direct sum over generators j of A at degree q - deg(gen_j), so each slice
    is assembled from H(A), computed once per degree on the algebra."""
    alg = M.alg
    lo, hi = window
    known = alg.algebra_slices.setdefault(padding, {})
    missing = sorted({q - gd for q in range(lo, hi + 1) for gd in M.gen_degrees} - known.keys())
    known.update(_slices(DGModule(alg, [0], check=False), missing, padding))
    out = {}
    for q in range(lo, hi + 1):
        blocks = [(j, known[q - gd]) for j, gd in enumerate(M.gen_degrees)]
        size = sum(len(H["basis"]) for _, H in blocks)
        basis, reps, im = [], [], []
        for j, H in blocks:
            before = [0] * len(basis)
            after = [0] * (size - len(basis) - len(H["basis"]))
            reps += [before + v + after for v in H["reps"]]
            im += [before + v + after for v in H["im"]]
            basis += [(j, key) for _, key in H["basis"]]
        out[q] = {"dim": len(reps), "reps": reps, "basis": basis, "im": im}
    return out


def homology(M, window, padding=PADDING):
    """Per-degree homology data in the window.

    Returns {q: {"dim", "reps", "basis", "im"}}: reps are coordinate vectors
    of representative cycles supported on reliable u-weights, im spans the
    boundaries, both in the monomial basis of the slice.
    """
    alg = M.alg
    lo, hi = window
    if lo > hi:
        raise WindowEmpty("empty degree window")
    if alg.i != 0 and alg.weight < (hi - lo) + 2 * padding:
        raise WindowTooWideForWeightBound(
            f"weight bound {alg.weight} too small for window span {hi - lo}"
        )
    if all(x.is_zero for row in M.diff for x in row):
        return _free_homology(M, window, padding)
    return _slices(M, range(lo, hi + 1), padding)


def class_coordinates(Hq, p, cycles):
    """Matrix whose column c holds the coordinates of cycles[c] in the chosen
    representative basis of H_q, from one echelon form of [reps | im | cycles].

    The reps are independent modulo im and come first, so they are the first
    pivots, and each cycle column of the echelon form starts with its class
    coordinates.
    """
    reps, im = Hq["reps"], Hq["im"]
    k, lead = len(reps), len(reps) + len(im)
    if not cycles or not lead:
        return [[0] * len(cycles) for _ in range(k)]
    R, pivots = linalg.modp_rref(_columns(reps + im + cycles, len(Hq["basis"])), p)
    if pivots and pivots[-1] >= lead:
        raise ShapeMismatch("cycle is not in the span of representatives and boundaries")
    return R[:k, lead:].tolist()


def u_action_matrix(M, H, q):
    """Matrix of left multiplication by u: H_q -> H_{q+i}."""
    alg = M.alg
    Hq, Ht = H[q], H[q + alg.i]
    pos = {key: idx for idx, key in enumerate(Ht["basis"])}
    u = alg.gen_u()
    images = []
    for vec in Hq["reps"]:
        elem = slice_element(alg, Hq["basis"], vec)
        images.append(slice_coords(
            {j: alg.multiply(u, x, truncate=True) for j, x in elem.items()}, pos, alg.p))
    return class_coordinates(Ht, alg.p, images)


def homology_is_free_rank_one(M, window, padding=PADDING):
    """H(M) free of rank 1 over k[x]/(x^2), x acting as the class of u."""
    alg = M.alg
    H = homology(M, window, padding)
    lo, hi = window
    # expected slice dimensions of one exterior generator placed in degree 0
    def expected(q):
        if alg.vdeg != 0:
            if q % alg.vdeg == 0:
                hits = 1
            else:
                hits = 0
            if (q - alg.i) % alg.vdeg == 0:
                hits += 1
            return hits
        if alg.i == 0:
            return 2 if q == 0 else 0
        return 1 if q in (0, alg.i) else 0

    for q in range(lo, hi + 1):
        if H[q]["dim"] != expected(q):
            return False
    # x acts isomorphically generator -> generator*x and squares to zero
    q0 = 0
    if lo <= q0 <= hi and lo <= q0 + alg.i <= hi:
        A1 = u_action_matrix(M, H, q0)
        if linalg.modp_rank(A1, alg.p) != 1:
            return False
        if lo <= q0 + 2 * alg.i <= hi:
            A2 = u_action_matrix(M, H, q0 + alg.i)
            # x^2 = 0 on homology
            if any(map(any, linalg.modp_matmul(A2, A1, alg.p))):
                return False
    return True
