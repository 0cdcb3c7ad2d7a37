"""The two-generator differential graded algebra and its semifree modules.

A = k<a, u> / (a^2, au + ua + v) with |u| = i, |a| = 2i + n, |v| = 3i + n,
da = u^2, du = 0, and the signed Leibniz rule d(xy) = d(x)y + (-1)^{n|x|}xd(y).
Normal-form monomials are v^t a^eps u^m with eps in {0, 1}; the rewriting
rules a*a -> 0 and u*a -> -a*u - v terminate and are confluent, and the
products of normal forms are stated in closed form (`_mul_monomials`).

d is well defined when it kills both relations: d(a^2) = (1 + (-1)^n) a u^2
and d(ua + au + v) = (1 + (-1)^{ni}) u^3.  So for odd p both n and i must be
odd, and the constructor raises ParityObstruction otherwise.

The algebra has one representation: its degree slices over F_p, with
u-weights m <= W, where W >= 4.  Elements appear only as term dicts
{(t, eps, m): c} (`DGElement`), the entries of module differentials and
maps; every product and differential acts through slice matrices.  Each
algebra caches the monomial basis of its slice A_s and, per slice, the
matrices of d_A and of multiplication by a monomial, held only as their
nonzero cells, read off the closed forms (`_algebra_cells`,
`rings.per_object`).  The degree-q slice of a semifree module is the direct
sum over generators j of A_{q - deg(gen_j)}, so its differential is a block
matrix: d_A on the diagonal blocks, and in block (i, j) right
multiplication by diff[i][j] times the Leibniz sign (-1)^{n s}, s being the
degree of every coefficient in the block.  It is held only as sparse rows,
added from its nonzero cells, those of d_A and of each term of each nonzero
entry, at their block's offsets (`_slice_rows`); `slice_differential` makes
its array from them on demand.  Its column of 1 * gen_j at deg(gen_j), the
first of block j, is d(gen_j), and d^2 = 0 is checked on the rows.

Every F_p array here, from a map slice to a homology record and an induced
matrix, is 2-D int64 with entries in [0, p) (the builder admits only primes
whose entries fit, `linalg.int_dtype`), multiplied only by `modp_matmul`.
Homology is computed slice by slice from the sparse rows of the slice
differentials, by one echelon basis that picks the representative cycles
and yields the coordinate map [P; Z], one array (`_slice_homology`), so
class coordinates are one product (`modp_matmul`) and an induced matrix on
homology two; Z decides span(reps, boundaries).  A record {"dim", "reps",
"coords"} is shared, so its arrays are read-only.  A module with zero
differential (a free module, its shifts, the cone of a zero map) assembles
its records from those of H(A), in one pass (`_free_record`).
A map is checked by its cone, made once per map, which squares to zero
exactly for a chain map, and its slice matrices are filled from blocks of
the cone's slice rows (`map_slice`).

Periodicity: when |v| != 0, the slice bases at q and q + k|v| differ only in
the v-exponents t, shifted by k, because the basis of A_s depends on t only
through s, products add t and the weight bound reads only m.  So the slice
matrices at q + k|v| are those at q, except that d gains the sign
(-1)^{n|v|k}, which is +1 in every model that builds (for odd p the parity
check forces i and n odd, so |v| is even; for p = 2 every sign is +1).
Every slice-level object is therefore made once per module and residue
class (`residue`: q mod |v|, or q when |v| = 0) and shared by every degree
of the class: the sparse slice rows, which the d^2 = 0 checks of a module
and of a cone, the map slices and the elimination all read, and the
homology records, eliminated or assembled.  So the records of M on the
window shifted by n, which read as those of M[n], are those of M on the
window when it spans a period: a record holds no basis, only arrays over
it, so transport is sharing.

Weight: slices keep u-weights m <= W, dropping the terms past it.  A
product lowers the weight by at most 1 (u^m a = -a u^m - v u^{m-1}), so
`calculus_holds` compares below weight W, where truncated products are
exact.  Lifted entries (`triangles`) have weight <= 1 and no a, so on free
modules and their cones d raises the weight by 0, 1 or 2: truncation is a
quotient complex, and a cycle of weight <= W - PADDING is one before it.
Every class has a cycle of weight <= 1 (in a cone, z of A[n] plus b of
weight 0 with d(b) = -f(z)), and a cycle of weight >= 4 bounds (u^m =
d(a u^{m-2}); a cone's, up to that, lies in B at weight >= 2), so for
W >= 3 `homology` keeps exactly the true classes.  So triangles build a
model at MIN_WEIGHT = 4, the builder's floor, for every window (the tests'
records oracles pin the echelon's choices), but when |v| = 0 and |x| != 0
a slice holds one weight per a-exponent: `homology` bounds the window by
W - 2 PADDING, and triangles build at W = span + 2 PADDING.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg
from . import rings as rc
from .errors import (
    NotChainMap,
    ParityObstruction,
    ShapeMismatch,
    UnsupportedCoefficients,
    WeightOverflow,
    WindowEmpty,
    WindowTooWideForWeightBound,
)

DEFAULT_WEIGHT = 16
MIN_WEIGHT = 4
PADDING = 2


class DGElement:
    """Finite sum of monomials v^t a^eps u^m: the term dict {(t, eps, m): c}
    with coefficients reduced mod p."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = {key: c % alg.p for key, c in terms.items() if c % alg.p}

    @property
    def is_zero(self):
        return not self.terms


class DGAlgebra:
    """The two-generator algebra at parameters (p, i, n): degrees and the
    closed-form product and differential of normal-form monomials."""

    def __init__(self, p, i, n, weight=DEFAULT_WEIGHT):
        self.p = p
        self.i = i
        self.n = n
        self.weight = weight
        self.vdeg = 3 * i + n
        self.adeg = 2 * i + n
        # slice bases, slice cells and H(A), see rings.per_object
        self._cache = {}

    def monomial_degree(self, t, e, m):
        return t * self.vdeg + e * self.adeg + m * self.i

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

    def _diff_monomial(self, k):
        """d(v^t a u^m) = (-1)^{n * t * |v|} v^t u^{m+2}; d(v^t u^m) = 0."""
        t, e, m = k
        if not e:
            return {}
        return {(t, 0, m + 2): -1 if (self.n * t * self.vdeg) % 2 else 1}


def build_two_generator_dga(p, i, n, weight=DEFAULT_WEIGHT):
    """Validated algebra; raises ParityObstruction when d is ill-defined (see
    the module docstring), WeightOverflow when the weight bound is below
    MIN_WEIGHT, so that every product of four generators, up to u^4, is kept,
    and UnsupportedCoefficients when the entries of F_p, which the DG path
    holds in int64 arrays, do not fit int64 (`linalg.int_dtype`)."""
    if p < 2 or not linalg.is_prime(p):
        raise ShapeMismatch("coefficient field must be a prime field")
    if linalg.int_dtype(p) is not np.int64:
        raise UnsupportedCoefficients(f"prime {p} too large for int64 elimination")
    where = f"differential not well-defined at (p={p}, i={i}, n={n})"
    if p != 2 and n % 2 == 0:
        raise ParityObstruction(f"{where}: d(a*a) != 0")
    if p != 2 and n * i % 2 == 0:
        raise ParityObstruction(f"{where}: d(ua+au+v) != 0")
    if weight < MIN_WEIGHT:
        raise WeightOverflow(f"u-exponent {max(weight + 1, 0)} exceeds bound {weight}")
    return DGAlgebra(p, i, n, weight)


# ---------------------------------------------------------------------------
# slices of A and their matrices
# ---------------------------------------------------------------------------

def residue(alg, q):
    """The residue class of degree q: q mod |v|, or q when |v| = 0.  Slices
    and records of degrees in one class coincide (see the module docstring)."""
    return q % abs(alg.vdeg) if alg.vdeg else q


@rc.per_object
def _algebra_basis(alg, s):
    """Monomials (t, e, m) of A in degree s with m <= W, ordered by (e, m),
    as the map {monomial: row}."""
    basis = {}
    for e in (0, 1):
        for m in range(alg.weight + 1):
            r = s - e * alg.adeg - m * alg.i
            if alg.vdeg != 0:
                if r % alg.vdeg == 0:
                    basis[(r // alg.vdeg, e, m)] = len(basis)
            elif r == 0:
                basis[(0, e, m)] = len(basis)
    return basis


@rc.per_object
def _algebra_cells(alg, s, key=None, left=False):
    """Matrix on A_s over F_p as its nonzero cells (row, column, entry), in
    the basis of its target slice: d_A when key is None, else x -> x * key,
    or key * x when left.  Terms past the weight bound are dropped."""
    src = _algebra_basis(alg, s)
    if key is None:
        images = [alg._diff_monomial(k) for k in src]
        target = s - alg.n
    else:
        images = [alg._mul_monomials(key, k) if left else alg._mul_monomials(k, key) for k in src]
        target = s + alg.monomial_degree(*key)
    pos = _algebra_basis(alg, target)
    return [(pos[k], col, x) for col, terms in enumerate(images) for k, c in terms.items()
            if k in pos and (x := c % alg.p)]


def calculus_holds(alg, s, key):
    """The Leibniz rule d(xy) = d(x) y + (-1)^{ns} x d(y) for every x in A_s
    and y the monomial key, and d(d(x)) = 0, as identities of slice matrices:
    D R_y = R_y D + (-1)^{ns} R_{dy}, and D D = 0.  Leibniz is compared on the
    target monomials of u-weight below W (see the module docstring)."""
    p, n, deg = alg.p, alg.n, alg.monomial_degree(*key)

    def matrix(s, key=None):
        # the array of `_algebra_cells`, of shape (target, source)
        target = s - n if key is None else s + alg.monomial_degree(*key)
        return linalg._from_cells((len(_algebra_basis(alg, target)), len(_algebra_basis(alg, s))),
                                  _algebra_cells(alg, s, key))

    d = matrix(s)
    # every term is reduced before it is subtracted, so no entry leaves (-p, p)
    gap = (linalg.modp_matmul(matrix(s + deg), matrix(s, key), p) - linalg.modp_matmul(matrix(s - n, key), d, p)) % p
    for k, c in alg._diff_monomial(key).items():
        gap -= (-c if n * s % 2 else c) * matrix(s, k) % p
    low = [r for r, (_, _, m) in enumerate(_algebra_basis(alg, s + deg - n)) if m < alg.weight]
    return not (gap[low] % p).any() and not linalg.modp_matmul(matrix(s - n), d, p).any()


# ---------------------------------------------------------------------------
# semifree DG modules
# ---------------------------------------------------------------------------

def _check_entries(matrix, alg, col_degrees, row_degrees, what):
    """matrix must have a row per row degree and a column per column degree,
    and entry (i, j) must lie over alg, with every term of degree
    col_degrees[j] - row_degrees[i]."""
    if len(matrix) != len(row_degrees) or any(len(row) != len(col_degrees) for row in matrix):
        raise ShapeMismatch(f"{what} matrix shape mismatch")
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x.alg is not alg:
                raise ShapeMismatch(f"{what} entry ({i},{j}) over another algebra")
            want = col_degrees[j] - row_degrees[i]
            for key in x.terms:
                got = alg.monomial_degree(*key)
                if got != want:
                    raise ShapeMismatch(f"{what} entry ({i},{j}) has a term of degree {got}, expected {want}")


def _d_squared_nonzero(M, gens):
    """The generators j among gens with d(d(gen_j)) != 0: d(gen_j), the column
    of 1 * gen_j in the slice rows at deg(gen_j), times the rows n below."""
    for j in gens:
        if any(row[j].terms for row in M.diff):
            q = M.gen_degrees[j]
            # 1 = (0, 0, 0) leads the basis of A_0, block j of the slice
            c = _slice_offsets(M, q)[j]
            d_gen = {r: row[c] for r, row in enumerate(_slice_rows(M, q)) if c in row}
            if any(sum(x * d_gen.get(k, 0) for k, x in row.items()) % M.alg.p for row in _slice_rows(M, q - M.alg.n)):
                yield j


class DGModule:
    """Free A-module on generators with integer degrees, plus a differential.

    d(gen_j) = sum_i diff[i][j] * gen_i with entries in A of the degree
    forced by deg(gen_j) - n - deg(gen_i), and d^2 = 0.
    """

    def __init__(self, alg, gen_degrees, diff=None, check=True):
        self.alg = alg
        self.gen_degrees = list(gen_degrees)
        # sparse slice rows and homology records, see rings.per_object
        self._cache = {}
        g = len(self.gen_degrees)
        if diff is None:
            diff = [[DGElement(alg, {})] * g] * g
        self.diff = [list(row) for row in diff]
        if check:
            _check_entries(self.diff, alg, self.gen_degrees, [gd + alg.n for gd in self.gen_degrees],
                           "differential")
            for j in _d_squared_nonzero(self, range(g)):
                raise ShapeMismatch(f"d^2 != 0 on generator {j}")

    def __repr__(self):
        return f"DGModule(degrees={self.gen_degrees})"


def algebra_module(alg):
    """A as a DG module over itself."""
    return DGModule(alg, [0])


def shift(M, j):
    """Degrees shifted by j through the suspension x gen -> (-1)^{j|x|} x gen':
    entry e = diff[i][k] is scaled by (-1)^{j(n + |e|)} = (-1)^{j(deg gen_k - deg gen_i)}."""
    degs = M.gen_degrees
    diff = [[DGElement(M.alg, {key: -c if j * (degs[k] - degs[i]) % 2 else c for key, c in x.terms.items()})
             if x.terms else x for k, x in enumerate(row)] for i, row in enumerate(M.diff)]
    return DGModule(M.alg, [d + j for d in degs], diff, check=False)


class DGMap:
    """Degree-0 map between semifree modules, entries in A; with check, a
    chain map, which its cone checks."""

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = [list(row) for row in matrix]
        # the cone, see rings.per_object
        self._cache = {}
        if check:
            cone(self)


@rc.per_object
def cone(f):
    """Generators of the target followed by source generators shifted by n;
    one module per map.

    D(n', m) = (d_N n' + f(m), d_{M[n]} m), M[n] as in `shift`; reproduces
    the displayed differential D(a, b) = (da + ub, (-1)^{i+n} db) for
    f = u: A[i] -> A.  Given d^2 = 0 on M and N, D^2 = 0 exactly when f is
    a chain map, so f is checked here: one algebra, the shape and degrees
    of its entries, then D^2 on the shifted source generators.
    """
    alg, N = f.source.alg, f.target
    if N.alg is not alg:
        raise ShapeMismatch("map source and target over different algebras")
    _check_entries(f.matrix, alg, f.source.gen_degrees, N.gen_degrees, "map")
    Mn = shift(f.source, alg.n)
    zeros = [DGElement(alg, {})] * len(N.gen_degrees)
    diff = [dn + fn for dn, fn in zip(N.diff, f.matrix)] + [zeros + dm for dm in Mn.diff]
    C = DGModule(alg, N.gen_degrees + Mn.gen_degrees, diff, check=False)
    for j in _d_squared_nonzero(C, range(len(N.gen_degrees), len(C.gen_degrees))):
        raise NotChainMap(f"map does not commute with d on generator {j - len(N.gen_degrees)}")
    return C


def map_slice(f, q):
    """Matrix of f from the degree-q slice of its source to that of its
    target, as an array of shape (target, source), filled from the sparse
    slice rows of cone(f) at q + n; f must be a chain map.

    The cone's slice at q + n is B_{q+n} followed by (A[n])_{q+n} = A_q, so
    the block of its rows from the A[n] columns to the B rows is f on A_q
    with each source block j, of degree s_j = q - deg(gen_j), multiplied by
    the Leibniz sign (-1)^{n s_j}; the entries of the blocks where n s_j is
    odd are negated back as they are read.
    """
    alg = f.source.alg
    rows, start = _slice_offsets(f.target, q)[-1], _slice_offsets(f.target, q + alg.n)[-1]
    odd = odd_blocks(f.source, q, alg.n)
    cells = [(r, c - start, -x % alg.p if odd[c - start] else x)
             for r, row in zip(range(rows), _slice_rows(cone(f), q + alg.n)) for c, x in row.items() if c >= start]
    return linalg._from_cells((rows, len(odd)), cells)


def odd_blocks(M, q, n):
    """Per column of the degree-q slice of M, whether it lies in the block
    of a generator j with n (q - deg gen_j) odd: the columns the Leibniz
    sign of a cone on M[n] negates."""
    at = _slice_offsets(M, q)
    return [n * (q - gd) % 2 == 1 for j, gd in enumerate(M.gen_degrees) for _ in range(at[j], at[j + 1])]


# ---------------------------------------------------------------------------
# degree-slice matrices and homology
# ---------------------------------------------------------------------------

def slice_basis(M, q):
    """Monomial basis (gen index, (t, e, m)) of the degree-q slice, m <= W."""
    return [(j, key) for j, gd in enumerate(M.gen_degrees) for key in _algebra_basis(M.alg, q - gd)]


@rc.per_object
def _slice_offsets(M, q):
    """Where each generator's block starts in the degree-q slice of M, then its size."""
    r = residue(M.alg, q)
    return _slice_offsets(M, r) if r != q else \
        list(itertools.accumulate((len(_algebra_basis(M.alg, q - gd)) for gd in M.gen_degrees), initial=0))


@rc.per_object
def _slice_rows(M, q):
    """The slice differential at q as sparse rows {column: nonzero entry}, made once per
    residue class from the nonzero cells (see the module docstring): per term c * key of
    diff[i][j], the cells of y -> y * key on A_s times c (-1)^{n s}, s = q - deg(gen_j)."""
    # terms truncated past the weight bound are dropped; the reliability
    # filter of the homology excludes the affected classes
    alg, r = M.alg, residue(M.alg, q)
    if r != q:
        return _slice_rows(M, r)
    p, row_at, col_at = alg.p, _slice_offsets(M, q - alg.n), _slice_offsets(M, q)
    rows = [{} for _ in range(row_at[-1])]
    cells = [(j, j, 1, None) for j in range(len(M.gen_degrees))] + \
        [(i, j, c, key) for i, row in enumerate(M.diff) for j, x in enumerate(row) if x.terms
         for key, c in x.terms.items()]
    for i, j, c, key in cells:
        s, r0, c0 = q - M.gen_degrees[j], row_at[i], col_at[j]
        if key and alg.n * s % 2:
            c = -c
        for r, k, x in _algebra_cells(alg, s, key):
            out, k = rows[r0 + r], k + c0
            if y := (out.get(k, 0) + c * x) % p:
                out[k] = y
            else:
                del out[k]
    return rows


def slice_differential(M, q):
    """Matrix of d from the degree-q slice of M to the slice q - n, as a
    read-only array of shape (target, source), made on demand from the
    slice's sparse rows (`_slice_rows`)."""
    rows = _slice_rows(M, q)
    out = linalg._from_cells((len(rows), _slice_offsets(M, q)[-1]),
                             [(r, c, x) for r, row in enumerate(rows) for c, x in row.items()])
    out.flags.writeable = False
    return out


def _slice_homology(M, q):
    """Homology record of M in degree q from the sparse rows of d_here, the
    slice differential at q (to the slice n below), and the nonzero columns
    of d_above, that at q + n (from the slice n above).

    Representatives are cycles supported on u-weights <= W - PADDING: the
    reduced-echelon kernel basis, in the slice's own columns, of d_here cut
    to the low-weight ones (unique, so that of the low-weight cycles).  One
    echelon basis takes the boundaries, then each cycle k tagged by a 1 at
    column size + k (`linalg._echelon_insert`), and keeps it when it gets a
    pivot below size: when it lies outside the span of the boundaries and
    the cycles kept before it.  A held row (x, t) has x = sum_k t_k cycle_k
    modulo the boundaries, so the coordinate map coords = [P; Z] stacks P,
    the tags at the pivots, over Z, the kernel basis of the rows x: z lies
    in span(reps, boundaries) iff Z z = 0, and then P z holds its coordinates.

    Rows stay sparse, {column: entry}, from the kernel to the record: the
    cycles are read off the kernel's held basis (`linalg._kernel_rows`) and
    tagged in place, and reps and coords (P[i, c] is the tag of kept cycle i
    in the held row of pivot c) are filled from the held rows' nonzeros.
    """
    alg, basis = M.alg, slice_basis(M, q)
    p, size = alg.p, len(basis)
    # reliability: the cycles supported on the low-weight coordinates.  d_here
    # cut to those columns vanishes on the others, whose kernel rows are their
    # unit vectors
    low = {idx for idx, (_, (_, _, m)) in enumerate(basis) if m <= alg.weight - PADDING}
    cut = ({c: x for c, x in row.items() if c in low} for row in _slice_rows(M, q))
    ker = [row for f, row in linalg._kernel_rows(linalg._echelon_of_rows(cut, p, size), size, p).items() if f in low]
    cols = {}
    for r, row in enumerate(_slice_rows(M, q + alg.n)):
        for c, x in row.items():
            cols.setdefault(c, {})[r] = x
    held, kept = linalg._echelon_of_rows(cols.values(), p, size), []
    for k, row in enumerate(ker):
        if linalg._echelon_insert(held, row | {size + k: 1}, p, size) is not None:
            kept.append(k)
    dim, tag = len(kept), {size + k: i for i, k in enumerate(kept)}
    reps = linalg._from_cells((dim, size), [(i, j, x) for i, k in enumerate(kept) for j, x in ker[k].items()])
    K = linalg._kernel_rows(held, size, p).values()
    coords = linalg._from_cells((dim + len(K), size),
                                [(tag[j], c, x) for c, row in held.items() for j, x in row.items() if j in tag]
                                + [(dim + r, j, x) for r, row in enumerate(K) for j, x in row.items()])
    return _read_only({"dim": dim, "reps": reps, "coords": coords})


def _read_only(record):
    """The record with its arrays made read-only, as shared objects are."""
    for key in ("reps", "coords"):
        record[key].setflags(write=False)
    return record


@rc.per_object
def _algebra_homology(alg, s):
    """Homology record of A as a module over itself in degree s: the record
    of its residue class (see the module docstring)."""
    r = residue(alg, s)
    return _algebra_homology(alg, r) if r != s else _slice_homology(DGModule(alg, [0], check=False), s)


@rc.per_object
def _homology_record(M, q):
    """Homology record of M in degree q: the record of its residue class,
    made once per module (see the module docstring).  A module with zero
    differential takes it from those of H(A) (`_algebra_homology`): its
    slice complex is the direct sum over generators j of A at degree
    q - deg(gen_j).  With one generator that is the H(A) record itself, and
    with several it is assembled block-diagonally, coords as the blocks' P's
    over their Z's."""
    alg, r = M.alg, residue(M.alg, q)
    if r != q:
        return _homology_record(M, r)
    if any(x.terms for row in M.diff for x in row):
        return _slice_homology(M, q)
    blocks = [_algebra_homology(alg, q - gd) for gd in M.gen_degrees]
    return blocks[0] if len(blocks) == 1 else _free_record(blocks)


def _free_record(blocks):
    """The record of the direct sum of the records blocks, in one pass:
    reps block-diagonal, coords the blocks' P's over their Z's."""
    dim, size = sum(H["dim"] for H in blocks), sum(H["reps"].shape[1] for H in blocks)
    reps, coords = (np.zeros((sum(len(H[key]) for H in blocks), size), dtype=np.int64) for key in ("reps", "coords"))
    # the next row of reps (and of P in coords) and of Z; the next column
    r, z, c = 0, dim, 0
    for H in blocks:
        (d, w), PZ = H["reps"].shape, H["coords"]
        reps[r:r + d, c:c + w], coords[r:r + d, c:c + w] = H["reps"], PZ[:d]
        coords[z:z + len(PZ) - d, c:c + w] = PZ[d:]
        r, z, c = r + d, z + len(PZ) - d, c + w
    return _read_only({"dim": dim, "reps": reps, "coords": coords})


def homology(M, window):
    """Per-degree homology data in the window.

    Returns {q: {"dim", "reps", "coords"}}.  reps, of shape (dim, size)
    for size = len(slice_basis(M, q)), holds representative cycles
    supported on reliable u-weights as rows; coords, of width size, is the
    coordinate map [P; Z] of class_coordinates, P its first dim rows and Z
    vanishing exactly on span(reps, boundaries).  The arrays are read-only,
    and degrees |v| apart share one record.
    """
    alg = M.alg
    lo, hi = window
    if lo > hi:
        raise WindowEmpty("empty degree window")
    if not alg.vdeg and alg.i and alg.weight < (hi - lo) + 2 * PADDING:
        raise WindowTooWideForWeightBound(f"weight bound {alg.weight} too small for window span {hi - lo}")
    H, period = {}, abs(alg.vdeg)
    for q in range(lo, hi + 1):
        H[q] = H[q - period] if period and q - period >= lo else _homology_record(M, residue(alg, q))
    return H


def class_coordinates(Hq, p, cycles):
    """Array of shape (dim, len(cycles)) whose column c holds the
    coordinates of the cycle cycles[c], a row of the array cycles, in the
    representative basis of H_q: P C, read off the one product [P; Z] C of
    the record's coordinates and C = cycles.T, after checking Z C = 0."""
    out = linalg.modp_matmul(Hq["coords"], cycles.T, p)
    if out[Hq["dim"]:].any():
        raise ShapeMismatch("cycle is not in the span of representatives and boundaries")
    return out[:Hq["dim"]]


def induced_matrix(mat, Hsrc, Htgt, p):
    """Array of shape (Htgt dim, Hsrc dim): the matrix on homology of the
    slice matrix mat, from the representative basis of Hsrc to that of Htgt;
    one product, then class coordinates."""
    return class_coordinates(Htgt, p, linalg.modp_matmul(Hsrc["reps"], mat.T, p))


def u_action_matrix(M, H, q):
    """Matrix of left multiplication by u: H_q -> H_{q+i}."""
    alg, rows, cols = M.alg, _slice_offsets(M, q + M.alg.i), _slice_offsets(M, q)
    cells = [(rows[j] + r, cols[j] + c, x) for j, gd in enumerate(M.gen_degrees)
             for r, c, x in _algebra_cells(alg, q - gd, (0, 0, 1), True)]
    return induced_matrix(linalg._from_cells((rows[-1], cols[-1]), cells), H[q], H[q + alg.i], alg.p)


def homology_is_free_rank_one(M, window):
    """H(M) free of rank 1 over k[x]/(x^2), x acting as the class of u."""
    alg = M.alg
    H = homology(M, window)
    lo, hi = window
    # one exterior generator in degree 0: the classes 1 and u, each in its
    # degree mod |v|
    def expected(q):
        return sum(residue(alg, q - d) == 0 for d in (0, alg.i))

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
            if linalg.modp_matmul(A2, A1, alg.p).any():
                return False
    return True
