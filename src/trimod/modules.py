"""Finite modules over finite ungraded commutative rings.

A module is presented as R^g / (R-span of the relation columns): the public
form is `generators`, `relations` and `ring`.  Next to it each module caches
one additive form, from which every module computation is made:

* `quotient()` = (qmoduli, proj, lift): the additive group as Z/q_1 x ... x
  Z/q_r, with proj taking the flattened coordinates of R^g (g * dim(R)
  integers) to these quotient coordinates and lift taking them back;
* `action()`: one integer matrix per ring basis element, giving how that
  element acts on the quotient coordinates.

A map M -> N has hom coordinates: the images of M's generators in N's
quotient coordinates.  Hom(M, N) is the congruence kernel of "every relation
of M, applied to those images, is zero in N", with no further unknowns.
Kernels, images and factorizations are congruence systems on the matrix of
a map on quotient coordinates, and submodule spans are `linalg.Subgroup`s
extended under the action matrices.  Submodules come minimally presented in
the greedy sense: a generator or relation is kept only when the R-span of
those kept before misses it.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import linalg
from . import rings as rc
from .errors import (
    IllFormedMap,
    NotQuasiFrobenius,
    ShapeMismatch,
    SizeCapExceeded,
)
from .rings import DEFAULT_CAP


def _int_dtype(R, terms):
    """int64 when sums of `terms` products of residues below char cannot
    overflow it, exact Python integers otherwise."""
    return np.int64 if R.char ** 2 * terms < 2 ** 62 else object


def _reduce(X, moduli):
    """Reduce the rows (axis -2) of an integer array modulo the given moduli."""
    return X % np.array(moduli, dtype=X.dtype).reshape(-1, 1)


def _ring_action(R):
    """Matrices of multiplication by each basis element on full coordinates."""
    if "mult_matrices" not in R._cache:
        mats = [R.mult_matrix_full(R.basis_element(l)) for l in range(R.dim)]
        R._cache["mult_matrices"] = np.array(mats, dtype=_int_dtype(R, R.dim)).reshape(R.dim, R.dim, R.dim)
    return R._cache["mult_matrices"]


def _blockwise(mats, V):
    """mats[l] applied to every block of the columns of V, for each l; the
    block length is the size of the matrices.  Shape (len(mats), *V.shape)."""
    b = mats.shape[1]
    n, m = V.shape
    return np.matmul(mats[:, None], V.reshape(n // b, b, m)[None]).reshape(len(mats), n, m)


def _closure(mats, vecs):
    """Additive generators of the R-span of vectors made of blocks on which
    the ring basis acts by mats: every vector times every basis element."""
    if not vecs:
        return []
    V = np.array(vecs, dtype=mats.dtype).T
    return _blockwise(mats, V).transpose(0, 2, 1).reshape(len(mats) * V.shape[1], V.shape[0]).tolist()


class FiniteModule:
    """R^g modulo the R-span of a relations matrix over R."""

    def __init__(self, ring, generators, relations):
        self.ring = ring
        if ring.periodicity is not None or ring.char == 0 or any(ring.degrees):
            raise ShapeMismatch("modules require a finite ungraded coefficient ring")
        self.generators = int(generators)
        self.relations = [list(col) for col in relations]
        for col in self.relations:
            if len(col) != self.generators:
                raise ShapeMismatch("relation column length must match generator count")
        self._cache = {}

    # -- coordinates -----------------------------------------------------

    @property
    def ambient_moduli(self):
        return list(self.ring.orders) * self.generators

    def flatten(self, col):
        """Column of g ring elements -> integer vector of length g*dim."""
        out = []
        for x in col:
            out.extend(self.ring.full_coords(x))
        return out

    def unflatten(self, vec):
        D = self.ring.dim
        return [self.ring.from_full_coords(vec[i * D:(i + 1) * D]) for i in range(self.generators)]

    def quotient(self):
        """(qmoduli, proj, lift) for the underlying additive group."""
        if "quotient" not in self._cache:
            rels = _closure(_ring_action(self.ring), [self.flatten(col) for col in self.relations])
            self._cache["quotient"] = linalg.quotient_presentation(rels, self.ambient_moduli)
        return self._cache["quotient"]

    def lift_array(self):
        """lift as an integer array, reduced modulo the ambient moduli."""
        if "lift" not in self._cache:
            qm, _, lift = self.quotient()
            amb = self.ambient_moduli
            dt = _int_dtype(self.ring, len(amb) + self.ring.dim)
            self._cache["lift"] = _reduce(np.array(lift, dtype=dt).reshape(len(amb), len(qm)), amb)
        return self._cache["lift"]

    def action(self):
        """Array of shape (dim R, r, r): how each ring basis element acts on
        the r quotient coordinates."""
        if "action" not in self._cache:
            qm, proj, _ = self.quotient()
            amb = self.ambient_moduli
            L = self.lift_array()
            P = _reduce(np.array(proj, dtype=L.dtype).reshape(len(qm), len(amb)), qm)
            moved = _reduce(_blockwise(_ring_action(self.ring).astype(L.dtype), L), amb)
            self._cache["action"] = _reduce(np.matmul(P, moved), qm)
        return self._cache["action"]

    def act(self, x):
        """Matrix of multiplication by the ring element x on quotient coordinates."""
        A = self.action()
        c = np.array(self.ring.full_coords(x), dtype=A.dtype)
        return _reduce(np.tensordot(c, A, 1), self.quotient()[0])

    def coords(self, col):
        """Quotient coordinates of a column of g ring elements."""
        qm, proj, _ = self.quotient()
        return [x % m for x, m in zip(linalg.apply_matrix(proj, self.flatten(col)), qm)]

    def column(self, v):
        """A column of g ring elements with the quotient coordinates v."""
        return self.unflatten(linalg.apply_matrix(self.quotient()[2], v))

    def canonical_additive(self):
        """Multiset of cyclic orders of the additive group, sorted."""
        return tuple(sorted(self.quotient()[0]))

    def size(self):
        return math.prod(self.quotient()[0])

    def elements(self, cap=DEFAULT_CAP):
        """All elements, as flattened ambient representatives."""
        qm, _, lift = self.quotient()
        if self.size() > cap:
            raise SizeCapExceeded(f"module of size {self.size()} exceeds cap {cap}")
        for combo in itertools.product(*[range(m) for m in qm]):
            yield linalg.apply_matrix(lift, list(combo))

    def generator_columns(self):
        cols = []
        for i in range(self.generators):
            col = [self.ring.zero()] * self.generators
            col[i] = self.ring.one()
            cols.append(col)
        return cols

    def __repr__(self):
        return f"FiniteModule(g={self.generators}, rel={len(self.relations)}, over {self.ring!r})"


def free_module(R, rank):
    return FiniteModule(R, rank, [])


def quotient_module(R, ideal_gens):
    """R modulo the ideal generated by the given elements (cyclic module)."""
    return FiniteModule(R, 1, [[g] for g in ideal_gens])


def residue_module(R, cap=DEFAULT_CAP):
    """R / maximal ideal as a cyclic module."""
    m = rc.maximal_ideal(R, cap)
    return quotient_module(R, list(m.generators))


class ModuleMap:
    """Ring-matrix map between presented modules; checked on relations."""

    def __init__(self, source, target, matrix, check=True):
        self.source = source
        self.target = target
        self.matrix = [list(row) for row in matrix]  # target.generators rows
        if len(self.matrix) != target.generators or any(
            len(row) != source.generators for row in self.matrix
        ):
            raise ShapeMismatch("map matrix shape must be g_target x g_source")
        if check and not self._respects_relations():
            raise IllFormedMap("matrix does not map source relations into target relations")

    def _respects_relations(self):
        return not any(any(self.target.coords(self.apply_column(col))) for col in self.source.relations)

    def columns(self):
        """Images of the source generators, as columns over the ring."""
        return [[row[j] for row in self.matrix] for j in range(self.source.generators)]

    def apply_column(self, col):
        R = self.source.ring
        out = []
        for i in range(self.target.generators):
            acc = R.zero()
            for j in range(self.source.generators):
                acc = acc + self.matrix[i][j] * col[j]
            out.append(acc)
        return out

    def compose(self, other):
        """self . other (apply other first)."""
        if other.target is not self.source and other.target.ring != self.source.ring:
            raise ShapeMismatch("composition shape mismatch")
        R = self.source.ring
        rows = []
        for i in range(self.target.generators):
            row = []
            for j in range(other.source.generators):
                acc = R.zero()
                for k in range(self.source.generators):
                    acc = acc + self.matrix[i][k] * other.matrix[k][j]
                row.append(acc)
            rows.append(row)
        return ModuleMap(other.source, self.target, rows, check=False)

    def __repr__(self):
        return f"ModuleMap({self.source.generators} -> {self.target.generators})"


def identity_map(M):
    R = M.ring
    rows = [[R.one() if i == j else R.zero() for j in range(M.generators)] for i in range(M.generators)]
    return ModuleMap(M, M, rows, check=False)


def zero_map(M, N):
    R = M.ring
    rows = [[R.zero() for _ in range(M.generators)] for _ in range(N.generators)]
    return ModuleMap(M, N, rows, check=False)


# ---------------------------------------------------------------------------
# maps on quotient coordinates; hom groups
# ---------------------------------------------------------------------------

def _cols_to_matrix(cols, target_gens):
    """Columns (each a list of ring elements) -> row-major matrix."""
    return [[col[i] for col in cols] for i in range(target_gens)]


def _hom_coordinates(f):
    """Images of the source generators in the target's quotient coordinates,
    concatenated: the coordinates of f in Hom(source, target)."""
    return [x for col in f.columns() for x in f.target.coords(col)]


def _hom_moduli(M, N):
    return list(N.quotient()[0]) * M.generators


def _map_from_images(M, N, v):
    """The map M -> N with hom coordinates v."""
    r = len(N.quotient()[0])
    cols = [N.column(v[j * r:(j + 1) * r]) for j in range(M.generators)]
    return ModuleMap(M, N, _cols_to_matrix(cols, N.generators), check=False)


def _map_matrix(f):
    """The matrix of f on quotient coordinates: images of the source's
    additive generators (its quotient unit vectors) in the target's."""
    M, N = f.source, f.target
    A = N.action()
    r, n = A.shape[1], len(M.ambient_moduli)
    W = np.array(_hom_coordinates(f), dtype=A.dtype).reshape(M.generators, r).T
    # images of b_l e_j, in column j*dim + l like the flattened coordinates
    moved = _reduce(np.matmul(A, W).transpose(1, 2, 0).reshape(r, n), N.quotient()[0])
    return _reduce(moved @ M.lift_array(), N.quotient()[0])


def _combination_rows(cols, N):
    """Matrix of (n_1..n_g) -> sum_j c_j n_j in N's quotient coordinates, with
    each n_j in quotient coordinates; one block of rows per column c."""
    A = N.action()
    empty = np.zeros((A.shape[1], 0), dtype=A.dtype)
    return [row for c in cols for row in np.hstack([empty] + [N.act(x) for x in c]).tolist()]


def _hom_vectors(M, N):
    """Additive generators of Hom(M, N) as hom coordinates: the images of M's
    generators in N's quotient coordinates that every relation of M kills."""
    rows = _combination_rows(M.relations, N)
    return linalg.congruence_kernel(rows, list(N.quotient()[0]) * len(M.relations), _hom_moduli(M, N))


def hom_group(M, N):
    """Additive generators of Hom(M, N), as ModuleMaps."""
    return [_map_from_images(M, N, v) for v in _hom_vectors(M, N)]


def _image_size(f):
    """Number of elements of f(source): |target| for a surjection, |source|
    for an injection."""
    return linalg.Subgroup(_map_matrix(f).T.tolist(), f.target.quotient()[0]).size()


def _module_generators(N, vecs, span=None):
    """Indices of greedy ring generators of span + <vecs>, for vectors made of
    blocks of N's quotient coordinates: a vector is kept when the R-span of
    the kept ones together with span misses it, until that span is whole."""
    if span is None:
        span = linalg.Subgroup([], N.quotient()[0])
    whole = span.extend(vecs)
    keep = []
    for i, v in enumerate(vecs):
        if span == whole:
            break
        if not span.contains(v):
            keep.append(i)
            span = span.extend(_closure(N.action(), [v]))
    return keep


# ---------------------------------------------------------------------------
# submodules, kernel, image, cokernel
# ---------------------------------------------------------------------------

def submodule_from_additive(M, vecs):
    """The submodule of M additively spanned by vecs, given in M's quotient
    coordinates (they must span a subgroup closed under the ring action).

    Returns (K, include) with include: K -> M.  K is presented on greedy
    generators with greedy relations, each kept only when the R-span of the
    earlier ones misses it.
    """
    R = M.ring
    gens = [M.column(vecs[i]) for i in _module_generators(M, vecs)]
    cover = ModuleMap(free_module(R, len(gens)), M, _cols_to_matrix(gens, M.generators), check=False)
    F = cover.source
    ker = _kernel_vectors(cover)
    K = FiniteModule(R, len(gens), [F.column(ker[i]) for i in _module_generators(F, ker)])
    return K, ModuleMap(K, M, cover.matrix, check=False)


def _kernel_vectors(f):
    """Additive generators of ker f, in the source's quotient coordinates."""
    return linalg.congruence_kernel(_map_matrix(f).tolist(), f.target.quotient()[0], f.source.quotient()[0])


def kernel(f):
    """(K, include) with K -> source exact onto ker f."""
    return submodule_from_additive(f.source, _kernel_vectors(f))


def image(f):
    """(I, include) with I -> target exact onto im f."""
    return submodule_from_additive(f.target, _map_matrix(f).T.tolist())


def cokernel(f):
    """(C, project) with target -> C the quotient by im f."""
    N = f.target
    rels = [list(col) for col in N.relations]
    for col in f.source.generator_columns():
        rels.append(f.apply_column(col))
    C = FiniteModule(N.ring, N.generators, rels)
    project = ModuleMap(N, C, identity_map(N).matrix, check=False)
    return C, project


def _factor_through(g, f):
    """h with f . h = g, solved generator by generator on the matrix of f."""
    A = _map_matrix(f).tolist()
    N = f.target
    cols = []
    for col in g.columns():
        sol = linalg.congruence_solve(A, N.coords(col), N.quotient()[0])
        if sol is None:
            raise IllFormedMap("map does not factor through the given map")
        cols.append(f.source.column(sol))
    return ModuleMap(g.source, f.source, _cols_to_matrix(cols, f.source.generators), check=False)


# ---------------------------------------------------------------------------
# projectivity, covers and envelopes (local rings)
# ---------------------------------------------------------------------------

def _per_module(fn):
    """Compute fn(M, cap) once per module and cap, in M's cache."""
    @functools.wraps(fn)
    def once(M, cap=DEFAULT_CAP):
        key = (fn.__name__, cap)
        if key not in M._cache:
            M._cache[key] = fn(M, cap)
        return M._cache[key]
    return once


def _radical(M, cap=DEFAULT_CAP):
    """M * maximal ideal, as a subgroup of M's quotient coordinates."""
    cols = [v for g in rc.maximal_ideal(M.ring, cap).generators for v in M.act(g).T.tolist()]
    return linalg.Subgroup(cols, M.quotient()[0])


def minimal_generator_count(M, cap=DEFAULT_CAP):
    """dim over the residue field of M / M*m."""
    R = M.ring
    ksize = R.size() // rc.m_size_or_one(rc.maximal_ideal(R, cap))
    return _log(ksize, M.size() // _radical(M, cap).size())


def is_projective(M, cap=DEFAULT_CAP):
    """Free test over a local ring: minimal generators and a size count."""
    g0 = minimal_generator_count(M, cap)
    return M.size() == M.ring.size() ** g0


@_per_module
def projective_cover(M, cap=DEFAULT_CAP):
    """Minimal surjection from a free module, kernel inside P*m."""
    cols = M.generator_columns()
    keep = _module_generators(M, [M.coords(col) for col in cols], _radical(M, cap))
    P = free_module(M.ring, len(keep))
    cover = ModuleMap(P, M, _cols_to_matrix([cols[i] for i in keep], M.generators), check=False)
    if _image_size(cover) != M.size():
        raise ShapeMismatch("cover is not surjective")
    return cover


@_per_module
def _syzygy(M, cap=DEFAULT_CAP):
    """(Omega M, its inclusion into the projective cover)."""
    return kernel(projective_cover(M, cap))


def heller_shift(M, cap=DEFAULT_CAP):
    """Kernel of the projective cover."""
    return _syzygy(M, cap)[0]


def heller_of_map(f, cap=DEFAULT_CAP):
    """A map Omega(f): Omega(source) -> Omega(target) lifting f through covers."""
    M, N = f.source, f.target
    _, inc_M = _syzygy(M, cap)
    _, inc_N = _syzygy(N, cap)
    # lift f . cover_M through cover_N, then restrict to the kernels
    lifted = _factor_through(f.compose(projective_cover(M, cap)), projective_cover(N, cap))
    return _factor_through(lifted.compose(inc_M), inc_N)


@_per_module
def injective_envelope(M, cap=DEFAULT_CAP):
    """An embedding of M into a free module, via homs to the ring.

    Over a quasi-Frobenius ring free modules are injective, so any embedding
    into a free module serves the stable quotient; the hom list is pruned to
    module generators of Hom(M, R) to keep the rank small.
    """
    R = M.ring
    Rmod = free_module(R, 1)
    homs = _hom_vectors(M, Rmod)
    keep = _module_generators(Rmod, homs, linalg.Subgroup([], _hom_moduli(M, Rmod)))
    rows = [_map_from_images(M, Rmod, homs[i]).matrix[0] for i in keep]
    emb = ModuleMap(M, free_module(R, len(rows)), rows, check=True)
    if _image_size(emb) != M.size():
        raise NotQuasiFrobenius("module does not embed into a free module")
    return emb


@_per_module
def heller_inverse(M, cap=DEFAULT_CAP):
    """Cokernel of an embedding into a free module."""
    return cokernel(injective_envelope(M, cap))[0]


def omega_inverse_of_map(f, cap=DEFAULT_CAP):
    """The map induced on cokernels of the fixed free embeddings.

    Solves g . emb_M = emb_N . f for g between the free modules; g exists
    because free modules are injective here.
    """
    M, N = f.source, f.target
    emb_M = injective_envelope(M, cap)
    emb_N = injective_envelope(N, cap)
    IN = emb_N.target
    rows = _combination_rows(emb_M.columns(), IN)
    sol = linalg.congruence_solve(rows, _hom_coordinates(emb_N.compose(f)), _hom_moduli(M, IN))
    if sol is None:
        raise IllFormedMap("no extension over the free embeddings")
    g = _map_from_images(emb_M.target, IN, sol)
    return ModuleMap(heller_inverse(M, cap), heller_inverse(N, cap), g.matrix, check=True)


def omega_power_of_map(f, j, cap=DEFAULT_CAP):
    """Iterated shift of a map, negative j through the inverse shift."""
    current = f
    if j >= 0:
        for _ in range(j):
            current = heller_of_map(current, cap)
    else:
        for _ in range(-j):
            current = omega_inverse_of_map(current, cap)
    return current


def heller_power(M, j, cap=DEFAULT_CAP):
    """Iterated Heller shift, negative j through embeddings."""
    current = M
    if j >= 0:
        for _ in range(j):
            current = heller_shift(current, cap)
    else:
        for _ in range(-j):
            current = heller_inverse(current, cap)
    return current


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def _chain_invariants(M, cap=DEFAULT_CAP):
    """Sizes of M * m^j for j = 0, 1, ... over a chain ring (principal m)."""
    R = M.ring
    g = rc.chain_generator(R, cap)
    gens = [g] if g is not None else list(rc.maximal_ideal(R, cap).generators)
    qm, dt = M.quotient()[0], M.action().dtype
    sizes = [M.size()]
    current = np.eye(len(qm), dtype=dt)  # rows additively generating M * m^j
    while sizes[-1] > 1:
        span = linalg.Subgroup(np.vstack([current @ M.act(x).T for x in gens]).tolist(), qm)
        sizes.append(span.size())
        current = np.array(span.cols(), dtype=dt).reshape(-1, len(qm))
        if len(sizes) > 64:
            raise ShapeMismatch("radical filtration does not terminate")
    return tuple(sizes)


def _is_chain_ring(R, cap=DEFAULT_CAP):
    key = ("chain", cap)
    if key not in R._cache:
        if not rc.is_local(R, cap):
            R._cache[key] = False
        else:
            m = rc.maximal_ideal(R, cap)
            R._cache[key] = not m.generators or rc.chain_generator(R, cap) is not None
    return R._cache[key]


def iso_test(M, N, cap=DEFAULT_CAP):
    """Isomorphism of finite modules over the same ring."""
    if M.ring != N.ring:
        return False
    if M.size() != N.size():
        return False
    if M.canonical_additive() != N.canonical_additive():
        return False
    if _is_chain_ring(M.ring, cap):
        return _chain_invariants(M, cap) == _chain_invariants(N, cap)
    return _brute_force_iso(M, N, cap)


def _brute_force_iso(M, N, cap=DEFAULT_CAP):
    if M.size() > cap:
        raise SizeCapExceeded("isomorphism search above the size cap")
    homs = _hom_vectors(M, N)
    if len(homs) > 8:
        raise SizeCapExceeded("hom space too large for brute-force search")
    # search additive combinations of hom generators for a bijective one
    width = len(_hom_moduli(M, N))
    for combo in itertools.product(range(M.ring.char), repeat=len(homs)):
        v = [sum(c * h[i] for c, h in zip(combo, homs)) for i in range(width)]
        if _image_size(_map_from_images(M, N, v)) == N.size():
            return True
    return False


# ---------------------------------------------------------------------------
# stable homs
# ---------------------------------------------------------------------------

def strip_projective_summands(M, cap=DEFAULT_CAP):
    """Remove free direct summands (chain rings: by invariant counts)."""
    R = M.ring
    if not _is_chain_ring(R, cap):
        raise ShapeMismatch("summand stripping implemented for chain rings only")
    m = rc.maximal_ideal(R, cap)
    gen = rc.chain_generator(R, cap)
    if gen is None or not m.generators:
        # field: everything is free
        return free_module(R, 0)
    # M = sum of R/m^a summands; multiplicities are the discrete second
    # difference of the radical filtration dimensions d_j = dim_k(M m^j)
    sizes = _chain_invariants(M, cap)
    ksize = R.size() // rc.m_size_or_one(m)
    dims = [_log(ksize, s) for s in sizes]
    e = len(_chain_invariants(free_module(R, 1), cap)) - 1  # Loewy length of R

    def d(j):
        return dims[j] if j < len(dims) else 0

    mults = {a: (d(a - 1) - d(a)) - (d(a) - d(a + 1)) for a in range(1, e + 1)}
    # rebuild without the full-length (free) summands
    total_gens = sum(mults.get(a, 0) for a in range(1, e))
    power = {}
    acc = R.one()
    for a in range(e + 1):
        power[a] = acc
        acc = acc * gen
    out_rels = []
    idx = 0
    for a in range(1, e):
        for _ in range(mults.get(a, 0)):
            col = [R.zero()] * total_gens
            col[idx] = power[a]
            out_rels.append(col)
            idx += 1
    return FiniteModule(R, total_gens, out_rels)


def _log(base, value):
    d = 0
    while base ** d < value:
        d += 1
    if base ** d != value:
        raise ShapeMismatch("size is not a power of the residue field order")
    return d


def stable_iso_test(M, N, cap=DEFAULT_CAP):
    """Isomorphism after removing free summands from both sides."""
    return iso_test(strip_projective_summands(M, cap), strip_projective_summands(N, cap), cap)


def heller_cube_check(R, sample, cap=DEFAULT_CAP):
    """Omega^3 M stably isomorphic to M for every module in the sample."""
    for M in sample:
        cube = heller_power(M, 3, cap)
        if not stable_iso_test(cube, M, cap):
            return False
    return True


def stable_hom(M, N, cap=DEFAULT_CAP):
    """(dimension over the residue field, representatives).

    The stable group is Hom(M, N) modulo maps factoring through the fixed
    embedding of M into a free module.
    """
    R = M.ring
    if not rc.is_quasi_frobenius(R, cap):
        raise NotQuasiFrobenius("stable homs need a quasi-Frobenius ring")
    homs = _hom_vectors(M, N)
    P = stable_projective_span(M, N, cap)
    ksize = R.size() // rc.m_size_or_one(rc.maximal_ideal(R, cap)) if rc.is_local(R, cap) else None
    quot = P.extend(homs).size() // P.size()
    if ksize is not None:
        dim = _log(ksize, quot)
    else:
        dim = quot  # group order when no single residue field applies
    reps = []
    span = P
    for v in homs:
        if not span.contains(v):
            reps.append(_map_from_images(M, N, v))
            span = span.extend([v])
    return dim, reps


def stable_projective_span(M, N, cap=DEFAULT_CAP):
    """Subgroup of hom coordinates of the maps factoring through the embedding.

    Such a map sends e_t of the free envelope to some y in N, so generator j
    of M goes to emb[t][j] * y; y runs over N's quotient unit vectors.
    """
    cols = [v for row in injective_envelope(M, cap).matrix for v in np.vstack([N.act(x) for x in row]).T.tolist()]
    return linalg.Subgroup(cols, _hom_moduli(M, N))


def stable_class_is_zero(f, cap=DEFAULT_CAP):
    """Does f factor through a projective module?"""
    return stable_projective_span(f.source, f.target, cap).contains(_hom_coordinates(f))
