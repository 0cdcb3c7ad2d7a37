"""Finite modules over finite ungraded commutative rings.

A module is presented as R^g / (R-span of the relation columns): the public
form is `generators`, `relations` and `ring`.  It holds the constants of that
presentation, set once when it is made: `dtype` (`linalg.int_dtype` of char
R, that of all its arrays), `ambient_moduli` (the orders of the g * dim(R)
flattened coordinates) and `relation_array`, one row of flattened
coordinates per relation column, from which `relations` reads the columns
back over the ring.  Next to them each module caches one additive form,
from which every module computation is made:

* `quotient()` = (qmoduli, proj, lift): the additive group as Z/q_1 x ... x
  Z/q_r, with proj taking the flattened coordinates of R^g (g * dim(R)
  integers) to these quotient coordinates and lift taking them back;
* `action()`: one integer matrix per ring basis element, its action on the
  quotient coordinates, read off the ring's action table (`_ring_action`).

A map M -> N is its image array: column j is the image of M's generator j in
N's quotient coordinates, and the columns concatenated are its hom
coordinates.  The relations of M applied to a map are one matrix on them
per pair (`_relation_rows`): Hom(M, N) is its congruence kernel, with no
further unknowns, and the check of a map and a factorization solve on it.
Composition, kernels, images and factorizations are products and congruence
systems on these arrays.  A map, and a Hom group, lie over one ring; maps
compose, and factor, only through one module object (see below), so the
middle coordinates are always that object's.  Ring elements enter the layer
only at the public `FiniteModule` constructor, which flattens the relation
columns once, and as the multipliers of `act_all`; they leave it only
through `relations`.  Presentations are built here and nowhere else:
kernels, cokernels and the stable cofiber (`stable_cofiber`, the cone of a
map in the stable category) come from integer relation rows (`_presented`),
and every map from its image array (`ModuleMap`).  Every product is
`linalg.modp_matmul`, bounded by char R and reduced by the ambient or
quotient moduli that the module holds as columns, the second with its
quotient form.

Submodule spans are `linalg.Subgroup`s extended under the action matrices,
each extension reducing only the new vectors against the basis held.
Submodules come minimally presented in the greedy sense: a generator or
relation is kept only when the R-span of those kept before misses it.

Omega M is the kernel of the projective cover P_M -> M.  Over a
quasi-Frobenius ring P_M is injective, so when the cover keeps M's
generators the kernel inclusion is an injective envelope of Omega M with
cokernel M, and Omega^-1(Omega M) is M itself.  Every embedding into a free
module spans the same maps through projectives: stable homs are unchanged.

Over a chain ring (local, with principal maximal ideal m) a module is a sum
of cyclic modules R/m^a, and the lengths a are read off the radical
filtration M m^j, from the action of m's generators on M, made once per
module (`_radical_rows`) for its cover and its filtration.  Isomorphism compares them, and stable isomorphism those
below the Loewy length of R, since R/m^e is free.  Elsewhere isomorphism is a
search capped at SIZE_CAP maps, and stable isomorphism a typed limit.

A stable Hom group is Hom(M, N) modulo the maps through the injective
envelope of M.  Its representatives are the Hom generators that the span of
those maps and the generators kept before misses, and the scan stops once
that span has |Hom(M, N)| elements, the order that the elimination of Hom
returns with its generators (`linalg.congruence_kernel_order`).

A module is its presentation.  Constructing one with the ring, generator
count and relation rows of an existing module returns that object, from a
table in the ring's cache that is freed with the ring (`_presented`); so
equal presentations share one cache per ring, and the object is the
module's only identity: two objects with equal relation spans are two
modules, whose quotient coordinates may differ.  The quotient form, covers,
syzygies, envelopes and stable homs are computed once per presentation
(`rings.per_object`, keyed by the function and its further arguments), so
the Heller shifts of a module with Omega^2 k = k (as over F_p[t]/(t^{p^n}))
close after two steps.  A map is kept the same way: its shifts Omega f and
Omega^-1 f, and its powers Omega^j f, each the shift of the power one step
nearer to f, are computed once per map object.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from . import linalg
from . import rings as rc
from .errors import (
    IllFormedMap,
    NotQuasiFrobenius,
    ShapeMismatch,
    SizeCapExceeded,
)

# most elements a brute-force isomorphism search visits
SIZE_CAP = 4096


def _column(moduli, dtype):
    """The moduli as a column, by which a product's rows are reduced."""
    return np.array(moduli, dtype=dtype).reshape(-1, 1)


@rc.per_object
def _ring_action(R):
    """Matrices of multiplication by each basis element on full coordinates:
    one dim**3 table per ring, filled from its products, shared read-only."""
    n = R.dim
    if n > rc.MAX_TABLE_DIM:
        raise SizeCapExceeded(f"ring dimension {n} above {rc.MAX_TABLE_DIM} for a module action table")
    # a finite ring's product terms have distinct indices and reduced
    # coefficients, so the table is reduced as it is filled
    A = np.zeros((n, n, n), dtype=linalg.int_dtype(R.char))
    for (i, j), terms in R.products.items():
        for c, k, _ in terms:
            A[i, k, j] += c
    A.flags.writeable = False
    return A


def _blockwise(mats, V, column, p):
    """mats[l] applied to every block of the columns of V, for each l, reduced
    by the column of one block's moduli; p bounds the entries, and the block
    length is the size of the matrices.  Shape (len(mats), *V.shape)."""
    b = mats.shape[1]
    n, m = V.shape
    return linalg.modp_matmul(mats[:, None], V.reshape(n // b, b, m)[None], p, column).reshape(len(mats), n, m)


def _closure(mats, vecs, column, p):
    """Additive generators of the R-span of the rows of vecs, vectors made of
    blocks on which the ring basis acts by mats (as in `_blockwise`): every
    vector times every basis element."""
    V = np.asarray(vecs, dtype=mats.dtype)
    k, n = V.shape
    return _blockwise(mats, V.T, column, p).transpose(0, 2, 1).reshape(len(mats) * k, n).tolist()


class FiniteModule:
    """R^g modulo the R-span of relation columns, each g elements of R; one
    object per presentation (see the module docstring)."""

    def __new__(cls, ring, generators, relations):
        if ring.periodicity is not None or ring.char == 0 or any(ring.degrees):
            raise ShapeMismatch("modules require a finite ungraded coefficient ring")
        if isinstance(generators, bool) or not isinstance(generators, numbers.Integral):
            raise ShapeMismatch(f"generator count must be an integer, got {generators!r}")
        g = int(generators)
        if g < 0:
            raise ShapeMismatch(f"generator count must be nonnegative, got {g}")
        relations = [list(col) for col in relations]
        if any(len(col) != g for col in relations):
            raise ShapeMismatch("relation column length must match generator count")
        if not all(isinstance(x, rc.RingElement) and x.ring is ring for col in relations for x in col):
            raise ShapeMismatch("relation entries must be elements of the module's ring")
        return _presented(ring, g, [[c for x in col for c in ring.full_coords(x)] for col in relations])

    @property
    def relations(self):
        """The relation columns as lists of ring elements, read off
        `relation_array`."""
        R, D = self.ring, self.ring.dim
        return [[R.from_full_coords(row[i * D:(i + 1) * D]) for i in range(self.generators)]
                for row in self.relation_array.tolist()]

    @rc.per_object
    def quotient(self):
        """(qmoduli, proj, lift) for the underlying additive group, proj and
        lift as integer arrays reduced modulo qmoduli and the ambient moduli.
        Sets `_quotient_column`, the column of qmoduli."""
        R, amb = self.ring, self.ambient_moduli
        qm, proj, lift = linalg.quotient_presentation(
            _closure(_ring_action(R), self.relation_array, _column(R.orders, self.dtype), R.char), amb)
        # reduced before conversion: Smith transforms can exceed int64
        P = np.array([[x % m for x in row] for row, m in zip(proj, qm)], dtype=self.dtype)
        L = np.array([[x % m for x in row] for row, m in zip(lift, amb)], dtype=self.dtype)
        self._quotient_column = _column(qm, self.dtype)
        return qm, P.reshape(len(qm), len(amb)), L.reshape(len(amb), len(qm))

    @rc.per_object
    def action(self):
        """Array of shape (dim R, r, r): how each ring basis element acts on
        the r quotient coordinates."""
        R, (_, P, L) = self.ring, self.quotient()
        moved = _blockwise(_ring_action(R), L, _column(R.orders, self.dtype), R.char)
        return linalg.modp_matmul(P, moved, R.char, self._quotient_column)

    def act_coords(self, C):
        """Matrices of multiplication by the ring elements whose full
        coordinates are the rows of C, from one product: shape (len(C), r, r)."""
        A = self.action()
        r = A.shape[1]
        # entry (i, j) of a matrix, flattened to i * r + j, has modulus q_i
        row = self._quotient_column.repeat(r)
        return linalg.modp_matmul(C, A.reshape(len(A), r * r), self.ring.char, row).reshape(len(C), r, r)

    def act_all(self, xs):
        """Matrices of multiplication by each ring element of xs on quotient
        coordinates: shape (len(xs), r, r)."""
        C = np.array([self.ring.full_coords(x) for x in xs], dtype=self.dtype)
        return self.act_coords(C.reshape(len(xs), self.ring.dim))

    def canonical_additive(self):
        """The elementary divisors of the additive group, sorted: each cyclic
        order split into its prime-power parts, since the Smith form of the
        quotient keeps no divisibility chain (Z/6 may come out as Z/2 x Z/3)."""
        return tuple(sorted(pk for m in self.quotient()[0] for _, pk in rc._prime_powers(m)))

    def size(self):
        return math.prod(self.quotient()[0])

    def __repr__(self):
        return f"FiniteModule(g={self.generators}, rel={len(self.relation_array)}, over {self.ring!r})"


def _presented(ring, g, rows):
    """R^g modulo the R-span of the rows, each a relation column's reduced
    flattened coordinates: the module made before from the same ring, g and
    rows, else a new one, entered in the ring's table once complete."""
    if g * ring.dim > rc.MAX_TABLE_DIM ** 2:
        raise SizeCapExceeded(f"{g} generators times ring dimension {ring.dim} above {rc.MAX_TABLE_DIM ** 2}")
    flat = tuple(map(tuple, np.asarray(rows, dtype=object).tolist()))
    table = ring._cache.setdefault("modules", {})
    M = table.get((g, flat))
    if M is None:
        M = object.__new__(FiniteModule)
        M.ring, M.generators, M._cache = ring, g, {}
        # the dtype of this module's arrays, and the moduli of its
        # flattened coordinates (see the module docstring)
        M.dtype = linalg.int_dtype(ring.char)
        M.ambient_moduli = tuple(ring.orders) * g
        M._ambient_column = _column(M.ambient_moduli, M.dtype)
        # the flattened relation columns, one row each
        M.relation_array = np.array(flat, dtype=M.dtype).reshape(len(flat), g * ring.dim)
        M.relation_array.setflags(write=False)
        table[g, flat] = M
    return M


def free_module(R, rank):
    return FiniteModule(R, rank, [])


def quotient_module(R, ideal_gens):
    """R modulo the ideal generated by the given elements (cyclic module)."""
    return FiniteModule(R, 1, [[g] for g in ideal_gens])


def residue_module(R):
    """R / maximal ideal as a cyclic module."""
    return quotient_module(R, list(rc.maximal_ideal(R).generators))


def _generator_images(M):
    """The generators of M in its quotient coordinates, as the columns of an
    array: the image array of the identity."""
    R = M.ring
    one = np.array(R.full_coords(R.one()), dtype=M.dtype)
    qm, P, _ = M.quotient()
    return linalg.modp_matmul(P.reshape(len(qm), M.generators, R.dim), one, R.char, M._quotient_column)


class ModuleMap:
    """A map of presented modules, held as its image array `images`: column j
    is the image of source generator j in the target's quotient coordinates.

    The constructor takes that array (r_target x g_source, integers) and
    reduces it into the target's dtype, in Python integers unless it has that
    dtype already.  Anything else raises ShapeMismatch; with check, images
    on which the pair's relation matrix (`_relation_rows`) is not zero raise
    IllFormedMap.  The library's builders of maps that hold by construction
    pass check=False.
    """

    def __init__(self, source, target, images, check=True):
        _one_ring(source, target)
        self.source = source
        self.target = target
        shape = (len(target.quotient()[0]), source.generators)
        try:
            X = np.asarray(images)
        except ValueError:  # a ragged nesting of lists
            X = np.empty(0)
        integral = X.dtype.kind in "iu" or X.dtype == object and all(isinstance(x, numbers.Integral) for x in X.flat)
        if X.shape != shape or X.size and not integral:
            raise ShapeMismatch(f"images must be an integer array of shape {shape}")
        # reduced in the target's dtype when X has it, else in Python integers
        X = ((X if X.dtype == target.dtype else X.astype(object)) % target._quotient_column).astype(target.dtype)
        X.setflags(write=False)
        self.images = X
        self._cache = {}
        if check and linalg.modp_matmul(_relation_rows(source, target), X.T.reshape(-1, 1), target.ring.char,
                                        np.tile(target._quotient_column, (len(source.relation_array), 1))).any():
            raise IllFormedMap("images do not send the source relations to zero")

    def compose(self, other):
        """self . other (apply other first), through one module object."""
        if other.target is not self.source:
            raise ShapeMismatch("composition through two module objects")
        X = linalg.modp_matmul(_map_matrix(self), other.images, self.target.ring.char, self.target._quotient_column)
        return ModuleMap(other.source, self.target, X, check=False)

    def __repr__(self):
        return f"ModuleMap({self.source.generators} -> {self.target.generators})"


def _map_from_hom(M, N, v):
    """The map M -> N with hom coordinates v (the images concatenated)."""
    return ModuleMap(M, N, np.asarray(v).reshape(M.generators, len(N.quotient()[0])).T, check=False)


def _lifted(f):
    """Flattened ambient coordinates of representatives of f's images, one
    column per source generator."""
    N = f.target
    return linalg.modp_matmul(N.quotient()[2], f.images, N.ring.char, N._ambient_column)


def _one_ring(M, N):
    """Refuse a map or a Hom between modules over rings that differ as in `iso_test`."""
    if M.ring is not N.ring and M.ring != N.ring:
        raise ShapeMismatch("modules over different rings")


def identity_map(M):
    return ModuleMap(M, M, _generator_images(M), check=False)


def zero_map(M, N):
    return ModuleMap(M, N, np.zeros((len(N.quotient()[0]), M.generators), dtype=N.dtype), check=False)


# ---------------------------------------------------------------------------
# maps on quotient coordinates; hom groups
# ---------------------------------------------------------------------------

def _hom_coordinates(f):
    """The images of the source generators concatenated: the coordinates of
    f in Hom(source, target)."""
    return f.images.T.ravel().tolist()


def _hom_moduli(M, N):
    return list(N.quotient()[0]) * M.generators


@rc.per_object
def _map_matrix(f):
    """The matrix of f on quotient coordinates: images of the source's
    additive generators (its quotient unit vectors) in the target's, as the
    matrix of f on the source's free cover (the image of b_l e_j in column
    j*dim + l) times their lifts.  Computed once per map (maps are not
    changed after construction) and returned read-only."""
    N = f.target
    A = N.action()
    r, n = A.shape[1], len(f.source.ambient_moduli)
    free = linalg.modp_matmul(A, f.images, N.ring.char, N._quotient_column).transpose(1, 2, 0).reshape(r, n)
    X = linalg.modp_matmul(free, f.source.quotient()[2], N.ring.char, N._quotient_column)
    X.setflags(write=False)
    return X


def _combination_rows(C, N):
    """Matrix of (n_1..n_g) -> sum_j c_j n_j in N's quotient coordinates, with
    each n_j in quotient coordinates; one block of rows per column c, given
    by the flattened full coordinates of its g ring elements (a row of C)."""
    D, r = N.ring.dim, len(N.quotient()[0])
    k, g = C.shape[0], C.shape[1] // D
    blocks = N.act_coords(C.reshape(k * g, D)).reshape(k, g, r, r)
    return blocks.transpose(0, 2, 1, 3).reshape(k * r, g * r)


@rc.per_object
def _relation_rows(M, N):
    """The relations of M applied to a map M -> N, on its hom coordinates,
    one block of N's quotient coordinates each: zero exactly on Hom(M, N).
    Made once per pair and returned read-only."""
    rows = _combination_rows(M.relation_array, N)
    rows.setflags(write=False)
    return rows


def _hom_group(M, N):
    """(additive generators of Hom(M, N) as hom coordinates, |Hom(M, N)|):
    the congruence kernel of the relation matrix, and its number of
    elements, from one elimination."""
    _one_ring(M, N)
    rows = _relation_rows(M, N).tolist()
    return linalg.congruence_kernel_order(rows, list(N.quotient()[0]) * len(M.relation_array), _hom_moduli(M, N))


def _hom_vectors(M, N):
    """Additive generators of Hom(M, N) as hom coordinates (`_hom_group`)."""
    return _hom_group(M, N)[0]


def hom_group(M, N):
    """Additive generators of Hom(M, N), as ModuleMaps."""
    return [_map_from_hom(M, N, v) for v in _hom_vectors(M, N)]


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
            span = span.extend(_closure(N.action(), [v], N._quotient_column, N.ring.char))
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
    keep = _module_generators(M, vecs)
    cover = _map_from_hom(free_module(M.ring, len(keep)), M, [x for i in keep for x in vecs[i]])
    F = cover.source
    ker = _kernel_vectors(cover)
    kept, (qm, _, L) = [ker[i] for i in _module_generators(F, ker)], F.quotient()
    # the kept kernel vectors lifted to F's flattened coordinates, one row each
    rels = linalg.modp_matmul(L, np.array(kept, dtype=F.dtype).reshape(len(kept), len(qm)).T, M.ring.char,
                              F._ambient_column).T
    K = _presented(M.ring, len(keep), rels)
    return K, ModuleMap(K, M, cover.images, check=False)


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
    C = _presented(N.ring, N.generators, np.vstack([N.relation_array, _lifted(f).T]))
    return C, ModuleMap(N, C, _generator_images(C), check=False)


def _factor_through(g, f):
    """h with f . h = g, for g and f into one module object (any h when that
    module is zero): one congruence solve on the relation matrix of h's pair
    stacked over f . h = g generator by generator, so h is always a module
    map.  IllFormedMap when that system has no solution."""
    if g.target is not f.target:
        raise ShapeMismatch("factorization through a map into another module object")
    M, B = g.source, f.source
    qB, qm, k = list(B.quotient()[0]), list(f.target.quotient()[0]), len(M.relation_array)
    # f . h = g generator by generator: the matrix of f in each diagonal block
    blocks = np.eye(M.generators, dtype=B.dtype)[:, None, :, None] * _map_matrix(f)[:, None]
    rows = np.vstack([_relation_rows(M, B), blocks.reshape(M.generators * len(qm), M.generators * len(qB))])
    sol = linalg.congruence_solve(rows, [0] * len(qB) * k + _hom_coordinates(g), qB * k + qm * M.generators)
    if sol is None:
        raise IllFormedMap("map does not factor through the given map by a module map")
    return _map_from_hom(M, B, sol)


# ---------------------------------------------------------------------------
# projectivity, covers and envelopes (local rings)
# ---------------------------------------------------------------------------

@rc.per_object
def _radical_rows(M):
    """The rows (x v)^T for x a generator of the maximal ideal and v a unit
    vector of M's quotient coordinates: shape (generators, r, r), read-only."""
    rows = M.act_all(rc.maximal_ideal(M.ring).generators).transpose(0, 2, 1)
    rows.setflags(write=False)
    return rows


def _radical(M, span=None):
    """span * maximal ideal, for span a submodule of M (all of M by default),
    as a subgroup of M's quotient coordinates."""
    qm = M.quotient()[0]
    # rows (x v)^T for v a unit vector or a row of span
    rows = _radical_rows(M)
    if span is not None:
        cols = span.cols()
        rows = linalg.modp_matmul(np.array(cols, dtype=rows.dtype).reshape(len(cols), len(qm)), rows,
                                  M.ring.char, M._quotient_column.T)
    return linalg.Subgroup(rows.reshape(rows.shape[0] * rows.shape[1], len(qm)).tolist(), qm)


@rc.per_object
def projective_cover(M):
    """Minimal surjection from a free module, kernel inside P*m."""
    gens = _generator_images(M)
    keep = _module_generators(M, gens.T.tolist(), _radical(M))
    cover = ModuleMap(free_module(M.ring, len(keep)), M, gens[:, keep], check=False)
    if _image_size(cover) != M.size():
        raise ShapeMismatch("cover is not surjective")
    return cover


@rc.per_object
def _syzygy(M):
    """(Omega M, its inclusion into the projective cover).  Over a QF ring,
    a cover sending generator i to M's generator i also gives Omega M's
    envelope and cokernel (see the module docstring), unless Omega M, an
    equal presentation met before, already has an envelope."""
    cover = projective_cover(M)
    K, inc = kernel(cover)
    if cover.source.generators == M.generators and rc.is_quasi_frobenius(M.ring):
        if injective_envelope.seed(K, inc) is inc:
            _cosyzygy.seed(K, (M, cover))
    return K, inc


def heller_shift(M):
    """Kernel of the projective cover."""
    return _syzygy(M)[0]


@rc.per_object
def heller_of_map(f):
    """A map Omega(f): Omega(source) -> Omega(target) lifting f through covers."""
    M, N = f.source, f.target
    # lift f . cover_M through cover_N, then restrict to the kernels
    lifted = _factor_through(f.compose(projective_cover(M)), projective_cover(N))
    return _factor_through(lifted.compose(_syzygy(M)[1]), _syzygy(N)[1])


@rc.per_object
def injective_envelope(M):
    """An embedding of M into a free module, via homs to the ring.

    Over a quasi-Frobenius ring free modules are injective, so any embedding
    into a free module serves the stable quotient; the hom list is pruned to
    module generators of Hom(M, R) to keep the rank small.  `_syzygy` gives
    a syzygy Omega N its inclusion into N's cover instead, so that
    Omega^-1(Omega N) is N on the cover's generators.
    """
    R = M.ring
    Rmod = free_module(R, 1)
    homs = _hom_vectors(M, Rmod)
    keep = _module_generators(Rmod, homs, linalg.Subgroup([], _hom_moduli(M, Rmod)))
    # the kept homs, lifted to R, are the rows of the embedding into R^len(keep)
    rows = np.array([_lifted(_map_from_hom(M, Rmod, homs[i])) for i in keep], dtype=Rmod.dtype)
    F = free_module(R, len(keep))
    emb = ModuleMap(M, F, linalg.modp_matmul(F.quotient()[1], rows.reshape(len(keep) * R.dim, M.generators),
                                             R.char, F._quotient_column))
    if _image_size(emb) != M.size():
        raise NotQuasiFrobenius("module does not embed into a free module")
    return emb


@rc.per_object
def _cosyzygy(M):
    """(Omega^-1 M, its projection from the target of the injective envelope)."""
    return cokernel(injective_envelope(M))


def heller_inverse(M):
    """Cokernel of an embedding into a free module."""
    return _cosyzygy(M)[0]


def stable_cofiber(f):
    """The cofiber of f: M -> N in the stable category, the cokernel C of
    (emb, f): M -> I(M) + N, with the maps N -> C -> Omega^-1 M."""
    M, N = f.source, f.target
    R = M.ring
    emb = injective_envelope(M)
    I = emb.target
    # the relation rows of I(M) + N: those of N after zeros on I(M), then the
    # lifted images of (emb, f), one row per generator of M
    rels = np.vstack([np.pad(N.relation_array, ((0, 0), (I.generators * R.dim, 0))),
                      np.hstack([_lifted(emb).T, _lifted(f).T])])
    C = _presented(R, I.generators + N.generators, rels)
    # N -> C: the generators of C after those of I(M)
    n_to_c = ModuleMap(N, C, _generator_images(C)[:, I.generators:])
    # C -> Omega^-1 M: forget N, land in I(M)/M
    Om = heller_inverse(M)
    c_to_omega = ModuleMap(C, Om, np.pad(_generator_images(Om), ((0, 0), (0, N.generators))))
    return C, n_to_c, c_to_omega


def _through_envelope(M, N):
    """Matrix of psi -> psi . emb on hom coordinates, for emb the injective
    envelope of M and psi a map from its free target to N, given by the images
    of the free generators: generator j of M goes to sum_t emb[t][j] psi(e_t)."""
    return _combination_rows(_lifted(injective_envelope(M)).T, N)


@rc.per_object
def omega_inverse_of_map(f):
    """The map induced on cokernels of the fixed free embeddings.

    Solves g . emb_M = emb_N . f for g between the free modules; g exists
    because free modules are injective here.  Omega^-1 M has the generators
    of emb_M's target, so the induced map has the images of project_N . g.
    """
    M, N = f.source, f.target
    emb_N = injective_envelope(N)
    IN = emb_N.target
    sol = linalg.congruence_solve(_through_envelope(M, IN), _hom_coordinates(emb_N.compose(f)),
                                  _hom_moduli(M, IN))
    if sol is None:
        raise IllFormedMap("no extension over the free embeddings")
    C_N, project = _cosyzygy(N)
    g = project.compose(_map_from_hom(injective_envelope(M).target, IN, sol))
    return ModuleMap(heller_inverse(M), C_N, g.images)


@rc.per_object
def omega_power_of_map(f, j):
    """Iterated shift of a map, negative j through the inverse shift; each
    power is the shift of the power one step nearer to f."""
    if j > 0:
        return heller_of_map(omega_power_of_map(f, j - 1))
    if j < 0:
        return omega_inverse_of_map(omega_power_of_map(f, j + 1))
    return f


def heller_power(M, j):
    """Iterated Heller shift, negative j through embeddings."""
    current = M
    if j >= 0:
        for _ in range(j):
            current = heller_shift(current)
    else:
        for _ in range(-j):
            current = heller_inverse(current)
    return current


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

@rc.per_object
def _cyclic_lengths(M):
    """The sorted lengths a with M = sum of R/m^a over a chain ring: a occurs
    d_{a-1} - 2 d_a + d_{a+1} times, d_j the length of M m^j over the residue
    field (for R/m^a, d_j = a - j down to 0)."""
    sizes, span = [M.size()], None
    while sizes[-1] > 1:
        span = _radical(M, span)
        sizes.append(span.size())
        if sizes[-1] == sizes[-2]:
            raise ShapeMismatch("radical filtration does not terminate")
    q = rc.residue_size(M.ring)
    d = [_log(q, s) for s in sizes] + [0]
    return tuple(a for a in range(1, len(sizes)) for _ in range(d[a - 1] - 2 * d[a] + d[a + 1]))


@rc.per_object
def _is_chain_ring(R):
    if not rc.is_local(R):
        return False
    return not rc.maximal_ideal(R).generators or rc.chain_generator(R) is not None


def iso_test(M, N):
    """Isomorphism of finite modules over the same ring: equal cyclic lengths
    over a chain ring, a capped search elsewhere."""
    if M.ring != N.ring or M.canonical_additive() != N.canonical_additive():
        return False
    if _is_chain_ring(M.ring):
        return _cyclic_lengths(M) == _cyclic_lengths(N)
    return _brute_force_iso(M, N)


def _brute_force_iso(M, N):
    """Search the combinations of Hom(M, N)'s additive generators, each up to
    its order, for a bijection; at most SIZE_CAP of them."""
    homs, moduli = _hom_vectors(M, N), _hom_moduli(M, N)
    orders = [math.lcm(*(m // math.gcd(x, m) for x, m in zip(h, moduli))) for h in homs]
    if math.prod(orders) > SIZE_CAP:
        raise SizeCapExceeded("isomorphism search above the size cap")
    for combo in itertools.product(*map(range, orders)):
        v = [sum(c * h[i] for c, h in zip(combo, homs)) % m for i, m in enumerate(moduli)]
        if _image_size(_map_from_hom(M, N, v)) == N.size():
            return True
    return False


def _log(base, value):
    d = 0
    while base ** d < value:
        d += 1
    if base ** d != value:
        raise ShapeMismatch("size is not a power of the residue field order")
    return d


# ---------------------------------------------------------------------------
# stable homs
# ---------------------------------------------------------------------------

def stable_iso_test(M, N):
    """Isomorphism after removing free summands: over a chain ring of Loewy
    length e the free summands are the R/m^e, so compare the shorter ones."""
    if M.ring != N.ring:
        return False
    if not _is_chain_ring(M.ring):
        raise ShapeMismatch("stable isomorphism implemented for chain rings only")
    e = max(_cyclic_lengths(free_module(M.ring, 1)))
    return [a for a in _cyclic_lengths(M) if a < e] == [a for a in _cyclic_lengths(N) if a < e]


def heller_cube_check(sample):
    """Omega^3 M stably isomorphic to M for every module in the sample."""
    for M in sample:
        cube = heller_power(M, 3)
        if not stable_iso_test(cube, M):
            return False
    return True


@rc.per_object
def stable_hom(M, N):
    """(dimension over the residue field, tuple of representatives).

    The stable group is Hom(M, N) modulo maps factoring through the fixed
    embedding of M into a free module.  A Hom generator is kept when the
    span of those maps and the kept generators misses it; the scan stops
    once that span is all of Hom(M, N), after which none would be kept.
    """
    R = M.ring
    if not rc.is_quasi_frobenius(R):
        raise NotQuasiFrobenius("stable homs need a quasi-Frobenius ring")
    P = stable_projective_span(M, N)
    homs, order = _hom_group(M, N)
    reps, span, size = [], P, P.size()
    for v in homs:
        if size == order:
            break
        if not span.contains(v):
            reps.append(_map_from_hom(M, N, v))
            span = span.extend([v])
            size = span.size()
    quot = size // P.size()
    # the group order when no single residue field applies
    dim = _log(rc.residue_size(R), quot) if rc.is_local(R) else quot
    return dim, tuple(reps)


@rc.per_object
def stable_projective_span(M, N):
    """Subgroup of hom coordinates of the maps factoring through the
    embedding: the column span of `_through_envelope`, psi running over the
    maps from the free module."""
    _one_ring(M, N)
    return linalg.Subgroup(_through_envelope(M, N).T.tolist(), _hom_moduli(M, N))


def stable_class_is_zero(f):
    """Does f factor through a projective module?"""
    return stable_projective_span(f.source, f.target).contains(_hom_coordinates(f))
