"""Finite modules over finite ungraded commutative rings.

A module is a presentation R^g / (column span of relations).  All additive
bookkeeping happens on flattened coordinate vectors of length g * dim(R),
with exact subgroup machinery from linalg; ring-linear questions (maps,
syzygies, homs) reduce to congruence systems on those coordinates.
"""

from __future__ import annotations

import itertools

from . import linalg
from . import rings as rc
from .errors import (
    IllFormedMap,
    NotQuasiFrobenius,
    ShapeMismatch,
    SizeCapExceeded,
)
from .rings import DEFAULT_CAP


class FiniteModule:
    """R^g modulo the column span of a relations matrix over R."""

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

    def _closure_cols(self, cols):
        """Additive generators of the R-span of the given columns."""
        out = []
        for col in cols:
            for j in range(self.ring.dim):
                b = self.ring.basis_element(j)
                out.append(self.flatten([x * b for x in col]))
        return out

    def relation_span(self):
        if "rel_span" not in self._cache:
            cols = self._closure_cols(self.relations)
            self._cache["rel_span"] = linalg.Subgroup(cols, self.ambient_moduli)
        return self._cache["rel_span"]

    def relation_cols(self):
        """Flattened additive generators of the relation span."""
        return self._closure_cols(self.relations)

    def quotient(self):
        """(qmoduli, proj, lift) for the underlying additive group."""
        if "quotient" not in self._cache:
            self._cache["quotient"] = linalg.quotient_presentation(
                self.relation_cols(), self.ambient_moduli
            )
        return self._cache["quotient"]

    def canonical_additive(self):
        """Multiset of cyclic orders of the additive group, sorted."""
        qm, _, _ = self.quotient()
        return tuple(sorted(m for m in qm))

    def size(self):
        n = 1
        for m in self.quotient()[0]:
            n *= m
        return n

    def contains_in_relations(self, vec):
        return self.relation_span().contains(vec)

    def elements(self, cap=DEFAULT_CAP):
        """All elements, as flattened ambient representatives."""
        qm, _, lift = self.quotient()
        total = 1
        for m in qm:
            total *= m
        if total > cap:
            raise SizeCapExceeded(f"module of size {total} exceeds cap {cap}")
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
        for col in self.source.relations:
            img = self.apply_column(col)
            if not self.target.contains_in_relations(self.target.flatten(img)):
                return False
        return True

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
# submodules from additive data
# ---------------------------------------------------------------------------

def submodule_from_additive(M, add_cols):
    """The submodule of M additively spanned by the given flattened vectors
    (must already be closed under the ring action together with relations).

    Returns (K, include) with include: K -> M.
    """
    R = M.ring
    span = M.relation_span()
    target_span = span.extend(add_cols)
    # greedy module generators
    gens = []
    for v in add_cols:
        if span.contains(v):
            continue
        gens.append(M.unflatten(v))
        span = span.extend(M._closure_cols([gens[-1]]))
        if span == target_span:
            break
    s = len(gens)
    # relations of the submodule: additive kernel of R^s -> M / relations
    qm, proj, _ = M.quotient()
    amb_s = list(R.orders) * s
    A = []
    for r in range(len(qm)):
        A.append([0] * (s * R.dim))
    for i in range(s):
        for j in range(R.dim):
            b = R.basis_element(j)
            img = M.flatten([x * b for x in gens[i]])
            down = linalg.apply_matrix(proj, img)
            for r in range(len(qm)):
                A[r][i * R.dim + j] = down[r]
    ker = linalg.congruence_kernel(A, list(qm), amb_s)
    K = FiniteModule(R, s, [_unflatten_over(R, s, v) for v in ker])
    include = ModuleMap(K, M, _cols_to_matrix(gens, M.generators), check=True)
    return K, include


def _unflatten_over(R, g, vec):
    D = R.dim
    return [R.from_full_coords(vec[i * D:(i + 1) * D]) for i in range(g)]


def _cols_to_matrix(cols, target_gens):
    """Columns (each a list of ring elements) -> row-major matrix."""
    rows = []
    for i in range(target_gens):
        rows.append([col[i] for col in cols])
    return rows


# ---------------------------------------------------------------------------
# kernel, image, cokernel
# ---------------------------------------------------------------------------

def kernel(f):
    """(K, include) with K -> source exact onto ker f."""
    M, N = f.source, f.target
    qmN, projN, _ = N.quotient()
    A = []
    for r in range(len(qmN)):
        A.append([0] * (M.generators * M.ring.dim))
    for j in range(M.generators):
        for l in range(M.ring.dim):
            col = [M.ring.zero()] * M.generators
            col[j] = M.ring.basis_element(l)
            img = N.flatten(f.apply_column(col))
            down = linalg.apply_matrix(projN, img)
            for r in range(len(qmN)):
                A[r][j * M.ring.dim + l] = down[r]
    ker_cols = linalg.congruence_kernel(A, list(qmN), M.ambient_moduli)
    return submodule_from_additive(M, [list(v) for v in ker_cols])


def image(f):
    """(I, include) with I -> target exact onto im f."""
    N = f.target
    cols = []
    for col in f.source.generator_columns():
        img = f.apply_column(col)
        for j in range(N.ring.dim):
            b = N.ring.basis_element(j)
            cols.append(N.flatten([x * b for x in img]))
    return submodule_from_additive(N, cols)


def cokernel(f):
    """(C, project) with target -> C the quotient by im f."""
    N = f.target
    rels = [list(col) for col in N.relations]
    for col in f.source.generator_columns():
        rels.append(f.apply_column(col))
    C = FiniteModule(N.ring, N.generators, rels)
    project = ModuleMap(N, C, identity_map(N).matrix, check=False)
    return C, project


# ---------------------------------------------------------------------------
# projectivity and covers (local rings)
# ---------------------------------------------------------------------------

def _radical_cols(M, cap=DEFAULT_CAP):
    """Additive generators of M * maximal ideal + relations."""
    m = rc.maximal_ideal(M.ring, cap)
    cols = M.relation_cols()
    for g in m.generators:
        for col in M.generator_columns():
            scaled = [x * g for x in col]
            for j in range(M.ring.dim):
                b = M.ring.basis_element(j)
                cols.append(M.flatten([x * b for x in scaled]))
    return cols


def minimal_generator_count(M, cap=DEFAULT_CAP):
    """dim over the residue field of M / M*m."""
    R = M.ring
    sub = linalg.Subgroup(_radical_cols(M, cap), M.ambient_moduli).size()
    total = 1
    for m in M.ambient_moduli:
        total *= m
    ksize = R.size() // rc.m_size_or_one(rc.maximal_ideal(R, cap))
    quot = total // sub
    g0 = 0
    while ksize ** g0 < quot:
        g0 += 1
    if ksize ** g0 != quot:
        raise ShapeMismatch("top of the module is not a residue-field vector space")
    return g0


def is_projective(M, cap=DEFAULT_CAP):
    """Free test over a local ring: minimal generators and a size count."""
    g0 = minimal_generator_count(M, cap)
    return M.size() == M.ring.size() ** g0


def projective_cover(M, cap=DEFAULT_CAP):
    """Minimal surjection from a free module, kernel inside P*m."""
    R = M.ring
    span = linalg.Subgroup(_radical_cols(M, cap), M.ambient_moduli)
    chosen = []
    for col in M.generator_columns():
        if not span.contains(M.flatten(col)):
            chosen.append(col)
            span = span.extend(M._closure_cols([col]))
    P = free_module(R, len(chosen))
    cover = ModuleMap(P, M, _cols_to_matrix(chosen, M.generators), check=False)
    if _span_size(M, cover) != M.size():
        raise ShapeMismatch("cover is not surjective")
    return cover


def _span_size(M, cover):
    cols = []
    for col in cover.source.generator_columns():
        img = cover.apply_column(col)
        for j in range(M.ring.dim):
            b = M.ring.basis_element(j)
            cols.append(M.flatten([x * b for x in img]))
    return M.relation_span().extend(cols).size() // M.relation_span().size()


def heller_shift(M, cap=DEFAULT_CAP):
    """Kernel of the projective cover."""
    cover = projective_cover(M, cap)
    K, _ = kernel(cover)
    return K


def heller_of_map(f, cap=DEFAULT_CAP):
    """A map Omega(f): Omega(source) -> Omega(target) lifting f through covers."""
    M, N = f.source, f.target
    cover_M = projective_cover(M, cap)
    cover_N = projective_cover(N, cap)
    KM, inc_M = kernel(cover_M)
    KN, inc_N = kernel(cover_N)
    # lift f . cover_M through cover_N, then restrict to the kernels
    lifted = _lift_through_surjection(f.compose(cover_M), cover_N)
    return _factor_through_injection(lifted.compose(inc_M), inc_N)


def _lift_through_surjection(g, cover):
    """h with cover . h = g, for cover a surjection from a free module."""
    P, M = cover.source, cover.target
    src = g.source
    cols = []
    for col in src.generator_columns():
        target_vec = M.flatten(g.apply_column(col))
        sol = _solve_module_map(cover, target_vec)
        if sol is None:
            raise IllFormedMap("lift through surjection failed")
        cols.append(sol)
    return ModuleMap(src, P, _cols_to_matrix(cols, P.generators), check=False)


def _solve_module_map(f, target_vec):
    """A column c over the source ring with f(c) = target_vec in the target."""
    M, N = f.source, f.target
    R = M.ring
    qmN, projN, _ = N.quotient()
    A = []
    for r in range(len(qmN)):
        A.append([0] * (M.generators * R.dim))
    for j in range(M.generators):
        for l in range(R.dim):
            col = [R.zero()] * M.generators
            col[j] = R.basis_element(l)
            img = N.flatten(f.apply_column(col))
            down = linalg.apply_matrix(projN, img)
            for r in range(len(qmN)):
                A[r][j * R.dim + l] = down[r]
    b = linalg.apply_matrix(projN, target_vec)
    sol = linalg.congruence_solve(A, b, list(qmN))
    if sol is None:
        return None
    return _unflatten_over(R, M.generators, sol)


def _factor_through_injection(g, inc):
    """h with inc . h = g, for inc an inclusion (g must land in the image)."""
    K = inc.source
    src = g.source
    cols = []
    for col in src.generator_columns():
        vec = g.target.flatten(g.apply_column(col))
        sol = _solve_module_map(inc, vec)
        if sol is None:
            raise IllFormedMap("map does not land in the submodule")
        cols.append(sol)
    return ModuleMap(src, K, _cols_to_matrix(cols, K.generators), check=False)


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def _chain_invariants(M, cap=DEFAULT_CAP):
    """Sizes of M * m^j for j = 0, 1, ... over a chain ring (principal m)."""
    R = M.ring
    m = rc.maximal_ideal(R, cap)
    g = rc.chain_generator(R, cap)
    gens = [g] if g is not None else list(m.generators)
    sizes = [M.size()]
    current = M.generator_columns()
    while sizes[-1] > 1:
        nxt = []
        for g in gens:
            for col in current:
                nxt.append([x * g for x in col])
        span = M.relation_span().extend(M._closure_cols(nxt))
        sizes.append(span.size() // M.relation_span().size())
        current = nxt
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
    hom_gens = hom_group(M, N)
    # search additive combinations of hom generators for a bijective one
    moduli = [M.ring.char] * len(hom_gens)
    if len(hom_gens) > 8:
        raise SizeCapExceeded("hom space too large for brute-force search")
    for combo in itertools.product(*[range(m) for m in moduli]):
        F = _combine_maps(M, N, hom_gens, combo)
        if _map_is_bijective(F):
            return True
    return False


def _combine_maps(M, N, maps, coeffs):
    R = M.ring
    rows = [[R.zero() for _ in range(M.generators)] for _ in range(N.generators)]
    for c, f in zip(coeffs, maps):
        for i in range(N.generators):
            for j in range(M.generators):
                rows[i][j] = rows[i][j] + f.matrix[i][j] * c
    return ModuleMap(M, N, rows, check=False)


def _map_is_bijective(f):
    M, N = f.source, f.target
    if M.size() != N.size():
        return False
    K, _ = kernel(f)
    return K.size() == 1


# ---------------------------------------------------------------------------
# hom groups and stable homs
# ---------------------------------------------------------------------------

def hom_group(M, N):
    """Additive generators of Hom(M, N), as ModuleMaps.

    Solves for ring matrices F with F * rel(M) inside the relation span of N;
    auxiliary unknowns absorb the relation-span membership.
    """
    R = M.ring
    D = R.dim
    nF = N.generators * M.generators * D
    relN = N.relation_cols()
    nY = len(relN)
    rel_cols = M.relations
    rows = []
    row_moduli = []
    ambN = N.ambient_moduli
    for ci, c in enumerate(rel_cols):
        # F * c - relN * y_c = 0 in the ambient group of N
        block = [[0] * (nF + nY * len(rel_cols)) for _ in range(len(ambN))]
        for i in range(N.generators):
            for j in range(M.generators):
                for l in range(D):
                    # unknown: coefficient of basis l in F[i][j]
                    prod = R.basis_element(l) * c[j]
                    coords = R.full_coords(prod)
                    colidx = (i * M.generators + j) * D + l
                    for r in range(D):
                        block[i * D + r][colidx] = coords[r]
        for yi, rel in enumerate(relN):
            colidx = nF + ci * nY + yi
            for r in range(len(ambN)):
                block[r][colidx] = -rel[r]
        rows.extend(block)
        row_moduli.extend(ambN)
    col_moduli = list(R.orders) * (N.generators * M.generators) + [R.char] * (nY * len(rel_cols))
    if not rows:
        sols = [[int(k == j) for k in range(nF)] for j in range(nF)]
    else:
        sols = [v[:nF] for v in linalg.congruence_kernel(rows, row_moduli, col_moduli)]
    out = []
    for v in sols:
        rowsF = []
        for i in range(N.generators):
            row = []
            for j in range(M.generators):
                base = (i * M.generators + j) * D
                row.append(R.from_full_coords(v[base:base + D]))
            rowsF.append(row)
        F = ModuleMap(M, N, rowsF, check=False)
        if not F._respects_relations():
            continue
        out.append(F)
    return out


def _hom_coordinates(F):
    """Canonical coordinates of a hom: images of the generators in N's form."""
    N = F.target
    qm, proj, _ = N.quotient()
    out = []
    for col in F.source.generator_columns():
        img = N.flatten(F.apply_column(col))
        down = linalg.apply_matrix(proj, img)
        out.extend(x % m if m else x for x, m in zip(down, qm))
    return out


def _hom_moduli(M, N):
    qm, _, _ = N.quotient()
    return list(qm) * M.generators


def injective_envelope(M, cap=DEFAULT_CAP):
    """An embedding of M into a free module, via homs to the ring.

    Over a quasi-Frobenius ring free modules are injective, so any embedding
    into a free module serves the stable quotient; the hom list is pruned to
    module generators to keep the rank small.
    """
    R = M.ring
    Rmod = free_module(R, 1)
    homs = hom_group(M, Rmod)
    # prune to module generators of Hom(M, R) under post-multiplication
    chosen = []
    span = linalg.Subgroup([], _hom_moduli(M, Rmod))
    for f in homs:
        if span.contains(_hom_coordinates(f)):
            continue
        chosen.append(f)
        multiples = [[[x * R.basis_element(j) for x in row] for row in f.matrix] for j in range(R.dim)]
        span = span.extend(_hom_coordinates(ModuleMap(M, Rmod, m, check=False)) for m in multiples)
    T = len(chosen)
    I = free_module(R, T)
    rows = []
    for t in range(T):
        rows.append(list(chosen[t].matrix[0]))
    emb = ModuleMap(M, I, rows, check=True)
    K, _ = kernel(emb)
    if K.size() != 1:
        raise NotQuasiFrobenius("module does not embed into a free module")
    return emb


def heller_inverse(M, cap=DEFAULT_CAP):
    """Cokernel of an embedding into a free module."""
    emb = injective_envelope(M, cap)
    C, _ = cokernel(emb)
    return C


def omega_inverse_of_map(f, cap=DEFAULT_CAP):
    """The map induced on cokernels of the fixed free embeddings.

    Solves g . emb_M = emb_N . f for g between the free modules; g exists
    because free modules are injective here.
    """
    M, N = f.source, f.target
    emb_M = injective_envelope(M, cap)
    emb_N = injective_envelope(N, cap)
    IM, IN = emb_M.target, emb_N.target
    R = M.ring
    amb = IN.ambient_moduli
    rows_per = len(amb)
    ncols = IN.generators * IM.generators * R.dim
    A = [[0] * ncols for _ in range(M.generators * rows_per)]
    b = []
    rhs = emb_N.compose(f)
    for jdx, col in enumerate(M.generator_columns()):
        acol = emb_M.apply_column(col)
        b.extend(IN.flatten(rhs.apply_column(col)))
        for t in range(IN.generators):
            for s in range(IM.generators):
                a_s = acol[s]
                if a_s.is_zero:
                    continue
                for l in range(R.dim):
                    vec = R.full_coords(a_s * R.basis_element(l))
                    cidx = (t * IM.generators + s) * R.dim + l
                    for li, cval in enumerate(vec):
                        A[jdx * rows_per + t * R.dim + li][cidx] += cval
    row_moduli = list(amb) * M.generators
    sol = linalg.congruence_solve(A, b, row_moduli)
    if sol is None:
        raise IllFormedMap("no extension over the free embeddings")
    gmat = []
    for t in range(IN.generators):
        row = []
        for s in range(IM.generators):
            base = (t * IM.generators + s) * R.dim
            coeffs = sol[base:base + R.dim]
            row.append(R.from_full_coords(coeffs))
        gmat.append(row)
    CM, _ = cokernel(emb_M)
    CN, _ = cokernel(emb_N)
    return ModuleMap(CM, CN, gmat, check=True)


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
    homs = hom_group(M, N)
    hom_cols = [_hom_coordinates(f) for f in homs]
    P = stable_projective_span(M, N, cap)
    hsize = linalg.Subgroup(hom_cols, P.moduli).size()
    psize = P.size()
    ksize = R.size() // rc.m_size_or_one(rc.maximal_ideal(R, cap)) if rc.is_local(R, cap) else None
    quot = hsize // psize
    if ksize is not None:
        dim = _log(ksize, quot)
    else:
        dim = quot  # group order when no single residue field applies
    reps = []
    span = P
    for f, v in zip(homs, hom_cols):
        if not span.contains(v):
            reps.append(f)
            span = span.extend([v])
    return dim, reps


def stable_projective_span(M, N, cap=DEFAULT_CAP):
    """Subgroup of hom coordinates of the maps factoring through the embedding."""
    emb = injective_envelope(M, cap)
    I = emb.target
    proj_cols = []
    for t in range(I.generators):
        for vec in _module_additive_generators(N):
            # map I = R^T -> N sending e_t to vec, composed with the embedding
            g = _free_to_module_map(I, N, t, vec)
            proj_cols.append(_hom_coordinates(g.compose(emb)))
    return linalg.Subgroup(proj_cols, _hom_moduli(M, N))


def stable_class_is_zero(f, cap=DEFAULT_CAP):
    """Does f factor through a projective module?"""
    return stable_projective_span(f.source, f.target, cap).contains(_hom_coordinates(f))


def _module_additive_generators(N):
    """Columns over the ring generating N additively."""
    out = []
    for col in N.generator_columns():
        for j in range(N.ring.dim):
            b = N.ring.basis_element(j)
            out.append([x * b for x in col])
    return out


def _free_to_module_map(F, N, slot, column):
    R = N.ring
    rows = []
    for i in range(N.generators):
        row = [R.zero()] * F.generators
        row[slot] = column[i]
        rows.append(row)
    return ModuleMap(F, N, rows, check=False)
