"""Brute-force references on enumerated ring and module elements, for tests
only.

The library decides locality, idempotents, products and socles by linear
algebra on degree slices, and Hom groups by congruence kernels; its local
conditions (principal maximal ideal, simple socle, ann(x) = (x)) are sizes.
These references visit every element of a slice or a module instead, so
they serve only small rings and modules: the sets they enumerate have at
most a few thousand elements.  Annihilators and principal ideals are built
here as `Ideal`s from the enumerated elements, and two ideals are equal when
their slices are.  Their ring elements are multiplied by
`ring_multiply`, pair by pair of terms, not by the library's product loop
`rings._times`.  The DG model's closed forms are checked against a
generic word rewriter in the same way, and its elements are multiplied and
differentiated here as term dicts {(t, e, m): c}, with no weight bound, for
tests that compare the slice matrices with element arithmetic: the slice
matrices of A are built column by column from `dg_multiply` and
`dg_differential` on the monomials of a slice (`algebra_matrix`), never from
the library's cells.  From them `map_slice` assembles a DG map's slice
matrix block by block, where the library reads it off the map's cone,
`slice_differential` a module's, one callback per block, where the library
adds the nonzero cells of its entries' terms, and `u_action` the block
diagonal left multiplication by u.  Over F_p,
`dense_rref` eliminates dense rows of Python integers at any prime, where
the library keeps sparse rows.  Congruence systems over
Z/m have a dense reference too: `dense_congruence_kernel`,
`dense_congruence_solve` and `dense_remainder` read their answers off the
batch Hermite form `batch_hnf_columns` with the moduli columns m_i e_i
written out, where the library keeps a sparse basis with the moduli implicit.
Two ring structures have their earlier forms here: `reference_maximal_ideal`
solves m_q = {x : x R_{-q} in m0} as a congruence kernel at every degree q,
where the library reads m_0 off m0 and takes a finite ring's other slices
whole, and `reference_algebra_generators` grows its spin by `extend`, a new
Subgroup per product kept, where the library grows one in place.

The cyclic modules R/t^i of R = F_p[t]/(t^N) have closed forms at every
order, where enumeration stops at a few thousand elements: R is a Nakayama
algebra, so every module is a sum of the uniserial R/t^i (Auslander, Reiten
and Smalo, Representation Theory of Artin Algebras, ch. VI; Benson,
Representations and Cohomology I, 2.1).  `cyclic_hom_size`,
`cyclic_syzygy_length`, `cyclic_stable_hom_dim` and
`cyclic_power_is_stably_zero` give the Hom groups, Heller shifts and stable
Hom groups of these modules, for 1 <= i, j < N, and `cyclic_sum_syzygy` the
Heller shift of a sum of them.

The module layer holds integer arrays only: a map is its image array, and a
presentation its flattened relation rows.  Its earlier ring-element forms are
references here: `flatten`, `unflatten`, `coords` and `column` convert a
column of ring elements to and from a module's coordinates, `map_from_matrix`
makes a map from a g_target x g_source matrix over the ring, and
`map_columns` and `map_matrix` lift a map's images back to ring elements.
`kernel_presentation`, `cokernel_presentation` and `cofiber_presentation`
give the generator count and relation columns, over the ring, of the
presentations the library built from ring elements before it built them
from integer rows.
"""

import functools
import itertools
import math

import numpy as np

from trimod import dga, linalg, rings
from trimod import modules as md
from trimod.errors import NotLocal, ParityObstruction, ShapeMismatch, WeightOverflow
from trimod.rings import Ideal, RingElement, maximal_ideal


def ring_multiply(x, y):
    """x y pair by pair of terms: (b_i v^s)(b_j v^t) is the sum of
    c b_k v^(s+t+u) over the terms (c, k, u) of b_i b_j in the product
    table, the v powers added explicitly."""
    out = {}
    for (i, s), c1 in x.terms.items():
        for (j, t), c2 in y.terms.items():
            for c, k, u in x.ring.products.get((i, j), ()):
                out[k, s + t + u] = out.get((k, s + t + u), 0) + c1 * c2 * c
    return RingElement(x.ring, out)


def enumerate_slice(R, q):
    """All homogeneous elements of degree q, in the lexicographic order of
    their slice coordinates (finite coefficient ring)."""
    terms = R.slice_terms(q)
    for combo in itertools.product(*[range(m) for m in R.slice_moduli(terms)]):
        yield RingElement(R, {mt: c for mt, c in zip(terms, combo) if c})


def primitive_idempotents(R):
    """The nonzero degree-0 idempotents with no smaller nonzero idempotent
    below them, in enumeration order."""
    idems = [x for x in enumerate_slice(R, 0) if ring_multiply(x, x) == x and not x.is_zero]
    return [e for e in idems if not any(f != e and ring_multiply(e, f) == f for f in idems)]


def _ideal_of(R, members):
    """The ideal whose degree-q slice, q in R.degree_support(), is spanned
    by the elements members(q) of that slice."""
    slices = {q: linalg.Subgroup([R.slice_coords(y, q) for y in members(q)], R.slice_moduli(R.slice_terms(q)))
              for q in R.degree_support()}
    return Ideal(R, [R.from_slice_coords(q, v) for q, span in slices.items() for v in span.cols()], slices)


def annihilator(R, gens):
    """The elements y with g y = 0 for each homogeneous g in gens (one
    element or a list), by enumeration of each slice."""
    gens = [gens] if isinstance(gens, RingElement) else list(gens)
    return _ideal_of(R, lambda q: [y for y in enumerate_slice(R, q)
                                   if all(ring_multiply(g, y).is_zero for g in gens)])


def principal_ideal(R, x):
    """(x) for homogeneous x: its degree-q slice holds x r for every r of
    degree q - |x|."""
    return _ideal_of(R, lambda q: [] if x.is_zero else
                     [ring_multiply(x, r) for r in enumerate_slice(R, q - x.degree)])


def socle(R):
    """The elements killed by the maximal ideal of a local ring."""
    return annihilator(R, maximal_ideal(R).generators)


def same_ideal(I, J):
    """Ideals of one ring are equal when their slices are."""
    return I.ring == J.ring and I.slices == J.slices


def double_annihilator_holds(R):
    """Check ann(ann(x)) == (x) for every homogeneous x; witness on failure.

    Returns (True, None) or (False, x).
    """
    for q in R.degree_support():
        for x in enumerate_slice(R, q):
            if not same_ideal(annihilator(R, annihilator(R, x).generators), principal_ideal(R, x)):
                return False, x
    return True, None


def module_elements(M):
    """All elements of a finite module, as flattened ambient representatives:
    the lifts of every quotient coordinate vector."""
    qm, _, L = M.quotient()
    for combo in itertools.product(*[range(m) for m in qm]):
        yield (L @ np.array(combo, dtype=L.dtype).reshape(len(qm))).tolist()


def flatten(M, col):
    """A column of M.generators ring elements as its flattened full
    coordinates, g * dim(R) integers."""
    return [c for x in col for c in M.ring.full_coords(x)]


def unflatten(M, vec):
    """Flattened full coordinates as a column of M.generators ring elements."""
    D = M.ring.dim
    return [M.ring.from_full_coords(vec[i * D:(i + 1) * D]) for i in range(M.generators)]


def coords(M, col):
    """The quotient coordinates of a column of ring elements."""
    qm, P, _ = M.quotient()
    v = P @ np.array(flatten(M, col), dtype=P.dtype).reshape(P.shape[1])
    return [x % m for x, m in zip(v.tolist(), qm)]


def column(M, v):
    """A column of ring elements with the quotient coordinates v."""
    L = M.quotient()[2]
    return unflatten(M, (L @ np.array(v, dtype=L.dtype).reshape(L.shape[1])).tolist())


def map_from_matrix(M, N, matrix):
    """The map M -> N of a g_N x g_M matrix over the ring: column j, read in
    N's quotient coordinates, is the image of generator j.  Refused with
    IllFormedMap unless it sends the relations of M to zero."""
    images = [coords(N, [row[j] for row in matrix]) for j in range(M.generators)]
    return md.ModuleMap(M, N, np.array(images, dtype=N.dtype).reshape(M.generators, len(N.quotient()[0])).T)


def map_columns(f):
    """Columns over the ring lifted from f's images, one per source generator."""
    return [column(f.target, v) for v in f.images.T.tolist()]


def map_matrix(f):
    """A g_target x g_source matrix over the ring with f's images."""
    cols = map_columns(f)
    return [[col[i] for col in cols] for i in range(f.target.generators)]


def kernel_presentation(f):
    """(generators, relation columns over the ring) of ker f, on the greedy
    generators and relations that `modules.kernel` keeps, with the cover of
    the kernel made from ring elements."""
    M = f.source
    vecs = md._kernel_vectors(f)
    keep = md._module_generators(M, vecs)
    F = md.free_module(M.ring, len(keep))
    cols = [column(M, vecs[i]) for i in keep]
    cover = map_from_matrix(F, M, [[col[r] for col in cols] for r in range(M.generators)])
    ker = md._kernel_vectors(cover)
    return len(keep), [column(F, ker[i]) for i in md._module_generators(F, ker)]


def cokernel_presentation(f):
    """(generators, relation columns over the ring) of coker f: the
    relations of the target, then the lifted images of f."""
    return f.target.generators, f.target.relations + map_columns(f)


def cofiber_presentation(f):
    """(generators, relation columns over the ring) of the cofiber of f: the
    cokernel of (emb, f): M -> I(M) + N, for emb the injective envelope of M."""
    M, N = f.source, f.target
    R, emb = M.ring, md.injective_envelope(M)
    I = emb.target
    rels = [[R.zero()] * I.generators + col for col in N.relations]
    rels += [a + b for a, b in zip(map_columns(emb), map_columns(f))]
    return I.generators + N.generators, rels


class Factor:
    """Corner ring e * R0 for an idempotent e, with brute-force arithmetic."""

    def __init__(self, R, e):
        self.unit = e
        self.elements = []
        for r in enumerate_slice(R, 0):
            x = ring_multiply(e, r)
            if not any(x == y for y in self.elements):
                self.elements.append(x)

    def is_unit(self, a):
        return any(ring_multiply(a, b) == self.unit for b in self.elements)

    def nonunits(self):
        return [a for a in self.elements if not self.is_unit(a)]

    def unit_additive_order(self):
        acc = self.unit
        for m in range(1, len(self.elements) + 1):
            if acc.is_zero:
                return m
            acc = acc + self.unit
        return None

    def socle_is_simple(self):
        """The elements killed by every nonunit are as many as the residue
        field's."""
        nonunits = self.nonunits()
        socle = [a for a in self.elements if all(ring_multiply(a, x).is_zero for x in nonunits)]
        return len(socle) * len(nonunits) == len(self.elements)


def factor_positive(F, n):
    """Whether the local factor F of an ungraded ring has one of the three
    admissible shapes at suspension n."""
    nonunits = F.nonunits()
    if len(nonunits) == 1:
        return True  # field: only 0 fails to invert
    if n != 0:
        # an ungraded ring has units only in degree 0, and the exterior and
        # Z/4 shapes need one in degree n
        return False
    order = F.unit_additive_order()
    if order == 2:
        # exterior shape: square-zero radical of k-dimension one
        products_vanish = all(ring_multiply(a, b).is_zero for a in nonunits for b in nonunits)
        return products_vanish and len(nonunits) ** 2 == len(F.elements)
    if order == 4:
        doubles = [r + r for r in F.elements]
        same = all(any(a == d for d in doubles) for a in nonunits) and all(
            any(d == a for a in nonunits) for d in doubles)
        return same
    return False


def oracle_is_delta(R, n=0):
    """Triangulated verdict of an ungraded finite ring, from its corner rings."""
    return all(factor_positive(Factor(R, e), n) for e in primitive_idempotents(R))


# ---------------------------------------------------------------------------
# generic word rewriting in the two-generator DG algebra, the reference for
# the closed-form products and parity check of trimod.dga
# ---------------------------------------------------------------------------

def dg_add(alg, x, y, c=1):
    """x + c y for term dicts of the DG algebra, reduced mod p."""
    out = {k: cx % alg.p for k, cx in x.items()}
    for k, cy in y.items():
        out[k] = (out.get(k, 0) + c * cy) % alg.p
    return {k: ck for k, ck in out.items() if ck}


def dg_multiply(alg, x, y):
    """x y through the closed-form product of monomials."""
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            out = dg_add(alg, out, alg._mul_monomials(k1, k2), c1 * c2)
    return out


def dg_differential(alg, x):
    """d(x) through the closed-form differential of monomials."""
    out = {}
    for k, c in x.items():
        out = dg_add(alg, out, alg._diff_monomial(k), c)
    return out


def dg_degree(alg, x):
    """Degree of a nonzero homogeneous term dict."""
    (deg,) = {alg.monomial_degree(*k) for k in x}
    return deg


def dg_leibniz_holds(alg, x, y):
    """d(xy) = d(x) y + (-1)^{n|x|} x d(y)."""
    sign = -1 if (alg.n * dg_degree(alg, x)) % 2 else 1
    rhs = dg_add(alg, dg_multiply(alg, dg_differential(alg, x), y),
                 dg_multiply(alg, x, dg_differential(alg, y)), sign)
    return dg_differential(alg, dg_multiply(alg, x, y)) == rhs


def map_slice(f, q, twist=0):
    """The slice matrix of the DG map f, assembled block by block: block
    (i, j) is right multiplication by f.matrix[i][j] on the slice of A at
    s = q - deg(gen_j), times (-1)^{twist s}.  The reference for
    `dga.map_slice`, which reads it off the cone's slice differential, and
    with twist n for the connecting map (A[n])_{q+n} -> (B[n])_{q+n} of the
    cone sequence, which a triangle reads off f."""
    alg = f.source.alg
    cols = [q - gd for gd in f.source.gen_degrees]
    return block_matrix(alg, [q - gd for gd in f.target.gen_degrees], cols,
                        lambda i, j: right_multiplication(alg, cols[j], f.matrix[i][j].terms,
                                                          -1 if (twist * cols[j]) % 2 else 1))


@functools.cache
def algebra_matrix(alg, s, key=None, left=False):
    """The matrix over F_p on A_s of d when key is None, else of y -> y * key,
    or key * y when left, built column by column by element arithmetic:
    `dg_differential` or `dg_multiply` on each monomial of the slice, with
    the terms past the weight bound dropped.  Cached, so read-only."""
    src = dga._algebra_basis(alg, s)
    if key is None:
        images, target = [dg_differential(alg, {k: 1}) for k in src], s - alg.n
    else:
        images = [dg_multiply(alg, {key: 1}, {k: 1}) if left else dg_multiply(alg, {k: 1}, {key: 1}) for k in src]
        target = s + alg.monomial_degree(*key)
    pos = dga._algebra_basis(alg, target)
    out = np.zeros((len(pos), len(src)), dtype=np.int64)
    for col, image in enumerate(images):
        for k, c in image.items():
            if k in pos:
                out[pos[k], col] = c
    out.setflags(write=False)
    return out


def right_multiplication(alg, s, terms, sign=1):
    """sign times the matrix of y -> y * x on A_s for x the term dict terms,
    summed from the matrices of its monomials, or None when x = 0."""
    out = None
    for k, c in terms.items():
        term = c * sign * algebra_matrix(alg, s, k)
        out = term if out is None else out + term
    return None if out is None else out % alg.p


def u_action(M, q):
    """The matrix of left multiplication by u from the degree-q slice of M
    to the slice q + i, block diagonal: y -> u y on each A_{q - deg(gen_j)}.
    The reference for the slice matrix of `dga.u_action_matrix`."""
    alg = M.alg
    cols = [q - gd for gd in M.gen_degrees]
    return block_matrix(alg, [s + alg.i for s in cols], cols,
                        lambda i, j: algebra_matrix(alg, cols[j], (0, 0, 1), True) if i == j else None)


def block_matrix(alg, rows, cols, block):
    """Block matrix from the sum of A_s over s in cols to the sum over rows;
    block(i, j) is the array of block (i, j), or None for a zero block."""
    row_at = list(itertools.accumulate((len(dga._algebra_basis(alg, r)) for r in rows), initial=0))
    col_at = list(itertools.accumulate((len(dga._algebra_basis(alg, s)) for s in cols), initial=0))
    out = np.zeros((row_at[-1], col_at[-1]), dtype=np.int64)
    for i in range(len(rows)):
        for j in range(len(cols)):
            b = block(i, j)
            if b is not None:
                out[row_at[i]:row_at[i + 1], col_at[j]:col_at[j + 1]] = b
    return out


def slice_differential(M, q):
    """The slice differential of M at q assembled block by block: d_A on
    the diagonal blocks, and in block (i, j) right multiplication by
    diff[i][j] on the slice of A at s = q - deg(gen_j), times the Leibniz
    sign (-1)^{n s}, every block from `dg_differential` and `dg_multiply`.
    The reference for `dga.slice_differential`, which adds the nonzero cells
    of its entries' terms."""
    alg = M.alg
    cols = [q - gd for gd in M.gen_degrees]

    def block(i, j):
        s = cols[j]
        out = right_multiplication(alg, s, M.diff[i][j].terms, -1 if (alg.n * s) % 2 else 1)
        if i == j:
            d = algebra_matrix(alg, s)
            out = d if out is None else (out + d) % alg.p
        return out

    return block_matrix(alg, [s - alg.n for s in cols], cols, block)


def dg_random_monomial(alg, rng, max_m=6, max_t=2):
    """c v^t a^e u^m with t in [-max_t, max_t] (0 when |v| = 0), m <= max_m
    and c a unit mod p."""
    t = rng.randint(-max_t, max_t) if alg.vdeg != 0 else 0
    e = rng.randint(0, 1)
    m = rng.randint(0, max_m)
    return {(t, e, m): rng.randint(1, alg.p - 1)}


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
    # closed-form monomial product, and their normal forms fit the weight bound
    letters = {"a": {(0, 1, 0): 1}, "u": {(0, 0, 1): 1}}
    for length in range(5):
        for word in itertools.product(letters, repeat=length):
            terms = _rewrite_word(alg, 1, 0, list(word))
            # same word evaluated through normal-form multiplication
            acc = {(0, 0, 0): 1}
            for letter in word:
                acc = dg_multiply(alg, acc, letters[letter])
                for _, _, m in acc:
                    if m > alg.weight:
                        raise WeightOverflow(f"u-exponent {m} exceeds bound {alg.weight}")
            if terms != acc:
                raise ShapeMismatch(f"rewriting disagreement on word {''.join(word)}")


def batch_hnf_columns(cols, dim):
    """Column Hermite form of the lattice spanned by cols in Z^dim, in the
    form of `linalg.hnf_columns`, by batch elimination: row by row, Euclid
    merges every column nonzero there into one pivot column."""
    work = [list(map(int, c)) for c in cols if any(c)]
    fixed = []  # (pivot_row, column)
    for row in range(dim):
        live = [c for c in work if c[row] != 0]
        rest = [c for c in work if c[row] == 0 and any(c)]
        if not live:
            work = rest
            continue
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            a = live[0]
            new_live = [a]
            for b in live[1:]:
                q = b[row] // a[row]
                nb = [x - q * y for x, y in zip(b, a)]
                if nb[row] != 0:
                    new_live.append(nb)
                elif any(nb):
                    rest.append(nb)
            live = new_live
        piv = live[0]
        if piv[row] < 0:
            piv = [-x for x in piv]
        fixed.append((row, piv))
        work = rest
    # entries of each pivot column at later pivot rows, reduced mod the pivot
    fixed.sort(key=lambda t: t[0])
    for idx, (prow, pcol) in enumerate(fixed):
        for jdx in range(idx):
            qrow, qcol = fixed[jdx]
            if qcol[prow] != 0:
                q = qcol[prow] // pcol[prow]
                fixed[jdx] = (qrow, [x - q * y for x, y in zip(qcol, pcol)])
    return tuple((prow, tuple(col)) for prow, col in fixed)


def dense_rref(A, p):
    """(rows, pivots): Gauss-Jordan elimination of the list of rows A over
    F_p on dense rows of Python integers, the reduced echelon rows in pivot
    order followed by zero rows to the height of A."""
    rows = [[x % p for x in row] for row in A]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for k, row in enumerate(rows):
            if k != r and row[c]:
                rows[k] = [(x - row[c] * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def _moduli_cols(moduli):
    return [[m * (i == j) for i in range(len(moduli))] for j, m in enumerate(moduli) if m]


def _reduce(v, moduli):
    return [x % m if m else x for x, m in zip(v, moduli)]


def _graph_cols(A, nc):
    """The columns (A e_j, e_j) spanning the graph of A."""
    return [[row[j] for row in A] + [int(i == j) for i in range(nc)] for j in range(nc)]


def dense_remainder(cols, v, moduli):
    """v reduced by the dense Hermite basis of the span of cols in +Z/moduli
    and by the moduli: zero exactly when v is in the span."""
    v = list(v)
    for piv, col in batch_hnf_columns(list(cols) + _moduli_cols(moduli), len(moduli)):
        q = v[piv] // col[piv]
        if q:
            v = [a - q * b for a, b in zip(v, col)]
    return _reduce(v, moduli)


def dense_congruence_kernel(A, row_moduli, col_moduli):
    """Generators of {x : A x = 0}: the dense Hermite columns of the graph
    {(A x, x)} that vanish on the A block and are nonzero mod col_moduli."""
    nr, nc = len(A), len(col_moduli)
    moduli = list(row_moduli) + list(col_moduli)
    G = batch_hnf_columns(_graph_cols(A, nc) + _moduli_cols(moduli), nr + nc)
    gens = [_reduce(col[nr:], col_moduli) for piv, col in G if piv >= nr]
    return [g for g in gens if any(g)]


def dense_congruence_solve(A, b, row_moduli):
    """One x with A x = b in +Z/row_moduli, or None: (b, 0) reduces by the
    graph of A, over x taken mod N = lcm(row_moduli), to (0, -x) exactly
    when A x = b."""
    nr = len(A)
    nc = len(A[0]) if nr else 0
    if nr == 0:
        return [0] * nc
    N = math.lcm(*row_moduli)
    r = dense_remainder(_graph_cols(A, nc), list(b) + [0] * nc, list(row_moduli) + [N] * nc)
    if any(r[:nr]):
        return None
    return [-x % N if N else -x for x in r[nr:]]


def reference_maximal_ideal(R):
    """The maximal ideal of a local ring R, each slice m_q = {x : x R_{-q}
    in m0} one congruence kernel into R0/m0, q = 0 and finite rings
    included; m0 is pR0 plus the lift of the nilradical ker F**j of R0/p."""
    if not rings.is_local(R):
        raise NotLocal("ring is not local")
    ((p, _, _, F, _),) = rings._degree_zero_mod_p(R)
    zero = [i for i, _ in R.slice_terms(0)]
    n = len(zero)
    Fk, reach = F, p
    while reach < n:
        Fk, reach = Fk @ F % p, reach * p
    m0 = linalg.modp_kernel(Fk.tolist(), p)
    m0 += [[p * (a == j) for a in range(n)] for j in range(n) if R.orders[zero[j]] > p]
    qm, proj, _ = linalg.quotient_presentation(m0, R.slice_moduli(R.slice_terms(0)))
    proj = dict(zip(zero, zip(*proj)))
    gens, slices = [], {}
    for q in R.degree_support():
        terms, dual = R.slice_terms(q), R.slice_terms(-q)
        rows = [[0] * len(terms) for _ in range(len(dual) * len(qm))]
        for a, (i, _) in enumerate(terms):
            for s, (l, _) in enumerate(dual):
                # coordinate r in R0/m0 of b_i b_l, |b_l| = -q
                for (k, _), x in ring_multiply(R.basis_element(i), R.basis_element(l)).terms.items():
                    for r, y in enumerate(proj[k]):
                        rows[s * len(qm) + r][a] = (rows[s * len(qm) + r][a] + x * y) % p
        moduli = R.slice_moduli(terms)
        slices[q] = linalg.Subgroup(linalg.congruence_kernel(rows, qm * len(dual), moduli), moduli)
        gens += [R.from_slice_coords(q, v) for v in slices[q].cols()]
    return Ideal(R, rings._minimal_gen_subset(R, gens, slices), slices)


def reference_algebra_generators(R):
    """`rings.algebra_generators` with its spin grown by `Subgroup.extend`:
    b_i joins when the spin of 1 under the earlier generators misses it."""
    n = R.dim

    def times(s, y):
        x = ring_multiply(R.basis_element(s), RingElement(R, {(l, 0): c for l, c in enumerate(y) if c}))
        out = [0] * n
        for (m, _), c in x.terms.items():
            out[m] = R._coeff(out[m] + c, m)
        return out

    u = [sum(c for c, k, _ in R.unit_terms if k == i) for i in range(n)]
    gens, kept, span, todo = [], [u], linalg.Subgroup([u], R.orders), []
    for i in range(n):
        while todo:
            y = times(*todo.pop())
            if any(y) and (grown := span.extend([y])) != span:
                span = grown
                kept.append(y)
                todo += [(s, y) for s in gens]
        if not span.contains([int(a == i) for a in range(n)]):
            gens.append(i)
            todo = [(i, y) for y in kept]
    return gens


# ---------------------------------------------------------------------------
# closed forms for the cyclic modules R/t^i of R = F_p[t]/(t^N), 1 <= i, j < N
# ---------------------------------------------------------------------------

def cyclic_hom_size(p, i, j):
    """|Hom(R/t^i, R/t^j)|: 1 goes to a multiple of t^max(0, j - i), which
    leaves min(i, j) coefficients free."""
    return p ** min(i, j)


def cyclic_syzygy_length(n, i):
    """The length of Omega(R/t^i) = t^i R = R/t^(N - i), for N = n."""
    return n - i


def cyclic_stable_hom_dim(n, i, j):
    """The dimension of the stable Hom(R/t^i, R/t^j) over F_p, for N = n:
    of the min(i, j) free coefficients, those of t^a with a >= N - i give
    maps through R, and there are max(0, i + j - N) of them."""
    return min(i, j) - max(0, i + j - n)


def cyclic_power_is_stably_zero(n, i, a):
    """Whether t^a: R/t^i -> R/t^j, for a >= max(0, j - i), factors through
    a projective, for N = n: exactly when it factors through R/t^N -> R/t^j,
    that is, when a >= N - i."""
    return a >= n - i


def cyclic_sum_syzygy(n, lengths):
    """The lengths of the non-free summands of Omega(sum of R/t^a), for N =
    n and 1 <= a <= N: R/t^N is free, and Omega(R/t^a) = R/t^(N - a)."""
    return sorted(n - a for a in lengths if a < n)
