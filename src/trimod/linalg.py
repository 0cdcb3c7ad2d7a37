"""Exact linear algebra kernels.

Everything downstream reduces to computations in finitely generated abelian
groups presented as Z/m_1 x ... x Z/m_D.  `_lane` picks one of two
eliminations from the moduli for `Subgroup`, `congruence_kernel`,
`congruence_solve` and `quotient_presentation`:

* all moduli equal to one prime p, or all zero -> one sparse echelon
  basis over F_p or Q, `_echelon_basis`: each row {column: nonzero entry}
  (Python ints mod p, or Fractions over Q, made in `_sparse_rows`) joins a
  reduced echelon basis {pivot: row} by `_echelon_insert`.  Ranks count its
  pivots, and kernels are read off its rows as sparse rows
  (`_kernel_rows`, which the homology of a DG slice reads directly), and
  as lists for kernels and quotients (`_kernel_basis`); only `modp_rref`
  and the solves on it pad the rows into an array,
* any other moduli                             -> integer normal forms:
  - `Subgroup`, `congruence_kernel` and `congruence_solve`: one sparse
    reduced Hermite basis {pivot row: column} of the preimage lattice in
    Z^D, `hnf_columns`, with the moduli implicit: a row with no held column
    has the column m_i e_i, so reducing by it is x % m_i.  A kernel is the
    held columns of the graph {(A x, x)} that vanish on the A block
    (`_graph`), and a solve the remainder of (b, 0) against that graph,
    which is (0, -x) exactly when A x = b,
  - `quotient_presentation`: the Smith form `smith_normal_form`, the one
    elimination that splits a quotient into cyclic factors.

A `Subgroup` is the span of some vectors in such a group, held in the
canonical form of its lane (sparse reduced echelon rows over a field,
sparse Hermite columns otherwise), so equal spans compare equal.  It grows
by insertion into that basis: `extend` reduces only the new vectors, and
shares the rows or columns it leaves untouched with the span it extends;
`_grow` inserts in place into a span that nothing else holds yet.  It
holds no dense vectors; `cols()` makes them.

Matrices are lists of rows or arrays; "columns" arguments are lists of
coordinate vectors.  All integer results are reduced into [0, m_i)
coordinatewise.  The field lane eliminates in exact Python numbers, so it
answers at every prime.  `modp_rref` returns arrays: int64 over F_p below
2**63, where its entries fit, and object over Q and past that.
`modp_matmul`, the one F_p product, takes 2-D int64 arrays with entries in
[0, p), reduces only their product, and multiplies past its int64 bound in
Python integers; `_sparse_rows` reads every array through one tolist().
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch, UnsupportedCoefficients


# Miller-Rabin on the primes up to 41 decides primality below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the primes up to 41, proven below
    _MR_BOUND; a number at or above it that passes every base raises."""
    if n < 2 or any(n % a == 0 for a in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 2 ** i, n) != n - 1 for i in range(s)):
            return False
    if n >= _MR_BOUND:
        raise UnsupportedCoefficients(f"{n} passes Miller-Rabin on the primes up to 41, which decide "
                                      f"primality only below {_MR_BOUND}")
    return True


def _lane(moduli):
    """The arithmetic lane for these moduli: the prime p when every modulus is
    p, 0 when every modulus is 0 (over Q), and None for integer normal forms."""
    ms = set(moduli)
    if len(ms) == 1:
        (m,) = ms
        if m == 0 or is_prime(m):
            return m
    return None


# ---------------------------------------------------------------------------
# field lane: F_p and Q (p = 0), on sparse rows of exact numbers
# ---------------------------------------------------------------------------

def _sparse_rows(A, p):
    """The rows of A, a list of rows or an array, read through one tolist(),
    as {column: nonzero entry} in exact Python numbers: ints mod p, or
    Fractions over Q, so that no product of two entries wraps at any p."""
    rows = A.tolist() if isinstance(A, np.ndarray) else A
    if p:
        return [{j: y for j, x in enumerate(row) if x and (y := int(x) % p)} for row in rows]
    return [{j: Fraction(x.item() if isinstance(x, np.generic) else x) for j, x in enumerate(row) if x} for row in rows]


def _subtract(target, f, row, p):
    """target - f row, in place, over F_p or over Q for p = 0."""
    for j, y in row.items():
        x = target.get(j, 0) - f * y
        if p:
            x %= p
        if x:
            target[j] = x
        else:
            del target[j]
    return target


def _echelon_insert(held, row, p, width):
    """Insert the sparse row into held, a reduced echelon basis {pivot: row}
    over F_p, or over Q for p = 0: reduce it by the held rows at its pivots,
    scale it to a leading 1 and clear that column from the held rows.
    Returns the new pivot, or None, leaving held as it was, when the reduced
    row has no entry left of width.  The row becomes held; a held row that
    changes is replaced, never changed in place, so a shallow copy of held
    shares its untouched rows with the original."""
    # held rows are zero at the other pivots: one pass reduces the row
    for c in [c for c in row if c in held]:
        _subtract(row, row[c], held[c], p)
    lead = min(row) if row else width
    if lead >= width:
        return None
    if row[lead] != 1:
        inv = pow(row[lead], p - 2, p) if p else 1 / row[lead]
        row = {j: x * inv % p if p else x * inv for j, x in row.items()}
    for c, old in [(c, old) for c, old in held.items() if lead in old]:
        held[c] = _subtract(dict(old), old[lead], row, p)
    held[lead] = row
    return lead


def _echelon_basis(A, p, nc, held=()):
    """The reduced echelon basis {pivot: row} of the rows of the nc-column
    matrix A over F_p, or Q for p = 0, inserted into a copy of held.  A
    matrix with no rows or no columns is not eliminated."""
    return _echelon_of_rows(_sparse_rows(A, p) if len(A) and nc else (), p, nc, held)


def _echelon_of_rows(rows, p, nc, held=()):
    """`_echelon_basis` of sparse rows {column < nc: entry}, reduced in place and held."""
    held = dict(held)
    for row in filter(None, rows):
        _echelon_insert(held, row, p, nc)
    return held


def modp_rref(A, p):
    """Gauss-Jordan elimination of A over F_p, or over Q for p = 0.
    Returns (R, pivot_columns): the held rows of `_echelon_basis` in pivot
    order, padded with zero rows (`_echelon_matrix`)."""
    nr = len(A)
    nc = len(A[0]) if nr else 0
    held = _echelon_basis(A, p, nc)
    return _echelon_matrix(held, nr, nc, p), sorted(held)


def _echelon_matrix(held, nr, nc, p):
    """nr rows: those held in pivot order, then zeros; int64 over F_p for
    p < 2**63, where the entries fit, and object over Q and past that."""
    return _from_cells((nr, nc), [(k, j, x) for k, c in enumerate(sorted(held)) for j, x in held[c].items()],
                       np.int64 if 0 < p < 2 ** 63 else object)


def _from_cells(shape, cells, dtype=np.int64):
    """Array of the given shape, zero except at the (row, column, entry) cells."""
    out = np.zeros(shape, dtype=dtype)
    if cells:
        out.put([r * shape[1] + c for r, c, _ in cells], [x for _, _, x in cells])
    return out


def modp_matmul(A, B, p):
    """A B mod p as an int64 array, for 2-D int64 arrays A and B with A as
    wide as B is tall and entries in [0, p), as every F_p array of the
    library has, so only the product is reduced; either may be empty.  The
    product is taken in int64 while its sums, k (p - 1)**2 for k = the
    height of B, stay below 2**63, and in Python integers past that; its
    reduced entries, below p, fit int64 again."""
    if B.shape[0] * (p - 1) ** 2 < 2 ** 63:
        return A @ B % p
    return (A.astype(object) @ B.astype(object) % p).astype(np.int64)


def modp_rank(A, p):
    """The rank of A over F_p, or Q for p = 0: the pivots of its echelon basis."""
    return len(_echelon_basis(A, p, len(A[0]) if len(A) else 0))


def _kernel_rows(held, nc, p):
    """The reduced echelon kernel basis of a reduced echelon basis held over
    F_p, or Q for p = 0, with its pivots below nc, as sparse rows
    {non-pivot column f: {column: nonzero entry}}, in the order of f: the x
    in nc coordinates on which the held rows, cut to their first nc entries,
    vanish, with 1 at f and 0 at the other non-pivot columns.  Its entries
    at the pivots are the negated entries of the held rows in column f, so
    the rows are read off held in one pass over its nonzeros."""
    K = {f: {f: 1} for f in range(nc) if f not in held}
    for c, row in held.items():
        for j, x in row.items():
            if j in K:
                K[j][c] = -x % p if p else -x
    return K


def _kernel_basis(held, nc, p):
    """(K, free): the rows of `_kernel_rows` as lists of nc entries, and
    their non-pivot columns."""
    K = _kernel_rows(held, nc, p)
    dense = [[0] * nc for _ in K]
    for out, row in zip(dense, K.values()):
        for j, x in row.items():
            out[j] = x
    return dense, list(K)


def modp_kernel(A, p):
    """Columns spanning {x : A x = 0} over F_p, or over Q for p = 0, in
    reduced echelon form: one per non-pivot column f, with 1 at f and 0 at
    the other non-pivot columns.  A given as an array keeps its width also
    when it has no rows."""
    nc = np.shape(A)[1] if isinstance(A, np.ndarray) else len(A[0]) if len(A) else 0
    return _kernel_basis(_echelon_basis(A, p, nc), nc, p)[0]


def modp_solve(A, b, p):
    """One solution of A x = b, or None: Python ints reduced mod p, or exact
    rationals over Q for p = 0; ShapeMismatch unless A and b fit."""
    nr = len(A)
    nc = len(A[0]) if nr else 0
    _check_system(A, nc, b)
    aug = [list(A[i]) + [b[i]] for i in range(nr)]
    R, pivots = modp_rref(aug, p)
    if nc in pivots:
        return None
    x = [0] * nc
    for r, c in enumerate(pivots):
        x[c] = int(R[r, nc]) % p if p else R[r, nc]
    return x


# ---------------------------------------------------------------------------
# integer lane: Smith and Hermite normal forms
# ---------------------------------------------------------------------------

def smith_normal_form(A):
    """Diagonalize A over Z.

    Returns (diag, U, Uinv) with U A V diagonal for some unimodular V
    (nonnegative entries, no divisibility chain enforced).
    """
    nr = len(A)
    nc = len(A[0]) if nr else 0
    S = [list(map(int, row)) for row in A]
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    # Uinv transposed: a row operation on U is a row operation on it too
    Uit = [row[:] for row in U]
    t = 0
    while t < min(nr, nc):
        # a minimal nonzero entry of the trailing block moves to (t, t)
        nonzero = [(abs(S[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if S[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        for X in (S, U, Uit):
            X[i], X[t] = X[t], X[i]
        for row in S:
            row[j], row[t] = row[t], row[j]
        if S[t][t] < 0:
            for X in (S, U, Uit):
                X[t] = [-a for a in X[t]]
        for i in range(t + 1, nr):
            q = S[i][t] // S[t][t]
            if q:  # row_i -= q row_t, so Uinv gains q col_i in col_t
                S[i] = [a - q * b for a, b in zip(S[i], S[t])]
                U[i] = [a - q * b for a, b in zip(U[i], U[t])]
                Uit[t] = [a + q * b for a, b in zip(Uit[t], Uit[i])]
        for j in range(t + 1, nc):
            q = S[t][j] // S[t][t]
            if q:
                for row in S:
                    row[j] -= q * row[t]
        # remainders left in row or column t start another round
        if not any(S[i][t] for i in range(t + 1, nr)) and not any(S[t][t + 1:]):
            t += 1
    return [S[i][i] for i in range(min(nr, nc))], U, [list(col) for col in zip(*Uit)]


def _axpy(c, q, a, moduli):
    """c + q a as a new sparse column, reduced mod the nonzero moduli."""
    c = dict(c)
    for j, x in a.items():
        y = c.get(j, 0) + q * x
        if m := moduli[j]:
            y %= m
        if y:
            c[j] = y
        else:
            c.pop(j, None)
    return c


def hnf_columns(cols, moduli, held=()):
    """The reduced column Hermite basis of the preimage lattice in Z^D of
    the span of cols in +Z/moduli, each column an iterable of (row, entry)
    pairs, inserted into held, a basis this function returned.

    Returns {pivot row: sparse column {row: nonzero entry}} in pivot order,
    unique and so a canonical key: each column is zero above its positive
    pivot and reduced at the later pivot rows.  A row i without a column has
    the implicit column m_i e_i of the reduced form (reducing by it is
    x % m_i), so held pivots are below their moduli and held columns are
    reduced mod the moduli.  Euclid steps at a pivot row leave the gcd
    there; a row of modulus 0 without a column takes the inserted column.
    Held columns are replaced, never changed in place, so the result shares
    its untouched columns with held.
    """
    held, changed = dict(held), False
    for c in cols:
        c = {j: y for j, x in c if (y := int(x) % moduli[j] if moduli[j] else int(x))}
        while c:
            r = min(c)
            a = held.get(r) or ({r: moduli[r]} if moduli[r] else None)
            if a is None:
                held[r] = c if c[r] > 0 else _axpy({}, -1, c, moduli)
                changed = True
                break
            # floor division leaves 0 <= c[r] < a[r], so pivots stay positive
            while True:
                if q := c[r] // a[r]:
                    c = _axpy(c, -q, a, moduli)
                if r not in c:
                    break
                a, c = c, a
            if a is not held.get(r):
                held[r] = a
                changed = True
    # reduce each column at the later pivot rows; a column already reduced
    # there is kept, so untouched columns stay shared
    order = sorted(held)
    for k in reversed(range(len(order) - 1) if changed else ()):
        c = held[order[k]]
        for r in order[k + 1:]:
            if q := c.get(r, 0) // held[r][r]:
                c = _axpy(c, -q, held[r], moduli)
        held[order[k]] = c
    return {i: held[i] for i in order}


def _hermite_remainder(held, v, moduli):
    """The list v reduced by the Hermite basis held of `hnf_columns` and by
    the moduli: zero exactly when v is in the span.  A held column leaves a
    remainder at its pivot row when v is outside the lattice."""
    for r, c in held.items():
        if q := v[r] // c[r]:
            for j, x in c.items():
                v[j] -= q * x
    return _reduce_vec(v, moduli)


# ---------------------------------------------------------------------------
# abelian-group operations (lane chosen from the moduli)
# ---------------------------------------------------------------------------

def _reduce_vec(v, moduli):
    return [x % m if m else x for x, m in zip(v, moduli)]


def _moduli_cols(moduli):
    return [[m * (i == j) for i in range(len(moduli))] for j, m in enumerate(moduli) if m]


class Subgroup:
    """The subgroup of +Z/m_i generated by some columns; immutable once
    shared (only its builder grows it in place, by `_grow`).

    Held in the canonical form of its lane, so equality of two Subgroups is
    equality of the spans (over the same moduli): `_held` maps each pivot
    to a sparse row or column {coordinate: entry}, a reduced echelon row
    over a field and otherwise a Hermite column of the preimage lattice,
    whose moduli columns stay implicit (`hnf_columns`).
    """

    __slots__ = ("moduli", "_p", "_held")

    def __init__(self, cols, moduli):
        self.moduli = tuple(moduli)
        self._p = _lane(self.moduli)
        self._held = {}
        self._insert(cols)

    def _insert(self, cols):
        """Insert cols, a list of vectors, into the held basis; canonical
        rows it leaves untouched are kept.  Each lane reads the vectors into
        rows of its own, so they are not copied here."""
        self._check(cols)
        p, D = self._p, len(self.moduli)
        if not len(cols):
            return
        if p is None:
            self._held = hnf_columns(map(enumerate, cols), self.moduli, self._held)
        else:
            self._held = _echelon_basis(cols, p, D, self._held)

    def _check(self, vecs):
        if any(len(v) != len(self.moduli) for v in vecs):
            raise ShapeMismatch(f"vectors need {len(self.moduli)} coordinates, one per modulus")

    def remainder(self, v):
        """v reduced by the canonical rows, modulo the moduli: zero exactly
        when v is in the subgroup."""
        v = list(v)
        self._check([v])
        p = self._p
        if p is None:
            return _hermite_remainder(self._held, v, self.moduli)
        # in exact numbers: an echelon row over a field has pivot 1 and
        # zeros at the other pivots, so v's entry there is its factor
        v = [int(x) % p if p else x.item() if isinstance(x, np.generic) else x for x in v]
        for c, row in self._held.items():
            if f := v[c]:
                for j, y in row.items():
                    v[j] -= f * y
        return _reduce_vec(v, self.moduli)

    def contains(self, v):
        """Is the coordinate vector v in the subgroup?"""
        return not any(self.remainder(v))

    def is_whole(self):
        """Is this all of +Z/m_i?  Its canonical form is then the unit vectors."""
        return len(self._held) == len(self.moduli) and all(row == {c: 1} for c, row in self._held.items())

    def size(self):
        """Number of elements; raises for an infinite span, one nonzero at a
        coordinate of modulus 0 (over Q, any nonzero span)."""
        p, held = self._p, self._held
        if p:
            return p ** len(held)
        if held and (p == 0 or any(not self.moduli[i] for col in held.values() for i in col)):
            raise UnsupportedCoefficients("a span nonzero at a coordinate of modulus 0 is infinite")
        # the lattice has index m_i // pivot in coordinate i; rows without a
        # held column have the pivot m_i
        return math.prod(self.moduli[i] // col[i] for i, col in held.items())

    def cols(self):
        """Canonical generators, dense, in pivot order: echelon rows over a
        field, otherwise the held Hermite columns, which are the ones nonzero
        modulo the moduli."""
        zero = Fraction(0) if self._p == 0 else 0
        return [[row.get(j, zero) for j in range(len(self.moduli))] for _, row in sorted(self._held.items())]

    @property
    def rank(self):
        """Number of canonical generators (the dimension over a field); 0
        exactly for the zero subgroup."""
        return len(self._held)

    def _grow(self, v):
        """Insert the vector v into this span in place; whether the span
        grew.  Only for a span that nothing else holds yet, such as the
        spin of `rings.algebra_generators`: shared Subgroups are immutable."""
        self._check([v])
        if self._p is None:
            held, self._held = self._held, hnf_columns([enumerate(v)], self.moduli, self._held)
            return held != self._held
        (row,) = _sparse_rows([v], self._p)
        return _echelon_insert(self._held, row, self._p, len(self.moduli)) is not None

    def extend(self, cols):
        """The span of this subgroup together with the given columns."""
        grown = object.__new__(Subgroup)
        grown.moduli, grown._p, grown._held = self.moduli, self._p, self._held
        grown._insert(cols)
        return grown

    def __eq__(self, other):
        return isinstance(other, Subgroup) and (self.moduli, self._held) == (other.moduli, other._held)

    def __hash__(self):
        return hash((self.moduli, tuple(map(tuple, self.cols()))))

    def __repr__(self):
        return f"Subgroup({self.cols()}, moduli={list(self.moduli)})"


def _graph(A, nc, moduli):
    """The Hermite basis `hnf_columns` of the graph {(A x, x)} of the
    nc-column matrix A in +Z/moduli, its row moduli first; no columns hold
    none."""
    if not nc:
        return {}
    nr = len(A)
    cols = [{nr + j: 1} for j in range(nc)]
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return hnf_columns((c.items() for c in cols), moduli)


def _check_system(A, nc, *per_row):
    """ShapeMismatch unless A has rows of nc entries and each of per_row one entry per row."""
    if any(len(row) != nc for row in A) or any(len(v) != len(A) for v in per_row):
        raise ShapeMismatch(f"{len(A)} congruences need as many moduli and right-hand sides, and rows of {nc}")


def congruence_kernel(A, row_moduli, col_moduli):
    """Generators of {x in +Z/col_moduli : A x = 0 in +Z/row_moduli}."""
    return congruence_kernel_order(A, row_moduli, col_moduli)[0]


def congruence_kernel_order(A, row_moduli, col_moduli):
    """(`congruence_kernel`, its number of elements), from one elimination:
    p**k for k generators over F_p, and otherwise the product of m_i / c_i
    over the pivots i of the generators, c_i their entries there.  The
    number is None when a modulus is 0."""
    nr, nc = len(A), len(col_moduli)
    _check_system(A, nc, row_moduli)
    p = _lane(list(row_moduli) + list(col_moduli))
    if p is not None:
        K = _kernel_basis(_echelon_basis(A, p, nc), nc, p)[0]
        return K, p ** len(K) if p else None
    # the Hermite columns of the graph that vanish on the A block span the
    # kernel, since each column is zero above its pivot; as in
    # `Subgroup.size`, coordinate i has index m_i / c_i in their lattice
    G = _graph(A, nc, list(row_moduli) + list(col_moduli))
    held = {piv - nr: col for piv, col in G.items() if piv >= nr}
    order = None if 0 in col_moduli else math.prod(col_moduli[i] // col[i + nr] for i, col in held.items())
    return [[col.get(j, 0) for j in range(nr, nr + nc)] for col in held.values()], order


def congruence_solve(A, b, row_moduli):
    """One x with A x = b in +Z/row_moduli, or None.  A given as an array
    keeps its width also when it has no rows."""
    nr = len(A)
    nc = np.shape(A)[1] if isinstance(A, np.ndarray) else len(A[0]) if nr else 0
    _check_system(A, nc, b)
    if nr == 0:
        return [0] * nc
    # moduli of a system with no congruences are not read
    _check_system(A, nc, row_moduli)
    p = _lane(row_moduli)
    if p is not None:
        return modp_solve(A, b, p)
    # A x depends on x only modulo N; (b, 0) reduces by the graph to (0, -x)
    # exactly when A x = b
    N = math.lcm(*row_moduli)
    moduli = list(row_moduli) + [N] * nc
    r = _hermite_remainder(_graph(A, nc, moduli), list(b) + [0] * nc, moduli)
    if any(r[:nr]):
        return None
    return [-x % N if N else -x for x in r[nr:]]


def quotient_presentation(rel_cols, moduli):
    """Canonical form of (+Z/m_i) / <rel_cols>.

    Returns (qmoduli, proj, lift): qmoduli lists the cyclic orders (> 1),
    proj is a matrix sending ambient coordinates to quotient coordinates,
    lift sends quotient coordinates to ambient representatives.  Over a
    field (F_p, or Q for all moduli 0) proj is the reduced echelon kernel
    basis of the relation rows: reducing v by the echelon rows of the
    relations leaves v[f] - sum_ep v[ep] * row_ep[f] at each free column f,
    and lift is the inclusion of the free columns.
    """
    D = len(moduli)
    p = _lane(moduli)
    if p is not None:
        proj, free = _kernel_basis(_echelon_basis(rel_cols, p, D), D, p)
        return [p] * len(free), proj, [[int(i == f) for f in free] for i in range(D)]
    cols = [list(c) for c in rel_cols] + _moduli_cols(moduli)
    diag, U, Ui = smith_normal_form([[c[i] for c in cols] for i in range(D)])
    # cyclic factors of order 1 are dropped
    keep = [i for i in range(D) if i >= len(diag) or diag[i] != 1]
    lift = [[Ui[r][i] for i in keep] for r in range(D)]
    return [diag[i] if i < len(diag) else 0 for i in keep], [U[i] for i in keep], lift


def apply_matrix(M, v):
    return [sum(r * x for r, x in zip(row, v)) for row in M]
