"""Exact linear algebra kernels.

Everything downstream reduces to computations in finitely generated abelian
groups presented as Z/m_1 x ... x Z/m_D.  `_lane` picks one of two
eliminations from the moduli for `Subgroup`, `congruence_kernel`,
`congruence_solve` and `quotient_presentation`:

* all moduli equal to one prime p, or all zero -> one Gauss-Jordan over the
  field, `modp_rref`, on sparse rows ({column: nonzero entry}, Python ints
  mod p or exact numbers over Q), so a pivot costs in proportion to the
  nonzeros it touches; the result is an int64 array over F_p, an object
  array over Q (p = 0); a `Subgroup` keeps its rows in Python numbers,
* any other moduli                             -> integer normal forms:
  - `Subgroup`: the Hermite form `hnf_columns` of the preimage lattice,
  - `congruence_kernel`: the Hermite columns of the graph {(A x, x)} that
    vanish on the A block,
  - `congruence_solve`: the remainder of (b, 0) against that graph, which
    is (0, -x) exactly when A x = b,
  - `quotient_presentation`: the Smith form `smith_normal_form`, the one
    elimination that splits a quotient into cyclic factors.

A `Subgroup` is the span of some vectors in such a group, held in the
canonical form of its lane (reduced echelon rows over a field, the Hermite
basis of the preimage lattice otherwise), so equal spans compare equal.  It
grows by insertion into that basis, `hnf_columns(cols, dim, start)` on the
integer lane: `extend` reduces only the new vectors.

Matrices are lists of rows; "columns" arguments are lists of coordinate
vectors.  All integer results are reduced into [0, m_i) coordinatewise.
The mod-p lane returns int64 arrays and refuses primes for which products
of two residues could overflow them.
"""

from __future__ import annotations

import bisect
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
# field lane: F_p (numpy int64) and Q (p = 0, object arrays)
# ---------------------------------------------------------------------------

def modp_rref(A, p, bound=None):
    """Gauss-Jordan elimination of A over F_p, or over Q for p = 0.  Returns
    (R, pivot_columns): R reduced mod p in int64, or exact numbers in an
    object array over Q.

    With bound, pivots are taken only in the first bound columns; the later
    columns undergo the same row operations, so for A = [E | I] and bound
    the width of E, R = [T E | T] with T invertible.

    The rows are held sparse, as {column: nonzero entry}, and each column
    left of bound knows the rows nonzero there; the next pivot is the
    leftmost such column with a row at or below the current one, and the
    topmost of those rows is swapped into place."""
    nr = len(A)
    nc = len(A[0]) if nr else 0
    # the int64 result keeps a product of two of its entries exact
    if p * p >= 2 ** 63:
        raise UnsupportedCoefficients(f"prime {p} too large for int64 elimination")
    if isinstance(A, np.ndarray):
        ii, jj = A.nonzero()
        entries = zip(ii.tolist(), jj.tolist(), A[ii, jj].tolist())
    else:
        entries = ((i, j, x) for i, row in enumerate(A) for j, x in enumerate(row) if x)
    bound = nc if bound is None else min(bound, nc)
    rows = [{} for _ in range(nr)]
    holders = [set() for _ in range(bound)]
    for i, j, x in entries:
        x = int(x) % p if p else x
        if x:
            rows[i][j] = x
            if j < bound:
                holders[j].add(i)
    # rows keep their index in rows and holders; at[k] is the row at
    # position k and pos its inverse, so a swap moves no entries
    at, pos = list(range(nr)), list(range(nr))
    pivots = []
    for c in range(bound):
        r = len(pivots)
        if r == nr:
            break
        below = [pos[i] for i in holders[c] if pos[i] >= r]
        if not below:
            continue
        k = min(below)
        top, other = at[k], at[r]
        at[r], at[k], pos[top], pos[other] = top, other, r, k
        row = rows[top]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p) if p else 1 / Fraction(row[c])
            row = rows[top] = {j: x * inv % p if p else x * inv for j, x in row.items()}
        # the pivot row is zero left of c, so only columns >= c change
        others, holders[c] = holders[c], {top}
        for i in others:
            if i == top:
                continue
            target = rows[i]
            f = target[c]
            for j, y in row.items():
                x = target.get(j, 0) - f * y
                if p:
                    x %= p
                if x:
                    if j < bound and j not in target:
                        holders[j].add(i)
                    target[j] = x
                else:
                    del target[j]
                    if j < bound:
                        holders[j].discard(i)
        pivots.append(c)
    R = np.zeros((nr, nc), dtype=np.int64 if p else object)
    cells = [(k, j, x) for k, i in enumerate(at) for j, x in rows[i].items()]
    if cells:
        rr, cc, vv = zip(*cells)
        R[rr, cc] = vv
    return R, pivots


def modp_matmul(A, B, p):
    """A B mod p as a list of rows, for A with len(B) columns; either may
    have no rows or no columns.  A B given as an array keeps its width
    also when it has no rows."""
    k = len(B)
    if k * (p - 1) ** 2 >= 2 ** 63:
        raise UnsupportedCoefficients(f"prime {p} too large for int64 products of length {k}")
    a = np.array(A, dtype=np.int64).reshape(len(A), k) % p
    b = np.asarray(B, dtype=np.int64)
    b = b.reshape(k, b.shape[1] if b.ndim == 2 else 0) % p
    return (a @ b % p).tolist()


def modp_rank(A, p):
    if not len(A) or not len(A[0]):
        return 0
    return len(modp_rref(A, p)[1])


def _kernel_basis(A, nc, p):
    """(K, free) for the nc-column matrix A over F_p, or Q for p = 0: the
    rows of K are the reduced echelon basis of {x : A x = 0}, one per
    non-pivot column f in free, with 1 at f and 0 at the other free columns.
    A matrix with no rows or no columns is not eliminated."""
    R, pivots = modp_rref(A, p) if len(A) and nc else (None, [])
    free = sorted(set(range(nc)).difference(pivots))
    K = np.zeros((len(free), nc), dtype=np.int64 if p else object)
    K[np.arange(len(free)), free] = 1
    if pivots:
        K[:, pivots] = -R[:len(pivots), free].T % p if p else -R[:len(pivots), free].T
    return K, free


def modp_kernel(A, p):
    """Columns spanning {x : A x = 0} over F_p, or over Q for p = 0, in
    reduced echelon form: one per non-pivot column f, with 1 at f and 0 at
    the other non-pivot columns.  A given as an array keeps its width also
    when it has no rows."""
    nc = np.shape(A)[1] if isinstance(A, np.ndarray) else len(A[0]) if len(A) else 0
    return _kernel_basis(A, nc, p)[0].tolist()


def modp_solve(A, b, p):
    """One solution of A x = b, or None: Python ints reduced mod p, or exact
    rationals over Q for p = 0."""
    nr = len(A)
    nc = len(A[0]) if nr else 0
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


def hnf_columns(cols, dim, start=()):
    """Canonical column Hermite form of the lattice spanned by cols and by
    start, a form this function returned, in Z^dim.

    Returns a tuple of pivot columns (each a tuple), in echelon order with
    positive pivots and reduced off-pivot entries; usable as a canonical key.
    Each column is inserted row by row: Euclid steps at a pivot row leave
    the gcd in the pivot column, and a row without one takes the column.
    """
    basis = {prow: list(col) for prow, col in start}
    for c in cols:
        c = list(map(int, c))
        for row in range(dim):
            if not c[row]:
                continue
            a = basis.get(row)
            if a is None:
                basis[row] = c if c[row] > 0 else [-x for x in c]
                break
            # floor division leaves 0 <= c[row] < a[row], so pivots stay positive
            while True:
                q = c[row] // a[row]
                if q:
                    c = [x - q * y for x, y in zip(c, a)]
                if not c[row]:
                    break
                a, c = c, a
            basis[row] = a
    # final reduction: entries of each pivot column at later pivot rows mod pivot
    fixed = sorted(basis.items())
    for idx, (prow, pcol) in enumerate(fixed):
        for jdx in range(idx):
            qrow, qcol = fixed[jdx]
            q = qcol[prow] // pcol[prow]
            if q:
                fixed[jdx] = (qrow, [x - q * y for x, y in zip(qcol, pcol)])
    return tuple((prow, tuple(col)) for prow, col in fixed)


# ---------------------------------------------------------------------------
# abelian-group operations (lane chosen from the moduli)
# ---------------------------------------------------------------------------

def _reduce_vec(v, moduli):
    return [x % m if m else x for x, m in zip(v, moduli)]


def _axpy(v, f, row, p):
    """v - f row over F_p, or over Q for p = 0."""
    return [(x - f * y) % p if p else x - f * y for x, y in zip(v, row)]


def _moduli_cols(moduli):
    return [[m * (i == j) for i in range(len(moduli))] for j, m in enumerate(moduli) if m]


class Subgroup:
    """The subgroup of +Z/m_i generated by some columns; immutable.

    Held in the canonical form of its lane, so equality of two Subgroups is
    equality of the spans (over the same moduli).
    """

    __slots__ = ("moduli", "_p", "_rows", "_pivots")

    def __init__(self, cols, moduli):
        self.moduli = tuple(moduli)
        self._p = p = _lane(self.moduli)
        # modp_rref's bound: a span and the kernels of its lane take the same primes
        if p and p * p >= 2 ** 63:
            raise UnsupportedCoefficients(f"prime {p} too large for int64 elimination")
        self._rows, self._pivots = (), ()
        # the preimage lattice of the integer lane holds the moduli
        self._insert(list(cols) + (_moduli_cols(self.moduli) if p is None else []))

    def _insert(self, cols):
        """Insert cols into the held basis; over a field each column, reduced
        and scaled to a leading 1, is cleared from the rows and joins them."""
        cols = [list(c) for c in cols]
        self._check(cols)
        p = self._p
        if p is None:
            hnf = hnf_columns(cols, len(self.moduli), tuple(zip(self._pivots, self._rows)))
            self._rows = tuple(col for _, col in hnf)
            self._pivots = tuple(prow for prow, _ in hnf)
            return
        rows, pivots = list(self._rows), list(self._pivots)
        for v in cols:
            # exact Python numbers: int64 entries over Q would wrap on overflow
            v = [int(x) % p for x in v] if p else [Fraction(x.item() if isinstance(x, np.generic) else x) for x in v]
            for piv, row in zip(pivots, rows):
                if v[piv]:
                    v = _axpy(v, v[piv], row, p)
            lead = next((j for j, x in enumerate(v) if x), None)
            if lead is None:
                continue
            if v[lead] != 1:
                inv = pow(v[lead], p - 2, p) if p else 1 / v[lead]
                v = [x * inv % p if p else x * inv for x in v]
            rows = [_axpy(row, row[lead], v, p) if row[lead] else row for row in rows]
            k = bisect.bisect(pivots, lead)
            pivots.insert(k, lead)
            rows.insert(k, v)
        self._rows, self._pivots = tuple(map(tuple, rows)), tuple(pivots)

    def _check(self, vecs):
        if any(len(v) != len(self.moduli) for v in vecs):
            raise ShapeMismatch(f"vectors need {len(self.moduli)} coordinates, one per modulus")

    def remainder(self, v):
        """v reduced by the canonical rows, modulo the moduli: zero exactly
        when v is in the subgroup."""
        v = list(v)
        self._check([v])
        for piv, row in zip(self._pivots, self._rows):
            # echelon rows over a field have pivot 1 and zeros at the other
            # pivots; a Hermite column leaves a remainder at its pivot row
            # when v is outside the lattice
            q = v[piv] // row[piv] if self._p is None else v[piv]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return _reduce_vec(v, self.moduli)

    def contains(self, v):
        """Is the coordinate vector v in the subgroup?"""
        return not any(self.remainder(v))

    def size(self):
        """Number of elements; raises for an infinite span, one nonzero at a
        coordinate of modulus 0 (over Q, any nonzero span)."""
        if self._p:
            return self._p ** len(self._rows)
        free = [i for i, m in enumerate(self.moduli) if not m]
        if any(row[i] for row in self._rows for i in free):
            raise UnsupportedCoefficients("a span nonzero at a coordinate of modulus 0 is infinite")
        # the lattice holds the columns of the nonzero moduli and lies in
        # their coordinates, where its index is the product of the pivots
        index = math.prod(row[piv] for piv, row in zip(self._pivots, self._rows))
        return math.prod(m for m in self.moduli if m) // index

    def cols(self):
        """Canonical generators: echelon rows over a field, otherwise the
        Hermite columns that are nonzero modulo the moduli."""
        if self._p is not None:
            return [list(row) for row in self._rows]
        return [c for c in (_reduce_vec(row, self.moduli) for row in self._rows) if any(c)]

    @property
    def rank(self):
        """Number of canonical generators (the dimension over a field); 0
        exactly for the zero subgroup."""
        return len(self.cols())

    def extend(self, cols):
        """The span of this subgroup together with the given columns."""
        grown = object.__new__(Subgroup)
        grown.moduli, grown._p, grown._rows, grown._pivots = self.moduli, self._p, self._rows, self._pivots
        grown._insert(cols)
        return grown

    def __eq__(self, other):
        return isinstance(other, Subgroup) and (self.moduli, self._rows) == (other.moduli, other._rows)

    def __hash__(self):
        return hash((self.moduli, self._rows))

    def __repr__(self):
        return f"Subgroup({self.cols()}, moduli={list(self.moduli)})"


def _graph(A, nc, row_moduli, col_moduli):
    """The graph {(A x, x)} of the nc-column matrix A, a subgroup of
    +Z/row_moduli x +Z/col_moduli."""
    cols = [[row[j] for row in A] + [int(i == j) for i in range(nc)] for j in range(nc)]
    return Subgroup(cols, list(row_moduli) + list(col_moduli))


def congruence_kernel(A, row_moduli, col_moduli):
    """Generators of {x in +Z/col_moduli : A x = 0 in +Z/row_moduli}."""
    nr = len(A)
    nc = len(A[0]) if nr else len(col_moduli)
    p = _lane(list(row_moduli) + list(col_moduli))
    if p is not None:
        return _kernel_basis(A, nc, p)[0].tolist()
    # the Hermite columns of the graph that vanish on the A block span the
    # kernel, since each column is zero above its pivot
    G = _graph(A, nc, row_moduli, col_moduli)
    gens = [_reduce_vec(row[nr:], col_moduli) for piv, row in zip(G._pivots, G._rows) if piv >= nr]
    return [g for g in gens if any(g)]


def congruence_solve(A, b, row_moduli):
    """One x with A x = b in +Z/row_moduli, or None.  A given as an array
    keeps its width also when it has no rows."""
    nr = len(A)
    nc = np.shape(A)[1] if isinstance(A, np.ndarray) else len(A[0]) if nr else 0
    if nr == 0:
        return [0] * nc
    p = _lane(row_moduli)
    if p is not None:
        return modp_solve(A, b, p)
    # A x depends on x only modulo N; (b, 0) reduces by the graph to (0, -x)
    # exactly when A x = b
    N = math.lcm(*row_moduli)
    r = _graph(A, nc, row_moduli, [N] * nc).remainder(list(b) + [0] * nc)
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
        proj, free = _kernel_basis(rel_cols, D, p)
        return [p] * len(free), proj.tolist(), [[int(i == f) for f in free] for i in range(D)]
    cols = [list(c) for c in rel_cols] + _moduli_cols(moduli)
    diag, U, Ui = smith_normal_form([[c[i] for c in cols] for i in range(D)])
    # cyclic factors of order 1 are dropped
    keep = [i for i in range(D) if i >= len(diag) or diag[i] != 1]
    lift = [[Ui[r][i] for i in keep] for r in range(D)]
    return [diag[i] if i < len(diag) else 0 for i in keep], [U[i] for i in keep], lift


def apply_matrix(M, v):
    return [sum(r * x for r, x in zip(row, v)) for row in M]
