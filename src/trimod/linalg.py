"""Exact linear algebra kernels.

Everything downstream reduces to computations in finitely generated abelian
groups presented as Z/m_1 x ... x Z/m_D.  `_lane` picks one of two
eliminations from the moduli for `Subgroup`, `congruence_kernel`,
`congruence_solve` and `quotient_presentation`:

* all moduli equal to one prime p, or all zero -> one Gauss-Jordan over the
  field, `modp_rref`: F_p in numpy int64, or Q (p = 0) in object arrays of
  exact numbers,
* any other moduli                             -> integer Smith/Hermite
  normal forms.

A `Subgroup` is the span of some vectors in such a group, held in the
canonical form of its lane (reduced echelon rows over a field, the Hermite
basis of the preimage lattice otherwise), so equal spans compare equal.

Matrices are lists of rows; "columns" arguments are lists of coordinate
vectors.  All integer results are reduced into [0, m_i) coordinatewise.
The mod-p lane computes in int64 and refuses primes for which that could
overflow.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import UnsupportedCoefficients


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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
    the width of E, R = [T E | T] with T invertible."""
    shape = (len(A), len(A[0]) if len(A) else 0)
    # entries stay below p, so a row update stays above -p*p
    if p * p >= 2 ** 63:
        raise UnsupportedCoefficients(f"prime {p} too large for int64 elimination")
    R = np.array(A, dtype=np.int64).reshape(shape) % p if p else np.array(A, dtype=object).reshape(shape)
    nr, nc = shape
    bound = nc if bound is None else min(bound, nc)
    pivots = []
    r = c = 0
    while r < nr and c < bound:
        # the next pivot is the first nonzero of the trailing block in
        # column-major order: leftmost column, then topmost row
        dc, dr = divmod(int((R[r:, c:bound] != 0).T.argmax()), nr - r)
        c, i = c + dc, r + dr
        pivot = R[i, c]
        if not pivot:
            break
        if i != r:
            R[[r, i]] = R[[i, r]]
        if pivot != 1:
            R[r, c:] = R[r, c:] * pow(int(pivot), p - 2, p) % p if p else R[r, c:] * (1 / Fraction(pivot))
        # only rows with a nonzero entry in column c change, and the pivot
        # row is zero left of c
        rows = R[:, c].nonzero()[0]
        rows = rows[rows != r]
        if len(rows):
            update = R[rows, c:] - np.outer(R[rows, c], R[r, c:])
            R[rows, c:] = update % p if p else update
        pivots.append(c)
        r, c = r + 1, c + 1
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

def smith_normal_form(A, want_uinv=False):
    """Diagonalize A over Z.

    Returns (diag, U, V, Uinv) with U A V diagonal (nonnegative entries,
    no divisibility chain enforced).  Uinv is None unless requested.
    """
    nr = len(A)
    nc = len(A[0]) if nr else 0
    S = [list(map(int, row)) for row in A]
    U = [[int(i == j) for j in range(nr)] for i in range(nr)]
    V = [[int(i == j) for j in range(nc)] for i in range(nc)]
    Ui = [[int(i == j) for j in range(nr)] for i in range(nr)] if want_uinv else None

    def row_sub(i, k, q):  # row_i -= q*row_k ; Uinv: col_k += q*col_i
        S[i] = [a - q * b for a, b in zip(S[i], S[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]
        if Ui is not None:
            for r in range(nr):
                Ui[r][k] += q * Ui[r][i]

    def col_sub(j, k, q):  # col_j -= q*col_k
        for r in range(nr):
            S[r][j] -= q * S[r][k]
        for r in range(nc):
            V[r][j] -= q * V[r][k]

    def row_swap(i, k):
        S[i], S[k] = S[k], S[i]
        U[i], U[k] = U[k], U[i]
        if Ui is not None:
            for r in range(nr):
                Ui[r][i], Ui[r][k] = Ui[r][k], Ui[r][i]

    def col_swap(j, k):
        for r in range(nr):
            S[r][j], S[r][k] = S[r][k], S[r][j]
        for r in range(nc):
            V[r][j], V[r][k] = V[r][k], V[r][j]

    def row_neg(i):
        S[i] = [-a for a in S[i]]
        U[i] = [-a for a in U[i]]
        if Ui is not None:
            for r in range(nr):
                Ui[r][i] = -Ui[r][i]

    t = 0
    while t < min(nr, nc):
        # locate a minimal nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        if S[t][t] < 0:
            row_neg(t)
        dirty = False
        for i in range(t + 1, nr):
            if S[i][t] != 0:
                q = S[i][t] // S[t][t]
                row_sub(i, t, q)
                if S[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if S[t][j] != 0:
                q = S[t][j] // S[t][t]
                col_sub(j, t, q)
                if S[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        t += 1

    diag = [S[i][i] for i in range(min(nr, nc))]
    return diag, U, V, Ui


def hnf_columns(cols, dim):
    """Canonical column Hermite form of the lattice spanned by cols in Z^dim.

    Returns a tuple of pivot columns (each a tuple), in echelon order with
    positive pivots and reduced off-pivot entries; usable as a canonical key.
    """
    work = [list(map(int, c)) for c in cols if any(c)]
    fixed = []  # (pivot_row, column)
    for row in range(dim):
        live = [c for c in work if c[row] != 0]
        rest = [c for c in work if c[row] == 0 and any(c)]
        if not live:
            work = rest
            continue
        # gcd all live columns into one via euclid
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
    # final reduction: entries of each pivot column at later pivot rows mod pivot
    fixed.sort(key=lambda t: t[0])
    for idx, (prow, pcol) in enumerate(fixed):
        for jdx in range(idx):
            qrow, qcol = fixed[jdx]
            if qcol[prow] != 0:
                q = qcol[prow] // pcol[prow]
                fixed[jdx] = (qrow, [x - q * y for x, y in zip(qcol, pcol)])
    return tuple((prow, tuple(col)) for prow, col in fixed)


# ---------------------------------------------------------------------------
# abelian-group operations (lane chosen from the moduli)
# ---------------------------------------------------------------------------

def _reduce_vec(v, moduli):
    return [x % m if m else x for x, m in zip(v, moduli)]


def _moduli_cols(moduli):
    D = len(moduli)
    out = []
    for i, m in enumerate(moduli):
        if m:
            col = [0] * D
            col[i] = m
            out.append(col)
    return out


def _with_moduli(A, row_moduli):
    """Rows of [A | diag(row_moduli)], zero moduli left out: over Z, the
    solutions of A x = b in +Z/row_moduli are the x-parts of those of
    [A | diag] y = b."""
    extra = _moduli_cols(row_moduli)
    return [list(row) + [col[i] for col in extra] for i, row in enumerate(A)]


class Subgroup:
    """The subgroup of +Z/m_i generated by some columns; immutable.

    Held in the canonical form of its lane, so equality of two Subgroups is
    equality of the spans (over the same moduli).
    """

    __slots__ = ("moduli", "_p", "_rows", "_pivots")

    def __init__(self, cols, moduli):
        self.moduli = tuple(moduli)
        self._p = p = _lane(self.moduli)
        cols = [list(c) for c in cols]
        if p is None:
            # Hermite basis of the preimage lattice, which holds the moduli
            hnf = hnf_columns(cols + _moduli_cols(self.moduli), len(self.moduli))
            self._rows = tuple(col for _, col in hnf)
            self._pivots = tuple(prow for prow, _ in hnf)
            return
        R, pivots = modp_rref(cols, p)
        self._rows = tuple(map(tuple, R[:len(pivots)].tolist()))
        self._pivots = tuple(pivots)

    def contains(self, v):
        """Is the coordinate vector v in the subgroup?"""
        v = list(v)
        for piv, row in zip(self._pivots, self._rows):
            # echelon rows over a field have pivot 1 and zeros at the other
            # pivots; a Hermite column leaves a remainder at its pivot row
            # when v is outside the lattice
            q = v[piv] // row[piv] if self._p is None else v[piv]
            if q:
                v = [a - q * b for a, b in zip(v, row)]
        return not any(_reduce_vec(v, self.moduli))

    def size(self):
        """Number of elements; raises for a nonzero span over Q."""
        if self._p:
            return self._p ** len(self._rows)
        if self._p == 0:
            if self._rows:
                raise UnsupportedCoefficients("a nonzero rational span is infinite")
            return 1
        # the lattice contains the moduli columns, hence is full rank; its
        # index in Z^D is the product of the Hermite pivots
        index = math.prod(row[piv] for piv, row in zip(self._pivots, self._rows))
        return math.prod(self.moduli) // index

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
        return Subgroup(self.cols() + [list(c) for c in cols], self.moduli)

    def __eq__(self, other):
        return isinstance(other, Subgroup) and (self.moduli, self._rows) == (other.moduli, other._rows)

    def __hash__(self):
        return hash((self.moduli, self._rows))

    def __repr__(self):
        return f"Subgroup({self.cols()}, moduli={list(self.moduli)})"


def congruence_kernel(A, row_moduli, col_moduli):
    """Generators of {x in +Z/col_moduli : A x = 0 in +Z/row_moduli}."""
    nr = len(A)
    nc = len(A[0]) if nr else len(col_moduli)
    p = _lane(list(row_moduli) + list(col_moduli))
    if p is not None:
        return _kernel_basis(A, nc, p)[0].tolist()
    # integer path: kernel of [A | diag(row_moduli)] projected to x-part
    if nr == 0:
        gens = [[int(i == j) for i in range(nc)] for j in range(nc)]
    else:
        aug = _with_moduli(A, row_moduli)
        diag, U, V, _ = smith_normal_form(aug)
        rank = sum(1 for d in diag if d != 0)
        total = len(aug[0])
        gens = []
        for j in range(total):
            if j >= rank or (j < len(diag) and diag[j] == 0):
                col = [V[r][j] for r in range(total)]
                x = col[:nc]
                if any(x):
                    gens.append(x)
    gens += [[int(i == j) * m for i in range(nc)] for j, m in enumerate(col_moduli) if m]
    gens = [_reduce_vec(g, col_moduli) for g in gens]
    return [g for g in gens if any(g)] or []


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
    aug = _with_moduli(A, row_moduli)
    width = len(aug[0])
    diag, U, V, _ = smith_normal_form(aug)
    c = [sum(U[i][k] * b[k] for k in range(nr)) for i in range(nr)]
    xprime = [0] * width
    for i in range(nr):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if i < len(c) and c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < width:
                xprime[i] = c[i] // d
    for i in range(min(nr, len(diag)), nr):
        if c[i] != 0:
            return None
    z = [sum(V[r][k] * xprime[k] for k in range(width)) for r in range(width)]
    return z[:nc]


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
    if D == 0:
        return [], [], []
    cols = [list(c) for c in rel_cols] + _moduli_cols(moduli)
    A = [[cols[j][i] for j in range(len(cols))] for i in range(D)]
    diag, U, V, Ui = smith_normal_form(A, want_uinv=True)
    qmoduli, proj, liftcols = [], [], []
    for i in range(D):
        d = diag[i] if i < len(diag) else 0
        if d == 1:
            continue
        qmoduli.append(d)
        proj.append([U[i][k] for k in range(D)])
        liftcols.append([Ui[r][i] for r in range(D)])
    lift = [[liftcols[j][r] for j in range(len(liftcols))] for r in range(D)]
    return qmoduli, proj, lift


def apply_matrix(M, v):
    return [sum(r * x for r, x in zip(row, v)) for row in M]
