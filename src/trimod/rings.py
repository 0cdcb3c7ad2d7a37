"""Graded commutative rings presented by homogeneous basis and structure constants.

A ring is either *finite* (supported on finitely many degrees, additive group
a finite product of cyclic groups) or *periodic* (a distinguished central unit
v of positive degree d, with every homogeneous element a basis combination
times a power of v; coefficients then lie in a prime field or Q).

Elements are finite sums of terms ``coeff * basis[i] * v**t``.  All arithmetic
is exact: integers mod the additive orders, or Fractions over Q.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from . import linalg
from .errors import (
    AssociativityViolation,
    CommutativityViolation,
    DegreeMismatch,
    NoUnit,
    NotLocal,
    NotSemiperfect,
    RingSpecError,
    SizeCapExceeded,
    UnsupportedCoefficients,
)

DEFAULT_CAP = 4096

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class GradedRing:
    """Immutable after construction; validate() checks all ring axioms."""

    def __init__(self, char, basis, products, unit, periodicity=None, orders=None):
        """basis: [(name, degree)]; products: {(i, j): [(coeff, k, vpow)]};
        unit: [(coeff, k, vpow)]; periodicity: (name, period) or None;
        orders: additive order per basis element (defaults to char)."""
        self.char = int(char)
        self.basis_names = tuple(n for n, _ in basis)
        self.degrees = tuple(int(d) for _, d in basis)
        self.periodicity = (periodicity[0], int(periodicity[1])) if periodicity else None
        if orders is None:
            orders = [self.char] * len(basis)
        self.orders = tuple(int(o) for o in orders)
        self.products = {
            (int(i), int(j)): tuple((self._coeff(c, k), int(k), int(t)) for c, k, t in terms if self._coeff(c, k) != 0)
            for (i, j), terms in products.items()
        }
        self.products = {k: v for k, v in self.products.items() if v}
        self.unit_terms = tuple((self._coeff(c, k), int(k), int(t)) for c, k, t in unit)
        self._cache = {}

    # -- basic structure -------------------------------------------------

    @property
    def dim(self):
        return len(self.basis_names)

    @property
    def is_finite(self):
        return self.periodicity is None

    def _coeff(self, c, k=None):
        if self.char == 0:
            return Fraction(c)
        m = self.orders[k] if k is not None else self.char
        return int(c) % m if m else int(c)

    def key(self):
        return (
            self.char,
            self.basis_names,
            self.degrees,
            self.orders,
            self.periodicity,
            tuple(sorted(self.products.items())),
            self.unit_terms,
        )

    def __eq__(self, other):
        return isinstance(other, GradedRing) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        per = f", v={self.periodicity[0]}^{{deg {self.periodicity[1]}}}" if self.periodicity else ""
        return f"GradedRing(char {self.char}, basis {list(self.basis_names)}{per})"

    def size(self):
        """Number of elements (finite rings only)."""
        if not self.is_finite or self.char == 0:
            return None
        n = 1
        for o in self.orders:
            n *= o
        return n

    # -- elements --------------------------------------------------------

    def zero(self):
        return RingElement(self, {})

    def one(self):
        return RingElement(self, {(k, t): c for c, k, t in self.unit_terms})

    def basis_element(self, i, vpow=0, coeff=1):
        return RingElement(self, {(i, vpow): coeff})

    def element(self, terms):
        return RingElement(self, dict(terms))

    def _mul_monomials(self, i, s, j, t):
        """(basis_i v^s)(basis_j v^t) as a term dict."""
        out = {}
        for c, k, u in self.products.get((i, j), ()):
            key = (k, s + t + u)
            out[key] = out.get(key, 0) + c
        return out

    # -- degree slices ---------------------------------------------------

    def slice_terms(self, q):
        """Ordered (basis index, v power) monomials of degree q."""
        out = []
        if self.periodicity is None:
            for i, d in enumerate(self.degrees):
                if d == q:
                    out.append((i, 0))
        else:
            dper = self.periodicity[1]
            for i, d in enumerate(self.degrees):
                if (q - d) % dper == 0:
                    out.append((i, (q - d) // dper))
        return out

    def degree_support(self):
        """Representative degrees: all degrees (finite) or one period (periodic)."""
        if self.periodicity is None:
            return sorted(set(self.degrees))
        d = self.periodicity[1]
        return sorted({deg % d for deg in self.degrees})

    def slice_moduli(self, terms):
        if self.char == 0:
            return [0] * len(terms)
        return [self.orders[i] for i, _ in terms]

    def slice_coords(self, x, q=None):
        if q is None:
            q = x.degree
        terms = self.slice_terms(q)
        pos = {mt: idx for idx, mt in enumerate(terms)}
        v = [0] * len(terms)
        for (i, t), c in x.terms.items():
            v[pos[(i, t)]] = c
        return v

    def from_slice_coords(self, q, v):
        terms = self.slice_terms(q)
        return RingElement(self, {mt: c for mt, c in zip(terms, v) if c})

    def full_coords(self, x):
        """Coordinates over the whole basis (finite rings, v power 0)."""
        v = [0] * self.dim
        for (i, t), c in x.terms.items():
            if t != 0:
                raise ValueError("full coordinates require trivial v power")
            v[i] = c
        return v

    def from_full_coords(self, v):
        return RingElement(self, {(i, 0): c for i, c in enumerate(v) if c})

    def mult_matrix_full(self, x):
        """Matrix of y -> x*y on full coordinates (finite rings)."""
        cols = [self.full_coords(x * self.basis_element(i)) for i in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def mult_matrix_slice(self, x, q):
        """Matrix of y -> x*y from the degree-q slice to degree q+|x|."""
        src = self.slice_terms(q)
        xq = x.degree
        tgt_q = q + (xq if xq is not None else 0)
        tgt = self.slice_terms(tgt_q)
        pos = {mt: idx for idx, mt in enumerate(tgt)}
        cols = []
        for (i, t) in src:
            y = x * self.basis_element(i, t)
            col = [0] * len(tgt)
            for (k, u), c in y.terms.items():
                col[pos[(k, u)]] = c
            cols.append(col)
        return [[cols[j][r] for j in range(len(src))] for r in range(len(tgt))]

    # -- enumeration -----------------------------------------------------

    def enumerate_slice(self, q, cap=DEFAULT_CAP):
        """All homogeneous elements of degree q (finite coefficient ring)."""
        if self.char == 0:
            raise UnsupportedCoefficients("cannot enumerate over Q")
        terms = self.slice_terms(q)
        moduli = self.slice_moduli(terms)
        total = 1
        for m in moduli:
            total *= m
        if total > cap:
            raise SizeCapExceeded(f"slice of size {total} exceeds cap {cap}")
        for combo in itertools.product(*[range(m) for m in moduli]):
            yield RingElement(self, {mt: c for mt, c in zip(terms, combo) if c})

    def enumerate_elements(self, cap=DEFAULT_CAP):
        """All elements of a finite ring."""
        if not self.is_finite or self.char == 0:
            raise UnsupportedCoefficients("ring is not finite")
        n = self.size()
        if n > cap:
            raise SizeCapExceeded(f"ring of size {n} exceeds cap {cap}")
        for combo in itertools.product(*[range(o) for o in self.orders]):
            yield RingElement(self, {(i, 0): c for i, c in enumerate(combo) if c})


class RingElement:
    """A finite sum of terms coeff * basis[i] * v**t."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        clean = {}
        for (i, t), c in terms.items():
            c = ring._coeff(c, i)
            if c:
                clean[(i, t)] = c
        self.terms = clean

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_homogeneous(self):
        degs = {self._term_degree(i, t) for (i, t) in self.terms}
        return len(degs) <= 1

    def _term_degree(self, i, t):
        d = self.ring.degrees[i]
        if self.ring.periodicity:
            d += t * self.ring.periodicity[1]
        return d

    @property
    def degree(self):
        """Degree of a homogeneous element; None for 0; ValueError if mixed."""
        degs = {self._term_degree(i, t) for (i, t) in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def homogeneous_components(self):
        out = {}
        for (i, t), c in self.terms.items():
            q = self._term_degree(i, t)
            out.setdefault(q, {})[(i, t)] = c
        return {q: RingElement(self.ring, terms) for q, terms in out.items()}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return RingElement(self.ring, out)

    def __neg__(self):
        return RingElement(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RingElement(self.ring, {k: c * other for k, c in self.terms.items()})
        out = {}
        for (i, s), c1 in self.terms.items():
            for (j, t), c2 in other.terms.items():
                for key, c in self.ring._mul_monomials(i, s, j, t).items():
                    out[key] = out.get(key, 0) + c1 * c2 * c
        return RingElement(self.ring, out)

    def __rmul__(self, scalar):
        return self * scalar

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        vname = self.ring.periodicity[0] if self.ring.periodicity else "v"
        for (i, t), c in sorted(self.terms.items()):
            s = self.ring.basis_names[i]
            if c != 1:
                s = f"{c}*{s}"
            if t:
                s += f"*{vname}^{t}"
            bits.append(s)
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_ring(ring):
    """Check all ring axioms exhaustively over basis tuples.

    Accepts a GradedRing; returns it on success.  Raises a RingSpecError
    subclass naming the offending basis indices otherwise.
    """
    R = ring
    if R.char < 0 or R.char == 1:
        raise RingSpecError(f"characteristic {R.char} not supported")
    for name in R.basis_names + ((R.periodicity[0],) if R.periodicity else ()):
        if not _NAME_RE.match(name):
            raise RingSpecError(f"bad identifier {name!r}")
    if len(set(R.basis_names)) != len(R.basis_names):
        raise RingSpecError("duplicate basis names")
    if R.char == 0:
        pass
    else:
        for o in R.orders:
            if o < 2 or R.char % o != 0:
                raise RingSpecError(f"additive order {o} does not divide characteristic {R.char}")
        lcm = 1
        for o in R.orders:
            lcm = lcm * o // math.gcd(lcm, o)
        if lcm != R.char:
            raise RingSpecError("characteristic must be the lcm of the additive orders")
    if R.periodicity is not None:
        name, d = R.periodicity
        if d <= 0:
            raise RingSpecError("period must be positive")
        if R.char != 0 and not linalg.is_prime(R.char):
            raise UnsupportedCoefficients("periodic rings need field coefficients")
    else:
        for (i, j), terms in R.products.items():
            for c, k, t in terms:
                if t != 0:
                    raise RingSpecError("v powers require a periodicity declaration")
    # indices and degree homogeneity of the product table
    for (i, j), terms in R.products.items():
        if not (0 <= i < R.dim and 0 <= j < R.dim):
            raise RingSpecError(f"product index ({i}, {j}) out of range")
        want = R.degrees[i] + R.degrees[j]
        for c, k, t in terms:
            if not 0 <= k < R.dim:
                raise RingSpecError(f"product term index {k} out of range")
            have = R.degrees[k] + (t * R.periodicity[1] if R.periodicity else 0)
            if have != want:
                raise DegreeMismatch(f"product of basis {i},{j}: term {k} has degree {have}, expected {want}")
        if R.char != 0:
            # additive order of b_i kills b_i * b_j
            for o in (R.orders[i], R.orders[j]):
                for c, k, t in terms:
                    if (o * c) % R.orders[k] != 0:
                        raise RingSpecError(
                            f"product of basis {i},{j} incompatible with additive orders"
                        )
    one = R.one()
    try:
        if one.degree not in (0, None):
            raise NoUnit("unit element must have degree 0")
    except ValueError:
        raise NoUnit("unit element must be homogeneous of degree 0")
    for i in range(R.dim):
        b = R.basis_element(i)
        if one * b != b or b * one != b:
            raise NoUnit(f"1 * basis[{i}] != basis[{i}]")
    for i in range(R.dim):
        for j in range(R.dim):
            sign = -1 if (R.degrees[i] * R.degrees[j]) % 2 else 1
            lhs = R.basis_element(i) * R.basis_element(j)
            rhs = (R.basis_element(j) * R.basis_element(i)) * sign
            if lhs != rhs:
                raise CommutativityViolation(i, j)
    for i in range(R.dim):
        for j in range(R.dim):
            for k in range(R.dim):
                bi, bj, bk = R.basis_element(i), R.basis_element(j), R.basis_element(k)
                if (bi * bj) * bk != bi * (bj * bk):
                    raise AssociativityViolation(i, j, k)
    return R


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def _slice_span(ring, q, cols):
    """Additive span of column vectors inside the degree-q slice."""
    return linalg.Subgroup(cols, ring.slice_moduli(ring.slice_terms(q)))


class Ideal:
    """An ideal, stored as echelonized additive spans of its degree slices."""

    def __init__(self, ring, generators, slices):
        self.ring = ring
        self.generators = tuple(generators)
        self.slices = slices  # degree (representative) -> linalg.Subgroup

    @classmethod
    def from_generators(cls, ring, generators):
        gens = [g for g in generators if not g.is_zero]
        for g in gens:
            if not g.is_homogeneous:
                raise ValueError("ideal generators must be homogeneous")
        slices = {}
        for q in ring.degree_support():
            terms = ring.slice_terms(q)
            cols = []
            for g in gens:
                gq = g.degree
                src_q = q - gq
                if ring.periodicity is None and not ring.slice_terms(src_q):
                    continue
                M = ring.mult_matrix_slice(g, src_q)
                for j in range(len(ring.slice_terms(src_q))):
                    cols.append([M[r][j] for r in range(len(terms))])
            slices[q] = _slice_span(ring, q, cols)
        return cls(ring, gens, slices)

    def _rep_degree(self, q):
        if self.ring.periodicity is None:
            return q
        d = self.ring.periodicity[1]
        return q % d

    def contains(self, x):
        return all(
            self.slices[self._rep_degree(q)].contains(self.ring.slice_coords(comp, q))
            for q, comp in x.homogeneous_components().items()
        )

    def is_zero_ideal(self):
        return all(span.rank == 0 for span in self.slices.values())

    def size(self):
        """Number of elements (finite rings)."""
        if not self.ring.is_finite or self.ring.char == 0:
            return None
        return math.prod(span.size() for span in self.slices.values())

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.ring == other.ring
            and self.slices == other.slices
        )

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


# ---------------------------------------------------------------------------
# units and locality
# ---------------------------------------------------------------------------

def is_unit(x):
    """Invertibility of a homogeneous element, by exact linear solve."""
    return inverse(x) is not None


def inverse(x):
    """Inverse of a homogeneous unit, or None."""
    R = x.ring
    if x.is_zero:
        return None
    q = x.degree
    one = R.one()
    if R.is_finite and R.char != 0:
        sol = linalg.congruence_solve(R.mult_matrix_full(x), R.full_coords(one), list(R.orders))
        return None if sol is None else R.from_full_coords(sol)
    A = R.mult_matrix_slice(x, -q)
    sol = linalg.congruence_solve(A, R.slice_coords(one, 0), [R.char] * len(A))
    return None if sol is None else R.from_slice_coords(-q, sol)


def _frobenius_matrix(R):
    """Matrix of x -> x**p on full coordinates (finite rings of prime char)."""
    p = R.char
    cols = []
    for i in range(R.dim):
        b = R.basis_element(i)
        y = R.one()
        for _ in range(p):
            y = y * b
        cols.append(R.full_coords(y))
    return [[cols[j][r] for j in range(R.dim)] for r in range(R.dim)]


def _nilradical_coords_prime(R):
    """Basis vectors of the nilradical of a finite ring of prime characteristic.

    The p-power map is linear in characteristic p, so the nilradical is the
    kernel of a high enough iterate.
    """
    p = R.char
    F = _frobenius_matrix(R)
    k = 1
    while p ** k <= R.dim:
        k += 1
    M = F
    for _ in range(k - 1):
        M = [[sum(M[i][l] * F[l][j] for l in range(R.dim)) % p for j in range(R.dim)] for i in range(R.dim)]
    return linalg.modp_kernel(M, p)


def _local_by_frobenius(R):
    """Locality test for finite rings of prime characteristic.

    R is local iff R modulo its nilradical is a single field, i.e. the fixed
    space of the induced p-power map is one dimensional.
    """
    p = R.char
    nil = _nilradical_coords_prime(R)
    qm, proj, lift = linalg.quotient_presentation(nil, list(R.orders))
    F = _frobenius_matrix(R)
    d = len(qm)
    # induced map proj . F . lift minus identity
    A = []
    for r in range(d):
        A.append([0] * d)
    for j in range(d):
        amb = linalg.apply_matrix(lift, [int(k == j) for k in range(d)])
        img = linalg.apply_matrix(F, amb)
        down = linalg.apply_matrix(proj, img)
        for r in range(d):
            A[r][j] = (down[r] - int(r == j)) % p
    fixed = d - linalg.modp_rank(A, p)
    return fixed == 1


def _nonunit_coords(R, cap):
    out = []
    for x in R.enumerate_elements(cap):
        if not is_unit(x) and not x.is_zero:
            out.append(R.full_coords(x))
    return out


def is_local(R, cap=DEFAULT_CAP):
    """Whether the nonunits form an ideal."""
    if R.periodicity is not None:
        for q in R.degree_support():
            nonunits = []
            for x in R.enumerate_slice(q, cap):
                if not x.is_zero and not is_unit(x):
                    nonunits.append(R.slice_coords(x, q))
            if not nonunits:
                continue
            if _slice_span(R, q, nonunits).size() != len(nonunits) + 1:
                return False
        return True
    if R.char == 0:
        raise UnsupportedCoefficients("locality over Q needs a periodic presentation")
    if linalg.is_prime(R.char):
        return _local_by_frobenius(R)
    nonunits = _nonunit_coords(R, cap)
    if not nonunits:
        return True
    # nonunits are closed under negation and contain 0, so they form a
    # subgroup exactly when their count matches the span they generate
    return linalg.Subgroup(nonunits, R.orders).size() == len(nonunits) + 1


# ---------------------------------------------------------------------------
# idempotents and product decomposition
# ---------------------------------------------------------------------------

def idempotents(R, cap=DEFAULT_CAP):
    """All degree-zero idempotent elements."""
    if R.char == 0:
        # a one-dimensional degree-0 slice is Q * 1, whose idempotents are 0, 1
        if len(R.slice_terms(0)) != 1:
            raise UnsupportedCoefficients("rational idempotents need a one-dimensional degree-0 slice")
        return [R.zero(), R.one()]
    terms = R.slice_terms(0)
    total = 1
    for m in R.slice_moduli(terms):
        total *= m
    if total > cap:
        if linalg.is_prime(R.char) and R.is_finite and _local_by_frobenius(R):
            return [R.zero(), R.one()]
        raise SizeCapExceeded(f"degree-zero slice of size {total} exceeds cap {cap}")
    out = []
    for e in R.enumerate_slice(0, cap):
        if e * e == e:
            out.append(e)
    return out


def decompose_product(R, cap=DEFAULT_CAP):
    """Split R along its primitive degree-zero idempotents.

    Returns a list of rings whose product is isomorphic to R; checked by a
    cardinality count for finite rings.
    """
    E = idempotents(R, cap)
    zero = R.zero()
    nonzero = [e for e in E if e != zero]
    if len(nonzero) <= 1:
        return [R]
    if R.periodicity is not None:
        raise UnsupportedCoefficients("periodic rings with nontrivial idempotents are not supported")
    if R.char == 0:
        raise UnsupportedCoefficients("rational product splitting is not supported")
    prim = []
    for e in nonzero:
        if all(f == zero or f == e or f * e != f for f in E):
            prim.append(e)
    s = zero
    for e in prim:
        s = s + e
    if s != R.one():
        raise NotSemiperfect("primitive idempotents do not sum to 1")
    for a in range(len(prim)):
        for b in range(a + 1, len(prim)):
            if not (prim[a] * prim[b]).is_zero:
                raise NotSemiperfect("primitive idempotents are not orthogonal")
    factors = [_corner_ring(R, e) for e in prim]
    total = 1
    for f in factors:
        total *= f.size()
    if total != R.size():
        raise NotSemiperfect("factor sizes do not multiply to the ring size")
    return factors


def _corner_ring(R, e):
    """The factor e*R, presented on a homogeneous basis."""
    # per-degree quotient of the slice by the kernel of multiplication by e
    basis = []
    orders = []
    block = {}  # degree -> (terms, proj, offset)
    for q in R.degree_support():
        terms = R.slice_terms(q)
        moduli = R.slice_moduli(terms)
        M = R.mult_matrix_slice(e, q)
        ker = linalg.congruence_kernel(M, moduli, moduli)
        qm, proj, lift = linalg.quotient_presentation(ker, moduli)
        offset = len(basis)
        block[q] = (terms, proj, offset, qm)
        for j, d in enumerate(qm):
            amb = linalg.apply_matrix(lift, [int(k == j) for k in range(len(qm))])
            w = e * R.from_slice_coords(q, amb)
            basis.append((f"w{offset + j}", q, w))
            orders.append(d)
    char = 1
    for o in orders:
        char = char * o // math.gcd(char, o)

    def down(x):
        """Coordinates of x in the factor basis."""
        out = {}
        for q, comp in x.homogeneous_components().items():
            terms, proj, offset, qm = block[q]
            v = R.slice_coords(comp, q)
            img = linalg.apply_matrix(proj, v)
            for j, c in enumerate(img):
                c %= qm[j]
                if c:
                    out[(offset + j, 0)] = c
        return out

    products = {}
    for a, (_, qa, wa) in enumerate(basis):
        for b, (_, qb, wb) in enumerate(basis):
            prod = wa * wb
            if prod.is_zero:
                continue
            products[(a, b)] = [(c, k, t) for (k, t), c in down(prod).items()]
    unit = [(c, k, t) for (k, t), c in down(e).items()]
    return GradedRing(
        char,
        [(name, q) for name, q, _ in basis],
        products,
        unit,
        periodicity=None,
        orders=orders,
    )


# ---------------------------------------------------------------------------
# maximal ideal, residue field, socle
# ---------------------------------------------------------------------------

def _homogeneous_gens_from_coords(R, coord_vecs):
    gens = []
    seen = set()
    for v in coord_vecs:
        x = R.from_full_coords(v)
        for comp in x.homogeneous_components().values():
            key = frozenset(comp.terms.items())
            if key not in seen and not comp.is_zero:
                seen.add(key)
                gens.append(comp)
    return gens


def maximal_ideal(R, cap=DEFAULT_CAP):
    """The ideal of nonunits of a local ring."""
    key = ("maximal_ideal", cap)
    if key in R._cache:
        return R._cache[key]
    if not is_local(R, cap):
        raise NotLocal("ring is not local")
    if R.periodicity is not None:
        gens = []
        slices = {}
        for q in R.degree_support():
            nonunits = [
                R.slice_coords(x, q)
                for x in R.enumerate_slice(q, cap)
                if not x.is_zero and not is_unit(x)
            ]
            slices[q] = _slice_span(R, q, nonunits)
            for v in nonunits:
                gens.append(R.from_slice_coords(q, v))
        ideal = Ideal(R, _minimal_gen_subset(R, gens, slices), slices)
        R._cache[key] = ideal
        return ideal
    if linalg.is_prime(R.char):
        coords = _nilradical_coords_prime(R)
    else:
        coords = _nonunit_coords(R, cap)
    gens = _homogeneous_gens_from_coords(R, coords)
    ideal = Ideal.from_generators(R, gens)
    pruned = _minimal_gen_subset(R, gens, ideal.slices)
    ideal = Ideal(R, pruned, ideal.slices)
    R._cache[key] = ideal
    return ideal


def _minimal_gen_subset(R, gens, slices):
    """Prune a generating list: keep only elements not already generated."""
    keep = []
    current = Ideal.from_generators(R, keep)
    for g in gens:
        if current.contains(g):
            continue
        keep.append(g)
        current = Ideal.from_generators(R, keep)
        if current.slices == slices:
            break
    return keep


def principal_generator(R, ideal):
    """One of the ideal's generators that generates it alone, or None."""
    for g in ideal.generators:
        if principal_ideal(R, g) == ideal:
            return g
    return None


def chain_generator(R, cap=DEFAULT_CAP):
    """A single generator of the maximal ideal, or None if not principal."""
    key = ("chain_generator", cap)
    if key not in R._cache:
        R._cache[key] = principal_generator(R, maximal_ideal(R, cap))
    return R._cache[key]


def residue_characteristic(R, m=None, cap=DEFAULT_CAP):
    """Additive order of 1 in R modulo its maximal ideal (0 over Q)."""
    if m is None:
        m = maximal_ideal(R, cap)
    one = R.one()
    if R.char == 0:
        return 0
    acc = R.zero()
    for k in range(1, R.char + 1):
        acc = acc + one
        if m.contains(acc):
            return k
    raise NotLocal("characteristic of the residue field not found")


def residue_field(R, cap=DEFAULT_CAP):
    """R modulo its maximal ideal, as a new ring on a homogeneous basis."""
    m = maximal_ideal(R, cap)
    if R.is_finite and not linalg.is_prime(R.char) and R.char != 0:
        return _residue_field_mixed(R, m)
    return _residue_field_sliced(R, m)


def _slice_quotient(R, q, m):
    """Quotient of the degree-q slice by the ideal slice; (qm, proj, lift)."""
    rel = m.slices[m._rep_degree(q)].cols()
    return linalg.quotient_presentation(rel, R.slice_moduli(R.slice_terms(q)))


def _residue_field_sliced(R, m, cap=DEFAULT_CAP):
    """Residue ring built degree by degree (prime or rational coefficients)."""
    basis = []
    orders = []
    block = {}
    for q in R.degree_support():
        qm, proj, lift = _slice_quotient(R, q, m)
        offset = len(basis)
        block[q if R.periodicity is None else q % R.periodicity[1]] = (proj, offset, qm)
        for j, d in enumerate(qm):
            amb = linalg.apply_matrix(lift, [int(k == j) for k in range(len(qm))])
            w = R.from_slice_coords(q, amb)
            basis.append((f"r{offset + j}", q, w))
            orders.append(d if d else 0)

    def down(x):
        out = {}
        for q, comp in x.homogeneous_components().items():
            rep = q if R.periodicity is None else q % R.periodicity[1]
            if rep not in block:
                continue
            proj, offset, qm = block[rep]
            # slice coordinates at degree q match those at the representative
            v = R.slice_coords(comp, q)
            img = linalg.apply_matrix(proj, v)
            vshift = 0 if R.periodicity is None else (q - rep) // R.periodicity[1]
            for j, c in enumerate(img):
                if R.char != 0:
                    c %= qm[j]
                if c:
                    out[(offset + j, vshift)] = c
        return out

    products = {}
    for a, (_, qa, wa) in enumerate(basis):
        for b, (_, qb, wb) in enumerate(basis):
            prod = wa * wb
            if prod.is_zero:
                continue
            terms = [(c, k, t) for (k, t), c in down(prod).items()]
            if terms:
                products[(a, b)] = terms
    unit = [(c, k, t) for (k, t), c in down(R.one()).items()]
    if R.char == 0:
        char = 0
        orders = None
    else:
        char = R.char
        orders = [R.char] * len(basis)
    out = GradedRing(
        char,
        [(name, q) for name, q, _ in basis],
        products,
        unit,
        periodicity=R.periodicity,
        orders=orders,
    )
    return validate_ring(out)


def _residue_field_mixed(R, m):
    """Residue ring for finite rings of composite characteristic."""
    rel = []
    for q in R.degree_support():
        pos = [i for i, _ in R.slice_terms(q)]
        for v in m.slices[q].cols():
            full = [0] * R.dim
            for idx, c in zip(pos, v):
                full[idx] = c
            rel.append(full)
    qm, proj, lift = linalg.quotient_presentation(rel, list(R.orders))
    basis = []
    for j, d in enumerate(qm):
        amb = linalg.apply_matrix(lift, [int(k == j) for k in range(len(qm))])
        w = R.from_full_coords(amb)
        basis.append((f"r{j}", 0, w))

    def down(x):
        v = R.full_coords(x)
        img = linalg.apply_matrix(proj, v)
        return {(j, 0): c % qm[j] for j, c in enumerate(img) if c % qm[j]}

    char = 1
    for d in qm:
        char = char * d // math.gcd(char, d)
    products = {}
    for a, (_, _, wa) in enumerate(basis):
        for b, (_, _, wb) in enumerate(basis):
            terms = [(c, k, t) for (k, t), c in down(wa * wb).items()]
            if terms:
                products[(a, b)] = terms
    unit = [(c, k, t) for (k, t), c in down(R.one()).items()]
    out = GradedRing(char, [(n, q) for n, q, _ in basis], products, unit, orders=list(qm))
    return validate_ring(out)


def is_graded_field(R, cap=DEFAULT_CAP):
    """Every nonzero homogeneous element invertible."""
    if R.char == 0 and R.periodicity is None:
        # rational, finite support: field iff one dimensional in degree 0
        return R.dim == 1 and R.degrees == (0,) and is_unit(R.basis_element(0))
    for q in R.degree_support():
        for x in R.enumerate_slice(q, cap):
            if not x.is_zero and not is_unit(x):
                return False
    return True


# ---------------------------------------------------------------------------
# annihilators, socle, quasi-Frobenius
# ---------------------------------------------------------------------------

def annihilator(R, x, cap=DEFAULT_CAP):
    """The ideal of elements y with x*y = 0, for homogeneous x."""
    if not x.is_homogeneous:
        raise ValueError("annihilator requires a homogeneous element")
    return _annihilator_of(R, [x] if not x.is_zero else [])


def principal_ideal(R, x):
    return Ideal.from_generators(R, [x] if not x.is_zero else [])


def double_annihilator_holds(R, cap=DEFAULT_CAP):
    """Check ann(ann(x)) == (x) for every homogeneous x; witness on failure.

    Returns (True, None) or (False, x).
    """
    for q in R.degree_support():
        for x in R.enumerate_slice(q, cap):
            ann1 = annihilator(R, x, cap)
            double = _annihilator_of(R, list(ann1.generators))
            if double != principal_ideal(R, x):
                return False, x
    return True, None


def _annihilator_of(R, gens):
    """Elements killing every one of the homogeneous generators."""
    if not gens:
        return Ideal.from_generators(R, [R.one()])
    if R.is_finite and R.char != 0:
        stacked = []
        moduli_rows = []
        for g in gens:
            stacked.extend(R.mult_matrix_full(g))
            moduli_rows.extend(R.orders)
        ker = linalg.congruence_kernel(stacked, moduli_rows, list(R.orders))
        return Ideal.from_generators(R, _homogeneous_gens_from_coords(R, ker))
    # periodic or rational: slice kernels, one period
    slices = {}
    out_gens = []
    for q in R.degree_support():
        stacked = [row for g in gens for row in R.mult_matrix_slice(g, q)]
        ker = linalg.congruence_kernel(stacked, [R.char] * len(stacked), [R.char] * len(R.slice_terms(q)))
        slices[q] = _slice_span(R, q, ker)
        for v in ker:
            g = R.from_slice_coords(q, list(v))
            if not g.is_zero:
                out_gens.append(g)
    return Ideal(R, out_gens, slices)


def socle(R, cap=DEFAULT_CAP):
    """Elements killed by the maximal ideal (local rings)."""
    m = maximal_ideal(R, cap)
    return _annihilator_of(R, list(m.generators))


def is_quasi_frobenius(R, cap=DEFAULT_CAP):
    """Self-injectivity test: each local factor must have simple socle."""
    if R.periodicity is not None:
        # graded fields are the only periodic rings in scope
        return is_graded_field(R, cap)
    for factor in decompose_product(R, cap):
        if not is_local(factor, cap):
            raise NotSemiperfect("factor of the decomposition is not local")
        soc = socle(factor, cap)
        m = maximal_ideal(factor, cap)
        rsize = factor.size() // m_size_or_one(m)
        if soc.size() != rsize:
            return False
    return True


def m_size_or_one(ideal):
    n = ideal.size()
    return n if n else 1
