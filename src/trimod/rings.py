"""Graded commutative rings presented by a homogeneous basis and a product table.

A ring is either *finite* (supported on finitely many degrees, additive group
a finite product of cyclic groups) or *periodic* (a distinguished central unit
v of positive degree d, with every homogeneous element a basis combination
times a power of v; coefficients then lie in a prime field or Q).

Elements are finite sums of terms ``coeff * basis[i] * v**t``.  All arithmetic
is exact: integers mod the additive orders, or Fractions over Q.  The sparse
`products` dict {(i, j): terms of b_i b_j} is the one multiplication table,
and `_times` the one loop that multiplies through it: element products,
slice matrices and every check below read its nonzero entries there.

Ring linear algebra works on degree slices: the degree-q slice has one
coordinate per basis element of degree q (mod d for a periodic ring), taken
modulo that element's additive order.  Multiplication matrices, inverses,
ideals, annihilator kernels and the quotient rings R/I (product factors and
residue fields, built by `_quotient_ring`) are all computed slice by slice.

`validate_ring` checks associativity on the basis elements whose left
multiplications spin the unit to all of R (`algebra_generators`; t alone
for F_p[t]/(t^e)), which is exact and reads only the nonzero products.

Locality, the idempotents and the maximal ideal m come from the degree-0
slice R0, by linear algebra alone: no ring code enumerates elements.  For
each prime power p**k exactly dividing the characteristic, the p-power map F
on R0 mod p (b -> b**p by square-and-multiply) is linear, and its fixed
space B = ker(F - 1) is F_p**s, one coordinate per local factor.  B splits
into lines by eigenvalues: the eigenspaces of multiplication by the power
(b + c)**((p-1)/2), b in B, c in F_p, are ideals of B, and its eigenvalues
are 0, 1 and -1 (Euler's criterion).  Each line holds one primitive
idempotent of R0 mod p; multiplied by the CRT integer that is 1 mod p**k
and 0 mod char/p**k, it lifts by Newton's step e <- 3e**2 - 2e**3 to the
unique idempotent of R above it.  R is local when one prime divides the
characteristic and B is a line, and then m0 is pR0 plus the lift of the
nilradical of R0 mod p.  A homogeneous x of degree q is a unit exactly when
x*y is a unit of R0 for some y of degree -q, so m_q = {x : x R_{-q} in m0}:
m0 itself at q = 0, the whole slice at q != 0 on a finite ring (x is then
nilpotent), and a congruence kernel only on a periodic ring.  Graded fields
(m = 0), homogeneous units and the residue characteristic are read from m.
A product R splits into the rings R/ann(e), periodic rings included.  The
local conditions are sizes, counted over one period of degrees: m is
principal when one generator spans an ideal as large as m, and the socle is
simple when it is as large as R/m.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import re
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    AssociativityViolation,
    CommutativityViolation,
    DegreeMismatch,
    NoUnit,
    NotLocal,
    NotSemiperfect,
    RingSpecError,
    UnsupportedCoefficients,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# the largest ring dimension whose dim**3 module action table is built
# (`modules._ring_action`; 256**3 int64 entries take 134 MB), and the largest
# the group-algebra constructors build
MAX_TABLE_DIM = 256
# `_prime_powers` takes a prime cofactor at once, and refuses a composite
# one with no prime factor below this bound
TRIAL_BOUND = 2 ** 16
# locality and idempotents over Q are decided only on Q itself
RATIONAL_SCOPE = "over Q, only the field Q in degree 0 is classified"
# the value of a key that `per_object` has not stored
_MISSING = object()


def per_object(fn):
    """Compute fn(obj, *args) once per immutable object and arguments, in
    obj._cache under (fn.__name__, *args).  A call that raises caches nothing.
    `seed(obj, value, *args)` stores value as that result unless one is
    stored already, and returns the stored result."""
    @functools.wraps(fn)
    def once(obj, *args):
        # one lookup on a hit
        key = (fn.__name__, *args)
        out = obj._cache.get(key, _MISSING)
        if out is _MISSING:
            out = obj._cache[key] = fn(obj, *args)
        return out

    def seed(obj, value, *args):
        return obj._cache.setdefault((fn.__name__, *args), value)

    once.seed = seed
    return once


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
        n = len(basis)
        if bad := [k for terms in (unit, *products.values()) for _, k, _ in terms if not 0 <= k < n]:
            raise RingSpecError(f"term index {bad[0]} out of range")
        self.products = {(int(i), int(j)): ts for (i, j), terms in products.items() if (ts := self._terms(terms))}
        self.unit_terms = self._terms(unit)
        self._cache = {}

    # -- basic structure -------------------------------------------------

    @property
    def dim(self):
        return len(self.basis_names)

    @property
    def is_finite(self):
        return self.periodicity is None

    def _terms(self, terms):
        """Terms (c, k, t) summed by (k, t), reduced, without zeros and
        sorted by (k, t), so that equal elements give equal keys."""
        if len(terms) == 1:
            ((c, k, t),) = terms
            return ((c, int(k), int(t)),) if (c := self._coeff(c, k)) else ()
        out = collections.defaultdict(int)
        for c, k, t in terms:
            out[int(k), int(t)] += self._coeff(c, k)
        return tuple((c, k, t) for (k, t), x in sorted(out.items()) if (c := self._coeff(x, k)))

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

    def rep_degree(self, q):
        """The degree of degree_support() whose slice matches degree q."""
        return q if self.periodicity is None else q % self.periodicity[1]

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

    def mult_matrix_slice(self, x, q):
        """Matrix of y -> x*y from the degree-q slice to degree q+|x|, read
        off the products: a slice holds each basis element at most once, at
        the v power its degree fixes, so only the nonzero cells are filled."""
        src = [i for i, _ in self.slice_terms(q)]
        tgt = {k: r for r, (k, _) in enumerate(self.slice_terms(q + (x.degree or 0)))}
        out, cells = [[0] * len(src) for _ in tgt], collections.defaultdict(int)
        for (i, _), c in x.terms.items():
            _times(self, i, ((col, j, c) for col, j in enumerate(src)), cells)
        for (col, k), c in cells.items():
            out[tgt[k]][col] = self._coeff(c, k)
        return out


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
        # each term is named by its degree, which fixes its v power
        R, cells = self.ring, collections.defaultdict(int)
        ys = [(other._term_degree(j, t), j, d) for (j, t), d in other.terms.items()]
        for (i, s), c in self.terms.items():
            q = self._term_degree(i, s)
            _times(R, i, ((q + qy, j, c * d) for qy, j, d in ys), cells)
        return RingElement(R, {(k, (q - R.degrees[k]) // R.periodicity[1] if R.periodicity else 0): c
                               for (q, k), c in cells.items()})

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
    """Check all ring axioms; return the ring, or raise a RingSpecError
    subclass naming the first offending basis indices.

    Unit, graded commutativity and associativity are identities of the
    products modulo the additive orders: 1 b_i = b_i = b_i 1,
    b_i b_j = (-1)^(|i||j|) b_j b_i, and [b_i, b_j, b_k] = (b_i b_j) b_k -
    b_i (b_j b_k) = 0 for i in `algebra_generators` alone, at every
    characteristic, since its spin is exact at every prime.  That is exact:
    the associator is additive in each slot, [1, ., .] = 0, and [s, ., .] =
    0 = [y, ., .] give [s y, ., .] = 0 (Teichmueller's identity), so the a
    with [a, ., .] = 0 hold the spin of 1, all of R.  All three checks sum
    over the nonzero products only; after a generator fails, every b_i
    is checked, so failures come in the order of a loop over i, then
    (i, j), then (i, j, k).  When every sign is +1, commutativity is one
    comparison of the table with its transpose, exact because the terms
    are normalized and zero products dropped; when it fails, or some
    product has an odd sign, the signed diff names the first pair.
    """
    R = ring
    if R.char < 0 or R.char == 1:
        raise RingSpecError(f"characteristic {R.char} not supported")
    for name in R.basis_names + ((R.periodicity[0],) if R.periodicity else ()):
        if not _NAME_RE.match(name):
            raise RingSpecError(f"bad identifier {name!r}")
    if len(set(R.basis_names)) != len(R.basis_names):
        raise RingSpecError("duplicate basis names")
    if R.char != 0:
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
    elif any(t for terms in R.products.values() for _, _, t in terms):
        raise RingSpecError("v powers require a periodicity declaration")
    n, deg, orders = R.dim, R.degrees, R.orders
    period = R.periodicity[1] if R.periodicity else 0
    # when every order is char, o c = 0 for every coefficient c
    mixed = R.char != 0 and any(o != R.char for o in orders)
    # indices and degree homogeneity of the product table
    for (i, j), terms in R.products.items():
        if not (0 <= i < n and 0 <= j < n):
            raise RingSpecError(f"product index ({i}, {j}) out of range")
        want = deg[i] + deg[j]
        for c, k, t in terms:
            if (have := deg[k] + t * period) != want:
                raise DegreeMismatch(f"product of basis {i},{j}: term {k} has degree {have}, expected {want}")
        # additive order of b_i kills b_i * b_j
        if mixed and any(o * c % orders[k] for o in (orders[i], orders[j]) for c, k, _ in terms):
            raise RingSpecError(f"product of basis {i},{j} incompatible with additive orders")
    one = R.one()
    try:
        if one.degree not in (0, None):
            raise NoUnit("unit element must have degree 0")
    except ValueError:
        raise NoUnit("unit element must be homogeneous of degree 0")
    if R.periodicity is None and any(t for _, t in one.terms):
        raise NoUnit("unit element has v powers but the ring has no periodicity")
    # 1 b_i and b_i 1 less b_i, named (i, 0) and (i, 1)
    diff = collections.defaultdict(int, {((i, side), i): -1 for i in range(n) for side in (0, 1)})
    for c, k, _ in R.unit_terms:
        _times(R, k, (((i, 0), i, c) for i in range(n)), diff)
    for i in range(n):
        _times(R, i, (((i, 1), k, c) for c, k, _ in R.unit_terms), diff)
    if bad := _first_nonzero(R, diff):
        raise NoUnit(f"1 * basis[{bad[0]}] != basis[{bad[0]}]")
    # with every sign +1, the normalized table is its own transpose;
    # otherwise b_i b_j less the signed b_j b_i, named (i, j)
    if any(deg[i] * deg[j] % 2 for i, j in R.products) \
            or {(j, i): terms for (i, j), terms in R.products.items()} != R.products:
        diff = collections.defaultdict(int)
        for (i, j), terms in R.products.items():
            for c, k, _ in terms:
                diff[(i, j), k] += c
                diff[(j, i), k] -= (1 - 2 * (deg[i] * deg[j] % 2)) * c
        if bad := _first_nonzero(R, diff):
            raise CommutativityViolation(*bad)
    if any(_associator(R, s) for s in algebra_generators(R)):
        # some associator fails: the first b_i whose check fails names it
        i, bad = next((i, bad) for i in range(n) if (bad := _associator(R, i)))
        raise AssociativityViolation(i, *bad)
    return R


def _times(R, s, y, out):
    """Add b_s y into out over the nonzero products of R, unreduced: y
    yields the terms (name, l, x), x b_l, of the elements of each name, and
    out maps (name, m) to a coefficient of b_m."""
    get = R.products.get
    for name, l, x in y:
        for c, m, _ in get((s, l), ()):
            out[name, m] += x * c
    return out


def _first_nonzero(R, diff):
    """The least name whose element in diff is not zero in R, or None."""
    return min((name for (name, m), x in diff.items() if x and R._coeff(x, m)), default=None)


def _associator(R, s):
    """The first (j, k) with (b_s b_j) b_k != b_s (b_j b_k), or None."""
    n = R.dim
    diff, left = collections.defaultdict(int), collections.defaultdict(int)
    _times(R, s, ((jk, l, -c) for jk, terms in R.products.items() for c, l, _ in terms), diff)
    # (b_s b_j) b_k is the sum of x b_l b_k over the terms x b_l of b_s b_j
    for (j, l), x in _times(R, s, ((j, j, 1) for j in range(n)), left).items():
        _times(R, l, (((j, k), k, x) for k in range(n)), diff)
    return _first_nonzero(R, diff)


@per_object
def algebra_generators(R):
    """Basis indices S whose left multiplications spin the unit to the
    whole additive group, greedy: b_i joins S when the spin under the
    earlier ones misses it, until it is whole (S is [] for Z/m, [1] for
    F_p[t]/(t^e)).  It grows in place in one private Subgroup over the
    additive orders."""
    n = R.dim

    def times(s, y):
        out = [0] * n
        for (_, m), x in _times(R, s, ((0, l, x) for l, x in enumerate(y) if x), collections.defaultdict(int)).items():
            out[m] = R._coeff(x, m)
        return out

    u = [sum(c for c, k, _ in R.unit_terms if k == i) for i in range(n)]
    # todo holds the products b_s y still to be taken, as pairs (s, y)
    gens, kept, span, todo = [], [u], linalg.Subgroup([u], R.orders), []
    for i in range(n):
        while todo:
            y = times(*todo.pop())
            if span._grow(y):
                kept.append(y)
                todo += [(s, y) for s in gens]
        if span.is_whole():
            break
        if not span.contains([int(a == i) for a in range(n)]):
            gens.append(i)
            todo = [(i, y) for y in kept]
    return gens


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def _slice_span(ring, q, cols):
    """Additive span of column vectors inside the degree-q slice."""
    return linalg.Subgroup(cols, ring.slice_moduli(ring.slice_terms(q)))


def _multiples(ring, g, q):
    """Columns spanning g * R inside the degree-q slice."""
    return [list(col) for col in zip(*ring.mult_matrix_slice(g, q - g.degree))]


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
        slices = {q: _slice_span(ring, q, [c for g in gens for c in _multiples(ring, g, q)])
                  for q in ring.degree_support()}
        return cls(ring, gens, slices)

    def contains(self, x):
        return all(
            self.slices[self.ring.rep_degree(q)].contains(self.ring.slice_coords(comp, q))
            for q, comp in x.homogeneous_components().items()
        )

    def is_zero_ideal(self):
        return all(span.rank == 0 for span in self.slices.values())

    def size(self):
        """Number of elements over one period of degrees (`degree_support`),
        so all of them on a finite ring; raises for an infinite slice."""
        return math.prod(span.size() for span in self.slices.values())

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
    """Inverse of a homogeneous unit, or None: the y in the degree -|x|
    slice with x*y = 1."""
    if x.is_zero:
        return None
    R, q = x.ring, x.degree
    moduli = R.slice_moduli(R.slice_terms(0))
    sol = linalg.congruence_solve(R.mult_matrix_slice(x, -q), R.slice_coords(R.one(), 0), moduli)
    return None if sol is None else R.from_slice_coords(-q, sol)


def _prime_powers(c):
    """[(p, p**k)] for the prime powers exactly dividing c, p increasing."""
    out, p, char = [], 2, c
    while c > 1 and not linalg.is_prime(c):
        if p > TRIAL_BOUND:
            raise UnsupportedCoefficients(f"characteristic {char}: the cofactor {c} is composite "
                                          f"with no prime factor below {TRIAL_BOUND}")
        if c % p == 0:
            out.append((p, math.gcd(c, p ** c.bit_length())))
            c //= out[-1][1]
        p += 1
    return out + [(c, c)] * (c > 1)


def _power(times, x, e):
    """x**e, e >= 1, by square-and-multiply under the product times."""
    y = x
    for bit in bin(e)[3:]:
        y = times(y, y)
        if bit == "1":
            y = times(y, x)
    return y


# R0 mod p for one prime p dividing char R = p**k * (coprime part): the
# degree-0 slice positions spanning it, its p-power map (column j is b_j**p)
# and its primitive idempotents, as coordinates on those positions
_ModP = collections.namedtuple("_ModP", "p pk pos frobenius idempotents")


@per_object
def _degree_zero_mod_p(R):
    """One _ModP per prime p dividing char R.  R0/p is spanned by the
    degree-0 basis elements whose additive order p divides, with R's
    products mod p; its elements are lists of exact coordinates on them."""
    if R.char == 0:
        raise UnsupportedCoefficients(RATIONAL_SCOPE)
    zero = [i for i, _ in R.slice_terms(0)]
    out = []
    for p, pk in _prime_powers(R.char):
        pos = [j for j, i in enumerate(zero) if R.orders[i] % p == 0]
        idx = [zero[j] for j in pos]
        spanned = set(idx)

        def product(u, w):
            """u w in R0/p, for sparse terms {basis index: coefficient}."""
            cells = collections.defaultdict(int)
            for i, a in u.items():
                _times(R, i, ((0, l, a * b) for l, b in w.items()), cells)
            return {m: y for (_, m), x in cells.items() if m in spanned and (y := x % p)}

        def times(u, w):
            """The product on lists of coordinates on idx."""
            y = product({i: a for i, a in zip(idx, u) if a}, {l: b for l, b in zip(idx, w) if b})
            return [y.get(m, 0) for m in idx]

        # the p-power map, each basis element powered on its sparse terms
        F = [[y.get(m, 0) for m in idx] for y in (_power(product, {i: 1}, p) for i in idx)]
        fixed = linalg.modp_kernel([[x - (a == j) for j, x in enumerate(row)] for a, row in enumerate(zip(*F))], p)
        lines = _split_into_lines(times, [sum(c for c, k, _ in R.unit_terms if k == i) % p for i in idx], fixed, p)
        out.append(_ModP(p, pk, pos, np.array(F, dtype=linalg.int_dtype(p)).T, lines))
    return tuple(out)


def _split_into_lines(times, one, fixed, p):
    """The primitive idempotents of R0/p, from a basis of B = ker(F - 1),
    under the product times of R0/p, whose unit is one.  Multiplication by
    b in B = F_p**s is diagonal, so an ideal of B holding coordinates i != j
    is split by the eigenvalues of (b + c)**((p-1)/2) with c = -b_i, for a
    basis element b with b_i != b_j.  A line F_p v holds the one idempotent
    v/lam, where v*v = lam v."""
    pieces, lines = [np.array(fixed, dtype=object)], []
    while pieces:
        P = pieces.pop()
        if len(P) == 1:
            # v*v = lam v, read at a coordinate where v is not zero
            lam = next(x * pow(a, -1, p) for x, a in zip(times(P[0], P[0]), P[0]) if a)
            lines.append(tuple(a * pow(lam, -1, p) % p for a in P[0]))
            continue
        for b, c in ((b, c) for c in range(p) for b in fixed):
            # (b + c)**((p-1)/2), or b + c itself for p = 2: eigenvalues 0, 1, -1
            w = _power(times, [(x + c * y) % p for x, y in zip(b, one)], (p - 1) // 2 or 1)
            image = np.array([times(v, w) for v in P], dtype=object)
            parts = [linalg.modp_matmul(np.asarray(z, object), P, p).astype(object) for lam in sorted({0, 1, p - 1})
                     if (z := linalg.modp_kernel(((image - lam * P) % p).T.tolist(), p))]
            if len(parts) > 1:
                pieces += parts
                break
        else:
            raise NotSemiperfect("the fixed space of Frobenius does not split into lines")
    return lines


@per_object
def is_local(R):
    """Whether the nonunits form an ideal.

    A homogeneous x of degree q is a unit exactly when x*y is a unit of R0
    for some y of degree -q, so R is local exactly when R0 is: when one
    prime p divides char R (p is then nilpotent) and R0/p is local.
    """
    split = _degree_zero_mod_p(R)
    return len(split) == 1 and len(split[0].idempotents) == 1


# ---------------------------------------------------------------------------
# idempotents, product decomposition and quotient rings
# ---------------------------------------------------------------------------

def idempotents(R):
    """The primitive idempotents, in the order of their degree-0 slice
    coordinates.  Each one of R0/p, times the CRT integer c, is idempotent
    modulo the nilpotent ideal pcR0, and lifts to a unique idempotent of R
    (R is commutative in degree 0)."""
    if R.char == 0:
        # a one-dimensional degree-0 slice is Q * 1, whose only nonzero
        # idempotent is 1
        if len(R.slice_terms(0)) != 1:
            raise UnsupportedCoefficients(RATIONAL_SCOPE)
        return [R.one()]
    out, terms = [], R.slice_terms(0)
    for p, pk, pos, _, lines in _degree_zero_mod_p(R):
        rest = R.char // pk
        c = rest * pow(rest, -1, pk)
        for v in lines:
            e = R.element({terms[j]: c * a for j, a in zip(pos, v)})
            while e * e != e:
                e = 3 * e * e - 2 * e * e * e
            out.append(e)
    return sorted(out, key=lambda e: R.slice_coords(e, 0))


@per_object
def decompose_product(R):
    """Split R along its primitive idempotents e into the rings eR = R/ann(e),
    as ann(e) = (1 - e)R: a tuple of rings whose product is isomorphic to R,
    checked by the sum and orthogonality of the idempotents, and for finite
    rings by a cardinality count."""
    prim = idempotents(R)
    if len(prim) == 1:
        return (R,)
    if sum(prim, R.zero()) != R.one():
        raise NotSemiperfect("primitive idempotents do not sum to 1")
    if any(not (e * f).is_zero for e, f in itertools.combinations(prim, 2)):
        raise NotSemiperfect("primitive idempotents are not orthogonal")
    factors = tuple(_quotient_ring(R, _annihilator_cols(R, [e])) for e in prim)
    if R.size() is not None and math.prod(f.size() for f in factors) != R.size():
        raise NotSemiperfect("factor sizes do not multiply to the ring size")
    return factors


def _quotient_ring(R, relations):
    """R / I on a homogeneous basis, for the ideal I whose degree-q slice is
    spanned by the columns relations[q], q in R.degree_support().

    The basis lifts the generators of each slice quotient; a product is taken
    in R and projected back, its v power fixed by its degree.
    """
    basis, orders, block = [], [], {}
    for q in R.degree_support():
        qm, proj, lift = linalg.quotient_presentation(relations[q], R.slice_moduli(R.slice_terms(q)))
        block[q] = (len(basis), proj)
        for j, d in enumerate(qm):
            basis.append((f"r{len(basis)}", q, R.from_slice_coords(q, [row[j] for row in lift])))
            orders.append(d)

    def down(x):
        """Terms of x on the quotient basis; GradedRing reduces them."""
        out = []
        for q, comp in x.homogeneous_components().items():
            rep = R.rep_degree(q)
            offset, proj = block[rep]
            vshift = (q - rep) // R.periodicity[1] if R.periodicity else 0
            # slice coordinates at degree q match those at its representative
            img = linalg.apply_matrix(proj, R.slice_coords(comp, q))
            out += [(c, offset + j, vshift) for j, c in enumerate(img)]
        return out

    products = {(a, b): down(wa * wb) for a, (_, _, wa) in enumerate(basis) for b, (_, _, wb) in enumerate(basis)}
    return GradedRing(math.lcm(*orders), [(name, q) for name, q, _ in basis], products, down(R.one()),
                      periodicity=R.periodicity, orders=orders)


# ---------------------------------------------------------------------------
# maximal ideal, its single generator and the residue field
# ---------------------------------------------------------------------------

@per_object
def maximal_ideal(R):
    """The ideal of nonunits of a local ring.

    A homogeneous x of degree q is a nonunit exactly when x*y lies in m0 for
    every y of degree -q, so m_q = {x : x R_{-q} in m0}.  m0 is an ideal of
    R0 without units, so m_0 is m0 itself; on a finite ring an x of degree
    q != 0 is nilpotent, so m_q is the whole slice.  Only a periodic ring
    solves for m_q, q != 0: one congruence kernel per slice, into R0/m0.
    """
    if not is_local(R):
        raise NotLocal("ring is not local")
    # every additive order is a power of p, and the maximal ideal of the
    # local R0/p is its nilradical ker F**j, p**j >= dim; m0 is pR0 plus it
    ((p, _, _, F, _),) = _degree_zero_mod_p(R)
    zero = [i for i, _ in R.slice_terms(0)]
    n = len(zero)
    Fk, reach = F, p
    while reach < n:
        Fk, reach = linalg.modp_matmul(Fk, F, p), reach * p
    m0 = linalg.modp_kernel(Fk.tolist(), p)
    m0 += [[p * (a == j) for a in range(n)] for j in range(n) if R.orders[zero[j]] > p]
    gens, slices, proj = [], {}, None
    for q in R.degree_support():
        terms = R.slice_terms(q)
        if q == 0 or R.is_finite:
            slices[q] = _slice_span(R, q, m0 if q == 0 else [[int(a == b) for a in terms] for b in terms])
        else:
            if proj is None:
                qm, proj, _ = linalg.quotient_presentation(m0, R.slice_moduli(R.slice_terms(0)))
                # column k of proj is b_k in R0/m0, a vector space over F_p
                proj = dict(zip(zero, zip(*proj)))
            dual = R.slice_terms(-q)
            # row (s, r), column a: coordinate r in R0/m0 of b_a * b_s, |b_s| = -q
            rows, cells = [[0] * len(terms) for _ in range(len(dual) * len(qm))], collections.defaultdict(int)
            for a, (i, _) in enumerate(terms):
                _times(R, i, (((s, a), l, 1) for s, (l, _) in enumerate(dual)), cells)
            for ((s, a), k), x in cells.items():
                for r, y in enumerate(proj[k]):
                    rows[s * len(qm) + r][a] = (rows[s * len(qm) + r][a] + x * y) % p
            slices[q] = _slice_span(R, q, linalg.congruence_kernel(rows, qm * len(dual), R.slice_moduli(terms)))
        gens += [R.element(zip(terms, v)) for v in slices[q].cols()]
    return Ideal(R, _minimal_gen_subset(R, gens, slices), slices)


def _minimal_gen_subset(R, gens, slices):
    """Prune a generating list: keep only elements not already generated,
    growing the span of the kept ones slice by slice."""
    keep, spans = [], {q: _slice_span(R, q, []) for q in slices}
    for g in gens:
        if spans == slices:
            break
        if not Ideal(R, keep, spans).contains(g):
            keep.append(g)
            spans = {q: span.extend(_multiples(R, g, q)) for q, span in spans.items()}
    return keep


@per_object
def chain_generator(R):
    """The first generator g of the maximal ideal with (g) = m, or None if m
    is not principal: (g) lies in m, so it is m exactly when it is as large."""
    m = maximal_ideal(R)
    return next((g for g in m.generators if Ideal.from_generators(R, [g]).size() == m.size()), None)


def residue_characteristic(R):
    """The prime p with char R = p**k, the characteristic of R/m (R local)."""
    if not is_local(R):
        raise NotLocal("ring is not local")
    return _degree_zero_mod_p(R)[0].p


def residue_field(R):
    """R modulo its maximal ideal, as a new ring on a homogeneous basis."""
    m = maximal_ideal(R)
    return validate_ring(_quotient_ring(R, {q: span.cols() for q, span in m.slices.items()}))


def residue_size(R):
    """Number of elements of the residue field of a local ring: one period
    of R over one period of m (`Ideal.size`), all of them when R is finite.
    Over Q, `maximal_ideal` raises UnsupportedCoefficients."""
    return math.prod(R.orders) // maximal_ideal(R).size()


def is_graded_field(R):
    """Every nonzero homogeneous element invertible: R local with m = 0."""
    if R.char == 0 and R.periodicity is None:
        # rational, finite support: field iff one dimensional in degree 0
        return R.dim == 1 and R.degrees == (0,) and is_unit(R.basis_element(0))
    return is_local(R) and maximal_ideal(R).is_zero_ideal()


# ---------------------------------------------------------------------------
# socle and quasi-Frobenius
# ---------------------------------------------------------------------------

def _annihilator_cols(R, gens):
    """Per degree of R.degree_support(), columns spanning the slice of the
    elements that kill each of the nonzero homogeneous gens."""
    out = {}
    for q in R.degree_support():
        rows, row_moduli = [], []
        for g in gens:
            rows += R.mult_matrix_slice(g, q)
            row_moduli += R.slice_moduli(R.slice_terms(q + g.degree))
        moduli = R.slice_moduli(R.slice_terms(q))
        out[q] = linalg.congruence_kernel(rows, row_moduli, moduli)
    return out


def socle_is_simple(R):
    """Whether the socle ann(m) of a local ring is a simple module, that is,
    principal.  m kills the socle, so each homogeneous g != 0 in it spans
    gR = R/m shifted: the socle is gR exactly when it is as large as R/m,
    counted slice by slice over one period of degrees."""
    ann = _annihilator_cols(R, maximal_ideal(R).generators)
    return math.prod(_slice_span(R, q, cols).size() for q, cols in ann.items()) == residue_size(R)


@per_object
def is_quasi_frobenius(R):
    """Self-injectivity test: each local factor must have simple socle; a
    graded field is self-injective (over Q, locality is not decided)."""
    for factor in decompose_product(R):
        if is_graded_field(factor):
            continue
        if not is_local(factor):
            raise NotSemiperfect("factor of the decomposition is not local")
        if not socle_is_simple(factor):
            return False
    return True
