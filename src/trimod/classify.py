"""Decide whether a graded commutative ring carries shifted triangulations.

A positive answer means the ring splits as a product of local pieces of the
three admissible shapes: a graded field, an exterior algebra on one square-zero
generator with a unit in the right degree, or a character-4 local ring whose
maximal ideal is generated by 2.
"""

from __future__ import annotations

import math

from . import rings as rc
from .errors import NotLocalInput

GRADED_FIELD = "GradedField"
EXTERIOR = "ExteriorAlgebra"
T_MOD_4 = "TMod4"
NOT_DELTA = "NotDelta"

NOT_QF = "NotQuasiFrobenius"
M_NOT_PRINCIPAL = "MaximalIdealNotPrincipal"
ANN_NOT_EQUAL = "AnnihilatorNotPrincipalEqual"
MISSING_UNIT = "MissingUnitDegree"
WRONG_CHAR = "WrongCharacteristic"
ODD_SUSPENSION_CLASH = "OddSuspensionCharacteristicClash"


class LocalVerdict:
    """Outcome for one local factor."""

    def __init__(self, kind, reason=None, reason_detail=None, x_degree=None, unit_degree_found=None):
        self.kind = kind
        self.reason = reason
        self.reason_detail = reason_detail
        self.x_degree = x_degree
        self.unit_degree_found = unit_degree_found

    @property
    def positive(self):
        return self.kind != NOT_DELTA

    def to_dict(self):
        return {
            "kind": self.kind,
            "reason": self.reason,
            "reason_detail": self.reason_detail,
            "x_degree": self.x_degree,
            "unit_degree_found": self.unit_degree_found,
        }

    def __repr__(self):
        if self.kind == NOT_DELTA:
            det = f"({self.reason_detail})" if self.reason_detail is not None else ""
            return f"NotDelta({self.reason}{det})"
        return self.kind


class Verdict:
    """Outcome for the whole ring: one LocalVerdict per product factor."""

    def __init__(self, factors, suspension, confidence="complete"):
        self.factors = tuple(factors)  # (GradedRing, LocalVerdict) pairs
        self.suspension = suspension
        self.confidence = confidence

    @property
    def is_delta(self):
        return all(lv.positive for _, lv in self.factors)

    @property
    def first_reason(self):
        for _, lv in self.factors:
            if not lv.positive:
                return lv.reason
        return None

    def to_dict(self):
        return {
            "is_delta": self.is_delta,
            "suspension": self.suspension,
            "confidence": self.confidence,
            "factors": [lv.to_dict() for _, lv in self.factors],
        }

    def __repr__(self):
        inner = ", ".join(repr(lv) for _, lv in self.factors)
        return f"Verdict(is_delta={self.is_delta}, n={self.suspension}, [{inner}])"


def has_unit_in_degree(R, d):
    """Is there an invertible homogeneous element of degree d?  (R local: the
    units of degree d are the elements of the slice outside m.)"""
    m_d = rc.maximal_ideal(R).slices.get(R.rep_degree(d))
    return m_d is not None and m_d.size() < math.prod(R.slice_moduli(R.slice_terms(d)))


def classify_local(R, n):
    """Classification of a local ring against the three admissible shapes."""
    if R.char == 0 and R.periodicity is None:
        # rational coefficients with finite degree support: only the field
        # itself is recognizable without enumeration
        if rc.is_graded_field(R):
            return LocalVerdict(GRADED_FIELD)
        raise NotLocalInput(f"rational non-field input: {rc.RATIONAL_SCOPE}")
    if not rc.is_local(R):
        raise NotLocalInput("classify_local expects a local ring")
    m = rc.maximal_ideal(R)
    if m.is_zero_ideal():
        return LocalVerdict(GRADED_FIELD)
    if not rc.socle_is_simple(R):
        return LocalVerdict(NOT_DELTA, reason=NOT_QF)
    x = rc.chain_generator(R)
    if x is None:
        return LocalVerdict(NOT_DELTA, reason=M_NOT_PRINCIPAL)
    # r -> rx maps R onto (x) = m with kernel ann(x), so over one period
    # |ann(x)| = |R/m|; and ann(x) lies in m, as x != 0 and m holds every
    # nonunit.  So ann(x) = (x) = m exactly when |m| = |R/m|, and then x lies
    # in ann(x): x*x = 0 needs no test of its own
    if m.size() != rc.residue_size(R):
        return LocalVerdict(NOT_DELTA, reason=ANN_NOT_EQUAL)
    p = rc.residue_characteristic(R)
    i = x.degree
    if R.char == p:
        # equal characteristic: R = k[x]/(x**2) over its residue field
        need = 3 * i + n
        if not has_unit_in_degree(R, need):
            return LocalVerdict(NOT_DELTA, reason=MISSING_UNIT, reason_detail=need, x_degree=i)
        if i % 2 == 0 and n % 2 == 0 and p != 2:
            return LocalVerdict(NOT_DELTA, reason=WRONG_CHAR, x_degree=i)
        return LocalVerdict(EXTERIOR, x_degree=i, unit_degree_found=need)
    if R.char == 4 and p == 2:
        if n % 2 == 1:
            return LocalVerdict(NOT_DELTA, reason=ODD_SUSPENSION_CLASH, x_degree=i)
        # past the count m*m = 0 and |m| = |R/m|, so m is simple; 2 != 0
        # lies in it (2*2 = 0), so (2) = m with no test of its own
        if not has_unit_in_degree(R, n):
            return LocalVerdict(NOT_DELTA, reason=MISSING_UNIT, reason_detail=n, x_degree=i)
        return LocalVerdict(T_MOD_4, x_degree=i)
    return LocalVerdict(NOT_DELTA, reason=WRONG_CHAR, x_degree=i)


def classify(R, n):
    """Product decomposition followed by local classification of each factor."""
    pairs = [(f, classify_local(f, n)) for f in rc.decompose_product(R)]
    confidence = "complete" if n in (0, 1) else _parity_confidence(pairs, n)
    return Verdict(pairs, n, confidence)


def _parity_confidence(pairs, n):
    """Outside n in {0, 1} sufficiency is only settled on one parity side."""
    for _, lv in pairs:
        if lv.kind == EXTERIOR:
            i = lv.x_degree or 0
            if i % 2 == 0 and n % 2 == 0:
                return "necessary-conditions"
        if lv.kind == T_MOD_4 and n != 0:
            return "necessary-conditions"
    return "necessary-conditions-parity-ok"
