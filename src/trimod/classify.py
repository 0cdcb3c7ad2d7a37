"""Decide whether a graded commutative ring carries shifted triangulations.

A positive answer means the ring splits as a product of local pieces of the
three admissible shapes: a graded field, an exterior algebra on one square-zero
generator with a unit in the right degree, or a character-4 local ring whose
maximal ideal is generated by 2.
"""

from __future__ import annotations

from . import rings as rc
from .errors import NotLocalInput
from .rings import DEFAULT_CAP

GRADED_FIELD = "GradedField"
EXTERIOR = "ExteriorAlgebra"
T_MOD_4 = "TMod4"
NOT_DELTA = "NotDelta"

NOT_QF = "NotQuasiFrobenius"
M_NOT_PRINCIPAL = "MaximalIdealNotPrincipal"
SQUARE_NONZERO = "SquareNonzero"
ANN_NOT_EQUAL = "AnnihilatorNotPrincipalEqual"
MISSING_UNIT = "MissingUnitDegree"
WRONG_CHAR = "WrongCharacteristic"
ODD_SUSPENSION_CLASH = "OddSuspensionCharacteristicClash"
RESIDUE_NOT_FIELD = "ResidueNotGradedField"


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


def has_unit_in_degree(R, d, cap=DEFAULT_CAP):
    """Is there an invertible homogeneous element of degree d?"""
    if d == 0:
        return True
    if R.periodicity is None:
        # a finite ring cannot carry a unit of nonzero degree: its powers
        # would occupy infinitely many degrees
        return False
    if not R.slice_terms(d):
        return False
    for x in R.enumerate_slice(d, cap):
        if rc.is_unit(x):
            return True
    return False


def _local_socle_simple(R, cap):
    soc = rc.socle(R, cap)
    m = rc.maximal_ideal(R, cap)
    if R.periodicity is not None:
        # periodic local: the socle must be a principal ideal whose slices
        # are at most one dimensional; checked via a single generator
        g = rc.principal_generator(R, soc)
        if g is None and soc.generators:
            return False
        return True
    rsize = R.size() // max(m.size(), 1)
    return soc.size() == rsize


def classify_local(R, n, cap=DEFAULT_CAP):
    """Classification of a local ring against the three admissible shapes."""
    if R.char == 0 and R.periodicity is None:
        # rational coefficients with finite degree support: only the field
        # itself is recognizable without enumeration
        if rc.is_graded_field(R, cap):
            return LocalVerdict(GRADED_FIELD)
        raise NotLocalInput("rational non-field input needs a periodic presentation")
    if not rc.is_local(R, cap):
        raise NotLocalInput("classify_local expects a local ring")
    m = rc.maximal_ideal(R, cap)
    if m.is_zero_ideal():
        if rc.is_graded_field(R, cap):
            return LocalVerdict(GRADED_FIELD)
        return LocalVerdict(NOT_DELTA, reason=RESIDUE_NOT_FIELD)
    if not _local_socle_simple(R, cap):
        return LocalVerdict(NOT_DELTA, reason=NOT_QF)
    x = rc.chain_generator(R, cap)
    if x is None:
        return LocalVerdict(NOT_DELTA, reason=M_NOT_PRINCIPAL)
    # ann(x) = (x) subsumes x*x = 0 but is reported first so that rings such
    # as Z/8 get the annihilator reason
    if rc.annihilator(R, x, cap) != rc.principal_ideal(R, x):
        return LocalVerdict(NOT_DELTA, reason=ANN_NOT_EQUAL)
    if not (x * x).is_zero:
        return LocalVerdict(NOT_DELTA, reason=SQUARE_NONZERO)
    p = rc.residue_characteristic(R, m, cap)
    i = x.degree
    if R.char == p:
        # equal characteristic: R = k[x]/(x**2) over its residue field
        need = 3 * i + n
        if not has_unit_in_degree(R, need, cap):
            return LocalVerdict(NOT_DELTA, reason=MISSING_UNIT, reason_detail=need, x_degree=i)
        if i % 2 == 0 and n % 2 == 0 and p != 2:
            return LocalVerdict(NOT_DELTA, reason=WRONG_CHAR, x_degree=i)
        return LocalVerdict(EXTERIOR, x_degree=i, unit_degree_found=need)
    if R.char == 4 and p == 2:
        if n % 2 == 1:
            return LocalVerdict(NOT_DELTA, reason=ODD_SUSPENSION_CLASH, x_degree=i)
        two = R.one() + R.one()
        if rc.principal_ideal(R, two) != m:
            return LocalVerdict(NOT_DELTA, reason=M_NOT_PRINCIPAL, x_degree=i)
        if not has_unit_in_degree(R, n, cap):
            return LocalVerdict(NOT_DELTA, reason=MISSING_UNIT, reason_detail=n, x_degree=i)
        return LocalVerdict(T_MOD_4, x_degree=i)
    return LocalVerdict(NOT_DELTA, reason=WRONG_CHAR, x_degree=i)


def classify(R, n, cap=DEFAULT_CAP):
    """Product decomposition followed by local classification of each factor."""
    if R.periodicity is None and R.char != 0:
        factors = rc.decompose_product(R, cap)
    else:
        factors = [R]
    pairs = []
    for f in factors:
        pairs.append((f, classify_local(f, n, cap)))
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
