"""Ring and module spec files: JSON syntax, exact round-tripping.

Ring files carry `characteristic`, `basis` (name/degree, optional additive
`order` when it differs from the characteristic), optional `periodicity`
(unit/degree), and `products` as explicit structure constants; unlisted
products are zero.  The multiplicative unit is not stored: it is recovered by
solving u * b = b over the degree-0 slice, a system whose products are taken
by `rings._times`, the one loop that multiplies through the table.
"""

from __future__ import annotations

import collections
import json
import os
from fractions import Fraction

from . import linalg
from .errors import ParseError
from .modules import FiniteModule
from .rings import _NAME_RE, GradedRing, _times, validate_ring

RING_KEYS = {"characteristic", "basis", "periodicity", "products"}
MODULE_KEYS = {"ring", "generators", "relations"}


def _fail(msg, path=None):
    raise ParseError(msg, path)


def _load_json(text, path=None):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        _fail(f"{e.msg} (line {e.lineno}, column {e.colno})", path)


def _coeff_in(raw, char, path):
    """An integer, or a rational written as a string (characteristic 0 only)."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            c = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            _fail(f"bad coefficient {raw!r}", path)
        if char and c.denominator != 1:
            _fail(f"non-integer coefficient {raw!r} in characteristic {char}", path)
        return c
    _fail(f"bad coefficient {raw!r}", path)


def _element_terms(raw, index, char, path, vpow_error):
    """(coeff, basis index, vpow) for each term of an element; vpow_error is
    the message for a nonzero vpow, or None where one is allowed."""
    out = []
    for term in raw:
        if not isinstance(term, dict) or not {"coeff", "basis"} <= set(term) \
                or not set(term) <= {"coeff", "basis", "vpow"}:
            _fail("terms need coeff and basis (optional vpow)", path)
        if term["basis"] not in index:
            _fail(f"unknown basis name {term['basis']!r}", path)
        vpow = term.get("vpow", 0)
        if vpow != 0 and vpow_error:
            _fail(vpow_error, path)
        if not isinstance(vpow, int):
            _fail("vpow must be an integer", path)
        out.append((_coeff_in(term["coeff"], char, path), index[term["basis"]], vpow))
    return out


def _coeff_out(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else str(c)
    return int(c)


def ring_from_obj(obj, path=None):
    if not isinstance(obj, dict):
        _fail("ring spec must be an object", path)
    unknown = set(obj) - RING_KEYS
    if unknown:
        _fail(f"unknown keys {sorted(unknown)}", path)
    for key in ("characteristic", "basis", "products"):
        if key not in obj:
            _fail(f"missing key {key!r}", path)
    char = obj["characteristic"]
    if not isinstance(char, int) or isinstance(char, bool) or char < 0:
        _fail("characteristic must be a nonnegative integer", path)

    periodicity = None
    if "periodicity" in obj and obj["periodicity"] is not None:
        per = obj["periodicity"]
        if not isinstance(per, dict) or set(per) != {"unit", "degree"}:
            _fail("periodicity needs exactly the keys unit and degree", path)
        if not isinstance(per["unit"], str) or not _NAME_RE.match(per["unit"]):
            _fail(f"bad periodicity unit name {per['unit']!r}", path)
        if not isinstance(per["degree"], int) or per["degree"] <= 0:
            _fail("periodicity degree must be a positive integer", path)
        periodicity = (per["unit"], per["degree"])

    basis = []
    orders = []
    index = {}
    for entry in obj["basis"]:
        if not isinstance(entry, dict) or not {"name", "degree"} <= set(entry) \
                or not set(entry) <= {"name", "degree", "order"}:
            _fail("basis entries need name and degree (optional order)", path)
        name = entry["name"]
        if not isinstance(name, str) or not _NAME_RE.match(name):
            _fail(f"bad basis name {name!r}", path)
        if name in index or (periodicity and name == periodicity[0]):
            _fail(f"duplicate name {name!r}", path)
        if not isinstance(entry["degree"], int):
            _fail(f"bad degree for {name!r}", path)
        order = entry.get("order", char)
        if not isinstance(order, int) or order < 0:
            _fail(f"bad order for {name!r}", path)
        index[name] = len(basis)
        basis.append((name, entry["degree"]))
        orders.append(order)
    if not basis:
        _fail("basis must be nonempty", path)

    products = {}
    for entry in obj["products"]:
        if not isinstance(entry, dict) or set(entry) != {"left", "right", "terms"}:
            _fail("products need left, right and terms", path)
        for side in ("left", "right"):
            if entry[side] not in index:
                _fail(f"unknown basis name {entry[side]!r}", path)
        key = (index[entry["left"]], index[entry["right"]])
        if key in products:
            _fail(f"duplicate product {entry['left']} * {entry['right']}", path)
        products[key] = _element_terms(entry["terms"], index, char, path,
                                       None if periodicity else "vpow requires a periodicity unit")

    unit = _find_unit(char, basis, products, periodicity, orders, path)
    ring = GradedRing(char, basis, products, unit, periodicity=periodicity, orders=orders)
    return validate_ring(ring)


def _find_unit(char, basis, products, periodicity, orders, path):
    """Solve u * b_j = b_j over the degree-0 slice: column (i, t) of the
    system is b_i v**t times b_j, one row per monomial of the slice of b_j.
    The probe ring keeps the product terms of the right degree alone, so
    an ill-graded term cannot change the unit before validation meets it."""
    deg, d = [q for _, q in basis], periodicity[1] if periodicity else 0
    graded = {(i, j): [(c, k, t) for c, k, t in terms if deg[k] + t * d == deg[i] + deg[j]]
              for (i, j), terms in products.items()}
    probe = GradedRing(char, basis, graded, [(1, 0, 0)], periodicity=periodicity, orders=orders)
    terms0 = probe.slice_terms(0)
    if not terms0:
        _fail("degree-0 slice is empty: no unit", path)
    cells = collections.defaultdict(int)
    for col, (i, _) in enumerate(terms0):
        _times(probe, i, (((j, col), j, 1) for j in range(probe.dim)), cells)
    A, b, moduli = [], [], []
    for j in range(probe.dim):
        target = probe.slice_terms(probe.degrees[j])
        A += [[cells[(j, col), k] for col in range(len(terms0))] for k, _ in target]
        b += [int(mt == (j, 0)) for mt in target]
        moduli += probe.slice_moduli(target)
    sol = linalg.congruence_solve(A, b, moduli)
    if sol is None:
        _fail("structure constants admit no multiplicative unit", path)
    return [(c, i, t) for c, (i, t) in zip(sol, terms0) if c]


def parse_ring(text, path=None):
    return ring_from_obj(_load_json(text, path), path)


def load_ring(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _fail(str(e), path)
    return parse_ring(text, path)


def ring_to_obj(R):
    obj = {"characteristic": R.char, "basis": []}
    for i, name in enumerate(R.basis_names):
        entry = {"name": name, "degree": R.degrees[i]}
        if R.orders[i] != R.char:
            entry["order"] = R.orders[i]
        obj["basis"].append(entry)
    if R.periodicity is not None:
        obj["periodicity"] = {"unit": R.periodicity[0], "degree": R.periodicity[1]}
    obj["products"] = []
    for (i, j), product in sorted(R.products.items()):
        terms = [
            {"coeff": _coeff_out(c), "basis": R.basis_names[k], "vpow": t}
            for c, k, t in product
        ]
        obj["products"].append({
            "left": R.basis_names[i], "right": R.basis_names[j], "terms": terms,
        })
    return obj


def serialize_ring(R):
    return json.dumps(ring_to_obj(R), indent=2) + "\n"


def save_ring(R, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_ring(R))


def module_from_obj(obj, path=None, base_dir=None):
    if not isinstance(obj, dict):
        _fail("module spec must be an object", path)
    unknown = set(obj) - MODULE_KEYS
    if unknown:
        _fail(f"unknown keys {sorted(unknown)}", path)
    for key in MODULE_KEYS:
        if key not in obj:
            _fail(f"missing key {key!r}", path)
    if isinstance(obj["ring"], str):
        ring_path = obj["ring"]
        if base_dir is not None and not os.path.isabs(ring_path):
            ring_path = os.path.join(base_dir, ring_path)
        R = load_ring(ring_path)
    else:
        R = ring_from_obj(obj["ring"], path)
    gens = obj["generators"]
    if not isinstance(gens, int) or isinstance(gens, bool) or gens < 0:
        _fail("generators must be a nonnegative integer", path)
    index = {name: i for i, name in enumerate(R.basis_names)}
    rels = []
    for row in obj["relations"]:
        if not isinstance(row, list) or len(row) != gens:
            _fail("each relation must list one element per generator", path)
        col = []
        for raw in row:
            terms = {}
            for c, k, _ in _element_terms(raw, index, R.char, path,
                                          "module relations take no vpow: modules are over ungraded rings"):
                terms[k, 0] = terms.get((k, 0), 0) + c
            col.append(R.element(terms))
        rels.append(col)
    return FiniteModule(R, gens, rels)


def load_module(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _fail(str(e), path)
    return module_from_obj(_load_json(text, path), path, base_dir=os.path.dirname(path))
