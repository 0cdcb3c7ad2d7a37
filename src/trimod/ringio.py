"""Ring and module spec files: JSON syntax, exact round-tripping.

Ring files carry `characteristic`, `basis` (name/degree, optional additive
`order` when it differs from the characteristic), optional `periodicity`
(unit/degree), and `products` as explicit structure constants; unlisted
products are zero.  The multiplicative unit is not stored: it is recovered by
solving u * b = b over the degree-0 slice, a system whose products are taken
by `rings._times`, the one loop that multiplies through the table.

`RING_SCHEMA` and `MODULE_SCHEMA` are the file formats.  `_check` walks a
file against its schema before any field is read, naming the place of the
first offending value; checks across fields (names, unit, axioms) follow.
"""

from __future__ import annotations

import collections
import json
import os
import re
from fractions import Fraction

from . import linalg
from .errors import ParseError
from .modules import FiniteModule
from .rings import _NAME_RE, GradedRing, _times, validate_ring


def _fail(msg, path=None):
    raise ParseError(msg, path)


def _is_int(x):
    # a JSON boolean is no integer
    return isinstance(x, int) and not isinstance(x, bool)


# [+-]digits[/digits] with a nonzero denominator, each part no longer than
# the 4300 digits int() converts by default, as for integers in the JSON
_RATIONAL_RE = re.compile(r"[+-]?[0-9]{1,4300}(/(?=0*[1-9])[0-9]{1,4300})?")


def _is_rational(x):
    """A rational string such as "1/2" or "-3/4", checked before `Fraction`
    reads it: no exponents, decimals, underscores or spaces."""
    return isinstance(x, str) and _RATIONAL_RE.fullmatch(x) is not None


# A schema is a check (predicate, what it wants), a one-entry list for a
# JSON array of that schema, or a dict for a JSON object, whose keys ending
# in "?" are optional.
INT = (_is_int, "an integer")
NATURAL = (lambda x: _is_int(x) and x >= 0, "a nonnegative integer")
NAME = (lambda x: isinstance(x, str) and _NAME_RE.match(x) is not None, "an identifier")
TERMS = [{"coeff": (lambda x: _is_int(x) or _is_rational(x), "an integer or a rational string"),
          "basis": NAME, "vpow?": INT}]
RING_SCHEMA = {
    "characteristic": NATURAL,
    "basis": [{"name": NAME, "degree": INT, "order?": NATURAL}],
    "periodicity?": {"unit": NAME, "degree": (lambda x: _is_int(x) and x > 0, "a positive integer")},
    "products": [{"left": NAME, "right": NAME, "terms": TERMS}],
}
MODULE_SCHEMA = {
    "ring": (lambda x: isinstance(x, (str, dict)), "a path or an object"),
    "generators": NATURAL,
    "relations": [[TERMS]],
}
_ARRAY = (lambda x: isinstance(x, list), "an array")
_OBJECT = (lambda x: isinstance(x, dict), "an object")


def _check(value, schema, path, where):
    """Check the type of value and of everything in it against schema; the
    ParseError names the place of the first offending value, such as
    `products[3] terms`."""
    ok, what = _ARRAY if isinstance(schema, list) else _OBJECT if isinstance(schema, dict) else schema
    if not ok(value):
        _fail(f"{where or 'spec'} must be {what}", path)
    if isinstance(schema, list):
        for i, item in enumerate(value):
            _check(item, schema[0], path, f"{where}[{i}]")
    elif isinstance(schema, dict):
        keys = {key.rstrip("?"): key for key in schema}
        within = f" in {where}" if where else ""
        if unknown := set(value) - set(keys):
            _fail(f"unknown keys {sorted(unknown)}{within}", path)
        for name, key in keys.items():
            if name in value:
                _check(value[name], schema[key], path, f"{where} {name}".lstrip())
            elif key == name:
                _fail(f"missing key {name!r}{within}", path)


def _load_json(text, path=None):
    try:
        return json.loads(text)
    except ValueError as e:
        # a JSONDecodeError, which names line and column, or an integer
        # with more digits than int() may convert
        _fail(str(e), path)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        _fail(str(e), path)


def _basis_index(index, name, path):
    if name not in index:
        _fail(f"unknown basis name {name!r}", path)
    return index[name]


def _element_terms(raw, index, char, path, vpow_error):
    """(coeff, basis index, vpow) for each checked term of an element;
    vpow_error is the message for a nonzero vpow, or None where one is
    allowed.  A rational coefficient needs characteristic 0."""
    out = []
    for term in raw:
        coeff, vpow = term["coeff"], term.get("vpow", 0)
        c = Fraction(coeff) if isinstance(coeff, str) else coeff
        if char and c.denominator != 1:
            _fail(f"non-integer coefficient {coeff!r} in characteristic {char}", path)
        if vpow and vpow_error:
            _fail(vpow_error, path)
        out.append((c, _basis_index(index, term["basis"], path), vpow))
    return out


def _coeff_out(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else str(c)
    return int(c)


def ring_from_obj(obj, path=None):
    # a null periodicity is an absent one
    if isinstance(obj, dict) and "periodicity" in obj and obj["periodicity"] is None:
        obj = {key: value for key, value in obj.items() if key != "periodicity"}
    _check(obj, RING_SCHEMA, path, "")
    char, per = obj["characteristic"], obj.get("periodicity")
    periodicity = (per["unit"], per["degree"]) if per else None
    basis = [(entry["name"], entry["degree"]) for entry in obj["basis"]]
    orders = [entry.get("order", char) for entry in obj["basis"]]
    if not basis:
        _fail("basis must be nonempty", path)
    names = collections.Counter([name for name, _ in basis] + ([per["unit"]] if per else []))
    if twice := [name for name, count in names.items() if count > 1]:
        _fail(f"duplicate name {twice[0]!r}", path)
    index = {name: i for i, (name, _) in enumerate(basis)}
    products = {}
    for entry in obj["products"]:
        key = (_basis_index(index, entry["left"], path), _basis_index(index, entry["right"], path))
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
    return parse_ring(_read(path), path)


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
    _check(obj, MODULE_SCHEMA, path, "")
    if isinstance(obj["ring"], str):
        ring_path = obj["ring"]
        if base_dir is not None and not os.path.isabs(ring_path):
            ring_path = os.path.join(base_dir, ring_path)
        R = load_ring(ring_path)
    else:
        R = ring_from_obj(obj["ring"], path)
    gens = obj["generators"]
    index = {name: i for i, name in enumerate(R.basis_names)}
    rels = []
    for row in obj["relations"]:
        if len(row) != gens:
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
    return module_from_obj(_load_json(_read(path), path), path, base_dir=os.path.dirname(path))
