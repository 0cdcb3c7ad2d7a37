"""Imports of the library: each one is stdlib, trimod itself or a declared
dependency, and every function the benchmark tracer wraps exists."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _declared():
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {re.split(r"[\s<>=!~\[;]", dep, maxsplit=1)[0].lower().replace("-", "_")
            for dep in meta.get("dependencies", [])}


def _imported(path):
    """Top-level names of every absolute import, at module level or inside functions."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_are_declared():
    allowed = set(sys.stdlib_module_names) | {"trimod"} | _declared()
    stray = sorted({(path.name, name)
                    for path in (ROOT / "src" / "trimod").glob("*.py")
                    for name in _imported(path) if name not in allowed})
    assert not stray, f"undeclared imports: {stray}"


def _traced_functions():
    """(module, function) pairs that the benchmark's tracer wraps, read from
    the LAYERS table of perfbench/tracing.py without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    tables = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)]
    assert len(tables) == 1
    return [(module, name) for module, names in tables[0].values() for name in names]


def test_traced_functions_exist():
    # a traced benchmark run (--trace 1) wraps these by name
    traced = _traced_functions()
    assert traced
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert not missing, f"functions the tracer wraps are gone: {missing}"
    assert callable(vars(importlib.import_module("trimod.rings").RingElement).get("__mul__"))


def _units(top):
    """(qualified name, own name, node) of a top-level statement: a function
    is its own unit, and a class one unit per method, named Class.method;
    the other nodes of a class, and other statements, own no name."""
    if isinstance(top, ast.FunctionDef):
        return [(top.name, top.name, top)]
    if not isinstance(top, ast.ClassDef):
        return [(None, None, top)]
    return [(f"{top.name}.{node.name}", node.name, node) if isinstance(node, ast.FunctionDef) else (None, None, node)
            for node in top.bases + top.keywords + top.decorator_list + top.body]


def _library_functions():
    """(module, name) of each top-level function and each non-dunder method
    (as Class.method) under src/trimod/, and every name the library refers
    to outside the function of that name (a call, a decorator or a reference
    through a module or an attribute)."""
    defs, refs = [], set()
    for path in sorted((ROOT / "src" / "trimod").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for qualified, own, unit in _units(top):
                if own and not own.startswith("__"):
                    defs.append((f"trimod.{path.stem}", qualified))
                for node in ast.walk(unit):
                    name = getattr(node, "id", None) or getattr(node, "attr", None)
                    if name and name != own:
                        refs.add(name)
    return defs, refs


def _exported():
    """The names the package's __init__ imports."""
    tree = ast.parse((ROOT / "src" / "trimod" / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_function_has_a_library_caller():
    defs, refs = _library_functions()
    exported, traced = _exported(), set(_traced_functions())
    uncalled = [(module, name) for module, name in defs
                if name.split(".")[-1] not in refs and name not in exported]
    # demos and tests read a verdict's first reason
    allowed = traced | {("trimod.classify", "Verdict.first_reason")}
    assert [f"{m}.{n}" for m, n in uncalled if (m, n) not in allowed] == []
    # the tracer wraps the two functions, and nothing in the library calls
    # these three
    assert {name for _, name in uncalled} == {"hom_group", "residue_field", "Verdict.first_reason"}


def test_every_error_is_raised():
    # an error type outlives its last raise only as dead public API
    root = ROOT / "src" / "trimod"
    errors = [node.name for node in ast.parse((root / "errors.py").read_text(encoding="utf-8")).body
              if isinstance(node, ast.ClassDef)]
    used = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                used.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
            elif isinstance(node, ast.ClassDef):
                used.update(getattr(base, "id", None) or getattr(base, "attr", None) for base in node.bases)
    assert errors and [name for name in errors if name not in used] == []


def _scoped_nodes(node, scope=()):
    """Each node of the tree with its scope, the names of the classes and
    functions that enclose it."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        scope = scope + (node.name,)
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from _scoped_nodes(child, scope)


def _stray(find, allowed):
    """file:line in scope of each (scope, line) that find(tree) yields for a
    module under src/trimod/, unless (module stem, *scope) starts with one
    of the allowed tuples."""
    return [f"{path.name}:{line} in {'.'.join(scope) or '<module>'}"
            for path in sorted((ROOT / "src" / "trimod").glob("*.py"))
            for scope, line in find(ast.parse(path.read_text(encoding="utf-8")))
            if not any((path.stem, *scope)[:len(a)] == a for a in allowed)]


def _cache_writes(tree):
    """(scope, line) of each subscript store into, or setdefault on, an
    attribute named `_cache`."""
    def is_cache(node):
        return isinstance(node, ast.Attribute) and node.attr == "_cache"

    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)) and is_cache(node.value):
            yield scope, node.lineno
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "setdefault" and is_cache(node.func.value):
            yield scope, node.lineno


def test_only_per_object_writes_caches():
    # a memo entry is written by rings.per_object (a call or its seed), and
    # a module is interned by modules._presented; nothing else writes a cache
    assert _stray(_cache_writes, {("rings", "per_object"), ("modules", "_presented")}) == []


def _coordinate_conversions(tree):
    """(scope, line) of each reference to an attribute named `full_coords`
    or `from_full_coords`: a ring element read into integers, or back."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("full_coords", "from_full_coords"):
            yield scope, node.lineno


def test_ring_elements_enter_and_leave_modules_at_four_sites():
    # the module layer works in integer coordinates: ring elements enter at
    # the public constructor, the ring action and the generators' images,
    # and leave only through the relations property
    tree = ast.parse((ROOT / "src" / "trimod" / "modules.py").read_text(encoding="utf-8"))
    assert {scope for scope, _ in _coordinate_conversions(tree)} == {
        ("FiniteModule", "__new__"), ("FiniteModule", "relations"), ("FiniteModule", "act_all"),
        ("_generator_images",)}


def _product_lookups(tree):
    """(scope, line) of each subscript read of, or `.get` on, an attribute
    named `products`: a lookup of one product b_i b_j."""
    def is_table(node):
        return isinstance(node, ast.Attribute) and node.attr == "products"

    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and is_table(node.value) \
                or isinstance(node, ast.Attribute) and node.attr == "get" and is_table(node.value):
            yield scope, node.lineno


def test_only_times_looks_up_products():
    # rings._times is the one loop that multiplies through GradedRing.products;
    # every other reader walks the whole table
    assert _stray(_product_lookups, {("rings", "_times")}) == []


def _presentation_names(tree):
    """(scope, line) of each name or attribute that builds or reads a
    presentation: `_presented`, `_lifted`, `_generator_images` or
    `relation_array`."""
    names = {"_presented", "_lifted", "_generator_images", "relation_array"}
    for scope, node in _scoped_nodes(tree):
        if (getattr(node, "id", None) or getattr(node, "attr", None)) in names:
            yield scope, node.lineno


def test_only_modules_builds_presentations():
    # a module is its interned presentation: kernels, cokernels and the
    # stable cofiber are all presented inside modules
    assert _stray(_presentation_names, {("modules",)}) == []


def _grow_calls(tree):
    """(scope, line) of each reference to an attribute named `_grow`."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_grow":
            yield scope, node.lineno


def test_only_the_spin_grows_a_subgroup_in_place():
    # Subgroup._grow changes its span in place: only the spin of
    # algebra_generators, on a span it made and shares with nothing, calls it
    assert _stray(_grow_calls, {("rings", "algebra_generators")}) == []


def _int64_refusals(tree):
    """(scope, line) of each raise of UnsupportedCoefficients whose message
    names int64."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and getattr(node.exc.func, "id", None) == "UnsupportedCoefficients" \
                and any(isinstance(c, ast.Constant) and "int64" in str(c.value)
                        for arg in node.exc.args for c in ast.walk(arg)):
            yield scope, node.lineno


def test_only_the_dg_model_refuses_a_prime_for_int64():
    # the field lane eliminates in Python integers at every prime; the DG
    # model, which multiplies int64 entries elementwise, refuses p * p >= 2**63
    assert _stray(_int64_refusals, {("dga", "build_two_generator_dga")}) == []
    dga = ast.parse((ROOT / "src" / "trimod" / "dga.py").read_text(encoding="utf-8"))
    assert [scope for scope, _ in _int64_refusals(dga)] == [("build_two_generator_dga",)]


def _weight_parameters(tree):
    """(scope, line) of each function parameter named `weight`."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.arg) and node.arg == "weight":
            yield scope, node.lineno


def test_only_the_model_builders_take_a_weight():
    # a DG model works out its own weight bound: only the constructors of a
    # model and the cache of triangles' models take one, so no caller of a
    # triangle can set it
    allowed = {("dga", "DGAlgebra", "__init__"), ("dga", "build_two_generator_dga"), ("triangles", "_model")}
    assert _stray(_weight_parameters, allowed) == []


def _product_tables(tree):
    """(scope, line) of each dict display or comprehension with a tuple key,
    and of each subscript store: a product table written out."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Dict) and any(isinstance(key, ast.Tuple) for key in node.keys) \
                or isinstance(node, ast.DictComp) and isinstance(node.key, ast.Tuple) \
                or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            yield scope, node.lineno


def test_only_the_monomial_builder_writes_stock_tables():
    # the stock rings on a monomial basis build through one builder;
    # exterior_on_field and product_ring derive theirs from the rings they take
    allowed = {("constructions", name) for name in ("_monomial_ring", "exterior_on_field", "product_ring")}
    stray = _stray(_product_tables, allowed)
    assert [line for line in stray if line.startswith("constructions.py:")] == []


def _entry_multiplications(tree):
    """(scope, line) of each reference to `_algebra_cells`, the nonzero cells
    of the slice matrices through which a module's entries multiply."""
    for scope, node in _scoped_nodes(tree):
        if (getattr(node, "id", None) or getattr(node, "attr", None)) == "_algebra_cells":
            yield scope, node.lineno


def test_only_slice_differential_and_calculus_multiply_by_entries():
    # a module's slice differential is the one assembly of right
    # multiplications by its entries (a map's slices are read off its cone):
    # its sparse rows, `_slice_rows`, add the cells of each term's slice
    # matrix; the calculus check makes arrays of those cells, in its array
    # maker, to test the rule they obey; and the u-action places the cells
    # of left multiplication by u at the slice offsets
    assert _stray(_entry_multiplications, set()) != []
    allowed = {("dga", "_slice_rows"), ("dga", "calculus_holds", "matrix"), ("dga", "u_action_matrix")}
    assert _stray(_entry_multiplications, allowed) == []
    assert not hasattr(importlib.import_module("trimod.dga"), "_algebra_matrix")


def _dense_products(tree):
    """(scope, line) of each `@` product and each reference to an attribute
    named matmul, dot, tensordot or einsum."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult) \
                or isinstance(node, ast.Attribute) and node.attr in {"matmul", "dot", "tensordot", "einsum"}:
            yield scope, node.lineno


def test_every_product_goes_through_modp_matmul():
    # linalg.modp_matmul is the library's one integer product, and its
    # bound keeps every int64 sum from wrapping; the finder sees the
    # products inside it, and no other in any file
    assert [line for line in _stray(_dense_products, set()) if line.startswith("linalg.py:")]
    assert _stray(_dense_products, {("linalg", "modp_matmul")}) == []


def _wide_thresholds(tree):
    """(scope, line) of each constant 2 ** 62 or 2 ** 63."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) \
                and [getattr(n, "value", None) for n in (node.left, node.right)] in ([2, 62], [2, 63]):
            yield scope, node.lineno


def test_only_linalg_names_the_int64_bound():
    # one int64 rule, `int_dtype`, and the product's bound; the builder of
    # the DG model asks the rule instead of restating it
    assert _stray(_wide_thresholds, set()) != []
    assert _stray(_wide_thresholds, {("linalg", "int_dtype"), ("linalg", "modp_matmul")}) == []
    assert not hasattr(importlib.import_module("trimod.rings"), "int_dtype")
    assert not hasattr(importlib.import_module("trimod.modules"), "_reduce")


def _degree_reductions(tree):
    """(scope, line) of each `x % y` whose modulus y names `vdeg` or
    `period`, unless it is a membership test `x % y == 0`."""
    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}

    tests = {id(node.left) for _, node in _scoped_nodes(tree) if isinstance(node, ast.Compare)
             and [type(op) for op in node.ops] == [ast.Eq]
             and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 0}
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                and names(node.right) & {"vdeg", "period"} and id(node) not in tests:
            yield scope, node.lineno


def test_only_residue_reduces_degrees():
    # slice objects are shared by the degrees of one residue class mod |v|,
    # and dga.residue is the one place that names the class of a degree
    assert _stray(_degree_reductions, {("dga", "residue")}) == []


def test_dg_path_converts_no_array_to_lists():
    # an F_p matrix on the DG path is an int64 array from slice matrix to
    # triangle: no call to .tolist() in dga or triangles
    calls = [f"{name}:{node.lineno}" for name in ("dga.py", "triangles.py")
             for node in ast.walk(ast.parse((ROOT / "src" / "trimod" / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "tolist"]
    assert calls == []


def _relation_row_builds(tree):
    """(scope, line) of each call of `_combination_rows` with an argument
    that reads an attribute named `relation_array`: the relations of a
    module applied to a map."""
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_combination_rows" \
                and any(isinstance(n, ast.Attribute) and n.attr == "relation_array"
                        for arg in node.args for n in ast.walk(arg)):
            yield scope, node.lineno


def test_hom_check_and_factorization_share_one_relation_matrix():
    # modules._relation_rows is the one builder of "the relations of M sent
    # to zero" on hom coordinates: Hom eliminates it, the check of a map
    # multiplies it, and a factorization solves it stacked over f . h = g in
    # one congruence solve
    assert _stray(_relation_row_builds, set()) != []
    assert _stray(_relation_row_builds, {("modules", "_relation_rows")}) == []
    tree = ast.parse((ROOT / "src" / "trimod" / "modules.py").read_text(encoding="utf-8"))
    (factor,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_factor_through"]
    solves = [node for node in ast.walk(factor) if isinstance(node, ast.Call)
              and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "congruence_solve"]
    assert len(solves) == 1
    modules = importlib.import_module("trimod.modules")
    assert not hasattr(modules, "_kills_relations") and not hasattr(modules, "_free_matrix")
