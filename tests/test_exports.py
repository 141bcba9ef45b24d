"""Every name a superchab module exports in __all__ resolves, so a deleted
function cannot leave a stale export behind; every entry point that the
benchmark's tracer wraps exists; every private helper is still used; every
public function or method is reached by the package, the acceptance
criteria or the benchmark; every stored field is read somewhere; no cache
outlives a call."""

import ast
import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import superchab

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["superchab"] + [
    f"superchab.{info.name}" for info in pkgutil.iter_modules(superchab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def _traced_entries():
    """The (module, owner path) pairs that bench/spans.py wraps, parsed from
    the file without running it, so that a renamed entry point fails here,
    not only in the benchmark's own tests."""
    path = ROOT / "bench" / "spans.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (traced,) = [
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "TRACED"
    ]
    return sorted({(module, owner) for _, module, owner, _ in ast.literal_eval(traced)})


@pytest.mark.parametrize("module_name, owner", _traced_entries())
def test_traced_entry_points_resolve(module_name, owner):
    module = importlib.import_module(module_name)
    if "." in owner:
        cls_name, attr = owner.split(".")
        # the tracer wraps the attribute defined on the class itself
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, owner))


def _references(node, skip_stdlib: bool = False) -> Counter:
    """How often each name or attribute appears under node; with
    skip_stdlib, an attribute of a standard-library module (math.gcd) does
    not count, since it names no function of the package."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name)
        or isinstance(sub, ast.Attribute)
        and not (
            skip_stdlib
            and isinstance(sub.value, ast.Name)
            and sub.value.id in sys.stdlib_module_names
        )
    )


def _parse(paths) -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in paths]


def _package_trees() -> list[ast.Module]:
    return _parse(sorted(Path(superchab.__file__).parent.glob("*.py")))


def test_private_helpers_are_referenced():
    """A _private function or class that nothing in the package refers to,
    apart from its own body, is dead code left behind by a deletion."""
    trees = _package_trees()
    total = sum((_references(tree) for tree in trees), Counter())
    unused = [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and total[node.name] == _references(node)[node.name]
    ]
    assert unused == []


# Public functions and methods that no command, acceptance criterion or
# benchmark workload reaches yet, each kept on purpose.
UNREACHED_ALLOWED = {
    # pieces of the per-curve bound (ROADMAP item 3), which will call them
    "annulus_orbit_count": "per-curve annulus orbit count",
    "cover_transfer": "bound transfer along y^m = f -> y^s = f",
    "rolle_zero_bound": "zeros of an antiderivative on one annulus",
}


def test_public_names_are_reached():
    """A public function or method that nothing refers to, apart from its
    own body, in the package, the acceptance criteria or the benchmark
    (including the names its tracer wraps) is code no entry point reaches:
    wire it in, or delete it.  A call of a standard-library function of the
    same name (math.gcd for ratpoly.gcd) is no reference.  An allowed name
    that becomes reached fails too, so the list cannot go stale."""
    package = _package_trees()
    reaching = package + _parse(
        [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    )
    total = sum((_references(tree, skip_stdlib=True) for tree in reaching), Counter())
    traced = {owner.split(".")[-1] for _, owner in _traced_entries()}
    unreached = sorted(
        node.name
        for tree in package
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in traced
        and total[node.name] == _references(node)[node.name]
    )
    assert unreached == sorted(UNREACHED_ALLOWED)


def test_denominators_cleared_only_in_ratpoly():
    """The integer form den*f of a rational polynomial has one builder,
    ratpoly.integer_form: no other module takes an lcm of denominators."""
    paths = sorted(Path(superchab.__file__).parent.glob("*.py"))
    users = [path.name for path, tree in zip(paths, _parse(paths)) if _references(tree)["lcm"]]
    assert users == ["ratpoly.py"]


@pytest.mark.parametrize(
    "helper", ["_hensel_lift", "_poly_eval_mod", "_vp"]
)
def test_zp_roots_found_only_in_padic(helper):
    """Roots in Z_p (branch points, m-th roots, roots of unity) have one
    finder, in padic.py: no other module reaches its residue scan, its
    Newton lift or the valuation they read."""
    paths = sorted(Path(superchab.__file__).parent.glob("*.py"))
    users = [path.name for path, tree in zip(paths, _parse(paths)) if _references(tree)[helper]]
    assert users == ["padic.py"]


def test_cli_envelope_written_once():
    """The payload envelope has one writer for results (cli.run) and one for
    errors (cli._process); a command that adds its own "schema" key is a
    second copy of it."""
    (cli_tree,) = _parse([Path(superchab.__file__).parent / "cli.py"])
    keys = [
        sub for sub in ast.walk(cli_tree)
        if isinstance(sub, ast.Constant) and sub.value == "schema"
    ]
    assert len(keys) <= 2


@pytest.mark.parametrize(
    "helper",
    ["_verified_digits", "_branch_series_product", "mth_root_series", "mth_root", "_chart_scale"],
)
def test_one_chart_builder(helper):
    """Annuli and both disc cases verify y^m = Q * t^k * h(t)^m through one
    builder in geometry.py: a second function that calls one of its steps
    is a second copy of the chart identity."""
    (tree,) = _parse([Path(superchab.__file__).parent / "geometry.py"])
    callers = [
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == helper
            for sub in ast.walk(fn)
        )
    ]
    assert callers == ["_build_charts"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated with @dataclass or @dataclass(...)."""
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _stored_fields(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) for each dataclass field and each self.<name> store."""
    stored = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls):
            stored |= {
                (cls.name, stmt.target.id)
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            }
        stored |= {
            (cls.name, sub.attr)
            for sub in ast.walk(cls)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        }
    return stored


def _loaded_attributes(tree: ast.Module) -> set[str]:
    """Attribute names read as x.<name>, or as a string constant passed to
    getattr or hasattr."""
    loaded = set()
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            loaded.add(sub.attr)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in ("getattr", "hasattr")
            and len(sub.args) >= 2
            and isinstance(sub.args[1], ast.Constant)
        ):
            loaded.add(sub.args[1].value)
    return loaded


def test_fields_are_read():
    """A dataclass field or self.<name> attribute of the package that is
    never read as an attribute, in the package, the tests or the benchmark,
    is state written for nothing: delete it.  The match is by name alone,
    so a field that shares its name with one read elsewhere passes (the
    domain that a ChartMap once stored hid behind LaurentSeries.domain)."""
    paths = [
        *sorted(Path(superchab.__file__).parent.glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "bench").glob("*.py")),
    ]
    loaded = set().union(*(_loaded_attributes(tree) for tree in _parse(paths)))
    unread = sorted(
        f"{cls}.{name}"
        for tree in _package_trees()
        for cls, name in _stored_fields(tree)
        if name not in loaded
    )
    assert unread == []


_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "clear", "remove", "discard", "__setitem__", "__delitem__",
}
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _module_containers(tree: ast.Module) -> set[str]:
    """Names bound at module level to a dict, list or set display,
    comprehension or constructor call."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        container = isinstance(
            value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) in _CONTAINER_CALLS
        )
        if container:
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _mutated_names(function: ast.AST) -> set[str]:
    """Names that a function changes in place (subscript store or delete,
    a mutating method call) or rebinds through a global statement."""
    mutated = set()
    for sub in ast.walk(function):
        if isinstance(sub, ast.Global):
            mutated |= set(sub.names)
        elif (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.ctx, (ast.Store, ast.Del))
            and isinstance(sub.value, ast.Name)
        ):
            mutated.add(sub.value.id)
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _MUTATORS
            and isinstance(sub.func.value, ast.Name)
        ):
            mutated.add(sub.func.value.id)
    return mutated


def test_no_state_outlives_a_call():
    """No function of the package memoises across calls: no functools.cache
    or lru_cache, and no module-level dict, list or set that a function
    changes.  The benchmark repeats its items, so a cache that outlives a
    call would measure the repeats rather than the work.  A cached_property
    lives and dies with its instance, and stays allowed."""
    found = []
    paths = sorted(Path(superchab.__file__).parent.glob("*.py"))
    for path, tree in zip(paths, _parse(paths)):
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.module == "functools":
                found += [
                    f"{path.name}: functools.{alias.name}"
                    for alias in sub.names
                    if alias.name in ("cache", "lru_cache")
                ]
            elif (
                isinstance(sub, ast.Attribute)
                and sub.attr in ("cache", "lru_cache")
                and getattr(sub.value, "id", None) == "functools"
            ):
                found.append(f"{path.name}: functools.{sub.attr}")
        shared = _module_containers(tree)
        found += [
            f"{path.name}: {function.name} changes {name}"
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for name in sorted(_mutated_names(function) & shared)
        ]
    assert found == []
