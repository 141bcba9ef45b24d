"""Every name a superchab module exports in __all__ resolves, so a deleted
function cannot leave a stale export behind; every entry point that the
benchmark's tracer wraps exists; every private helper is still used."""

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import superchab

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
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
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


def _references(node) -> Counter:
    """How often each name or attribute appears under node."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_private_helpers_are_referenced():
    """A _private function or class that nothing in the package refers to,
    apart from its own body, is dead code left behind by a deletion."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(superchab.__file__).parent.glob("*.py"))
    ]
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
