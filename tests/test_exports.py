"""Every name a superchab module exports in __all__ resolves, so a deleted
function cannot leave a stale export behind."""

import importlib
import pkgutil

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
