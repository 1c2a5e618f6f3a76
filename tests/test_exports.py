"""Every name in the package's and its modules' ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import pottspart

MODULES = ["pottspart"] + [
    f"pottspart.{info.name}" for info in pkgutil.iter_modules(pottspart.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []

