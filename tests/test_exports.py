"""Every name a module lists in ``__all__`` resolves.

A deletion that leaves its name behind in ``__all__`` breaks
``from module import *`` and the documented API; it fails here.
"""

import importlib
import pkgutil

import pytest

import sglowrank

MODULES = [
    name
    for name in (m.name for m in pkgutil.iter_modules(sglowrank.__path__, "sglowrank."))
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
