"""Every exported name resolves.

A class deleted from a module but left in an ``__all__`` breaks
``from xmfg.<module> import *`` while every test that imports names one by
one still passes.
"""

import importlib
import pkgutil

import pytest

import xmfg

MODULES = [xmfg] + [
    importlib.import_module(f"xmfg.{info.name}") for info in pkgutil.iter_modules(xmfg.__path__)
]
EXPORTS = [(m.__name__, name) for m in MODULES for name in getattr(m, "__all__", ())]


@pytest.mark.parametrize("module_name, name", EXPORTS, ids=[f"{m}:{n}" for m, n in EXPORTS])
def test_every_exported_name_resolves(module_name, name):
    assert hasattr(importlib.import_module(module_name), name)
