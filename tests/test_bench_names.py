"""The benchmark's layer trace wraps module attributes by name.

``perfbench/layers.py`` replaces ``module.__dict__[attr]`` for every entry of
its ``_SPANNED`` table; a name the program stops binding would break a traced
run with a ``KeyError`` while every other test still passes.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = [(module_name, attr) for module_name, attr, _ in load_layers()._SPANNED]


@pytest.mark.parametrize("module_name, attr", NAMES, ids=[f"{m}:{a}" for m, a in NAMES])
def test_traced_names_are_bound(module_name, attr):
    assert attr in importlib.import_module(module_name).__dict__
