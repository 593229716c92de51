"""The benchmark's per-layer span names resolve to code in the package.

``perfbench/tracer.py`` wraps the public functions of the package's
modules and a list of ``MatLaurent`` methods by name.  A per-layer metric
named in ``BENCHMARK.json`` whose function was renamed or removed reads
as zero instead of failing, so every such name is checked here.  The file
is only read.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from hermwave.laurent import MatLaurent

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Modules whose per-layer names are ``<module>.<function>.<kind>``.
MODULES = ("signal", "filterbank", "subdivision", "annihilator")


def _names() -> list[list[str]]:
    return [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]


FUNCTIONS = sorted({(parts[0], parts[1]) for parts in _names() if parts[0] in MODULES})
METHODS = sorted({parts[2] for parts in _names() if parts[:2] == ["laurent", "MatLaurent"]})


def test_names_were_found():
    assert FUNCTIONS and METHODS


@pytest.mark.parametrize("module, function", FUNCTIONS)
def test_traced_function_is_public_in_its_module(module, function):
    mod = importlib.import_module(f"hermwave.{module}")
    fn = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(fn), f"hermwave.{module}.{function} is not a function"
    assert fn.__module__ == mod.__name__, f"{function} is defined in {fn.__module__}"


@pytest.mark.parametrize("method", METHODS)
def test_traced_method_is_defined_on_matlaurent(method):
    # the tracer reads MatLaurent.__dict__[method]: an inherited or missing
    # method crashes a traced run
    assert method in MatLaurent.__dict__
    if method == "from_taps":
        assert isinstance(MatLaurent.__dict__[method], staticmethod)
