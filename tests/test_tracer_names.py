"""Every name the benchmark's tracer looks up in ``geokd`` still resolves.

``bench/tracer.py`` wraps functions, tensor ops and methods by name, and binds
one argument of each kernel-sizing call by name. Renaming or deleting any of
them in ``src/`` would break the benchmark, so they are checked here against
the tracer's own tables.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_functions_and_tensor_ops_resolve(tracer):
    names = [("tensor", op) for op in tracer.TENSOR_OPS]
    names += [(mod, fn) for mod, fns in tracer.LAYER_FUNCTIONS.items() for fn in fns]
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not inspect.isfunction(getattr(importlib.import_module(f"geokd.{mod}"),
                                                 fn, None))]
    assert missing == []


def test_layer_methods_resolve(tracer):
    for mod, cls, meth in tracer.LAYER_METHODS:
        owner = getattr(importlib.import_module(f"geokd.{mod}"), cls)
        assert inspect.isfunction(getattr(owner, meth, None)), f"{mod}.{cls}.{meth}"


def test_kernel_size_arguments_bind(tracer):
    for mod, fn, arg in tracer.KERNEL_SIZE_ARGS:
        func = getattr(importlib.import_module(f"geokd.{mod}"), fn)
        assert arg in inspect.signature(func).parameters, f"{mod}.{fn}({arg})"
