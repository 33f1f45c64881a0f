"""Tests that the benchmark's span tracer still finds what it wraps.

Proves:
  1. Every (module, function) pair in perfbench/tracer.py's LAYERS resolves
     to a callable on the package, so a cleanup that deletes or renames a
     traced entry point fails here, not only in the benchmark run.
"""
import importlib.util
import pathlib

import pytest

import latticegossip

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, fn) for module, fns in tracer.LAYERS.values()
            for fn in fns]


@pytest.mark.parametrize("module, fn", traced_names())
def test_traced_name_resolves_on_the_package(module, fn):
    assert callable(getattr(getattr(latticegossip, module), fn))
