"""bench/tracing.py wraps functions by name in the modules that call
them; every (module, name) pair it targets must resolve, or tracing a
run fails with AttributeError."""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "bench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(mod, name) for mod, names in tracing.TARGETS.items() for name in names]


@pytest.mark.parametrize("mod,name", _targets())
def test_every_traced_name_resolves(mod, name):
    assert callable(getattr(importlib.import_module(mod), name))
