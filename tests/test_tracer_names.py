"""The benchmark tracer wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("metric, modname, attr", _traced(), ids=lambda v: str(v))
def test_traced_name_resolves(metric, modname, attr):
    target = importlib.import_module("superelliptic." + modname)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), (metric, modname, attr)
