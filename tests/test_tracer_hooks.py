"""The benchmark's span tracer wraps package attributes by name; every name
it lists must still exist, or a traced benchmark run fails on a rename."""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    module = importlib.import_module("spans")
    importlib.import_module("tvbounds.oracle")
    importlib.import_module("tvbounds.cli")
    return module


def test_every_traced_name_resolves(spans):
    for module_name, attr, _, _ in spans.WRAPS:
        owner, _, value = spans._resolve(module_name, attr)
        assert owner is not None, f"{module_name} is not imported"
        assert value is not None, f"{module_name}.{attr} is None"


def test_tracer_round_trip_restores_every_original(spans):
    # the traced benchmark run's sequence: a lazy hook that hands the tracer
    # a wrapped object leaves a name wrapped, and uninstall raises
    spans.assert_unwrapped()
    tracer = spans.Tracer(16)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
