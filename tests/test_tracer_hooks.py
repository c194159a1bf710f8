"""The benchmark's span tracer wraps package attributes by name; every name
it lists must still exist, or a traced benchmark run fails on a rename."""

import importlib
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    importlib.import_module("tvbounds.oracle")
    importlib.import_module("tvbounds.cli")
    for module_name, attr, _, _ in spans.WRAPS:
        owner, _, value = spans._resolve(module_name, attr)
        assert owner is not None, f"{module_name} is not imported"
        assert value is not None, f"{module_name}.{attr} is None"
