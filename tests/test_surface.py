"""The public names other code binds by name: the probes of the benchmark
tracer and the `families` exports.

`perfbench/tracing.py` wraps each probe with `getattr(module, name)` and no
default, so a probe name missing from the package crashes every traced
benchmark run.  The tracer module is loaded from its source file without
running its probes and without writing bytecode next to it."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import sigmadim.families as families

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_surface_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves(tracing):
    assert tracing.PROBES
    for probe in tracing.PROBES:
        assert probe.module.split(".")[0] == "sigmadim", probe
        module = importlib.import_module(probe.module)
        assert callable(getattr(module, probe.func, None)), (probe.module, probe.func)


def test_families_exports_exist():
    missing = [name for name in families.__all__ if not hasattr(families, name)]
    assert not missing
