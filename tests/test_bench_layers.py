"""The benchmark's traced layers must exist in the package.

``bench/run.py --trace 1`` wraps every function that ``bench/workloads.py``
lists in ``layers()``, looking each one up by name on its owner; a renamed
or removed function fails the traced run with a KeyError.  This test imports
the benchmark's workload module without writing bytecode next to it and
checks every name.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
BENCH_MODULES = ("workloads", "checks")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("workloads")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_traced_layer_exists(workloads):
    layers = workloads.layers()
    assert layers
    for span, (owner, attr, _) in layers.items():
        assert attr in vars(owner), f"{span}: {owner.__name__} has no {attr!r}"
