"""The benchmark in ``perfbench/`` times chainplace by wrapping module
attributes it names (``solver.plan_vector``, ``cli.validate_instance``, ...).
Installing its probes here makes a rename or deletion of any of them fail
the test suite rather than a benchmark run."""

import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_probes_install_and_remove(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        patched = [(module, attr, original) for module, attr, original in tracer._patches]
        assert patched
        assert all(getattr(module, attr) is not original for module, attr, original in patched)
    finally:
        tracer.remove()
    assert all(getattr(module, attr) is original for module, attr, original in patched)
