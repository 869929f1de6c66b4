"""The benchmark in ``perfbench/`` times chainplace by wrapping module
attributes it names (``solver.plan_vector``, ``cli.validate_instance``, ...).
Installing its probes here makes a rename or deletion of any of them fail
the test suite rather than a benchmark run. ``scripts/comparison_timing.py``
wraps attributes by name as well, so it runs here once."""

import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_comparison_timing_runs_one_pass():
    """``scripts/comparison_timing.py`` wraps solver and scenario attributes
    by name too, and charges route pricing to a ``floor`` layer of its own.
    It runs in a child process, so its wrappers never reach this one."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "comparison_timing.py"), "--passes", "1"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=False, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for table in ("reduced", "full"):
        layers = next(line for line in lines if line.startswith(f"{table} comparisons="))
        figures = dict(field.split("=") for field in layers.split()[1:])
        assert float(figures["floor_ms"]) > 0
        assert f"{table} per_comparison reports=2 plan_checks=5" in lines
