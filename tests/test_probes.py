"""The benchmark in ``perfbench/`` times chainplace by wrapping module
attributes it names (``solver.plan_vector``, ``cli.validate_instance``, ...).
Installing its probes here makes a rename or deletion of any of them fail
the test suite rather than a benchmark run. ``scripts/comparison_timing.py``
wraps attributes by name as well, so it runs here once. The comparison
behind ``scripts/search_digest.py --against`` runs on the frozen digest
and on edited copies of it."""

import importlib.util
import json
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


def search_digest_script():
    path = ROOT / "scripts" / "search_digest.py"
    spec = importlib.util.spec_from_file_location("search_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    frozen = json.loads((ROOT / "tests" / "data" / "search_digest.json").read_text())
    return script, frozen


def test_search_digest_against_itself_finds_no_difference(capsys):
    """The comparison ``--against`` prints finds no solve that differs
    between the frozen digest and itself, and gives exit status 0."""
    script, frozen = search_digest_script()
    assert script.compare(frozen, frozen) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"0 of {len(frozen)} solves differ" in lines
    assert "reduced/online" in {line.split(":")[0] for line in lines}


def test_search_digest_against_lists_a_changed_plan(capsys):
    """One solve's plan digest changed and another solve dropped: both are
    listed, and the exit status is 1."""
    script, frozen = search_digest_script()
    changed, dropped = sorted(frozen)[:2]
    new = {label: dict(solve) for label, solve in frozen.items() if label != dropped}
    new[changed]["plan_sha256"] = "0" * 64
    assert script.compare(frozen, new) == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"2 of {len(frozen)} solves differ" in lines
    assert f"  {dropped}: only in old" in lines
    was = frozen[changed]["plan_sha256"]
    assert f"  {changed}: plan_sha256 {was} -> {'0' * 64}" in lines


def test_search_digest_against_skips_a_solve_old_stopped_at_its_limit(capsys):
    """A solve that hit its time limit in OLD is not compared: where it
    stopped depends on timing, so another total is not a difference."""
    script, frozen = search_digest_script()
    label = sorted(frozen)[0]
    old = {**frozen, label: {**frozen[label], "status": script.STATUS_TIME_LIMIT, "total": 1}}
    assert script.compare(old, frozen) == 0
    assert f"0 of {len(frozen)} solves differ" in capsys.readouterr().out.splitlines()
