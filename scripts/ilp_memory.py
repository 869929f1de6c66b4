#!/usr/bin/env python3
"""Measure the memory of the compiled ILP and of its two text writers.

The cases are the paper's full-scale table at seed 3 (scenarios 1-3, online
and no_reuse) and one frontier instance past it: 6 servers, 6 user groups,
5 existing and 7 new requests, seed 3, no_reuse. Each instance is
generated first; then its model is built with clamped accounting, as
``chainplace compare`` prices it. For every model the script prints its
variables, rows and coefficients, the memory that ``tracemalloc`` traces
to it once built (``model_mb``), and the peak that ``tracemalloc`` sees
above that while ``mps_chunks`` and then ``lp_chunks`` write the text to a
temporary file, as ``chainplace solve --export ... -o`` does
(``mps_peak_mb``, ``lp_peak_mb``), with the size of each text
(``mps_text_mb``, ``lp_text_mb``). Last, it reads ``model.variables``,
which neither writer reads, and prints what that first read adds to the
model (``variables_mb``: the ``IlpVar``s with their names and keys). An
MB is 2**20 bytes, as in perfbench's ``peak_rss_mb``. Tracing slows the
program several times over, so the script reports no times; the frontier
case takes most of a minute on a 2-vCPU Xeon host. Run from the repository root:

    PYTHONPATH=src python scripts/ilp_memory.py
"""

import gc
import os
import tempfile
import tracemalloc

from chainplace.ilp import BuildOptions, build_ilp, lp_chunks, mps_chunks
from chainplace.scenario import ScenarioSpec, generate

SEED = 3


def cases():
    """(label, spec, no_reuse) of every model to measure, in a fixed order."""
    for scenario_id in (1, 2, 3):
        spec = ScenarioSpec.table_row(scenario_id, seed=SEED, reduced=False)
        for no_reuse in (False, True):
            mode = "no_reuse" if no_reuse else "online"
            yield f"full/s{SEED}/sc{scenario_id}/{mode}", spec, no_reuse
    spec = ScenarioSpec(
        seed=SEED, n_servers=6, n_user_groups=6, existing_requests=5, new_requests=7
    )
    yield f"frontier/6x6/5-7/s{SEED}/no_reuse", spec, True


def traced_mb(nbytes: int) -> str:
    return f"{nbytes / 2**20:.2f}"


def measure(spec, no_reuse: bool) -> dict:
    instance = generate(spec)
    options = BuildOptions(no_reuse=no_reuse, clamp_instantiation=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = build_ilp(instance, options)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        peaks, sizes = [], []
        with tempfile.TemporaryDirectory() as work:
            for chunks in (mps_chunks, lp_chunks):
                path = os.path.join(work, "model.txt")
                tracemalloc.reset_peak()
                with open(path, "w", newline="") as fh:
                    fh.writelines(chunks(model))
                peaks.append(tracemalloc.get_traced_memory()[1] - built)
                sizes.append(os.path.getsize(path))
        gc.collect()
        written = tracemalloc.get_traced_memory()[0]
        n_vars = len(model.variables)
        gc.collect()
        variables = tracemalloc.get_traced_memory()[0] - written
    finally:
        tracemalloc.stop()
    return {
        "vars": n_vars,
        "rows": len(model.rows),
        "coefficients": sum(len(block.cols) for block in model.blocks),
        "model_mb": traced_mb(built - before),
        "variables_mb": traced_mb(variables),
        "mps_peak_mb": traced_mb(peaks[0]),
        "lp_peak_mb": traced_mb(peaks[1]),
        "mps_text_mb": traced_mb(sizes[0]),
        "lp_text_mb": traced_mb(sizes[1]),
    }


def main() -> None:
    for label, spec, no_reuse in cases():
        figures = measure(spec, no_reuse)
        print(label, " ".join(f"{key}={value}" for key, value in figures.items()), flush=True)


if __name__ == "__main__":
    main()
