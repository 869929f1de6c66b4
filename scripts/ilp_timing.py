#!/usr/bin/env python3
"""Time the ILP layer on the paper's full-scale models, and check its bytes.

The cases are the full-scale ones of ``scripts/ilp_memory.py``: scenarios
1-3 at seed 3, online and no_reuse, each built with clamped accounting.
For every model the script prints the CPU time (``time.process_time``, in
ms, best of 9) of ``build_ilp``, of the alias walk alone
(``ilp._enumerate``, which ``build_ilp`` calls once), of the offsets-only
walk ``ilp.layout``, which every solve makes for its tie-break (to three
decimals: it takes well under a millisecond), of the first read of
``model.variables`` (which ``build_ilp`` leaves unmade, on a fresh model
each time), of ``mps_chunks`` and of ``lp_chunks`` written to a temporary
file, as ``chainplace solve --export ... -o`` writes them, and of
``import_solution`` of an all-zero assignment. Each timed call runs with
the cyclic garbage collector paused, as the CLI runs it.

Before timing, it exports full-scale scenario 1 at seed 3, online and
no_reuse (the ``full_online`` and ``full_no_reuse`` cases of
tests/data/export_digests.json), and exits with status 1 if the sha256 of
either text differs from the frozen one. It needs only the standard
library, so it also runs where pytest is missing. Run from the repository
root:

    PYTHONPATH=src python scripts/ilp_timing.py
"""

import hashlib
import json
import os
import pathlib
import sys
import tempfile
import time

from chainplace.ilp import (
    _collector_paused,
    _enumerate,
    build_ilp,
    import_solution,
    layout,
    lp_chunks,
    mps_chunks,
)
from chainplace.model import SolveOptions
from chainplace.scenario import ScenarioSpec, generate
from ilp_memory import cases

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "export_digests.json"
CHECKED = ("full_online", "full_no_reuse")
REPEATS = 9


def write(chunks, model, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(chunks(model))


def best_ms(call, digits: int = 1) -> str:
    """The least CPU time of ``REPEATS`` calls, in ms to ``digits`` places."""
    times = []
    for _ in range(REPEATS):
        with _collector_paused():
            start = time.process_time()
            call()
            times.append(time.process_time() - start)
    return f"{min(times) * 1e3:.{digits}f}"


def check_digests(work: str) -> bool:
    """Whether the frozen cases still export their frozen bytes."""
    frozen = json.loads(DIGESTS.read_text())["cases"]
    ok = True
    for case in CHECKED:
        want = frozen[case]
        described = want["instance"]
        spec = ScenarioSpec.table_row(
            described["scenario"],
            seed=described["seed"],
            reduced=described["reduced"],
            overrides=described["overrides"],
        )
        model = build_ilp(generate(spec), SolveOptions(**want["options"]))
        for fmt, chunks in (("mps", mps_chunks), ("lp", lp_chunks)):
            path = os.path.join(work, f"model.{fmt}")
            write(chunks, model, path)
            got = hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
            same = got == want[f"{fmt}_sha256"]
            ok = ok and same
            print(f"{case} {fmt}_sha256 {'matches' if same else 'DIFFERS: ' + got}")
    return ok


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        if not check_digests(work):
            return 1
        path = os.path.join(work, "model.txt")
        for label, spec, no_reuse in cases():
            if not label.startswith("full/"):
                continue
            instance = generate(spec)
            options = SolveOptions(no_reuse=no_reuse, clamp_instantiation=True)
            model = build_ilp(instance, options)
            zeros = dict.fromkeys(model.aliases, 0)
            fresh = iter([build_ilp(instance, options) for _ in range(REPEATS)])
            figures = {
                "build_ms": best_ms(lambda: build_ilp(instance, options)),
                "aliases_ms": best_ms(lambda: _enumerate(instance)),
                "layout_ms": best_ms(lambda: layout(instance), digits=3),
                "variables_ms": best_ms(lambda: next(fresh).variables),
                "mps_ms": best_ms(lambda: write(mps_chunks, model, path)),
                "lp_ms": best_ms(lambda: write(lp_chunks, model, path)),
                "import_ms": best_ms(lambda: import_solution(model, zeros)),
            }
            print(label, " ".join(f"{key}={value}" for key, value in figures.items()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
