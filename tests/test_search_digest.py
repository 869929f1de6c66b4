"""The exact search's answers on the scenario table and past it, pinned.

``scripts/search_digest.py`` digests the status, total, plan, node counts
and incumbent updates of every solve it runs, and
``tests/data/search_digest.json`` is exactly what it writes: the 54 table
solves (reduced scale seeds 3-5 and full scale seeds 3-8, scenarios 1-3,
online and no_reuse) and the 32 frontier solves past the table. This test
runs all 86 again through the script's own case list and digest code, in
about 0.4 s of CPU, and compares them with the file, so the frontier's
plans are checked as well as the table's. A change that keeps the answers
but moves the node counts writes the file again, with one command, and
says so:

    PYTHONPATH=src python scripts/search_digest.py tests/data/search_digest.json
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "search_digest.py"
FROZEN = pathlib.Path(__file__).parent / "data" / "search_digest.json"


def test_solves_match_frozen_digest():
    spec = importlib.util.spec_from_file_location("search_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    every = list(script.cases())
    frozen = json.loads(FROZEN.read_text())
    assert len(frozen) == 2 * len(every) == 86
    assert script.digest(every) == frozen
