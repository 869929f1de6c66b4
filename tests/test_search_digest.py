"""The exact search's answers on the scenario table, pinned.

``scripts/search_digest.py`` digests the status, total, plan, node count
and incumbent updates of every solve it runs, and
``tests/data/search_digest.json`` is exactly what it writes: the 54 table
solves (reduced scale seeds 3-5 and full scale seeds 3-8, scenarios 1-3,
online and no_reuse) and the 32 frontier solves past the table. This test
runs the table solves again through the script's own case list and digest
code and compares them with the file; the frontier entries are a record
for review that the suite does not rerun. A change that keeps the answers
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


def test_table_solves_match_frozen_digest():
    spec = importlib.util.spec_from_file_location("search_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    every = list(script.cases())
    table = [(name, s) for name, s in every if not name.startswith("frontier/")]
    frozen = json.loads(FROZEN.read_text())
    assert len(frozen) == 2 * len(every) == 86
    want = {name: solve for name, solve in frozen.items() if not name.startswith("frontier/")}
    assert len(want) == 2 * len(table) == 54
    assert script.digest(table) == want
