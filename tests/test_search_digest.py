"""The exact search's answers on the scenario table, pinned.

``scripts/search_digest.py`` digests the status, total, plan, node count
and incumbent updates of every solve it runs. Its 54 table solves (reduced
scale seeds 3-5 and full scale seeds 3-8, scenarios 1-3, online and
no_reuse) are frozen in ``tests/data/search_digest.json``; this test runs
them again through the script's own case list and digest code. A change
that keeps the answers but moves the node counts writes the file again
from the script's output and says so."""

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
    table = [(name, s) for name, s in script.cases() if not name.startswith("frontier/")]
    want = json.loads(FROZEN.read_text())
    assert len(want) == 2 * len(table) == 54
    assert script.digest(table) == want
