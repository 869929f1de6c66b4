"""What the plan checker and the cost module say, pinned.

``scripts/freeze_check_digest.py`` digests the violations,
``service_delays`` and both ``total_objective`` readings of every plan the
brute-force oracle checks on the first eight acceptance instances, plus
three mutants of each, and ``tests/data/check_digest.json`` is what it
wrote. This test recomputes the digest through the script's own plan list
and record code, in about two seconds, and compares it with the file."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "freeze_check_digest.py"
FROZEN = pathlib.Path(__file__).parent / "data" / "check_digest.json"


def test_checker_and_costs_match_frozen_digest():
    spec = importlib.util.spec_from_file_location("freeze_check_digest", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.digest() == json.loads(FROZEN.read_text())
