#!/usr/bin/env python3
"""Record the exact bytes of the ILP exporters on one fixed model.

The script compiles reduced scenario 1 at seed 3 under three build options
(online, no_reuse and clamped) and exports each model as MPS and as LP
text. It writes the sha256 of every text, with the build options and the
model's variable and row counts, into tests/data/export_digests.json;
``tests/test_ilp.py::TestExportBytes`` compares fresh exports against that
file, so any change to the exported bytes fails a tier-1 test. No solver
runs; it takes about a second. Run from the repository root:

    PYTHONPATH=src python scripts/freeze_export_digests.py
"""

import dataclasses
import hashlib
import json
import pathlib

from chainplace.ilp import BuildOptions, build_ilp, export_lp, export_mps
from chainplace.scenario import ScenarioSpec, generate

ROOT = pathlib.Path(__file__).resolve().parent.parent
TARGET = ROOT / "tests" / "data" / "export_digests.json"
SEED = 3
SCENARIO = 1
CASES = {
    "online": BuildOptions(),
    "no_reuse": BuildOptions(no_reuse=True),
    "clamped": BuildOptions(clamp_instantiation=True),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    instance = generate(ScenarioSpec.table_row(SCENARIO, seed=SEED, reduced=True))
    out = {"seed": SEED, "scenario": SCENARIO, "scale": "reduced", "cases": {}}
    for case, options in CASES.items():
        model = build_ilp(instance, options)
        out["cases"][case] = {
            "options": dataclasses.asdict(options),
            "vars": len(model.variables),
            "rows": len(model.rows),
            "mps_sha256": sha256(export_mps(model)),
            "lp_sha256": sha256(export_lp(model)),
        }
        print(f"{case}: {out['cases'][case]}")
    TARGET.parent.mkdir(parents=True, exist_ok=True)
    TARGET.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
