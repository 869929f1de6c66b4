#!/usr/bin/env python3
"""Record the exact bytes of the ILP exporters on a few fixed models.

The script compiles reduced scenario 1 at seed 3 under three build options
(online, no_reuse and clamped), and four more instances that reach rows the
scenario leaves out: a usage threshold of 0.75 (fractional right-hand
sides), chains of length 1 (no ``q`` variables or 16-x rows), and
``tests/conftest.py::frozen_load_instance(0.5)`` with and without its
request (the latter keeps a row-12 without coefficients). Full-scale
scenario 1 at seed 3, online and no_reuse, has rows of up to 156
coefficients, where the reduced models stop at 64. Each model is
exported as MPS and as LP text. The script writes the sha256 of every text,
and ``rows_sha256``, the sha256 of the JSON list of every row's ``(tag,
key, coeffs, sense, rhs)`` in order (the texts do not carry the keys),
with the instance description, the build options and the model's variable
and row counts, into tests/data/export_digests.json;
``tests/test_ilp.py::TestExportBytes`` compares fresh exports against that
file, so any change to the exported bytes fails a tier-1 test. No solver
runs; it takes a few seconds. Run from the repository root:

    PYTHONPATH=src python scripts/freeze_export_digests.py
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

from chainplace.ilp import BuildOptions, build_ilp, export_lp, export_mps

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from conftest import export_case_instance  # noqa: E402

TARGET = ROOT / "tests" / "data" / "export_digests.json"


def scenario(reduced: bool = True, **overrides) -> dict:
    return {"scenario": 1, "seed": 3, "reduced": reduced, "overrides": overrides}


CASES = {
    "online": (scenario(), BuildOptions()),
    "no_reuse": (scenario(), BuildOptions(no_reuse=True)),
    "clamped": (scenario(), BuildOptions(clamp_instantiation=True)),
    "threshold_0.75": (scenario(usage_threshold=0.75), BuildOptions()),
    "chain_length_1": (scenario(chain_length_range=[1, 1]), BuildOptions()),
    "frozen_load_0.5": ({"frozen_load_mu": 0.5}, BuildOptions()),
    "frozen_load_0.5_no_requests": (
        {"frozen_load_mu": 0.5, "no_requests": True},
        BuildOptions(),
    ),
    "full_online": (scenario(reduced=False), BuildOptions()),
    "full_no_reuse": (scenario(reduced=False), BuildOptions(no_reuse=True)),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_sha256(model) -> str:
    """The sha256 of every row's content, keys included, in row order."""
    return sha256(json.dumps(list(model.rows)))


def main() -> None:
    out = {"cases": {}}
    for case, (described, options) in CASES.items():
        model = build_ilp(export_case_instance(described), options)
        out["cases"][case] = {
            "instance": described,
            "options": dataclasses.asdict(options),
            "vars": len(model.variables),
            "rows": len(model.rows),
            "mps_sha256": sha256(export_mps(model)),
            "lp_sha256": sha256(export_lp(model)),
            "rows_sha256": rows_sha256(model),
        }
        print(f"{case}: {out['cases'][case]}")
    TARGET.parent.mkdir(parents=True, exist_ok=True)
    TARGET.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
