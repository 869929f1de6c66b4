"""Report bytes pinned by sha256.

Each digest was taken from the report writers before they were derived from
the dataclasses they print, so any change to a key, an order or a number of
a ``solve`` or ``compare`` report shows here. Time-limited runs are left
out: their status depends on timing.

The brute-force oracle refuses the reduced seed-3 scenario-3 instance (its
decision space is above the enumeration cap), so the ``--oracle`` report is
pinned on the two-server instance ``TINY`` describes.
"""

import hashlib

import pytest

from chainplace.cli import main

from test_cli import TINY, run

# case: (argv, sha256 of stdout); {reduced} and {tiny} name the instance files
CASES = {
    "solve-online": (
        ["solve", "{reduced}"],
        "307684730dc832d8ce95bb79c7158e46b84599c032178261989067237a1819d2",
    ),
    "solve-no-reuse": (
        ["solve", "{reduced}", "--no-reuse"],
        "c80d901b83686791424c19ca77a410579489dc1296efecfd0256a3242e0aa97a",
    ),
    "solve-tiny-no-reuse-oracle": (
        ["solve", "{tiny}", "--no-reuse", "--oracle"],
        "235493d23d9948a99e2ac04ee50a062c32ea77b22a52fe614a74b5e85bb3f37a",
    ),
    "compare-csv": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4"],
        "878b9c0dce6c1aa7f8ade3db9a911c5be61ae4563e5a5cbc716e10b02545a743",
    ),
    "compare-json": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4", "--format", "json"],
        "910be20b0d74efdeceba0c6f19594d9cbdaefffb90ea6f826e5b31562cbcbb26",
    ),
    "compare-refunds-json": (
        ["compare", "--reduced", "--scenario", "2", "--seed", "5", "--license-refunds",
         "--format", "json"],
        "2ee3de31778a73763185f11f3cd2c3adb9e46e092eff09daaf44761074abf203",
    ),
}


@pytest.fixture(scope="module")
def instances(tmp_path_factory):
    """The reduced seed-3 scenario-3 instance and the seed-5 ``TINY`` one."""
    root = tmp_path_factory.mktemp("digests")
    reduced, tiny = root / "reduced.json", root / "tiny.json"
    assert main(["generate", "--reduced", "--scenario", "3", "--seed", "3",
                 "-o", str(reduced)]) == 0
    assert main(["generate", *TINY, "--seed", "5", "-o", str(tiny)]) == 0
    return {"reduced": str(reduced), "tiny": str(tiny)}


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_are_unchanged(instances, capsys, case):
    argv, digest = CASES[case]
    code, out, err = run(capsys, *(arg.format(**instances) for arg in argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
