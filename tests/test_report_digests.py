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
        "8cd1d483ba1b11cea2aeaa30fd8acf61b99d7d0df58c85f5d02f120d0e50f8b8",
    ),
    "solve-no-reuse": (
        ["solve", "{reduced}", "--no-reuse"],
        "4fd4127170e67dfc77da7064e5eebba763a15c3793959a72b81c2d757ede3d81",
    ),
    "solve-tiny-no-reuse-oracle": (
        ["solve", "{tiny}", "--no-reuse", "--oracle"],
        "14009b2d4817e70eff8182b57bdb83642a9b900b75f05415450af17f6291b570",
    ),
    "compare-csv": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4"],
        "878b9c0dce6c1aa7f8ade3db9a911c5be61ae4563e5a5cbc716e10b02545a743",
    ),
    "compare-json": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4", "--format", "json"],
        "3cb443903f1146d22fd359654a7406112c7311a1db3e6bf5d060a51d0fd487bd",
    ),
    "compare-refunds-json": (
        ["compare", "--reduced", "--scenario", "2", "--seed", "5", "--license-refunds",
         "--format", "json"],
        "0b0943293715282e3231882c670b65d913ab2a8725eb743aa1088b7162d6c75a",
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
