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
        "9a5fb889022e15c90dae66bc9dff19870b9e95efb36aeb31fe05a14d0915c897",
    ),
    "solve-no-reuse": (
        ["solve", "{reduced}", "--no-reuse"],
        "57ddfa18a2d7d2f10b6af756653ca20617fe605c0e41fff7423f4dbd0057980c",
    ),
    "solve-tiny-no-reuse-oracle": (
        ["solve", "{tiny}", "--no-reuse", "--oracle"],
        "9a34f15df0cfd3f9e094a1b5511540ad0bb2653994f693d7ee23cdbcee7a7eef",
    ),
    "compare-csv": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4"],
        "878b9c0dce6c1aa7f8ade3db9a911c5be61ae4563e5a5cbc716e10b02545a743",
    ),
    "compare-json": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4", "--format", "json"],
        "953d8270f2cca79611727a790d08c2135e31620ffe4a297c036bbba29ccba1c3",
    ),
    "compare-refunds-json": (
        ["compare", "--reduced", "--scenario", "2", "--seed", "5", "--license-refunds",
         "--format", "json"],
        "6d6dc81488a41d31296e28b84ddaa1d8b41c299c8976f1c2b7e7d18c8d040656",
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
