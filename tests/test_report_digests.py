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
        "e834e67559365580f056175f17a10fee27fed61fa4243695bcf1832cf196c0b1",
    ),
    "solve-no-reuse": (
        ["solve", "{reduced}", "--no-reuse"],
        "40e364a1cba63e5dd74c138130917c869814b7354d1e85e1ed0925e2ae0a0988",
    ),
    "solve-tiny-no-reuse-oracle": (
        ["solve", "{tiny}", "--no-reuse", "--oracle"],
        "7979b6632d847fe7b22e1fe6406b4247ca68d5f99dd644ad28301ea42e41cfc6",
    ),
    "compare-csv": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4"],
        "878b9c0dce6c1aa7f8ade3db9a911c5be61ae4563e5a5cbc716e10b02545a743",
    ),
    "compare-json": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4", "--format", "json"],
        "959a213660c35c49583f0881cd1c1089bc29aefd426178ae261597366a94b30f",
    ),
    "compare-refunds-json": (
        ["compare", "--reduced", "--scenario", "2", "--seed", "5", "--license-refunds",
         "--format", "json"],
        "50bd1dd08190d23e756c9199752f2848c7bc263e0d6bdb5bf6cb0e70b53d088c",
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
