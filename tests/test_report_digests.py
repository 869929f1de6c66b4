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
        "f2e2962a5eda5e8605bd81bdf476210dd7950dd32104a5fb52d3ce7fba1145c3",
    ),
    "solve-no-reuse": (
        ["solve", "{reduced}", "--no-reuse"],
        "b7ff6d1e93a2261a294c8c56956cd42b35c26da412c842eb88f62c2bbcc070c5",
    ),
    "solve-tiny-no-reuse-oracle": (
        ["solve", "{tiny}", "--no-reuse", "--oracle"],
        "456527803dcabf1c0d3595559ac00dc569332f6e92472009e52dc8d3a1de861a",
    ),
    "compare-csv": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4"],
        "878b9c0dce6c1aa7f8ade3db9a911c5be61ae4563e5a5cbc716e10b02545a743",
    ),
    "compare-json": (
        ["compare", "--reduced", "--scenario", "1..3", "--seed", "4", "--format", "json"],
        "88dc60425b38cac17eb4ac34c78be64ca41dfcba7f6524892a2b3e9dc710d2e3",
    ),
    "compare-refunds-json": (
        ["compare", "--reduced", "--scenario", "2", "--seed", "5", "--license-refunds",
         "--format", "json"],
        "bc9974ac80b2057a8eb926a74befc4e85bdef8ebf865375e82cfa8d84b52d170",
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
