"""A few benchmark operations, run in-process against their recorded outputs.

``perfbench/golden.json`` holds the exit status and the stdout sha256 of
every benchmark operation, recorded from the command line.  These are the
two fixed crystal checks and one operation of each drawn class.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qcactus.cli import run

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

OPS = [
    "check cactus-action --factors 4 --max 3",
    "check coboundary --max 5",
    "crystal decompose --shape 1,1,1,1,1,1,2,1,2,2 --format json",
    "cactus act --shape 1,1,1,1,1,1,2,2 --p 1 --q 8",
    "crystal graph --shape 1,1,1,1,1,1,2,1 --format json",
]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["ops"]


@pytest.mark.parametrize("op", OPS)
def test_operation_matches_recorded_output(op, golden, capsys):
    want = golden["cli " + op]
    status = run(op.split())
    out = capsys.readouterr().out
    assert status == want["status"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want["sha256"]
