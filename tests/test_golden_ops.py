"""A few benchmark operations, run in-process against their recorded outputs.

``perfbench/golden.json`` holds the exit status and the stdout sha256 of
every benchmark operation, recorded from the command line.  These are the
fixed crystal, kt07 and braid checks, the two unitarized ``rmatrix``
orientations, every library unitarization of composite factors, and one
crystal operation of each drawn class.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qcactus.cli import run
from qcactus.uqsl2 import module_for_shape, unitarized_matrix

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

OPS = [
    "check cactus-action --factors 4 --max 3",
    "check coboundary --max 5",
    "crystal decompose --shape 1,1,1,1,1,1,2,1,2,2 --format json",
    "cactus act --shape 1,1,1,1,1,1,2,2 --p 1 --q 8",
    "crystal graph --shape 1,1,1,1,1,1,2,1 --format json",
    "check kt07 --max 3",
    "rmatrix --m 3 --n 2 --unitarize",
    "rmatrix --m 2 --n 3 --unitarize",
    "check yang-baxter",
]

# library unitarizations of composite factors, as "left right" shapes
UNITARIZE = ["1 1,1", "1,1 1", "2 1,1", "1,1 2", "1,1 1,1"]


def _shape(text):
    return tuple(int(part) for part in text.split(","))


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["ops"]


@pytest.mark.parametrize("op", OPS)
def test_operation_matches_recorded_output(op, golden, capsys):
    want = golden["cli " + op]
    status = run(op.split())
    out = capsys.readouterr().out
    assert status == want["status"]
    assert _sha256(out) == want["sha256"]


@pytest.mark.parametrize("pair", UNITARIZE)
def test_library_unitarization_matches_recorded_output(pair, golden):
    want = golden["lib unitarize " + pair]
    left, right = (module_for_shape(_shape(s)) for s in pair.split())
    # printed as the benchmark prints it: the JSON and one newline
    assert want["status"] == 0
    assert _sha256(unitarized_matrix(left, right).to_json() + "\n") == want["sha256"]
