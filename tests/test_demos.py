"""The demos print what they printed when their output was recorded.

Each script under ``demos/`` runs in this process, as ``__main__``, and
the sha256 of its stdout is compared with the value recorded for it.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_exact_q_arithmetic.py": "9a15d36715e046235075ca206d1ac32ffbc6b0907dfe97da5ca27eb3e89552bf",
    "02_crystal_graphs.py": "f23415ad3b0cb2fd609eacc30cc129f0612d218f931c80657208059daa34b775",
    "03_no_braiding_on_crystals.py": "3cc2c437a9539f1e50851acc68dc221909117213c783073d8cc7b7629860db61",
    "04_unitarized_rmatrix.py": "b238bf38c79961d57cda5f7a612d72ee54a65efdb51b1b7efda5696ea01ae0a6",
    "05_cactus_action_and_coboundary.py": "afd982044ba6b13abdd6bcc1a89ec638a9dcc6660b5678b059398c7ef9f451e5",
}


def test_every_demo_has_a_recorded_output():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output_is_unchanged(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[name]
