"""A few benchmark operations, run in-process against their recorded outputs.

``perfbench/golden.json`` holds the exit status and the stdout sha256 of
every benchmark operation, recorded from the command line.  These are the
fixed crystal, kt07 and braid checks, the two unitarized ``rmatrix``
orientations, every library unitarization of composite factors, and one
crystal operation of each drawn class.

``S2_SHA256`` pins, for every m, n <= 3, the JSON of ``rmatrix --frame s2``
without and with ``--unitarize``.  These outputs go through the isotypic
frames, so they exercise ``QMatrix.inverse`` and the kernel elimination
that finds highest weight vectors.
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

# stdout sha256 of "rmatrix --m M --n N --frame s2" (plain, then --unitarize)
S2_SHA256 = {
    (0, 0): ("25d579059d4bf8e05c02de329559547b3331d8218efa3af97c03a7f6309aa384",
             "25d579059d4bf8e05c02de329559547b3331d8218efa3af97c03a7f6309aa384"),
    (0, 1): ("8b5d0a5fe2320fdaf0d8ea2a16eb76b607cfba501bd5181aed00ea0375798d71",
             "8b5d0a5fe2320fdaf0d8ea2a16eb76b607cfba501bd5181aed00ea0375798d71"),
    (0, 2): ("e27640d38e1a0c8bd79268ecb557a65286f32313e4fdca9db9fcc894080a05eb",
             "e27640d38e1a0c8bd79268ecb557a65286f32313e4fdca9db9fcc894080a05eb"),
    (0, 3): ("44bfc365683d913ff5ef2a2460baf76879bb3ba2b1b287b4ab57c34e2cd1f6c6",
             "44bfc365683d913ff5ef2a2460baf76879bb3ba2b1b287b4ab57c34e2cd1f6c6"),
    (1, 0): ("8b5d0a5fe2320fdaf0d8ea2a16eb76b607cfba501bd5181aed00ea0375798d71",
             "8b5d0a5fe2320fdaf0d8ea2a16eb76b607cfba501bd5181aed00ea0375798d71"),
    (1, 1): ("5b9f80940bda26c57a4df34b5a569d3d6e8d0c7acdb45a0346a9e67c805b628e",
             "bbb9d6f4f2bb6ac6fa1d72411777165f99563dcc518edb5dfaee341bf620b6c2"),
    (1, 2): ("450cf559202a7b9e5ed4d31c88ab8fef1422c6212565805d12136738352e6c74",
             "bcbfce2da650c51361526f6606808baf2b25a0a90fd5f68fc7c54f8060f9970a"),
    (1, 3): ("98e602aada05a4d74d73d91b7e6e2da501110bf28ef1b7e5b9000d7f5c1dd5ac",
             "89af7e944b378bc4b45075dafd3be58e107b9ee476abb88b14494d622843a448"),
    (2, 0): ("e27640d38e1a0c8bd79268ecb557a65286f32313e4fdca9db9fcc894080a05eb",
             "e27640d38e1a0c8bd79268ecb557a65286f32313e4fdca9db9fcc894080a05eb"),
    (2, 1): ("b0c863ef0dcdab2d6293acd826a74bdec4b67078d837fc4cb34ce3890179c2b1",
             "bd82714e857690acbdc79e81caa862e3f96ac4c3f6f278f9513c204dd9933bb0"),
    (2, 2): ("83f90acc7495a15c00a476af5b13330dbcdd79c1070ede861b9d44fbdbdfcf53",
             "9b298a7843f045727fc0e154daa5813305f0cbbbc2f2b41a9af5d28358580da0"),
    (2, 3): ("c6b92d6f25325b7de0ea7be5b61ec08d68ad7c11e461cb89338d3c51dc7a5a9a",
             "4267b28a26d3396288c880bc33caf26da79e8c10d20cd2662b20fe63de6eae67"),
    (3, 0): ("44bfc365683d913ff5ef2a2460baf76879bb3ba2b1b287b4ab57c34e2cd1f6c6",
             "44bfc365683d913ff5ef2a2460baf76879bb3ba2b1b287b4ab57c34e2cd1f6c6"),
    (3, 1): ("0f5e7346f5784dc566affc06826186c5bad3682555e2299f0f702b2026f256a3",
             "57c485b7808b110b34ff3523f549a0f2bbe8d01c4b61a2f2528fc100445fc4eb"),
    (3, 2): ("a2b87ddc3e7bc2b21b7f31fee07e980d93f19b493e59aad8b9c44d12330f9c00",
             "2f317cd2519c5f01447c668892126291688dc9b05db678b6a6f274270945b5fa"),
    (3, 3): ("fa53f6523db599ad5e70d962fa5f68aa8823ad2ef1251719cd25f2f2fbe22130",
             "256b7565ae0a322a3ae86e7d324c7a44d55963b16c476b78dd2ab50bc070a70f"),
}


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


@pytest.mark.parametrize("unitarize", [False, True], ids=["plain", "unitarized"])
@pytest.mark.parametrize("pair", sorted(S2_SHA256), ids=lambda p: f"{p[0]}x{p[1]}")
def test_isotypic_frame_rmatrix_matches_recorded_output(pair, unitarize, capsys):
    m, n = pair
    argv = ["rmatrix", "--m", str(m), "--n", str(n), "--frame", "s2"]
    status = run(argv + ["--unitarize"] if unitarize else argv)
    out = capsys.readouterr().out
    assert status == 0
    assert _sha256(out) == S2_SHA256[pair][unitarize]
