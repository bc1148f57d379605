"""The frozen records of the three layers behave as immutable value types.

Each record is built positionally and by keyword in its field order,
compares and hashes by its fields, prints as ``Name(field=value, ...)``
(``CrystalMap`` keeps its own short form), and refuses assignment.  The
expected strings were recorded from the records' earlier dataclass form,
so the change of implementation is invisible to every caller.  A launch
loads none of the introspection modules a dataclass decorator needs.
The records and the other immutable value types (``QRational``,
``QMatrix``, ``CrystalMap``) survive pickling and copying, a
``QRational`` by its canonical parts.
"""

import copy
from fractions import Fraction
import os
from pathlib import Path
import pickle
import subprocess
import sys

import pytest

import qcactus
from qcactus.crystals import (
    ChainElement,
    CoboundaryReport,
    Component,
    CrystalMap,
    ObstructionWitness,
    TensorWord,
    commutor_c,
)
from qcactus.groups import BraidWord, CactusWord, Permutation, RelationFailure
from qcactus.qexact import ONE, ZERO, QRational, Qpow, parse_qrational, qpow
from qcactus.uqsl2 import Kt07Report, ModuleComponent, QMatrix, UqModule, irreducible

W11 = TensorWord((ChainElement(1, 1), ChainElement(1, -1)))
V1 = irreducible(1)

# (record class, field values in field order, repr)
RECORDS = [
    (Permutation, {"images": (2, 1, 3)}, "Permutation(images=(2, 1, 3))"),
    (BraidWord, {"letters": ((1, 1), (2, -1)), "n": 3},
     "BraidWord(letters=((1, 1), (2, -1)), n=3)"),
    (CactusWord, {"letters": ((1, 3), (1, 2)), "n": 3},
     "CactusWord(letters=((1, 3), (1, 2)), n=3)"),
    (RelationFailure,
     {"relation": (("a",), ("b",)), "witness": 1, "left_value": 2, "right_value": 1},
     "RelationFailure(relation=(('a',), ('b',)), witness=1, left_value=2, right_value=1)"),
    (ChainElement, {"n": 2, "j": 0}, "ChainElement(n=2, j=0)"),
    (TensorWord, {"factors": W11.factors},
     "TensorWord(factors=(ChainElement(n=1, j=1), ChainElement(n=1, j=-1)))"),
    (Component, {"highest_weight": 0, "source": W11, "elements": (W11,)},
     "Component(highest_weight=0, source=TensorWord(factors=(ChainElement(n=1, j=1), "
     "ChainElement(n=1, j=-1))), elements=(TensorWord(factors=(ChainElement(n=1, j=1), "
     "ChainElement(n=1, j=-1))),))"),
    (CoboundaryReport, {"triples_checked": 1, "failures": ()},
     "CoboundaryReport(triples_checked=1, failures=())"),
    (ObstructionWitness,
     {"sigma_11_identity": True, "sigma_12_value": W11, "probe": W11, "forced": W11,
      "hexagon": W11, "distinct": False},
     "ObstructionWitness(sigma_11_identity=True, sigma_12_value={w}, probe={w}, "
     "forced={w}, hexagon={w}, distinct=False)".format(
         w="TensorWord(factors=(ChainElement(n=1, j=1), ChainElement(n=1, j=-1)))")),
    (UqModule, {"shape": (1,)}, "UqModule(shape=(1,))"),
    (CrystalMap, {"domain": (1,), "codomain": (1,), "index": (1, 0)},
     "CrystalMap((1,) -> (1,), 2 words)"),
    (ModuleComponent, {"highest_weight": 1, "columns": QMatrix.identity(2)},
     "ModuleComponent(highest_weight=1, columns=QMatrix(2x2))"),
    (Kt07Report, {"m": 1, "n": 1, "mismatches": ()}, "Kt07Report(m=1, n=1, mismatches=())"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_construction_equality_repr_and_immutability(cls, fields, text):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert repr(by_keyword) == repr(by_position) == text
    assert by_keyword == by_position and not by_keyword != by_position
    assert hash(by_keyword) == hash(by_position)
    assert all(getattr(by_keyword, name) is value for name, value in fields.items())
    assert by_keyword != tuple(fields.values())
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, None)
        with pytest.raises(AttributeError):
            delattr(by_keyword, name)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)  # one field too many


def _round_trips(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
        assert repr(twin) == repr(value)


def test_records_survive_pickling_and_copying():
    for cls, fields, _ in RECORDS:
        _round_trips(cls(**fields))


@pytest.mark.parametrize("value", [
    ZERO, ONE, QRational(Fraction(-3, 4)), Qpow(-7),
    parse_qrational("(-2/3*Q^9 + Q)/(Q^4 + 1)"), (qpow(1) + 1) * (qpow(1) - 1),
    QMatrix([[qpow(1), ZERO], [Fraction(1, 3), parse_qrational("(Q^2 - 1)/(Q^6 + 1)")]]),
    CrystalMap.identity((1, 2)), CrystalMap.identity((2, 1)).compose(commutor_c((1,), (2,))),
], ids=repr)
def test_other_value_types_survive_pickling_and_copying(value):
    _round_trips(value)


def test_a_pickled_qrational_keeps_its_canonical_parts():
    value = parse_qrational("(-2/3*Q^9 + 4*Q)/(Q^4 + 1)")
    twin = pickle.loads(pickle.dumps(value))
    assert twin._parts() == value._parts() == (-2, 3, 1, 4, (-6, 0, 1), (1, 1))
    assert str(twin) == str(value) and twin.evaluate(2) == value.evaluate(2)


def test_other_value_types_refuse_deletion_too():
    for obj, name in [(QMatrix.identity(1), "entries"), (ONE, "_n"),
                      (CrystalMap.identity((1,)), "index")]:
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            delattr(obj, name)
        with pytest.raises(AttributeError, match=f"{type(obj).__name__} is immutable"):
            setattr(obj, name, None)


def test_records_with_different_fields_differ():
    assert Permutation((2, 1, 3)) != Permutation((1, 2, 3))
    assert CactusWord(((1, 2),), 3) != CactusWord(((1, 2),), 4)
    assert Kt07Report(1, 1, ()) != Kt07Report(1, 2, ())
    assert {Permutation((2, 1)), Permutation((2, 1)), Permutation((1, 2))} == {
        Permutation((1, 2)), Permutation((2, 1))}


@pytest.mark.parametrize("build, message", [
    (lambda: Permutation((1, 1)), "not a permutation of 1..2: (1, 1)"),
    (lambda: Permutation(images=(0, 1)), "not a permutation of 1..2: (0, 1)"),
    (lambda: BraidWord(((3, 1),), 3), "generator index 3 out of range for n=3"),
    (lambda: BraidWord(((1, 2),), 3), "exponent must be +-1, got 2"),
    (lambda: BraidWord(((1, 1), (4, -1)), 4), "generator index 4 out of range for n=4"),
    (lambda: CactusWord(((2, 2),), 3), "bad interval (2,2) for n=3"),
    (lambda: CactusWord(letters=((1, 4),), n=3), "bad interval (1,4) for n=3"),
    (lambda: ChainElement(-1, -1), "highest weight must be nonnegative"),
    (lambda: ChainElement(n=2, j=1), "b_1 does not lie in the chain of weight 2"),
    (lambda: TensorWord(()), "tensor words must have at least one factor"),
])
def test_record_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_a_launch_loads_no_dataclass_machinery():
    src = str(Path(qcactus.__file__).resolve().parent.parent)
    code = ("import sys, qcactus.cli, qcactus.qexact, qcactus.uqsl2, qcactus.crystals, "
            "qcactus.groups; print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', "
            "'tokenize'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
