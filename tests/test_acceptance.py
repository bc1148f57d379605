"""Acceptance suite.

Each test realizes one acceptance criterion exactly (structural equality
of canonical forms, no tolerances) and prints a single pass/fail line;
run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.
"""

from itertools import combinations_with_replacement

from qcactus import crystals, groups, uqsl2
from qcactus.qexact import Qpow, qpow
from qcactus.uqsl2 import LatticeError, QMatrix

q = qpow(1)
qi = qpow(-1)


def _report(number: int, description: str, ok: bool):
    print(f"acceptance {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_01_braiding_matrix_product_frame():
    expected = QMatrix(
        [
            [q, 0, 0, 0],
            [0, q - qi, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, q],
        ]
    ).scale(Qpow(-1))
    v1 = uqsl2.irreducible(1)
    got = uqsl2.braiding_matrix(v1, v1, "s1")
    _report(1, "flip.R on V1(x)V1 in the product frame", got == expected)


def test_acceptance_02_braiding_matrix_isotypic_frame():
    expected = QMatrix.diagonal([Qpow(1), -Qpow(-3), Qpow(1), Qpow(1)])
    v1 = uqsl2.irreducible(1)
    got = uqsl2.braiding_matrix(v1, v1, "s2")
    _report(2, "flip.R on V1(x)V1 in the isotypic frame", got == expected)


def test_acceptance_03_unitarized_matrices_and_intermediate():
    v1 = uqsl2.irreducible(1)
    den = 1 + q * q
    expected_s1 = QMatrix(
        [
            [1, 0, 0, 0],
            [0, (q * q - 1) / den, (2 * q) / den, 0],
            [0, (2 * q) / den, (1 - q * q) / den, 0],
            [0, 0, 0, 1],
        ]
    )
    expected_s2 = QMatrix.diagonal([1, -1, 1, 1])
    expected_sqrt = QMatrix(
        [
            [1, 0, 0, 0],
            [0, (2 * q * q) / den, (q - q * q * q) / den, 0],
            [0, (q - q * q * q) / den, (1 + q ** 4) / den, 0],
            [0, 0, 0, 1],
        ]
    ).scale(Qpow(-1))
    ok = (
        uqsl2.unitarized_matrix(v1, v1, "s1") == expected_s1
        and uqsl2.unitarized_matrix(v1, v1, "s2") == expected_s2
        and uqsl2.rop_r_inverse_sqrt(v1, v1, "s1") == expected_sqrt
    )
    _report(3, "flip.Rbar on V1(x)V1 in both frames plus the inverse-sqrt factor", ok)


def test_acceptance_04_lattice_reduction():
    v1 = uqsl2.irreducible(1)
    reduced = uqsl2.lattice_check_and_reduce(uqsl2.unitarized_matrix(v1, v1), v1, v1)
    ok = reduced == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, 1],
    ]
    raised = False
    try:
        uqsl2.lattice_check_and_reduce(uqsl2.braiding_matrix(v1, v1), v1, v1)
    except LatticeError as exc:
        raised = "lattice not preserved" in str(exc)
    _report(4, "reduction of flip.Rbar is the signed table; flip.R is rejected", ok and raised)


def test_acceptance_05_yang_baxter_cactus_involutivity():
    ok = (
        uqsl2.check_yang_baxter()
        and uqsl2.check_cactus_relation_unitarized()
        and uqsl2.check_unitarized_involutive(3)
    )
    _report(5, "Yang-Baxter for flip.R; cactus relation and involutivity for flip.Rbar", ok)


def test_acceptance_06_coboundary_and_cactus_group_action():
    report = crystals.check_coboundary(crystals.weight_bounded_triples(2))
    ok = report.ok and report.triples_checked == 27

    relations = groups.cactus_relation_instances(4)
    for combo in combinations_with_replacement(range(3), 4):
        name, images = crystals.cactus_generator_images(combo)
        failures = groups.verify_action(images, relations, name)
        ok = ok and not failures
    _report(6, "coboundary axioms on all small triples; cactus presentation on 4 factors", ok)


def test_acceptance_07_commutors_agree():
    ok = True
    for a in range(6):
        for b in range(6):
            ok = ok and crystals.commutor_S((a,), (b,)) == crystals.commutor_c((a,), (b,))
    _report(7, "involution-based and star-based commutors agree for weights up to 5", ok)


def test_acceptance_08_braiding_obstruction():
    w = crystals.braiding_obstruction()
    ok = (
        str(w.forced) == "b1⊗b1⊗b-1"
        and str(w.hexagon) == "b1⊗b-1⊗b1"
        and w.distinct
    )
    _report(8, "the no-braiding witness reproduces both forced values and their inequality", ok)


def test_acceptance_09_kt07_signed_comparison():
    ok = True
    for m in range(4):
        for n in range(4):
            report = uqsl2.verify_kt07(m, n)
            ok = ok and report.ok
            # independent oracle: the unique component-preserving isomorphism
            sigma = crystals.commutor_c((m,), (n,))
            oracle = crystals.unique_component_isomorphism((m, n), (n, m))
            for word in crystals.words((m, n)):
                ok = ok and sigma(word) == oracle(word)
    _report(9, "reduced flip.Rbar equals the commutor with component signs, weights up to 3", ok)


def test_acceptance_10_clebsch_gordan_ladders():
    ok = True
    for m in range(7):
        for n in range(7):
            comps = crystals.decompose((m, n))
            got = sorted(c.highest_weight for c in comps)
            expected = list(range(abs(m - n), m + n + 1, 2))
            ok = ok and got == expected
            weights = [crystals.wt(w) for w in crystals.words((m, n))]
            for v in expected:
                ok = ok and got.count(v) == weights.count(v) - weights.count(v + 2)
    _report(10, "two-factor decompositions give the multiplicity-one ladder", ok)
