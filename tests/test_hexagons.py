"""The paper's central contrast, on triples of single chains.

U_q(sl2)-modules are braided by flip . R: both hexagons hold exactly.  The
unitarized flip . Rbar and its crystal limit, the commutor, are only
coboundary: both hexagons fail on exactly the triples with no zero weight.
Each side embeds its two-factor maps the same way, by the shapes around
them: ``apply_on_slots`` on the quantum side, ``extend_map`` on the crystal
side.  The cactus action on B(a)^(x3) does not factor through S_3.

References: Joyal-Street, "Braided tensor categories", Adv. Math. 102
(1993); Henriques-Kamnitzer, "Crystals and coboundary categories",
arXiv:math/0406478.
"""

from itertools import product

import pytest

from qcactus.crystals import cactus_action, commutor_c, extend_map
from qcactus.groups import CactusWord, project_to_symmetric
from qcactus.uqsl2 import apply_on_slots, braiding_matrix, module_for_shape, unitarized_matrix


def _triples(max_weight):
    return list(product(range(max_weight + 1), repeat=3))


def _no_zero_weight(triples):
    return {t for t in triples if 0 not in t}


def _quantum_hexagons(sigma, a, b, c):
    """(first hexagon holds, second holds) for a braiding sigma(M, N) on V_a (x) V_b (x) V_c:
    sigma_{A,B(x)C} = (1_B (x) sigma_{A,C})(sigma_{A,B} (x) 1_C) and
    sigma_{A(x)B,C} = (sigma_{A,C} (x) 1_B)(1_A (x) sigma_{B,C})."""
    va, vb, vc = (module_for_shape((w,)) for w in (a, b, c))
    first = sigma(va, module_for_shape((b, c))) == (
        apply_on_slots(sigma(va, vc), (b,), ()) @ apply_on_slots(sigma(va, vb), (), (c,)))
    second = sigma(module_for_shape((a, b)), vc) == (
        apply_on_slots(sigma(va, vc), (), (b,)) @ apply_on_slots(sigma(vb, vc), (a,), ()))
    return first, second


def _crystal_hexagons(a, b, c):
    """_quantum_hexagons for the crystal commutor on B(a) (x) B(b) (x) B(c)."""
    a, b, c = (a,), (b,), (c,)
    first = commutor_c(a, b + c) == (
        extend_map(commutor_c(a, c), b, ()).compose(extend_map(commutor_c(a, b), (), c)))
    second = commutor_c(a + b, c) == (
        extend_map(commutor_c(a, c), (), b).compose(extend_map(commutor_c(b, c), a, ())))
    return first, second


def test_flip_r_satisfies_both_hexagons_on_every_triple():
    triples = _triples(2)
    assert len(triples) == 27
    for a, b, c in triples:
        assert _quantum_hexagons(braiding_matrix, a, b, c) == (True, True), (a, b, c)


def test_the_unitarized_braiding_fails_both_hexagons_where_no_weight_is_zero():
    triples = _triples(2)
    results = {t: _quantum_hexagons(unitarized_matrix, *t) for t in triples}
    failing = {t for t, holds in results.items() if holds == (False, False)}
    assert failing == _no_zero_weight(triples) and len(failing) == 8
    assert all(results[t] == (True, True) for t in set(triples) - failing)


@pytest.mark.parametrize("max_weight, failing_count", [(2, 8), (3, 27)])
def test_the_commutor_fails_both_hexagons_where_no_weight_is_zero(max_weight, failing_count):
    triples = _triples(max_weight)
    results = {t: _crystal_hexagons(*t) for t in triples}
    failing = {t for t, holds in results.items() if holds == (False, False)}
    assert failing == _no_zero_weight(triples) and len(failing) == failing_count
    assert all(results[t] == (True, True) for t in set(triples) - failing)


def test_the_two_sides_fail_on_the_same_triples():
    triples = _triples(2)
    quantum = {t for t in triples if _quantum_hexagons(unitarized_matrix, *t) != (True, True)}
    crystal = {t for t in triples if _crystal_hexagons(*t) != (True, True)}
    assert quantum == crystal


@pytest.mark.parametrize("a, moved", [(1, 4), (2, 16), (3, 48), (4, 94)])
def test_the_cactus_action_does_not_factor_through_s3(a, moved):
    shape = (a, a, a)
    assert cactus_action(shape, 1, 2).is_identity()
    assert cactus_action(shape, 2, 3).is_identity()
    s13 = cactus_action(shape, 1, 3)
    assert sum(i != j for i, j in enumerate(s13.index)) == moved
    # in S_3, s(1,3) is s(1,2) s(2,3) s(1,2), whose action here is the identity
    assert project_to_symmetric(CactusWord(((1, 3),), 3)) == project_to_symmetric(
        CactusWord(((1, 2), (2, 3), (1, 2)), 3))
