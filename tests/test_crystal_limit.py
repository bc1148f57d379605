"""The crystal limit beyond pairs of irreducibles, through the public API only.

Reducing the unitarized braiding flip . Rbar at q = infinity gives a
signed permutation of the crystal words (Kamnitzer-Tingley,
arXiv:0707.2248).  On a composite pair A (x) B its permutation is the
crystal commutor and its sign on a (x) b is the component sign
(-1)^((lam_a + lam_b - nu)/2), lam_a, lam_b and nu the highest weights
of the components holding a in A, b in B and a (x) b in A (x) B.  A
product of such braidings along the cactus walk reduces to the crystal
s(1,k), with the product of the steps' component signs.
"""

from itertools import product
from math import prod

import pytest

from qcactus.crystals import cactus_action, commutor_c, decompose, word_index
from qcactus.uqsl2 import (
    LatticeError,
    QMatrix,
    apply_on_slots,
    braiding_matrix,
    irreducible,
    lattice_check_and_reduce,
    module_for_shape,
    unitarized_matrix,
)


def _size(shape):
    return prod(n + 1 for n in shape)


def _component_weights(shape):
    """The highest weight of the component holding each word, by word_index."""
    hw = [0] * _size(shape)
    for component in decompose(shape):
        for w in component.elements:
            hw[word_index(w)] = component.highest_weight
    return hw


def _component_signs(a, b):
    """The component sign of each word of a (x) b, by word_index."""
    hw_a, hw_b, hw_ab = _component_weights(a), _component_weights(b), _component_weights(a + b)
    n = len(hw_a)
    return [(-1) ** ((hw_a[i % n] + hw_b[i // n] - nu) // 2) for i, nu in enumerate(hw_ab)]


def _kt07_signs(a, b):
    """(-1)^((|A| + |B| - nu)/2), the sign of a pair of irreducibles, by word_index."""
    return [(-1) ** ((sum(a) + sum(b) - nu) // 2) for nu in _component_weights(a + b)]


def _mismatches(reduced, image, signs):
    """The words i whose column of the reduction is not signs[i] at row image[i]."""
    return [i for i, (j, s) in enumerate(zip(image, signs)) if reduced[j][i] != s]


# every ordered pair of one chain and two chains, weights <= 2: 54 pairs, 432 words
_ONE = [(n,) for n in range(3)]
_TWO = list(product(range(3), repeat=2))
_MIXED_PAIRS = [(a, b) for a in _ONE for b in _TWO] + [(a, b) for a in _TWO for b in _ONE]


def _reduced_pair(a, b):
    return lattice_check_and_reduce(unitarized_matrix(module_for_shape(a), module_for_shape(b)))


def test_composite_pairs_reduce_to_the_commutor_with_the_component_sign():
    assert len(_MIXED_PAIRS) == 54
    assert sum(_size(a + b) for a, b in _MIXED_PAIRS) == 432
    kt07_misses = {}
    for a, b in _MIXED_PAIRS:
        reduced, image = _reduced_pair(a, b), commutor_c(a, b).index
        assert _mismatches(reduced, image, _component_signs(a, b)) == [], (a, b)
        misses = _mismatches(reduced, image, _kt07_signs(a, b))
        if misses:
            kt07_misses[(a, b)] = len(misses)
    # the sign of a pair of irreducibles is wrong here, so the rule above
    # does not pass for want of words it could fail on
    assert (len(kt07_misses), sum(kt07_misses.values())) == (24, 96)


def _walk_product(shape, braiding):
    """s(1,k) on a shape as a matrix, and the component signs of its steps.

    For r = k-1 down to 1, factor r is braided past the block r+1..k of
    the shape the step before left, embedded by the factors before it.
    The sign of a word is the product over the steps of the component
    sign of its pair, read at the position the word has at that step.
    """
    size = _size(shape)
    matrix, signs, position, cur = QMatrix.identity(size), [1] * size, list(range(size)), shape
    for r in range(len(shape) - 1, 0, -1):
        left, a, b = cur[:r - 1], cur[r - 1:r], cur[r:]
        step = braiding(irreducible(cur[r - 1]), module_for_shape(b))
        matrix = apply_on_slots(step, left, ()) @ matrix
        lo, step_signs, image = _size(left), _component_signs(a, b), commutor_c(a, b).index
        for i, x in enumerate(position):
            signs[i] *= step_signs[x // lo]
            position[i] = x % lo + lo * image[x // lo]
        cur = left + b + a
    return matrix, signs


# every shape of 3 factors, weights <= 2 (216 words), and of 4 factors, weights <= 1 (81 words)
_WALK_SHAPES = list(product(range(3), repeat=3)) + list(product(range(2), repeat=4))


def test_the_walk_of_unitarized_braidings_reduces_to_the_crystal_s_1_k():
    assert len(_WALK_SHAPES) == 27 + 16
    assert sum(_size(s) for s in _WALK_SHAPES) == 216 + 81
    for shape in _WALK_SHAPES:
        matrix, signs = _walk_product(shape, unitarized_matrix)
        image = cactus_action(shape, 1, len(shape)).index
        assert _mismatches(lattice_check_and_reduce(matrix), image, signs) == [], shape


def test_the_walk_of_plain_braidings_leaves_the_lattice():
    refused = 0
    for shape in _WALK_SHAPES[:27]:
        try:
            lattice_check_and_reduce(_walk_product(shape, braiding_matrix)[0])
        except LatticeError:
            refused += 1
    assert refused == 20
