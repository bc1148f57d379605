"""Property tests of the crystal layer against the test-only oracles."""

from collections import Counter
from itertools import combinations_with_replacement, permutations, product
import json

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import crystal_oracle as oracle
from qcactus import crystals
from qcactus.crystals import (
    ChainElement,
    CrystalMap,
    TensorWord,
    cactus_action,
    cactus_generator_images,
    cactus_square_failures,
    commutor_S,
    commutor_c,
    component_of,
    decompose,
    eps,
    extend_map,
    involutivity_failures,
    phi,
    tensor_e,
    tensor_f,
    word_index,
    words,
    wt,
)
from qcactus.groups import cactus_relation_instances, verify_action
from test_cli import FAULT_B, _clear_crystal_caches, _swap_first_two_images


@st.composite
def tensor_words(draw, max_factors, max_weight):
    """A word of a random shape: each factor a chain element at a random depth."""
    shape = draw(st.lists(st.integers(0, max_weight), min_size=1, max_size=max_factors))
    return TensorWord(tuple(ChainElement(n, n - 2 * draw(st.integers(0, n))) for n in shape))


def _assert_tensor_rule_agrees(w):
    assert eps(w) == oracle.eps(w)
    assert phi(w) == oracle.phi(w)
    assert tensor_e(w) == oracle.tensor_e(w)
    assert tensor_f(w) == oracle.tensor_f(w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tensor_words(max_factors=6, max_weight=3))
def test_signature_rule_matches_left_fold(w):
    _assert_tensor_rule_agrees(w)


def test_signature_rule_matches_left_fold_on_every_three_factor_word():
    for shape in product(range(4), repeat=3):
        for w in words(shape):
            _assert_tensor_rule_agrees(w)


shapes_1_5 = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(tuple)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shapes_1_5)
def test_index_table_matches_the_word_operators(shape):
    f, e, eps_, phi_ = crystals._table(shape)
    for i, w in enumerate(words(shape)):
        fw, ew = oracle.tensor_f(w), oracle.tensor_e(w)
        assert f[i] == (-1 if fw is None else word_index(fw))
        assert e[i] == (-1 if ew is None else word_index(ew))
        assert (eps_[i], phi_[i]) == (oracle.eps(w), oracle.phi(w))
        assert phi_[i] - eps_[i] == wt(w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple))
def test_names_are_the_printed_words_of_the_word_route(shape):
    built = oracle.words(shape)
    assert words(shape) == built
    assert crystals._names(shape) == [str(w) for w in built]


def test_cactus_generator_images_match_the_recursive_action_on_every_small_orbit():
    for k in range(2, 5):
        for base in combinations_with_replacement(range(3), k):
            name, images = cactus_generator_images(base)
            orbit = sorted(set(permutations(base)))
            points = [w for s in orbit for w in oracle.words(s)]
            assert list(images) == [(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
            for (p, q), image in images.items():
                assert [name(x) for x in range(len(image))] == points
                maps = {s: oracle.cactus_action(s, p, q) for s in orbit}
                assert [name(y) for y in image] == [maps[w.shape](w) for w in points]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7))
def test_the_orbit_is_the_distinct_reorderings_in_sorted_order(shape):
    assert crystals._reorderings(tuple(sorted(shape))) == sorted(set(permutations(shape)))


def test_the_orbit_is_listed_without_enumerating_the_orderings(monkeypatch):
    # eleven factors have 11! = 39,916,800 orderings but 11 distinct ones;
    # the orbit is built from distinct entries only, one call per distinct prefix
    calls = []
    reorderings = crystals._reorderings
    monkeypatch.setattr(crystals, "_reorderings", lambda s: calls.append(s) or reorderings(s))
    base = (0,) * 10 + (1,)
    name, images = cactus_generator_images(base)
    assert not hasattr(crystals, "permutations")
    assert len(images) == 55 and all(len(image) == 11 * 2 for image in images.values())
    # in sorted order: the later the 1, the smaller the shape
    assert [name(x).shape for x in range(0, 22, 2)] == [
        (0,) * j + (1,) + (0,) * (10 - j) for j in range(10, -1, -1)]
    assert len(calls) <= 11 * 11 + 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=5).map(tuple))
def test_generator_images_are_the_actions_moved_into_the_orbit_numbering(base):
    # the walk numbers each orbit shape's words from its orbit position times
    # the size on, and carries them there itself
    _, images = cactus_generator_images(base)
    orbit = sorted(set(permutations(base)))
    first = {s: i * len(words(base)) for i, s in enumerate(orbit)}
    for (p, q), image in images.items():
        want = []
        for s in orbit:
            m = cactus_action(s, p, q)
            want += [first[m.codomain] + j for j in m.index]
        assert image == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes_1_5)
def test_component_of_is_the_component_of_decompose_holding_the_word(shape):
    comps = decompose(shape)
    for w in words(shape):
        assert component_of(w) == next(c for c in comps if w in c.elements)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes_1_5, st.integers(1, 4))
def test_decompose_and_commutor_match_the_word_route(shape, cut):
    assert decompose(shape) == oracle.decompose(shape)
    if len(shape) > 1:
        a, b = shape[:min(cut, len(shape) - 1)], shape[min(cut, len(shape) - 1):]
        assert commutor_c(a, b) == oracle.commutor_c_words(a, b)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_cactus_action_matches_recursive_definition(shape):
    k = len(shape)
    for p in range(1, k + 1):
        for q in range(p, k + 1):
            assert cactus_action(shape, p, q) == oracle.cactus_action(shape, p, q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=4))
def test_cactus_generator_images_satisfy_the_cactus_relations(shape):
    relations = cactus_relation_instances(len(shape))
    name, images = cactus_generator_images(shape)
    assert verify_action(images, relations, name) == []


def _swap_two_images(m: CrystalMap, pick: int) -> CrystalMap:
    """m with the images of two words of one weight swapped: still a bijection."""
    by_weight = {}
    for i, w in enumerate(words(m.domain)):
        by_weight.setdefault(wt(w), []).append(i)
    classes = [ids for ids in by_weight.values() if len(ids) > 1]
    if not classes:
        return m
    ids = classes[pick % len(classes)]
    i1, i2 = ids[pick % len(ids)], ids[(pick + 1) % len(ids)]
    index = list(m.index)
    index[i1], index[i2] = index[i2], index[i1]
    return CrystalMap(m.domain, m.codomain, index)


def _rotated(m: CrystalMap, pick: int) -> CrystalMap:
    """m after a cyclic shift of the domain words: it moves weights too."""
    shift = (pick + 1) % len(m.index)
    return CrystalMap(m.domain, m.codomain, m.index[shift:] + m.index[:shift])


shapes_1_2 = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shapes_1_2, shapes_1_2, st.integers(0, 7))
def test_involutivity_matches_the_word_route_under_a_fault(a, b, pick):
    forward, backward = commutor_c(a, b), commutor_c(b, a)
    assert involutivity_failures(forward, backward) == []
    assert oracle.involutivity_failures(forward, backward) == []
    faulty = _swap_two_images(backward, pick)
    got = involutivity_failures(forward, faulty)
    assert got == oracle.involutivity_failures(forward, faulty)
    assert len(got) == (0 if faulty == backward else 2)
    # a backward map that lands off the forward domain fixes no word
    off = CrystalMap.identity(b + a)
    if b + a != a + b:
        assert involutivity_failures(forward, off) == oracle.involutivity_failures(forward, off)
        assert len(involutivity_failures(forward, off)) == len(forward.items())
    # one that does not start where forward ends cannot be applied at all
    with pytest.raises(KeyError) as info:
        involutivity_failures(forward, CrystalMap.identity(a + b + (0,)))
    with pytest.raises(KeyError) as word_route:
        oracle.involutivity_failures(forward, CrystalMap.identity(a + b + (0,)))
    assert info.value.args == word_route.value.args


@settings(max_examples=30, deadline=None, derandomize=True)
@given(shapes_1_2, shapes_1_2, shapes_1_2, st.integers(0, 3), st.integers(0, 7))
def test_cactus_square_matches_composed_maps_under_a_fault(a, b, c, role, pick):
    assert cactus_square_failures(a, b, c) == oracle.cactus_square_failures(a, b, c) == []
    # corrupt the commutor of one of the square's four pairs of shapes
    roles = [(a, c + b), (b, c), (b + a, c), (a, b)]
    target = roles[role]
    faulty = _swap_two_images(commutor_c(*target), pick)

    def commutor(x, y):
        return faulty if (tuple(x), tuple(y)) == target else commutor_c(x, y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crystals, "commutor_c", commutor)
        got = cactus_square_failures(a, b, c)
    assert got == oracle.cactus_square_failures(a, b, c, commutor=commutor)
    if faulty != commutor_c(*target) and roles.count(target) == 1:
        assert got


pads = st.lists(st.integers(0, 2), max_size=2).map(tuple)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2), min_size=2, max_size=4).map(tuple), st.integers(0, 9))
def test_json_round_trips_commutors_and_cactus_maps(shape, interval):
    k = len(shape)
    intervals = [(p, q) for p in range(1, k + 1) for q in range(p, k + 1)]
    p, q = intervals[interval % len(intervals)]
    for m in (commutor_c(shape[:1], shape[1:]), commutor_S(shape[:-1], shape[-1:]),
              cactus_action(shape, p, q)):
        assert json.loads(m.to_json()) == {
            "domain_shape": list(m.domain), "codomain_shape": list(m.codomain),
            "map": {str(w): str(v) for w, v in m.items()}}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shapes_1_2, shapes_1_2, pads, pads, st.integers(0, 7))
def test_extend_map_and_morphism_failures_match_the_word_route_under_a_fault(
        a, b, left, right, pick):
    good = commutor_c(a, b)
    assert good.morphism_failures() == CrystalMap.identity(a + b).morphism_failures() == []
    for m in (good, _swap_two_images(good, pick), _rotated(good, pick),
              CrystalMap.identity(a + b)):
        assert m.morphism_failures() == oracle.morphism_failures(m)
        ext = extend_map(m, left, right)
        assert ext == oracle.extend_map(m, left, right)
        assert ext.morphism_failures() == oracle.morphism_failures(ext)


shapes_2_4 = st.lists(st.integers(0, 2), min_size=2, max_size=4).map(tuple)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes_2_4, st.integers(0, 5), st.integers(0, 2), st.integers(0, 7))
def test_cactus_action_matches_recursive_definition_under_a_fault(shape, interval, step, pick):
    k = len(shape)
    intervals = [(p, q) for p in range(1, k + 1) for q in range(p + 1, k + 1)]
    p, q = intervals[interval % len(intervals)]
    # the (factor, block) pair of shapes each step commutes, in the order they apply
    steps, cur = [], shape
    for r in range(q - 1, p - 1, -1):
        steps.append(((cur[r - 1],), cur[r:q]))
        cur = cur[: r - 1] + cur[r:q] + (cur[r - 1],) + cur[q:]
    target = steps[step % len(steps)]
    faulty = _swap_two_images(commutor_c(*target), pick)

    def commutor(x, y):
        return faulty if (tuple(x), tuple(y)) == target else commutor_c(x, y)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crystals, "commutor_c", commutor)
        # walk steps are cached: clear them so the fault is met, and again so it is not kept
        crystals._walk_step.cache_clear()
        try:
            got = cactus_action(shape, p, q)
        finally:
            crystals._walk_step.cache_clear()
    assert got == oracle.cactus_action(shape, p, q, commutor=commutor)
    if faulty != commutor_c(*target) and steps.count(target) == 1:
        assert got != cactus_action(shape, p, q)


# -- the evacuation oracle: the cactus action from tableaux, not from commutors

shapes_2_5 = st.lists(st.integers(0, 3), min_size=2, max_size=5).filter(
    lambda s: sum(s) <= 10).map(tuple)


def _evacuation_misses(shape):
    """(p, q, word) wherever cactus_action differs from the evacuation oracle, over every (p, q)."""
    k = len(shape)
    misses = []
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            want = oracle.cactus_action_by_evacuation(shape, p, q)
            misses += [(p, q, str(w)) for w, v in cactus_action(shape, p, q).items() if v != want(w)]
    return misses


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shapes_2_5)
def test_cactus_action_matches_evacuation(shape):
    assert _evacuation_misses(shape) == []


def _row_2_entries(i, n):
    """The number of b-1s in word i of (1,)*n (bit t set: factor t is b-1, a row-2
    entry), or None if it is not a ballot sequence: some prefix has more b-1 than b1."""
    low = 0
    for t in range(n):
        low += i >> t & 1
        if 2 * low > t + 1:
            return None
    return low


def test_evacuation_fixes_as_many_ballot_words_as_the_q_hook_formula_at_minus_one():
    # Stembridge's q = -1 phenomenon: s(1,n) fixes |f^lam(-1)| highest-weight
    # words of shape lam = (n-k, k), where f^lam(q) = q^k [n]_q! / prod of [hook]_q
    # is the sum over standard tableaux T of q^maj(T); independent of the tableau map
    q = sympy.Poly(sympy.Symbol("q"))
    for n in range(1, 13):
        s = cactus_action((1,) * n, 1, n).index
        fixed = Counter(_row_2_entries(i, n) for i in range(2 ** n) if s[i] == i)
        for k in range(n // 2 + 1):
            hooks = [n - k - c + (c < k) for c in range(n - k)] + [k - c for c in range(k)]
            f, rest = sympy.div(q ** k * sympy.prod([1 - q ** h for h in range(1, n + 1)]),
                                sympy.prod([1 - q ** h for h in hooks]))
            assert rest.is_zero
            assert fixed[k] == abs(f.eval(-1)), (n, k)


def _phi_mutant(commutor_c):
    """commutor_c followed, on (1) (x) (1,1) and (1,1) (x) (1), by phi, the depth-by-depth
    swap of the two B(1) components of (1,1,1): involutive, an isomorphism, not natural."""
    one, two = (c.elements for c in oracle.decompose((1, 1, 1)) if c.highest_weight == 1)
    swap = dict(zip(one + two, two + one))
    phi = oracle._from_table((1, 1, 1), (1, 1, 1), {w: swap.get(w, w) for w in words((1, 1, 1))})

    def mutant(a, b):
        m = commutor_c(a, b)
        return phi.compose(m) if (tuple(a), tuple(b)) in (((1,), (1, 1)), ((1, 1), (1,))) else m

    return mutant


def test_the_evacuation_oracle_catches_the_phi_mutant():
    _clear_crystal_caches()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crystals, "commutor_c", _phi_mutant(commutor_c))
        try:
            misses = _evacuation_misses((1, 1, 1))
        finally:
            _clear_crystal_caches()
    # the sources b1⊗b-1⊗b1 and b1⊗b1⊗b-1 of the swapped components, and the words below them
    assert misses == [(1, 3, "b1⊗b-1⊗b1"), (1, 3, "b1⊗b1⊗b-1"),
                      (1, 3, "b-1⊗b1⊗b-1"), (1, 3, "b1⊗b-1⊗b-1")]


def test_the_evacuation_oracle_catches_fault_b():
    _clear_crystal_caches()
    with pytest.MonkeyPatch.context() as patch:
        _swap_first_two_images(patch, FAULT_B)
        try:
            misses = _evacuation_misses((1, 1, 1))
        finally:
            _clear_crystal_caches()
    assert misses
