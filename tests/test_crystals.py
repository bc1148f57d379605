import copy
import json
import pickle

import pytest

from qcactus.crystals import (
    ChainElement,
    CrystalMap,
    TensorWord,
    braiding_obstruction,
    cactus_action,
    cactus_generator_images,
    cactus_square_failures,
    chain_crystal,
    check_coboundary,
    commutor_S,
    commutor_c,
    component_of,
    crystal_dot,
    decompose,
    eps,
    extend_map,
    involutivity_failures,
    phi,
    schutzenberger,
    tensor_e,
    tensor_f,
    unique_component_isomorphism,
    weight_bounded_triples,
    word_index,
    words,
    wt,
)
from qcactus.groups import cactus_relation_instances, verify_action


def W(shape, *js):
    return TensorWord.from_weights(shape, js)


def _swap(m, w1, w2):
    """m with the images of the words w1 and w2 swapped in its index."""
    index = list(m.index)
    i1, i2 = word_index(w1), word_index(w2)
    index[i1], index[i2] = index[i2], index[i1]
    return CrystalMap(m.domain, m.codomain, index)


def test_chain_crystal_structure():
    b = chain_crystal(1)
    assert [x.j for x in b] == [1, -1]
    assert b[0].f() == b[1] and b[1].e() == b[0]
    assert b[1].f() is None and b[0].e() is None

    b0 = chain_crystal(0)
    assert len(b0) == 1 and b0[0].e() is None and b0[0].f() is None

    b2 = chain_crystal(2)
    assert [x.j for x in b2] == [2, 0, -2]
    assert b2[0].wt == 2 and b2[0].eps == 0 and b2[0].phi == 2

    with pytest.raises(ValueError):
        ChainElement(2, 1)
    with pytest.raises(ValueError):
        ChainElement(2, 4)


def test_tensor_rule_examples():
    assert tensor_f(W((1, 1), 1, 1)) == W((1, 1), -1, 1)
    assert tensor_f(W((1, 2), 1, 0)) == W((1, 2), 1, -2)
    assert tensor_e(W((1, 1), 1, -1)) is None


def test_operators_are_partial_inverses():
    for shape in [(1,), (2,), (1, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 2)]:
        for w in words(shape):
            ew = tensor_e(w)
            if ew is not None:
                assert tensor_f(ew) == w
            fw = tensor_f(w)
            if fw is not None:
                assert tensor_e(fw) == w


def test_statistics_match_operator_iteration():
    for shape in [(1, 1), (2, 1), (1, 2, 1), (2, 2)]:
        for w in words(shape):
            # no word has more than sum(shape) signs, so a longer walk has met a cycle
            k, cur = 0, w
            while k <= sum(shape) and (cur := tensor_e(cur)) is not None:
                k += 1
            assert eps(w) == k
            k, cur = 0, w
            while k <= sum(shape) and (cur := tensor_f(cur)) is not None:
                k += 1
            assert phi(w) == k
            fw = tensor_f(w)
            if fw is not None:
                assert wt(fw) == wt(w) - 2
            assert phi(w) == eps(w) + wt(w)


def test_decompose_small_shapes():
    comps = decompose((1, 1))
    assert [c.highest_weight for c in comps] == [2, 0]
    assert comps[1].elements == (W((1, 1), 1, -1),)

    comps = decompose((1, 2))
    assert [c.highest_weight for c in comps] == [3, 1]
    assert comps[1].source == W((1, 2), 1, 0)

    comps = decompose((2, 2))
    assert [c.highest_weight for c in comps] == [4, 2, 0]


def test_decompose_ladder_with_dimension_count_oracle():
    for m in range(7):
        for n in range(7):
            comps = decompose((m, n))
            got = sorted(c.highest_weight for c in comps)
            expected = list(range(abs(m - n), m + n + 1, 2))
            assert got == expected
            # independent cross-check: multiplicity of the component of
            # highest weight v equals (# words of weight v) - (# of weight v+2)
            weights = [wt(w) for w in words((m, n))]
            for v in expected:
                assert got.count(v) == weights.count(v) - weights.count(v + 2)


def test_schutzenberger_examples():
    xi = schutzenberger((2,))
    assert xi(W((2,), 2)) == W((2,), -2)
    assert xi(W((2,), 0)) == W((2,), 0)

    xi = schutzenberger((1, 1))
    assert xi(W((1, 1), 1, -1)) == W((1, 1), 1, -1)
    assert xi(W((1, 1), 1, 1)) == W((1, 1), -1, -1)


def test_schutzenberger_is_involution():
    for shape in [(1,), (3,), (1, 1), (2, 1), (1, 2, 1)]:
        xi = schutzenberger(shape)
        assert xi.compose(xi).is_identity()


def test_commutor_S_examples():
    assert commutor_S((1,), (1,)).is_identity()
    s = commutor_S((1,), (2,))
    assert s(W((1, 2), 1, 0)) == W((2, 1), 2, -1)
    s0 = commutor_S((0,), (3,))
    assert s0(W((0, 3), 0, 3)) == W((3, 0), 3, 0)


def test_commutor_c_examples():
    s = commutor_c((1,), (2,))
    assert s(W((1, 2), 1, 0)) == W((2, 1), 2, -1)
    for lam, mu in [(1, 1), (2, 3), (0, 2)]:
        s = commutor_c((lam,), (mu,))
        top = TensorWord((ChainElement(lam, lam), ChainElement(mu, mu)))
        assert s(top) == TensorWord((ChainElement(mu, mu), ChainElement(lam, lam)))


def test_commutor_c_hand_values_2_1():
    s = commutor_c((2,), (1,))
    expected = {
        W((2, 1), 2, 1): W((1, 2), 1, 2),
        W((2, 1), 0, 1): W((1, 2), -1, 2),
        W((2, 1), -2, 1): W((1, 2), -1, 0),
        W((2, 1), -2, -1): W((1, 2), -1, -2),
        W((2, 1), 2, -1): W((1, 2), 1, 0),
        W((2, 1), 0, -1): W((1, 2), 1, -2),
    }
    for w, v in expected.items():
        assert s(w) == v


def test_commutor_c_is_unique_isomorphism_on_2_2():
    s = commutor_c((2,), (2,))
    oracle = unique_component_isomorphism((2, 2), (2, 2))
    for w in words((2, 2)):
        assert s(w) == oracle(w)
    assert s.is_isomorphism()


def test_commutors_agree_everywhere():
    for a in range(6):
        for b in range(6):
            assert commutor_S((a,), (b,)) == commutor_c((a,), (b,))
    # composite shapes too
    assert commutor_S((1, 1), (2,)) == commutor_c((1, 1), (2,))
    assert commutor_S((1, 2), (1, 1)) == commutor_c((1, 2), (1, 1))


def test_commutor_preserves_statistics_and_naturality():
    for a, b in [((1,), (1,)), ((2,), (1,)), ((1, 1), (2,)), ((2,), (2, 1))]:
        s = commutor_c(a, b)
        assert s.is_isomorphism()


def test_commutor_natural_against_component_inclusions():
    # j embeds the chain of weight a+b as the top component of (a, b);
    # the commutor must commute with id (x) j and j (x) id
    cases = [(1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 2), (3, 2, 2)]
    for c, a, b in cases:
        top = decompose((a, b))[0]
        assert top.highest_weight == a + b
        j = dict(zip(words((a + b,)), top.elements))
        sigma_flat = commutor_c((c,), (a + b,))
        sigma_comp = commutor_c((c,), (a, b))
        for w in words((c, a + b)):
            lifted = TensorWord(w.factors[:1] + j[w.slice(1, 2)].factors)
            left = sigma_comp(lifted)
            image = sigma_flat(w)
            right = TensorWord(j[image.slice(0, 1)].factors + image.factors[1:])
            assert left == right


def test_cactus_action_examples():
    assert cactus_action((1, 1), 1, 2).is_identity()
    assert cactus_action((1, 2, 3), 2, 2).is_identity()

    s13 = cactus_action((1, 1, 1), 1, 3)
    assert s13.codomain == (1, 1, 1)
    for w in words((1, 1, 1)):
        assert s13(s13(w)) == w

    s = cactus_action((1, 2, 3), 1, 3)
    assert s.codomain == (3, 2, 1)
    s24 = cactus_action((1, 2, 3, 4), 2, 4)
    assert s24.codomain == (1, 4, 3, 2)


def test_cactus_action_satisfies_presentation_on_small_shapes():
    for base in [(1, 1, 1), (2, 1, 0), (1, 1, 2)]:
        name, images = cactus_generator_images(base)
        failures = verify_action(images, cactus_relation_instances(len(base)), name)
        assert failures == []


def test_check_coboundary_small():
    report = check_coboundary(weight_bounded_triples(2))
    assert report.ok
    assert report.triples_checked == 27

    report = check_coboundary([((0,), (2,), (1,))])
    assert report.ok


def test_check_coboundary_builds_no_product_of_three_chains(monkeypatch):
    # composite commutors are assembled from the chains of their two sides,
    # so single-chain triples read tables of one and two factors only: the
    # chains, their pairs, and each chain against a component of a pair
    from qcactus import crystals

    table, built = crystals._table, []

    def recording(shape):
        built.append(shape)
        return table(shape)

    for value in vars(crystals).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    monkeypatch.setattr(crystals, "_table", recording)
    assert check_coboundary(weight_bounded_triples(4)).ok
    monkeypatch.undo()
    assert max(map(len, built)) == 2
    assert table.cache_info().currsize == 5 + 2 * 5 * 9 - 25  # (a, b), one weight <= 4, other <= 8


def test_check_coboundary_over_no_triples_does_not_pass():
    report = check_coboundary([])
    assert report.triples_checked == 0
    assert not report.ok


def test_check_coboundary_composite_triples():
    report = check_coboundary([((1, 1), (1,), (2,)), ((2,), (1, 1), (1,))])
    assert report.ok


def test_corrupted_commutor_is_caught():
    good = commutor_c((1,), (1,))
    w1, w2 = W((1, 1), -1, 1), W((1, 1), 1, -1)
    bad = _swap(good, w1, w2)
    failures = involutivity_failures(bad, good)
    assert failures
    assert failures[0][0] in (w1, w2)
    assert not bad.is_isomorphism()


def test_cactus_square_failure_reporting(monkeypatch):
    from qcactus import crystals

    assert cactus_square_failures((1,), (1,), (2,)) == []

    def corrupted(a, b):
        # swap two same-weight images in the innermost map only, so the
        # result is still a bijection
        m = commutor_c(a, b)
        if (tuple(a), tuple(b)) != ((1,), (1,)):
            return m
        return _swap(m, W((1, 1), 1, -1), W((1, 1), -1, 1))

    monkeypatch.setattr(crystals, "commutor_c", corrupted)
    bad = cactus_square_failures((1,), (1,), (1,))
    assert bad


def test_braiding_obstruction_values():
    witness = braiding_obstruction()
    assert witness.sigma_11_identity
    assert str(witness.sigma_12_value) == "b2⊗b-1"
    assert str(witness.forced) == "b1⊗b1⊗b-1"
    assert str(witness.hexagon) == "b1⊗b-1⊗b1"
    assert witness.distinct
    assert witness.as_dict()["obstruction_confirmed"] is True


def test_the_obstruction_probe_is_the_first_word_where_the_two_values_differ():
    # any braiding is natural and the unique isomorphism on two chains, so on
    # (1) (x) (1,1) it is commutor_c; the hexagon forces (id (x) s11)(s11 (x) id)
    witness = braiding_obstruction()
    s11 = unique_component_isomorphism((1, 1), (1, 1))
    hexagon = extend_map(s11, (1,), ()).compose(extend_map(s11, (), (1,)))
    forced = commutor_c((1,), (1, 1))
    differ = [w for w in words((1, 1, 1)) if forced(w) != hexagon(w)]
    assert [str(w) for w in differ] == ["b1⊗b-1⊗b1", "b1⊗b1⊗b-1", "b-1⊗b1⊗b-1", "b1⊗b-1⊗b-1"]
    assert witness.probe == differ[0]
    assert (witness.forced, witness.hexagon) == (forced(differ[0]), hexagon(differ[0]))
    # the inclusion j of B(2) into (1,1), onto the f-chain of b1 (x) b1: the probe is b1 (x) j(b0)
    j = {2: W((1, 1), 1, 1)}
    for k in (0, -2):
        j[k] = tensor_f(j[k + 2])
    assert witness.probe == TensorWord((ChainElement(1, 1),) + j[0].factors)
    # sigma12(b1 (x) b0) = b2 (x) b-1 carries the probe to j(b2) (x) b-1 by naturality
    assert witness.forced == TensorWord(j[2].factors + (ChainElement(1, -1),))


def test_extend_map_and_compose():
    s = commutor_c((1,), (2,))
    ext = extend_map(s, (3,), (1,))
    assert ext.domain == (3, 1, 2, 1)
    assert ext.codomain == (3, 2, 1, 1)
    w = W((3, 1, 2, 1), 3, 1, 0, 1)
    v = ext(w)
    assert v.factors[0] == ChainElement(3, 3)
    assert v.factors[3] == ChainElement(1, 1)
    assert TensorWord(v.factors[1:3]) == s(W((1, 2), 1, 0))

    inv = ext.inverse()
    assert inv.compose(ext).is_identity()


def test_word_json_round_trip():
    m = commutor_c((1,), (2,))
    assert json.loads(m.to_json()) == {
        "domain_shape": [1, 2], "codomain_shape": [2, 1],
        "map": {str(w): str(v) for w, v in m.items()}}


def test_crystal_dot_output():
    dot = crystal_dot((0,))
    assert dot.startswith("digraph crystal {")
    assert '"b0";' in dot
    dot = crystal_dot((1, 1))
    assert '"b1⊗b1" -> "b-1⊗b1";' in dot
    assert "cluster_0" in dot and "cluster_1" in dot
    assert dot.count("->") == 2


def test_component_of():
    comp = component_of(W((1, 1), 1, -1))
    assert comp.highest_weight == 0


def test_words_and_chain_elements_are_values():
    w = W((1, 2, 0), 1, 0, 0)
    assert TensorWord(w.factors) == w
    assert TensorWord(tuple(ChainElement(b.n, b.j) for b in w.factors)) == w
    b = ChainElement(2, 0)
    assert ChainElement(n=2, j=0) == b and hash(ChainElement(n=2, j=0)) == hash(b)
    for obj in (w, b):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
    for obj, name in [(w, "factors"), (w, "other"), (b, "j"), (b, "eps")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # the frozen-dataclass hashes: deterministic, never derived from id()
    assert hash(b) == hash((2, 0))
    assert hash(w) == hash((tuple((c.n, c.j) for c in w.factors),))
    assert repr(b) == "ChainElement(n=2, j=0)"
    assert repr(W((1,), -1)) == "TensorWord(factors=(ChainElement(n=1, j=-1),))"
    elements = [ChainElement(2, 0), ChainElement(1, 1), ChainElement(2, -2), ChainElement(1, -1)]
    assert sorted(elements) == [
        ChainElement(1, -1), ChainElement(1, 1), ChainElement(2, -2), ChainElement(2, 0)
    ]
    assert ChainElement(1, 1) <= ChainElement(1, 1) < ChainElement(2, -2)
    with pytest.raises(TypeError):
        ChainElement(1, 1) < (1, 1)
    assert b != (2, 0) and w != w.factors
    with pytest.raises(ValueError):
        TensorWord(())


def test_words_returns_a_fresh_list_of_the_cached_words():
    first, second = words((1, 2)), words((1, 2))
    assert first is not second
    assert first == second and len(first) == 6
    first.clear()
    assert len(words((1, 2))) == 6


def test_chain_elements_take_only_ints():
    for n, j in [(1.0, 1), (True, 1), (1, 1.0), (1, True)]:
        with pytest.raises(TypeError, match="int n and j"):
            ChainElement(n, j)
    # a refused float or bool leaves no trace on later elements equal to it
    assert type(ChainElement(1, 1).n) is int and type(ChainElement(1, 1).j) is int
    assert str(tensor_f(TensorWord.from_weights((1,), [1]))) == "b-1"
    assert [repr(b) for b in words((1,))] == [
        "TensorWord(factors=(ChainElement(n=1, j=1),))",
        "TensorWord(factors=(ChainElement(n=1, j=-1),))",
    ]


def test_tensor_words_refuse_malformed_factors():
    for shape, js in [((1, 2), [1]), ((1,), [1, 0])]:
        with pytest.raises(ValueError):
            TensorWord.from_weights(shape, js)
    for factors in [[ChainElement(1, 1)], (1, 2), (ChainElement(1, 1), (1, -1))]:
        with pytest.raises(TypeError, match="tuple of chain elements"):
            TensorWord(factors)
    with pytest.raises(ValueError, match="nonnegative"):
        chain_crystal(-1)


BAD_SHAPES = [((-1,), "nonnegative"), ((2, -1), "nonnegative"), ((), "at least one factor")]

# every public entry that takes a shape, as a function of one shape
SHAPE_ENTRIES = {
    "words": words,
    "decompose": decompose,
    "schutzenberger": schutzenberger,
    "commutor_S": lambda shape: commutor_S(shape, (1,)),
    "commutor_c": lambda shape: commutor_c(shape, (1,)),
    "cactus_action": lambda shape: cactus_action(shape, 1, 1),
    "cactus_generator_images": cactus_generator_images,
    "unique_component_isomorphism": lambda shape: unique_component_isomorphism(shape, shape),
    "crystal_dot": crystal_dot,
    "CrystalMap": lambda shape: CrystalMap(shape, shape, [0, 1]),
    "CrystalMap.identity": CrystalMap.identity,
    "check_coboundary": lambda shape: check_coboundary([(shape, shape, shape)]),
    "extend_map": lambda shape: extend_map(CrystalMap.identity((1,)), shape, ()),
}


@pytest.mark.parametrize("shape, message", BAD_SHAPES)
def test_shape_functions_refuse_what_words_refuses(shape, message):
    with pytest.raises(ValueError, match=message):
        words(shape)
    for name, query in SHAPE_ENTRIES.items():
        if name == "extend_map" and not shape:  # an empty pad is no fault
            continue
        with pytest.raises(ValueError, match=message):
            query(shape)


@pytest.mark.parametrize("shape, message", BAD_SHAPES)
def test_crystal_maps_refuse_what_words_refuses(shape, message):
    with pytest.raises(ValueError, match=message):
        CrystalMap.identity(shape)
    with pytest.raises(ValueError, match=message):
        CrystalMap(shape, (1,), [0, 1])
    with pytest.raises(ValueError, match=message):
        CrystalMap((1,), shape, [0, 1])
    if shape:  # an empty pad is no fault
        sigma = commutor_c((1,), (1,))
        for left, right in ((shape, ()), ((), shape), (shape, shape)):
            with pytest.raises(ValueError, match=message):
                extend_map(sigma, left, right)


@pytest.mark.parametrize("shape", [(True,), (1.0,)])
def test_a_cached_shape_answers_for_no_refused_equal_one(shape):
    # the caches' keys compare True == 1.0 == 1, so the rule must run before any read
    answered = []
    for name, entry in SHAPE_ENTRIES.items():
        entry((1,))
        try:
            entry(shape)
        except TypeError as exc:
            assert "ints" in str(exc), name
        else:
            answered.append(name)
    assert answered == []


def test_a_cached_chain_commutor_answers_for_no_refused_weight():
    commutor_c((1,), (1,))
    for shape_a, shape_b in (((True,), (1,)), ((1,), (1.0,)), ((1.0,), (True,))):
        with pytest.raises(TypeError, match="ints"):
            commutor_c(shape_a, shape_b)


def test_a_shape_with_a_float_is_refused_before_any_walk():
    with pytest.raises(TypeError, match="ints"):
        cactus_action((1, 1.0), 1, 2)
    with pytest.raises(TypeError, match="ints"):
        cactus_generator_images((1, 1.0))


def test_cactus_action_takes_int_indices_only():
    # True == 1 would otherwise give s(1,2), and 1.0 would fail inside islice
    for p, q, bad in ((True, 2, "True"), (1.0, 2, "1.0"), (1, 2.0, "2.0"), (1, "2", "'2'")):
        with pytest.raises(TypeError, match=f"int indices, got {bad}$"):
            cactus_action((1, 1), p, q)


def test_chain_crystal_takes_the_shape_rule():
    for n in (1.0, "1", True):
        with pytest.raises(TypeError, match="tuple of ints"):
            chain_crystal(n)
    with pytest.raises(ValueError, match="nonnegative"):
        chain_crystal(-1)
    assert chain_crystal(1) == [ChainElement(1, 1), ChainElement(1, -1)]


def test_crystal_maps_refuse_shapes_and_indices_of_non_ints():
    for shape in ((1.0,), (True,), (1, "2")):
        with pytest.raises(TypeError, match="ints"):
            CrystalMap(shape, (1,), [0, 1])
        with pytest.raises(TypeError, match="ints"):
            CrystalMap((1,), shape, [0, 1])
    for index in ([0.0, 1.0], [False, True], [0, "1"]):
        with pytest.raises(TypeError, match="index holds ints"):
            CrystalMap((1,), (1,), index)


def test_crystal_maps_refuse_what_is_not_a_tensor_word():
    sigma = commutor_c((1,), (1,))
    for x in (ChainElement(1, 1), (ChainElement(1, 1), ChainElement(1, 1)), "b1⊗b1"):
        with pytest.raises(TypeError, match=type(x).__name__):
            sigma(x)


def test_crystal_map_validates_totality_and_bijectivity():
    index = commutor_c((1,), (1,)).index
    with pytest.raises(ValueError, match="not total"):
        CrystalMap((1, 1), (1, 1), index[:-1])
    with pytest.raises(ValueError, match="not total"):
        CrystalMap((1, 1), (1, 1), index[:-1] + (-1,))
    with pytest.raises(ValueError, match="not total"):
        CrystalMap((1,), (2,), [0, 1, 2])
    collapsed = list(index)
    collapsed[word_index(W((1, 1), 1, 1))] = collapsed[word_index(W((1, 1), -1, -1))]
    with pytest.raises(ValueError, match="not a bijection"):
        CrystalMap((1, 1), (1, 1), collapsed)
    with pytest.raises(ValueError, match="not a bijection"):
        CrystalMap((1, 1), (2,), index)
