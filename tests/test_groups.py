import random

import pytest

from qcactus.groups import (
    BraidWord,
    CactusWord,
    Permutation,
    cactus_relation_instances,
    project_to_symmetric,
    s_hat,
    shat_images,
    verify_action,
)


def test_s_hat_examples():
    assert s_hat(1, 3, 3).images == (3, 2, 1)
    assert s_hat(2, 3, 3).images == (1, 3, 2)
    assert s_hat(2, 4, 5).images == (1, 4, 3, 2, 5)


def test_s_hat_is_involution():
    for n in range(2, 7):
        for p in range(1, n + 1):
            for q in range(p + 1, n + 1):
                assert (s_hat(p, q, n) * s_hat(p, q, n)).is_identity()


def test_s_hat_range_checks():
    with pytest.raises(ValueError):
        s_hat(2, 2, 3)
    with pytest.raises(ValueError):
        s_hat(1, 4, 3)


def test_relation_instances_small():
    rels2 = cactus_relation_instances(2)
    assert rels2 == [(((1, 2), (1, 2)), ())]

    rels3 = cactus_relation_instances(3)
    contained = (((1, 3), (1, 2)), ((2, 3), (1, 3)))
    assert contained in rels3

    rels4 = cactus_relation_instances(4)
    disjoint = (((1, 2), (3, 4)), ((3, 4), (1, 2)))
    assert disjoint in rels4


@pytest.mark.parametrize("n, count", [(2, 1), (3, 5), (4, 16), (5, 40), (6, 85), (7, 161)])
def test_relation_instances_match_the_interval_reversals(n, count):
    # the contained intervals' relation built through the reversal permutation s_hat(p, q)
    intervals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    expected = [((pq, pq), ()) for pq in intervals]
    expected += [(((p, q), (k, l)), ((k, l), (p, q)))
                 for p, q in intervals for k, l in intervals if q < k]
    for p, q in intervals:
        rev = s_hat(p, q, n)
        expected += [(((p, q), (k, l)), ((rev(l), rev(k)), (p, q)))
                     for k, l in intervals if (p, q) != (k, l) and p <= k < l <= q]
    assert cactus_relation_instances(n) == expected
    assert len(expected) == count


def test_project_to_symmetric():
    w = CactusWord(((1, 3), (1, 3)), 3)
    assert project_to_symmetric(w).is_identity()
    assert project_to_symmetric(CactusWord(((1, 3),), 3)).images == (3, 2, 1)
    b = BraidWord(((1, 1), (2, 1), (1, 1)), 3)
    assert project_to_symmetric(b).images == (3, 2, 1)


def test_project_is_a_homomorphism():
    rng = random.Random(5)
    n = 5
    intervals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    for _ in range(30):
        u = CactusWord(tuple(rng.choice(intervals) for _ in range(rng.randint(0, 4))), n)
        v = CactusWord(tuple(rng.choice(intervals) for _ in range(rng.randint(0, 4))), n)
        uv = CactusWord(u.letters + v.letters, n)
        assert project_to_symmetric(uv) == project_to_symmetric(u) * project_to_symmetric(v)


def test_yang_baxter_in_symmetric_group():
    n = 5
    for i in range(1, n - 1):
        lhs = BraidWord(((i, 1), (i + 1, 1), (i, 1)), n)
        rhs = BraidWord(((i + 1, 1), (i, 1), (i + 1, 1)), n)
        assert project_to_symmetric(lhs) == project_to_symmetric(rhs)


def test_shat_satisfies_cactus_presentation():
    for n in range(2, 7):
        failures = verify_action(shat_images(n), cactus_relation_instances(n))
        assert failures == []


def test_identity_images_satisfy_squares():
    n = 4
    images = {(p, q): list(range(n)) for p in range(1, 5) for q in range(p + 1, 5)}
    squares = [r for r in cactus_relation_instances(n) if r[1] == ()]
    assert verify_action(images, squares) == []


def test_non_involution_is_reported_with_witness():
    cyc = [1, 0]
    bad = [1, 2, 0]
    images = {(1, 2): bad}
    squares = [(((1, 2), (1, 2)), ())]
    # bad squared is a 3-cycle, so the relation is violated at every point
    assert sum(bad[bad[x]] != x for x in range(3)) == 3
    failures = verify_action(images, squares)
    assert len(failures) == 1  # one failure per violated relation
    assert failures[0].witness == 0  # points are their own names by default
    assert (failures[0].left_value, failures[0].right_value) == (2, 0)
    # its first witness in str order of the names
    failures = verify_action(images, squares, ["c", "b", "a"].__getitem__)
    assert (failures[0].witness, failures[0].left_value, failures[0].right_value) == ("a", "b", "a")
    report = failures[0].as_dict()
    assert set(report) == {"relation", "witness", "left", "right"}
    # names that print alike tie in str order, and the lower number wins
    for names in ([2, "1", 1], [2, 1, "1"]):
        failures = verify_action(images, squares, names.__getitem__)
        assert type(failures[0].witness) is type(names[1])

    assert verify_action({(1, 2): cyc}, squares) == []


def test_one_letter_words_and_tuple_images():
    # a word starts from the image list of the letter it applies first, so
    # a one-letter word on either side is that image, and tuples act as lists
    images = {"a": [1, 0, 2], "b": [1, 0, 2], "c": [0, 2, 1]}
    relations = [(("a",), ("b",)), (("a",), ("c",)), (("c",), ()), ((), ("a", "a"))]
    failures = verify_action(images, relations)
    assert [(f.relation, f.witness, f.left_value, f.right_value) for f in failures] == [
        ((("a",), ("c",)), 0, 1, 0),
        ((("c",), ()), 1, 2, 1),
    ]
    as_tuples = {g: tuple(m) for g, m in images.items()}
    assert verify_action(as_tuples, relations) == failures
    assert images == {"a": [1, 0, 2], "b": [1, 0, 2], "c": [0, 2, 1]}  # left as given


def test_image_leaving_the_domain_is_not_invertible():
    # injective, but 1 goes to 2, outside {0, 1}: not a bijection of the domain
    squares = [(CactusWord(((1, 2), (1, 2)), 2), CactusWord((), 2))]
    with pytest.raises(ValueError, match="not invertible"):
        verify_action({(1, 2): [1, 2]}, squares)


@pytest.mark.parametrize("image", [
    [0, 2, 2],  # a repeated point
    [0, 1, 3],  # a point past n - 1
    [-1, 0, 1],  # a point before 0
    [0, 1],  # a short list
    [0, 1, 2, 0],  # a long one
    [0, 1, 1.5],  # an entry that is not an int
    [0, 1.0, 2],  # nor one that equals a point
])
def test_an_image_that_is_no_bijection_of_the_domain_is_refused(image):
    # the first image numbers the domain 0 .. 2; each of these leaves it
    images = {(1, 2): [1, 0, 2], (1, 3): image, (2, 3): [0, 2, 1]}
    with pytest.raises(ValueError, match=r"^image of generator \(1, 3\) is not invertible$"):
        verify_action(images, cactus_relation_instances(3))


def test_mismatched_domains_is_an_error():
    # the first image numbers the domain 0 .. 0, which the others leave
    images = {(1, 2): [0], (1, 3): [0, 1], (2, 3): [0, 1]}
    with pytest.raises(ValueError, match=r"generator \(1, 3\) is not invertible"):
        verify_action(images, cactus_relation_instances(3))


def test_missing_generator_image_is_an_error():
    with pytest.raises(ValueError):
        verify_action({(1, 2): [0]}, cactus_relation_instances(3))


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p.inverse() * p == Permutation.identity(3)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_missing_generator_image_is_an_error_on_an_empty_domain():
    # the same message as on a nonempty domain: an empty one does not hide it
    for domain in ([0], []):
        with pytest.raises(ValueError, match=r"no image supplied for generator \(1, 3\)"):
            verify_action({(1, 2): domain}, cactus_relation_instances(3))


def test_empty_domain_is_an_error():
    # a check over no points proves nothing
    images = {pq: [] for pq in [(1, 2), (1, 3), (2, 3)]}
    with pytest.raises(ValueError, match="empty domain"):
        verify_action(images, cactus_relation_instances(3))
    with pytest.raises(ValueError, match="empty domain"):
        verify_action({}, [])


def test_no_relations_is_an_error():
    # a check of no relations proves nothing either: it passes any images
    with pytest.raises(ValueError, match="no relations to check"):
        verify_action({(1, 2): [1, 0]}, [])
    with pytest.raises(ValueError, match="no relations to check"):
        verify_action(shat_images(3), iter(()))
