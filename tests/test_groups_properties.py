"""The batched relation verifier against the point-by-point oracle.

The oracle takes dict actions; the library takes the same action numbered
in the key order of its first image, with points named by their keys.
"""

from hypothesis import given, settings, strategies as st

import groups_oracle as oracle
from qcactus.groups import verify_action

# ints and strings with the same str exercise the tie order of witnesses
POINTS = [1, 2, 3, 4, 5, "1", "2", "3"]
GENERATORS = ["a", "b", "c", "d"]


@st.composite
def actions(draw):
    """Generator images on a common domain, relations over them, and one fault.

    Every image is a self-map of the domain; the faults make one image
    non-injective, drop a point from one image, or let a relation use a
    generator with no image.
    """
    domain = draw(st.lists(st.sampled_from(POINTS), max_size=6, unique=True))
    gens = draw(st.lists(st.sampled_from(GENERATORS), min_size=1, max_size=3, unique=True))
    images = {g: dict(zip(domain, draw(st.permutations(domain)))) for g in gens}
    word = st.lists(st.sampled_from(gens), max_size=4).map(tuple)
    relations = draw(st.lists(st.tuples(word, word), min_size=1, max_size=6))
    fault = draw(st.sampled_from(["none", "none", "none", "collapse", "drop-point", "missing"]))
    target = images[draw(st.sampled_from(gens))]
    if fault == "collapse" and len(domain) >= 2:
        a, b = draw(st.lists(st.sampled_from(domain), min_size=2, max_size=2, unique=True))
        target[a] = target[b]
    elif fault == "drop-point" and domain and len(gens) >= 2:
        del target[draw(st.sampled_from(domain))]
    elif fault == "missing":
        i = draw(st.integers(0, len(relations) - 1))
        left, right = relations[i]
        relations[i] = (left, right + ("z",))  # "z" never has an image
    return images, relations


def _numbered(images, relations):
    """verify_action on a dict action, numbered in the key order of its first
    image; images on different key sets have no common numbering."""
    points = list(next(iter(images.values()), ()))
    number = {x: i for i, x in enumerate(points)}
    if any(m.keys() != number.keys() for m in images.values()):
        raise ValueError("generator images act on different domains")
    lists = {g: [number[m[x]] for x in points] for g, m in images.items()}
    return verify_action(lists, relations, points.__getitem__)


def _outcome(verify, images, relations):
    try:
        return verify(images, relations)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(actions())
def test_batched_verifier_matches_pointwise_oracle(case):
    images, relations = case
    assert _outcome(_numbered, images, relations) == _outcome(
        oracle.verify_action, images, relations
    )
