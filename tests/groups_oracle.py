"""Test-only oracle: the relation verifier applied point by point.

This is the straightforward loop that ``qcactus.groups.verify_action``
is checked against: for each relation and each point of the domain in
``str`` order, points with the same ``str`` in the key order of the
first image, both words are applied letter by letter to that one point,
and the first point where they disagree is the witness.  The
library takes the domain numbered 0 .. n-1, with a function naming the
points, and applies each word to the whole list of numbers at once
instead.  An empty domain is an error, after every
letter has been looked up, and so, after that, is an empty list of
relations.
"""

from qcactus.groups import RelationFailure


def _letters(word):
    letters = getattr(word, "letters", None)
    return letters if letters is not None else tuple(word)


def verify_action(gen_images: dict, relations):
    images = dict(gen_images)
    domains = {frozenset(m) for m in images.values()}
    if len(domains) > 1:
        raise ValueError("generator images act on different domains")
    domain = sorted(next(iter(images.values()), ()), key=str)  # stable: ties keep key order
    for g, m in images.items():
        if len(set(m.values())) != len(m):
            raise ValueError(f"image of generator {g!r} is not invertible")

    def apply_word(word, x):
        for letter in reversed(_letters(word)):
            try:
                m = images[letter]
            except KeyError:
                raise ValueError(f"no image supplied for generator {letter!r}")
            x = m[x]
        return x

    if not domain:
        # no point reaches a letter: look each one up in the order apply_word meets them
        for left, right in relations:
            for word in (left, right):
                for letter in reversed(_letters(word)):
                    if letter not in images:
                        raise ValueError(f"no image supplied for generator {letter!r}")
        raise ValueError("generator images act on an empty domain")
    if not relations:
        raise ValueError("no relations to check")

    failures = []
    for left, right in relations:
        rel = (_letters(left), _letters(right))
        for x in domain:
            lhs = apply_word(left, x)
            rhs = apply_word(right, x)
            if lhs != rhs:
                failures.append(RelationFailure(rel, x, lhs, rhs))
                break
    return failures
