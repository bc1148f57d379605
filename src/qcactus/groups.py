"""Words in the braid and cactus groups and a generic relation verifier.

The braid group on n strands has generators g1 .. g(n-1) subject to the
commutation and Yang-Baxter relations; the cactus group has an involutive
generator s(p,q) for every interval 1 <= p < q <= n, subject to the
square, disjointness and containment relations.  Both project onto the
symmetric group: g(i) goes to the adjacent transposition and s(p,q) to
the permutation reversing the interval p..q.

A permutation has one form: the tuple of images of the points 0 .. n-1,
point x - 1 standing for x, as ``s_hat`` builds it.  Nothing here attempts
the word problem: ``verify_action`` tests relations, pairs of tuples of
generator keys, through a concrete action, the image lists of the
generators in that form, and names a witness for every violation, each
point at most once per call; ``project_to_symmetric`` is such an action.
"""

from functools import lru_cache

from . import Record

__all__ = [
    "BraidWord",
    "CactusWord",
    "s_hat",
    "cactus_relation_instances",
    "project_to_symmetric",
    "RelationFailure",
    "verify_action",
]


def _check_word(letters, n):
    """The type rule of a word: n an int >= 1 and the letters a tuple of pairs
    of ints, each an int by type, so no bool or float."""
    if type(n) is not int:
        raise TypeError(f"a word takes an int n, got {n!r}")
    if n < 1:
        raise ValueError(f"a word needs n >= 1, got n={n}")
    if type(letters) is not tuple or not all(
            type(x) is tuple and len(x) == 2 and type(x[0]) is type(x[1]) is int for x in letters):
        raise TypeError(f"a word's letters are a tuple of pairs of ints, got {letters!r}")


class BraidWord(Record):
    """Word in braid generators; letters are (index, +-1) pairs."""

    __slots__ = ("letters", "n")

    def _validate(self):
        _check_word(self.letters, self.n)
        for i, e in self.letters:
            if not 1 <= i <= self.n - 1:
                raise ValueError(f"generator index {i} out of range for n={self.n}")
            if e not in (1, -1):
                raise ValueError(f"exponent must be +-1, got {e}")


class CactusWord(Record):
    """Word in cactus generators; letters are (p, q) interval pairs.

    The generators are involutions, so no exponents are stored.
    """

    __slots__ = ("letters", "n")

    def _validate(self):
        _check_word(self.letters, self.n)
        for p, q in self.letters:
            if not 1 <= p < q <= self.n:
                raise ValueError(f"bad interval ({p},{q}) for n={self.n}")


def s_hat(p: int, q: int, n: int) -> tuple:
    """The reversal of the interval p..q of 1..n as the images of the points
    0 .. n-1: point x - 1 goes to p + q - x - 1 for x in p..q, the rest stay."""
    CactusWord(((p, q),), n)  # the interval passes the rule of a one-letter word
    return tuple(p + q - 2 - x if p <= x + 1 <= q else x for x in range(n))


def cactus_relation_instances(n: int):
    """All defining relation instances of the cactus group on n fruits.

    Returns (left, right) pairs of tuples of (p, q) letters, as verify_action
    reads them: the squares s(p,q)s(p,q) = 1, the commutations for disjoint
    intervals, and s(p,q)s(k,l) = s(r,t)s(p,q) for contained intervals,
    where (r, t) = (p+q-l, p+q-k) is k..l reversed inside p..q.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    intervals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    out = [((pq, pq), ()) for pq in intervals]
    out += [(((p, q), (k, l)), ((k, l), (p, q)))  # disjoint, each unordered pair listed once
            for p, q in intervals for k, l in intervals if q < k]
    out += [(((p, q), (k, l)), ((p + q - l, p + q - k), (p, q)))
            for p, q in intervals for k, l in intervals if (p, q) != (k, l) and p <= k < l <= q]
    return out


def project_to_symmetric(word) -> tuple:
    """Image of a braid or cactus word in S_n, in the form s_hat gives.

    The word homomorphism sends s(p,q) to the reversal of p..q and
    g(i)^(+-1) to that of the interval (i, i+1); the empty word maps to
    the identity.
    """
    if isinstance(word, CactusWord):
        intervals = word.letters
    elif isinstance(word, BraidWord):
        intervals = tuple((i, i + 1) for i, _e in word.letters)  # a transposition is its own inverse
    else:
        raise TypeError(f"expected BraidWord or CactusWord, got {type(word).__name__}")
    images = {pq: s_hat(*pq, word.n) for pq in intervals}
    return tuple(_apply_word(images, intervals, range(word.n)))


def _apply_word(images, word, identity):
    """The image list of a word under an action: the last letter applies
    first, carrying the whole list of points at once by list indexing."""
    xs = images[word[-1]] if word else identity
    for letter in reversed(word[:-1]):
        m = images[letter]
        xs = [m[i] for i in xs]
    return xs


class RelationFailure(Record):
    __slots__ = ("relation", "witness", "left_value", "right_value")

    def as_dict(self):
        return {
            "relation": [[list(letter) for letter in word] for word in self.relation],
            "witness": str(self.witness),
            "left": str(self.left_value),
            "right": str(self.right_value),
        }


def verify_action(images: dict, relations, name=lambda i: i):
    """Check that generator images satisfy a list of relations.

    The points are numbered 0 .. n-1, and ``images`` maps each generator
    key to the list of its image numbers, a bijection of 0 .. n-1;
    ``relations`` is a list of (left word, right word) pairs, each word a
    sequence of generator keys, applied by ``_apply_word``, last letter
    first.  Returns one RelationFailure per violated relation, carrying its
    first witness in ``str`` order of the names, points with the same
    ``str`` in numbering order; ``name(i)`` names point i, only in a
    failure and at most once per call.
    An empty domain or an empty list of relations is a ValueError.
    """
    identity = list(range(len(next(iter(images.values()), ()))))
    for g, m in images.items():
        # a bijection: n entries, every point among them, all ints (a 1.0 makes the sum no int)
        if len(m) != len(identity) or not set(m).issuperset(identity) or type(sum(m)) is not int:
            raise ValueError(f"image of generator {g!r} is not invertible")
    relations = [(tuple(left), tuple(right)) for left, right in relations]
    for left, right in relations:
        for letter in left[::-1] + right[::-1]:  # the order the words apply them
            if letter not in images:
                raise ValueError(f"no image supplied for generator {letter!r}")
    if not identity:
        # a check over no points proves nothing
        raise ValueError("generator images act on an empty domain")
    if not relations:
        # nor does a check of no relations
        raise ValueError("no relations to check")
    # the first letter's image is read as it is, so a list compares with a list
    images = {g: m if type(m) is list else list(m) for g, m in images.items()}

    named = lru_cache(maxsize=None)(name)  # a point is named, and printed, once per call
    order = lru_cache(maxsize=None)(lambda x: (str(named(x)), x))
    failures = []
    for rel in relations:
        lhs, rhs = _apply_word(images, rel[0], identity), _apply_word(images, rel[1], identity)
        if lhs != rhs:
            # one witness per violated relation: the first in str order
            x = min((x for x in identity if lhs[x] != rhs[x]), key=order)
            failures.append(RelationFailure(rel, named(x), named(lhs[x]), named(rhs[x])))
    return failures
