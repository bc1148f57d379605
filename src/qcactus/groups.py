"""Words in the braid and cactus groups and a generic relation verifier.

The braid group on n strands has generators g1 .. g(n-1) subject to the
commutation and Yang-Baxter relations; the cactus group has an involutive
generator s(p,q) for every interval 1 <= p < q <= n, subject to the
square, disjointness and containment relations.  Both project onto the
symmetric group: g(i) goes to the adjacent transposition and s(p,q) to
the permutation reversing the interval p..q.

Nothing here attempts the word problem: ``verify_action`` tests
relations, pairs of tuples of generator keys, through a concrete action,
the image lists of the generators on points numbered 0 .. n-1, and names
a witness for every violation, each point at most once per call.
"""

from functools import lru_cache

from . import Record

__all__ = [
    "Permutation",
    "BraidWord",
    "CactusWord",
    "s_hat",
    "cactus_relation_instances",
    "project_to_symmetric",
    "RelationFailure",
    "verify_action",
    "shat_images",
]


class Permutation(Record):
    """A bijection of {1, .., n}, stored as the tuple of images."""

    __slots__ = ("images",)

    def _validate(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(x)) for x in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for x in range(1, self.n + 1):
            out[self(x) - 1] = x
        return Permutation(tuple(out))

    def is_identity(self) -> bool:
        return all(self(x) == x for x in range(1, self.n + 1))


def s_hat(p: int, q: int, n: int) -> Permutation:
    """The interval-reversing permutation: fixes 1..p-1 and q+1..n,
    sends x in p..q to p+q-x."""
    if not 1 <= p < q <= n:
        raise ValueError(f"need 1 <= p < q <= n, got p={p}, q={q}, n={n}")
    return Permutation(
        tuple(p + q - x if p <= x <= q else x for x in range(1, n + 1))
    )


class BraidWord(Record):
    """Word in braid generators; letters are (index, +-1) pairs."""

    __slots__ = ("letters", "n")

    def _validate(self):
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
        for p, q in self.letters:
            if not 1 <= p < q <= self.n:
                raise ValueError(f"bad interval ({p},{q}) for n={self.n}")


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


def project_to_symmetric(word) -> Permutation:
    """Image of a braid or cactus word in the symmetric group.

    This is the word homomorphism sending s(p,q) to the interval
    reversal and g(i)^(+-1) to the transposition (i, i+1); the empty
    word maps to the identity.
    """
    out = Permutation.identity(word.n)
    if isinstance(word, CactusWord):
        for p, q in word.letters:
            out = out * s_hat(p, q, word.n)
        return out
    if isinstance(word, BraidWord):
        for i, _e in word.letters:  # a transposition is its own inverse
            out = out * s_hat(i, i + 1, word.n)
        return out
    raise TypeError(f"expected BraidWord or CactusWord, got {type(word).__name__}")


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
    sequence of generator keys.  Words act on the left, so the last letter
    is applied first, and each side of a relation carries the whole list of
    numbers at once by list indexing.  Returns one RelationFailure per
    violated relation, carrying its first witness in ``str`` order of the
    names, points with the same ``str`` in numbering order; ``name(i)``
    names point i, only in a failure and at most once per call.
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

    def apply_word(word):
        xs = images[word[-1]] if word else identity
        for letter in reversed(word[:-1]):
            m = images[letter]
            xs = [m[i] for i in xs]
        return xs

    named = lru_cache(maxsize=None)(name)  # a point is named, and printed, once per call
    order = lru_cache(maxsize=None)(lambda x: (str(named(x)), x))
    failures = []
    for rel in relations:
        lhs, rhs = apply_word(rel[0]), apply_word(rel[1])
        if lhs != rhs:
            # one witness per violated relation: the first in str order
            x = min((x for x in identity if lhs[x] != rhs[x]), key=order)
            failures.append(RelationFailure(rel, named(x), named(lhs[x]), named(rhs[x])))
    return failures


def shat_images(n: int) -> dict:
    """Generator images for the interval reversals acting on {1..n}, with
    point x numbered x - 1, as verify_action takes them."""
    return {
        (p, q): [s_hat(p, q, n)(x) - 1 for x in range(1, n + 1)]
        for p in range(1, n + 1)
        for q in range(p + 1, n + 1)
    }
