"""sl2 crystals, their tensor products, and the two crystal commutors.

The basic crystal of highest weight n is the chain

    b_n -> b_(n-2) -> ... -> b_(-n)

with the lowering operator f moving right, the raising operator e moving
left, and the statistics wt(b_j) = j, eps(b_j) = (n-j)/2,
phi(b_j) = (n+j)/2.  A tensor product of chains is a flat word of chain
elements -- no bracketing is stored, which realizes the monoidal
structure strictly -- and the operators act through the signature
rule: one left-to-right pass that brackets the minus and plus signs of
the factors.  The rule runs once per shape, over all its words at once,
into a table indexed by word_index; e, f, eps and phi on a word and the
decomposition read that table, and the commutors read the decomposition.

On top of that combinatorics this module builds:

  * connected-component decomposition of any shape,
  * the chain-reversing involution xi and the commutor it induces,
  * the commutor, unique on two chains and assembled from them by naturality,
  * the action of the cactus generators s(p,q),
  * checkers for the coboundary axioms and for sigma^S = sigma^c, and
  * the no-braiding witness, read off commutor_c and the hexagon composite.

Annihilation by e or f is the value None, never an error; a crystal map
is the word_index of the image of each domain word, checked by its one
constructor.  Output is printed, and JSON read back, through _names, the
strings of a shape's words by word_index, so neither builds a word; a
word is named alone, from its shape and index, for the public word API
and the witnesses of failures.  Everything is immutable after construction.
"""

from collections import Counter
from functools import lru_cache, total_ordering
from itertools import islice
import json
from math import prod

from . import Record, VerificationError, _shape

__all__ = [
    "CrystalInvariantError",
    "ChainElement",
    "TensorWord",
    "chain_crystal",
    "words",
    "tensor_e",
    "tensor_f",
    "eps",
    "phi",
    "wt",
    "word_index",
    "Component",
    "decompose",
    "component_of",
    "CrystalMap",
    "extend_map",
    "schutzenberger",
    "commutor_S",
    "commutor_c",
    "cactus_action",
    "cactus_generator_images",
    "unique_component_isomorphism",
    "involutivity_failures",
    "cactus_square_failures",
    "CoboundaryReport",
    "check_coboundary",
    "weight_bounded_triples",
    "ObstructionWitness",
    "braiding_obstruction",
    "crystal_dot",
]


class CrystalInvariantError(VerificationError):
    """An internal invariant of the crystal combinatorics failed.

    Raised when a decomposition is not a partition into chains, or not the
    ladder of highest weights on two chains; the message names the word or
    the shape.  It signals a failed verification, not bad input.
    """


@total_ordering
class ChainElement(Record):
    """Element b_j of the chain crystal of highest weight n; its hash is hash((n, j))."""

    __slots__ = ("n", "j")

    def _validate(self):
        n, j = self.n, self.j
        if type(n) is not int or type(j) is not int:
            raise TypeError(f"chain elements take int n and j, got {n!r} and {j!r}")
        if n < 0:
            raise ValueError("highest weight must be nonnegative")
        if abs(j) > n or (n - j) % 2:
            raise ValueError(f"b_{j} does not lie in the chain of weight {n}")

    def __lt__(self, other):
        if type(other) is not ChainElement:
            return NotImplemented
        return (self.n, self.j) < (other.n, other.j)

    def e(self):
        """Raising operator; None at the top of the chain."""
        return ChainElement(self.n, self.j + 2) if self.j < self.n else None

    def f(self):
        """Lowering operator; None at the bottom of the chain."""
        return ChainElement(self.n, self.j - 2) if self.j > -self.n else None

    @property
    def wt(self) -> int:
        return self.j

    @property
    def eps(self) -> int:
        return (self.n - self.j) // 2

    @property
    def phi(self) -> int:
        return (self.n + self.j) // 2

    def __str__(self):
        return f"b{self.j}"


def chain_crystal(n: int):
    """The chain of highest weight n, from b_n down to b_(-n)."""
    n, = _shape((n,))
    return [ChainElement(n, n - 2 * i) for i in range(n + 1)]


class TensorWord(Record):
    """A flat tensor word of chain elements; its hash is hash((factors,)).

    The shape is the tuple of factor highest weights; tensoring shapes is
    concatenation, so associativity holds on the nose.
    """

    __slots__ = ("factors",)

    def _validate(self):
        factors = self.factors
        if type(factors) is not tuple or not all(type(b) is ChainElement for b in factors):
            raise TypeError(f"tensor word factors must be a tuple of chain elements: {factors!r}")
        if not factors:
            raise ValueError("tensor words must have at least one factor")

    @property
    def shape(self) -> tuple:
        return tuple(b.n for b in self.factors)

    def __len__(self):
        return len(self.factors)

    def __getitem__(self, idx):
        return self.factors[idx]

    def slice(self, start: int, stop: int) -> "TensorWord":
        return TensorWord(self.factors[start:stop])

    def __str__(self):
        return "⊗".join(str(b) for b in self.factors)

    @classmethod
    def from_weights(cls, shape, js) -> "TensorWord":
        return cls(tuple(ChainElement(n, j) for n, j in zip(shape, js, strict=True)))


def words(shape):
    """All tensor words of a shape, in the canonical frame order.

    Enumeration runs through depth tuples with the *last* factor slowest
    and the first fastest; within each factor, depth 0 is the top of the
    chain.  The same order indexes the product bases of the symbolic
    modules, which keeps crystal words and matrix rows aligned.  Every
    call returns a fresh list of words, each named from its index.
    """
    shape = _shape(shape)
    return [_word(shape, i) for i in range(_size(shape))]


def _word(shape, i) -> TensorWord:
    """The word of a validated shape at word_index i: its depth digits, first factor fastest."""
    factors = []
    for n in shape:
        i, d = divmod(i, n + 1)
        factors.append(_elements(n)[d])
    return TensorWord(tuple(factors))


@lru_cache(maxsize=None)
def _elements(n):
    """The chain of weight n as a tuple, built once per weight for _word."""
    return tuple(chain_crystal(n))


def _names(shape):
    """The printed form of every word of a shape, in word_index order.

    The names of the first factors are extended one factor at a time, the
    new factor slowest, so the list follows word_index without building a word.
    """
    first, *rest = shape
    names = [str(b) for b in chain_crystal(first)]
    for n in rest:
        names = [name + tail for tail in ["⊗" + str(b) for b in chain_crystal(n)]
                 for name in names]
    return names


def _size(shape) -> int:
    """The number of words of a shape, or of a prefix or slice of one; () has one."""
    return prod(n + 1 for n in shape)


def word_index(w: TensorWord) -> int:
    """Position of a word in the canonical enumeration of its shape."""
    idx = 0
    for b in reversed(w.factors):
        idx = idx * (b.n + 1) + b.eps
    return idx


def wt(w: TensorWord) -> int:
    return sum(b.wt for b in w.factors)


@lru_cache(maxsize=None)
def _table(shape):
    """(f, e, eps, phi) by word_index: the indices of f(w) and e(w) (or -1), eps(w), phi(w).

    The signature rule: each factor b contributes eps(b) minus signs, then
    phi(b) plus signs, and each minus cancels the nearest uncancelled plus
    to its left; eps and phi count the uncancelled signs, and f lowers the
    factor holding the leftmost uncancelled plus.  One bracketing pass runs
    over the depth digits, one factor at a time for all word prefixes,
    keeping (eps, phi, stride of the factor f acts on); f moves an index by
    that stride, and e is f's partial inverse.
    """
    states, stride = [(0, 0, 1)], 1
    for n in shape:
        states = [(e_tot + d - p_tot, n - d, stride) if d >= p_tot  # every plus cancelled
                  else (e_tot, p_tot + n - 2 * d, step)
                  for d in range(n + 1) for e_tot, p_tot, step in states]
        stride *= n + 1
    f = tuple(i + step if p_tot else -1 for i, (_, p_tot, step) in enumerate(states))
    e = [-1] * len(f)
    for i, j in enumerate(f):
        if j >= 0:
            e[j] = i
    return (f, tuple(e), tuple(e_tot for e_tot, _, _ in states),
            tuple(p_tot for _, p_tot, _ in states))


def _image(w: TensorWord, column: int):
    """The word that an index column of the table (0 for f, 1 for e) names at w; None for -1."""
    shape = w.shape
    j = _table(shape)[column][word_index(w)]
    return _word(shape, j) if j >= 0 else None


def eps(w: TensorWord) -> int:
    return _table(w.shape)[2][word_index(w)]


def phi(w: TensorWord) -> int:
    return _table(w.shape)[3][word_index(w)]


def tensor_f(w: TensorWord):
    """Lowering operator on a tensor word; None when it annihilates.

    f lowers the factor holding the leftmost uncancelled plus sign.
    """
    return _image(w, 0)


def tensor_e(w: TensorWord):
    """Raising operator on a tensor word; None when it annihilates.

    e raises the factor holding the rightmost uncancelled minus sign.
    """
    return _image(w, 1)


class Component(Record):
    """A connected component: a chain from its source element."""

    __slots__ = ("highest_weight", "source", "elements")  # source, f(source), f^2(source), ...


def decompose(shape):
    """Connected components of a shape, largest highest weight first.

    Each component is the f-chain grown from a source (an element killed
    by e); the partition property is asserted.  For a two-factor shape
    the multiset of highest weights is the ladder
    m+n, m+n-2, ..., |m-n|, each once.
    """
    shape = _shape(shape)
    return tuple(_component(shape, hw, chain) for hw, chain in _chains(shape))


def _component(shape, hw, chain) -> Component:
    elements = tuple(_word(shape, i) for i in chain)
    return Component(hw, elements[0], elements)


@lru_cache(maxsize=None)
def _chains(shape):
    """decompose on word indices: (highest weight, f-chain of indices) pairs."""
    f, _, eps_, phi_ = _table(shape)
    chains = []
    # the sources are the words e kills (eps 0), so a source's weight phi - eps is phi
    for src in sorted((i for i, e in enumerate(eps_) if not e), key=lambda i: -phi_[i]):
        chain = [src]
        while f[chain[-1]] >= 0:
            chain.append(f[chain[-1]])
        if len(chain) != phi_[src] + 1:
            raise CrystalInvariantError(
                f"component of {_word(shape, src)} is not a chain of length {phi_[src] + 1}")
        chains.append((phi_[src], tuple(chain)))
    covered = [i for _, chain in chains for i in chain]
    if len(covered) != len(f) or len(set(covered)) != len(f):
        counts = Counter(covered)
        off = next(i for i in range(len(f)) if counts[i] != 1)  # covered twice or missed
        raise CrystalInvariantError(
            f"components do not partition the words of {shape}: {_word(shape, off)}")
    return tuple(chains)


def component_of(w: TensorWord) -> Component:
    shape, i = w.shape, word_index(w)
    return next(_component(shape, hw, chain) for hw, chain in _chains(shape) if i in chain)


class CrystalMap(Record):
    """A bijective word -> word table between two shapes, checked when built.

    Stored as index, the word_index of the image of each domain word, in
    the order of words(domain); words are named only when the map is read.
    Composition, inverses and pointwise equality are available, plus a
    checker for the crystal morphism conditions (commuting with e and f,
    preserving wt, eps and phi).
    """

    __slots__ = ("domain", "codomain", "index")

    def __init__(self, domain, codomain, index):
        domain, codomain, index = _shape(domain), _shape(codomain), tuple(index)
        if len(index) != _size(domain) or -1 in index:
            raise ValueError("table is not total on the domain shape")
        if {*map(type, index)} != {int}:
            raise TypeError(f"a crystal map's index holds ints: {index!r}")
        size = _size(codomain)
        if len(index) != size or set(index) != set(range(size)):
            raise ValueError("table is not a bijection onto the codomain shape")
        for name, value in zip(self.__slots__, (domain, codomain, index)):
            object.__setattr__(self, name, value)

    def __call__(self, w: TensorWord) -> TensorWord:
        if not isinstance(w, TensorWord):
            raise TypeError(f"a crystal map acts on tensor words, not on {type(w).__name__}")
        if w.shape != self.domain:
            raise KeyError(w)
        return _word(self.codomain, self.index[word_index(w)])

    def items(self):
        return [(_word(self.domain, i), _word(self.codomain, j)) for i, j in enumerate(self.index)]

    @classmethod
    def identity(cls, shape) -> "CrystalMap":
        shape = _shape(shape)
        return cls(shape, shape, range(_size(shape)))

    def compose(self, other: "CrystalMap") -> "CrystalMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("shapes do not compose")
        return CrystalMap(other.domain, self.codomain, [self.index[j] for j in other.index])

    def inverse(self) -> "CrystalMap":
        index = [0] * len(self.index)
        for i, j in enumerate(self.index):
            index[j] = i
        return CrystalMap(self.codomain, self.domain, index)

    def is_identity(self) -> bool:
        return self.domain == self.codomain and self.index == tuple(range(len(self.index)))

    def morphism_failures(self):
        """(w, reason) for each word w, in word order, violating the crystal
        morphism conditions: "statistics" (eps and phi, so also wt), else
        "f", else "e"; compared by index, and only the failures are named."""
        f, e, eps_, phi_ = _table(self.domain)
        f_cod, e_cod, eps_cod, phi_cod = _table(self.codomain)
        image = self.index + (-1,)  # annihilated goes to annihilated
        bad = []
        for i, j in enumerate(self.index):
            if eps_[i] != eps_cod[j] or phi_[i] != phi_cod[j]:
                bad.append((i, "statistics"))
            elif image[f[i]] != f_cod[j]:
                bad.append((i, "f"))
            elif image[e[i]] != e_cod[j]:
                bad.append((i, "e"))
        return [(_word(self.domain, i), reason) for i, reason in bad]

    def is_isomorphism(self) -> bool:
        return not self.morphism_failures()

    def to_json(self) -> str:
        dom, cod = _names(self.domain), _names(self.codomain)
        return json.dumps(
            {
                "domain_shape": list(self.domain),
                "codomain_shape": list(self.codomain),
                "map": {name: cod[j] for name, j in zip(dom, self.index)},
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "CrystalMap":
        """The map to_json wrote; any other JSON raises ValueError naming the field."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a crystal map is a JSON object")
        shapes = []
        for key in ("domain_shape", "codomain_shape"):
            try:
                shapes.append(_shape(data.get(key)))
            except TypeError:
                raise ValueError(f"'{key}' must be a list of ints, got {data.get(key)!r}") from None
        (dom, cod), table = shapes, data.get("map")
        if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
            raise ValueError("'map' must be an object from word names to word names")
        names = _names(dom)
        if table.keys() != set(names):
            raise ValueError(f"the map's keys are not the words of shape {dom}")
        spot = {name: j for j, name in enumerate(_names(cod))}
        # a value outside the codomain gets an index past its end
        return cls(dom, cod, [spot.get(table[name], len(spot)) for name in names])

    def __repr__(self):
        return f"CrystalMap({self.domain} -> {self.codomain}, {len(self.index)} words)"


def _built(domain, codomain, index) -> CrystalMap:
    """The CrystalMap of a table this module computed.

    The shapes are valid and the table is the module's own, so a table
    that fails the map's checks is a broken invariant, not bad input.
    """
    try:
        return CrystalMap(domain, codomain, index)
    except (TypeError, ValueError) as exc:
        raise CrystalInvariantError(f"the table built for {domain} -> {codomain}: {exc}") from None


def extend_map(m: CrystalMap, left, right) -> CrystalMap:
    """id (x) m (x) id on the shape left + m.domain + right, carried by word index."""
    left, right = tuple(left), tuple(right)
    dom = _shape(left + m.domain + right)  # an empty pad is no fault
    indices = range(_size(dom))
    return _built(dom, left + m.codomain + right, _on_slice(indices, dom, len(left), m, indices))


def schutzenberger(shape) -> CrystalMap:
    """The chain-reversing involution xi of a shape.

    On a component of highest weight m the element at depth d goes to
    the element at depth m-d; this negates weights and swaps e with f,
    which forces the map on every chain.
    """
    shape = _shape(shape)
    index = [0] * _size(shape)
    for _, chain in _chains(shape):
        for i, j in zip(chain, reversed(chain)):
            index[i] = j
    return _built(shape, shape, index)


def commutor_S(shape_a, shape_b) -> CrystalMap:
    """The commutor built from the involution xi:
    a (x) b  |->  xi(xi(b) (x) xi(a))."""
    shape_a, shape_b = _shape(shape_a), _shape(shape_b)
    xi_a = schutzenberger(shape_a).index
    xi_b = schutzenberger(shape_b).index
    xi_ba = schutzenberger(shape_b + shape_a).index
    size_a, size_b = len(xi_a), len(xi_b)
    # word i is a (x) b with a = i % size_a and b = i // size_a
    index = [xi_ba[xi_b[i // size_a] + size_b * xi_a[i % size_a]] for i in range(size_a * size_b)]
    return _built(shape_a + shape_b, shape_b + shape_a, index)


def commutor_c(shape_a, shape_b) -> CrystalMap:
    """The crystal commutor A (x) B -> B (x) A.

    B(lam) (x) B(mu) has one component of each weight lam+mu, lam+mu-2, ...,
    |lam-mu|, and a chain has no automorphism but the identity, so on two
    chains the commutor is the unique isomorphism, cached by (lam, mu).  It
    is natural, so on any shapes it is assembled from the component chains
    (lam, ca) of A and (mu, cb) of B: ca[d] (x) cb[d'] goes to cb[e] (x) ca[e']
    for (e, e') the image of (d, d').  The definition through highest weight
    words is the reference in the tests' crystal oracle.
    """
    shape_a, shape_b = _shape(shape_a), _shape(shape_b)
    if len(shape_a) == len(shape_b) == 1:
        return _chain_commutor(*shape_a, *shape_b)
    chains_a, chains_b = _chains(shape_a), _chains(shape_b)
    size_a, size_b = _size(shape_a), _size(shape_b)
    index = [-1] * (size_a * size_b)
    for lam, ca in chains_a:
        for mu, cb in chains_b:
            # word i of (lam, mu) and word j of (mu, lam), first factor fastest
            sources = [x + size_a * y for y in cb for x in ca]
            targets = [x + size_b * y for y in ca for x in cb]
            for i, j in zip(sources, _chain_commutor(lam, mu).index):
                index[i] = targets[j]
    return _built(shape_a + shape_b, shape_b + shape_a, index)


@lru_cache(maxsize=None)
def _chain_commutor(lam, mu) -> CrystalMap:
    """The commutor of B(lam) (x) B(mu): the unique isomorphism onto B(mu) (x) B(lam)."""
    ladder = list(range(lam + mu, abs(lam - mu) - 1, -2))
    for shape in ((lam, mu), (mu, lam)):
        if (found := [hw for hw, _ in _chains(shape)]) != ladder:
            raise CrystalInvariantError(
                f"the components of {shape} have highest weights {found}, not {ladder}")
    return unique_component_isomorphism((lam, mu), (mu, lam))


def _on_slice(indices, shape, start, sigma, points, shift=0):
    """Carry point numbers of a shape through sigma on its factors from start on.

    A point numbers a word of the shape: the first number of the shape's
    block, a multiple of its size, plus the word_index, first factor
    fastest.  The factors before the slice give the number modulo lo,
    their number of words, and the slice gives the next digit.  Sigma
    moves a word whose slice has index m in its domain by lo * (sigma's
    image index of m - m), and shift moves it on from the shape's block to
    that of the shape sigma leaves; the number it reaches is read from
    points, so the result holds the ints of points, not new ones.  The
    words themselves are never built.
    """
    lo = _size(shape[:start])
    delta = [shift + lo * (j - m) for m, j in enumerate(sigma.index)]
    size = len(delta)
    return [points[i + delta[i // lo % size]] for i in indices]


def cactus_action(shape, p: int, q: int) -> CrystalMap:
    """The action of the cactus generator s(p,q) on a shape.

    s(p,p) is the identity and s(p,q) is the commutor of factor p against
    the block p+1..q, composed with s(p+1,q).  Unrolled, that is the
    commutors of factor r against the block r+1..q, applied for
    r = q-1 down to p, each on the shape the previous one left; every
    word is carried through them in turn, by its index, and is named
    only when read.  The result reverses the interval p..q of the shape.
    """
    shape = _shape(shape)
    for n in (p, q):
        if type(n) is not int:
            raise TypeError(f"cactus generators take int indices, got {n!r}")
    k = len(shape)
    if not 1 <= p <= q <= k:
        raise ValueError(f"need 1 <= p <= q <= {k}, got ({p},{q})")
    # every shape numbers its words from 0: a point is its word_index
    _, cur, indices = next(islice(_walk(shape, q, range(_size(shape)), lambda s: 0), q - p, None))
    return _built(shape, cur, indices)


def _walk(shape, q, points, first):
    """(p, codomain, image numbers) of s(p,q) on a shape, for p = q down to 1.

    A word of a shape s is numbered first(s) + its word_index, and
    points[x] is x; the images hold the ints of points.  Each step
    commutes factor p against the block p+1..q of the shape the step
    before left, and moves each word into the block of the shape it
    lands on, so the whole chain of s(p,q) for one q costs q-1 commutor
    applications, each read from _walk_step.
    """
    cur, start = shape, first(shape)
    indices = points[start:start + _size(shape)]
    yield q, cur, indices
    for r in range(q - 1, 0, -1):
        sigma = _walk_step(cur[r - 1], cur[r:q])
        new = cur[: r - 1] + sigma.codomain + cur[q:]
        try:
            indices = _on_slice(indices, cur, r - 1, sigma, points, first(new) - first(cur))
        except (KeyError, IndexError):  # a shape with no block, or a number past the points
            raise CrystalInvariantError(f"s({r},{q}) on shape {shape} carries words "
                                        f"outside the numbered points, onto shape {new}")
        cur = new
        yield r, cur, indices


@lru_cache(maxsize=None)
def _walk_step(lam, block) -> CrystalMap:
    """The commutor of B(lam) against a block, one step of a cactus walk.

    The walks of every orbit shape and q meet the same few (factor, block)
    pairs again and again, so each step is built once, through the public
    commutor_c; a caller who replaces commutor_c clears this cache.
    """
    return commutor_c((lam,), block)


def cactus_generator_images(base_shape):
    """Every s(p,q) on all reorderings of a shape, as the relation verifier takes it.

    The domain is the disjoint union of the words of every distinct
    permutation of the base shape, so the images compose.  Its points are
    numbered by orbit position * size + word_index; returns (name,
    {(p, q): list of image numbers}), name(x) being the word numbered x.
    One walk per orbit shape and q gives every s(p,q), already in that
    numbering: each image list is extended by the walk's own lists, whose
    entries are the ints of one list of the orbit's numbers.  Each step
    must land on the shape with p..q reversed, and the images are checked
    for invertibility by their verifier, not here.  The relations alone
    would pass a shifted action, which is itself an action of the cactus
    group.
    """
    base_shape = _shape(base_shape)
    orbit = _reorderings(tuple(sorted(base_shape)))
    size, k = _size(base_shape), len(base_shape)
    offset = {s: i * size for i, s in enumerate(orbit)}
    points = list(range(len(orbit) * size))
    images = {(p, q): [] for p in range(1, k + 1) for q in range(p + 1, k + 1)}
    for s in orbit:
        for q in range(2, k + 1):
            for p, cur, indices in islice(_walk(s, q, points, offset.__getitem__), 1, None):
                want = s[: p - 1] + s[p - 1:q][::-1] + s[q:]
                if cur != want:
                    raise CrystalInvariantError(
                        f"s({p},{q}) on shape {s} lands on shape {cur}, not {want}")
                images[(p, q)] += indices
    return (lambda x: _word(orbit[x // size], x % size)), images


def _reorderings(shape):
    """The distinct reorderings of a sorted shape, in sorted order; () has one."""
    return [(n,) + rest for i, n in enumerate(shape) if not i or shape[i - 1] != n
            for rest in _reorderings(shape[:i] + shape[i + 1:])] if len(shape) > 1 else [shape]


def unique_component_isomorphism(shape_a, shape_b) -> CrystalMap:
    """The unique component-preserving isomorphism between two shapes.

    Exists iff both decompositions are multiplicity-free with matching
    highest weights; otherwise a ValueError explains which weight fails.
    """
    shape_a, shape_b = _shape(shape_a), _shape(shape_b)
    chains_a, chains_b = _chains(shape_a), _chains(shape_b)
    hws_a, hws_b = Counter(hw for hw, _ in chains_a), Counter(hw for hw, _ in chains_b)
    if hws_a.keys() != hws_b.keys():
        raise ValueError(f"shapes {shape_a} and {shape_b} are not isomorphic")
    for hw in hws_a:
        if hws_a[hw] != 1 or hws_b[hw] != 1:
            raise ValueError(f"highest weight {hw} occurs with multiplicity; no unique isomorphism")
    chain_b = dict(chains_b)
    index = [0] * _size(shape_a)
    for hw, chain in chains_a:
        for i, j in zip(chain, chain_b[hw]):
            index[i] = j
    return _built(shape_a, shape_b, index)


# -- coboundary checks -------------------------------------------------------

def involutivity_failures(forward: CrystalMap, backward: CrystalMap):
    """(w, backward(forward(w))) for each word w, in word order, that it does
    not fix; compared by index, and only the failures are named."""
    return [(_word(forward.domain, i), _word(backward.codomain, j))
            for i, j in _involution_misses(forward, backward)]


def _involution_misses(forward, backward):
    """involutivity_failures on word indices: (i, index of backward(forward(i)))."""
    if backward.domain != forward.codomain:
        raise KeyError(_word(forward.codomain, forward.index[0]))  # as backward(v) would
    back, home = backward.index, backward.codomain == forward.domain
    return [(i, back[j]) for i, j in enumerate(forward.index) if back[j] != i or not home]


def cactus_square_failures(shape_a, shape_b, shape_c):
    """Witnesses violating the compatibility square on A (x) B (x) C.

    Each word is carried by its index through the two routes, one
    commutor at a time:
        A B C -> A C B -> C B A   (swap B,C inside, then A across C B)
        A B C -> B A C -> C B A   (swap A,B, then B A across C)
    and the two images must agree; only the witnesses are named.
    """
    a, b, c = _shape(shape_a), _shape(shape_b), _shape(shape_c)
    return [(_word(a + b + c, i), _word(c + b + a, l), _word(c + b + a, r))
            for i, l, r in _square_misses(a, b, c)]


def _square_misses(a, b, c):
    """cactus_square_failures on word indices: (i, left image, right image)."""
    # built in this order, so that a broken invariant names the same word
    outer_l, inner_l = commutor_c(a, c + b), commutor_c(b, c)
    outer_r, inner_r = commutor_c(b + a, c), commutor_c(a, b)
    points = list(range(_size(a + b + c)))  # every shape numbers its words from 0
    lhs = _on_slice(points, a + b + c, len(a), inner_l, points)
    lhs = _on_slice(lhs, a + c + b, 0, outer_l, points)
    rhs = _on_slice(points, a + b + c, 0, inner_r, points)
    rhs = _on_slice(rhs, b + a + c, 0, outer_r, points)
    # both routes share _on_slice, so a fault of it that both see cancels in the
    # comparison; a route that merges two words shows it on its own
    if len(set(lhs)) != len(lhs):
        raise CrystalInvariantError(f"the cactus square on {a} (x) {b} (x) {c} is not a bijection")
    return [(i, l, r) for i, l, r in zip(points, lhs, rhs) if l != r]


class CoboundaryReport(Record):
    __slots__ = ("triples_checked", "failures")

    @property
    def ok(self) -> bool:
        # a check over no triples proves nothing
        return self.triples_checked > 0 and not self.failures

    def as_dict(self):
        return {
            "triples_checked": self.triples_checked,
            "failures": [
                {
                    "triple": [list(t) for t in f[0]],
                    "law": f[1],
                    "witness": str(f[2]),
                }
                for f in self.failures
            ],
        }


def check_coboundary(triples) -> CoboundaryReport:
    """Verify the two coboundary axioms on a list of shape triples.

    For every triple (A, B, C): the commutor of (A, B) composed with its
    reverse is the identity, and the square on A (x) B (x) C commutes,
    pointwise over all words; once per pair of single chains, commutor_S
    equals commutor_c ("sigma-S").  Only each failure's witness is named.
    """
    failures = []
    count = 0
    pairs = set()
    for a, b, c in triples:
        a, b, c = _shape(a), _shape(b), _shape(c)
        count += 1
        for i, _ in _involution_misses(commutor_c(a, b), commutor_c(b, a)):
            failures.append(((a, b, c), "involution", _word(a + b, i)))
        if len(a) == len(b) == 1 and (a, b) not in pairs:  # commutor_c(a, b) is cached
            pairs.add((a, b))
            pair_maps = zip(commutor_S(a, b).index, commutor_c(a, b).index)
            differ = [i for i, (via_xi, j) in enumerate(pair_maps) if via_xi != j]
            failures += [((a, b, c), "sigma-S", _word(a + b, i)) for i in differ[:1]]
        for i, _l, _r in _square_misses(a, b, c):
            failures.append(((a, b, c), "cactus-square", _word(a + b + c, i)))
    return CoboundaryReport(count, tuple(failures))


def weight_bounded_triples(max_weight: int):
    """All triples of single chains with highest weights up to the bound."""
    rng = range(max_weight + 1)
    return [((a,), (b,), (c,)) for a in rng for b in rng for c in rng]


# -- the braiding obstruction ------------------------------------------------

class ObstructionWitness(Record):
    """Record of the mechanical proof that chains admit no braiding: sigma(b1 (x) b0),
    and the values naturality and the hexagon force on the first word where they differ."""

    __slots__ = ("sigma_11_identity", "sigma_12_value", "probe", "forced", "hexagon", "distinct")

    def as_dict(self):
        return {
            "sigma_11_identity": self.sigma_11_identity,
            "sigma_12(b1⊗b0)": str(self.sigma_12_value),
            "probe": str(self.probe),
            "forced": str(self.forced),
            "hexagon": str(self.hexagon),
            "obstruction_confirmed": self.distinct,
        }


def braiding_obstruction() -> ObstructionWitness:
    """Reconstruct the contradiction ruling out a braiding on chains.

    Any braiding is the unique isomorphism on two chains (the identity on
    (1,1), and b1 (x) b0 |-> b2 (x) b-1 on (1,2)) and natural, so on
    (1) (x) (1,1) it is their assembly over the components of (1,1):
    commutor_c.  The hexagon forces (id (x) sigma11)(sigma11 (x) id)
    instead, carried by word index; the probe is the first word where the
    two differ, or word 0, unconfirmed, if none does.
    """
    sigma11 = unique_component_isomorphism((1, 1), (1, 1))
    sigma12 = unique_component_isomorphism((1, 2), (2, 1))
    shape, points = (1, 1, 1), range(8)
    forced = commutor_c((1,), (1, 1)).index
    hexagon = _on_slice(_on_slice(points, shape, 0, sigma11, points), shape, 1, sigma11, points)
    probe = next((i for i in points if forced[i] != hexagon[i]), 0)
    return ObstructionWitness(
        sigma_11_identity=sigma11.is_identity(),
        sigma_12_value=sigma12(TensorWord.from_weights((1, 2), (1, 0))),
        probe=_word(shape, probe),
        forced=_word(shape, forced[probe]),
        hexagon=_word(shape, hexagon[probe]),
        distinct=forced[probe] != hexagon[probe],
    )


# -- DOT output ---------------------------------------------------------------

def crystal_dot(shape) -> str:
    """Graphviz source for the crystal graph of a shape.

    One node per word, one edge per f-transition, components grouped as
    clusters; node names are the literal word strings so outputs diff
    cleanly.
    """
    shape = _shape(shape)
    chains = _chains(shape)
    names = _names(shape)
    lines = ["digraph crystal {", "  rankdir=LR;"]
    for ci, (hw, chain) in enumerate(chains):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="component {ci} (highest weight {hw})";')
        lines += [f'    "{names[i]}";' for i in chain]
        lines.append("  }")
    lines += [f'  "{name}" -> "{names[j]}";' for name, j in zip(names, _table(shape)[0]) if j >= 0]
    lines.append("}")
    return "\n".join(lines) + "\n"
