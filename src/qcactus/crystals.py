"""sl2 crystals, their tensor products, and the two crystal commutors.

The basic crystal of highest weight n is the chain

    b_n -> b_(n-2) -> ... -> b_(-n)

with the lowering operator f moving right, the raising operator e moving
left, and the statistics wt(b_j) = j, eps(b_j) = (n-j)/2,
phi(b_j) = (n+j)/2.  A tensor product of chains is a flat word of chain
elements -- no bracketing is stored, which realizes the monoidal
structure strictly -- and the operators act through the signature
rule: one left-to-right pass that brackets the minus and plus signs of
the factors.

On top of that combinatorics this module builds:

  * connected-component decomposition of any shape,
  * the chain-reversing involution xi and the commutor it induces,
  * the commutor defined through highest weight elements,
  * the action of the cactus generators s(p,q),
  * checkers for the coboundary axioms, and
  * the mechanical reconstruction of the braiding obstruction.

Annihilation by e or f is the value None, never an error; crystal maps
are plain word -> word tables.  Everything is immutable after
construction.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import product
import json
import re

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


class CrystalInvariantError(RuntimeError):
    """An internal invariant of the crystal combinatorics failed.

    Raised when a decomposition is not a partition into chains or a
    commutor chain does not match its source; the message names the
    offending word.  It signals a failed verification, not bad input.
    """


# Interning tables: every distinct chain element and tensor word is one
# object, so equality is identity and a dict lookup costs one cached hash.
# setdefault makes racing constructors agree on the stored object.
_CHAIN_ELEMENTS = {}
_TENSOR_WORDS = {}


def _immutable(self, *args):
    raise AttributeError(f"{type(self).__name__} is immutable")


@total_ordering
class ChainElement:
    """Element b_j of the chain crystal of highest weight n.

    Interned: ChainElement(n, j) returns the one object for (n, j), so
    equality is identity.  The hash is hash((n, j)), computed once.
    """

    __slots__ = ("n", "j", "eps", "phi", "_hash")

    def __new__(cls, n: int, j: int):
        try:
            return _CHAIN_ELEMENTS[(n, j)]
        except KeyError:
            pass
        if n < 0:
            raise ValueError("highest weight must be nonnegative")
        if abs(j) > n or (n - j) % 2:
            raise ValueError(f"b_{j} does not lie in the chain of weight {n}")
        self = object.__new__(cls)
        init = object.__setattr__
        init(self, "n", n)
        init(self, "j", j)
        init(self, "eps", (n - j) // 2)
        init(self, "phi", (n + j) // 2)
        init(self, "_hash", hash((n, j)))
        return _CHAIN_ELEMENTS.setdefault((n, j), self)

    __setattr__ = __delattr__ = _immutable

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return ChainElement, (self.n, self.j)

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

    def __str__(self):
        return f"b{self.j}"

    def __repr__(self):
        return f"ChainElement(n={self.n!r}, j={self.j!r})"


def chain_crystal(n: int):
    """The chain of highest weight n, from b_n down to b_(-n)."""
    return [ChainElement(n, n - 2 * i) for i in range(n + 1)]


class TensorWord:
    """A flat tensor word of chain elements.

    The shape is the tuple of factor highest weights; tensoring shapes is
    concatenation, so associativity holds on the nose.  Interned like
    ChainElement, keyed by the factors tuple; the hash is
    hash((factors,)), computed once.
    """

    __slots__ = ("factors", "_hash")

    def __new__(cls, factors: tuple):
        try:
            return _TENSOR_WORDS[factors]
        except KeyError:
            pass
        if not factors:
            raise ValueError("tensor words must have at least one factor")
        self = object.__new__(cls)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_hash", hash((factors,)))
        return _TENSOR_WORDS.setdefault(factors, self)

    __setattr__ = __delattr__ = _immutable

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return TensorWord, (self.factors,)

    def __repr__(self):
        return f"TensorWord(factors={self.factors!r})"

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
        return cls(tuple(ChainElement(n, j) for n, j in zip(shape, js)))

    @classmethod
    def parse(cls, text: str, shape) -> "TensorWord":
        parts = text.split("⊗")
        if len(parts) != len(shape):
            raise ValueError(f"word {text!r} does not match shape {shape}")
        js = []
        for part in parts:
            m = re.fullmatch(r"b(-?\d+)", part.strip())
            if not m:
                raise ValueError(f"bad word component {part!r}")
            js.append(int(m.group(1)))
        return cls.from_weights(shape, js)


def words(shape):
    """All tensor words of a shape, in the canonical frame order.

    Enumeration runs through depth tuples with the *last* factor slowest
    and the first fastest; within each factor, depth 0 is the top of the
    chain.  The same order indexes the product bases of the symbolic
    modules, which keeps crystal words and matrix rows aligned.  Each
    shape is enumerated once; every call returns a fresh list.
    """
    return list(_words(tuple(shape)))


@lru_cache(maxsize=None)
def _words(shape):
    chains = [chain_crystal(n) for n in shape]
    return tuple(
        TensorWord(tuple(chains[t][d] for t, d in enumerate(reversed(rev))))
        for rev in product(*[range(n + 1) for n in reversed(shape)])
    )


@lru_cache(maxsize=None)
def _word_set(shape):
    return frozenset(_words(shape))


def word_index(w: TensorWord) -> int:
    """Position of a word in the canonical enumeration of its shape."""
    idx = 0
    for b in reversed(w.factors):
        idx = idx * (b.n + 1) + b.eps
    return idx


def wt(w: TensorWord) -> int:
    return sum(b.wt for b in w.factors)


def _signature(w: TensorWord):
    """One bracketing pass over the signature of a word.

    Each factor b contributes eps(b) minus signs, then phi(b) plus signs,
    and each minus cancels the nearest uncancelled plus to its left.
    Returns (eps, phi, i_e, i_f): the numbers of uncancelled minus and
    plus signs, the factor holding the rightmost uncancelled minus (where
    e acts) and the factor holding the leftmost uncancelled plus (where f
    acts).  An index means something only when its count is positive.
    """
    e_tot = p_tot = i_e = i_f = 0
    for i, b in enumerate(w.factors):
        if b.eps > p_tot:
            e_tot += b.eps - p_tot
            i_e = i
        p_tot = max(p_tot - b.eps, 0)
        if not p_tot:  # every earlier plus is cancelled
            i_f = i
        p_tot += b.phi
    return e_tot, p_tot, i_e, i_f


def eps(w: TensorWord) -> int:
    return _signature(w)[0]


def phi(w: TensorWord) -> int:
    return _signature(w)[1]


def tensor_f(w: TensorWord):
    """Lowering operator on a tensor word; None when it annihilates.

    f lowers the factor holding the leftmost uncancelled plus sign.
    """
    _, p_tot, _, i = _signature(w)
    if not p_tot:
        return None
    fs = w.factors
    return TensorWord(fs[:i] + (fs[i].f(),) + fs[i + 1:])


def tensor_e(w: TensorWord):
    """Raising operator on a tensor word; None when it annihilates.

    e raises the factor holding the rightmost uncancelled minus sign.
    """
    e_tot, _, i, _ = _signature(w)
    if not e_tot:
        return None
    fs = w.factors
    return TensorWord(fs[:i] + (fs[i].e(),) + fs[i + 1:])


@dataclass(frozen=True)
class Component:
    """A connected component: a chain from its source element."""

    highest_weight: int
    source: TensorWord
    elements: tuple  # source, f(source), f^2(source), ...


def decompose(shape):
    """Connected components of a shape, largest highest weight first.

    Each component is the f-chain grown from a source (an element killed
    by e); the partition property is asserted.  For a two-factor shape
    the multiset of highest weights is the ladder
    m+n, m+n-2, ..., |m-n|, each once.
    """
    return _decompose(tuple(shape))


@lru_cache(maxsize=None)
def _decompose(shape):
    all_words = _words(shape)
    sources = [w for w in all_words if tensor_e(w) is None]
    comps = []
    for src in sorted(sources, key=lambda w: (-wt(w), word_index(w))):
        elems = [src]
        cur = src
        while True:
            cur = tensor_f(cur)
            if cur is None:
                break
            elems.append(cur)
        hw = wt(src)
        if len(elems) != hw + 1:
            raise CrystalInvariantError(f"component of {src} is not a chain of length {hw + 1}")
        comps.append(Component(hw, src, tuple(elems)))
    covered, expected = Counter(w for c in comps for w in c.elements), Counter(all_words)
    off = (covered - expected) | (expected - covered)  # covered twice, missed, or foreign
    if off:
        raise CrystalInvariantError(
            f"components do not partition the words of {shape}: {next(iter(off))}")
    return tuple(comps)


@lru_cache(maxsize=None)
def _component_lookup(shape):
    return {w: comp for comp in decompose(shape) for w in comp.elements}


def component_of(w: TensorWord) -> Component:
    return _component_lookup(w.shape)[w]


class CrystalMap:
    """A bijective word -> word table between two shapes.

    Composition, inverses and pointwise equality are available, plus a
    checker for the crystal morphism conditions (commuting with e and f,
    preserving wt, eps and phi).
    """

    __slots__ = ("domain", "codomain", "_table")

    def __init__(self, domain, codomain, table: dict):
        object.__setattr__(self, "domain", tuple(domain))
        object.__setattr__(self, "codomain", tuple(codomain))
        if table.keys() != _word_set(self.domain):
            raise ValueError("table is not total on the domain shape")
        codomain = _word_set(self.codomain)
        if len(table) != len(codomain) or set(table.values()) != codomain:
            raise ValueError("table is not a bijection onto the codomain shape")
        object.__setattr__(self, "_table", dict(table))

    def __setattr__(self, name, value):
        raise AttributeError("CrystalMap is immutable")

    def __call__(self, w: TensorWord) -> TensorWord:
        return self._table[w]

    def items(self):
        return self._table.items()

    @classmethod
    def identity(cls, shape) -> "CrystalMap":
        return cls(shape, shape, {w: w for w in _words(shape)})

    def compose(self, other: "CrystalMap") -> "CrystalMap":
        """self after other."""
        if other.codomain != self.domain:
            raise ValueError("shapes do not compose")
        return CrystalMap(
            other.domain, self.codomain, {w: self(other(w)) for w, _ in other.items()}
        )

    def inverse(self) -> "CrystalMap":
        return CrystalMap(self.codomain, self.domain, {v: w for w, v in self.items()})

    def __eq__(self, other):
        if not isinstance(other, CrystalMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self._table == other._table
        )

    def __hash__(self):
        return hash((self.domain, self.codomain, frozenset(self._table.items())))

    def is_identity(self) -> bool:
        return self.domain == self.codomain and all(v == w for w, v in self.items())

    def morphism_failures(self):
        """Words violating the crystal morphism conditions."""
        bad = []
        for w, v in self.items():
            if wt(w) != wt(v) or eps(w) != eps(v) or phi(w) != phi(v):
                bad.append((w, "statistics"))
                continue
            fw, fv = tensor_f(w), tensor_f(v)
            if (fw is None) != (fv is None) or (fw is not None and self(fw) != fv):
                bad.append((w, "f"))
                continue
            ew, ev = tensor_e(w), tensor_e(v)
            if (ew is None) != (ev is None) or (ew is not None and self(ew) != ev):
                bad.append((w, "e"))
        return bad

    def is_isomorphism(self) -> bool:
        return not self.morphism_failures()

    def to_json(self) -> str:
        return json.dumps(
            {
                "domain_shape": list(self.domain),
                "codomain_shape": list(self.codomain),
                "map": {str(w): str(self(w)) for w in _words(self.domain)},
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "CrystalMap":
        data = json.loads(text)
        dom = tuple(data["domain_shape"])
        cod = tuple(data["codomain_shape"])
        table = {
            TensorWord.parse(k, dom): TensorWord.parse(v, cod)
            for k, v in data["map"].items()
        }
        return cls(dom, cod, table)

    def __repr__(self):
        return f"CrystalMap({self.domain} -> {self.codomain}, {len(self._table)} words)"


def extend_map(m: CrystalMap, left, right) -> CrystalMap:
    """id (x) m (x) id on the shape left + m.domain + right."""
    left, right = tuple(left), tuple(right)
    dom = left + m.domain + right
    cod = left + m.codomain + right
    k, l = len(left), len(m.domain)
    table = {}
    for w in _words(dom):
        mid = m(w.slice(k, k + l))
        table[w] = TensorWord(w.factors[:k] + mid.factors + w.factors[k + l:])
    return CrystalMap(dom, cod, table)


def schutzenberger(shape) -> CrystalMap:
    """The chain-reversing involution xi of a shape.

    On a component of highest weight m the element at depth d goes to
    the element at depth m-d; this negates weights and swaps e with f,
    which forces the map on every chain.
    """
    return _schutzenberger(tuple(shape))


@lru_cache(maxsize=None)
def _schutzenberger(shape) -> CrystalMap:
    table = {}
    for comp in decompose(shape):
        m = comp.highest_weight
        for d, w in enumerate(comp.elements):
            table[w] = comp.elements[m - d]
    return CrystalMap(shape, shape, table)


def commutor_S(shape_a, shape_b) -> CrystalMap:
    """The commutor built from the involution xi:
    a (x) b  |->  xi(xi(b) (x) xi(a))."""
    return _commutor_S(tuple(shape_a), tuple(shape_b))


@lru_cache(maxsize=None)
def _commutor_S(shape_a, shape_b) -> CrystalMap:
    xi_a = schutzenberger(shape_a)
    xi_b = schutzenberger(shape_b)
    xi_ba = schutzenberger(shape_b + shape_a)
    k = len(shape_a)
    table = {}
    for w in _words(shape_a + shape_b):
        a, b = w.slice(0, k), w.slice(k, len(w))
        swapped = TensorWord(xi_b(b).factors + xi_a(a).factors)
        table[w] = xi_ba(swapped)
    return CrystalMap(shape_a + shape_b, shape_b + shape_a, table)


def commutor_c(shape_a, shape_b) -> CrystalMap:
    """The commutor defined through highest weight elements.

    For chains of highest weights lam and mu, a source of the tensor
    product has the form b_lam (x) b with b at depth k <= min(lam, mu),
    and it is sent to b_mu (x) b*, with b* the element at depth k of the
    lam chain; the map then extends down each component by
    f-equivariance.
    Composite shapes are first split into components on both sides and
    the same rule is applied block by block.
    """
    return _commutor_c(tuple(shape_a), tuple(shape_b))


@lru_cache(maxsize=None)
def _commutor_c(shape_a, shape_b) -> CrystalMap:
    comps_a = decompose(shape_a)
    comps_b = decompose(shape_b)
    table = {}
    for ca in comps_a:
        lam = ca.highest_weight
        for cb in comps_b:
            mu = cb.highest_weight
            for k in range(min(lam, mu) + 1):
                b = cb.elements[k]
                # the star involution of the sl2 infinity crystal is the identity
                bstar = ca.elements[k]
                src = TensorWord(ca.source.factors + b.factors)
                dst = TensorWord(cb.source.factors + bstar.factors)
                if tensor_e(src) is not None:
                    raise CrystalInvariantError(f"{src} is not a highest weight word")
                cur_s, cur_d = src, dst
                while cur_s is not None:
                    table[cur_s] = cur_d
                    cur_s, cur_d = tensor_f(cur_s), tensor_f(cur_d)
                if cur_d is not None:
                    raise CrystalInvariantError(
                        f"the image chain of {src} is longer than its source chain")
    return CrystalMap(shape_a + shape_b, shape_b + shape_a, table)


def cactus_action(shape, p: int, q: int) -> CrystalMap:
    """The action of the cactus generator s(p,q) on a shape.

    s(p,p) is the identity and s(p,q) is the commutor of factor p against
    the block p+1..q, composed with s(p+1,q).  Unrolled, that is the
    commutors of factor r against the block r+1..q, applied for
    r = q-1 down to p, each on the shape the previous one left; every
    word is carried through them in turn.  The result reverses the
    interval p..q of the shape.
    """
    shape = tuple(shape)
    k = len(shape)
    if not 1 <= p <= q <= k:
        raise ValueError(f"need 1 <= p <= q <= {k}, got ({p},{q})")
    steps = []  # (start of the commuted slice, commutor on that slice)
    cur = shape
    for r in range(q - 1, p - 1, -1):
        sigma = commutor_c((cur[r - 1],), cur[r:q])
        steps.append((r - 1, sigma))
        cur = cur[: r - 1] + sigma.codomain + cur[q:]
    table = {}
    for w in _words(shape):
        fs = w.factors
        for start, sigma in steps:
            fs = fs[:start] + sigma(TensorWord(fs[start:q])).factors + fs[q:]
        table[w] = TensorWord(fs)
    return CrystalMap(shape, cur, table)


def cactus_generator_images(base_shape):
    """Finite maps realizing every s(p,q) on all reorderings of a shape.

    The domain is the disjoint union of the words of every distinct
    permutation of the base shape, so the images compose and can be fed
    straight to the relation verifier.
    """
    base_shape = tuple(base_shape)
    k = len(base_shape)
    orbit = sorted({perm for perm in product(*[set(base_shape)] * k)
                    if sorted(perm) == sorted(base_shape)})
    images = {}
    for p in range(1, k + 1):
        for q in range(p + 1, k + 1):
            table = {}
            for s in orbit:
                table.update(cactus_action(s, p, q).items())
            images[(p, q)] = table
    return images


def unique_component_isomorphism(shape_a, shape_b) -> CrystalMap:
    """The unique component-preserving isomorphism between two shapes.

    Exists iff both decompositions are multiplicity-free with matching
    highest weights; otherwise a ValueError explains which weight fails.
    """
    comps_a = decompose(tuple(shape_a))
    comps_b = decompose(tuple(shape_b))
    by_hw_a = {}
    by_hw_b = {}
    for c in comps_a:
        by_hw_a.setdefault(c.highest_weight, []).append(c)
    for c in comps_b:
        by_hw_b.setdefault(c.highest_weight, []).append(c)
    if set(by_hw_a) != set(by_hw_b):
        raise ValueError(f"shapes {tuple(shape_a)} and {tuple(shape_b)} are not isomorphic")
    table = {}
    for hw, group_a in by_hw_a.items():
        group_b = by_hw_b[hw]
        if len(group_a) != 1 or len(group_b) != 1:
            raise ValueError(f"highest weight {hw} occurs with multiplicity; no unique isomorphism")
        for w, v in zip(group_a[0].elements, group_b[0].elements):
            table[w] = v
    return CrystalMap(tuple(shape_a), tuple(shape_b), table)


# -- coboundary checks -------------------------------------------------------

def involutivity_failures(forward: CrystalMap, backward: CrystalMap):
    """Words where backward(forward(w)) != w."""
    out = []
    for w, v in forward.items():
        if backward(v) != w:
            out.append((w, backward(v)))
    return out


def cactus_square_failures(shape_a, shape_b, shape_c, commutor=commutor_c):
    """Witnesses violating the compatibility square on A (x) B (x) C.

    The two routes
        A B C -> A C B -> C B A   (swap B,C inside, then A across C B)
        A B C -> B A C -> C B A   (swap A,B, then B A across C)
    must agree pointwise.
    """
    shape_a, shape_b, shape_c = tuple(shape_a), tuple(shape_b), tuple(shape_c)
    lhs = commutor(shape_a, shape_c + shape_b).compose(
        extend_map(commutor(shape_b, shape_c), shape_a, ())
    )
    rhs = commutor(shape_b + shape_a, shape_c).compose(
        extend_map(commutor(shape_a, shape_b), (), shape_c)
    )
    out = []
    for w in _words(shape_a + shape_b + shape_c):
        if lhs(w) != rhs(w):
            out.append((w, lhs(w), rhs(w)))
    return out


@dataclass(frozen=True)
class CoboundaryReport:
    triples_checked: int
    failures: tuple

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

    For every triple (A, B, C) this checks that the commutor of (A, B)
    composed with its reverse is the identity, and that the square on
    A (x) B (x) C commutes, both pointwise over all words.
    """
    failures = []
    count = 0
    for a, b, c in triples:
        a, b, c = tuple(a), tuple(b), tuple(c)
        count += 1
        for w, v in involutivity_failures(commutor_c(a, b), commutor_c(b, a)):
            failures.append(((a, b, c), "involution", w))
        for w, _l, _r in cactus_square_failures(a, b, c):
            failures.append(((a, b, c), "cactus-square", w))
    return CoboundaryReport(count, tuple(failures))


def weight_bounded_triples(max_weight: int):
    """All triples of single chains with highest weights up to the bound."""
    rng = range(max_weight + 1)
    return [((a,), (b,), (c,)) for a in rng for b in rng for c in rng]


# -- the braiding obstruction ------------------------------------------------

@dataclass(frozen=True)
class ObstructionWitness:
    """Record of the mechanical proof that chains admit no braiding."""

    sigma_11_identity: bool
    sigma_12_value: TensorWord  # image of b1 (x) b0
    probe: TensorWord  # b1 (x) b-1 (x) b1
    forced: TensorWord  # value forced by naturality
    hexagon: TensorWord  # value forced by the hexagon composite
    distinct: bool

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

    Any braiding must be the unique isomorphism on (1,1) (the identity)
    and on (1,2); pushing b1 (x) b0 through the naturality square for the
    inclusion of the weight-2 component of (1,1) then forces one value of
    sigma on b1 (x) b-1 (x) b1, while the hexagon composite
    (id (x) sigma)(sigma (x) id) forces another.  The two values differ.
    """
    sigma11 = unique_component_isomorphism((1, 1), (1, 1))
    sigma12 = unique_component_isomorphism((1, 2), (2, 1))

    b1 = ChainElement(1, 1)
    x = sigma12(TensorWord((b1, ChainElement(2, 0))))  # = b2 (x) b-1

    # inclusion j of the weight-2 chain into (1,1): depth d  |->  element d
    comp2 = next(c for c in decompose((1, 1)) if c.highest_weight == 2)
    j = {ChainElement(2, 2 - 2 * d): comp2.elements[d] for d in range(3)}

    probe = TensorWord((b1,) + j[ChainElement(2, 0)].factors)  # b1 (x) b-1 (x) b1
    forced = TensorWord(j[x.factors[0]].factors + x.factors[1:])

    hexagon_map = extend_map(sigma11, (1,), ()).compose(extend_map(sigma11, (), (1,)))
    hexagon = hexagon_map(probe)

    return ObstructionWitness(
        sigma_11_identity=sigma11.is_identity(),
        sigma_12_value=x,
        probe=probe,
        forced=forced,
        hexagon=hexagon,
        distinct=forced != hexagon,
    )


# -- DOT output ---------------------------------------------------------------

def crystal_dot(shape) -> str:
    """Graphviz source for the crystal graph of a shape.

    One node per word, one edge per f-transition, components grouped as
    clusters; node names are the literal word strings so outputs diff
    cleanly.
    """
    shape = tuple(shape)
    lines = ["digraph crystal {", "  rankdir=LR;"]
    for ci, comp in enumerate(decompose(shape)):
        lines.append(f"  subgraph cluster_{ci} {{")
        lines.append(f'    label="component {ci} (highest weight {comp.highest_weight})";')
        for w in comp.elements:
            lines.append(f'    "{w}";')
        lines.append("  }")
    for w in _words(shape):
        fw = tensor_f(w)
        if fw is not None:
            lines.append(f'  "{w}" -> "{fw}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
