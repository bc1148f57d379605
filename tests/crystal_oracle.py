"""Test-only oracle: the tensor rule as a left fold, the cactus action by recursion and evacuation.

These are the straightforward definitions that ``qcactus.crystals`` is
checked against.  The tensor rule here treats the first k-1 factors of a
word as one left factor with aggregate eps/phi and recurses on that
prefix; it shares no code with the library's per-shape table (one
signature pass over all words of a shape), which every library
operator reads, the per-word ones included.  The
decomposition and the commutor here grow f-chains word by word with that
tensor rule, against which the library's walks over word indices are
compared.  The cactus action here is the defining recursion
s(p,q) = (id (x) sigma (x) id) . s(p+1,q), built from whole crystal maps,
against which the library's unrolled loop is compared.  The cactus
square here composes whole crystal maps for its two routes, against
which the library's word-by-word check is compared.  Involutivity here
names every word and its image, against which the library's comparison
of word indices is compared.  The words of a shape here are decoded one
index at a time from its mixed-radix digits, against which the
library's enumeration and its names of the words are compared.  The
maps built here are indexed through those decoded words, not through
the library's word_index.

The evacuation route is a second oracle for the whole cactus action, and
reads none of the commutors.  A highest-weight word of B(1)^(x n) is a
ballot sequence, a standard tableau of at most two rows with entry i in
row 1 for b1 and in row 2 for b-1, and on such words s(1,q) is
Schützenberger's evacuation of the entries 1..q, by jeu de taquin
(Henriques-Kamnitzer, "Crystals and coboundary categories",
arXiv:math/0406478).  Every other generator follows, as
s(p,q) = s(1,q) s(1,q-p+1) s(1,q); another word is raised to its source
with this module's tensor_e, acted on, and lowered back as many steps
with tensor_f; and a shape reaches B(1)^(x n) through B(a) -> B(1)^(x a)
onto the top component, each block re-reversed afterwards.
"""

from collections import Counter
from functools import lru_cache
from math import prod

from qcactus.crystals import (
    ChainElement,
    Component,
    CrystalInvariantError,
    CrystalMap,
    TensorWord,
    commutor_c,
    word_index,
    wt,
)


def words(shape):
    """The words of a shape by index: digit t of the index, first factor
    fastest, is the depth of factor t in its chain."""
    out = []
    for i in range(prod(n + 1 for n in shape)):
        factors = []
        for n in shape:
            i, d = divmod(i, n + 1)
            factors.append(ChainElement(n, n - 2 * d))
        out.append(TensorWord(tuple(factors)))
    return out


def _from_table(domain, codomain, table) -> CrystalMap:
    """The CrystalMap of a word -> word table, indexed through this module's words."""
    spot = {v: j for j, v in enumerate(words(codomain))}
    return CrystalMap(domain, codomain, [spot[table[w]] for w in words(domain)])


def _fold_stats(w: TensorWord):
    """Aggregate (eps, phi) of a word via the tensor rule, left fold."""
    e_tot, p_tot = w.factors[0].eps, w.factors[0].phi
    for b in w.factors[1:]:
        e_tot, p_tot = (
            e_tot + max(0, b.eps - p_tot),
            b.phi + max(0, p_tot - b.eps),
        )
    return e_tot, p_tot


def eps(w: TensorWord) -> int:
    return _fold_stats(w)[0]


def phi(w: TensorWord) -> int:
    return _fold_stats(w)[1]


def tensor_f(w: TensorWord):
    """Lower the prefix when phi(prefix) > eps(last), else the last factor."""
    if len(w) == 1:
        out = w.factors[0].f()
        return TensorWord((out,)) if out else None
    prefix = w.slice(0, len(w) - 1)
    last = w.factors[-1]
    if phi(prefix) > last.eps:
        lowered = tensor_f(prefix)
        return TensorWord(lowered.factors + (last,)) if lowered else None
    out = last.f()
    return TensorWord(prefix.factors + (out,)) if out else None


def tensor_e(w: TensorWord):
    """Raise the prefix when phi(prefix) >= eps(last), else the last factor."""
    if len(w) == 1:
        out = w.factors[0].e()
        return TensorWord((out,)) if out else None
    prefix = w.slice(0, len(w) - 1)
    last = w.factors[-1]
    if phi(prefix) >= last.eps:
        raised = tensor_e(prefix)
        return TensorWord(raised.factors + (last,)) if raised else None
    out = last.e()
    return TensorWord(prefix.factors + (out,)) if out else None


def decompose(shape):
    """Components as the f-chains grown from the words e kills, largest highest weight first."""
    shape = tuple(shape)
    all_words = words(shape)
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


def commutor_c_words(shape_a, shape_b) -> CrystalMap:
    """The highest weight commutor, built word by word: the source b_lam (x) b, with
    b at depth k, goes to b_mu (x) b* with b* at depth k, then down both f-chains."""
    shape_a, shape_b = tuple(shape_a), tuple(shape_b)
    table = {}
    for ca in decompose(shape_a):
        lam = ca.highest_weight
        for cb in decompose(shape_b):
            mu = cb.highest_weight
            for k in range(min(lam, mu) + 1):
                src = TensorWord(ca.source.factors + cb.elements[k].factors)
                dst = TensorWord(cb.source.factors + ca.elements[k].factors)
                if tensor_e(src) is not None:
                    raise CrystalInvariantError(f"{src} is not a highest weight word")
                cur_s, cur_d = src, dst
                while cur_s is not None:
                    table[cur_s] = cur_d
                    cur_s, cur_d = tensor_f(cur_s), tensor_f(cur_d)
                if cur_d is not None:
                    raise CrystalInvariantError(
                        f"the image chain of {src} is longer than its source chain")
    return _from_table(shape_a + shape_b, shape_b + shape_a, table)


def extend_map(m: CrystalMap, left, right) -> CrystalMap:
    """id (x) m (x) id on the shape left + m.domain + right, word by word."""
    left, right = tuple(left), tuple(right)
    k, l = len(left), len(m.domain)
    table = {}
    for w in words(left + m.domain + right):
        mid = m(w.slice(k, k + l))
        table[w] = TensorWord(w.factors[:k] + mid.factors + w.factors[k + l:])
    return _from_table(left + m.domain + right, left + m.codomain + right, table)


def morphism_failures(m: CrystalMap):
    """(w, reason) for each word w violating the morphism conditions: "statistics"
    (wt, eps, phi), else "f", else "e", with this module's tensor rule."""
    bad = []
    for w, v in m.items():
        if wt(w) != wt(v) or eps(w) != eps(v) or phi(w) != phi(v):
            bad.append((w, "statistics"))
            continue
        fw, fv = tensor_f(w), tensor_f(v)
        if (fw is None) != (fv is None) or (fw is not None and m(fw) != fv):
            bad.append((w, "f"))
            continue
        ew, ev = tensor_e(w), tensor_e(v)
        if (ew is None) != (ev is None) or (ew is not None and m(ew) != ev):
            bad.append((w, "e"))
    return bad


def cactus_action(shape, p: int, q: int, commutor=commutor_c) -> CrystalMap:
    """s(p,p) is the identity; s(p,q) is factor p commuted past p+1..q after s(p+1,q)."""
    shape = tuple(shape)
    if p == q:
        return CrystalMap.identity(shape)
    inner = cactus_action(shape, p + 1, q, commutor)
    mid_shape = inner.codomain
    sigma = commutor((mid_shape[p - 1],), mid_shape[p:q])
    outer = extend_map(sigma, mid_shape[: p - 1], mid_shape[q:])
    return outer.compose(inner)


def cactus_square_failures(shape_a, shape_b, shape_c, commutor=commutor_c):
    """Words where sigma_(A,CB) (1 (x) sigma_(B,C)) and sigma_(BA,C) (sigma_(A,B) (x) 1) differ."""
    shape_a, shape_b, shape_c = tuple(shape_a), tuple(shape_b), tuple(shape_c)
    lhs = commutor(shape_a, shape_c + shape_b).compose(
        extend_map(commutor(shape_b, shape_c), shape_a, ())
    )
    rhs = commutor(shape_b + shape_a, shape_c).compose(
        extend_map(commutor(shape_a, shape_b), (), shape_c)
    )
    return [(w, lhs(w), rhs(w)) for w in words(shape_a + shape_b + shape_c) if lhs(w) != rhs(w)]


def involutivity_failures(forward: CrystalMap, backward: CrystalMap):
    """(w, backward(forward(w))) for each word w, in word order, that it does not fix."""
    return [(w, backward(v)) for w, v in forward.items() if backward(v) != w]


@lru_cache(maxsize=None)
def _evacuated(signs):
    """Evacuation of the two-row standard tableau of a ballot sequence of signs
    (+1 for b1 in row 1, -1 for b-1 in row 2), by jeu de taquin: the
    smallest entry leaves, the hole slides out, and the cell it vacates at
    step k gets the entry n + 1 - k."""
    rows = [[i for i, s in enumerate(signs) if s > 0], [i for i, s in enumerate(signs) if s < 0]]
    out = [0] * len(signs)
    for label in reversed(range(len(signs))):
        r, c = 0, 0
        while True:
            right = rows[r][c + 1] if c + 1 < len(rows[r]) else None
            below = rows[1][c] if r == 0 and c < len(rows[1]) else None
            if right is None and below is None:
                break
            if below is None or (right is not None and right < below):
                rows[r][c], c = right, c + 1
            else:
                rows[r][c], r = below, 1
        rows[r].pop()
        out[label] = 1 if r == 0 else -1
    return tuple(out)


def _ones_action(signs, p, q):
    """s(p,q), p < q, on the word of B(1)^(x n) with this tuple of signs: raised
    to its source, evacuated by s(1,q) s(1,q-p+1) s(1,q), lowered back."""
    out, steps = _source(signs)
    for r in (q, q - p + 1, q):
        out = _evacuated(out[:r]) + out[r:]
    return _lowered(out, steps)


def _ones(signs) -> TensorWord:
    return TensorWord(tuple(ChainElement(1, s) for s in signs))


# the shapes of one test embed into the same few words of B(1)^(x n), so each
# word is raised, and each lowered, by one cached e or f step
@lru_cache(maxsize=None)
def _source(signs):
    """(the signs of the source of the word, the number of e steps to it)."""
    up = tensor_e(_ones(signs))
    if up is None:
        return signs, 0
    source, steps = _source(tuple(b.j for b in up.factors))
    return source, steps + 1


@lru_cache(maxsize=None)
def _lowered(signs, steps):
    """The signs of f^steps of the word."""
    if not steps:
        return signs
    return tuple(b.j for b in tensor_f(_ones(_lowered(signs, steps - 1))).factors)


def cactus_action_by_evacuation(shape, p: int, q: int) -> CrystalMap:
    """s(p,q) on a shape: each factor B(a) embedded in B(1)^(x a) as the top
    component, f^d(b1 (x) ... (x) b1) at depth d; s(P,Q) on the letters P..Q
    of the blocks p..q, then s on each block of the reversed interval, and
    each block read back from the top component."""
    shape = tuple(shape)
    codomain = shape[:p - 1] + shape[p - 1:q][::-1] + shape[q:]
    tops = {a: [_lowered((1,) * a, d) for d in range(a + 1)] for a in set(shape)}
    cuts = [sum(codomain[:i]) for i in range(len(codomain) + 1)]  # block i: cuts[i]+1..cuts[i+1]
    steps = [(cuts[p - 1] + 1, cuts[q])] + [(cuts[i] + 1, cuts[i + 1]) for i in range(p - 1, q)]
    table = {}
    for w in words(shape):
        signs = tuple(x for b in w.factors for x in tops[b.n][b.eps])
        for lo, hi in steps:
            if lo < hi:
                signs = _ones_action(signs[:hi], lo, hi) + signs[hi:]
        table[w] = TensorWord(tuple(
            ChainElement(a, a - 2 * tops[a].index(signs[cuts[i]:cuts[i + 1]]))
            for i, a in enumerate(codomain)))
    return _from_table(shape, codomain, table)
