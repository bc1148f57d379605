"""Test-only oracle: the tensor rule as a left fold, the cactus action by recursion.

These are the straightforward definitions that ``qcactus.crystals`` is
checked against.  The tensor rule here treats the first k-1 factors of a
word as one left factor with aggregate eps/phi and recurses on that
prefix; it shares no code with the library's single signature pass.  The
cactus action here is the defining recursion
s(p,q) = (id (x) sigma (x) id) . s(p+1,q), built from whole crystal maps,
against which the library's unrolled loop is compared.  The cactus
square here composes whole crystal maps for its two routes, against
which the library's word-by-word check is compared.
"""

from qcactus.crystals import CrystalMap, TensorWord, commutor_c, extend_map, words


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
