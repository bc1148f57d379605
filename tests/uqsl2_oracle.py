"""Test-only oracles: flip . R by dense products, and the unitarized braiding.

``flip_r`` builds the braiding as the library once did: the nilpotent
sum theta, then dense products with the diagonal weight prefactor and
with the flip permutation matrix.

The unitarized braiding goes through isotypic frames.  This is the
earlier, independent route to flip . Rbar, kept to check the ribbon
formula of ``qcactus.uqsl2`` against.  For irreducible factors it
conjugates both braiding directions into the isotypic frames, where each
is diagonal with one monomial scalar per block, and divides by the
positive square root of their product.  For composite factors it splits
each factor into its irreducible components and assembles the braiding
from the irreducible blocks through the component embeddings.

``twist_on_components`` states the ribbon twist T^(+-) by what it does:
it scales each irreducible component of highest weight lam by
Q^(+-floor(lam(lam+2)/2)).

``module_relations_ok`` checks the defining relations of U_q(sl2) on a
module's E, F and weights, which the library builds but never assumes.
"""

from dataclasses import dataclass
from functools import lru_cache

from qcactus.qexact import ONE, ZERO, Qpow, monomial_sqrt, qpow, quantum_int
from qcactus.uqsl2 import (
    QMatrix,
    UqModule,
    _tensor_operator,
    braiding_matrix,
    flip_matrix,
    isotypic_frame,
    module_components,
    module_for_shape,
)


def flip_r(m: UqModule, n: UqModule) -> QMatrix:
    """flip_matrix(m, n) @ (diag(Q^(w_a w_b)) @ theta), theta = sum_k c_k E^k (x) F^k."""
    terms = []
    coeff = ONE
    e_pow, f_pow = QMatrix.identity(m.dim), QMatrix.identity(n.dim)
    k = 0
    while not (e_pow.is_zero() or f_pow.is_zero()):
        terms.append((e_pow.scale(coeff), f_pow))
        coeff = coeff * qpow(k) * (qpow(1) - qpow(-1)) / quantum_int(k + 1)
        k += 1
        e_pow, f_pow = m.e @ e_pow, n.f @ f_pow
    prefactor = QMatrix.diagonal([Qpow(wa * wb) for wb in n.weights for wa in m.weights])
    return flip_matrix(m, n) @ (prefactor @ _tensor_operator(terms))


@dataclass(frozen=True)
class Unitarization:
    s1: QMatrix
    s2: QMatrix | None
    inv_sqrt_s1: QMatrix | None
    inv_sqrt_s2: QMatrix | None


def _scalar_blocks(diag, slots):
    by_nu = {}
    for s, (_w, nu) in zip(diag, slots):
        if by_nu.setdefault(nu, s) != s:
            raise AssertionError("braiding is not scalar on an isotypic block")
    return by_nu


def _unitarize_irreducible(m: UqModule, n: UqModule) -> Unitarization:
    a_mn = braiding_matrix(m, n)
    a_nm = braiding_matrix(n, m)
    fmn, slots = isotypic_frame(m, n)
    fnm, slots_nm = isotypic_frame(n, m)
    assert slots == slots_nm
    fmn_inv = fmn.inverse()
    fnm_inv = fnm.inverse()
    d_mn = fnm_inv @ a_mn @ fmn
    d_nm = fmn_inv @ a_nm @ fnm
    assert d_mn.is_diagonal() and d_nm.is_diagonal()
    s_mn = _scalar_blocks(d_mn.diagonal_entries(), slots)
    s_nm = _scalar_blocks(d_nm.diagonal_entries(), slots)
    roots = {nu: monomial_sqrt(s_mn[nu] * s_nm[nu]) for nu in s_mn}
    dbar = QMatrix.diagonal([s_mn[nu] / roots[nu] for (_w, nu) in slots])
    inv_sqrt_s2 = QMatrix.diagonal([ONE / roots[nu] for (_w, nu) in slots])
    return Unitarization(
        s1=fnm @ dbar @ fmn_inv,
        s2=dbar,
        inv_sqrt_s1=fmn @ inv_sqrt_s2 @ fmn_inv,
        inv_sqrt_s2=inv_sqrt_s2,
    )


def _embed_columns(ci: QMatrix, cj: QMatrix, left_dim: int):
    """Product vectors of component column pairs, second index slowest."""
    cols = []
    for dprime in range(cj.cols):
        for d in range(ci.cols):
            col = {}
            for a in range(ci.rows):
                x = ci[a, d]
                if not x:
                    continue
                for b in range(cj.rows):
                    y = cj[b, dprime]
                    if y:
                        col[b * left_dim + a] = x * y
            cols.append(col)
    return cols


@lru_cache(maxsize=None)
def _unitarize(shape_m, shape_n) -> Unitarization:
    m, n = module_for_shape(shape_m), module_for_shape(shape_n)
    if len(shape_m) == 1 and len(shape_n) == 1:
        return _unitarize_irreducible(m, n)
    dim = m.dim * n.dim
    g_cols = []
    blocks = []
    for ci in module_components(m):
        for cj in module_components(n):
            width = (ci.highest_weight + 1) * (cj.highest_weight + 1)
            start = len(g_cols)
            g_cols.extend(_embed_columns(ci.columns, cj.columns, m.dim))
            emb_out = _embed_columns(cj.columns, ci.columns, n.dim)
            inner = _unitarize((ci.highest_weight,), (cj.highest_weight,)).s1
            blocks.append((start, width, inner, emb_out))
    assert len(g_cols) == dim, "component blocks do not span the tensor product"
    g = QMatrix.from_columns([[col.get(i, ZERO) for i in range(dim)] for col in g_cols], dim)
    g_inv = g.inverse()
    total = QMatrix.zeros(dim, dim)
    for start, width, b_mat, emb_out in blocks:
        rows = QMatrix([list(g_inv.entries[start + k]) for k in range(width)])
        emb = QMatrix.from_columns([[col.get(i, ZERO) for i in range(dim)] for col in emb_out], dim)
        total = total + emb @ b_mat @ rows
    return Unitarization(s1=total, s2=None, inv_sqrt_s1=None, inv_sqrt_s2=None)


def unitarized_matrix(m: UqModule, n: UqModule, frame: str = "s1") -> QMatrix:
    res = _unitarize(m.shape, n.shape)
    return res.s1 if frame == "s1" else res.s2


def rop_r_inverse_sqrt(m: UqModule, n: UqModule, frame: str = "s1") -> QMatrix:
    res = _unitarize_irreducible(m, n)
    return res.inv_sqrt_s1 if frame == "s1" else res.inv_sqrt_s2


def twist_on_components(shape, sign: int):
    """(columns, Q^(sign floor(lam(lam+2)/2)) times columns) for each component of a shape.

    The columns of all components form a basis of the module, so a matrix
    that sends every first entry to its second is the twist T^(sign).
    """
    out = []
    for comp in module_components(module_for_shape(shape)):
        lam = comp.highest_weight
        out.append((comp.columns, comp.columns.scale(Qpow(sign * (lam * (lam + 2) // 2)))))
    return out


def module_relations_ok(m: UqModule) -> bool:
    """Exact check of the defining relations on a module.

    K E K^-1 = q^2 E and K F K^-1 = q^-2 F reduce to E raising and F
    lowering weights by exactly 2; the commutator [E, F] must equal the
    diagonal of balanced q-integers of the weights.
    """
    weights, e, f = m.weights, m.e, m.f
    for r in range(m.dim):
        for c in range(m.dim):
            if e[r, c] and weights[r] != weights[c] + 2:
                return False
            if f[r, c] and weights[r] != weights[c] - 2:
                return False
    commutator = e @ f - f @ e
    expected = QMatrix.diagonal([quantum_int(w) for w in weights])
    return commutator == expected
