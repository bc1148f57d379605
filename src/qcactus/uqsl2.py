"""Symbolic modules for quantized sl2, the braiding, and its unitarization.

The irreducible module of highest weight n has basis v_n, v_(n-2), ...,
v_(-n) with v_(n-2i) the i-th divided power of the lowering generator
applied to v_n; in that basis

    F v_(n-2i) = [i+1] v_(n-2i-2),   E v_(n-2i) = [n-i+1] v_(n-2i+2),

and K acts on the weight-j vector by q^j.  Tensor products use the
coproduct that sends E to E (x) K + 1 (x) E and F to F (x) 1 + K^-1 (x) F.

The braiding on a tensor product is flip composed with the R-matrix

    R = P . sum_k  q^(k(k-1)/2) (q - q^-1)^k / [k]!  E^k (x) F^k,

where P multiplies a vector of weights (a, b) by q^(ab/2).  The smallest
case is pinned against a frozen reference matrix, so any convention
drift in the construction raises immediately rather than propagating.

Unitarization divides out the square root of R^op R, the composite of
the two braiding directions, by Drinfeld's ribbon formula, the same for
irreducible and composite factors:

    (R^op R)^(-1/2) on M (x) N = Q^(eps_M eps_N) (T_M^+ (x) T_N^+) T_(M (x) N)^-,

with T^(+-) = sum_lam Q^(+-floor(lam(lam+2)/2)) P_lam over the isotypic
projectors, a polynomial in the Casimir, and eps the parity of the
weights.  It takes the positive branch, a monomial on each block.  The
formula is a theorem and is checked exactly: (R^op R) X^2 must fix every
highest weight vector, or UnitarizationError is raised.  The resulting
involution preserves the lattice of the crystal basis.  Reducing its
product-frame matrix at q = infinity yields a signed permutation of the
crystal words, which is compared entry by entry against the crystal
commutor.  Derived matrices are cached by the shapes of the factors, a
tuple of ints that determines the module, not by the module's entries.

Product bases are enumerated with the last tensor factor slowest, the
same order used for crystal words, so matrix indices and words align.
All matrices are exact and immutable.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import json
from math import prod

from .qexact import (
    ONE,
    ZERO,
    QRational,
    Qpow,
    is_regular_at_infinity,
    parse_qrational,
    qpow,
    quantum_int,
    reduce_mod_qhalf,
)
from . import crystals

__all__ = [
    "QMatrix",
    "SingularMatrixError",
    "LatticeError",
    "CalibrationError",
    "UnitarizationError",
    "UqModule",
    "irreducible",
    "tensor_module",
    "module_for_shape",
    "module_relations_ok",
    "highest_weight_vectors",
    "module_components",
    "isotypic_frame",
    "braiding_matrix",
    "unitarized_matrix",
    "rop_r_inverse_sqrt",
    "block_scalars",
    "lattice_check_and_reduce",
    "Kt07Report",
    "verify_kt07",
    "apply_on_slots",
    "evaluate_matrix",
    "flip_matrix",
    "check_yang_baxter",
    "check_cactus_relation_unitarized",
    "check_unitarized_involutive",
]


class SingularMatrixError(ValueError):
    pass


class LatticeError(ValueError):
    pass


class CalibrationError(RuntimeError):
    pass


class UnitarizationError(RuntimeError):
    pass


def _coerce_entry(x) -> QRational:
    if isinstance(x, QRational):
        return x
    return QRational(x)


class QMatrix:
    """Dense matrix of QRationals with exact structural equality."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(_coerce_entry(x) for x in row) for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag) -> "QMatrix":
        diag = list(diag)
        n = len(diag)
        out = [[ZERO] * n for _ in range(n)]
        for i, d in enumerate(diag):
            out[i][i] = d
        return cls(out)

    @classmethod
    def from_columns(cls, cols, rows: int) -> "QMatrix":
        out = [[ZERO] * len(cols) for _ in range(rows)]
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                out[i][j] = v
        return cls(out)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, idx):
        r, c = idx
        return self.entries[r][c]

    def column(self, j):
        return [row[j] for row in self.entries]

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch: {self.cols} vs {other.rows}")
        out = []
        for left in self.entries:
            # the nonzero entries of this row, each with the row of other it meets
            pairs = [(a, right) for a, right in zip(left, other.entries) if a]
            row = []
            for j in range(other.cols):
                acc = ZERO
                for a, right in pairs:
                    b = right[j]
                    if b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return QMatrix(out)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return QMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(-ONE)

    def scale(self, c) -> "QMatrix":
        c = _coerce_entry(c)
        return QMatrix([[c * x for x in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_zero(self) -> bool:
        return all(not x for row in self.entries for x in row)

    def is_diagonal(self) -> bool:
        return all(
            not x
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
            if i != j
        )

    def diagonal_entries(self):
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def inverse(self) -> "QMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = [list(row) + list(unit) for row, unit in zip(self.entries, QMatrix.identity(n).entries)]
        if len(_row_reduce(aug, n)) < n:
            raise SingularMatrixError("matrix is singular")
        return QMatrix([row[n:] for row in aug])

    def to_json(self, frame: str | None = None) -> str:
        data = {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in row] for row in self.entries],
        }
        if frame is not None:
            data["frame"] = frame
        return json.dumps(data, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "QMatrix":
        data = json.loads(text)
        m = cls([[parse_qrational(x) for x in row] for row in data["entries"]])
        if (m.rows, m.cols) != (data["rows"], data["cols"]):
            raise ValueError("inconsistent matrix dimensions in JSON")
        return m

    def __str__(self):
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def _row_reduce(rows, ncols: int) -> list:
    """Gauss-Jordan elimination in place on the first ``ncols`` columns.

    Columns past ``ncols`` (an augmented block) follow every row operation.
    Returns the pivot columns; the k-th pivot sits in row k.
    """
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ONE / rows[rank][col]
        top = rows[rank] = [inv * x if x else x for x in rows[rank]]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != rank and factor:
                rows[r] = [a - factor * b if b else a for a, b in zip(row, top)]
        pivots.append(col)
    return pivots


def _kernel_basis(rows):
    """Kernel vectors of a small exact matrix given as a list of rows.

    Returned vectors are normalized so their first nonzero coordinate is
    one, ordered by that coordinate's position.
    """
    mat = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = _row_reduce(mat, ncols)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        lead = next(i for i, v in enumerate(vec) if v)
        inv = ONE / vec[lead]
        out.append([inv * v for v in vec])
    out.sort(key=lambda v: next(i for i, x in enumerate(v) if x))
    return out


@dataclass(frozen=True)
class UqModule:
    """A weight module with exact E and F action matrices.

    K is determined by the weights: it scales the weight-j basis vector
    by q^j.  The defining relations are not assumed; they are verified by
    ``module_relations_ok`` in the test suite for every module built here.
    """

    shape: tuple
    weights: tuple
    e: QMatrix
    f: QMatrix

    @property
    def dim(self) -> int:
        return len(self.weights)

    def k_matrix(self, power: int = 1) -> QMatrix:
        return QMatrix.diagonal([qpow(power * w) for w in self.weights])

    def __repr__(self):
        return f"UqModule(shape={self.shape}, dim={self.dim})"


def irreducible(n: int) -> UqModule:
    """The irreducible module of highest weight n in the standard basis."""
    if n < 0:
        raise ValueError("highest weight must be nonnegative")
    weights = tuple(n - 2 * i for i in range(n + 1))
    e = [[ZERO] * (n + 1) for _ in range(n + 1)]
    f = [[ZERO] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        if i >= 1:
            e[i - 1][i] = quantum_int(n - i + 1)
        if i < n:
            f[i + 1][i] = quantum_int(i + 1)
    return UqModule((n,), weights, QMatrix(e), QMatrix(f))


def _tensor_operator(pairs) -> QMatrix:
    """Sum of a (x) b over pairs of equal sizes, second index slow, in one grid."""
    a0, b0 = pairs[0]
    ra, ca, rb, cb = a0.rows, a0.cols, b0.rows, b0.cols
    out = [[ZERO] * (ca * cb) for _ in range(ra * rb)]
    for a, b in pairs:
        if (a.rows, a.cols, b.rows, b.cols) != (ra, ca, rb, cb):
            raise ValueError("terms of a Kronecker sum differ in size")
        nonzero_b = [(j * ra, l * ca, y)
                     for j, row in enumerate(b.entries) for l, y in enumerate(row) if y]
        for i, row in enumerate(a.entries):
            for k, x in enumerate(row):
                if x:
                    for r, c, y in nonzero_b:
                        out[r + i][c + k] += x * y
    return QMatrix(out)


def tensor_module(m: UqModule, n: UqModule) -> UqModule:
    """Tensor product module on the product basis.

    The product basis index of (a, b) is b * dim(m) + a: the second
    factor varies slowest, matching the canonical crystal word order.
    """
    e = _tensor_operator([(m.e, n.k_matrix()), (QMatrix.identity(m.dim), n.e)])
    f = _tensor_operator([(m.f, QMatrix.identity(n.dim)), (m.k_matrix(-1), n.f)])
    weights = tuple(a + b for b in n.weights for a in m.weights)
    return UqModule(m.shape + n.shape, weights, e, f)


@lru_cache(maxsize=None)
def module_for_shape(shape) -> UqModule:
    """The tensor product of irreducibles along a shape, left to right."""
    shape = tuple(shape)
    if not shape:
        raise ValueError("shape must be nonempty")
    out = irreducible(shape[0])
    for n in shape[1:]:
        out = tensor_module(out, irreducible(n))
    return out


def module_relations_ok(m: UqModule) -> bool:
    """Exact check of the defining relations on a module.

    K E K^-1 = q^2 E and K F K^-1 = q^-2 F reduce to E raising and F
    lowering weights by exactly 2; the commutator [E, F] must equal the
    diagonal of balanced q-integers of the weights.
    """
    for r in range(m.dim):
        for c in range(m.dim):
            if m.e[r, c] and m.weights[r] != m.weights[c] + 2:
                return False
            if m.f[r, c] and m.weights[r] != m.weights[c] - 2:
                return False
    commutator = m.e @ m.f - m.f @ m.e
    expected = QMatrix.diagonal([quantum_int(w) for w in m.weights])
    return commutator == expected


def highest_weight_vectors(m: UqModule):
    """Basis of ker E per weight space, in product-frame coordinates.

    One vector per irreducible component; each is normalized so its
    first nonzero product-frame coordinate is 1, and the list is ordered
    by descending weight, then by that coordinate's position.
    """
    out = []
    for w in sorted(set(m.weights), reverse=True):
        cols = [i for i in range(m.dim) if m.weights[i] == w]
        upper = [i for i in range(m.dim) if m.weights[i] == w + 2]
        # with no weight above, a zero row leaves every coordinate free
        rows = [[m.e[r, c] for c in cols] for r in upper] or [[ZERO] * len(cols)]
        for vec in _kernel_basis(rows):
            full = [ZERO] * m.dim
            for ci, c in enumerate(cols):
                full[c] = vec[ci]
            out.append((w, full))
    return out


@dataclass(frozen=True)
class ModuleComponent:
    highest_weight: int
    columns: QMatrix  # dim x (highest_weight + 1), divided-power descendants


def module_components(m: UqModule):
    """Split a module into irreducible components.

    Column d of a component is the d-th divided power of F applied to
    its highest weight vector, so the columns realize the standard basis
    of the abstract irreducible of that highest weight.
    """
    return _components(m.shape)


@lru_cache(maxsize=None)
def _components(shape):
    m = module_for_shape(shape)
    comps = []
    for w, vec in highest_weight_vectors(m):
        cols = [vec]
        for d in range(1, w + 1):
            lowered = (m.f @ QMatrix.from_columns(cols[-1:], m.dim)).column(0)
            inv = ONE / quantum_int(d)
            cols.append([inv * x for x in lowered])
        comps.append(ModuleComponent(w, QMatrix.from_columns(cols, m.dim)))
    return comps


def isotypic_frame(m: UqModule, n: UqModule):
    """Isotypic basis of a multiplicity-free tensor product.

    Returns (frame matrix, slots) where slot k is the (weight, component
    highest weight) pair of column k.  Columns are ordered by descending
    weight, then ascending component highest weight, which for (1, 1)
    lists the top vector, the singlet, the middle triplet vector, and
    the bottom vector in that order.
    """
    return _isotypic_frame(m.shape + n.shape)


@lru_cache(maxsize=None)
def _isotypic_frame(shape):
    t = module_for_shape(shape)
    comps = module_components(t)
    seen = {comp.highest_weight: comp for comp in comps}
    if len(seen) != len(comps):
        raise ValueError("tensor product is not multiplicity-free")
    slots = tuple(sorted(((nu - 2 * d, nu) for nu in seen for d in range(nu + 1)),
                         key=lambda s: (-s[0], s[1])))
    cols = [seen[nu].columns.column((nu - w) // 2) for w, nu in slots]
    return QMatrix.from_columns(cols, t.dim), slots


# -- the braiding ------------------------------------------------------------

def flip_matrix(m: UqModule, n: UqModule) -> QMatrix:
    """The permutation matrix sending u (x) v to v (x) u."""
    dm, dn = m.dim, n.dim
    out = [[ZERO] * (dm * dn) for _ in range(dm * dn)]
    for a in range(dm):
        for b in range(dn):
            out[a * dn + b][b * dm + a] = ONE
    return QMatrix(out)


def _r_matrix(m: UqModule, n: UqModule) -> QMatrix:
    """R on the product basis: weight prefactor times the nilpotent sum."""
    # theta = sum_k c_k E^k (x) F^k, with c_0 = 1 and E^0 (x) F^0 = I (x) I
    terms = []
    coeff = ONE
    e_pow = QMatrix.identity(m.dim)
    f_pow = QMatrix.identity(n.dim)
    k = 0
    qdiff = qpow(1) - qpow(-1)
    while not (e_pow.is_zero() or f_pow.is_zero()):
        terms.append((e_pow.scale(coeff), f_pow))
        coeff = coeff * qpow(k) * qdiff / quantum_int(k + 1)
        k += 1
        e_pow = m.e @ e_pow
        f_pow = n.f @ f_pow
    theta = _tensor_operator(terms)
    prefactor = QMatrix.diagonal(
        [
            Qpow(m.weights[idx % m.dim] * n.weights[idx // m.dim])
            for idx in range(m.dim * n.dim)
        ]
    )
    return prefactor @ theta


def _reference_flip_r():
    # frozen value of flip . R on V_1 (x) V_1 in the product frame; any
    # convention drift in the construction must trip the comparison
    q, qi = qpow(1), qpow(-1)
    rows = [
        [q, 0, 0, 0],
        [0, q - qi, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, q],
    ]
    return QMatrix(rows).scale(Qpow(-1))


@lru_cache(maxsize=None)
def _calibration() -> None:
    # a failure raises and is not cached, so every later braiding re-checks
    v1 = irreducible(1)
    if flip_matrix(v1, v1) @ _r_matrix(v1, v1) != _reference_flip_r():
        raise CalibrationError(
            "computed braiding on V_1 (x) V_1 differs from the frozen reference"
        )


@lru_cache(maxsize=None)
def _flip_r(shape_m, shape_n) -> QMatrix:
    _calibration()
    m, n = module_for_shape(shape_m), module_for_shape(shape_n)
    return flip_matrix(m, n) @ _r_matrix(m, n)


def _in_frame(a: QMatrix, frame: str, source, target) -> QMatrix:
    """A map between product bases, or conjugated into the isotypic frames.

    ``source`` and ``target`` are the factor pairs of the domain and the
    codomain; ``frame="s2"`` needs both to be multiplicity-free.
    """
    if frame == "s1":
        return a
    if frame == "s2":
        f_source, _ = isotypic_frame(*source)
        f_target, _ = isotypic_frame(*target)
        return f_target.inverse() @ a @ f_source
    raise ValueError(f"unknown frame {frame!r}")


def braiding_matrix(m: UqModule, n: UqModule, frame: str = "s1") -> QMatrix:
    """Matrix of flip . R from M (x) N to N (x) M.

    ``frame="s1"`` uses the product bases on both sides; ``frame="s2"``
    conjugates into the isotypic bases, where the braiding is diagonal
    with one monomial scalar per irreducible block.
    """
    return _in_frame(_flip_r(m.shape, n.shape), frame, (m, n), (n, m))


def block_scalars(m: UqModule, n: UqModule) -> dict:
    """Scalar of flip . R on each irreducible block of M (x) N."""
    _, slots = isotypic_frame(m, n)
    d = braiding_matrix(m, n, "s2")
    if not d.is_diagonal():
        raise ValueError("braiding is not diagonal in the isotypic frames")
    by_nu = {}
    for s, (_w, nu) in zip(d.diagonal_entries(), slots):
        if by_nu.setdefault(nu, s) != s:
            raise ValueError("braiding is not scalar on an isotypic block")
    return by_nu


# -- unitarization -----------------------------------------------------------

def _casimir_eigenvalue(lam: int) -> QRational:
    return qpow(lam + 1) + qpow(-lam - 1)


def _casimir_blocks(shape):
    """The Newton basis of the Casimir on each weight block of a module.

    The Casimir C = (q - q^-1)^2 FE + qK + q^-1 K^-1 acts on V_lam by
    c_lam = q^(lam+1) + q^-(lam+1).  C preserves weights, and the
    weight-w block meets only the components of highest weight lam >= |w|.
    Yields, per weight, the block's basis indices, those lam in
    descending order, and B_k = (C - c_lam_0) ... (C - c_lam_(k-1)).
    """
    m = module_for_shape(shape)
    qdiff = qpow(1) - qpow(-1)
    fe = (m.f @ m.e).scale(qdiff * qdiff)
    count = Counter(m.weights)
    present = [lam for lam in sorted(count, reverse=True)
               if lam >= 0 and count[lam] > count[lam + 2]]
    for w in sorted(count, reverse=True):
        idx = [i for i, x in enumerate(m.weights) if x == w]
        lams = [lam for lam in present if lam >= abs(w)]
        basis = [QMatrix.identity(len(idx))]
        for mu in lams[:-1]:
            # C - c_mu on the block: FE plus c_w - c_mu on the diagonal
            s = _casimir_eigenvalue(w) - _casimir_eigenvalue(mu)
            shifted = QMatrix([[fe[i, j] + s if i == j else fe[i, j] for j in idx] for i in idx])
            basis.append(basis[-1] @ shifted)
        yield idx, lams, basis


def _twist_exponent(lam: int) -> int:
    return lam * (lam + 2) // 2


def _twist(shape, sign: int) -> QMatrix:
    """T^(+-) = sum of Q^(+-floor(lam(lam+2)/2)) P_lam on the module of a shape.

    P_lam projects onto the isotypic component of highest weight lam, so
    T = f(C) for the polynomial f through the points (c_lam, Q^(+-...)).
    On each weight block f is taken in Newton's form, with the divided
    differences of those values as coefficients: one matrix product per
    extra eigenvalue, where the Lagrange projectors need one per pair.
    """
    dim = module_for_shape(shape).dim
    out = [[ZERO] * dim for _ in range(dim)]
    for idx, lams, basis in _casimir_blocks(shape):
        c = [_casimir_eigenvalue(lam) for lam in lams]
        coef = [Qpow(sign * _twist_exponent(lam)) for lam in lams]
        for j in range(1, len(lams)):
            for i in range(len(lams) - 1, j - 1, -1):
                coef[i] = (coef[i] - coef[i - 1]) / (c[i] - c[i - j])
        block = basis[0].scale(coef[0])
        for b, k in zip(basis[1:], coef[1:]):
            block = block + b.scale(k)
        for i, row in zip(idx, block.entries):
            for j, x in zip(idx, row):
                out[i][j] = x
    return QMatrix(out)


@lru_cache(maxsize=None)
def _unitarization(shape_m, shape_n):
    """(X, flip . R X) with X = (R^op R)^(-1/2) on M (x) N, by Drinfeld's ribbon formula.

    R^op R = (v (x) v) Delta(v)^-1 for the ribbon element v, which acts
    on V_lam by Q^(-lam(lam+2)), so X = Q^(eps_M eps_N) (T_M^+ (x) T_N^+)
    T_(M (x) N)^-; the parity factor restores what the floors drop when
    both weights are odd.
    """
    parity = (sum(shape_m) % 2) * (sum(shape_n) % 2)
    x = _tensor_operator([(_twist(shape_m, 1), _twist(shape_n, 1))]) @ _twist(shape_m + shape_n, -1)
    x = x.scale(Qpow(parity))
    u = _flip_r(shape_m, shape_n) @ x
    # (R^op R) X^2 is a module map, so it is the identity once it fixes
    # every highest weight vector
    t = module_for_shape(shape_m + shape_n)
    hws = highest_weight_vectors(t)
    tops = QMatrix.from_columns([v for _w, v in hws], t.dim)
    got = _flip_r(shape_n, shape_m) @ (u @ (x @ tops))
    for k, (w, _v) in enumerate(hws):
        if got.column(k) != tops.column(k):
            raise UnitarizationError(
                f"(R^op R)^(-1/2) on {shape_m} (x) {shape_n} does not square to the inverse "
                f"of R^op R on highest weight vector {k} of weight {w}"
            )
    return x, u


def _diagonal_or_raise(a: QMatrix, frame: str, what: str) -> QMatrix:
    if frame == "s2" and not a.is_diagonal():
        raise UnitarizationError(f"{what} is not diagonal in the isotypic frames")
    return a


def unitarized_matrix(m: UqModule, n: UqModule, frame: str = "s1") -> QMatrix:
    """Matrix of the unitarized braiding flip . Rbar from M (x) N to N (x) M.

    In the isotypic frame of a multiplicity-free pair the result is the
    diagonal of block signs; in the product frame its entries stay
    regular at q = infinity, so it preserves the crystal lattice.
    """
    a = _in_frame(_unitarization(m.shape, n.shape)[1], frame, (m, n), (n, m))
    return _diagonal_or_raise(a, frame, "unitarized braiding")


def rop_r_inverse_sqrt(m: UqModule, n: UqModule, frame: str = "s1") -> QMatrix:
    """The inverse square root of R^op R on M (x) N, used by the unitarization."""
    a = _in_frame(_unitarization(m.shape, n.shape)[0], frame, (m, n), (m, n))
    return _diagonal_or_raise(a, frame, "(R^op R)^(-1/2)")


# -- lattice reduction and the signed comparison ------------------------------

def lattice_check_and_reduce(a: QMatrix, m: UqModule, n: UqModule):
    """Reduce a product-frame matrix at q = infinity.

    Every entry must be regular at infinity (otherwise the map does not
    preserve the crystal lattice), and the reduction must be a signed
    permutation of the crystal words; either failure raises a
    LatticeError naming the offending entry, row or column.
    """
    if a.rows != m.dim * n.dim or a.cols != m.dim * n.dim:
        raise ValueError("matrix does not act on the product basis")
    reduced = []
    for i, row in enumerate(a.entries):
        out_row = []
        for j, x in enumerate(row):
            if not is_regular_at_infinity(x):
                raise LatticeError(
                    f"lattice not preserved: entry ({i}, {j}) = {x} is not regular at q = infinity"
                )
            out_row.append(reduce_mod_qhalf(x))
        reduced.append(out_row)
    for i, row in enumerate(reduced):
        for j, v in enumerate(row):
            if v not in (Fraction(0), Fraction(1), Fraction(-1)):
                raise LatticeError(f"reduction has entry {v} at ({i}, {j}); not a signed permutation")
    size = len(reduced)
    for i in range(size):
        if sum(1 for j in range(size) if reduced[i][j]) != 1:
            raise LatticeError(f"row {i} of the reduction is not a signed permutation row")
        if sum(1 for r in range(size) if reduced[r][i]) != 1:
            raise LatticeError(f"column {i} of the reduction is not a signed permutation column")
    return [[int(v) for v in row] for row in reduced]


@dataclass(frozen=True)
class Kt07Report:
    m: int
    n: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self):
        return {
            "m": self.m,
            "n": self.n,
            "ok": self.ok,
            "mismatches": [
                {"word": str(w), "expected": e, "got": g} for w, e, g in self.mismatches
            ],
        }


def verify_kt07(m: int, n: int) -> Kt07Report:
    """Compare the reduced unitarized braiding with the signed commutor.

    The reduction of flip . Rbar on V_m (x) V_n must send the crystal
    word w to sigma_c(w) with sign (-1)^((m+n-nu)/2), nu the highest
    weight of the component containing w.  The commutor is recomputed
    here through its own combinatorial route, so the two sides are
    independent up to the shared word order.
    """
    vm, vn = irreducible(m), irreducible(n)
    reduced = lattice_check_and_reduce(unitarized_matrix(vm, vn), vm, vn)
    sigma = crystals.commutor_c((m,), (n,))
    mismatches = []
    for w in crystals.words((m, n)):
        nu = crystals.component_of(w).highest_weight
        want = [0] * len(reduced)
        want[crystals.word_index(sigma(w))] = -1 if ((m + n - nu) // 2) % 2 else 1
        col = crystals.word_index(w)
        got = [row[col] for row in reduced]
        if got != want:
            mismatches.append((w, want, got))
    return Kt07Report(m, n, tuple(mismatches))


# -- operators on multi-factor products ---------------------------------------

def apply_on_slots(op: QMatrix, dims, start: int, stop: int, out_block_dims) -> QMatrix:
    """Extend an operator on factors start..stop-1 by the identity.

    ``dims`` are the factor dimensions of the domain; ``out_block_dims``
    the factor dimensions the operator produces in those slots.  Indexing
    follows the canonical order (first factor fastest).
    """
    dims = list(dims)
    if op.rows != prod(out_block_dims) or op.cols != prod(dims[start:stop]):
        raise ValueError("operator does not match the selected slots")
    pre = QMatrix.identity(prod(dims[:start]))
    post = QMatrix.identity(prod(dims[stop:]))
    return _tensor_operator([(_tensor_operator([(pre, op)]), post)])


def evaluate_matrix(a: QMatrix, x) -> list:
    """Entrywise exact evaluation at Q = x."""
    return [[entry.evaluate(x) for entry in row] for row in a.entries]


# -- assembled checks ----------------------------------------------------------

def check_yang_baxter() -> bool:
    """(sigma (x) id)(id (x) sigma)(sigma (x) id) on three chain factors."""
    v1 = irreducible(1)
    sigma = braiding_matrix(v1, v1)
    s1 = apply_on_slots(sigma, [2, 2, 2], 0, 2, [2, 2])
    s2 = apply_on_slots(sigma, [2, 2, 2], 1, 3, [2, 2])
    return s1 @ s2 @ s1 == s2 @ s1 @ s2


def check_cactus_relation_unitarized() -> bool:
    """The compatibility square for the unitarized braiding on V_1^(x3)."""
    v1 = irreducible(1)
    v11 = module_for_shape((1, 1))
    inner = unitarized_matrix(v1, v1)
    lhs = unitarized_matrix(v1, v11) @ apply_on_slots(inner, [2, 2, 2], 1, 3, [2, 2])
    rhs = unitarized_matrix(v11, v1) @ apply_on_slots(inner, [2, 2, 2], 0, 2, [2, 2])
    return lhs == rhs


def check_unitarized_involutive(max_weight: int = 3) -> bool:
    """Both compositions of the unitarized braiding are the identity."""
    for m in range(max_weight + 1):
        for n in range(max_weight + 1):
            vm, vn = irreducible(m), irreducible(n)
            forward = unitarized_matrix(vm, vn)
            backward = unitarized_matrix(vn, vm)
            if backward @ forward != QMatrix.identity(vm.dim * vn.dim):
                return False
    v1 = irreducible(1)
    v11 = module_for_shape((1, 1))
    forward = unitarized_matrix(v1, v11)
    backward = unitarized_matrix(v11, v1)
    return backward @ forward == QMatrix.identity(8)
