"""Symbolic modules for quantized sl2, the braiding, and its unitarization.

The irreducible module of highest weight n has basis v_n, v_(n-2), ...,
v_(-n) with v_(n-2i) the i-th divided power of the lowering generator
applied to v_n; in that basis

    F v_(n-2i) = [i+1] v_(n-2i-2),   E v_(n-2i) = [n-i+1] v_(n-2i+2),

and K acts on the weight-j vector by q^j.  Tensor products use the
coproduct that sends E to E (x) K + 1 (x) E and F to F (x) 1 + K^-1 (x) F.

The braiding on a tensor product is flip composed with the R-matrix

    R = P . sum_k  q^(k(k-1)/2) (q - q^-1)^k / [k]!  E^k (x) F^k,

where P multiplies a vector of weights (a, b) by q^(ab/2).  flip . R is
built in one pass over the rows of the sum: each is scaled by P and
stored at its flipped index.  The smallest case is pinned against a
frozen reference matrix, so any convention drift raises immediately.

Unitarization divides out the square root of R^op R, the composite of
the two braiding directions, by Drinfeld's ribbon formula, the same for
irreducible and composite factors:

    (R^op R)^(-1/2) on M (x) N = Q^(eps_M eps_N) (T_M^+ (x) T_N^+) T_(M (x) N)^-,

with T^(+-) = sum_lam Q^(+-floor(lam(lam+2)/2)) P_lam over the isotypic
projectors, a polynomial in the Casimir built on each weight block in
one pass of Newton's form, and eps the parity of the weights.  It takes
the positive branch, a monomial on each block.  The formula is a
theorem and is checked exactly: (R^op R) X^2 must fix every highest
weight vector, or UnitarizationError is raised.  The resulting
involution preserves the lattice of the crystal basis.  Reducing its
product-frame matrix at q = infinity yields a signed permutation of the
crystal words, which is compared entry by entry against the crystal
commutor.

A module is its shape, the tuple of highest weights of its factors;
its weights, E and F are built once per shape, from the cached prefix
and last factor.  Braidings are cached by the shapes of the factors
too.  The Newton coefficients of the twists are cached by the highest
weights they interpolate at and the sign.  The unitarization, its
product twists, the module components and the isotypic frames, which no
command asks for twice, are recomputed per call; a frame change builds
one frame when domain and codomain are the same product.  One Gauss-Jordan
elimination serves inverses, kernels, and frame changes, which solve
against the target frame rather than invert it.

Product bases are enumerated with the last tensor factor slowest, the
same order used for crystal words, so matrix indices and words align.
All matrices are exact and immutable.
"""

from collections import Counter
from functools import lru_cache
import json
from math import prod

from .qexact import (
    ONE,
    ZERO,
    QRational,
    Qpow,
    _constant_at_infinity,
    is_regular_at_infinity,
    parse_qrational,
    qpow,
    quantum_int,
)
from . import Record, VerificationError, _WORD_BUDGET, _shape

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
    "flip_matrix",
    "check_yang_baxter",
    "check_cactus_relation_unitarized",
    "check_unitarized_involutive",
]


class SingularMatrixError(ValueError):
    pass


class LatticeError(VerificationError):
    pass


class CalibrationError(VerificationError):
    pass


class UnitarizationError(VerificationError):
    pass


class QMatrix:
    """Dense matrix of QRationals with exact structural equality."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(x if isinstance(x, QRational) else QRational(x) for x in row)
                     for row in entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", rows)

    __setattr__ = __delattr__ = Record.__setattr__

    @classmethod
    def _of(cls, rows) -> "QMatrix":
        """A matrix on equal-length rows of QRationals, taken without coercion or checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", tuple(map(tuple, rows)))
        return m

    def __reduce__(self):
        return QMatrix, (self.entries,)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls._of([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls._of([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

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
        # the nonzero entries of each row of other, with their columns
        sparse = [[(j, b) for j, b in enumerate(right) if b] for right in other.entries]
        out = []
        for left in self.entries:
            row = [ZERO] * other.cols
            for a, right in zip(left, sparse):
                if a:
                    for j, b in right:
                        row[j] += a * b
            out.append(row)
        return QMatrix._of(out)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        return QMatrix._of(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ]
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + other.scale(-ONE)

    def scale(self, c) -> "QMatrix":
        c = c if isinstance(c, QRational) else QRational(c)
        return QMatrix._of([[c * x for x in row] for row in self.entries])

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
        return _solve(self, QMatrix.identity(self.rows))

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
        """The matrix ``to_json`` wrote; any other JSON raises ValueError naming the field."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a matrix is a JSON object")
        for key in ("rows", "cols"):
            if type(data.get(key)) is not int:
                raise ValueError(f"'{key}' must be an int, got {data.get(key)!r}")
        entries = data.get("entries")
        if not (isinstance(entries, list)
                and all(isinstance(row, list) and all(isinstance(x, str) for x in row)
                        for row in entries)):
            raise ValueError("'entries' must be a list of lists of strings")
        m = cls([[parse_qrational(x) for x in row] for row in entries])
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


def _solve(a: QMatrix, b: QMatrix) -> QMatrix:
    """a^-1 b, by one elimination over the rows of [a | b]."""
    if a.rows != a.cols:
        raise ValueError("only square matrices invert")
    n = a.rows
    aug = [list(left) + list(right) for left, right in zip(a.entries, b.entries)]
    if len(_row_reduce(aug, n)) < n:
        raise SingularMatrixError("matrix is singular")
    return QMatrix._of([row[n:] for row in aug])


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


class UqModule(Record):
    """The weight module of a shape, with exact E and F action matrices.

    The shape, the highest weights of the factors tensored left to right,
    is the only field: a tuple, checked by the package's one shape rule
    ``qcactus._shape``.  K scales the weight-j basis vector by q^j.  The
    defining relations are not assumed; the test suite verifies them for
    every module built here with ``module_relations_ok`` in
    ``tests/uqsl2_oracle.py``.
    """

    __slots__ = ("shape",)

    def _validate(self):
        if type(self.shape) is not tuple:
            raise TypeError(f"a module shape is a tuple of ints, got {self.shape!r}")
        _shape(self.shape)

    # read from the operators of the shape, built once per shape
    weights = property(lambda self: _operators(self.shape)[0])
    e = property(lambda self: _operators(self.shape)[1])
    f = property(lambda self: _operators(self.shape)[2])
    dim = property(lambda self: len(_operators(self.shape)[0]))

    def k_matrix(self, power: int = 1) -> QMatrix:
        return QMatrix.diagonal([qpow(power * w) for w in self.weights])


def irreducible(n: int) -> UqModule:
    """The irreducible module of highest weight n in the standard basis."""
    return UqModule((n,))


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
    return QMatrix._of(out)


def tensor_module(m: UqModule, n: UqModule) -> UqModule:
    """Tensor product module on the product basis.

    The product basis index of (a, b) is b * dim(m) + a: the second
    factor varies slowest, matching the canonical crystal word order.
    """
    return UqModule(m.shape + n.shape)


def module_for_shape(shape) -> UqModule:
    """The tensor product of irreducibles along a shape, left to right."""
    return UqModule(_shape(shape))


@lru_cache(maxsize=None)
def _operators(shape):
    """(weights, E, F) of the module of a valid shape, in the standard basis.

    A longer shape tensors its prefix with its last factor through the
    coproduct, a left fold through this cache: each prefix and each
    factor is built once.  E and F are dense, so a shape whose dimension
    squared exceeds qcactus._WORD_BUDGET (a dimension over 1024) is
    refused before anything is built.
    """
    dim = prod(n + 1 for n in shape)
    if dim * dim > _WORD_BUDGET:
        raise ValueError(f"module of shape {shape} has dimension {dim}: {dim * dim} dense "
                         f"matrix entries, over the budget of {_WORD_BUDGET}")
    if len(shape) == 1:
        (n,) = shape
        basis = range(n + 1)  # row r holds v_(n-2r)
        e = [[quantum_int(n - r) if c == r + 1 else ZERO for c in basis] for r in basis]
        f = [[quantum_int(r) if c == r - 1 else ZERO for c in basis] for r in basis]
        return tuple(range(n, -n - 1, -2)), QMatrix._of(e), QMatrix._of(f)
    m, n = UqModule(shape[:-1]), UqModule(shape[-1:])
    e = _tensor_operator([(m.e, n.k_matrix()), (QMatrix.identity(m.dim), n.e)])
    f = _tensor_operator([(m.f, QMatrix.identity(n.dim)), (m.k_matrix(-1), n.f)])
    return tuple(a + b for b in n.weights for a in m.weights), e, f


def highest_weight_vectors(m: UqModule):
    """Basis of ker E per weight space, in product-frame coordinates.

    One vector per irreducible component; each is normalized so its
    first nonzero product-frame coordinate is 1, and the list is ordered
    by descending weight, then by that coordinate's position.
    """
    weights, e, out = m.weights, m.e, []
    for w in sorted(set(weights), reverse=True):
        cols = [i for i, x in enumerate(weights) if x == w]
        upper = [i for i, x in enumerate(weights) if x == w + 2]
        # with no weight above, a zero row leaves every coordinate free
        rows = [[e[r, c] for c in cols] for r in upper] or [[ZERO] * len(cols)]
        for vec in _kernel_basis(rows):
            full = [ZERO] * len(weights)
            for ci, c in enumerate(cols):
                full[c] = vec[ci]
            out.append((w, full))
    return out


class ModuleComponent(Record):
    __slots__ = ("highest_weight", "columns")  # dim x (highest_weight + 1), divided powers


def module_components(m: UqModule):
    """Split a module into irreducible components.

    Column d of a component is the d-th divided power of F applied to
    its highest weight vector, so the columns realize the standard basis
    of the abstract irreducible of that highest weight.
    """
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
    t = module_for_shape(m.shape + n.shape)
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


def _assemble_flip_r(m: UqModule, n: UqModule) -> QMatrix:
    """flip . R from M (x) N to N (x) M, on the product bases."""
    # theta = sum_k c_k E^k (x) F^k, with c_0 = 1 and E^0 (x) F^0 = I (x) I
    terms = []
    coeff = ONE
    dm = m.dim
    e_pow = QMatrix.identity(dm)
    f_pow = QMatrix.identity(n.dim)
    k = 0
    qdiff = qpow(1) - qpow(-1)
    while not (e_pow.is_zero() or f_pow.is_zero()):
        terms.append((e_pow.scale(coeff), f_pow))
        coeff = coeff * qpow(k) * qdiff / quantum_int(k + 1)
        k += 1
        e_pow = m.e @ e_pow
        f_pow = n.f @ f_pow
    theta = _tensor_operator(terms).entries
    # row a dim N + b of flip . R is row b dim M + a of theta, times P on v_a (x) v_b
    return QMatrix._of([[Qpow(wa * wb) * x if x else x for x in theta[b * dm + a]]
                        for a, wa in enumerate(m.weights) for b, wb in enumerate(n.weights)])


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
    if _assemble_flip_r(v1, v1) != _reference_flip_r():
        raise CalibrationError(
            "computed braiding on V_1 (x) V_1 differs from the frozen reference"
        )


@lru_cache(maxsize=None)
def _flip_r(shape_m, shape_n) -> QMatrix:
    _calibration()
    return _assemble_flip_r(module_for_shape(shape_m), module_for_shape(shape_n))


def _in_frame(a: QMatrix, frame: str, source, target) -> QMatrix:
    """A map between product bases, or conjugated into the isotypic frames.

    ``source`` and ``target`` are the factor pairs of the domain and the
    codomain; ``frame="s2"`` needs both to be multiplicity-free.
    """
    if frame == "s1":
        return a
    if frame == "s2":
        f_source, _ = isotypic_frame(*source)
        # a frame is its product's: one serves both sides when the shapes agree
        same = target[0].shape + target[1].shape == source[0].shape + source[1].shape
        f_target = f_source if same else isotypic_frame(*target)[0]
        return _solve(f_target, a @ f_source)
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


def _twist_exponent(lam: int) -> int:
    return lam * (lam + 2) // 2


@lru_cache(maxsize=None)
def _newton_coefficients(lams, sign: int):
    """Divided differences of Q^(sign floor(lam(lam+2)/2)) at the points c_lam, in lams' order.

    Keyed by the tuple of highest weights, so the blocks of weight w and
    -w, and every module with the same components, share one computation.
    """
    c = [_casimir_eigenvalue(lam) for lam in lams]
    coef = [Qpow(sign * _twist_exponent(lam)) for lam in lams]
    for j in range(1, len(lams)):
        for i in range(len(lams) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (c[i] - c[i - j])
    return tuple(coef)


def _twist(shape, sign: int) -> QMatrix:
    """T^(+-) = sum of Q^(+-floor(lam(lam+2)/2)) P_lam on the module of a shape.

    P_lam projects onto the isotypic component of highest weight lam, so
    T = f(C) for the polynomial f through the points (c_lam, Q^(+-...)),
    where the Casimir C = (q - q^-1)^2 FE + qK + q^-1 K^-1 acts on V_lam
    by c_lam = q^(lam+1) + q^-(lam+1).  C preserves weights, and the
    weight-w block meets only the components of highest weight
    lam >= |w|.  On each block f is taken in Newton's form over those lam
    in descending order, with the divided differences of the values as
    coefficients: B_0 is the identity and B_k = B_(k-1) (C - c_lam_(k-1)),
    one matrix product per extra eigenvalue, where the Lagrange projectors
    need one per pair.  Each coef_k B_k is added as soon as it is formed,
    so one B_k per block is alive.  FE is formed only when a block meets
    two or more components, so the twist of an irreducible is its
    monomial times the identity, built with no matrix product.
    """
    m = module_for_shape(shape)
    weights, fe = m.weights, None
    count = Counter(weights)
    present = tuple(lam for lam in sorted(count, reverse=True)
                    if lam >= 0 and count[lam] > count[lam + 2])
    out = [[ZERO] * m.dim for _ in range(m.dim)]
    for w in sorted(count, reverse=True):
        idx = [i for i, x in enumerate(weights) if x == w]
        lams = tuple(lam for lam in present if lam >= abs(w))
        if len(lams) > 1 and fe is None:
            qdiff = qpow(1) - qpow(-1)
            fe = (m.f @ m.e).scale(qdiff * qdiff).entries
        b = QMatrix.identity(len(idx))
        for k, coef in enumerate(_newton_coefficients(lams, sign)):
            if k:
                # C - c_lam_(k-1) on the block: FE plus c_w - c_lam_(k-1) on the diagonal
                s = _casimir_eigenvalue(w) - _casimir_eigenvalue(lams[k - 1])
                shifted = QMatrix._of([[fe[i][j] + s if i == j else fe[i][j] for j in idx]
                                       for i in idx])
                b = shifted if k == 1 else b @ shifted
            for i, row in zip(idx, b.entries):
                for j, x in zip(idx, row):
                    if x:
                        out[i][j] += coef * x
    return QMatrix._of(out)


def _unitarization(shape_m, shape_n):
    """(X, flip . R X) with X = (R^op R)^(-1/2) on M (x) N, by Drinfeld's ribbon formula.

    R^op R = (v (x) v) Delta(v)^-1 for the ribbon element v, which acts
    on V_lam by Q^(-lam(lam+2)), so X = Q^(eps_M eps_N) (T_M^+ (x) T_N^+)
    T_(M (x) N)^-; the parity factor restores what the floors drop when
    both weights are odd.
    """
    parity = (sum(shape_m) % 2) * (sum(shape_n) % 2)
    t_m = _twist(shape_m, 1).scale(Qpow(parity))
    x = _tensor_operator([(t_m, _twist(shape_n, 1))]) @ _twist(shape_m + shape_n, -1)
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
    for i, row in enumerate(a.entries):
        for j, x in enumerate(row):
            if not is_regular_at_infinity(x):
                raise LatticeError(
                    f"lattice not preserved: entry ({i}, {j}) = {x} is not regular at q = infinity"
                )
    # each entry's constant term num/den, den > 0, is 0, 1 or -1 iff num is 0, den or -den
    reduced = [[_constant_at_infinity(x) for x in row] for row in a.entries]
    for i, row in enumerate(reduced):
        for j, (num, den) in enumerate(row):
            if num not in (0, den, -den):
                from fractions import Fraction  # only to print the entry as a reduced fraction
                raise LatticeError(
                    f"reduction has entry {Fraction(num, den)} at ({i}, {j}); not a signed permutation"
                )
    reduced = [[num // den for num, den in row] for row in reduced]
    for i, (row, column) in enumerate(zip(reduced, zip(*reduced))):
        if sum(map(bool, row)) != 1:
            raise LatticeError(f"row {i} of the reduction is not a signed permutation row")
        if sum(map(bool, column)) != 1:
            raise LatticeError(f"column {i} of the reduction is not a signed permutation column")
    return reduced


class Kt07Report(Record):
    __slots__ = ("m", "n", "mismatches")

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
    independent up to the shared word order.  Both are read by
    word_index: the commutor's image indices, and nu from the index
    chains of the components; a word is named only when it mismatches.
    """
    from . import crystals  # the only use; rmatrix and the braidings run without it

    vm, vn = module_for_shape((m,)), module_for_shape((n,))
    reduced = lattice_check_and_reduce(unitarized_matrix(vm, vn), vm, vn)
    sign = [0] * len(reduced)
    for nu, chain in crystals._chains((m, n)):
        for i in chain:
            sign[i] = -1 if ((m + n - nu) // 2) % 2 else 1
    image = crystals.commutor_c((m,), (n,)).index
    mismatches = []
    for col, got in enumerate(zip(*reduced)):
        want = [0] * len(reduced)
        want[image[col]] = sign[col]
        if list(got) != want:
            mismatches.append((crystals._word((m, n), col), want, list(got)))
    return Kt07Report(m, n, tuple(mismatches))


# -- operators on multi-factor products ---------------------------------------

def apply_on_slots(op: QMatrix, left, right) -> QMatrix:
    """id (x) op (x) id, padded by the shapes left and right of op's factors.

    The form of ``crystals.extend_map(m, left, right)``: either pad may be empty,
    both pass the shape rule, and the product is in the canonical order.
    """
    left, right = tuple(left), tuple(right)
    _shape(left + (0,) + right)  # the 0 holds op's place, so an empty pad is no fault
    pre, post = (QMatrix.identity(prod(n + 1 for n in pad)) for pad in (left, right))
    return _tensor_operator([(_tensor_operator([(pre, op)]), post)])


# -- assembled checks ----------------------------------------------------------

def check_yang_baxter() -> bool:
    """(sigma (x) id)(id (x) sigma)(sigma (x) id) on three chain factors."""
    return _yang_baxter_witness() is None


def _yang_baxter_witness():
    """None when the braid relation holds on V1 (x) V1 (x) V1, else its first
    failing entry in row-major order: ((row, col), left value, right value)."""
    v1 = irreducible(1)
    sigma = braiding_matrix(v1, v1)
    s1 = apply_on_slots(sigma, (), (1,))
    s2 = apply_on_slots(sigma, (1,), ())
    lhs, rhs = s1 @ s2 @ s1, s2 @ s1 @ s2
    if lhs == rhs:
        return None
    return next(((i, j), x, y) for i, (row_l, row_r) in enumerate(zip(lhs.entries, rhs.entries))
                for j, (x, y) in enumerate(zip(row_l, row_r)) if x != y)


def check_cactus_relation_unitarized() -> bool:
    """The compatibility square for the unitarized braiding on V_1^(x3)."""
    v1, v11 = irreducible(1), module_for_shape((1, 1))
    inner = unitarized_matrix(v1, v1)
    lhs = unitarized_matrix(v1, v11) @ apply_on_slots(inner, (1,), ())
    rhs = unitarized_matrix(v11, v1) @ apply_on_slots(inner, (), (1,))
    return lhs == rhs


def check_unitarized_involutive(max_weight: int = 3) -> bool:
    """Both compositions of the unitarized braiding are the identity."""
    pairs = [((m,), (n,)) for m in range(max_weight + 1) for n in range(max_weight + 1)]
    for a, b in pairs + [((1,), (1, 1))]:
        vm, vn = module_for_shape(a), module_for_shape(b)
        forward, backward = unitarized_matrix(vm, vn), unitarized_matrix(vn, vm)
        if backward @ forward != QMatrix.identity(vm.dim * vn.dim):
            return False
    return True
