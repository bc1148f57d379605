"""Property tests of the dense exact linear algebra in uqsl2.

Matrices are small, with entries c * Q^k for small rationals c; in about
half of them every k is zero, so the entries are plain rationals.  The
elimination behind ``QMatrix.inverse`` and ``_kernel_basis`` and the
Kronecker-sum builder are checked against their defining properties, and
kernel dimensions against ranks computed by sympy over Q(Q).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qcactus.qexact import ONE, ZERO, Qpow
from qcactus.uqsl2 import QMatrix, SingularMatrixError, _kernel_basis, _tensor_operator

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

coefficients = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def matrices(draw, rows, cols):
    exponents = st.just(0) if draw(st.booleans()) else st.integers(-2, 2)
    return QMatrix([[draw(coefficients) * Qpow(draw(exponents)) for _ in range(cols)]
                    for _ in range(rows)])


@st.composite
def square_matrices(draw, min_size=1):
    n = draw(st.integers(min_size, 4))
    return draw(matrices(n, n))


def _rank(rows):
    """Rank over the field Q(Q), computed by sympy from the canonical strings."""
    import sympy
    from sympy.polys.matrices import DomainMatrix

    q = sympy.Symbol("Q")
    mat = sympy.Matrix([[sympy.sympify(str(x).replace("^", "**"), locals={"Q": q}) for x in row]
                        for row in rows])
    return DomainMatrix.from_Matrix(mat).convert_to(sympy.QQ.frac_field(q)).rank()


@SETTINGS
@given(square_matrices())
def test_inverse_is_two_sided(a):
    try:
        inv = a.inverse()
    except SingularMatrixError:
        assume(False)
    identity = QMatrix.identity(a.rows)
    assert inv @ a == identity
    assert a @ inv == identity


@SETTINGS
@given(square_matrices(min_size=2), st.data())
def test_a_dependent_row_makes_the_matrix_singular(a, data):
    n = a.rows
    j = data.draw(st.integers(0, n - 1))
    weights = [data.draw(coefficients) * Qpow(data.draw(st.integers(-2, 2))) for _ in range(n)]
    rows = [list(row) for row in a.entries]
    rows[j] = [sum((weights[i] * rows[i][c] for i in range(n) if i != j), ZERO)
               for c in range(n)]
    with pytest.raises(SingularMatrixError, match="matrix is singular"):
        QMatrix(rows).inverse()


def test_kernel_basis_is_a_normalized_ordered_basis_of_the_kernel():
    pytest.importorskip("sympy")

    @SETTINGS
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.data())
    def check(nrows, inner, ncols, data):
        # a product through an inner dimension below nrows often lowers the rank
        a = data.draw(matrices(nrows, inner)) @ data.draw(matrices(inner, ncols))
        basis = _kernel_basis([list(row) for row in a.entries])
        assert len(basis) == ncols - _rank(a.entries)
        if not basis:
            return
        assert (a @ QMatrix.from_columns(basis, ncols)).is_zero()
        leads = [next(i for i, x in enumerate(v) if x) for v in basis]
        assert all(v[lead] == ONE for v, lead in zip(basis, leads))
        assert leads == sorted(leads)
        assert _rank(basis) == len(basis)

    check()


@SETTINGS
@given(st.lists(st.integers(1, 3), min_size=4, max_size=4), st.data())
def test_kronecker_builder_sums_its_terms(sizes, data):
    ra, ca, rb, cb = sizes
    a1, a2 = data.draw(matrices(ra, ca)), data.draw(matrices(ra, ca))
    b1, b2 = data.draw(matrices(rb, cb)), data.draw(matrices(rb, cb))
    first = _tensor_operator([(a1, b1)])
    for i in range(ra):
        for k in range(ca):
            for j in range(rb):
                for l in range(cb):
                    # the product basis has the second index slow
                    assert first[j * ra + i, l * ca + k] == a1[i, k] * b1[j, l]
    both = _tensor_operator([(a1, b1), (a2, b2)])
    assert both == first + _tensor_operator([(a2, b2)])


def test_kronecker_builder_rejects_terms_of_different_sizes():
    with pytest.raises(ValueError):
        _tensor_operator([(QMatrix.identity(2), QMatrix.identity(2)),
                          (QMatrix.identity(3), QMatrix.identity(2))])
