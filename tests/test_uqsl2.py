from itertools import product
import time

import pytest

from qcactus import crystals, uqsl2
from qcactus.cli import run
from qcactus.qexact import ONE, ZERO, QRational, Qpow, qpow, quantum_int
from qcactus.uqsl2 import (
    LatticeError,
    QMatrix,
    SingularMatrixError,
    UnitarizationError,
    UqModule,
    apply_on_slots,
    block_scalars,
    braiding_matrix,
    check_cactus_relation_unitarized,
    check_unitarized_involutive,
    check_yang_baxter,
    flip_matrix,
    highest_weight_vectors,
    irreducible,
    isotypic_frame,
    lattice_check_and_reduce,
    module_components,
    module_for_shape,
    rop_r_inverse_sqrt,
    tensor_module,
    unitarized_matrix,
    verify_kt07,
)

import uqsl2_oracle as oracle

q = qpow(1)
qi = qpow(-1)


# -- reference matrices used as frozen oracles --------------------------------

def ref_flip_r_s1() -> QMatrix:
    return QMatrix(
        [
            [q, 0, 0, 0],
            [0, q - qi, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, q],
        ]
    ).scale(Qpow(-1))


def ref_flip_r_s2() -> QMatrix:
    return QMatrix.diagonal([Qpow(1), -Qpow(-3), Qpow(1), Qpow(1)])


def ref_unitarized_s1() -> QMatrix:
    den = 1 + q * q
    return QMatrix(
        [
            [1, 0, 0, 0],
            [0, (q * q - 1) / den, (2 * q) / den, 0],
            [0, (2 * q) / den, (1 - q * q) / den, 0],
            [0, 0, 0, 1],
        ]
    )


def ref_unitarized_s2() -> QMatrix:
    return QMatrix.diagonal([1, -1, 1, 1])


def ref_inv_sqrt_s1() -> QMatrix:
    den = 1 + q * q
    return QMatrix(
        [
            [1, 0, 0, 0],
            [0, (2 * q * q) / den, (q - q * q * q) / den, 0],
            [0, (q - q * q * q) / den, (1 + q ** 4) / den, 0],
            [0, 0, 0, 1],
        ]
    ).scale(Qpow(-1))


# -- module structure ----------------------------------------------------------

def test_irreducible_small_modules():
    v1 = irreducible(1)
    assert v1.f.entries == QMatrix([[0, 0], [1, 0]]).entries
    assert v1.e.entries == QMatrix([[0, 1], [0, 0]]).entries
    assert v1.k_matrix().diagonal_entries() == [q, qi]

    v0 = irreducible(0)
    assert v0.e.is_zero() and v0.f.is_zero()
    assert v0.k_matrix() == QMatrix.identity(1)

    v2 = irreducible(2)
    assert v2.f[1, 0] == ONE
    assert v2.f[2, 1] == quantum_int(2)


def test_defining_relations_hold():
    for n in range(5):
        assert oracle.module_relations_ok(irreducible(n))
    for shape in [(1, 1), (2, 1), (1, 2, 1), (3, 2)]:
        assert oracle.module_relations_ok(module_for_shape(shape))


def test_coproduct_action_on_v1v1():
    t = module_for_shape((1, 1))
    # F(v1 (x) v1) = v-1 (x) v1 + q^-1 v1 (x) v-1
    col = t.f.column(0)
    assert col[1] == ONE
    assert col[2] == qi
    assert col[0] == QRational(0) and col[3] == QRational(0)
    # E(v1 (x) v1) = 0
    assert all(not x for x in t.e.column(0))
    # K fixes the weight-zero vector v1 (x) v-1
    assert t.weights[2] == 0


def test_highest_weight_vectors_v1v1():
    t = module_for_shape((1, 1))
    hwvs = highest_weight_vectors(t)
    assert [w for w, _ in hwvs] == [2, 0]
    top = hwvs[0][1]
    assert top == [ONE, QRational(0), QRational(0), QRational(0)]
    singlet = hwvs[1][1]
    assert singlet == [QRational(0), ONE, -q, QRational(0)]


def test_highest_weight_vectors_v2v1():
    t = module_for_shape((2, 1))
    hwvs = highest_weight_vectors(t)
    assert [w for w, _ in hwvs] == [3, 1]
    w, vec = hwvs[1]
    assert w == 1
    # one vector, killed by E, leading coefficient one
    image = [sum((t.e[r, c] * vec[c] for c in range(t.dim)), QRational(0)) for r in range(t.dim)]
    assert all(not x for x in image)
    lead = next(x for x in vec if x)
    assert lead == ONE


def test_module_components_give_module_isomorphisms():
    t = module_for_shape((2, 1))
    comps = module_components(t)
    assert [c.highest_weight for c in comps] == [3, 1]
    for comp in comps:
        mu = comp.highest_weight
        model = irreducible(mu)
        cols = comp.columns
        # F . embedding = embedding . F_model, column by column
        for d in range(mu + 1):
            vec = cols.column(d)
            f_vec = [
                sum((t.f[r, c] * vec[c] for c in range(t.dim)), QRational(0))
                for r in range(t.dim)
            ]
            expected = [QRational(0)] * t.dim
            if d < mu:
                coeff = model.f[d + 1, d]
                nxt = cols.column(d + 1)
                expected = [coeff * x for x in nxt]
            assert f_vec == expected


def test_isotypic_frame_order_on_v1v1():
    t_frame, slots = isotypic_frame(irreducible(1), irreducible(1))
    assert tuple(slots) == ((2, 2), (0, 0), (0, 2), (-2, 2))
    # the singlet column is the vector a = v-1 (x) v1 - q v1 (x) v-1
    assert t_frame.column(1) == [QRational(0), ONE, -q, QRational(0)]
    # the middle triplet column is b = v-1 (x) v1 + q^-1 v1 (x) v-1
    assert t_frame.column(2) == [QRational(0), ONE, qi, QRational(0)]


# -- braiding ------------------------------------------------------------------

def test_flip_r_v1v1_product_frame():
    got = braiding_matrix(irreducible(1), irreducible(1), "s1")
    assert got == ref_flip_r_s1()


def test_flip_r_v1v1_isotypic_frame():
    got = braiding_matrix(irreducible(1), irreducible(1), "s2")
    assert got == ref_flip_r_s2()


def test_flip_r_identity_for_trivial_factor():
    v0, v3 = irreducible(0), irreducible(3)
    assert braiding_matrix(v0, v3, "s1") == QMatrix.identity(4)
    assert braiding_matrix(v3, v0, "s1") == QMatrix.identity(4)


def test_flip_r_is_an_intertwiner():
    for m, n in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        vm, vn = irreducible(m), irreducible(n)
        t_mn = tensor_module(vm, vn)
        t_nm = tensor_module(vn, vm)
        sigma = braiding_matrix(vm, vn, "s1")
        assert sigma @ t_mn.e == t_nm.e @ sigma
        assert sigma @ t_mn.f == t_nm.f @ sigma
        assert sigma @ t_mn.k_matrix() == t_nm.k_matrix() @ sigma


def test_block_scalars_closed_form():
    # On V_m (x) V_m the braiding is an endomorphism and acts on the block
    # of highest weight nu by (-1)^((2m-nu)/2) Q^((nu(nu+2) - 2m(m+2))/2).
    for m in range(4):
        scalars = block_scalars(irreducible(m), irreducible(m))
        for nu, s in scalars.items():
            sign = -1 if ((2 * m - nu) // 2) % 2 else 1
            e = (nu * (nu + 2) - 2 * m * (m + 2)) // 2
            expected = Qpow(e) if sign == 1 else -Qpow(e)
            assert s == expected


def test_block_scalar_products_closed_form():
    # For mixed factors the per-direction scalars depend on the chosen
    # highest weight normalizations, but their product is the eigenvalue
    # of the composite of the two braiding directions:
    # Q^(nu(nu+2) - m(m+2) - n(n+2)), always a positive even monomial.
    for m in range(4):
        for n in range(4):
            fwd = block_scalars(irreducible(m), irreducible(n))
            bwd = block_scalars(irreducible(n), irreducible(m))
            assert set(fwd) == set(bwd)
            for nu in fwd:
                e = nu * (nu + 2) - m * (m + 2) - n * (n + 2)
                assert fwd[nu] * bwd[nu] == Qpow(e)


def test_block_scalars_v1v1_values():
    scalars = block_scalars(irreducible(1), irreducible(1))
    assert scalars[2] == Qpow(1)
    assert scalars[0] == -Qpow(-3)


def test_classical_limit_of_braiding_is_flip():
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        vm, vn = irreducible(m), irreducible(n)
        sigma = braiding_matrix(vm, vn, "s1")
        at_one, flip = ([[entry.evaluate(1) for entry in row] for row in a.entries]
                        for a in (sigma, flip_matrix(vm, vn)))
        assert at_one == flip


def test_braiding_matches_flip_after_prefactor_after_theta():
    # the dense route: flip_matrix @ (diag(Q^(w_a w_b)) @ theta)
    shapes = [(0,), (1,), (2,), (3,), (1, 1), (2, 1)]
    for sm in shapes:
        for sn in shapes:
            m, n = module_for_shape(sm), module_for_shape(sn)
            assert braiding_matrix(m, n) == oracle.flip_r(m, n), (sm, sn)


def test_a_module_is_built_from_its_shape_only():
    v1 = irreducible(1)
    assert UqModule.__slots__ == ("shape",)
    for fields in [((1,), (1, -1), v1.e, v1.f), ((3,), v1.weights, v1.e, v1.f)]:
        with pytest.raises(TypeError):
            UqModule(*fields)
    assert irreducible(3) == UqModule((3,)) and irreducible(3).dim == 4
    assert irreducible(3).e is irreducible(3).e  # built once, however often it is named


@pytest.mark.parametrize("shape, error, message", [
    ((), ValueError, "shape must be nonempty"),
    ((-1,), ValueError, "highest weight must be nonnegative"),
    ((2, -1), ValueError, "highest weight must be nonnegative"),
    ((1.5,), TypeError, "tuple of ints"),
    ((True,), TypeError, "tuple of ints"),
    ([1], TypeError, "tuple of ints"),
])
def test_module_shapes_are_checked(shape, error, message):
    with pytest.raises(error, match=message):
        UqModule(shape)
    if type(shape) is tuple and error is ValueError:
        with pytest.raises(error, match=message):
            module_for_shape(shape)


def test_module_for_shape_accepts_any_sequence():
    a, b = module_for_shape([1, 2]), module_for_shape((1, 2))
    assert a == b and hash(a) == hash(b)
    assert a.e is b.e  # the operators of a shape are built once


def test_yang_baxter_exactly():
    assert check_yang_baxter()


def test_calibration_guard_trips_on_convention_drift(monkeypatch):
    from qcactus import uqsl2 as mod
    from qcactus.uqsl2 import CalibrationError

    monkeypatch.setattr(mod, "_reference_flip_r", lambda: QMatrix.identity(4))
    mod._calibration.cache_clear()
    mod._flip_r.cache_clear()
    try:
        with pytest.raises(CalibrationError):
            braiding_matrix(irreducible(1), irreducible(1))
    finally:
        mod._calibration.cache_clear()
        mod._flip_r.cache_clear()


# -- unitarization ---------------------------------------------------------------

def test_unitarized_v1v1_both_frames():
    v1 = irreducible(1)
    assert unitarized_matrix(v1, v1, "s1") == ref_unitarized_s1()
    assert unitarized_matrix(v1, v1, "s2") == ref_unitarized_s2()


def test_inverse_sqrt_intermediate():
    v1 = irreducible(1)
    assert rop_r_inverse_sqrt(v1, v1, "s1") == ref_inv_sqrt_s1()
    # in the isotypic frame it is diag(1, q^2, 1, 1) scaled by q^(-1/2)
    expected = QMatrix.diagonal([ONE, q * q, ONE, ONE]).scale(Qpow(-1))
    assert rop_r_inverse_sqrt(v1, v1, "s2") == expected


def test_unitarized_is_involutive():
    assert check_unitarized_involutive(3)


def test_unitarized_squares_to_rop_r():
    # flip.Rbar composed with itself must be the identity while flip.R
    # composed with itself is R^op R, a genuinely different operator
    v1 = irreducible(1)
    sigma = braiding_matrix(v1, v1, "s1")
    assert sigma @ sigma != QMatrix.identity(4)


def test_cactus_relation_for_unitarized_braiding():
    assert check_cactus_relation_unitarized()


def test_unitarized_composite_matches_block_assembly():
    # on composite factors the unitarized braiding must still be a module
    # map; its agreement with the component-block assembly is checked
    # against the oracle below.  Here: the intertwiner property on
    # V_1 (x) (V_1 (x) V_1)
    v1 = irreducible(1)
    v11 = module_for_shape((1, 1))
    forward = unitarized_matrix(v1, v11)
    t_a = tensor_module(v1, v11)
    t_b = tensor_module(v11, v1)
    assert forward @ t_a.e == t_b.e @ forward
    assert forward @ t_a.f == t_b.f @ forward


COMPOSITES = [((1,), (1, 1)), ((1, 1), (1,)), ((2,), (1, 1)), ((1, 1), (2,)), ((1, 1), (1, 1))]


@pytest.mark.parametrize("frame", ["s1", "s2"])
def test_unitarized_matches_isotypic_frame_oracle(frame):
    for m in range(4):
        for n in range(4):
            vm, vn = irreducible(m), irreducible(n)
            assert unitarized_matrix(vm, vn, frame) == oracle.unitarized_matrix(vm, vn, frame), (m, n)


@pytest.mark.parametrize("frame", ["s1", "s2"])
def test_inverse_sqrt_matches_isotypic_frame_oracle(frame):
    for m in range(4):
        for n in range(4):
            vm, vn = irreducible(m), irreducible(n)
            assert rop_r_inverse_sqrt(vm, vn, frame) == oracle.rop_r_inverse_sqrt(vm, vn, frame), (m, n)


@pytest.mark.parametrize("shapes", COMPOSITES, ids=lambda p: ":".join(",".join(map(str, s)) for s in p))
def test_unitarized_composite_matches_component_block_oracle(shapes):
    m, n = (module_for_shape(s) for s in shapes)
    assert unitarized_matrix(m, n) == oracle.unitarized_matrix(m, n)


def test_unitarized_is_braiding_times_inverse_sqrt_on_composites():
    v1, v11 = irreducible(1), module_for_shape((1, 1))
    for m, n in [(v1, v11), (v11, v1)]:
        assert braiding_matrix(m, n) @ rop_r_inverse_sqrt(m, n) == unitarized_matrix(m, n)


def test_caches_are_keyed_by_shape():
    # keying by shape relies on a module being determined by its shape:
    # tensor_module must rebuild module_for_shape's module exactly
    v1, v11 = irreducible(1), module_for_shape((1, 1))
    built = tensor_module(v1, v11)
    assert built == module_for_shape((1, 1, 1))
    assert module_components(built) == module_components(module_for_shape((1, 1, 1)))
    v2, v01, v20 = irreducible(2), module_for_shape((0, 1)), module_for_shape((2, 0))
    assert isotypic_frame(v2, v01) == isotypic_frame(v20, v1)
    assert braiding_matrix(tensor_module(v1, v1), v1) is braiding_matrix(v11, v1)


def test_a_frame_change_within_one_product_builds_one_frame(monkeypatch):
    built = []
    frame = uqsl2.isotypic_frame
    monkeypatch.setattr(uqsl2, "isotypic_frame",
                        lambda m, n: built.append(m.shape + n.shape) or frame(m, n))
    v1, v2 = irreducible(1), irreducible(2)
    braiding_matrix(v2, v2, "s2")
    rop_r_inverse_sqrt(v2, v1, "s2")
    braiding_matrix(v2, v1, "s2")
    assert built == [(2, 2), (2, 1), (2, 1), (1, 2)]


def test_non_diagonal_unitarized_s2_is_a_unitarization_error(monkeypatch):
    # the flip does not send the singlet of V_1 (x) V_1 to a multiple of
    # itself, so it is not diagonal in the isotypic frames
    v1 = irreducible(1)
    monkeypatch.setattr(uqsl2, "_unitarization", lambda sm, sn: (None, flip_matrix(v1, v1)))
    with pytest.raises(UnitarizationError, match="not diagonal"):
        unitarized_matrix(v1, v1, "s2")


# -- the twists of the ribbon formula and their caches ---------------------------

def _clear_uqsl2_caches():
    for value in vars(uqsl2).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("factors", [1, 2, 3])
def test_twist_scales_each_component(factors, sign):
    for shape in product(range(3), repeat=factors):
        twist = uqsl2._twist(shape, sign)
        for columns, scaled in oracle.twist_on_components(shape, sign):
            assert twist @ columns == scaled, shape


def test_irreducible_twist_is_a_scalar_built_without_products(monkeypatch):
    expected = {(m, s): QMatrix.identity(m + 1).scale(Qpow(s * (m * (m + 2) // 2)))
                for m in range(7) for s in (1, -1)}
    products = []
    matmul = QMatrix.__matmul__
    monkeypatch.setattr(QMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    got = {(m, s): uqsl2._twist((m,), s) for m, s in expected}
    assert products == []
    assert got == expected


def test_newton_coefficients_are_computed_once_per_key(capsys, monkeypatch):
    twisted = []
    twist = uqsl2._twist
    monkeypatch.setattr(uqsl2, "_twist",
                        lambda shape, sign: twisted.append((shape, sign)) or twist(shape, sign))
    _clear_uqsl2_caches()
    assert run(["check", "kt07", "--max", "3"]) == 0
    capsys.readouterr()
    # the weight-w block of a twisted shape meets its components of highest weight lam >= |w|
    keys = set()
    for shape, sign in twisted:
        m = module_for_shape(shape)
        lams = sorted({lam for lam, _vec in highest_weight_vectors(m)}, reverse=True)
        keys |= {(tuple(lam for lam in lams if lam >= abs(w)), sign) for w in m.weights}
    info = uqsl2._newton_coefficients.cache_info()
    assert info.misses == len(keys)
    assert info.hits > 0


def test_module_for_shape_builds_each_prefix_and_factor_once():
    _clear_uqsl2_caches()
    module_for_shape((1, 2, 1)).e
    # (1,), (2,), (1, 2) and (1, 2, 1) are built, the second (1,) is read
    assert uqsl2._operators.cache_info().misses == 4
    module_for_shape((1, 2)).f
    assert uqsl2._operators.cache_info().misses == 4


@pytest.mark.parametrize("shape, dim", [((1024,), 1025), ((31, 32), 1056)])
def test_a_module_over_the_dense_budget_is_refused_before_any_operator(shape, dim):
    module = module_for_shape(shape)  # under the word budget: the shape rule admits it
    start = time.perf_counter()
    with pytest.raises(ValueError) as info:
        module.e
    assert time.perf_counter() - start < 0.1
    assert str(info.value) == (f"module of shape {shape} has dimension {dim}: {dim * dim} "
                               f"dense matrix entries, over the budget of 1048576")


def test_a_module_at_the_dense_budget_is_built():
    assert module_for_shape((31, 31)).dim == 1024


def test_public_constructor_coerces_and_checks_rows():
    ints = QMatrix([[1, 0], [0, 2]])
    assert ints == QMatrix._of([[ONE, ZERO], [ZERO, QRational(2)]])
    assert all(type(x) is QRational for row in ints.entries for x in row)
    with pytest.raises(ValueError, match="ragged rows"):
        QMatrix([[1, 2], [3]])


# -- lattice reduction -----------------------------------------------------------

def test_lattice_reduce_unitarized_v1v1():
    v1 = irreducible(1)
    reduced = lattice_check_and_reduce(unitarized_matrix(v1, v1), v1, v1)
    assert reduced == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, 1],
    ]


def test_lattice_reduce_rejects_plain_braiding():
    v1 = irreducible(1)
    with pytest.raises(LatticeError, match="lattice not preserved"):
        lattice_check_and_reduce(braiding_matrix(v1, v1), v1, v1)


def test_lattice_reduce_rejects_non_signed_permutations():
    v1 = irreducible(1)
    with pytest.raises(LatticeError, match=r"entry 2 at \(0, 0\)"):
        lattice_check_and_reduce(QMatrix.identity(4).scale(2), v1, v1)
    with pytest.raises(LatticeError, match="row 0"):
        lattice_check_and_reduce(QMatrix.zeros(4, 4), v1, v1)


@pytest.mark.parametrize("entry, shown", [(QRational(1, 2), "1/2"), (QRational(2), "2")])
def test_lattice_reduce_names_a_non_sign_entry_as_a_fraction(entry, shown):
    # the check compares int parts; the message still prints the entry reduced
    v0 = irreducible(0)
    message = f"reduction has entry {shown} at (0, 0); not a signed permutation"
    with pytest.raises(LatticeError) as info:
        lattice_check_and_reduce(QMatrix([[entry]]), v0, v0)
    assert str(info.value) == message


def test_lattice_errors_keep_their_precedence():
    v1 = irreducible(1)

    def reduce(entries):
        return lattice_check_and_reduce(QMatrix(entries), v1, v1)

    def identity(**changed):
        return [[changed.get(f"at{i}{j}", int(i == j)) for j in range(4)] for i in range(4)]

    # every entry is tested for regularity before any reduced value
    with pytest.raises(LatticeError, match=r"entry \(1, 1\) = Q\^2 is not regular"):
        reduce(identity(at00=2, at11=q))
    # every reduced value is tested before any row or column
    with pytest.raises(LatticeError, match=r"entry 2 at \(3, 3\)"):
        reduce(identity(at00=0, at33=2))
    # row i before column i, and column i before row i + 1
    with pytest.raises(LatticeError, match="row 0 of the reduction"):
        reduce(identity(at01=1, at10=1))
    with pytest.raises(LatticeError, match="column 0 of the reduction"):
        reduce(identity(at10=1, at11=1))


def test_lattice_reduce_identity():
    v1 = irreducible(1)
    reduced = lattice_check_and_reduce(QMatrix.identity(4), v1, v1)
    assert reduced == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


# -- the signed comparison --------------------------------------------------------

def test_kt07_signs_on_v1v1():
    report = verify_kt07(1, 1)
    assert report.ok
    # signs realized on the four words, in canonical order
    v1 = irreducible(1)
    reduced = lattice_check_and_reduce(unitarized_matrix(v1, v1), v1, v1)
    signs = [reduced[i][i] for i in range(4)]
    assert signs == [1, 1, -1, 1]


def test_kt07_trivial_factor():
    for n in range(4):
        assert verify_kt07(0, n).ok
        assert verify_kt07(n, 0).ok


def test_kt07_2_1_against_hand_derived_images():
    report = verify_kt07(2, 1)
    assert report.ok
    vm, vn = irreducible(2), irreducible(1)
    reduced = lattice_check_and_reduce(unitarized_matrix(vm, vn), vm, vn)
    # frozen expectations: word -> (image word, sign), derived by chasing
    # the tensor rule and the highest-weight recipe by hand
    sigma = crystals.commutor_c((2,), (1,))
    cases = {
        ((2, 1), (2, 1)): (((1, 2), (1, 2)), 1),
        ((2, 1), (0, 1)): (((1, 2), (-1, 2)), 1),
        ((2, 1), (2, -1)): (((1, 2), (1, 0)), -1),
        ((2, 1), (0, -1)): (((1, 2), (1, -2)), -1),
    }
    for (shape, js), ((oshape, ojs), sign) in cases.items():
        w = crystals.TensorWord.from_weights(shape, js)
        v = crystals.TensorWord.from_weights(oshape, ojs)
        assert sigma(w) == v
        assert reduced[crystals.word_index(v)][crystals.word_index(w)] == sign


def test_kt07_all_small_pairs():
    for m in range(4):
        for n in range(4):
            assert verify_kt07(m, n).ok


def test_kt07_reports_each_mismatched_column(monkeypatch):
    # the bare flip sends every word to its reverse with sign +1, which
    # differs from the signed commutor on the two middle words of V1 (x) V1
    monkeypatch.setattr(uqsl2, "unitarized_matrix", flip_matrix)
    assert verify_kt07(1, 1).as_dict()["mismatches"] == [
        {"word": "b-1⊗b1", "expected": [0, 1, 0, 0], "got": [0, 0, 1, 0]},
        {"word": "b1⊗b-1", "expected": [0, 0, -1, 0], "got": [0, 1, 0, 0]},
    ]
    # on V1 (x) V2 the flip is not symmetric, so each reported column must
    # be the column of its word, not the row
    v1, v2 = irreducible(1), irreducible(2)
    flip = lattice_check_and_reduce(flip_matrix(v1, v2), v1, v2)
    report = verify_kt07(1, 2)
    assert report.mismatches
    for w, _want, got in report.mismatches:
        assert got == [row[crystals.word_index(w)] for row in flip]


# -- matrix utilities --------------------------------------------------------------

def test_qmatrix_inverse_and_errors():
    a = QMatrix([[1, 1], [0, 1]])
    assert a.inverse() @ a == QMatrix.identity(2)
    with pytest.raises(SingularMatrixError):
        QMatrix([[1, 1], [1, 1]]).inverse()


def test_qmatrix_json_round_trip():
    v1 = irreducible(1)
    a = braiding_matrix(v1, v1, "s1")
    again = QMatrix.from_json(a.to_json(frame="s1"))
    assert again == a


def test_qmatrix_from_json_refuses_what_to_json_cannot_write():
    import json

    data = json.loads(QMatrix([[1, qpow(1)]]).to_json())
    assert QMatrix.from_json(json.dumps(data)) == QMatrix([[1, qpow(1)]])
    # a string row iterates as its characters, so "12" once read as [1, 2]
    for change, message in [({"entries": ["12"]}, "'entries' must be a list of lists of str"),
                            ({"entries": "12", "rows": 2, "cols": 1}, "'entries' must be"),
                            ({"entries": [[1, 2]]}, "'entries' must be"),
                            ({"entries": [["1", None]]}, "'entries' must be"),
                            ({"entries": None}, "'entries' must be"),
                            ({"rows": "1"}, "'rows' must be an int"),
                            ({"rows": True}, "'rows' must be an int"),
                            ({"cols": 2.0}, "'cols' must be an int"),
                            ({"cols": 3}, "inconsistent matrix dimensions")]:
        with pytest.raises(ValueError, match=message):
            QMatrix.from_json(json.dumps({**data, **change}))
    for key, message in [("entries", "'entries' must be"), ("rows", "'rows' must be an int")]:
        with pytest.raises(ValueError, match=message):
            QMatrix.from_json(json.dumps({k: v for k, v in data.items() if k != key}))
    for text in ("[]", '[["1"]]', '"1"', "1", "null"):
        with pytest.raises(ValueError, match="a matrix is a JSON object"):
            QMatrix.from_json(text)


def test_apply_on_slots_matches_tensor_structure():
    v1 = irreducible(1)
    sigma = braiding_matrix(v1, v1, "s1")
    left = apply_on_slots(sigma, (), (1,))
    # acting on the first two factors leaves the third index untouched
    t3 = module_for_shape((1, 1, 1))
    assert left.rows == t3.dim == 8
    for i3 in range(2):
        for r in range(4):
            for c in range(4):
                assert left[i3 * 4 + r, i3 * 4 + c] == sigma[r, c]


def test_apply_on_slots_pads_by_shapes_and_refuses_what_is_not_one():
    sigma = braiding_matrix(irreducible(1), irreducible(1), "s1")
    assert apply_on_slots(sigma, (), ()) == sigma
    assert apply_on_slots(sigma, (2,), (0, 1)).rows == 3 * 4 * 1 * 2
    # a pad is checked as a shape, so a negative weight cannot give an empty matrix
    for left, right, error in [((-1,), (), ValueError), ((), (1, -2), ValueError),
                               ((1.0,), (), TypeError), ((), (True,), TypeError),
                               (("1",), (), TypeError), ((), 1, TypeError)]:
        with pytest.raises(error):
            apply_on_slots(sigma, left, right)
