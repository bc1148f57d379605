from fractions import Fraction

import pytest

from qcactus import crystals, uqsl2
from qcactus.qexact import ONE, QRational, Qpow, qpow, quantum_int
from qcactus.uqsl2 import (
    LatticeError,
    QMatrix,
    SingularMatrixError,
    UnitarizationError,
    apply_on_slots,
    block_scalars,
    braiding_matrix,
    check_cactus_relation_unitarized,
    check_unitarized_involutive,
    check_yang_baxter,
    evaluate_matrix,
    flip_matrix,
    highest_weight_vectors,
    irreducible,
    isotypic_frame,
    lattice_check_and_reduce,
    module_components,
    module_for_shape,
    module_relations_ok,
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
        assert module_relations_ok(irreducible(n))
    for shape in [(1, 1), (2, 1), (1, 2, 1), (3, 2)]:
        assert module_relations_ok(module_for_shape(shape))


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
        at_one = evaluate_matrix(sigma, Fraction(1))
        flip = evaluate_matrix(flip_matrix(vm, vn), Fraction(1))
        assert at_one == flip


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
    assert module_components(built) is module_components(module_for_shape((1, 1, 1)))
    v2, v01, v20 = irreducible(2), module_for_shape((0, 1)), module_for_shape((2, 0))
    assert isotypic_frame(v2, v01) is isotypic_frame(v20, v1)
    assert braiding_matrix(tensor_module(v1, v1), v1) is braiding_matrix(v11, v1)


def test_non_diagonal_unitarized_s2_is_a_unitarization_error(monkeypatch):
    # the flip does not send the singlet of V_1 (x) V_1 to a multiple of
    # itself, so it is not diagonal in the isotypic frames
    v1 = irreducible(1)
    monkeypatch.setattr(uqsl2, "_unitarization", lambda sm, sn: (None, flip_matrix(v1, v1)))
    with pytest.raises(UnitarizationError, match="not diagonal"):
        unitarized_matrix(v1, v1, "s2")


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


def test_apply_on_slots_matches_tensor_structure():
    v1 = irreducible(1)
    sigma = braiding_matrix(v1, v1, "s1")
    left = apply_on_slots(sigma, [2, 2, 2], 0, 2, [2, 2])
    # acting on the first two factors leaves the third index untouched
    t3 = module_for_shape((1, 1, 1))
    assert left.rows == t3.dim == 8
    for i3 in range(2):
        for r in range(4):
            for c in range(4):
                assert left[i3 * 4 + r, i3 * 4 + c] == sigma[r, c]
