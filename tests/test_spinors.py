import numpy as np
import pytest
from test_clifford import oracle_blade_sign

from subdirac import clifford
from subdirac.clifford import Multivector, reversion
from subdirac.spinors import (
    CliffordGroupElement,
    CoSpinor,
    GammaRep,
    Spinor,
    apply,
    build_gamma_rep,
    conjugate,
    pairing,
    primitive_spinor,
    recover_rotation,
    rep_of,
    spin_lift,
    spinor_dim,
    unconjugate,
    vector_pairing,
)


def random_so(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_multivector(rng, m, nnz=5):
    return Multivector(m, {int(rng.integers(0, 1 << m)): float(rng.normal()) for _ in range(nnz)})


# --- gamma systems ---------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
def test_build_gamma_rep_is_shared_and_read_only(m):
    rep = build_gamma_rep(m)
    assert build_gamma_rep(m) is rep
    for g in rep.gammas + (rep.basis_change,):
        assert not g.flags.writeable
    prim = np.stack([primitive_spinor(np.eye(m)[i], rep).components for i in range(m)])
    assert np.array_equal(rep.axis_primitives, prim)
    assert not rep.axis_primitives.flags.writeable
    assert rep.axis_primitives is rep.axis_primitives
    # a conjugated system is a new instance with its own tables
    u = np.linalg.qr(np.random.default_rng(m).normal(size=(rep.dim,) * 2) + 0j)[0]
    other = rep.conjugated(u)
    assert other is not rep and np.allclose(other.gammas[0], u @ rep.gammas[0] @ u.conj().T)


@pytest.mark.parametrize("m", range(1, 13))
def test_gamma_invariants(m):
    rep = build_gamma_rep(m)
    d = spinor_dim(m)
    assert len(rep.gammas) == m
    for i, g in enumerate(rep.gammas):
        assert g.shape == (d, d)
        assert np.allclose(g, g.conj().T, atol=1e-14)
        for j, h in enumerate(rep.gammas):
            anti = g @ h + h @ g
            assert np.allclose(anti, 2 * (i == j) * np.eye(d), atol=1e-13)


def test_m2_products_traceless():
    rep = build_gamma_rep(2)
    assert abs(np.trace(rep.gammas[0] @ rep.gammas[1])) < 1e-14


def test_m3_chirality_sign():
    rep = build_gamma_rep(3)
    prod = rep.gammas[0] @ rep.gammas[1] @ rep.gammas[2]
    assert np.allclose(prod, 1j * np.eye(2), atol=1e-14)


def test_m4_squares():
    rep = build_gamma_rep(4)
    for g in rep.gammas:
        assert np.allclose(g @ g, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 6), (3, 5), (4, 6), (2, 3)])
def test_recursive_restriction_on_top_block(k, n):
    # first k gammas of the n-system act on x (x) e0... as the k-system
    rep_k, rep_n = build_gamma_rep(k), build_gamma_rep(n)
    t = n // 2 - k // 2
    m0 = np.zeros((spinor_dim(n), spinor_dim(k)), dtype=complex)
    for i in range(spinor_dim(k)):
        m0[i << t, i] = 1.0
    for i in range(2 * (k // 2)):  # even-part generators restrict directly
        assert np.allclose(rep_n.gammas[i] @ m0, m0 @ rep_k.gammas[i], atol=1e-14)


def test_dimension_range_rejected():
    with pytest.raises(ValueError):
        build_gamma_rep(0)
    with pytest.raises(ValueError):
        build_gamma_rep(13)


# --- rep_of ----------------------------------------------------------------

def test_rep_of_generator_and_linearity():
    rep = build_gamma_rep(3)
    e1 = Multivector.basis_vector(3, 1)
    assert np.allclose(rep_of(e1, rep), rep.gammas[0])
    a = Multivector.blade(3, [1, 2]) + Multivector.scalar(3, 3)
    assert np.allclose(rep_of(a, rep), rep.gammas[0] @ rep.gammas[1] + 3 * np.eye(2))


def test_rep_of_homomorphism():
    rng = np.random.default_rng(2)
    for m in (2, 3, 4, 5):
        rep = build_gamma_rep(m)
        a, b = random_multivector(rng, m), random_multivector(rng, m)
        assert np.allclose(rep_of(a * b, rep), rep_of(a, rep) @ rep_of(b, rep), atol=1e-12)


def test_rep_of_reversion_is_adjoint():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        rep = build_gamma_rep(m)
        a = random_multivector(rng, m)
        assert np.allclose(rep_of(reversion(a), rep), rep_of(a, rep).conj().T, atol=1e-12)


def test_rep_of_dimension_mismatch():
    with pytest.raises(ValueError):
        rep_of(Multivector.scalar(1, 3), build_gamma_rep(4))


# --- pairing and conjugation ------------------------------------------------

def test_pairing_orthonormal_basis():
    rep = build_gamma_rep(4)
    for a in range(rep.dim):
        for b in range(rep.dim):
            ca = Spinor(4, np.eye(rep.dim)[a])
            cb = Spinor(4, np.eye(rep.dim)[b])
            assert pairing(conjugate(ca), cb) == pytest.approx(float(a == b))


def test_pairing_norm_nonnegative():
    rng = np.random.default_rng(4)
    psi = Spinor(3, rng.normal(size=2) + 1j * rng.normal(size=2))
    val = pairing(conjugate(psi), psi)
    assert val.imag == pytest.approx(0)
    assert val.real >= 0


def test_gamma_moves_across_pairing():
    rng = np.random.default_rng(5)
    rep = build_gamma_rep(3)
    psi = Spinor(3, rng.normal(size=2) + 1j * rng.normal(size=2))
    chi = Spinor(3, rng.normal(size=2) + 1j * rng.normal(size=2))
    v = rng.normal(size=3)
    lhs = pairing(conjugate(apply(rep.gamma(v), psi)), chi)
    rhs = pairing(conjugate(psi), apply(rep.gamma(v), chi))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_conjugate_antilinear_and_involutive():
    rng = np.random.default_rng(6)
    psi = Spinor(2, rng.normal(size=2) + 1j * rng.normal(size=2))
    assert np.allclose(conjugate(Spinor(2, 1j * psi.components)).components,
                       -1j * conjugate(psi).components)
    assert np.allclose(unconjugate(conjugate(psi)).components, psi.components)


def test_phi_intertwines_reversion():
    rng = np.random.default_rng(7)
    for m in (2, 3, 4):
        rep = build_gamma_rep(m)
        c = random_multivector(rng, m)
        psi = Spinor(m, rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim))
        lhs = conjugate(apply(rep_of(c, rep), psi)).components
        rhs = conjugate(psi).components @ rep_of(reversion(c), rep)
        assert np.allclose(lhs, rhs, atol=1e-12)


# --- primitive spinors -------------------------------------------------------

def test_primitive_spinor_m2_example():
    rep = build_gamma_rep(2)
    psi = primitive_spinor([1, 0], rep)
    assert np.allclose(psi.components, np.array([1, 1]) / np.sqrt(2))
    assert vector_pairing(psi, [0, 1], rep) == pytest.approx(0, abs=1e-14)


def test_primitive_spinor_unit_norm():
    rep = build_gamma_rep(3)
    psi = primitive_spinor([0, 1, 0], rep)
    assert vector_pairing(psi, [0, 1, 0], rep) == pytest.approx(1)


def test_primitive_spinor_scaling():
    rep = build_gamma_rep(3)
    psi = primitive_spinor([0, 0, 2], rep)
    assert psi.norm() ** 2 == pytest.approx(2)
    assert vector_pairing(psi, [0, 0, 1], rep) == pytest.approx(2)


def test_primitive_spinor_zero_rejected():
    with pytest.raises(ValueError):
        primitive_spinor([0, 0, 0], build_gamma_rep(3))


def test_primitive_spinor_one_dimensional_module():
    # the 1-dim module represents gamma(e1) as +1: positive v works,
    # negative v has no +1 eigenspace and is rejected
    rep = build_gamma_rep(1)
    psi = primitive_spinor([2.0], rep)
    assert vector_pairing(psi, [1.0], rep) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        primitive_spinor([-1.0], rep)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_inner_product_recovery(m):
    rng = np.random.default_rng(10 + m)
    rep = build_gamma_rep(m)
    for _ in range(200):
        v = rng.normal(size=m)
        w = rng.normal(size=m)
        val = vector_pairing(primitive_spinor(v, rep), w, rep)
        assert abs(val - v @ w) < 1e-12


def test_vector_pairing_real_and_linear():
    rng = np.random.default_rng(12)
    rep = build_gamma_rep(4)
    psi = Spinor(4, rng.normal(size=4) + 1j * rng.normal(size=4))
    vals = np.array([vector_pairing(psi, np.eye(4)[i], rep) for i in range(4)])
    assert np.allclose(vals.imag, 0, atol=1e-13)
    w = rng.normal(size=4)
    assert vector_pairing(psi, w, rep) == pytest.approx(vals.real @ w)
    assert vector_pairing(psi, np.zeros(4), rep) == 0


# --- spin lifts ----------------------------------------------------------------

def adjoint_action(tau, rep):
    """Extract the rotation from tau gamma_j tau^dagger via gamma traces."""
    r = np.empty((rep.m, rep.m))
    for j in range(rep.m):
        conj = tau @ rep.gammas[j] @ tau.conj().T
        for i in range(rep.m):
            r[i, j] = np.real(np.trace(rep.gammas[i] @ conj)) / rep.dim
    return r


def test_spin_lift_identity():
    rep = build_gamma_rep(3)
    tau = spin_lift(np.eye(3), rep)
    assert np.allclose(tau.matrix, np.eye(2))


def test_spin_lift_planar_closed_form():
    rep = build_gamma_rep(4)
    th = 0.9
    r = np.eye(4)
    r[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    tau = spin_lift(r, rep)
    closed = np.cos(th / 2) * np.eye(4) - np.sin(th / 2) * rep.gammas[0] @ rep.gammas[1]
    assert min(np.abs(tau.matrix - closed).max(), np.abs(tau.matrix + closed).max()) < 1e-12
    # adjoint action rotates e1 by theta
    assert np.allclose(tau.matrix @ rep.gamma([1, 0, 0, 0]) @ tau.matrix.conj().T,
                       rep.gamma(r[:, 0]), atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8])
def test_spin_lift_round_trip(m):
    rng = np.random.default_rng(20 + m)
    rep = build_gamma_rep(m)
    for _ in range(20 if m <= 5 else 5):
        r = random_so(rng, m)
        tau = spin_lift(r, rep)
        assert np.allclose(tau.matrix @ tau.matrix.conj().T, np.eye(rep.dim), atol=1e-12)
        assert np.abs(adjoint_action(tau.matrix, rep) - r).max() < 1e-10


def test_spin_lift_rotation_by_pi():
    rep = build_gamma_rep(3)
    r = np.diag([-1.0, -1.0, 1.0])
    tau = spin_lift(r, rep)
    assert np.abs(adjoint_action(tau.matrix, rep) - r).max() < 1e-12


def test_spin_lift_double_cover_composition():
    rng = np.random.default_rng(31)
    rep = build_gamma_rep(3)
    r1, r2 = random_so(rng, 3), random_so(rng, 3)
    t12 = spin_lift(r1 @ r2, rep).matrix
    prod = spin_lift(r1, rep).matrix @ spin_lift(r2, rep).matrix
    assert min(np.abs(t12 - prod).max(), np.abs(t12 + prod).max()) < 1e-10


def test_spin_lift_anchor_continuity():
    rng = np.random.default_rng(32)
    rep = build_gamma_rep(3)
    r = random_so(rng, 3)
    tau = spin_lift(r, rep)
    again = spin_lift(r, rep, anchor=CliffordGroupElement(3, -tau.matrix, r))
    assert np.allclose(again.matrix, -tau.matrix)


def test_spin_lift_ambiguous_anchor_rejected():
    # a half-turn lift (+/- gamma1 gamma2) has zero overlap with the
    # identity anchor: the double-cover sign cannot be chained continuously
    rep = build_gamma_rep(3)
    r = np.diag([-1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        spin_lift(r, rep, anchor=CliffordGroupElement.identity(3))


def test_spin_lift_rejects_non_orthogonal():
    rep = build_gamma_rep(3)
    with pytest.raises(ValueError):
        spin_lift(np.diag([1.0, 1.0, 2.0]), rep)
    with pytest.raises(ValueError):
        spin_lift(np.diag([1.0, 1.0, -1.0]), rep)


# --- rotation recovery ---------------------------------------------------------

def test_recover_rotation_identity():
    rep = build_gamma_rep(3)
    out = recover_rotation(CliffordGroupElement.identity(3), rep)
    assert np.allclose(out, np.eye(3), atol=1e-14)


@pytest.mark.parametrize("m", [3, 4])
def test_recover_rotation_reproduces_input(m):
    rng = np.random.default_rng(40 + m)
    rep = build_gamma_rep(m)
    r = random_so(rng, m)
    out = recover_rotation(spin_lift(r, rep), rep)
    assert np.abs(out - r).max() < 1e-12


def test_recover_rotation_frame_rows():
    # tau = identity with frame rows L recovers L itself
    rng = np.random.default_rng(44)
    rep = build_gamma_rep(3)
    lam = rng.normal(size=(3, 3))
    out = recover_rotation(CliffordGroupElement.identity(3), rep, frame=lam)
    assert np.abs(out - lam).max() < 1e-12


def test_recover_rotation_row_scaling():
    rep = build_gamma_rep(3)
    frame = np.eye(3)
    base = recover_rotation(CliffordGroupElement.identity(3), rep, frame=frame)
    scaled = recover_rotation(CliffordGroupElement.identity(3), rep, frame=3.5 * frame)
    assert np.allclose(scaled, 3.5 * base)


def oracle_recover_rotation(tau, rep, frame=None):
    """recover_rotation one entry at a time: a primitive spinor per column, a
    vector pairing per entry."""
    m = rep.m
    frame = np.eye(m) if frame is None else np.asarray(frame, dtype=float)
    out = np.empty((frame.shape[0], m))
    for ell in range(m):
        psi = Spinor(m, tau.matrix @ primitive_spinor(np.eye(m)[ell], rep).components)
        for i in range(frame.shape[0]):
            out[i, ell] = np.real(vector_pairing(psi, frame[i], rep))
    return out


@pytest.mark.parametrize("m", range(1, 9))
def test_recover_rotation_matches_per_entry_loop(m):
    rng = np.random.default_rng(60 + m)
    rep = build_gamma_rep(m)
    tau = spin_lift(random_so(rng, m), rep)
    frame = rng.normal(size=(m, m))
    for args in ((), (frame,), (frame[: max(m - 1, 1)],)):
        got = recover_rotation(tau, rep, *args)
        expected = oracle_recover_rotation(tau, rep, *args)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-14


def test_recover_rotation_rejects_mismatched_dimensions():
    rep = build_gamma_rep(3)
    with pytest.raises(ValueError, match="frame rows"):
        recover_rotation(CliffordGroupElement.identity(3), rep, frame=np.eye(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        recover_rotation(CliffordGroupElement.identity(4), rep)


@pytest.mark.parametrize("m", range(1, 13))
def test_vector_products_match_loop_signs(m, monkeypatch):
    """The lift's signed permutations take their signs from the closed form on
    mask arrays; built from the per-bit loop instead, they are bit-identical."""
    generators = tuple(1 << i for i in range(m))
    for parity in (0, 1):
        expected = clifford._left_product_rows(m, generators, parity)
        with monkeypatch.context() as patch:
            patch.setattr(clifford, "_blade_product_signs", np.vectorize(oracle_blade_sign))
            got = clifford._left_product_rows.__wrapped__(m, generators, parity)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


# --- conjugated representations --------------------------------------------------

def test_unitarity_and_orthogonality_guards_are_absolute():
    # u u^H = diag(1 + 8e-6, 1) and R^T R = diag(1 + 8e-6, 1, 1) lie inside a
    # relative 1e-5 band around the identity but outside the absolute tolerances
    with pytest.raises(ValueError, match="unitary"):
        build_gamma_rep(3).conjugated(np.diag([1 + 4e-6, 1.0]))
    with pytest.raises(ValueError, match="not orthogonal"):
        spin_lift(np.diag([1 + 4e-6, 1.0, 1.0]), build_gamma_rep(3))


def test_conjugated_rep_equivalence():
    rng = np.random.default_rng(50)
    rep = build_gamma_rep(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep2 = rep.conjugated(q)
    for g2, g in zip(rep2.gammas, rep.gammas):
        assert np.allclose(g2, q @ g @ q.conj().T)
    # inner-product recovery is representation independent
    v, w = rng.normal(size=3), rng.normal(size=3)
    val2 = vector_pairing(primitive_spinor(v, rep2), w, rep2)
    assert val2 == pytest.approx(v @ w, abs=1e-12)
