import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subdirac.reciprocity import (
    EmbeddingPair,
    Intertwiner,
    check_reciprocity,
    induce,
    recover_embedding,
    recover_embedding_matrix,
    reference_intertwiner,
    restrict,
)
from subdirac.spinors import (
    GammaRep,
    Spinor,
    build_gamma_rep,
    conjugate,
    pairing,
    spin_lift,
    spinor_dim,
)

PAIRS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]


def random_so(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_spinor(rng, m):
    d = spinor_dim(m)
    return Spinor(m, rng.normal(size=d) + 1j * rng.normal(size=d))


# --- embedding pairs ---------------------------------------------------------

def test_embedding_pair_reference():
    emb = EmbeddingPair.reference(2, 4)
    assert np.allclose(emb.pi, emb.iota.T)
    assert np.allclose(emb.iota.T @ emb.iota, np.eye(2))


def test_embedding_pair_adjoint_identity():
    rng = np.random.default_rng(0)
    r = random_so(rng, 4)
    emb = EmbeddingPair.from_rotation(r, 2)
    u, v = rng.normal(size=4), rng.normal(size=2)
    assert emb.iota @ v @ u == pytest.approx((emb.pi @ u) @ v)


def test_embedding_pair_requires_k_lt_n():
    with pytest.raises(ValueError):
        EmbeddingPair(3, 3, np.eye(3))


def test_embedding_pair_orthonormality_guard_is_absolute():
    iota = np.eye(3)[:, :2]
    iota[0, 0] = 1 + 4e-6  # iota^T iota = diag(1 + 8e-6, 1)
    with pytest.raises(ValueError, match="orthonormal columns"):
        EmbeddingPair(2, 3, iota)


# --- reference intertwiners -----------------------------------------------------

@pytest.mark.parametrize("k", range(1, 6))
def test_intertwining_identity_all_pairs(k):
    for n in range(k + 1, 7):
        intw = reference_intertwiner(k, n)
        rep_k, rep_n = build_gamma_rep(k), build_gamma_rep(n)
        assert np.allclose(intw.matrix.conj().T @ intw.matrix, np.eye(spinor_dim(k)), atol=1e-14)
        for i in range(k):
            resid = intw.matrix @ rep_k.gammas[i] - rep_n.gamma(np.eye(n)[:, i]) @ intw.matrix
            assert np.abs(resid).max() < 1e-14


def test_standard_intertwiner_is_cached_and_read_only():
    intw = reference_intertwiner(2, 4)
    assert reference_intertwiner(2, 4) is intw
    for array in (intw.matrix, intw.tau.matrix, intw.tau.rotation):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 2.0
    tau = spin_lift(random_so(np.random.default_rng(3), 4), build_gamma_rep(4))
    assert intw.with_tau(tau).matrix is intw.matrix
    assert intw.with_tau(tau).tau is tau


@pytest.mark.parametrize("k, n", PAIRS)
def test_explicit_systems_rebuild_the_cached_intertwiner(k, n):
    cached = reference_intertwiner(k, n)
    explicit = reference_intertwiner(k, n, build_gamma_rep(k), build_gamma_rep(n))
    assert explicit is not cached and explicit.matrix.flags.writeable
    assert np.array_equal(explicit.matrix, cached.matrix)


def test_k_must_be_less_than_n():
    with pytest.raises(ValueError):
        reference_intertwiner(3, 3)


def hand_conjugated_rep(n, seed=0):
    """build_gamma_rep(n) conjugated by a random unitary without recording it."""
    rep = build_gamma_rep(n)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(rep.dim,) * 2) + 1j * rng.normal(size=(rep.dim,) * 2))
    return GammaRep(n, tuple(u @ g @ u.conj().T for g in rep.gammas))


def test_unrecorded_basis_change_rejected():
    reference_intertwiner(2, 4)  # the cached standard case is not consulted
    for _ in range(2):
        with pytest.raises(ValueError, match="do not intertwine"):
            reference_intertwiner(2, 4, rep_n=hand_conjugated_rep(4))


def test_non_unitary_basis_change_rejected():
    rep = build_gamma_rep(4)
    skewed = GammaRep(4, rep.gammas, np.diag([1 + 4e-6, 1.0, 1.0, 1.0]))
    reference_intertwiner(2, 4)
    for _ in range(2):
        with pytest.raises(ValueError, match="not orthonormal"):
            reference_intertwiner(2, 4, rep_n=skewed)


UNRECORDED = """
import numpy as np
from subdirac.reciprocity import reference_intertwiner
from subdirac.spinors import GammaRep, build_gamma_rep

rep = build_gamma_rep(4)
rng = np.random.default_rng(0)
u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
try:
    reference_intertwiner(2, 4, rep_n=GammaRep(4, tuple(u @ g @ u.conj().T for g in rep.gammas)))
except ValueError as err:
    print(err)
"""


def test_unrecorded_basis_change_rejected_under_optimize(tmp_path):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", UNRECORDED], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "do not intertwine" in proc.stdout


def test_k2_n4_explicit():
    intw = reference_intertwiner(2, 4)
    assert intw.matrix.shape == (4, 2)
    rep4, rep2 = build_gamma_rep(4), build_gamma_rep(2)
    for i in range(2):
        assert np.allclose(intw.matrix @ rep2.gammas[i], rep4.gammas[i] @ intw.matrix, atol=1e-14)


# --- induce / restrict ------------------------------------------------------------

@pytest.mark.parametrize("k,n", PAIRS)
def test_restrict_induce_identity(k, n):
    rng = np.random.default_rng(k * 10 + n)
    intw = reference_intertwiner(k, n)
    rep_n = build_gamma_rep(n)
    tau = spin_lift(random_so(rng, n), rep_n)
    intw = intw.with_tau(tau)
    phi = random_spinor(rng, k)
    back = restrict(induce(phi, intw), intw)
    assert np.allclose(back.components, phi.components, atol=1e-12)
    assert induce(phi, intw).norm() == pytest.approx(phi.norm())


def test_first_basis_column():
    intw = reference_intertwiner(2, 4)
    phi = Spinor(2, np.eye(2)[0])
    assert np.allclose(induce(phi, intw).components, intw.matrix[:, 0])


def test_orthogonal_complement_restricts_to_zero():
    rng = np.random.default_rng(3)
    intw = reference_intertwiner(2, 4)
    psi = random_spinor(rng, 4)
    proj = intw.matrix @ intw.matrix.conj().T
    perp = Spinor(4, psi.components - proj @ psi.components)
    assert restrict(perp, intw).norm() < 1e-13


def test_restrict_is_contraction():
    rng = np.random.default_rng(4)
    intw = reference_intertwiner(2, 4)
    for _ in range(20):
        psi = random_spinor(rng, 4)
        assert restrict(psi, intw).norm() <= psi.norm() + 1e-13


def test_induce_restrict_is_projection():
    rng = np.random.default_rng(5)
    intw = reference_intertwiner(3, 5)
    psi = random_spinor(rng, 5)
    p1 = induce(restrict(psi, intw), intw)
    p2 = induce(restrict(p1, intw), intw)
    assert np.allclose(p1.components, p2.components, atol=1e-12)
    # self-paired: <conj(P psi), chi> = <conj(psi), P chi>
    chi = random_spinor(rng, 5)
    lhs = pairing(conjugate(p1), chi)
    rhs = pairing(conjugate(psi), induce(restrict(chi, intw), intw))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("k,n", PAIRS)
def test_induce_equivariance(k, n):
    rng = np.random.default_rng(60 + k + n)
    rep_k, rep_n = build_gamma_rep(k), build_gamma_rep(n)
    tau = spin_lift(random_so(rng, n), rep_n)
    intw = reference_intertwiner(k, n).with_tau(tau)
    iota = intw.embedding.iota
    for _ in range(10):
        v = rng.normal(size=k)
        phi = random_spinor(rng, k)
        lhs = induce(Spinor(k, rep_k.gamma(v) @ phi.components), intw).components
        rhs = rep_n.gamma(iota @ v) @ induce(phi, intw).components
        assert np.abs(lhs - rhs).max() < 1e-12


# --- Frobenius reciprocity ---------------------------------------------------------

def test_reciprocity_on_induced_unit_vector():
    intw = reference_intertwiner(2, 4)
    phi = Spinor(2, np.array([1, 0], dtype=complex))
    psi = induce(phi, intw)
    assert pairing(conjugate(restrict(psi, intw)), phi) == pytest.approx(1)
    assert check_reciprocity(psi, phi, intw) < 1e-14


@pytest.mark.parametrize("k,n", PAIRS)
def test_reciprocity_random(k, n):
    rng = np.random.default_rng(100 + 10 * k + n)
    rep_n = build_gamma_rep(n)
    for _ in range(10):
        tau = spin_lift(random_so(rng, n), rep_n)
        intw = reference_intertwiner(k, n).with_tau(tau)
        for _ in range(20):
            psi, phi = random_spinor(rng, n), random_spinor(rng, k)
            assert check_reciprocity(psi, phi, intw) < 1e-12


def test_reciprocity_zero_spinor():
    intw = reference_intertwiner(2, 3)
    psi = Spinor(3, np.zeros(2))
    phi = Spinor(2, np.zeros(2))
    assert check_reciprocity(psi, phi, intw) == 0


# --- Grassmannian / embedding recovery ------------------------------------------------

def test_recover_embedding_reference_axis():
    intw = reference_intertwiner(2, 3)
    vals = recover_embedding(np.array([1.0, 0, 0]), intw)
    assert vals[0] == pytest.approx(1, abs=1e-12)
    assert vals[1] == pytest.approx(0, abs=1e-12)


def test_recover_embedding_orthogonal_u():
    intw = reference_intertwiner(2, 3)
    vals = recover_embedding(np.array([0.0, 0, 1.0]), intw)
    assert np.abs(vals).max() < 1e-12


@pytest.mark.parametrize("k,n", [(2, 3), (4, 5)])
def test_recover_embedding_matches_rotation(k, n):
    rng = np.random.default_rng(200 + n)
    rep_n = build_gamma_rep(n)
    for _ in range(10):
        tau = spin_lift(random_so(rng, n), rep_n)
        intw = reference_intertwiner(k, n).with_tau(tau)
        iota = intw.embedding.iota
        u = rng.normal(size=n)
        vals = recover_embedding(u, intw)
        expected = iota.T @ u  # (iota(e_b), u) for each basis direction b
        assert np.abs(vals - expected).max() < 1e-12


def test_recover_embedding_rotation_in_plane_covariant():
    rng = np.random.default_rng(7)
    rep3 = build_gamma_rep(3)
    th = 0.8
    r = np.eye(3)
    r[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    intw = reference_intertwiner(2, 3).with_tau(spin_lift(r, rep3))
    u = rng.normal(size=3)
    vals = recover_embedding(u, intw)
    assert np.abs(vals - intw.embedding.iota.T @ u).max() < 1e-12


def test_recover_embedding_matrix_is_iota_transpose():
    rng = np.random.default_rng(8)
    rep5 = build_gamma_rep(5)
    tau = spin_lift(random_so(rng, 5), rep5)
    intw = reference_intertwiner(4, 5).with_tau(tau)
    mat = recover_embedding_matrix(intw)
    assert np.abs(mat - intw.embedding.iota.T).max() < 1e-12


def test_recover_embedding_conjugation_invariance():
    rng = np.random.default_rng(9)
    rep_k, rep_n = build_gamma_rep(2), build_gamma_rep(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep_n2 = rep_n.conjugated(q)
    r = random_so(rng, 3)
    intw1 = reference_intertwiner(2, 3).with_tau(spin_lift(r, rep_n))
    intw2 = reference_intertwiner(2, 3, rep_n=rep_n2).with_tau(spin_lift(r, rep_n2))
    u = rng.normal(size=3)
    v1 = recover_embedding(u, intw1, rep_k, rep_n)
    v2 = recover_embedding(u, intw2, rep_k, rep_n2)
    assert np.abs(v1 - v2).max() < 1e-12


def test_recover_embedding_zero_rejected():
    with pytest.raises(ValueError):
        recover_embedding(np.zeros(3), reference_intertwiner(2, 3))
