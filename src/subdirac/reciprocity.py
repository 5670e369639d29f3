"""Induced and restricted spinor representations and Frobenius reciprocity.

The dimension-n module decomposes under the first-k gamma action into
copies of the dimension-k module.  The reference intertwiner picks the copy
carried by tensor-factor index 0 of every doubling step; for odd k that
copy is not invariant under the k-th generator (the chirality element), so
it is completed by projecting onto the +1 eigenspace of the hermitian
involution Omega' gamma_k, which commutes with the first 2*floor(k/2)
gammas and squares to one.  Columns stay orthonormal after a sqrt(2)
rescale because the projected halves are orthogonal to the original copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spinors import (
    CliffordGroupElement,
    CoSpinor,
    GammaRep,
    Spinor,
    build_gamma_rep,
    conjugate,
    pairing,
    primitive_spinor,
    spinor_dim,
)


@dataclass(frozen=True)
class EmbeddingPair:
    """Isometric embedding iota of R^k into R^n with its adjoint projection."""

    k: int
    n: int
    iota: np.ndarray

    def __post_init__(self):
        if not self.k < self.n:
            raise ValueError("embedding requires k < n")
        iota = np.asarray(self.iota, dtype=float)
        if iota.shape != (self.n, self.k):
            raise ValueError(f"iota must be {self.n}x{self.k}")
        if not np.allclose(iota.T @ iota, np.eye(self.k), rtol=0, atol=1e-12):
            raise ValueError("iota must have orthonormal columns")
        object.__setattr__(self, "iota", iota)

    @property
    def pi(self) -> np.ndarray:
        return self.iota.T

    @classmethod
    def reference(cls, k: int, n: int) -> "EmbeddingPair":
        return cls(k, n, np.eye(n)[:, :k])

    @classmethod
    def from_rotation(cls, rotation: np.ndarray, k: int) -> "EmbeddingPair":
        """iota = R^{-1} o iota_o for the rotation carried by a group element."""
        rotation = np.asarray(rotation, dtype=float)
        return cls(k, rotation.shape[0], rotation.T[:, :k])


@dataclass(frozen=True)
class Intertwiner:
    """Isometry of the k-module into the n-module, twisted by tau."""

    k: int
    n: int
    matrix: np.ndarray
    tau: CliffordGroupElement

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.shape != (spinor_dim(self.n), spinor_dim(self.k)):
            raise ValueError("intertwiner has wrong shape")
        object.__setattr__(self, "matrix", matrix)

    def with_tau(self, tau: CliffordGroupElement) -> "Intertwiner":
        return Intertwiner(self.k, self.n, self.matrix, tau)

    @property
    def embedding(self) -> EmbeddingPair:
        """The embedding realized by induce: iota = rotation(tau)^{-1} o iota_o."""
        return EmbeddingPair.from_rotation(self.tau.rotation, self.k)


def reference_intertwiner(k: int, n: int, rep_k: GammaRep | None = None,
                          rep_n: GammaRep | None = None) -> Intertwiner:
    """Intertwiner with matrix . gamma_k(v) = gamma_n(iota_o v) . matrix, tau = id.

    rep_k / rep_n default to the standard recursive systems; conjugated
    systems are supported through their recorded basis change.  With both
    left at the default, the intertwiner is built and verified once per
    (k, n) and shared: its matrix and its tau are read-only.  Explicit
    systems are verified on every call.
    """
    if not k < n:
        raise ValueError("restriction requires k < n")
    if n > 12:
        raise ValueError("dimension capped at 12")
    if rep_k is None and rep_n is None:
        return _standard_intertwiner(k, n)
    return _build_intertwiner(k, n, rep_k or build_gamma_rep(k), rep_n or build_gamma_rep(n))


@lru_cache(maxsize=None)
def _standard_intertwiner(k: int, n: int) -> Intertwiner:
    intw = _build_intertwiner(k, n, build_gamma_rep(k), build_gamma_rep(n))
    for array in (intw.matrix, intw.tau.matrix, intw.tau.rotation):
        array.flags.writeable = False
    return intw


def _build_intertwiner(k: int, n: int, rep_k: GammaRep, rep_n: GammaRep) -> Intertwiner:
    if rep_k.m != k or rep_n.m != n:
        raise ValueError("representation dimensions disagree with (k, n)")

    std_n = build_gamma_rep(n)
    t = n // 2 - k // 2
    dk, dn = spinor_dim(k), spinor_dim(n)
    m0 = np.zeros((dn, dk), dtype=complex)
    for i in range(dk):
        m0[i << t, i] = 1.0

    if k % 2 == 1:
        r = k // 2
        omega = np.eye(dn, dtype=complex)
        for g in std_n.gammas[: 2 * r]:
            omega = omega @ g
        omega = (-1j) ** r * omega
        kappa = omega @ std_n.gammas[k - 1]
        m0 = (m0 + kappa @ m0) / np.sqrt(2)

    matrix = rep_n.basis_change @ m0 @ rep_k.basis_change.conj().T

    # a system whose gammas were conjugated without recording the basis
    # change (or with a non-unitary one) fails one of these
    if not np.allclose(matrix.conj().T @ matrix, np.eye(dk), rtol=0, atol=1e-12):
        raise ValueError("intertwiner columns are not orthonormal: "
                         "a recorded basis change is not unitary")
    for i in range(k):
        if not np.allclose(matrix @ rep_k.gammas[i], rep_n.gammas[i] @ matrix, rtol=0, atol=1e-12):
            raise ValueError("gamma systems do not intertwine through their "
                             "recorded basis changes")
    return Intertwiner(k, n, matrix, CliffordGroupElement.identity(n))


def induce(phi: Spinor, intw: Intertwiner) -> Spinor:
    """tau^{-1} (matrix phi): equivariant for gamma_k(v) vs gamma_n(iota v)."""
    if phi.m != intw.k:
        raise ValueError(f"spinor lives in dimension {phi.m}, intertwiner expects {intw.k}")
    return Spinor(intw.n, intw.tau.matrix.conj().T @ (intw.matrix @ phi.components))


def restrict(psi: Spinor, intw: Intertwiner) -> Spinor:
    """adjoint(matrix) (tau psi): left inverse of induce."""
    if psi.m != intw.n:
        raise ValueError(f"spinor lives in dimension {psi.m}, intertwiner expects {intw.n}")
    return Spinor(intw.k, intw.matrix.conj().T @ (intw.tau.matrix @ psi.components))


def check_reciprocity(psi: Spinor, phi: Spinor, intw: Intertwiner) -> float:
    """|<conj(restrict psi), phi>_k - <conj(psi), induce phi>_n| (identically ~0)."""
    lhs = pairing(conjugate(restrict(psi, intw)), phi)
    rhs = pairing(conjugate(psi), induce(phi, intw))
    return abs(lhs - rhs)


def recover_embedding(u, intw: Intertwiner, rep_k: GammaRep | None = None,
                      rep_n: GammaRep | None = None) -> np.ndarray:
    """Pairings of the restricted primitive spinor of u against gamma_k(e_b).

    Returns the k-vector of values <conj(psi_k), gamma_k(e_b) psi_k> with
    psi_k = restrict(psi_u).  When the k- and n-modules have equal dimension
    (floor(k/2) == floor(n/2)) this equals (iota(e_b), u) exactly, the
    embedding datum; see recover_embedding_matrix for the full matrix.
    """
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) == 0:
        raise ValueError("embedding recovery needs a nonzero vector")
    rep_k = rep_k or build_gamma_rep(intw.k)
    rep_n = rep_n or build_gamma_rep(intw.n)
    psi_u = primitive_spinor(u, rep_n)
    psi_k = restrict(psi_u, intw)
    out = np.empty(intw.k)
    for b in range(intw.k):
        out[b] = np.real(np.conj(psi_k.components) @ rep_k.gammas[b] @ psi_k.components)
    return out


def recover_embedding_matrix(intw: Intertwiner, rep_k: GammaRep | None = None,
                             rep_n: GammaRep | None = None) -> np.ndarray:
    """Stack recover_embedding over the ambient basis: the k x n matrix of iota."""
    cols = [recover_embedding(np.eye(intw.n)[i], intw, rep_k, rep_n) for i in range(intw.n)]
    return np.array(cols).T
