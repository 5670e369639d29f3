"""Concrete spinor representations of the complexified Clifford algebra.

The gamma matrices are built by recursive tensor doubling so that the first
k generators of the dimension-n system restrict to the dimension-k system
on a fixed submodule (used by the induced/restricted representations).
All gammas are hermitian and unitary, so the hermite conjugation of
components realizes the algebra's reversion involution on matrices.

A rotation R in SO(m) lifts to the Clifford group through its Householder
reflections: R = H_1 ... H_{m-1} D with D = diag(+-1), and the lift is
tau = gamma(v_1) ... gamma(v_{m-1}) gamma_N, the product of the reflection
vectors and the axes N that D flips (Cartan-Dieudonne).  One elementwise
kernel (_reflection_lifts) reduces any number of rotations at once and
serves every m: spin_lift multiplies one rotation's gammas, and a frame
field multiplies its vectors in even-blade coefficients (_blade_lift), so
no table over the blades is needed to lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .clifford import MAX_DIMENSION, Multivector, _left_product_rows, _popcount

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def spinor_dim(m: int) -> int:
    return 1 << (m // 2)


@lru_cache(maxsize=None)
def _standard_gammas(m: int) -> tuple:
    """The recursive gamma matrices of R^m: cached and read-only, shared by every caller."""
    if m == 1:
        gammas = (np.array([[1.0 + 0j]]),)
    elif m == 2:
        gammas = (_SIGMA1.copy(), _SIGMA2.copy())
    elif m % 2 == 1:
        even = _standard_gammas(m - 1)
        r = (m - 1) // 2
        chi = np.eye(spinor_dim(m), dtype=complex)
        for g in even:
            chi = chi @ g
        gammas = even + ((-1j) ** r * chi,)
    else:
        lower = _standard_gammas(m - 2)
        eye = np.eye(spinor_dim(m - 2), dtype=complex)
        gammas = tuple(np.kron(g, _SIGMA3) for g in lower)
        gammas += (np.kron(eye, _SIGMA1), np.kron(eye, _SIGMA2))
    for g in gammas:
        g.flags.writeable = False
    return gammas


@dataclass(frozen=True)
class GammaRep:
    """Hermitian gamma matrices for CLIFF^C(R^m) on C^{2^[m/2]}.

    basis_change records the unitary relating this system to the standard
    recursive one (identity for build_gamma_rep), so intertwiners between
    conjugated systems can be transported.
    """

    m: int
    gammas: tuple
    basis_change: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.basis_change is None:
            object.__setattr__(self, "basis_change", np.eye(self.dim, dtype=complex))

    @property
    def dim(self) -> int:
        return spinor_dim(self.m)

    @cached_property
    def even_products(self) -> np.ndarray:
        """gamma_K for the even blades K in ascending mask order, shape (K, d, d).

        The order of the lift coefficients (spinors._blade_lift), so
        tau = sum_K c_K gamma_K is one product against this stack.  Built on
        first use and read-only.
        """
        return self._blade_products(0)

    @cached_property
    def odd_products(self) -> np.ndarray:
        """gamma_J for the odd blades J in ascending mask order, shape (J, d, d).

        A first-order operator maps an even-blade spinor to one on these
        blades.  Built on first use and read-only.
        """
        return self._blade_products(1)

    @cached_property
    def axis_primitives(self) -> np.ndarray:
        """The primitive spinors psi_{e_i} of the m axes as rows, shape (m, d).

        The immersion bilinears' table is built on them.  Built on first
        use and read-only.
        """
        prim = np.stack([primitive_spinor(axis, self).components for axis in np.eye(self.m)])
        prim.flags.writeable = False
        return prim

    def cached_table(self, key, build) -> np.ndarray:
        """The array build(self), built on the first call per rep and key and read-only.

        For the fixed tables that depend on the gamma system alone (the lift
        Gram and residual forms, the immersion bilinears' table).  The cache
        lives on this instance, so a conjugated system builds its own.
        """
        tables = self.__dict__.setdefault("_tables", {})
        if key not in tables:
            table = build(self)
            table.flags.writeable = False
            tables[key] = table
        return tables[key]

    def _blade_products(self, parity: int) -> np.ndarray:
        products = np.stack([rep_of(Multivector(self.m, {mask: 1.0}), self)
                             for mask in range(1 << self.m) if _popcount(mask) % 2 == parity])
        products.flags.writeable = False
        return products

    @cached_property
    def gamma_stack(self) -> np.ndarray:
        """The gammas stacked as one (m, d, d) array.  Built on first use and read-only."""
        stack = np.stack(self.gammas)
        stack.flags.writeable = False
        return stack

    def gamma(self, v) -> np.ndarray:
        """Matrix of gamma(v) for a vector v in R^m (complex coefficients allowed)."""
        v = np.asarray(v)
        if v.shape != (self.m,):
            raise ValueError(f"expected vector of length {self.m}, got shape {v.shape}")
        return np.einsum("i,ijk->jk", v.astype(complex), self.gamma_stack)

    def conjugated(self, u: np.ndarray) -> "GammaRep":
        """Equivalent representation with gammas u gamma u^dagger."""
        u = np.asarray(u, dtype=complex)
        if not np.allclose(u @ u.conj().T, np.eye(self.dim), rtol=0, atol=1e-12):
            raise ValueError("basis change must be unitary")
        return GammaRep(
            self.m,
            tuple(u @ g @ u.conj().T for g in self.gammas),
            u @ self.basis_change,
        )


def build_gamma_rep(m: int) -> GammaRep:
    """Deterministic recursive gamma system for R^m, m <= 12.

    One shared instance per m, with read-only gammas and basis_change, so
    its cached blade products and axis primitives are built once per process.
    """
    if not 1 <= m <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {m}")
    return _shared_gamma_rep(m)


@lru_cache(maxsize=None)
def _shared_gamma_rep(m: int) -> GammaRep:
    rep = GammaRep(m, _standard_gammas(m))
    rep.basis_change.flags.writeable = False
    return rep


def rep_of(a: Multivector, rep: GammaRep) -> np.ndarray:
    """Algebra homomorphism sending blades to gamma-matrix products."""
    if a.m != rep.m:
        raise ValueError(f"dimension mismatch: multivector {a.m} vs rep {rep.m}")
    out = np.zeros((rep.dim, rep.dim), dtype=complex)
    for mask, c in a.coeffs.items():
        mat = np.eye(rep.dim, dtype=complex)
        for i in range(rep.m):
            if mask >> i & 1:
                mat = mat @ rep.gammas[i]
        out += c * mat
    return out


@dataclass(frozen=True)
class Spinor:
    m: int
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=complex)
        if comps.shape != (spinor_dim(self.m),):
            raise ValueError(f"spinor for m={self.m} needs {spinor_dim(self.m)} components")
        object.__setattr__(self, "components", comps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@dataclass(frozen=True)
class CoSpinor:
    """Hermite-conjugate partner: stores the conjugated components as a covector."""

    m: int
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=complex)
        if comps.shape != (spinor_dim(self.m),):
            raise ValueError(f"cospinor for m={self.m} needs {spinor_dim(self.m)} components")
        object.__setattr__(self, "components", comps)


def conjugate(psi: Spinor) -> CoSpinor:
    """The map phi: antilinear, with phi(C psi) = phi(psi) rep(reversion(C))."""
    return CoSpinor(psi.m, np.conj(psi.components))


def unconjugate(chi: CoSpinor) -> Spinor:
    return Spinor(chi.m, np.conj(chi.components))


def pairing(chi: CoSpinor, psi: Spinor) -> complex:
    """Sesquilinear pairing sum_a conj(phi)_a psi_a (chi already conjugated)."""
    if chi.m != psi.m:
        raise ValueError(f"dimension mismatch: {chi.m} vs {psi.m}")
    return complex(chi.components @ psi.components)


def apply(rep_matrix: np.ndarray, psi: Spinor) -> Spinor:
    return Spinor(psi.m, rep_matrix @ psi.components)


def _primitive_components(v: np.ndarray, rep: GammaRep) -> np.ndarray:
    vnorm = np.linalg.norm(v)
    if vnorm == 0:
        return np.zeros(rep.dim, dtype=complex)
    proj = 0.5 * (np.eye(rep.dim, dtype=complex) + rep.gamma(v / vnorm))
    # P is hermitian PSD; the column of largest diagonal (lowest index on ties)
    # projects a standard basis vector into the +1 eigenspace with its
    # dominant component real positive.
    diag = np.real(np.diag(proj))
    j = int(np.argmax(diag > diag.max() - 1e-12))
    psi = proj[:, j]
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        # only reachable for m = 1 with v < 0: the one-dimensional module
        # represents gamma(e_1) as +1 and has no +1 eigenvector for -e_1
        raise ValueError("gamma(v) has no +1 eigenspace in this module")
    return np.sqrt(vnorm) * psi / norm


def primitive_spinor(v, rep: GammaRep) -> Spinor:
    """Unit-eigenvector spinor with <conj(psi), gamma(w) psi> = (v, w) for all w.

    For v = 0 the identity degenerates; the zero spinor is returned (the
    zero functional) and callers that need a genuine frame should reject it.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (rep.m,):
        raise ValueError(f"expected vector of length {rep.m}")
    if np.linalg.norm(v) == 0:
        raise ValueError("primitive spinor of the zero vector is degenerate")
    return Spinor(rep.m, _primitive_components(v, rep))


def vector_pairing(psi: Spinor, w, rep: GammaRep) -> complex:
    """<conj(psi), gamma(w) psi>: real-linear in w for primitive spinors."""
    w = np.asarray(w, dtype=float)
    if psi.m != rep.m or w.shape != (rep.m,):
        raise ValueError("dimension mismatch")
    return complex(np.conj(psi.components) @ rep.gamma(w) @ psi.components)


@dataclass(frozen=True)
class CliffordGroupElement:
    """Unitary spinor-space matrix together with the rotation it covers."""

    m: int
    matrix: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))

    @classmethod
    def identity(cls, m: int) -> "CliffordGroupElement":
        return cls(m, np.eye(spinor_dim(m), dtype=complex), np.eye(m))

    def inverse(self) -> "CliffordGroupElement":
        return CliffordGroupElement(self.m, self.matrix.conj().T, self.rotation.T)

    def __matmul__(self, other: "CliffordGroupElement") -> "CliffordGroupElement":
        return CliffordGroupElement(self.m, self.matrix @ other.matrix, self.rotation @ other.rotation)


def _assert_orthogonal(entries: np.ndarray, m: int, tol: float):
    """Raise unless every R in entries (m*m, P), R[j, i] at row j*m + i, is
    finite with each entry of R^T R within tol (absolute) of the identity's."""
    if not np.isfinite(entries).all():
        raise ValueError("matrix is not orthogonal within tolerance")
    planes = entries.reshape(m, m, -1)
    gram = np.einsum("kip,kjp->ijp", planes, planes)
    gram.reshape(m * m, -1)[:: m + 1] -= 1  # the diagonal entries
    if not np.abs(gram, out=gram).max() <= tol:
        raise ValueError("matrix is not orthogonal within tolerance")


def _default_sign(tau: np.ndarray) -> float:
    """Deterministic global sign: +-1 that makes the largest-|entry| coefficient 'positive'."""
    flat = np.abs(tau).ravel()
    j = int(np.argmax(flat > flat.max() - 1e-12))
    z = tau.ravel()[j]
    if z.real < -1e-14 or (abs(z.real) <= 1e-14 and z.imag < 0):
        return -1.0
    return 1.0


# Points per block of the pointwise grid kernels (the lift's reflections and
# vector products, the residual's odd coefficients, the Gram and bilinear pair
# products): one block's temporaries, about 70 planes for the lift of m = 4
# (0.6 MB), stay in a 2 MB L2 cache.
GRID_BLOCK = 1024


def _grid_blocks(points: int) -> list:
    """Slices of GRID_BLOCK consecutive columns (the last one shorter) covering points."""
    return [slice(start, min(start + GRID_BLOCK, points)) for start in range(0, points, GRID_BLOCK)]


def _reflection_lifts(entries: np.ndarray, m: int, tol: float) -> tuple:
    """Householder reflections of the rotations in entries (m * m, P), R[i, j] at row i m + j.

    Reflections H_j = 1 - 2 v_j v_j^T reduce each R column by column, with
    v_j = x + sign(x_0) |x| e_j normalised, for x the rows j.. of column j
    of the partly reduced R, to H_{m-1} ... H_1 R = D = diag(+-1), where
    D_jj = -sign(x_0).  As gamma(v) gamma(w) gamma(v)^{-1} = -gamma(H_v w)
    and D is the product of the reflections along the e_j with D_jj < 0, R
    is a product of reflections, and the even number of them lifts to the
    product of their gammas (Cartan-Dieudonne):

        tau = gamma(v_1) ... gamma(v_{m-1}) gamma_N,  N = {j : D_jj < 0},

    with m - 1 + |N| even exactly when det R > 0.  Returns the unit vectors
    (m - 1, m, P), each zero above its own row, and the masks N (P,).

    R is orthogonal, so the steps take no sums but R's column norms, summed
    once in row order: a reflection keeps the norms, so |x| is the norm of
    column j of R, and x is orthogonal to the columns still to reduce, so
    H_j takes the block B of rows and columns j.. to B[1:, 1:] -
    v[1:] B[0, 1:] / v_0 (v before normalising).  Every step is elementwise
    over the points, so a rotation's reflections do not depend on the
    rotations reduced with it.  Raises ValueError unless every R is finite
    with each entry of R^T R within tol (absolute) of the identity's and
    det R > 0.
    """
    _assert_orthogonal(entries, m, tol)
    reduced = entries.reshape(m, m, -1).copy()  # reduced[i, j] is the plane of entry (i, j)
    norms = reduced[0] * reduced[0]  # column norms, summed in row order
    for row in reduced[1:]:
        norms += row * row
    np.sqrt(norms, out=norms)
    vectors = np.zeros((m - 1,) + reduced.shape[1:])
    shifts = np.empty(reduced.shape[1:])  # row j: -D_jj
    for j, vector in enumerate(vectors):
        v = vector[j:]
        shift = np.copysign(norms[j], reduced[j, j], out=shifts[j])  # H_j x = -shift e_j
        v[...] = reduced[j:, j]
        v[0] += shift
        reduced[j + 1:, j + 1:] -= v[1:, None] * (reduced[j, j + 1:] / v[0])
        scale = shift * v[0]  # |v|^2 / 2
        scale += scale
        v /= np.sqrt(scale, out=scale)
    np.negative(reduced[-1, -1], out=shifts[-1])
    # det R = (-1)^(m - 1) prod D_jj = -prod shifts, each shift near +-1
    if (np.multiply.reduce(shifts, axis=0) >= 0).any():
        raise ValueError("matrix has determinant -1 (not in SO)")
    return vectors, ((shifts > 0) << np.arange(m)[:, None]).sum(axis=0)


def _blade_lift(vectors: np.ndarray, flips: np.ndarray, m: int) -> np.ndarray:
    """Even-blade coefficients c (K, P) of tau = gamma(v_1) ... gamma(v_{m-1}) gamma_N.

    The reflections are _reflection_lifts'.  c starts as the blade e_N, one
    unit coefficient per point, and takes the vectors from the left, the
    last one first, each as the generators' signed rows of [c; -c]
    (clifford._left_product_rows) weighted by its entries from its own row
    on.  Elementwise over the points, with no matrix product.  The blades
    are in ascending mask order, the order of GammaRep.even_products.
    """
    generators = tuple(1 << i for i in range(m))
    table = [_left_product_rows(m, generators, parity) for parity in (0, 1)]
    points = np.arange(len(flips))
    c = np.zeros((1 << (m - 1), len(flips)))
    c[flips >> 1, points] = 1
    for j in reversed(range(m - 1)):  # gamma(v_j) c has the parity of j
        signed = np.concatenate([c, -c])
        v, products = vectors[j], table[j % 2]
        c = signed[products[j]]
        c *= v[j]
        for i in range(j + 1, m):
            term = signed[products[i]]
            term *= v[i]
            c += term
    return c


def _unsigned_coefficients(entries: np.ndarray, m: int, tol: float = 1e-10) -> np.ndarray:
    """Even-blade coefficients c (K, P) of the spin lifts of rotations, up to sign.

    entries (m * m, P) holds the rotations entry-major: row i m + j is the
    plane of entry (i, j).  c is the blade rendering (_blade_lift) of their
    Householder reflections (_reflection_lifts), real with |c| = 1.  Every
    rotation must be finite with each entry of R^T R within tol of the
    identity's and det R > 0.
    """
    if len(entries) != m * m:
        raise ValueError(f"expected {m}x{m} rotation")
    return _blade_lift(*_reflection_lifts(entries, m, tol), m)


def _reflection_product(entries: np.ndarray, rep: GammaRep, tol: float) -> np.ndarray:
    """The lift tau = gamma(v_1) ... gamma(v_{m-1}) gamma_N (d, d) of the one
    rotation in entries (m * m, 1), from its _reflection_lifts, sign as it falls."""
    vectors, flips = _reflection_lifts(entries, rep.m, tol)
    flipped = int(flips[0])
    factors = list((vectors[..., 0] @ rep.gamma_stack.reshape(rep.m, -1)).reshape(-1, rep.dim, rep.dim))
    factors += [gamma for j, gamma in enumerate(rep.gammas) if flipped >> j & 1]
    return reduce(np.matmul, factors, np.eye(rep.dim, dtype=complex))


def spin_lift(rotation, rep: GammaRep, anchor: CliffordGroupElement | None = None,
              tol: float = 1e-10) -> CliffordGroupElement:
    """Unitary tau with tau gamma(v) tau^{-1} = gamma(R v) for all v.

    tau is the product of the gammas of R's Householder reflections,
    gamma(v_1) ... gamma(v_{m-1}) gamma_N (_reflection_lifts), the kernel
    that frame_lift_coefficients applies to a whole grid, on a one-point
    grid; no blade table is built.  R must be finite with each entry of
    R^T R within tol of the identity's and det R > 0.  The double-cover
    sign is nearest to the anchor when given, otherwise by a fixed
    deterministic rule (_default_sign).
    """
    r = np.asarray(rotation, dtype=float)
    m = rep.m
    if r.shape != (m, m):
        raise ValueError(f"expected {m}x{m} rotation")
    tau = _reflection_product(r.reshape(m * m, 1), rep, tol)

    if anchor is not None:
        overlap = np.real(np.trace(anchor.matrix.conj().T @ tau))
        if abs(overlap) < 1e-6:
            raise ValueError("double-cover sign is ambiguous relative to the anchor "
                             "(frame field discontinuity)")
        if overlap < 0:
            tau = -tau
    else:
        tau = _default_sign(tau) * tau
    return CliffordGroupElement(m, tau, r)


def recover_rotation(tau: CliffordGroupElement, rep: GammaRep, frame=None) -> np.ndarray:
    """Matrix of vector pairings of the rotated primitive-spinor family.

    Entry (i, l) is <conj(psi_l), gamma(b^i) psi_l> with
    psi_l = tau . primitive_spinor(e_l).  For the standard frame this
    reproduces tau's rotation; for tau = identity and frame rows
    b^i = sum_j L[i, j] e_j it reproduces L.  One batched product: the rows
    psi_l = rep.axis_primitives @ tau^T, the pairings
    Re <conj(psi_l), gamma_j psi_l> of every l and j as one einsum, then
    frame @ pairings^T.
    """
    m = rep.m
    if tau.m != m:
        raise ValueError(f"dimension mismatch: group element {tau.m} vs rep {m}")
    psi = rep.axis_primitives @ tau.matrix.T
    pairs = np.einsum("lc,jcd,ld->lj", psi.conj(), rep.gamma_stack, psi).real
    if frame is None:
        return pairs.T
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[1] != m:
        raise ValueError(f"frame rows must have length {m}, got shape {frame.shape}")
    return frame @ pairs.T
