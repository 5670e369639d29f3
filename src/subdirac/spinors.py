"""Concrete spinor representations of the complexified Clifford algebra.

The gamma matrices are built by recursive tensor doubling so that the first
k generators of the dimension-n system restrict to the dimension-k system
on a fixed submodule (used by the induced/restricted representations).
All gammas are hermitian and unitary, so the hermite conjugation of
components realizes the algebra's reversion involution on matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .clifford import MAX_DIMENSION, Multivector, _blade_product_signs, _popcount

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

        The order of _spin_lift_table's blades, so tau = sum_K c_K gamma_K is
        one product against this stack.  Built on first use and read-only.
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
    gram[np.diag_indices(m)] -= 1
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


@lru_cache(maxsize=None)
def _minor_schedule(m: int) -> tuple:
    """Index arrays of _rotation_minors' Laplace expansion, built once per m.

    For each grade g = 2, ..., m, one pair per t < g: the entry rows of
    R[J[0], I[t]] and the grade g - 1 rows of det R[J[1:], I without I[t]],
    over the grade's (J, I) pairs in order.
    """
    def row_subsets(g):
        return list(combinations(range(m), g)) if g <= m // 2 else [tuple(range(m - g, m))]

    schedule = []
    for g in range(2, m + 1):
        lower_rows = {s: i for i, s in enumerate(row_subsets(g - 1))}
        lower_cols = {s: i for i, s in enumerate(combinations(range(m), g - 1))}
        pairs = [(rows, cols) for rows in row_subsets(g) for cols in combinations(range(m), g)]
        steps = []
        for t in range(g):
            entry = np.array([rows[0] * m + cols[t] for rows, cols in pairs])
            lower = np.array([lower_rows[rows[1:]] * len(lower_cols)
                              + lower_cols[cols[:t] + cols[t + 1:]] for rows, cols in pairs])
            entry.flags.writeable = lower.flags.writeable = False  # shared by every caller
            steps.append((entry, lower))
        schedule.append(tuple(steps))
    return tuple(schedule)


def _rotation_minors(entries: np.ndarray, m: int) -> list:
    """Minors det R[J, I] over entries (m*m, P) holding R[j, i] at row j*m + i.

    One (rows * columns, P) array per grade g = 0, ..., m, row subset J
    major, subsets in itertools.combinations order (the order of
    _spin_lift_table).  The columns I are every size-g subset; the rows J
    are too up to g = m // 2, and above that only the last g rows, which is
    all that the Laplace expansion along the first row needs on its way to
    the last grade, det R.  The index arrays come from _minor_schedule.
    """
    grades = [np.ones((1, entries.shape[1])), entries]
    for steps in _minor_schedule(m):
        minor = None
        for t, (entry_rows, lower_rows) in enumerate(steps):
            term = entries[entry_rows]
            term *= grades[-1][lower_rows]
            if minor is None:
                minor = term
            elif t % 2:
                minor -= term
            else:
                minor += term
        grades.append(minor)
    return grades


# Largest m for which _spin_lift_table is built: it holds 2^(m-1) *
# sum_{g <= m/2} C(m, g)^2 entries (21 184 for m = 6, 1.1 M for m = 8), and a
# point's minors number that sum (662 for m = 6, 8 885 for m = 8).
LIFT_TABLE_MAX_DIMENSION = 6


@lru_cache(maxsize=None)
def _spin_lift_table(m: int) -> tuple:
    """Fixed table that reads the spin lift of R in SO(m) off the minors of R.

    Write the lift as tau = sum_K c_K gamma_K over the even blades K, with
    c real and |c| = 1, and take tau gamma_i tau^{-1} = sum_j R[j, i] gamma_j,
    so that tau e_I tau^{-1} = sum_J det R[J, I] e_J.  Since
    sum_I e_I A e_I^{-1} = 2^m <A>_0 over all blades I,

        2^m c_K c_L = sum_{|J| = |I|} det R[J, I] <rev(e_K) e_J e_L e_I^{-1}>_0,

    and that scalar part is +-1 where K ^ J ^ L ^ I = 0 and 0 otherwise.
    For det R = 1, Jacobi's complementary-minor identity
    det R[J, I] = (-1)^(sum J + sum I) det R[J^c, I^c] folds the grades
    above m/2 into the lower ones (10 minors for m = 3, 53 for m = 4); a
    folded pair (J, I), (J^c, I^c) meets the same L = K ^ J ^ I.

    So for each K every minor enters exactly one c_K c_L, and the table is
    stored sparsely.  The minors enter grade by grade for g = 0, ..., m // 2,
    each grade with its row subset J major and the size-g subsets in
    itertools.combinations order.  Returns (blades, diagonal, partner,
    weight): the even blade masks in ascending order; diagonal (K, F) with
    c_K^2 = diagonal[K] @ minors; and partner, weight (K, F) with
    c_K c_L = sum of weight[K, f] minors[f] over the f with
    partner[K, f] = L.  Raises ValueError above LIFT_TABLE_MAX_DIMENSION.
    """
    if not 1 <= m <= LIFT_TABLE_MAX_DIMENSION:
        raise ValueError(f"spin lift table covers dimensions 1..{LIFT_TABLE_MAX_DIMENSION}, "
                         f"got {m}")
    blades = [mask for mask in range(1 << m) if _popcount(mask) % 2 == 0]
    where = np.full(1 << m, -1)
    where[blades] = np.arange(len(blades))
    masks = np.arange(1 << m)
    sign = _blade_product_signs(masks[:, None], masks)

    def mask_of(subset):
        return sum(1 << i for i in subset)

    rows, cols, folded = [], [], []
    for g in range(m // 2 + 1):
        for row in combinations(range(m), g):
            for col in combinations(range(m), g):
                rows.append(mask_of(row))
                cols.append(mask_of(col))
                folded.append((-1) ** (sum(row) + sum(col)) if 2 * g < m else 0)
    j, i, folded = np.array(rows), np.array(cols), np.array(folded)
    k = np.array(blades)[:, None]
    l = k ^ j ^ i  # even, as |J| = |I|; e_K e_J e_L = +-e_I
    reverse = np.array([-1 if _popcount(mask) % 4 == 2 else 1 for mask in blades])[:, None]
    full = (1 << m) - 1
    weight = reverse * (sign[k, j] * sign[k ^ j, l]
                        + folded * sign[k, full ^ j] * sign[k ^ full ^ j, l]) / 2 ** m
    partner = where[l]
    diagonal = np.where(partner == np.arange(len(blades))[:, None], weight, 0.0)
    for table in (diagonal, partner, weight):
        table.flags.writeable = False  # shared by every caller
    return blades, diagonal, partner, weight


# Points per block of the pointwise grid kernels (the lift's minors and table
# product, the residual's odd coefficients, the Gram and bilinear pair
# products): one block's temporaries, at most the 53 minor rows of m = 4
# (0.4 MB), stay in a 2 MB L2 cache.
GRID_BLOCK = 1024
# The lift's BLAS products run over whole multiples of _BLAS_TILE columns and
# over at least _BLAS_MIN_ENTRIES output entries: OpenBLAS takes other paths,
# which round differently, for a partial tile and for a small product (up to
# about 1200 outputs).  So a rotation's lift comes out the same wherever a
# block puts it.
_BLAS_TILE = 16
_BLAS_MIN_ENTRIES = 2048


def _grid_blocks(points: int) -> list:
    """Slices of GRID_BLOCK consecutive columns (the last one shorter) covering points."""
    return [slice(start, min(start + GRID_BLOCK, points)) for start in range(0, points, GRID_BLOCK)]


def _whole_tiles(points: int, rows: int) -> np.ndarray:
    """Indices of points columns, the last one repeated, for products with rows
    output rows to take the full-tile path (_BLAS_TILE, _BLAS_MIN_ENTRIES)."""
    width = max(-(-points // _BLAS_TILE) * _BLAS_TILE, -(-_BLAS_MIN_ENTRIES // rows))
    return np.minimum(np.arange(width), points - 1)


def _table_lift(entries: np.ndarray, m: int, tol: float) -> np.ndarray:
    """Even-blade coefficients c (K, P) of the spin lifts of P rotations, up to sign.

    entries (m*m, P) holds R[j, i] at row j*m + i.  One real product of
    each rotation's minors against _spin_lift_table's diagonal gives every
    c_K^2; the largest is at least 2^(1-m), and the table's row for that
    blade, normalised, is c up to sign.  Raises ValueError unless every R
    is finite with R^T R within tol of the identity (absolute, entrywise)
    and det R, the last grade of the minors, is positive.

    Each blade's row multiplies all P columns, and for P > 1 the columns are
    padded to the full-tile path (_whole_tiles), so that a rotation's c does
    not depend on the rotations it is lifted with; one rotation (spin_lift)
    is lifted alone.
    """
    _assert_orthogonal(entries, m, tol)
    points, blades = entries.shape[1], 1 << (m - 1)
    if points > 1 and (points % _BLAS_TILE or points * blades < _BLAS_MIN_ENTRIES):
        entries = entries[:, _whole_tiles(points, blades)]
    grades = _rotation_minors(entries, m)
    if (grades[m] < 0).any():
        raise ValueError("matrix has determinant -1 (not in SO)")

    _, diagonal, partner, weight = _spin_lift_table(m)
    minors = np.concatenate(grades[: m // 2 + 1])
    best = (diagonal @ minors).argmax(axis=0)[:points]
    c = np.empty((blades, points))
    for k in np.flatnonzero(np.bincount(best, minlength=blades)):
        at = best == k
        row = np.zeros((blades, len(minors)))
        row[partner[k], np.arange(len(minors))] = weight[k]
        c[:, at] = (row @ minors)[:, :points][:, at]
    c /= np.linalg.norm(c, axis=0)
    return c


def _reflection_lifts(entries: np.ndarray, rep: GammaRep, tol: float) -> np.ndarray:
    """Spin lifts tau (P, d, d) of the rotations in entries (m * m, P), sign as it falls.

    Householder reflections H_j = 1 - 2 v_j v_j^T / |v_j|^2 reduce each R
    column by column, with v_j = x + sign(x_0) |x| e_j for x the rows j..
    of column j of the partly reduced R (|x| = 1, so |v_j|^2 >= 2), to
    H_{m-1} ... H_1 R = D = diag(+-1).  As gamma(v) gamma(w) gamma(v)^{-1}
    = -gamma(H_v w), an even number of reflections lifts to their gamma
    product (Cartan-Dieudonne): tau = gamma(v_1) ... gamma(v_{m-1})
    prod_{D_jj < 0} gamma_j, and the count is even exactly when det R > 0.
    Raises ValueError unless every R is finite with R^T R within tol of the
    identity (absolute, entrywise) and det R > 0.
    """
    m = rep.m
    _assert_orthogonal(entries, m, tol)
    reduced = entries.reshape(m, m, -1).copy()  # one plane per entry R[i, j]
    points = reduced.shape[-1]
    tau = np.repeat(np.eye(rep.dim, dtype=complex)[None], points, axis=0)
    for j in range(m - 1):
        x = reduced[j:, j]
        v = np.zeros((m, points))
        v[j:] = x
        v[j] += np.copysign(np.linalg.norm(x, axis=0), x[0])
        v /= np.linalg.norm(v, axis=0)
        reduced -= 2 * v[:, None] * np.einsum("ip,ijp->jp", v, reduced)
        tau = tau @ np.tensordot(v.T, rep.gamma_stack, axes=1)
    negative = reduced[np.arange(m), np.arange(m)] < 0  # D_jj < 0, (m, P)
    if ((m - 1 + negative.sum(axis=0)) % 2).any():
        raise ValueError("matrix has determinant -1 (not in SO)")
    for gamma, flip in zip(rep.gammas, negative):
        tau[flip] = tau[flip] @ gamma
    return tau


def _unsigned_coefficients(entries: np.ndarray, rep: GammaRep, tol: float = 1e-10) -> np.ndarray:
    """Even-blade coefficients c (K, P) of the spin lifts of rotations, up to sign.

    entries (m * m, P) holds the rotations entry-major: row i m + j is the
    plane of entry (i, j).

    Up to LIFT_TABLE_MAX_DIMENSION the minor table (_table_lift) gives c;
    above it the reflection lifts (_reflection_lifts) are projected onto the
    even blades, c_K = Re tr(gamma_K^H tau) / d, as tr(gamma_K^H gamma_L) = d delta_KL.
    Every rotation must be finite with each entry of R^T R within tol of
    the identity's and det R > 0.
    """
    m = rep.m
    if len(entries) != m * m:
        raise ValueError(f"expected {m}x{m} rotation")
    if m <= LIFT_TABLE_MAX_DIMENSION:
        return _table_lift(entries, m, tol)
    taus = _reflection_lifts(entries, rep, tol)
    blades = rep.even_products.reshape(len(rep.even_products), -1).view(float)
    return blades @ taus.reshape(len(taus), -1).view(float).T / rep.dim


def spin_lift(rotation, rep: GammaRep, anchor: CliffordGroupElement | None = None,
              tol: float = 1e-10) -> CliffordGroupElement:
    """Unitary tau with tau gamma(v) tau^{-1} = gamma(R v) for all v.

    Up to LIFT_TABLE_MAX_DIMENSION, tau = sum_K c_K gamma_K with c from the
    kernel that frame_lift_coefficients applies to a whole grid
    (_unsigned_coefficients); above it tau is the Householder reflection
    lift (_reflection_lifts) and no blade table is built.  R must be finite
    with each entry of R^T R within tol of the identity's and det R > 0.
    The double-cover sign is nearest to the anchor when given, otherwise by
    a fixed deterministic rule.
    """
    r = np.asarray(rotation, dtype=float)
    m = rep.m
    if r.shape != (m, m):
        raise ValueError(f"expected {m}x{m} rotation")
    entries = r.reshape(m * m, 1)
    if m > LIFT_TABLE_MAX_DIMENSION:
        tau = _reflection_lifts(entries, rep, tol)[0]
    else:
        c = _unsigned_coefficients(entries, rep, tol)[:, 0]
        tau = (c @ rep.even_products.reshape(len(c), -1)).reshape(rep.dim, rep.dim)

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
