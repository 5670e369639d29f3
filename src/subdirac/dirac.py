"""Discretized Dirac operators on grid spinor fields over immersed charts.

The operator acts on fields of ambient-module spinors (dimension
2^[n/2]) attached to the chart grid:

    D = sum_a gamma_a e_a^alpha (d_alpha + (1/4) omega_{alpha b c}
        gamma_b gamma_c)  [+ (1/2) gamma_adot Gamma_adot]

with the first k reference gammas carrying the tangent frame directions,
the remaining ones the parallel normal directions, and second-order central
differences for d_alpha.  The optional zeroth-order term is the
mean-curvature correction that distinguishes the submanifold operator from
the intrinsic one.

Every coefficient of D is a few real fields of the frame times fixed gamma
products: the tangent gammas gamma_a, the triple products
gamma_a gamma_b gamma_c and the normal gammas gamma_adot.  Assembly builds
these tables once from the gamma system and forms each coefficient as one
real matrix product of a coefficient field against a table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    FrameField,
    ImmersionChart,
    _diff_axis,
    _staircase_previous,
    _tube_factor,
    build_frame_field,
)
from .spinors import (
    LIFT_TABLE_MAX_DIMENSION,
    GammaRep,
    _assert_orthogonal,
    _default_sign,
    _schur_lift,
    _table_lift,
    build_gamma_rep,
    spinor_dim,
)


@dataclass(frozen=True)
class GridSpinorField:
    """Spinor of the ambient module at every grid point of a chart."""

    chart: ImmersionChart
    values: np.ndarray  # (*grid, 2^[n/2]) complex
    spacings: tuple

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape[-1] != spinor_dim(self.chart.n):
            raise ValueError("spinor components do not match the ambient module")
        object.__setattr__(self, "values", values)

    @property
    def grid_shape(self):
        return self.values.shape[:-1]


@dataclass(frozen=True)
class DiracOperator:
    """First-order operator assembled over a frame field.

    axis_matrices[alpha] = sum_a e_a^alpha gamma_a multiplies the alpha-th
    central difference; potential collects the spin-connection term
    sum_{abc} C_abc gamma_a gamma_b gamma_c and (optionally) the
    mean-curvature term (1/2) H_adot gamma_adot.  Both are stored dense per
    grid point, as assembled from the gamma tables.
    """

    frames: FrameField
    rep: GammaRep
    axis_matrices: np.ndarray  # (*grid, k, d, d)
    potential: np.ndarray  # (*grid, d, d)
    includes_mean_curvature: bool

    @property
    def chart(self):
        return self.frames.chart

    def __call__(self, field: GridSpinorField) -> GridSpinorField:
        return apply_operator(self, field)


def _combine(coeff: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """sum_r coeff[..., r] mats[r] for a real field coeff and fixed (r, d, d) mats.

    The mats enter as one (r, 2 d^2) real table, the float view of their
    entries, so the whole field is one real matrix product and its result
    is read back as complex without a copy.
    """
    d = mats.shape[-1]
    table = np.ascontiguousarray(mats, dtype=complex).reshape(len(mats), -1).view(float)
    flat = np.asarray(coeff, dtype=float).reshape(-1, len(mats)) @ table
    return flat.view(complex).reshape(coeff.shape[:-1] + (d, d))


def _assemble(frames: FrameField, rep: GammaRep, with_mean: bool) -> DiracOperator:
    """Coefficient fields of the frame times fixed gamma tables.

    A_alpha = sum_a e_a^alpha gamma_a is the transposed e_coeff against the
    table of tangent gammas.  The spin connection contracted with A_alpha is
    sum_{abc} C_abc gamma_a gamma_b gamma_c with
    C_abc = (1/4) sum_alpha e_a^alpha omega_{alpha b c}, one product against
    the table of tangent triple products, and the mean-curvature term is
    (1/2) H_adot against the table of normal gammas.
    """
    chart = frames.chart
    k, n = chart.k, chart.n
    if rep.m != n:
        raise ValueError(f"gamma system of dimension {rep.m} does not match ambient {n}")
    gam = np.stack(rep.gammas)  # (n, d, d)
    d = rep.dim

    if np.abs(frames.omega + np.swapaxes(frames.omega, -1, -2)).max() > 1e-8:
        raise ValueError("spin connection coefficients are not antisymmetric")

    tangent = gam[:k]
    triple = np.einsum("aij,bjl,clm->abcim", tangent, tangent, tangent).reshape(-1, d, d)
    grid = frames.grid_shape

    axis = _combine(np.swapaxes(frames.e_coeff, -1, -2), tangent)
    conn = 0.25 * (frames.e_coeff @ frames.omega.reshape(grid + (k, k * k)))
    potential = _combine(conn.reshape(grid + (k ** 3,)), triple)
    if with_mean:
        potential += _combine(0.5 * frames.mean_curvature, gam[k:])
    return DiracOperator(frames, rep, axis, potential, with_mean)


def intrinsic_dirac(frames: FrameField, rep: GammaRep | None = None) -> DiracOperator:
    """The Dirac operator of the induced metric in the chart's tangent frame."""
    rep = rep or build_gamma_rep(frames.chart.n)
    return _assemble(frames, rep, with_mean=False)


def submanifold_dirac(frames: FrameField, rep: GammaRep | None = None) -> DiracOperator:
    """Intrinsic operator plus the (1/2) gamma_adot Gamma_adot zeroth-order term."""
    rep = rep or build_gamma_rep(frames.chart.n)
    return _assemble(frames, rep, with_mean=True)


def apply_operator(op: DiracOperator, field: GridSpinorField) -> GridSpinorField:
    if field.grid_shape != op.frames.grid_shape:
        raise ValueError("field grid does not match operator grid")
    psi = field.values
    out = np.einsum("...ij,...j->...i", op.potential, psi)
    for alpha, h in enumerate(op.frames.spacings):
        dpsi = _diff_axis(psi, alpha, h)
        out = out + np.einsum("...ij,...j->...i", op.axis_matrices[..., alpha, :, :], dpsi)
    return GridSpinorField(field.chart, out, field.spacings)


def dirac_residual(op: DiracOperator, field: GridSpinorField) -> float:
    """Max interior pointwise norm of the operator applied to the field."""
    image = apply_operator(op, field)
    interior = tuple(slice(1, -1) for _ in field.grid_shape)
    vals = image.values[interior]
    if vals.size == 0:
        return 0.0
    return float(np.linalg.norm(vals, axis=-1).max())


def _sign_chain(overlap: np.ndarray, base_sign: float) -> np.ndarray:
    """+-1 per grid point from neighbour overlaps tr(tau(s) tau(prev)^H).

    A point keeps the sign that makes its overlap with its staircase
    predecessor positive, the one nearest to the predecessor's lift; the
    base corner takes base_sign.  The steps are chained by a cumulative
    product down the base column and then along the rows, which gathers no
    rounding.  |overlap| < 1e-6 (a half-turn between neighbours) raises,
    since the sign is then ambiguous.
    """
    if (np.abs(overlap) < 1e-6).any():
        raise ValueError("double-cover sign is ambiguous relative to the anchor "
                         "(frame field discontinuity)")
    base = (0,) * overlap.ndim
    sign = np.sign(overlap)
    sign[base] = base_sign
    column = (slice(None),) + base[1:]
    sign[column] = np.cumprod(sign[column])
    if overlap.ndim == 2:
        sign = np.cumprod(sign, axis=1)
    return sign


def frame_lift_field(frames: FrameField, rep: GammaRep | None = None) -> np.ndarray:
    """Spin lift tau(s) of the frame assembly at every grid point.

    The lifted rotation has the frame vectors as matrix rows.  Each lift is
    tau = sum_K c_K gamma_K over the even blades K with c real and |c| = 1,
    read off the minors of R by the fixed table of spinors._table_lift, the
    kernel that spin_lift runs on one point.  The table grows as 4^m, so
    above LIFT_TABLE_MAX_DIMENSION each point is lifted from a real Schur
    decomposition (spinors._schur_lift) instead, and the same sign chain
    follows.

    Signs follow the staircase order (base column first, then along each
    row): a point keeps the sign with c(s) . c(prev) > 0, the one nearest
    to its predecessor's lift, as tr(tau(s) tau(prev)^H) = d c(s) . c(prev).
    The base corner takes spin_lift's default sign rule, applied to its own
    lift, and the +-1 steps are chained by a cumulative product
    (_sign_chain).  One product of the signed c against the even blade
    products of the gamma system gives the matrices.

    Every rotation must be finite with each entry of R^T R within 1e-10 of
    the identity's and det R > 0, and d |c(s) . c(prev)| < 1e-6 (a
    half-turn between neighbours) raises, since the sign is then ambiguous.
    Shape (*grid, d, d).
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    rot = frames.frame_rotation
    shape = frames.grid_shape
    m, d = rep.m, rep.dim
    if rot.shape[-2:] != (m, m):
        raise ValueError(f"expected {m}x{m} rotation")
    # entry-major (m*m, P): every product below runs over contiguous points
    entries = np.ascontiguousarray(np.moveaxis(rot.reshape(-1, m, m), 0, -1)).reshape(m * m, -1)
    base = (0,) * len(shape)
    if m > LIFT_TABLE_MAX_DIMENSION:
        _assert_orthogonal(entries, m, 1e-10)
        if (np.linalg.det(rot.reshape(-1, m, m)) < 0).any():
            raise ValueError("matrix has determinant -1 (not in SO)")
        taus = np.stack([_schur_lift(r, rep) for r in rot.reshape(-1, m, m)])
        taus = taus.reshape(shape + (d, d))
        overlap = np.einsum("...ij,...ij->...", taus,
                            _staircase_previous(taus, len(shape)).conj()).real
        return _sign_chain(overlap, _default_sign(taus[base]))[..., None, None] * taus

    c = _table_lift(entries, m, 1e-10)
    c = c.T.reshape(shape + (len(c),))
    overlap = d * np.einsum("...k,...k->...", c, _staircase_previous(c, len(shape)))
    products = rep.even_products
    base_sign = _default_sign(np.tensordot(c[base], products, axes=1))
    return _combine(_sign_chain(overlap, base_sign)[..., None] * c, products)


def frame_spinor_fields(frames: FrameField, rep: GammaRep | None = None) -> list:
    """The 2^[n/2] candidate kernel fields psi^a(s) = tau(s) c^a.

    Columns of the lifted frame field: pointwise orthonormal since every
    tau is unitary.
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    taus = frame_lift_field(frames, rep)
    spac = tuple(frames.spacings)
    return [GridSpinorField(frames.chart, taus[..., :, a], spac) for a in range(rep.dim)]


def pointwise_pairings(fields: list) -> np.ndarray:
    """Gram matrix field <conj(psi^a), psi^b> over the grid, shape (*grid, d, d).

    One entry-major product: the components as planes (d, comp, P), each
    holding one component of one field at all P grid points, contracted
    over comp at every point at once.
    """
    stack = np.stack([f.values for f in fields])  # (d, *grid, comp)
    d, grid = len(fields), stack.shape[1:-1]
    planes = np.moveaxis(stack.reshape(d, -1, stack.shape[-1]), -1, 1)
    gram = np.einsum("acp,bcp->abp", planes.conj(), planes)
    return np.moveaxis(gram, -1, 0).reshape(grid + (d, d))


# ---------------------------------------------------------------------------
# self-adjointness of the normal momenta on the tube


def _bump(u: np.ndarray) -> np.ndarray:
    """Smooth profile on [0, 1] vanishing to second order at both ends."""
    return np.sin(np.pi * u) ** 2


def _trapezoid_weights(axis: np.ndarray, h: float) -> np.ndarray:
    w = np.full(len(axis), h)
    w[[0, -1]] = 0.5 * h
    return w


def selfadjointization_check(chart: ImmersionChart, s_shape=None, q_points=33,
                             q_max=0.25, direction=0, frames: FrameField | None = None):
    """Adjoint defect of p = i d/dq on the tube, before and after the
    half-density move.

    residual_without pairs with the geometric measure rho^{1/2} (det g_S)^{1/2};
    residual_with uses the flattened measure (det g_S)^{1/2} that the
    rho^{1/4} conjugation of vectors induces.  The defect with the geometric
    measure converges to |integral conj(f) g d_q(rho^{1/2}) sqrt(g_S)| > 0
    whenever the mean curvature along the chosen direction is nonzero; the
    flattened one is pure discretization error, O(h^2).

    The complex bump test functions factor as f = f_s(s) f_q(q) and
    g = g_s(s) g_q(q), so p acts on f_q and g_q alone and the trapezoid sum
    of (conj(p f) g - conj(f) p g) m sqrt(g_S) is u^T m v, with
    u = w_s sqrt(g_S) conj(f_s) g_s over the grid, v = w_q (conj(p f_q) g_q
    - conj(f_q) p g_q) over q, and m = rho^{1/2} (geometric) or 1 (flattened).
    Raises FocalDistanceError when the tube reaches the focal set.
    """
    frames = frames or build_frame_field(chart, shape=s_shape)
    nk = chart.n - chart.k
    if not 0 <= direction < nk:
        raise ValueError("normal direction out of range")

    q = np.linspace(-q_max, q_max, q_points)
    hq = q[1] - q[0]

    # sqrt(rho) on the whole tube, (Nq, P), from the direction's Weingarten map
    sqrt_rho = _tube_factor(frames.weingarten[..., direction:direction + 1, :, :],
                            q[:, None]).reshape(q_points, -1)
    sqrt_gs = np.sqrt(np.linalg.det(frames.metric))

    # complex bump test functions on the tube, factor by factor
    su = [(ax - ax[0]) / (ax[-1] - ax[0]) for ax in frames.axes]
    qu = (q - q[0]) / (q[-1] - q[0])
    sbump = _bump(su[0])
    for x in su[1:]:
        sbump = np.multiply.outer(sbump, _bump(x))
    phase_s = np.add.reduce(np.meshgrid(*su, indexing="ij"))
    f_s = sbump * np.exp(1j * phase_s)
    g_s = sbump * np.exp(0.5j * phase_s)
    f_q = _bump(qu) * np.exp(2j * qu)
    g_q = _bump(qu) * np.exp(-1j * qu)

    def p(field):
        return 1j * _diff_axis(field, 0, hq)

    w_s = _trapezoid_weights(frames.axes[0], frames.spacings[0])
    for ax, h in zip(frames.axes[1:], frames.spacings[1:]):
        w_s = np.multiply.outer(w_s, _trapezoid_weights(ax, h))
    u = (w_s * sqrt_gs * np.conj(f_s) * g_s).ravel()
    v = _trapezoid_weights(q, hq) * (np.conj(p(f_q)) * g_q - np.conj(f_q) * p(g_q))

    residual_without = abs((v @ sqrt_rho) @ u)
    residual_with = abs(u.sum() * v.sum())
    return residual_without, residual_with
