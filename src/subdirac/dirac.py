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
    _staircase_scan,
    build_frame_field,
)
from .spinors import GammaRep, build_gamma_rep, spin_lift, spinor_dim


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


def _twirl(rotations: np.ndarray, rep: GammaRep, x: np.ndarray | None = None) -> np.ndarray:
    """sum_I gamma'_I x gamma_I^{-1} over all 2^n blades I, gamma'_i = sum_j R[j, i] gamma_j.

    x defaults to the identity.  For R in SO(n) with spin lift tau the sum
    is tau (2^n / d) tr(tau^H x).  (For odd n the module identifies each odd
    blade with an even one through the pseudoscalar, so the sum is twice the
    one over the even blades.)  It factorises generator by generator: with
    L_i(y) = y + gamma'_i y gamma_i^{-1} it is L_1(L_2(... L_n(x))), n
    products per point instead of 2^n.
    """
    d, m = rep.dim, rep.m
    gam = np.stack(rep.gammas)
    r = rotations.reshape(-1, m, m)
    points = r.shape[0]
    # y[a, p, c] = y_p[a, c]: a constant gamma on either side of every y_p
    # is then one matrix product
    y = np.empty((d, points, d), dtype=complex)
    y[...] = (np.eye(d)[:, None, :] if x is None
              else x.reshape(points, d, d).transpose(1, 0, 2))
    for i in reversed(range(m)):
        prime_y = np.zeros_like(y)
        for j in range(m):
            term = (gam[j] @ y.reshape(d, -1)).reshape(y.shape)
            term *= r[:, j, i, None]
            prime_y += term
        # gamma_i^{-1} = gamma_i: the gammas are hermitian and unitary
        y += (prime_y.reshape(-1, d) @ gam[i]).reshape(y.shape)
    return y.transpose(1, 0, 2).reshape(rotations.shape[:-2] + (d, d))


def frame_lift_field(frames: FrameField, rep: GammaRep | None = None) -> np.ndarray:
    """Spin lift tau(s) of the frame assembly at every grid point.

    The lifted rotation has the frame vectors as matrix rows.  Signs follow
    the staircase order (base column first, then along each row): a
    point's rotation relative to its predecessor, R(s) R(prev)^T, stays
    near the identity on a smooth field, and its lift sigma(s) is the twirl
    over the Clifford basis normalised to Re tr sigma > 0.  As
    Re tr(tau^H sigma tau) = Re tr sigma, that is the sign nearest to the
    predecessor's lift.  The base corner takes spin_lift's default sign, and
    the chain tau(s) = sigma(s) tau(prev) runs down the base column, then
    across all rows at once.  Each chained lift is then twirled once more
    against its own rotation, which keeps its sign and removes the rounding
    the chain gathers along its length.

    Every rotation must be in SO(n) to 1e-10, and |tr sigma| < 1e-6 (a
    half-turn between neighbours) raises, since the sign is then ambiguous.
    Shape (*grid, d, d).
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    rot = frames.frame_rotation
    shape = frames.grid_shape
    m, d = rep.m, rep.dim
    if rot.shape[-2:] != (m, m):
        raise ValueError(f"expected {m}x{m} rotation")
    if not np.isclose(np.swapaxes(rot, -1, -2) @ rot, np.eye(m), atol=1e-10).all():
        raise ValueError("matrix is not orthogonal within tolerance")
    if (np.linalg.det(rot) < 0).any():
        raise ValueError("matrix has determinant -1 (not in SO)")

    def scale(t):
        """|c| for t = c tau with tau unitary, as ||tau||_F = sqrt(d)."""
        return np.linalg.norm(t, axis=(-2, -1), keepdims=True) / np.sqrt(d)

    sigma = _twirl(rot @ np.swapaxes(_staircase_previous(rot, len(shape)), -1, -2), rep)
    # sigma = tau_rel (2^m / d) tr(tau_rel^H), and that trace is real
    sigma_scale = scale(sigma)
    if (sigma_scale * d / 2 ** m < 1e-6).any():
        raise ValueError("double-cover sign is ambiguous relative to the anchor "
                         "(frame field discontinuity)")
    sigma /= sigma_scale

    taus = _staircase_scan(sigma, spin_lift(rot[(0,) * len(shape)], rep).matrix)
    taus = _twirl(rot, rep, taus)
    return taus / scale(taus)


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
    """Gram matrix field <conj(psi^a), psi^b> over the grid, shape (*grid, d, d)."""
    stack = np.stack([f.values for f in fields], axis=-2)  # (*grid, d, comp)
    return np.einsum("...ac,...bc->...ab", np.conj(stack), stack)


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

    unit = np.eye(nk)[direction]
    rho = np.stack([frames.rho_on_tube(qv * unit).ravel() for qv in q])  # (Nq, P)
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

    residual_without = abs((v @ np.sqrt(rho)) @ u)
    residual_with = abs(u.sum() * v.sum())
    return residual_without, residual_with
