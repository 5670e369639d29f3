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

    axis_matrices[alpha] multiplies the alpha-th central difference;
    potential collects the spin-connection and (optionally) the
    mean-curvature zeroth-order terms.
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


def _assemble(frames: FrameField, rep: GammaRep, with_mean: bool) -> DiracOperator:
    chart = frames.chart
    k, n = chart.k, chart.n
    if rep.m != n:
        raise ValueError(f"gamma system of dimension {rep.m} does not match ambient {n}")
    gam = np.stack(rep.gammas)  # (n, d, d)
    d = rep.dim

    if np.abs(frames.omega + np.swapaxes(frames.omega, -1, -2)).max() > 1e-8:
        raise ValueError("spin connection coefficients are not antisymmetric")

    # A_alpha = sum_a gamma_a e_a^alpha
    axis = np.einsum("...ag,aij->...gij", frames.e_coeff, gam[:k])

    # (1/4) omega_{alpha b c} gamma_b gamma_c, then contracted with A_alpha
    gbc = np.einsum("bij,cjk->bcik", gam[:k], gam[:k])
    conn = 0.25 * np.einsum("...gbc,bcij->...gij", frames.omega, gbc)
    potential = np.einsum("...gij,...gjk->...ik", axis, conn)

    if with_mean:
        potential = potential + 0.5 * np.einsum("...m,mij->...ij",
                                                frames.mean_curvature, gam[k:])
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
    """
    frames = frames or build_frame_field(chart, shape=s_shape)
    shape = frames.grid_shape
    nk = chart.n - chart.k
    if not 0 <= direction < nk:
        raise ValueError("normal direction out of range")

    q = np.linspace(-q_max, q_max, q_points)
    hq = q[1] - q[0]

    unit = np.eye(nk)[direction]
    rho = np.stack([frames.rho_on_tube(qv * unit) for qv in q], axis=-1)  # (*grid, Nq)
    if rho.min() <= 0:
        raise ValueError("tube too thick: rho lost positivity")
    sqrt_gs = np.sqrt(np.linalg.det(frames.metric))[..., None]

    # complex bump test functions on the tube
    su = [(ax - ax[0]) / (ax[-1] - ax[0]) for ax in frames.axes]
    qu = (q - q[0]) / (q[-1] - q[0])
    sbump = _bump(su[0])
    for u in su[1:]:
        sbump = np.multiply.outer(sbump, _bump(u))
    prof = sbump[..., None] * _bump(qu)
    phase_s = np.add.reduce(np.meshgrid(*su, indexing="ij"))
    f = prof * np.exp(1j * (phase_s[..., None] + 2.0 * qu))
    g = prof * np.exp(1j * (0.5 * phase_s[..., None] - 1.0 * qu))

    def p(field):
        return 1j * _diff_axis(field, field.ndim - 1, hq)

    weights = np.ones(len(frames.axes[0]))
    weights[[0, -1]] = 0.5
    w = weights * frames.spacings[0]
    for ax, h in zip(frames.axes[1:], frames.spacings[1:]):
        wa = np.ones(len(ax))
        wa[[0, -1]] = 0.5
        w = np.multiply.outer(w, wa * h)
    wq = np.ones(q_points)
    wq[[0, -1]] = 0.5
    w = np.multiply.outer(w, wq * hq)

    def defect(measure):
        lhs = np.sum(w * measure * np.conj(p(f)) * g)
        rhs = np.sum(w * measure * np.conj(f) * p(g))
        return abs(lhs - rhs)

    residual_without = defect(np.sqrt(rho) * sqrt_gs)
    residual_with = defect(np.broadcast_to(sqrt_gs, rho.shape))
    return residual_without, residual_with
