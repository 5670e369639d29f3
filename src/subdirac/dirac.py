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

Everything is kept in the Clifford algebra, as real coefficient planes
over the grid.  gamma_a gamma_K = s(a, K) gamma_{a ^ K} for blades
(bitmasks) with the sign s of clifford's blade product, so the potential
sum_abc C_abc gamma_a gamma_b gamma_c + (1/2) H_adot gamma_adot is
sum_J v_J gamma_J over a few odd blades J, and the operator is the e_a^alpha
planes plus the v_J planes.  The frame spin lift is tau = sum_K c_K gamma_K
with real c on the even blades K (frame_lift_coefficients), and D tau is
sum_L b_L gamma_L over the odd blades L, whose b is a fixed signed
permutation of the difference planes d_alpha c weighted by e_a^alpha, plus
one of the products v_J c_K: the rows of [c; -c] that
clifford._left_product_rows gives each blade a and J.  The kernel check
(lift_residuals), the orthonormality of the lift (lift_gram) and, in
weierstrass, the immersion bilinears are fixed real quadratic forms of
these planes; gamma matrices enter only as those tables, and
apply_operator applies the planes to an arbitrary spinor field through
the fixed gammas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clifford import Multivector, _left_product_rows
from .geometry import (
    FrameField,
    ImmersionChart,
    _diff_axis,
    _plane_matmul,
    _staircase_accumulate,
    _staircase_previous,
    _tube_factor,
    build_frame_field,
)
from .spinors import (
    GammaRep,
    GRID_BLOCK,
    _default_sign,
    _grid_blocks,
    _reflection_product,
    _unsigned_coefficients,
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
    """First-order operator assembled over a frame field, as coefficient planes.

    D = sum_alpha A_alpha d_alpha + V with A_alpha = sum_a e_a^alpha gamma_a
    and V = sum_J v_J gamma_J over odd blades J.  axis_coeff[alpha, a] is
    the e_a^alpha plane and potential_coeff[j] the v_J plane of
    J = potential_blades[j]: the blades of the spin-connection term
    sum_abc C_abc gamma_a gamma_b gamma_c, then the normal vectors, which
    carry (1/2) H_adot (zero planes for the intrinsic operator).  The gamma
    matrices enter only when the operator is applied.
    """

    frames: FrameField
    rep: GammaRep
    axis_coeff: np.ndarray  # (k, k, *grid)
    potential_blades: tuple
    potential_coeff: np.ndarray  # (J, *grid)

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


@lru_cache(maxsize=None)
def _potential_blades(k: int, n: int) -> tuple:
    """The odd blades of the potential and the fold of C_abc onto them.

    gamma_a gamma_b gamma_c = +-gamma_{a ^ b ^ c}, the exact blade product
    of clifford.Multivector, so sum_abc C_abc gamma_a gamma_b gamma_c =
    sum_J v_J gamma_J with v = C @ fold, C flattened over (a, b, c).  The
    blades are the connection's in ascending order (the tangent vectors,
    and for k >= 3 the tangent trivectors), then the normal vectors
    e_{k + adot}.  Returns (blades, fold of shape (k^3, connection blades)).
    """
    gammas = [Multivector.basis_vector(k, a) for a in range(1, k + 1)]
    # each product is one blade with a sign
    products = [(a * b * c).coeffs for a in gammas for b in gammas for c in gammas]
    connection = sorted({blade for product in products for blade in product})
    fold = np.zeros((len(products), len(connection)))
    for row, product in enumerate(products):
        for blade, sign in product.items():
            fold[row, connection.index(blade)] = sign
    fold.flags.writeable = False
    return tuple(connection) + tuple(1 << j for j in range(k, n)), fold


def _operator_planes(frames: FrameField, rep: GammaRep, with_mean: bool) -> tuple:
    """(axis_coeff (k, k, *grid), potential_coeff (J, *grid)) of the frame field.

    axis_coeff[alpha, a] = e_a^alpha.  The spin connection contracted with
    the axis gammas is sum_abc C_abc gamma_a gamma_b gamma_c with
    C_abc = (1/4) sum_alpha e_a^alpha omega_{alpha b c}, folded onto its
    blades by _potential_blades; (1/2) H_adot sits on the normal vectors.
    """
    chart = frames.chart
    k, n = chart.k, chart.n
    if rep.m != n:
        raise ValueError(f"gamma system of dimension {rep.m} does not match ambient {n}")
    omega, e_coeff = frames.omega_planes, frames.e_coeff_planes
    if np.abs(omega + np.swapaxes(omega, 1, 2)).max() > 1e-8:
        raise ValueError("spin connection coefficients are not antisymmetric")
    grid = omega.shape[3:]
    blades, fold = _potential_blades(k, n)
    conn = 0.25 * _plane_matmul(e_coeff, omega.reshape((k, k * k) + grid))
    potential = np.zeros((len(blades),) + grid)
    potential[: fold.shape[1]] = np.tensordot(fold, conn.reshape((k ** 3,) + grid), axes=(0, 0))
    if with_mean:
        potential[fold.shape[1]:] = 0.5 * frames.mean_curvature_planes
    return np.swapaxes(e_coeff, 0, 1), potential


def _assemble(frames: FrameField, rep: GammaRep, with_mean: bool) -> DiracOperator:
    axis, potential = _operator_planes(frames, rep, with_mean)
    blades = _potential_blades(frames.chart.k, frames.chart.n)[0]
    return DiracOperator(frames, rep, axis, blades, potential)


def intrinsic_dirac(frames: FrameField, rep: GammaRep | None = None) -> DiracOperator:
    """The Dirac operator of the induced metric in the chart's tangent frame."""
    rep = rep or build_gamma_rep(frames.chart.n)
    return _assemble(frames, rep, with_mean=False)


def submanifold_dirac(frames: FrameField, rep: GammaRep | None = None) -> DiracOperator:
    """Intrinsic operator plus the (1/2) gamma_adot Gamma_adot zeroth-order term."""
    rep = rep or build_gamma_rep(frames.chart.n)
    return _assemble(frames, rep, with_mean=True)


def _weighted_images(psi: np.ndarray, mats: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_r weights[r] mats[r] psi at every point, psi (P, d), weights (r, P).

    table[c, r d + i] = mats[r][i, c], so psi @ table stacks every mats[r] psi.
    """
    r, d = mats.shape[:2]
    table = np.ascontiguousarray(mats.transpose(2, 0, 1)).reshape(d, r * d)
    images = (psi @ table).reshape(len(psi), r, d)
    return np.einsum("rp,pri->pi", weights.reshape(r, -1), images)


def apply_operator(op: DiracOperator, field: GridSpinorField) -> GridSpinorField:
    """D psi from the operator's coefficient planes and the fixed gammas."""
    if field.grid_shape != op.frames.grid_shape:
        raise ValueError("field grid does not match operator grid")
    rep = op.rep
    potential = rep.odd_products[[mask >> 1 for mask in op.potential_blades]]
    tangent = rep.gamma_stack[: op.chart.k]
    psi = field.values
    out = _weighted_images(psi.reshape(-1, rep.dim), potential, op.potential_coeff)
    for alpha, h in enumerate(op.frames.spacings):
        dpsi = _diff_axis(psi, alpha, h).reshape(-1, rep.dim)
        out += _weighted_images(dpsi, tangent, op.axis_coeff[alpha])
    return GridSpinorField(field.chart, out.reshape(psi.shape), field.spacings)


def dirac_residual(op: DiracOperator, field: GridSpinorField) -> float:
    """Max interior pointwise norm of the operator applied to the field."""
    image = apply_operator(op, field)
    interior = tuple(slice(1, -1) for _ in field.grid_shape)
    vals = image.values[interior]
    if vals.size == 0:
        return 0.0
    return float(np.linalg.norm(vals, axis=-1).max())


def _interior_differences(planes: np.ndarray, spacings, rows: slice | None = None) -> list:
    """Central differences of planes (r, *grid) along each grid axis, at the
    interior points only: the interior of geometry._diff_axis, (r, *interior).
    rows (positive start and stop) limits the first grid axis to those interior rows."""
    inner = [rows or slice(1, planes.shape[1] - 1)] + [slice(1, n - 1) for n in planes.shape[2:]]
    out = []
    for alpha, h in enumerate(spacings):
        plus, minus = list(inner), list(inner)
        plus[alpha] = slice(inner[alpha].start + 1, inner[alpha].stop + 1)
        minus[alpha] = slice(inner[alpha].start - 1, inner[alpha].stop - 1)
        diff = planes[(slice(None), *plus)] - planes[(slice(None), *minus)]
        diff /= 2 * h
        out.append(diff)
    return out


def lift_residuals(frames: FrameField, coeffs: np.ndarray, rep: GammaRep | None = None,
                   with_mean: bool = True) -> np.ndarray:
    """Largest interior norm of each column of D tau, for the lift tau = sum_K c_K gamma_K.

    coeffs (K, *grid) are frame_lift_coefficients; D is the submanifold
    operator, or the intrinsic one for with_mean=False.  The odd
    coefficients b_L = sum_alpha sum_a e_a^alpha s(a, K) d_alpha c_K
    + sum_J v_J s(J, K) c_K (L = a ^ K and J ^ K) are summed source by
    source with the signed rows of [c; -c] that clifford._left_product_rows
    gives each source blade: the tangent sources in one product against the
    stacked g, their rows spread into a dense +-1 table, and each potential
    source as one gather of its rows, with no stacked operand of the
    potential's products.  The squared column norms come from one quadratic
    form of b against the fixed odd-blade table Re (gamma_L^H gamma_L')_aa,
    which also covers odd m, where odd blades are multiples of even ones.
    Column a is the field psi^a of frame_spinor_fields, so the result is
    dirac_residual of each (shape (d,)): its max is the kernel residual.

    The interior runs in blocks of whole rows of the first grid axis, about
    GRID_BLOCK points each, differences included, so no temporary but the
    operator planes spans the grid.
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    k, d = frames.chart.k, rep.dim
    axis, potential = _operator_planes(frames, rep, with_mean)
    K, grid = len(coeffs), coeffs.shape[1:]
    squares = np.zeros(d)  # running max over the blocks
    if min(grid) < 3:
        return squares
    potential_blades, fold = _potential_blades(k, rep.m)
    blades = len(potential) if with_mean else fold.shape[1]  # no normal planes
    signed = _left_product_rows(rep.m, potential_blades, 1)
    tangent = np.zeros((K, k * K))  # the generators' rows as one dense +-1 table
    generators = tuple(1 << i for i in range(k))
    for a, source in enumerate(_left_product_rows(rep.m, generators, 1)):
        tangent[np.arange(K), a * K + source % K] = np.where(source < K, 1.0, -1.0)
    form = rep.cached_table("odd_form", _odd_form)
    row = int(np.prod([n - 2 for n in grid[1:]]))
    step = max(1, GRID_BLOCK // row)
    for start in range(1, grid[0] - 1, step):
        rows = slice(start, min(start + step, grid[0] - 1))
        inner = (slice(None), rows) + (slice(1, -1),) * (k - 1)
        points = (rows.stop - rows.start) * row
        signed_c = np.empty((2 * K,) + coeffs[inner].shape[1:])  # [c; -c]
        signed_c[:K] = coeffs[inner]
        np.negative(signed_c[:K], out=signed_c[K:])
        signed_c = signed_c.reshape(2 * K, points)
        e = axis[(slice(None),) + inner].reshape(k, k, 1, points)
        for alpha, dc in enumerate(_interior_differences(coeffs, frames.spacings, rows)):
            term = e[alpha] * dc.reshape(1, K, points)
            if alpha:
                g += term
            else:
                g = term
        v = potential[:blades][inner].reshape(blades, points)
        # the tangent sources come stacked in g; each potential source adds v_J
        # times its signed rows of [c; -c], in source order
        b = tangent @ g.reshape(k * K, points)
        for j in range(blades):
            term = signed_c[signed[j]]
            term *= v[j]
            b += term
        block = np.einsum("alp,lp->ap", (form @ b).reshape(d, len(b), points), b)
        np.maximum(squares, block.max(axis=1), out=squares)
    return np.sqrt(squares)


def _odd_form(rep: GammaRep) -> np.ndarray:
    """lift_residuals' table Re (gamma_L^H gamma_L')_aa, shape (d * odd blades, odd blades)."""
    odd = rep.odd_products
    return np.einsum("lca,mca->alm", odd.conj(), odd).real.reshape(rep.dim * len(odd), len(odd))


def _pair_products(coeffs: np.ndarray) -> np.ndarray:
    """c_K c_L over the pairs K <= L of np.triu_indices, shape (pairs, *grid)."""
    upper = np.triu_indices(len(coeffs))
    return coeffs[upper[0]] * coeffs[upper[1]]


def _pair_table(form: np.ndarray) -> np.ndarray:
    """A fixed table for quadratic forms of c over _pair_products.

    form[K, L, ...] weights c_K c_L; the pair (K, L) with K < L carries
    form[K, L] + form[L, K] and the diagonal form[K, K].
    """
    upper = np.triu_indices(len(form))
    table = form + np.swapaxes(form, 0, 1)
    diagonal = np.arange(len(form))
    table[diagonal, diagonal] = form[diagonal, diagonal]
    return table[upper]


def lift_gram(coeffs: np.ndarray, rep: GammaRep) -> np.ndarray:
    """tau^H tau of the lift tau = sum_K c_K gamma_K at every point, shape (*grid, d, d).

    Entry (a, b) is the pairing <conj(psi^a), psi^b> of the fields of
    frame_spinor_fields (pointwise_pairings): a quadratic form of c against
    the fixed table gamma_K^H gamma_L over the pairs K <= L, block by block
    (_gram_blocks).
    """
    gram = np.empty((coeffs[0].size, rep.dim, rep.dim), dtype=complex)
    for block, part in _gram_blocks(coeffs, rep):
        gram[block] = part
    return gram.reshape(coeffs.shape[1:] + (rep.dim, rep.dim))


def _gram_blocks(coeffs: np.ndarray, rep: GammaRep):
    """lift_gram over GRID_BLOCK points at a time: (columns of the flattened
    grid, gram (points, d, d)) per block."""
    table = rep.cached_table("lift_gram", _gram_table).view(float).T
    flat = coeffs.reshape(len(coeffs), -1)
    for block in _grid_blocks(flat.shape[1]):
        gram = np.ascontiguousarray((table @ _pair_products(flat[:, block])).T).view(complex)
        yield block, gram.reshape(-1, rep.dim, rep.dim)


def _gram_table(rep: GammaRep) -> np.ndarray:
    """lift_gram's table gamma_K^H gamma_L over the pairs K <= L, shape (pairs, d^2)."""
    products = rep.even_products
    form = np.einsum("kca,lcb->klab", products.conj(), products)
    return _pair_table(form).reshape(-1, rep.dim ** 2)


def _sign_chain(overlap: np.ndarray, base_sign: float) -> np.ndarray:
    """+-1 per grid point from neighbour overlaps tr(tau(s) tau(prev)^H).

    A point keeps the sign that makes its overlap with its staircase
    predecessor positive, the one nearest to the predecessor's lift; the
    base corner takes base_sign.  The steps are chained by a staircase
    product (geometry._staircase_accumulate), which gathers no rounding.
    |overlap| < 1e-6 (a half-turn between neighbours) raises, since the
    sign is then ambiguous.
    """
    if (np.abs(overlap) < 1e-6).any():
        raise ValueError("double-cover sign is ambiguous relative to the anchor "
                         "(frame field discontinuity)")
    sign = np.sign(overlap)
    sign[(0,) * overlap.ndim] = base_sign
    return _staircase_accumulate(np.multiply, sign, overlap.ndim)


def frame_lift_coefficients(frames: FrameField, rep: GammaRep | None = None) -> np.ndarray:
    """Signed even-blade coefficients c (K, *grid) of the frame spin lift.

    The lifted rotation has the frame vectors as matrix rows, and its lift
    is tau = sum_K c_K gamma_K over the even blades K in ascending mask
    order (the order of GammaRep.even_products), with c real and |c| = 1.
    Each point's R is reduced by Householder reflections to diag(+-1)
    (spinors._reflection_lifts), and c is the product of the reflection
    vectors and the flipped axes taken in blade coefficients
    (spinors._blade_lift): elementwise over the points, so a point's c does
    not depend on the points lifted with it.  The points are lifted
    GRID_BLOCK at a time, and the overlaps below are summed one blade plane
    at a time, so no temporary but c spans the grid.

    Signs follow the staircase order (base column first, then along each
    row): a point keeps the sign with c(s) . c(prev) > 0, the one nearest
    to its predecessor's lift, as tr(tau(s) tau(prev)^H) = d c(s) . c(prev).
    The base corner takes spin_lift's default sign rule, applied to the
    product of its reflections' gammas (spinors._reflection_product), and
    the +-1 steps are chained by a staircase product (_sign_chain).

    Every rotation must be finite with each entry of R^T R within 1e-10 of
    the identity's and det R > 0, and d |c(s) . c(prev)| < 1e-6 (a
    half-turn between neighbours) raises, since the sign is then ambiguous.
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    # the rotation's rows are the tangent then the normal vectors: its entry
    # planes are the two plane stacks one after the other, joined block by block
    shape = frames.grid_shape
    stacks = [p.reshape(-1, int(np.prod(shape))) for p in (frames.tangent_planes,
                                                           frames.normal_planes)]
    c = np.empty((1 << (rep.m - 1),) + shape)  # one row per even blade
    flat = c.reshape(len(c), -1)
    for block in _grid_blocks(flat.shape[1]):
        flat[:, block] = _unsigned_coefficients(np.concatenate([s[:, block] for s in stacks]), rep.m)
    overlap = np.zeros(shape)  # c(s) . c(prev), one plane at a time
    for plane in c:
        overlap += plane * _staircase_previous(plane, len(shape))
    overlap *= rep.dim
    base = _reflection_product(np.concatenate([s[:, :1] for s in stacks]), rep, 1e-10)
    c *= _sign_chain(overlap, _default_sign(base))
    return c


def frame_lift_field(frames: FrameField, rep: GammaRep | None = None) -> np.ndarray:
    """Spin lift tau(s) of the frame assembly at every grid point, shape (*grid, d, d).

    tau = sum_K c_K gamma_K: the signed frame_lift_coefficients against the
    even blade products of the gamma system, in one real product.  The
    checks and errors are frame_lift_coefficients'.
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    coeffs = frame_lift_coefficients(frames, rep)
    return _combine(np.moveaxis(coeffs, 0, -1), rep.even_products)


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


def _tube_pairing(frames: FrameField, q_points: int, q_max: float, direction: int):
    """The separable pieces of the tube pairing of the two bump test functions.

    f = f_s(s) f_q(q) and g = g_s(s) g_q(q); returns (q, hq, u, w_q, f_q,
    g_q) with u = w_s sqrt(g_S) conj(f_s) g_s over the flattened grid and
    w_q the trapezoid weights along q.  det g_S comes from the metric planes
    in closed form (k <= 2).
    """
    nk = frames.chart.n - frames.chart.k
    if not 0 <= direction < nk:
        raise ValueError("normal direction out of range")
    q = np.linspace(-q_max, q_max, q_points)
    hq = q[1] - q[0]
    g = frames.metric_planes
    sqrt_gs = np.sqrt(g[0, 0] if len(g) == 1 else g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])

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

    w_s = _trapezoid_weights(frames.axes[0], frames.spacings[0])
    for ax, h in zip(frames.axes[1:], frames.spacings[1:]):
        w_s = np.multiply.outer(w_s, _trapezoid_weights(ax, h))
    u = (w_s * sqrt_gs * np.conj(f_s) * g_s).ravel()
    return q, hq, u, _trapezoid_weights(q, hq), f_q, g_q


def selfadjointization_check(chart: ImmersionChart, s_shape=None, q_points=33,
                             q_max=0.25, direction=0, frames: FrameField | None = None):
    """Adjoint defect of p = i d/dq on the tube, before and after the
    half-density move, and its predicted limit: (residual_without,
    residual_with, limit).

    residual_without pairs with the geometric measure rho^{1/2} (det g_S)^{1/2};
    residual_with uses the flattened measure (det g_S)^{1/2} that the
    rho^{1/4} conjugation of vectors induces.  Summed by parts in q, the
    defect with the geometric measure tends to
    |integral conj(f) g d_q(rho^{1/2}) sqrt(g_S)| as the q step shrinks,
    where d_q(rho^{1/2}) = tr Gamma + 2 q det Gamma along the chosen
    direction (tr Gamma alone for curves): the mean curvature and, for
    surfaces, the Gauss-curvature term, so minimal surfaces have a defect
    too, and a mean curvature that changes sign can nearly cancel it
    (selfadjointization_limit gives that limit).  The flattened one is pure
    discretization error, O(h^2).

    The complex bump test functions factor as f = f_s(s) f_q(q) and
    g = g_s(s) g_q(q), so p acts on f_q and g_q alone and the trapezoid sum
    of (conj(p f) g - conj(f) p g) m sqrt(g_S) is u^T m v, with
    u = w_s sqrt(g_S) conj(f_s) g_s over the grid, v = w_q (conj(p f_q) g_q
    - conj(f_q) p g_q) over q, and m = rho^{1/2} (geometric) or 1 (flattened).
    limit is selfadjointization_limit's value, from the same test functions
    and quadratures.  Raises FocalDistanceError when the tube reaches the
    focal set.
    """
    frames = frames or build_frame_field(chart, shape=s_shape)
    pairing = _tube_pairing(frames, q_points, q_max, direction)
    q, hq, u, w_q, f_q, g_q = pairing
    # sqrt(rho) on the whole tube, (Nq, P), from the direction's Weingarten map
    sqrt_rho = _tube_factor(frames.weingarten_planes[direction:direction + 1],
                            q[:, None]).reshape(q_points, -1)

    def p(field):
        return 1j * _diff_axis(field, 0, hq)

    v = w_q * (np.conj(p(f_q)) * g_q - np.conj(f_q) * p(g_q))
    # v is complex and sqrt_rho real: two real products, so the factor is never cast
    residual_without = abs((v.real @ sqrt_rho + 1j * (v.imag @ sqrt_rho)) @ u)
    residual_with = abs(u.sum() * v.sum())
    return residual_without, residual_with, _tube_limit(frames, pairing, direction)


def selfadjointization_limit(chart: ImmersionChart, s_shape=None, q_points=33,
                             q_max=0.25, direction=0, frames: FrameField | None = None):
    """Predicted limit of selfadjointization_check's geometric-measure defect.

    |sum_s u_s sum_q w_q conj(f_q) g_q d_q sqrt(rho)(s, q)| with
    sqrt(rho) = det(1 + q Gamma), so d_q sqrt(rho) = tr Gamma + 2 q det Gamma
    for surfaces and tr Gamma for curves: the same quadratures and test
    functions as the check, with the q derivative taken exactly.  The check
    differs from it by the q-quadrature's O(h_q^2).
    """
    frames = frames or build_frame_field(chart, shape=s_shape)
    return _tube_limit(frames, _tube_pairing(frames, q_points, q_max, direction), direction)


def _tube_limit(frames: FrameField, pairing, direction: int) -> float:
    """selfadjointization_limit from the pieces of _tube_pairing."""
    q, _, u, w_q, f_q, g_q = pairing
    gamma = frames.weingarten_planes[direction]
    weight = w_q * np.conj(f_q) * g_q
    slope = weight.sum() * (np.trace(gamma).ravel() @ u)
    if frames.chart.k == 2:
        det = gamma[0, 0] * gamma[1, 1] - gamma[0, 1] * gamma[1, 0]
        slope += 2 * (weight @ q) * (det.ravel() @ u)
    return abs(slope)
