"""Differential geometry of k-charts immersed in flat euclidean R^n.

Charts are parametric maps on a rectangle with closed-form first and second
derivatives (sympy-compiled for the catalogued surfaces, central finite
differences for ad-hoc callables).  Frame fields carry an orthonormal
tangent frame from ordered Gram-Schmidt of the coordinate derivatives and a
normal frame completed from the standard basis, smoothed across the grid
and rotated into a parallel frame (vanishing normal-connection
coefficients) by staircase path integration.  The Gram-Schmidt triangular
factor R also gives the immersion guard, the metric inverse, the frame
coefficients and the exact spin connection (from the Hessian, with no
evaluation off the grid).  All of it runs on the whole grid at once: the
per-point work is batched, and the staircase products are one scan
(_staircase_scan) down the base column and then across all rows together.
The pointwise functions keep the per-point kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import sympy as sp


class ImmersionError(ValueError):
    """Coordinate derivatives fail to be linearly independent."""


class FocalDistanceError(ValueError):
    """Tubular metric lost positive definiteness (offset beyond focal set)."""


class IntegrabilityError(ValueError):
    """Normal connection failed to flatten within tolerance."""


# --------------------------------------------------------------------------
# charts


def _compile_vector(exprs, syms) -> Callable:
    fns = [sp.lambdify(syms, e, modules="numpy") for e in exprs]

    def evaluate(s):
        s = np.asarray(s, dtype=float)
        args = tuple(np.moveaxis(s, -1, 0))
        comps = []
        for fn in fns:
            val = np.asarray(fn(*args), dtype=float)
            comps.append(np.broadcast_to(val, s.shape[:-1]))
        return np.stack(comps, axis=-1)

    return evaluate


@dataclass(frozen=True)
class ImmersionChart:
    """Parametric immersion of a k-rectangle into R^n with derivative access."""

    name: str
    k: int
    n: int
    rectangle: tuple
    x: Callable
    jacobian: Callable  # (..., k) -> (..., n, k)
    hessian: Callable  # (..., k) -> (..., n, k, k)
    grid_shape: tuple = None
    h_fd: float = 1e-4
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.grid_shape is None:
            object.__setattr__(self, "grid_shape", (33,) * self.k)
        if len(self.rectangle) != self.k or len(self.grid_shape) != self.k:
            raise ValueError("rectangle/grid must have one entry per parameter")

    @classmethod
    def from_sympy(cls, name, exprs, syms, rectangle, grid_shape=None, params=None):
        exprs = [sp.sympify(e) for e in exprs]
        n, k = len(exprs), len(syms)
        jac_exprs = [[sp.diff(e, s) for s in syms] for e in exprs]
        hess_exprs = [[[sp.diff(e, s1, s2) for s2 in syms] for s1 in syms] for e in exprs]

        x_fn = _compile_vector(exprs, syms)
        jac_flat = _compile_vector([jac_exprs[i][a] for i in range(n) for a in range(k)], syms)
        hess_flat = _compile_vector(
            [hess_exprs[i][a][b] for i in range(n) for a in range(k) for b in range(k)], syms
        )

        def jacobian(s):
            out = jac_flat(s)
            return out.reshape(out.shape[:-1] + (n, k))

        def hessian(s):
            out = hess_flat(s)
            return out.reshape(out.shape[:-1] + (n, k, k))

        return cls(name, k, n, tuple(rectangle), x_fn, jacobian, hessian,
                   grid_shape=grid_shape, params=dict(params or {}))

    @classmethod
    def from_callable(cls, name, fn, k, n, rectangle, grid_shape=None, h_fd=1e-4):
        """Chart from a plain callable; derivatives by central differences."""

        def x(s):
            s = np.asarray(s, dtype=float)
            return np.asarray(fn(s), dtype=float)

        def jacobian(s):
            s = np.asarray(s, dtype=float)
            out = np.empty(s.shape[:-1] + (n, k))
            for a in range(k):
                step = h_fd * max(1.0, abs(rectangle[a][1] - rectangle[a][0]))
                e = np.zeros(k)
                e[a] = step
                out[..., :, a] = (x(s + e) - x(s - e)) / (2 * step)
            return out

        def hessian(s):
            s = np.asarray(s, dtype=float)
            out = np.empty(s.shape[:-1] + (n, k, k))
            for a in range(k):
                step = h_fd * max(1.0, abs(rectangle[a][1] - rectangle[a][0]))
                e = np.zeros(k)
                e[a] = step
                out[..., :, :, a] = (jacobian(s + e) - jacobian(s - e)) / (2 * step)
            return out

        return cls(name, k, n, tuple(rectangle), x, jacobian, hessian,
                   grid_shape=grid_shape, h_fd=h_fd)

    # -- grids ---------------------------------------------------------

    def _shape(self, shape):
        shape = tuple(shape or self.grid_shape)
        if len(shape) != self.k:
            raise ValueError("rectangle/grid must have one entry per parameter")
        return shape

    def axes(self, shape=None):
        shape = self._shape(shape)
        if any(nn < 8 for nn in shape):
            raise ValueError("grids need at least 8 points per axis")
        return [np.linspace(lo, hi, nn) for (lo, hi), nn in zip(self.rectangle, shape)]

    def grid(self, shape=None):
        """Meshgrid of parameter points, shape (*shape, k)."""
        axs = self.axes(shape)
        mesh = np.meshgrid(*axs, indexing="ij")
        return np.stack(mesh, axis=-1)

    def spacings(self, shape=None):
        shape = self._shape(shape)
        return [(hi - lo) / (nn - 1) for (lo, hi), nn in zip(self.rectangle, shape)]

    def contains(self, s, tol=1e-9) -> bool:
        s = np.asarray(s, dtype=float)
        for a, (lo, hi) in enumerate(self.rectangle):
            span = max(hi - lo, 1.0)
            if np.any(s[..., a] < lo - tol * span) or np.any(s[..., a] > hi + tol * span):
                return False
        return True

    def base_point(self):
        return np.array([lo for lo, _ in self.rectangle])


def _require_inside(chart, s):
    if not chart.contains(s):
        raise ValueError(f"parameter point outside the chart rectangle of {chart.name}")


# --------------------------------------------------------------------------
# catalogue

_S1, _S2 = sp.symbols("s1 s2")
_T = sp.Symbol("t")


def _catalog_builders():
    def plane(**p):
        return ImmersionChart.from_sympy(
            "plane", [_S1, _S2, 0], [_S1, _S2], [(0.0, 1.0), (0.0, 1.0)], params=p)

    def graph(a=0.8, **p):
        f = a * (_S1**2 - _S2**2) / 2
        return ImmersionChart.from_sympy(
            "graph", [_S1, _S2, f], [_S1, _S2], [(-0.75, 0.75), (-0.75, 0.75)],
            params={"a": a, **p})

    def sphere(r=1.0, **p):
        e = [r * sp.sin(_S1) * sp.cos(_S2), r * sp.sin(_S1) * sp.sin(_S2), r * sp.cos(_S1)]
        return ImmersionChart.from_sympy(
            "sphere", e, [_S1, _S2], [(0.45, math.pi - 0.45), (0.3, 5.9)], params={"r": r, **p})

    def catenoid(c=1.0, **p):
        e = [c * sp.cosh(_S2 / c) * sp.cos(_S1), c * sp.cosh(_S2 / c) * sp.sin(_S1), _S2]
        return ImmersionChart.from_sympy(
            "catenoid", e, [_S1, _S2], [(0.3, 5.9), (-0.75, 0.75)], params={"c": c, **p})

    def helicoid(c=0.8, **p):
        e = [_S2 * sp.cos(_S1), _S2 * sp.sin(_S1), c * _S1]
        return ImmersionChart.from_sympy(
            "helicoid", e, [_S1, _S2], [(-1.2, 1.2), (-1.0, 1.0)], params={"c": c, **p})

    def enneper(**p):
        e = [_S1 - _S1**3 / 3 + _S1 * _S2**2,
             -_S2 + _S2**3 / 3 - _S2 * _S1**2,
             _S1**2 - _S2**2]
        return ImmersionChart.from_sympy(
            "enneper", e, [_S1, _S2], [(-0.7, 0.7), (-0.7, 0.7)], params=p)

    def torus(R=2.0, r=0.7, **p):
        e = [(R + r * sp.cos(_S2)) * sp.cos(_S1),
             (R + r * sp.cos(_S2)) * sp.sin(_S1),
             r * sp.sin(_S2)]
        return ImmersionChart.from_sympy(
            "torus", e, [_S1, _S2], [(0.25, 6.0), (0.25, 6.0)], params={"R": R, "r": r, **p})

    def clifford_torus_r4(r=1.0, **p):
        c = r / sp.sqrt(2)
        e = [c * sp.cos(_S1), c * sp.sin(_S1), c * sp.cos(_S2), c * sp.sin(_S2)]
        return ImmersionChart.from_sympy(
            "clifford-torus-r4", e, [_S1, _S2], [(0.25, 6.0), (0.25, 6.0)], params={"r": r, **p})

    def helix_curve(a=1.0, b=0.5, **p):
        e = [a * sp.cos(_T), a * sp.sin(_T), b * _T]
        return ImmersionChart.from_sympy(
            "helix-curve", e, [_T], [(0.0, 12.0)], grid_shape=(257,), params={"a": a, "b": b, **p})

    def circle_curve(r=1.0, **p):
        e = [r * sp.cos(_T), r * sp.sin(_T)]
        return ImmersionChart.from_sympy(
            "circle-curve", e, [_T], [(0.15, 6.1)], grid_shape=(257,), params={"r": r, **p})

    return {
        "plane": plane,
        "graph": graph,
        "sphere": sphere,
        "catenoid": catenoid,
        "helicoid": helicoid,
        "enneper": enneper,
        "torus": torus,
        "clifford-torus-r4": clifford_torus_r4,
        "helix-curve": helix_curve,
        "circle-curve": circle_curve,
    }


CATALOG = _catalog_builders()


def catalog_chart(name: str, **params) -> ImmersionChart:
    if name not in CATALOG:
        raise ValueError(f"unknown chart {name!r}; available: {sorted(CATALOG)}")
    return CATALOG[name](**params)


# --------------------------------------------------------------------------
# pointwise operations


def induced_metric(chart: ImmersionChart, s) -> np.ndarray:
    """g_ab = sum_i d_a x^i d_b x^i, symmetric positive definite."""
    _require_inside(chart, s)
    jac = chart.jacobian(s)
    return np.einsum("...ia,...ib->...ab", jac, jac)


def _tangent_frames(jac, name):
    """Ordered Gram-Schmidt of curve or surface Jacobians (k <= 2) on a grid.

    Returns the tangent frames (*grid, k, n) and the upper-triangular factor
    r = tangent @ jac (*grid, k, k), so that jac = tangent^T r and
    sigma_min(jac) = sigma_min(r).  The 1e-8 immersion guard is tested on r
    before each division by a Gram-Schmidt norm: sigma_min <= r11, and for
    k = 2 sigma_min = r11 r22 / sigma_max with
    sigma_max = (|(r11 + r22, r12)| + |(r11 - r22, r12)|) / 2, which keeps a
    small singular value to full relative accuracy (the eigenvalues of
    jac^T jac would not).
    """

    def guard(sigma_min):
        if not (sigma_min > 1e-8).all():  # a NaN fails too
            raise ImmersionError(f"immersion condition violated on the grid of {name}")

    k = jac.shape[-1]
    cols = np.moveaxis(jac, -1, 0).copy()  # contiguous columns
    r = np.zeros(jac.shape[:-2] + (k, k))
    tangent = np.empty(jac.shape[:-2] + (k, jac.shape[-2]))
    r11 = r[..., 0, 0] = np.linalg.norm(cols[0], axis=-1)
    guard(r11)
    tangent[..., 0, :] = t1 = cols[0] / r11[..., None]
    if k == 2:
        r12 = r[..., 0, 1] = np.einsum("...i,...i->...", t1, cols[1])
        w = cols[1] - r12[..., None] * t1
        r22 = r[..., 1, 1] = np.linalg.norm(w, axis=-1)
        guard(r11 * r22 / (0.5 * (np.hypot(r11 + r22, r12) + np.hypot(r11 - r22, r12))))
        tangent[..., 1, :] = w / r22[..., None]
    return tangent, r


def _gram_schmidt_rows(vectors):
    """Orthonormalize rows in order; raises on rank deficiency."""
    out = []
    for v in vectors:
        w = v.astype(float).copy()
        for u in out:
            w -= (u @ w) * u
        norm = np.linalg.norm(w)
        if norm <= 1e-8 * max(1.0, np.linalg.norm(v)):
            raise ImmersionError("rank-deficient derivative set")
        out.append(w / norm)
    return np.array(out)


def _complete_normals(tangent, threshold=0.5):
    """Gram-Schmidt completion with ascending standard basis vectors.

    Vectors whose residual after projecting out the span falls below the
    threshold are skipped; if the sweep comes up short the threshold is
    relaxed to the best remaining candidates.
    """
    k, n = tangent.shape
    rows = list(tangent)
    normals = []
    for thr in (threshold, 1e-8):
        for j in range(n):
            if len(normals) == n - k:
                break
            w = np.eye(n)[j].copy()
            for u in rows:
                w -= (u @ w) * u
            norm = np.linalg.norm(w)
            if norm > thr:
                w /= norm
                rows.append(w)
                normals.append(w)
        if len(normals) == n - k:
            break
    if len(normals) != n - k:
        raise ImmersionError("could not complete the normal frame")
    return np.array(normals)


@dataclass(frozen=True)
class PointFrame:
    """Adapted orthonormal frames at one parameter point."""

    s: np.ndarray
    tangent: np.ndarray  # (k, n)
    normal: np.ndarray  # (n-k, n)

    @property
    def rotation(self) -> np.ndarray:
        """SO(n) matrix with the frame vectors as rows."""
        return np.vstack([self.tangent, self.normal])


def adapted_frames(chart: ImmersionChart, s) -> PointFrame:
    """Tangent frame from ordered Gram-Schmidt, deterministic normal completion."""
    _require_inside(chart, s)
    s = np.asarray(s, dtype=float)
    jac = chart.jacobian(s)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] <= 1e-8:
        raise ImmersionError(f"immersion condition violated at s={s}")
    tangent = _gram_schmidt_rows(jac.T)
    normal = _complete_normals(tangent)
    frame = np.vstack([tangent, normal])
    if np.linalg.det(frame) < 0:
        normal = normal.copy()
        normal[-1] = -normal[-1]
    return PointFrame(s, tangent, normal)


def _weingarten_from_arrays(jac, hess, metric_inv, normal):
    """Tangential Weingarten coefficients from second derivatives.

    Gamma^beta_{adot alpha} = -(g^{-1})^{beta gamma} (b_adot . x_{gamma alpha});
    flat-ambient identity (d_alpha b) . x_beta = -b . x_{alpha beta}.
    """
    ii = np.einsum("...di,...iab->...dab", normal, hess)  # second fundamental form
    return -np.einsum("...bg,...dga->...dab", metric_inv, ii)


def weingarten(chart: ImmersionChart, s, frames: PointFrame):
    """(Gamma^beta_{adot alpha}, Gammatilde^adot_{alpha bdot}, Gamma_adot) at s.

    Tangential coefficients come from closed-form second derivatives; the
    normal-connection block differentiates the deterministic completion with
    a local central difference of step h_fd.
    """
    s = np.asarray(s, dtype=float)
    jac = chart.jacobian(s)
    hess = chart.hessian(s)
    g = np.einsum("ia,ib->ab", jac, jac)
    ginv = np.linalg.inv(g)
    gamma = _weingarten_from_arrays(jac, hess, ginv, frames.normal)
    mean = np.einsum("daa->d", gamma)  # trace over the coordinate/mixed pair

    k, n = chart.k, chart.n
    gtilde = np.zeros((k, n - k, n - k))
    for a in range(k):
        step = chart.h_fd * max(1.0, abs(chart.rectangle[a][1] - chart.rectangle[a][0]))
        e = np.zeros(k)
        e[a] = step
        bp = _aligned_normal(chart, s + e, frames)
        bm = _aligned_normal(chart, s - e, frames)
        db = (bp - bm) / (2 * step)
        m = frames.normal @ db.T
        gtilde[a] = 0.5 * (m - m.T)
    return gamma, gtilde, mean


def _aligned_normal(chart, s, ref: PointFrame):
    """Normal completion at s rotated (in its own span) closest to ref's."""
    tangent = _gram_schmidt_rows(chart.jacobian(s).T)
    normal = _complete_normals(tangent)
    return _procrustes_align(normal, ref.normal)


def _procrustes_align(b_cur, b_ref):
    """Rotate/reflect the rows of b_cur within their span closest to b_ref.

    The full orthogonal group is allowed: the raw basis completion can land
    in either orientation from point to point, and smoothing must be free
    to undo that (a single global flip fixes the overall orientation later).
    """
    m = b_ref @ b_cur.T
    u, _, vt = np.linalg.svd(m)
    return (u @ vt) @ b_cur


def tubular_metric(chart: ImmersionChart, s, q, frames: PointFrame = None,
                   gamma=None) -> np.ndarray:
    """Metric of the offset chart x + q^adot b_adot in a parallel normal frame.

    g_q = g + [q Gamma]^T g + g [q Gamma] + [q Gamma]^T g [q Gamma], exact
    when the normal frame is parallel along s.
    """
    _require_inside(chart, s)
    s = np.asarray(s, dtype=float)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape != (chart.n - chart.k,):
        raise ValueError(f"offset q needs {chart.n - chart.k} components")
    jac = chart.jacobian(s)
    g = np.einsum("ia,ib->ab", jac, jac)
    if gamma is None:
        frames = frames or adapted_frames(chart, s)
        hess = chart.hessian(s)
        gamma = _weingarten_from_arrays(jac, hess, np.linalg.inv(g), frames.normal)
    qg = np.einsum("d,dab->ab", q, gamma)  # row alpha, column beta: q^d Gamma^beta_{d alpha}
    gq = g + qg @ g + g @ qg.T + qg @ g @ qg.T
    try:
        np.linalg.cholesky(gq)
    except np.linalg.LinAlgError as exc:
        raise FocalDistanceError("offset metric lost positive definiteness") from exc
    return gq


def rho(chart: ImmersionChart, s, q, frames: PointFrame = None, gamma=None) -> float:
    """det(tubular metric)/det(induced metric); sqrt(rho) = 1 + Gamma.q + O(q^2)."""
    g = induced_metric(chart, s)
    gq = tubular_metric(chart, s, q, frames=frames, gamma=gamma)
    return float(np.linalg.det(gq) / np.linalg.det(g))


# --------------------------------------------------------------------------
# grid frame fields


def _diff_axis(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order differences along a grid axis (central inside, one-sided edges)."""
    out = np.empty_like(f)
    fwd = [slice(None)] * f.ndim

    def sl(i):
        v = fwd.copy()
        v[axis] = i
        return tuple(v)

    inner = fwd.copy()
    inner[axis] = slice(1, -1)
    plus = fwd.copy()
    plus[axis] = slice(2, None)
    minus = fwd.copy()
    minus[axis] = slice(None, -2)
    out[tuple(inner)] = (f[tuple(plus)] - f[tuple(minus)]) / (2 * h)
    out[sl(0)] = (-3 * f[sl(0)] + 4 * f[sl(1)] - f[sl(2)]) / (2 * h)
    out[sl(-1)] = (3 * f[sl(-1)] - 4 * f[sl(-2)] + f[sl(-3)]) / (2 * h)
    return out


@dataclass
class FrameField:
    """Adapted frames and derived curvature data on a full parameter grid."""

    chart: ImmersionChart
    axes: list
    spacings: list
    points: np.ndarray  # (*grid, k)
    x: np.ndarray  # (*grid, n)
    jac: np.ndarray  # (*grid, n, k)
    metric: np.ndarray  # (*grid, k, k)
    metric_inv: np.ndarray
    tangent: np.ndarray  # (*grid, k, n)
    normal: np.ndarray  # (*grid, n-k, n)
    weingarten: np.ndarray  # (*grid, n-k, k, k): Gamma^beta_{adot alpha}
    mean_curvature: np.ndarray  # (*grid, n-k)
    gtilde: np.ndarray  # (*grid, k, n-k, n-k) after parallelization
    gtilde_residual: float
    e_coeff: np.ndarray  # (*grid, k, k): e_a = e_a^alpha d_alpha
    omega: np.ndarray  # (*grid, k, k, k): omega[alpha, b, c] = e_b . d_alpha e_c

    @property
    def grid_shape(self):
        return self.points.shape[:-1]

    @property
    def frame_rotation(self) -> np.ndarray:
        """(*grid, n, n) with frame vectors as rows (tangent block first)."""
        return np.concatenate([self.tangent, self.normal], axis=-2)

    def rho_on_tube(self, q) -> np.ndarray:
        """rho(s, q) over the grid for one normal offset vector q.

        det g_q = det(g) det(1 + q Gamma)^2 in a parallel frame; the k x k
        determinant (k <= 2 on a frame field) is written out.
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        qg = np.tensordot(self.weingarten, q, axes=([-3], [0]))  # (*grid, k, k)
        damp = 1 + qg[..., 0, 0]
        if self.chart.k == 2:
            damp = damp * (1 + qg[..., 1, 1]) - qg[..., 0, 1] * qg[..., 1, 0]
        return damp * damp


def _staircase_previous(values: np.ndarray, ndim: int) -> np.ndarray:
    """values at each grid point's staircase predecessor.

    The grid is the leading ndim axes of values.  The staircase runs down
    the first-axis chain of the base column, then along every row; a
    point's predecessor is the one before it in that chain or row, and the
    base corner maps to itself.
    """
    if ndim == 1:
        return np.concatenate([values[:1], values[:-1]])
    if ndim == 2:
        prev = np.empty_like(values)
        prev[:, 1:] = values[:, :-1]
        prev[1:, 0] = values[:-1, 0]
        prev[0, 0] = values[0, 0]
        return prev
    raise ValueError("staircase traversal supports curve and surface grids only")


def _staircase_scan(steps: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Chained products out(s) = steps(s) @ out(prev(s)) along the staircase.

    The grid is the leading axes of steps that first lacks; out is first at
    the base corner, where steps is not read.  The chain runs down the base
    column one point at a time, then across all rows at once, so the Python
    loop has N0 + N1 steps rather than N0 * N1.
    """
    first = np.asarray(first)
    ndim = steps.ndim - first.ndim
    if ndim > 2:
        raise ValueError("staircase traversal supports curve and surface grids only")
    out = np.empty(steps.shape[:ndim] + first.shape, dtype=np.result_type(steps, first))
    column = (slice(None),) + (0,) * (ndim - 1)
    chain, chain_steps = out[column], steps[column]
    chain[0] = first
    for i in range(1, len(chain)):
        chain[i] = chain_steps[i] @ chain[i - 1]
    if ndim == 2:
        for j in range(1, out.shape[1]):
            out[:, j] = steps[:, j] @ out[:, j - 1]
    return out


def _complete_normal_stack(tangent):
    """_complete_normals at every point of a (P, k, n) stack of tangent frames.

    Each point keeps a zero-padded (n, n) stack of rows, tangent rows
    first, and each candidate is projected against all n slots in order.
    An empty slot is an exact no-op, so every point does the arithmetic of
    the scalar loop.  The relaxed pass runs only for the points still short.
    Shape (P, n-k, n).
    """
    points, k, n = tangent.shape
    rows = np.zeros((points, n, n))
    rows[:, :k] = tangent
    count = np.full(points, k)
    short = np.arange(points)
    for thr in (0.5, 1e-8):
        sub, filled = rows[short], count[short]
        for j in range(n):
            w = np.zeros((len(short), n))
            w[:, j] = 1.0
            for slot in range(n):
                u = sub[:, slot]
                w -= np.einsum("pi,pi->p", u, w)[:, None] * u
            norm = np.linalg.norm(w, axis=-1)
            hit = np.flatnonzero((norm > thr) & (filled < n))
            sub[hit, filled[hit]] = w[hit] / norm[hit, None]
            filled[hit] += 1
        rows[short], count[short] = sub, filled
        short = short[filled < n]
        if not len(short):
            return rows[:, k:]
    raise ImmersionError("could not complete the normal frame")


def build_frame_field(chart: ImmersionChart, shape=None, parallel=True,
                      integrability_tol=None) -> FrameField:
    """Adapted frames, curvature and connection data on the chart grid.

    The chart is evaluated once per derivative order (x, jac, hess), all on
    the grid.  The tangent frame is the ordered Gram-Schmidt of the
    coordinate derivatives, jac = tangent^T R with R = tangent jac upper
    triangular (k <= 2, since the staircase covers curves and surfaces
    only).  R gives the immersion guard, sigma_min(jac) = sigma_min(R) in
    closed form, the frame coefficients e_coeff = R^-T and the metric
    inverse g^-1 = R^-1 R^-T.

    Surfaces in R^3 and plane curves take their normal from the cross
    product and the quarter turn.  In higher codimension every point
    completes its tangent rows with standard basis vectors
    (_complete_normals, all points at once), and the completions b(s) are
    smoothed along the staircase by Procrustes alignment to the
    predecessor.  As polar(Q M) = Q polar(M), the aligned frame is
    Q(s) b(s) with Q(s) = Q(prev) P(s), P(s) = polar(b(prev) b(s)^T): one
    stacked SVD and one staircase scan of the P^T.  P(s) can be a
    reflection, so the order of that product matters.  The field is then
    flipped to det +1 at the base corner.

    With parallel=True and codimension >= 2, the normal frame is rotated by
    the transport of d(Lambda^T)/ds^alpha = -M_alpha Lambda^T along the
    staircase: one exponential exp(-h Mbar) per edge, a closed-form plane
    rotation in codimension 2 and a batched expm otherwise, chained by the
    same scan.  On a curve this is the Bishop frame.

    The spin connection is exact: differentiating jac = tangent^T R gives
    tangent d_alpha(jac) R^-1 = tangent d_alpha(tangent^T) + d_alpha(R) R^-1,
    an antisymmetric plus an upper-triangular matrix, so omega_alpha is the
    antisymmetrised strict-lower part of tangent hess_alpha R^-1.

    Raises, in this order: ValueError for a shape with the wrong number of
    axes, fewer than 8 points per axis, or more than two axes; then
    ImmersionError when the Jacobian's smallest singular value is <= 1e-8
    somewhere on the grid (tested before any division by a Gram-Schmidt
    norm), when a normal frame cannot be completed, or when smoothing
    leaves frames of both orientations (a seam); then IntegrabilityError
    when the normal connection stays above integrability_tol.
    """
    shape = tuple(shape or chart.grid_shape)
    axes = chart.axes(shape)
    if len(shape) > 2:
        raise ValueError("staircase traversal supports curve and surface grids only")
    hs = chart.spacings(shape)
    pts = chart.grid(shape)
    x = chart.x(pts)
    jac = chart.jacobian(pts)
    hess = chart.hessian(pts)
    k, n = chart.k, chart.n
    nk = n - k

    tangent, r = _tangent_frames(jac, chart.name)

    # normal completion: fast paths for surfaces in R^3 and plane curves
    if (k, n) == (2, 3):
        nrm = np.cross(tangent[..., 0, :], tangent[..., 1, :])[..., None, :]
        normal = nrm / np.linalg.norm(nrm, axis=-1)[..., None]
    elif (k, n) == (1, 2):
        t = tangent[..., 0, :]
        normal = np.stack([-t[..., 1], t[..., 0]], axis=-1)[..., None, :]
    else:
        b = _complete_normal_stack(tangent.reshape(-1, k, n)).reshape(shape + (nk, n))
        u, _, vt = np.linalg.svd(_staircase_previous(b, len(shape)) @ np.swapaxes(b, -1, -2))
        q_t = _staircase_scan(np.swapaxes(u @ vt, -1, -2), np.eye(nk))
        normal = np.swapaxes(q_t, -1, -2) @ b
        det = np.linalg.det(np.concatenate([tangent, normal], axis=-2))
        if det.max() - det.min() > 1.0:  # dets are +/-1; a mix means a seam
            raise ImmersionError("normal-frame smoothing left an orientation seam")
        if det.flat[0] < 0:
            normal[..., -1, :] = -normal[..., -1, :]

    # jac = tangent^T R, so e_a = x_alpha (R^-1)^alpha_a and g^-1 = R^-1 R^-T
    r_inv = np.zeros_like(r)
    r_inv[..., 0, 0] = 1 / r[..., 0, 0]
    if k == 2:
        r_inv[..., 1, 1] = 1 / r[..., 1, 1]
        r_inv[..., 0, 1] = -r[..., 0, 1] * r_inv[..., 0, 0] * r_inv[..., 1, 1]
    e_coeff = np.swapaxes(r_inv, -1, -2)
    metric = np.einsum("...ia,...ib->...ab", jac, jac)
    metric_inv = r_inv @ e_coeff
    wein = _weingarten_from_arrays(jac, hess, metric_inv, normal)

    # normal-connection coefficients of the completed field
    def gtilde_of(nrm_field):
        gt = np.empty(shape + (k, nk, nk))
        for a in range(k):
            db = _diff_axis(nrm_field, a, hs[a])
            m = np.einsum("...di,...ei->...de", nrm_field, db)
            gt[..., a, :, :] = 0.5 * (m - np.swapaxes(m, -1, -2))
        return gt

    gtilde = gtilde_of(normal)

    if parallel and nk >= 2:
        # integrate d(Lambda^T)/ds^alpha = -M_alpha Lambda^T along the staircase;
        # the edge into s along axis alpha steps by exp(-h_alpha Mbar), Mbar
        # the mean of M_alpha at s and at its predecessor
        mbar = 0.5 * (_staircase_previous(gtilde, len(shape)) + gtilde)
        column = (slice(None),) + (0,) * (len(shape) - 1)
        gen = -hs[-1] * mbar[..., -1, :, :]
        gen[column] = -hs[0] * mbar[column][..., 0, :, :]
        if nk == 2:
            cos, sin = np.cos(gen[..., 1, 0]), np.sin(gen[..., 1, 0])
            step = np.stack([np.stack([cos, -sin], axis=-1), np.stack([sin, cos], axis=-1)],
                            axis=-2)
        else:
            step = scipy.linalg.expm(gen)
        y = _staircase_scan(step, np.eye(nk))
        lam = np.swapaxes(y, -1, -2)
        normal = np.einsum("...de,...ei->...di", lam, normal)
        wein = np.einsum("...de,...eab->...dab", lam, wein)
        gtilde = gtilde_of(normal)

    gtilde_residual = float(np.abs(gtilde).max()) if nk >= 1 else 0.0
    if integrability_tol is not None and gtilde_residual > integrability_tol:
        raise IntegrabilityError(
            f"normal connection residual {gtilde_residual:.3e} above {integrability_tol:.3e}")

    mean = np.einsum("...daa->...d", wein)
    # omega_alpha = L - L^T with L the strict-lower part of tangent hess_alpha
    # R^-1; for k = 2 that is the one entry L[1, 0] = e_1 . d_alpha d_0 x / R[0, 0]
    # (0-based), and a curve has no spin connection
    omega = np.zeros(shape + (k, k, k))
    if k == 2:
        low = np.einsum("...i,...ia->...a", tangent[..., 1, :], hess[..., :, 0, :])
        low *= r_inv[..., :1, 0]
        omega[..., 1, 0], omega[..., 0, 1] = low, -low

    return FrameField(chart, axes, hs, pts, x, jac, metric, metric_inv, tangent,
                      normal, wein, mean, gtilde, gtilde_residual, e_coeff, omega)


def parallel_normal_frame(chart: ImmersionChart, shape=None) -> FrameField:
    """Frame field on the chart grid with the normal connection flattened."""
    return build_frame_field(chart, shape=shape, parallel=True)
