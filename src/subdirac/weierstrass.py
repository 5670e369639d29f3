"""Immersion recovery from kernel-spinor bilinears.

The lifted frame field tau(s) turns the fixed primitive spinors of the
ambient axes into fields psi_i(s) = tau(s) psi_{e_i}; pairing them against
the tangent-frame gammas weighted by the coordinate derivatives reproduces
every partial derivative of the immersion,

    B^i_alpha(s) = < conj(psi_i), (sum_a (x_alpha . e_a) gamma_a) psi_i >
                 = d_alpha x^i(s),

and trapezoid path integration of that exact 1-form along geometry's
staircase rebuilds the chart up to the anchored base-corner translation.
The lift enters as its real even-blade coefficients c
(dirac.frame_lift_coefficients): with tau = sum_K c_K gamma_K, every
W_ia = Re <conj(psi_i), gamma_a psi_i> is one quadratic form of c against
a fixed table, so no complex lift matrix is formed.

The studies below and the command line's grid suites read a chart's
coarse and fine grid levels through one GridLevels, which derives the fine
level from the coarse shape (the halved step) and builds and lifts each
level at most once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .dirac import (
    _gram_blocks,
    _pair_products,
    _pair_table,
    frame_lift_coefficients,
    intrinsic_dirac,
    lift_residuals,
    submanifold_dirac,
)
from .geometry import (
    FrameField,
    ImmersionChart,
    _grid_major,
    _plane_matmul,
    _staircase_accumulate,
    _staircase_edges,
    build_frame_field,
)
from .spinors import GammaRep, _grid_blocks, _unsigned_coefficients, build_gamma_rep


class MisclassificationError(ValueError):
    """A surface handled as minimal has detectably nonzero mean curvature."""


@dataclasses.dataclass(frozen=True)
class ReconstructionReport:
    """Error figures of one immersion-recovery run."""

    max_abs_error: np.ndarray  # per ambient coordinate, after anchoring
    path_independence_residual: float
    convergence_order: float
    bilinear_max_deviation: float
    extras: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.asarray(self.max_abs_error) < 0) or self.path_independence_residual < 0 \
                or self.bilinear_max_deviation < 0:
            raise ValueError("report entries must be nonnegative")


def _bilinear_table(rep: GammaRep, k: int) -> np.ndarray:
    """Fixed table (pairs, n k) with W_ia = table.T @ dirac._pair_products(c).

    psi_i = tau psi_{e_i} = sum_K c_K gamma_K psi_{e_i}, so
    W_ia = sum_{K, L} c_K c_L Re <conj(gamma_K psi_{e_i}), gamma_a gamma_L psi_{e_i}>.
    Built once per rep and k, read-only.
    """
    def build(rep):
        lifted = rep.even_products @ rep.axis_primitives.T  # (K, d, n): column i is gamma_K psi_{e_i}
        form = np.einsum("kci,acd,ldi->klia", lifted.conj(), rep.gamma_stack[:k], lifted).real
        return _pair_table(form).reshape(-1, rep.m * k)

    return rep.cached_table(("bilinear", k), build)


def _bilinear_kernel(coeffs: np.ndarray, tangent: np.ndarray, jac: np.ndarray,
                     rep: GammaRep) -> np.ndarray:
    """Planes B (n, k, *grid) of B^i_alpha from lift coefficients c (K, *grid)
    and the tangent (k, n, *grid) and jac (n, k, *grid) planes at the same points.

    B^i_alpha = sum_a (tangent jac)_{a alpha} W_ia, with W a quadratic form
    of c (_bilinear_table), so the sign of the lift does not enter.  Runs
    GRID_BLOCK points at a time into the preallocated planes.
    """
    grid = coeffs.shape[1:]
    n, k = jac.shape[:2]
    table = _bilinear_table(rep, k).T
    points = int(np.prod(grid))
    flat = coeffs.reshape(len(coeffs), points)
    tangent, jac = tangent.reshape(k, n, points), jac.reshape(n, k, points)
    out = np.empty((n, k, points))
    for block in _grid_blocks(points):
        w = table @ _pair_products(flat[:, block])  # (n k, points): the W_ia planes
        out[:, :, block] = _plane_matmul(w.reshape(n, k, -1),
                                         _plane_matmul(tangent[:, :, block], jac[:, :, block]))
    return out.reshape((n, k) + grid)


def immersion_bilinears(frames: FrameField, rep: GammaRep | None = None,
                        coeffs: np.ndarray | None = None) -> np.ndarray:
    """B^i_alpha over the grid, shape (*grid, n, k); equals the Jacobian.

    coeffs are the frame lift's frame_lift_coefficients, computed when not given.
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    if coeffs is None:
        coeffs = frame_lift_coefficients(frames, rep)
    return _grid_major(_bilinear_kernel(coeffs, frames.tangent_planes, frames.jac_planes, rep), 2)


def immersion_bilinear(frames: FrameField, i: int, alpha: int, index,
                       rep: GammaRep | None = None) -> float:
    """Single bilinear B^i_alpha at one grid index; equals d_alpha x^i there.

    Lifts only that point's frame rotation to its even-blade coefficients:
    the bilinear does not depend on the lift's sign, so no staircase chain
    is needed.
    """
    rep = rep or build_gamma_rep(frames.chart.n)
    index = tuple(np.atleast_1d(index))
    if len(index) != len(frames.grid_shape):
        raise IndexError(f"grid index {index} does not match grid {frames.grid_shape}")
    at = (Ellipsis,) + index
    tangent, normal = frames.tangent_planes[at], frames.normal_planes[at]
    jac = frames.jac_planes[at]
    coeffs = _unsigned_coefficients(np.concatenate([tangent, normal]).reshape(-1, 1), rep.m)[:, 0]
    return float(_bilinear_kernel(coeffs, tangent, jac, rep)[i, alpha])


def integrate_one_form(b: np.ndarray, spacings, anchor: np.ndarray,
                       reverse: bool = False) -> np.ndarray:
    """Staircase path integral of the 1-form b (*grid, n, k) from the base corner.

    Trapezoid edge steps summed along geometry's staircase; reverse=True
    runs it with the two grid axes swapped (last axis first), and the
    difference between the two is the path-independence certificate.
    """
    grid_shape = b.shape[:-2]
    k = b.shape[-1]
    if len(grid_shape) != k or len(spacings) != k:
        raise ValueError("one-form axes do not match the grid")
    if reverse and k == 2:  # a curve has one staircase
        swapped = integrate_one_form(np.swapaxes(b, 0, 1)[..., ::-1], spacings[::-1], anchor)
        return np.swapaxes(swapped, 0, 1)
    planes = np.moveaxis(b, (-1, -2), (0, 1))  # (k, n, *grid): f_alpha at index alpha
    return anchor + _grid_major(_staircase_accumulate(np.add, _staircase_edges(planes, spacings), k), 1)


def plaquette_circulation(b: np.ndarray, spacings) -> float:
    """Max trapezoid loop integral of the 1-form around single grid cells."""
    if b.shape[-1] != 2:
        return 0.0
    h1, h2 = spacings
    b1, b2 = b[..., 0], b[..., 1]
    circ = (0.5 * h1 * (b1[:-1, :-1] + b1[1:, :-1])
            + 0.5 * h2 * (b2[1:, :-1] + b2[1:, 1:])
            - 0.5 * h1 * (b1[:-1, 1:] + b1[1:, 1:])
            - 0.5 * h2 * (b2[:-1, :-1] + b2[:-1, 1:]))
    return float(np.abs(circ).max())


def reconstruct_immersion(frames: FrameField, rep: GammaRep | None = None,
                          bilinears: np.ndarray | None = None,
                          path_tol: float | None = None):
    """Rebuild the ambient coordinates from the spinor bilinears.

    Returns (coords, path_residual): the reconstructed grid, anchored to the
    source chart at the base corner, and the forward/reverse staircase
    discrepancy.  A path residual above path_tol signals a frame or kernel
    construction failure (the recovered 1-form was not closed).
    """
    chart = frames.chart
    if bilinears is None:
        bilinears = immersion_bilinears(frames, rep)
    anchor = frames.x[(0,) * chart.k]
    coords = integrate_one_form(bilinears, frames.spacings, anchor)
    path_residual = 0.0
    if chart.k >= 2:
        rev = integrate_one_form(bilinears, frames.spacings, anchor, reverse=True)
        path_residual = float(np.abs(coords - rev).max())
    if path_tol is not None and path_residual > path_tol:
        raise ValueError(f"path dependence {path_residual:.3e} exceeds {path_tol:.3e}; "
                         "the recovered one-form is not closed")
    return coords, path_residual


def _fine_shape(shape) -> tuple:
    """The fine level of a coarse shape, 2 (g - 1) + 1 points per axis: the halved step."""
    return tuple(2 * (g - 1) + 1 for g in shape)


class GridLevels:
    """Frame fields, lift coefficients and bilinears of one chart on a coarse
    grid level of the given shape and the fine level _fine_shape derives.

    The CLI's grid suites and the three studies below read their levels
    through one instance, so each level is built and lifted at most once.
    frames(shape) builds one level alone (the CLI's geometry suite, the
    minimality check).  levels() returns both, the fine level built and
    lifted first: the coarse level is the fine one at every other point
    (nested), and its planes, coefficients and bilinears are strided views,
    with axes [::2] (checked against chart.axes) and spacings 2h.  A coarse
    field built before levels() is kept, and only its coefficients and
    bilinears are read off the fine level.  A fine field with a nonzero
    normal connection keeps a separate coarse build: its Procrustes normal
    frame depends on the step (helix-curve).  A build that raises is not
    kept, and raises again when it is next asked for.
    """

    def __init__(self, chart: ImmersionChart, shape, rep: GammaRep | None = None):
        self.chart = chart
        self.rep = rep or build_gamma_rep(chart.n)
        self.shapes = (tuple(shape), _fine_shape(shape))  # (coarse, fine)
        self.nested = False  # set by levels()
        self._frames = {}
        self._coeffs = {}
        self._bilinears = {}

    def frames(self, shape):
        if shape not in self._frames:
            self._frames[shape] = build_frame_field(self.chart, shape=shape)
        return self._frames[shape]

    def levels(self):
        """The (coarse, fine) frame fields, the fine one built first."""
        coarse, fine = self.shapes
        ff = self.frames(fine)
        axes = [a[::2] for a in ff.axes]
        self.nested = (ff.gtilde_residual == 0.0
                       and all(map(np.array_equal, axes, self.chart.axes(coarse))))
        if self.nested and coarse not in self._frames:
            every = (Ellipsis,) + (slice(None, None, 2),) * len(coarse)
            planes = {f.name: getattr(ff, f.name)[every] for f in dataclasses.fields(ff)
                      if f.name.endswith("_planes")}
            self._frames[coarse] = dataclasses.replace(
                ff, axes=axes, spacings=[2 * h for h in ff.spacings], **planes)
        return self.frames(coarse), ff

    def coeffs(self, shape):
        return self._on_level(self._coeffs, shape, 1,
                              lambda sh: frame_lift_coefficients(self.frames(sh), self.rep))

    def bilinears(self, shape):
        return self._on_level(self._bilinears, shape, 0, lambda sh: immersion_bilinears(
            self.frames(sh), self.rep, coeffs=self.coeffs(sh)))

    def kernel_residuals(self):
        """The (coarse, fine) maxima of lift_residuals: the frame spinors against the operator."""
        return tuple(float(lift_residuals(frames, self.coeffs(shape), self.rep).max())
                     for frames, shape in zip(self.levels(), self.shapes))

    def kernel_orthonormality(self):
        """max |tau^H tau - 1| over the distinct points, the fine level's alone when nested."""
        self.levels()
        shapes = self.shapes[1:] if self.nested else self.shapes
        return max(float(np.abs(gram - np.eye(self.rep.dim)).max()) for shape in shapes
                   for _, gram in _gram_blocks(self.coeffs(shape), self.rep))

    def _on_level(self, cache, shape, lead, build):
        """cache[shape] from build(shape); on a nested coarse level, the fine
        level's array at every other point of its grid axes (after lead axes)."""
        if shape not in cache:
            if self.nested and shape == self.shapes[0]:
                every = (slice(None),) * lead + (slice(None, None, 2),) * len(shape)
                cache[shape] = self._on_level(cache, self.shapes[1], lead, build)[every]
            else:
                cache[shape] = build(shape)
        return cache[shape]


def reconstruction_report(chart: ImmersionChart, shape=(65, 65),
                          rep: GammaRep | None = None) -> ReconstructionReport:
    """Run the recovery on shape and its fine level (GridLevels); collect the error figures."""
    return _reconstruction_study(GridLevels(chart, shape, rep))[0]


def _reconstruction_study(fields: GridLevels, extras: dict | None = None):
    """reconstruction_report over the levels of fields, with extras merged in.

    The fine level halves the step, so the convergence order is log2 of the
    error ratio.  Also returns the reconstructed coordinate grid of each level.
    """
    errors = []
    path_residuals = []
    loop_residuals = []
    coords_by_field = []
    bilinear_dev = 0.0
    per_coord = None
    for frames, shape in zip(fields.levels(), fields.shapes):
        b = fields.bilinears(shape)
        bilinear_dev = max(bilinear_dev, float(np.abs(b - frames.jac).max()))
        coords, path_res = reconstruct_immersion(frames, bilinears=b)
        err = np.abs(coords - frames.x)
        per_coord = err.reshape(-1, err.shape[-1]).max(axis=0)
        errors.append(per_coord.max())
        path_residuals.append(path_res)
        loop_residuals.append(plaquette_circulation(b, frames.spacings))
        coords_by_field.append(coords)
    if errors[0] == 0 and errors[1] == 0:
        order = float("inf")
    else:
        order = float(np.log2(errors[0] / max(errors[1], 1e-300)))
    merged = {"errors_by_resolution": tuple(errors),
              "path_residuals": tuple(path_residuals),
              "plaquette_loop_residuals": tuple(loop_residuals)}
    merged.update(extras or {})
    report = ReconstructionReport(per_coord, max(path_residuals), order, bilinear_dev, merged)
    return report, coords_by_field


def minimal_surface_crosscheck(chart: ImmersionChart, shape=(33, 33),
                               rep: GammaRep | None = None) -> ReconstructionReport:
    """Verify a minimal chart and reconstruct it.

    Checks that the mean curvature vanishes (to 1e-8) on the coarse level
    shape, that the submanifold operator coincides with the intrinsic one
    (the curvature term carries no weight: their coefficient planes agree),
    then runs the reconstruction study on the levels of one GridLevels.
    The coarse field is built first and kept; the fine one is built only
    once the checks pass, and lifted once for both levels when the coarse
    is nested in it.
    """
    fields = GridLevels(chart, shape, rep)
    frames = fields.frames(fields.shapes[0])
    mean_max = float(np.abs(frames.mean_curvature).max())
    if mean_max > 1e-8:
        raise MisclassificationError(
            f"{chart.name} has mean curvature {mean_max:.3e}, not minimal")
    op_sub = submanifold_dirac(frames, fields.rep)
    op_intr = intrinsic_dirac(frames, fields.rep)
    op_diff = float(max(np.abs(op_sub.axis_coeff - op_intr.axis_coeff).max(),
                        np.abs(op_sub.potential_coeff - op_intr.potential_coeff).max()))
    return _reconstruction_study(fields, extras={
        "mean_curvature_max": mean_max,
        "operator_difference": op_diff,
    })[0]


def frenet_serret_case(chart: ImmersionChart, shape=(257,),
                       rep: GammaRep | None = None) -> ReconstructionReport:
    """Curve case: 1-D submanifold operator, kernel residuals, reconstruction.

    The operator is gamma_1 e_1^s d/ds + (1/2) gamma_adot kappa_adot with
    kappa the curvature components in the parallel normal frame; the frame
    spinor field must lie in its kernel to O(h^2): the kernel order is log2
    of the residual ratio on shape and its fine level, one GridLevels that
    serves the reconstruction too, so the circle is built and lifted once,
    at the fine level; the helix keeps its separate coarse build.
    """
    if chart.k != 1 or chart.n not in (2, 3):
        raise ValueError("Frenet-Serret case needs a curve in R^2 or R^3")
    fields = GridLevels(chart, shape, rep)
    residuals = fields.kernel_residuals()
    report, _ = _reconstruction_study(fields, extras={
        "kernel_residuals": residuals,
        "kernel_order": float(np.log2(residuals[0] / residuals[1])),
        "curvature_norm": np.linalg.norm(fields.frames(fields.shapes[1]).mean_curvature, axis=-1),
    })
    return report
