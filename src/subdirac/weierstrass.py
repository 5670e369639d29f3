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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import (
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


@dataclass(frozen=True)
class ReconstructionReport:
    """Error figures of one immersion-recovery run."""

    max_abs_error: np.ndarray  # per ambient coordinate, after anchoring
    path_independence_residual: float
    convergence_order: float
    bilinear_max_deviation: float
    extras: dict = field(default_factory=dict)

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


def reconstruction_report(chart: ImmersionChart, shapes=((65, 65), (129, 129)),
                          rep: GammaRep | None = None, extras: dict | None = None
                          ) -> ReconstructionReport:
    """Run the recovery at two resolutions and collect the error figures."""
    frame_fields = (build_frame_field(chart, shape=shape) for shape in shapes)
    return _reconstruction_study(frame_fields, rep, extras)[0]


def _reconstruction_study(frame_fields, rep: GammaRep | None = None,
                          extras: dict | None = None, bilinears=None):
    """reconstruction_report over a coarse and a fine frame field of one chart.

    bilinears, when given, holds each field's immersion_bilinears.  Also
    returns the reconstructed coordinate grid of each field.
    """
    errors = []
    path_residuals = []
    loop_residuals = []
    coords_by_field = []
    sizes = []
    bilinear_dev = 0.0
    per_coord = None
    for j, frames in enumerate(frame_fields):
        b = immersion_bilinears(frames, rep) if bilinears is None else bilinears[j]
        bilinear_dev = max(bilinear_dev, float(np.abs(b - frames.jac).max()))
        coords, path_res = reconstruct_immersion(frames, rep, bilinears=b)
        err = np.abs(coords - frames.x)
        per_coord = err.reshape(-1, err.shape[-1]).max(axis=0)
        errors.append(per_coord.max())
        path_residuals.append(path_res)
        loop_residuals.append(plaquette_circulation(b, frames.spacings))
        coords_by_field.append(coords)
        sizes.append(frames.grid_shape[0])
    refine = np.log2((sizes[1] - 1) / (sizes[0] - 1))
    if errors[0] == 0 and errors[1] == 0:
        order = float("inf")
    else:
        order = float(np.log2(errors[0] / max(errors[1], 1e-300)) / refine)
    merged = {"errors_by_resolution": tuple(errors),
              "path_residuals": tuple(path_residuals),
              "plaquette_loop_residuals": tuple(loop_residuals)}
    merged.update(extras or {})
    report = ReconstructionReport(per_coord, max(path_residuals), order, bilinear_dev, merged)
    return report, coords_by_field


def minimal_surface_crosscheck(chart: ImmersionChart, shapes=((33, 33), (65, 65)),
                               rep: GammaRep | None = None,
                               minimality_tol: float = 1e-8) -> ReconstructionReport:
    """Verify a minimal chart and reconstruct it.

    Checks that the mean curvature vanishes on the coarse grid, that the
    submanifold operator coincides with the intrinsic one (the curvature
    term carries no weight: their coefficient planes agree), then runs the
    reconstruction study on that coarse field and a fine one, built only
    once the checks pass.
    """
    frames = build_frame_field(chart, shape=shapes[0])
    mean_max = float(np.abs(frames.mean_curvature).max())
    if mean_max > minimality_tol:
        raise MisclassificationError(
            f"{chart.name} has mean curvature {mean_max:.3e}, not minimal")
    op_sub = submanifold_dirac(frames, rep)
    op_intr = intrinsic_dirac(frames, rep)
    op_diff = float(max(np.abs(op_sub.axis_coeff - op_intr.axis_coeff).max(),
                        np.abs(op_sub.potential_coeff - op_intr.potential_coeff).max()))
    fine = build_frame_field(chart, shape=shapes[1])
    return _reconstruction_study((frames, fine), rep, extras={
        "mean_curvature_max": mean_max,
        "operator_difference": op_diff,
    })[0]


def frenet_serret_case(chart: ImmersionChart, shapes=((257,), (513,)),
                       rep: GammaRep | None = None) -> ReconstructionReport:
    """Curve case: 1-D submanifold operator, kernel residuals, reconstruction.

    The operator is gamma_1 e_1^s d/ds + (1/2) gamma_adot kappa_adot with
    kappa the curvature components in the parallel normal frame; the frame
    spinor field must lie in its kernel to O(h^2).  Each resolution's frame
    field and lift coefficients serve both the kernel check and the
    reconstruction.
    """
    if chart.k != 1 or chart.n not in (2, 3):
        raise ValueError("Frenet-Serret case needs a curve in R^2 or R^3")
    rep = rep or build_gamma_rep(chart.n)
    frame_fields = [build_frame_field(chart, shape=shape) for shape in shapes]
    coeffs = [frame_lift_coefficients(frames, rep) for frames in frame_fields]
    residuals = [float(lift_residuals(frames, c, rep).max())
                 for frames, c in zip(frame_fields, coeffs)]
    report, _ = _reconstruction_study(frame_fields, rep, extras={
        "kernel_residuals": tuple(residuals),
        "kernel_order": float(np.log2(residuals[0] / residuals[1])
                              / np.log2((shapes[1][0] - 1) / (shapes[0][0] - 1))),
        "curvature_norm": np.linalg.norm(frame_fields[-1].mean_curvature, axis=-1),
    }, bilinears=[immersion_bilinears(frames, rep, coeffs=c)
                  for frames, c in zip(frame_fields, coeffs)])
    return report
