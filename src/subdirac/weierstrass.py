"""Immersion recovery from kernel-spinor bilinears.

The lifted frame field tau(s) turns the fixed primitive spinors of the
ambient axes into fields psi_i(s) = tau(s) psi_{e_i}; pairing them against
the tangent-frame gammas weighted by the coordinate derivatives reproduces
every partial derivative of the immersion,

    B^i_alpha(s) = < conj(psi_i), (sum_a (x_alpha . e_a) gamma_a) psi_i >
                 = d_alpha x^i(s),

and trapezoid path integration of that exact 1-form rebuilds the chart up
to the anchored base-corner translation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import (
    dirac_residual,
    frame_lift_field,
    frame_spinor_fields,
    intrinsic_dirac,
    submanifold_dirac,
)
from .geometry import FrameField, ImmersionChart, build_frame_field
from .spinors import GammaRep, build_gamma_rep, primitive_spinor


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


def immersion_bilinears(frames: FrameField, rep: GammaRep | None = None,
                        taus: np.ndarray | None = None) -> np.ndarray:
    """B^i_alpha over the grid, shape (*grid, n, k); equals the Jacobian."""
    chart = frames.chart
    rep = rep or build_gamma_rep(chart.n)
    if taus is None:
        taus = frame_lift_field(frames, rep)
    prim = np.stack([primitive_spinor(np.eye(chart.n)[i], rep).components
                     for i in range(chart.n)])  # (n, d)
    psi = np.einsum("...cd,id->...ic", taus, prim)  # (*grid, n, d)
    coeff = np.einsum("...ai,...ib->...ba", frames.tangent, frames.jac)  # (alpha, a)
    gam = np.stack(rep.gammas[: chart.k])
    mats = np.einsum("...ba,aij->...bij", coeff, gam)  # (*grid, alpha, d, d)
    vals = np.einsum("...ic,...bcd,...id->...ib", np.conj(psi), mats, psi)
    return np.real(vals)


def immersion_bilinear(frames: FrameField, i: int, alpha: int, index,
                       rep: GammaRep | None = None) -> float:
    """Single bilinear B^i_alpha at one grid index; equals d_alpha x^i there."""
    vals = immersion_bilinears(frames, rep)
    return float(vals[tuple(np.atleast_1d(index))][i, alpha])


def _cumtrapz(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Cumulative trapezoid along a grid axis, zero at the first slice."""
    values = np.moveaxis(values, axis, 0)
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * h * (values[1:] + values[:-1]), axis=0)
    return np.moveaxis(out, 0, axis)


def integrate_one_form(b: np.ndarray, spacings, anchor: np.ndarray,
                       reverse: bool = False) -> np.ndarray:
    """Staircase path integral of the 1-form b (*grid, n, k) from the base corner.

    reverse=True runs the staircase with the axis order swapped (last axis
    first); the difference between the two is the path-independence
    certificate.
    """
    grid_shape = b.shape[:-2]
    k = b.shape[-1]
    if len(grid_shape) != k:
        raise ValueError("one-form axes do not match the grid")
    if k == 1:
        return anchor + _cumtrapz(b[..., 0], spacings[0], 0)
    order = (1, 0) if reverse else (0, 1)
    first, second = order
    # chain along `first` at the base slice of `second`, then fill rows
    along_first = _cumtrapz(b[..., first], spacings[first], first)
    base_index = [slice(None), slice(None)]
    base_index[second] = slice(0, 1)
    line = along_first[tuple(base_index)]
    out = line + _cumtrapz(b[..., second], spacings[second], second)
    return anchor + out


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
                          extras: dict | None = None):
    """reconstruction_report over a coarse and a fine frame field of one chart.

    Also returns the reconstructed coordinate grid of each field.
    """
    errors = []
    path_residuals = []
    loop_residuals = []
    coords_by_field = []
    sizes = []
    bilinear_dev = 0.0
    per_coord = None
    for frames in frame_fields:
        b = immersion_bilinears(frames, rep)
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

    Checks that the mean curvature vanishes on the grid, that the
    submanifold operator coincides with the intrinsic one (the curvature
    term carries no weight), then runs the reconstruction study.
    """
    frames = build_frame_field(chart, shape=shapes[0])
    mean_max = float(np.abs(frames.mean_curvature).max())
    if mean_max > minimality_tol:
        raise MisclassificationError(
            f"{chart.name} has mean curvature {mean_max:.3e}, not minimal")
    op_sub = submanifold_dirac(frames, rep)
    op_intr = intrinsic_dirac(frames, rep)
    op_diff = float(np.abs(op_sub.potential - op_intr.potential).max())
    return reconstruction_report(chart, shapes, rep, extras={
        "mean_curvature_max": mean_max,
        "operator_difference": op_diff,
    })


def frenet_serret_case(chart: ImmersionChart, shapes=((257,), (513,)),
                       rep: GammaRep | None = None) -> ReconstructionReport:
    """Curve case: 1-D submanifold operator, kernel residuals, reconstruction.

    The operator is gamma_1 e_1^s d/ds + (1/2) gamma_adot kappa_adot with
    kappa the curvature components in the parallel normal frame; the frame
    spinor field must lie in its kernel to O(h^2).
    """
    if chart.k != 1 or chart.n not in (2, 3):
        raise ValueError("Frenet-Serret case needs a curve in R^2 or R^3")
    residuals = []
    curvature_norm = None
    for shape in shapes:
        frames = build_frame_field(chart, shape=shape)
        op = submanifold_dirac(frames, rep)
        fields = frame_spinor_fields(frames, rep)
        residuals.append(max(dirac_residual(op, f) for f in fields))
        curvature_norm = np.linalg.norm(frames.mean_curvature, axis=-1)
    report = reconstruction_report(chart, shapes, rep, extras={
        "kernel_residuals": tuple(residuals),
        "kernel_order": float(np.log2(residuals[0] / residuals[1])
                              / np.log2((shapes[1][0] - 1) / (shapes[0][0] - 1))),
        "curvature_norm": curvature_norm,
    })
    return report
