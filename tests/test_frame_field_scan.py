"""The batched build_frame_field against the per-point staircase loops.

The reference completes the normal frame point by point, aligns each
completion to its staircase predecessor by Procrustes, and transports the
normal frame one edge at a time, the way the grid frame field used to be
built.  It also keeps the slow forms of the Gram-Schmidt quantities:
e_coeff from the inverted metric, and omega from central differences of
the tangent frames at s +- h_fd.  The closed-form immersion guard is
checked against the SVD.
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lift_field import staircase_indices

from subdirac import geometry
from subdirac.geometry import (
    ImmersionChart,
    ImmersionError,
    _complete_normal_stack,
    _complete_normals,
    _diff_axis,
    _procrustes_align,
    _tangent_frames,
    _weingarten_from_arrays,
    build_frame_field,
    catalog_chart,
)


def so_exponential(a):
    if a.shape[0] == 2:
        c, s = np.cos(a[1, 0]), np.sin(a[1, 0])
        return np.array([[c, -s], [s, c]])
    return scipy.linalg.expm(a)


def tangent_frames(jac):
    """Ordered Gram-Schmidt of the coordinate derivatives, any k."""
    k = jac.shape[-1]
    n = jac.shape[-2]
    tangent = np.empty(jac.shape[:-2] + (k, n))
    for a in range(k):
        w = jac[..., :, a].copy()
        for b in range(a):
            w -= np.einsum("...i,...i->...", tangent[..., b, :], w)[..., None] * tangent[..., b, :]
        tangent[..., a, :] = w / np.linalg.norm(w, axis=-1)[..., None]
    return tangent


def finite_difference_omega(chart, shape):
    """omega from central differences of the tangent frames at s +- h_fd."""
    pts = chart.grid(shape)
    k = chart.k
    tangent = tangent_frames(chart.jacobian(pts))
    omega = np.empty(shape + (k, k, k))
    for a in range(k):
        step = chart.h_fd * max(1.0, abs(chart.rectangle[a][1] - chart.rectangle[a][0]))
        e = np.zeros(k)
        e[a] = step
        de = (tangent_frames(chart.jacobian(pts + e))
              - tangent_frames(chart.jacobian(pts - e))) / (2 * step)
        m = np.einsum("...bi,...ci->...bc", tangent, de)
        omega[..., a, :, :] = 0.5 * (m - np.swapaxes(m, -1, -2))
    return omega


def reference_frame_field(chart, shape):
    """The per-point loops of build_frame_field in codimension >= 2."""
    hs = chart.spacings(shape)
    pts = chart.grid(shape)
    jac, hess = chart.jacobian(pts), chart.hessian(pts)
    k, n = chart.k, chart.n
    nk = n - k
    tangent = tangent_frames(jac)

    normal = np.empty(shape + (nk, n))
    cache = {}
    for idx, prev in staircase_indices(shape):
        b = _complete_normals(tangent[idx])
        if prev is not None:
            b = _procrustes_align(b, cache[prev])
        cache[idx] = b
        normal[idx] = b
    det = np.linalg.det(np.concatenate([tangent, normal], axis=-2))
    if det.max() - det.min() > 1.0:
        raise ImmersionError("normal-frame smoothing left an orientation seam")
    if det.flat[0] < 0:
        normal[..., -1, :] = -normal[..., -1, :]

    metric_inv = np.linalg.inv(np.einsum("...ia,...ib->...ab", jac, jac))
    wein = _weingarten_from_arrays(jac, hess, metric_inv, normal)

    def gtilde_of(nrm_field):
        gt = np.empty(shape + (k, nk, nk))
        for a in range(k):
            m = np.einsum("...di,...ei->...de", nrm_field, _diff_axis(nrm_field, a, hs[a]))
            gt[..., a, :, :] = 0.5 * (m - np.swapaxes(m, -1, -2))
        return gt

    gtilde = gtilde_of(normal)
    y = np.empty(shape + (nk, nk))
    for idx, prev in staircase_indices(shape):
        if prev is None:
            y[idx] = np.eye(nk)
            continue
        axis = 0 if idx[0] != prev[0] else len(shape) - 1
        mbar = 0.5 * (gtilde[prev][..., axis, :, :] + gtilde[idx][..., axis, :, :])
        y[idx] = so_exponential(-hs[axis] * mbar) @ y[prev]
    lam = np.swapaxes(y, -1, -2)
    normal = np.einsum("...de,...ei->...di", lam, normal)
    wein = np.einsum("...de,...eab->...dab", lam, wein)
    gtilde = gtilde_of(normal)

    proj = np.einsum("...ai,...ib->...ab", tangent, jac)
    return {"tangent": tangent, "normal": normal, "weingarten": wein,
            "mean_curvature": np.einsum("...daa->...d", wein), "gtilde": gtilde,
            "gtilde_residual": float(np.abs(gtilde).max()),
            "e_coeff": np.einsum("...gb,...ab->...ag", metric_inv, proj),
            "omega": finite_difference_omega(chart, shape)}


_S1, _S2, _S3, _T = sp.symbols("s1 s2 s3 t")


def surface_in_r5():
    """A quadric-cubic graph surface in R^5: codimension 3, curved normal bundle."""
    return ImmersionChart.from_sympy(
        "surface-r5", [_S1, _S2, _S1**2 / 2, 0.7 * _S1 * _S2, _S2**2 / 2 + 0.2 * _S1**3],
        [_S1, _S2], [(-0.7, 0.7), (-0.7, 0.7)])


@pytest.mark.parametrize("chart, shape", [
    (catalog_chart("clifford-torus-r4"), (33, 33)),
    (catalog_chart("clifford-torus-r4"), (65, 65)),
    (catalog_chart("helix-curve"), (257,)),  # its Procrustes steps include reflections
    (catalog_chart("helix-curve"), (513,)),
    (surface_in_r5(), (33, 33)),  # batched expm transport
], ids=["torus-33", "torus-65", "helix-257", "helix-513", "surface-r5-33"])
def test_matches_reference_loops(chart, shape):
    ff = build_frame_field(chart, shape=shape)
    expected = reference_frame_field(chart, shape)
    assert np.array_equal(ff.tangent, expected["tangent"])
    assert np.abs(ff.e_coeff - expected["e_coeff"]).max() <= 1e-14
    # the reference omega carries the O(h_fd^2) error of its central differences
    assert np.abs(ff.omega - expected["omega"]).max() <= 1e-7
    for name in ("normal", "weingarten", "mean_curvature", "gtilde", "gtilde_residual"):
        assert np.abs(getattr(ff, name) - expected[name]).max() <= 1e-12, name


@pytest.mark.parametrize("name", ["torus", "catenoid", "enneper"])
def test_exact_omega_matches_finite_differences(name):
    chart = catalog_chart(name)
    ff = build_frame_field(chart, shape=(65, 65))
    assert np.array_equal(ff.tangent, tangent_frames(ff.jac))
    assert np.abs(ff.omega - finite_difference_omega(chart, (65, 65))).max() <= 1e-7


@st.composite
def jacobian_stacks(draw):
    """Random (P, n, k) Jacobians, k <= 2 and k < n <= 6, sigma_min in 1e-10..1.

    The first point holds the smallest singular value of the stack; half of
    the draws put it within 1e-12 of the 1e-8 threshold.
    """
    k = draw(st.integers(1, 2))
    n = draw(st.integers(k + 1, 6))
    points = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        sigma_min = 1e-8 + draw(st.floats(-1e-12, 1e-12))
    else:
        sigma_min = 10.0 ** draw(st.floats(-10, 0))
    sigma = np.array([sigma_min, draw(st.floats(1, 3))])[:k]
    u = np.linalg.qr(rng.normal(size=(points, n, k)))[0]
    v = np.linalg.qr(rng.normal(size=(points, k, k)))[0]
    scale = np.ones(points)
    scale[1:] = rng.uniform(1.0, 2.0, size=points - 1)  # the other points stay clear
    return u * (sigma * scale[:, None])[:, None, :] @ np.swapaxes(v, -1, -2)


@settings(max_examples=200, deadline=None)
@given(jacobian_stacks())
def test_immersion_guard_matches_svd(jac):
    sigma_min = np.linalg.svd(jac, compute_uv=False)[..., -1].min()
    try:
        _tangent_frames(jac, "random")
        raised = False
    except ImmersionError as exc:
        assert str(exc) == "immersion condition violated on the grid of random"
        raised = True
    if abs(sigma_min - 1e-8) > 1e-14:
        assert raised == (sigma_min <= 1e-8)


@pytest.mark.parametrize("name, shape", [
    ("sphere", (17, 17)), ("clifford-torus-r4", (17, 17)), ("helix-curve", (33,)),
    ("circle-curve", (33,))])
def test_chart_is_evaluated_inside_its_rectangle(name, shape):
    chart = catalog_chart(name)
    outside = []

    def inside(fn):
        def evaluate(s):
            if not chart.contains(s):
                outside.append(fn.__name__)
            return fn(s)
        return evaluate

    wrapped = dataclasses.replace(chart, x=inside(chart.x), jacobian=inside(chart.jacobian),
                                  hessian=inside(chart.hessian))
    build_frame_field(wrapped, shape=shape)
    assert outside == []


def test_helix_steps_include_reflections():
    # the relative Procrustes chain multiplies on the right, which matters
    # only when some step is a reflection
    ff = build_frame_field(catalog_chart("helix-curve"), shape=(257,))
    b = _complete_normal_stack(ff.tangent)
    m = np.einsum("pdi,pei->pde", b[:-1], b[1:])
    u, _, vt = np.linalg.svd(m)
    assert (np.linalg.det(u @ vt) < 0).any()


@st.composite
def tangent_stacks(draw):
    """Random orthonormal (k, n) frames, k < n <= 6, some with spread normals.

    A unit normal whose entries are all at most 0.5 in size leaves every
    standard basis vector a residual at most 0.5, so the first pass finds
    no candidate and the completion needs the relaxed pass.
    """
    spread = draw(st.booleans())
    n = draw(st.integers(5 if spread else 2, 6))
    k = n - 1 if spread else draw(st.integers(1, n - 1))
    points = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = np.linalg.qr(rng.normal(size=(points, n, n)))[0]
    tangent = np.swapaxes(frames, -1, -2)[:, :k]
    if spread:
        nu = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.9, 1.0, size=n)
        basis = np.linalg.qr(np.column_stack([nu, rng.normal(size=(n, n - 1))]))[0]
        tangent[0] = basis[:, 1:].T
    return tangent


@settings(max_examples=60, deadline=None)
@given(tangent_stacks())
def test_grid_completion_matches_scalar(tangent):
    expected = np.stack([_complete_normals(t) for t in tangent])
    assert np.abs(_complete_normal_stack(tangent) - expected).max() <= 1e-14


def test_grid_completion_takes_the_relaxed_pass():
    n = 5
    nu = np.ones(n) / np.sqrt(n)
    spread = np.linalg.qr(np.column_stack([nu, np.eye(n)[:, 1:]]))[0][:, 1:].T
    tangent = np.stack([spread, np.eye(n)[:4], np.eye(n)[[4, 0, 2, 1]]])
    residuals = np.linalg.norm(np.eye(n) - spread.T @ spread, axis=-1)
    assert (residuals <= 0.5).all()  # the first pass accepts nothing
    expected = np.stack([_complete_normals(t) for t in tangent])
    assert np.abs(_complete_normal_stack(tangent) - expected).max() <= 1e-14


def test_grid_completion_failure_message():
    tangent = np.stack([np.eye(4)[:2], np.full((2, 4), np.nan)])
    with pytest.raises(ImmersionError) as scalar:
        _complete_normals(tangent[1])
    with pytest.raises(ImmersionError) as grid:
        _complete_normal_stack(tangent)
    assert str(grid.value) == str(scalar.value) == "could not complete the normal frame"


def test_orientation_seam_is_reported():
    # the tangent turns by nearly a half-turn per grid step, so Procrustes
    # keeps the normals while the tangent reverses
    omega = 8 * (np.pi - 0.3)
    chart = ImmersionChart.from_sympy(
        "fast-circle", [sp.cos(omega * _T), sp.sin(omega * _T), 0.1 * _T], [_T], [(0.0, 1.0)])
    with pytest.raises(ImmersionError) as grid:
        build_frame_field(chart, shape=(9,))
    with pytest.raises(ImmersionError) as loops:
        reference_frame_field(chart, (9,))
    assert str(grid.value) == str(loops.value) == "normal-frame smoothing left an orientation seam"


def test_three_axis_grid_rejected():
    chart = ImmersionChart.from_sympy(
        "solid-r5", [_S1, _S2, _S3, _S1 * _S2, _S2 * _S3], [_S1, _S2, _S3],
        [(0.0, 1.0)] * 3, grid_shape=(8, 8, 8))
    with pytest.raises(ValueError, match="curve and surface grids only"):
        build_frame_field(chart)
    with pytest.raises(ValueError, match="curve and surface grids only"):
        geometry._staircase_scan(np.zeros((8, 8, 8, 2, 2)), np.eye(2))


@pytest.mark.parametrize("name", ["clifford-torus-r4", "helix-curve"])
def test_grid_build_calls_no_pointwise_kernel(monkeypatch, name):
    def pointwise(*args):
        raise AssertionError("per-point kernel called from build_frame_field")

    monkeypatch.setattr(geometry, "_complete_normals", pointwise)
    monkeypatch.setattr(geometry, "_procrustes_align", pointwise)
    ff = build_frame_field(catalog_chart(name))
    assert np.isfinite(ff.normal).all()
