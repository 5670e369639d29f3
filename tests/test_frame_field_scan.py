"""The batched frame kernels against the per-point loops.

The reference completes the normal frame point by point and aligns each
completion to its staircase predecessor by Procrustes, the way the grid
frame field used to be built.  It also keeps the slow forms of the
Gram-Schmidt quantities: e_coeff from the inverted metric, and omega
from central differences of the tangent frames at s +- h_fd.  The
closed-form immersion guard is checked against the SVD.  The pointwise
functions, one-point calls into the grid kernels, are checked against
the scalar per-point path they replaced and their exact normal
connection against central differences of the completed frame; the plane
kernels on a one-point grid against the pointwise functions.  Each guard
of the plane kernels (non-finite or nearly singular Jacobians,
uncompletable normal fields, singular alignment steps) is driven by
random inputs near its threshold and must raise its named error, never a
numpy warning.
"""

import dataclasses
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lift_field import staircase_indices

from subdirac import geometry
from subdirac.geometry import (
    CATALOG,
    ImmersionChart,
    ImmersionError,
    IntegrabilityError,
    _complete_normal_stack,
    _diff_axis,
    _tangent_frames,
    adapted_frames,
    build_frame_field,
    catalog_chart,
    weingarten,
)


def gram_schmidt_rows(vectors):
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


def weingarten_from_arrays(jac, hess, metric_inv, normal):
    """Gamma^beta_{adot alpha} = -(g^{-1})^{beta gamma} (b_adot . x_{gamma alpha})."""
    ii = np.einsum("...di,...iab->...dab", normal, hess)  # second fundamental form
    return -np.einsum("...bg,...dga->...dab", metric_inv, ii)


def complete_normals_with_pivots(tangent, threshold=0.5):
    """Gram-Schmidt completion with ascending standard basis vectors.

    Vectors whose residual after projecting out the span falls below the
    threshold are skipped; if the sweep comes up short the threshold is
    relaxed to the best remaining candidates.  Also returns the accepted
    basis indices in order of acceptance.
    """
    k, n = tangent.shape
    rows = list(tangent)
    normals, pivots = [], []
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
                pivots.append(j)
        if len(normals) == n - k:
            break
    if len(normals) != n - k:
        raise ImmersionError("could not complete the normal frame")
    return np.array(normals), np.array(pivots)


def complete_normals(tangent):
    return complete_normals_with_pivots(tangent)[0]


def procrustes_align(b_cur, b_ref):
    """Rotate/reflect the rows of b_cur within their span closest to b_ref.

    The full orthogonal group is allowed: the raw basis completion can land
    in either orientation from point to point, and smoothing must be free
    to undo that (a single global flip fixes the overall orientation later).
    """
    m = b_ref @ b_cur.T
    u, _, vt = np.linalg.svd(m)
    return (u @ vt) @ b_cur


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
    """The per-point loops of build_frame_field in codimension >= 2; in
    codimension 1 they reduce to sign alignment."""
    hs = chart.spacings(shape)
    pts = chart.grid(shape)
    jac, hess = chart.jacobian(pts), chart.hessian(pts)
    k, n = chart.k, chart.n
    nk = n - k
    tangent = tangent_frames(jac)

    normal = np.empty(shape + (nk, n))
    cache = {}
    for idx, prev in staircase_indices(shape):
        b = complete_normals(tangent[idx])
        if prev is not None:
            b = procrustes_align(b, cache[prev])
        cache[idx] = b
        normal[idx] = b
    det = np.linalg.det(np.concatenate([tangent, normal], axis=-2))
    if det.max() - det.min() > 1.0:
        raise ImmersionError("normal-frame smoothing left an orientation seam")
    if det.flat[0] < 0:
        normal[..., -1, :] = -normal[..., -1, :]

    metric_inv = np.linalg.inv(np.einsum("...ia,...ib->...ab", jac, jac))
    wein = weingarten_from_arrays(jac, hess, metric_inv, normal)

    gtilde = np.empty(shape + (k, nk, nk))
    for a in range(k):
        m = np.einsum("...di,...ei->...de", normal, _diff_axis(normal, a, hs[a]))
        gtilde[..., a, :, :] = 0.5 * (m - np.swapaxes(m, -1, -2))

    proj = np.einsum("...ai,...ib->...ab", tangent, jac)
    return {"tangent": tangent, "normal": normal, "weingarten": wein,
            "metric": np.einsum("...ia,...ib->...ab", jac, jac), "metric_inv": metric_inv,
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
    (surface_in_r5(), (33, 33)),  # codimension 3: stacked SVD polar factors
    (catalog_chart("sphere"), (65, 65)),  # cross-product normal, nothing to align
], ids=["torus-33", "torus-65", "helix-257", "helix-513", "surface-r5-33", "sphere-65"])
def test_matches_reference_loops(chart, shape):
    ff = build_frame_field(chart, shape=shape)
    expected = reference_frame_field(chart, shape)
    assert np.array_equal(ff.tangent, expected["tangent"])
    assert np.abs(ff.e_coeff - expected["e_coeff"]).max() <= 1e-14
    assert np.abs(ff.metric - expected["metric"]).max() <= 1e-12
    assert np.abs(ff.metric_inv - expected["metric_inv"]).max() <= 1e-12
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _tangent_frames(np.moveaxis(jac, 0, -1), "random")
        raised = False
    except ImmersionError as exc:
        assert str(exc) == "immersion condition violated on the grid of random"
        raised = True
    if abs(sigma_min - 1e-8) > 1e-14:
        assert raised == (sigma_min <= 1e-8)


NON_FINITE = [np.nan, np.inf, -np.inf]


@settings(max_examples=100, deadline=None)
@given(jacobian_stacks(), st.sampled_from(NON_FINITE), st.data())
def test_non_finite_jacobian_raises_immersion_error(jac, bad, data):
    points, n, k = jac.shape
    jac = jac.copy()
    jac[data.draw(st.integers(0, points - 1)), data.draw(st.integers(0, n - 1)),
        data.draw(st.integers(0, k - 1))] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImmersionError) as exc:
            _tangent_frames(np.moveaxis(jac, 0, -1), "random")
    assert str(exc.value) == "immersion condition violated on the grid of random"


@pytest.mark.parametrize("name, shape", [
    ("sphere", (17, 17)), ("clifford-torus-r4", (17, 17)), ("helix-curve", (33,)),
    ("circle-curve", (33,))])
def test_chart_is_evaluated_inside_its_rectangle(name, shape):
    chart = catalog_chart(name)
    outside = []

    def inside(fn):
        def evaluate(s, *order):
            if not chart.contains(s):
                outside.append(fn.__name__)
            return fn(s, *order)
        return evaluate

    wrapped = dataclasses.replace(chart, jet=inside(chart.jet))
    build_frame_field(wrapped, shape=shape)
    assert outside == []


def test_helix_steps_include_reflections():
    # the relative Procrustes chain multiplies on the right, which matters
    # only when some step is a reflection
    ff = build_frame_field(catalog_chart("helix-curve"), shape=(257,))
    b = np.moveaxis(_complete_normal_stack(np.moveaxis(ff.tangent, 0, -1))[0], -1, 0)
    m = np.einsum("pdi,pei->pde", b[:-1], b[1:])
    u, _, vt = np.linalg.svd(m)
    assert (np.linalg.det(u @ vt) < 0).any()


@st.composite
def alignment_steps(draw):
    """Random (P, 2, 2) matrices, both signs of det, singular values 1e-3..1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = draw(st.integers(1, 6))
    u = np.linalg.qr(rng.normal(size=(points, 2, 2)))[0]
    v = np.linalg.qr(rng.normal(size=(points, 2, 2)))[0]
    sigma = np.stack([rng.uniform(0.5, 1.0, points), 10.0 ** rng.uniform(-3, 0, points)], -1)
    return u * sigma[:, None, :] @ np.swapaxes(v, -1, -2)


@settings(max_examples=200, deadline=None)
@given(alignment_steps())
def test_closed_form_polar_factor_matches_svd(m):
    u, _, vt = np.linalg.svd(m)
    got = np.moveaxis(geometry._polar_factor(np.moveaxis(m, 0, -1)), -1, 0)
    assert np.abs(got - u @ vt).max() <= 1e-14
    assert np.array_equal(np.sign(np.linalg.det(got)), np.sign(np.linalg.det(m)))


@st.composite
def near_singular_alignment_steps(draw):
    """Step planes (2, 2, P) from alignment_steps with one point changed: its
    |det| within 1e-12 of the 1e-8 guard (either side), or one entry
    non-finite.  The other points stay clear of the guard."""
    m = np.moveaxis(draw(alignment_steps()), 0, -1).copy()
    point = draw(st.integers(0, m.shape[-1] - 1))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        u, v = np.linalg.qr(rng.normal(size=(2, 2, 2)))[0]
        first = rng.uniform(0.5, 1.0)
        sigma = np.array([first, (1e-8 + draw(st.floats(-1e-12, 1e-12))) / first])
        m[..., point] = u * sigma @ v.T
    else:
        m[draw(st.integers(0, 1)), draw(st.integers(0, 1)), point] = draw(
            st.sampled_from(NON_FINITE))
    return m


@settings(max_examples=200, deadline=None)
@given(near_singular_alignment_steps())
def test_singular_alignment_guard(m):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geometry._polar_factor(m)
        raised = False
    except ImmersionError as exc:
        assert str(exc) == "normal-frame smoothing met a singular alignment step"
        raised = True
    if not np.isfinite(m).all():
        assert raised
        return
    det = np.abs(np.linalg.det(np.moveaxis(m, -1, 0)))
    if np.abs(det - 1e-8).min() > 1e-14:
        assert raised == (det <= 1e-8).any()
    if not raised:
        got = np.moveaxis(got, -1, 0)
        assert np.abs(got @ np.swapaxes(got, -1, -2) - np.eye(2)).max() <= 1e-14


def test_singular_alignment_step_raises():
    eye = np.eye(2)
    for bad in (np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2)),
                np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ImmersionError,
                               match="normal-frame smoothing met a singular alignment step"):
                geometry._polar_factor(np.stack([eye, bad], axis=-1))
    # a plane circle in R^3 whose tangent turns a quarter per grid step: the
    # normal planes of neighbours meet at a right angle, det b(prev) b(s)^T = 0
    circle = ImmersionChart.from_callable(
        "quarter-turn-circle",
        lambda s: np.stack([np.cos(4 * np.pi * s[..., 0]), np.sin(4 * np.pi * s[..., 0]),
                            0 * s[..., 0]], axis=-1), 1, 3, [(0.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImmersionError, match="singular alignment step"):
            build_frame_field(circle, shape=(9,))


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
    expected = [complete_normals_with_pivots(t) for t in tangent]
    b, pivots = _complete_normal_stack(np.moveaxis(tangent, 0, -1))
    assert np.abs(np.moveaxis(b, -1, 0) - np.stack([e[0] for e in expected])).max() <= 1e-14
    assert np.array_equal(pivots.T, np.stack([e[1] for e in expected]))


def test_grid_completion_takes_the_relaxed_pass():
    n = 5
    nu = np.ones(n) / np.sqrt(n)
    spread = np.linalg.qr(np.column_stack([nu, np.eye(n)[:, 1:]]))[0][:, 1:].T
    tangent = np.stack([spread, np.eye(n)[:4], np.eye(n)[[4, 0, 2, 1]]])
    residuals = np.linalg.norm(np.eye(n) - spread.T @ spread, axis=-1)
    assert (residuals <= 0.5).all()  # the first pass accepts nothing
    expected = np.stack([complete_normals(t) for t in tangent])
    got = np.moveaxis(_complete_normal_stack(np.moveaxis(tangent, 0, -1))[0], -1, 0)
    assert np.abs(got - expected).max() <= 1e-14


@st.composite
def uncompletable_stacks(draw):
    """Random orthonormal codimension-2 tangent planes (k, k + 2, P), k <= 2,
    with one entry at one point made non-finite."""
    k = draw(st.integers(1, 2))
    n, points = k + 2, draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = np.linalg.qr(rng.normal(size=(points, n, n)))[0]
    tangent = np.moveaxis(np.swapaxes(frames, -1, -2)[:, :k], 0, -1).copy()
    tangent[draw(st.integers(0, k - 1)), draw(st.integers(0, n - 1)),
            draw(st.integers(0, points - 1))] = draw(st.sampled_from(NON_FINITE))
    return tangent


@settings(max_examples=100, deadline=None)
@given(uncompletable_stacks())
def test_uncompletable_normal_field_raises(tangent):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImmersionError) as exc:
            geometry._raw_normals(tangent)
    assert str(exc.value) == "could not complete the normal frame"


def test_grid_completion_failure_message():
    tangent = np.stack([np.eye(4)[:2], np.full((2, 4), np.nan)])
    with pytest.raises(ImmersionError) as scalar:
        complete_normals(tangent[1])
    with pytest.raises(ImmersionError) as grid:
        _complete_normal_stack(np.moveaxis(tangent, 0, -1))
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


def solid_in_r5():
    return ImmersionChart.from_sympy(
        "solid-r5", [_S1, _S2, _S3, _S1 * _S2, _S2 * _S3], [_S1, _S2, _S3],
        [(0.0, 1.0)] * 3, grid_shape=(8, 8, 8))


@pytest.mark.parametrize("chart, raises", [(surface_in_r5(), True),  # residual about 0.96
                                           (catalog_chart("clifford-torus-r4"), False)],
                         ids=["surface-r5", "clifford-torus-r4"])
def test_integrability_tolerance(chart, raises):
    # codimension 3 leaves the curved normal bundle's connection in place;
    # the Clifford torus's normal bundle is flat
    if raises:
        with pytest.raises(IntegrabilityError, match="normal connection residual"):
            build_frame_field(chart, shape=(33, 33), integrability_tol=0.5)
    else:
        ff = build_frame_field(chart, shape=(33, 33), integrability_tol=0.5)
        assert ff.gtilde_residual <= 1e-12


def test_three_axis_grid_rejected():
    chart = solid_in_r5()
    with pytest.raises(ValueError, match="curve and surface grids only"):
        build_frame_field(chart)
    with pytest.raises(ValueError, match="curve and surface grids only"):
        geometry._staircase_scan(np.zeros((8, 8, 8, 2, 2)), np.eye(2))


def test_pointwise_rejects_three_parameters():
    chart = solid_in_r5()
    s = np.array([0.3, 0.4, 0.5])
    with pytest.raises(ValueError, match="curve and surface grids only"):
        adapted_frames(chart, s)
    with pytest.raises(ValueError, match="curve and surface grids only"):
        _tangent_frames(chart.jacobian(s), chart.name)


# --- pointwise functions: one-point calls into the grid kernels ----------------

def scalar_point_frame(chart, s):
    """The per-point frame path: SVD guard, row Gram-Schmidt, completion, det +1."""
    jac = chart.jacobian(s)
    if np.linalg.svd(jac, compute_uv=False)[-1] <= 1e-8:
        raise ImmersionError(f"immersion condition violated at s={s}")
    tangent = gram_schmidt_rows(jac.T)
    normal, pivots = complete_normals_with_pivots(tangent)
    if np.linalg.det(np.vstack([tangent, normal])) < 0:
        normal[-1] = -normal[-1]
    return tangent, normal, pivots


def seeded_points(chart, count, seed):
    rng = np.random.default_rng(seed)
    return [np.array([lo + (hi - lo) * rng.uniform(0.1, 0.9) for lo, hi in chart.rectangle])
            for _ in range(count)]


POINTWISE_CHARTS = sorted(CATALOG) + ["surface-r5"]


def pointwise_chart(name):
    return surface_in_r5() if name == "surface-r5" else catalog_chart(name)


@pytest.mark.parametrize("name", POINTWISE_CHARTS)
def test_pointwise_matches_scalar_path(name):
    chart = pointwise_chart(name)
    for s in seeded_points(chart, 4, seed=11):
        tangent, normal, _ = scalar_point_frame(chart, s)
        fr = adapted_frames(chart, s)
        assert np.abs(fr.tangent - tangent).max() <= 1e-14
        assert np.abs(fr.normal - normal).max() <= 1e-14
        jac, hess = chart.jacobian(s), chart.hessian(s)
        gamma = weingarten_from_arrays(jac, hess, np.linalg.inv(jac.T @ jac), normal)
        got, _, mean = weingarten(chart, s, fr)
        assert np.abs(got - gamma).max() <= 1e-12
        assert np.abs(mean - np.einsum("daa->d", gamma)).max() <= 1e-12


@pytest.mark.parametrize("name", POINTWISE_CHARTS)
def test_one_point_grid_matches_pointwise(name):
    """The plane kernels on a one-point grid (planes with a trailing axis of
    length 1) give what adapted_frames and weingarten give at that point."""
    chart = pointwise_chart(name)
    for s in seeded_points(chart, 3, seed=17):
        _, jac, hess = chart.derivatives(s[None])
        jac, hess = np.moveaxis(jac, 0, -1), np.moveaxis(hess, 0, -1)
        tangent, r = _tangent_frames(jac, chart.name)
        normal, pivots = geometry._raw_normals(tangent)
        if pivots is not None and geometry._plane_det(np.concatenate([tangent, normal]))[0] < 0:
            normal[-1] = -normal[-1]
        fr = adapted_frames(chart, s)
        assert np.array_equal(tangent[..., 0], fr.tangent)
        assert np.array_equal(normal[..., 0], fr.normal)
        gamma = geometry._weingarten_planes(hess, geometry._r_inverse(r)[1], normal)[..., 0]
        expected, _, mean = weingarten(chart, s, fr)
        assert np.abs(gamma - expected).max() <= 1e-12
        assert np.abs(np.einsum("daa->d", gamma) - mean).max() <= 1e-12


@pytest.mark.parametrize("name", ["surface-r5", "helix-curve"])
def test_pointwise_normal_connection_matches_central_difference(name):
    """Gammatilde_alpha = b d_alpha(b)^T of the completion, in the caller's frame."""
    chart = pointwise_chart(name)
    k, nk = chart.k, chart.n - chart.k
    h = 1e-5
    rng = np.random.default_rng(5)
    for s in seeded_points(chart, 4, seed=3):
        _, b, pivots = scalar_point_frame(chart, s)
        expected = np.empty((k, nk, nk))
        for a in range(k):
            e = h * np.eye(k)[a]
            _, b_plus, pivots_plus = scalar_point_frame(chart, s + e)
            _, b_minus, pivots_minus = scalar_point_frame(chart, s - e)
            assert np.array_equal(pivots_plus, pivots) and np.array_equal(pivots_minus, pivots)
            expected[a] = b @ ((b_plus - b_minus) / (2 * h)).T
        assert np.abs(expected).max() > 0.01  # the completion does rotate here
        fr = adapted_frames(chart, s)
        _, gtilde, _ = weingarten(chart, s, fr)
        assert np.abs(gtilde - expected).max() <= 1e-8
        # a constant rotation of the caller's normal frame conjugates it
        lam = np.linalg.qr(rng.normal(size=(nk, nk)))[0]
        turned = dataclasses.replace(fr, normal=lam @ fr.normal)
        _, gtilde_turned, _ = weingarten(chart, s, turned)
        assert np.abs(gtilde_turned - lam @ expected @ lam.T).max() <= 1e-8


@pytest.mark.parametrize("name", ["clifford-torus-r4", "helix-curve"])
def test_grid_build_calls_no_pointwise_kernel(monkeypatch, name):
    def pointwise(*args):
        raise AssertionError("one-point kernel called from build_frame_field")

    monkeypatch.setattr(geometry, "_point_frame", pointwise)
    monkeypatch.setattr(geometry, "_point_weingarten", pointwise)
    ff = build_frame_field(catalog_chart(name))
    assert np.isfinite(ff.normal).all()
