import numpy as np
import pytest
import sympy as sp
from test_dirac import ORACLE_CASES, oracle_frames, oracle_rep

from subdirac import weierstrass
from subdirac.dirac import (
    dirac_residual,
    frame_lift_coefficients,
    frame_lift_field,
    frame_spinor_fields,
    submanifold_dirac,
)
from subdirac.geometry import CATALOG, ImmersionChart, build_frame_field, catalog_chart
from subdirac.spinors import build_gamma_rep, primitive_spinor
from subdirac.weierstrass import (
    MisclassificationError,
    ReconstructionReport,
    frenet_serret_case,
    immersion_bilinear,
    immersion_bilinears,
    integrate_one_form,
    minimal_surface_crosscheck,
    plaquette_circulation,
    reconstruct_immersion,
    reconstruction_report,
)

S1, S2, T = sp.symbols("s1 s2 t")


# --- bilinears ---------------------------------------------------------------

def test_plane_bilinears():
    ff = build_frame_field(catalog_chart("plane"), shape=(9, 9))
    assert immersion_bilinear(ff, 0, 0, (4, 4)) == pytest.approx(1, abs=1e-13)
    assert immersion_bilinear(ff, 2, 0, (4, 4)) == pytest.approx(0, abs=1e-13)
    assert immersion_bilinear(ff, 2, 1, (4, 4)) == pytest.approx(0, abs=1e-13)


@pytest.mark.parametrize("name", ["sphere", "torus", "catenoid", "enneper",
                                  "clifford-torus-r4", "helix-curve", "circle-curve",
                                  "graph", "helicoid"])
def test_bilinear_equals_jacobian(name):
    ff = build_frame_field(catalog_chart(name))
    b = immersion_bilinears(ff)
    assert np.abs(b - ff.jac).max() < 1e-10


def reference_bilinears(frames, rep, taus):
    """The per-point einsum form that the gamma-table product replaced."""
    n, k = frames.chart.n, frames.chart.k
    prim = np.stack([primitive_spinor(np.eye(n)[i], rep).components for i in range(n)])
    psi = np.einsum("...cd,id->...ic", taus, prim)
    coeff = np.einsum("...ai,...ib->...ba", frames.tangent, frames.jac)
    mats = np.einsum("...ba,aij->...bij", coeff, np.stack(rep.gammas[:k]))
    return np.real(np.einsum("...ic,...bcd,...id->...ib", np.conj(psi), mats, psi))


def complex_bilinear_kernel(taus, tangent, jac, rep):
    """B^i_alpha from complex lifts taus (*grid, d, d): the stacked psi_i of
    every point through one product against the table of the tangent gammas,
    the kernel that the quadratic form of the blade coefficients replaced."""
    grid = taus.shape[:-2]
    n, k = jac.shape[-2:]
    d = rep.dim
    prim = np.stack([primitive_spinor(np.eye(n)[i], rep).components for i in range(n)])
    psi = (taus.reshape(-1, d) @ prim.T).reshape(grid + (d, n))
    psi = np.ascontiguousarray(np.swapaxes(psi, -1, -2)).reshape(-1, d)  # (P n, d)
    table = np.stack(rep.gammas[:k]).transpose(2, 0, 1).reshape(d, k * d)
    gamma_psi = (psi @ table).reshape(-1, k, d)
    w = np.einsum("pc,pac->pa", psi.view(float), gamma_psi.view(float))
    return w.reshape(grid + (n, k)) @ (tangent @ jac)


@pytest.mark.parametrize("kind", ["standard", "conjugated"])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_bilinears_match_einsum_reference(case, kind):
    frames = oracle_frames(case)
    rep = oracle_rep(frames.chart.n, kind)
    taus = frame_lift_field(frames, rep)
    b = immersion_bilinears(frames, rep, coeffs=frame_lift_coefficients(frames, rep))
    assert b.shape == frames.jac.shape
    assert np.abs(b - reference_bilinears(frames, rep, taus)).max() <= 1e-14
    complex_kernel = complex_bilinear_kernel(taus, frames.tangent, frames.jac, rep)
    assert np.abs(b - complex_kernel).max() <= 1e-14


@pytest.mark.parametrize("name, shape", [("sphere", (17, 17)),
                                         ("clifford-torus-r4", (17, 17)),
                                         ("helix-curve", (33,))])
def test_single_bilinear_matches_grid(name, shape):
    ff = build_frame_field(catalog_chart(name), shape=shape)
    b = immersion_bilinears(ff)
    n, k = ff.chart.n, ff.chart.k
    worst = 0.0
    for index in np.ndindex(*shape):
        negative = tuple(j - s for j, s in zip(index, shape))
        for i in range(n):
            for alpha in range(k):
                for idx in (index, negative):
                    worst = max(worst, abs(immersion_bilinear(ff, i, alpha, idx) - b[index][i, alpha]))
    assert worst <= 1e-14
    with pytest.raises(IndexError):
        immersion_bilinear(ff, 0, 0, shape)


def test_bilinear_zero_direction():
    ff = build_frame_field(catalog_chart("sphere"), shape=(17, 17))
    b = immersion_bilinears(ff)
    # linearity in the chart direction: contracting with a zero vector
    assert np.abs(b @ np.zeros(2)).max() == 0.0


# --- reconstruction ------------------------------------------------------------

def cumtrapz(values, h, axis):
    """Cumulative trapezoid along a grid axis, zero at the first slice."""
    values = np.moveaxis(values, axis, 0)
    out = np.zeros_like(values)
    out[1:] = np.cumsum(0.5 * h * (values[1:] + values[:-1]), axis=0)
    return np.moveaxis(out, 0, axis)


def integrate_one_form_oracle(b, spacings, anchor, reverse=False):
    """The staircase path integral as whole-axis cumulative trapezoids: along
    the first axis at the base slice, then along the second from that line."""
    k = b.shape[-1]
    if k == 1:
        return anchor + cumtrapz(b[..., 0], spacings[0], 0)
    first, second = (1, 0) if reverse else (0, 1)
    base_index = [slice(None), slice(None)]
    base_index[second] = slice(0, 1)
    line = cumtrapz(b[..., first], spacings[first], first)[tuple(base_index)]
    return anchor + line + cumtrapz(b[..., second], spacings[second], second)


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_integrate_one_form_matches_oracle(name, reverse):
    ff = build_frame_field(catalog_chart(name))
    b = immersion_bilinears(ff)
    anchor = ff.x[(0,) * ff.chart.k]
    expected = integrate_one_form_oracle(b, ff.spacings, anchor, reverse)
    assert np.abs(integrate_one_form(b, ff.spacings, anchor, reverse) - expected).max() <= 1e-14


@pytest.mark.parametrize("shape, count, match", [
    # the exact one-form of the linear map s -> a s on the unit cube at 9^3:
    # a staircase over the first two axes only is off by O(1)
    ((9, 9, 9), 3, "curve and surface grids only"),
    ((9, 9), 1, "one-form axes do not match the grid"),
    ((9, 9), 3, "one-form axes do not match the grid"),
], ids=["three-axis-grid", "one-spacing", "three-spacings"])
def test_integrate_one_form_rejects_bad_axes(shape, count, match):
    a = np.arange(4.0 * len(shape)).reshape(4, len(shape)) / 7
    b = np.broadcast_to(a, shape + a.shape)
    with pytest.raises(ValueError, match=match):
        integrate_one_form(b, [1.0 / 8] * count, np.zeros(4))


def test_plane_reconstruction_exact():
    ff = build_frame_field(catalog_chart("plane"), shape=(17, 17))
    coords, path_res = reconstruct_immersion(ff)
    assert np.abs(coords - ff.x).max() < 1e-13
    assert path_res < 1e-13


def test_sphere_reconstruction_refines_at_second_order():
    rep = reconstruction_report(catalog_chart("sphere"), shapes=((65, 65), (129, 129)))
    assert rep.bilinear_max_deviation < 1e-10
    assert 1.8 <= rep.convergence_order <= 2.2
    errs = rep.extras["errors_by_resolution"]
    assert errs[1] < errs[0] / 3.5  # halving h quarters the error
    paths = rep.extras["path_residuals"]
    order = np.log2(paths[0] / paths[1])
    assert 1.8 <= order <= 2.2


def test_plaquette_loops_are_discretization_level():
    # per-plaquette circulation of a sampled exact gradient is O(h^4);
    # accumulated over O(1/h^2) plaquettes this is the spec's O(h^2) bound
    for shape in [(33, 33), (65, 65)]:
        ff = build_frame_field(catalog_chart("torus"), shape=shape)
        loop = plaquette_circulation(immersion_bilinears(ff), ff.spacings)
        n_plaquettes = (shape[0] - 1) * (shape[1] - 1)
        assert loop * n_plaquettes < max(ff.spacings) ** 2


def test_path_tolerance_guard():
    ff = build_frame_field(catalog_chart("sphere"), shape=(17, 17))
    b = immersion_bilinears(ff)
    bad = b.copy()
    bad[..., 0] += np.sin(ff.points[..., 1])[..., None]  # non-closed 1-form
    with pytest.raises(ValueError):
        reconstruct_immersion(ff, bilinears=bad, path_tol=1e-6)


def test_gauge_invariance_under_ambient_rotation():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    exprs = [sp.sin(S1) * sp.cos(S2), sp.sin(S1) * sp.sin(S2), sp.cos(S1)]
    rotated = [sum(sp.Float(q[i, j], 17) * exprs[j] for j in range(3)) for i in range(3)]
    rect = catalog_chart("sphere").rectangle
    chart_r = ImmersionChart.from_sympy("sphere-rotated", rotated, [S1, S2], rect)
    ff = build_frame_field(catalog_chart("sphere"), shape=(33, 33))
    ff_r = build_frame_field(chart_r, shape=(33, 33))
    coords, _ = reconstruct_immersion(ff)
    coords_r, _ = reconstruct_immersion(ff_r)
    assert np.abs(coords_r - coords @ q.T).max() < 1e-11


# --- minimal surfaces ------------------------------------------------------------

@pytest.mark.parametrize("name", ["catenoid", "enneper", "helicoid"])
def test_minimal_surface_crosscheck(name):
    rep = minimal_surface_crosscheck(catalog_chart(name), shapes=((33, 33), (65, 65)))
    assert rep.extras["mean_curvature_max"] <= 1e-8
    assert rep.extras["operator_difference"] <= 1e-12
    assert 1.8 <= rep.convergence_order <= 2.2


def test_minimal_crosscheck_rejects_curved_chart():
    with pytest.raises(MisclassificationError):
        minimal_surface_crosscheck(catalog_chart("sphere"))


def test_minimal_crosscheck_builds_each_level_once(monkeypatch):
    shapes = []

    def counted(chart, shape=None, **kwargs):
        shapes.append(shape)
        return build_frame_field(chart, shape=shape, **kwargs)

    monkeypatch.setattr(weierstrass, "build_frame_field", counted)
    levels = ((33, 33), (65, 65))
    rep = minimal_surface_crosscheck(catalog_chart("catenoid"), shapes=levels)
    assert shapes == list(levels)
    assert rep.extras["errors_by_resolution"] == reconstruction_report(
        catalog_chart("catenoid"), levels).extras["errors_by_resolution"]
    shapes.clear()
    with pytest.raises(MisclassificationError):  # before any fine build
        minimal_surface_crosscheck(catalog_chart("sphere"), shapes=levels)
    assert shapes == [levels[0]]


# --- curves (Frenet-Serret case) ----------------------------------------------------

def test_straight_line_case():
    chart = ImmersionChart.from_sympy("line", [1 + 0.6 * T, -0.3 * T], [T],
                                      [(0.0, 3.0)], grid_shape=(129,))
    ff = build_frame_field(chart)
    assert np.abs(ff.mean_curvature).max() < 1e-12
    fields = frame_spinor_fields(ff)
    for f in fields:
        assert np.allclose(f.values, f.values[0], atol=1e-12)
    assert dirac_residual(submanifold_dirac(ff), fields[0]) < 1e-12
    coords, _ = reconstruct_immersion(ff)
    assert np.abs(coords - ff.x).max() < 1e-12


def test_circle_case():
    r = 1.4
    rep = frenet_serret_case(catalog_chart("circle-curve", r=r))
    assert 1.8 <= rep.convergence_order <= 2.2
    assert 1.8 <= rep.extras["kernel_order"] <= 2.2
    assert np.abs(rep.extras["curvature_norm"] - 1 / r).max() < 1e-6


def test_helix_case():
    a, b = 1.0, 0.5
    rep = frenet_serret_case(catalog_chart("helix-curve", a=a, b=b))
    kappa = a / (a**2 + b**2)
    assert 1.8 <= rep.convergence_order <= 2.2
    assert 1.8 <= rep.extras["kernel_order"] <= 2.2
    assert np.abs(rep.extras["curvature_norm"] - kappa).max() < 1e-6


def test_helix_curvature_components_rotate_at_torsion_rate():
    a, b = 1.0, 0.5
    chart = catalog_chart("helix-curve", a=a, b=b)
    ff = build_frame_field(chart, shape=(513,))
    kappa = a / (a**2 + b**2)
    torsion = b / (a**2 + b**2)
    speed = np.sqrt(a**2 + b**2)
    comps = ff.mean_curvature  # (N, 2): kappa (cos theta(s), sin theta(s)) pattern
    assert np.abs(np.linalg.norm(comps, axis=-1) - kappa).max() < 1e-6
    theta = np.unwrap(np.arctan2(comps[:, 1], comps[:, 0]))
    rate = np.gradient(theta, ff.axes[0])
    assert np.abs(np.abs(rate) - torsion * speed).max() < 1e-3


def test_frenet_case_requires_curve():
    with pytest.raises(ValueError):
        frenet_serret_case(catalog_chart("sphere"))


def test_report_nonnegativity_guard():
    with pytest.raises(ValueError):
        ReconstructionReport(np.array([-1.0]), 0.0, 2.0, 0.0)


def test_rep_conjugation_leaves_bilinears_invariant():
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep = build_gamma_rep(3)
    rep2 = rep.conjugated(q)
    ff = build_frame_field(catalog_chart("sphere"), shape=(17, 17))
    b1 = immersion_bilinears(ff, rep)
    b2 = immersion_bilinears(ff, rep2)
    assert np.abs(b1 - b2).max() < 1e-12
