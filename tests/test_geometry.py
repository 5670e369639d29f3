import warnings

import numpy as np
import pytest
import sympy as sp

from subdirac.geometry import (
    CATALOG,
    FocalDistanceError,
    ImmersionChart,
    ImmersionError,
    adapted_frames,
    build_frame_field,
    catalog_chart,
    induced_metric,
    parallel_normal_frame,
    rho,
    tubular_metric,
    weingarten,
)

S1, S2, T = sp.symbols("s1 s2 t")


def mid(chart):
    return np.array([(lo + hi) / 2 for lo, hi in chart.rectangle])


# --- metric ------------------------------------------------------------------

def test_plane_metric_identity():
    chart = catalog_chart("plane")
    assert np.allclose(induced_metric(chart, [0.3, 0.4]), np.eye(2), atol=1e-14)


def test_sphere_metric_analytic():
    r = 1.3
    chart = catalog_chart("sphere", r=r)
    th, ph = 1.1, 2.0
    g = induced_metric(chart, [th, ph])
    assert np.allclose(g, np.diag([r**2, r**2 * np.sin(th) ** 2]), atol=1e-12)


def test_metric_scaling():
    chart = catalog_chart("enneper")
    lam = 2.5
    scaled = ImmersionChart.from_sympy(
        "scaled", [lam * e for e in [S1 - S1**3 / 3 + S1 * S2**2,
                                     -S2 + S2**3 / 3 - S2 * S1**2,
                                     S1**2 - S2**2]],
        [S1, S2], chart.rectangle)
    s = [0.2, -0.3]
    assert np.allclose(induced_metric(scaled, s), lam**2 * induced_metric(chart, s), atol=1e-12)


def test_metric_outside_rectangle_rejected():
    with pytest.raises(ValueError):
        induced_metric(catalog_chart("plane"), [2.0, 0.5])


# --- frames ------------------------------------------------------------------

def test_plane_frames_standard():
    fr = adapted_frames(catalog_chart("plane"), [0.2, 0.7])
    assert np.allclose(fr.tangent, np.eye(3)[:2], atol=1e-14)
    assert np.allclose(np.abs(fr.normal), np.eye(3)[2:], atol=1e-14)
    assert np.linalg.det(fr.rotation) == pytest.approx(1)


def test_sphere_normal_is_radial():
    chart = catalog_chart("sphere")
    s = np.array([1.0, 2.2])
    fr = adapted_frames(chart, s)
    radial = chart.x(s) / np.linalg.norm(chart.x(s))
    assert min(np.abs(fr.normal[0] - radial).max(),
               np.abs(fr.normal[0] + radial).max()) < 1e-12


def test_graph_critical_point_normal():
    fr = adapted_frames(catalog_chart("graph"), [0.0, 0.0])
    assert np.allclose(fr.normal[0], [0, 0, 1], atol=1e-12)


def test_frames_orthonormal_and_special_orthogonal_on_grid():
    for name in ("sphere", "torus", "clifford-torus-r4", "helix-curve"):
        ff = build_frame_field(catalog_chart(name), shape=None)
        rot = ff.frame_rotation
        n = rot.shape[-1]
        ident = np.einsum("...ij,...kj->...ik", rot, rot)
        assert np.abs(ident - np.eye(n)).max() < 1e-10
        assert np.abs(np.linalg.det(rot) - 1).max() < 1e-10


def test_rank_deficient_chart_rejected():
    bad = ImmersionChart.from_sympy("bad", [S1, S1, 0 * S2], [S1, S2], [(0, 1), (0, 1)])
    with pytest.raises(ImmersionError):
        adapted_frames(bad, [0.5, 0.5])


# --- weingarten --------------------------------------------------------------

def test_plane_weingarten_zero():
    chart = catalog_chart("plane")
    fr = adapted_frames(chart, [0.5, 0.5])
    gamma, gtilde, mean = weingarten(chart, [0.5, 0.5], fr)
    assert np.abs(gamma).max() < 1e-12
    assert np.abs(gtilde).max() < 1e-10
    assert np.abs(mean).max() < 1e-12


def test_sphere_mean_curvature():
    r = 1.7
    chart = catalog_chart("sphere", r=r)
    s = np.array([1.2, 0.8])
    fr = adapted_frames(chart, s)
    gamma, _, mean = weingarten(chart, s, fr)
    # outward normal: trace of the shape operator is 2/r
    assert mean[0] == pytest.approx(2 / r, abs=1e-10)
    # shape operator is identity/r in mixed indices
    assert np.allclose(gamma[0], np.eye(2) / r, atol=1e-10)


@pytest.mark.parametrize("name", ["catenoid", "enneper", "helicoid"])
def test_minimal_surfaces_have_zero_mean_curvature(name):
    ff = build_frame_field(catalog_chart(name))
    assert np.abs(ff.mean_curvature).max() < 1e-8


def test_trace_relation_on_grids():
    for name in ("sphere", "torus", "clifford-torus-r4"):
        ff = build_frame_field(catalog_chart(name))
        tr = np.einsum("...daa->...d", ff.weingarten)
        assert np.abs(tr - ff.mean_curvature).max() < 1e-13


def test_circle_curvature_magnitude():
    ff = build_frame_field(catalog_chart("circle-curve", r=2.0))
    assert np.abs(np.abs(ff.mean_curvature) - 0.5).max() < 1e-10


# --- parallel normal frames ----------------------------------------------------

def test_parallel_frame_plane_trivial():
    ff = parallel_normal_frame(catalog_chart("plane"))
    assert ff.gtilde_residual < 1e-12


def test_parallel_frame_flattens_normal_connection():
    for name, shapes in [("clifford-torus-r4", [(17, 17), (33, 33)]),
                         ("helix-curve", [(129,), (257,)])]:
        residuals = []
        for shape in shapes:
            ff = build_frame_field(catalog_chart(name), shape=shape)
            residuals.append(ff.gtilde_residual)
        # refinement: residual drops at roughly second order
        assert residuals[1] < residuals[0] / 2.5 + 1e-14


def test_helix_parallel_frame_rotates_at_torsion_rate():
    a, b = 1.0, 0.5
    chart = catalog_chart("helix-curve", a=a, b=b)
    ff = build_frame_field(chart, shape=(513,))
    t = ff.axes[0]
    speed = np.sqrt(a**2 + b**2)
    torsion = b / (a**2 + b**2)
    # Frenet normal/binormal of the helix
    n_f = np.stack([-np.cos(t), -np.sin(t), np.zeros_like(t)], axis=-1)
    tangent = ff.tangent[:, 0, :]
    b_f = np.cross(tangent, n_f)
    theta = np.unwrap(np.arctan2(np.einsum("si,si->s", ff.normal[:, 0, :], b_f),
                                 np.einsum("si,si->s", ff.normal[:, 0, :], n_f)))
    dtheta = np.gradient(theta, t)
    # angle advances linearly at arclength-rate torsion: dtheta/dt = -tau * |x'|
    assert np.abs(np.abs(dtheta) - torsion * speed).max() < 1e-3
    assert np.std(dtheta) < 1e-3


# --- tubular metric and rho ------------------------------------------------------

def test_tubular_metric_at_zero_is_induced():
    chart = catalog_chart("torus")
    s = mid(chart)
    assert np.allclose(tubular_metric(chart, s, [0.0]), induced_metric(chart, s), atol=1e-14)


def test_tubular_metric_plane_independent_of_q():
    chart = catalog_chart("plane")
    s = [0.3, 0.6]
    for q in (-0.2, 0.0, 0.4):
        assert np.allclose(tubular_metric(chart, s, [q]), np.eye(2), atol=1e-13)


def test_tubular_metric_sphere_offset_exact():
    r = 1.0
    chart = catalog_chart("sphere", r=r)
    th = 1.3
    s = np.array([th, 2.5])
    q = 0.2
    g_q = tubular_metric(chart, s, [q])
    expected = np.diag([(r + q) ** 2, (r + q) ** 2 * np.sin(th) ** 2])
    assert np.allclose(g_q, expected, atol=1e-10)


def test_rho_sphere_closed_form():
    r = 1.0
    chart = catalog_chart("sphere", r=r)
    s = np.array([0.9, 1.4])
    for q in (-0.15, 0.1, 0.3):
        assert rho(chart, s, [q]) == pytest.approx(((r + q) / r) ** 4, abs=1e-10)


@pytest.mark.parametrize("name", ["sphere", "torus", "helix-curve"])
def test_rho_on_tube_matches_determinant(name):
    chart = catalog_chart(name)
    ff = build_frame_field(chart)
    nk = chart.n - chart.k
    for q in (np.full(nk, 0.2), np.linspace(-0.3, 0.25, nk), np.zeros(nk)):
        qg = np.einsum("d,...dab->...ab", q, ff.weingarten)
        expected = np.linalg.det(np.eye(chart.k) + qg) ** 2
        assert np.abs(ff.rho_on_tube(q) / expected - 1).max() <= 1e-14


def test_rho_at_zero_is_one():
    for name in ("sphere", "torus", "enneper"):
        chart = catalog_chart(name)
        assert rho(chart, mid(chart), np.zeros(chart.n - chart.k)) == pytest.approx(1)


def test_rho_derivative_matches_mean_curvature():
    rng = np.random.default_rng(1)
    delta = 1e-5
    for name in ("sphere", "torus", "graph", "catenoid", "circle-curve"):
        chart = catalog_chart(name)
        for _ in range(5):
            s = np.array([lo + (hi - lo) * rng.uniform(0.1, 0.9)
                          for lo, hi in chart.rectangle])
            fr = adapted_frames(chart, s)
            gamma, _, mean = weingarten(chart, s, fr)
            for d in range(chart.n - chart.k):
                q = np.zeros(chart.n - chart.k)
                q[d] = delta
                drho = (np.sqrt(rho(chart, s, q, gamma=gamma))
                        - np.sqrt(rho(chart, s, -q, gamma=gamma))) / (2 * delta)
                assert abs(drho - mean[d]) < 1e-6


def test_rho_invariant_under_constant_normal_rotation():
    chart = catalog_chart("clifford-torus-r4")
    s = mid(chart)
    fr = adapted_frames(chart, s)
    gamma, _, _ = weingarten(chart, s, fr)
    th = 0.7
    lam = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    gamma_rot = np.einsum("de,eab->dab", lam, gamma)
    q = np.array([0.05, -0.03])
    assert rho(chart, s, lam @ q, gamma=gamma_rot) == pytest.approx(
        rho(chart, s, q, gamma=gamma), abs=1e-12)


def test_focal_distance_guard():
    chart = catalog_chart("sphere", r=1.0)
    with pytest.raises(FocalDistanceError):
        tubular_metric(chart, mid(chart), [-1.0])  # offset through the center


def test_tubular_metric_matches_offset_surface_oracle():
    # independent route: numerically differentiate the offset immersion
    # x + q^d b_d(s) built from the parallel frame field and form its metric;
    # the closed-form expansion must agree up to the FD truncation error
    chart = catalog_chart("clifford-torus-r4")
    q = np.array([0.08, -0.05])
    errors = []
    for shape in [(33, 33), (65, 65)]:
        ff = build_frame_field(chart, shape=shape)
        offset = ff.x + np.einsum("d,...di->...i", q, ff.normal)
        h1, h2 = ff.spacings
        du = (offset[2:, 1:-1] - offset[:-2, 1:-1]) / (2 * h1)
        dv = (offset[1:-1, 2:] - offset[1:-1, :-2]) / (2 * h2)
        jac_off = np.stack([du, dv], axis=-1)
        g_oracle = np.einsum("...ia,...ib->...ab", jac_off, jac_off)
        qg = np.einsum("d,...dab->...ab", q, ff.weingarten[1:-1, 1:-1])
        g = ff.metric[1:-1, 1:-1]
        qgt = np.swapaxes(qg, -1, -2)
        g_formula = g + qg @ g + g @ qgt + qg @ g @ qgt
        errors.append(np.abs(g_oracle - g_formula).max())
    assert errors[0] < 1e-2
    assert errors[1] < errors[0] / 3  # pure FD truncation: second order


def test_tubular_metric_first_order_bracket():
    # d/dq of the offset metric at q = 0 equals Gamma.g + g.Gamma^T
    delta = 1e-6
    for name in ("torus", "graph", "clifford-torus-r4"):
        chart = catalog_chart(name)
        s = mid(chart) + 0.05
        fr = adapted_frames(chart, s)
        gamma, _, _ = weingarten(chart, s, fr)
        g = induced_metric(chart, s)
        for d in range(chart.n - chart.k):
            q = np.zeros(chart.n - chart.k)
            q[d] = delta
            slope = (tubular_metric(chart, s, q, gamma=gamma)
                     - tubular_metric(chart, s, -q, gamma=gamma)) / (2 * delta)
            bracket = gamma[d] @ g + g @ gamma[d].T
            assert np.abs(slope - bracket).max() < 1e-6


# --- spin connection coefficients --------------------------------------------------

def test_omega_antisymmetry():
    for name in ("sphere", "torus", "enneper"):
        ff = build_frame_field(catalog_chart(name))
        assert np.abs(ff.omega + np.swapaxes(ff.omega, -1, -2)).max() < 1e-12


def test_sphere_omega_analytic():
    chart = catalog_chart("sphere", r=1.0)
    ff = build_frame_field(chart, shape=(33, 33))
    th = ff.points[..., 0]
    # omega[phi-axis, theta, phi] = e_theta . d_phi e_phi = -cos(theta)
    assert np.abs(ff.omega[..., 1, 0, 1] + np.cos(th)).max() < 1e-13
    # the theta-direction connection vanishes in this frame
    assert np.abs(ff.omega[..., 0, :, :]).max() < 1e-13


@pytest.mark.parametrize("name", ["torus", "sphere", "enneper"])
def test_omega_matches_christoffel_formula(name):
    # omega_{a,b,c} = e_b . d_a e_c equals
    # (d_a e_c^beta) e_{b beta} + e_c^beta Gamma^delta_{beta a} e_{b delta}
    # with Christoffels of the induced metric; local central differences.
    chart = catalog_chart(name)
    s = mid(chart) + 0.1
    h = 1e-5

    def frames_and_coeffs(sv):
        jac = chart.jacobian(sv)
        g = jac.T @ jac
        tang = np.empty((2, 3))
        w = jac[:, 0].copy()
        tang[0] = w / np.linalg.norm(w)
        w = jac[:, 1] - (tang[0] @ jac[:, 1]) * tang[0]
        tang[1] = w / np.linalg.norm(w)
        coeff = np.linalg.inv(g) @ (tang @ jac).T  # e_c^gamma indexed [gamma, c]
        return tang, coeff

    jac = chart.jacobian(s)
    hess = chart.hessian(s)
    ginv = np.linalg.inv(jac.T @ jac)
    tang, coeff = frames_and_coeffs(s)
    e_cov = tang @ jac  # e_{b beta}
    # lowered Christoffels in flat ambient: Gamma_{gamma beta alpha} = x_gamma . x_{beta alpha}
    low = np.einsum("ig,iba->gba", jac, hess)
    chris = np.einsum("dg,gba->dba", ginv, low)  # Gamma^delta_{beta alpha}

    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        tp, cp = frames_and_coeffs(s + e)
        tm, cm = frames_and_coeffs(s - e)
        omega_a = np.einsum("bi,ci->bc", tang, (tp - tm) / (2 * h))
        dcoeff = (cp - cm) / (2 * h)  # d_a e_c^beta indexed [beta, c]
        rhs = np.einsum("gc,bg->bc", dcoeff, e_cov) + np.einsum(
            "gc,dg,bd->bc", coeff, chris[:, :, a], e_cov)
        assert np.abs(omega_a - rhs).max() < 1e-6


# --- immersion condition on grids ----------------------------------------------------

def test_all_catalog_charts_build():
    for name in CATALOG:
        ff = build_frame_field(catalog_chart(name), shape=None)
        assert np.isfinite(ff.mean_curvature).all()
        assert ff.gtilde_residual < 5e-2


def test_degenerate_grid_raises_before_dividing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ImmersionError) as exc:
            build_frame_field(catalog_chart("sphere", r=0.0), shape=(9, 9))
    assert str(exc.value) == "immersion condition violated on the grid of sphere"


@pytest.mark.parametrize("name, shape", [
    ("sphere", (33, 33, 33)), ("sphere", (33,)), ("helix-curve", (33, 33))])
def test_grid_shape_needs_one_entry_per_parameter(name, shape):
    chart = catalog_chart(name)
    for build in (chart.axes, chart.grid, chart.spacings,
                  lambda shape: build_frame_field(chart, shape)):
        with pytest.raises(ValueError, match="rectangle/grid must have one entry per parameter"):
            build(shape)
