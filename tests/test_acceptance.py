"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
Tolerances are fixed here, not calibrated elsewhere.
"""

import numpy as np
import pytest

from subdirac.clifford import Multivector, reversion
from subdirac.dirac import (
    dirac_residual,
    frame_spinor_fields,
    intrinsic_dirac,
    pointwise_pairings,
    selfadjointization_check,
    submanifold_dirac,
)
from subdirac.geometry import adapted_frames, build_frame_field, catalog_chart, rho, weingarten
from subdirac.reciprocity import check_reciprocity, recover_embedding, reference_intertwiner
from subdirac.spinors import (
    Spinor,
    build_gamma_rep,
    primitive_spinor,
    recover_rotation,
    spin_lift,
    spinor_dim,
    vector_pairing,
)
from subdirac.weierstrass import frenet_serret_case, immersion_bilinears, reconstruction_report


def announce(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def random_so(rng, m):
    q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_spinor(rng, m):
    d = spinor_dim(m)
    return Spinor(m, rng.normal(size=d) + 1j * rng.normal(size=d))


def max_kernel_residual(chart, shape, rep=None, with_mean=True):
    ff = build_frame_field(chart, shape=shape)
    op = submanifold_dirac(ff, rep) if with_mean else intrinsic_dirac(ff, rep)
    return max(dirac_residual(op, f) for f in frame_spinor_fields(ff, rep))


def test_criterion_1_clifford_identities():
    rng = np.random.default_rng(101)
    exact_ok = True
    for m in range(1, 7):
        for i in range(1, m + 1):
            ei = Multivector.basis_vector(m, i)
            exact_ok &= (ei * ei) == Multivector.scalar(1, m)
            for j in range(i + 1, m + 1):
                ej = Multivector.basis_vector(m, j)
                exact_ok &= (ei * ej) == -(ej * ei)
    # integer inputs stay exact
    for _ in range(200):
        m = int(rng.integers(1, 7))
        mk = lambda: Multivector(m, {int(rng.integers(0, 1 << m)): int(rng.integers(-3, 4))
                                     for _ in range(4)})
        a, b, c = mk(), mk(), mk()
        exact_ok &= ((a * b) * c) == (a * (b * c))
        exact_ok &= reversion(a * b) == reversion(b) * reversion(a)
    # float residuals within 1e-12
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        mk = lambda: Multivector(m, {int(rng.integers(0, 1 << m)): float(rng.normal())
                                     for _ in range(5)})
        a, b, c = mk(), mk(), mk()
        worst = max(worst, ((a * b) * c - a * (b * c)).max_abs_coeff())
        worst = max(worst, (reversion(a * b) - reversion(b) * reversion(a)).max_abs_coeff())
    announce(1, "Clifford algebra identities", exact_ok and worst <= 1e-12,
             f"exact={exact_ok}, float residual={worst:.2e}")


def test_criterion_2_inner_product_recovery():
    rng = np.random.default_rng(102)
    worst = 0.0
    for m in (2, 3, 4, 5):
        rep = build_gamma_rep(m)
        for _ in range(2500):
            v, w = rng.normal(size=m), rng.normal(size=m)
            worst = max(worst, abs(vector_pairing(primitive_spinor(v, rep), w, rep) - v @ w))
    announce(2, "inner-product recovery from primitive spinors", worst <= 1e-12,
             f"max residual {worst:.2e} over 10^4 pairs, m in 2..5")


def test_criterion_3_rotation_recovery():
    rng = np.random.default_rng(103)
    worst = 0.0
    for m in (3, 4):
        rep = build_gamma_rep(m)
        for _ in range(10):
            r = random_so(rng, m)
            worst = max(worst, np.abs(recover_rotation(spin_lift(r, rep), rep) - r).max())
    announce(3, "rotation recovery from spinor pairings", worst <= 1e-12,
             f"max deviation {worst:.2e} for SO(3)/SO(4)")


def test_criterion_4_frobenius_reciprocity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for k, n in [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5)]:
        base = reference_intertwiner(k, n)
        rep_n = build_gamma_rep(n)
        for _ in range(100):
            intw = base.with_tau(spin_lift(random_so(rng, n), rep_n))
            for _ in range(100):
                worst = max(worst, check_reciprocity(random_spinor(rng, n),
                                                     random_spinor(rng, k), intw))
    announce(4, "Frobenius reciprocity", worst <= 1e-12,
             f"max two-sided residual {worst:.2e} over 10^4 triples x 5 pairs")


def test_criterion_5_embedding_recovery():
    rng = np.random.default_rng(105)
    worst = 0.0
    for k, n in [(2, 3), (4, 5)]:
        base = reference_intertwiner(k, n)
        rep_n = build_gamma_rep(n)
        for _ in range(50):
            intw = base.with_tau(spin_lift(random_so(rng, n), rep_n))
            u = rng.normal(size=n)
            vals = recover_embedding(u, intw)
            worst = max(worst, np.abs(vals - intw.embedding.iota.T @ u).max())
    announce(5, "Grassmannian/immersion recovery", worst <= 1e-12,
             f"max deviation from (iota(v), u): {worst:.2e}")


def test_criterion_6_mean_curvature_from_volume_growth():
    delta = 1e-5
    worst = 0.0
    for name in ("plane", "sphere", "torus", "graph", "catenoid", "enneper", "helicoid",
                 "circle-curve", "helix-curve", "clifford-torus-r4"):
        chart = catalog_chart(name)
        axes = chart.axes(tuple(min(g, 17) for g in chart.grid_shape))
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, chart.k)
        inner = pts  # every grid point of the coarse sampling grid
        for s in inner:
            fr = adapted_frames(chart, s)
            gamma, _, mean = weingarten(chart, s, fr)
            for d in range(chart.n - chart.k):
                q = np.zeros(chart.n - chart.k)
                q[d] = delta
                slope = (np.sqrt(rho(chart, s, q, gamma=gamma))
                         - np.sqrt(rho(chart, s, -q, gamma=gamma))) / (2 * delta)
                worst = max(worst, abs(slope - mean[d]))
    r = 1.0
    chart = catalog_chart("sphere", r=r)
    sphere_worst = 0.0
    for s in [(0.8, 1.0), (1.4, 3.0), (2.2, 5.0)]:
        for q in (-0.2, 0.1, 0.25):
            sphere_worst = max(sphere_worst,
                               abs(rho(chart, np.array(s), [q]) - ((r + q) / r) ** 4))
    ok = worst <= 1e-6 and sphere_worst <= 1e-10
    announce(6, "volume growth matches mean curvature", ok,
             f"slope residual {worst:.2e}, sphere closed form {sphere_worst:.2e}")


def test_criterion_7_kernel_convergence():
    cases = {
        "sphere": ((33, 33), (65, 65)),
        "catenoid": ((33, 33), (65, 65)),
        "enneper": ((33, 33), (65, 65)),
        "torus": ((33, 33), (65, 65)),
        "clifford-torus-r4": ((33, 33), (65, 65)),
        "helix-curve": ((129,), (257,)),
    }
    ratios = {}
    ok = True
    for name, (coarse, fine) in cases.items():
        chart = catalog_chart(name)
        r_coarse = max_kernel_residual(chart, coarse)
        r_fine = max_kernel_residual(chart, fine)
        ratios[name] = r_coarse / r_fine
        ok &= 3.5 <= ratios[name] <= 4.5
    r = 1.0
    control = max_kernel_residual(catalog_chart("sphere", r=r), (33, 33), with_mean=False)
    ok &= control >= 0.4 / r
    detail = ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
    announce(7, "submanifold Dirac kernel at second order", ok,
             f"ratios [{detail}], negative control {control:.3f} >= {0.4 / r}")


def test_criterion_8_kernel_orthonormality():
    worst = 0.0
    for name, shape in [("sphere", (33, 33)), ("clifford-torus-r4", (33, 33)),
                        ("helix-curve", (257,))]:
        ff = build_frame_field(catalog_chart(name), shape=shape)
        gram = pointwise_pairings(frame_spinor_fields(ff))
        worst = max(worst, np.abs(gram - np.eye(gram.shape[-1])).max())
    announce(8, "kernel fields pointwise orthonormal", worst <= 1e-10,
             f"max Gram deviation {worst:.2e}")


def test_criterion_9_weierstrass_reconstruction():
    ok = True
    details = []
    for name in ("sphere", "enneper"):
        rep = reconstruction_report(catalog_chart(name), shapes=((65, 65), (129, 129)))
        h = max(catalog_chart(name).spacings((65, 65)))
        bil_ok = rep.bilinear_max_deviation <= max(1e-10, h**2)
        order_ok = 1.8 <= rep.convergence_order <= 2.2
        paths = rep.extras["path_residuals"]
        if paths[1] > 1e-13:
            path_order = float(np.log2(paths[0] / paths[1]))
            path_ok = 1.8 <= path_order <= 2.2
        else:
            path_order, path_ok = float("inf"), True
        ok &= bil_ok and order_ok and path_ok
        details.append(f"{name}: bilinear={rep.bilinear_max_deviation:.1e}, "
                       f"order={rep.convergence_order:.3f}, path-order={path_order:.3f}")
    announce(9, "generalized Weierstrass reconstruction", ok, "; ".join(details))


def test_criterion_10_selfadjointization():
    ok = True
    details = []
    for s_shape, q_points in [((17, 17), 17), ((33, 33), 33)]:
        without, with_, _ = selfadjointization_check(catalog_chart("sphere"),
                                                     s_shape=s_shape, q_points=q_points)
        h = 0.5 / (q_points - 1)
        ok &= without >= 1e-2 and with_ <= h**2
        details.append(f"sphere {s_shape}: without={without:.3f}, with={with_:.1e}")
    pw, pw2, _ = selfadjointization_check(catalog_chart("plane"), s_shape=(17, 17), q_points=17)
    ok &= pw <= (0.5 / 16) ** 2 and pw2 <= (0.5 / 16) ** 2
    details.append(f"plane: without={pw:.1e}, with={pw2:.1e}")
    announce(10, "half-density self-adjointization", ok, "; ".join(details))


def test_criterion_11_frenet_serret():
    ok = True
    details = []
    r = 1.0
    rep = frenet_serret_case(catalog_chart("circle-curve", r=r))
    curv_dev = float(np.abs(rep.extras["curvature_norm"] - 1 / r).max())
    ok &= 1.8 <= rep.convergence_order <= 2.2 and curv_dev <= 1e-6
    details.append(f"circle: order={rep.convergence_order:.3f}, curvature dev={curv_dev:.1e}")
    a, b = 1.0, 0.5
    rep = frenet_serret_case(catalog_chart("helix-curve", a=a, b=b))
    curv_dev = float(np.abs(rep.extras["curvature_norm"] - a / (a**2 + b**2)).max())
    ok &= 1.8 <= rep.convergence_order <= 2.2 and curv_dev <= 1e-6
    ok &= 1.8 <= rep.extras["kernel_order"] <= 2.2
    details.append(f"helix: order={rep.convergence_order:.3f}, curvature dev={curv_dev:.1e}")
    announce(11, "Frenet-Serret curve case", ok, "; ".join(details))


def test_criterion_12_representation_independence():
    rng = np.random.default_rng(112)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep = build_gamma_rep(3)
    rep2 = rep.conjugated(q)
    chart = catalog_chart("sphere")
    shape = (33, 33)

    r1 = max_kernel_residual(chart, shape, rep)
    r2 = max_kernel_residual(chart, shape, rep2)
    ff = build_frame_field(chart, shape=shape)
    g1 = pointwise_pairings(frame_spinor_fields(ff, rep))
    g2 = pointwise_pairings(frame_spinor_fields(ff, rep2))
    b1 = immersion_bilinears(ff, rep)
    b2 = immersion_bilinears(ff, rep2)
    dev = max(abs(r1 - r2), float(np.abs(g1 - g2).max()), float(np.abs(b1 - b2).max()))
    announce(12, "representation independence", dev <= 1e-12,
             f"max deviation under unitary conjugation {dev:.2e}")
