"""The blocked pointwise grid kernels against their whole-grid bodies.

The spin lift, the kernel residual, the lift Gram and the immersion
bilinears run over blocks of spinors.GRID_BLOCK points (the residual over
whole rows of about that many).  tests/whole_grid.py keeps each kernel as
it runs on every point at once.  The grids below hold fewer points than
one block, exactly one block, and one block plus a remainder, for the
pointwise kernels (P points) and for the residual's interior rows.
Elementwise steps, the whole lift among them, agree bit for bit; BLAS
products agree to 1e-15.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import whole_grid

from subdirac.dirac import _interior_differences, frame_lift_coefficients, lift_gram, lift_residuals
from subdirac.geometry import build_frame_field, catalog_chart
from subdirac.spinors import (
    GRID_BLOCK,
    GammaRep,
    _reflection_product,
    _unsigned_coefficients,
    build_gamma_rep,
)
from subdirac.weierstrass import _bilinear_kernel

SHAPES = ((17, 17), (32, 32), (34, 34), (40, 34))
CHARTS = ("sphere", "clifford-torus-r4")


def test_shapes_cover_the_block_boundaries():
    # (blocks, remainder) of the P points and of the residual's interior,
    # whose blocks hold 32 rows of 32 points on the 34-point grids
    assert [divmod(a * b, GRID_BLOCK) for a, b in SHAPES] == [(0, 289), (1, 0), (1, 132), (1, 336)]
    assert [divmod((a - 2) * (b - 2), GRID_BLOCK) for a, b in SHAPES] == [(0, 225), (0, 900), (1, 0),
                                                                          (1, 192)]


def random_rotations(rng, m, points):
    q, r = np.linalg.qr(rng.normal(size=(points, m, m)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1
    return np.moveaxis(q, 0, -1).reshape(m * m, points)


@pytest.fixture(scope="module", params=[(c, s) for c in CHARTS for s in SHAPES],
                ids=[f"{c}-{a}x{b}" for c in CHARTS for a, b in SHAPES])
def level(request):
    name, shape = request.param
    chart = catalog_chart(name)
    frames = build_frame_field(chart, shape=shape)
    rep = build_gamma_rep(chart.n)
    return frames, rep, frame_lift_coefficients(frames, rep)


def test_lift_coefficients_match_the_whole_grid_lift(level):
    frames, rep, coeffs = level
    want = whole_grid.frame_lift_coefficients(frames, rep)
    assert coeffs.shape == want.shape
    assert np.array_equal(coeffs, want)


@pytest.mark.parametrize("with_mean", [True, False])
def test_residuals_match_the_whole_grid_body(level, with_mean):
    frames, rep, coeffs = level
    got = lift_residuals(frames, coeffs, rep, with_mean=with_mean)
    want = whole_grid.lift_residuals(frames, coeffs, rep, with_mean=with_mean)
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_gram_matches_the_whole_grid_body(level):
    _, rep, coeffs = level
    got, want = lift_gram(coeffs, rep), whole_grid.lift_gram(coeffs, rep)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15


def test_bilinears_match_the_whole_grid_body(level):
    frames, rep, coeffs = level
    args = coeffs, frames.tangent_planes, frames.jac_planes, rep
    got, want = _bilinear_kernel(*args), whole_grid.bilinear_kernel(*args)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)


def test_row_block_differences_are_the_whole_grid_ones(level):
    frames, _, coeffs = level
    whole = _interior_differences(coeffs, frames.spacings)
    interior = coeffs.shape[1] - 2
    for step in (1, 5, interior):
        blocks = [_interior_differences(coeffs, frames.spacings,
                                        slice(start, min(start + step, interior + 1)))
                  for start in range(1, interior + 1, step)]
        for alpha, dc in enumerate(whole):
            assert np.array_equal(np.concatenate([b[alpha] for b in blocks], axis=1), dc)


@pytest.mark.parametrize("m", [3, 4])
def test_a_rotations_lift_does_not_depend_on_its_neighbours(m):
    # the lift is elementwise over the points, so any subset or order of the
    # rotations lifts each one to the same bits: one column, a part of one
    # block and more than one block among them
    rng = np.random.default_rng(m)
    entries = random_rotations(rng, m, 2 * GRID_BLOCK)
    whole = _unsigned_coefficients(entries, m)
    for take in (rng.permutation(2 * GRID_BLOCK), rng.choice(2 * GRID_BLOCK, 45, replace=False),
                 [5, 9], [7], rng.choice(2 * GRID_BLOCK, 17, replace=False),
                 rng.choice(2 * GRID_BLOCK, GRID_BLOCK + 37, replace=False)):
        assert np.array_equal(_unsigned_coefficients(entries[:, take], m), whole[:, take])


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_one_point_lift_is_the_whole_grid_one(m):
    # spin_lift multiplies one point's reflection gammas as matrices; the grid
    # takes the same reflections in blade coefficients, sign as it falls for both
    rep = build_gamma_rep(m)
    entries = random_rotations(np.random.default_rng(10 + m), m, 20)
    whole = _unsigned_coefficients(entries, m)
    for column, c in zip(entries.T, whole.T):
        tau = _reflection_product(column.reshape(m * m, 1), rep, 1e-10)
        assert np.abs(tau - np.tensordot(c, rep.even_products, axes=1)).max() <= 1e-15


@pytest.mark.parametrize("name, grid, minors", [("sphere", 129, 10), ("clifford-torus-r4", 65, 53)])
def test_lift_peak_stays_below_the_whole_grid_minors(name, grid, minors):
    # the lift once read c off every point's rotation minors at once (F x P
    # floats, F = 10 for m = 3 and 53 for m = 4); in blocks its temporaries
    # stay below that besides c itself
    chart = catalog_chart(name)
    frames = build_frame_field(chart, shape=(grid, grid))
    rep = build_gamma_rep(chart.n)
    frame_lift_coefficients(frames, rep)  # the cached tables, outside the trace
    tracemalloc.start()
    try:
        frame_lift_coefficients(frames, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < minors * grid * grid * 8


def test_lift_coefficients_at_m12_build_no_blade_stack():
    # the even blade products of m = 12 take 134 MB; the lift multiplies the
    # reflections in blade coefficients, so it neither builds nor needs them
    rep = GammaRep(12, build_gamma_rep(12).gammas)  # unshared: no cached stack
    rot = np.stack([np.linalg.qr(np.random.default_rng(seed).normal(size=(12, 12)))[0]
                    for seed in range(9)])
    rot[np.linalg.det(rot) < 0, :, 0] *= -1
    planes = np.moveaxis(rot, (1, 2), (0, 1)).reshape(12, 12, 3, 3)  # entry-major, rows of R first
    frames = SimpleNamespace(tangent_planes=planes[:2], normal_planes=planes[2:],
                             grid_shape=(3, 3), chart=SimpleNamespace(n=12))
    tracemalloc.start()
    try:
        coeffs = frame_lift_coefficients(frames, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs.shape == (2048, 3, 3)
    assert peak < 16 * 2 ** 20
    assert "even_products" not in rep.__dict__
