import dataclasses
import functools
import itertools
import tracemalloc
import types

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from test_clifford import oracle_blade_sign
from test_frame_field_scan import surface_in_r5

from subdirac import dirac
from subdirac.clifford import Multivector
from subdirac.dirac import (
    GridSpinorField,
    apply_operator,
    dirac_residual,
    frame_lift_coefficients,
    frame_lift_field,
    frame_spinor_fields,
    intrinsic_dirac,
    lift_gram,
    lift_residuals,
    pointwise_pairings,
    selfadjointization_check,
    selfadjointization_limit,
    submanifold_dirac,
)
from subdirac.clifford import _left_product_rows
from subdirac.dirac import (
    _assemble,
    _gram_table,
    _interior_differences,
    _odd_form,
    _operator_planes,
    _pair_table,
    _potential_blades,
)
from subdirac.geometry import (
    CATALOG,
    FocalDistanceError,
    FrameField,
    ImmersionChart,
    _diff_axis,
    _tube_factor,
    build_frame_field,
    catalog_chart,
)
from subdirac.spinors import build_gamma_rep, rep_of
from subdirac.weierstrass import _bilinear_table, immersion_bilinears

S1, S2 = sp.symbols("s1 s2")


def kernel_residual(name, shape, rep=None, with_mean=True, **params):
    ff = build_frame_field(catalog_chart(name, **params), shape=shape)
    op = submanifold_dirac(ff, rep) if with_mean else intrinsic_dirac(ff, rep)
    fields = frame_spinor_fields(ff, rep)
    return max(dirac_residual(op, f) for f in fields)


def densify(op):
    """Dense (*grid, k, d, d) axis matrices and (*grid, d, d) potential of an
    operator's coefficient planes, through the gamma homomorphism rep_of."""
    rep = op.rep
    gam = np.stack(rep.gammas)
    blades = np.stack([rep_of(Multivector(rep.m, {mask: 1.0}), rep)
                       for mask in op.potential_blades])
    axis = np.einsum("ga...,aij->...gij", op.axis_coeff, gam[:op.chart.k])
    potential = np.einsum("j...,jab->...ab", op.potential_coeff, blades)
    return axis, potential


# --- assembly basics ---------------------------------------------------------

def test_plane_operator_annihilates_constants():
    ff = build_frame_field(catalog_chart("plane"), shape=(17, 17))
    op = submanifold_dirac(ff)
    assert np.abs(densify(op)[1]).max() < 1e-12  # no connection, no curvature term
    const = GridSpinorField(ff.chart, np.ones((17, 17, 2), dtype=complex), tuple(ff.spacings))
    assert dirac_residual(op, const) == 0.0


def test_intrinsic_equals_submanifold_without_curvature():
    ff = build_frame_field(catalog_chart("sphere"), shape=(17, 17))
    a = intrinsic_dirac(ff)
    b = submanifold_dirac(ff)
    rep = build_gamma_rep(3)
    (axis_a, potential_a), (axis_b, potential_b) = densify(a), densify(b)
    expected = 0.5 * np.einsum("...m,mij->...ij", ff.mean_curvature, np.stack(rep.gammas)[2:])
    assert np.allclose(potential_b - potential_a, expected, atol=1e-14)
    assert np.allclose(axis_a, axis_b, atol=1e-14)


def test_circle_operator_form():
    r = 1.5
    ff = build_frame_field(catalog_chart("circle-curve", r=r), shape=(129,))
    rep = build_gamma_rep(2)
    axis, potential = densify(submanifold_dirac(ff))
    # first-order coefficient: gamma_1 / |x'| ; zeroth-order: +/- gamma_2 / (2r)
    assert np.allclose(axis[..., 0, :, :], np.stack([rep.gammas[0] / r] * 129), atol=1e-12)
    mag = np.abs(potential).reshape(129, -1).max(axis=-1)
    assert np.allclose(mag, 1 / (2 * r), atol=1e-12)


def test_mismatched_rep_rejected():
    ff = build_frame_field(catalog_chart("sphere"), shape=(9, 9))
    with pytest.raises(ValueError):
        intrinsic_dirac(ff, build_gamma_rep(4))


# --- frame spinor fields ------------------------------------------------------

def test_plane_frame_fields_constant():
    ff = build_frame_field(catalog_chart("plane"), shape=(9, 9))
    fields = frame_spinor_fields(ff)
    for a, f in enumerate(fields):
        assert np.allclose(f.values, f.values[0, 0], atol=1e-13)


def test_frame_fields_pointwise_orthonormal():
    for name in ("sphere", "clifford-torus-r4", "helix-curve"):
        ff = build_frame_field(catalog_chart(name))
        gram = pointwise_pairings(frame_spinor_fields(ff))
        d = gram.shape[-1]
        assert np.abs(gram - np.eye(d)).max() < 1e-10


def test_frame_fields_vary_smoothly():
    jumps = []
    for shape in [(33, 33), (65, 65)]:
        ff = build_frame_field(catalog_chart("sphere"), shape=shape)
        f = frame_spinor_fields(ff)[0].values
        jump = max(np.abs(np.diff(f, axis=0)).max(), np.abs(np.diff(f, axis=1)).max())
        jumps.append(jump)
    assert jumps[1] < 0.7 * jumps[0]  # O(h) neighbor jumps


# --- kernel property of the lifted frame fields -----------------------------------

def test_plane_kernel_exact():
    assert kernel_residual("plane", (17, 17)) == 0.0


@pytest.mark.parametrize("name,shapes", [
    ("sphere", [(33, 33), (65, 65)]),
    ("catenoid", [(33, 33), (65, 65)]),
    ("enneper", [(33, 33), (65, 65)]),
    ("torus", [(33, 33), (65, 65)]),
    ("graph", [(33, 33), (65, 65)]),
    ("helicoid", [(33, 33), (65, 65)]),
    ("clifford-torus-r4", [(33, 33), (65, 65)]),
    ("helix-curve", [(129,), (257,)]),
    ("circle-curve", [(129,), (257,)]),
])
def test_kernel_second_order_convergence(name, shapes):
    coarse = kernel_residual(name, shapes[0])
    fine = kernel_residual(name, shapes[1])
    assert 3.5 <= coarse / fine <= 4.5


def test_missing_curvature_term_blocks_kernel():
    r = 1.0
    residual = kernel_residual("sphere", (33, 33), with_mean=False, r=r)
    assert residual > 0.4 / r
    # and stays bounded below under refinement
    assert kernel_residual("sphere", (65, 65), with_mean=False, r=r) > 0.4 / r


def test_polar_plane_intrinsic_kernel():
    # flat metric in curvilinear coordinates: tau(s)-rotated constants
    # are annihilated by the intrinsic operator alone
    chart = ImmersionChart.from_sympy(
        "polar-plane", [S1 * sp.cos(S2), S1 * sp.sin(S2), 0 * S1],
        [S1, S2], [(0.5, 1.5), (0.2, 1.4)])
    res = []
    for shape in [(33, 33), (65, 65)]:
        ff = build_frame_field(chart, shape=shape)
        assert np.abs(ff.mean_curvature).max() < 1e-12
        op = intrinsic_dirac(ff)
        res.append(max(dirac_residual(op, f) for f in frame_spinor_fields(ff)))
    assert res[0] < 2e-3 and 3.5 <= res[0] / res[1] <= 4.5


def test_kernel_invariant_under_rep_conjugation():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    rep = build_gamma_rep(3)
    rep2 = rep.conjugated(q)
    r1 = kernel_residual("sphere", (33, 33))
    r2 = kernel_residual("sphere", (33, 33), rep=rep2)
    assert abs(r1 - r2) < 1e-12


# --- kernel of the normal momenta ------------------------------------------------

def test_q_independent_fields_are_pq_kernel():
    rng = np.random.default_rng(3)
    ff = build_frame_field(catalog_chart("sphere"), shape=(9, 9))
    psi = rng.normal(size=(9, 9, 2)) + 1j * rng.normal(size=(9, 9, 2))
    nq, hq = 11, 0.05
    tube = np.broadcast_to(psi[..., None, :], (9, 9, nq, 2)).copy()
    p_tube = 1j * _diff_axis(tube, 2, hq)
    assert np.abs(p_tube).max() < 1e-12
    # generic q-dependence is detected
    tube2 = tube * np.linspace(1, 2, nq)[None, None, :, None]
    assert np.abs(1j * _diff_axis(tube2, 2, hq)).max() > 1e-2


def test_operator_commutes_with_q_evaluation():
    # the submanifold operator acts slice-by-slice on q-independent tube
    # fields: applying it to the q=0 slice equals any slice of the image
    ff = build_frame_field(catalog_chart("sphere"), shape=(17, 17))
    op = submanifold_dirac(ff)
    rng = np.random.default_rng(4)
    psi = GridSpinorField(ff.chart, rng.normal(size=(17, 17, 2)) + 0j, tuple(ff.spacings))
    image = apply_operator(op, psi)
    for _ in range(3):  # tube slices all agree with the restricted action
        again = apply_operator(op, psi)
        assert np.allclose(again.values, image.values)


# --- self-adjointization -----------------------------------------------------------

def test_selfadjointization_plane_control():
    without, with_, _ = selfadjointization_check(catalog_chart("plane"), s_shape=(17, 17),
                                                 q_points=17)
    assert without < 1e-12
    assert with_ < 1e-12


def test_selfadjointization_sphere():
    prev = None
    for s_shape, q_points in [((17, 17), 17), ((33, 33), 33)]:
        without, with_, _ = selfadjointization_check(catalog_chart("sphere"),
                                                     s_shape=s_shape, q_points=q_points)
        assert without > 1e-2
        # flattened-measure defect is exact summation-by-parts cancellation
        # for interior-supported bumps: bounded by h^2 with margin
        assert with_ < 1e-10
        prev = without
    # the geometric-measure defect converges to a positive constant
    assert abs(prev - without) < 1e-12


def test_selfadjointization_rejects_a_tube_past_the_focal_set():
    # q = -1 lies between the q samples, so no sample has rho = 0
    with pytest.raises(FocalDistanceError):
        selfadjointization_check(catalog_chart("sphere"), s_shape=(17, 17), q_max=1.5)


def test_selfadjointization_direction_range():
    with pytest.raises(ValueError):
        selfadjointization_check(catalog_chart("sphere"), s_shape=(9, 9), direction=1)


def test_tube_pairing_never_casts_the_factor_to_complex(monkeypatch):
    # the real (q_points, P) factor sqrt(rho) meets the complex q weights as
    # two real products: precomputed outside the trace, the check holds no
    # temporary as large as the factor (a complex cast is twice its size)
    chart = catalog_chart("sphere")
    frames = build_frame_field(chart, shape=(65, 65))
    expected = selfadjointization_check(chart, frames=frames)
    factor = _tube_factor(frames.weingarten_planes[:1], np.linspace(-0.25, 0.25, 33)[:, None])
    monkeypatch.setattr(dirac, "_tube_factor", lambda gamma, q: factor)
    tracemalloc.start()
    try:
        got = selfadjointization_check(chart, frames=frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < factor.nbytes


# --- gamma-table assembly and factored tube check against the dense forms ----------
#
# The references below are the per-point einsum forms that the gamma tables
# and the separable tube integral replaced.

def reference_assemble(frames, rep, with_mean):
    k = frames.chart.k
    gam = np.stack(rep.gammas)
    axis = np.einsum("...ag,aij->...gij", frames.e_coeff, gam[:k])
    gbc = np.einsum("bij,cjk->bcik", gam[:k], gam[:k])
    conn = 0.25 * np.einsum("...gbc,bcij->...gij", frames.omega, gbc)
    potential = np.einsum("...gij,...gjk->...ik", axis, conn)
    if with_mean:
        potential = potential + 0.5 * np.einsum("...m,mij->...ij",
                                                frames.mean_curvature, gam[k:])
    return axis, potential


def reference_selfadjointization(frames, q_points=33, q_max=0.25, direction=0):
    """Both tube defects from the full (*grid, Nq) complex test functions."""
    nk = frames.chart.n - frames.chart.k
    q = np.linspace(-q_max, q_max, q_points)
    hq = q[1] - q[0]
    unit = np.eye(nk)[direction]
    rho = np.stack([frames.rho_on_tube(qv * unit) for qv in q], axis=-1)
    if rho.min() <= 0:
        raise ValueError("tube too thick: rho lost positivity")
    sqrt_gs = np.sqrt(np.linalg.det(frames.metric))[..., None]
    su = [(ax - ax[0]) / (ax[-1] - ax[0]) for ax in frames.axes]
    qu = (q - q[0]) / (q[-1] - q[0])
    bump = lambda u: np.sin(np.pi * u) ** 2  # noqa: E731
    sbump = bump(su[0])
    for u in su[1:]:
        sbump = np.multiply.outer(sbump, bump(u))
    prof = sbump[..., None] * bump(qu)
    phase_s = np.add.reduce(np.meshgrid(*su, indexing="ij"))
    f = prof * np.exp(1j * (phase_s[..., None] + 2.0 * qu))
    g = prof * np.exp(1j * (0.5 * phase_s[..., None] - 1.0 * qu))

    def p(field):
        return 1j * _diff_axis(field, field.ndim - 1, hq)

    w = np.ones(())
    for ax, h in list(zip(frames.axes, frames.spacings)) + [(q, hq)]:
        wa = np.full(len(ax), h)
        wa[[0, -1]] *= 0.5
        w = np.multiply.outer(w, wa)

    def defect(measure):
        return abs(np.sum(w * measure * (np.conj(p(f)) * g - np.conj(f) * p(g))))

    return defect(np.sqrt(rho) * sqrt_gs), defect(np.broadcast_to(sqrt_gs, rho.shape))


ORACLE_CASES = {
    "sphere-65": (lambda: catalog_chart("sphere"), (65, 65)),
    "torus-33": (lambda: catalog_chart("torus"), (33, 33)),
    "catenoid-33": (lambda: catalog_chart("catenoid"), (33, 33)),
    "clifford-torus-r4-33": (lambda: catalog_chart("clifford-torus-r4"), (33, 33)),
    "helix-257": (lambda: catalog_chart("helix-curve"), (257,)),
    "surface-r5-33": (surface_in_r5, (33, 33)),
}


@functools.lru_cache(maxsize=None)
def oracle_frames(case):
    make_chart, shape = ORACLE_CASES[case]
    return build_frame_field(make_chart(), shape=shape)


def oracle_rep(n, kind):
    """The standard gamma system, or one conjugated by a random unitary."""
    rep = build_gamma_rep(n)
    if kind == "conjugated":
        rng = np.random.default_rng(n)
        u, _ = np.linalg.qr(rng.normal(size=(rep.dim,) * 2) + 1j * rng.normal(size=(rep.dim,) * 2))
        rep = rep.conjugated(u)
    return rep


def random_frames(k=3, n=5, shape=(4, 3, 5), seed=11):
    """Random coefficient fields with an antisymmetric omega on a k = 3 grid.

    For k <= 2 every term of sum C_abc gamma_a gamma_b gamma_c with C
    antisymmetric in (b, c) has a in {b, c}, and those triple products read
    the same reversed; only k >= 3 pins the order of the triple table.
    build_frame_field stops at k = 2, so the fields are drawn directly.
    """
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=shape + (k, k, k))
    fields = dict.fromkeys(f.name for f in FrameField.__dataclass_fields__.values())
    # FrameField stores entry-major planes; draw grid-major and view as planes
    fields.update(chart=types.SimpleNamespace(k=k, n=n), points_planes=np.zeros((k,) + shape),
                  e_coeff_planes=np.moveaxis(rng.normal(size=shape + (k, k)), (-2, -1), (0, 1)),
                  omega_planes=np.moveaxis(omega - np.swapaxes(omega, -1, -2), (-3, -2, -1),
                                           (0, 1, 2)),
                  mean_curvature_planes=np.moveaxis(rng.normal(size=shape + (n - k,)), -1, 0))
    return FrameField(**fields)


@pytest.mark.parametrize("kind", ["standard", "conjugated"])
@pytest.mark.parametrize("case", list(ORACLE_CASES) + ["random-k3"])
def test_assembly_matches_einsum_reference(case, kind):
    frames = random_frames() if case == "random-k3" else oracle_frames(case)
    rep = oracle_rep(frames.chart.n, kind)
    for with_mean in (False, True):
        axis, potential = densify(_assemble(frames, rep, with_mean))
        expected_axis, expected_potential = reference_assemble(frames, rep, with_mean)
        assert axis.shape == expected_axis.shape
        assert potential.shape == expected_potential.shape
        assert np.abs(axis - expected_axis).max() <= 1e-14
        assert np.abs(potential - expected_potential).max() <= 1e-14


def test_assembly_rejects_non_antisymmetric_omega():
    frames = random_frames()
    frames = dataclasses.replace(frames, omega_planes=frames.omega_planes + 1e-6)
    with pytest.raises(ValueError, match="not antisymmetric"):
        _assemble(frames, build_gamma_rep(5), True)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_selfadjointization_matches_dense_reference(case):
    frames = oracle_frames(case)
    for direction in range(frames.chart.n - frames.chart.k):
        expected = reference_selfadjointization(frames, direction=direction)
        without, with_, _ = selfadjointization_check(frames.chart, frames=frames,
                                                     direction=direction)
        assert abs(without - expected[0]) <= 1e-12 * expected[0]
        assert abs(with_ - expected[1]) <= 1e-14


# --- the tube polynomial against the per-q loop ------------------------------------

def tube_dense(frames, offsets):
    """det(1 + q Gamma) per offset from the dense (*grid, k, k) matrices."""
    eye = np.eye(frames.chart.k)
    return np.stack([np.linalg.det(eye + np.einsum("d,...dab->...ab", qv, frames.weingarten))
                     for qv in offsets])


@pytest.mark.parametrize("case", ["sphere-65", "torus-33", "catenoid-33"])
def test_tube_polynomial_matches_per_q_loop(case):
    frames = oracle_frames(case)
    q = np.linspace(-0.25, 0.25, 33)
    batched = _tube_factor(frames.weingarten_planes[0:1], q[:, None])
    loop = np.stack([np.sqrt(frames.rho_on_tube([qv])) for qv in q])
    assert batched.shape == (33,) + frames.grid_shape
    assert np.abs(batched - loop).max() <= 1e-14
    assert np.abs(batched - tube_dense(frames, q[:, None])).max() <= 1e-14


def test_tube_polynomial_over_a_stack_of_normal_offsets():
    # codimension 2: the q^T X q cross term mixes the two normal directions
    frames = oracle_frames("clifford-torus-r4-33")
    offsets = np.random.default_rng(7).uniform(-0.2, 0.2, size=(9, 2))
    batched = _tube_factor(frames.weingarten_planes, offsets)
    loop = np.stack([np.sqrt(frames.rho_on_tube(qv)) for qv in offsets])
    assert np.abs(batched - loop).max() <= 1e-14
    assert np.abs(batched - tube_dense(frames, offsets)).max() <= 1e-14


@pytest.mark.parametrize("q_max", [1.0, 1.5])
def test_tube_check_and_per_q_loop_reject_the_same_focal_tube(q_max):
    # q_max = 1 puts a sample on the unit sphere's centre, 1.5 goes past it
    frames = build_frame_field(catalog_chart("sphere"), shape=(17, 17))
    with pytest.raises(FocalDistanceError) as loop:
        reference_selfadjointization(frames, q_max=q_max)
    with pytest.raises(FocalDistanceError) as batched:
        selfadjointization_check(frames.chart, frames=frames, q_max=q_max)
    assert str(batched.value) == str(loop.value)


# --- the coefficient planes against the dense operator ------------------------------
#
# apply_operator and lift_residuals run on the operator's coefficient planes;
# the dense per-point matrices of reference_assemble, applied by einsum, are
# the oracle.

def reference_apply(axis, potential, frames, psi):
    """D psi from dense (*grid, k, d, d) axis matrices and (*grid, d, d) potential."""
    out = np.einsum("...ij,...j->...i", potential, psi)
    for alpha, h in enumerate(frames.spacings):
        out = out + np.einsum("...ij,...j->...i", axis[..., alpha, :, :], _diff_axis(psi, alpha, h))
    return out


APPLY_CASES = sorted(CATALOG) + ["surface-in-r5", "random-k3"]


@functools.lru_cache(maxsize=None)
def apply_frames(case):
    if case == "random-k3":
        frames = random_frames()
        frames.spacings = [0.1, 0.2, 0.3]
        return frames
    chart = surface_in_r5() if case == "surface-in-r5" else catalog_chart(case)
    return build_frame_field(chart, shape=(17, 17) if chart.k == 2 else (33,))


@pytest.mark.parametrize("case", APPLY_CASES)
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), with_mean=st.booleans(),
       kind=st.sampled_from(["standard", "conjugated"]))
def test_apply_operator_matches_dense_reference(case, seed, with_mean, kind):
    frames = apply_frames(case)
    rep = oracle_rep(frames.chart.n, kind)
    rng = np.random.default_rng(seed)
    size = frames.grid_shape + (rep.dim,)
    psi = rng.normal(size=size) + 1j * rng.normal(size=size)
    op = _assemble(frames, rep, with_mean)
    image = apply_operator(op, GridSpinorField(frames.chart, psi, tuple(frames.spacings)))
    expected = reference_apply(*reference_assemble(frames, rep, with_mean), frames, psi)
    assert np.abs(image.values - expected).max() <= 1e-12 * np.abs(expected).max()


def dense_kernel_residuals(frames, rep, with_mean):
    axis, potential = reference_assemble(frames, rep, with_mean)
    taus = frame_lift_field(frames, rep)
    interior = tuple(slice(1, -1) for _ in frames.grid_shape)
    return np.array([np.linalg.norm(reference_apply(axis, potential, frames, taus[..., :, a])
                                    [interior], axis=-1).max() for a in range(rep.dim)])


@functools.lru_cache(maxsize=None)
def catalog_frames(name, level):
    chart = catalog_chart(name)
    shape = [(17, 17), (33, 33)][level] if chart.k == 2 else [(65,), (129,)][level]
    return build_frame_field(chart, shape=shape)


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_lift_residuals_match_dense_residuals(name, level):
    frames = catalog_frames(name, level)
    rep = build_gamma_rep(frames.chart.n)
    coeffs = frame_lift_coefficients(frames, rep)
    for with_mean in (True, False):
        expected = dense_kernel_residuals(frames, rep, with_mean)
        got = lift_residuals(frames, coeffs, rep, with_mean)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-10 * expected.max()


def stacked_residual_table(k, m):
    """The dense signed-permutation table that lift_residuals multiplied: shape
    (odd blades, sources * even blades), one +-1 per column."""
    even = [mask for mask in range(1 << m) if mask.bit_count() % 2 == 0]
    odd = {mask: i for i, mask in enumerate(mask for mask in range(1 << m) if mask.bit_count() % 2)}
    sources = [1 << a for a in range(k)] + list(_potential_blades(k, m)[0])
    table = np.zeros((len(odd), len(sources) * len(even)))
    for s, source in enumerate(sources):
        for i, mask in enumerate(even):
            table[odd[source ^ mask], s * len(even) + i] = oracle_blade_sign(source, mask)
    return table


def stacked_lift_residuals(frames, coeffs, rep, with_mean):
    """lift_residuals as one dense product of the stacked (k + J) * K operand
    [g; v c] against stacked_residual_table."""
    k, d = frames.chart.k, rep.dim
    axis, potential = _operator_planes(frames, rep, with_mean)
    inner = (slice(None),) + (slice(1, -1),) * k
    c = coeffs[inner].reshape(len(coeffs), -1)
    blades = len(potential) if with_mean else len(potential) - (rep.m - k)
    operand = np.empty((k + blades,) + c.shape)
    e = axis[(slice(None),) + inner].reshape(k, k, 1, -1)
    for alpha, dc in enumerate(_interior_differences(coeffs, frames.spacings)):
        term = e[alpha] * dc.reshape(1, *c.shape)
        if alpha:
            operand[:k] += term
        else:
            operand[:k] = term
    operand[k:] = potential[:blades][inner].reshape(blades, 1, -1) * c
    table = stacked_residual_table(k, rep.m)
    b = table[:, : operand.shape[0] * len(c)] @ operand.reshape(-1, c.shape[1])
    form = _odd_form(rep)
    squares = np.einsum("alp,lp->ap", (form @ b).reshape(d, len(b), -1), b)
    return np.sqrt(np.maximum(squares.max(axis=1), 0.0))


@pytest.mark.parametrize("case", sorted(CATALOG) + ["surface-in-r5"])
def test_lift_residuals_match_stacked_operand(case):
    chart = surface_in_r5() if case == "surface-in-r5" else catalog_chart(case)
    for shape in [(17, 17), (65, 65)] if chart.k == 2 else [(65,), (257,)]:
        frames = build_frame_field(chart, shape=shape)
        for kind in ("standard", "conjugated"):
            rep = oracle_rep(chart.n, kind)
            coeffs = frame_lift_coefficients(frames, rep)
            for with_mean in (True, False):
                got = lift_residuals(frames, coeffs, rep, with_mean)
                expected = stacked_lift_residuals(frames, coeffs, rep, with_mean)
                assert np.abs(got - expected).max() <= 1e-15 * expected.max()


@pytest.mark.parametrize("k, m", [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (3, 5)])
def test_residual_table_is_the_dense_table(k, m):
    """lift_residuals' rows of [c; -c], the tangent vectors' then the
    potential blades', are the dense table's source blocks."""
    generators = tuple(1 << a for a in range(k))
    tangent = _left_product_rows(m, generators, 1)
    signed = _left_product_rows(m, _potential_blades(k, m)[0], 1)
    assert _left_product_rows(m, generators, 1) is tangent
    assert not tangent.flags.writeable and not signed.flags.writeable
    dense = stacked_residual_table(k, m)
    even = dense.shape[0]
    # row rows[L] of [c; -c] is the one +-1 entry of source j in row L
    for j, rows in enumerate(np.concatenate([tangent, signed])):
        block = dense[:, j * even: (j + 1) * even]
        expected = np.zeros_like(block)
        expected[np.arange(even), rows % even] = np.where(rows < even, 1.0, -1.0)
        assert np.array_equal(block, expected)


def test_lift_residuals_are_the_operator_residuals_of_the_frame_fields():
    frames = oracle_frames("clifford-torus-r4-33")
    rep = oracle_rep(4, "conjugated")
    fields = frame_spinor_fields(frames, rep)
    got = lift_residuals(frames, frame_lift_coefficients(frames, rep), rep)
    expected = [dirac_residual(submanifold_dirac(frames, rep), f) for f in fields]
    assert np.abs(got - expected).max() <= 1e-10 * max(expected)


def test_lift_residuals_reject_a_mismatched_rep():
    frames = catalog_frames("sphere", 0)
    with pytest.raises(ValueError, match="does not match ambient"):
        lift_residuals(frames, frame_lift_coefficients(frames), build_gamma_rep(4))


@pytest.mark.parametrize("kind", ["standard", "conjugated"])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_lift_gram_matches_pointwise_pairings(case, kind):
    frames = oracle_frames(case)
    rep = oracle_rep(frames.chart.n, kind)
    gram = lift_gram(frame_lift_coefficients(frames, rep), rep)
    expected = pointwise_pairings(frame_spinor_fields(frames, rep))
    assert gram.shape == expected.shape
    assert np.abs(gram - expected).max() <= 1e-14


def test_rep_tables_are_cached_per_rep_and_read_only():
    """The lift Gram, residual and bilinear tables are built once per gamma
    system and read-only; a system conjugated after the standard one's tables
    exist builds its own from its own gammas."""
    frames = oracle_frames("clifford-torus-r4-33")
    coeffs = frame_lift_coefficients(frames)
    standard = build_gamma_rep(4)
    rng = np.random.default_rng(8)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    gram = lift_gram(coeffs, standard)
    lift_residuals(frames, coeffs, standard)
    immersion_bilinears(frames, standard, coeffs)
    conj = standard.conjugated(u)
    assert np.abs(lift_gram(coeffs, conj) - u @ gram @ u.conj().T).max() <= 1e-14

    def not_rebuilt(rep):
        raise AssertionError("table rebuilt")

    lift_residuals(frames, coeffs, conj)
    for key, build in (("lift_gram", _gram_table), ("odd_form", _odd_form)):
        cached = [rep.cached_table(key, not_rebuilt) for rep in (standard, conj)]
        for rep, table in zip((standard, conj), cached):
            assert not table.flags.writeable
            assert np.array_equal(table, build(rep))
        assert not np.allclose(cached[0], cached[1])

    for k in (1, 2, 3):
        table = _bilinear_table(conj, k)
        assert _bilinear_table(conj, k) is table and not table.flags.writeable
        lifted = conj.even_products @ conj.axis_primitives.T
        form = np.einsum("kci,acd,ldi->klia", lifted.conj(), np.stack(conj.gammas[:k]), lifted).real
        assert np.array_equal(table, _pair_table(form).reshape(-1, 4 * k))


# --- the geometric-measure defect against its predicted limit --------------------------

TUBE_CHARTS = ["graph", "sphere", "catenoid", "helicoid", "enneper", "torus", "circle-curve"]


@pytest.mark.parametrize("name", TUBE_CHARTS)
def test_geometric_defect_tends_to_its_limit(name):
    # the gap is the q-quadrature's O(h_q^2): it quarters when the q step halves,
    # and the limit holds both the tr Gamma and the 2 q det Gamma term (the
    # catenoid, helicoid and enneper have tr Gamma = 0, the sphere and torus both)
    chart = catalog_chart(name)
    frames = build_frame_field(chart, shape=(33, 33) if chart.k == 2 else (129,))
    gaps = []
    for q_points in (33, 65):
        without, _, limit = selfadjointization_check(chart, frames=frames, q_points=q_points)
        assert limit > 1e-3
        gaps.append(abs(without / limit - 1))
    assert gaps[0] <= 0.02
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5


def test_geometric_defect_limit_vanishes_on_the_plane():
    flat = build_frame_field(catalog_chart("plane"), shape=(17, 17))
    assert selfadjointization_limit(flat.chart, frames=flat) == 0.0
    with pytest.raises(ValueError, match="direction out of range"):
        selfadjointization_limit(flat.chart, frames=flat, direction=1)


@pytest.mark.parametrize("name", ["sphere", "torus", "circle-curve", "clifford-torus-r4"])
def test_check_with_limit_shares_the_test_functions(name):
    # one tube pairing serves the check and its limit; the limit is the
    # standalone call's
    chart = catalog_chart(name)
    frames = build_frame_field(chart, shape=(17, 17) if chart.k == 2 else (65,))
    for q_points, direction in itertools.product((17, 33), range(chart.n - chart.k)):
        _, _, limit = selfadjointization_check(chart, frames=frames, q_points=q_points,
                                               direction=direction)
        assert limit == selfadjointization_limit(chart, frames=frames, q_points=q_points,
                                                 direction=direction)
