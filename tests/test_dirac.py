import functools
import types

import numpy as np
import pytest
import sympy as sp
from test_frame_field_scan import surface_in_r5

from subdirac.dirac import (
    DiracOperator,
    GridSpinorField,
    apply_operator,
    dirac_residual,
    frame_spinor_fields,
    intrinsic_dirac,
    pointwise_pairings,
    selfadjointization_check,
    submanifold_dirac,
)
from subdirac.dirac import _assemble
from subdirac.geometry import (
    FrameField,
    ImmersionChart,
    _diff_axis,
    build_frame_field,
    catalog_chart,
)
from subdirac.spinors import build_gamma_rep

S1, S2 = sp.symbols("s1 s2")


def kernel_residual(name, shape, rep=None, with_mean=True, **params):
    ff = build_frame_field(catalog_chart(name, **params), shape=shape)
    op = submanifold_dirac(ff, rep) if with_mean else intrinsic_dirac(ff, rep)
    fields = frame_spinor_fields(ff, rep)
    return max(dirac_residual(op, f) for f in fields)


# --- assembly basics ---------------------------------------------------------

def test_plane_operator_annihilates_constants():
    ff = build_frame_field(catalog_chart("plane"), shape=(17, 17))
    op = submanifold_dirac(ff)
    assert np.abs(op.potential).max() < 1e-12  # no connection, no curvature term
    const = GridSpinorField(ff.chart, np.ones((17, 17, 2), dtype=complex), tuple(ff.spacings))
    assert dirac_residual(op, const) == 0.0


def test_intrinsic_equals_submanifold_without_curvature():
    ff = build_frame_field(catalog_chart("sphere"), shape=(17, 17))
    a = intrinsic_dirac(ff)
    b = submanifold_dirac(ff)
    rep = build_gamma_rep(3)
    expected = 0.5 * np.einsum("...m,mij->...ij", ff.mean_curvature, np.stack(rep.gammas)[2:])
    assert np.allclose(b.potential - a.potential, expected, atol=1e-14)
    assert np.allclose(a.axis_matrices, b.axis_matrices, atol=1e-14)


def test_circle_operator_form():
    r = 1.5
    ff = build_frame_field(catalog_chart("circle-curve", r=r), shape=(129,))
    rep = build_gamma_rep(2)
    op = submanifold_dirac(ff)
    # first-order coefficient: gamma_1 / |x'| ; zeroth-order: +/- gamma_2 / (2r)
    assert np.allclose(op.axis_matrices[..., 0, :, :], np.stack([rep.gammas[0] / r] * 129), atol=1e-12)
    mag = np.abs(op.potential - 0).reshape(129, -1).max(axis=-1)
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
    without, with_ = selfadjointization_check(catalog_chart("plane"), s_shape=(17, 17),
                                              q_points=17)
    assert without < 1e-12
    assert with_ < 1e-12


def test_selfadjointization_sphere():
    prev = None
    for s_shape, q_points in [((17, 17), 17), ((33, 33), 33)]:
        without, with_ = selfadjointization_check(catalog_chart("sphere"),
                                                  s_shape=s_shape, q_points=q_points)
        assert without > 1e-2
        # flattened-measure defect is exact summation-by-parts cancellation
        # for interior-supported bumps: bounded by h^2 with margin
        assert with_ < 1e-10
        prev = without
    # the geometric-measure defect converges to a positive constant
    assert abs(prev - without) < 1e-12


def test_selfadjointization_direction_range():
    with pytest.raises(ValueError):
        selfadjointization_check(catalog_chart("sphere"), s_shape=(9, 9), direction=1)


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
    fields.update(chart=types.SimpleNamespace(k=k, n=n), points=np.zeros(shape + (k,)),
                  e_coeff=rng.normal(size=shape + (k, k)),
                  omega=omega - np.swapaxes(omega, -1, -2),
                  mean_curvature=rng.normal(size=shape + (n - k,)))
    return FrameField(**fields)


@pytest.mark.parametrize("kind", ["standard", "conjugated"])
@pytest.mark.parametrize("case", list(ORACLE_CASES) + ["random-k3"])
def test_assembly_matches_einsum_reference(case, kind):
    frames = random_frames() if case == "random-k3" else oracle_frames(case)
    rep = oracle_rep(frames.chart.n, kind)
    for with_mean in (False, True):
        op = _assemble(frames, rep, with_mean)
        axis, potential = reference_assemble(frames, rep, with_mean)
        assert op.axis_matrices.shape == axis.shape
        assert op.potential.shape == potential.shape
        assert np.abs(op.axis_matrices - axis).max() <= 1e-14
        assert np.abs(op.potential - potential).max() <= 1e-14


def test_assembly_rejects_non_antisymmetric_omega():
    frames = random_frames()
    frames.omega = frames.omega + 1e-6
    with pytest.raises(ValueError, match="not antisymmetric"):
        _assemble(frames, build_gamma_rep(5), True)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_selfadjointization_matches_dense_reference(case):
    frames = oracle_frames(case)
    for direction in range(frames.chart.n - frames.chart.k):
        expected = reference_selfadjointization(frames, direction=direction)
        without, with_ = selfadjointization_check(frames.chart, frames=frames,
                                                  direction=direction)
        assert abs(without - expected[0]) <= 1e-12 * expected[0]
        assert abs(with_ - expected[1]) <= 1e-14
