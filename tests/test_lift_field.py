"""The reflection spin lift against the Schur-decomposition lift.

spin_lift and frame_lift_field lift every rotation, for every m, as the
product of its Householder reflections (spinors._reflection_lifts):
spin_lift multiplies their gammas, and a frame field multiplies them in
blade coefficients.  The oracle lifts each point from a real Schur
decomposition (_schur_lift, kept here) with spin_lift's checks and sign
rules, and the grid reference walks the staircase order point by point,
anchoring each lift to its predecessor's.  The same walk is the reference
of geometry._staircase_accumulate, the staircase's sums and sign products.
The tests named "above the table" date from a minor table that lifted
m <= 6; they now run for every m.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subdirac.clifford import Multivector
from subdirac.dirac import frame_lift_coefficients, frame_lift_field
from subdirac.geometry import _staircase_accumulate, build_frame_field, catalog_chart
from subdirac.spinors import (
    CliffordGroupElement,
    GammaRep,
    _default_sign,
    _reflection_lifts,
    build_gamma_rep,
    rep_of,
    spin_lift,
    spinor_dim,
)


def staircase_indices(shape):
    """Visit order: base corner, first-axis chain, then each row in turn."""
    if len(shape) == 1:
        for i in range(shape[0]):
            yield (i,), (i - 1,) if i > 0 else None
    elif len(shape) == 2:
        for i in range(shape[0]):
            prev = (i - 1, 0) if i > 0 else None
            yield (i, 0), prev
        for i in range(shape[0]):
            for j in range(1, shape[1]):
                yield (i, j), (i, j - 1)
    else:
        raise ValueError("staircase traversal supports curve and surface grids only")


def walk_accumulate(ufunc, steps, ndim):
    """out(s) = ufunc(out(prev s), steps(s)) point by point in staircase order,
    for planes whose grid is the trailing ndim axes."""
    grid = steps.shape[steps.ndim - ndim:]
    out = np.empty_like(steps)
    for idx, prev in staircase_indices(grid):
        at = (Ellipsis,) + idx
        out[at] = steps[at] if prev is None else ufunc(out[(Ellipsis,) + prev], steps[at])
    return out


@pytest.mark.parametrize("ufunc", [np.add, np.multiply], ids=["add", "multiply"])
@pytest.mark.parametrize("shape, ndim", [((17,), 1), ((3, 17), 1), ((9, 12), 2),
                                         ((2, 3, 9, 12), 2)])
def test_staircase_accumulate_matches_walk(ufunc, shape, ndim):
    # leading axes are entry axes; products of factors near +-1 keep rounding in play
    rng = np.random.default_rng(len(shape))
    steps = (rng.uniform(-1, 1, size=shape) if ufunc is np.add
             else rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.9, 1.1, size=shape))
    before = steps.copy()
    got = _staircase_accumulate(ufunc, steps, ndim)
    assert np.array_equal(got, walk_accumulate(ufunc, steps, ndim))
    assert np.array_equal(steps, before)


def _schur_lift(r: np.ndarray, rep: GammaRep) -> np.ndarray:
    """Spin lift of R in SO(m) from a real Schur decomposition, sign as it falls.

    R is split into planar blocks and lifted plane by plane as
    cos(t/2) - sin(t/2) gamma(u) gamma(w).  R is not checked, beyond an odd
    number of -1 eigenvalues raising.  The oracle of spinors' reflection
    lift.
    """
    t, z = scipy.linalg.schur(r, output="real")
    tau = np.eye(rep.dim, dtype=complex)
    pending_flip = None  # unpaired -1 eigenvalue column awaiting a partner
    i = 0
    while i < rep.m:
        if i + 1 < rep.m and abs(t[i + 1, i]) > 1e-12:
            theta = np.arctan2(t[i + 1, i], t[i, i])
            gu, gw = rep.gamma(z[:, i]), rep.gamma(z[:, i + 1])
            tau = (np.cos(theta / 2) * np.eye(rep.dim) - np.sin(theta / 2) * gu @ gw) @ tau
            i += 2
        else:
            if t[i, i] < 0:
                if pending_flip is None:
                    pending_flip = z[:, i]
                else:
                    # two -1 eigenvalues form a rotation by pi in their plane
                    gu, gw = rep.gamma(pending_flip), rep.gamma(z[:, i])
                    tau = (-gu @ gw) @ tau
                    pending_flip = None
            i += 1
    if pending_flip is not None:
        raise ValueError("odd number of -1 eigenvalues; determinant is -1")
    return tau


def schur_spin_lift(rot, rep, anchor=None):
    """spin_lift by the Schur decomposition: the same checks, messages and sign rules."""
    n = rep.m
    if not (np.isfinite(rot).all() and np.allclose(rot.T @ rot, np.eye(n), rtol=0, atol=1e-10)):
        raise ValueError("matrix is not orthogonal within tolerance")
    if np.linalg.det(rot) < 0:
        raise ValueError("matrix has determinant -1 (not in SO)")
    tau = _schur_lift(rot, rep)
    if anchor is None:
        return _default_sign(tau) * tau
    overlap = np.trace(anchor.conj().T @ tau).real
    if abs(overlap) < 1e-6:
        raise ValueError("double-cover sign is ambiguous relative to the anchor "
                         "(frame field discontinuity)")
    return np.sign(overlap) * tau


def reference_lift(rot, rep):
    shape = rot.shape[:-2]
    taus = np.empty(shape + (rep.dim, rep.dim), dtype=complex)
    for idx, prev in staircase_indices(shape):
        taus[idx] = schur_spin_lift(rot[idx], rep, anchor=None if prev is None else taus[prev])
    return taus


def rotation_field(rot):
    """Stand-in for a FrameField: frame_lift_field reads only these fields.

    The rotation's first row stands for the tangent planes and the rest for
    the normal planes, entry-major (rows, n, *grid), as a FrameField holds them.
    """
    rot = np.asarray(rot, dtype=float)
    planes = np.moveaxis(rot, (-2, -1), (0, 1))
    return SimpleNamespace(tangent_planes=planes[:1], normal_planes=planes[1:],
                           grid_shape=rot.shape[:-2], chart=SimpleNamespace(n=rot.shape[-1]))


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def assert_same_error(rot):
    rep = build_gamma_rep(rot.shape[-1])
    message = raised(reference_lift, rot, rep)
    assert raised(frame_lift_field, rotation_field(rot), rep) == message
    return message


def _antisymmetric(rng, n):
    a = rng.normal(size=(n, n))
    return a - a.T


def _smooth_field(n, shape, seed):
    """Smooth SO(n) field on the grid shape whose rotations pass close to angle pi.

    R(s) = Q expm(A0 + s . B) Q^T where A0 turns one plane by nearly pi and
    B drifts that angle across pi over the grid; neighbouring rotations
    differ by well under a half-turn.
    """
    rng = np.random.default_rng(seed)
    a0 = 0.3 * _antisymmetric(rng, n)
    if n > 1:
        a0[0, 1], a0[1, 0] = -(np.pi - 0.2), np.pi - 0.2
    drifts = [0.5 * _antisymmetric(rng, n) for _ in shape]
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, g) for g in shape], indexing="ij")
    rot = np.empty(shape + (n, n))
    for idx in np.ndindex(*shape):
        gen = a0 + sum(g[idx] * b for g, b in zip(grids, drifts))
        rot[idx] = q @ scipy.linalg.expm(gen) @ q.T
    return rot


@st.composite
def smooth_fields(draw):
    n = draw(st.integers(2, 6))
    two_d = draw(st.booleans())
    shape = ((draw(st.integers(8, 12)), draw(st.integers(8, 12))) if two_d
             else (draw(st.integers(8, 40)),))
    return _smooth_field(n, shape, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(smooth_fields())
def test_matches_reference_on_smooth_fields(rot):
    rep = build_gamma_rep(rot.shape[-1])
    expected = reference_lift(rot, rep)
    assert np.abs(frame_lift_field(rotation_field(rot), rep) - expected).max() <= 1e-12


@pytest.mark.parametrize("name, shape", [("sphere", (65, 65)), ("torus", (33, 33)),
                                         ("clifford-torus-r4", (33, 33)),
                                         ("helix-curve", (513,))])
def test_matches_reference_on_catalog_charts(name, shape):
    frames = build_frame_field(catalog_chart(name), shape=shape)
    rep = build_gamma_rep(frames.chart.n)
    expected = reference_lift(frames.frame_rotation, rep)
    assert np.abs(frame_lift_field(frames, rep) - expected).max() <= 1e-12


def test_matches_reference_in_conjugated_rep():
    frames = build_frame_field(catalog_chart("clifford-torus-r4"), shape=(17, 17))
    u = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4))
                     + 1j * np.random.default_rng(4).normal(size=(4, 4)))[0]
    rep = build_gamma_rep(4).conjugated(u)
    expected = reference_lift(frames.frame_rotation, rep)
    assert np.abs(frame_lift_field(frames, rep) - expected).max() <= 1e-12


def _half_turn_jump(shape, n=3):
    rot = np.broadcast_to(np.eye(n), shape + (n, n)).copy()
    rot[..., 4:, :, :] = np.diag([-1.0, -1.0] + [1.0] * (n - 2))  # along the last grid axis
    return rot


@pytest.mark.parametrize("shape", [(9,), (9, 9)])
def test_half_turn_between_neighbours_is_ambiguous(shape):
    message = assert_same_error(_half_turn_jump(shape))
    assert "ambiguous" in message


def test_non_orthogonal_entry_rejected():
    rot = np.broadcast_to(np.eye(3), (9, 9, 3, 3)).copy()
    rot[5, 6, 0, 1] = 1e-6
    assert "not orthogonal" in assert_same_error(rot)


def test_orthogonality_guard_is_absolute():
    # R^T R = diag(1 + 8e-6, 1, 1): inside a relative 1e-5 band, outside 1e-10
    rot = np.broadcast_to(np.eye(3), (9, 9, 3, 3)).copy()
    rot[4, 2] = np.diag([1 + 4e-6, 1.0, 1.0])
    assert "not orthogonal" in assert_same_error(rot)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(9,), (9, 9)])
def test_non_finite_entry_rejected(bad, shape):
    rot = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    rot[(3,) * len(shape) + (1, 2)] = bad
    assert "not orthogonal" in assert_same_error(rot)


def test_reflection_entry_rejected():
    rot = np.broadcast_to(np.eye(3), (9, 9, 3, 3)).copy()
    rot[2, 7] = np.diag([-1.0, 1.0, 1.0])
    assert "determinant -1" in assert_same_error(rot)


def test_three_axis_grid_rejected():
    rot = np.broadcast_to(np.eye(3), (4, 4, 4, 3, 3)).copy()
    assert "curve and surface grids only" in assert_same_error(rot)


def _turn(n, angle):
    """Rotation by angle in the (e_1, e_2) plane of R^n."""
    rot = np.eye(n)
    rot[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return rot


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("trace, ambiguous", [(2e-6, False), (5e-7, True)])
def test_ambiguity_guard_at_its_threshold(n, trace, ambiguous):
    # the lift of a turn by t has trace d cos(t/2) against the identity's
    rep = build_gamma_rep(n)
    rot = np.stack([np.eye(n), _turn(n, 2 * np.arccos(trace / rep.dim)), np.eye(n)])
    if ambiguous:
        assert "ambiguous" in assert_same_error(rot)
    else:
        expected = reference_lift(rot, rep)
        assert np.abs(np.trace(expected[1])) == pytest.approx(trace, rel=1e-6)
        assert np.abs(frame_lift_field(rotation_field(rot), rep) - expected).max() <= 1e-12


# --- the reflection lift against the Schur reference, m = 1..12 -----------------

def _even_blades(n):
    return [mask for mask in range(1 << n) if bin(mask).count("1") % 2 == 0]


def _near_half_turns(rng, n):
    """A random conjugate of turns by nearly pi in every coordinate plane pair."""
    gen = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        gen[i, i + 1] = -(np.pi - 10.0 ** rng.uniform(-6, -2))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return q @ scipy.linalg.expm(gen - gen.T) @ q.T


def _turns(q, angles):
    """q diag(turn by angles[0], turn by angles[1], ..., 1) q^T."""
    n = len(q)
    block = np.eye(n)
    for i, angle in enumerate(angles):
        c, s = np.cos(angle), np.sin(angle)
        block[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c, -s], [s, c]]
    return q @ block @ q.T


def _above_table_rotations(n):
    """Seeded random rotations of R^n and the cases the Schur lift meets in its
    -1 eigenvalue branch: the identity, turns by pi in one and in two planes
    (coordinate and conjugated), diag(-1, -1, 1, ...), and block-diagonal turns,
    as far as n has room for them."""
    rng = np.random.default_rng(300 + n)
    eye = np.eye(n)
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    blocks = np.eye(n)
    for lo, hi in ((0, min(3, n)), (min(3, n), n)):
        if hi > lo:
            block = np.linalg.qr(rng.normal(size=(hi - lo, hi - lo)))[0]
            block[:, 0] *= np.sign(np.linalg.det(block))
            blocks[lo:hi, lo:hi] = block
    rotations = [eye, blocks]
    if n >= 2:
        rotations += [_turns(eye, [np.pi]), _turns(q, [np.pi]), np.diag([-1.0, -1.0] + [1.0] * (n - 2)),
                      _turns(eye, rng.uniform(-np.pi, np.pi, n // 2))]
    if n >= 4:
        rotations += [_turns(eye, [np.pi, np.pi]), _turns(q, [np.pi, np.pi])]
    for _ in range(6):
        rot = np.linalg.qr(rng.normal(size=(n, n)))[0]
        rot[:, 0] *= np.sign(np.linalg.det(rot))
        rotations.append(rot)
    return rotations


@pytest.mark.parametrize("n", range(1, 9))
def test_reflections_read_the_determinant_sign(n):
    # m - 1 reflections and the flipped axes N: an even count lifts, an odd
    # one is det R = -1, for random orthogonal matrices of either sign
    rng = np.random.default_rng(n)
    q = np.linalg.qr(rng.normal(size=(40, n, n)))[0]
    q[:, :, 0] *= rng.choice([-1.0, 1.0], size=(40, 1))
    det = np.linalg.det(q)
    entries = np.moveaxis(q, 0, -1).reshape(n * n, -1)
    vectors, flips = _reflection_lifts(entries[:, det > 0], n, 1e-10)
    assert vectors.shape == (n - 1, n, (det > 0).sum())
    assert np.allclose(np.linalg.norm(vectors, axis=1), 1, rtol=0, atol=1e-15)
    assert all(bin(f).count("1") % 2 == (n - 1) % 2 for f in flips.tolist())
    with pytest.raises(ValueError, match="determinant -1"):
        _reflection_lifts(entries[:, det < 0], n, 1e-10)


@pytest.mark.parametrize("n, shape", [(7, (24,)), (7, (6, 5)), (8, (5, 6)), (12, (3, 3))])
def test_matches_reference_above_the_table(n, shape):
    rot = _smooth_field(n, shape, seed=n)
    rep = build_gamma_rep(n)
    expected = reference_lift(rot, rep)
    assert np.abs(frame_lift_field(rotation_field(rot), rep) - expected).max() <= 1e-12


@pytest.mark.parametrize("n, shape", [(7, (24,)), (8, (5, 6))])
def test_projection_above_the_table(n, shape):
    # the signed coefficients are the staircase reference's lifts projected
    # onto the even blades, and the lift field is their product against the
    # even blade products
    rot = _smooth_field(n, shape, seed=n)
    rep = build_gamma_rep(n)
    expected = reference_lift(rot, rep).reshape(-1, rep.dim, rep.dim)
    blades = np.stack([rep_of(Multivector(n, {mask: 1.0}), rep) for mask in _even_blades(n)])
    expected_c = np.einsum("kij,pij->kp", blades.conj(), expected).real / rep.dim
    coeffs = frame_lift_coefficients(rotation_field(rot), rep)
    assert coeffs.shape == (len(blades),) + shape
    assert np.abs(coeffs.reshape(len(blades), -1) - expected_c).max() <= 1e-12
    assert np.abs(np.linalg.norm(coeffs, axis=0) - 1).max() <= 1e-12
    lifted = np.tensordot(np.moveaxis(coeffs, 0, -1), blades, axes=1)
    assert np.abs(frame_lift_field(rotation_field(rot), rep) - lifted).max() <= 1e-13


@pytest.mark.parametrize("n", range(1, 13))
def test_lift_coefficients_above_the_table_match_the_projected_schur_lift(n):
    # a smooth field and one-point fields of every case; c_K = Re tr(gamma_K^H tau) / d
    rep = build_gamma_rep(n)
    blades = rep.even_products.reshape(len(rep.even_products), -1).view(float)

    def projected(taus):
        return blades @ taus.reshape(len(taus), -1).view(float).T / rep.dim

    fields = [_smooth_field(n, (5,) if n > 9 else (4, 3), seed=n)]
    fields += [rot[None] for rot in _above_table_rotations(n)]
    for rot in fields:
        expected = projected(reference_lift(rot, rep).reshape(-1, rep.dim, rep.dim))
        coeffs = frame_lift_coefficients(rotation_field(rot), rep)
        assert np.abs(coeffs.reshape(len(blades), -1) - expected).max() <= 1e-13


def test_errors_above_the_table():
    for n in (3, 7, 12):
        identity = np.broadcast_to(np.eye(n), (6, 6, n, n))
        non_orthogonal, reflection, non_finite = identity.copy(), identity.copy(), identity.copy()
        non_orthogonal[4, 2] = np.diag([1 + 4e-6] + [1.0] * (n - 1))
        reflection[2, 5] = np.diag([-1.0] + [1.0] * (n - 1))
        non_finite[3, 3, 1, 2] = np.nan
        assert "not orthogonal" in assert_same_error(non_orthogonal)
        assert "determinant -1" in assert_same_error(reflection)
        assert "not orthogonal" in assert_same_error(non_finite)
        assert "ambiguous" in assert_same_error(_half_turn_jump((6, 6), n))


# --- spin_lift on one point against the Schur lift -------------------------------

@st.composite
def point_lifts(draw):
    """(rotation, anchor or None): random, half-turn, near-half-turn and identity
    rotations of R^1..R^8; anchors are +-lifts of nearby rotations or the identity."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "half-turns", "near-half-turns", "mixed", "identity"]))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    planes = n // 2
    if kind == "identity":
        rot = np.eye(n)
    elif kind == "random":
        rot = q.copy()
        rot[:, 0] *= np.sign(np.linalg.det(q))
    else:
        near = np.pi - 10.0 ** rng.uniform(-8, -2, size=planes)
        angles = {"half-turns": np.full(planes, np.pi), "near-half-turns": near,
                  "mixed": np.where(rng.random(planes) < 0.5, np.pi,
                                    rng.uniform(-np.pi, np.pi, planes))}[kind]
        rot = _turns(q, angles)
    anchor_kind = draw(st.sampled_from([None, "nearby", "identity"]))
    if anchor_kind is None:
        return rot, None
    if anchor_kind == "identity":
        return rot, np.eye(spinor_dim(n), dtype=complex)
    nudge = _turns(np.linalg.qr(rng.normal(size=(n, n)))[0], rng.uniform(-0.3, 0.3, planes))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return rot, sign * schur_spin_lift(rot @ nudge, build_gamma_rep(n))


@settings(max_examples=300, deadline=None)
@given(point_lifts())
def test_spin_lift_matches_schur_lift(case):
    # with no anchor the oracle is default-signed, so 1e-14 also pins the sign
    rot, anchor = case
    rep = build_gamma_rep(rot.shape[-1])
    element = None if anchor is None else CliffordGroupElement(rep.m, anchor, rot)
    try:
        expected = schur_spin_lift(rot, rep, anchor)
    except ValueError as exc:  # an anchor a quarter-turn of the spinors away
        assert raised(spin_lift, rot, rep, element) == str(exc)
        return
    tau = spin_lift(rot, rep, element)
    assert np.abs(tau.matrix - expected).max() <= 1e-14
    assert np.array_equal(tau.rotation, rot)


@pytest.mark.parametrize("n", range(1, 13))
def test_spin_lift_above_the_table_matches_schur_lift(n):
    # spin_lift is the reflection lift: it covers R, and with the default
    # sign or an anchor it is the Schur lift's tau
    rep = build_gamma_rep(n)
    rotations = _above_table_rotations(n) + [_near_half_turns(np.random.default_rng(200 + n), n)]
    for rot in rotations:
        tau = spin_lift(rot, rep).matrix
        for i in range(n):
            assert np.abs(tau @ rep.gammas[i] @ tau.conj().T - rep.gamma(rot[:, i])).max() <= 1e-14
        expected = schur_spin_lift(rot, rep)
        assert np.abs(tau - expected).max() <= 1e-13
        anchor = CliffordGroupElement(n, -expected, rot)
        assert np.abs(spin_lift(rot, rep, anchor).matrix + expected).max() <= 1e-13


@pytest.mark.parametrize("n", range(1, 13))
def test_spin_lift_error_messages(n):
    rep = build_gamma_rep(n)
    eye = np.eye(n)
    non_orthogonal = np.diag([1 + 4e-6] + [1.0] * (n - 1))
    reflection = np.diag([-1.0] + [1.0] * (n - 1))
    cases = [(np.eye(n + 1), f"expected {n}x{n} rotation"),
             (eye[:, :-1] if n > 1 else np.ones(2), f"expected {n}x{n} rotation"),
             (non_orthogonal, "matrix is not orthogonal within tolerance"),
             (reflection, "matrix has determinant -1 (not in SO)")]
    for bad in (np.nan, np.inf, -np.inf):
        rot = eye.copy()
        rot[n - 1, 0] = bad
        cases.append((rot, "matrix is not orthogonal within tolerance"))
    for rot, message in cases:
        assert raised(spin_lift, rot, rep) == message
        if rot.shape == (n, n):
            assert raised(schur_spin_lift, rot, rep) == message

