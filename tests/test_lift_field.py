"""The batched frame_lift_field against a per-point spin_lift reference.

The reference walks the staircase order point by point and anchors each
Schur lift to its predecessor's, the way the grid lift used to be computed.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subdirac.dirac import frame_lift_field
from subdirac.geometry import build_frame_field, catalog_chart
from subdirac.spinors import build_gamma_rep, spin_lift


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


def reference_lift(rot, rep):
    shape = rot.shape[:-2]
    taus = np.empty(shape + (rep.dim, rep.dim), dtype=complex)
    cache = {}
    for idx, prev in staircase_indices(shape):
        anchor = cache[prev] if prev is not None else None
        tau = spin_lift(rot[idx], rep, anchor=anchor)
        cache[idx] = tau
        taus[idx] = tau.matrix
    return taus


def rotation_field(rot):
    """Stand-in for a FrameField: frame_lift_field reads only these fields."""
    rot = np.asarray(rot, dtype=float)
    return SimpleNamespace(frame_rotation=rot, grid_shape=rot.shape[:-2],
                           chart=SimpleNamespace(n=rot.shape[-1]))


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


@st.composite
def smooth_fields(draw):
    """Smooth SO(n) fields whose rotations pass close to angle pi.

    R(s) = Q expm(A0 + s . B) Q^T where A0 turns one plane by nearly pi and
    B drifts that angle across pi over the grid; neighbouring rotations
    differ by well under a half-turn.
    """
    n = draw(st.integers(2, 6))
    two_d = draw(st.booleans())
    shape = ((draw(st.integers(8, 12)), draw(st.integers(8, 12))) if two_d
             else (draw(st.integers(8, 40)),))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a0 = 0.3 * _antisymmetric(rng, n)
    a0[0, 1], a0[1, 0] = -(np.pi - 0.2), np.pi - 0.2
    drifts = [0.5 * _antisymmetric(rng, n) for _ in shape]
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    grids = np.meshgrid(*[np.linspace(0.0, 1.0, g) for g in shape], indexing="ij")
    rot = np.empty(shape + (n, n))
    for idx in np.ndindex(*shape):
        gen = a0 + sum(g[idx] * b for g, b in zip(grids, drifts))
        rot[idx] = q @ scipy.linalg.expm(gen) @ q.T
    return rot


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


def _half_turn_jump(shape):
    rot = np.broadcast_to(np.eye(3), shape + (3, 3)).copy()
    rot[..., 4:, :, :] = np.diag([-1.0, -1.0, 1.0])  # along the last grid axis
    return rot


@pytest.mark.parametrize("shape", [(9,), (9, 9)])
def test_half_turn_between_neighbours_is_ambiguous(shape):
    message = assert_same_error(_half_turn_jump(shape))
    assert "ambiguous" in message


def test_non_orthogonal_entry_rejected():
    rot = np.broadcast_to(np.eye(3), (9, 9, 3, 3)).copy()
    rot[5, 6, 0, 1] = 1e-6
    assert "not orthogonal" in assert_same_error(rot)


def test_reflection_entry_rejected():
    rot = np.broadcast_to(np.eye(3), (9, 9, 3, 3)).copy()
    rot[2, 7] = np.diag([-1.0, 1.0, 1.0])
    assert "determinant -1" in assert_same_error(rot)


def test_three_axis_grid_rejected():
    rot = np.broadcast_to(np.eye(3), (4, 4, 4, 3, 3)).copy()
    assert "curve and surface grids only" in assert_same_error(rot)
