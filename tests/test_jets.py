"""Second-order jets: each rule against sympy, the catalog against its
sympy oracle (tests/sympy_catalog.py), and from_callable on numpy
callables and on callables that reject jets."""

import dataclasses
import math

import numpy as np
import pytest
import sympy as sp
from sympy_catalog import SYMPY_CATALOG

from subdirac.geometry import (
    CATALOG,
    ImmersionChart,
    Jet,
    adapted_frames,
    build_frame_field,
    catalog_chart,
    weingarten,
)

U, V = sp.symbols("u v")

# (numpy expression on jets or floats, the same expression in sympy)
RULES = {
    "sum": (lambda u, v: u + v + 2.0, U + V + 2),
    "difference": (lambda u, v: 1.5 - u - 2.5 * v, sp.Rational(3, 2) - U - sp.Rational(5, 2) * V),
    "negation": (lambda u, v: -(u * v), -(U * V)),
    "np-negative": (lambda u, v: np.negative(u * v), -(U * V)),
    "product": (lambda u, v: (u + 2 * v) * (u * v - 1), (U + 2 * V) * (U * V - 1)),
    "constant-product": (lambda u, v: np.float64(0.5) * u * v * 3, sp.Rational(3, 2) * U * V),
    "array-product": (lambda u, v: np.array(0.5) * u * v, U * V / 2),
    "quotient": (lambda u, v: np.cos(u) / (2 + v * v), sp.cos(U) / (2 + V**2)),
    "constant-over-jet": (lambda u, v: 3 / (1.5 + u * v), 3 / (sp.Rational(3, 2) + U * V)),
    "jet-over-constant": (lambda u, v: u * v * v / 7, U * V**2 / 7),
    "power-3": (lambda u, v: (u * v + 2) ** 3, (U * V + 2) ** 3),
    "power-2": (lambda u, v: (u - v) ** 2, (U - V) ** 2),
    "power-1": (lambda u, v: (u * v) ** 1, U * V),
    "power-0": (lambda u, v: (u * v) ** 0, sp.Integer(1)),
    "power-minus-2": (lambda u, v: (u + 3 * v + 4) ** -2, (U + 3 * V + 4) ** -2),
    "power-half": (lambda u, v: (u * u + v * v + 1) ** 0.5, sp.sqrt(U**2 + V**2 + 1)),
    "np-power": (lambda u, v: np.power(u + 2, 3), (U + 2) ** 3),
    "sin": (lambda u, v: np.sin(u * v), sp.sin(U * V)),
    "cos": (lambda u, v: np.cos(u + v * v), sp.cos(U + V**2)),
    "cosh": (lambda u, v: np.cosh(u * v), sp.cosh(U * V)),
    "sqrt": (lambda u, v: np.sqrt(3 + u * v), sp.sqrt(3 + U * V)),
}


def sympy_jet(expr, points):
    """Value, gradient (2, P) and Hessian (2, 2, P) of expr at points (P, 2)."""
    args = (points[:, 0], points[:, 1])

    def ev(e):
        return np.broadcast_to(np.asarray(sp.lambdify((U, V), e, "numpy")(*args), float),
                               points.shape[:1])

    grad = np.stack([ev(sp.diff(expr, w)) for w in (U, V)])
    hess = np.stack([[ev(sp.diff(expr, w1, w2)) for w2 in (U, V)] for w1 in (U, V)])
    return ev(expr), grad, hess


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rule", sorted(RULES))
def test_jet_rule_matches_sympy(rule, seed):
    fn, expr = RULES[rule]
    points = np.random.default_rng(seed).uniform(-1, 1, size=(20, 2))
    s = Jet.variables(points)
    out = fn(s[..., 0], s[..., 1])
    value, grad, hess = sympy_jet(expr, points)
    scale = 1 + np.abs(value)
    assert np.abs(out.v - value).max() <= 1e-13 * scale.max()
    assert np.abs(out.d - grad).max() <= 1e-13 * scale.max() * 10
    dd = np.zeros_like(hess) if out.dd is None else out.dd
    assert np.abs(dd - hess).max() <= 1e-13 * scale.max() * 100
    # the jet's value is the float evaluation of the same expression
    assert np.array_equal(np.broadcast_to(out.v, value.shape),
                          np.broadcast_to(fn(points[:, 0], points[:, 1]), value.shape))


def test_jet_rejections():
    s = Jet.variables(np.array([[0.3, 0.4], [0.5, 0.6]]))
    u = s[..., 0]
    for reject in (lambda: math.sin(u), lambda: float(u), lambda: np.asarray(u),
                   lambda: np.array([u, u]), lambda: np.abs(u), lambda: np.exp(u),
                   lambda: u > 0, lambda: np.linalg.norm(u), lambda: 2.0 ** u,
                   lambda: u ** u, lambda: np.add(u, u, out=np.empty(2))):
        with pytest.raises(TypeError):
            reject()


@pytest.mark.parametrize("points", [np.array([0.3, -0.7]), np.random.default_rng(1).uniform(
    -1, 1, size=(3, 4, 2))], ids=["one-point", "grid"])
def test_jet_stack_and_indexing(points):
    s = Jet.variables(points)
    u, v = s[..., 0], s[..., 1]
    lead = points.shape[:-1]
    for axis in (0, -1):
        out = np.stack([u * v, u, 1.5 * np.ones(lead), 2.0], axis=axis)
        expected_v = np.stack([points[..., 0] * points[..., 1], points[..., 0],
                               np.full(lead, 1.5), np.full(lead, 2.0)], axis=axis)
        assert np.array_equal(out.v, expected_v)
        d_axis = axis + 1 if axis >= 0 else axis
        d = np.moveaxis(out.d, d_axis, 1)  # (k, component, *lead)
        assert np.array_equal(d[:, 0], np.stack([points[..., 1], points[..., 0]]))
        assert np.array_equal(d[:, 1], np.stack([np.ones(lead), np.zeros(lead)]))
        assert not d[:, 2:].any()
        dd = np.moveaxis(out.dd, axis + 2 if axis >= 0 else axis, 2)
        cross = np.array([[0.0, 1.0], [1.0, 0.0]]).reshape((2, 2) + (1,) * len(lead))
        assert np.array_equal(dd[:, :, 0], cross * np.ones(lead))
        assert not dd[:, :, 1:].any()
    # a constant that broadcasts the jet to a larger value shape
    scale = np.array([1.0, 2.0, 3.0]).reshape((3,) + (1,) * len(lead))
    grown = u * scale
    assert grown.shape == (3,) + lead
    assert np.array_equal(grown.d[0], scale * np.ones(lead))
    assert not grown.d[1].any()


# --- the catalog against its sympy oracle --------------------------------------

PARAMS = {
    "plane": {}, "graph": {"a": 1.3}, "sphere": {"r": 1.7}, "catenoid": {"c": 0.6},
    "helicoid": {"c": 1.4}, "enneper": {}, "torus": {"R": 2.5, "r": 0.4},
    "clifford-torus-r4": {"r": 1.6}, "helix-curve": {"a": 0.7, "b": 1.3},
    "circle-curve": {"r": 2.2},
}


def seeded_points(chart, count, seed):
    rng = np.random.default_rng(seed)
    return [np.array([lo + (hi - lo) * rng.uniform(0.1, 0.9) for lo, hi in chart.rectangle])
            for _ in range(count)]


def test_oracle_covers_the_catalog():
    assert sorted(SYMPY_CATALOG) == sorted(CATALOG) == sorted(PARAMS)


@pytest.mark.parametrize("params", ["default", "set"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_jets_match_sympy(name, params):
    params = PARAMS[name] if params == "set" else {}
    chart, oracle = catalog_chart(name, **params), SYMPY_CATALOG[name](**params)
    assert (chart.name, chart.k, chart.n, chart.rectangle, chart.grid_shape, chart.params) == (
        oracle.name, oracle.k, oracle.n, oracle.rectangle, oracle.grid_shape, oracle.params)
    grid = chart.grid((257,) if chart.k == 1 else (17, 17))
    for s in [grid] + seeded_points(chart, 4, seed=17):
        got = chart.derivatives(s)
        assert [a.shape for a in got] == [s.shape[:-1] + (chart.n,) + (chart.k,) * i
                                          for i in range(3)]
        for a, b in zip(got, (oracle.x(s), oracle.jacobian(s), oracle.hessian(s))):
            # relative to the size of the entries: sympy turns x / c into
            # x * (1/c) with 1/c rounded, which costs the catenoid's Hessian
            # at c = 0.6 an error of 1.4e-14 at entries near 3.1 (the jet's
            # is 1.8e-16 against mpmath)
            assert np.abs(a - b).max() <= 1e-14 * max(1.0, np.abs(b).max())
        # the separate callables are the same pass
        for a, b in zip(got, (chart.x(s), chart.jacobian(s), chart.hessian(s))):
            assert np.array_equal(a, b)


# --- from_callable ---------------------------------------------------------------

def numpy_sphere(s):
    th, ph = s[..., 0], s[..., 1]
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)


def math_sphere(s):
    """One point at a time through math.sin, which a jet cannot pass."""
    th, ph = s[0], s[1]
    return np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])


def test_from_callable_numpy_is_exact():
    sphere = catalog_chart("sphere")
    chart = ImmersionChart.from_callable("np-sphere", numpy_sphere, 2, 3, sphere.rectangle)
    for s in [sphere.grid((17, 17))] + seeded_points(sphere, 4, seed=3):
        for a, b in zip(chart.derivatives(s), sphere.derivatives(s)):
            assert np.abs(a - b).max() <= 1e-14
    ff, ref = build_frame_field(chart, (17, 17)), build_frame_field(sphere, (17, 17))
    assert np.abs(ff.weingarten - ref.weingarten).max() <= 1e-14
    assert np.abs(ff.omega - ref.omega).max() <= 1e-14


def test_from_callable_falls_back_to_central_differences():
    sphere = catalog_chart("sphere")
    chart = ImmersionChart.from_callable("math-sphere", math_sphere, 2, 3, sphere.rectangle)
    # the central-difference truncation error: h^2/6 max|x'''| for the
    # Jacobian and twice that for the nested differences of the Hessian,
    # every derivative of the unit sphere's components being at most 1
    # (h up to 5.6e-4 on the second axis: 5.2e-8 and 1.05e-7), plus rounding
    h = max(chart.h_fd * max(1.0, hi - lo) for lo, hi in sphere.rectangle)
    for s in seeded_points(sphere, 4, seed=3):
        x, jac, hess = chart.derivatives(s)
        assert np.array_equal(x, math_sphere(s))
        jac_err = np.abs(jac - sphere.jacobian(s)).max()
        hess_err = np.abs(hess - sphere.hessian(s)).max()
        assert 1e-10 < jac_err <= h**2 / 6 + 1e-11
        assert 1e-10 < hess_err <= h**2 / 3 + 1e-8
        assert np.array_equal(chart.jacobian(s), jac) and np.array_equal(chart.hessian(s), hess)
        # the pointwise geometry runs on the differenced derivatives
        gamma, _, mean = weingarten(chart, s, adapted_frames(chart, s))
        assert mean[0] == pytest.approx(2.0, abs=1e-6)


def test_from_callable_fallback_keeps_central_difference_arithmetic():
    sphere = catalog_chart("sphere")
    chart = ImmersionChart.from_callable("math-sphere", math_sphere, 2, 3, sphere.rectangle)
    s = seeded_points(sphere, 1, seed=5)[0]
    step = chart.h_fd * max(1.0, sphere.rectangle[0][1] - sphere.rectangle[0][0])
    e = np.array([step, 0.0])
    expected = (math_sphere(s + e) - math_sphere(s - e)) / (2 * step)
    assert np.array_equal(chart.jacobian(s)[:, 0], expected)


@pytest.mark.parametrize("name", ["sphere", "clifford-torus-r4", "helix-curve"])
def test_one_chart_pass_per_call_site(name):
    chart = catalog_chart(name)
    calls = []

    def counted(fn, label):
        def evaluate(s):
            calls.append(label)
            return fn(s)
        return evaluate

    counting = dataclasses.replace(
        chart, x=counted(chart.x, "x"), jacobian=counted(chart.jacobian, "jacobian"),
        hessian=counted(chart.hessian, "hessian"), jet=counted(chart.jet, "jet"))
    build_frame_field(counting, shape=(17,) * chart.k)
    assert calls == ["jet"]
    s = seeded_points(chart, 1, seed=2)[0]
    frames = adapted_frames(chart, s)
    calls.clear()
    weingarten(counting, s, frames)
    assert calls == ["jet"]
