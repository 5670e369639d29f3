"""Second-order jets: each rule against sympy, the sparse jet against the
dense one (tests/dense_jet.py) on random expressions, the catalog against
its sympy oracle (tests/sympy_catalog.py), from_callable on numpy
callables and on callables that reject jets, and the chart pass on a
grid's axes against the pass on the dense meshgrid (dense_jet_pass)."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
import sympy as sp
from dense_jet import DenseJet, chart_callable, dense_jet_pass, dense_pass_chart
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy_catalog import SYMPY_CATALOG

from subdirac import geometry
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


# --- the sparse jet against the dense oracle ---------------------------------------
#
# Random expression trees over every rule.  The arguments of sqrt, the
# negative and fractional powers and cosh are kept in range, so that the
# values stay finite and the two jets must agree bit for bit (up to the
# sign of a zero, which np.array_equal ignores).

UNARY = {
    "negation": lambda x: -x,
    "np-negative": np.negative,
    "sin": np.sin,
    "cos": np.cos,
    "cosh": lambda x: np.cosh(np.sin(x)),
    "sqrt": lambda x: np.sqrt(1.5 + np.sin(x)),
    "power-0": lambda x: x ** 0,
    "power-1": lambda x: x ** 1,
    "power-2": lambda x: x ** 2,
    "np-power-3": lambda x: np.power(x, 3),
    "power-minus-2": lambda x: (2 + np.cos(x)) ** -2,
    "power-half": lambda x: (2 + np.cos(x)) ** 0.5,
    "plus-constant": lambda x: x + 0.7,
    "constant-minus": lambda x: 1.25 - x,
    "constant-times": lambda x: 2.5 * x,
    "array-times": lambda x: np.array(0.5) * x,
    "over-constant": lambda x: x / 7.0,
    "constant-over": lambda x: 3.0 / (2.5 + np.sin(x)),
    "broadcast-constant": lambda x: x * np.array([1.0, -2.0]).reshape(2, 1, 1),
    "broadcast-sum": lambda x: np.array([0.5, 1.5]).reshape(2, 1, 1) - x,
}


def _stack_first(x, y):
    t = np.stack([x, 0.5, y])
    return t[0] * t[2] - t[1]


def _stack_last(x, y):
    t = np.stack([x, y, np.float64(1.5)], axis=-1)
    return t[..., 1] / (2 + np.cos(t[..., 0])) + t[..., 2]


BINARY = {
    "sum": lambda x, y: x + y,
    "difference": lambda x, y: x - y,
    "product": lambda x, y: x * y,
    "quotient": lambda x, y: x / (1.75 + np.sin(y)),
    "stack-first": _stack_first,
    "stack-last": _stack_last,
}


def evaluate(tree, s):
    """The expression tree on the parameter jet s (..., k)."""
    op = tree[0]
    if op == "parameter":
        _, a, sliced = tree
        # s[..., a:][..., 0] indexes twice, through a general slice first
        return s[..., a:][..., 0] if sliced else s[..., a]
    if op in UNARY:
        return UNARY[op](evaluate(tree[1], s))
    return BINARY[op](evaluate(tree[1], s), evaluate(tree[2], s))


@st.composite
def jet_cases(draw):
    k = draw(st.integers(1, 3))
    leaves = st.tuples(st.just("parameter"), st.integers(0, k - 1), st.booleans())
    tree = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(sorted(UNARY)), kids),
        st.tuples(st.sampled_from(sorted(BINARY)), kids, kids)), max_leaves=10))
    lead = draw(st.sampled_from([(), (5,), (3, 4)]))
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1, 1, lead + (k,))
    return tree, points


def dense_parts(jet, shape):
    k = len(jet.d)
    dd = np.zeros((k, k) + shape) if jet.dd is None else np.broadcast_to(jet.dd, (k, k) + shape)
    return jet.v, np.broadcast_to(jet.d, (k,) + shape), dd


@settings(max_examples=400, deadline=None)
@given(jet_cases())
def test_sparse_jet_matches_dense_oracle(case):
    tree, points = case
    with np.errstate(all="ignore"):
        dense = evaluate(tree, DenseJet.variables(points))
        sparse = evaluate(tree, Jet.variables(points))
        first = evaluate(tree, Jet.variables(points, order=1))
    shape = np.shape(dense.v)
    expected = dense_parts(dense, shape)
    assume(all(np.isfinite(part).all() for part in expected))
    assert sparse.shape == first.shape == shape
    for got, want in zip(dense_parts(sparse, shape), expected):
        assert np.array_equal(got, want)
    # a first-order pass carries no Hessian and the same value and gradient
    assert first.h is None and first.dd is None
    assert np.array_equal(first.v, sparse.v) and np.array_equal(first.d, sparse.d)


def test_jets_skip_structural_zeros():
    # sin(theta) depends on theta alone: one gradient plane, one Hessian plane
    s = Jet.variables(np.random.default_rng(0).uniform(size=(4, 3, 2)))
    out = np.sin(s[..., 0]) * 2.0
    assert out.g[1] is None and out.h[1] is None and out.h[2] is None
    assert out.g[0].shape == out.h[0].shape == (4, 3)
    assert Jet.variables(np.zeros(2), order=1)[..., 1].h is None


def test_first_order_jet_computes_no_second_derivative(monkeypatch):
    calls = []

    def counted(rule):
        def wrapped(v):
            f, f1, f2 = rule(v)
            return f, f1, lambda: calls.append(rule) or f2()
        return wrapped

    monkeypatch.setattr(geometry, "_JET_FUNCTIONS",
                        {u: counted(rule) for u, rule in geometry._JET_FUNCTIONS.items()})
    s = np.array([[0.7, 1.1], [1.3, 2.0]])
    for name in ("sphere", "catenoid", "clifford-torus-r4"):
        catalog_chart(name).jacobian(s)
    assert calls == []
    catalog_chart("sphere").derivatives(s)
    assert calls


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_first_order_pass_gives_the_second_order_jacobian(name):
    chart = catalog_chart(name)
    for s in seeded_points(chart, 4, seed=29) + [chart.grid((17,) * chart.k)]:
        x1, jac1, hess1 = chart.jet(s, order=1)
        x2, jac2, hess2 = chart.jet(s)
        assert hess1 is None and hess2 is not None
        assert np.array_equal(x1, x2) and np.array_equal(jac1, jac2)
        assert np.array_equal(chart.jacobian(s), np.moveaxis(jac2, (0, 1), (-2, -1)))


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
        def evaluate(s, *order):
            calls.append(label)
            return fn(s, *order)
        return evaluate

    counting = dataclasses.replace(chart, jet=counted(chart.jet, "jet"))
    build_frame_field(counting, shape=(17,) * chart.k)
    assert calls == ["jet"]
    s = seeded_points(chart, 1, seed=2)[0]
    frames = adapted_frames(chart, s)
    calls.clear()
    weingarten(counting, s, frames)
    assert calls == ["jet"]


SPHERE_CHARTS = {
    "catalog": lambda: catalog_chart("sphere"),
    "central-differences": lambda: ImmersionChart.from_callable(
        "math-sphere", math_sphere, 2, 3, catalog_chart("sphere").rectangle),
    "sympy": SYMPY_CATALOG["sphere"],
}


@pytest.mark.parametrize("kind", sorted(SPHERE_CHARTS))
def test_each_accessor_is_one_jet_call(kind):
    chart = SPHERE_CHARTS[kind]()
    orders = []

    def counted(s, order=2):
        orders.append(order)
        return chart.jet(s, order)

    counting = dataclasses.replace(chart, jet=counted)
    s = seeded_points(chart, 1, seed=11)[0]
    for accessor, order in [("x", 0), ("jacobian", 1), ("hessian", 2), ("derivatives", 2)]:
        orders.clear()
        getattr(counting, accessor)(s)
        assert orders == [order], accessor
    assert np.array_equal(counting.jacobian(s), counting.derivatives(s)[1])


# --- the pass on the grid's axes against the dense pass ---------------------------


def _frame_planes(frames):
    return {f.name: getattr(frames, f.name) for f in dataclasses.fields(frames)
            if f.name.endswith("_planes") or f.name == "gtilde_residual"}


@pytest.mark.parametrize("level", ["default", "fine", "finer"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_axis_pass_matches_dense_pass(name, level):
    chart = catalog_chart(name)
    shape = {"default": chart.grid_shape, "fine": (257,) if chart.k == 1 else (65, 65),
             "finer": (513,) if chart.k == 1 else (129, 129)}[level]
    got = chart.jet(chart.open_mesh(shape))
    want = dense_jet_pass(chart_callable(chart), chart.grid(shape), chart.n)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)
    frames = _frame_planes(build_frame_field(chart, shape))
    dense = _frame_planes(build_frame_field(dense_pass_chart(chart), shape))
    assert frames.keys() == dense.keys()
    for key in frames:
        assert np.array_equal(frames[key], dense[key]), key


def test_sphere_axis_pass_evaluates_trig_on_axis_lines(monkeypatch):
    sizes = []

    def recorded(rule):
        def wrapped(v):
            sizes.append(np.size(v))
            return rule(v)
        return wrapped

    monkeypatch.setitem(geometry._JET_FUNCTIONS, np.sin, recorded(geometry._sin))
    monkeypatch.setitem(geometry._JET_FUNCTIONS, np.cos, recorded(geometry._cos))
    build_frame_field(catalog_chart("sphere"), (129, 129))
    assert sizes and max(sizes) <= 129


def test_from_callable_whole_array_use_stays_exact():
    # s * w, s[..., ::-1] and whole-array ufuncs read the dense points, so
    # the open mesh keeps the jet pass and its exact derivatives
    w = np.array([0.7, -0.4])

    def fn(s):
        t = s + np.sin(s * w) * s[..., ::-1]
        return np.stack([t[..., 0], t[..., 1], s[..., 0] * s[..., 1]], axis=-1)

    rectangle = [(-1.0, 1.0), (-0.5, 1.5)]
    chart = ImmersionChart.from_callable("whole-array", fn, 2, 3, rectangle)
    exprs = [U + sp.sin(0.7 * U) * V, V + sp.sin(-0.4 * V) * U, U * V]
    exact = ImmersionChart.from_sympy("whole-array", exprs, [U, V], rectangle)
    shape = (33, 33)
    planes = chart.jet(chart.open_mesh(shape))
    assert inspect.getclosurevars(chart.jet).nonlocals["takes_jets"]
    for a, b, c in zip(planes, dense_jet_pass(fn, chart.grid(shape), 3),
                       exact.jet(exact.grid(shape))):
        assert np.array_equal(a, b)
        assert np.abs(a - c).max() <= 4e-15
    frames = _frame_planes(build_frame_field(chart, shape))
    dense = _frame_planes(build_frame_field(dense_pass_chart(chart), shape))
    for key in frames:
        assert np.array_equal(frames[key], dense[key]), key


_MATRIX = np.array([[0.7, -0.4, 1.1], [0.3, 0.9, -0.5]])


@pytest.mark.parametrize("name, fn", [("asarray-sphere", lambda s: numpy_sphere(np.asarray(s))),
                                      ("matmul", lambda s: np.sin(s @ _MATRIX))],
                         ids=["asarray-sphere", "matmul"])
def test_central_difference_charts_take_the_dense_points(name, fn):
    # a jet rejects np.asarray and s @ M, so these charts take central
    # differences, on the open mesh at the same points as on the dense grid
    chart = ImmersionChart.from_callable(name, fn, 2, 3, catalog_chart("sphere").rectangle)
    got = chart.jet(chart.open_mesh((17, 17)))
    assert not inspect.getclosurevars(chart.jet).nonlocals["takes_jets"]
    for a, b in zip(got, chart.jet(chart.grid((17, 17)))):
        assert np.array_equal(a, b)


@st.composite
def open_mesh_cases(draw):
    k = draw(st.integers(1, 2))
    leaves = st.tuples(st.just("parameter"), st.integers(0, k - 1), st.booleans())
    tree = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(st.sampled_from(sorted(UNARY)), kids),
        st.tuples(st.sampled_from(sorted(BINARY)), kids, kids)), max_leaves=10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = [np.sort(rng.uniform(-1, 1, draw(st.integers(2, 6)))) for _ in range(k)]
    return tree, axes


@settings(max_examples=300, deadline=None)
@given(open_mesh_cases())
def test_open_mesh_jet_matches_dense_points(case):
    # one-parameter subexpressions stay on their axis line, and any other
    # use of the parameters reads the dense points: the same bits
    tree, axes = case
    mesh = geometry._OpenMesh(np.meshgrid(*axes, indexing="ij", sparse=True))
    with np.errstate(all="ignore"):
        open_jet = evaluate(tree, Jet.variables(mesh))
        dense = evaluate(tree, Jet.variables(mesh.dense()))
    shape = np.broadcast_shapes(open_jet.shape, dense.shape)
    for got, want in zip(dense_parts(open_jet, shape), dense_parts(dense, shape)):
        assert np.array_equal(np.broadcast_to(got, np.shape(want)), want, equal_nan=True)
