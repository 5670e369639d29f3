"""Differential geometry of k-charts immersed in flat euclidean R^n.

Charts are parametric maps on a rectangle, evaluated through one method,
ImmersionChart.jet(s, order), which returns the value and the derivatives
up to order as entry-major planes.  Numpy expressions (the catalogued
surfaces, and callables given to from_callable) get exact derivatives
from one pass of sparse symmetric second-order jets; sympy expressions
have each order's entries lambdified into one planes function; callables
that reject jets fall back to central finite differences.  Frame fields
carry an orthonormal tangent frame from ordered Gram-Schmidt of the
coordinate derivatives and a normal frame completed from the standard
basis and aligned along the grid by Procrustes steps, which make it a
discrete parallel frame (vanishing normal-connection coefficients up to
O(h^2) where the normal bundle is flat).
The Gram-Schmidt triangular factor R also gives the immersion guard, the
metric and its inverse, the frame coefficients and the exact spin
connection (from the Hessian, with no evaluation off the grid).

One layout runs from the chart pass to the consumers: entry-major planes.
A field of small matrices, (*grid, p, q) to the reader, is held as
(p, q, *grid), one contiguous plane per matrix entry.  Every chart writes
x, the Jacobian and the Hessian in that layout (a jet pass on a grid
reads the open mesh, so a one-parameter subexpression is evaluated once
per axis line), every per-point step of a frame field is elementwise
arithmetic on whole planes with Python loops over the 2-4 entry indices
only, and the FrameField stores the planes; its (*grid, ...) attributes
are read-only np.moveaxis views of them.  Every walk from the base corner
(the normal frame's Procrustes alignment, the lift's sign chain in dirac,
the path integral in weierstrass) follows one staircase, down the base column and then along every row, coded once in
the _staircase_* kernels.  The pointwise functions run the same plane
kernels on one point (planes with no grid axes, where the two layouts
agree), with an exact normal connection from the completed frame's
Gram-Schmidt factor.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class ImmersionError(ValueError):
    """Coordinate derivatives fail to be linearly independent."""


class FocalDistanceError(ValueError):
    """Normal offset at or beyond the focal set: 1 + q Gamma is not positive."""


class IntegrabilityError(ValueError):
    """Normal connection failed to flatten within tolerance."""


# --------------------------------------------------------------------------
# second-order jets


@functools.lru_cache(maxsize=None)
def _hessian_pairs(k):
    """The k(k+1)/2 index pairs a <= b of a symmetric Hessian, in storage order."""
    return tuple((a, b) for a in range(k) for b in range(a, k))


def _add(a, b):
    """a + b, None standing for zero."""
    if a is None:
        return b
    return a if b is None else a + b


def _sub(a, b):
    """a - b, None standing for zero."""
    if b is None:
        return a
    return -b if a is None else a - b


def _mul(a, b):
    """a * b, None standing for zero in either factor."""
    return None if a is None or b is None else a * b


def _div(a, b):
    """a / b, None standing for zero in a."""
    return None if a is None else a / b


class Jet:
    """Second-order forward-mode jet: a value with its gradient and Hessian
    in the k parameters, held as sparse symmetric planes.

    g holds the k gradient planes d_a v and h the k(k+1)/2 Hessian planes
    d_a d_b v with a <= b, in the order of _hessian_pairs.  Each plane
    broadcasts against the value and is None where it is structurally zero:
    a parameter the expression does not depend on, a constant, the Hessian
    of an affine expression.  h is None for a first-order jet, which carries
    no Hessian at all.  The arithmetic operators, constant powers and the
    ufuncs of _JET_FUNCTIONS follow the truncated Taylor rules (Griewank &
    Walther, Evaluating Derivatives, 2nd ed., ch. 13) on the nonzero planes,
    adding the remaining terms in the order a dense jet adds all of them, so
    skipping the zero planes changes no bit but the sign of a zero.  A numpy
    expression in the parameters evaluated on Jet.variables(s) carries the
    exact first and second derivatives along with its value.  Indexing and
    np.stack shape the result.  Anything else (math.sin, float(),
    comparisons, np.asarray, other numpy functions) raises TypeError.

    d and dd read the planes as dense arrays, d (k, *shape) and dd
    (k, k, *shape) or None for a zero Hessian.
    """

    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    @classmethod
    def variables(cls, s, order=2):
        """The parameter points s (..., k), or a grid's _OpenMesh, as a jet:
        gradient plane a is the indicator of entry a of the last axis, and
        the Hessian is zero (not propagated at all for order 1)."""
        return _Parameters(s, order)

    @property
    def shape(self):
        return np.shape(self.v)

    @property
    def d(self):
        shape = self.shape
        return np.stack([np.broadcast_to(0.0 if p is None else p, shape) for p in self.g])

    @property
    def dd(self):
        if self.h is None or all(p is None for p in self.h):
            return None
        k = len(self.g)
        out = np.zeros((k, k) + self.shape)
        for (a, b), p in zip(_hessian_pairs(k), self.h):
            if p is not None:
                out[a, b] = out[b, a] = p
        return out

    def __getitem__(self, idx):
        shape = self.shape

        def pick(p):
            return None if p is None else np.broadcast_to(p, shape)[idx]

        return Jet(self.v[idx], tuple(map(pick, self.g)),
                   None if self.h is None else tuple(map(pick, self.h)))

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a jet has no plain array value")

    def __eq__(self, other):
        raise TypeError("a jet has no truth value to compare")

    __ne__ = __eq__

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs:
            return NotImplemented
        if ufunc in _JET_FUNCTIONS:
            (u,) = inputs
            return u._chain(*_JET_FUNCTIONS[ufunc](u.v))
        if ufunc in _JET_OPERATORS:
            return _JET_OPERATORS[ufunc](*inputs)
        return NotImplemented

    def __array_function__(self, func, types, args, kwargs):
        if func is np.stack:
            return _jet_stack(*args, **kwargs)
        return NotImplemented

    def _chain(self, f, f1, f2):
        """f(self) from f and f' at the value and f'', a callable returning it,
        which a first-order jet never calls."""
        g = tuple(_mul(p, f1) for p in self.g)
        if self.h is None:
            return Jet(f, g, None)
        f2 = f2()
        return Jet(f, g, tuple(_add(_mul(_mul(self.g[a], self.g[b]), f2), _mul(p, f1))
                               for (a, b), p in zip(_hessian_pairs(len(g)), self.h)))

    def __add__(self, other):
        return _jet_linear(np.add, self, other)

    def __radd__(self, other):
        return _jet_linear(np.add, other, self)

    def __sub__(self, other):
        return _jet_linear(np.subtract, self, other)

    def __rsub__(self, other):
        return _jet_linear(np.subtract, other, self)

    def __mul__(self, other):
        return _jet_multiply(self, other)

    def __rmul__(self, other):
        return _jet_multiply(other, self)

    def __truediv__(self, other):
        return _jet_divide(self, other)

    def __rtruediv__(self, other):
        return _jet_divide(other, self)

    def __pow__(self, p):
        return _jet_power(self, p)

    def __neg__(self):
        return Jet(-self.v, _scaled(np.negative, self.g), _scaled(np.negative, self.h))


class _OpenMesh(tuple):
    """A grid's open mesh, np.meshgrid(*axes, indexing="ij", sparse=True):
    axis a's values lie along grid axis a, and the k arrays broadcast to
    the grid.  dense() materialises the points (*grid, k)."""

    __slots__ = ()

    def dense(self):
        """The points (*grid, k): a grid-major view of the contiguous mesh (k, *grid)."""
        return _grid_major(np.stack(np.broadcast_arrays(*self)), 1)


def _dense_points(s):
    """The points s (..., k) as a float array; an _OpenMesh is materialised."""
    return s.dense() if isinstance(s, _OpenMesh) else np.asarray(s, dtype=float)


class _Parameters(Jet):
    """Jet.variables: s[..., a] gives a jet whose one nonzero gradient plane is
    the unit plane of parameter a.  Its value is the open mesh's axis-a
    array as it stands, so on a grid every one-parameter subexpression is
    evaluated once per axis line and only products of parameters reach the
    full grid.  Any other use of s (other indices, which keep the indicator
    planes, zero where they pick no parameter a; arithmetic; ufuncs) reads
    the value v, the dense points (*grid, k), materialised from an open
    mesh on first use."""

    __slots__ = ("mesh", "points")

    def __init__(self, s, order):
        if isinstance(s, _OpenMesh):
            self.mesh, self.points = s, None
        else:
            self.mesh, self.points = None, np.asarray(s, dtype=float)
        k = self.shape[-1]
        self.g = tuple(np.eye(k))
        self.h = None if order == 1 else (None,) * len(_hessian_pairs(k))

    @property
    def v(self):
        if self.points is None:
            self.points = self.mesh.dense()
        return self.points

    @property
    def shape(self):
        if self.points is None:
            return np.broadcast_shapes(*(a.shape for a in self.mesh)) + (len(self.mesh),)
        return self.points.shape

    def __getitem__(self, idx):
        k = len(self.g)
        if not (type(idx) is tuple and len(idx) == 2 and idx[0] is Ellipsis
                and isinstance(idx[1], int) and -k <= idx[1] < k):
            return super().__getitem__(idx)
        a = idx[1] % k
        v = self.v[idx] if self.mesh is None else self.mesh[a]
        return Jet(v, tuple(1.0 if b == a else None for b in range(k)), self.h)


def _scaled(op, planes, *args):
    """op(plane, *args) on every nonzero plane; None for a first-order Hessian."""
    if planes is None:
        return None
    return tuple(None if p is None else op(p, *args) for p in planes)


def _value(u):
    return u.v if isinstance(u, Jet) else u


def _planes_of(u, like):
    """(g, h) of a jet, or the structurally zero planes of a constant beside the jet like."""
    if isinstance(u, Jet):
        return u.g, u.h
    return (None,) * len(like.g), None if like.h is None else (None,) * len(like.h)


def _jet_linear(op, a, b):
    like = a if isinstance(a, Jet) else b
    (ag, ah), (bg, bh) = _planes_of(a, like), _planes_of(b, like)
    combine = _add if op is np.add else _sub
    return Jet(op(_value(a), _value(b)), tuple(map(combine, ag, bg)),
               None if ah is None else tuple(map(combine, ah, bh)))


def _jet_multiply(a, b):
    if not isinstance(a, Jet):
        a, b = b, a
    if not isinstance(b, Jet):
        return Jet(a.v * b, _scaled(np.multiply, a.g, b), _scaled(np.multiply, a.h, b))
    av, bv, ag, bg = a.v, b.v, a.g, b.g
    g = tuple(_add(_mul(p, bv), _mul(av, r)) for p, r in zip(ag, bg))
    h = None
    if a.h is not None:
        h = tuple(_add(_add(_add(_mul(ag[x], bg[y]), _mul(ag[y], bg[x])), _mul(p, bv)), _mul(av, r))
                  for (x, y), p, r in zip(_hessian_pairs(len(g)), a.h, b.h))
    return Jet(av * bv, g, h)


def _jet_divide(a, b):
    """q = a / b from a = q b: q' = (a' - q b') / b and
    q'' = (a'' - q' b'^T - b' q'^T - q b'') / b."""
    if not isinstance(b, Jet):
        return Jet(a.v / b, _scaled(np.true_divide, a.g, b), _scaled(np.true_divide, a.h, b))
    q, bv, bg = _value(a) / b.v, b.v, b.g
    ag, ah = _planes_of(a, b)
    g = tuple(_div(_sub(p, _mul(q, r)), bv) for p, r in zip(ag, bg))
    h = None
    if b.h is not None:
        h = tuple(_div(_sub(_sub(p, _add(_mul(g[x], bg[y]), _mul(g[y], bg[x]))), _mul(q, r)), bv)
                  for (x, y), p, r in zip(_hessian_pairs(len(g)), ah, b.h))
    return Jet(q, g, h)


def _jet_power(u, p):
    """u ** p for a constant exponent p."""
    if isinstance(p, Jet) or not isinstance(u, Jet) or np.ndim(p) != 0:
        return NotImplemented
    if p == 1:
        return u
    if p == 0:
        return Jet(u.v ** 0, (None,) * len(u.g), None if u.h is None else (None,) * len(u.h))
    return u._chain(u.v ** p, p * u.v ** (p - 1), lambda: p * (p - 1) * u.v ** (p - 2))


def _jet_stack(arrays, axis=0):
    """np.stack of jets and constants, plane by plane."""
    arrays = list(arrays)
    like = next(a for a in arrays if isinstance(a, Jet))
    shapes = {np.shape(_value(a)) for a in arrays}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)

    def stacked(parts):
        if all(p is None for p in parts):
            return None
        return np.stack([np.broadcast_to(0.0 if p is None else p, shape) for p in parts],
                        axis=axis)

    planes = [_planes_of(a, like) for a in arrays]
    v = np.stack([np.broadcast_to(_value(a), shape) for a in arrays], axis=axis)
    g = tuple(map(stacked, zip(*(g for g, _ in planes))))
    h = None if like.h is None else tuple(map(stacked, zip(*(h for _, h in planes))))
    return Jet(v, g, h)


def _sin(v):
    s = np.sin(v)
    return s, np.cos(v), lambda: -s


def _cos(v):
    c = np.cos(v)
    return c, -np.sin(v), lambda: -c


def _cosh(v):
    c = np.cosh(v)
    return c, np.sinh(v), lambda: c


def _sqrt(v):
    r = np.sqrt(v)
    half = 0.5 / r
    return r, half, lambda: -half / (2 * v)


# ufuncs by the chain rule: value -> (f, f', a callable giving f'')
_JET_FUNCTIONS = {np.sin: _sin, np.cos: _cos, np.cosh: _cosh, np.sqrt: _sqrt}
_JET_OPERATORS = {np.add: lambda a, b: _jet_linear(np.add, a, b),
                  np.subtract: lambda a, b: _jet_linear(np.subtract, a, b),
                  np.multiply: _jet_multiply, np.true_divide: _jet_divide,
                  np.power: _jet_power, np.negative: Jet.__neg__}


def _jet_pass(fn, s, n, order=2):
    """Planes of fn at the points s (*grid, k), or on a grid's _OpenMesh, from
    one jet pass: x (n, *grid), jac (n, k, *grid) and hess (n, k, k, *grid).

    order=1 propagates no Hessian planes and returns hess None; its jac is
    the second-order pass's, bit for bit.  fn returns one jet (*grid, n), or
    the sequence of its n components (jets or constants), whose planes are
    written into the entry-major arrays directly, broadcasting where the
    open mesh left them on fewer grid axes.  Raises TypeError when fn does
    not return a jet (it computed on plain arrays somewhere) and whatever fn
    raises on a jet.
    """
    params = Jet.variables(s, order)
    grid, k = params.shape[:-1], params.shape[-1]
    out = fn(params)
    if isinstance(out, Jet):
        if out.shape[-1:] != (n,):
            raise ValueError(f"the chart callable returned shape {out.shape}, expected (..., {n})")
        out = [out[..., i] for i in range(n)]
    elif not (isinstance(out, (tuple, list)) and len(out) == n
              and any(isinstance(c, Jet) for c in out)):
        raise TypeError("the chart callable did not return a jet")
    x = np.empty((n,) + grid)
    jac = np.zeros((n, k) + grid)
    hess = None if order == 1 else np.zeros((n, k, k) + grid)
    for i, c in enumerate(out):
        if not isinstance(c, Jet):
            x[i] = c
            continue
        x[i] = c.v
        for a, p in enumerate(c.g):
            if p is not None:
                jac[i, a] = p
        if hess is not None:
            for (a, b), p in zip(_hessian_pairs(k), c.h):
                if p is not None:
                    hess[i, a, b] = hess[i, b, a] = p
    return x, jac, hess


# --------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class ImmersionChart:
    """Parametric immersion of a k-rectangle into R^n, evaluated by its jet.

    jet(s, order=2) is the chart's one evaluation: at the points s (*grid, k),
    or on a grid's _OpenMesh, it returns the entry-major planes x (n, *grid),
    jac (n, k, *grid) and hess (n, k, k, *grid), with None for each
    derivative above order.  x, jacobian, hessian and derivatives read one
    jet call each, at order 0, 1, 2 and 2, as (*grid, ...) views.  Charts come
    from from_sympy, from_callable and catalog_chart; every bound of the
    rectangle is finite, with lo < hi.
    """

    name: str
    k: int
    n: int
    rectangle: tuple
    jet: Callable  # (s, order=2) -> planes (x, jac | None, hess | None)
    grid_shape: tuple = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.grid_shape is None:
            object.__setattr__(self, "grid_shape", (33,) * self.k)
        if len(self.rectangle) != self.k or len(self.grid_shape) != self.k:
            raise ValueError("rectangle/grid must have one entry per parameter")
        lo, hi = np.array(self.rectangle, dtype=float).T
        if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo < hi).all()):
            raise ValueError(f"chart {self.name!r} needs finite bounds lo < hi on every "
                             f"axis; got the rectangle {self.rectangle}")
        object.__setattr__(self, "_bounds", (lo, hi, np.maximum(hi - lo, 1.0)))

    @classmethod
    def from_sympy(cls, name, exprs, syms, rectangle, grid_shape=None, params=None):
        """Chart from sympy expressions in the symbols syms.  Each order's
        entries (x, the Jacobian, the Hessian) are differentiated
        symbolically and lambdified, and one planes function per order
        writes them on the dense points."""
        import sympy as sp

        exprs = [sp.sympify(e) for e in exprs]
        n, k = len(exprs), len(syms)

        def compiled(entries, entry_shape):
            fns = [sp.lambdify(syms, e, modules="numpy") for e in entries]

            def planes(s):
                out = np.empty((len(fns),) + s.shape[:-1])
                args = tuple(np.moveaxis(s, -1, 0))
                for i, fn in enumerate(fns):
                    out[i] = fn(*args)  # by index: one point's planes are scalars
                return out.reshape(entry_shape + s.shape[:-1])

            return planes

        orders = (compiled(exprs, (n,)),
                  compiled([sp.diff(e, a) for e in exprs for a in syms], (n, k)),
                  compiled([sp.diff(e, a, b) for e in exprs for a in syms for b in syms],
                           (n, k, k)))

        def jet(s, order=2):
            s = _dense_points(s)
            return tuple(planes(s) if i <= order else None for i, planes in enumerate(orders))

        return cls(name, k, n, tuple(rectangle), jet, grid_shape=grid_shape,
                   params=dict(params or {}))

    @classmethod
    def from_callable(cls, name, fn, k, n, rectangle, grid_shape=None, h_fd=1e-4):
        """Chart from a plain callable (..., k) -> (..., n).

        Order 0 evaluates fn on the dense points.  The derivatives are exact
        when fn is a numpy expression in s (operators, np.sin, np.stack, ...):
        fn runs once on Jet.variables(s), on a grid's open mesh as well.
        From the first time fn rejects a jet (math.sin, np.asarray, ...
        raise TypeError or AttributeError) the chart takes central
        differences of the planes instead, on the dense points, with steps
        h_fd * max(1, span); the Hessian differences the differenced
        Jacobian.
        """
        def values(s):
            return _entry_major(np.asarray(fn(s), dtype=float), 1)

        def differenced(f, entry_ndim):
            """s -> central differences of the planes f(s) (*entry, *grid), one
            per parameter, stacked on the axis after the entry axes."""
            def planes(s):
                parts = []
                for a in range(k):
                    step = h_fd * max(1.0, abs(rectangle[a][1] - rectangle[a][0]))
                    e = np.zeros(k)
                    e[a] = step
                    parts.append((f(s + e) - f(s - e)) / (2 * step))
                return np.stack(parts, axis=entry_ndim)

            return planes

        jacobian_fd = differenced(values, 1)
        hessian_fd = differenced(jacobian_fd, 2)
        takes_jets = True

        def jet(s, order=2):
            nonlocal takes_jets
            if order > 0 and takes_jets:
                try:
                    return _jet_pass(fn, s, n, order)
                except (TypeError, AttributeError):
                    takes_jets = False
            s = _dense_points(s)
            return (values(s), jacobian_fd(s) if order > 0 else None,
                    hessian_fd(s) if order > 1 else None)

        return cls(name, k, n, tuple(rectangle), jet, grid_shape=grid_shape)

    def x(self, s):
        """The points x(s) (..., n) at the parameter points s (..., k)."""
        return _grid_major(self.jet(s, 0)[0], 1)

    def jacobian(self, s):
        """d_a x^i at s, shape (..., n, k), from a first-order pass."""
        return _grid_major(self.jet(s, 1)[1], 2)

    def hessian(self, s):
        """d_a d_b x^i at s, shape (..., n, k, k)."""
        return _grid_major(self.jet(s, 2)[2], 3)

    def derivatives(self, s):
        """(x, jacobian, hessian) at the points s (..., k), shapes (..., n),
        (..., n, k) and (..., n, k, k): np.moveaxis views of one second-order
        jet (for one point the two layouts agree)."""
        x, jac, hess = self.jet(s, 2)
        return _grid_major(x, 1), _grid_major(jac, 2), _grid_major(hess, 3)

    # -- grids ---------------------------------------------------------

    def _shape(self, shape):
        shape = tuple(shape or self.grid_shape)
        if len(shape) != self.k:
            raise ValueError("rectangle/grid must have one entry per parameter")
        return shape

    def axes(self, shape=None):
        shape = self._shape(shape)
        if any(nn < 8 for nn in shape):
            raise ValueError("grids need at least 8 points per axis")
        return [np.linspace(lo, hi, nn) for (lo, hi), nn in zip(self.rectangle, shape)]

    def open_mesh(self, shape=None):
        """The grid's open mesh (_OpenMesh): one array per axis, broadcasting
        to the grid, which a jet pass reads without materialising it."""
        return _OpenMesh(np.meshgrid(*self.axes(shape), indexing="ij", sparse=True))

    def grid(self, shape=None):
        """Meshgrid of parameter points, shape (*shape, k): a view of the
        entry-major mesh (k, *shape), one contiguous plane per parameter."""
        return self.open_mesh(shape).dense()

    def spacings(self, shape=None):
        shape = self._shape(shape)
        return [(hi - lo) / (nn - 1) for (lo, hi), nn in zip(self.rectangle, shape)]

    def contains(self, s, tol=1e-9) -> bool:
        """Every point of s (..., k), or of an _OpenMesh, within
        tol * max(span, 1) of the rectangle; NaN and infinite coordinates are
        outside."""
        lo, hi, span = self._bounds
        s = _dense_points(s)
        return bool(((s >= lo - tol * span) & (s <= hi + tol * span)).all())


def _require_inside(chart, s):
    if not chart.contains(s):
        raise ValueError(f"parameter point outside the chart rectangle of {chart.name}")


# --------------------------------------------------------------------------
# catalogue


def _numpy_chart(name, fn, k, n, rectangle, grid_shape=None, **params):
    """from_callable chart of fn(*coordinates) -> components, a numpy expression.

    On jets the components go to the jet pass unstacked, which writes each
    one's planes in place (_jet_pass).
    """
    def evaluate(s):
        components = fn(*(s[..., a] for a in range(k)))
        return components if isinstance(s, Jet) else np.stack(components, axis=-1)

    chart = ImmersionChart.from_callable(name, evaluate, k, n, rectangle, grid_shape)
    return dataclasses.replace(chart, params=params)


def _catalog_builders():
    def plane():
        return _numpy_chart("plane", lambda u, v: (u, v, 0 * u), 2, 3,
                            [(0.0, 1.0), (0.0, 1.0)])

    def graph(a=0.8):
        return _numpy_chart("graph", lambda u, v: (u, v, a * (u**2 - v**2) / 2), 2, 3,
                            [(-0.75, 0.75), (-0.75, 0.75)], a=a)

    def sphere(r=1.0):
        def x(th, ph):
            rs = r * np.sin(th)
            return rs * np.cos(ph), rs * np.sin(ph), r * np.cos(th)

        return _numpy_chart("sphere", x, 2, 3, [(0.45, math.pi - 0.45), (0.3, 5.9)], r=r)

    def catenoid(c=1.0):
        def x(u, v):
            ch = c * np.cosh(v / c)
            return ch * np.cos(u), ch * np.sin(u), v

        return _numpy_chart("catenoid", x, 2, 3, [(0.3, 5.9), (-0.75, 0.75)], c=c)

    def helicoid(c=0.8):
        return _numpy_chart("helicoid", lambda u, v: (v * np.cos(u), v * np.sin(u), c * u), 2, 3,
                            [(-1.2, 1.2), (-1.0, 1.0)], c=c)

    def enneper():
        def x(u, v):
            return u - u**3 / 3 + u * v**2, -v + v**3 / 3 - v * u**2, u**2 - v**2

        return _numpy_chart("enneper", x, 2, 3, [(-0.7, 0.7), (-0.7, 0.7)])

    def torus(R=2.0, r=0.7):
        def x(u, v):
            w = R + r * np.cos(v)
            return w * np.cos(u), w * np.sin(u), r * np.sin(v)

        return _numpy_chart("torus", x, 2, 3, [(0.25, 6.0), (0.25, 6.0)], R=R, r=r)

    def clifford_torus_r4(r=1.0):
        c = r / math.sqrt(2)
        return _numpy_chart(
            "clifford-torus-r4",
            lambda u, v: (c * np.cos(u), c * np.sin(u), c * np.cos(v), c * np.sin(v)), 2, 4,
            [(0.25, 6.0), (0.25, 6.0)], r=r)

    def helix_curve(a=1.0, b=0.5):
        return _numpy_chart("helix-curve", lambda t: (a * np.cos(t), a * np.sin(t), b * t), 1, 3,
                            [(0.0, 12.0)], grid_shape=(257,), a=a, b=b)

    def circle_curve(r=1.0):
        return _numpy_chart("circle-curve", lambda t: (r * np.cos(t), r * np.sin(t)), 1, 2,
                            [(0.15, 6.1)], grid_shape=(257,), r=r)

    return {
        "plane": plane,
        "graph": graph,
        "sphere": sphere,
        "catenoid": catenoid,
        "helicoid": helicoid,
        "enneper": enneper,
        "torus": torus,
        "clifford-torus-r4": clifford_torus_r4,
        "helix-curve": helix_curve,
        "circle-curve": circle_curve,
    }


CATALOG = _catalog_builders()


def _catalog_builder(name: str, params: dict) -> Callable:
    """The CATALOG builder of name, once params passes its signature: every
    name is one of the builder's parameters and every value a finite real
    number (bool excluded).  Raises ValueError naming the accepted parameters."""
    if not isinstance(name, str) or name not in CATALOG:
        raise ValueError(f"unknown chart {name!r}; available: {sorted(CATALOG)}")
    builder = CATALOG[name]
    accepted = list(inspect.signature(builder).parameters)
    for key, value in params.items():
        if key not in accepted or isinstance(value, bool) or not isinstance(value, numbers.Real) \
                or not abs(value) <= sys.float_info.max:  # nan, +-inf, or past the float range
            raise ValueError(f"chart {name!r} takes the finite real parameters "
                             f"{accepted or 'none'}; got {key}={value!r}")
    return builder


def catalog_chart(name: str, **params) -> ImmersionChart:
    return _catalog_builder(name, params)(**params)


# --------------------------------------------------------------------------
# entry-major planes


def _grid_major(planes, entry_ndim):
    """Planes (*entry, *grid) viewed as (*grid, *entry), without a copy: the
    np.moveaxis of the entry axes to the end."""
    return planes.transpose(tuple(range(entry_ndim, planes.ndim)) + tuple(range(entry_ndim)))


def _plane_view(a, entry_ndim):
    """(*grid, *entry) viewed as planes (*entry, *grid), without a copy."""
    grid_ndim = a.ndim - entry_ndim
    return a.transpose(tuple(range(grid_ndim, a.ndim)) + tuple(range(grid_ndim)))


def _entry_major(a, entry_ndim):
    """(*grid, *entry) copied into contiguous planes (*entry, *grid): the one
    transposition of a from_callable chart's grid-major values (at order 0
    and in the finite-difference fallback)."""
    planes = np.empty(a.shape[a.ndim - entry_ndim:] + a.shape[:a.ndim - entry_ndim])
    planes[...] = _plane_view(a, entry_ndim)
    return planes


def _plane_dot(a, b):
    """sum_i a[i] b[i] over the leading axis, in the order of numpy's einsum
    kernel for a contiguous float64 dot product (the even and the odd terms
    in two running sums, added last), so that a plane Gram-Schmidt step
    rounds as a per-point one written with np.einsum does."""
    ab = a * b
    return np.add.reduce(ab[0::2]) + np.add.reduce(ab[1::2])


def _plane_matmul(a, b):
    """Matrix product of planes a (p, q, *grid) and b (q, r, *grid)."""
    out = a[:, 0, None] * b[0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[j]
    return out


@functools.lru_cache(maxsize=None)
def _wedge_schedule(n):
    """The Laplace expansion of an n x n determinant one row at a time.

    For each row r >= 1, one entry per (r+1)-subset S of the columns (only
    the full set at r = n-1): S and its terms (S[p], S without S[p],
    negative), p = r, ..., 0, negative when r - p is odd, so that
    minor(S) = sum of +-a[r, S[p]] minor(S without S[p]) with the first
    term positive.
    """
    levels = []
    for r in range(1, n):
        subsets = itertools.combinations(range(n), r + 1) if r < n - 1 else [tuple(range(n))]
        levels.append([(s, [(s[p], s[:p] + s[p + 1:], (r - p) % 2 == 1)
                            for p in range(r, -1, -1)]) for s in subsets])
    return levels


def _plane_det(a):
    """Determinants of planes a (n, n, *grid) as the wedge of the rows: the
    minors on the first r rows, one plane per r-subset of the columns,
    extended one row at a time (_wedge_schedule)."""
    minors = {(j,): a[0, j] for j in range(len(a))}
    for row, level in zip(a[1:], _wedge_schedule(len(a))):
        extended = {}
        for cols, terms in level:
            (col, rest, _), *others = terms
            total = row[col] * minors[rest]
            for col, rest, negative in others:
                if negative:
                    total -= row[col] * minors[rest]
                else:
                    total += row[col] * minors[rest]
            extended[cols] = total
        minors = extended
    return minors[tuple(range(len(a)))]


# --------------------------------------------------------------------------
# pointwise operations


def induced_metric(chart: ImmersionChart, s) -> np.ndarray:
    """g_ab = sum_i d_a x^i d_b x^i, symmetric positive definite."""
    _require_inside(chart, s)
    jac = chart.jacobian(s)
    return np.swapaxes(jac, -1, -2) @ jac


def _tangent_frames(jac, name):
    """Ordered Gram-Schmidt of Jacobian planes (n, k, *grid), k <= 2.

    Returns the tangent frame planes (k, n, *grid) and the upper-triangular
    factor r = tangent jac as planes (k, k, *grid), so that jac = tangent^T r
    and sigma_min(jac) = sigma_min(r).  The 1e-8 immersion guard rejects a
    non-finite Jacobian and is tested on r before each division by a
    Gram-Schmidt norm: sigma_min <= r11, and for k = 2
    sigma_min = r11 r22 / sigma_max with
    sigma_max = (|(r11 + r22, r12)| + |(r11 - r22, r12)|) / 2, which keeps a
    small singular value to full relative accuracy (the eigenvalues of
    jac^T jac would not).  Raises ValueError for k > 2.
    """

    def guard(ok):
        if not ok.all():
            raise ImmersionError(f"immersion condition violated on the grid of {name}")

    n, k = jac.shape[:2]
    if k > 2:
        raise ValueError("tangent frames support curve and surface grids only")
    guard(np.isfinite(jac))
    r = np.zeros((k, k) + jac.shape[2:])
    tangent = np.empty((k, n) + jac.shape[2:])
    col = jac[:, 0]
    r11 = r[0, 0] = np.sqrt((col * col).sum(axis=0))
    guard(r11 > 1e-8)
    tangent[0] = t1 = col / r11
    if k == 2:
        col = jac[:, 1]
        r12 = r[0, 1] = _plane_dot(t1, col)
        w = col - r12 * t1
        r22 = r[1, 1] = np.sqrt((w * w).sum(axis=0))
        guard(r11 * r22 / (0.5 * (np.hypot(r11 + r22, r12) + np.hypot(r11 - r22, r12))) > 1e-8)
        tangent[1] = w / r22
    return tangent, r


def _r_inverse(r):
    """r^-1 planes written out (k <= 2), e_a = x_alpha (r^-1)^alpha_a, and the
    metric inverse g^-1 = r^-1 r^-T."""
    r_inv = np.zeros_like(r)
    r_inv[0, 0] = 1 / r[0, 0]
    if len(r) == 2:
        r_inv[1, 1] = 1 / r[1, 1]
        r_inv[0, 1] = -r[0, 1] * r_inv[0, 0] * r_inv[1, 1]
    return r_inv, _plane_matmul(r_inv, np.swapaxes(r_inv, 0, 1))


def _weingarten_planes(hess, metric_inv, normal):
    """Tangential Weingarten planes (n-k, k, k, *grid) from hess (n, k, k, *grid),
    g^-1 (k, k, *grid) and normal (n-k, n, *grid).

    Gamma^beta_{adot alpha} = -(g^{-1})^{beta gamma} (b_adot . x_{gamma alpha});
    flat-ambient identity (d_alpha b) . x_beta = -b . x_{alpha beta}.
    """
    n, k = hess.shape[:2]
    ii = _plane_matmul(normal, hess.reshape((n, k * k) + hess.shape[3:]))
    ii = ii.reshape((len(normal), k, k) + hess.shape[3:])  # second fundamental form
    return -np.stack([_plane_matmul(np.swapaxes(ii_d, 0, 1), metric_inv) for ii_d in ii])


@dataclass(frozen=True)
class PointFrame:
    """Adapted orthonormal frames at one parameter point."""

    s: np.ndarray
    tangent: np.ndarray  # (k, n)
    normal: np.ndarray  # (n-k, n)

    @property
    def rotation(self) -> np.ndarray:
        """SO(n) matrix with the frame vectors as rows."""
        return np.vstack([self.tangent, self.normal])


def _point_frame(chart, s, order=1):
    """The grid kernels at the one point s, as planes with no grid axes: jac
    (n, k) and hess (n, k, k) from one chart pass at order 1 or 2 (hess None
    at order 1), tangent (k, n) and r (k, k), and the raw normal completion
    (n-k, n) turned to det +1 with its pivots (_raw_normals)."""
    _require_inside(chart, s)
    _, jac, hess = chart.jet(s, order)
    tangent, r = _tangent_frames(jac, chart.name)
    normal, pivots = _raw_normals(tangent)
    if pivots is not None and _plane_det(np.concatenate([tangent, normal])) < 0:
        normal[-1] = -normal[-1]
    return jac, hess, tangent, r, normal, pivots


def _point_weingarten(chart, s, frames):
    """jac and Gamma at s in frames.normal (the completion's if frames is None)."""
    jac, hess, _, r, normal, _ = _point_frame(chart, s, order=2)
    normal = normal if frames is None else frames.normal
    return jac, _weingarten_planes(hess, _r_inverse(r)[1], normal)


def adapted_frames(chart: ImmersionChart, s) -> PointFrame:
    """Tangent frame from ordered Gram-Schmidt, deterministic normal completion."""
    s = np.asarray(s, dtype=float)
    _, _, tangent, _, normal, _ = _point_frame(chart, s)
    return PointFrame(s, tangent, normal)


def weingarten(chart: ImmersionChart, s, frames: PointFrame):
    """(Gamma^beta_{adot alpha}, Gammatilde^adot_{alpha bdot}, Gamma_adot) at s.

    Gamma and the mean curvature Gamma_adot are in frames.normal.
    Gammatilde_alpha = b d_alpha(b)^T is the exact normal connection of the
    adapted_frames completion b, written in frames.normal = Lambda b as
    Lambda Gammatilde_alpha Lambda^T.  F = [tangent; b] is the ordered
    Gram-Schmidt of A = [jac^T; E], E the basis rows the completion accepted,
    so A = L F with L = A F^T lower triangular and K_alpha = d_alpha(F) F^T
    = U - U^T, U the strict upper part of L^-1 [hess_alpha^T; 0] F^T; then
    Gammatilde_alpha = -K_alpha[k:, k:], which is 0 in codimension 1.
    """
    jac, hess, tangent, r, normal, pivots = _point_frame(chart, s, order=2)
    gamma = _weingarten_planes(hess, _r_inverse(r)[1], frames.normal)
    mean = np.einsum("daa->d", gamma)  # trace over the coordinate/mixed pair

    k, n = chart.k, chart.n
    if pivots is None:
        return gamma, np.zeros((k, n - k, n - k)), mean
    frame = np.vstack([tangent, normal])
    low = np.tril(np.vstack([jac.T, np.eye(n)[pivots]]) @ frame.T)
    # rows k: and columns k: of L^-1 [hess_alpha^T; 0] F^T, one block per alpha
    m = np.linalg.inv(low)[k:, :k] @ hess.T @ normal.T
    u = np.triu(m, 1)
    lam = frames.normal @ normal.T
    return gamma, lam @ (np.swapaxes(u, -1, -2) - u) @ lam.T, mean


def _tube_factor(gamma, q):
    """sqrt(rho) = det(1 + q Gamma) from Weingarten planes gamma
    (n-k, k, k, *grid), k <= 2 (one point: no grid axes).

    q is one normal offset (n-k,) or a stack of them (Nq, n-k); the result
    has shape q.shape[:-1] + grid.  By the tube formula 1 + q Gamma has
    trace k + q . tr Gamma and determinant 1 + q . tr Gamma (+ det(q Gamma)
    = q^T X q with X_ab = Gamma_a[0, 0] Gamma_b[1, 1] - Gamma_a[0, 1]
    Gamma_b[1, 0] for k = 2), so a stack of offsets costs those k + 1
    coefficient fields once.  Raises FocalDistanceError where the offset
    reaches the focal set, i.e. where 1 + q Gamma has an eigenvalue <= 0:
    det <= 0 or, for k = 2 (real eigenvalues, Gamma being g-self-adjoint),
    trace <= 0, which catches the sphere's det (1 + q/r)^2 touching 0 at
    q = -r without changing sign.
    """
    nk, k = np.shape(gamma)[:2]
    if k > 2:
        raise ValueError("tube factors support curve and surface charts only")
    q = np.asarray(q, dtype=float)
    linear = np.tensordot(q, np.trace(gamma, axis1=1, axis2=2), axes=([-1], [0]))
    det = trace = k + linear
    if k == 2:
        cross = (gamma[:, None, 0, 0] * gamma[None, :, 1, 1]
                 - gamma[:, None, 0, 1] * gamma[None, :, 1, 0])
        stack = q.reshape(-1, nk)
        pairs = (stack[:, :, None] * stack[:, None, :]).reshape(len(stack), -1)
        det = (pairs @ cross.reshape(nk * nk, -1)).reshape(linear.shape)
        det += linear
        det += 1
    if not (det.min() > 0 and trace.min() > 0):  # a NaN fails too
        raise FocalDistanceError("normal offset reaches the focal set: 1 + q Gamma "
                                 "has an eigenvalue <= 0")
    return det


def _offset(chart, s, q):
    _require_inside(chart, s)
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape != (chart.n - chart.k,):
        raise ValueError(f"offset q needs {chart.n - chart.k} components")
    return q


def tubular_metric(chart: ImmersionChart, s, q, frames: PointFrame = None,
                   gamma=None) -> np.ndarray:
    """Metric of the offset chart x + q^adot b_adot in a parallel normal frame.

    g_q = (1 + q Gamma) g (1 + q Gamma)^T, exact when the normal frame is
    parallel along s; Gamma in frames.normal unless given.  Raises
    FocalDistanceError at or beyond the focal set.
    """
    q = _offset(chart, s, q)
    if gamma is None:
        jac, gamma = _point_weingarten(chart, s, frames)
    else:
        jac = chart.jacobian(s)
    _tube_factor(gamma, q)  # the focal guard
    a = np.eye(chart.k) + np.tensordot(gamma, q, axes=([-3], [0]))  # row alpha, column beta
    return a @ (jac.T @ jac) @ a.T


def rho(chart: ImmersionChart, s, q, frames: PointFrame = None, gamma=None) -> float:
    """det(tubular metric)/det(induced metric) = det(1 + q Gamma)^2.

    sqrt(rho) = 1 + Gamma.q + O(q^2).  With gamma given the chart is not
    evaluated.  Raises FocalDistanceError at or beyond the focal set.
    """
    q = _offset(chart, s, q)
    if gamma is None:
        _, gamma = _point_weingarten(chart, s, frames)
    return float(_tube_factor(gamma, q) ** 2)


# --------------------------------------------------------------------------
# the staircase: the one traversal order of every walk from the base corner


def _staircase_ndim(ndim: int) -> int:
    """ndim, checked: the staircase runs down the base column (axis 0), then
    along every row (the last axis), so it covers curves and surfaces only.
    A point's predecessor precedes it in its column or row."""
    if ndim > 2:
        raise ValueError("staircase traversal supports curve and surface grids only")
    return ndim


def _staircase_previous(planes: np.ndarray, ndim: int) -> np.ndarray:
    """planes at each grid point's staircase predecessor, for planes whose
    grid is the trailing ndim axes."""
    base = (Ellipsis,) + (0,) * _staircase_ndim(ndim)
    prev = np.empty_like(planes)
    prev[..., 1:] = planes[..., :-1]
    if ndim == 2:
        prev[..., 1:, 0] = planes[..., :-1, 0]
    prev[base] = planes[base]
    return prev


def _staircase_edges(per_axis_planes: np.ndarray, spacings) -> np.ndarray:
    """Trapezoid increments h_alpha (f_alpha(s) + f_alpha(prev s)) / 2 along
    each grid point's incoming staircase edge, 0 at the base corner, for
    per_axis_planes (ndim, ..., *grid) holding f_alpha at index alpha with
    the grid on the trailing ndim = len(spacings) axes."""
    ndim = _staircase_ndim(len(spacings))
    f = per_axis_planes[-1]
    edges = np.empty_like(f)
    edges[..., 1:] = spacings[-1] * (0.5 * (f[..., 1:] + f[..., :-1]))
    if ndim == 2:
        f = per_axis_planes[0][..., 0]
        edges[..., 1:, 0] = spacings[0] * (0.5 * (f[..., 1:] + f[..., :-1]))
    edges[(Ellipsis,) + (0,) * ndim] = 0.0
    return edges


def _staircase_accumulate(ufunc, steps: np.ndarray, ndim: int) -> np.ndarray:
    """out(s) = ufunc(out(prev s), steps(s)) along the staircase, with
    out = steps at the base corner, for planes whose grid is the trailing
    ndim axes: ufunc.accumulate down the base column, then along every row,
    the arithmetic of a point-by-point walk."""
    out = steps.copy()
    if _staircase_ndim(ndim) == 2:
        out[..., 0] = ufunc.accumulate(out[..., 0], axis=-1)
    return ufunc.accumulate(out, axis=-1)


def _staircase_scan(steps: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Chained products out(s) = steps(s) @ out(prev(s)) along the staircase.

    The grid is the leading axes of steps that first lacks; out is first at
    the base corner, where steps is not read.  The chain runs down the base
    column one point at a time, then across all rows at once, so the Python
    loop has N0 + N1 steps rather than N0 * N1.  out is a (*grid, ...) view
    of contiguous planes (..., *grid), which _plane_view reads back without a
    copy.
    """
    first = np.asarray(first)
    ndim = _staircase_ndim(steps.ndim - first.ndim)
    planes = np.empty(first.shape + steps.shape[:ndim], dtype=np.result_type(steps, first))
    out = _grid_major(planes, first.ndim)
    column = (slice(None),) + (0,) * (ndim - 1)
    chain, chain_steps = out[column], steps[column]
    chain[0] = first
    for i in range(1, len(chain)):
        chain[i] = chain_steps[i] @ chain[i - 1]
    if ndim == 2:
        for j in range(1, out.shape[1]):
            out[:, j] = steps[:, j] @ out[:, j - 1]
    return out


# --------------------------------------------------------------------------
# grid frame fields


def _diff_axis(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order differences along a grid axis (central inside, one-sided edges)."""
    out = np.empty_like(f)
    fwd = [slice(None)] * f.ndim

    def sl(i):
        v = fwd.copy()
        v[axis] = i
        return tuple(v)

    inner = fwd.copy()
    inner[axis] = slice(1, -1)
    plus = fwd.copy()
    plus[axis] = slice(2, None)
    minus = fwd.copy()
    minus[axis] = slice(None, -2)
    out[tuple(inner)] = (f[tuple(plus)] - f[tuple(minus)]) / (2 * h)
    out[sl(0)] = (-3 * f[sl(0)] + 4 * f[sl(1)] - f[sl(2)]) / (2 * h)
    out[sl(-1)] = (3 * f[sl(-1)] - 4 * f[sl(-2)] + f[sl(-3)]) / (2 * h)
    return out


class _GridMajor:
    """The read-only (*grid, *entry) view of the FrameField planes field of
    the same name with the suffix _planes.  Assignment raises
    AttributeError: a changed field is a new FrameField with new planes
    (dataclasses.replace)."""

    def __init__(self, entry_ndim):
        self.entry_ndim = entry_ndim

    def __set_name__(self, owner, name):
        self.planes = name + "_planes"

    def __get__(self, frames, owner=None):
        if frames is None:
            return self
        return _grid_major(getattr(frames, self.planes), self.entry_ndim)

    def __set__(self, frames, value):
        raise AttributeError(f"a view of {self.planes}; replace the planes instead")


@dataclass
class FrameField:
    """Adapted frames and derived curvature data on a full parameter grid.

    Every per-point quantity is stored as entry-major planes (*entry, *grid),
    one contiguous plane per matrix entry, which the consumers read directly;
    the planes are read-only.  points, x, jac, metric, metric_inv, tangent,
    normal, weingarten, mean_curvature, gtilde, e_coeff and omega are the
    same data as (*grid, *entry) np.moveaxis views, read-only too.
    """

    chart: ImmersionChart
    axes: list
    spacings: list
    points_planes: np.ndarray  # (k, *grid)
    x_planes: np.ndarray  # (n, *grid)
    jac_planes: np.ndarray  # (n, k, *grid)
    metric_planes: np.ndarray  # (k, k, *grid)
    metric_inv_planes: np.ndarray
    tangent_planes: np.ndarray  # (k, n, *grid)
    normal_planes: np.ndarray  # (n-k, n, *grid)
    weingarten_planes: np.ndarray  # (n-k, k, k, *grid): Gamma^beta_{adot alpha}
    mean_curvature_planes: np.ndarray  # (n-k, *grid)
    gtilde_planes: np.ndarray  # (k, n-k, n-k, *grid) of the aligned normal frame
    gtilde_residual: float
    e_coeff_planes: np.ndarray  # (k, k, *grid): e_a = e_a^alpha d_alpha at [a, alpha]
    omega_planes: np.ndarray  # (k, k, k, *grid): omega[alpha, b, c] = e_b . d_alpha e_c

    points = _GridMajor(1)
    x = _GridMajor(1)
    jac = _GridMajor(2)
    metric = _GridMajor(2)
    metric_inv = _GridMajor(2)
    tangent = _GridMajor(2)
    normal = _GridMajor(2)
    weingarten = _GridMajor(3)
    mean_curvature = _GridMajor(1)
    gtilde = _GridMajor(3)
    e_coeff = _GridMajor(2)
    omega = _GridMajor(3)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_planes") and isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def grid_shape(self):
        return self.points_planes.shape[1:]

    @property
    def frame_rotation(self) -> np.ndarray:
        """(*grid, n, n) with frame vectors as rows (tangent block first)."""
        return np.concatenate([self.tangent, self.normal], axis=-2)

    def rho_on_tube(self, q) -> np.ndarray:
        """rho(s, q) = det(1 + q Gamma)^2 over the grid for one normal offset q.

        Raises FocalDistanceError where the offset reaches the focal set
        (_tube_factor).
        """
        q = np.atleast_1d(np.asarray(q, dtype=float))
        return _tube_factor(self.weingarten_planes, q) ** 2


def _complete_normal_stack(tangent):
    """Gram-Schmidt completion of tangent planes (k, n, P) with ascending
    standard basis vectors, skipping residuals <= 0.5 (<= 1e-8 in a second
    pass for the points still short).

    Every candidate e_j is first projected against the tangent rows, all
    candidates at once, then one after another against the normal slots a
    point has filled, in order (an empty slot is an exact no-op): the
    arithmetic of a per-point loop.  Returns the normal planes (n-k, n, P)
    and the accepted basis indices (n-k, P).  Raises ImmersionError for a
    non-finite tangent.
    """
    k, n, points = tangent.shape
    if not np.isfinite(tangent).all():
        raise ImmersionError("could not complete the normal frame")
    # cand[i, j]: entry i of e_j; against the first row t that is e_j - t[j] t
    t = tangent[0]
    cand = np.eye(n)[:, :, None] - t[None] * t[:, None]
    for t in tangent[1:, :, None]:
        cand -= _plane_dot(t, cand) * t
    normal = np.zeros((n - k, n, points))
    pivots = np.zeros((n - k, points), dtype=int)
    filled = np.zeros(points, dtype=int)
    short = slice(None)
    for thr in (0.5, 1e-8):
        slots, piv, count = normal[:, :, short], pivots[:, short], filled[short]
        for j in range(n):
            w = cand[:, j, short]
            for u in slots[:count.max()]:
                w = w - _plane_dot(u, w) * u
            norm = np.sqrt(np.add.reduce(w * w))
            hit = np.flatnonzero((norm > thr) & (count < n - k))
            if len(hit):
                slots[count[hit], :, hit] = (w[:, hit] / norm[hit]).T
                piv[count[hit], hit] = j
                count[hit] += 1
                if count.min() == n - k:
                    break
        normal[:, :, short], pivots[:, short], filled[short] = slots, piv, count
        short = np.flatnonzero(filled < n - k)
        if not len(short):
            return normal, pivots
    raise ImmersionError("could not complete the normal frame")


def _raw_normals(tangent):
    """Unsmoothed normal planes (n-k, n, *grid) and completion pivots.

    Surfaces in R^3 take the cross product and plane curves the quarter
    turn, both det +1, with pivots None; codimension >= 2 completes with
    standard basis vectors (_complete_normal_stack).
    """
    (k, n), grid = tangent.shape[:2], tangent.shape[2:]
    if (k, n) == (2, 3):
        a, b = tangent
        nrm = np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                        a[0] * b[1] - a[1] * b[0]])
        return (nrm / np.sqrt((nrm * nrm).sum(axis=0)))[None], None
    if (k, n) == (1, 2):
        t = tangent[0]
        return np.stack([-t[1], t[0]])[None], None
    b, pivots = _complete_normal_stack(tangent.reshape(k, n, -1))
    return b.reshape((n - k, n) + grid), pivots.reshape((n - k,) + grid)


def _polar_factor(m):
    """Orthogonal polar factor of square-matrix planes m (d, d, *grid): the
    nearest rotation or reflection, u vt of the SVD.

    For 2 x 2 matrices it is closed-form: with m = [[a, b], [c, d]], the rotation
    [[p, -q], [q, p]] with (p, q) along (a + d, c - b) when det m > 0, the
    reflection [[p, q], [q, -p]] with (p, q) along (a - d, c + b) when
    det m < 0.  Each maximises tr(P^T m) within its component, and the
    length of (p, q) squared is |m|_F^2 + 2 |det m| > 0.  A step with
    |det m| <= 1e-8 or a non-finite entry has no well-defined polar factor
    and raises ImmersionError.
    """
    if len(m) != 2:
        u, _, vt = np.linalg.svd(_grid_major(m, 2))
        return _plane_view(u @ vt, 2)
    (a, b), (c, d) = m
    det = a * d - b * c if np.isfinite(m).all() else np.nan
    if not (np.abs(det) > 1e-8).all():  # a NaN fails too
        raise ImmersionError("normal-frame smoothing met a singular alignment step")
    sign = np.where(det > 0, 1.0, -1.0)
    p, q = a + sign * d, c - sign * b
    length = np.hypot(p, q)
    p, q = p / length, q / length
    return np.stack([np.stack([p, -sign * q]), np.stack([q, sign * p])])


def build_frame_field(chart: ImmersionChart, shape=None,
                      integrability_tol=None) -> FrameField:
    """Adapted frames, curvature and connection data on the chart grid.

    The chart is evaluated once on the grid's open mesh, x, jac and hess
    together (chart.jet), as entry-major planes (n, *grid), (n, k, *grid)
    and (n, k, k, *grid): every per-point quantity is a stack of planes,
    one per matrix entry, each holding that entry at all grid points
    contiguously.  Every step below is plane arithmetic over the whole
    grid, with Python loops over the 2-4 entry indices only, and the
    FrameField keeps the planes as they are, so nothing is transposed back.

    The tangent frame is the ordered Gram-Schmidt of the coordinate
    derivatives, jac = tangent^T R with R = tangent jac upper triangular
    (k <= 2, since the staircase covers curves and surfaces only).  R gives
    the immersion guard, sigma_min(jac) = sigma_min(R) in closed form, the
    metric g = R^T R, the frame coefficients e_coeff = R^-T and the metric
    inverse g^-1 = R^-1 R^-T.

    Surfaces in R^3 and plane curves take their normal from the cross
    product and the quarter turn.  In higher codimension every point
    completes its tangent rows with standard basis vectors (_raw_normals,
    all points at once), and the completions b(s) are smoothed along the
    staircase by Procrustes alignment to the predecessor.  As
    polar(Q M) = Q polar(M), the aligned frame is Q(s) b(s) with
    Q(s) = Q(prev) P(s), P(s) = polar(b(prev) b(s)^T): one polar factor of
    all steps (_polar_factor, closed-form in codimension 2) and one
    staircase scan of the P^T.  P(s) can be a reflection, so the order of
    that product matters.  The field is then flipped to det +1 at the base
    corner.

    Each alignment step, N(s) = polar(N(prev) b(s)^T) b(s), projects the
    predecessor's normals onto the new normal space and orthonormalises
    them, so the aligned frame is a discrete parallel (rotation-minimising)
    normal frame: on a curve the Bishop frame, and its normal connection
    gtilde, differenced once from it, is O(h^2) where the normal bundle is
    flat.

    The spin connection is exact: differentiating jac = tangent^T R gives
    tangent d_alpha(jac) R^-1 = tangent d_alpha(tangent^T) + d_alpha(R) R^-1,
    an antisymmetric plus an upper-triangular matrix, so omega_alpha is the
    antisymmetrised strict-lower part of tangent hess_alpha R^-1.

    Raises, in this order: ValueError for a shape with the wrong number of
    axes, fewer than 8 points per axis, or more than two axes; then
    ImmersionError when the Jacobian is not finite or its smallest singular
    value is <= 1e-8 somewhere on the grid (tested before any division by a
    Gram-Schmidt norm), when a normal frame cannot be completed, when a
    codimension-2 alignment step is singular, or when smoothing leaves
    frames of both orientations (a seam); then IntegrabilityError when the
    normal connection stays above integrability_tol.
    """
    shape = tuple(shape or chart.grid_shape)
    axes = chart.axes(shape)
    dims = _staircase_ndim(len(shape))
    hs = chart.spacings(shape)
    mesh = chart.open_mesh(shape)
    x, jac, hess = chart.jet(mesh)
    k, n = chart.k, chart.n
    nk = n - k

    tangent, r = _tangent_frames(jac, chart.name)

    normal, pivots = _raw_normals(tangent)
    if pivots is not None:  # the closed forms need no smoothing
        step = _polar_factor(_plane_matmul(_staircase_previous(normal, dims),
                                           np.swapaxes(normal, 0, 1)))
        # the scan chains per-point matrices, so it runs on (*grid, d, d) views
        q_t = _staircase_scan(_grid_major(np.swapaxes(step, 0, 1), 2), np.eye(nk))
        normal = _plane_matmul(np.swapaxes(_plane_view(q_t, 2), 0, 1), normal)
        det = _plane_det(np.concatenate([tangent, normal]))
        if det.max() - det.min() > 1.0:  # dets are +/-1; a mix means a seam
            raise ImmersionError("normal-frame smoothing left an orientation seam")
        if det.flat[0] < 0:
            normal[-1] = -normal[-1]

    r_inv, metric_inv = _r_inverse(r)
    metric = _plane_matmul(np.swapaxes(r, 0, 1), r)
    wein = _weingarten_planes(hess, metric_inv, normal)

    # omega_alpha = L - L^T with L the strict-lower part of tangent hess_alpha
    # R^-1; for k = 2 that is the one entry L[1, 0] = e_1 . d_alpha d_0 x / R[0, 0]
    # (0-based), and a curve has no spin connection
    omega = np.zeros((k, k, k) + shape)
    if k == 2:
        low = _plane_matmul(tangent[1:], hess[:, 0])[0] * r_inv[0, 0]
        omega[:, 1, 0], omega[:, 0, 1] = low, -low
    del hess  # the rest of the build holds no second derivatives

    # normal-connection coefficients of the aligned field; in codimension 1
    # the antisymmetric 1 x 1 matrix is 0, with no differencing
    gtilde = np.zeros((k, nk, nk) + shape)
    if nk >= 2:
        for a in range(k):
            m = _plane_matmul(normal, np.swapaxes(_diff_axis(normal, a - dims, hs[a]), 0, 1))
            gtilde[a] = 0.5 * (m - np.swapaxes(m, 0, 1))

    gtilde_residual = float(np.abs(gtilde).max()) if nk >= 2 else 0.0
    if integrability_tol is not None and gtilde_residual > integrability_tol:
        raise IntegrabilityError(
            f"normal connection residual {gtilde_residual:.3e} above {integrability_tol:.3e}")

    return FrameField(chart, axes, hs, _plane_view(mesh.dense(), 1), x, jac, metric, metric_inv,
                      tangent, normal, wein, np.trace(wein, axis1=1, axis2=2), gtilde,
                      gtilde_residual, np.swapaxes(r_inv, 0, 1), omega)
