"""The dense second-order jet, kept as the test oracle for geometry.Jet, and
the chart's jet pass on the dense meshgrid, kept as the oracle of the pass
on the grid's axes (dense_jet_pass).

A value with its gradient and Hessian stacked in front as dense arrays, d
(k, *shape) and dd (k, k, *shape), dd None standing for zero; every rule
runs on all k and k^2 derivative planes, zero or not.  geometry.Jet keeps
the same truncated-Taylor rules on sparse symmetric planes, and must agree
with this one bit for bit wherever the values stay finite.  The oracle
broadcasts the derivatives of a jet that met a larger constant (and adds
without writing in place), so that it accepts every expression the sparse
jet accepts; neither changes a value.
"""

import dataclasses
import inspect

import numpy as np

from subdirac.geometry import Jet, _dense_points, _hessian_pairs


class DenseJet:
    """Second-order forward-mode jet: a value with its gradient and Hessian.

    v has the value shape; the derivatives in the k parameters are stacked
    in front, d as (k, *shape) and dd as (k, k, *shape), and dd None stands
    for zero (constants and affine expressions).  The arithmetic operators,
    constant powers and the ufuncs of _JET_FUNCTIONS follow the truncated
    Taylor rules (Griewank & Walther, Evaluating Derivatives, 2nd ed.,
    ch. 13), so a numpy expression in the parameters evaluated on
    DenseJet.variables(s) carries the exact first and second derivatives along
    with its value.  Indexing and np.stack shape the result.  Anything else
    (math.sin, float(), comparisons, np.asarray, other numpy functions)
    raises TypeError.
    """

    __slots__ = ("v", "d", "dd")

    def __init__(self, v, d, dd=None):
        self.v, self.d, self.dd = v, d, dd

    @classmethod
    def variables(cls, s):
        """The parameter points s (..., k) as a jet: d[a, ..., b] = delta_ab."""
        s = np.asarray(s, dtype=float)
        k = s.shape[-1]
        d = np.zeros((k,) + s.shape)
        for a in range(k):
            d[a, ..., a] = 1.0
        return cls(s, d)

    @property
    def shape(self):
        return np.shape(self.v)

    def __getitem__(self, idx):
        idx = idx if isinstance(idx, tuple) else (idx,)
        dd = None if self.dd is None else self.dd[(slice(None), slice(None)) + idx]
        return DenseJet(self.v[idx], self.d[(slice(None),) + idx], dd)

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a jet has no plain array value")

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
        """f(self) from f, f' and f'' at the value."""
        d = self.d * f1
        dd = self.d[:, None] * self.d[None] * f2
        if self.dd is not None:
            dd = dd + self.dd * f1
        return DenseJet(f, d, dd)

    def _grown(self, ndim):
        """(d, dd) with singleton value axes in front up to ndim value axes."""
        extra = ndim - np.ndim(self.v)
        if extra <= 0:
            return self.d, self.dd
        k = self.d.shape[0]
        d = self.d.reshape((k,) + (1,) * extra + self.d.shape[1:])
        dd = None if self.dd is None else self.dd.reshape((k, k) + (1,) * extra
                                                         + self.dd.shape[2:])
        return d, dd

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
        return DenseJet(-self.v, -self.d, None if self.dd is None else -self.dd)


def _jet_parts(u, ndim):
    """(value, d, dd) of a jet or a constant, derivatives grown to ndim value axes."""
    if isinstance(u, DenseJet):
        return (u.v,) + u._grown(ndim)
    return u, None, None


def _jet_sum(op, a, b):
    """op(a, b) for op add or subtract, None standing for zero."""
    if b is None:
        return a
    if a is None:
        return b if op is np.add else -b
    return op(a, b)


def _jet_linear(op, a, b):
    av = a.v if isinstance(a, DenseJet) else a
    bv = b.v if isinstance(b, DenseJet) else b
    v = op(av, bv)
    nd = np.ndim(v)
    _, ad, add = _jet_parts(a, nd)
    _, bd, bdd = _jet_parts(b, nd)
    return DenseJet(v, _jet_sum(op, ad, bd), _jet_sum(op, add, bdd))


def _jet_multiply(a, b):
    if not isinstance(a, DenseJet):
        a, b = b, a
    if not isinstance(b, DenseJet):
        v = a.v * b
        d, dd = a._grown(np.ndim(v))
        return DenseJet(v, d * b, None if dd is None else dd * b)
    v = a.v * b.v
    nd = np.ndim(v)
    (ad, add), (bd, bdd) = a._grown(nd), b._grown(nd)
    cross = ad[:, None] * bd[None]
    dd = cross + np.swapaxes(cross, 0, 1)
    if add is not None:
        dd = dd + add * b.v
    if bdd is not None:
        dd = dd + a.v * bdd
    return DenseJet(v, ad * b.v + a.v * bd, dd)


def _jet_divide(a, b):
    """q = a / b from a = q b: q' = (a' - q b') / b and
    q'' = (a'' - q' b'^T - b' q'^T - q b'') / b."""
    if not isinstance(b, DenseJet):
        v = a.v / b
        d, dd = a._grown(np.ndim(v))
        return DenseJet(v, d / b, None if dd is None else dd / b)
    av = a.v if isinstance(a, DenseJet) else a
    q = av / b.v
    nd = np.ndim(q)
    _, ad, add = _jet_parts(a, nd)
    bd, bdd = b._grown(nd)
    d = _jet_sum(np.subtract, ad, q * bd) / b.v
    cross = d[:, None] * bd[None]
    dd = _jet_sum(np.subtract, add, cross + np.swapaxes(cross, 0, 1))
    if bdd is not None:
        dd = dd - q * bdd
    return DenseJet(q, d, dd / b.v)


def _jet_power(u, p):
    """u ** p for a constant exponent p."""
    if isinstance(p, DenseJet) or not isinstance(u, DenseJet) or np.ndim(p) != 0:
        return NotImplemented
    if p == 1:
        return u
    if p == 0:
        return DenseJet(u.v ** 0, np.zeros_like(u.d))
    return u._chain(u.v ** p, p * u.v ** (p - 1), p * (p - 1) * u.v ** (p - 2))


def _jet_stack(arrays, axis=0):
    """np.stack of jets and constants: each derivative stacks one axis further in."""
    arrays = list(arrays)
    k = next(a.d.shape[0] for a in arrays if isinstance(a, DenseJet))
    shapes = {np.shape(a.v if isinstance(a, DenseJet) else a) for a in arrays}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    parts = [_jet_full(a, k, shape) for a in arrays]
    v = np.stack([p[0] for p in parts], axis=axis)
    axis = axis % v.ndim
    d = np.stack([p[1] for p in parts], axis=axis + 1)
    if all(p[2] is None for p in parts):
        return DenseJet(v, d)
    zero = np.zeros((k, k) + shape)
    return DenseJet(v, d, np.stack([zero if p[2] is None else p[2] for p in parts], axis=axis + 2))


def _jet_full(a, k, shape):
    """(v, d, dd) of a jet or a constant at the value shape, dd None for zero.

    The derivatives are broadcast even when the value has the shape already:
    a jet plus a larger constant keeps derivatives of the smaller shape.
    """
    if not isinstance(a, DenseJet):
        return np.broadcast_to(a, shape), np.zeros((k,) + shape), None
    d, dd = a._grown(len(shape))
    return (np.broadcast_to(a.v, shape), np.broadcast_to(d, (k,) + shape),
            None if dd is None else np.broadcast_to(dd, (k, k) + shape))


def _sin(v):
    s = np.sin(v)
    return s, np.cos(v), -s


def _cos(v):
    c = np.cos(v)
    return c, -np.sin(v), -c


def _cosh(v):
    c = np.cosh(v)
    return c, np.sinh(v), c


def _sqrt(v):
    r = np.sqrt(v)
    half = 0.5 / r
    return r, half, -half / (2 * v)


# ufuncs by the chain rule: value -> (f, f', f'')
_JET_FUNCTIONS = {np.sin: _sin, np.cos: _cos, np.cosh: _cosh, np.sqrt: _sqrt}
_JET_OPERATORS = {np.add: lambda a, b: _jet_linear(np.add, a, b),
                  np.subtract: lambda a, b: _jet_linear(np.subtract, a, b),
                  np.multiply: _jet_multiply, np.true_divide: _jet_divide,
                  np.power: _jet_power, np.negative: DenseJet.__neg__}


# --- the chart pass on the dense meshgrid -------------------------------------------


def dense_jet_pass(fn, s, n, order=2):
    """Planes x (n, *grid), jac (n, k, *grid) and hess (n, k, k, *grid) of fn
    from one pass of geometry.Jet on the dense points s (*grid, k): every
    parameter, and so every subexpression, a full grid plane.  The pass as it
    ran before geometry._jet_pass took a grid's open mesh."""
    s = np.asarray(s, dtype=float)
    grid, k = s.shape[:-1], s.shape[-1]
    out = fn(Jet.variables(s, order))
    if isinstance(out, Jet):
        out = [out[..., i] for i in range(n)]
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


def chart_callable(chart):
    """The numpy callable of a from_callable chart (catalog charts included)."""
    return inspect.getclosurevars(chart.jet).nonlocals["fn"]


def dense_pass_chart(chart):
    """chart with its jet pass run on the dense points (dense_jet_pass), an
    open mesh materialised first."""
    fn = chart_callable(chart)

    def jet(s, order=2):
        return dense_jet_pass(fn, _dense_points(s), chart.n, order)

    return dataclasses.replace(chart, jet=jet)
