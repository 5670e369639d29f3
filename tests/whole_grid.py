"""The whole-grid bodies of the pointwise grid kernels, kept as the test
oracles of their blocked forms.

The package runs the spin lift, the residual's odd coefficients and
quadratic form, the Gram's and the bilinears' pair products over blocks of
spinors.GRID_BLOCK points (or whole rows of about that many, for the
residual's differences).  These are the same kernels applied to every grid
point at once, as they were before the blocks.  The lift is elementwise
over the points (Householder reflections and their products in blade
coefficients), so its blocked and whole-grid forms agree bit for bit; the
other kernels end in BLAS products, which agree to rounding, since a BLAS
product may round a column differently by where it sits in the operand.
"""

import numpy as np

from subdirac.clifford import _left_product_rows
from subdirac.dirac import (
    _gram_table,
    _interior_differences,
    _odd_form,
    _operator_planes,
    _pair_products,
    _potential_blades,
    _sign_chain,
)
from subdirac.geometry import _plane_matmul, _staircase_previous
from subdirac.spinors import _default_sign, _reflection_product, _unsigned_coefficients
from subdirac.weierstrass import _bilinear_table


def frame_lift_coefficients(frames, rep):
    """dirac.frame_lift_coefficients with the whole-grid lift: the rotation
    entries, the lift and the sign chain's overlaps as (rows, P) arrays."""
    rot = np.concatenate([frames.tangent_planes, frames.normal_planes])
    shape = rot.shape[2:]
    entries = rot.reshape(len(rot) * rot.shape[1], -1)
    c = _unsigned_coefficients(entries, rep.m).reshape((-1,) + shape)
    overlap = rep.dim * (c * _staircase_previous(c, len(shape))).sum(axis=0)
    base_sign = _default_sign(_reflection_product(entries[:, :1], rep, 1e-10))
    return _sign_chain(overlap, base_sign) * c


def lift_residuals(frames, coeffs, rep, with_mean=True):
    """dirac.lift_residuals on every interior point at once."""
    k, d = frames.chart.k, rep.dim
    axis, potential = _operator_planes(frames, rep, with_mean)
    inner = (slice(None),) + (slice(1, -1),) * k
    K = len(coeffs)
    signed_c = np.empty((2 * K,) + tuple(n - 2 for n in coeffs.shape[1:]))  # [c; -c]
    signed_c[:K] = coeffs[inner]
    np.negative(signed_c[:K], out=signed_c[K:])
    signed_c = signed_c.reshape(2 * K, -1)
    if signed_c.shape[1] == 0:
        return np.zeros(d)
    blades = len(potential) if with_mean else _potential_blades(k, rep.m)[1].shape[1]
    e = axis[(slice(None),) + inner].reshape(k, k, 1, -1)
    for alpha, dc in enumerate(_interior_differences(coeffs, frames.spacings)):
        term = e[alpha] * dc.reshape(1, K, -1)
        if alpha:
            g += term
        else:
            g = term
    v = potential[:blades][inner].reshape(blades, -1)
    signed = _left_product_rows(rep.m, _potential_blades(k, rep.m)[0], 1)
    tangent = np.zeros((K, k * K))
    for a, source in enumerate(_left_product_rows(rep.m, tuple(1 << i for i in range(k)), 1)):
        tangent[np.arange(K), a * K + source % K] = np.where(source < K, 1.0, -1.0)
    b = tangent @ g.reshape(k * K, -1)
    for j in range(blades):
        term = signed_c[signed[j]]
        term *= v[j]
        b += term
    form = rep.cached_table("odd_form", _odd_form)
    squares = np.einsum("alp,lp->ap", (form @ b).reshape(d, len(b), -1), b)
    return np.sqrt(np.maximum(squares.max(axis=1), 0.0))


def lift_gram(coeffs, rep):
    """dirac.lift_gram on every grid point at once."""
    table = rep.cached_table("lift_gram", _gram_table)
    pairs = _pair_products(coeffs).reshape(len(table), -1)
    gram = np.ascontiguousarray((table.view(float).T @ pairs).T).view(complex)
    return gram.reshape(coeffs.shape[1:] + (rep.dim, rep.dim))


def bilinear_kernel(coeffs, tangent, jac, rep):
    """weierstrass._bilinear_kernel on every grid point at once."""
    grid = coeffs.shape[1:]
    n, k = jac.shape[:2]
    table = _bilinear_table(rep, k)
    w = table.T @ _pair_products(coeffs).reshape(len(table), -1)
    return _plane_matmul(w.reshape((n, k) + grid), _plane_matmul(tangent, jac))
