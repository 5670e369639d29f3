"""Exact blade arithmetic in the Clifford algebra of euclidean R^m.

Blades are indexed by bitmasks over the generators e_1..e_m (bit i-1 set
means e_i participates, factors in ascending order).  Generators square to
+1 and anticommute, so the product of two blades is +/- the XOR blade with
the sign given by transposition counting: each generator of b moves past
the generators of a above it.  That count's parity has a closed form (the
bit-mask reordering sign of Dorst, Fontijne & Mann, *Geometric Algebra for
Computer Science*, 2007): bit i of the prefix parity of a is the parity of
a's generators above e_{i+1}, and the sign is the parity of the prefix
parity masked by b.  Coefficients are kept as Python numbers, so integer
inputs stay exact.

The grid kernels keep real coefficient planes instead: c holds the blades
of one parity in ascending mask order, so blade K sits at row K >> 1 (the
masks 2t and 2t + 1 have opposite parities).  A left product by a blade J
is then a signed row permutation: J e_K = s(J, K) e_{J ^ K} puts row
K >> 1 of [c; -c], the second half when s(J, K) < 0, at row (J ^ K) >> 1
of the product.  _left_product_rows tabulates these rows for the spin
lift, the operator and its kernel residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

MAX_DIMENSION = 12


def _popcount(x: int) -> int:
    return x.bit_count()


def _above_parity(a):
    """Prefix parity of the mask a: bit i is the parity of a's bits above bit i.

    A prefix XOR of a >> 1 in shifts of 1, 2, 4 and 8, which spans the 16
    bits above any bit, more than MAX_DIMENSION.  Works on Python ints and
    elementwise on integer arrays.
    """
    p = a >> 1
    p ^= p >> 1
    p ^= p >> 2
    p ^= p >> 4
    p ^= p >> 8
    return p


def _blade_product_signs(a, b):
    """Sign of (blade a) * (blade b) for an orthonormal euclidean basis.

    The transpositions that move every generator of b past the higher
    generators of a number sum_{i in b} #{j in a, j > i}, whose parity is
    that of (_above_parity(a) & b); squared generators contribute +1 and
    drop out.  Works on Python ints and elementwise over broadcast integer
    mask arrays.
    """
    x = _above_parity(a) & b
    for shift in (8, 4, 2, 1):
        x ^= x >> shift
    return 1 - 2 * (x & 1)


@lru_cache(maxsize=None)
def _left_product_rows(m: int, blades: tuple, parity: int) -> np.ndarray:
    """The rows of [c; -c] that the left products by blades bring to the blades of parity.

    Row t of entry j is the row that J = blades[j] brings to the blade L of
    the given parity at row t = L >> 1: with K = L ^ J, row K >> 1, plus
    2^(m - 1) when s(J, K) < 0, so that (e_J c)[t] = [c; -c][rows[j, t]]
    for c on the blades of K's parity.  Shape (len(blades), 2^(m - 1)),
    built once per arguments and read-only, since every caller shares it.
    """
    targets = np.array([mask for mask in range(1 << m) if _popcount(mask) % 2 == parity])
    left = np.array(blades, dtype=np.intp).reshape(-1, 1)
    sources = targets ^ left
    rows = sources >> 1
    rows += np.where(_blade_product_signs(left, sources) < 0, 1 << (m - 1), 0)
    rows.flags.writeable = False
    return rows


def blade_label(mask: int) -> str:
    if mask == 0:
        return "1"
    return "e" + "e".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class Multivector:
    """Element of CLIFF(R^m) as a blade -> coefficient map in canonical form."""

    m: int
    coeffs: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.m <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {self.m}")
        clean = {}
        for mask, c in self.coeffs.items():
            if mask < 0 or mask >= (1 << self.m):
                raise ValueError(f"blade {mask:#x} outside subsets of {{1..{self.m}}}")
            if c != 0:
                clean[int(mask)] = c
        object.__setattr__(self, "coeffs", clean)

    # -- constructors -------------------------------------------------

    @classmethod
    def _canonical(cls, m: int, coeffs: dict) -> "Multivector":
        """Wrap a dict already in canonical form (int masks below 2^m, no zero
        coefficients) without re-checking it."""
        out = object.__new__(cls)
        object.__setattr__(out, "m", m)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    @classmethod
    def scalar(cls, value, m: int) -> "Multivector":
        return cls(m, {0: value})

    @classmethod
    def basis_vector(cls, m: int, i: int) -> "Multivector":
        if not 1 <= i <= m:
            raise ValueError(f"generator index {i} outside 1..{m}")
        return cls(m, {1 << (i - 1): 1})

    @classmethod
    def blade(cls, m: int, indices: Iterable[int], coeff=1) -> "Multivector":
        mask = 0
        for i in indices:
            if not 1 <= i <= m:
                raise ValueError(f"generator index {i} outside 1..{m}")
            if mask >> (i - 1) & 1:
                raise ValueError("repeated generator in blade")
            mask |= 1 << (i - 1)
        return cls(m, {mask: coeff})

    @classmethod
    def from_vector(cls, v) -> "Multivector":
        """Grade-1 element sum_i v_i e_i; the entries become Python numbers,
        so integer vectors stay exact."""
        v = np.asarray(v)
        if v.ndim != 1:
            raise ValueError(f"expected a vector, got shape {v.shape}")
        return cls(len(v), {1 << i: c for i, c in enumerate(v.tolist()) if c != 0})

    # -- ring structure ------------------------------------------------

    def _check_dim(self, other: "Multivector"):
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            other = Multivector.scalar(other, self.m)
        self._check_dim(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            out[mask] = out.get(mask, 0) + c
        return Multivector(self.m, out)

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.m, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            other = Multivector.scalar(other, self.m)
        return self + (-other)

    def __rsub__(self, other):
        return Multivector.scalar(other, self.m) - self

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return Multivector(self.m, {k: c * other for k, c in self.coeffs.items()})
        return geometric_product(self, other)

    def __rmul__(self, other):
        # scalars commute with everything
        return Multivector(self.m, {k: other * c for k, c in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Multivector.scalar(other, self.m)
        return isinstance(other, Multivector) and self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, tuple(sorted(self.coeffs.items()))))

    # -- inspection ----------------------------------------------------

    def coefficient(self, mask: int):
        return self.coeffs.get(mask, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def scalar_part(self):
        return self.coeffs.get(0, 0)

    def grade_1_vector(self) -> np.ndarray:
        return np.array([self.coeffs.get(1 << i, 0) for i in range(self.m)])

    def approx_eq(self, other: "Multivector", tol: float = 1e-12) -> bool:
        self._check_dim(other)
        masks = set(self.coeffs) | set(other.coeffs)
        return all(abs(self.coefficient(k) - other.coefficient(k)) <= tol for k in masks)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = [f"{c!r}*{blade_label(k)}" for k, c in sorted(self.coeffs.items())]
        return " + ".join(terms)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Clifford product with generator relations e_i e_j + e_j e_i = 2 delta_ij.

    The blade sign is read off _above_parity(ka), taken once per left blade.
    """
    a._check_dim(b)
    out: dict[int, complex] = {}
    for ka, ca in a.coeffs.items():
        above = _above_parity(ka)
        for kb, cb in b.coeffs.items():
            mask = ka ^ kb
            c = ca * cb
            acc = out.get(mask, 0)
            acc = acc - c if (above & kb).bit_count() & 1 else acc + c
            if acc == 0:
                out.pop(mask, None)
            else:
                out[mask] = acc
    return Multivector._canonical(a.m, out)


def grade_project(a: Multivector, p: int) -> Multivector:
    if not 0 <= p <= a.m:
        raise ValueError(f"grade {p} outside 0..{a.m}")
    return Multivector(a.m, {k: c for k, c in a.coeffs.items() if _popcount(k) == p})


def reversion(a: Multivector) -> Multivector:
    """The * involution: reverse the generator order inside every blade."""
    out = {}
    for k, c in a.coeffs.items():
        p = _popcount(k)
        out[k] = -c if (p * (p - 1) // 2) & 1 else c
    return Multivector(a.m, out)


def grade_involution(a: Multivector) -> Multivector:
    """Negate odd-grade blades (the main automorphism)."""
    return Multivector(a.m, {k: -c if _popcount(k) & 1 else c for k, c in a.coeffs.items()})


def is_even(a: Multivector) -> bool:
    return all(_popcount(k) % 2 == 0 for k in a.coeffs)


def _max_abs_where(a: Multivector, keep) -> float:
    """Largest |coefficient| over the blades k with keep(k); 0.0 if none."""
    return max((abs(c) for k, c in a.coeffs.items() if keep(k)), default=0.0)


def _left_mult_matrix(a: Multivector) -> np.ndarray:
    """Matrix of x -> a*x over the full blade basis (2^m dimensional)."""
    dim = 1 << a.m
    L = np.zeros((dim, dim))
    right = np.arange(dim)
    for ka, ca in a.coeffs.items():
        L[ka ^ right, right] += _blade_product_signs(ka, right) * ca
    return L


def inverse(a: Multivector, tol: float = 1e-12) -> Multivector:
    """Multiplicative inverse.

    Fast path: when a * a^rev is a nonzero scalar (true for Clifford group
    elements) the inverse is a^rev / scalar.  Otherwise falls back to
    solving the left-multiplication system over the blade basis.
    """
    n = geometric_product(a, reversion(a))
    scale = a.max_abs_coeff()
    if scale == 0:
        raise ZeroDivisionError("zero multivector has no inverse")
    s = n.scalar_part()
    off = _max_abs_where(n, lambda k: k != 0)
    if abs(s) > tol * scale**2 and off <= tol * scale**2:
        return reversion(a) * (1 / s)
    L = _left_mult_matrix(a)
    rhs = np.zeros(1 << a.m)
    rhs[0] = 1.0
    try:
        x = np.linalg.solve(L, rhs)
    except np.linalg.LinAlgError as exc:
        raise ZeroDivisionError("multivector is not invertible") from exc
    return Multivector(a.m, {k: x[k] for k in range(1 << a.m) if abs(x[k]) > tol * max(1.0, abs(x).max())})


def is_clifford_group(a: Multivector, tol: float = 1e-10) -> bool:
    """Membership test for the Clifford group.

    True iff a is even-graded, invertible with a a^rev a nonzero scalar
    (the norm condition; it makes a^{-1} proportional to a^rev so that the
    conjugation action is an orthogonal map), and a gamma(v) a^rev stays in
    grade 1 for every generator v (bilinearity extends this to all of R^m).
    """
    if a.is_zero() or not is_even(a):
        return False
    scale = max(a.max_abs_coeff() ** 2, 1e-300)
    ar = reversion(a)
    n = geometric_product(a, ar)
    s = n.scalar_part()
    if abs(s) <= tol * scale or _max_abs_where(n, lambda k: k != 0) > tol * scale:
        return False
    for i in range(1, a.m + 1):
        c = geometric_product(geometric_product(a, Multivector.basis_vector(a.m, i)), ar)
        if _max_abs_where(c, lambda k: k.bit_count() != 1) > tol * scale:
            return False
    return True


def adjoint_rotation(a: Multivector) -> np.ndarray:
    """The m x m matrix of v -> grade-1 part of a gamma(v) a^{-1}.

    For Clifford group elements this is the orthogonal transformation the
    element represents.
    """
    ainv = inverse(a)
    cols = []
    for i in range(1, a.m + 1):
        c = geometric_product(geometric_product(a, Multivector.basis_vector(a.m, i)), ainv)
        cols.append(c.grade_1_vector())
    return np.array(cols, dtype=float).T
