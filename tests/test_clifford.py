import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subdirac.clifford import (
    MAX_DIMENSION,
    Multivector,
    _blade_product_signs,
    _left_mult_matrix,
    _left_product_rows,
    adjoint_rotation,
    geometric_product,
    grade_involution,
    grade_project,
    inverse,
    is_clifford_group,
    is_even,
    reversion,
)
from subdirac.dirac import _potential_blades


# --- brute-force oracle -------------------------------------------------
#
# A blade is a tuple of generator indices.  Multiply by concatenating and
# bubble-sorting into ascending order, counting swaps for the sign, then
# cancelling adjacent equal generators (each squares to +1).

def oracle_blade_product(a: tuple, b: tuple):
    seq = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
            elif seq[i] == seq[i + 1]:
                del seq[i : i + 2]
                changed = True
                break
    return sign, tuple(seq)


def oracle_product(a: Multivector, b: Multivector) -> Multivector:
    out = {}
    for ka, ca in a.coeffs.items():
        for kb, cb in b.coeffs.items():
            ta = tuple(i + 1 for i in range(a.m) if ka >> i & 1)
            tb = tuple(i + 1 for i in range(b.m) if kb >> i & 1)
            sign, t = oracle_blade_product(ta, tb)
            mask = 0
            for i in t:
                mask |= 1 << (i - 1)
            out[mask] = out.get(mask, 0) + sign * ca * cb
    return Multivector(a.m, out)


def oracle_blade_sign(a: int, b: int) -> int:
    """The per-bit transposition count: shift a down one generator at a time."""
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1 if swaps & 1 else 1


def oracle_left_mult_matrix(a: Multivector) -> np.ndarray:
    """x -> a*x over the blade basis, one entry at a time."""
    dim = 1 << a.m
    L = np.zeros((dim, dim))
    for ka, ca in a.coeffs.items():
        for kb in range(dim):
            L[ka ^ kb, kb] += oracle_blade_sign(ka, kb) * ca
    return L


def random_multivector(rng, m, integer=True, nnz=5):
    coeffs = {}
    for _ in range(nnz):
        mask = int(rng.integers(0, 1 << m))
        coeffs[mask] = int(rng.integers(-4, 5)) if integer else float(rng.normal())
    return Multivector(m, coeffs)


# --- generator relations -------------------------------------------------

def test_generator_squares_to_one():
    e1 = Multivector.basis_vector(3, 1)
    assert e1 * e1 == Multivector.scalar(1, 3)


def test_orthogonal_generators_anticommute():
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    assert e1 * e2 == Multivector.blade(3, [1, 2])
    assert e2 * e1 == -Multivector.blade(3, [1, 2])


@pytest.mark.parametrize("m", range(1, 7))
def test_generator_relations_all_dims(m):
    for i in range(1, m + 1):
        ei = Multivector.basis_vector(m, i)
        assert ei * ei == Multivector.scalar(1, m)
        for j in range(1, m + 1):
            if i != j:
                ej = Multivector.basis_vector(m, j)
                assert ei * ej == -(ej * ei)


def test_bivector_squares_to_minus_one():
    b = Multivector.blade(4, [1, 2])
    assert b * b == Multivector.scalar(-1, 4)
    assert oracle_product(b, b) == Multivector.scalar(-1, 4)


def test_product_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        a = random_multivector(rng, m)
        b = random_multivector(rng, m)
        assert geometric_product(a, b) == oracle_product(a, b)


@pytest.mark.parametrize("m", range(1, 9))
def test_blade_sign_matches_per_bit_loop_on_every_pair(m):
    masks = np.arange(1 << m)
    expected = np.array([[oracle_blade_sign(a, b) for b in range(1 << m)] for a in range(1 << m)])
    got = np.array([[_blade_product_signs(a, b) for b in range(1 << m)] for a in range(1 << m)])
    assert np.array_equal(got, expected)
    assert np.array_equal(_blade_product_signs(masks[:, None], masks), expected)


def test_blade_sign_matches_per_bit_loop_up_to_max_dimension():
    rng = np.random.default_rng(12)
    a = rng.integers(0, 1 << MAX_DIMENSION, size=4000)
    b = rng.integers(0, 1 << MAX_DIMENSION, size=4000)
    expected = np.array([oracle_blade_sign(int(x), int(y)) for x, y in zip(a, b)])
    assert [_blade_product_signs(int(x), int(y)) for x, y in zip(a, b)] == expected.tolist()
    assert np.array_equal(_blade_product_signs(a, b), expected)


def oracle_left_product_rows(m, blades, parity):
    """_left_product_rows one entry at a time, with the per-bit loop's signs."""
    half = 1 << (m - 1)
    targets = [mask for mask in range(1 << m) if bin(mask).count("1") % 2 == parity]
    rows = np.empty((len(blades), half), dtype=np.intp)
    for j, blade in enumerate(blades):
        for t, target in enumerate(targets):
            assert target >> 1 == t  # blade L sits at row L >> 1 of its parity
            source = target ^ blade
            rows[j, t] = (source >> 1) + (half if oracle_blade_sign(blade, source) < 0 else 0)
    return rows


def assert_left_product_rows(m, blades, parity):
    got = _left_product_rows(m, blades, parity)
    assert _left_product_rows(m, blades, parity) is got
    assert not got.flags.writeable
    expected = oracle_left_product_rows(m, blades, parity)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("m", range(1, MAX_DIMENSION + 1))
def test_left_product_rows_of_the_generators_match_the_loop(m, parity):
    assert_left_product_rows(m, tuple(1 << i for i in range(m)), parity)


@pytest.mark.parametrize("k, m", [(k, m) for k in (1, 2, 3) for m in range(k + 1, 9)])
def test_left_product_rows_of_the_potential_blades_match_the_loop(k, m):
    assert_left_product_rows(m, _potential_blades(k, m)[0], 1)


@pytest.mark.parametrize("m", [1, 2, 5])
def test_left_product_rows_are_the_left_multiplication_matrix(m):
    # (e_J c)[t] = [c; -c][rows[j, t]] for every blade J and either parity of the product
    masks = np.arange(1 << m)
    parities = np.array([bin(mask).count("1") % 2 for mask in masks])
    blades = tuple(range(1 << m))
    for parity in (0, 1):
        for blade, rows in zip(blades, _left_product_rows(m, blades, parity)):
            source_parity = parity ^ bin(blade).count("1") % 2
            L = oracle_left_mult_matrix(Multivector(m, {blade: 1}))
            block = L[np.ix_(masks[parities == parity], masks[parities == source_parity])]
            half = len(block)
            expected = np.zeros((half, half))
            expected[np.arange(half), rows % half] = np.where(rows < half, 1.0, -1.0)
            assert np.array_equal(block, expected)


def random_coefficient(rng, kind):
    if kind == "int":
        return int(rng.integers(-9, 10))
    if kind == "float":
        return float(rng.normal())
    return complex(rng.normal(), rng.normal())


@pytest.mark.parametrize("kind", ["int", "float", "complex"])
@pytest.mark.parametrize("m", range(1, MAX_DIMENSION + 1))
def test_product_equals_oracle_in_every_dimension(m, kind):
    rng = np.random.default_rng(100 * m + len(kind))
    for _ in range(6):
        a, b = (Multivector(m, {int(rng.integers(0, 1 << m)): random_coefficient(rng, kind)
                                for _ in range(8)}) for _ in range(2))
        assert geometric_product(a, b) == oracle_product(a, b)


@pytest.mark.parametrize("m", range(1, 7))
def test_left_mult_matrix_matches_per_entry_loop(m):
    rng = np.random.default_rng(30 + m)
    a = random_multivector(rng, m, integer=False, nnz=6)
    assert np.array_equal(_left_mult_matrix(a), oracle_left_mult_matrix(a))


def test_from_vector_keeps_integers_exact():
    v = Multivector.from_vector(np.array([3037000500, 1, 0]))
    assert all(type(c) is int for c in v.coeffs.values())
    assert v * v == Multivector.scalar(3037000500**2 + 1, 3)
    assert (v * v).scalar_part() == 9223372037000250001


def test_from_vector_holds_python_numbers():
    v = Multivector.from_vector(np.array([0.5, 0.0, -2.0]))
    assert v.coeffs == {0b001: 0.5, 0b100: -2.0}
    assert all(type(c) is float for c in v.coeffs.values())
    z = Multivector.from_vector(np.array([1j, 2.0]))
    assert all(type(c) is complex for c in z.coeffs.values())
    with pytest.raises(ValueError, match="expected a vector"):
        Multivector.from_vector(np.eye(2))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        geometric_product(Multivector.scalar(1, 2), Multivector.scalar(1, 3))


# --- grading --------------------------------------------------------------

def test_grade_project_example():
    x = Multivector(3, {0: 3, 0b001: 2, 0b011: 1})
    assert grade_project(x, 1) == Multivector(3, {0b001: 2})
    assert grade_project(Multivector.blade(3, [1, 2, 3]), 2).is_zero()


def test_grades_partition():
    rng = np.random.default_rng(5)
    x = random_multivector(rng, 5, nnz=12)
    total = Multivector.scalar(0, 5)
    for p in range(6):
        total = total + grade_project(x, p)
    assert total == x


def test_grade_project_idempotent_and_orthogonal():
    rng = np.random.default_rng(7)
    x = random_multivector(rng, 4, nnz=10)
    for p in range(5):
        xp = grade_project(x, p)
        assert grade_project(xp, p) == xp
        for q in range(5):
            if q != p:
                assert grade_project(xp, q).is_zero()


def test_grade_project_range_check():
    with pytest.raises(ValueError):
        grade_project(Multivector.scalar(1, 3), 4)


# --- reversion -------------------------------------------------------------

def test_reversion_signs():
    assert reversion(Multivector.blade(3, [1, 2])) == -Multivector.blade(3, [1, 2])
    assert reversion(Multivector.scalar(7, 3)) == Multivector.scalar(7, 3)
    # p = 3 blade: sign (-1)^{3*2/2} = -1, cross-checked by explicit reversal
    e = [Multivector.basis_vector(3, i) for i in (1, 2, 3)]
    fwd = e[0] * e[1] * e[2]
    back = e[2] * e[1] * e[0]
    assert reversion(fwd) == back
    assert reversion(fwd) == -Multivector.blade(3, [1, 2, 3])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_reversion_antiautomorphism(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    a = random_multivector(rng, m)
    b = random_multivector(rng, m)
    assert reversion(a * b) == reversion(b) * reversion(a)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_associativity_exact(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    a = random_multivector(rng, m)
    b = random_multivector(rng, m)
    c = random_multivector(rng, m)
    assert (a * b) * c == a * (b * c)


# --- Clifford group ---------------------------------------------------------

def test_identity_in_group():
    assert is_clifford_group(Multivector.scalar(1, 3))


def test_rotor_in_group():
    th = 0.7
    r = Multivector.scalar(math.cos(th), 4) + math.sin(th) * Multivector.blade(4, [1, 2])
    assert is_clifford_group(r)
    # expansion oracle: conjugation of each generator stays grade 1
    rinv = inverse(r)
    for i in range(1, 5):
        c = oracle_product(oracle_product(r, Multivector.basis_vector(4, i)), rinv)
        assert (c - grade_project(c, 1)).max_abs_coeff() < 1e-12


def test_odd_element_not_in_group():
    a = Multivector.scalar(1, 3) + Multivector.basis_vector(3, 1)
    assert not is_clifford_group(a)
    assert not is_even(a)


def test_noninvertible_even_element_not_in_group():
    # (1 + e1e2e3e4)/2-style idempotents are not invertible
    a = Multivector.scalar(1, 4) + Multivector.blade(4, [1, 2, 3, 4])
    sq = a * a
    assert sq == 2 * a  # idempotent up to scale => singular
    assert not is_clifford_group(a)


def test_even_element_with_nonscalar_norm_rejected():
    # even, invertible, and a*gamma(v)*a^rev lands in grade 1, but a*a^rev
    # is 5 + 4*e1234 rather than a scalar, so conjugation is not a rotation
    a = Multivector.scalar(1, 4) + 2 * Multivector.blade(4, [1, 2, 3, 4])
    assert is_even(a)
    n = a * reversion(a)
    assert (n - Multivector.scalar(n.scalar_part(), 4)).max_abs_coeff() > 1
    assert not is_clifford_group(a)


def test_adjoint_rotation_is_orthogonal():
    rng = np.random.default_rng(3)
    for m in (2, 3, 4):
        # random product of plane rotors lies in the group
        r = Multivector.scalar(1, m)
        for _ in range(3):
            i, j = rng.choice(np.arange(1, m + 1), size=2, replace=False)
            th = rng.uniform(0, 2 * np.pi)
            rot = Multivector.scalar(np.cos(th), m) + np.sin(th) * Multivector.blade(m, sorted([i, j]))
            r = r * rot
        assert is_clifford_group(r)
        R = adjoint_rotation(r)
        assert np.allclose(R.T @ R, np.eye(m), atol=1e-12)


def test_grade_involution():
    a = Multivector(3, {0: 1, 0b001: 2, 0b011: 3, 0b111: 4})
    g = grade_involution(a)
    assert g == Multivector(3, {0: 1, 0b001: -2, 0b011: 3, 0b111: -4})


def test_inverse_roundtrip():
    rng = np.random.default_rng(9)
    a = random_multivector(rng, 3, integer=False, nnz=6)
    ainv = inverse(a)
    assert (a * ainv).approx_eq(Multivector.scalar(1, 3), 1e-10)
    assert (ainv * a).approx_eq(Multivector.scalar(1, 3), 1e-10)
