import numpy as np
import pytest
from conftest import FqPoly, fq_eval, fq_roots
from hypothesis import given, settings
from hypothesis import strategies as st

from qtamper.field import fq_values, is_prime, taylor_shift, taylor_shifts

PRIMES_TO_101 = [p for p in range(2, 102) if is_prime(p)]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def test_primality_check():
    assert is_prime(2) and is_prime(97)
    for n in (0, 1, 4, 9, 51, 91, 100):
        assert not is_prime(n)
    with pytest.raises(ValueError):
        FqPoly([1], 10)


def test_eval_examples():
    p = FqPoly([1, 0, 1], 5)  # x^2 + 1
    assert fq_eval(p, 2) == 0 and type(fq_eval(p, 2)) is int
    assert p(3) == 0 and fq_values(p.coeffs, 5).tolist() == [1, 2, 0, 0, 2]
    zero = FqPoly([], 5)
    for x in range(5):
        assert fq_eval(zero, x) == 0
    assert fq_values(np.zeros((2, 0), dtype=np.int64), 5).tolist() == [[0] * 5] * 2
    p = FqPoly([0, 1, 0, 3], 7)  # 3x^3 + x
    # brute-force power-sum oracle: 3*2^3 + 2 = 26 = 5 mod 7
    assert fq_eval(p, 2) == (3 * 2 ** 3 + 2) % 7 == 5


def test_eval_modulus_mismatch():
    # an argument is an int reduced modulo the polynomial's own q; only two
    # polynomials can disagree on the modulus
    p = FqPoly([1, 1], 5)
    assert fq_eval(p, 7) == fq_eval(p, 2) == fq_eval(p, -3) == 3
    with pytest.raises(ValueError, match="moduli differ"):
        p - FqPoly([1], 7)


def test_count_roots_examples():
    assert fq_roots(FqPoly([-1, 0, 1], 7)) == [1, 6]  # x^2 - 1
    assert len(fq_roots(FqPoly([0, 1], 5))) == 1
    assert fq_roots(FqPoly([3], 11)) == []
    with pytest.raises(ValueError, match="zero polynomial"):
        fq_roots(FqPoly([0, 0], 13))


def test_poly_normalization():
    p = FqPoly([1, 2, 0, 0], 5)
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert FqPoly([], 5).is_zero and FqPoly([0], 5).is_zero
    assert FqPoly([5, 10], 5).is_zero


@st.composite
def _poly_and_prime(draw):
    q = draw(st.sampled_from(SMALL_PRIMES))
    degree = draw(st.integers(min_value=0, max_value=8))
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=degree + 1,
                           max_size=degree + 1))
    return FqPoly(coeffs, q), q


@settings(max_examples=200, deadline=None)
@given(_poly_and_prime())
def test_root_count_bounded_by_degree(poly_q):
    poly, q = poly_q
    if poly.is_zero:
        return
    assert len(fq_roots(poly)) <= poly.degree


@settings(max_examples=200, deadline=None)
@given(_poly_and_prime(), st.integers(0, 30))
def test_eval_matches_power_sum(poly_q, x):
    poly, q = poly_q
    naive = sum(c * pow(x, i, q) for i, c in enumerate(poly.coeffs)) % q
    assert fq_eval(poly, x) == naive
    assert fq_values(poly.coeffs, q)[x % q] == naive
    padded = list(poly.coeffs) + [0] * 3         # trailing zeros change no value
    assert fq_values([padded, padded], q)[1, x % q] == naive


@settings(max_examples=200, deadline=None)
@given(_poly_and_prime(), st.integers(0, 30))
def test_taylor_shift(poly_q, a):
    poly, q = poly_q
    shifted = poly.shift(a)
    for y in range(q):
        assert fq_eval(shifted, y) == fq_eval(poly, (y + a) % q)
    # the coefficient-row route: c @ B has the shifted polynomial's coefficients
    n = len(poly.coeffs) + 2
    row = np.array(list(poly.coeffs) + [0] * (n - len(poly.coeffs)))
    moved = row @ taylor_shift(n, a % q, q)
    assert FqPoly(moved, q) == shifted
    # the stack over every a, built once per (n, q) and read-only
    stack = taylor_shifts(n, q)
    assert stack is taylor_shifts(n, q) and not stack.flags.writeable
    assert stack.shape == (q, n, n) and (stack[a % q] == taylor_shift(n, a % q, q)).all()
    assert (fq_values(moved, q) == fq_values(row, q)[(np.arange(q) + a) % q]).all()


def test_poly_subtraction_and_equality():
    p = FqPoly([1, 2, 3], 7)
    assert (p - p).is_zero
    assert p + FqPoly([6, 5, 4], 7) == FqPoly([0, 0, 0], 7)
    with pytest.raises(ValueError, match="moduli differ"):
        p + FqPoly([1], 5)
