"""Prime fields F_q and polynomials over them as rows of coefficients.

Only prime q is supported; the characteristic equals q.  A polynomial is
an integer array whose last axis holds its coefficients in [0, q),
indexed by degree, so a stack of polynomials is one 2-D array.
`fq_values` is the one evaluator: it evaluates every row at every point
of F_q, which is exact and cheap at desk scale, and root sets are read
from its zeros.  `taylor_shift` gives the matrix of p(y) -> p(y + a), and
`taylor_shifts` the stack of those matrices over every a in F_q.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test (q is small by construction)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def _powers(n: int, q: int) -> np.ndarray:
    """Read-only (n, q) table [i, r] = r^i mod q."""
    powers = np.array([pow(r, i, q) for i in range(n) for r in range(q)], dtype=np.int64)
    powers = powers.reshape(n, q)
    powers.flags.writeable = False
    return powers


def fq_values(coeffs, q: int) -> np.ndarray:
    """p(r) for every coefficient row p of `coeffs` and every r in F_q:
    shape coeffs.shape[:-1] + (q,), in [0, q)."""
    coeffs = np.asarray(coeffs, dtype=np.int64) % q
    return coeffs @ _powers(coeffs.shape[-1], q) % q


@lru_cache(maxsize=None)
def taylor_shift(n: int, a: int, q: int) -> np.ndarray:
    """The read-only n x n matrix B with B[i, j] = C(i, j) a^(i-j) mod q, so
    that for a coefficient row c of degree below n, c @ B (mod q) is p(y + a)."""
    shift = np.array([[comb(i, j) * pow(a, i - j, q) % q if j <= i else 0
                       for j in range(n)] for i in range(n)], dtype=np.int64)
    shift.flags.writeable = False
    return shift


@lru_cache(maxsize=None)
def taylor_shifts(n: int, q: int) -> np.ndarray:
    """The read-only (q, n, n) stack whose slice a is taylor_shift(n, a, q)."""
    shifts = np.array([taylor_shift(n, a, q) for a in range(q)])
    shifts.flags.writeable = False
    return shifts
