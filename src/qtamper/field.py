"""Exact arithmetic in prime fields F_q and univariate polynomial utilities.

Only prime q is supported; the characteristic equals q.  Field elements
are plain ints in [0, q), and `fq_eval` is the one evaluator.  Root
counting is done by exhaustive evaluation, which is exact and cheap at
desk scale (q up to a few hundred).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import ModulusMismatch, ZeroPolynomial


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


class FqPoly:
    """Univariate polynomial over F_q, coefficients indexed by degree.

    The coefficient tuple is normalized: trailing zeros are stripped, so
    the zero polynomial has an empty tuple and every nonzero polynomial
    has a nonzero leading coefficient.
    """

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs: Iterable[int], q: int):
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        vals = [c % q for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.coeffs = tuple(vals)
        self.q = q

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.q))

    def __repr__(self):
        return f"FqPoly({list(self.coeffs)}, q={self.q})"

    def __add__(self, other: "FqPoly") -> "FqPoly":
        if self.q != other.q:
            raise ModulusMismatch(f"moduli differ: {self.q} vs {other.q}")
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FqPoly([x + y for x, y in zip(a, b)], self.q)

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        if self.q != other.q:
            raise ModulusMismatch(f"moduli differ: {self.q} vs {other.q}")
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return FqPoly([x - y for x, y in zip(a, b)], self.q)

    def __call__(self, x: int) -> int:
        return fq_eval(self, x)

    def shift(self, a: int) -> "FqPoly":
        """Return p(y + a) as a polynomial in y (Taylor shift)."""
        a %= self.q
        out = FqPoly([], self.q)
        # Horner on shifted variable: p(y+a) = c_n*(y+a)^... built degree-down.
        for c in reversed(self.coeffs):
            out = _mul_linear(out, a) + FqPoly([c], self.q)
        return out


def _mul_linear(p: FqPoly, a: int) -> FqPoly:
    """Multiply p by (y + a)."""
    if p.is_zero:
        return p
    q = p.q
    out = [0] * (len(p.coeffs) + 1)
    for i, c in enumerate(p.coeffs):
        out[i] = (out[i] + c * a) % q
        out[i + 1] = (out[i + 1] + c) % q
    return FqPoly(out, q)


def fq_eval(p: FqPoly, x: int) -> int:
    """Horner evaluation of p at x in F_q, as an int in [0, q)."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * x + c) % p.q
    return acc


def fq_values(p: FqPoly) -> list[int]:
    """p(x) for every x in F_q, in value order (Horner at each point)."""
    return [fq_eval(p, x) for x in range(p.q)]


def fq_roots(p: FqPoly) -> list[int]:
    """Root set of a nonzero polynomial, as sorted integer representatives."""
    if p.is_zero:
        raise ZeroPolynomial("every point of F_q is a root of the zero polynomial")
    return [x for x, value in enumerate(fq_values(p)) if value == 0]

