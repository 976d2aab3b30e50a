"""Generalized Pauli operators in prime dimension q and their tensor words.

Conventions (fixed once, used everywhere; this module is the only one
that knows the digit order and the phase rule):
  * omega = exp(2*pi*i/q), and every phase is read from one table,
    `omega_powers(q)[k] = omega ** k`;
  * shift:  X^a = sum_v |v+a><v|;  clock:  Z^b = sum_v omega^{b v} |v><v|;
  * within one register the word is X^a Z^b, i.e. the clock acts first;
  * global phases are dropped from labels (every downstream quantity is a
    squared overlap, so they never matter);
  * basis tuples v = (v_1, ..., v_m) index q^m-dimensional vectors in
    Kronecker digit order: register 1 is the most significant base-q
    digit, so `kron_digits(q, m)` lists them in lexicographic order;
  * a tensor word X^x Z^z is a monomial action, |v> -> omega^{<z, v>} |v + x>:
    `PauliLabel.action()` gives column j as phase[j] at row rows[j], with
    phase[j] = omega_powers(q)[<z, v_j> mod q], and `word_actions` gives
    many words at once, one register at a time.  `MonomialUnitary` is its
    runtime form everywhere (tamper families and `moments` alike), one word
    or a stack of them.

With these choices X^a Z^b = omega^{-ab} Z^b X^a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator

from .errors import DimMismatch, NotUnitary, OutOfRange
from .field import is_prime
from .linalg import MAX_DIM, STRUCTURAL_TOL, require_unitary


@dataclass(frozen=True)
class PauliLabel:
    """Tensor word prod_i X^{x_i} Z^{z_i} on m registers of dimension q."""

    q: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    def __post_init__(self):
        # the bound comes first: trial division of a huge q would not end
        if not 2 <= self.q <= MAX_DIM or not is_prime(self.q):
            raise ValueError(f"register dimension {self.q} must be a prime <= {MAX_DIM}")
        if len(self.x) != len(self.z):
            raise ValueError("exponent vectors must have equal length")
        object.__setattr__(self, "x", tuple(v % self.q for v in self.x))
        object.__setattr__(self, "z", tuple(v % self.q for v in self.z))

    @property
    def m(self) -> int:
        return len(self.x)

    @classmethod
    def from_json(cls, obj: dict) -> "PauliLabel":
        label = cls(q=int(obj["q"]), x=tuple(obj["x"]), z=tuple(obj["z"]))
        if "m" in obj and int(obj["m"]) != label.m:
            raise ValueError("label field m disagrees with exponent length")
        return label

    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, phase) of the word: column j is phase[j] at row rows[j].

        With v the digits of j, rows[j] is the index of v + x (mod q) and
        phase[j] = omega_powers(q)[<z, v> mod q].
        """
        return word_actions(self.q, self.x, self.z)

    def compact(self) -> str:
        """Compact text form `pauli:q:x-digits:z-digits` (q <= 7 registers)."""
        xs = "".join(str(v) for v in self.x)
        zs = "".join(str(v) for v in self.z)
        return f"pauli:{self.q}:{xs}:{zs}"

    @classmethod
    def from_compact(cls, text: str) -> "PauliLabel":
        parts = text.split(":")
        if len(parts) != 4 or parts[0] != "pauli":
            raise ValueError(f"bad pauli label {text!r}")
        q = int(parts[1])
        return cls(q=q, x=tuple(int(c) for c in parts[2]),
                   z=tuple(int(c) for c in parts[3]))


def omega(q: int) -> complex:
    return np.exp(2j * np.pi / q)


@lru_cache(maxsize=None)
def omega_powers(q: int) -> np.ndarray:
    """Read-only table of omega^k for k in [0, q): the one phase rule."""
    table = omega(q) ** np.arange(q)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def kron_digits(q: int, m: int) -> np.ndarray:
    """Read-only (q^m, m) table whose row k holds the base-q digits of k,
    register 1 most significant: the digit tuples in lexicographic order."""
    if q ** m > MAX_DIM:
        raise OutOfRange(f"dimension {q ** m} exceeds {MAX_DIM}")
    index = np.arange(q ** m, dtype=np.intp)[:, np.newaxis]
    digits = index // q ** np.arange(m - 1, -1, -1, dtype=np.intp) % q
    digits.flags.writeable = False
    return digits


def shift_rows(q: int, x, digits=None) -> np.ndarray:
    """Row map of the shift X^x: the index of v + x (mod q) for every digit
    row v of `digits`, by default all of `kron_digits`, so that rows[j] is
    the index of v_j + x.  Leading axes of x broadcast against those of
    `digits`, so one call can shift each group of rows by its own x.  The
    digits lie in [0, q) and x is reduced once, so each digit sum is below
    2q and a gather from the table k -> k mod q reduces it."""
    x = np.asarray(x, dtype=np.intp) % q
    digits = kron_digits(q, x.shape[-1]) if digits is None else digits
    radix = q ** np.arange(x.shape[-1] - 1, -1, -1, dtype=np.intp)
    return (np.arange(2 * q, dtype=np.intp) % q)[digits + x] @ radix


def word_actions(q: int, x, z) -> tuple[np.ndarray, np.ndarray]:
    """(rows, phase) of the words X^x Z^z for exponent rows x and z of shape
    (..., m), the words' leading axes in front of the column axis.  Both are
    outer sums built one register at a time, least significant first, in
    front of the columns so far; the phase exponent, below m q, is reduced
    by its gather from the table of omega^(k mod q)."""
    x, z = np.asarray(x, dtype=np.intp), np.asarray(z, dtype=np.intp)
    m = x.shape[-1]
    if q ** m > MAX_DIM:
        raise OutOfRange(f"dimension {q ** m} exceeds {MAX_DIM}")
    v, radix = np.arange(q, dtype=np.intp), q ** np.arange(m - 1, -1, -1, dtype=np.intp)
    row_terms = (v + x[..., np.newaxis] % q) % q * radix[:, np.newaxis]      # (..., m, q)
    exponent_terms = v * (z[..., np.newaxis] % q) % q
    rows, exponent = np.zeros(x.shape[:-1] + (1,), np.intp), np.zeros(z.shape[:-1] + (1,), np.intp)
    for i in range(m - 1, -1, -1):
        rows, exponent = (np.reshape(terms[..., i, :, np.newaxis] + built[..., np.newaxis, :],
                                     built.shape[:-1] + (-1,))
                          for terms, built in ((row_terms, rows), (exponent_terms, exponent)))
    return rows, omega_powers(q)[np.arange(m * (q - 1) + 1) % q][exponent]


class MonomialUnitary:
    """N x N unitary whose column j is phase[j] at row rows[j], validated
    once, when built.  `U @ x` and `A @ U` move and scale entries in O(N)
    per column and equal the dense products; numpy defers `A @ U` to
    `__rmatmul__`.  The product of two monomials, `.T` and `.trace()` are
    monomials and scalars again, so code written for dense matrices
    (`moments`, the tamper decoders) runs on it unchanged.
    `.eigenvalues()` reads the spectrum off the cycles of rows in O(N).

    Rows and phase of shape (m, N) make a stack of m unitaries, of shape
    (m, N, N): `U @ x` and `A @ U` then carry the member axis in front, as
    numpy's stacked matmul does, `U[i]` is member i and `stack` joins
    members.  Products of two monomials, `.T`, `.trace()` and
    `.eigenvalues()` take one member.
    """

    __array_ufunc__ = None

    def __init__(self, rows, phase):
        rows = np.asarray(rows, dtype=np.intp)
        phase = np.asarray(phase, dtype=np.complex128)
        if rows.ndim not in (1, 2) or phase.shape != rows.shape:
            raise DimMismatch("rows and phase must be vectors of one length, or stacks of them")
        if not np.all(np.sort(rows, axis=-1) == np.arange(rows.shape[-1])):
            raise NotUnitary("rows is not a permutation of range(N)")
        if not np.all(np.abs(np.abs(phase) - 1.0) <= STRUCTURAL_TOL):
            raise NotUnitary(f"a phase is not within {STRUCTURAL_TOL} of modulus 1")
        self._set(rows, phase)

    def _set(self, rows: np.ndarray, phase: np.ndarray) -> "MonomialUnitary":
        self.rows, self.phase = rows, phase
        self.shape = rows.shape + rows.shape[-1:]
        return self

    @classmethod
    def stack(cls, members) -> "MonomialUnitary":
        """The members, unitaries of one N validated when built, as one stack."""
        return cls.__new__(cls)._set(np.array([u.rows for u in members]),
                                     np.array([u.phase for u in members]))

    def __getitem__(self, index) -> "MonomialUnitary":
        """Member `index` of a stack (a sub-stack for a slice), as views."""
        if self.rows.ndim == 1:
            raise TypeError("only a stack of unitaries has members")
        return type(self).__new__(type(self))._set(self.rows[index], self.phase[index])

    def trace(self) -> complex:
        """Sum of the phases on the fixed points of rows."""
        fixed = self.rows == np.arange(self.rows.size)
        return complex(np.sum(np.where(fixed, self.phase, 0)))

    @property
    def T(self) -> "MonomialUnitary":
        """The transpose: column rows[j] holds phase[j] at row j."""
        inverse = np.argsort(self.rows)
        return MonomialUnitary(inverse, self.phase[inverse])

    def eigenvalues(self) -> np.ndarray:
        """The N eigenvalues: a cycle j -> rows[j] -> ... of length L whose
        phases multiply to p contributes the L L-th roots of p."""
        rows, phase = self.rows.tolist(), self.phase.tolist()
        seen = [False] * len(rows)
        lengths, products = [], []
        for start in range(len(rows)):
            j, length, product = start, 0, 1 + 0j
            while not seen[j]:
                seen[j] = True
                product *= phase[j]
                length += 1
                j = rows[j]
            if length:
                lengths.append(length)
                products.append(product)
        lengths, products = np.array(lengths), np.array(products)
        root = np.abs(products) ** (1 / lengths) * np.exp(1j * np.angle(products) / lengths)
        k = np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        return np.repeat(root, lengths) * np.exp(2j * np.pi * k / np.repeat(lengths, lengths))

    def __matmul__(self, x):
        if isinstance(x, MonomialUnitary):
            if x.shape != self.shape or self.rows.ndim > 1:
                raise DimMismatch(f"cannot multiply {self.shape} by {x.shape}")
            return MonomialUnitary(self.rows[x.rows], self.phase[x.rows] * x.phase)
        x = np.asarray(x)
        if x.shape[:1] != self.shape[-1:]:
            raise DimMismatch(f"cannot apply {self.shape} to {x.shape}")
        at = self.rows                # a stack's member i moves by rows[i]
        if self.rows.ndim > 1:
            at = (np.arange(len(self.rows))[:, np.newaxis], self.rows)
        out = np.empty(self.rows.shape[:-1] + x.shape, dtype=np.complex128)
        out[at] = x                  # moved, then scaled in place: no temporary the size of out
        phase = np.empty_like(self.phase)
        phase[at] = self.phase
        return np.multiply(phase.reshape(phase.shape + (1,) * (x.ndim - 1)), out, out=out)

    def __rmatmul__(self, a):
        a = np.asarray(a)
        if a.shape[-1:] != self.shape[-1:] or (self.rows.ndim > 1 and a.ndim > 2):
            raise DimMismatch(f"cannot multiply {a.shape} by {self.shape}")
        out = a[..., self.rows] * self.phase           # a stack's member axis is a.ndim - 1
        return np.ascontiguousarray(np.moveaxis(out, a.ndim - 1, 0) if self.rows.ndim > 1 else out)


def checked_unitary(u):
    """`u` ready to act as a unitary: a `MonomialUnitary` as it is, since it
    was validated when built, and any other matrix by `require_unitary`."""
    return u if isinstance(u, MonomialUnitary) else require_unitary(u)


def random_nonidentity_labels(q: int, m: int, count: int, rng: Generator) -> list[PauliLabel]:
    """`count` distinct non-identity labels on m registers, drawn without
    replacement from the 2m-digit exponent space in batches of the labels
    still needed, which read the stream as draws of one label at a time do."""
    space = q ** (2 * m)
    if count > space - 1:
        raise OutOfRange(f"only {space - 1} non-identity words exist")
    chosen: list[PauliLabel] = []
    seen = set()
    while len(chosen) < count:
        for key in map(tuple, rng.integers(0, q, size=(count - len(chosen), 2 * m)).tolist()):
            if key not in seen and any(key):
                seen.add(key)
                chosen.append(PauliLabel(q=q, x=key[:m], z=key[m:]))
    return chosen
