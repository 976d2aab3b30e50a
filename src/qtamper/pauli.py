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
    many words at once, one table gather per register.  A `MonomialUnitary`
    applies one word or a stack of them: `moments` one word, a tamper scan
    each block of a family's words, built as the block is decoded.

With these choices X^a Z^b = omega^{-ab} Z^b X^a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator

from .errors import DimMismatch, NotUnitary, OutOfRange
from .field import is_prime
from .linalg import MAX_DIM, STRUCTURAL_TOL


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


@lru_cache(maxsize=None)
def _register_tables(q: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only C-order (m, q, q^m) int16 tables of register i's part of
    column j, with digits v, under the exponent a: the place value
    ((v_i + a) mod q) q^(m-1-i) of its row, and its phase exponent a v_i mod q.
    Built one exponent a at a time: O(m q^m) transients beside the tables."""
    digits = kron_digits(q, m).T                                 # (m, q^m)
    radix = q ** np.arange(m - 1, -1, -1, dtype=np.intp)[:, np.newaxis]
    tables = np.empty((m, q, q ** m), np.int16), np.empty((m, q, q ** m), np.int16)
    for a in range(q):
        tables[0][:, a] = (digits + a) % q * radix
        tables[1][:, a] = digits * a % q
    for table in tables:
        table.flags.writeable = False
    return tables


def word_actions(q: int, x, z) -> tuple[np.ndarray, np.ndarray]:
    """(rows, phase) of the words X^x Z^z for exponent rows x and z of shape
    (..., m), the words' leading axes in front of the column axis: int16 sums,
    below q^m and m q, of one `_register_tables` gather per register, the
    exponent reduced mod q by a wrapping gather from `omega_powers`.  Results
    are allocated first, so that blocks built in turn leave no heap holes."""
    x, z = np.asarray(x, dtype=np.intp), np.asarray(z, dtype=np.intp)
    m = x.shape[-1]
    row_table, exponent_table = _register_tables(q, m)     # refuses q^m above MAX_DIM
    registers, shape = np.arange(m), x.shape[:-1] + row_table.shape[-1:]
    rows, phase = np.empty(shape, np.intp), np.empty(shape, np.complex128)
    rows[...] = np.add.reduce(row_table[registers, x % q], axis=-2, dtype=np.int16)
    exponent = np.add.reduce(exponent_table[registers, z % q], axis=-2, dtype=np.int16)
    return rows, np.take(omega_powers(q), exponent, out=phase, mode="wrap")


class MonomialUnitary:
    """N x N unitary whose column j is phase[j] at row rows[j], validated
    once, when built from rows and phase; `from_words` builds Pauli words,
    unitary by construction.  `U @ x` and `A @ U` move and scale entries in
    O(N) per column and equal the dense products; numpy defers `A @ U` to
    `__rmatmul__`.  `U @ x` scatters x's rows to rows, and `A @ U` gathers
    A's columns by rows (`np.take`).  The product of two monomials and
    `.trace()` are a monomial and a scalar again, so code written for dense
    matrices (`moments`, the tamper decoders) runs on it unchanged.
    `.eigenvalues()` reads the spectrum off the cycles of rows in O(N).

    Rows and phase of shape (m, N) make a stack of m unitaries, of shape
    (m, N, N): `U @ x` and `A @ U` then carry the member axis in front, as
    numpy's stacked matmul does, also behind leading axes of x or A whose
    member slot has length 1, as a tamper scan's (S, 1, N, K) stack of
    seeds.  Products of two monomials and `.eigenvalues()` take one member;
    `.trace()` gives one trace per member.
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
    def from_words(cls, q: int, x, z) -> "MonomialUnitary":
        """The words X^x Z^z of `word_actions`, one unitary or a stack: a
        permutation and unit phases by construction, so not checked again."""
        return cls.__new__(cls)._set(*word_actions(q, x, z))

    def trace(self):
        """Sum of the phases on the fixed points of rows: a complex, or an
        array of one per member of a stack."""
        fixed = self.rows == np.arange(self.rows.shape[-1])
        traces = np.sum(np.where(fixed, self.phase, 0), axis=-1)
        return complex(traces) if traces.ndim == 0 else traces

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
        cols, stacked = (x[:, np.newaxis] if x.ndim == 1 else x), self.rows.ndim > 1  # (..., N, c)
        if cols.shape[-2:-1] != self.shape[-1:] or (stacked and cols.shape[-3:-2] > (1,)):
            raise DimMismatch(f"cannot apply {self.shape} to {x.shape}")
        if stacked and cols.ndim > 2:
            cols = cols[..., 0, :, :]            # the slot that broadcasts against the members
        at = (np.arange(len(self.rows))[:, np.newaxis], self.rows) if stacked else (self.rows,)
        out = np.empty(cols.shape[:-2] + self.rows.shape + cols.shape[-1:], np.complex128)
        out[(..., *at, slice(None))] = cols[..., np.newaxis, :, :] if stacked else cols
        phase = np.empty_like(self.phase)         # moved, then scaled in place
        phase[at] = self.phase
        np.multiply(phase[..., np.newaxis], out, out=out)
        return out[..., 0] if x.ndim == 1 else out

    def __rmatmul__(self, a):
        a = np.ascontiguousarray(a, dtype=np.complex128)
        stacked = self.rows.ndim > 1 and a.ndim > 1
        if a.shape[-1:] != self.shape[-1:] or (stacked and a.shape[-3:-2] > (1,)):
            raise DimMismatch(f"cannot multiply {a.shape} by {self.shape}")
        if stacked and a.ndim > 2:
            a = a[..., 0, :, :]                  # the slot that broadcasts against the members
        out = np.take(a, self.rows, axis=-1)                     # (..., rows of a, members, N)
        np.multiply(out, self.phase, out=out)
        return np.ascontiguousarray(np.moveaxis(out, -2, -3)) if stacked else out


def random_nonidentity_words(q: int, m: int, count: int, rng: Generator) -> np.ndarray:
    """`count` distinct non-identity words on m registers as (count, 2m)
    exponent rows x | z, drawn without replacement from the 2m-digit space
    in batches of the words still needed, which read the stream as draws of
    one word at a time do."""
    space = q ** (2 * m)
    if count > space - 1:
        raise OutOfRange(f"only {space - 1} non-identity words exist")
    chosen: dict = {}                    # insertion-ordered; a repeat keeps its first place
    while len(chosen) < count:
        batch = rng.integers(0, q, size=(count - len(chosen), 2 * m)).tolist()
        chosen.update(dict.fromkeys(filter(any, map(tuple, batch))))
    return np.array(list(chosen), dtype=np.intp).reshape(count, 2 * m)

