"""Exact unitary Weingarten function over the rationals, and its sum and
absolute-sum identities.

The defining linear system is Gram-type: with G[sigma, tau] = N^{|C(sigma
tau^-1)|} over S_p, the Weingarten function is the identity row of G^-1.
Because G commutes with conjugation, its inverse row is a class function;
we therefore solve the class-collapsed system exactly (fraction-free integer
elimination on an (#cycle types)^2 matrix) and then verify the candidate
against the permutation-level system exactly.  Its row sigma depends only
on conjugation invariants of sigma, so the p! equations are one per class
(11 at p = 6), and each distinct one is checked.  That verification both
certifies the solution and doubles as the class-function check: a full
p! x p! rational inversion in pure Python would blow the runtime budget
without adding information.

The count rows are read off the N-independent pair table of
`perm.sp_classes` once per p, in blocks of CLASS_COUNT_BLOCK_ROWS sigmas,
into uint16 rows, and the distinct ones found by one sort; the exact
check runs on every table build.
`wg_table(p, N)` is a vector: a tuple of Fractions indexed like
`sp_classes(p).types`, whose class sizes are `sp_classes(p).sizes`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import OutOfRange, SingularGram
from .perm import MAX_PAIR_DEGREE, sp_classes

CLASS_COUNT_BLOCK_ROWS = 16   # sigmas per bincount of `_class_counts`


def _solve_fraction_system(m: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """Fraction-free Gauss-Jordan (Bareiss), first-nonzero pivoting: every other
    row is scaled by each pivot, even at a 0 entry, so each // prev is exact."""
    n = len(m)
    a = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularGram("collapsed Gram system is singular")
        a[col], a[pivot] = a[pivot], a[col]
        top, lead = a[col], a[col][col]
        for r in range(n):
            if r != col:
                factor = a[r][col]
                a[r] = [(v * lead - factor * w) // prev for v, w in zip(a[r], top)]
        prev = lead
    return [Fraction(a[i][n], a[i][i]) for i in range(n)]


@lru_cache(maxsize=None)
def _class_counts(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N-independent count rows of the S_p system, row[j, k] = #{tau in
    class j : sigma tau^-1 in class k}: the distinct rows over all p!
    sigmas, their [sigma = e] flags, and the index of each class's row."""
    sp = sp_classes(p)
    n_perms, n_types = len(sp.class_of), len(sp.types)
    width = n_types ** 2
    rows = np.empty((n_perms, width + 1), dtype=np.uint16)  # counts <= p! <= 720, then the flag
    rows[:, -1] = sp.class_of == 0                           # e is class 0
    tau_key = sp.class_of.astype(np.intp) * n_types
    # one bincount per block of sigmas over pair[tau, sigma], keyed by
    # (sigma in the block, class of tau, class)
    for start in range(0, n_perms, CLASS_COUNT_BLOCK_ROWS):
        block = sp.pair[:, start:start + CLASS_COUNT_BLOCK_ROWS].T
        key = np.arange(len(block))[:, None] * width + tau_key + block
        rows[start:start + len(block), :-1] = np.bincount(
            key.ravel(), minlength=len(block) * width).reshape(len(block), width)
    # sorted lexicographically, a row starts a new distinct row where it
    # differs from the one before it
    order = np.lexsort(rows.T[::-1])
    starts = np.r_[True, np.any(rows[order[1:]] != rows[order[:-1]], axis=1)]
    distinct, row_of = rows[order[starts]], (np.cumsum(starts) - 1)[np.argsort(order)]
    reps = np.unique(sp.class_of, return_index=True)[1]
    cached = (distinct[:, :-1].reshape(-1, n_types, n_types), distinct[:, -1].astype(object),
              row_of[reps])
    for array in cached:
        array.flags.writeable = False
    return cached


@lru_cache(maxsize=None)
def wg_table(p: int, N: int) -> tuple[Fraction, ...]:
    """Exact Wg values of S_p at dimension N (1 <= p <= 6, N >= p), indexed
    like `sp_classes(p).types`.

    The candidate from the collapsed solve is verified against the full
    permutation-level system: for every sigma in S_p,
        sum_tau N^{|C(sigma tau^-1)|} Wg(tau) = [sigma == e],
    exactly, on each distinct equation times the LCM D of the candidate's
    denominators, in integers.
    """
    if not 1 <= p <= MAX_PAIR_DEGREE:
        raise OutOfRange(f"moment order p={p} outside [1, {MAX_PAIR_DEGREE}]")
    if N < p:
        raise SingularGram(f"need N >= p for an invertible Gram system (N={N}, p={p})")

    types = sp_classes(p).types
    rows, is_identity, class_row = _class_counts(p)
    gram = rows.astype(object) @ np.array([N ** len(ct) for ct in types], dtype=object)
    matrix = [list(gram[r]) for r in class_row]
    solution = _solve_fraction_system(matrix, [int(j == 0) for j in range(len(types))])

    scale = lcm(*(w.denominator for w in solution))
    scaled = np.array([w.numerator * (scale // w.denominator) for w in solution], dtype=object)
    failed = np.flatnonzero(gram @ scaled != scale * is_identity)
    if failed.size:
        raise SingularGram(f"class-function candidate fails permutation-level equation "
                           f"{failed[0]} of the {len(is_identity)} distinct ones")
    return tuple(solution)


def wg_sum(t: int, N: int) -> Fraction:
    """Sum of Wg over all of S_t (counted with class sizes)."""
    values = wg_table(t, N)
    return sum((v * n for v, n in zip(values, sp_classes(t).sizes)), Fraction(0))


def wg_abs_sum(t: int, N: int) -> Fraction:
    """Sum of |Wg| over all of S_t."""
    values = wg_table(t, N)
    return sum((abs(v) * n for v, n in zip(values, sp_classes(t).sizes)), Fraction(0))

