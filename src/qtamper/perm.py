"""Symmetric-group machinery: S_n as an image array, one cycle-count
kernel over such arrays, the S_p pair-class table, the parity-swapping set
used by the off-diagonal moment patterns, and the two permutation lemmas.

`perm_table(n)` is S_n as an (n!, n) array whose row r is the image tuple
of the r-th permutation in lexicographic order (row 0 = identity), built
once per n.  `cycle_counts` takes any (M, n) image array and returns the
number of cycles of each row: pointer doubling labels each point with the
smallest point of its orbit, and a cycle is counted at the one point that
is its own label.  Both lemmas are checked by whole-table kernels over
`perm_table`.

`sp_classes(p)` alone builds the class data of S_p, including the
N-independent table pair[a, b] = class of perms[b] o perms[a]^-1 that the
Weingarten solve and the exact moments share.  The cycle-bound corollary
reads none of it: it composes beta o alpha^-1 itself and counts cycles
with `cycle_counts`, so it stays a route independent of that table.

A permutation is its image tuple: sigma(x) = images[x], cut into cycles by
`cycles_of`.  `Permutation` is that tuple and only checks, when built,
that it is a bijection.

Points are stored 0-based; the parity-swapper set is defined on 1-based
labels (label = point + 1), since oddness of a label is what the
combinatorics keys on.  Reports render 1-based.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceeded, ConsistencyError, OutOfRange

MAX_SWAPPER_DEGREE = 10       # parity swappers live in S_{2t}, 2t <= 10
MAX_LEMMA_DEGREE = 7          # fixed-point lemma checked on S_n, n <= 7
MAX_COROLLARY_2T = 6          # cycle-bound corollary checked on S_{2t} x B_{2t}
MAX_PAIR_DEGREE = 6           # (p!)^2 pair-class table: 720 x 720 bytes at most


# ---------------------------------------------------------------------------
# image tuples and image arrays
# ---------------------------------------------------------------------------

def iter_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All of S_n as image tuples, in lexicographic order."""
    return itertools.permutations(range(n))


@lru_cache(maxsize=None)
def perm_table(n: int) -> np.ndarray:
    """S_n as an (n!, n) image array, rows in lexicographic order.

    Block f of (n-1)! rows sends 0 to f and the rest through the
    rows of S_{n-1}, relabelled onto [0, n) without f.
    """
    if not 0 <= n <= MAX_LEMMA_DEGREE:
        raise BudgetExceeded(f"S_{n} table capped at 0 <= n <= {MAX_LEMMA_DEGREE}")
    table = np.zeros((1, 0), dtype=np.intp)
    if n:
        smaller = perm_table(n - 1)
        rest = np.arange(n - 1)
        rest = rest + (rest >= np.arange(n)[:, None])          # row f: [0, n) without f
        table = np.column_stack([np.repeat(np.arange(n), len(smaller)),
                                 rest[:, smaller].reshape(n * len(smaller), n - 1)])
    table.flags.writeable = False   # shared via the cache
    return table


def cycle_counts(images: np.ndarray) -> np.ndarray:
    """Number of cycles of each row of an (M, n) image array.

    After k rounds of label = min(label, label[step]); step = step[step],
    label[x] is the smallest of x, sigma(x), ..., sigma^(2^k - 1)(x), so
    ceil(log2 n) rounds cover every cycle; each cycle then has one
    point that is its own label.  Points are numbered across the rows, so
    the whole array is one flat gather per round.
    """
    m, n = images.shape
    points = np.arange(m * n).reshape(m, n)
    step = (images + points[:, :1]).ravel()
    label = points.ravel()
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    return np.count_nonzero(label.reshape(m, n) == points, axis=1)


def cycles_of(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles covering [n]; fixed points appear as 1-cycles.

    Each cycle starts at its smallest point and follows the permutation;
    cycles are ordered by their smallest point.
    """
    n = len(images)
    seen = bytearray(n)
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = 1
        j = images[start]
        while j != start:
            cyc.append(j)
            seen[j] = 1
            j = images[j]
        cycles.append(tuple(cyc))
    return cycles


def cycle_type_of(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths sorted descending; sums to the degree."""
    return tuple(sorted((len(c) for c in cycles_of(images)), reverse=True))


# ---------------------------------------------------------------------------
# S_p class bookkeeping
# ---------------------------------------------------------------------------

class SpClasses(NamedTuple):
    """Conjugacy-class data of S_p; see `sp_classes`."""

    perms: tuple[tuple[int, ...], ...]   # lexicographic; perms[0] = identity
    types: tuple[tuple[int, ...], ...]   # cycle types in first-seen order
    class_of: np.ndarray                 # (p!,) class index of each perm
    sizes: tuple[int, ...]               # class sizes, indexed like types
    pair: np.ndarray                     # (p!, p!) class of perms[b] o perms[a]^-1


@lru_cache(maxsize=None)
def sp_classes(p: int) -> SpClasses:
    """Class data of S_p, built once per p.  Base-p digit codes index a p^p
    table of classes, and the code of b o a^-1 is
    sum_y place[a(y)] * b(y), so every pair's code is one integer product."""
    if not 0 <= p <= MAX_PAIR_DEGREE:
        raise BudgetExceeded(f"S_{p} pair table capped at p <= {MAX_PAIR_DEGREE}")
    table = perm_table(p)
    perms = tuple(map(tuple, table.tolist()))
    lookup: dict[tuple[int, ...], int] = {}   # cycle type -> class, first seen
    class_of = np.array([lookup.setdefault(cycle_type_of(images), len(lookup))
                         for images in perms], dtype=np.uint8)
    # uint16 holds every code and partial sum (below p^p <= 6^6 < 2^16) and
    # keeps the (p!)^2 product at 1 MB
    digits = table.astype(np.uint16)
    place = p ** np.arange(p - 1, -1, -1, dtype=np.uint16)
    class_at = np.zeros(p ** p, dtype=np.uint8)
    class_at[digits @ place] = class_of
    pair = class_at[place[digits] @ digits.T]
    class_of.flags.writeable = pair.flags.writeable = False   # shared via the cache
    return SpClasses(perms, tuple(lookup), class_of, tuple(np.bincount(class_of).tolist()),
                     pair)


# ---------------------------------------------------------------------------
# Permutation
# ---------------------------------------------------------------------------

class Permutation(tuple):
    """An image tuple checked to be a bijection on {0, ..., n-1}."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        imgs = super().__new__(cls, images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection on [{len(imgs)}]: {imgs}")
        return imgs


# ---------------------------------------------------------------------------
# parity swappers
# ---------------------------------------------------------------------------

def parity_swappers(t: int) -> list[tuple[int, ...]]:
    """All beta in S_{2t} sending every odd 1-based label to an even one
    and vice versa; there are exactly (t!)^2 of them.

    Construction is direct: a bijection odd->even crossed with a
    bijection even->odd, enumerated in lexicographic order.
    """
    if 2 * t > MAX_SWAPPER_DEGREE:
        raise BudgetExceeded(f"parity swappers need 2t <= {MAX_SWAPPER_DEGREE}")
    if t < 1:
        raise ValueError("t must be >= 1")
    out = []
    for f in itertools.permutations(range(t)):
        for g in itertools.permutations(range(t)):
            images = [0] * (2 * t)
            for a in range(t):
                images[2 * a] = 2 * f[a] + 1      # odd label 2a+1 -> even label
                images[2 * a + 1] = 2 * g[a]      # even label 2a+2 -> odd label
            out.append(tuple(images))
    if len(out) != factorial(t) ** 2:
        raise ConsistencyError(f"{len(out)} parity swappers for t = {t}, "
                               f"expected (t!)^2 = {factorial(t) ** 2}")
    return out


# ---------------------------------------------------------------------------
# lemma verification
# ---------------------------------------------------------------------------

def verify_fixed_point_lemma(n: int) -> dict:
    """Exhaustively check |Fix(sigma)| >= 2|C(sigma)| - n over S_n;
    counterexamples in lexicographic order."""
    if n > MAX_LEMMA_DEGREE:
        raise BudgetExceeded(f"fixed-point lemma check capped at n <= {MAX_LEMMA_DEGREE}")
    table = perm_table(n)
    fixed = np.count_nonzero(table == np.arange(n), axis=1)
    bad = table[fixed < 2 * cycle_counts(table) - n]
    return {
        "lemma_name": "fixed_points_lower_bound",
        "n_or_t": n,
        "checked_count": len(table),
        "counterexamples": (bad + 1).tolist(),
    }


def verify_cycle_bound_corollary(t: int) -> dict:
    """Exhaustively check |C(alpha)| + |C(beta alpha^-1)| <= 3t over
    S_{2t} x B_{2t}, alpha-major and beta in `parity_swappers` order; every
    beta o alpha^-1 is one gather, independent of `sp_classes`."""
    if 2 * t > MAX_COROLLARY_2T:
        raise BudgetExceeded(f"cycle-bound corollary check capped at 2t <= {MAX_COROLLARY_2T}")
    betas = np.array(parity_swappers(t), dtype=np.intp)
    alphas = perm_table(2 * t)
    # composed[a, b, x] = beta_b(alpha_a^-1(x))
    composed = betas[:, np.argsort(alphas, axis=1)].swapaxes(0, 1).reshape(-1, 2 * t)
    total = (cycle_counts(alphas)[:, None]
             + cycle_counts(composed).reshape(len(alphas), len(betas)))
    a, b = np.nonzero(total > 3 * t)
    return {
        "lemma_name": "cycle_count_corollary",
        "n_or_t": t,
        "checked_count": total.size,
        "counterexamples": [{"alpha": alpha, "beta": beta}
                            for alpha, beta in zip((alphas[a] + 1).tolist(),
                                                   (betas[b] + 1).tolist())],
    }


def verify_lemmas(n_max: int, t_max: int = MAX_COROLLARY_2T // 2) -> list[dict]:
    """One report record per (lemma, size) for all n <= n_max and t <= t_max,
    each expected to list no counterexample; sizes outside
    [1, MAX_LEMMA_DEGREE] and [1, MAX_COROLLARY_2T // 2] are refused first."""
    if not 1 <= n_max <= MAX_LEMMA_DEGREE:
        raise OutOfRange(f"n_max={n_max} outside [1, {MAX_LEMMA_DEGREE}]")
    if not 1 <= t_max <= MAX_COROLLARY_2T // 2:
        raise OutOfRange(f"t_max={t_max} outside [1, {MAX_COROLLARY_2T // 2}]")
    return ([verify_fixed_point_lemma(n) for n in range(1, n_max + 1)]
            + [verify_cycle_bound_corollary(t) for t in range(1, t_max + 1)])
