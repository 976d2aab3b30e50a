"""Symmetric-group machinery: S_n as an image array, the orbit-label and
cycle-count kernels over such arrays, the S_p pair-class table, the
parity-swapping set used by the off-diagonal moment patterns, and the two
permutation lemmas.

A permutation is its image tuple: sigma(x) = images[x].  `perm_table(n)`
is S_n as an (n!, n) array whose row r is the image tuple of the r-th
permutation in lexicographic order (row 0 = identity), built once per n.
`orbit_labels` takes any (M, n) image array and labels each point with the
smallest point of its orbit, by pointer doubling; a cycle is headed by the
one point that is its own label.  `cycle_counts` counts those heads, taking
its rows in blocks of `CYCLE_BLOCK_ROWS` so its transients stay bounded.
Both lemmas are checked by whole-table kernels over `perm_table`.

`sp_classes(p)` alone builds the class data of S_p, including the
N-independent table pair[a, b] = class of b o a^-1 (rows a, b of
`perm_table(p)`) that the Weingarten solve and the exact moments share.
The cycle-bound corollary reads none of it: it composes beta o alpha^-1
itself and counts cycles with `cycle_counts`, so it stays a route
independent of that table.

Points are stored 0-based; the parity-swapper set is defined on 1-based
labels (label = point + 1), since oddness of a label is what the
combinatorics keys on.  Reports render 1-based.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, OutOfRange

MAX_SWAPPER_DEGREE = 10       # parity swappers live in S_{2t}, 2t <= 10
MAX_LEMMA_DEGREE = 7          # fixed-point lemma checked on S_n, n <= 7
MAX_COROLLARY_2T = 6          # cycle-bound corollary checked on S_{2t} x B_{2t}
MAX_PAIR_DEGREE = 6           # (p!)^2 pair-class table: 720 x 720 bytes at most
CYCLE_BLOCK_ROWS = 1024       # rows per block of `cycle_counts`
PAIR_BLOCK_ROWS = 64          # rows a per block of codes of `sp_classes`


# ---------------------------------------------------------------------------
# image arrays
# ---------------------------------------------------------------------------

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


def orbit_labels(images: np.ndarray) -> np.ndarray:
    """Orbit labels of an (M, n) image array, with points numbered across
    the rows: entry [r, x] is r * n plus the smallest point of x's orbit
    under row r, so it equals r * n + x exactly where x heads its cycle.

    After k rounds of label = min(label, label[step]); step = step[step],
    label[x] is the smallest of x, sigma(x), ..., sigma^(2^k - 1)(x), so
    ceil(log2 n) rounds cover every cycle.  Each round is one flat gather.
    """
    m, n = images.shape
    points = np.arange(m * n).reshape(m, n)
    step = (images + points[:, :1]).ravel()
    label = points.ravel()
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[step])
        step = step[step]
    return label.reshape(m, n)


def cycle_counts(images: np.ndarray) -> np.ndarray:
    """Number of cycles of each row of an (M, n) image array: the heads of
    `orbit_labels`, counted over blocks of CYCLE_BLOCK_ROWS rows."""
    counts = np.empty(len(images), dtype=np.intp)
    for start in range(0, len(images), CYCLE_BLOCK_ROWS):
        labels = orbit_labels(images[start:start + CYCLE_BLOCK_ROWS])
        counts[start:start + len(labels)] = np.count_nonzero(
            labels == np.arange(labels.size).reshape(labels.shape), axis=1)
    return counts


# ---------------------------------------------------------------------------
# S_p class bookkeeping
# ---------------------------------------------------------------------------

class SpClasses(NamedTuple):
    """Conjugacy-class data of S_p over the rows of `perm_table(p)`; see
    `sp_classes`."""

    types: tuple[tuple[int, ...], ...]   # cycle types in first-seen order
    class_of: np.ndarray                 # (p!,) class index of each row
    sizes: tuple[int, ...]               # class sizes, indexed like types
    pair: np.ndarray                     # (p!, p!) class of row b o row a^-1


@lru_cache(maxsize=None)
def sp_classes(p: int) -> SpClasses:
    """Class data of S_p, built once per p.  A row's cycle type is its
    cycle lengths (orbit sizes at the heads) sorted descending, and classes
    are numbered in the order their types first appear.  Base-p digit codes
    index a p^p table of classes, and the code of b o a^-1 is
    sum_y place[a(y)] * b(y): one integer product per PAIR_BLOCK_ROWS rows a."""
    if not 0 <= p <= MAX_PAIR_DEGREE:
        raise BudgetExceeded(f"S_{p} pair table capped at p <= {MAX_PAIR_DEGREE}")
    table = perm_table(p)
    labels = orbit_labels(table).ravel()
    lengths = np.bincount(labels, minlength=labels.size).reshape(table.shape)
    shapes = -np.sort(-lengths, axis=1)             # zero-padded cycle types
    _, first, inverse = np.unique(shapes, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)                       # classes in first-seen order
    class_of = np.argsort(order)[inverse.ravel()].astype(np.uint8)
    types = tuple(tuple(n for n in row if n) for row in shapes[first[order]].tolist())
    # uint16 holds every code and partial sum (below p^p <= 6^6 < 2^16)
    digits = table.astype(np.uint16)
    place = p ** np.arange(p - 1, -1, -1, dtype=np.uint16)
    class_at = np.zeros(p ** p, dtype=np.uint8)
    class_at[digits @ place] = class_of
    pair = np.empty((len(table), len(table)), dtype=np.uint8)
    for start in range(0, len(table), PAIR_BLOCK_ROWS):
        block = slice(start, start + PAIR_BLOCK_ROWS)
        pair[block] = class_at[place[digits[block]] @ digits.T]
    class_of.flags.writeable = pair.flags.writeable = False   # shared via the cache
    return SpClasses(types, class_of, tuple(np.bincount(class_of).tolist()), pair)


# ---------------------------------------------------------------------------
# parity swappers
# ---------------------------------------------------------------------------

def parity_swappers(t: int) -> np.ndarray:
    """All beta in S_{2t} sending every odd 1-based label to an even one
    and vice versa, as a ((t!)^2, 2t) image array.

    Row f * t! + g is built from rows f and g of `perm_table(t)`: odd label
    2a+1 goes to even label 2 f(a) + 2, and even label 2a+2 to odd label
    2 g(a) + 1.
    """
    if 2 * t > MAX_SWAPPER_DEGREE:
        raise BudgetExceeded(f"parity swappers need 2t <= {MAX_SWAPPER_DEGREE}")
    if t < 1:
        raise ValueError("t must be >= 1")
    half = perm_table(t)
    out = np.empty((len(half) ** 2, 2 * t), dtype=np.intp)
    out[:, 0::2] = 2 * np.repeat(half, len(half), axis=0) + 1
    out[:, 1::2] = 2 * np.tile(half, (len(half), 1))
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
    betas = parity_swappers(t).astype(np.uint8)
    alphas = perm_table(2 * t)
    # composed[a, b, x] = beta_b(alpha_a^-1(x)), gathered alpha-major as uint8
    composed = betas[np.arange(len(betas))[:, None], np.argsort(alphas, axis=1)[:, None, :]]
    total = (cycle_counts(alphas)[:, None]
             + cycle_counts(composed.reshape(-1, 2 * t)).reshape(len(alphas), len(betas)))
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
