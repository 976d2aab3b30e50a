"""Symmetric-group machinery: cycle decomposition, the S_p pair-class
table, the odd/even valuation map, transposition distance, and the
parity-swapping set used by the off-diagonal moment patterns.

`sp_classes(p)` alone builds the class data of S_p, including the
N-independent table pair[a, b] = class of perms[b] o perms[a]^-1 that the
Weingarten solve and the exact moments share.

A permutation is its image tuple: sigma(x) = images[x], composed, inverted
and cut into cycles by the module functions.  `Permutation` is that tuple
and only checks, when built, that it is a bijection.

Points are stored 0-based; the valuation map and the parity-swapper set
are defined on 1-based labels (label = point + 1), since oddness of a
label is what the combinatorics keys on.  Reports render 1-based.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BudgetExceeded, ConsistencyError

MAX_SWAPPER_DEGREE = 10       # parity swappers live in S_{2t}, 2t <= 10
MAX_LEMMA_DEGREE = 7          # fixed-point lemma checked on S_n, n <= 7
MAX_COROLLARY_2T = 6          # cycle-bound corollary checked on S_{2t} x B_{2t}
MAX_PAIR_DEGREE = 6           # (p!)^2 pair-class table: 720 x 720 bytes at most


# ---------------------------------------------------------------------------
# tuple-level helpers (hot paths elsewhere use these directly)
# ---------------------------------------------------------------------------

def iter_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All of S_n as image tuples, in lexicographic order."""
    return itertools.permutations(range(n))


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[i]] for i in range(len(a)))


def invert(a: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


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


def num_cycles(images: Sequence[int]) -> int:
    n = len(images)
    seen = bytearray(n)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = 1
            j = images[j]
    return count


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
    table of classes, so row perms[:] o perms[a]^-1 of `pair` is one gather."""
    if not 0 <= p <= MAX_PAIR_DEGREE:
        raise BudgetExceeded(f"S_{p} pair table capped at p <= {MAX_PAIR_DEGREE}")
    perms = tuple(iter_tuples(p))
    lookup: dict[tuple[int, ...], int] = {}   # cycle type -> class, first seen
    class_of = np.array([lookup.setdefault(cycle_type_of(images), len(lookup))
                         for images in perms], dtype=np.uint8)
    table = np.array(perms, dtype=np.intp).reshape(len(perms), p)
    place = p ** np.arange(p - 1, -1, -1, dtype=np.intp)
    class_at = np.zeros(p ** p, dtype=np.uint8)
    class_at[table @ place] = class_of
    inverse = np.argsort(table, axis=1)
    pair = np.empty((len(perms), len(perms)), dtype=np.uint8)
    for a in range(len(perms)):
        # row b of table[:, inverse[a]] is perms[b] o perms[a]^-1
        pair[a] = class_at[table[:, inverse[a]] @ place]
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
# valuation, transposition distance
# ---------------------------------------------------------------------------

def valuation(sigma: Sequence[int]) -> int:
    """Sum over cycles of |#odd - #even| counted on 1-based labels.

    Equals the degree exactly when sigma maps odd labels to odd labels
    and even labels to even labels.
    """
    total = 0
    for cyc in cycles_of(sigma):
        odd = sum(1 for p in cyc if (p + 1) % 2 == 1)
        total += abs(odd - (len(cyc) - odd))
    return total


def min_transpositions(sigma: Sequence[int]) -> int:
    """Minimum number of transpositions composing to sigma: n - |C(sigma)|."""
    return len(sigma) - num_cycles(sigma)


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
    """Exhaustively check |Fix(sigma)| >= 2|C(sigma)| - n over S_n."""
    if n > MAX_LEMMA_DEGREE:
        raise BudgetExceeded(f"fixed-point lemma check capped at n <= {MAX_LEMMA_DEGREE}")
    counterexamples = []
    checked = 0
    for images in iter_tuples(n):
        checked += 1
        fixed = sum(1 for i in range(n) if images[i] == i)
        if fixed < 2 * num_cycles(images) - n:
            counterexamples.append([p + 1 for p in images])
    return {
        "lemma_name": "fixed_points_lower_bound",
        "n_or_t": n,
        "checked_count": checked,
        "counterexamples": counterexamples,
    }


def verify_cycle_bound_corollary(t: int) -> dict:
    """Exhaustively check |C(alpha)| + |C(beta alpha^-1)| <= 3t over
    S_{2t} x B_{2t}; composes directly, a route independent of `sp_classes`."""
    if 2 * t > MAX_COROLLARY_2T:
        raise BudgetExceeded(f"cycle-bound corollary check capped at 2t <= {MAX_COROLLARY_2T}")
    swappers = parity_swappers(t)
    counterexamples = []
    checked = 0
    for alpha in iter_tuples(2 * t):
        alpha_inv = invert(alpha)
        c_alpha = num_cycles(alpha)
        for beta in swappers:
            checked += 1
            if c_alpha + num_cycles(compose(beta, alpha_inv)) > 3 * t:
                counterexamples.append(
                    {"alpha": [p + 1 for p in alpha], "beta": [p + 1 for p in beta]}
                )
    return {
        "lemma_name": "cycle_count_corollary",
        "n_or_t": t,
        "checked_count": checked,
        "counterexamples": counterexamples,
    }


def verify_lemmas(n_max: int, t_max: int = MAX_COROLLARY_2T // 2) -> list[dict]:
    """Run both exhaustive checks for all n <= n_max and t <= t_max.

    Returns one report record per (lemma, size); expected zero
    counterexamples everywhere.
    """
    reports = []
    for n in range(1, n_max + 1):
        reports.append(verify_fixed_point_lemma(n))
    for t in range(1, t_max + 1):
        reports.append(verify_cycle_bound_corollary(t))
    return reports
