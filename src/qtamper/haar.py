"""Reproducible sampling of Haar-distributed unitaries and encoding
isometries.

Randomness contract
-------------------
All sampling is driven by counter-based Philox streams keyed on a 64-bit
seed: the root stream uses key (seed, 0) and Monte Carlo trial chunk c
uses key (seed, 1 + c).  Complex Gaussians are produced by an explicit
Box-Muller transform on Philox uniforms, so a (seed, stream) pair pins
the sample exactly; ``GENERATOR_VERSION`` names this scheme and is
stamped into every report.  Version 2 also pins the phase rule of Pauli
words (one lookup in `pauli.omega_powers` per entry), which moved some
report bits of version 1 at the last-place level.  Version 3 pins the
QAMD scan's support-sum cross-check and root-count certificate fields.

The sampler itself is the standard Ginibre construction: QR-factorize a
square complex Gaussian matrix and multiply Q on the right by the phases
diag(R_jj / |R_jj|).  The phase fix makes the factorization the unique
one with positive-real R diagonal, which is what renders the output
Haar-distributed (plain Householder QR is biased by LAPACK's sign
convention).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import OutOfRange, RankDeficient
from .linalg import RANK_TOL

GENERATOR_VERSION = "philox4x64/box-muller/v3"

MAX_DIM = 4096


def root_generator(seed: int) -> Generator:
    """Stream used for single-shot sampling under the given seed."""
    return Generator(Philox(key=[seed, 0]))


def child_generator(seed: int, index: int) -> Generator:
    """Disjoint stream for Monte Carlo chunk `index` (counter rule)."""
    if index < 0:
        raise OutOfRange("child stream index must be >= 0")
    return Generator(Philox(key=[seed, 1 + index]))


def complex_gaussian(rng: Generator, shape) -> np.ndarray:
    """Standard complex Gaussians, E|z|^2 = 1, via Box-Muller.

    Uses u1 in (0, 1] (so log never sees 0) and u2 in [0, 1); the two
    Box-Muller outputs become the real and imaginary parts.
    """
    u1 = 1.0 - rng.random(size=shape)
    u2 = rng.random(size=shape)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = radius * np.exp(2j * np.pi * u2)
    return z / np.sqrt(2.0)


def _phase_fixed_qr(a: np.ndarray) -> np.ndarray:
    """Q of the unique QR factorization with positive-real R diagonal."""
    q, r = np.linalg.qr(a)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    if np.min(mags) < RANK_TOL:
        raise RankDeficient("Ginibre QR pivot below tolerance")
    return q * (d / mags)[..., np.newaxis, :]


def sample_haar_unitary(N: int, seed: int) -> np.ndarray:
    """Haar-distributed N x N unitary, deterministic given the seed.

    A rank-deficient Ginibre draw has probability zero; on the off
    chance the tolerance trips, one fresh draw from the continued stream
    is attempted before failing.
    """
    if not 2 <= N <= MAX_DIM:
        raise OutOfRange(f"dimension {N} outside [2, {MAX_DIM}]")
    rng = root_generator(seed)
    try:
        return _phase_fixed_qr(complex_gaussian(rng, (N, N)))
    except RankDeficient:
        return _phase_fixed_qr(complex_gaussian(rng, (N, N)))


def sample_encoding_isometry(N: int, K: int, seed: int) -> np.ndarray:
    """First K columns of sample_haar_unitary(N, seed), an N x K isometry."""
    if not 1 <= K < N:
        raise OutOfRange(f"need 1 <= K < N, got K={K}, N={N}")
    return sample_haar_unitary(N, seed)[:, :K]


def sample_isometry_stack(rng: Generator, count: int, N: int, K: int) -> np.ndarray:
    """`count` independent Haar isometries as a (count, N, K) stack.

    Thin phase-fixed QR of an N x K Ginibre block.  Because the
    phase-fixed factorization is unique, this equals the first K columns
    of the phase-fixed QR of any square Ginibre extension of the block:
    the distribution is exactly the first-K-columns one, at O(N K^2)
    cost per draw instead of O(N^3).
    """
    if not 1 <= K <= N or N > MAX_DIM:
        raise OutOfRange(f"bad isometry shape N={N}, K={K}")
    return _phase_fixed_qr(complex_gaussian(rng, (count, N, K)))
