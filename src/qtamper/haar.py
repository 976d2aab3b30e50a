"""Reproducible sampling of Haar-distributed unitaries and encoding
isometries.

Randomness contract
-------------------
All sampling is driven by counter-based Philox streams keyed on a 64-bit
seed: the root stream uses key (seed, 0) and Monte Carlo trial chunk c
uses key (seed, 1 + c).  Complex Gaussians are NumPy's ziggurat normals
on those streams, so a (seed, stream) pair pins the sample exactly under
one NumPy release; ``GENERATOR_VERSION`` names this scheme and is stamped
into every report, next to the NumPy version (NEP 19 does not pin the
normal stream across releases).  Versions 2 and 3 pinned the Pauli phase
rule and the QAMD scan's certificate fields; version 4 pins the isometry
sampler below, which moved every Monte Carlo field and tamper-sim report;
version 5 pins the random-mode QAMD cross-check arithmetic, now the
exhaustive scan's support sum, which moved `max_dense_mismatch` there;
version 6 pins the ziggurat normals, which moved every sample; version 7
pins `moments` on a Pauli word applied as its monomial action (a gather
times a phase in place of zgemm), which moved the last digit of some
Monte Carlo fields at q >= 3; version 8 pins the tamper decoders on one
overlap block per member (zgemm over the K codewords in place of zgemv
per message), which moved the last bits of classical, relaxed and weak
tamper-sim fields.

A Haar sample is the unique QR factor with positive-real R diagonal of a
complex Ginibre matrix (plain Householder QR is biased by LAPACK's sign
convention).  A square unitary is LAPACK's Q times diag(R_jj / |R_jj|).
An isometry stack -- Monte Carlo draws and encoding isometries alike --
is a (count, K, N) Ginibre block (row k is column k) orthonormalized by
classical Gram-Schmidt with one re-orthogonalization pass (CGS2), whose
R diagonal is the real positive norm: O(N K^2) per draw.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import OutOfRange, RankDeficient
from .linalg import MAX_DIM, RANK_TOL

GENERATOR_VERSION = "philox4x64/ziggurat/v8"


def root_generator(seed: int) -> Generator:
    """Stream used for single-shot sampling under the given seed."""
    return Generator(Philox(key=[seed, 0]))


def child_generator(seed: int, index: int) -> Generator:
    """Disjoint stream for Monte Carlo chunk `index` (counter rule)."""
    if index < 0:
        raise OutOfRange("child stream index must be >= 0")
    return Generator(Philox(key=[seed, 1 + index]))


def complex_gaussian(rng: Generator, shape) -> np.ndarray:
    """Standard complex Gaussians, E|z|^2 = 1: consecutive ziggurat
    normals of the stream are the real and imaginary parts, scaled by
    sqrt(1/2)."""
    z = np.empty(shape, dtype=np.complex128)
    rng.standard_normal(out=z.view(np.float64))
    z *= np.sqrt(0.5)
    return z


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
    """The N x K Haar isometry of the seed's root stream."""
    if not 1 <= K < N:
        raise OutOfRange(f"need 1 <= K < N, got K={K}, N={N}")
    return sample_isometry_stack(root_generator(seed), 1, N, K)[0]


def sample_isometry_stack(rng: Generator, count: int, N: int, K: int) -> np.ndarray:
    """`count` independent Haar isometries as a (count, N, K) stack: the
    transposed view of a CGS2-orthonormalized (count, K, N) Ginibre block."""
    if not 1 <= K <= N or N > MAX_DIM:
        raise OutOfRange(f"bad isometry shape N={N}, K={K}")
    g = complex_gaussian(rng, (count, K, N))
    for j in range(K):
        v = g[:, j, :]
        if j:  # project out the earlier rows, then once more (CGS2)
            prev = g[:, :j, :]
            for _ in range(2):
                v -= np.matvec(prev.transpose(0, 2, 1), np.vecdot(prev, v[:, np.newaxis, :]))
        norm = np.sqrt(np.vecdot(v, v).real)
        if np.min(norm) < RANK_TOL:
            raise RankDeficient("Gram-Schmidt pivot below tolerance")
        v /= norm[:, np.newaxis]
    return g.transpose(0, 2, 1)
