"""Reproducible sampling of Haar-distributed unitaries and encoding
isometries.

Randomness contract
-------------------
A seed is an int in [0, 2^64) (`check_seed`).  Stream s of a seed is SFC64
on `SeedSequence(seed, spawn_key=(s,))`: stream 0 for single-shot draws,
stream 1 + c for Monte Carlo chunk c.  The spawn key is mixed in after the
seed's entropy is padded to the pool size, so no two (seed, stream) pairs
alias, as an entropy list [seed, s] would (the root stream of 2^32 + 5
would be chunk 0 of seed 5).  Complex Gaussians are NumPy's ziggurat
normals on those streams, and Monte Carlo moments draw its ziggurat
exponentials and its uniforms from them (`moments._mc_chunk`), so a
(seed, stream) pair pins the sample exactly under one NumPy release;
``GENERATOR_VERSION`` names this scheme and is stamped into every report,
next to the NumPy version (NEP 19 does not pin the normal or exponential
streams across releases).  README's "Randomness" bullet says
what each version pinned and which fields it moved.

A Haar sample is the unique QR factor with positive-real R diagonal of a
complex Ginibre matrix (plain Householder QR is biased by LAPACK's sign
convention).  A square unitary is LAPACK's Q times diag(R_jj / |R_jj|).
An encoding isometry is a K-major (K, N) Ginibre block, row k holding
column k, orthonormalized by classical Gram-Schmidt with one
re-orthogonalization pass (CGS2), whose R diagonal is the real positive
norm: O(N K^2), each column one contiguous row.
"""

from __future__ import annotations

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .errors import OutOfRange, RankDeficient
from .linalg import LAPACK_SPLIT_DIM, MAX_DIM, RANK_TOL, one_blas_thread

GENERATOR_VERSION = "sfc64/ziggurat/v12"


def check_seed(seed) -> int:
    """The seed as an int if it is an integer in [0, 2^64), else OutOfRange."""
    if isinstance(seed, bool) or not isinstance(seed, int | np.integer) or not 0 <= seed < 2 ** 64:
        raise OutOfRange(f"seed {seed!r} is not an integer in [0, 2^64)")
    return int(seed)


def _stream(seed: int, stream: int) -> Generator:
    return Generator(SFC64(SeedSequence(check_seed(seed), spawn_key=(stream,))))


def root_generator(seed: int) -> Generator:
    """Stream 0 of the seed, used for single-shot sampling."""
    return _stream(seed, 0)


def child_generator(seed: int, index: int) -> Generator:
    """Stream 1 + index of the seed, for Monte Carlo chunk `index`."""
    if index < 0:
        raise OutOfRange("child stream index must be >= 0")
    return _stream(seed, 1 + index)


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
    with one_blas_thread(min(a.shape[-2:]), LAPACK_SPLIT_DIM):
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
    """The N x K Haar isometry of the seed's root stream: the transposed
    view of a CGS2-orthonormalized (K, N) Ginibre block."""
    if not 1 <= K < N or N > MAX_DIM:
        raise OutOfRange(f"need 1 <= K < N <= {MAX_DIM}, got K={K}, N={N}")
    g = complex_gaussian(root_generator(seed), (K, N))
    for j, v in enumerate(g):
        prev = g[:j]
        for _ in range(2 if j else 0):   # project out the earlier rows, twice (CGS2)
            v -= np.matvec(prev.T, np.vecdot(prev, v))
        norm = np.sqrt(np.vecdot(v, v).real)
        if norm < RANK_TOL:
            raise RankDeficient("Gram-Schmidt pivot below tolerance")
        v.view(np.float64)[...] *= 1 / norm   # = v / norm, bit for bit
    return g.T
