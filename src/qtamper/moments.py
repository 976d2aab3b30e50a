"""Moments of the decoder random variables over Haar-random encodings.

Three patterns are supported, all of the form E[X^t] with t <= 3:

  * "js"  -- X = |<psi_j| U |psi_s>|^2 for two distinct codewords (the
    off-diagonal, wrong-decode variable);
  * "ss"  -- X = |<psi_s| U |psi_s>|^2 (the diagonal, same-decode
    variable);
  * "m"   -- X = <psi_m| U Enc(|psi><psi|) U^dag |psi_m> for a quantum
    message |psi> = sum_i a_i |i> and POVM row m (the subspace-decoder
    variable).

The exact evaluator sums over pairs (alpha, beta) in S_{2t}^2: alpha
contributes a product over its cycles of Tr(U^{odd(c)-even(c)}) (the
alternating U / U^dag factors along a cycle are powers of one unitary,
so only the signed position count matters, making the in-cycle ordering
immaterial); beta contributes a delta weight -- the parity-swapper
indicator for "js", the constant 1 for "ss", and |a_m|^{2 l(beta)} for
"m", where l(beta) counts odd positions mapped to odd positions (the
weight obtained by executing the delta constraints over the amplitude
indices).  Each pair is weighted by the exact Weingarten value of
beta alpha^-1, looked up through the shared S_{2t} pair-class table
`perm.sp_classes(2t).pair`, so the sum is tp @ Wg @ weights over the rows
of `perm.perm_table(2t)`, with Wg gathered and contracted
PAIR_BLOCK_COLUMNS columns at a time: no (p!, p!) block is formed.

The Monte Carlo estimator is the independent route.  It reads U through
its spectrum lambda, U = W diag(lambda) W^dag, drawn once per run and
checked against the trace profile Tr(U^j), j <= t, that the exact route
reads.  Haar encodings are invariant under V -> W^dag V, so
A = psi1^dag U psi1 has the law of sum_k lambda_k w_k, where
w = e / sum(e) for N iid standard exponentials e: the Dirichlet(1, ..., 1)
law of |psi1_k|^2.  Given psi1, a second frame vector phi is uniform on
the unit sphere of psi1-perp = C^{N-1}, and ||U psi1|| = 1, so
B = phi^dag U psi1 has |B|^2 = (1 - |A|^2) b with b ~ Beta(1, N - 2) and a
uniform phase theta independent of A.  Every pattern is
X = |alpha A + beta B|^2 (`_frame_coefficients`): "js" is (1 - |A|^2) b,
"ss" is |A|^2, and "m" the full form.  For "m", psi1 = V a and
v_m = conj(a_m) psi1 + r phi with phi a unit vector orthogonal to psi1;
(V a, phi) are the first two columns of V Q for a fixed unitary Q, and
Haar isometries are invariant under V -> V Q, so this is exact at every K.
As a check, E[X_js] = (1 - E|A|^2) / (N - 1), the closed form.

U is read only through `.trace()`, `U @ U` and its eigenvalues, so it may
be a dense matrix or a `pauli.MonomialUnitary`, whose spectrum comes from
its cycles in O(N): a Pauli word is never formed as an N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import pi, sqrt
from typing import Optional

import numpy as np

from .errors import ConsistencyError, OutOfRange
from .haar import child_generator
from .linalg import blas_threads, parallel_map, require_normalized, require_unitary
from .pauli import MonomialUnitary
from .perm import orbit_labels, perm_table, sp_classes
from .weingarten import wg_table

PATTERN_OFF_DIAGONAL = "js"
PATTERN_DIAGONAL = "ss"
PATTERN_QUANTUM_MESSAGE = "m"
PATTERNS = (PATTERN_OFF_DIAGONAL, PATTERN_DIAGONAL, PATTERN_QUANTUM_MESSAGE)

MOMENT_ORDER_CAP = 3
MIN_TRIALS = 1000
MAX_TRIALS = 10 ** 8    # 24415 chunks: the chunk list and the pool's futures stay small
MC_CHUNK = 4096
MC_PIECE = 2 ** 15      # exponentials per piece of a chunk (256 KiB), whatever N is
IMAG_RESIDUE_TOL = 1e-9
PAIR_BLOCK_COLUMNS = 64  # Wg columns gathered per block of `exact_moment`
SPECTRUM_TOL = 1e-9     # per unit of N: |sum lambda^j - Tr U^j| bound


def check_moment_params(pattern: str, t: int, N: int, K: int = 2,
                        target_index: int = 0) -> None:
    """Refuse a moment request from its scalars alone, before U is built."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if not 1 <= t <= MOMENT_ORDER_CAP:
        raise OutOfRange(f"moment order t={t} outside [1, {MOMENT_ORDER_CAP}]")
    if N < 2 * t:
        raise OutOfRange(f"need N >= 2t (N={N}, t={t})")
    if pattern == PATTERN_OFF_DIAGONAL and K < 2:
        raise OutOfRange("off-diagonal pattern needs K >= 2")
    if not 1 <= K < N:
        raise OutOfRange(f"need 1 <= K < N (K={K}, N={N})")
    if pattern == PATTERN_QUANTUM_MESSAGE and not 0 <= target_index < K:
        raise OutOfRange("target_index outside [0, K)")


@dataclass
class MomentSpec:
    """What to average: pattern, order t, tampering unitary (dense or a
    `MonomialUnitary`), and (for the quantum-message pattern) the message
    amplitudes and POVM row."""

    pattern: str
    t: int
    U: object
    K: int = 2
    message_amplitudes: Optional[np.ndarray] = None
    target_index: int = 0

    def __post_init__(self):
        if not isinstance(self.U, MonomialUnitary):     # a monomial is checked when built
            self.U = require_unitary(self.U)
        check_moment_params(self.pattern, self.t, self.N, self.K, self.target_index)
        if self.pattern == PATTERN_QUANTUM_MESSAGE:
            if self.message_amplitudes is None:
                raise ValueError("quantum-message pattern needs amplitudes")
            amps = require_normalized(self.message_amplitudes)
            if amps.shape != (self.K,):
                raise OutOfRange(f"amplitudes must have length K={self.K}")
            self.message_amplitudes = amps

    @property
    def N(self) -> int:
        return self.U.shape[0]

    @cached_property
    def trace_profile(self) -> tuple[complex, ...]:
        """(Tr U, Tr U^2, ..., Tr U^t), formed once and read by both routes."""
        dense = self.t > 1 and not isinstance(self.U, MonomialUnitary)
        with blas_threads(self.N if dense else 0):
            profile, power = [complex(self.U.trace())], self.U
            for _ in range(1, self.t):
                power = power @ self.U
                profile.append(complex(power.trace()))
        return tuple(profile)


def closed_form_moment(spec: MomentSpec) -> Optional[float]:
    """First-moment closed form of a js or ss spec (t = 1), else None."""
    if spec.t != 1 or spec.pattern == PATTERN_QUANTUM_MESSAGE:
        return None
    n, trace_sq = spec.N, abs(spec.U.trace()) ** 2
    if spec.pattern == PATTERN_OFF_DIAGONAL:
        return (n ** 2 - trace_sq) / (n * (n ** 2 - 1))
    return (n + trace_sq) / (n * (n + 1))


def _cycle_trace_products(spec: MomentSpec) -> np.ndarray:
    """Tr-product vector over alpha: prod_c Tr(U^{odd(c)-even(c)}).

    Positions are 1-based in the parity convention, so 0-based even
    indices carry a U factor (+1) and odd indices a U^dag factor (-1).
    Cycles come from `perm.orbit_labels`.  A row's factors are multiplied
    from 1 + 0j over its cycle heads in ascending order, in float64 products
    and sums as Python's complex product forms them: numpy's complex
    multiply may fuse a product into a sum, which moves bits.
    """
    table = perm_table(2 * spec.t)
    m, p = table.shape
    labels = orbit_labels(table).ravel()
    heads = (labels == np.arange(m * p)).reshape(m, p)
    signs = np.tile([1.0, -1.0], m * p // 2)
    exponents = np.bincount(labels, weights=signs, minlength=m * p).astype(np.intp)
    profile = np.array(spec.trace_profile, dtype=np.complex128)
    powers = np.concatenate([profile[::-1].conj(), [spec.N], profile])   # [e + t] = Tr U^e
    factors = powers[exponents.reshape(m, p) + spec.t]
    re, im = np.ones(m), np.zeros(m)
    for x in range(p):
        rows = heads[:, x]
        fr, fi = factors[rows, x].real, factors[rows, x].imag
        pr, pi = re[rows], im[rows]
        re[rows], im[rows] = pr * fr - pi * fi, pr * fi + pi * fr
    out = np.empty(m, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _beta_weights(spec: MomentSpec) -> np.ndarray:
    """Delta weight of each beta over the rows of `perm_table(2t)`."""
    table = perm_table(2 * spec.t)
    if spec.pattern == PATTERN_DIAGONAL:
        return np.ones(len(table))
    if spec.pattern == PATTERN_OFF_DIAGONAL:
        # parity swappers: every 1-based label changes parity
        return np.all((table + np.arange(2 * spec.t)) % 2 == 1, axis=1).astype(float)
    # quantum message: weight |a_m|^{2 l(beta)}, l = #(odd 1-based
    # positions fixed to odd ones), i.e. 0-based even -> even.
    a_m2 = abs(spec.message_amplitudes[spec.target_index]) ** 2
    ell = np.count_nonzero(table[:, 0::2] % 2 == 0, axis=1)
    return np.array([a_m2 ** k for k in range(spec.t + 1)])[ell]


def exact_moment(spec: MomentSpec) -> float:
    """Exact E[X^t] over the Haar measure for the spec's pattern."""
    pair = sp_classes(2 * spec.t).pair
    wg = np.array(wg_table(2 * spec.t, spec.N), dtype=complex)   # gathered as tp's type
    tp = _cycle_trace_products(spec)
    row = np.empty(len(pair), dtype=np.complex128)    # tp @ Wg, PAIR_BLOCK_COLUMNS at a time
    for start in range(0, len(pair), PAIR_BLOCK_COLUMNS):
        block = slice(start, start + PAIR_BLOCK_COLUMNS)
        row[block] = tp @ wg[pair[:, block]]
    total = complex(row @ _beta_weights(spec))
    if abs(total.imag) > IMAG_RESIDUE_TOL:
        raise ConsistencyError(f"imaginary residue {total.imag} in exact moment")
    return total.real


def _frame_coefficients(spec: MomentSpec) -> tuple[complex, float]:
    """(alpha, beta) of the spec's pattern in X = |alpha A + beta B|^2.
    With K = 1 there is no second codeword, so beta is 0."""
    if spec.pattern != PATTERN_QUANTUM_MESSAGE:
        return (0.0, 1.0) if spec.pattern == PATTERN_OFF_DIAGONAL else (1.0, 0.0)
    a_m = complex(spec.message_amplitudes[spec.target_index])
    return a_m, (sqrt(max(1.0 - abs(a_m) ** 2, 0.0)) if spec.K > 1 else 0.0)


def _checked_spectrum(spec: MomentSpec) -> np.ndarray:
    """U's eigenvalues: a monomial's from its cycles, a dense U's from LAPACK
    (U is normal, so they are perfectly conditioned).  They are sorted by
    (Re, Im) rounded to 1e-9, so a Pauli word draws the same sample, to
    rounding, as a monomial or as a dense matrix.  Their power sums must
    meet the trace profile within SPECTRUM_TOL * N for every j <= t."""
    U, dense = spec.U, not isinstance(spec.U, MonomialUnitary)
    with blas_threads(spec.N if dense else 0):
        lam = np.linalg.eigvals(U) if dense else U.eigenvalues()
    lam = lam[np.lexsort((np.round(lam.imag, 9), np.round(lam.real, 9)))]
    power = np.ones(spec.N, dtype=np.complex128)
    for j, tr in enumerate(spec.trace_profile, 1):
        power *= lam
        gap = abs(complex(np.sum(power)) - tr)
        if not gap <= SPECTRUM_TOL * spec.N:
            raise ConsistencyError(f"sum of lambda^{j} is {gap:.3g} from Tr U^{j}")
    return lam


def _mc_chunk(spec: MomentSpec, lam: np.ndarray, seed: int, chunk_index: int, count: int):
    """Sums of X^t and X^2t over `count` draws of the chunk's stream: count
    rows of N exponentials e for A, drawn in pieces of max(1, MC_PIECE // N)
    rows, then count uniforms for b when beta != 0 and count for theta when
    alpha beta != 0.  Each piece's product with the columns Re lambda,
    Im lambda and 1 gives its rows' sum(e lambda) and sum(e)."""
    alpha, beta = _frame_coefficients(spec)
    rng = child_generator(seed, chunk_index)
    columns = np.stack([lam.real, lam.imag, np.ones(spec.N)], axis=1)
    sums, piece = np.empty((count, 3)), max(1, MC_PIECE // spec.N)
    for block in np.split(sums, range(piece, count, piece)):     # views of sums
        np.matmul(rng.standard_exponential((len(block), spec.N)), columns, out=block)
    re, im, total = sums.T
    a = re / total + 1j * (im / total)    # not complex / real: A = 1 exactly when U = 1
    if not beta:
        x = np.abs(alpha * a) ** 2
    else:
        b = -np.expm1(np.log1p(-rng.random(count)) / (spec.N - 2))
        b_sq = np.maximum(1.0 - np.abs(a) ** 2, 0.0) * b      # |B|^2
        if alpha:
            phase = np.exp(2j * pi * rng.random(count))
            x = np.abs(alpha * a + beta * np.sqrt(b_sq) * phase) ** 2
        else:
            x = beta ** 2 * b_sq
    y = x ** spec.t
    return float(np.sum(y)), float(np.sum(y * y))


def check_trials(trials: int) -> None:
    """Refuse a Monte Carlo trial count outside [MIN_TRIALS, MAX_TRIALS]."""
    if not MIN_TRIALS <= trials <= MAX_TRIALS:
        raise OutOfRange(f"trials = {trials} outside [{MIN_TRIALS}, {MAX_TRIALS}]")


def mc_moment(spec: MomentSpec, trials: int, seed: int, jobs: int = 1):
    """Monte Carlo estimate of E[X^t] with its standard error.

    Trials are split into fixed-size chunks; chunk c draws from the
    child stream (seed, c), so the estimate is independent of the worker
    count and bit-stable for a fixed seed.  The chunks run on
    `linalg.parallel_map`'s pool of at most min(jobs, chunks, usable CPUs)
    threads, with OpenBLAS parked.  U's spectrum is taken and checked once,
    before the first chunk.
    """
    check_trials(trials)
    if _frame_coefficients(spec)[1] and spec.N < 3:
        raise ConsistencyError("the second codeword's Beta(1, N - 2) law needs N >= 3")
    lam = _checked_spectrum(spec)
    sizes = [min(MC_CHUNK, trials - start) for start in range(0, trials, MC_CHUNK)]
    results = parallel_map(lambda c: _mc_chunk(spec, lam, seed, c, sizes[c]),
                           range(len(sizes)), jobs)

    total = 0.0
    total_sq = 0.0
    for s, s2 in results:  # fixed chunk order: deterministic float sums
        total += s
        total_sq += s2
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0) * trials / (trials - 1)
    return mean, sqrt(var / trials)
