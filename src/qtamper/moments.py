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
`perm.sp_classes(2t).pair`, so the sum is one (p!, p!) matrix sandwich.

The Monte Carlo estimator is the independent route.  A draw reads a Haar
2-frame (psi1, psi2) only through A = psi1^dag U psi1 and B = psi2^dag U
psi1, as X = |alpha A + beta B|^2 (`_frame_coefficients`).  For "m",
psi1 = V a and v_m = conj(a_m) psi1 + r phi with phi a unit vector
orthogonal to psi1; (V a, phi) are the first two columns of V Q for a fixed
unitary Q, and Haar isometries are invariant under V -> V Q, so this is
exact at every K.  No frame is formed: `_frame_x` reads A and B off the
Gram scalars of two Gaussian rows.

U is read only through `.trace()`, `U @ U` and `x @ U.T`, so it may be a
dense matrix or a `pauli.MonomialUnitary`: a Pauli word is never formed
as an N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional

import numpy as np

from .errors import ConsistencyError, OutOfRange, RankDeficient
from .haar import child_generator, complex_gaussian
from .linalg import RANK_TOL, parallel_map, require_normalized
from .pauli import checked_unitary
from .perm import cycles_of, parity_swappers, sp_classes
from .weingarten import wg_table

PATTERN_OFF_DIAGONAL = "js"
PATTERN_DIAGONAL = "ss"
PATTERN_QUANTUM_MESSAGE = "m"
PATTERNS = (PATTERN_OFF_DIAGONAL, PATTERN_DIAGONAL, PATTERN_QUANTUM_MESSAGE)

MOMENT_ORDER_CAP = 3
MIN_TRIALS = 1000
MAX_TRIALS = 10 ** 8    # 24415 chunks: the chunk list and the pool's futures stay small
MC_CHUNK = 4096
IMAG_RESIDUE_TOL = 1e-9


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
        self.U = checked_unitary(self.U)
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


def _first_moment(pattern: str, U) -> float:
    n = U.shape[0]
    if n < 2:
        raise OutOfRange("need N >= 2")
    if pattern == PATTERN_OFF_DIAGONAL:
        return (n ** 2 - abs(U.trace()) ** 2) / (n * (n ** 2 - 1))
    return (n + abs(U.trace()) ** 2) / (n * (n + 1))


def first_moment_js(U) -> float:
    """E[X_js] = (N^2 - |Tr U|^2) / (N (N^2 - 1)), closed form."""
    return _first_moment(PATTERN_OFF_DIAGONAL, checked_unitary(U))


def first_moment_ss(U) -> float:
    """E[X_ss] = (N + |Tr U|^2) / (N (N + 1)), closed form."""
    return _first_moment(PATTERN_DIAGONAL, checked_unitary(U))


def closed_form_moment(spec: MomentSpec) -> Optional[float]:
    """First-moment closed form of a js or ss spec (t = 1), else None."""
    if spec.t != 1 or spec.pattern == PATTERN_QUANTUM_MESSAGE:
        return None
    return _first_moment(spec.pattern, spec.U)


def _cycle_trace_products(perms, U, t: int) -> np.ndarray:
    """Tr-product vector over alpha: prod_c Tr(U^{odd(c)-even(c)}).

    Positions are 1-based in the parity convention, so 0-based even
    indices carry a U factor (+1) and odd indices a U^dag factor (-1).
    """
    tr_pow = {0: complex(U.shape[0])}
    power = U
    for j in range(1, t + 1):
        if j > 1:
            power = power @ U
        tr = complex(power.trace())
        tr_pow[j] = tr
        tr_pow[-j] = tr.conjugate()
    out = np.empty(len(perms), dtype=np.complex128)
    for ai, alpha in enumerate(perms):
        prod = 1.0 + 0j
        for cyc in cycles_of(alpha):
            exponent = sum(1 if i % 2 == 0 else -1 for i in cyc)
            prod *= tr_pow[exponent]
        out[ai] = prod
    return out


def _beta_weights(spec: MomentSpec, perms) -> np.ndarray:
    p = 2 * spec.t
    if spec.pattern == PATTERN_DIAGONAL:
        return np.ones(len(perms))
    if spec.pattern == PATTERN_OFF_DIAGONAL:
        swappers = set(parity_swappers(spec.t))
        return np.array([1.0 if b in swappers else 0.0 for b in perms])
    # quantum message: weight |a_m|^{2 l(beta)}, l = #(odd 1-based
    # positions fixed to odd ones), i.e. 0-based even -> even.
    a_m2 = abs(spec.message_amplitudes[spec.target_index]) ** 2
    weights = np.empty(len(perms))
    for bi, beta in enumerate(perms):
        ell = sum(1 for i in range(0, p, 2) if beta[i] % 2 == 0)
        weights[bi] = a_m2 ** ell
    return weights


def exact_moment(spec: MomentSpec) -> float:
    """Exact E[X^t] over the Haar measure for the spec's pattern."""
    p = 2 * spec.t
    sp = sp_classes(p)
    wg_float = np.array(wg_table(p, spec.N), dtype=float)
    tp = _cycle_trace_products(sp.perms, spec.U, spec.t)
    weights = _beta_weights(spec, sp.perms)
    total = complex(tp @ wg_float[sp.pair] @ weights)
    if abs(total.imag) > IMAG_RESIDUE_TOL:
        raise ConsistencyError(f"imaginary residue {total.imag} in exact moment")
    return total.real


def _frame_coefficients(spec: MomentSpec) -> tuple[complex, float]:
    """(alpha, beta) of the spec's pattern in X = |alpha A + beta B|^2."""
    if spec.pattern != PATTERN_QUANTUM_MESSAGE:
        return (0.0, 1.0) if spec.pattern == PATTERN_OFF_DIAGONAL else (1.0, 0.0)
    a_m = complex(spec.message_amplitudes[spec.target_index])
    return a_m, sqrt(max(1.0 - abs(a_m) ** 2, 0.0))


def _frame_x(g: np.ndarray, U, alpha: complex, beta: float) -> np.ndarray:
    """X of each draw of a (cols, count, N) Gaussian block: A = s/n0 and
    B = (t1 - conj(c) A) / sqrt(n0 perp), where n0 = |g0|^2, s = g0^dag U g0,
    c = g0^dag g1, t1 = g1^dag U g0 and n0 perp = n0 |g1|^2 - |c|^2, which is
    exactly 0 when g1 repeats g0.  g1 is read only when beta is nonzero."""
    g0 = g[0]
    u = g0 @ U.T
    n0 = np.vecdot(g0, g0).real
    if np.min(n0) < RANK_TOL ** 2:
        raise RankDeficient("Gaussian column below tolerance")
    a = np.vecdot(g0, u) / n0
    amp = alpha * a
    if beta:
        g1 = g[1]
        c = np.vecdot(g0, g1)
        n0_perp = n0 * np.vecdot(g1, g1).real - (c.real ** 2 + c.imag ** 2)
        if np.min(n0_perp / n0) < RANK_TOL ** 2:
            raise RankDeficient("Gram-Schmidt pivot below tolerance")
        amp = amp + beta * (np.vecdot(g1, u) - c.conj() * a) / np.sqrt(n0_perp)
    return np.abs(amp) ** 2


def _mc_chunk(spec: MomentSpec, seed: int, chunk_index: int, count: int):
    alpha, beta = _frame_coefficients(spec)
    g = complex_gaussian(child_generator(seed, chunk_index), (2 if beta else 1, count, spec.N))
    y = _frame_x(g, spec.U, alpha, beta) ** spec.t
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
    `linalg.parallel_map`'s pool of at most min(jobs, chunks, CPUs)
    threads, with OpenBLAS held at one thread while it runs.
    """
    check_trials(trials)
    sizes = [MC_CHUNK] * (trials // MC_CHUNK)
    if trials % MC_CHUNK:
        sizes.append(trials % MC_CHUNK)
    results = parallel_map(lambda c: _mc_chunk(spec, seed, c, sizes[c]),
                           range(len(sizes)), jobs)

    total = 0.0
    total_sq = 0.0
    for s, s2 in results:  # fixed chunk order: deterministic float sums
        total += s
        total_sq += s2
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0) * trials / (trials - 1)
    return mean, sqrt(var / trials)
