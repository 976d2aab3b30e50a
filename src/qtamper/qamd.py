"""The explicit polynomial-tag qudit code: encoder, decoder overlap
computations by exact root counting, and security scans against the
generalized Pauli family.

Layout conventions (fixed here, used by every routine):
  * a message is s = (s_1, ..., s_d) in F_q^d;
  * the tag map is f(s, r) = sum_i s_i r^i + r^{d+2};
  * a codeword superposes the q registers tuples (s, r, f(s, r));
  * basis tuples v = (v_1, ..., v_{d+2}) index the dense state vector in
    the Kronecker digit order of `pauli.kron_digits` (register 1 is the
    most significant digit), and messages run in the same lexicographic
    order;
  * every tampering word X^x Z^z acts as `PauliLabel(q, x, z).action()`,
    and every phase omega^k is read from `pauli.omega_powers(q)`.

For a tampering word X^x Z^z the only codeword that can receive mass is
s' = s + x_{1:d}; its amplitude is a phase sum over the root set of the
difference polynomial f(s + x_{1:d}, r + x_{d+1}) - f(s, r) - x_{d+2},
which has degree between 1 and d+1 whenever x_{1:d} != 0 (every root
computation checks this and raises ConsistencyError otherwise).  The
squared amplitude is therefore bounded by ((d+1)/q)^2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (BudgetExceeded, ConsistencyError, IdentityTampering,
                     InvalidParams, OutOfRange)
from .field import FqPoly, fq_roots, fq_values, is_prime
from .haar import child_generator
from .pauli import MAX_DENSE_DIM, PauliLabel, kron_digits, omega_powers

EXHAUSTIVE_CELL_BUDGET = 10 ** 8
DENSE_MATCH_TOL = 1e-9
# byte cap on each z-chunk temporary of the exhaustive dense cross-check
DENSE_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class QamdParams:
    """Code parameters: prime q and message length d with d+2 not
    divisible by q (so the difference polynomial keeps full degree)."""

    q: int
    d: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise InvalidParams(f"q = {self.q} is not prime")
        if self.d < 1:
            raise InvalidParams("d must be >= 1")
        if (self.d + 2) % self.q == 0:
            raise InvalidParams(f"d + 2 = {self.d + 2} divisible by q = {self.q}")
        if self.q ** (self.d + 2) > MAX_DENSE_DIM:
            raise InvalidParams(
                f"dense dimension q^(d+2) = {self.q ** (self.d + 2)} exceeds {MAX_DENSE_DIM}"
            )

    @property
    def block_length(self) -> int:
        return self.d + 2

    @property
    def dim(self) -> int:
        return self.q ** (self.d + 2)

    @property
    def num_messages(self) -> int:
        return self.q ** self.d

    def messages(self) -> list[tuple[int, ...]]:
        """All of F_q^d in lexicographic order."""
        return list(itertools.product(range(self.q), repeat=self.d))

    def message_rank(self, s: Sequence[int]) -> int:
        """Position of s in messages()."""
        return self.state_index(s)

    def state_index(self, v: Sequence[int]) -> int:
        """Index of a basis tuple: its digits, register 1 most significant."""
        index = 0
        for val in v:
            index = index * self.q + val
        return index


def tag_poly(params: QamdParams, s: Sequence[int]) -> FqPoly:
    """f(s, .) as a polynomial in r: coefficients [0, s_1..s_d, 0, 1]."""
    coeffs = [0] + [v % params.q for v in s] + [0, 1]
    return FqPoly(coeffs, params.q)


def _tag_table(params: QamdParams, s: Sequence[int]) -> list[int]:
    """f(s, r) for every r in F_q."""
    return fq_values(tag_poly(params, s))


@dataclass(frozen=True)
class QamdCodeword:
    params: QamdParams
    message: tuple[int, ...]
    state: np.ndarray


def encode(s: Sequence[int], params: QamdParams) -> QamdCodeword:
    """Codeword (1/sqrt q) sum_r |s, r, f(s, r)> as a dense state vector."""
    s = tuple(v % params.q for v in s)
    if len(s) != params.d:
        raise InvalidParams(f"message length {len(s)} != d = {params.d}")
    amp = 1.0 / np.sqrt(params.q)
    state = np.zeros(params.dim, dtype=np.complex128)
    tags = _tag_table(params, s)
    for r in range(params.q):
        state[params.state_index(s + (r, tags[r]))] = amp
    return QamdCodeword(params=params, message=s, state=state)


def _check_word(params: QamdParams, x: Sequence[int], z: Sequence[int]):
    if len(x) != params.block_length or len(z) != params.block_length:
        raise InvalidParams(f"exponent vectors must have length {params.block_length}")
    x = tuple(v % params.q for v in x)
    z = tuple(v % params.q for v in z)
    if not any(x) and not any(z):
        raise IdentityTampering("tampering word is the identity")
    return x, z


def _difference_roots(params: QamdParams, s: tuple[int, ...],
                      x: tuple[int, ...]) -> list[int]:
    """Root set of f(s + x_{1:d}, r + x_{d+1}) - f(s, r) - x_{d+2}.

    When x_{1:d} != 0 the polynomial is checked to have degree in
    [1, d+1]; root counting is an exhaustive scan.
    """
    q, d = params.q, params.d
    target = tuple((s[i] + x[i]) % q for i in range(d))
    shifted = tag_poly(params, target).shift(x[d])
    diff = shifted - tag_poly(params, s) - FqPoly([x[d + 1]], q)
    if any(x[:d]):
        if not 1 <= diff.degree <= d + 1:
            raise ConsistencyError(
                f"difference polynomial for s={s}, x={x} has degree {diff.degree}, "
                f"outside [1, {d + 1}]"
            )
    if diff.is_zero:
        return list(range(q))
    return fq_roots(diff)


def overlap_amplitude(s: Sequence[int], s_prime: Sequence[int],
                      x: Sequence[int], z: Sequence[int],
                      params: QamdParams) -> complex:
    """Exact <psi_{s'}| X^x Z^z |psi_s>, computed symbolically.

    Zero unless s' = s + x_{1:d}; otherwise a phase sum over the root
    set, including the constant omega^{<z_{1:d}, s>} prefactor so the
    value matches the dense simulation amplitude-by-amplitude.
    """
    q, d = params.q, params.d
    s = tuple(v % q for v in s)
    s_prime = tuple(v % q for v in s_prime)
    x, z = _check_word(params, x, z)
    target = tuple((s[i] + x[i]) % q for i in range(d))
    if s_prime != target:
        return 0j
    roots = _difference_roots(params, s, x)
    tags = _tag_table(params, s)
    table = omega_powers(q)
    base = sum(z[i] * s[i] for i in range(d)) % q
    total = 0j
    for r in roots:
        total += table[(base + z[d] * r + z[d + 1] * tags[r]) % q]
    return complex(total / q)


def wrong_decode_prob_exact(s: Sequence[int], s_prime: Optional[Sequence[int]],
                            x: Sequence[int], z: Sequence[int],
                            params: QamdParams) -> float:
    """|<psi_{s'}| X^x Z^z |psi_s>|^2, or with s_prime=None the aggregate
    sum over all s' != s (the total wrong-decode mass)."""
    q, d = params.q, params.d
    s = tuple(v % q for v in s)
    x, z = _check_word(params, x, z)
    if s_prime is not None:
        return abs(overlap_amplitude(s, s_prime, x, z, params)) ** 2
    target = tuple((s[i] + x[i]) % q for i in range(d))
    if target == s:
        return 0.0
    return abs(overlap_amplitude(s, target, x, z, params)) ** 2


def tamper_experiment(s: Sequence[int], x: Sequence[int], z: Sequence[int],
                      params: QamdParams) -> dict:
    """Full decoder outcome distribution under the tampering word.

    Returns {"probabilities": {s': P(s')}, "reject": P(bot)}; the
    probabilities sum to 1 within 1e-9 (only s + x_{1:d} can be
    nonzero among the messages).
    """
    q, d = params.q, params.d
    s = tuple(v % q for v in s)
    x, z = _check_word(params, x, z)
    target = tuple((s[i] + x[i]) % q for i in range(d))
    probs = {m: 0.0 for m in params.messages()}
    probs[target] = abs(overlap_amplitude(s, target, x, z, params)) ** 2
    reject = 1.0 - sum(probs.values())
    return {"probabilities": probs, "reject": reject}


# ---------------------------------------------------------------------------
# dense state-vector oracle
# ---------------------------------------------------------------------------

def _apply_word(params: QamdParams, x: Sequence[int], z: Sequence[int],
                state: np.ndarray) -> np.ndarray:
    """X^x Z^z applied to a dense state vector."""
    rows, phase = PauliLabel(params.q, x, z).action()
    out = np.zeros(params.dim, dtype=np.complex128)
    out[rows] = phase * state
    return out


def dense_overlaps(s: Sequence[int], x: Sequence[int], z: Sequence[int],
                   params: QamdParams) -> dict[tuple[int, ...], complex]:
    """<psi_{s'}| X^x Z^z |psi_s> for every s', via dense state vectors."""
    x, z = _check_word(params, x, z)
    tampered = _apply_word(params, x, z, encode(s, params).state)
    out = {}
    for m in params.messages():
        out[m] = complex(np.vdot(encode(m, params).state, tampered))
    return out


# ---------------------------------------------------------------------------
# security scan
# ---------------------------------------------------------------------------

def _dense_mismatches(params: QamdParams, psi: np.ndarray, x: tuple[int, ...],
                      z_rows: np.ndarray, sym: np.ndarray):
    """Yield (first z row, |sym - dense| of shape (chunk, M)) for the words
    X^x Z^z over z_rows, by dense state vectors in z-chunks.

    A chunk stacks the tampered states X^x Z^z psi of its words, built
    through the inverse permutation of X^x; one batched matmul then runs
    psi^H @ tampered per word, the same small GEMM as a word at a time.
    """
    q, dim = params.q, params.dim
    n_msg = psi.shape[1]
    perm, _ = PauliLabel(q, x, (0,) * params.block_length).action()
    inv = np.empty_like(perm)
    inv[perm] = np.arange(dim)
    psi_h = psi.conj().T
    moved = psi[inv]
    moved_digits_t = kron_digits(q, params.block_length)[inv].T
    w_table = omega_powers(q)
    chunk = max(1, DENSE_CHUNK_BYTES // (dim * n_msg * psi.itemsize))
    # filled in place: a fresh array of this size per chunk would be mapped
    # and page-faulted anew each time, which costs more than the products
    tampered = np.empty((chunk, dim, n_msg), dtype=np.complex128)
    for lo in range(0, len(z_rows), chunk):
        z_chunk = z_rows[lo:lo + chunk]
        phase = w_table[(z_chunk @ moved_digits_t) % q]
        batch = np.multiply(phase[:, :, None], moved, out=tampered[:len(z_chunk)])
        overlaps = psi_h @ batch
        dense = (np.sum(np.abs(overlaps) ** 2, axis=1)
                 - np.abs(np.diagonal(overlaps, axis1=1, axis2=2)) ** 2)
        yield lo, np.abs(sym[lo:lo + len(z_chunk)] - dense)


def _exhaustive_scan(params: QamdParams, cross_check: bool):
    """(max probability, witness key, worst dense mismatch) over every
    ((x, z) != 0, s) cell, one shift x at a time."""
    q, d, dim = params.q, params.d, params.dim
    messages = params.messages()
    digits = kron_digits(q, params.block_length)   # row k: the exponent vector of rank k
    msg_digits = np.array(messages, dtype=np.intp)
    psi = np.column_stack([encode(m, params).state for m in messages])
    w_table = omega_powers(q)
    tag_tables = [_tag_table(params, m) for m in messages]
    base = (digits[:, :d] @ msg_digits.T) % q          # <z_{1:d}, s> per (z, s)
    z_root, z_tag = digits[:, d], digits[:, d + 1]

    best_prob, best_key, max_mismatch = -1.0, None, 0.0
    for xi in range(dim):
        x = tuple(int(v) for v in digits[xi])
        first_z = 1 if xi == 0 else 0       # (x, z) = 0 is not a tampering
        sym = np.zeros((dim, len(messages)))
        if any(x[:d]):
            for mi, m in enumerate(messages):
                tags = tag_tables[mi]
                amp = np.zeros(dim, dtype=np.complex128)
                for r in _difference_roots(params, m, x):
                    amp += w_table[(base[:, mi] + z_root * r + z_tag * tags[r]) % q]
                amp = amp / q
                sym[:, mi] = np.hypot(amp.real, amp.imag) ** 2
        sym = sym[first_z:]
        z_rows = digits[first_z:]
        if cross_check:
            for lo, mismatch in _dense_mismatches(params, psi, x, z_rows, sym):
                worst = mismatch.max(axis=1)
                max_mismatch = max(max_mismatch, float(worst.max()))
                bad = np.flatnonzero(worst > DENSE_MATCH_TOL)
                if bad.size:
                    z = tuple(int(v) for v in z_rows[lo + bad[0]])
                    raise ConsistencyError(
                        f"symbolic/dense mismatch {float(worst[bad[0]])} at x={x}, z={z}"
                    )
        # messages and z rows both run in lexicographic order, so the first
        # maximum of sym.T is the cell with the smallest key (s, x, z)
        mi, zi = divmod(int(np.argmax(sym.T)), len(z_rows))
        p = float(sym[zi, mi])
        key = (messages[mi], x, tuple(int(v) for v in z_rows[zi]))
        if p > best_prob or (p == best_prob and key < best_key):
            best_prob, best_key = p, key
    return best_prob, best_key, max_mismatch


def _random_scan(params: QamdParams, cells, cross_check: bool):
    """(max probability, witness key, worst dense mismatch) over sampled cells."""
    messages = params.messages()
    if cross_check:
        states = [encode(m, params).state for m in messages]
    best_prob, best_key, max_mismatch = -1.0, None, 0.0
    for s, x, z in cells:
        p = wrong_decode_prob_exact(s, None, x, z, params)
        if cross_check:
            tampered = _apply_word(params, x, z, states[params.message_rank(s)])
            dense = sum(abs(complex(np.vdot(state, tampered))) ** 2
                        for m, state in zip(messages, states) if m != s)
            max_mismatch = max(max_mismatch, abs(p - dense))
            if abs(p - dense) > DENSE_MATCH_TOL:
                raise ConsistencyError(f"symbolic/dense mismatch at {(s, x, z)}")
        key = (s, x, z)
        if p > best_prob or (p == best_prob and key < best_key):
            best_prob, best_key = p, key
    return best_prob, best_key, max_mismatch


def security_scan(params: QamdParams, exhaustive: bool = True,
                  trials: Optional[int] = None, seed: int = 0,
                  cross_check: bool = True) -> dict:
    """Scan tampering words against every message and report the maximum
    aggregate wrong-decode probability, its witness, and the theorem
    bound ((d+1)/q)^2.

    In exhaustive mode every ((x, z) != 0, s) cell is visited; with
    cross_check each cell's symbolic probability is compared to the
    dense state-vector simulation and the worst mismatch is reported
    (the scan raises ConsistencyError above DENSE_MATCH_TOL).  The
    witness is the smallest (s, x, z) among the cells at the maximum.

    The exhaustive scan takes one shift x at a time and handles all
    q^(d+2) clock words z of it in a few array operations:
      * symbolic: per message, the root set of the difference polynomial
        is computed once, and each root adds its root-of-unity phase for
        every z at once.  The root order and the division by q are those
        of the per-cell route, and hypot is the modulus Python's abs()
        takes (np.abs is not: it differs in the last bit).  The array
        square v * v equals the per-cell scalar pow(v, 2) for every
        amplitude an admissible (q, d) can produce (a test enumerates
        them), so every probability has wrong_decode_prob_exact's bits;
      * dense: it never reads the root sets.  The tampered states of a
        chunk of z are stacked, built through the inverse permutation of
        X^x, and one batched matmul with psi^H gives their overlaps: per
        word the same (M, dim) @ (dim, M) GEMM as one word at a time, so
        the same bits (one wide GEMM over the chunk would cross the BLAS
        threading threshold).
        Each temporary of a chunk holds at most about DENSE_CHUNK_BYTES
        (256 KiB); no dim x dim table is built.
    Random mode samples cells from the seeded stream instead, encoding
    every message once per scan.
    """
    q, d = params.q, params.d
    bound = ((d + 1) / q) ** 2
    if exhaustive:
        n_cells = (params.dim ** 2 - 1) * params.num_messages
        if n_cells > EXHAUSTIVE_CELL_BUDGET:
            raise BudgetExceeded(f"{n_cells} cells exceed budget {EXHAUSTIVE_CELL_BUDGET}")
        best_prob, best_key, max_mismatch = _exhaustive_scan(params, cross_check)
        checked = n_cells
    else:
        if not trials or trials < 1:
            raise OutOfRange("random mode needs a positive trial count")
        rng = child_generator(seed, 0)
        cells = []
        while len(cells) < trials:
            xz = rng.integers(0, q, size=2 * params.block_length)
            if not xz.any():
                continue
            s = tuple(int(v) for v in rng.integers(0, q, size=d))
            cells.append((s, tuple(int(v) for v in xz[:params.block_length]),
                          tuple(int(v) for v in xz[params.block_length:])))
        best_prob, best_key, max_mismatch = _random_scan(params, cells, cross_check)
        checked = len(cells)

    witness_s, witness_x, witness_z = best_key
    return {
        "mode": "exhaustive" if exhaustive else "random",
        "params": {"q": q, "d": d},
        "bound": bound,
        "max_prob": best_prob,
        "witness": {"s": list(witness_s), "x": list(witness_x), "z": list(witness_z)},
        "pairs_checked": checked,
        "dense_cross_check": bool(cross_check),
        "max_dense_mismatch": max_mismatch if cross_check else None,
        "bound_satisfied": bool(best_prob <= bound + 1e-12),
    }
