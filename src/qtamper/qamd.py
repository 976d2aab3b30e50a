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
computation checks this and raises ConsistencyError otherwise).  By the
triangle inequality the squared amplitude is at most (|roots|/q)^2, so
counting roots in integers certifies the bound ((d+1)/q)^2 exactly.  The
dense cross-check never reads root sets: each codeword has q nonzero
entries, so every amplitude is a q-term sum over the codeword's support.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (BudgetExceeded, ConsistencyError, IdentityTampering,
                     InvalidParams, OutOfRange)
from .field import FqPoly, fq_roots, fq_values, is_prime
from .haar import child_generator
from .pauli import MAX_DENSE_DIM, PauliLabel, kron_digits, omega_powers

EXHAUSTIVE_CELL_BUDGET = 10 ** 8
DENSE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class QamdParams:
    """Code parameters: prime q and message length d with d+2 not
    divisible by q (so the difference polynomial keeps full degree)."""

    q: int
    d: int

    def __post_init__(self):
        q, d = self.q, self.d
        # the bounds come first: trial division of a huge q, or q^(d+2) of a
        # huge d, would not end; q >= 2 makes d + 2 >= bit_length a sure excess
        if not 2 <= q <= MAX_DENSE_DIM:
            raise InvalidParams(f"q = {q} is outside [2, {MAX_DENSE_DIM}]")
        if d < 1:
            raise InvalidParams("d must be >= 1")
        if d + 2 >= MAX_DENSE_DIM.bit_length() or q ** (d + 2) > MAX_DENSE_DIM:
            raise InvalidParams(f"dense dimension q^(d+2) exceeds {MAX_DENSE_DIM}")
        if not is_prime(q):
            raise InvalidParams(f"q = {q} is not prime")
        if (d + 2) % q == 0:
            raise InvalidParams(f"d + 2 = {d + 2} divisible by q = {q}")

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


def _phase_sum(params: QamdParams, s: tuple[int, ...], z: tuple[int, ...],
               roots: Sequence[int]) -> complex:
    """(1/q) sum over the roots r of omega^{<z_{1:d}, s> + z_{d+1} r + z_{d+2} f(s, r)}."""
    q, d = params.q, params.d
    tags = _tag_table(params, s)
    table = omega_powers(q)
    base = sum(z[i] * s[i] for i in range(d)) % q
    total = 0j
    for r in roots:
        total += table[(base + z[d] * r + z[d + 1] * tags[r]) % q]
    return complex(total / q)


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
    return _phase_sum(params, s, z, _difference_roots(params, s, x))


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


# ---------------------------------------------------------------------------
# dense state-vector routes
# ---------------------------------------------------------------------------

def _apply_word(params: QamdParams, x: Sequence[int], z: Sequence[int],
                state: np.ndarray) -> np.ndarray:
    """X^x Z^z applied to a dense state vector."""
    rows, phase = PauliLabel(params.q, x, z).action()
    out = np.zeros(params.dim, dtype=np.complex128)
    out[rows] = phase * state
    return out


def _support_sum_route(params: QamdParams, psi: np.ndarray):
    """The exhaustive scan's dense cross-check: a function of the shift x
    giving sum_{s' != s} |<psi_{s'}| X^x Z^z |psi_s>|^2 for every clock word
    z (rows) and message s (columns) from the codeword columns psi alone.

    Each codeword has exactly q nonzero entries j (checked here), so the
    amplitude is sum_j omega^{<z, v_j>} conj(psi_{s'}[perm_x(j)]) psi_s[j]:
    the phase stack P[s] (z by j) is built once, and a shift gathers C[s]
    (j by s') for one batched product P @ C of shape (M, dim, M).
    """
    q = params.q
    supports = [np.flatnonzero(column) for column in psi.T]
    if any(support.size != q for support in supports):
        raise ConsistencyError(f"codeword support sizes {[v.size for v in supports]} != {q}")
    supp = np.array(supports)                                       # (M, q)
    digits = kron_digits(q, params.block_length)
    phase = omega_powers(q)[(digits @ digits[supp].transpose(0, 2, 1)) % q]
    weight = np.take_along_axis(psi.T, supp, axis=1)[:, :, np.newaxis]
    psi_conj = psi.conj()
    no_clock = (0,) * params.block_length
    # filled in place on every shift: fresh arrays of this size would be
    # mapped and page-faulted anew each time, which costs more than the product
    amps = np.empty((len(supports), params.dim, len(supports)), dtype=np.complex128)
    power, imag_sq = np.empty(amps.shape), np.empty(amps.shape)

    def dense(x: tuple[int, ...]) -> np.ndarray:
        perm, _ = PauliLabel(q, x, no_clock).action()
        np.matmul(phase, psi_conj[perm[supp]] * weight, out=amps)  # [s, z, s']
        np.add(np.square(amps.real, out=power), np.square(amps.imag, out=imag_sq), out=power)
        return power.sum(axis=2).T - np.diagonal(power, axis1=0, axis2=2)

    return dense


# ---------------------------------------------------------------------------
# security scan
# ---------------------------------------------------------------------------

def _exhaustive_scan(params: QamdParams, cross_check: bool):
    """(max probability, witness key, worst dense mismatch, max root count)
    over every ((x, z) != 0, s) cell, one shift x at a time."""
    q, d, dim = params.q, params.d, params.dim
    messages = params.messages()
    digits = kron_digits(q, params.block_length)   # row k: the exponent vector of rank k
    msg_digits = np.array(messages, dtype=np.intp)
    w_table = omega_powers(q)
    tag_tables = [_tag_table(params, m) for m in messages]
    base = (digits[:, :d] @ msg_digits.T) % q          # <z_{1:d}, s> per (z, s)
    z_root, z_tag = digits[:, d], digits[:, d + 1]
    if cross_check:
        dense = _support_sum_route(
            params, np.column_stack([encode(m, params).state for m in messages]))

    best_prob, best_key, max_mismatch, max_roots = -1.0, None, 0.0, 0
    for xi in range(dim):
        x = tuple(int(v) for v in digits[xi])
        first_z = 1 if xi == 0 else 0       # (x, z) = 0 is not a tampering
        sym = np.zeros((dim, len(messages)))
        if any(x[:d]):
            for mi, m in enumerate(messages):
                tags = tag_tables[mi]
                roots = _difference_roots(params, m, x)
                max_roots = max(max_roots, len(roots))
                amp = np.zeros(dim, dtype=np.complex128)
                for r in roots:
                    amp += w_table[(base[:, mi] + z_root * r + z_tag * tags[r]) % q]
                amp = amp / q
                sym[:, mi] = np.hypot(amp.real, amp.imag) ** 2
        sym = sym[first_z:]
        z_rows = digits[first_z:]
        if cross_check:
            worst = np.abs(sym - dense(x)[first_z:]).max(axis=1)
            max_mismatch = max(max_mismatch, float(worst.max()))
            bad = np.flatnonzero(worst > DENSE_MATCH_TOL)
            if bad.size:
                z = tuple(int(v) for v in z_rows[bad[0]])
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
    return best_prob, best_key, max_mismatch, max_roots


def _random_scan(params: QamdParams, cells, cross_check: bool):
    """(max probability, witness key, worst dense mismatch, max root count)
    over sampled cells."""
    messages = params.messages()
    if cross_check:
        states = [encode(m, params).state for m in messages]
    best_prob, best_key, max_mismatch, max_roots = -1.0, None, 0.0, 0
    for s, x, z in cells:
        p = 0.0                             # x_{1:d} = 0 moves no mass off s
        if any(x[:params.d]):
            roots = _difference_roots(params, s, x)
            max_roots = max(max_roots, len(roots))
            p = abs(_phase_sum(params, s, z, roots)) ** 2
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
    return best_prob, best_key, max_mismatch, max_roots


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
    The certificate is exact: `max_root_count` is the largest root set
    the scan computed (x_{1:d} != 0), `bound_satisfied` is the integer
    test max_root_count <= d + 1, which bounds every cell by the rational
    `bound_exact`, and the float `max_prob` is checked against
    (max_root_count/q)^2 up to rounding.

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
      * dense: it never reads the root sets.  Each codeword has exactly q
        nonzero entries (checked), so every amplitude <psi_{s'}| X^x Z^z
        |psi_s> of the shift, over all z and all message pairs, is a
        q-term sum over the support of psi_s: one batched product with a
        phase stack built once per scan.  Every s' != s is weighed.
    Random mode samples cells from the seeded stream instead, encoding
    every message once per scan.
    """
    q, d = params.q, params.d
    if exhaustive:
        n_cells = (params.dim ** 2 - 1) * params.num_messages
        if n_cells > EXHAUSTIVE_CELL_BUDGET:
            raise BudgetExceeded(f"{n_cells} cells exceed budget {EXHAUSTIVE_CELL_BUDGET}")
        best_prob, best_key, max_mismatch, max_roots = _exhaustive_scan(params, cross_check)
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
        best_prob, best_key, max_mismatch, max_roots = _random_scan(params, cells, cross_check)
        checked = len(cells)
    # each cell's amplitude is a sum of at most max_roots unit phases over q
    if best_prob > (max_roots / q) ** 2 * (1 + 1e-12):
        raise ConsistencyError(f"max_prob {best_prob} exceeds (max_root_count/q)^2 "
                               f"with max_root_count = {max_roots}")

    witness_s, witness_x, witness_z = best_key
    return {
        "mode": "exhaustive" if exhaustive else "random",
        "params": {"q": q, "d": d},
        "bound": ((d + 1) / q) ** 2,
        "bound_exact": Fraction((d + 1) ** 2, q ** 2),
        "max_prob": best_prob,
        "max_root_count": max_roots,
        "witness": {"s": list(witness_s), "x": list(witness_x), "z": list(witness_z)},
        "pairs_checked": checked,
        "dense_cross_check": bool(cross_check),
        "max_dense_mismatch": max_mismatch if cross_check else None,
        "bound_satisfied": max_roots <= d + 1,
    }
