"""The explicit polynomial-tag qudit code: its encoder, and one security
scan against the generalized Pauli family that computes decoder overlaps
by exact root counting and cross-checks them densely.

Layout conventions (fixed here, used by every routine):
  * a message is s = (s_1, ..., s_d) in F_q^d;
  * the tag map is f(s, r) = sum_i s_i r^i + r^{d+2}, held as the
    coefficient row [0, s_1..s_d, 0, 1] and evaluated by `field.fq_values`;
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
which has degree between 1 and d+1 whenever x_{1:d} != 0.  Per shift x,
one `field.taylor_shift` product gives the coefficients of all M
difference polynomials, their degrees are checked (ConsistencyError
otherwise), and one evaluation gives their root masks.  By the
triangle inequality the squared amplitude is at most (|roots|/q)^2, so
counting roots in integers certifies the bound ((d+1)/q)^2 exactly.  The
dense cross-check never reads root sets: each codeword has q nonzero
entries, so every amplitude is a q-term sum over the codeword's support.
Exhaustive and random mode share one scan loop over (shift, message)
groups of cells and differ only in the groups they hand it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded, ConsistencyError, InvalidParams, OutOfRange
from .field import fq_values, is_prime, taylor_shift
from .haar import child_generator
from .linalg import MAX_DIM
from .pauli import PauliLabel, kron_digits, omega_powers

EXHAUSTIVE_CELL_BUDGET = 10 ** 8
MAX_TRIALS = 10 ** 6     # random mode's (trials, 2n+d) cell array stays under 272 MB at d=10
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
        if not 2 <= q <= MAX_DIM:
            raise InvalidParams(f"q = {q} is outside [2, {MAX_DIM}]")
        if d < 1:
            raise InvalidParams("d must be >= 1")
        if d + 2 >= MAX_DIM.bit_length() or q ** (d + 2) > MAX_DIM:
            raise InvalidParams(f"dense dimension q^(d+2) exceeds {MAX_DIM}")
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

    def state_index(self, v: Sequence[int]) -> int:
        """Index of a basis tuple: its digits, register 1 most significant."""
        index = 0
        for val in v:
            index = index * self.q + val
        return index


def _tag_coeffs(params: QamdParams, messages) -> np.ndarray:
    """The tag polynomials f(s, .) of `messages` as (M, d+3) coefficient
    rows [0, s_1..s_d, 0, 1]."""
    coeffs = np.zeros((len(messages), params.d + 3), dtype=np.int64)
    coeffs[:, 1:params.d + 1] = np.reshape(messages, (len(messages), params.d))
    coeffs[:, -1] = 1
    return coeffs


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
    tags = fq_values(_tag_coeffs(params, [s]), params.q)[0]
    for r in range(params.q):
        state[params.state_index(s + (r, tags[r]))] = amp
    return QamdCodeword(params=params, message=s, state=state)


def _root_masks(params: QamdParams, coeffs: np.ndarray, x: tuple[int, ...]) -> np.ndarray:
    """(M, q) root masks of f(s + x_{1:d}, r + x_{d+1}) - f(s, r) - x_{d+2}
    for the messages s of the tag coefficient rows `coeffs`.

    All M difference polynomials come from one Taylor-shift product; when
    x_{1:d} != 0 each is checked to have degree in [1, d+1].
    """
    q, d = params.q, params.d
    target = coeffs.copy()
    target[:, 1:d + 1] += x[:d]
    diff = target @ taylor_shift(d + 3, x[d], q) - coeffs
    diff[:, 0] -= x[d + 1]
    diff %= q
    if any(x[:d]):
        nonzero = diff != 0
        degree = np.where(nonzero.any(axis=1), d + 2 - np.argmax(nonzero[:, ::-1], axis=1), -1)
        bad = np.flatnonzero((degree < 1) | (degree > d + 1))
        if bad.size:
            s = tuple(int(v) for v in coeffs[bad[0], 1:d + 1])
            raise ConsistencyError(
                f"difference polynomial for s={s}, x={x} has degree {degree[bad[0]]}, "
                f"outside [1, {d + 1}]"
            )
    return fq_values(diff, q) == 0


def _support_sum_route(params: QamdParams, psi: np.ndarray):
    """The scan's dense cross-check: a function dense(perm, mi, zs) giving
    sum_{s' != s} |<psi_{s'}| X^x Z^z |psi_s>|^2 for message s = rank mi at
    the clock words of ranks zs (at most dim of them), from the codeword
    columns psi alone; perm is the row map of the shift word X^x.

    Each codeword has exactly q nonzero entries j (checked here), so the
    amplitude is sum_j omega^{<z, v_j>} conj(psi_{s'}[perm(j)]) psi_s[j]:
    the phase stack P[s] (z by j) is built once, and a call gathers C
    (j by s') for one product P[s][zs] @ C.
    """
    q = params.q
    supports = [np.flatnonzero(column) for column in psi.T]
    if any(support.size != q for support in supports):
        raise ConsistencyError(f"codeword support sizes {[v.size for v in supports]} != {q}")
    supp = np.array(supports)                                       # (M, q)
    digits, w_table = kron_digits(q, params.block_length), omega_powers(q)
    phase = np.empty((len(supports), params.dim, q), dtype=np.complex128)
    for mi, support in enumerate(supports):     # one message at a time: no (M, dim, q) ints
        phase[mi] = w_table[(digits @ digits[support].T) % q]
    weight = np.take_along_axis(psi.T, supp, axis=1)[:, :, np.newaxis]
    # filled in place on every call: fresh arrays of this size would be
    # mapped and page-faulted anew each time, which costs more than the product
    amps_buf = np.empty((params.dim, len(supports)), dtype=np.complex128)
    power_buf, imag_buf = np.empty(amps_buf.shape), np.empty(amps_buf.shape)

    def dense(perm: np.ndarray, mi: int, zs) -> np.ndarray:
        rows = phase[mi, zs]
        n = len(rows)
        amps = np.matmul(rows, psi[perm[supp[mi]]].conj() * weight[mi], out=amps_buf[:n])
        power = np.add(np.square(amps.real, out=power_buf[:n]),
                       np.square(amps.imag, out=imag_buf[:n]), out=power_buf[:n])  # [z, s']
        return power.sum(axis=1) - power[:, mi]

    return dense


# ---------------------------------------------------------------------------
# security scan
# ---------------------------------------------------------------------------

def _scan(params: QamdParams, groups, cross_check: bool):
    """(max probability, witness key, worst dense mismatch, max root count,
    cells checked) over `groups`: (x rank, s rank, z ranks) triples sorted
    by x rank, the z ranks increasing (a slice or an index array) and at
    most dim of them."""
    q, d = params.q, params.d
    messages = params.messages()
    digits = kron_digits(q, params.block_length)   # row k: the exponent vector of rank k
    w_table = omega_powers(q)
    coeffs = _tag_coeffs(params, messages)
    tag_tables = fq_values(coeffs, q)                                   # f(s, r) per (s, r)
    base = (digits[:, :d] @ np.array(messages, dtype=np.intp).T) % q   # <z_{1:d}, s> per (z, s)
    if cross_check:
        dense = _support_sum_route(
            params, np.column_stack([encode(m, params).state for m in messages]))
    no_clock = (0,) * params.block_length

    best_prob, best_key, max_mismatch, max_roots, checked = -1.0, None, 0.0, 0, 0
    shift = None
    for xi, mi, zs in groups:
        if xi != shift:
            shift, x = xi, tuple(int(v) for v in digits[xi])
            perm, _ = PauliLabel(q, x, no_clock).action()
            # x_{1:d} = 0 moves no mass off s
            masks = _root_masks(params, coeffs, x) if any(x[:d]) else None
        s, z_rows = messages[mi], digits[zs]
        sym = np.zeros(len(z_rows))
        if masks is not None:
            roots = np.flatnonzero(masks[mi])      # ascending r, as the per-cell phase sum
            max_roots = max(max_roots, len(roots))
            tags, s_base = tag_tables[mi], base[zs, mi]
            amp = np.zeros(len(z_rows), dtype=np.complex128)
            for r in roots:
                amp += w_table[(s_base + z_rows[:, d] * r + z_rows[:, d + 1] * tags[r]) % q]
            amp = amp / q
            sym = np.hypot(amp.real, amp.imag) ** 2
        checked += len(z_rows)
        if cross_check:
            gap = np.abs(sym - dense(perm, mi, zs))
            max_mismatch = max(max_mismatch, float(gap.max()))
            if max_mismatch > DENSE_MATCH_TOL:     # earlier groups would have raised
                z = tuple(int(v) for v in z_rows[np.argmax(gap)])
                raise ConsistencyError(
                    f"symbolic/dense mismatch {max_mismatch} at s={s}, x={x}, z={z}")
        zi = int(np.argmax(sym))            # the first maximum: the smallest z
        p, key = float(sym[zi]), (s, x, tuple(int(v) for v in z_rows[zi]))
        if p > best_prob or (p == best_prob and key < best_key):
            best_prob, best_key = p, key
    return best_prob, best_key, max_mismatch, max_roots, checked


def _sampled_groups(params: QamdParams, trials: int, seed: int):
    """The scan groups of `trials` cells drawn from the seeded stream, each
    drawn cell kept, duplicates too."""
    q, n, m = params.q, params.block_length, params.num_messages
    rng = child_generator(seed, 0)
    cells = np.empty((trials, 2 * n + params.d), dtype=np.intp)    # digits of x, s, z
    drawn = 0
    while drawn < trials:
        xz = rng.integers(0, q, size=2 * n)
        if xz.any():
            cells[drawn] = np.concatenate((xz[:n], rng.integers(0, q, size=params.d), xz[n:]))
            drawn += 1
    # one base-q number per cell: sorting it sorts the cells by (x, s, z)
    xs, z = np.divmod(np.sort(cells @ q ** np.arange(cells.shape[1] - 1, -1, -1)), params.dim)
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    for start, stop in zip(starts, np.r_[starts[1:], trials]):
        xi, mi = divmod(int(xs[start]), m)
        for first in range(start, stop, params.dim):    # repeats can exceed dim rows
            yield xi, mi, z[first:min(first + params.dim, stop)]


def security_scan(params: QamdParams, exhaustive: bool = True,
                  trials: Optional[int] = None, seed: int = 0,
                  cross_check: bool = True) -> dict:
    """Scan tampering words against every message and report the maximum
    aggregate wrong-decode probability, its witness, and the theorem
    bound ((d+1)/q)^2.

    In exhaustive mode every ((x, z) != 0, s) cell is visited; random
    mode visits `trials` cells drawn from the seeded stream, duplicates
    included.  With cross_check each cell's symbolic probability is
    compared to the dense state-vector simulation and the worst mismatch
    is reported (the scan raises ConsistencyError above DENSE_MATCH_TOL).
    The witness is the smallest (s, x, z) among the cells at the maximum.
    The certificate is exact: `max_root_count` is the largest root set of
    a scanned (s, x) group with x_{1:d} != 0, `bound_satisfied` is the
    integer test max_root_count <= d + 1, which bounds every cell by the
    rational `bound_exact`, and the float `max_prob` is checked against
    (max_root_count/q)^2 up to rounding.

    Both modes run one scan loop over groups: a shift x, a message s and
    the clock words z of the cells that share them (every z in exhaustive
    mode; the sampled ones, sorted, in random mode).  The root masks are
    computed once per shift; per group the root set is read from its
    message's mask in ascending order, and each root adds its
    root-of-unity phase for every z at once, in the per-cell phase sum's
    root order and division by q.  hypot is the modulus Python's abs() takes (np.abs differs in
    the last bit), and the array square v * v equals the scalar pow(v, 2)
    for every amplitude an admissible (q, d) can produce (a test
    enumerates them), so every probability has the per-cell route's
    bits.  The dense route is one `_support_sum_route` product per group.
    """
    q, d = params.q, params.d
    if exhaustive:
        n_cells = (params.dim ** 2 - 1) * params.num_messages
        if n_cells > EXHAUSTIVE_CELL_BUDGET:
            raise BudgetExceeded(f"{n_cells} cells exceed budget {EXHAUSTIVE_CELL_BUDGET}")
        groups = ((xi, mi, slice(1 if xi == 0 else 0, None))    # (x, z) = 0 is no tampering
                  for xi in range(params.dim) for mi in range(params.num_messages))
    else:
        if not trials or not 1 <= trials <= MAX_TRIALS:
            raise OutOfRange(f"random mode needs a trial count in [1, {MAX_TRIALS}], "
                             f"got {trials}")
        groups = _sampled_groups(params, trials, seed)
    best_prob, best_key, max_mismatch, max_roots, checked = _scan(params, groups, cross_check)
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
