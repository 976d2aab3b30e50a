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
    whose row map the dense cross-check reads as `pauli.shift_rows(q, x)`,
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
entries, so every amplitude is a q-term sum over the codeword's support,
and only the codewords that the shifted support meets are multiplied.
Exhaustive and random mode share one scan loop with one vectorized pass
per shift x over a block of cells, and differ only in the blocks they
hand it.
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
from .pauli import kron_digits, omega_powers, shift_rows

EXHAUSTIVE_CELL_BUDGET = 10 ** 8
MAX_TRIALS = 10 ** 6     # random mode keeps one int64 key per cell: 8 MB at the cap
DRAW_WINDOW = 2 ** 14    # draws per generator call in random mode
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

    All M difference polynomials come from one product with the Taylor
    shift matrix taylor_shift(d+3, x_{d+1}, q); when x_{1:d} != 0 each is
    checked to have degree in [1, d+1].
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
    """The scan's dense cross-check: a function dense(perm, cm, cz) giving
    sum_{s' != s} |<psi_{s'}| X^x Z^z |psi_s>|^2 for a block of cells, the
    message ranks cm ((G, 1)) against the clock ranks cz ((G, n) or
    (1, n)), from the codeword columns psi alone; perm is the row map of
    the shift word X^x.

    Each codeword has exactly q nonzero entries j (checked here), so the
    amplitude is sum_j omega^{<z, v_j>} C[j, s'] with the support matrix
    C[j, s'] = conj(psi_{s'}[perm(j)]) psi_s[j].  The phase stack P[s]
    (z by j) is built once; a call builds C once per message of the block
    and keeps its receiving columns s' != s, the nonzero ones.  Slot k
    takes each message's k-th receiving column in one stacked product
    P[s][cz] @ C[:, s'].  A correct code has at most one receiver per
    message; a codeword that leaks into two fills a second slot.  The rows
    P[s][cz] are gathered again only when the call's (cm, cz) arrays are not
    those of the last call, so the exhaustive scan, which hands every shift
    x != 0 the same block, gathers them once.
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
    last = [None, None, None]     # the block (cm, cz) of the last call and its rows P[cm][cz]

    def dense(perm: np.ndarray, cm: np.ndarray, cz: np.ndarray) -> np.ndarray:
        first = np.concatenate(([True], cm[1:, 0] != cm[:-1, 0]))    # cm is sorted
        present, at = cm[first, 0], np.cumsum(first)[:, np.newaxis] - 1
        support = psi[perm[supp[present]]].conj() * weight[present]  # C per message: (P, q, M)
        receiving = (support != 0).any(axis=1)
        receiving[np.arange(len(present)), present] = False          # s' = s is no wrong decode
        slots = np.argsort(~receiving, axis=1, kind="stable")         # receivers first, ascending
        count = receiving.sum(axis=1)[at]                             # (G, 1)
        if cm is not last[0] or cz is not last[1]:
            last[:] = cm, cz, phase[cm, cz]                           # (G, n, q)
        rows = last[2]
        power = np.zeros(rows.shape[:2])
        for k in range(count.max()):
            column = support[np.arange(len(present)), :, slots[:, k]][at]     # (G, 1, q)
            amps = np.matmul(rows, column.swapaxes(1, 2))[:, :, 0]
            np.add(power, np.square(amps.real) + np.square(amps.imag), out=power, where=count > k)
        return power

    return dense


# ---------------------------------------------------------------------------
# security scan
# ---------------------------------------------------------------------------

def _cell(messages, digits, x, cm, cz, index):
    """(s, x, z) of the cell at flat `index` of the block (cm, cz), where cz
    holds one row per message row or one row for all of them."""
    g, j = divmod(int(index), cz.shape[1])
    return messages[cm[g, 0]], x, tuple(int(v) for v in digits[cz[g % len(cz), j]])


def _scan(params: QamdParams, blocks, cross_check: bool):
    """(max probability, witness key, worst dense mismatch, max root count,
    cells checked) over `blocks`: one (x rank, cm, cz) per shift, x ranks
    increasing, whose cells pair the message ranks cm ((G, 1), increasing)
    with the clock ranks cz ((G, n) or (1, n)), so that the cells in
    row-major order run in increasing (s, z)."""
    q, d = params.q, params.d
    messages = params.messages()
    digits = kron_digits(q, params.block_length)   # row k: the exponent vector of rank k
    w_table = omega_powers(q)
    coeffs = _tag_coeffs(params, messages)
    tag_tables = fq_values(coeffs, q)                                   # f(s, r) per (s, r)
    base = (np.array(messages, dtype=np.intp) @ digits[:, :d].T) % q   # <z_{1:d}, s> per (s, z)
    if cross_check:
        dense = _support_sum_route(
            params, np.column_stack([encode(m, params).state for m in messages]))

    best_prob, best_key, max_mismatch, max_roots, checked = -1.0, None, 0.0, 0, 0
    for xi, cm, cz in blocks:
        x = tuple(int(v) for v in digits[xi])
        sym = np.zeros(np.broadcast_shapes(cm.shape, cz.shape))
        if any(x[:d]):                         # x_{1:d} = 0 moves no mass off s
            masks = _root_masks(params, coeffs, x)
            count = masks.sum(axis=1)[cm]                                  # (G, 1)
            roots = np.argsort(~masks, axis=1, kind="stable")[cm[:, 0]]    # ascending r first
            max_roots = max(max_roots, int(count.max()))
            head, z_clock, z_tag = base[cm, cz], digits[cz, d], digits[cz, d + 1]
            amp = np.zeros(sym.shape, dtype=np.complex128)
            for k in range(count.max()):       # the k-th root of each cell's message
                r = roots[:, k:k + 1]
                np.add(amp, w_table[(head + z_clock * r + z_tag * tag_tables[cm, r]) % q],
                       out=amp, where=count > k)
            amp = amp / q
            sym = np.hypot(amp.real, amp.imag) ** 2
        checked += sym.size
        if cross_check:
            perm = shift_rows(q, x)
            gap = np.abs(sym - dense(perm, cm, cz))
            max_mismatch = max(max_mismatch, float(gap.max()))
            if max_mismatch > DENSE_MATCH_TOL:     # earlier shifts would have raised
                s, _, z = _cell(messages, digits, x, cm, cz, np.argmax(gap))
                raise ConsistencyError(
                    f"symbolic/dense mismatch {max_mismatch} at s={s}, x={x}, z={z}")
        zi = np.argmax(sym)                 # the first maximum: the smallest (s, z)
        p, key = float(sym.flat[zi]), _cell(messages, digits, x, cm, cz, zi)
        if p > best_prob or (p == best_prob and key < best_key):
            best_prob, best_key = p, key
    return best_prob, best_key, max_mismatch, max_roots, checked


def _sampled_blocks(params: QamdParams, trials: int, seed: int):
    """The scan blocks of `trials` cells drawn from the seeded stream, each
    drawn cell kept, duplicates too: per shift, its cells sorted by (s, z)
    as (G, 1) columns of message and clock ranks.

    A draw is 2n digits (x, z), redrawn while all are 0, then d digits s.
    Bounded integers take the generator's 32-bit words one by one, so one
    call per window of draws yields the digits of one call per draw; a run
    of 2n zero digits where a draw starts is a zero (x, z), and the next
    draw starts after it.  A cell is kept as one base-q key
    ((x M + s) dim + z).
    """
    q, n, d, m = params.q, params.block_length, params.d, params.num_messages
    width = 2 * n + d
    place = q ** np.r_[np.arange(width - 1, n + d - 1, -1), np.arange(n - 1, -1, -1),
                       np.arange(n + d - 1, n - 1, -1)]              # digit weights of x, z, s
    rng = child_generator(seed, 0)
    keys, drawn, stream = np.empty(trials, dtype=np.int64), 0, np.empty(0, dtype=np.int64)
    while drawn < trials:
        stream = np.r_[stream, rng.integers(0, q, size=min(trials - drawn, DRAW_WINDOW) * width)]
        nonzero = np.r_[0, np.cumsum(stream != 0)]
        starts, at = [], 0
        for p in np.flatnonzero(nonzero[2 * n:] == nonzero[:-2 * n]):   # 2n zero digits from p
            if p >= at and (p - at) % width == 0:
                starts.append(np.arange(at, p, width))
                at = p + 2 * n
        end = at + (len(stream) - at) // width * width
        starts = np.concatenate(starts + [np.arange(at, end, width)])[:trials - drawn]
        keys[drawn:drawn + starts.size] = stream[starts[:, np.newaxis] + np.arange(width)] @ place
        drawn, stream = drawn + starts.size, stream[end:]
    keys.sort()
    bounds = np.searchsorted(keys, np.arange(params.dim + 1) * (m * params.dim))
    for xi in np.flatnonzero(np.diff(bounds)):
        cm, cz = np.divmod(keys[bounds[xi]:bounds[xi + 1], np.newaxis] % (m * params.dim),
                           params.dim)
        yield int(xi), cm, cz


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
    a scanned (s, x) pair with x_{1:d} != 0, `bound_satisfied` is the
    integer test max_root_count <= d + 1, which bounds every cell by the
    rational `bound_exact`, and the float `max_prob` is checked against
    (max_root_count/q)^2 up to rounding.

    Both modes run one scan loop with one pass per shift x over a block of
    cells: every message against every clock word z in exhaustive mode,
    the shift's sampled cells sorted by (s, z) in random mode.  The root
    masks are computed once per shift; root slot k adds, for every cell at
    once, the root-of-unity phase of the k-th root (ascending r) of the
    cell's message, so each cell sums the per-cell phase sum's terms in
    its order before the division by q.  hypot is the modulus Python's
    abs() takes (np.abs differs in the last bit), and the array square
    v * v equals the scalar pow(v, 2) for every amplitude an admissible
    (q, d) can produce (a test enumerates them), so every probability has
    the per-cell route's bits.  The dense route is one `_support_sum_route`
    call per shift, whose products read only the receiving columns.
    """
    q, d = params.q, params.d
    if exhaustive:
        n_cells = (params.dim ** 2 - 1) * params.num_messages
        if n_cells > EXHAUSTIVE_CELL_BUDGET:
            raise BudgetExceeded(f"{n_cells} cells exceed budget {EXHAUSTIVE_CELL_BUDGET}")
        every = np.arange(params.num_messages)[:, np.newaxis]
        clocks = np.arange(params.dim)[np.newaxis]          # one block object for every x != 0
        blocks = ((xi, every, clocks[:, 1:] if xi == 0 else clocks)
                  for xi in range(params.dim))              # (x, z) = 0 is no tampering
    else:
        if not trials or not 1 <= trials <= MAX_TRIALS:
            raise OutOfRange(f"random mode needs a trial count in [1, {MAX_TRIALS}], "
                             f"got {trials}")
        blocks = _sampled_blocks(params, trials, seed)
    best_prob, best_key, max_mismatch, max_roots, checked = _scan(params, blocks, cross_check)
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
