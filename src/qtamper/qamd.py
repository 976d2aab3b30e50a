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
    whose row map the dense cross-check reads through `pauli.shift_rows`,
    and every phase omega^k is read from `pauli.omega_powers(q)`.

For a tampering word X^x Z^z the only codeword that can receive mass is
s' = s + x_{1:d}, with amplitude (1/q) sum_r omega^{<z, (s, r, f(s, r))>}
over the root set R(s, x) of f(s + x_{1:d}, r + x_{d+1}) - f(s, r) - x_{d+2},
of degree in [1, d+1] whenever x_{1:d} != 0.  Its term <z_{1:d}, s> is a
global phase, so the symbolic route computes quotient cells (x, s, a, b),
(a, b) = (z_{d+1}, z_{d+2}), and a full cell reads its quotient cell.  One
product with the `field.taylor_shifts` stack gives the difference
polynomials of a block's (x, s) pairs, their degrees are checked
(ConsistencyError otherwise), and one evaluation gives their root masks.
A probability depends only on the exponents a r + b f(s, r) of its terms,
so each cell reads it from a table over them.  Counting roots in integers
certifies the bound ((d+1)/q)^2 exactly, by the triangle inequality.  Two
identities certify the quotient: the pairs with x_{1:d} != 0 hold
M(M-1)q^2 roots (one shift joins each two support points of distinct
codewords), and a pair's q^2 quotient cells sum to |R(s, x)| (Parseval:
the points (r, f(s, r)) are distinct).
The dense cross-check never reads root sets: each codeword has q nonzero
entries, so every amplitude is a q-term sum over its support, and only
the codewords that the shifted support meets are multiplied.  Both modes
hand the scan loop bounded windows of cells: exhaustive mode windows of
whole shifts, random mode windows of sorted draws.  A window never changes
a report's bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, InvalidParams, OutOfRange
from .field import fq_values, is_prime, taylor_shifts
from .haar import child_generator
from .linalg import MAX_DIM
from .pauli import kron_digits, omega_powers, shift_rows

MAX_TRIALS = 10 ** 6     # random mode keeps one int64 key per cell (8 MB at the cap) and
DRAW_WINDOW = 2 ** 14    # draws them in windows of this many per generator call, then
SCAN_WINDOW = 2 ** 14    # scans them in windows of SCAN_WINDOW // q cells (of q root slots);
                         # exhaustive mode scans windows of SCAN_WINDOW // (M q^2) whole shifts
DENSE_MATCH_TOL = 1e-9
DENSE_SAMPLE = 1024      # full cells drawn for the dense cross-check beside the quotient cells
PARSEVAL_TOL = 1e-12


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


def encode(s: Sequence[int], params: QamdParams) -> np.ndarray:
    """Codeword (1/sqrt q) sum_r |s, r, f(s, r)> as a dense state vector."""
    s = tuple(v % params.q for v in s)
    if len(s) != params.d:
        raise InvalidParams(f"message length {len(s)} != d = {params.d}")
    amp = 1.0 / np.sqrt(params.q)
    state = np.zeros(params.dim, dtype=np.complex128)
    tags = fq_values(_tag_coeffs(params, [s]), params.q)[0]
    for r in range(params.q):
        state[params.state_index(s + (r, tags[r]))] = amp
    return state


def _root_masks(params: QamdParams, coeffs: np.ndarray, x) -> np.ndarray:
    """(P, q) root masks of f(s + x_{1:d}, r + x_{d+1}) - f(s, r) - x_{d+2}
    for the tag coefficient rows `coeffs` of P messages s and the shift
    digit rows x ((P, d+2), or one row for all), all with x_{1:d} != 0: one
    product with the stack taylor_shifts(d+3, q) shifts every target row by
    every a, and each row keeps its a = x_{d+1}, so no (P, d+3, d+3) gather
    is made.  Each difference is checked to have degree in [1, d+1]."""
    q, d = params.q, params.d
    x = np.asarray(x, dtype=np.int64).reshape(-1, d + 2)
    target = coeffs.copy()
    target[:, 1:d + 1] += x[:, :d]
    moved = target @ taylor_shifts(d + 3, q)                      # (q, P, d+3)
    diff = moved[x[:, d], np.arange(len(target))] - coeffs
    diff[:, 0] -= x[:, d + 1]
    diff %= q
    nonzero = diff != 0
    degree = np.where(nonzero.any(axis=1), d + 2 - np.argmax(nonzero[:, ::-1], axis=1), -1)
    bad = np.flatnonzero((degree < 1) | (degree > d + 1))
    if bad.size:
        s, shift = coeffs[bad[0], 1:d + 1].tolist(), x[bad[0] % len(x)].tolist()
        raise ConsistencyError(f"difference polynomial for s={tuple(s)}, x={tuple(shift)} has "
                               f"degree {degree[bad[0]]}, outside [1, {d + 1}]")
    return fq_values(diff, q) == 0


def _key_probabilities(q: int, width: int) -> np.ndarray:
    """The probability of every key sum_k t_k (q+1)^k, k < width, of base-q+1
    digits t_k: the phases omega^(t_k - 1) of its digits t_k > 0 added to
    zero in ascending k, the sum divided by q, and its modulus squared."""
    t = np.arange((q + 1) ** width)[:, np.newaxis] // (q + 1) ** np.arange(width) % (q + 1)
    w_table, amp = omega_powers(q), np.zeros(len(t), dtype=np.complex128)
    for k in range(width):
        np.add(amp, w_table[t[:, k] - 1], out=amp, where=t[:, k] > 0)
    amp = amp / q
    return np.hypot(amp.real, amp.imag) ** 2


def _block_tables(build, m: int):
    """A function table(ps, at, cz) giving build(group, cz) for a block's
    messages `group`, whose row g % len(group) serves the block's row g: a
    block with one clock row runs through whole shifts of ps[:M], whose
    table is kept while ps[:M] and cz repeat; any other gets one per row."""
    last = [None, None, None]

    def table(ps, at, cz):
        shared = len(cz) == 1
        group = ps[:min(m, len(ps))] if shared else ps[at[:, 0]]
        if not shared or cz is not last[1] or not np.array_equal(group, last[0]):
            last[:] = group, cz, build(group, cz)
        return last[2]

    return table


def _root_sum_route(params: QamdParams):
    """The scan's symbolic route: a function symbolic(px, ps, at, cz) giving
    the probabilities of a block of cells (see `_scan`) and the root count
    of each of its (x, s) pairs.

    Up to the global phase omega^{<z_{1:d}, s>}, a cell's amplitude is
    (1/q) sum_r omega^{a r + b f(s, r)} over the roots r of its pair's
    difference polynomial in ascending r, where a q + b is its clock rank
    mod q^2.  A cell's key is sum_k t_k (q+1)^k over its exponent digits
    t_k = 1 + the k-th exponent (0: no k-th root), read from one
    (M, q+1, q^2) table, and `_key_probabilities` gives its probability;
    both tables are built once per scan.
    """
    q, d = params.q, params.d
    digits = kron_digits(q, params.block_length)
    coeffs = _tag_coeffs(params, params.messages())
    (a, b), slots, tables = np.divmod(np.arange(q * q), q), np.arange(q), {}
    exponent = np.zeros((len(coeffs), q + 1, q * q), dtype=np.intp)   # [s, r, a q + b]; q: none
    exponent[:, :q] = 1 + (np.outer(slots, a) + fq_values(coeffs, q)[..., np.newaxis] * b) % q
    moves = digits[:, :d].any(axis=1)          # x_{1:d} = 0 moves no mass off s

    def symbolic(px, ps, at, cz):
        moving, masks = np.flatnonzero(moves[px]), np.zeros((len(ps), q), dtype=bool)
        masks[moving] = _root_masks(params, coeffs[ps[moving]], digits[px[moving]])
        counts = masks.sum(axis=1)
        roots = np.sort(np.where(masks, slots, q), axis=1)[at[:, 0]]   # ascending r, then q: none
        width, message, clock = int(counts.max()), ps[at], cz % (q * q)
        key = exponent[message, roots[:, :1], clock]
        for k in range(1, width):             # the k-th root of each cell's message, or none
            key += exponent[message, roots[:, k:k + 1], clock] * (q + 1) ** k
        if width not in tables:
            tables[width] = _key_probabilities(q, width)
        return tables[width][key], counts

    return symbolic


def _support_sum_route(params: QamdParams, states):
    """The scan's dense cross-check: a function dense(px, ps, at, cz) giving
    sum_{s' != s} |<psi_{s'}| X^x Z^z |psi_s>|^2 for a block of cells (see
    `_scan`) from the codeword state vectors `states` alone, one per
    message in order, each read once.

    Each codeword has exactly q nonzero entries j (checked here), and only
    those entries and their amplitudes are kept.  The amplitude is
    sum_j omega^{<z, v_j>} C[j, s'] with the support column
    C[j, s'] = conj(psi_{s'}[v_j + x]) psi_s[j], nonzero only for the
    receivers s' whose support the shifted support of s meets.  The
    codewords nonzero at each basis index, and their amplitudes there, are
    listed once; a call shifts the q support rows of each (x, s) pair by
    `pauli.shift_rows`, and slot k multiplies each pair's k-th receiver
    s' != s (ascending) in one stacked product with the phase rows
    P[s][z, j] = omega^{<z, v_j>}: a codeword that leaks into two receivers
    fills a second slot.  A block with one clock row holds whole shifts of
    the messages ps[:M]; its rows P[s][cz] do not depend on x, so
    `_block_tables` builds them once for ps[:M], and one product broadcasts
    them over the block's shifts.  Any other block gets the phase row of
    each row's own clock word.
    """
    q, dim = params.q, params.dim
    supports, weights = [], []
    for state in states:
        support = np.flatnonzero(state)
        supports.append(support)
        weights.append(state[support])
    if any(support.size != q for support in supports):
        raise ConsistencyError(f"codeword support sizes {[v.size for v in supports]} != {q}")
    m, supp, weight = len(supports), np.array(supports), np.array(weights)    # (M, q)
    digits, w_table = kron_digits(q, params.block_length), omega_powers(q)
    order = np.argsort(supp, axis=None, kind="stable")                # by index, then message
    index = supp.flat[order]
    slot = np.arange(index.size) - np.searchsorted(index, index)      # among the index's codewords
    owners = np.full((dim, slot.max() + 1), m)                        # m: no codeword
    owners[index, slot] = order // q
    amplitude = np.zeros(owners.shape, dtype=np.complex128)
    amplitude[index, slot] = weight.flat[order]
    phase_rows = _block_tables(
        lambda group, cz: w_table[(digits[cz] @ digits[supp[group]].swapaxes(1, 2)) % q], m)

    def dense(px: np.ndarray, ps: np.ndarray, at: np.ndarray, cz: np.ndarray) -> np.ndarray:
        shifted = shift_rows(q, digits[px][:, np.newaxis], digits[supp[ps]])    # (P, q)
        owned = owners[shifted]                                     # (P, q, slots)
        owned[owned == ps[:, np.newaxis, np.newaxis]] = m           # s' = s is no wrong decode
        flat = owned.reshape(len(ps), -1)
        receivers = [flat.min(axis=1)]                              # each once, ascending
        while (receivers[-1] < m).any():
            receivers.append(np.where(flat > receivers[-1][:, np.newaxis], flat, m).min(axis=1))
        power = np.zeros((len(at), cz.shape[1]))
        if len(receivers) == 1:
            return power
        phase, amplitudes = phase_rows(ps, at, cz), amplitude[shifted]      # (R, n or 1, q)
        for receiver in receivers[:-1]:                             # m: no k-th receiver, masked
            column = (np.where(owned == receiver[:, np.newaxis, np.newaxis], amplitudes, 0)
                      .sum(axis=2).conj() * weight[ps])
            # (R, n or 1, q) rows against (G / R, R, q, 1) columns: R = M, or R = G
            amps = np.matmul(phase, column[at].reshape(-1, len(phase), q, 1)).reshape(len(at), -1)
            real, imag = np.square(amps.real, out=amps.real), np.square(amps.imag, out=amps.imag)
            np.add(power, np.add(real, imag, out=real), out=power, where=(receiver < m)[at])
        return power

    return dense


# ---------------------------------------------------------------------------
# security scan
# ---------------------------------------------------------------------------

def _cell(messages, digits, px, ps, at, cz, index):
    """(s, x, z) of the cell at flat `index` of the block (px, ps, at, cz)."""
    g, j = divmod(int(index), cz.shape[1])
    return (messages[ps[at[g, 0]]], tuple(int(v) for v in digits[px[at[g, 0]]]),
            tuple(int(v) for v in digits[cz[g % len(cz), j]]))


def _scan(params: QamdParams, blocks, cross_check: bool, sample=()):
    """(max probability, witness key, worst dense mismatch, max root count,
    cells checked, root count total, worst Parseval gap) over `blocks`;
    with cross_check the dense route also meets the blocks `sample`, which
    count in nothing else.  A block (px, ps, at, cz) holds the shift and
    message ranks px, ps ((P,)) of its (x, s) pairs, each row's pair at
    ((G, 1)) and the clock ranks cz ((G, n), or (1, n) for every row), so
    ordered that the cells in row-major order run in increasing (x, s, z).
    A block with one clock row has one row per pair and holds whole shifts,
    each against the messages ps[:M] in the same order.  A row's Parseval
    gap is |the sum of its probabilities - its pair's root count|."""
    messages = params.messages()
    digits = kron_digits(params.q, params.block_length)   # row k: the exponent vector of rank k
    symbolic = _root_sum_route(params)
    if cross_check:
        dense = _support_sum_route(params, (encode(m, params) for m in messages))

    def mismatch(px, ps, at, cz, sym):
        gap = dense(px, ps, at, cz)
        worst = float(np.abs(np.subtract(sym, gap, out=gap), out=gap).max())
        if worst > DENSE_MATCH_TOL:
            s, x, z = _cell(messages, digits, px, ps, at, cz, np.argmax(gap))
            raise ConsistencyError(f"symbolic/dense mismatch {worst} at s={s}, x={x}, z={z}")
        return worst

    best_prob, best_key, max_mismatch, max_roots, checked = -1.0, None, 0.0, 0, 0
    root_total, parseval = 0, 0.0
    for px, ps, at, cz in blocks:
        sym, counts = symbolic(px, ps, at, cz)
        cm, checked = ps[at], checked + sym.size
        max_roots, root_total = max(max_roots, int(counts.max())), root_total + int(counts.sum())
        parseval = max(parseval, float(np.abs(sym.sum(axis=1) - counts[at[:, 0]]).max()))
        if cross_check:
            max_mismatch = max(max_mismatch, mismatch(px, ps, at, cz, sym))
        zi = np.argmax(sym)           # first in (x, s, z); a later shift may hold a smaller s
        p = float(sym.flat[zi])
        if p >= best_prob and px[0] != px[-1] and cm.flat[zi // sym.shape[1]]:
            zi = np.argmin(np.where(sym == p, cm, len(messages)))     # the least s, then first
        key = _cell(messages, digits, px, ps, at, cz, zi)
        if p > best_prob or (p == best_prob and key < best_key):
            best_prob, best_key = p, key
    for block in sample if cross_check else ():
        max_mismatch = max(max_mismatch, mismatch(*block, symbolic(*block)[0]))
    return best_prob, best_key, max_mismatch, max_roots, checked, root_total, parseval


def _sampled_blocks(params: QamdParams, trials: int, seed: int):
    """The scan blocks of `trials` cells drawn from the seeded stream, each
    drawn cell kept, duplicates too, one row per cell.

    A draw is 2n digits (x, z), redrawn while all are 0, then d digits s.
    Bounded integers take SFC64's 32-bit half words one by one, an unused
    half kept for the next call, so one call per window of draws yields the
    digits of one call per draw; a run of 2n zero digits where a draw starts
    is a zero (x, z), and the next draw starts after it.  A cell is kept as
    one base-q key ((x M + s) dim + z); a window of SCAN_WINDOW // q of the
    sorted keys is one block, so that no scan array grows with `trials`.
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
    del stream, nonzero, starts      # the draw buffers, before the windows are scanned
    keys.sort()
    cells = max(1, SCAN_WINDOW // q)
    for lo in range(0, trials, cells):
        window = keys[lo:lo + cells, np.newaxis]
        pair = window // params.dim                                    # x M + s per cell
        starts = np.flatnonzero(np.concatenate(([True], pair[1:, 0] != pair[:-1, 0])))
        at = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(window))))
        yield (*np.divmod(pair[starts, 0], m), at[:, np.newaxis], window - pair * params.dim)


def _exhaustive_blocks(params: QamdParams):
    """The scan blocks of every quotient cell (x, s, a, b) with x_{1:d} != 0:
    windows of max(1, SCAN_WINDOW // (M q^2)) whole shifts x, of ranks q^2
    and up, each shift against every message and the q^2 clock words
    (0, ..., 0, a, b) of ranks a q + b.  The full windows share one
    (ps, at, cz)."""
    m, q2 = params.num_messages, params.q ** 2
    every, clocks = np.arange(m), np.arange(q2)[np.newaxis]
    width = max(1, SCAN_WINDOW // (m * q2))
    rows = np.tile(every, width), np.arange(width * m)[:, np.newaxis]
    for lo in range(q2, params.dim, width):
        xs = np.arange(lo, min(lo + width, params.dim))
        if len(xs) < width:                                        # the last window
            rows = np.tile(every, len(xs)), np.arange(len(xs) * m)[:, np.newaxis]
        yield np.repeat(xs, m), *rows, clocks


def security_scan(params: QamdParams, exhaustive: bool = True,
                  trials: Optional[int] = None, seed: int = 0,
                  cross_check: bool = True) -> dict:
    """Scan tampering words against every message and report the maximum
    aggregate wrong-decode probability, its witness, and the theorem
    bound ((d+1)/q)^2.

    Exhaustive mode visits every quotient cell (x, s, a, b) with
    x_{1:d} != 0 (see `_exhaustive_blocks`), which stands for the M full
    cells with (z_{d+1}, z_{d+2}) = (a, b); no other word moves mass off s.
    It raises ConsistencyError unless the root counts sum to M(M-1)q^2 and
    each pair's quotient cells to its root count within PARSEVAL_TOL.
    Random mode visits `trials` full cells drawn from the seeded stream,
    duplicates included, in windows sorted by (x, s, z).  `pairs_checked`
    counts the full cells certified.  With cross_check the dense
    state-vector simulation meets every scanned cell, and in exhaustive
    mode DENSE_SAMPLE full cells drawn as random mode draws them; the worst
    mismatch is reported, and one above DENSE_MATCH_TOL raises
    ConsistencyError.  The witness is the smallest (s, x, z) at the maximum.
    The certificate is exact: `bound_satisfied` is the integer test
    `max_root_count` <= d + 1 on the largest root set of a scanned pair
    with x_{1:d} != 0, which bounds every cell by `bound_exact`, and
    `max_prob` is checked against (max_root_count/q)^2 up to rounding.
    Every probability has the per-cell route's bits: `_key_probabilities`
    adds a cell's terms in ascending r before the division by q, hypot is
    the modulus abs() takes (np.abs differs in the last bit), and v * v
    equals pow(v, 2) for every amplitude an admissible (q, d) can produce
    (a test enumerates them).
    """
    q, d, m = params.q, params.d, params.num_messages
    if exhaustive:
        blocks, sample = _exhaustive_blocks(params), _sampled_blocks(params, DENSE_SAMPLE, seed)
    else:
        if not trials or not 1 <= trials <= MAX_TRIALS:
            raise OutOfRange(f"random mode needs a trial count in [1, {MAX_TRIALS}], got {trials}")
        blocks, sample = _sampled_blocks(params, trials, seed), ()
    best_prob, best_key, max_mismatch, max_roots, checked, root_total, parseval = _scan(
        params, blocks, cross_check, sample)
    # each cell's amplitude is a sum of at most max_roots unit phases over q
    if best_prob > (max_roots / q) ** 2 * (1 + 1e-12):
        raise ConsistencyError(f"max_prob {best_prob} exceeds (max_root_count/q)^2 "
                               f"with max_root_count = {max_roots}")
    if exhaustive and root_total != m * (m - 1) * q * q:
        raise ConsistencyError(f"root sets hold {root_total} roots, not M(M-1)q^2 = "
                               f"{m * (m - 1) * q * q}")
    if exhaustive and parseval > PARSEVAL_TOL:
        raise ConsistencyError(f"a pair's quotient cells miss its root count by {parseval}")

    return {
        "mode": "exhaustive" if exhaustive else "random",
        "params": {"q": q, "d": d},
        "bound": ((d + 1) / q) ** 2,
        "bound_exact": Fraction((d + 1) ** 2, q ** 2),
        "max_prob": best_prob,
        "max_root_count": max_roots,
        "witness": {name: list(value) for name, value in zip("sxz", best_key)},
        # a quotient cell stands for its M words z_{1:d}; x_{1:d} = 0 has (q^2 dim - 1) M cells
        "pairs_checked": checked * m + (q * q * params.dim - 1) * m if exhaustive else checked,
        "quotient_cells": checked if exhaustive else None,
        "root_count_total": root_total if exhaustive else None,
        "max_parseval_gap": parseval if exhaustive else None,
        "dense_cross_check": bool(cross_check),
        "dense_sample_cells": DENSE_SAMPLE if exhaustive and cross_check else None,
        "max_dense_mismatch": max_mismatch if cross_check else None,
        "bound_satisfied": max_roots <= d + 1,
    }
