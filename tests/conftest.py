"""Shared test oracles."""

import csv
import io
import itertools
import json
import tracemalloc
from collections import deque
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

import numpy as np

from qtamper import qamd
from qtamper.errors import (BudgetExceeded, ConsistencyError, InvalidParams, OutOfRange,
                            QTamperError)
from qtamper.field import fq_values, is_prime
from qtamper.haar import _phase_fixed_qr, complex_gaussian, root_generator
from qtamper.pauli import (MonomialUnitary, PauliLabel, kron_digits, omega_powers,
                           random_nonidentity_words, shift_rows)
from qtamper.moments import (PATTERN_DIAGONAL, PATTERN_OFF_DIAGONAL, MomentSpec,
                             closed_form_moment)
from qtamper.perm import MAX_SWAPPER_DEGREE, sp_classes
from qtamper.qamd import encode
from qtamper.reports import canonical_json_bytes
from qtamper.tamper import (CONSERVATION_TOL, FIDELITY_FLOOR, build_scheme,
                            parameter_warnings)
from qtamper.weingarten import wg_table

MAX_ENUM_DEGREE = 9           # exhaustive S_n enumeration budget
HAAR_MOMENT_CAP = 5


class IdentityTampering(QTamperError):
    """Tampering word is the identity; the per-cell experiment is undefined."""


class FqPoly:
    """Univariate polynomial over F_q, coefficients indexed by degree.

    The coefficient tuple is normalized: trailing zeros are stripped, so
    the zero polynomial has an empty tuple and every nonzero polynomial
    has a nonzero leading coefficient.

    Independent per-polynomial oracle for the coefficient-row arithmetic
    of `qtamper.field` and the QAMD scan's root masks.
    """

    __slots__ = ("coeffs", "q")

    def __init__(self, coeffs: Iterable[int], q: int):
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        vals = [c % q for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        self.coeffs = tuple(vals)
        self.q = q

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and self.q == other.q
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.q))

    def __repr__(self):
        return f"FqPoly({list(self.coeffs)}, q={self.q})"

    def _padded(self, other: "FqPoly"):
        if self.q != other.q:
            raise ValueError(f"moduli differ: {self.q} vs {other.q}")
        n = max(len(self.coeffs), len(other.coeffs))
        return (list(self.coeffs) + [0] * (n - len(self.coeffs)),
                list(other.coeffs) + [0] * (n - len(other.coeffs)))

    def __add__(self, other: "FqPoly") -> "FqPoly":
        a, b = self._padded(other)
        return FqPoly([x + y for x, y in zip(a, b)], self.q)

    def __sub__(self, other: "FqPoly") -> "FqPoly":
        a, b = self._padded(other)
        return FqPoly([x - y for x, y in zip(a, b)], self.q)

    def __call__(self, x: int) -> int:
        return fq_eval(self, x)

    def shift(self, a: int) -> "FqPoly":
        """Return p(y + a) as a polynomial in y (Taylor shift)."""
        a %= self.q
        out = FqPoly([], self.q)
        # Horner on shifted variable: p(y+a) = c_n*(y+a)^... built degree-down.
        for c in reversed(self.coeffs):
            out = _mul_linear(out, a) + FqPoly([c], self.q)
        return out


def _mul_linear(p: FqPoly, a: int) -> FqPoly:
    """Multiply p by (y + a)."""
    if p.is_zero:
        return p
    q = p.q
    out = [0] * (len(p.coeffs) + 1)
    for i, c in enumerate(p.coeffs):
        out[i] = (out[i] + c * a) % q
        out[i + 1] = (out[i + 1] + c) % q
    return FqPoly(out, q)


def fq_eval(p: FqPoly, x: int) -> int:
    """Horner evaluation of p at x in F_q, as an int in [0, q)."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc * x + c) % p.q
    return acc


def fq_roots(p: FqPoly) -> list[int]:
    """Root set of a nonzero polynomial, as sorted integer representatives."""
    if p.is_zero:
        raise ValueError("every point of F_q is a root of the zero polynomial")
    return [x for x in range(p.q) if fq_eval(p, x) == 0]


def tag_poly(params, s) -> FqPoly:
    """f(s, .) as a polynomial in r: coefficients [0, s_1..s_d, 0, 1]."""
    return FqPoly([0] + [v % params.q for v in s] + [0, 1], params.q)


def tag_table(params, s) -> list[int]:
    """f(s, r) for every r in F_q, by Horner at each point."""
    poly = tag_poly(params, s)
    return [fq_eval(poly, r) for r in range(params.q)]


def difference_poly(params, s, x) -> FqPoly:
    """f(s + x_{1:d}, r + x_{d+1}) - f(s, r) - x_{d+2} as an FqPoly."""
    q, d = params.q, params.d
    target = tuple((s[i] + x[i]) % q for i in range(d))
    return tag_poly(params, target).shift(x[d]) - tag_poly(params, s) - FqPoly([x[d + 1]], q)


def _difference_roots(params, s, x) -> list[int]:
    """Root set of f(s + x_{1:d}, r + x_{d+1}) - f(s, r) - x_{d+2}, one
    (s, x) at a time, with the degree window [1, d+1] checked when
    x_{1:d} != 0.

    The per-(s, x) polynomial oracle for `qamd._root_masks`.
    """
    diff = difference_poly(params, s, x)
    if any(x[:params.d]) and not 1 <= diff.degree <= params.d + 1:
        raise ConsistencyError(f"difference polynomial for s={s}, x={x} has degree "
                               f"{diff.degree}, outside [1, {params.d + 1}]")
    if diff.is_zero:
        return list(range(params.q))
    return fq_roots(diff)


def iter_tuples(n: int) -> Iterator[tuple[int, ...]]:
    """All of S_n as image tuples, in lexicographic order."""
    return itertools.permutations(range(n))


class Permutation(tuple):
    """An image tuple checked to be a bijection on {0, ..., n-1}."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        imgs = super().__new__(cls, images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a bijection on [{len(imgs)}]: {imgs}")
        return imgs


def cycles_of(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Disjoint cycles covering [n]; fixed points appear as 1-cycles.

    Each cycle starts at its smallest point and follows the permutation;
    cycles are ordered by their smallest point.  Per-tuple oracle for
    `perm.orbit_labels`.
    """
    n = len(images)
    seen = bytearray(n)
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = 1
        j = images[start]
        while j != start:
            cyc.append(j)
            seen[j] = 1
            j = images[j]
        cycles.append(tuple(cyc))
    return cycles


def cycle_type_of(images: Sequence[int]) -> tuple[int, ...]:
    """Cycle lengths sorted descending; sums to the degree."""
    return tuple(sorted((len(c) for c in cycles_of(images)), reverse=True))


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """(a o b)(x) = a(b(x))."""
    return tuple(a[b[i]] for i in range(len(a)))


def invert(a: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def num_cycles(images: Sequence[int]) -> int:
    """Cycle count of one image tuple by walking each unseen point's orbit.

    Independent per-permutation oracle for `perm.cycle_counts`.
    """
    n = len(images)
    seen = bytearray(n)
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = 1
            j = images[j]
    return count


def valuation(sigma: Sequence[int]) -> int:
    """Sum over cycles of |#odd - #even| counted on 1-based labels.

    Equals the degree exactly when sigma maps odd labels to odd labels
    and even labels to even labels.
    """
    total = 0
    for cyc in cycles_of(sigma):
        odd = sum(1 for p in cyc if (p + 1) % 2 == 1)
        total += abs(odd - (len(cyc) - odd))
    return total


def min_transpositions(sigma: Sequence[int]) -> int:
    """Minimum number of transpositions composing to sigma: n - |C(sigma)|."""
    return len(sigma) - num_cycles(sigma)


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    """The permutation of S_n with the given disjoint cycles of 0-based points."""
    imgs = list(range(n))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            imgs[p] = cyc[(i + 1) % len(cyc)]
    return Permutation(imgs)


def fix_move(sigma: Sequence[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(Fix, Move) as disjoint 0-based point sets covering [n]."""
    fixed = frozenset(i for i, j in enumerate(sigma) if i == j)
    moved = frozenset(range(len(sigma))) - fixed
    return fixed, moved


@lru_cache(maxsize=None)
def _transposition_histogram(n: int) -> tuple[int, ...]:
    """histogram[i] = #{sigma in S_n : min_transpositions(sigma) = i}."""
    hist = [0] * n
    for images in iter_tuples(n):
        hist[n - num_cycles(images)] += 1
    return tuple(hist)


def count_by_transpositions(n: int, i: int) -> int:
    """Exact |{sigma in S_n : T(sigma) = i}| by enumeration, n <= 9."""
    if n > MAX_ENUM_DEGREE:
        raise BudgetExceeded(f"S_{n} enumeration exceeds budget (n <= {MAX_ENUM_DEGREE})")
    if not 0 <= i <= n - 1:
        raise ValueError(f"transposition count {i} outside [0, {n - 1}]")
    count = _transposition_histogram(n)[i]
    if count > comb(n, 2) ** i:
        raise ConsistencyError(f"{count} permutations of S_{n} at distance {i} "
                               f"exceed C({n}, 2)^{i}")
    return count


def bfs_transposition_distances(n: int) -> dict[tuple[int, ...], int]:
    """Distance of every permutation of S_n from the identity in the
    transposition Cayley graph, by breadth-first search.

    Independent oracle for the production identity T(sigma) = n - |C(sigma)|.
    """
    identity = tuple(range(n))
    transpositions = []
    for i, j in itertools.combinations(range(n), 2):
        images = list(identity)
        images[i], images[j] = j, i
        transpositions.append(tuple(images))

    dist = {identity: 0}
    queue = deque([identity])
    while queue:
        current = queue.popleft()
        for tau in transpositions:
            nxt = tuple(current[tau[i]] for i in range(n))
            if nxt not in dist:
                dist[nxt] = dist[current] + 1
                queue.append(nxt)
    return dist


def loop_parity_swappers(t: int) -> list[tuple[int, ...]]:
    """`perm.parity_swappers` one tuple at a time: a bijection odd->even
    crossed with a bijection even->odd, in lexicographic (f, g) order."""
    if 2 * t > MAX_SWAPPER_DEGREE:
        raise BudgetExceeded(f"parity swappers need 2t <= {MAX_SWAPPER_DEGREE}")
    out = []
    for f in itertools.permutations(range(t)):
        for g in itertools.permutations(range(t)):
            images = [0] * (2 * t)
            for a in range(t):
                images[2 * a] = 2 * f[a] + 1      # odd label 2a+1 -> even label
                images[2 * a + 1] = 2 * g[a]      # even label 2a+2 -> odd label
            out.append(tuple(images))
    if len(out) != factorial(t) ** 2:
        raise ConsistencyError(f"{len(out)} parity swappers for t = {t}")
    return out


def fraction_gauss_jordan(m: Sequence[Sequence[Fraction]],
                          rhs: Sequence[Fraction]) -> list[Fraction]:
    """Exact Gauss-Jordan elimination in Fractions with first-nonzero
    pivoting: the oracle for the package's integer (Bareiss) solve."""
    n = len(m)
    a = [list(row) + [rhs[i]] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def wg_value(cycle_type: Sequence[int], N: int) -> Fraction:
    """Wg of the class with this cycle type, its parts in any order."""
    p = sum(cycle_type)
    values = wg_table(p, N)
    return values[sp_classes(p).types.index(tuple(sorted(cycle_type, reverse=True)))]


def haar_moment(i: Sequence[int], i2: Sequence[int], j: Sequence[int],
                j2: Sequence[int], N: int) -> Fraction:
    """Exact Haar average of U_{i1 j1} ... U_{ip jp} conj(U_{i2_1 j2_1}) ...

    Indices are 0-based rows/columns in [0, N).  Evaluates the delta-sum
    over S_p x S_p directly; returns 0 when no permutation pair matches
    the index pattern.
    """
    p = len(i)
    if not (len(i2) == len(j) == len(j2) == p):
        raise ValueError("index tuples must share one length p")
    if p == 0:
        return Fraction(1)
    if p > HAAR_MOMENT_CAP:
        raise OutOfRange(f"haar_moment capped at p <= {HAAR_MOMENT_CAP}")
    for idx in (*i, *i2, *j, *j2):
        if not 0 <= idx < N:
            raise OutOfRange(f"index {idx} outside [0, {N})")

    values = wg_table(p, N)
    sp = sp_classes(p)
    perms = list(iter_tuples(p))
    rows = [a for a, s in enumerate(perms) if all(i[x] == i2[s[x]] for x in range(p))]
    cols = [b for b, t in enumerate(perms) if all(j[x] == j2[t[x]] for x in range(p))]
    # pair[sigma, tau] is the class of tau sigma^-1
    hits = np.bincount(sp.pair[np.ix_(rows, cols)].ravel(), minlength=len(sp.types))
    return sum((v * int(n) for v, n in zip(values, hits)), Fraction(0))


def first_moment_js(U) -> float:
    """E[X_js] = (N^2 - |Tr U|^2) / (N (N^2 - 1)): the closed form of the
    t = 1 off-diagonal spec."""
    return closed_form_moment(MomentSpec(PATTERN_OFF_DIAGONAL, 1, U))


def first_moment_ss(U) -> float:
    """E[X_ss] = (N + |Tr U|^2) / (N (N + 1)): the closed form of the t = 1
    diagonal spec."""
    return closed_form_moment(MomentSpec(PATTERN_DIAGONAL, 1, U, K=1))


def loop_cycle_trace_products(perms, spec) -> np.ndarray:
    """`moments._cycle_trace_products` one alpha at a time: the Python
    complex product of Tr(U^{odd(c)-even(c)}) over `cycles_of(alpha)`."""
    tr_pow = {0: complex(spec.N)}
    for j, tr in enumerate(spec.trace_profile, 1):
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


def loop_beta_weights(spec, perms) -> np.ndarray:
    """`moments._beta_weights` one beta at a time."""
    p = 2 * spec.t
    if spec.pattern == PATTERN_DIAGONAL:
        return np.ones(len(perms))
    if spec.pattern == PATTERN_OFF_DIAGONAL:
        swappers = set(loop_parity_swappers(spec.t))
        return np.array([1.0 if b in swappers else 0.0 for b in perms])
    a_m2 = abs(spec.message_amplitudes[spec.target_index]) ** 2
    weights = np.empty(len(perms))
    for bi, beta in enumerate(perms):
        ell = sum(1 for i in range(0, p, 2) if beta[i] % 2 == 0)
        weights[bi] = a_m2 ** ell
    return weights


def full_block_exact_moment(spec) -> float:
    """`moments.exact_moment` as one (p!, p!) sandwich tp @ Wg @ weights,
    with the loop trace products and weights."""
    p = 2 * spec.t
    perms = list(iter_tuples(p))
    wg_float = np.array(wg_table(p, spec.N), dtype=float)
    tp = loop_cycle_trace_products(perms, spec)
    return complex(tp @ wg_float[sp_classes(p).pair] @ loop_beta_weights(spec, perms)).real


def traced_peak(call, *args) -> int:
    """Peak traced allocation, in bytes, of one call."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def digit_table_word_actions(q: int, x, z) -> tuple[np.ndarray, np.ndarray]:
    """`pauli.word_actions` from the (words, N, m) digit table: the rows of
    one `shift_rows` broadcast over `kron_digits`, and the phase gathered
    at <z, v> mod q.  The oracle for its register-at-a-time outer sums."""
    x, z = np.asarray(x, dtype=np.intp), np.asarray(z, dtype=np.intp)
    digits = kron_digits(q, x.shape[-1])
    phase = omega_powers(q)[np.matmul(digits, z[..., np.newaxis])[..., 0] % q]
    return shift_rows(q, x[..., np.newaxis, :], digits), phase


def nonidentity_labels(q: int, m: int, count: int, rng) -> list[PauliLabel]:
    """`pauli.random_nonidentity_words` as labels."""
    return [PauliLabel(q=q, x=tuple(row[:m]), z=tuple(row[m:]))
            for row in random_nonidentity_words(q, m, count, rng).tolist()]


def single_draw_labels(q: int, m: int, count: int, rng) -> list[PauliLabel]:
    """`nonidentity_labels` one candidate draw at a time: the oracle for the
    batches of `pauli.random_nonidentity_words`, in labels and in the
    stream they read."""
    chosen, seen = [], set()
    while len(chosen) < count:
        key = tuple(int(d) for d in rng.integers(0, q, size=2 * m))
        if key in seen or not any(key):
            continue
        seen.add(key)
        chosen.append(PauliLabel(q=q, x=key[:m], z=key[m:]))
    return chosen


def pauli_matrix(label: PauliLabel) -> np.ndarray:
    """Dense q^m x q^m unitary of the tensor word: the scatter of its
    digit-table action, which reads no table of `pauli.word_actions`."""
    rows, phase = digit_table_word_actions(label.q, label.x, label.z)
    out = np.zeros((rows.size, rows.size), dtype=np.complex128)
    out[rows, np.arange(rows.size)] = phase
    return out


def mixed_cycle_monomial(rng) -> MonomialUnitary:
    """A 12 x 12 monomial with random phases whose permutation has cycles of
    lengths 1, 1, 2, 3 and 5: fixed points next to longer cycles."""
    order = rng.permutation(12)
    rows = np.empty(12, dtype=np.intp)
    start = 0
    for length in (1, 1, 2, 3, 5):
        cycle = order[start:start + length]
        rows[cycle] = np.roll(cycle, -1)
        start += length
    return MonomialUnitary(rows, np.exp(2j * np.pi * rng.random(12)))


def haar_unitary_stack(rng, count: int, n: int) -> np.ndarray:
    """`count` Haar n x n unitaries as a (count, n, n) stack: the batched
    phase-fixed LAPACK QR of a Ginibre stack."""
    return _phase_fixed_qr(complex_gaussian(rng, (count, n, n)))


def literal_moment_samples(u, k: int, count: int, rng, amplitudes, target_index: int) -> dict:
    """X of `count` Haar encodings per pattern, formed from its definition:
    each N x K isometry V is the phase-fixed QR of a Ginibre block, the dense
    U is applied to it, and X is |psi_1^dag U psi_0|^2 ("js"),
    |psi_0^dag U psi_0|^2 ("ss") and |psi_m^dag U V a|^2 ("m").  The three
    patterns read the same frames, drawn in blocks of 10^4."""
    u = np.asarray(u)
    out = {"js": [], "ss": [], "m": []}
    block = 10_000
    for start in range(0, count, block):
        v = _phase_fixed_qr(complex_gaussian(rng, (min(block, count - start), u.shape[0], k)))
        moved = u @ v
        out["js"].append(np.vecdot(v[..., 1], moved[..., 0]))
        out["ss"].append(np.vecdot(v[..., 0], moved[..., 0]))
        out["m"].append(np.vecdot(v[..., target_index], moved @ amplitudes))
    return {pattern: np.abs(np.concatenate(parts)) ** 2 for pattern, parts in out.items()}


class RepeatedRows:
    """Normal source whose draws repeat row 0 along axis 0 (the column axis
    of a K-major Ginibre block), mixed with a fraction `jitter` of fresh
    draws, so the blocks it feeds have equal (jitter 0) or nearly parallel
    columns."""

    def __init__(self, seed, jitter=0.0):
        self.rng = root_generator(seed)
        self.jitter = jitter

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        out[1:] = (1 - self.jitter) * out[:1] + self.jitter * out[1:]
        return out


def dense_decoder_projectors(scheme):
    """The decoder POVM of a scheme as dense N x N matrices, built from its
    isometry V: the codeword projectors |psi_s><psi_s|, Pi = V V^dag and
    Pi_perp = 1 - Pi.

    Independent oracle for the overlap route the decoders take.
    """
    v = scheme.isometry
    codewords = [np.outer(v[:, s], v[:, s].conj()) for s in range(v.shape[1])]
    pi = v @ v.conj().T
    return codewords, pi, np.eye(v.shape[0], dtype=np.complex128) - pi


def dense_member(u) -> np.ndarray:
    """A family member as a dense matrix: a word's digit row x | z as the
    `pauli_matrix` of its label, a dense member as it is."""
    if u.ndim == 2:
        return u
    n = u.size // 2
    return pauli_matrix(PauliLabel(2, tuple(u[:n].tolist()), tuple(u[n:].tolist())))


def _per_member_overlaps(scheme, u, states):
    """V^dag u states and each tampered state's squared norm, for one member."""
    w = u @ states
    if w.ndim == 1:
        return scheme.adjoint @ w, float(np.vdot(w, w).real)
    sq = np.einsum("ij,ij->j", w.view(np.float64), w.view(np.float64))
    return scheme.adjoint @ w, sq[0::2] + sq[1::2]


def _per_member_seed(scheme_seed, n, k, family, epsilon, mode):
    """One scheme's rows, member by member and cell by cell, with Python
    scalars: one overlap block and one dict per member and message, each
    word applied as its dense `pauli_matrix`."""
    scheme = build_scheme(n, k, scheme_seed)
    v, K = scheme.isometry, scheme.K
    members = [(label, dense_member(u)) for label, u in family.members]
    rows = []
    worst = 0.0
    if mode in ("classical", "relaxed"):
        for label, u in members:
            overlaps, norm_sq = _per_member_overlaps(scheme, u, v)
            weights = np.abs(overlaps) ** 2
            in_code = np.sum(weights, axis=0)
            for s in range(K):
                probs = {"P_same": float(weights[s, s]),
                         "P_diff": float(in_code[s] - weights[s, s]),
                         "P_perp": float(norm_sq[s] - in_code[s])}
                worst = max(worst, abs(sum(probs.values()) - 1.0))
                rows.append({"seed": scheme_seed, "label": label, "s": s, **probs})
        if mode == "classical":
            metric = min(r["P_perp"] for r in rows)
        else:
            metric = min(r["P_same"] + r["P_perp"] for r in rows)
    elif mode == "weak":
        for label, u in members:
            gram, _ = _per_member_overlaps(scheme, u, v)
            x = float(np.sum(np.abs(gram) ** 2)) / K
            other = float(np.sum(np.abs((scheme.adjoint @ u) @ v) ** 2)) / K
            if abs(other - x) > CONSERVATION_TOL:
                raise ConsistencyError(f"weak-detection routes disagree: {other} vs {x}")
            rows.append({"seed": scheme_seed, "label": label, "X": x})
        metric = min(1.0 - r["X"] for r in rows)
    else:
        amps = np.full(K, 1.0 / np.sqrt(K), dtype=np.complex128)
        for label, u in members:
            overlaps, norm_sq = _per_member_overlaps(scheme, u, v @ amps)
            pass_prob = float(np.sum(np.abs(overlaps) ** 2))
            p_perp = norm_sq - pass_prob
            fidelity = (None if pass_prob < FIDELITY_FLOOR
                        else float(abs(np.vdot(amps, overlaps)) ** 2 / pass_prob))
            worst = max(worst, abs(pass_prob + p_perp - 1.0))
            rows.append({"seed": scheme_seed, "label": label, "P_perp": p_perp,
                         "pass_prob": pass_prob, "fidelity_given_pass": fidelity})
        metric = min(r["P_perp"] for r in rows)
    return {"seed": scheme_seed, "rows": rows, "detection_metric": metric,
            "pass": bool(metric >= 1.0 - epsilon), "max_conservation_violation": worst}


def cell_rows(report) -> list[dict]:
    """A scan report's per-cell columns zipped into one dict per cell, with
    Python scalars and None where a float is undefined (NaN)."""
    cells = report["cells"]
    columns = [values if isinstance(values, list) else
               [None if v != v else v for v in values.tolist()] for values in cells.values()]
    return [dict(zip(cells, row)) for row in zip(*columns)]


def scan_bytes(report) -> bytes:
    """The canonical bytes of a scan report with its cells as `cell_rows`."""
    return canonical_json_bytes({**report, "cells": cell_rows(report)})


def per_member_scan(n, k, family, epsilon, seeds, mode):
    """`tamper.family_security_scan`'s report, one member at a time: the
    oracle for its stacked blocks.  Extrema run over every float-valued key
    of every row, and the rows become the report's columns at the end."""
    seeds = list(seeds)
    per_seed = [_per_member_seed(sd, n, k, family, epsilon, mode) for sd in seeds]
    rows = [row for entry in per_seed for row in entry["rows"]]
    extrema = {}
    for key in dict.fromkeys(key for row in rows for key in row):
        values = [row[key] for row in rows if isinstance(row[key], float)]
        if values:
            extrema[key] = {"min": min(values), "max": max(values)}
    phi = family.trace_bound_phi
    return {
        "mode": mode, "n": n, "k": k, "epsilon": epsilon,
        "family": {"size": family.size, "trace_bound_phi": phi, "labels": family.labels()},
        "seeds": seeds,
        "warnings": parameter_warnings(n, k, epsilon, phi),
        "per_seed": [{key: e[key] for key in ("seed", "detection_metric", "pass")}
                     for e in per_seed],
        "pass_fraction": sum(1 for e in per_seed if e["pass"]) / len(per_seed),
        "min_detection_metric": min(e["detection_metric"] for e in per_seed),
        "extrema": extrema,
        "max_conservation_violation": max(e["max_conservation_violation"] for e in per_seed),
        "cells": {key: [row[key] for row in rows] if key == "label" else
                  np.array([row[key] for row in rows], dtype=int if key in ("seed", "s") else float)
                  for key in rows[0]},
    }


# the per-cell CSV header of each tamper-sim mode, in column order
CSV_COLUMNS = {
    "classical": ["seed", "label", "s", "P_same", "P_diff", "P_perp"],
    "relaxed": ["seed", "label", "s", "P_same", "P_diff", "P_perp"],
    "weak": ["seed", "label", "X"],
    "quantum": ["seed", "label", "P_perp", "pass_prob", "fidelity_given_pass"],
}


def per_cell_csv(rows, columns) -> bytes:
    """The CSV file of scan rows, formatted one cell at a time: floats at
    17 significant digits, None as "undefined", the rest by str."""
    def cell(value):
        if value is None:
            return "undefined"
        return format(value, ".17g") if isinstance(value, float) else str(value)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [columns] + [[cell(row[c]) for c in columns] for row in rows])
    return buf.getvalue().encode("utf-8")


def write_family_file(folder, n: int, kind: str):
    """A `file:` family on n qubits, written into `folder`: "monomial" lists
    Pauli words (compact labels and `pauli` objects), "dense" unitary files
    (Haar unitaries and one dense Pauli matrix), "mixed" both, interleaved."""
    rng = np.random.default_rng(1000 * n + len(kind))
    words = nonidentity_labels(2, n, 4, rng)
    labels = [words[0].compact(), {"pauli": {"q": 2, "x": list(words[1].x), "z": list(words[1].z)}},
              words[2].compact(), {"pauli": {"q": 2, "x": list(words[3].x), "z": list(words[3].z)},
                                   "label": "named-word"}]
    matrices = [haar_unitary_stack(rng, 1, 2 ** n)[0], pauli_matrix(words[0]),
                haar_unitary_stack(rng, 1, 2 ** n)[0]]
    files = []
    for i, u in enumerate(matrices):
        (folder / f"u{i}.json").write_text(json.dumps(np.stack([u.real, u.imag], -1).tolist()))
        files.append({"file": f"u{i}.json", **({} if i % 2 else {"label": f"haar{i}"})})
    members = {"monomial": labels, "dense": files,
               "mixed": [labels[0], files[0], labels[1], labels[2], files[1], files[2], labels[3]]}
    path = folder / f"{kind}.json"
    path.write_text(json.dumps({"members": members[kind]}))
    return path


def _check_word(params, x, z):
    if len(x) != params.block_length or len(z) != params.block_length:
        raise InvalidParams(f"exponent vectors must have length {params.block_length}")
    x = tuple(v % params.q for v in x)
    z = tuple(v % params.q for v in z)
    if not any(x) and not any(z):
        raise IdentityTampering("tampering word is the identity")
    return x, z


def phase_sum(params, s, z, roots, global_phase=True):
    """(1/q) sum over the roots r of omega^{<z_{1:d}, s> + z_{d+1} r + z_{d+2} f(s, r)},
    or without its global phase <z_{1:d}, s>: the sum of the quotient cell."""
    q, d = params.q, params.d
    tags = tag_table(params, s)
    table = omega_powers(q)
    base = sum(z[i] * s[i] for i in range(d)) % q if global_phase else 0
    total = 0j
    for r in roots:
        total += table[(base + z[d] * r + z[d + 1] * tags[r]) % q]
    return complex(total / q)


def overlap_amplitude(s, s_prime, x, z, params):
    """Exact <psi_{s'}| X^x Z^z |psi_s> up to its global phase
    omega^{<z_{1:d}, s>}, computed symbolically, one cell.

    Zero unless s' = s + x_{1:d}; otherwise the phase sum over the root
    set of the quotient cell (x, s, z_{d+1}, z_{d+2}).
    """
    q, d = params.q, params.d
    s = tuple(v % q for v in s)
    s_prime = tuple(v % q for v in s_prime)
    x, z = _check_word(params, x, z)
    target = tuple((s[i] + x[i]) % q for i in range(d))
    if s_prime != target:
        return 0j
    return phase_sum(params, s, z, _difference_roots(params, s, x), global_phase=False)


def wrong_decode_prob_exact(s, s_prime, x, z, params):
    """|<psi_{s'}| X^x Z^z |psi_s>|^2, or with s_prime=None the aggregate
    sum over all s' != s (the total wrong-decode mass), from the quotient
    cell's phase sum.

    The per-cell symbolic route: reference for the scan, which must
    reproduce its probabilities bit for bit.
    """
    q, d = params.q, params.d
    s = tuple(v % q for v in s)
    x, z = _check_word(params, x, z)
    if s_prime is not None:
        return abs(overlap_amplitude(s, s_prime, x, z, params)) ** 2
    target = tuple((s[i] + x[i]) % q for i in range(d))
    if target == s:
        return 0.0
    return abs(overlap_amplitude(s, target, x, z, params)) ** 2


def dense_overlaps(s, x, z, params):
    """<psi_{s'}| X^x Z^z |psi_s> for every message s' of a QAMD code, by
    applying the word's `PauliLabel.action()` to the dense codeword of s.

    The one-word dense route: independent oracle for the scans' batched
    cross-checks.
    """
    rows, phase = PauliLabel(params.q, x, z).action()
    tampered = np.zeros(params.dim, dtype=np.complex128)
    tampered[rows] = phase * encode(s, params)
    return {m: complex(np.vdot(encode(m, params), tampered))
            for m in params.messages()}


def tamper_experiment(s, x, z, params):
    """Full decoder outcome distribution of a QAMD codeword under the
    tampering word: {"probabilities": {s': P(s')}, "reject": P(bot)}.

    Only s + x_{1:d} can receive mass among the messages; the identity
    word raises IdentityTampering.
    """
    target = tuple((s[i] + x[i]) % params.q for i in range(params.d))
    probs = {m: 0.0 for m in params.messages()}
    probs[target] = wrong_decode_prob_exact(s, target, x, z, params)
    return {"probabilities": probs, "reject": 1.0 - sum(probs.values())}


def per_shift_blocks(params):
    """Every full cell in scan blocks, one shift x at a time, in rank order:
    every message against every clock word z, with z = 0 left out of x = 0.

    The full-cell oracle for `qamd._exhaustive_blocks`, whose windows of
    quotient cells must give its maximum, witness and root count.
    """
    every = np.arange(params.num_messages)
    rows, clocks = every[:, np.newaxis], np.arange(params.dim)[np.newaxis]
    for xi in range(params.dim):
        yield np.full(len(every), xi), every, rows, clocks[:, 1:] if xi == 0 else clocks


def non_global_phase_route(true_route):
    """`qamd._root_sum_route` with a phase error that is not global: each
    cell's amplitude is summed again over its pair's roots r in ascending
    order, the last root's term multiplied by omega^{z_1 r}.  Only a dense
    route that meets full cells with z_1 != 0 can see it.  (On the first
    root it would be invisible at q = 2: a pair with two roots has 0 first,
    and one term's phase leaves its modulus.)"""
    def route(params):
        symbolic, q = true_route(params), params.q
        digits, w_table = kron_digits(q, params.block_length), omega_powers(q)
        coeffs = qamd._tag_coeffs(params, params.messages())
        tags, moves = fq_values(coeffs, q), digits[:, :params.d].any(axis=1)

        def mutated(px, ps, at, cz):
            counts = symbolic(px, ps, at, cz)[1]
            masks = np.zeros((len(ps), q), dtype=bool)
            moving = np.flatnonzero(moves[px])
            masks[moving] = qamd._root_masks(params, coeffs[ps[moving]], digits[px[moving]])
            (a, b), z1 = np.divmod(cz % (q * q), q), digits[cz][..., 0]
            last = q - 1 - np.argmax(masks[:, ::-1], axis=1)[at]
            amp = np.zeros(np.broadcast(at, cz).shape, dtype=complex)
            for r in range(q):
                term = w_table[(a * r + b * tags[ps[at], r] + z1 * r * (last == r)) % q]
                amp += np.where(masks[at[:, 0], r][:, np.newaxis], term, 0)
            return np.abs(amp / q) ** 2, counts

        return mutated

    return route
