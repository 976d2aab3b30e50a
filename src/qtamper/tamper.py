"""End-to-end tampering experiments: Haar-random encoding schemes, the four
decoders (classical, relaxed, weak, quantum-message) and security scans of families.

A scheme holds its seeded Haar isometry V and V^dag, formed once, or a group
of seeds' stacked.  Every decoder reads one kernel, `_decode_overlaps`: V^dag U
states and each column's squared norm, for an encoded state or an N x c block
per seed and one unitary U or a stack of them.  A family holds its Pauli words
as digit rows; a scan decodes each group of seeds against blocks of members (a
run of words as one `word_actions` stack, a dense member alone), of at most
BLOCK_ENTRIES tampered entries (seeds x members x N x K, N in quantum mode)
each.  A seed is hundreds of numpy calls on small arrays that threads would
pass the GIL between, so seeds fan out on the worker pool only when one (seed,
member) decode holds FAN_OUT_ENTRIES of them.  Metrics, extrema and the
per-cell table are reductions over the blocks' columns; the public decoders are
one-seed calls of the same code.  P_perp is computed on its own (never as 1
minus the rest), so P_same + P_diff + P_perp = 1 is a real check; weak compares
||V^dag (U V)||_F^2 with ||(V^dag U) V||_F^2 for every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import isnan, log2, sqrt
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, InvalidParams, OutOfRange
from .haar import child_generator, sample_encoding_isometry
from .linalg import MAX_DIM, parallel_map, require_normalized, require_unitary
from .pauli import MonomialUnitary, random_nonidentity_words

MAX_FAMILY = 10 ** 4
MAX_SEEDS = 10 ** 4
MAX_CELLS = 10 ** 6         # seeds x members x (K for classical/relaxed, else 1)
MAX_DENSE_BYTES = 2 ** 30
CONSERVATION_TOL = 1e-9
BLOCK_ENTRIES = 2 ** 12     # tampered entries in one block of members: 64 KiB of complex128
FAN_OUT_ENTRIES = 2 ** 15   # seeds fan out from this many per decode: the pool's crossover
FIDELITY_FLOOR = 1e-12

MODES = ("classical", "relaxed", "weak", "quantum")


@dataclass
class EncodingScheme:
    """Seeded Haar encoding: the N x K isometry V and nothing N x N, or a group of
    seeds' V stacked as (S, 1, N, K), the 1 broadcasting against a stack of members."""

    isometry: np.ndarray

    @property
    def N(self) -> int:
        return self.isometry.shape[-2]

    @property
    def K(self) -> int:
        return self.isometry.shape[-1]

    @cached_property
    def adjoint(self) -> np.ndarray:
        """V^dag, formed once per scheme, row-major."""
        return np.conjugate(np.swapaxes(self.isometry, -1, -2), order="C")


def check_scheme_size(n: int, k: int) -> None:
    """Refuse a scheme before anything is built for it: N = 2^n <= MAX_DIM,
    compared by exponent so that a huge n builds no huge 2^n, and 1 <= K = 2^k < N."""
    if n >= MAX_DIM.bit_length():
        raise OutOfRange(f"N = 2^{n} exceeds {MAX_DIM}")
    if not 0 <= k < n:
        raise OutOfRange(f"need 1 <= K < N (K=2^{k}, N=2^{n})")


def build_scheme(n: int, k: int, seed: int) -> EncodingScheme:
    """Scheme with N = 2^n codeword space and K = 2^k messages."""
    check_scheme_size(n, k)
    return EncodingScheme(sample_encoding_isometry(2 ** n, 2 ** k, seed))


def _decode_overlaps(scheme: EncodingScheme, U, states: np.ndarray):
    """(V^dag U states, squared norm of each tampered state) for one encoded
    state or an N x c block of them: the one decoding kernel.  U is one
    N x N unitary or a stack of m; a stack's member axis leads both results,
    behind a group's seed axis."""
    if U.shape[-1] != scheme.N:
        raise OutOfRange(f"unitary dimension {U.shape[-1]} != N = {scheme.N}")
    vector = states.ndim < scheme.isometry.ndim
    w = U @ (states[..., np.newaxis] if vector else states)
    if vector:
        return (scheme.adjoint @ w)[..., 0], np.vecdot(w[..., 0], w[..., 0]).real
    wf = w.view(np.float64)
    sq = np.einsum("...ij,...ij->...j", wf, wf)    # no conjugated copy
    return scheme.adjoint @ w, sq[..., 0::2] + sq[..., 1::2]


def _classical_probs(scheme: EncodingScheme, U, messages: slice = slice(None)):
    """(P_same, P_diff, P_perp) of each stored message in the slice
    `messages`, all K by default, read off one overlap block: arrays over
    the messages, behind a stack's member axis."""
    overlaps, norm_sq = _decode_overlaps(scheme, U, scheme.isometry[..., messages])
    weights = np.abs(overlaps) ** 2
    own = np.arange(scheme.K)[messages]                                  # own codeword
    same = weights[..., own, np.arange(own.size)]
    in_code = np.sum(weights, axis=-2)
    return same, in_code - same, norm_sq - in_code


def detect_classical(scheme: EncodingScheme, U, s: int) -> dict:
    """Decoder outcome probabilities for stored message s under U.

    P_same is the weight on codeword s, P_diff the weight on the other
    codewords, P_perp the weight outside the code subspace.
    """
    if not 0 <= s < scheme.K:
        raise OutOfRange(f"message index {s} outside [0, {scheme.K})")
    probs = _classical_probs(scheme, U, slice(s, s + 1))
    return {key: float(p[0]) for key, p in zip(("P_same", "P_diff", "P_perp"), probs)}


def _quantum_outcomes(scheme: EncodingScheme, U, amps: np.ndarray):
    """(P_perp, pass probability, fidelity given a pass) of the message
    sum_i a_i |i> under U, or under each member of a stack.  The fidelity
    is NaN where the pass probability is below FIDELITY_FLOOR.  |<a|o>|^2
    is hypot, then pow: the rounding of abs(z) ** 2 on a scalar z, where
    numpy's array abs and square can differ in the last bit."""
    overlaps, norm_sq = _decode_overlaps(scheme, U, scheme.isometry @ amps)
    pass_prob = np.sum(np.abs(overlaps) ** 2, axis=-1)
    inner = np.vecdot(amps, overlaps)
    fidelity = (np.float_power(np.hypot(inner.real, inner.imag), 2.0)
                / np.where(pass_prob < FIDELITY_FLOOR, np.nan, pass_prob))
    return norm_sq - pass_prob, pass_prob, fidelity


def detect_quantum(scheme: EncodingScheme, U,
                   message_amplitudes: Sequence[complex]) -> dict:
    """Subspace-POVM decoder for a quantum message sum_i a_i |i>.

    Returns P_perp, the pass probability, and the fidelity of the
    decoded state with the original message conditioned on passing
    (None when the pass probability is below 1e-12: the conditional
    state is undefined there, not zero).
    """
    amps = require_normalized(np.asarray(message_amplitudes, dtype=np.complex128))
    if amps.shape != (scheme.K,):
        raise OutOfRange(f"need {scheme.K} amplitudes")
    p_perp, pass_prob, fidelity = map(float, _quantum_outcomes(scheme, U, amps))
    return {"P_perp": p_perp, "pass_prob": pass_prob,
            "fidelity_given_pass": None if isnan(fidelity) else fidelity}


def _weak_x(scheme: EncodingScheme, U) -> np.ndarray:
    """X of U, or of each member of a stack, by both routes of `detect_weak`."""
    gram, _ = _decode_overlaps(scheme, U, scheme.isometry)
    weights = np.abs(gram) ** 2
    double_sum = np.sum(weights.reshape(weights.shape[:-2] + (-1,)), axis=-1) / scheme.K
    other = np.sum(np.abs((scheme.adjoint @ U) @ scheme.isometry) ** 2, axis=(-2, -1)) / scheme.K
    bad = np.flatnonzero(np.abs(other - double_sum) > CONSERVATION_TOL)
    if bad.size:
        raise ConsistencyError(f"weak-detection routes disagree: "
                               f"{float(other.flat[bad[0]])} vs {float(double_sum.flat[bad[0]])}")
    return double_sum


def detect_weak(scheme: EncodingScheme, U) -> float:
    """X = Tr(Pi U Enc(1_K / K) U^dag), the average-message pass weight.

    Computed twice and checked equal: as (1/K) sum_ij |<psi_i| U |psi_j>|^2
    over the kernel's block V^dag (U V), which is returned, and as
    ||(V^dag U) V||_F^2 / K, with U applied to V^dag from the right: both are
    Tr(W^dag Pi W) / K for W = U V and Pi = V V^dag, and neither forms Pi.
    """
    return float(_weak_x(scheme, U))


def check_family_size(size: int, N: int = 0, dense: int = 0) -> None:
    """Refuse a family before any member is built: 1 to MAX_FAMILY members,
    of which the `dense` N x N ones fit in MAX_DENSE_BYTES."""
    if size < 1:
        raise InvalidParams("family must be non-empty")
    if size > MAX_FAMILY:
        raise OutOfRange(f"family size {size} exceeds {MAX_FAMILY}")
    if dense * N * N * 16 > MAX_DENSE_BYTES:
        raise OutOfRange(f"{dense} dense members of dimension {N} need "
                         f"{dense * N * N * 16} bytes, over {MAX_DENSE_BYTES}")


def check_cell_count(seeds: int, members: int, k: int, mode: str) -> None:
    """Refuse a run before any member or scheme is built: seeds x members x
    (K = 2^k messages for classical/relaxed, else 1) cells, at most MAX_CELLS."""
    cells = seeds * members * (2 ** k if mode in ("classical", "relaxed") else 1)
    if cells > MAX_CELLS:
        raise OutOfRange(f"{cells} cells (seeds x members x messages) exceed {MAX_CELLS}")


def check_seed_count(count: int) -> None:
    """Refuse a run before any scheme is built: 1 to MAX_SEEDS scheme seeds."""
    if count < 1:
        raise OutOfRange("need at least one scheme seed")
    if count > MAX_SEEDS:
        raise OutOfRange(f"{count} scheme seeds exceed {MAX_SEEDS}")


def check_scan_params(n: int, k: int, epsilon: float, seeds: int, mode: str) -> None:
    """Refuse a scan's scalar parameters before any member or scheme is
    built: a known mode, epsilon in (0, 1], the seed count, the scheme size."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not 0 < epsilon <= 1:            # false for NaN as well; inf is above 1
        raise OutOfRange(f"epsilon must be a number in (0, 1], got {epsilon}")
    check_seed_count(seeds)
    check_scheme_size(n, k)


@dataclass
class UnitaryFamily:
    """Explicit list of (label, member) tampering members, optionally
    carrying a declared far-from-identity trace bound phi.  A member is a
    qubit Pauli word, held as its 2n-digit row x | z, or a dense unitary,
    which passes `linalg.require_unitary` once, here.  A word's trace is N
    for the identity and 0 otherwise, so its |Tr| <= phi N check is exact."""

    members: list[tuple[str, np.ndarray]]
    trace_bound_phi: Optional[float] = None

    def __post_init__(self):
        check_family_size(len(self.members))
        self.members = [(label, np.asarray(u) if np.ndim(u) == 1 else require_unitary(u))
                        for label, u in self.members]
        phi = self.trace_bound_phi
        for label, u in self.members if phi is not None else ():
            N = 2 ** (u.size // 2) if u.ndim == 1 else len(u)
            trace = N * (not u.any()) if u.ndim == 1 else abs(np.trace(u))
            if trace > phi * N + (0 if u.ndim == 1 else 1e-9):
                raise InvalidParams(f"member {label!r} violates |Tr| <= phi N "
                                    f"({trace:.6g} > {phi * N:.6g})")

    @property
    def size(self) -> int:
        return len(self.members)

    def labels(self) -> list[str]:
        return [label for label, _ in self.members]


def pauli_family(n: int, count: int, seed: int) -> UnitaryFamily:
    """`count` distinct non-identity qubit Pauli words on n qubits, each
    held as its digit row x | z beside its compact label: O(count n) memory,
    and no member's action is built.  Every member is traceless, so the
    family carries phi = 0.
    """
    check_family_size(count)
    words = random_nonidentity_words(2, n, count, child_generator(seed, 0))
    text = (words + ord("0")).astype(np.uint8).tobytes().decode()           # the digit rows
    return UnitaryFamily(members=[(f"pauli:2:{text[i:i + n]}:{text[i + n:i + 2 * n]}", word)
                                  for i, word in zip(range(0, 2 * n * count, 2 * n), words)],
                         trace_bound_phi=0.0)


def parameter_warnings(n: int, k: int, epsilon: float,
                       phi: Optional[float]) -> list[str]:
    """Advisory checks of the theorem's asymptotic parameter inequalities.

    Desk-scale runs routinely violate these; they are reported, never
    enforced.
    """
    warnings = []
    lam = -log2(epsilon)
    if phi is not None and phi ** 2 > epsilon / (2 * 2 ** k):
        warnings.append(
            f"phi^2 = {phi ** 2:.6g} exceeds epsilon/(2K) = {epsilon / (2 * 2 ** k):.6g}"
        )
    if n / 6 < k + lam + 5:
        warnings.append(
            f"n/6 = {n / 6:.3g} below k + lambda + 5 = {k + lam + 5:.3g}: "
            "outside the asymptotic regime of the existence theorem"
        )
    return warnings


def _blocks(members: list, entries: int):
    """The members as blocks, in order: each run of words of one length in
    stacks of entries // N words (one at least), built from their rows by
    `word_actions` as the block is reached, and each dense member alone as a
    one-member view, so that no N x N stack is ever copied."""
    for shape, run in groupby(members, np.shape):
        run = list(run)
        if len(shape) == 2:
            yield from (u[np.newaxis] for u in run)
            continue
        n = shape[0] // 2
        for i in range(0, len(run), width := max(1, entries >> n)):
            words = np.array(run[i:i + width])
            yield MonomialUnitary.from_words(2, words[:, :n], words[:, n:])


def _scan_group(n: int, k: int, seeds: list, blocks, mode: str):
    """A group of seeds' columns (seeds, members[, messages]), metrics and
    violations, over its blocks of members, decoded in turn."""
    V = [build_scheme(n, k, sd).isometry for sd in seeds]
    # one seed's V is used as sampled, with no copy; a group's is stacked row-major, except
    # that quantum keeps one seed's layout, on which V @ amps gives a one-seed call's bits
    V = (V[0][np.newaxis] if len(V) == 1 else np.array(V) if mode != "quantum"
         else np.stack([v.T for v in V]).transpose(0, 2, 1))
    scheme = EncodingScheme(V[:, np.newaxis])
    if mode in ("classical", "relaxed"):
        same, diff, perp = (np.concatenate(col, axis=1) for col in
                            zip(*(_classical_probs(scheme, U) for U in blocks)))
        columns = {"P_same": same, "P_diff": diff, "P_perp": perp}
        violation, metric = same + diff + perp - 1.0, perp if mode == "classical" else same + perp
    elif mode == "weak":
        x = np.concatenate([_weak_x(scheme, U) for U in blocks], axis=1)
        columns, violation, metric = {"X": x}, np.zeros_like(x), 1.0 - x
    else:
        amps = np.full(scheme.K, 1.0 / sqrt(scheme.K), dtype=np.complex128)
        perp, passed, fidelity = (np.concatenate(col, axis=1) for col in
                                  zip(*(_quantum_outcomes(scheme, U, amps) for U in blocks)))
        columns = {"P_perp": perp, "pass_prob": passed, "fidelity_given_pass": fidelity}
        violation, metric = passed + perp - 1.0, perp
    per_seed = [a.reshape(len(seeds), -1) for a in (metric, np.abs(violation))]
    return columns, np.min(per_seed[0], axis=1), np.max(per_seed[1], axis=1)


def family_security_scan(n: int, k: int, family: UnitaryFamily, epsilon: float,
                         seeds: Sequence[int], mode: str = "classical",
                         jobs: int = 1) -> dict:
    """Evaluate the decoder against every (seed, member, message) cell.

    A seed passes when its worst detection metric (min P_perp for the
    classical and quantum decoders, min P_same + P_perp for the relaxed
    one, min 1 - X for the weak one) is at least 1 - epsilon; the report
    carries the pass fraction over seeds and `cells`, the per-cell table as
    named columns in CSV order: the int array `seed`, the `label` list, the
    int array `s` (classical and relaxed), then the mode's float arrays, in
    which NaN is undefined.  Seeds go in groups of the size that needs the
    fewest blocks, on the calling thread; each group builds its blocks as it
    decodes them.  Seeds fan out, one per task, on `linalg.parallel_map`'s
    pool of at most min(jobs, seeds, usable CPUs) threads only when one
    (seed, member) decode holds FAN_OUT_ENTRIES tampered entries (README),
    so never in quantum mode, where it holds N; the tasks of two seeds or
    more then share one list of blocks, built before the pool starts.
    """
    check_scan_params(n, k, epsilon, len(seeds), mode)
    check_cell_count(len(seeds), family.size, k, mode)
    seeds = list(seeds)
    per_member = 1 if mode == "quantum" else 2 ** k
    entries = 2 ** n * per_member                              # of one (seed, member) decode
    area = max(1, BLOCK_ENTRIES // entries)                   # (seed, member) pairs in a block
    step = min(range(1, min(len(seeds), area) + 1),                   # seeds in a group
               key=lambda s: (-(-len(seeds) // s) * -(-family.size // (area // s)), -s))
    members, fan_out = [u for _, u in family.members], entries >= FAN_OUT_ENTRIES
    chunks = [seeds[i:i + step] for i in range(0, len(seeds), step)]       # groups of seeds
    blocks = lambda size: _blocks(members, BLOCK_ENTRIES // (size * per_member))
    shared = list(blocks(1)) if fan_out and len(chunks) > 1 else None     # one seed a task
    groups = parallel_map(lambda g: _scan_group(n, k, g, shared or blocks(len(g)), mode),
                          chunks, jobs if fan_out else 1)
    columns = {key: np.concatenate([g[0][key] for g in groups], axis=None) for key in groups[0][0]}
    metrics, violations = (np.concatenate([g[i] for g in groups]).tolist() for i in (1, 2))
    defined = {key: values[~np.isnan(values)] for key, values in columns.items()}  # all of them
    extrema = {key: {"min": float(v.min()), "max": float(v.max())}
               for key, v in defined.items() if v.size}
    labels = family.labels()
    messages = 2 ** k if mode in ("classical", "relaxed") else 1
    cells = {"seed": np.repeat(np.array(seeds, dtype=np.uint64), len(labels) * messages),
             "label": [lab for lab in labels for _ in range(messages)] * len(seeds)}
    if mode in ("classical", "relaxed"):
        cells["s"] = np.tile(np.arange(messages), len(seeds) * len(labels))
    phi = family.trace_bound_phi
    return {
        "mode": mode, "n": n, "k": k, "epsilon": epsilon,
        "family": {"size": family.size, "trace_bound_phi": phi, "labels": labels},
        "seeds": seeds, "warnings": parameter_warnings(n, k, epsilon, phi),
        "per_seed": [{"seed": sd, "detection_metric": m, "pass": m >= 1.0 - epsilon}
                     for sd, m in zip(seeds, metrics)],
        "pass_fraction": sum(m >= 1.0 - epsilon for m in metrics) / len(seeds),
        "min_detection_metric": min(metrics),
        "extrema": extrema, "max_conservation_violation": max(violations),
        "cells": {**cells, **columns},
    }
