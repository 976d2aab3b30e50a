"""End-to-end tampering experiments: Haar-random encoding schemes, the
four decoders (classical, relaxed, weak, quantum-message), and empirical
security scans over explicit unitary families.

A scheme holds its seeded Haar isometry V and V^dag, formed once.  Every
decoder reads one kernel, `_decode_overlaps`: the overlaps V^dag U states
of one encoded state or an N x c block, and each column's squared norm,
for one unitary U or a stack of them.  A scan decodes a family in blocks:
each run of Pauli members is one stacked `MonomialUnitary` of at most
BLOCK_ENTRIES tampered entries (m x N x K, quantum m x N, and one member
when a member alone is larger), each dense member a block of its own, so
no N x N stack is ever copied.  Classical, relaxed and weak read the
K x K overlaps of all K codewords, quantum its one message state; the
metrics and extrema are reductions over the blocks' columns, the per-cell
table is those columns, and the public decoders are one-member calls of
the same code.  P_perp is
computed on its own (never as 1 minus the rest), so P_same + P_diff +
P_perp = 1 is a real check; weak compares ||V^dag (U V)||_F^2 with
||(V^dag U) V||_F^2 for every member.  Family members (dense, or a
`MonomialUnitary` for every Pauli word) are validated once, when built.
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
from .linalg import MAX_DIM, parallel_map, require_normalized
from .pauli import MonomialUnitary, checked_unitary, random_nonidentity_labels, word_actions

MAX_FAMILY = 10 ** 4
MAX_SEEDS = 10 ** 4
MAX_CELLS = 10 ** 6         # seeds x members x (K for classical/relaxed, else 1)
MAX_DENSE_BYTES = 2 ** 30
CONSERVATION_TOL = 1e-9
BLOCK_ENTRIES = 2 ** 12     # tampered entries in one block of members: 64 KiB of complex128
FIDELITY_FLOOR = 1e-12

MODES = ("classical", "relaxed", "weak", "quantum")


@dataclass
class EncodingScheme:
    """Seeded Haar encoding: the N x K isometry V and nothing N x N."""

    n: int
    k: int
    seed: int
    isometry: np.ndarray

    @property
    def N(self) -> int:
        return 2 ** self.n

    @property
    def K(self) -> int:
        return 2 ** self.k

    @cached_property
    def adjoint(self) -> np.ndarray:
        """V^dag, formed once per scheme."""
        return self.isometry.conj().T


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
    return EncodingScheme(n=n, k=k, seed=seed,
                          isometry=sample_encoding_isometry(2 ** n, 2 ** k, seed))


def _decode_overlaps(scheme: EncodingScheme, U, states: np.ndarray):
    """(V^dag U states, squared norm of each tampered state) for one encoded
    state or an N x c block of them: the one decoding kernel.  U is one
    N x N unitary or a stack of m; a stack's member axis leads both results."""
    if U.shape[-1] != scheme.N:
        raise OutOfRange(f"unitary dimension {U.shape[-1]} != N = {scheme.N}")
    w = U @ states
    if states.ndim == 1:
        return (scheme.adjoint @ w[..., np.newaxis])[..., 0], np.vecdot(w, w).real
    wf = w.view(np.float64)
    sq = np.einsum("...ij,...ij->...j", wf, wf)    # no conjugated copy
    return scheme.adjoint @ w, sq[..., 0::2] + sq[..., 1::2]


def _classical_probs(scheme: EncodingScheme, U, messages: slice = slice(None)):
    """(P_same, P_diff, P_perp) of each stored message in the slice
    `messages`, all K by default, read off one overlap block: arrays over
    the messages, behind a stack's member axis."""
    overlaps, norm_sq = _decode_overlaps(scheme, U, scheme.isometry[:, messages])
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
    """Explicit list of (label, unitary) tampering members, optionally
    carrying a declared far-from-identity trace bound phi.  Each member
    passes `pauli.checked_unitary` once, here."""

    members: list[tuple[str, object]]
    trace_bound_phi: Optional[float] = None

    def __post_init__(self):
        check_family_size(len(self.members))
        self.members = [(label, checked_unitary(u)) for label, u in self.members]
        phi = self.trace_bound_phi
        for label, u in self.members:
            if phi is not None and abs(u.trace()) > phi * u.shape[0] + 1e-9:
                raise InvalidParams(f"member {label!r} violates |Tr| <= phi N "
                                    f"({abs(u.trace()):.6g} > {phi * u.shape[0] + 1e-9:.6g})")

    @property
    def size(self) -> int:
        return len(self.members)

    def labels(self) -> list[str]:
        return [label for label, _ in self.members]


def pauli_family(n: int, count: int, seed: int) -> UnitaryFamily:
    """`count` distinct non-identity qubit Pauli words on n qubits.

    Every member is traceless, so the family carries phi = 0.  The words
    are built and validated in stacks of at most BLOCK_ENTRIES entries
    (words x N), and members are views of them.
    """
    check_family_size(count)
    labels = random_nonidentity_labels(2, n, count, child_generator(seed, 0))
    x = np.array([lab.x for lab in labels], dtype=np.intp)
    z = np.array([lab.z for lab in labels], dtype=np.intp)
    step = max(1, BLOCK_ENTRIES // 2 ** n)
    words = [u for i in range(0, count, step)
             for u in MonomialUnitary(*word_actions(2, x[i:i + step], z[i:i + step]))]
    return UnitaryFamily(members=[(lab.compact(), u) for lab, u in zip(labels, words)],
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


def _blocks(unitaries: list, width: int):
    """The members as decode blocks, in order: each run of monomials in
    stacks of at most `width`, each dense member alone as a one-member view,
    so that no N x N stack is ever copied."""
    for monomial, run in groupby(unitaries, lambda u: isinstance(u, MonomialUnitary)):
        run = list(run)
        if monomial:
            yield from (MonomialUnitary.stack(run[i:i + width]) for i in range(0, len(run), width))
        else:
            yield from (u[np.newaxis] for u in run)


def _evaluate_seed(scheme_seed: int, n: int, k: int, family: UnitaryFamily,
                   epsilon: float, mode: str) -> dict:
    """One scheme's columns over every (member, message) cell, member-major,
    with its detection metric and worst conservation violation."""
    scheme = build_scheme(n, k, scheme_seed)
    width = max(1, BLOCK_ENTRIES // (scheme.N * (1 if mode == "quantum" else scheme.K)))
    blocks = _blocks([u for _, u in family.members], width)
    violation = 0.0
    if mode in ("classical", "relaxed"):
        same, diff, perp = (np.concatenate(col, axis=None) for col in
                            zip(*(_classical_probs(scheme, U) for U in blocks)))
        columns = {"P_same": same, "P_diff": diff, "P_perp": perp}
        violation = np.max(np.abs(same + diff + perp - 1.0))
        metric = np.min(perp if mode == "classical" else same + perp)
    elif mode == "weak":
        x = np.concatenate([_weak_x(scheme, U) for U in blocks])
        columns = {"X": x}
        metric = np.min(1.0 - x)
    else:
        amps = np.full(scheme.K, 1.0 / sqrt(scheme.K), dtype=np.complex128)
        perp, passed, fidelity = (np.concatenate(col) for col in
                                  zip(*(_quantum_outcomes(scheme, U, amps) for U in blocks)))
        columns = {"P_perp": perp, "pass_prob": passed, "fidelity_given_pass": fidelity}
        violation = np.max(np.abs(passed + perp - 1.0))
        metric = np.min(perp)
    return {
        "seed": scheme_seed,
        "columns": columns,
        "detection_metric": float(metric),
        "pass": bool(metric >= 1.0 - epsilon),
        "max_conservation_violation": float(violation),
    }


def family_security_scan(n: int, k: int, family: UnitaryFamily, epsilon: float,
                         seeds: Sequence[int], mode: str = "classical",
                         jobs: int = 1) -> dict:
    """Evaluate the decoder against every (seed, member, message) cell.

    A seed passes when its worst detection metric (min P_perp for the
    classical and quantum decoders, min P_same + P_perp for the relaxed
    one, min 1 - X for the weak one) is at least 1 - epsilon; the report
    carries the pass fraction over seeds and `cells`, the per-cell table as
    named columns: int arrays `seed` and `s` (classical and relaxed), the
    `label` list and float arrays in which NaN is undefined.  Seeds run on
    `linalg.parallel_map`'s pool of at most min(jobs, seeds, CPUs) threads,
    with OpenBLAS held at one thread while it runs.
    """
    check_scan_params(n, k, epsilon, len(seeds), mode)
    check_cell_count(len(seeds), family.size, k, mode)
    seeds = list(seeds)

    per_seed = parallel_map(lambda sd: _evaluate_seed(sd, n, k, family, epsilon, mode),
                            seeds, jobs)

    columns = {key: np.concatenate([e["columns"][key] for e in per_seed])
               for key in per_seed[0]["columns"]}
    extrema = {}
    for key, values in columns.items():
        values = values[~np.isnan(values)]       # every defined value, whichever row is first
        if values.size:
            extrema[key] = {"min": float(np.min(values)), "max": float(np.max(values))}
    labels = family.labels()
    messages = 2 ** k if mode in ("classical", "relaxed") else 1
    cells = {"seed": np.repeat(np.array(seeds, dtype=np.uint64), len(labels) * messages),
             "label": [lab for lab in labels for _ in range(messages)] * len(seeds)}
    if mode in ("classical", "relaxed"):
        cells["s"] = np.tile(np.arange(messages), len(seeds) * len(labels))
    phi = family.trace_bound_phi
    return {
        "mode": mode,
        "n": n,
        "k": k,
        "epsilon": epsilon,
        "family": {"size": family.size, "trace_bound_phi": phi, "labels": labels},
        "seeds": seeds,
        "warnings": parameter_warnings(n, k, epsilon, phi),
        "per_seed": [{key: e[key] for key in ("seed", "detection_metric", "pass")}
                     for e in per_seed],
        "pass_fraction": sum(1 for e in per_seed if e["pass"]) / len(per_seed),
        "min_detection_metric": min(e["detection_metric"] for e in per_seed),
        "extrema": extrema,
        "max_conservation_violation": max(e["max_conservation_violation"] for e in per_seed),
        "cells": {**cells, **columns},
    }
