"""End-to-end tampering experiments: Haar-random encoding schemes, the
four decoders (classical, relaxed, weak, quantum-message), and empirical
security scans over explicit unitary families.

A scheme is a Haar isometry V (first K columns of a seeded Haar unitary)
together with its decoder POVM: the K rank-1 codeword projectors, the
code-subspace projector Pi = V V^dag, and Pi_perp = 1 - Pi.  Decoder
probabilities are computed from codeword overlaps; P_perp is always
computed independently (never as 1 minus the rest), so the reported
P_same + P_diff + P_perp = 1 conservation is a real numerical check.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import log2, sqrt
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, InvalidParams, OutOfRange
from .haar import child_generator, sample_encoding_isometry
from .linalg import identity, projector, require_normalized, require_unitary
from .pauli import pauli_matrix, random_nonidentity_labels

MAX_DIM = 4096
MAX_FAMILY = 10 ** 4
CONSERVATION_TOL = 1e-9
FIDELITY_FLOOR = 1e-12

MODES = ("classical", "relaxed", "weak", "quantum")


@dataclass
class EncodingScheme:
    """Seeded Haar encoding plus its derived decoder POVM elements."""

    n: int
    k: int
    seed: int
    isometry: np.ndarray
    codeword_projectors: list[np.ndarray]
    subspace_projector: np.ndarray
    perp_projector: np.ndarray

    @property
    def N(self) -> int:
        return 2 ** self.n

    @property
    def K(self) -> int:
        return 2 ** self.k

    def codeword(self, s: int) -> np.ndarray:
        return self.isometry[:, s]


def build_scheme(n: int, k: int, seed: int) -> EncodingScheme:
    """Scheme with N = 2^n codeword space and K = 2^k messages."""
    N, K = 2 ** n, 2 ** k
    if N > MAX_DIM:
        raise OutOfRange(f"N = {N} exceeds {MAX_DIM}")
    if not 1 <= K < N:
        raise OutOfRange(f"need 1 <= K < N (K={K}, N={N})")
    V = sample_encoding_isometry(N, K, seed)
    pi = V @ V.conj().T
    return EncodingScheme(
        n=n, k=k, seed=seed, isometry=V,
        codeword_projectors=[projector(V[:, i]) for i in range(K)],
        subspace_projector=pi,
        perp_projector=identity(N) - pi,
    )


def _decode_overlaps(scheme: EncodingScheme, U: np.ndarray, state: np.ndarray):
    """(overlaps with each codeword, squared norm of the tampered state)."""
    w = U @ state
    return scheme.isometry.conj().T @ w, float(np.vdot(w, w).real)


def detect_classical(scheme: EncodingScheme, U: np.ndarray, s: int) -> dict:
    """Decoder outcome probabilities for stored message s under U.

    P_same is the weight on codeword s, P_diff the weight on the other
    codewords, P_perp the weight outside the code subspace.
    """
    U = require_unitary(U)
    if U.shape[0] != scheme.N:
        raise OutOfRange(f"unitary dimension {U.shape[0]} != N = {scheme.N}")
    if not 0 <= s < scheme.K:
        raise OutOfRange(f"message index {s} outside [0, {scheme.K})")
    overlaps, norm_sq = _decode_overlaps(scheme, U, scheme.codeword(s))
    weights = np.abs(overlaps) ** 2
    p_same = float(weights[s])
    p_diff = float(np.sum(weights) - weights[s])
    p_perp = norm_sq - float(np.sum(weights))
    return {"P_same": p_same, "P_diff": p_diff, "P_perp": p_perp}


def detect_relaxed(scheme: EncodingScheme, U: np.ndarray, s: int) -> float:
    """Probability of the relaxed guarantee: original message or reject."""
    probs = detect_classical(scheme, U, s)
    return probs["P_same"] + probs["P_perp"]


def detect_quantum(scheme: EncodingScheme, U: np.ndarray,
                   message_amplitudes: Sequence[complex]) -> dict:
    """Subspace-POVM decoder for a quantum message sum_i a_i |i>.

    Returns P_perp, the pass probability, and the fidelity of the
    decoded state with the original message conditioned on passing
    (None when the pass probability is below 1e-12: the conditional
    state is undefined there, not zero).
    """
    U = require_unitary(U)
    amps = require_normalized(np.asarray(message_amplitudes, dtype=np.complex128))
    if amps.shape != (scheme.K,):
        raise OutOfRange(f"need {scheme.K} amplitudes")
    overlaps, norm_sq = _decode_overlaps(scheme, U, scheme.isometry @ amps)
    pass_prob = float(np.sum(np.abs(overlaps) ** 2))
    p_perp = norm_sq - pass_prob
    if pass_prob < FIDELITY_FLOOR:
        fidelity = None
    else:
        fidelity = float(abs(np.vdot(amps, overlaps)) ** 2 / pass_prob)
    return {"P_perp": p_perp, "pass_prob": pass_prob, "fidelity_given_pass": fidelity}


def detect_weak(scheme: EncodingScheme, U: np.ndarray) -> float:
    """X = Tr(Pi U Enc(1_K / K) U^dag), the average-message pass weight.

    Computed twice -- once from the dense projector matrices on the
    maximally mixed encoded state, once as the overlap double sum
    (1/K) sum_ij |<psi_i| U |psi_j>|^2 -- and asserted equal.
    """
    U = require_unitary(U)
    if U.shape[0] != scheme.N:
        raise OutOfRange(f"unitary dimension {U.shape[0]} != N = {scheme.N}")
    rho = scheme.subspace_projector / scheme.K  # Enc of the maximally mixed message
    direct = float(np.trace(scheme.subspace_projector @ U @ rho @ U.conj().T).real)
    gram = scheme.isometry.conj().T @ U @ scheme.isometry
    double_sum = float(np.sum(np.abs(gram) ** 2)) / scheme.K
    if abs(direct - double_sum) > CONSERVATION_TOL:
        raise ConsistencyError(
            f"weak-detection routes disagree: {direct} vs {double_sum}"
        )
    return double_sum


@dataclass
class UnitaryFamily:
    """Explicit list of (label, matrix) tampering unitaries, optionally
    carrying a declared far-from-identity trace bound phi."""

    members: list[tuple[str, np.ndarray]]
    trace_bound_phi: Optional[float] = None

    def __post_init__(self):
        if not self.members:
            raise InvalidParams("family must be non-empty")
        if len(self.members) > MAX_FAMILY:
            raise OutOfRange(f"family size {len(self.members)} exceeds {MAX_FAMILY}")
        for label, u in self.members:
            u = require_unitary(u)
            if self.trace_bound_phi is not None:
                n = u.shape[0]
                bound = self.trace_bound_phi * n + 1e-9
                if abs(np.trace(u)) > bound:
                    raise InvalidParams(
                        f"member {label!r} violates |Tr| <= phi N "
                        f"({abs(np.trace(u)):.6g} > {bound:.6g})"
                    )

    @property
    def size(self) -> int:
        return len(self.members)

    def labels(self) -> list[str]:
        return [label for label, _ in self.members]


def pauli_family(n: int, count: int, seed: int) -> UnitaryFamily:
    """`count` distinct non-identity qubit Pauli words on n qubits.

    Every member is traceless, so the family carries phi = 0.
    """
    labels = random_nonidentity_labels(2, n, count, child_generator(seed, 0))
    members = [(lab.compact(), pauli_matrix(lab)) for lab in labels]
    return UnitaryFamily(members=members, trace_bound_phi=0.0)


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


def _evaluate_seed(scheme_seed: int, n: int, k: int, family: UnitaryFamily,
                   epsilon: float, mode: str) -> dict:
    scheme = build_scheme(n, k, scheme_seed)
    rows = []
    worst_violation = 0.0
    if mode in ("classical", "relaxed"):
        for label, u in family.members:
            for s in range(scheme.K):
                probs = detect_classical(scheme, u, s)
                total = probs["P_same"] + probs["P_diff"] + probs["P_perp"]
                worst_violation = max(worst_violation, abs(total - 1.0))
                rows.append({"seed": scheme_seed, "label": label, "s": s, **probs})
        if mode == "classical":
            metric = min(r["P_perp"] for r in rows)
        else:
            metric = min(r["P_same"] + r["P_perp"] for r in rows)
    elif mode == "weak":
        for label, u in family.members:
            x = detect_weak(scheme, u)
            rows.append({"seed": scheme_seed, "label": label, "X": x})
        metric = min(1.0 - r["X"] for r in rows)
    elif mode == "quantum":
        amps = np.full(scheme.K, 1.0 / sqrt(scheme.K), dtype=np.complex128)
        for label, u in family.members:
            out = detect_quantum(scheme, u, amps)
            worst_violation = max(
                worst_violation, abs(out["pass_prob"] + out["P_perp"] - 1.0)
            )
            rows.append({
                "seed": scheme_seed, "label": label,
                "P_perp": out["P_perp"], "pass_prob": out["pass_prob"],
                "fidelity_given_pass": out["fidelity_given_pass"],
            })
        metric = min(r["P_perp"] for r in rows)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {
        "seed": scheme_seed,
        "rows": rows,
        "detection_metric": metric,
        "pass": bool(metric >= 1.0 - epsilon),
        "max_conservation_violation": worst_violation,
    }


def family_security_scan(n: int, k: int, family: UnitaryFamily, epsilon: float,
                         seeds: Sequence[int], mode: str = "classical",
                         jobs: int = 1) -> dict:
    """Evaluate the decoder against every (seed, member, message) cell.

    A seed passes when its worst detection metric (min P_perp for the
    classical and quantum decoders, min P_same + P_perp for the relaxed
    one, min 1 - X for the weak one) is at least 1 - epsilon; the report
    carries the pass fraction over seeds plus every per-cell row.  Seeds
    run on at most min(jobs, seeds, CPUs) threads.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if not seeds:
        raise OutOfRange("need at least one scheme seed")
    seeds = list(seeds)

    workers = min(jobs, len(seeds), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_seed = list(
                pool.map(lambda sd: _evaluate_seed(sd, n, k, family, epsilon, mode), seeds)
            )
    else:
        per_seed = [_evaluate_seed(sd, n, k, family, epsilon, mode) for sd in seeds]

    rows = [row for entry in per_seed for row in entry["rows"]]
    metrics = [entry["detection_metric"] for entry in per_seed]
    numeric_keys = [k for k, v in rows[0].items() if isinstance(v, float)]
    extrema = {}
    for key in numeric_keys:
        values = [r[key] for r in rows if r[key] is not None]
        if values:
            extrema[key] = {"min": min(values), "max": max(values)}
    phi = family.trace_bound_phi
    return {
        "mode": mode,
        "n": n,
        "k": k,
        "epsilon": epsilon,
        "family": {
            "size": family.size,
            "trace_bound_phi": phi,
            "labels": family.labels(),
        },
        "seeds": seeds,
        "warnings": parameter_warnings(n, k, epsilon, phi),
        "per_seed": [
            {
                "seed": e["seed"],
                "detection_metric": e["detection_metric"],
                "pass": e["pass"],
            }
            for e in per_seed
        ],
        "pass_fraction": sum(1 for e in per_seed if e["pass"]) / len(per_seed),
        "min_detection_metric": min(metrics),
        "extrema": extrema,
        "max_conservation_violation": max(
            e["max_conservation_violation"] for e in per_seed
        ),
        "rows": rows,
    }
