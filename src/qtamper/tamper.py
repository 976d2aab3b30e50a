"""End-to-end tampering experiments: Haar-random encoding schemes, the
four decoders (classical, relaxed, weak, quantum-message), and empirical
security scans over explicit unitary families.

A scheme holds its seeded Haar isometry V and V^dag, formed once.  Every
decoder reads one kernel, `_decode_overlaps`: the overlaps V^dag U states
of one encoded state or an N x m block, and each column's squared norm.
Classical, relaxed and weak read the K x K block of all K codewords once
per member, quantum its one message state.  P_perp is computed on its own
(never as 1 minus the rest), so P_same + P_diff + P_perp = 1 is a real
check; weak compares the block's ||V^dag (U V)||_F^2 with ||(V^dag U) V||_F^2.
No array larger than V is built.  Family members (dense, or a
`MonomialUnitary` for every Pauli word) are validated once, when built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import log2, sqrt
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, InvalidParams, OutOfRange
from .haar import child_generator, sample_encoding_isometry
from .linalg import MAX_DIM, parallel_map, require_normalized
from .pauli import MonomialUnitary, checked_unitary, random_nonidentity_labels

MAX_FAMILY = 10 ** 4
MAX_SEEDS = 10 ** 4
MAX_CELLS = 10 ** 6         # seeds x members x (K for classical/relaxed, else 1)
MAX_DENSE_BYTES = 2 ** 30
CONSERVATION_TOL = 1e-9
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
    state or an N x m block of them: the one decoding kernel."""
    if U.shape[0] != scheme.N:
        raise OutOfRange(f"unitary dimension {U.shape[0]} != N = {scheme.N}")
    w = U @ states
    if w.ndim == 1:
        return scheme.adjoint @ w, float(np.vdot(w, w).real)
    sq = np.einsum("ij,ij->j", w.view(np.float64), w.view(np.float64))   # no conjugated copy
    return scheme.adjoint @ w, sq[0::2] + sq[1::2]


def _classical_rows(scheme: EncodingScheme, U, messages: slice = slice(None)) -> list[dict]:
    """`detect_classical` of each stored message in the slice `messages`,
    all K by default, read off one overlap block."""
    overlaps, norm_sq = _decode_overlaps(scheme, U, scheme.isometry[:, messages])
    weights = np.abs(overlaps) ** 2
    same = weights[range(scheme.K)[messages], range(weights.shape[1])]   # own codeword
    in_code = np.sum(weights, axis=0)
    return [{"P_same": float(a), "P_diff": float(b - a), "P_perp": float(c - b)}
            for a, b, c in zip(same, in_code, norm_sq)]


def detect_classical(scheme: EncodingScheme, U, s: int) -> dict:
    """Decoder outcome probabilities for stored message s under U.

    P_same is the weight on codeword s, P_diff the weight on the other
    codewords, P_perp the weight outside the code subspace.
    """
    if not 0 <= s < scheme.K:
        raise OutOfRange(f"message index {s} outside [0, {scheme.K})")
    return _classical_rows(scheme, U, slice(s, s + 1))[0]


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
    overlaps, norm_sq = _decode_overlaps(scheme, U, scheme.isometry @ amps)
    pass_prob = float(np.sum(np.abs(overlaps) ** 2))
    p_perp = norm_sq - pass_prob
    if pass_prob < FIDELITY_FLOOR:
        fidelity = None
    else:
        fidelity = float(abs(np.vdot(amps, overlaps)) ** 2 / pass_prob)
    return {"P_perp": p_perp, "pass_prob": pass_prob, "fidelity_given_pass": fidelity}


def detect_weak(scheme: EncodingScheme, U) -> float:
    """X = Tr(Pi U Enc(1_K / K) U^dag), the average-message pass weight.

    Computed twice and checked equal: as (1/K) sum_ij |<psi_i| U |psi_j>|^2
    over the kernel's block V^dag (U V), which is returned, and as
    ||(V^dag U) V||_F^2 / K, with U applied to V^dag from the right: both are
    Tr(W^dag Pi W) / K for W = U V and Pi = V V^dag, and neither forms Pi.
    """
    gram, _ = _decode_overlaps(scheme, U, scheme.isometry)
    double_sum = float(np.sum(np.abs(gram) ** 2)) / scheme.K
    other = float(np.sum(np.abs((scheme.adjoint @ U) @ scheme.isometry) ** 2)) / scheme.K
    if abs(other - double_sum) > CONSERVATION_TOL:
        raise ConsistencyError(f"weak-detection routes disagree: {other} vs {double_sum}")
    return double_sum


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

    Every member is traceless, so the family carries phi = 0.
    """
    check_family_size(count)
    labels = random_nonidentity_labels(2, n, count, child_generator(seed, 0))
    members = [(lab.compact(), MonomialUnitary(*lab.action())) for lab in labels]
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
            for s, probs in enumerate(_classical_rows(scheme, u)):
                worst_violation = max(worst_violation, abs(sum(probs.values()) - 1.0))
                rows.append({"seed": scheme_seed, "label": label, "s": s, **probs})
        if mode == "classical":
            metric = min(r["P_perp"] for r in rows)
        else:
            metric = min(r["P_same"] + r["P_perp"] for r in rows)
    elif mode == "weak":
        for label, u in family.members:
            rows.append({"seed": scheme_seed, "label": label, "X": detect_weak(scheme, u)})
        metric = min(1.0 - r["X"] for r in rows)
    else:
        amps = np.full(scheme.K, 1.0 / sqrt(scheme.K), dtype=np.complex128)
        for label, u in family.members:
            out = detect_quantum(scheme, u, amps)
            worst_violation = max(worst_violation, abs(out["pass_prob"] + out["P_perp"] - 1.0))
            rows.append({"seed": scheme_seed, "label": label, **out})
        metric = min(r["P_perp"] for r in rows)
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
    run on `linalg.parallel_map`'s pool of at most min(jobs, seeds, CPUs)
    threads, with OpenBLAS held at one thread while it runs.
    """
    check_scan_params(n, k, epsilon, len(seeds), mode)
    check_cell_count(len(seeds), family.size, k, mode)
    seeds = list(seeds)

    per_seed = parallel_map(lambda sd: _evaluate_seed(sd, n, k, family, epsilon, mode),
                            seeds, jobs)

    rows = [row for entry in per_seed for row in entry["rows"]]
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
        "family": {"size": family.size, "trace_bound_phi": phi, "labels": family.labels()},
        "seeds": seeds,
        "warnings": parameter_warnings(n, k, epsilon, phi),
        "per_seed": [{key: e[key] for key in ("seed", "detection_metric", "pass")}
                     for e in per_seed],
        "pass_fraction": sum(1 for e in per_seed if e["pass"]) / len(per_seed),
        "min_detection_metric": min(e["detection_metric"] for e in per_seed),
        "extrema": extrema,
        "max_conservation_violation": max(e["max_conservation_violation"] for e in per_seed),
        "rows": rows,
    }
