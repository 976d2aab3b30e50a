"""Shared test oracles."""

import itertools
from collections import deque

import numpy as np

from qtamper.errors import IdentityTampering, InvalidParams
from qtamper.pauli import PauliLabel, omega_powers
from qtamper.qamd import _difference_roots, _tag_table, encode


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


def _check_word(params, x, z):
    if len(x) != params.block_length or len(z) != params.block_length:
        raise InvalidParams(f"exponent vectors must have length {params.block_length}")
    x = tuple(v % params.q for v in x)
    z = tuple(v % params.q for v in z)
    if not any(x) and not any(z):
        raise IdentityTampering("tampering word is the identity")
    return x, z


def phase_sum(params, s, z, roots):
    """(1/q) sum over the roots r of omega^{<z_{1:d}, s> + z_{d+1} r + z_{d+2} f(s, r)}."""
    q, d = params.q, params.d
    tags = _tag_table(params, s)
    table = omega_powers(q)
    base = sum(z[i] * s[i] for i in range(d)) % q
    total = 0j
    for r in roots:
        total += table[(base + z[d] * r + z[d + 1] * tags[r]) % q]
    return complex(total / q)


def overlap_amplitude(s, s_prime, x, z, params):
    """Exact <psi_{s'}| X^x Z^z |psi_s>, computed symbolically, one cell.

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
    return phase_sum(params, s, z, _difference_roots(params, s, x))


def wrong_decode_prob_exact(s, s_prime, x, z, params):
    """|<psi_{s'}| X^x Z^z |psi_s>|^2, or with s_prime=None the aggregate
    sum over all s' != s (the total wrong-decode mass).

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
    tampered[rows] = phase * encode(s, params).state
    return {m: complex(np.vdot(encode(m, params).state, tampered))
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
