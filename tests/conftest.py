"""Shared test oracles."""

import itertools
from collections import deque

import numpy as np

from qtamper.pauli import PauliLabel
from qtamper.qamd import encode, wrong_decode_prob_exact


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
