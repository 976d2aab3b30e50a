import itertools
from math import sqrt

import numpy as np
import pytest
from conftest import RepeatedRows, pauli_matrix

from qtamper import moments
from qtamper.errors import NotNormalized, NotUnitary, OutOfRange, RankDeficient
from qtamper.haar import (child_generator, complex_gaussian, sample_encoding_isometry,
                          sample_haar_unitary)
from qtamper.moments import (MAX_TRIALS, MomentSpec, _frame_coefficients, _frame_x, _mc_chunk,
                             closed_form_moment, exact_moment, first_moment_js,
                             first_moment_ss, mc_moment)
from qtamper.pauli import MonomialUnitary, PauliLabel
from qtamper.perm import iter_tuples


def _pauli(n_qubits, x, z):
    return pauli_matrix(PauliLabel(q=2, x=x, z=z))


def test_first_moment_closed_forms_identity():
    eye = np.eye(8, dtype=complex)
    assert first_moment_js(eye) == 0.0
    assert first_moment_ss(eye) == 1.0


def test_first_moment_closed_forms_pauli():
    u = _pauli(2, (1, 0), (0, 1))
    assert abs(first_moment_js(u) - 4 / 15) < 1e-15
    assert abs(first_moment_ss(u) - 1 / 5) < 1e-15


def test_first_moment_js_upper_bound():
    for seed in range(6):
        u = sample_haar_unitary(8, seed)
        assert first_moment_js(u) <= 2 / 8


def test_first_moment_ss_trace_form():
    # |Tr U| = phi N gives phi^2 N/(N+1) + 1/(N+1) <= phi^2 + 1/N
    n = 16
    for phi in (0.0, 0.25, 0.5, 1.0):
        theta = np.arccos(phi)
        # conjugate phase pairs: Tr = N cos(theta) = phi N
        u = np.diag(np.exp(1j * theta * np.tile([1, -1], n // 2)))
        assert abs(abs(np.trace(u)) - phi * n) < 1e-12
        value = first_moment_ss(u)
        expected = phi ** 2 * n / (n + 1) + 1 / (n + 1)
        assert abs(value - expected) < 1e-12
        assert value <= phi ** 2 + 1 / n + 1e-12


def test_first_moment_ss_monotone_in_trace():
    n = 8
    rng = child_generator(23, 0)
    phases = rng.random(n) * 2 * np.pi
    values = []
    for scale in (1.0, 0.8, 0.5, 0.2, 0.0):
        u = np.diag(np.exp(1j * scale * phases))
        values.append((abs(np.trace(u)) ** 2, first_moment_ss(u)))
    values.sort()
    moments = [m for _, m in values]
    assert moments == sorted(moments)


def _message(k, target, a_m):
    """Unit amplitudes over k messages with a_m at `target` and the rest of
    the weight spread evenly over the other entries."""
    amps = np.full(k, sqrt((1 - abs(a_m) ** 2) / max(k - 1, 1)), dtype=complex)
    amps[target] = a_m
    return amps


def test_mc_chunk_draws_only_the_columns_it_reads():
    """js reads two Gaussian rows and ss one, and m reads two rows (one when
    |a_m| = 1) whose values depend on a_m alone, so each pattern's Monte
    Carlo chunks are bit-identical for every message count K."""
    u = sample_haar_unitary(16, 61)
    for pattern, ks in (("ss", (2, 8)), ("js", (2, 5))):
        results = [_mc_chunk(MomentSpec(pattern, 2, u, K=k), 62, 3, 1000) for k in ks]
        assert results[0] == results[1]
    for a_m, cases in ((0.6 - 0.48j, ((2, 1), (3, 2), (8, 5), (15, 0))),
                       (1j, ((1, 0), (4, 2), (9, 8)))):
        results = [_mc_chunk(MomentSpec("m", 2, u, K=k, message_amplitudes=_message(k, m, a_m),
                                        target_index=m), 62, 3, 1000) for k, m in cases]
        assert all(r == results[0] for r in results), (a_m, results)


def _cgs2_frame(g):
    """The orthonormal frame of the rows g[0], g[1] of a (2, count, N) block,
    formed explicitly: normalize, project twice, normalize."""
    q0 = g[0] / np.linalg.norm(g[0], axis=-1, keepdims=True)
    v = g[1].copy()
    for _ in range(2):
        v -= np.vecdot(q0, v)[:, np.newaxis] * q0
    return q0, v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [3, 16, 64, 4096])
def test_gram_scalars_match_the_orthonormalized_frame(n):
    """Per draw, X read off the Gram scalars of a Gaussian block equals X of
    its explicit frame within 1e-13 of max(X, 1/N), for js and ss, on a
    dense unitary and on a Pauli word's monomial action."""
    count = 64 if n == 4096 else 4096
    unitaries = [sample_haar_unitary(n, 70 + n)] if n <= 64 else []
    if n in (16, 4096):
        m = n.bit_length() - 1
        word = PauliLabel(2, (1,) + (0,) * (m - 1), (0, 1) + (1,) * (m - 2))
        unitaries.append(MonomialUnitary(*word.action()))
    for i, u in enumerate(unitaries):
        g = complex_gaussian(child_generator(80 + n, i), (2, count, n))
        q0, q1 = _cgs2_frame(g)
        moved = q0 @ u.T
        for pattern, read in (("js", q1), ("ss", q0)):
            x = _frame_x(g, u, *_frame_coefficients(MomentSpec(pattern, 1, u)))
            want = np.abs(np.vecdot(read, moved)) ** 2
            assert np.all(np.abs(x - want) <= 1e-13 * np.maximum(want, 1 / n)), (n, i, pattern)


@pytest.mark.parametrize("n, k", [(8, 2), (16, 5), (64, 7)])
def test_m_two_frame_matches_the_k_frame(n, k):
    """For a K-frame V and complex amplitudes a, the 2-frame psi1 = V a,
    psi2 = (psi_m - conj(a_m) psi1) / r gives X = |psi_m^dag U V a|^2
    within 1e-13, for every POVM row m."""
    v = sample_encoding_isometry(n, k, 90 + n)
    u = sample_haar_unitary(n, 91 + n)
    rng = child_generator(92 + n, 0)
    amps = complex_gaussian(rng, k)
    amps /= np.linalg.norm(amps)
    psi1 = v @ amps
    for m in range(k):
        a_m = amps[m]
        psi2 = (v[:, m] - a_m.conjugate() * psi1) / sqrt(1 - abs(a_m) ** 2)
        spec = MomentSpec("m", 1, u, K=k, message_amplitudes=amps, target_index=m)
        x = _frame_x(np.stack([psi1, psi2])[:, np.newaxis], u, *_frame_coefficients(spec))
        want = abs(np.vdot(v[:, m], u @ psi1)) ** 2
        assert abs(x[0] - want) <= 1e-13, (m, x[0], want)


def test_mc_quantum_message_matches_exact():
    """m against `exact` within 4 standard errors: complex amplitudes, a
    POVM row other than 0 where K > 1, and K = 1, where |a_m| = 1 and one
    Gaussian row is read."""
    u = np.diag(np.exp(0.7j * np.arange(16) / 16))   # |Tr U| near N: X depends on |a_m|
    for k, m, seed in ((1, 0, 101), (3, 2, 103), (7, 4, 107)):
        rng = child_generator(seed, 0)
        amps = complex_gaussian(rng, k)
        amps /= np.linalg.norm(amps)
        for t in (1, 2):
            spec = MomentSpec("m", t, u, K=k, message_amplitudes=amps, target_index=m)
            exact = exact_moment(spec)
            est, se = mc_moment(spec, 50_000, seed=seed + t)
            assert abs(est - exact) <= 4 * se, (k, m, t, est, exact, se)


def test_js_kernel_at_n2_matches_the_closed_form():
    """At N = 2 (below the smallest js spec, which needs 2 <= K < N) the
    2-frame is a whole unitary and g1 comes nearer to parallel with g0 than
    at any larger N; the kernel's mean of X still meets E[X_js] within 4
    standard errors."""
    u = sample_haar_unitary(2, 111)
    x = np.concatenate([_frame_x(complex_gaussian(child_generator(112, c), (2, 4096, 2)),
                                 u, 0.0, 1.0) for c in range(25)])
    assert abs(x.mean() - first_moment_js(u)) <= 4 * x.std() / sqrt(x.size)


def test_rank_deficient_gaussian_rows_raise_in_the_chunk(monkeypatch):
    """Equal rows (perp = 0) fail js and m; zero rows (n0 = 0) fail ss."""
    u = sample_haar_unitary(8, 113)
    specs = [MomentSpec("js", 1, u),
             MomentSpec("m", 1, u, K=3, message_amplitudes=_message(3, 1, 0.6j), target_index=1)]
    monkeypatch.setattr(moments, "child_generator", lambda seed, index: RepeatedRows(seed))
    for spec in specs:
        with pytest.raises(RankDeficient):
            _mc_chunk(spec, 5, 0, 64)
    monkeypatch.setattr(moments, "child_generator", lambda seed, index: RepeatedRows(seed, 1.0))
    _mc_chunk(specs[0], 5, 0, 64)   # jitter 1: the source's own fresh draws pass

    class ZeroRows:
        def standard_normal(self, out):
            out[...] = 0.0
            return out

    monkeypatch.setattr(moments, "child_generator", lambda seed, index: ZeroRows())
    with pytest.raises(RankDeficient):
        _mc_chunk(MomentSpec("ss", 1, u), 5, 0, 64)


def test_not_unitary_rejected():
    with pytest.raises(NotUnitary):
        first_moment_js(np.eye(4) * 1.01)
    with pytest.raises(NotUnitary):
        MomentSpec("js", 1, np.eye(4) * 1.01)


def test_spec_validation():
    eye = np.eye(8, dtype=complex)
    with pytest.raises(ValueError):
        MomentSpec("xx", 1, eye)
    with pytest.raises(OutOfRange):
        MomentSpec("js", 4, eye)
    with pytest.raises(OutOfRange):
        MomentSpec("js", 3, np.eye(4, dtype=complex))  # N < 2t
    with pytest.raises(ValueError):
        MomentSpec("m", 1, eye)  # amplitudes missing
    with pytest.raises(NotNormalized):
        MomentSpec("m", 1, eye, K=2, message_amplitudes=np.array([1.0, 1.0]))
    with pytest.raises(OutOfRange):
        MomentSpec("m", 1, eye, K=2, message_amplitudes=np.array([1.0, 0.0]),
                   target_index=5)
    with pytest.raises(OutOfRange):
        MomentSpec("js", 1, eye, K=1)


def test_exact_matches_closed_forms_battery():
    # 20-unitary battery: t = 1 specialization to 1e-12 relative
    count = 0
    for n in (4, 8, 16):
        for seed in range(7):
            u = sample_haar_unitary(n, 1000 + seed)
            js = exact_moment(MomentSpec("js", 1, u))
            ss = exact_moment(MomentSpec("ss", 1, u))
            assert abs(js - first_moment_js(u)) <= 1e-12 * max(abs(js), 1e-300)
            assert abs(ss - first_moment_ss(u)) <= 1e-12 * max(abs(ss), 1e-300)
            count += 1
    assert count >= 20


def test_quantum_message_weights_against_brute_force():
    """The per-beta amplitude weight must equal the brute-force execution
    of the delta constraints over the amplitude indices."""
    k = 3
    rng = child_generator(29, 0)
    amps = rng.normal(size=k) + 1j * rng.normal(size=k)
    amps /= np.linalg.norm(amps)
    m = 1
    for t in (1, 2):
        p = 2 * t
        for beta in iter_tuples(p):
            brute = 0j
            for i_vec in itertools.product(range(k), repeat=t):
                for j_vec in itertools.product(range(k), repeat=t):
                    cols = [0] * p       # unconjugated columns
                    cols2 = [0] * p      # conjugated columns
                    for a in range(t):
                        cols[2 * a] = i_vec[a]
                        cols[2 * a + 1] = m
                        cols2[2 * a] = m
                        cols2[2 * a + 1] = j_vec[a]
                    if all(cols[pos] == cols2[beta[pos]] for pos in range(p)):
                        term = np.prod([amps[i] for i in i_vec]) if t else 1
                        term = term * np.prod([np.conj(amps[j]) for j in j_vec])
                        brute += term
            ell = sum(1 for pos in range(0, p, 2) if beta[pos] % 2 == 0)
            expected = abs(amps[m]) ** (2 * ell)
            assert abs(brute - expected) < 1e-12, (t, beta)


def test_quantum_message_reduces_to_classical_patterns():
    u = sample_haar_unitary(8, 55)
    basis = np.array([1.0, 0.0], dtype=complex)
    for t in (1, 2):
        same = exact_moment(MomentSpec("m", t, u, K=2, message_amplitudes=basis,
                                       target_index=0))
        assert same == exact_moment(MomentSpec("ss", t, u))
        other = exact_moment(MomentSpec("m", t, u, K=2, message_amplitudes=basis,
                                        target_index=1))
        assert other == exact_moment(MomentSpec("js", t, u))


def test_quantum_message_first_moment_formula():
    u = sample_haar_unitary(8, 56)
    n = 8
    amps = np.array([0.6, 0.8j])
    tr2 = abs(np.trace(u)) ** 2
    for idx in (0, 1):
        got = exact_moment(MomentSpec("m", 1, u, K=2, message_amplitudes=amps,
                                      target_index=idx))
        am2 = abs(amps[idx]) ** 2
        want = (tr2 * (n * am2 - 1) + n * n - n * am2) / (n * (n * n - 1))
        assert abs(got - want) < 1e-13


def test_mc_identity_edge_cases():
    eye = np.eye(8, dtype=complex)
    est, se = mc_moment(MomentSpec("js", 1, eye), 2000, seed=1)
    assert est <= 1e-25 and se <= 1e-25
    est, se = mc_moment(MomentSpec("ss", 1, eye), 2000, seed=1)
    assert abs(est - 1.0) <= 1e-12 and se <= 1e-12


def test_mc_matches_exact_all_patterns():
    u = _pauli(3, (1, 0, 1), (0, 1, 0))
    amps = np.full(2, 1 / np.sqrt(2), dtype=complex)
    for t in (1, 2):
        for pattern in ("js", "ss", "m"):
            kwargs = {}
            if pattern == "m":
                kwargs = {"message_amplitudes": amps, "target_index": 0}
            spec = MomentSpec(pattern, t, u, K=2, **kwargs)
            exact = exact_moment(spec)
            est, se = mc_moment(spec, 100_000, seed=40 + t)
            assert abs(est - exact) <= 4 * se, (pattern, t, est, exact, se)


def test_mc_reproducible_and_jobs_independent():
    u = sample_haar_unitary(8, 77)
    spec = MomentSpec("ss", 2, u)
    a = mc_moment(spec, 5000, seed=3)
    b = mc_moment(spec, 5000, seed=3)
    c = mc_moment(spec, 5000, seed=3, jobs=4)
    assert a == b == c
    with pytest.raises(OutOfRange):
        mc_moment(spec, 999, seed=3)
    with pytest.raises(OutOfRange):
        mc_moment(spec, MAX_TRIALS + 1, seed=3)


def test_moment_growth_bound_zero_trace():
    # finite-sweep sanity of the O(t^4/N)^t scaling with constant 16
    n = 64
    rng = child_generator(31, 0)
    for _ in range(3):
        digits = rng.integers(0, 2, size=12)
        if not digits.any():
            continue
        u = _pauli(6, tuple(int(v) for v in digits[:6]), tuple(int(v) for v in digits[6:]))
        for t in (1, 2, 3):
            value = exact_moment(MomentSpec("js", t, u))
            assert value <= (16 * t ** 4 / n) ** t


def test_monomial_and_dense_pauli_moments_agree():
    """A Pauli word gives the same moments as its monomial action and as its
    dense matrix: exact and closed forms equal, Monte Carlo bit for bit for
    qubit words (real phases) and within 1e-15 relative otherwise."""
    labels = [PauliLabel(2, (1, 0, 1), (0, 1, 0)), PauliLabel(2, (0, 0, 0), (1, 1, 0)),
              PauliLabel(2, (1, 1, 0, 1), (1, 0, 0, 1)), PauliLabel(3, (1, 2), (0, 1)),
              PauliLabel(3, (0, 0), (1, 2)), PauliLabel(3, (2, 0), (0, 0)),
              PauliLabel(5, (3,), (1,)), PauliLabel(5, (1, 3), (2, 4)),
              PauliLabel(5, (0, 0), (3, 1))]
    amps = np.array([0.6, 0.8j])
    for label in labels:
        pair = (MonomialUnitary(*label.action()), pauli_matrix(label))
        n = pair[1].shape[0]
        for pattern in ("js", "ss", "m"):
            for t in range(1, min(3, n // 2) + 1):
                kwargs = {"message_amplitudes": amps, "target_index": 1} if pattern == "m" else {}
                specs = [MomentSpec(pattern, t, u, K=2, **kwargs) for u in pair]
                assert exact_moment(specs[0]) == exact_moment(specs[1]), (label, pattern, t)
                assert closed_form_moment(specs[0]) == closed_form_moment(specs[1])
                mc = [mc_moment(spec, 1000, seed=7) for spec in specs]
                if label.q == 2:
                    assert mc[0] == mc[1], (label, pattern, t)
                else:
                    for got, want in zip(*mc):
                        assert abs(got - want) <= 1e-15 * abs(want), (label, pattern, t)
