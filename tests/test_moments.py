import itertools
from math import sqrt

import numpy as np
import pytest
from conftest import (first_moment_js, first_moment_ss, full_block_exact_moment, iter_tuples,
                      literal_moment_samples, loop_beta_weights, loop_cycle_trace_products,
                      mixed_cycle_monomial, pauli_matrix, traced_peak)
from scipy.linalg import schur

from qtamper import moments
from qtamper.errors import ConsistencyError, NotNormalized, NotUnitary, OutOfRange
from qtamper.haar import (_phase_fixed_qr, child_generator, complex_gaussian,
                          sample_encoding_isometry, sample_haar_unitary)
from qtamper.moments import (MAX_TRIALS, MC_CHUNK, MC_PIECE, MIN_TRIALS, MomentSpec,
                             _beta_weights, _checked_spectrum,
                             _cycle_trace_products, _frame_coefficients, _mc_chunk,
                             closed_form_moment, exact_moment, mc_moment)
from qtamper.pauli import MonomialUnitary, PauliLabel


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
    """ss reads the exponential block alone, js that block and the b
    uniforms, and m those and the phase uniforms (the block alone when
    |a_m| = 1), all through (alpha, beta), which depend on a_m alone; so
    each pattern's Monte Carlo chunks are bit-identical for every message
    count K."""
    u = sample_haar_unitary(16, 61)
    lam = _checked_spectrum(MomentSpec("ss", 2, u))
    for pattern, ks in (("ss", (2, 8)), ("js", (2, 5))):
        results = [_mc_chunk(MomentSpec(pattern, 2, u, K=k), lam, 62, 3, 1000) for k in ks]
        assert results[0] == results[1]
    for a_m, cases in ((0.6 - 0.48j, ((2, 1), (3, 2), (8, 5), (15, 0))),
                       (1j, ((1, 0), (4, 2), (9, 8)))):
        results = [_mc_chunk(MomentSpec("m", 2, u, K=k, message_amplitudes=_message(k, m, a_m),
                                        target_index=m), lam, 62, 3, 1000) for k, m in cases]
        assert all(r == results[0] for r in results), (a_m, results)


@pytest.mark.parametrize("n", [16, 200])
def test_mc_chunk_pieces_match_the_whole_block(n):
    """A chunk drawn and reduced in pieces of MC_PIECE // N rows, over a
    count that is not a multiple of them, gives the sums of the whole
    (count, N) block of its stream followed by its b and theta uniforms,
    within 1e-12 relative, for js, ss and m."""
    u = sample_haar_unitary(n, 210 + n)
    rows = MC_PIECE // n
    count = 2 * rows + rows // 3
    amps = _message(3, 1, 0.6 - 0.48j)
    for spec in (MomentSpec("js", 2, u), MomentSpec("ss", 2, u),
                 MomentSpec("m", 2, u, K=3, message_amplitudes=amps, target_index=1)):
        lam = _checked_spectrum(spec)
        rng = child_generator(211, 3)
        e = rng.standard_exponential((count, n))
        a = (e * lam).sum(axis=1) / e.sum(axis=1)
        alpha, beta = _frame_coefficients(spec)
        b_sq = (1 - np.abs(a) ** 2) * (1 - (1 - rng.random(count)) ** (1 / (n - 2))) if beta else 0
        phase = np.exp(2j * np.pi * rng.random(count)) if alpha and beta else 1
        y = np.abs(alpha * a + beta * np.sqrt(b_sq) * phase) ** (2 * spec.t)
        got = _mc_chunk(spec, lam, 211, 3, count)
        for g, w in zip(got, (y.sum(), (y * y).sum())):
            assert abs(g - w) <= 1e-12 * w, (n, spec.pattern, g, w)


def test_mc_moment_memory_does_not_grow_with_n():
    """At N = 4096 a chunk holds one piece of 8 rows, not a (count, N)
    block: `mc_moment` on a 12-qubit word, with the spectrum's own lists
    and arrays, peaks under 1 MiB traced at MIN_TRIALS and one job."""
    spec = MomentSpec("js", 1, MonomialUnitary.from_words(2, (1, 0) * 6, (0, 1, 1) * 4))
    spec.trace_profile
    peak = traced_peak(mc_moment, spec, MIN_TRIALS, 3, 1)
    assert peak < 2 ** 20, peak


class FrameScalars:
    """Stream stand-in that feeds `_mc_chunk` one explicit frame's scalars:
    the weights |W^dag psi1|^2 as its exponential block, then the uniforms
    whose transforms are b = |B|^2 / (1 - |A|^2) and theta = arg B."""

    def __init__(self, weights, b, theta, n):
        self.weights = weights
        self.uniforms = iter([-np.expm1((n - 2) * np.log1p(-b)), theta / (2 * np.pi) % 1.0])

    def standard_exponential(self, shape):
        return self.weights.reshape(shape)

    def random(self, count):
        return np.full(count, next(self.uniforms))


@pytest.mark.parametrize("n", [3, 16, 64, 4096])
def test_spectral_scalars_match_the_orthonormalized_frame(n, monkeypatch):
    """Per draw, the kernel fed an explicit Haar frame's own scalars (the
    Dirichlet weights of psi1 in U's eigenbasis, b and arg B) returns X of
    that frame within 1e-13 of max(X, 1/N), for js, ss and m, on a dense
    unitary and on Pauli words (a diagonal one at N = 4096, whose
    eigenbasis is the standard one)."""
    unitaries = []
    if n <= 64:
        u = sample_haar_unitary(n, 70 + n)
        t, w = schur(u, output="complex")
        unitaries.append((u, np.diagonal(t), w.conj().T))
    if n == 16:
        label = PauliLabel(2, (1, 0, 0, 0), (0, 1, 1, 1))
        t, w = schur(pauli_matrix(label), output="complex")
        unitaries.append((MonomialUnitary(*label.action()), np.diagonal(t), w.conj().T))
    if n == 4096:
        word = MonomialUnitary(*PauliLabel(2, (0,) * 12, (1, 0) * 6).action())
        unitaries.append((word, word.phase, None))
    specs = [MomentSpec("js", 1, unitaries[0][0]), MomentSpec("ss", 1, unitaries[0][0]),
             MomentSpec("m", 1, unitaries[0][0], K=2, message_amplitudes=_message(2, 1, 0.6 - 0.48j),
                        target_index=1)]
    for i, (u, lam, w_dag) in enumerate(unitaries):
        frames = _phase_fixed_qr(complex_gaussian(child_generator(80 + n, i), (64, n, 2)))
        for q0, q1 in zip(frames[..., 0], frames[..., 1]):
            moved = u @ q0
            a, b = np.vdot(q0, moved), np.vdot(q1, moved)
            weights = np.abs(q0 if w_dag is None else w_dag @ q0) ** 2
            b_ratio = min(abs(b) ** 2 / (1 - abs(a) ** 2), 1.0)
            for spec in specs:
                alpha, beta = _frame_coefficients(spec)
                want = abs(alpha * a + beta * b) ** 2
                monkeypatch.setattr(moments, "child_generator", lambda seed, index: FrameScalars(
                    weights, b_ratio, np.angle(b), n))
                x = _mc_chunk(spec, lam, 0, 0, 1)[0]
                assert abs(x - want) <= 1e-13 * max(want, 1 / n), (n, i, spec.pattern, x, want)


@pytest.mark.parametrize("n, k", [(8, 2), (16, 5), (64, 7)])
def test_m_two_frame_matches_the_k_frame(n, k):
    """For a K-frame V and complex amplitudes a, the 2-frame psi1 = V a,
    psi2 = (psi_m - conj(a_m) psi1) / r gives X = |alpha A + beta B|^2 =
    |psi_m^dag U V a|^2 within 1e-13, for every POVM row m."""
    v = sample_encoding_isometry(n, k, 90 + n)
    u = sample_haar_unitary(n, 91 + n)
    rng = child_generator(92 + n, 0)
    amps = complex_gaussian(rng, k)
    amps /= np.linalg.norm(amps)
    psi1 = v @ amps
    moved = u @ psi1
    for m in range(k):
        a_m = amps[m]
        psi2 = (v[:, m] - a_m.conjugate() * psi1) / sqrt(1 - abs(a_m) ** 2)
        spec = MomentSpec("m", 1, u, K=k, message_amplitudes=amps, target_index=m)
        alpha, beta = _frame_coefficients(spec)
        x = abs(alpha * np.vdot(psi1, moved) + beta * np.vdot(psi2, moved)) ** 2
        want = abs(np.vdot(v[:, m], moved)) ** 2
        assert abs(x - want) <= 1e-13, (m, x, want)


@pytest.mark.parametrize("n", [3, 8, 16])
@pytest.mark.parametrize("kind", ["haar", "pauli", "diagonal"])
def test_kernel_matches_the_literal_simulation(kind, n):
    """The kernel against `conftest.literal_moment_samples` at 10^5 trials
    each, within 4 combined standard errors, for js, ss and m at every
    t <= min(3, N/2): on a dense Haar U, on a Pauli word (its monomial
    action in the kernel, its dense matrix in the oracle) and on a dense
    diagonal U with |Tr U| >= N/2, where m's cross term does not vanish."""
    trials = 100_000
    if kind == "pauli":
        label = {3: PauliLabel(3, (1,), (1,)), 8: PauliLabel(2, (1, 0, 1), (0, 1, 1)),
                 16: PauliLabel(2, (1, 1, 0, 0), (0, 1, 1, 1))}[n]
        u, dense = MonomialUnitary(*label.action()), pauli_matrix(label)
    elif kind == "haar":
        u = dense = sample_haar_unitary(n, 140 + n)
    else:
        u = dense = np.diag(np.exp(0.7j * np.arange(n) / n))
        assert abs(np.trace(u)) >= n / 2
    k = min(3, n - 1)
    amps = _message(k, 1, 0.6 - 0.48j)
    samples = literal_moment_samples(dense, k, trials, child_generator(150 + n, 0), amps, 1)
    for pattern, x in samples.items():
        extra = {"message_amplitudes": amps, "target_index": 1} if pattern == "m" else {}
        for t in range(1, min(3, n // 2) + 1):
            est, se = mc_moment(MomentSpec(pattern, t, u, K=k, **extra), trials, seed=160 + n + t)
            y = x ** t
            z = (est - y.mean()) / sqrt(se ** 2 + y.var(ddof=1) / trials)
            assert abs(z) <= 4, (kind, n, pattern, t, est, y.mean(), z)


def test_mc_quantum_message_matches_exact():
    """m against `exact` within 4 standard errors: complex amplitudes, a
    POVM row other than 0 where K > 1, and K = 1, where |a_m| = 1 and only
    the exponential block is read."""
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


def test_a_spectrum_off_the_trace_profile_is_refused(monkeypatch):
    """A conjugated spectrum has power sums conj(Tr U^j): on a monomial with
    complex traces, mc_moment refuses it before drawing a chunk."""
    u = mixed_cycle_monomial(child_generator(115, 0))
    spec = MomentSpec("js", 3, u)
    assert abs(spec.trace_profile[0].imag) > 1e-3
    mc_moment(spec, 1000, seed=5)
    honest = MonomialUnitary.eigenvalues
    monkeypatch.setattr(MonomialUnitary, "eigenvalues", lambda self: honest(self).conj())
    with pytest.raises(ConsistencyError):
        mc_moment(spec, 1000, seed=5)


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


def _kernel_specs(u):
    """Every spec the exact route takes at U: t <= 3 (p = 2t <= 6) where
    N >= 2t; js, ss, and m at K = 2 and K = 4 with complex amplitudes."""
    specs = []
    for t in range(1, 4):
        if u.shape[0] < 2 * t:
            continue
        specs += [MomentSpec("js", t, u), MomentSpec("ss", t, u)]
        for k in (2, 4):
            amps = np.arange(1, k + 1) * (1 + 0.5j)
            specs.append(MomentSpec("m", t, u, K=k, message_amplitudes=amps / np.linalg.norm(amps),
                                    target_index=1))
    return specs


KERNEL_UNITARIES = {
    "haar6": sample_haar_unitary(6, 90),
    "haar16": sample_haar_unitary(16, 91),
    "haar64": sample_haar_unitary(64, 92),
    "pauli16": MonomialUnitary(*PauliLabel(2, (1, 0, 1, 1), (0, 1, 1, 0)).action()),
    "pauli9": MonomialUnitary(*PauliLabel(3, (1, 2), (2, 1)).action()),
    "diag8": np.diag([1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0]).astype(complex),
    "diag32": np.diag(np.where(np.arange(32) % 3, 1.0, -1.0)).astype(complex),
}


@pytest.mark.parametrize("name", KERNEL_UNITARIES)
def test_trace_products_and_weights_match_the_loops(name):
    """The array kernels equal the per-permutation loops bit for bit: trace
    products multiplied over the cycle heads in ascending order, and the
    delta weights of every pattern."""
    for spec in _kernel_specs(KERNEL_UNITARIES[name]):
        perms = list(iter_tuples(2 * spec.t))
        assert (_cycle_trace_products(spec).tobytes()
                == loop_cycle_trace_products(perms, spec).tobytes()), (spec.pattern, spec.t)
        assert (_beta_weights(spec).tobytes()
                == loop_beta_weights(spec, perms).tobytes()), (spec.pattern, spec.t, spec.K)


@pytest.mark.parametrize("name", KERNEL_UNITARIES)
def test_exact_moment_matches_the_full_block_sandwich(name):
    """Contracting the Wg matrix in column blocks, 720 = 11 x 64 + 16 at
    t = 3, gives every bit of the one (p!, p!) sandwich over the loops."""
    for spec in _kernel_specs(KERNEL_UNITARIES[name]):
        assert exact_moment(spec).hex() == full_block_exact_moment(spec).hex(), \
            (spec.pattern, spec.t, spec.K)


def test_exact_moment_peak_memory_is_bounded():
    """Warm js t = 3 at N = 16 gathers Wg 64 columns at a time and forms no
    (720, 720) block, float or complex: its traced peak stays below 2 MiB."""
    u = sample_haar_unitary(16, 93)
    exact_moment(MomentSpec("js", 3, u))    # tables built once per process
    spec = MomentSpec("js", 3, u)
    peak = traced_peak(exact_moment, spec)
    assert peak < 2 * 2 ** 20, peak


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
    # N = 200 splits each chunk into pieces of 163 rows
    for n, trials in ((8, 5000), (200, 3 * MC_CHUNK + 7)):
        spec = MomentSpec("ss", 2, sample_haar_unitary(n, 77))
        a = mc_moment(spec, trials, seed=3)
        b = mc_moment(spec, trials, seed=3)
        c = mc_moment(spec, trials, seed=3, jobs=4)
        assert a == b == c, n
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
    dense matrix: exact and closed forms equal, and Monte Carlo within 1e-13
    relative, since both read the same sorted spectrum, one from the word's
    cycles and one from LAPACK."""
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
                for got, want in zip(*mc):
                    assert abs(got - want) <= 1e-13 * abs(want), (label, pattern, t)
