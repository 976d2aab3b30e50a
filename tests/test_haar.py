import numpy as np
import pytest
from conftest import RepeatedRows, haar_unitary_stack
from scipy import stats

from qtamper import haar
from qtamper.errors import OutOfRange, RankDeficient
from qtamper.haar import (_phase_fixed_qr, check_seed, child_generator, complex_gaussian,
                          root_generator, sample_encoding_isometry, sample_haar_unitary)
from qtamper.linalg import identity, max_abs


def test_unitarity_contract():
    u = sample_haar_unitary(8, seed=1)
    assert max_abs(u.conj().T @ u - identity(8)) <= 1e-10
    u = sample_haar_unitary(64, seed=2)
    assert max_abs(u.conj().T @ u - identity(64)) <= 1e-10


def test_determinism():
    a = sample_haar_unitary(16, seed=123)
    b = sample_haar_unitary(16, seed=123)
    assert np.array_equal(a, b)
    c = sample_haar_unitary(16, seed=124)
    assert not np.array_equal(a, c)


def test_dimension_bounds():
    with pytest.raises(OutOfRange):
        sample_haar_unitary(1, seed=0)
    with pytest.raises(OutOfRange):
        sample_haar_unitary(5000, seed=0)
    with pytest.raises(OutOfRange):
        sample_encoding_isometry(8, 8, seed=0)
    with pytest.raises(OutOfRange):
        sample_encoding_isometry(8, 0, seed=0)
    with pytest.raises(OutOfRange):
        child_generator(0, -1)


def test_isometry_is_thin_qr_of_root_block():
    v = sample_encoding_isometry(8, 2, seed=77)
    block = complex_gaussian(root_generator(77), (2, 8))   # K-major: row k is column k
    assert max_abs(v - _phase_fixed_qr(block.T)) <= 1e-13
    assert max_abs(v.conj().T @ v - identity(2)) <= 1e-10


def _unfused_complex_gaussian(rng, shape):
    """The ziggurat expression the in-place sampler must reproduce bit for bit."""
    a = rng.standard_normal(2 * int(np.prod(shape)))
    return ((a[0::2] + 1j * a[1::2]) * np.sqrt(0.5)).reshape(shape)


@pytest.mark.parametrize("seed", [1, 9001, 52001])
def test_complex_gaussian_matches_unfused_oracle(seed):
    for shape in [(4096, 64, 2), (4096, 16, 4), (4096, 64, 1), (256, 256)]:
        fused = complex_gaussian(child_generator(seed, 0), shape)
        oracle = _unfused_complex_gaussian(child_generator(seed, 0), shape)
        assert np.array_equal(fused.view(np.uint64), oracle.view(np.uint64))


@pytest.mark.parametrize("K,N", [(k, n) for k in (1, 2, 4, 16)
                                 for n in (2, 16, 64, 4096) if k <= n])
def test_stack_matches_lapack_phase_fixed_qr(K, N):
    """The CGS2 isometry is the phase-fixed LAPACK QR of its root stream's
    K-major block.  At K = N, where an encoding needs K < N, the N x (N-1)
    isometry is the leading columns of the square block's unitary."""
    k = min(K, N - 1)
    v = sample_encoding_isometry(N, k, 13)
    block = complex_gaussian(root_generator(13), (K, N))
    assert v.shape == (N, k)
    assert max_abs(v - _phase_fixed_qr(block.T)[:, :k]) <= 1e-13


def test_real_view_scaling_is_complex_division():
    """Scaling the float64 view by 1/|v| gives the bits of complex v / |v|."""
    block = complex_gaussian(child_generator(21, 0), (4, 4096, 64))
    norm = np.sqrt(np.vecdot(block, block).real)[..., np.newaxis]
    scaled = block.copy()
    scaled.view(np.float64)[...] *= 1 / norm
    assert np.array_equal(scaled.view(np.uint64), (block / norm).view(np.uint64))


def test_equal_columns_raise_rank_deficient(monkeypatch):
    monkeypatch.setattr(haar, "root_generator", RepeatedRows)
    with pytest.raises(RankDeficient):
        sample_encoding_isometry(16, 2, 3)


def test_nearly_parallel_columns_stay_orthonormal(monkeypatch):
    """Columns about 1e-6 apart: a single Gram-Schmidt pass leaves ~1e-4 of
    overlap there, the re-orthogonalization pass brings it to rounding."""
    monkeypatch.setattr(haar, "root_generator", lambda seed: RepeatedRows(seed, jitter=1e-6))
    for seed in range(16):
        v = sample_encoding_isometry(16, 4, seed)
        assert max_abs(v.conj().T @ v - identity(4)) <= 1e-13


def test_isometry_columns_orthogonal():
    overlaps = [np.vdot(v[:, 0], v[:, 1])
                for v in (sample_encoding_isometry(16, 4, seed) for seed in range(2000))]
    assert float(np.mean(np.abs(overlaps) ** 2)) <= 1e-25


def test_child_streams_are_disjoint_and_stable():
    a = child_generator(9, 0).random(4)
    b = child_generator(9, 1).random(4)
    a_again = child_generator(9, 0).random(4)
    assert np.array_equal(a, a_again)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, root_generator(9).random(4))


def test_streams_do_not_alias_across_seeds():
    """Every (seed, stream) pair draws its own first words, also for seeds
    2^32 apart; an entropy list [seed, stream] would make the root stream
    of 2^32 + 5 chunk 0 of seed 5."""
    assert not np.array_equal(root_generator(2 ** 32 + 5).random(4),
                              child_generator(5, 0).random(4))
    pairs = [(seed, stream) for seed in (0, 1, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1,
                                         2 ** 32 + 5, 2 ** 33, 2 ** 64 - 1)
             for stream in (0, 1, 2, 2 ** 32)]
    firsts = {(root_generator(seed) if stream == 0 else child_generator(seed, stream - 1))
              .integers(0, 2 ** 63, size=2).tobytes() for seed, stream in pairs}
    assert len(firsts) == len(pairs)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, True, 1.0, "1"],
                         ids=["negative", "2^64", "bool", "float", "string"])
def test_seed_outside_uint64_is_refused_before_a_stream(seed):
    with pytest.raises(OutOfRange):
        check_seed(seed)
    with pytest.raises(OutOfRange):
        root_generator(seed)
    with pytest.raises(OutOfRange):
        child_generator(seed, 0)
    assert check_seed(2 ** 64 - 1) == 2 ** 64 - 1 and check_seed(np.uint64(7)) == 7


def test_complex_gaussian_moments():
    rng = root_generator(31)
    z = complex_gaussian(rng, 100_000)
    assert abs(z.mean()) <= 4 / np.sqrt(len(z))
    mag2 = np.abs(z) ** 2
    stderr = mag2.std() / np.sqrt(len(z))
    assert abs(mag2.mean() - 1.0) <= 4 * stderr


@pytest.mark.parametrize("seed", [1, 9001, 52001])
def test_complex_gaussian_distribution(seed):
    """Real and imaginary parts are N(0, 1/2) by KS at level 1e-4, E|z|^4 = 2
    within 5 standard errors (Var |z|^4 = 20) and E z^2 = 0: n |mean z^2|^2
    is about chi^2_2, so |mean z^2| > 5/sqrt(n) has probability e^-12.5."""
    n = 100_000
    z = complex_gaussian(child_generator(seed, 0), n)
    for part in (z.real, z.imag):
        assert stats.kstest(part, "norm", args=(0.0, np.sqrt(0.5))).pvalue >= 1e-4
    assert abs(np.mean(np.abs(z) ** 4) - 2.0) <= 5 * np.sqrt(20 / n)
    assert abs(np.mean(z ** 2)) <= 5 / np.sqrt(n)


def test_first_entry_second_moment():
    # E|U_00|^2 = 1/N at N = 8, 1e5 samples, 3 standard errors
    n, samples = 8, 100_000
    stack = haar_unitary_stack(child_generator(41, 0), samples, n)
    mag2 = np.abs(stack[:, 0, 0]) ** 2
    stderr = mag2.std() / np.sqrt(samples)
    assert abs(mag2.mean() - 1 / n) <= 3 * stderr


def test_phase_fix_necessity():
    """Without the diagonal phase correction E[U_00] is visibly biased;
    with it the mean is statistically zero (1e5 samples)."""
    n, samples = 8, 100_000
    rng = child_generator(57, 0)
    ginibre = complex_gaussian(rng, (samples, n, n))
    q_raw, _ = np.linalg.qr(ginibre)
    raw_mean = q_raw[:, 0, 0].mean()
    raw_stderr = q_raw[:, 0, 0].real.std() / np.sqrt(samples)
    assert abs(raw_mean) > 4 * raw_stderr

    fixed = haar_unitary_stack(child_generator(57, 1), samples, n)
    entries = fixed[:, 0, 0]
    stderr = entries.real.std() / np.sqrt(samples)
    assert abs(entries.mean().real) <= 4 * stderr
    assert abs(entries.mean().imag) <= 4 * stderr


def test_left_invariance_statistic():
    """Re Tr(W U) matches Re Tr(U) in mean and variance over 1e4 samples
    for a fixed unitary W (translation invariance of the measure)."""
    n, samples = 8, 10_000
    w = sample_haar_unitary(n, seed=99)
    stack = haar_unitary_stack(child_generator(100, 0), samples, n)
    plain = np.einsum("tii->t", stack).real
    rotated = np.einsum("ij,tji->t", w, stack).real
    se_mean = np.sqrt(plain.var() / samples + rotated.var() / samples)
    assert abs(plain.mean() - rotated.mean()) <= 4 * se_mean
    pooled = (plain.var() + rotated.var()) / 2
    se_var = pooled * np.sqrt(2.0 / (samples - 1)) * np.sqrt(2)
    assert abs(plain.var() - rotated.var()) <= 4 * se_var


def test_stack_reproducible_and_unitary():
    v1 = sample_encoding_isometry(16, 2, 8)
    v2 = sample_encoding_isometry(16, 2, 8)
    assert np.array_equal(v1, v2)
    assert not np.array_equal(v1, sample_encoding_isometry(16, 2, 9))
    assert max_abs(v1.conj().T @ v1 - identity(2)) <= 1e-10
