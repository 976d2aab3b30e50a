import types

import numpy as np
import pytest
from conftest import dense_decoder_projectors, pauli_matrix

from qtamper import linalg, moments
from qtamper.errors import (ConsistencyError, DimMismatch, NotNormalized, NotUnitary,
                            RankDeficient)
from qtamper.haar import _phase_fixed_qr, sample_haar_unitary
from qtamper.linalg import (identity, is_unitary, max_abs, one_blas_thread, parallel_map,
                            require_normalized, require_unitary)
from qtamper.moments import MomentSpec, exact_moment
from qtamper.pauli import MonomialUnitary, PauliLabel

RNG = np.random.default_rng(20260809)


def _random_matrix(n, m=None):
    m = n if m is None else m
    return RNG.normal(size=(n, m)) + 1j * RNG.normal(size=(n, m))


def _random_monomial(n):
    phase = np.exp(2j * np.pi * RNG.random(n))
    return MonomialUnitary(RNG.permutation(n), phase)


def test_inner_examples():
    # the package's <u|v> is np.vdot: conjugate-linear in the first slot
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1
    e2 = np.zeros(4, dtype=complex)
    e2[1] = 1
    assert np.vdot(e1, e1) == 1
    assert np.vdot(e1, e2) == 0
    u = np.array([1, 1j]) / np.sqrt(2)
    v = np.array([1, -1j]) / np.sqrt(2)
    # conjugate-linear first slot: (1*1 + (-1j)*(-1j))/2 = 0
    assert abs(np.vdot(u, v)) < 1e-15


def test_inner_conjugate_linearity_and_errors():
    u = _random_matrix(5, 1)[:, 0]
    v = _random_matrix(5, 1)[:, 0]
    c = 0.7 - 0.2j
    assert abs(np.vdot(c * u, v) - np.conj(c) * np.vdot(u, v)) < 1e-12
    with pytest.raises(ValueError):
        np.vdot(u, _random_matrix(4, 1)[:, 0])


def test_trace_and_adjoint():
    assert np.trace(identity(8)) == 8
    a = _random_matrix(6)
    assert max_abs(a.conj().T.conj().T - a) == 0
    with pytest.raises(NotUnitary):
        require_unitary(_random_matrix(3, 4))


def test_tensor_trace_factorizes():
    for _ in range(10):
        a = _random_matrix(2)
        b = _random_matrix(2)
        # direct double-sum oracle
        direct = sum(a[i, i] * b[j, j] for i in range(2) for j in range(2))
        assert abs(np.trace(np.kron(a, b)) - direct) < 1e-12
    # the trace of a tensor word through its action is the product over registers
    for digits in np.ndindex(3, 3, 3, 3):
        label = PauliLabel(q=3, x=digits[:2], z=digits[2:])
        per_register = np.prod([np.trace(pauli_matrix(PauliLabel(3, (a,), (b,))))
                                for a, b in zip(label.x, label.z)])
        assert abs(MonomialUnitary(*label.action()).trace() - per_register) < 1e-12


def test_tensor_indexing_convention():
    a = _random_matrix(2)
    b = _random_matrix(3)
    t = np.kron(a, b)
    for i1, i2, j1, j2 in [(0, 1, 1, 2), (1, 0, 0, 0), (1, 2, 0, 1)]:
        assert abs(t[i1 * 3 + i2, j1 * 3 + j2] - a[i1, j1] * b[i2, j2]) < 1e-12
    # a word's action uses the same digits: register 1 is the most significant
    rows, _ = PauliLabel(q=3, x=(1, 2), z=(0, 0)).action()
    for j1 in range(3):
        for j2 in range(3):
            assert rows[j1 * 3 + j2] == ((j1 + 1) % 3) * 3 + (j2 + 2) % 3


def test_matmul_associativity_and_trace_cyclicity():
    for _ in range(5):
        a, b = _random_matrix(7), _random_matrix(7)
        u = _random_monomial(7)
        dense = u @ identity(7)
        assert max_abs((a @ u) @ b - a @ (u @ b)) <= 1e-10
        assert max_abs(a @ u - a @ dense) <= 1e-12
        assert max_abs(u @ b - dense @ b) <= 1e-12
        assert abs(np.trace(a @ u) - np.trace(u @ a)) <= 1e-10
    with pytest.raises(DimMismatch):
        _random_monomial(3) @ _random_matrix(4, 3)
    with pytest.raises(DimMismatch):
        _random_matrix(3, 4) @ _random_monomial(3)


def test_qr_identity():
    q = _phase_fixed_qr(identity(4))
    assert max_abs(q - identity(4)) < 1e-12


def test_qr_random_properties():
    a = _random_matrix(8)
    q = _phase_fixed_qr(a)
    r = q.conj().T @ a
    assert max_abs(q.conj().T @ q - identity(8)) <= 1e-10
    assert max_abs(np.tril(r, -1)) <= 1e-10
    assert max_abs(np.diagonal(r).imag) <= 1e-10 and np.all(np.diagonal(r).real > 0)


def test_qr_rank_deficient():
    a = _random_matrix(5)
    a[:, 3] = a[:, 1]
    with pytest.raises(RankDeficient):
        _phase_fixed_qr(a)


def test_projector_properties():
    v = _random_matrix(6, 1)
    v = v / np.linalg.norm(v)
    (p,), pi, perp = dense_decoder_projectors(types.SimpleNamespace(isometry=v))
    assert max_abs(p @ p - p) <= 1e-10
    assert max_abs(p - p.conj().T) <= 1e-10
    assert max_abs(pi - p) <= 1e-12
    assert max_abs(perp @ p) <= 1e-10


def test_unitarity_and_normalization_guards():
    q, _ = np.linalg.qr(_random_matrix(6))
    assert is_unitary(q)
    require_unitary(q)
    with pytest.raises(NotUnitary):
        require_unitary(q * 1.01)
    assert is_unitary(pauli_matrix(PauliLabel(q=2, x=(1, 0), z=(1, 1))))
    v = np.ones(4) / 2
    require_normalized(v)
    with pytest.raises(NotNormalized):
        require_normalized(v * 1.1)


def test_nan_rejected():
    bad = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        require_unitary(bad)


def test_pool_holds_openblas_at_one_thread(monkeypatch):
    """Workers see OpenBLAS at one thread; the prior count comes back after
    the pool, and after a worker raises."""
    blas = linalg._openblas_threads()
    if blas is None:
        pytest.skip("numpy did not load an OpenBLAS this process can find")
    get, set_ = blas
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 2)
    original = get()
    set_(2)
    try:
        before = get()
        assert parallel_map(lambda _: get(), range(6), jobs=2) == [1] * 6
        assert get() == before

        def fail_on_three(i):
            if i == 3:
                raise ValueError("worker failure")
            return get()

        with pytest.raises(ValueError, match="worker failure"):
            parallel_map(fail_on_three, range(6), jobs=2)
        assert get() == before
        # one worker is a plain loop: BLAS keeps its threads
        assert parallel_map(lambda _: get(), range(3), jobs=1) == [before] * 3
    finally:
        set_(original)



@pytest.fixture
def blas_at_two():
    """OpenBLAS at two threads, its getter yielded; the prior count after."""
    blas = linalg._openblas_threads()
    if blas is None:
        pytest.skip("numpy did not load an OpenBLAS this process can find")
    get, set_ = blas
    original = get()
    set_(2)
    try:
        yield get
    finally:
        set_(original)


HELD_KERNELS = ("require_unitary", "trace_profile", "qr", "eigvals", "exact_moment")


def _kernel_threads(monkeypatch, get, kernel, n, t=3):
    """The OpenBLAS thread counts that `kernel`'s dense products see at
    dimension n, read by a wrapper around a call inside them."""
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append(get())
            return fn(*args, **kwargs)
        return wrapped

    u = sample_haar_unitary(n, 5)
    if kernel == "require_unitary":
        monkeypatch.setattr(linalg, "identity", spy(linalg.identity))
        require_unitary(u)
    elif kernel == "trace_profile":
        class Recording(np.ndarray):
            trace = spy(np.ndarray.trace)
        spec = MomentSpec("ss", t, u)
        spec.U = u.view(Recording)
        assert spec.trace_profile == MomentSpec("ss", t, u).trace_profile
    elif kernel == "qr":
        monkeypatch.setattr(np.linalg, "qr", spy(np.linalg.qr))
        sample_haar_unitary(n, 6)
    elif kernel == "eigvals":
        monkeypatch.setattr(np.linalg, "eigvals", spy(np.linalg.eigvals))
        moments._checked_spectrum(MomentSpec("ss", t, u))
    else:
        monkeypatch.setattr(moments, "_beta_weights", spy(moments._beta_weights))
        exact_moment(MomentSpec("js", t, u))
    assert seen
    return seen


@pytest.mark.parametrize("kernel", HELD_KERNELS)
def test_small_dense_kernels_hold_openblas_at_one_thread(kernel, monkeypatch, blas_at_two):
    """Between the dimension from which OpenBLAS splits a product and
    BLAS_THREADED_DIM, each kernel of the moments path runs at one thread,
    and the prior count comes back after it."""
    n = linalg.LAPACK_SPLIT_DIM + 15
    assert set(_kernel_threads(monkeypatch, blas_at_two, kernel, n)) == {1}
    assert blas_at_two() == 2


@pytest.mark.parametrize("kernel", HELD_KERNELS)
def test_kernels_leave_blas_alone_where_openblas_keeps_its_threads(kernel, monkeypatch,
                                                                   blas_at_two):
    """From BLAS_THREADED_DIM, and below the dimension from which OpenBLAS
    splits a kernel's products, the kernel leaves BLAS at its threads."""
    n = linalg.LAPACK_SPLIT_DIM + 15
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "BLAS_THREADED_DIM", n - 1)
        assert set(_kernel_threads(patched, blas_at_two, kernel, n)) == {2}
    small = (linalg.GEMM_SPLIT_DIM - 1 if kernel in ("require_unitary", "trace_profile")
             else linalg.LAPACK_SPLIT_DIM - 1)
    assert set(_kernel_threads(monkeypatch, blas_at_two, kernel, small, t=2)) == {2}


def test_held_kernels_restore_blas_when_they_raise(monkeypatch, blas_at_two):
    n = linalg.LAPACK_SPLIT_DIM + 15
    u = sample_haar_unitary(n, 7)
    with pytest.raises(NotUnitary):
        require_unitary(u * 1.01)
    assert blas_at_two() == 2
    spec = MomentSpec("js", 3, u)
    monkeypatch.setattr(MomentSpec, "trace_profile", (0j, 0j, 0j))
    with pytest.raises(ConsistencyError, match="sum of lambda"):
        moments._checked_spectrum(spec)
    assert blas_at_two() == 2

    def fail(spec):
        assert blas_at_two() == 1
        raise ConsistencyError("inside the hold")

    monkeypatch.setattr(moments, "_beta_weights", fail)
    with pytest.raises(ConsistencyError, match="inside the hold"):
        exact_moment(spec)
    assert blas_at_two() == 2
    with pytest.raises(ValueError), one_blas_thread():
        assert blas_at_two() == 1
        raise ValueError
    assert blas_at_two() == 2


def test_pool_is_capped_by_the_cpus_this_process_may_use(monkeypatch):
    """A process pinned to one CPU starts no pool; without an affinity call
    the CPU count caps it."""
    made = []

    class RecordingPool(linalg.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(linalg, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert parallel_map(abs, range(-4, 0), jobs=4) == [4, 3, 2, 1]
    assert made == []
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 5, 6}, raising=False)
    assert parallel_map(abs, range(-4, 0), jobs=4) == [4, 3, 2, 1]
    monkeypatch.delattr(linalg.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 2)
    assert parallel_map(abs, range(-4, 0), jobs=4) == [4, 3, 2, 1]
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: None)
    assert parallel_map(abs, range(-4, 0), jobs=4) == [4, 3, 2, 1]
    assert made == [3, 2]
