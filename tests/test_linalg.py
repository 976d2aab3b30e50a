import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_decoder_projectors, pauli_matrix

from qtamper import linalg, moments
from qtamper.errors import (ConsistencyError, DimMismatch, NotNormalized, NotUnitary,
                            RankDeficient)
from qtamper.haar import _phase_fixed_qr, sample_haar_unitary
from qtamper.linalg import (blas_threads, identity, is_unitary, max_abs, parallel_map,
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


@pytest.fixture
def blas():
    """The getter of the OpenBLAS numpy loaded, with the load-time count
    patched to two, so a threaded section reads 2 on any host; OpenBLAS is
    parked again after the test."""
    if linalg._OPENBLAS is None:
        pytest.skip("numpy did not load an OpenBLAS this process can find")
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(linalg, "_LOAD_THREADS", 2)
        try:
            yield linalg._OPENBLAS[0]
        finally:
            linalg._park()


def _tasks():
    """The threads of this process, OpenBLAS's workers among them."""
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0


def test_pool_holds_openblas_at_one_thread(monkeypatch, blas):
    """Workers see OpenBLAS parked at one thread, and a threaded section in
    a worker leaves it so; a worker's raise leaves it parked too."""
    monkeypatch.setattr(linalg.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(linalg.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def threaded(i):
        with blas_threads(linalg.BLAS_THREADED_DIM):
            if i == 3:
                raise ValueError("worker failure")
            return blas()

    assert blas() == 1
    assert parallel_map(lambda _: blas(), range(6), jobs=2) == [1] * 6
    assert parallel_map(threaded, range(3), jobs=2) == [1] * 3
    with pytest.raises(ValueError, match="worker failure"):
        parallel_map(threaded, range(6), jobs=2)
    assert blas() == 1
    # one worker is a plain loop on the calling thread, which may thread
    assert parallel_map(threaded, range(3), jobs=1) == [2] * 3
    assert blas() == 1


HELD_KERNELS = ("require_unitary", "trace_profile", "qr", "eigvals", "exact_moment")
THREADED_KERNELS = HELD_KERNELS[:-1]   # exact_moment's pair table has at most 720 rows


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
def test_small_dense_kernels_hold_openblas_at_one_thread(kernel, monkeypatch, blas):
    """Below BLAS_THREADED_DIM each kernel of the moments path runs parked,
    at one thread, also at sizes where OpenBLAS would split its products."""
    assert set(_kernel_threads(monkeypatch, blas, kernel, 80)) == {1}
    assert blas() == 1


@pytest.mark.parametrize("kernel", THREADED_KERNELS)
def test_threaded_kernels_run_at_the_load_time_count(kernel, monkeypatch, blas):
    """From BLAS_THREADED_DIM a kernel's products see OpenBLAS's load-time
    count, and after it OpenBLAS is parked again: one thread, no worker."""
    parked = _tasks()
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "BLAS_THREADED_DIM", 79)
        assert set(_kernel_threads(patched, blas, kernel, 80)) == {2}
    assert blas() == 1 and _tasks() == parked


def test_exact_moment_runs_parked_above_the_crossover(monkeypatch, blas):
    """The exact contraction asks for no threads, whatever the crossover."""
    monkeypatch.setattr(linalg, "BLAS_THREADED_DIM", 0)
    assert set(_kernel_threads(monkeypatch, blas, "exact_moment", 16)) == {1}


def test_held_kernels_restore_blas_when_they_raise(monkeypatch, blas):
    """A threaded kernel that raises leaves OpenBLAS parked."""
    parked = _tasks()
    monkeypatch.setattr(linalg, "BLAS_THREADED_DIM", 79)
    u = sample_haar_unitary(80, 7)
    with pytest.raises(NotUnitary):
        require_unitary(u * 1.01)
    assert blas() == 1 and _tasks() == parked

    def fail(*args, **kwargs):
        assert blas() == 2
        raise ConsistencyError("inside the section")

    class Failing(np.ndarray):
        trace = fail

    spec = MomentSpec("ss", 3, u)
    spec.U = u.view(Failing)
    calls = {"trace": lambda: spec.trace_profile,
             "qr": lambda: sample_haar_unitary(80, 6),
             "eigvals": lambda: moments._checked_spectrum(MomentSpec("ss", 3, u))}
    for name, call in calls.items():
        with monkeypatch.context() as patched:
            if name != "trace":
                patched.setattr(np.linalg, name, fail)
            with pytest.raises(ConsistencyError, match="inside the section"):
                call()
        assert blas() == 1 and _tasks() == parked
    with pytest.raises(ValueError), blas_threads(linalg.BLAS_THREADED_DIM):
        assert blas() == 2
        raise ValueError
    assert blas() == 1 and _tasks() == parked


# run with OPENBLAS_NUM_THREADS=2: after import, a small product, and a
# threaded section, it prints the thread count, the process's tasks and its
# CPU seconds over 0.3 s of sleep
_NO_SPINNER = """
import json, os, time
import numpy as np
import qtamper.cli
from qtamper import linalg

def state():
    cpu = time.process_time()
    time.sleep(0.3)
    return [linalg._OPENBLAS[0](), len(os.listdir("/proc/self/task")), time.process_time() - cpu]

a = np.ones((80, 80), dtype=complex)
out = {"load": linalg._LOAD_THREADS, "import": state()}
a @ a
out["product"] = state()
with linalg.blas_threads(linalg.BLAS_THREADED_DIM):
    inside = linalg._OPENBLAS[0]()
    a @ a
out["section"] = [inside, *state()]
print(json.dumps(out))
"""


def test_no_openblas_worker_spins_after_import_or_a_product():
    """A fresh process that imports qtamper has one task and OpenBLAS at one
    thread, and uses under 10 ms of CPU in 0.3 s of sleep after import, after
    an 80 x 80 complex product (which OpenBLAS splits from N = 41) and after
    a threaded section, which runs at the load-time count."""
    if linalg._OPENBLAS is None or not os.path.isdir("/proc/self/task"):
        pytest.skip("needs an OpenBLAS this process can find, and /proc")
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NO_SPINNER], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["load"] == 2
    for stage in ("import", "product"):
        threads, tasks, cpu = out[stage]
        assert (threads, tasks) == (1, 1) and cpu < 0.010, (stage, out[stage])
    inside, threads, tasks, cpu = out["section"]
    assert (inside, threads, tasks) == (2, 1, 1) and cpu < 0.010, out["section"]


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
