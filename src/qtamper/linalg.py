"""Dense complex vectors and matrices: the handful of operations everything
else needs.

Matrices and state vectors are plain complex128 numpy arrays.  These
helpers add the shape/unitarity/normalization checks the rest of the
package relies on; products, traces and QR are plain numpy.

Importing this module parks the OpenBLAS numpy loaded at one thread with no
worker running (a worker left running spins for about 0.13 s of CPU).  Only
kernels from BLAS_THREADED_DIM, where two threads were measured 1.2-2.5x
faster, use threads (`blas_threads`), at OpenBLAS's load-time count.

Tolerance conventions: structural identities 1e-10, rank tests 1e-12.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

from .errors import DimMismatch, NotNormalized, NotUnitary

STRUCTURAL_TOL = 1e-10
RANK_TOL = 1e-12
MAX_DIM = 4096      # the largest dense dimension any routine builds
BLAS_THREADED_DIM = 1024  # the smallest dense dimension whose kernels use BLAS threads


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN/Inf entries")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def max_abs(a) -> float:
    """Max-entry norm, the package's default distance between matrices."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def is_unitary(u) -> bool:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    with blas_threads(u.shape[0]):
        return max_abs(u.conj().T @ u - identity(u.shape[0])) <= STRUCTURAL_TOL


def require_unitary(u) -> np.ndarray:
    u = as_matrix(u)
    if not is_unitary(u):
        raise NotUnitary(f"matrix of shape {u.shape} fails unitarity at {STRUCTURAL_TOL}")
    return u


def require_normalized(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise DimMismatch(f"expected a vector, got ndim={v.ndim}")
    if abs(float(np.linalg.norm(v)) - 1.0) > STRUCTURAL_TOL:
        raise NotNormalized(f"vector norm {np.linalg.norm(v)} not within {STRUCTURAL_TOL} of 1")
    return v


def _openblas():
    """(get, set, shutdown) of the OpenBLAS numpy loaded (the mapped *openblas*
    library), shutdown a no-op where it lacks `blas_thread_shutdown_`; None
    for another BLAS or platform."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for get, set_ in (("scipy_openblas_get_num_threads64_",
                               "scipy_openblas_set_num_threads64_"),
                              ("openblas_get_num_threads", "openblas_set_num_threads")):
                if hasattr(lib, get) and hasattr(lib, set_):
                    getattr(lib, get).restype = ctypes.c_int
                    getattr(lib, set_).argtypes = [ctypes.c_int]
                    shutdown = getattr(lib, "blas_thread_shutdown_", lambda: None)
                    return getattr(lib, get), getattr(lib, set_), shutdown
    except OSError:
        pass
    return None


def _park() -> None:
    """One OpenBLAS thread, then no worker: setting a count restarts a parked pool."""
    if _OPENBLAS:
        _OPENBLAS[1](1)
        _OPENBLAS[2]()


_OPENBLAS = _openblas()
_LOAD_THREADS = _OPENBLAS[0]() if _OPENBLAS else 1   # honours OPENBLAS_NUM_THREADS
_park()


@contextmanager
def blas_threads(dim: int):
    """OpenBLAS at its load-time count inside the block, parked after it (also
    on a raise), from dim = BLAS_THREADED_DIM on the main thread; a pool worker
    must not change the global count while another runs, so it stays parked."""
    main = threading.current_thread() is threading.main_thread()
    blas = _OPENBLAS if dim >= BLAS_THREADED_DIM and main else None
    if not blas:
        yield
        return
    blas[1](_LOAD_THREADS)
    try:
        yield
    finally:
        _park()


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, else the CPU count, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def parallel_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items] on min(jobs, items, usable CPUs) threads,
    in item order."""
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
