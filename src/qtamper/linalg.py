"""Dense complex vectors and matrices: the handful of operations everything
else needs.

Matrices and state vectors are plain complex128 numpy arrays.  These
helpers add the shape/unitarity/normalization checks the rest of the
package relies on; products, traces and QR are plain numpy.

`one_blas_thread` holds the OpenBLAS numpy loaded at one thread.  A product
OpenBLAS splits over its threads leaves one spinning for about 0.13 s of CPU,
which a later `openblas_set_num_threads(1)` does not stop.  `parallel_map`,
the one worker pool, holds while it runs; the moments path's dense products
hold from the N at which OpenBLAS splits them (GEMM_SPLIT_DIM for an N x N
product, LAPACK_SPLIT_DIM for QR and eigenvalues) up to BLAS_THREADED_DIM.

Tolerance conventions: structural identities 1e-10, rank tests 1e-12.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, NotNormalized, NotUnitary

STRUCTURAL_TOL = 1e-10
RANK_TOL = 1e-12
MAX_DIM = 4096      # the largest dense dimension any routine builds
GEMM_SPLIT_DIM, LAPACK_SPLIT_DIM, BLAS_THREADED_DIM = 41, 65, 1024


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


def is_unitary(u, tol: float = STRUCTURAL_TOL) -> bool:
    u = as_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    with one_blas_thread(u.shape[0], GEMM_SPLIT_DIM):
        return max_abs(u.conj().T @ u - identity(u.shape[0])) <= tol


def require_unitary(u, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    u = as_matrix(u)
    if not is_unitary(u, tol):
        raise NotUnitary(f"matrix of shape {u.shape} fails unitarity at {tol}")
    return u


def require_normalized(v, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise DimMismatch(f"expected a vector, got ndim={v.ndim}")
    if abs(float(np.linalg.norm(v)) - 1.0) > tol:
        raise NotNormalized(f"vector norm {np.linalg.norm(v)} not within {tol} of 1")
    return v


@lru_cache(maxsize=1)
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded (the
    mapped *openblas* library), or None for another BLAS or platform."""
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
                    return getattr(lib, get), getattr(lib, set_)
    except OSError:
        pass
    return None


@contextmanager
def one_blas_thread(dim: int | None = None, split_from: int = 0):
    """OpenBLAS at one thread inside the block, and its prior count after it,
    also when it raises: always when dim is None (a pool), else when OpenBLAS
    splits dim-sized products and one thread wins, split_from <= dim < BLAS_THREADED_DIM."""
    blas = _openblas_threads() if dim is None or split_from <= dim < BLAS_THREADED_DIM else None
    if not blas:
        yield
        return
    prior = blas[0]()
    blas[1](1)
    try:
        yield
    finally:
        blas[1](prior)


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, else the CPU count, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def parallel_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items] on min(jobs, items, usable CPUs) threads,
    in item order; a pool of more than one holds OpenBLAS at one thread, as
    each small product in a worker would otherwise wake OpenBLAS's own."""
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    with one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
