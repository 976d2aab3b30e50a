"""Dense complex vectors and matrices: the handful of operations everything
else needs.

Matrices and state vectors are plain complex128 numpy arrays.  These
helpers add the shape/unitarity/normalization checks the rest of the
package relies on; products, traces and QR are plain numpy.
`parallel_map` is the package's one worker pool: it owns the cores, so
the OpenBLAS numpy loaded runs one thread per call while it is open.

Tolerance conventions: structural identities 1e-10, rank tests 1e-12.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np

from .errors import DimMismatch, NotNormalized, NotUnitary

STRUCTURAL_TOL = 1e-10
RANK_TOL = 1e-12
MAX_DIM = 4096      # the largest dense dimension any routine builds


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


def parallel_map(fn, items, jobs: int) -> list:
    """[fn(item) for item in items] on min(jobs, items, CPUs) threads, in
    item order.  Each small product in a worker would otherwise wake
    OpenBLAS's own threads, so OpenBLAS is held at one thread while the
    pool runs and restored afterwards, also when a worker raises."""
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    blas = _openblas_threads()
    prior = blas[0]() if blas else None
    if blas:
        blas[1](1)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    finally:
        if blas:
            blas[1](prior)
