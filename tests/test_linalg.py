import types

import numpy as np
import pytest
from conftest import dense_decoder_projectors, pauli_matrix

from qtamper import linalg
from qtamper.errors import DimMismatch, NotNormalized, NotUnitary, RankDeficient
from qtamper.haar import _phase_fixed_qr
from qtamper.linalg import (identity, is_unitary, max_abs, parallel_map,
                            require_normalized, require_unitary)
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

