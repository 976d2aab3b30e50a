import cmath
import itertools

import numpy as np
import pytest
from conftest import (digit_table_word_actions, mixed_cycle_monomial, nonidentity_labels,
                      pauli_matrix, single_draw_labels)

from qtamper.errors import DimMismatch, NotUnitary, OutOfRange
from qtamper.haar import child_generator
from qtamper.linalg import MAX_DIM, identity, max_abs
from qtamper.pauli import (MonomialUnitary, PauliLabel, kron_digits, omega, omega_powers,
                           shift_rows, word_actions)


def _kron_oracle(label):
    """Dense word as the Kronecker product of its register matrices."""
    out = np.array([[1.0 + 0j]])
    for a, b in zip(label.x, label.z):
        out = np.kron(out, pauli_matrix(PauliLabel(label.q, (a,), (b,))))
    return out


def _loop_oracle(label):
    """(rows, phase) of the word, one basis tuple at a time: v -> v + x at
    row sum_i ((v_i + x_i) mod q) q^(m-i), phase omega^(<z, v> mod q)."""
    q, m = label.q, label.m
    table = omega(q) ** np.arange(q)
    rows = np.empty(q ** m, dtype=np.intp)
    phase = np.empty(q ** m, dtype=np.complex128)
    for j in range(q ** m):
        v, rest = [], j
        for _ in range(m):
            rest, digit = divmod(rest, q)
            v.insert(0, digit)
        rows[j] = sum((v[i] + label.x[i]) % q * q ** (m - 1 - i) for i in range(m))
        phase[j] = table[sum(label.z[i] * v[i] for i in range(m)) % q]
    return rows, phase


def _labels(q, m):
    for digits in itertools.product(range(q), repeat=2 * m):
        yield PauliLabel(q=q, x=digits[:m], z=digits[m:])


def _sampled_labels(q, m, count, seed):
    rng = child_generator(seed, 0)
    for _ in range(count):
        digits = rng.integers(0, q, size=2 * m)
        yield PauliLabel(q=q, x=tuple(int(v) for v in digits[:m]),
                         z=tuple(int(v) for v in digits[m:]))


def test_qubit_matrices():
    x = pauli_matrix(PauliLabel(q=2, x=(1,), z=(0,)))
    assert np.allclose(x, [[0, 1], [1, 0]])
    z = pauli_matrix(PauliLabel(q=2, x=(0,), z=(1,)))
    assert np.allclose(z, [[1, 0], [0, -1]])


def test_qutrit_shift_clock_word():
    # X^1 Z^1 over F_3: entries M[v+1 mod 3, v] = omega^v, checked entrywise
    m = pauli_matrix(PauliLabel(q=3, x=(1,), z=(1,)))
    w = omega(3)
    expected = np.zeros((3, 3), dtype=complex)
    for v in range(3):
        expected[(v + 1) % 3, v] = w ** v
    assert max_abs(m - expected) < 1e-12


def test_label_validation_and_reduction():
    label = PauliLabel(q=5, x=(7, -1), z=(0, 12))
    assert label.x == (2, 4) and label.z == (0, 2)
    assert label.m == 2
    with pytest.raises(ValueError):
        PauliLabel(q=4, x=(1,), z=(0,))
    with pytest.raises(ValueError):
        PauliLabel(q=2, x=(1, 0), z=(1,))


def test_serialization_round_trip():
    label = PauliLabel(q=3, x=(1, 0, 2), z=(2, 2, 0))
    assert PauliLabel.from_json({"q": 3, "m": 3, "x": [1, 0, 2], "z": [2, 2, 0]}) == label
    assert PauliLabel.from_json({"q": 3, "x": [4, 3, 2], "z": [2, -1, 0]}) == label
    assert PauliLabel.from_compact(label.compact()) == label
    assert label.compact() == "pauli:3:102:220"
    with pytest.raises(ValueError):
        PauliLabel.from_compact("pauli:3:10")
    with pytest.raises(ValueError):
        PauliLabel.from_json({"q": 3, "m": 5, "x": [1], "z": [1]})


def _trace(label):
    return MonomialUnitary(*label.action()).trace()


def test_trace_symbolic():
    assert _trace(PauliLabel(q=2, x=(0, 0, 0), z=(0, 0, 0))) == 8
    assert _trace(PauliLabel(q=2, x=(1, 0, 0), z=(0, 0, 0))) == 0
    assert abs(_trace(PauliLabel(q=5, x=(0,), z=(3,)))) <= 1e-12


def test_trace_matches_dense():
    rng = child_generator(17, 0)
    for q, m in ((2, 1), (2, 3), (2, 4), (3, 2), (3, 4), (5, 2)):
        for _ in range(5):
            digits = rng.integers(0, q, size=2 * m)
            label = PauliLabel(q=q, x=tuple(int(v) for v in digits[:m]),
                               z=tuple(int(v) for v in digits[m:]))
            dense = np.trace(pauli_matrix(label))
            assert abs(_trace(label) - dense) <= 1e-9


def test_unitarity_battery():
    rng = child_generator(18, 0)
    for q in (2, 3, 5):
        for m in (1, 2, 3):
            if q ** m > 128:
                continue
            digits = rng.integers(0, q, size=2 * m)
            label = PauliLabel(q=q, x=tuple(int(v) for v in digits[:m]),
                               z=tuple(int(v) for v in digits[m:]))
            u = pauli_matrix(label)
            assert max_abs(u.conj().T @ u - identity(q ** m)) <= 1e-10


def test_dense_dimension_cap():
    with pytest.raises(OutOfRange):
        pauli_matrix(PauliLabel(q=2, x=(1,) * 13, z=(0,) * 13))


def test_group_closure_up_to_phase():
    rng = child_generator(19, 0)
    for q, m in ((2, 2), (3, 1), (5, 1), (3, 2)):
        for _ in range(5):
            d1 = rng.integers(0, q, size=2 * m)
            d2 = rng.integers(0, q, size=2 * m)
            l1 = PauliLabel(q=q, x=tuple(int(v) for v in d1[:m]), z=tuple(int(v) for v in d1[m:]))
            l2 = PauliLabel(q=q, x=tuple(int(v) for v in d2[:m]), z=tuple(int(v) for v in d2[m:]))
            product = pauli_matrix(l1) @ pauli_matrix(l2)
            combined = PauliLabel(
                q=q,
                x=tuple((a + b) % q for a, b in zip(l1.x, l2.x)),
                z=tuple((a + b) % q for a, b in zip(l1.z, l2.z)),
            )
            target = pauli_matrix(combined)
            ratio = product.flat[np.argmax(np.abs(target))] / target.flat[np.argmax(np.abs(target))]
            assert abs(abs(ratio) - 1) < 1e-10
            assert abs(ratio ** q - 1) < 1e-9  # q-th root of unity
            assert max_abs(product - ratio * target) <= 1e-10


def _monomial(q, a, b):
    return MonomialUnitary(*PauliLabel(q, (a,), (b,)).action())


def _scatter(u):
    """Dense matrix of a monomial: column j is phase[j] at row rows[j]."""
    out = np.zeros(u.shape, dtype=np.complex128)
    out[u.rows, np.arange(u.shape[0])] = u.phase
    return out


def _twist(a, b, q):
    """Scalar lambda with X^a Z^b = lambda Z^b X^a, read from the monomial
    products, which must move every column to the same row; the dense
    products of `pauli_matrix` must agree with both."""
    x, z = _monomial(q, a, 0), _monomial(q, 0, b)
    xz, zx = x @ z, z @ x
    assert np.array_equal(xz.rows, zx.rows)
    dense_x = pauli_matrix(PauliLabel(q, (a,), (0,)))
    dense_z = pauli_matrix(PauliLabel(q, (0,), (b,)))
    assert max_abs(_scatter(xz) - dense_x @ dense_z) <= 1e-14
    assert max_abs(_scatter(zx) - dense_z @ dense_x) <= 1e-14
    ratio = xz.phase / zx.phase
    assert max_abs(ratio - ratio[0]) <= 1e-12
    return complex(ratio[0])


def test_twisted_commutation():
    assert abs(_twist(0, 3, 5) - 1) < 1e-12
    assert abs(_twist(2, 0, 5) - 1) < 1e-12
    assert abs(_twist(1, 1, 2) - (-1)) < 1e-12
    # q = 5, a = 2, b = 3: lambda = omega^{-6} = omega^4
    expected = cmath.exp(2j * cmath.pi / 5) ** 4
    assert abs(_twist(2, 3, 5) - expected) < 1e-12


def test_twisted_commutation_general_rule():
    for q in (2, 3, 5, 7):
        w = cmath.exp(2j * cmath.pi / q)
        for a in range(q):
            for b in range(q):
                lam = _twist(a, b, q)
                assert abs(lam - w ** ((-a * b) % q)) < 1e-10


def test_single_pauli_definition():
    # X^a = sum |v+a><v| and Z^b = sum omega^{bv} |v><v| over F_7
    q = 7
    xa = pauli_matrix(PauliLabel(q, (3,), (0,)))
    for v in range(q):
        assert xa[(v + 3) % q, v] == 1
    zb = pauli_matrix(PauliLabel(q, (0,), (2,)))
    w = omega(q)
    for v in range(q):
        assert abs(zb[v, v] - w ** (2 * v)) < 1e-12


def test_random_nonidentity_labels():
    rng = child_generator(20, 0)
    labels = nonidentity_labels(2, 3, 40, rng)
    assert len(labels) == 40
    assert len(set(labels)) == 40
    assert all(any(lab.x) or any(lab.z) for lab in labels)
    with pytest.raises(OutOfRange):
        nonidentity_labels(2, 1, 4, rng)


def _stream_position(rng):
    """The SFC64 state of a generator, its buffered 32-bit half included."""
    state = rng.bit_generator.state
    return state["state"]["state"].tolist(), state["has_uint32"], state["uinteger"]


@pytest.mark.parametrize("q, m, count", [(2, 1, 3), (2, 3, 40), (3, 2, 80), (5, 1, 24),
                                         (2, 6, 4095), (7, 2, 100), (13, 1, 168)])
def test_labels_match_the_single_draw_oracle(q, m, count):
    """Batches of the labels still needed give the labels of one draw at a
    time and leave the stream where it leaves it, the whole space
    (count = q^(2m) - 1) included."""
    for seed in (0, 1, 2):
        batched, single = child_generator(seed, 0), child_generator(seed, 0)
        assert nonidentity_labels(q, m, count, batched) == single_draw_labels(q, m, count, single)
        assert _stream_position(batched) == _stream_position(single)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_word_actions_match_the_digit_table_oracle(q):
    """Rows and phase equal the digit-table form bit for bit, for every
    register count up to the dimension cap, for leading shapes (), (7,) and
    (2, 3), and for unreduced and negative exponents; one register more is
    refused."""
    rng = child_generator(30, q)
    m = 0
    while q ** m <= MAX_DIM:
        for lead in ((), (7,), (2, 3)):
            x, z = rng.integers(-3 * q, 3 * q, size=(2,) + lead + (m,))
            rows, phase = word_actions(q, x, z)
            want_rows, want_phase = digit_table_word_actions(q, x, z)
            assert rows.shape == phase.shape == lead + (q ** m,)
            assert np.array_equal(rows, want_rows) and rows.dtype == np.intp
            assert np.array_equal(phase.view(float), want_phase.view(float))
        m += 1
    with pytest.raises(OutOfRange):
        word_actions(q, np.zeros(m, dtype=int), np.zeros(m, dtype=int))


ORACLE_LABELS = [*_labels(2, 1), *_labels(2, 2), *_labels(2, 3), *_labels(3, 1),
                 *_labels(3, 2), *_sampled_labels(2, 8, 50, 21)]


def test_action_matches_loop_oracle_bitwise():
    for label in ORACLE_LABELS:
        rows, phase = label.action()
        loop_rows, loop_phase = _loop_oracle(label)
        assert np.array_equal(rows, loop_rows)
        assert np.array_equal(phase.view(float), loop_phase.view(float))
        dense = np.zeros((rows.size, rows.size), dtype=np.complex128)
        dense[loop_rows, np.arange(rows.size)] = loop_phase
        assert np.array_equal(pauli_matrix(label).view(float), dense.view(float))


def test_action_matches_kron_oracle_bitwise():
    """Rows equal the kron loop's exactly; its phases are products of m
    rounded factors, so they agree with the table phases to within 1e-13."""
    for label in ORACLE_LABELS:
        dense = _kron_oracle(label)
        rows, phase = label.action()
        columns = np.arange(rows.size)
        assert np.array_equal(np.flatnonzero(dense.T), columns * rows.size + rows)
        assert max_abs(phase - dense[rows, columns]) <= 1e-13


def test_shift_rows_of_chosen_digit_rows():
    # the rows of a few digit rows, one x per group of rows, are those
    # entries of each x's full row map, which the loop oracle gives
    for q, m in ((2, 3), (3, 2), (5, 2)):
        digits = kron_digits(q, m)
        xs = digits[[1, len(digits) // 2, len(digits) - 1]]
        picks = np.array([[0, 1, 2], [len(digits) - 1, 0, 3], [2, 2, 1]])
        got = shift_rows(q, xs[:, np.newaxis], digits[picks])
        for x, pick, rows in zip(xs, picks, got):
            full, _ = _loop_oracle(PauliLabel(q, tuple(x), (0,) * m))
            assert np.array_equal(rows, full[pick])
            assert np.array_equal(shift_rows(q, tuple(x)), full)


def test_shift_rows_match_the_modulo_form():
    # x is reduced once and each digit sum wrapped by a table; the rows must
    # be those of ((digits + x) % q) @ radix, for x unreduced or negative too
    rng = np.random.default_rng(3)
    for q, m in ((2, 8), (3, 4), (5, 3), (7, 2)):
        digits = kron_digits(q, m)
        radix = q ** np.arange(m - 1, -1, -1)
        for xs in (rng.integers(0, q, (6, 1, m)), rng.integers(-3 * q, 3 * q, (6, 1, m))):
            assert np.array_equal(shift_rows(q, xs, digits), ((digits + xs) % q) @ radix)
            for x in xs[:, 0]:
                assert np.array_equal(shift_rows(q, tuple(x)), ((digits + x) % q) @ radix)


def test_digit_and_phase_tables():
    for q, m in ((2, 0), (2, 3), (3, 2), (5, 1)):
        digits = kron_digits(q, m)
        assert digits.tolist() == [list(v) for v in itertools.product(range(q), repeat=m)]
        assert not digits.flags.writeable
    for q in (2, 3, 5, 7, 31):
        table = omega_powers(q)
        w = omega(q)
        assert all(table[k] == w ** k for k in range(q))
        assert not table.flags.writeable
    with pytest.raises(OutOfRange):
        kron_digits(2, 13)


def test_monomial_validation():
    MonomialUnitary([2, 0, 1], [1, -1, 1j])
    with pytest.raises(NotUnitary):
        MonomialUnitary([0, 0, 1], [1, 1, 1])         # repeated row
    with pytest.raises(NotUnitary):
        MonomialUnitary([0, 1, 3], [1, 1, 1])         # row out of range
    with pytest.raises(NotUnitary):
        MonomialUnitary([0, 1, 2], [1, 1.001, 1])     # |phase| != 1
    with pytest.raises(NotUnitary):
        MonomialUnitary([0, 1, 2], [1, np.nan, 1])
    with pytest.raises(DimMismatch):
        MonomialUnitary([0, 1, 2], [1, 1])


def test_monomial_trace_matches_dense():
    labels = [*_labels(2, 2), *_labels(3, 2), *_sampled_labels(2, 6, 20, 22),
              PauliLabel(q=2, x=(0,) * 6, z=(0, 1, 0, 0, 1, 0))]
    for label in labels:
        assert _trace(label) == np.trace(pauli_matrix(label))


def test_monomial_products_match_dense():
    """Qubit words: U @ x, A @ U and U @ V equal the BLAS products bit for
    bit; qutrit words within 1e-14."""
    rng = child_generator(23, 0)
    qubits = list(_sampled_labels(2, 6, 20, 24))
    for label, other in zip(qubits, qubits[1:] + qubits[:1]):
        u = MonomialUnitary(*label.action())
        dense = pauli_matrix(label)
        vec = rng.normal(size=64) + 1j * rng.normal(size=64)
        block = rng.normal(size=(64, 4)) + 1j * rng.normal(size=(64, 4))
        for x in (vec, block, block[:, 1]):
            assert np.array_equal((u @ x).view(float), (dense @ x).view(float))
        left = block.conj().T
        assert np.array_equal((left @ u).view(float), (left @ dense).view(float))
        product = u @ MonomialUnitary(*other.action())
        assert isinstance(product, MonomialUnitary)
        assert np.array_equal(_scatter(product).view(float),
                              (dense @ pauli_matrix(other)).view(float))
    qutrits = list(_sampled_labels(3, 3, 10, 25))
    for label, other in zip(qutrits, qutrits[1:] + qutrits[:1]):
        u = MonomialUnitary(*label.action())
        dense = pauli_matrix(label)
        x = rng.normal(size=(27, 3)) + 1j * rng.normal(size=(27, 3))
        assert max_abs(u @ x - dense @ x) <= 1e-14
        assert max_abs(x.T @ u - x.T @ dense) <= 1e-14
        product = u @ MonomialUnitary(*other.action())
        assert max_abs(_scatter(product) - dense @ pauli_matrix(other)) <= 1e-14
    with pytest.raises(DimMismatch):
        u @ MonomialUnitary(*qubits[0].action())


@pytest.mark.parametrize("q, m", [(2, 6), (3, 3), (5, 2)])
def test_word_actions_stack_the_per_word_actions(q, m):
    labels = list(_sampled_labels(q, m, 7, 27))
    rows, phase = word_actions(q, [label.x for label in labels], [label.z for label in labels])
    assert rows.shape == phase.shape == (7, q ** m)
    for label, word_rows, word_phase in zip(labels, rows, phase):
        want_rows, want_phase = _loop_oracle(label)
        assert np.array_equal(word_rows, want_rows) and np.array_equal(word_phase, want_phase)


def test_monomial_stack_products_match_dense_stacks():
    """A stack of qubit words: U @ x and A @ U carry the member axis in
    front and equal numpy's stacked dense products bit for bit, and the
    members of a stack are views of it."""
    rng = child_generator(28, 0)
    labels = list(_sampled_labels(2, 5, 6, 29))
    words = [MonomialUnitary(*label.action()) for label in labels]
    stack = MonomialUnitary.stack(words)
    dense = np.stack([pauli_matrix(label) for label in labels])
    assert stack.shape == dense.shape == (6, 32, 32)
    vec = rng.normal(size=32) + 1j * rng.normal(size=32)
    block = rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3))
    for x in (vec, block):
        assert np.array_equal((stack @ x).view(float), (dense @ x).view(float))
        assert np.array_equal((x.T @ stack).view(float), (x.T @ dense).view(float))
    for word, member in zip(words, stack):
        assert np.array_equal(member.rows, word.rows) and np.array_equal(member.phase, word.phase)
        assert np.shares_memory(member.rows, stack.rows)
    with pytest.raises(DimMismatch):
        stack @ words[0]
    with pytest.raises(DimMismatch):
        np.ones((2, 3, 32)) @ stack
    with pytest.raises(TypeError):
        words[0][0]
    with pytest.raises(NotUnitary):
        MonomialUnitary([[0, 1, 2], [0, 0, 1]], np.ones((2, 3)))
    with pytest.raises(DimMismatch):
        MonomialUnitary(np.zeros((1, 1, 1)), np.ones((1, 1, 1)))


def test_monomial_products_take_a_seed_axis():
    """Operands with a leading seed axis, whose member slot has length 1,
    broadcast against a stack of words as numpy's dense matmul does, bit for
    bit, and so does one word on (S, N, c)."""
    rng = child_generator(30, 0)
    labels = list(_sampled_labels(2, 5, 6, 31))
    dense = np.stack([pauli_matrix(label) for label in labels])
    x = rng.normal(size=(3, 1, 32, 2)) + 1j * rng.normal(size=(3, 1, 32, 2))
    a = np.swapaxes(x, -1, -2).conj()
    stack = MonomialUnitary.stack([MonomialUnitary(*label.action()) for label in labels])
    word = MonomialUnitary(*labels[0].action())
    assert np.array_equal((stack @ x).view(float), (dense @ x).view(float))
    assert np.array_equal((a @ stack).view(float), (a @ dense).view(float))
    assert np.array_equal((word @ x[:, 0]).view(float), (dense[0] @ x[:, 0]).view(float))
    with pytest.raises(DimMismatch):
        stack @ np.ones((3, 2, 32, 2))


def _same_multiset(got, want, tol):
    """Whether each value of `got` pairs off with its own value of `want`
    within tol (nearest unmatched value first)."""
    left = list(want)
    for value in got:
        gaps = np.abs(np.array(left) - value)
        i = int(np.argmin(gaps))
        if gaps[i] > tol:
            return False
        left.pop(i)
    return not left


@pytest.mark.parametrize("label", [PauliLabel(2, (1, 0, 1), (0, 1, 1)),
                                   PauliLabel(2, (0, 1, 1, 0), (1, 1, 0, 1)),
                                   PauliLabel(3, (1, 2), (0, 1)), PauliLabel(3, (0, 0, 1), (2, 1, 0)),
                                   PauliLabel(5, (3,), (1,)), PauliLabel(5, (1, 3), (2, 4))],
                         ids=["q2-xzz", "q2-mixed", "q3-xz", "q3-three", "q5-xz", "q5-two"])
def test_monomial_spectrum_matches_dense_eigvals(label):
    u = MonomialUnitary(*label.action())
    assert _same_multiset(u.eigenvalues(), np.linalg.eigvals(pauli_matrix(label)), 1e-12)


def test_mixed_cycle_monomial_spectrum_matches_dense_eigvals():
    """Random phases on cycles of lengths 1, 1, 2, 3 and 5."""
    u = mixed_cycle_monomial(child_generator(26, 0))
    assert _same_multiset(u.eigenvalues(), np.linalg.eigvals(_scatter(u)), 1e-12)
    assert not _same_multiset(u.eigenvalues().conj(), np.linalg.eigvals(_scatter(u)), 1e-12)
