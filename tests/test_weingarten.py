import hashlib
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from conftest import (compose, cycle_type_of, fraction_gauss_jordan, haar_moment,
                      haar_unitary_stack, invert, iter_tuples, num_cycles, traced_peak, wg_value)

from qtamper import weingarten
from qtamper.errors import OutOfRange, SingularGram
from qtamper.haar import child_generator
from qtamper.perm import perm_table, sp_classes
from qtamper.weingarten import wg_abs_sum, wg_sum, wg_table

# SHA-256 of sp_classes(p).pair and .class_of (uint8), and of the count rows
# of _class_counts(p) as little-endian int64, recorded from the one-product
# pair table and intp count rows
S_TABLE_DIGESTS = {
    5: ("35b5c699abb4eec40957ee2230387f4600b3870973ea357ff930d78bd0bbb711",
        "a19219524865d1096544cb35ad4f7f9048a949e431b76fc7a37817e77423140a",
        "9bcbdf50903948da61b86c58cb61efe8fa6e880fe1cc22f0b89f9c87229f6aea"),
    6: ("c5653b4930131ec293e42c9a7f8b52f299ed11c59bc26a8ce22562ec9623d9c9",
        "fdea41765057428b3b8177cffaf621d22c3576afa3be4f88c8810b09aa04f695",
        "5b7f2f9b3f4d216d202f709440ffe7a77b560723d6413c47f10dd376aa7ad581"),
}


def _rising(n, t):
    out = 1
    for k in range(t):
        out *= n + k
    return out


def _falling(n, t):
    out = 1
    for k in range(t):
        out *= n - k
    return out


def test_golden_values_first_three_orders():
    for n in (4, 8, 16, 64):
        assert wg_value((1,), n) == Fraction(1, n)
        assert wg_value((1, 1), n) == Fraction(1, n ** 2 - 1)
        assert wg_value((2,), n) == Fraction(-1, n * (n ** 2 - 1))
        assert wg_value((1, 1, 1), n) == Fraction(n ** 2 - 2, n * (n ** 2 - 1) * (n ** 2 - 4))
        assert wg_value((2, 1), n) == Fraction(-1, (n ** 2 - 1) * (n ** 2 - 4))
        assert wg_value((3,), n) == Fraction(2, n * (n ** 2 - 1) * (n ** 2 - 4))


def test_table_covers_all_classes():
    for p, n_classes in ((1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)):
        assert len(wg_table(p, 64)) == len(sp_classes(p).types) == n_classes
        assert sum(sp_classes(p).sizes) == factorial(p)


def test_sum_identity():
    assert wg_sum(1, 9) == Fraction(1, 9)
    assert wg_sum(2, 4) == Fraction(1, 20)
    assert wg_sum(3, 8) == Fraction(1, 720)
    for n in (8, 16, 64):
        for t in range(1, 7):
            assert wg_sum(t, n) == Fraction(1, _rising(n, t))


def test_abs_sum_identity():
    assert wg_abs_sum(1, 9) == Fraction(1, 9)
    assert wg_abs_sum(2, 4) == Fraction(1, 12)
    assert wg_abs_sum(3, 8) == Fraction(1, 336)
    for n in (8, 16, 64):
        for t in range(1, 7):
            assert wg_abs_sum(t, n) == Fraction(1, _falling(n, t))


def test_abs_sum_example_matches_table_sum():
    assert wg_value((1, 1), 4) + abs(wg_value((2,), 4)) == Fraction(1, 12)
    assert wg_value((1, 1), 4) + wg_value((2,), 4) == Fraction(1, 20)


def test_full_gram_system_independent_check():
    """Recompute sum_tau N^{|C(sigma tau^-1)|} Wg(tau) = [sigma = e] for
    every sigma, with test-local composition code.  The taus of one sigma
    are grouped by (|C(sigma tau^-1)|, cycle type of tau) with integer
    counts, which keeps S_6 affordable."""
    for p, n in ((2, 4), (3, 8), (4, 8), (5, 8), (6, 8)):
        perms = list(iter_tuples(p))
        taus = [(invert(tau), cycle_type_of(tau)) for tau in perms]
        identity = tuple(range(p))
        for sigma in perms:
            counts = Counter((num_cycles(compose(sigma, tau_inv)), ct) for tau_inv, ct in taus)
            total = sum((k * Fraction(n) ** c * wg_value(ct, n) for (c, ct), k in counts.items()),
                        Fraction(0))
            assert total == (1 if sigma == identity else 0)


@pytest.mark.parametrize("p", range(1, 7))
def test_integer_solve_matches_the_fraction_oracle(p):
    """The fraction-free integer solve gives the Fractions that Gauss-Jordan
    elimination in Fractions gives, on the class-collapsed system of S_p at
    18 dimensions N from p to 10^6."""
    types = sp_classes(p).types
    rows, _, class_row = weingarten._class_counts(p)
    rhs = [int(j == 0) for j in range(len(types))]
    for n in [*range(p, p + 10), 16, 64, 100, 1000, 4096, 10 ** 4, 10 ** 5, 10 ** 6]:
        gram = rows.astype(object) @ np.array([n ** len(ct) for ct in types], dtype=object)
        matrix = [list(gram[r]) for r in class_row]
        solution = weingarten._solve_fraction_system(matrix, rhs)
        assert all(type(w) is Fraction for w in solution)
        assert solution == fraction_gauss_jordan(
            [[Fraction(g) for g in row] for row in matrix], [Fraction(b) for b in rhs]), (p, n)


def test_certificate_rejects_a_wrong_solution(monkeypatch):
    """The p!-row check, not the collapsed solve, decides: a solve that
    returns a perturbed candidate makes wg_table raise SingularGram."""
    solve = weingarten._solve_fraction_system

    def perturbed(matrix, rhs):
        solution = solve(matrix, rhs)
        solution[-1] += Fraction(1, 10 ** 12)
        return solution

    wg_table.cache_clear()
    monkeypatch.setattr(weingarten, "_solve_fraction_system", perturbed)
    try:
        for p, n in ((3, 8), (6, 8)):
            with pytest.raises(SingularGram, match="permutation-level equation"):
                wg_table(p, n)
    finally:
        wg_table.cache_clear()


@pytest.mark.parametrize("p", [4, 6])
def test_integer_check_rejects_each_perturbed_class(monkeypatch, p):
    """Perturbing any one class value of the solve, by a new denominator or
    by a step of its own, fails the check scaled by the LCM of the
    denominators."""
    solve = weingarten._solve_fraction_system
    for index in range(len(sp_classes(p).types)):
        for own_step in (False, True):
            def perturbed(matrix, rhs, index=index, own_step=own_step):
                solution = solve(matrix, rhs)
                step = solution[index].denominator if own_step else 10 ** 12
                solution[index] += Fraction(1, step)
                return solution

            monkeypatch.setattr(weingarten, "_solve_fraction_system", perturbed)
            with pytest.raises(SingularGram, match="permutation-level equation"):
                wg_table.__wrapped__(p, 8)


def test_distinct_equations_are_the_permutation_equations():
    """The distinct count rows are one per class, as a set they are the p!
    rows of the permutation-level system, and each class indexes the row of
    its sigmas, recounted with test-local composition code."""
    for p in range(1, 7):
        sp = sp_classes(p)
        n_types = len(sp.types)
        rows, is_identity, class_row = weingarten._class_counts(p)
        assert rows.shape == (n_types, n_types, n_types)
        perms = perm_table(p).tolist()
        full, of_class = set(), {}
        for s, sigma in enumerate(perms):
            counts = np.zeros((n_types, n_types), dtype=np.int64)
            for b, tau in enumerate(perms):
                k = sp.types.index(cycle_type_of(compose(sigma, invert(tau))))
                counts[sp.class_of[b], k] += 1
            full.add((counts.tobytes(), s == 0))
            of_class.setdefault(int(sp.class_of[s]), counts.tobytes())
        assert full == {(row.astype(np.int64).tobytes(), bool(flag))
                        for row, flag in zip(rows, is_identity)}
        assert [rows[r].astype(np.int64).tobytes() for r in class_row] == \
            [of_class[j] for j in range(n_types)]


def test_errors():
    with pytest.raises(OutOfRange):
        wg_table(7, 64)
    with pytest.raises(OutOfRange):
        wg_table(0, 4)
    with pytest.raises(SingularGram):
        wg_table(3, 2)


def test_asymptotic_scaling_bounded():
    # |Wg(sigma, N)| * N^{2p - |C|} stays below a fixed constant over the sweep
    for p in range(1, 5):
        for n in (16, 32, 64):
            for ct, value in zip(sp_classes(p).types, wg_table(p, n)):
                scaled = abs(value) * Fraction(n) ** (2 * p - len(ct))
                assert scaled <= 10


def test_haar_moment_examples():
    assert haar_moment((0,), (0,), (0,), (0,), 8) == Fraction(1, 8)
    assert haar_moment((0,), (1,), (0,), (0,), 8) == 0
    assert haar_moment((0, 1), (0, 1), (0, 1), (0, 1), 4) == Fraction(1, 15)


def test_haar_moment_contract_errors():
    with pytest.raises(ValueError):
        haar_moment((0, 1), (0,), (0, 1), (0, 1), 4)
    with pytest.raises(OutOfRange):
        haar_moment((0,) * 6, (0,) * 6, (0,) * 6, (0,) * 6, 16)
    with pytest.raises(OutOfRange):
        haar_moment((9,), (9,), (0,), (0,), 8)


def test_haar_moment_against_monte_carlo():
    """Empirical Haar averages for a fixed battery of index patterns,
    p <= 3, N = 8, 1e5 samples, within 4 standard errors."""
    n = 8
    samples = 100_000
    battery = [
        ((0,), (0,), (0,), (0,)),
        ((0,), (0,), (1,), (1,)),
        ((0, 1), (0, 1), (0, 1), (0, 1)),
        ((0, 0), (0, 0), (0, 1), (1, 0)),
        ((0, 1), (1, 0), (0, 1), (1, 0)),
        ((0, 1), (0, 2), (0, 1), (0, 1)),
        ((0, 1, 2), (0, 1, 2), (0, 1, 2), (0, 1, 2)),
    ]
    sums = [0.0] * len(battery)
    sums_sq = [0.0] * len(battery)
    chunk = 8192
    done = 0
    chunk_index = 0
    while done < samples:
        count = min(chunk, samples - done)
        rng = child_generator(777, chunk_index)
        stack = haar_unitary_stack(rng, count, n)
        for b, (i, i2, j, j2) in enumerate(battery):
            vals = np.ones(count, dtype=np.complex128)
            for a in range(len(i)):
                vals *= stack[:, i[a], j[a]]
            for a in range(len(i2)):
                vals *= stack[:, i2[a], j2[a]].conj()
            real = vals.real
            sums[b] += float(real.sum())
            sums_sq[b] += float((real * real).sum())
        done += count
        chunk_index += 1
    for b, pattern in enumerate(battery):
        exact = float(haar_moment(*pattern, n))
        mean = sums[b] / samples
        var = max(sums_sq[b] / samples - mean ** 2, 0.0)
        stderr = (var / samples) ** 0.5
        assert abs(mean - exact) <= 4 * stderr + 1e-12, (pattern, mean, exact, stderr)


def test_class_counts_match_np_unique():
    """The sorted distinct count rows, their identity flags and each class's
    row index equal those of `np.unique(axis=0)` over the same p! rows."""
    for p in range(1, 7):
        sp = sp_classes(p)
        n_perms, n_types = len(perm_table(p)), len(sp.types)
        counts = np.zeros((n_perms, n_types, n_types), dtype=np.int64)
        np.add.at(counts, (np.arange(n_perms)[None, :], sp.class_of[:, None], sp.pair), 1)
        distinct, row_of = np.unique(np.column_stack([counts.reshape(n_perms, -1),
                                                      sp.class_of == 0]),
                                     axis=0, return_inverse=True)
        rows, is_identity, class_row = weingarten._class_counts(p)
        np.testing.assert_array_equal(rows.reshape(len(rows), -1), distinct[:, :-1])
        assert is_identity.tolist() == distinct[:, -1].tolist()
        first = [list(sp.class_of).index(j) for j in range(n_types)]
        assert class_row.tolist() == row_of.ravel()[first].tolist()


def test_class_counts_take_sigmas_in_blocks(monkeypatch):
    """Blocks that split the 720 sigmas of S_6 unevenly, or one sigma each,
    give the same count rows as one block."""
    whole = weingarten._class_counts(6)
    for rows in (1, 100, 720):
        monkeypatch.setattr(weingarten, "CLASS_COUNT_BLOCK_ROWS", rows)
        for got, want in zip(weingarten._class_counts.__wrapped__(6), whole):
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), rows


@pytest.mark.parametrize("p", sorted(S_TABLE_DIGESTS))
def test_sp_tables_keep_their_golden_bytes(p):
    """The pair table formed in row blocks and the uint16 count rows hold
    the entries of the one-product table and the intp rows."""
    sp = sp_classes(p)
    rows, is_identity, class_row = weingarten._class_counts(p)
    assert sp.pair.dtype == sp.class_of.dtype == np.uint8 and rows.dtype == np.uint16
    digests = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                    for a in (sp.pair, sp.class_of, rows.astype("<i8")))
    assert digests == S_TABLE_DIGESTS[p]
    n_types = len(sp.types)
    assert is_identity.tolist() == [0] * (n_types - 1) + [1]
    assert class_row.tolist() == list(range(n_types - 1, -1, -1))


def test_cold_sp_tables_peak_memory_is_bounded():
    """Cold `sp_classes(6)` and `_class_counts(6)`, built together: no
    (720, 720) code product and no intp count rows form, so the traced peak
    stays below 3 MiB."""
    perm_table(6)
    sp_classes.cache_clear()
    weingarten._class_counts.cache_clear()
    peak = traced_peak(weingarten._class_counts, 6)      # builds sp_classes(6) first
    assert peak < 3 * 2 ** 20, peak


def test_class_counts_peak_memory_is_bounded():
    """Cold `_class_counts(6)` keys its bincount by blocks of sigmas, so no
    (720, 720) key array forms: its traced peak stays below 4 MiB."""
    sp_classes(6)
    weingarten._class_counts.cache_clear()
    peak = traced_peak(weingarten._class_counts, 6)
    assert peak < 4 * 2 ** 20, peak
