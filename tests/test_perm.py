import itertools
from math import comb, factorial

import numpy as np
import pytest
from conftest import (Permutation, bfs_transposition_distances, compose,
                      count_by_transpositions, cycle_type_of, cycles_of, fix_move, from_cycles,
                      invert, iter_tuples, loop_parity_swappers, min_transpositions, num_cycles,
                      traced_peak, valuation)

from qtamper import perm
from qtamper.errors import BudgetExceeded
from qtamper.perm import (MAX_COROLLARY_2T, MAX_LEMMA_DEGREE, MAX_PAIR_DEGREE,
                          MAX_SWAPPER_DEGREE, cycle_counts, orbit_labels, parity_swappers,
                          perm_table, sp_classes, verify_cycle_bound_corollary,
                          verify_fixed_point_lemma, verify_lemmas)
from qtamper.reports import canonical_json_bytes


def test_not_a_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_cycle_decomposition_examples():
    ident = Permutation(range(4))
    assert cycles_of(ident) == [(0,), (1,), (2,), (3,)]

    three_cycle = from_cycles(3, [(0, 1, 2)])
    assert cycles_of(three_cycle) == [(0, 1, 2)]

    # (1 2)(3 4 5) in S_6, 0-based (0 1)(2 3 4); orbit-following by hand:
    sigma = from_cycles(6, [(0, 1), (2, 3, 4)])
    assert cycles_of(sigma) == [(0, 1), (2, 3, 4), (5,)]
    assert num_cycles(sigma) == 3


def test_cycles_partition_points():
    for images in iter_tuples(5):
        p = Permutation(images)
        points = sorted(x for c in cycles_of(p) for x in c)
        assert points == list(range(5))


def test_valuation_examples():
    assert valuation(Permutation(range(4))) == 4
    assert valuation(from_cycles(2, [(0, 1)])) == 0
    # (1 3)(2 4): both cycles same-parity labels, |2-0| + |0-2| = 4
    assert valuation(from_cycles(4, [(0, 2), (1, 3)])) == 4


def test_valuation_definition_oracle():
    # recompute from the definition with explicit 1-based labels
    for images in iter_tuples(6):
        p = Permutation(images)
        total = 0
        for cyc in cycles_of(p):
            labels = [x + 1 for x in cyc]
            odd = sum(1 for v in labels if v % 2 == 1)
            even = len(labels) - odd
            total += abs(odd - even)
        assert valuation(p) == total


def test_full_valuation_iff_parity_preserving():
    for n in range(1, 8):
        for images in iter_tuples(n):
            p = Permutation(images)
            preserves = all((i % 2) == (images[i] % 2) for i in range(n))
            assert (valuation(p) == n) == preserves


def test_fix_move_examples():
    fixed, moved = fix_move(Permutation(range(5)))
    assert fixed == frozenset(range(5)) and moved == frozenset()
    fixed, moved = fix_move(from_cycles(5, [(0, 1)]))
    assert fixed == frozenset({2, 3, 4}) and moved == frozenset({0, 1})
    for images in itertools.islice(iter_tuples(6), 100):
        f, m = fix_move(Permutation(images))
        assert f | m == frozenset(range(6)) and not (f & m)


def test_min_transpositions_examples():
    assert min_transpositions(Permutation(range(6))) == 0
    assert min_transpositions(from_cycles(5, [tuple(range(5))])) == 4
    assert min_transpositions(from_cycles(5, [(0, 1), (2, 3)])) == 2


def test_transposition_identity_against_bfs():
    for n in range(2, 8):
        dist = bfs_transposition_distances(n)
        for images, d in dist.items():
            assert min_transpositions(Permutation(images)) == d


def test_cycle_count_changes_by_one_under_transposition():
    for n in range(2, 7):
        transpositions = [
            from_cycles(n, [(i, j)])
            for i, j in itertools.combinations(range(n), 2)
        ]
        for images in iter_tuples(n):
            sigma = Permutation(images)
            c = num_cycles(sigma)
            for tau in transpositions:
                assert abs(num_cycles(compose(sigma, tau)) - c) == 1


def test_count_by_transpositions_examples():
    assert count_by_transpositions(4, 0) == 1
    assert count_by_transpositions(3, 1) == 3
    # S_4 permutations that are a single 4-cycle need 3 transpositions
    assert count_by_transpositions(4, 3) == 6
    with pytest.raises(BudgetExceeded):
        count_by_transpositions(10, 1)
    with pytest.raises(ValueError):
        count_by_transpositions(4, 4)


def test_count_by_transpositions_bound_and_total():
    for n in range(2, 7):
        total = 0
        for i in range(n):
            c = count_by_transpositions(n, i)
            assert c <= comb(n, 2) ** i
            total += c
        assert total == factorial(n)


def test_parity_swappers_examples():
    assert parity_swappers(1).tolist() == [[1, 0]]
    assert len(parity_swappers(2)) == 4
    for t in range(1, 5):
        swappers = list(map(tuple, parity_swappers(t).tolist()))
        assert len(swappers) == factorial(t) ** 2
        assert len(set(swappers)) == len(swappers)
        for beta in swappers:
            assert fix_move(beta)[0] == frozenset()
            for x in range(2 * t):
                # 1-based labels flip parity: x+1 and beta(x)+1 differ mod 2
                assert (x + beta[x]) % 2 == 1
    with pytest.raises(BudgetExceeded):
        parity_swappers(6)


def test_parity_swappers_match_filter_oracle():
    for t in (1, 2):
        brute = {
            images
            for images in iter_tuples(2 * t)
            if all((x + images[x]) % 2 == 1 for x in range(2 * t))
        }
        assert set(map(tuple, parity_swappers(t).tolist())) == brute


def test_parity_swappers_match_the_loop_oracle():
    for t in range(1, MAX_SWAPPER_DEGREE // 2 + 1):
        assert list(map(tuple, parity_swappers(t).tolist())) == loop_parity_swappers(t), t


def test_verify_fixed_point_lemma():
    rep = verify_fixed_point_lemma(5)
    assert rep["counterexamples"] == []
    assert rep["checked_count"] == factorial(5)
    # identity meets the bound with equality: n = 2n - n
    ident = Permutation(range(5))
    assert len(fix_move(ident)[0]) == 2 * num_cycles(ident) - 5
    with pytest.raises(BudgetExceeded):
        verify_fixed_point_lemma(8)


def test_verify_cycle_bound_corollary():
    rep = verify_cycle_bound_corollary(2)
    assert rep["counterexamples"] == []
    assert rep["checked_count"] == factorial(4) * 4
    with pytest.raises(BudgetExceeded):
        verify_cycle_bound_corollary(4)


def test_verify_lemmas_report_schema():
    reports = verify_lemmas(4, 2)
    assert len(reports) == 6
    for rec in reports:
        assert set(rec) == {"lemma_name", "n_or_t", "checked_count", "counterexamples"}
        assert rec["counterexamples"] == []


def test_compose_invert_helpers():
    a = (1, 2, 0)
    b = (2, 0, 1)
    assert compose(a, b) == (0, 1, 2)
    assert invert(a) == b
    assert num_cycles((1, 0, 3, 2)) == 2


def test_sp_classes_match_tuple_helpers():
    """pair[a, b] is the class of perms[b] o perms[a]^-1: every alpha row
    for p <= 5, one representative alpha per class at p = 6, recomputed
    with the tuple helpers."""
    for p in range(1, 7):
        sp = sp_classes(p)
        perms = list(iter_tuples(p))
        types = [cycle_type_of(a) for a in perms]
        assert sp.types == tuple(dict.fromkeys(types))
        assert [sp.types[c] for c in sp.class_of] == types
        assert list(sp.sizes) == [types.count(ct) for ct in sp.types]
        alphas = range(len(perms)) if p <= 5 else [types.index(ct) for ct in sp.types]
        for a in alphas:
            alpha_inv = invert(perms[a])
            assert [sp.types[c] for c in sp.pair[a]] == [
                cycle_type_of(compose(beta, alpha_inv)) for beta in perms
            ], (p, perms[a])
    with pytest.raises(BudgetExceeded):
        sp_classes(7)


def test_sp_classes_pair_matches_the_row_by_row_gather():
    """The one-product pair table equals the row-by-row route: each row
    perms[:] o perms[a]^-1 composed by an index gather, then base-p coded."""
    for p in range(1, MAX_PAIR_DEGREE + 1):
        sp = sp_classes(p)
        table = perm_table(p)
        place = p ** np.arange(p - 1, -1, -1)
        class_at = np.zeros(p ** p, dtype=np.uint8)
        class_at[table @ place] = sp.class_of
        inverse = np.argsort(table, axis=1)
        rows = [class_at[table[:, inverse[a]] @ place] for a in range(len(table))]
        np.testing.assert_array_equal(sp.pair, np.array(rows), err_msg=f"p={p}")


def test_perm_table_is_itertools_order():
    for n in range(MAX_LEMMA_DEGREE + 1):
        table = perm_table(n)
        assert table.shape == (factorial(n), n)
        assert list(map(tuple, table.tolist())) == list(iter_tuples(n))
    for n in (-1, MAX_LEMMA_DEGREE + 1):
        with pytest.raises(BudgetExceeded):
            perm_table(n)


def test_cycle_counts_match_the_tuple_oracle():
    for n in range(MAX_LEMMA_DEGREE + 1):
        table = perm_table(n)
        assert cycle_counts(table).tolist() == [num_cycles(row) for row in table.tolist()]
    # degrees on both sides of a power of two, each with its longest cycle
    rng = np.random.default_rng(20)
    for n in (8, 9, 16, 17, 33):
        rows = np.array([np.roll(np.arange(n), 1), *(rng.permutation(n) for _ in range(50))])
        assert cycle_counts(rows).tolist() == [num_cycles(row) for row in rows.tolist()]


def test_orbit_labels_match_cycles_of():
    """Each point is labelled with its row's offset plus the first point of
    its cycle in `cycles_of`, which is the cycle's smallest."""
    for n in range(MAX_LEMMA_DEGREE + 1):
        table = perm_table(n)
        expected = []
        for r, row in enumerate(table.tolist()):
            labels = [0] * n
            for cyc in cycles_of(row):
                for x in cyc:
                    labels[x] = r * n + cyc[0]
            expected.append(labels)
        assert orbit_labels(table).tolist() == expected, n


def test_cycle_counts_take_rows_in_blocks(monkeypatch):
    """Block sizes that split the rows unevenly, or into one row each,
    count the same cycles as one block."""
    table = perm_table(5)
    whole = cycle_counts(table)
    for rows in (1, 7, 119, 120, 121):
        monkeypatch.setattr(perm, "CYCLE_BLOCK_ROWS", rows)
        assert cycle_counts(table).tolist() == whole.tolist(), rows


def test_corollary_peak_memory_is_bounded():
    """t = 3 composes 25 920 rows as uint8 images, whose cycle counts are
    taken in blocks: the check's traced peak stays below 1 MiB."""
    verify_cycle_bound_corollary(3)    # tables built once per process
    peak = traced_peak(verify_cycle_bound_corollary, 3)
    assert peak < 2 ** 20, peak


def test_corollary_composes_beta_after_alpha_inverse(monkeypatch):
    seen = []

    def spy(images):
        seen.append(images.tolist())
        return cycle_counts(images)

    monkeypatch.setattr(perm, "cycle_counts", spy)
    for t in range(1, MAX_COROLLARY_2T // 2 + 1):
        seen.clear()
        verify_cycle_bound_corollary(t)
        composed = [list(compose(beta, invert(alpha)))
                    for alpha in iter_tuples(2 * t) for beta in loop_parity_swappers(t)]
        assert composed in seen, t


def test_counterexamples_match_the_tuple_route(monkeypatch):
    """With one cycle too many counted everywhere, both lemmas fail often;
    the kernels must list the same counterexamples as the tuple route with
    the same miscount, in the same order and the same JSON form."""
    counts = perm.cycle_counts
    monkeypatch.setattr(perm, "cycle_counts", lambda images: counts(images) + 1)

    def miscount(images):
        return num_cycles(images) + 1

    for n in range(1, MAX_LEMMA_DEGREE + 1):
        expected = [[x + 1 for x in sigma] for sigma in iter_tuples(n)
                    if sum(sigma[x] == x for x in range(n)) < 2 * miscount(sigma) - n]
        report = verify_fixed_point_lemma(n)
        assert expected and report["checked_count"] == factorial(n)
        assert canonical_json_bytes(report["counterexamples"]) == canonical_json_bytes(expected)
    for t in range(1, MAX_COROLLARY_2T // 2 + 1):
        expected = [{"alpha": [x + 1 for x in alpha], "beta": [x + 1 for x in beta]}
                    for alpha in iter_tuples(2 * t) for beta in loop_parity_swappers(t)
                    if miscount(alpha) + miscount(compose(beta, invert(alpha))) > 3 * t]
        report = verify_cycle_bound_corollary(t)
        assert expected and report["checked_count"] == factorial(2 * t) * factorial(t) ** 2
        assert canonical_json_bytes(report["counterexamples"]) == canonical_json_bytes(expected)
