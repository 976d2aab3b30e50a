import itertools
from math import comb, factorial

import pytest
from conftest import bfs_transposition_distances, count_by_transpositions, fix_move, from_cycles

from qtamper.errors import BudgetExceeded
from qtamper.perm import (Permutation, compose, cycle_type_of, cycles_of, invert, iter_tuples,
                          min_transpositions, num_cycles, parity_swappers, sp_classes,
                          valuation, verify_cycle_bound_corollary, verify_fixed_point_lemma,
                          verify_lemmas)


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
    only = parity_swappers(1)
    assert len(only) == 1 and only[0] == (1, 0)
    assert len(parity_swappers(2)) == 4
    for t in range(1, 5):
        swappers = parity_swappers(t)
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
        assert set(parity_swappers(t)) == brute


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
        assert sp.perms == tuple(perms)
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
