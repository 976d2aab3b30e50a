import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import (FqPoly, IdentityTampering, _difference_roots, dense_overlaps,
                      difference_poly, fq_roots, pauli_matrix, per_shift_blocks, phase_sum,
                      tag_poly, tag_table, tamper_experiment, traced_peak,
                      wrong_decode_prob_exact)

from qtamper import qamd
from qtamper.errors import ConsistencyError, InvalidParams, OutOfRange
from qtamper.field import fq_values
from qtamper.haar import child_generator
from qtamper.pauli import PauliLabel, kron_digits, omega_powers
from qtamper.qamd import QamdParams, encode, security_scan
from qtamper.reports import canonical_json_bytes

P51 = QamdParams(q=5, d=1)
P71 = QamdParams(q=7, d=1)
P32 = QamdParams(q=3, d=2)
P23 = QamdParams(q=2, d=3)
QUOTIENT_FIELDS = ("quotient_cells", "root_count_total", "max_parseval_gap", "dense_sample_cells")


def test_params_validation():
    with pytest.raises(InvalidParams):
        QamdParams(q=4, d=1)          # not prime
    with pytest.raises(InvalidParams):
        QamdParams(q=5, d=3)          # d+2 divisible by q
    with pytest.raises(InvalidParams):
        QamdParams(q=7, d=3)          # 7^5 > 4096
    with pytest.raises(InvalidParams):
        QamdParams(q=5, d=0)
    assert P71.dim == 343 and P71.num_messages == 7
    assert P32.dim == 81 and P32.num_messages == 9


def test_tag_polynomial():
    poly = tag_poly(P51, (2,))
    assert poly.coeffs == (0, 2, 0, 1)        # 2r + r^3
    assert poly(3) == (2 * 3 + 27) % 5
    # the scan's coefficient table and its values, one row per message
    coeffs = qamd._tag_coeffs(P32, P32.messages())
    for row, values, s in zip(coeffs, fq_values(coeffs, 3), P32.messages()):
        assert tuple(row) == (0, *s, 0, 1)
        assert values.tolist() == tag_table(P32, s)


def test_encode_support_and_normalization():
    for params in (P51, P32):
        q, d = params.q, params.d
        for s in params.messages():
            cw = encode(s, params)
            support = set(np.nonzero(cw)[0].tolist())
            tags = [(sum(v * r ** (i + 1) for i, v in enumerate(s)) + r ** (d + 2)) % q
                    for r in range(q)]
            expected = {int(np.ravel_multi_index(s + (r, tags[r]), (q,) * (d + 2)))
                        for r in range(q)}
            assert support == expected
            amps = cw[sorted(support)]
            assert np.allclose(amps, 1 / np.sqrt(q))
            assert abs(np.linalg.norm(cw) - 1.0) < 1e-12


def test_encode_orthogonality():
    for params in (P51, P32):
        messages = params.messages()
        for a in messages[:3]:
            for b in messages[:3]:
                ip = np.vdot(encode(a, params), encode(b, params))
                if a == b:
                    assert abs(ip - 1) < 1e-12
                else:
                    assert ip == 0  # disjoint message-register support


def test_encode_rejects_wrong_length():
    with pytest.raises(InvalidParams):
        encode((0, 0), P51)


def test_identity_tampering_rejected():
    with pytest.raises(IdentityTampering):
        wrong_decode_prob_exact((0,), None, (0, 0, 0), (0, 0, 0), P51)
    with pytest.raises(IdentityTampering):
        tamper_experiment((0,), (0, 0, 0), (0, 0, 0), P51)


def test_phase_only_tampering_cannot_move_message():
    for z in [(1, 0, 0), (0, 3, 0), (2, 1, 4), (0, 0, 1)]:
        for s_prime in [(1,), (2,), (4,)]:
            p = wrong_decode_prob_exact((0,), s_prime, (0, 0, 0), z, P51)
            assert p == 0.0
        assert wrong_decode_prob_exact((0,), None, (0, 0, 0), z, P51) == 0.0


def test_theorem_bound_all_words_one_message():
    bound = (2 / 5) ** 2
    s = (1,)
    grid = range(5)
    for x1 in grid:
        for x2 in grid:
            for x3 in grid:
                for z1 in grid:
                    x = (x1, x2, x3)
                    z = (z1, 0, 3)
                    if not any(x) and not any(z):
                        continue
                    agg = wrong_decode_prob_exact(s, None, x, z, P51)
                    assert agg <= bound + 1e-12


def _random_cells(params, count, seed):
    rng = child_generator(seed, 0)
    cells = []
    while len(cells) < count:
        xz = rng.integers(0, params.q, size=2 * params.block_length)
        if not xz.any():
            continue
        s = tuple(int(v) for v in rng.integers(0, params.q, size=params.d))
        cells.append((s, tuple(int(v) for v in xz[:params.block_length]),
                      tuple(int(v) for v in xz[params.block_length:])))
    return cells


@pytest.mark.parametrize("params", [P51, P71, P32], ids=["q5d1", "q7d1", "q3d2"])
def test_symbolic_matches_dense_oracle(params):
    """1e3 random instances per parameter set against the dense
    state-vector oracle built from pauli_matrix and np.vdot."""
    for s, x, z in _random_cells(params, 1000, seed=params.q * 100 + params.d):
        sym = wrong_decode_prob_exact(s, None, x, z, params)
        word = pauli_matrix(PauliLabel(q=params.q, x=x, z=z))
        tampered = word @ encode(s, params)
        dense = sum(
            abs(np.vdot(encode(m, params), tampered)) ** 2
            for m in params.messages() if m != s
        )
        assert abs(sym - dense) <= 1e-9, (s, x, z)


def test_dense_overlap_helper_matches_pauli_matrix_route():
    for s, x, z in _random_cells(P32, 50, seed=5):
        word = pauli_matrix(PauliLabel(q=3, x=x, z=z))
        tampered = word @ encode(s, P32)
        fast = dense_overlaps(s, x, z, P32)
        for m in P32.messages():
            direct = np.vdot(encode(m, P32), tampered)
            assert abs(fast[m] - direct) <= 1e-12


def test_no_tamper_correctness():
    # decoding an untampered codeword recovers the message with certainty
    for params in (P51, P32):
        for s in params.messages()[:4]:
            state = encode(s, params)
            assert abs(abs(np.vdot(encode(s, params), state)) ** 2 - 1.0) <= 1e-12


def test_tamper_experiment_distribution():
    for s, x, z in _random_cells(P71, 200, seed=9):
        dist = tamper_experiment(s, x, z, P71)
        total = sum(dist["probabilities"].values()) + dist["reject"]
        assert abs(total - 1.0) <= 1e-9
        target = tuple((s[i] + x[i]) % 7 for i in range(1))
        for m, p in dist["probabilities"].items():
            if m != target:
                assert p == 0.0
        if target != s:
            assert dist["probabilities"][s] == 0.0
        # per-outcome agreement with the dense measurement probabilities
        over = dense_overlaps(s, x, z, P71)
        for m, p in dist["probabilities"].items():
            assert abs(p - abs(over[m]) ** 2) <= 1e-9


def test_tamper_experiment_phase_only():
    dist = tamper_experiment((2,), (0, 0, 0), (0, 1, 3), P51)
    assert abs(dist["probabilities"][(2,)] + dist["reject"] - 1.0) <= 1e-12
    assert all(p == 0.0 for m, p in dist["probabilities"].items() if m != (2,))


def test_difference_polynomial_degree_window():
    # test-local reconstruction of the root-counting argument
    q, d = P51.q, P51.d
    for s0 in range(q):
        s = (s0,)
        for x1 in range(1, q):            # message shift forced nonzero
            for x2 in range(q):
                for x3 in range(q):
                    x = (x1, x2, x3)
                    g = difference_poly(P51, s, x)
                    assert 1 <= g.degree <= d + 1
                    assert len(fq_roots(g)) <= d + 1


def test_security_scan_exhaustive_q5():
    report = security_scan(P51, exhaustive=True, cross_check=True)
    assert report["bound_satisfied"]
    assert report["max_prob"] <= 0.16 + 1e-12
    assert report["pairs_checked"] == (5 ** 6 - 1) * 5
    assert report["max_dense_mismatch"] <= 1e-9
    # witness re-evaluated standalone reproduces the reported probability
    w = report["witness"]
    again = wrong_decode_prob_exact(tuple(w["s"]), None, tuple(w["x"]),
                                    tuple(w["z"]), P51)
    assert again == report["max_prob"]


def test_security_scan_random_mode_deterministic():
    rep1 = security_scan(P51, exhaustive=False, trials=300, seed=12, cross_check=True)
    rep2 = security_scan(P51, exhaustive=False, trials=300, seed=12, cross_check=True)
    assert rep1 == rep2
    assert rep1["bound_satisfied"]
    assert rep1["pairs_checked"] == 300
    rep3 = security_scan(P51, exhaustive=False, trials=300, seed=13, cross_check=False)
    assert rep3["max_dense_mismatch"] is None


def test_security_scan_budget():
    # no cell budget: exhaustive (7, 2), 2.8e8 full cells, runs and reaches 9/49
    report = security_scan(QamdParams(q=7, d=2), exhaustive=True)
    assert report["max_root_count"] == 3 and report["bound_exact"] == Fraction(9, 49)
    assert abs(report["max_prob"] - 9 / 49) <= 1e-15
    with pytest.raises(OutOfRange):
        security_scan(P51, exhaustive=False, trials=0)


def _reference_scan(params, exhaustive=True, trials=None, seed=0, cross_check=True):
    """security_scan one cell at a time: every (x, z) word gets its own
    phase sums, global phase included, and its own dense GEMM with the
    word's `PauliLabel.action()`; random cells take their quotient cell's
    sum and use dense_overlaps.  Ties go to the smallest (s, x, z).  The
    fields the quotient scan adds are left null.

    Independent route for the batched scan, which must match it byte for
    byte.  Returns the report and, for an exhaustive cross-checked scan,
    the per-cell dense probabilities indexed [x rank, z rank, s rank].
    """
    q, d = params.q, params.d
    messages = params.messages()
    best_prob, best_key, checked, max_mismatch, max_roots = -1.0, None, 0, 0.0, 0
    dense_cells = None

    def consider(p, key):
        nonlocal best_prob, best_key
        if p > best_prob or (p == best_prob and key < best_key):
            best_prob, best_key = p, key

    if exhaustive:
        grid = [tuple(int(v) for v in row) for row in kron_digits(q, d + 2)]
        psi = np.column_stack([encode(m, params) for m in messages])
        w_table = omega_powers(q)
        if cross_check:
            dense_cells = np.zeros((len(grid), len(grid), len(messages)))
        for xi, x in enumerate(grid):
            per_s = [(_difference_roots(params, m, x), tag_table(params, m))
                     if any(x[:d]) else None for m in messages]
            max_roots = max([max_roots] + [len(v[0]) for v in per_s if v is not None])
            for zi, z in enumerate(grid):
                if not any(x) and not any(z):
                    continue
                sym = np.zeros(len(messages))
                for mi, m in enumerate(messages):
                    if per_s[mi] is None:
                        continue
                    roots, tags = per_s[mi]
                    base = sum(z[i] * m[i] for i in range(d)) % q
                    amp = 0j
                    for r in roots:
                        amp += w_table[(base + z[d] * r + z[d + 1] * tags[r]) % q]
                    sym[mi] = abs(amp / q) ** 2
                checked += len(messages)
                if cross_check:
                    rows, phase = PauliLabel(q, x, z).action()
                    tampered = np.zeros_like(psi)
                    tampered[rows, :] = phase[:, None] * psi
                    overlaps = psi.conj().T @ tampered
                    dense = (np.sum(np.abs(overlaps) ** 2, axis=0)
                             - np.abs(np.diagonal(overlaps)) ** 2)
                    dense_cells[xi, zi] = dense
                    mismatch = float(np.max(np.abs(sym - dense)))
                    max_mismatch = max(max_mismatch, mismatch)
                    assert mismatch <= 1e-9, (x, z)
                for mi, m in enumerate(messages):
                    consider(float(sym[mi]), (m, x, z))
    else:
        for s, x, z in _random_cells(params, trials, seed):
            p = wrong_decode_prob_exact(s, None, x, z, params)
            if any(x[:d]):
                max_roots = max(max_roots, len(_difference_roots(params, s, x)))
            checked += 1
            if cross_check:
                over = dense_overlaps(s, x, z, params)
                dense = sum(abs(a) ** 2 for m, a in over.items() if m != s)
                max_mismatch = max(max_mismatch, abs(p - dense))
                assert abs(p - dense) <= 1e-9, (s, x, z)
            consider(p, (s, x, z))

    witness_s, witness_x, witness_z = best_key
    report = {
        "mode": "exhaustive" if exhaustive else "random",
        "params": {"q": q, "d": d},
        "bound": ((d + 1) / q) ** 2,
        "bound_exact": Fraction((d + 1) ** 2, q ** 2),
        "max_prob": best_prob,
        "max_root_count": max_roots,
        "witness": {"s": list(witness_s), "x": list(witness_x), "z": list(witness_z)},
        "pairs_checked": checked,
        "dense_cross_check": bool(cross_check),
        "max_dense_mismatch": max_mismatch if cross_check else None,
        "bound_satisfied": max_roots <= d + 1,
        **dict.fromkeys(QUOTIENT_FIELDS),
    }
    return report, dense_cells


# at (2, 1) one draw in 64 is a zero (x, z) that the scan redraws; with 20000
# trials the first window holds 2^14 draws, and the zero (x, z) of seed 90
# ends on its last digit while that of seed 256 crosses its end
WINDOW_EDGE_SEEDS = {90: "ends", 256: "crosses"}


def _zero_draw_at_window_end(params, trials, seed):
    """How a zero (x, z) meets the end of the first draw window: "ends" on
    its last digit, "crosses" it, or None, walked one call per draw."""
    q, n, d = params.q, params.block_length, params.d
    rng, end, at, drawn = child_generator(seed, 0), qamd.DRAW_WINDOW * (2 * n + d), 0, 0
    while drawn < trials and at < end:
        if rng.integers(0, q, size=2 * n).any():
            rng.integers(0, q, size=d)
            at, drawn = at + 2 * n + d, drawn + 1
        elif at + 2 * n >= end:
            return "ends" if at + 2 * n == end else "crosses"
        else:
            at += 2 * n
    return None


@pytest.mark.parametrize("params,trials,seeds,window", [
    (QamdParams(q=2, d=1), 20000, (1, 2, 3), None),
    (QamdParams(q=2, d=1), 20000, tuple(WINDOW_EDGE_SEEDS), None),
    (QamdParams(q=2, d=1), 2000, (11,), 1),
    (P32, 3000, (5,), None),
    (QamdParams(q=5, d=2), 3000, (7,), None),
], ids=["q2d1", "q2d1-window-edge", "q2d1-window-of-one", "q3d2", "q5d2"])
def test_block_draw_matches_one_cell_loop(monkeypatch, params, trials, seeds, window):
    # a window of one draw puts a boundary inside nearly every redraw
    if window is not None:
        monkeypatch.setattr(qamd, "DRAW_WINDOW", window)
    digits, messages = kron_digits(params.q, params.block_length), params.messages()
    for seed in seeds:
        if window is None and seed in WINDOW_EDGE_SEEDS:
            assert _zero_draw_at_window_end(params, trials, seed) == WINDOW_EDGE_SEEDS[seed]
        cells = [(messages[ps[g]], tuple(int(v) for v in digits[px[g]]),
                  tuple(int(v) for v in digits[zi]))
                 for px, ps, at, cz in qamd._sampled_blocks(params, trials, seed)
                 for g, zi in zip(at[:, 0], cz[:, 0])]
        assert sorted(cells) == sorted(_random_cells(params, trials, seed))
        report = security_scan(params, exhaustive=False, trials=trials, seed=seed,
                               cross_check=False)
        assert report["pairs_checked"] == trials


@pytest.mark.parametrize("cross_check", [True, False], ids=["dense", "symbolic"])
@pytest.mark.parametrize("params", [P51, P32], ids=["q5d1", "q3d2"])
def test_exhaustive_scan_bytes_match_reference(params, cross_check):
    fast = security_scan(params, exhaustive=True, cross_check=cross_check)
    slow, dense_cells = _reference_scan(params, exhaustive=True, cross_check=cross_check)
    # the support-sum kernel sums in another order than the per-word GEMM,
    # so the worst gap moves in the last bits, and the reference has no
    # quotient cells: every other field must match
    skip = {"max_dense_mismatch", *QUOTIENT_FIELDS}
    assert (canonical_json_bytes({k: v for k, v in fast.items() if k not in skip})
            == canonical_json_bytes({k: v for k, v in slow.items() if k not in skip}))
    if cross_check:
        assert fast["max_dense_mismatch"] <= qamd.DENSE_MATCH_TOL
        # the support-sum kernel, cell by cell, against the per-word GEMM
        dense = _dense_kernel(params)
        clocks = np.arange(params.dim)[np.newaxis]
        for xi in range(params.dim):
            for mi in range(params.num_messages):
                np.testing.assert_allclose(_one_pair(dense, xi, mi, clocks),
                                           dense_cells[xi, :, mi], rtol=0, atol=1e-13)


def _dense_kernel(params):
    return qamd._support_sum_route(params, [encode(m, params) for m in params.messages()])


def _one_pair(dense, xi, mi, clocks):
    """The dense kernel's row for shift rank xi and message rank mi against
    the clock ranks `clocks` ((1, n)): a block of one (x, s) pair."""
    return dense(np.array([xi]), np.array([mi]), np.zeros((1, 1), dtype=np.intp), clocks)[0]


@pytest.mark.parametrize("params,trials,seed", [(P71, 400, 21), (QamdParams(q=5, d=2), 100, 21),
                                                (QamdParams(q=2, d=1), 500, 21),
                                                (QamdParams(q=5, d=2), 1, 1),
                                                (QamdParams(q=5, d=2), 1, 8)],
                         ids=["q7d1", "q5d2", "q2d1", "q5d2-one-cell", "q5d2-root-order"])
def test_random_scan_bytes_match_reference(params, trials, seed):
    # q2d1 has 126 cells, so 500 draws repeat cells: each must count; the
    # one cell of q5d2-one-cell has 1 root where its shift's other messages
    # have up to 3, so max_root_count must count the scanned groups only;
    # the one cell of q5d2-root-order has 3 roots whose phases, summed in
    # descending r, change max_prob in its last bit
    fast = security_scan(params, exhaustive=False, trials=trials, seed=seed)
    slow, _ = _reference_scan(params, exhaustive=False, trials=trials, seed=seed)
    # the support-sum kernel sums in another order than dense_overlaps,
    # so the worst gap moves in the last bits: every other field must match
    skip = {"max_dense_mismatch"}
    assert (canonical_json_bytes({k: v for k, v in fast.items() if k not in skip})
            == canonical_json_bytes({k: v for k, v in slow.items() if k not in skip}))
    assert fast["max_dense_mismatch"] <= qamd.DENSE_MATCH_TOL
    # the support-sum kernel, cell by cell, against the one-word dense route
    dense = _dense_kernel(params)
    for s, x, z in _random_cells(params, trials, seed=seed):
        mi = params.messages().index(s)
        over = dense_overlaps(s, x, z, params)
        expected = sum(abs(a) ** 2 for m, a in over.items() if m != s)
        got = _one_pair(dense, params.state_index(x), mi, np.array([[params.state_index(z)]]))
        np.testing.assert_allclose(got, [expected], rtol=0, atol=1e-13)


@pytest.mark.parametrize("params,trials,seeds", [
    (QamdParams(q=2, d=1), 20000, tuple(WINDOW_EDGE_SEEDS)),
    (QamdParams(q=5, d=2), 3000, (7,)),
    (P71, 5000, (1,)),
], ids=["q2d1", "q5d2", "q7d1"])
def test_random_scan_does_not_depend_on_the_window(monkeypatch, params, trials, seeds):
    # windows of one cell, of a prime count of entries (whose cell count
    # q divides into no power of two) and of the default: every field,
    # max_dense_mismatch included, keeps its bytes
    default = qamd.SCAN_WINDOW
    for seed in seeds:
        if seed in WINDOW_EDGE_SEEDS:
            assert _zero_draw_at_window_end(params, trials, seed) == WINDOW_EDGE_SEEDS[seed]
        reports = []
        for window in (default, 1, 31):
            monkeypatch.setattr(qamd, "SCAN_WINDOW", window)
            reports.append(canonical_json_bytes(
                security_scan(params, exhaustive=False, trials=trials, seed=seed)))
        assert reports[1] == reports[0] and reports[2] == reports[0], seed


def test_witness_in_a_later_window_than_the_first_maximum(monkeypatch):
    # five cells of (7, 1), 400 trials, seed 42 reach the maximum: in key order
    # (x, s, z) the first is at position 79, the smallest (s, x, z) at 129,
    # so windows of 100 cells find the witness one window later
    params, trials, seed, cells_per_window = P71, 400, 42, 100
    cells = sorted(_random_cells(params, trials, seed), key=lambda c: (c[1], c[0], c[2]))
    probs = [wrong_decode_prob_exact(s, None, x, z, params) for s, x, z in cells]
    hits = [i for i, p in enumerate(probs) if p == max(probs)]
    witness = min(hits, key=lambda i: cells[i])
    assert hits[0] // cells_per_window < witness // cells_per_window
    monkeypatch.setattr(qamd, "SCAN_WINDOW", cells_per_window * params.q)
    fast = security_scan(params, exhaustive=False, trials=trials, seed=seed)
    slow, _ = _reference_scan(params, exhaustive=False, trials=trials, seed=seed)
    skip = {"max_dense_mismatch"}     # summed in another order by the reference
    assert (canonical_json_bytes({k: v for k, v in fast.items() if k not in skip})
            == canonical_json_bytes({k: v for k, v in slow.items() if k not in skip}))
    s, x, z = cells[witness]
    assert fast["witness"] == {"s": list(s), "x": list(x), "z": list(z)}


@pytest.mark.parametrize("params", [P51, P32, P71, P23], ids=["q5d1", "q3d2", "q7d1", "q2d3"])
def test_exhaustive_windows_match_the_per_shift_oracle(monkeypatch, params):
    # every full cell, one block per shift, with the dense route, gives the
    # quotient scan's maximum, witness and root count; windows of one shift
    # (1 and 31 cells, below one shift's M q^2), and one window larger than
    # the whole scan, keep every byte of the default windows' report
    prob, key, mismatch, roots = qamd._scan(params, per_shift_blocks(params), True)[:4]
    assert mismatch <= 1e-12
    report = security_scan(params, exhaustive=True)
    s, x, z = key
    assert report["max_prob"] == prob and report["max_root_count"] == roots
    assert report["witness"] == {"s": list(s), "x": list(x), "z": list(z)}
    for window in (1, 31, params.num_messages * params.dim ** 2):
        monkeypatch.setattr(qamd, "SCAN_WINDOW", window)
        assert (canonical_json_bytes(security_scan(params, exhaustive=True))
                == canonical_json_bytes(report)), window


def test_exhaustive_witness_in_a_later_shift_of_its_window():
    # at (7, 1) the first cell at the maximum in (x, s, z) order lies in
    # shift 56 with s = 1, the smallest (s, x, z) key in shift 57 with s = 0,
    # and one default window holds both shifts: the least s must be taken
    # across the shifts of one block
    params, q2 = P71, P71.q ** 2
    width = max(1, qamd.SCAN_WINDOW // (params.num_messages * q2))
    per_shift = [qamd._scan(params, [block], False)[:2] for block in per_shift_blocks(params)]
    top = max(p for p, _ in per_shift)
    hits = [(xi, key) for xi, (p, key) in enumerate(per_shift) if p == top]
    (first, first_key), (shift, witness) = hits[0], min(hits, key=lambda hit: hit[1])
    assert first != shift and (first - q2) // width == (shift - q2) // width
    assert first_key[0] > witness[0]
    report = security_scan(params, exhaustive=True, cross_check=False)
    s, x, z = witness
    assert report["witness"] == {"s": list(s), "x": list(x), "z": list(z)}


def test_exhaustive_scan_hands_over_whole_windows(monkeypatch):
    # (7, 1) has M q^2 = 343 quotient cells a shift, so a default window
    # holds 47 shifts: the 294 shifts with x_{1:d} != 0 take 7 windows, and
    # every full window hands over the same (ps, at, cz)
    blocks, true_scan = [], qamd._scan

    def scan(params, scan_blocks, *args):
        return true_scan(params, (blocks.append(b) or b for b in scan_blocks), *args)

    monkeypatch.setattr(qamd, "_scan", scan)
    report = security_scan(P71, exhaustive=True, cross_check=False)
    assert len(blocks) == -(-294 // 47) == 7
    assert sum(len(at) * cz.shape[1] for _, _, at, cz in blocks) == report["quotient_cells"]
    assert all(b[1] is blocks[0][1] and b[2] is blocks[0][2] and b[3] is blocks[0][3]
               for b in blocks[:-1])


def test_random_scan_holds_no_message_by_dimension_table():
    # at (2, 9) an (M, dim) table has 2^20 entries: 8.4 MB of int64 for
    # <z_{1:d}, s>, 16.8 MB of complex for the dense codeword matrix
    peak = traced_peak(security_scan, QamdParams(q=2, d=9), False, 2000, 5)
    assert peak < 4 * 2 ** 20


def test_witness_is_the_smallest_key_at_the_maximum():
    # at q = 7 the maximum is reached at cells whose (s, z) and (z, s)
    # orders disagree, so this pins the tie-break of the batched scan
    report = security_scan(P71, exhaustive=True, cross_check=False)
    w = report["witness"]
    key = (tuple(w["s"]), tuple(w["x"]), tuple(w["z"]))
    assert key == ((0,), (1, 1, 1), (0, 5, 3))     # as the explicit-rank scan found it
    assert wrong_decode_prob_exact(key[0], None, *key[1:], P71) == report["max_prob"]
    grid = [tuple(int(v) for v in row) for row in kron_digits(7, 3)]
    for x in grid[1:grid.index(key[1]) + 1]:
        for z in grid:
            if (x, z) < key[1:]:
                assert wrong_decode_prob_exact((0,), None, x, z, P71) < report["max_prob"]


def test_array_square_matches_scalar_power_for_every_amplitude():
    # the batched scan squares moduli as arrays (v * v) where the per-cell
    # route takes the scalar power (libm pow, not always correctly rounded);
    # enumerate every root-of-unity sum of at most d+1 terms that a valid
    # (q, d) can produce and require the two squares to agree bit for bit
    for q in (2, 3, 5, 7, 11, 13):
        max_roots = 0
        for d in range(1, 12):
            try:
                QamdParams(q=q, d=d)
            except InvalidParams:
                continue
            max_roots = d + 1
        w_table = np.exp(2j * np.pi / q) ** np.arange(q)
        for count in range(1, max_roots + 1):
            for exponents in itertools.product(range(q), repeat=count):
                amp = 0j
                for e in exponents:
                    amp += w_table[e]
                modulus = abs(amp / q)
                assert modulus ** 2 == np.square(np.array([modulus]))[0], (q, exponents)


def test_key_probabilities_match_the_per_cell_phase_sum():
    # every ordered exponent tuple a cell's root phases can have, for every
    # admissible (q, d): the table entry has the bits of the per-cell route,
    # which adds the phases in ascending r from 0j and takes abs(sum / q) ** 2
    for q in (2, 3, 5, 7, 11, 13):
        max_roots = max(d + 1 for d in range(1, 12) if _admissible(q, d))
        width = min(q, max_roots)
        table, w_table = qamd._key_probabilities(q, width), omega_powers(q)
        for count in range(width + 1):
            for exponents in itertools.product(range(q), repeat=count):
                total = 0j
                for e in exponents:
                    total += w_table[e]
                key = sum((e + 1) * (q + 1) ** k for k, e in enumerate(exponents))
                assert table[key] == abs(total / q) ** 2, (q, exponents)


def test_root_sum_route_follows_the_message_of_one_pair_blocks():
    # blocks of one (x, s) pair against one shared clock row: the tabled
    # exponents must follow each block's message, not only its clock row;
    # (30, 3) and (32, 0) have 3 roots, whose phases summed in descending r
    # change 18 of the 81 probabilities in their last bits
    params = P32
    symbolic, clocks = qamd._root_sum_route(params), np.arange(params.dim)[np.newaxis]
    grid = [tuple(int(v) for v in row) for row in kron_digits(params.q, params.block_length)]
    for xi, mi in ((30, 3), (30, 4), (32, 0), (40, 8), (80, 2), (80, 0)):
        sym, _ = symbolic(np.array([xi]), np.array([mi]), np.zeros((1, 1), dtype=np.intp), clocks)
        s = params.messages()[mi]
        assert sym[0].tolist() == [wrong_decode_prob_exact(s, None, grid[xi], z, params)
                                   for z in grid], (xi, mi)


def _admissible(q, d):
    try:
        QamdParams(q=q, d=d)
    except InvalidParams:
        return False
    return True


@pytest.mark.parametrize("kwargs", [{"exhaustive": True}, {"exhaustive": False, "trials": 20}],
                         ids=["exhaustive", "random"])
def test_dense_mismatch_raises_consistency_error(monkeypatch, kwargs):
    monkeypatch.setattr(qamd, "DENSE_MATCH_TOL", -1.0)
    with pytest.raises(ConsistencyError, match="symbolic/dense mismatch"):
        security_scan(P32, **kwargs)


def test_difference_roots_degree_check_is_not_an_assert(monkeypatch):
    # a degenerate difference polynomial must raise even under python -O:
    # a zero shift matrix leaves -f(s, .) - x_{d+2}, of degree d + 2
    monkeypatch.setattr(qamd, "taylor_shifts", lambda n, q: np.zeros((q, n, n), dtype=np.int64))
    coeffs = qamd._tag_coeffs(P51, P51.messages())
    with pytest.raises(ConsistencyError, match="degree 3, outside"):
        qamd._root_masks(P51, coeffs, (1, 0, 0))
    with pytest.raises(ConsistencyError, match="degree"):
        security_scan(P51, exhaustive=False, trials=5, cross_check=False)


@pytest.mark.parametrize("params", [P51, P71, P32, P23], ids=["q5d1", "q7d1", "q3d2", "q2d3"])
def test_root_masks_match_polynomial_oracle(monkeypatch, params):
    # every (s, x) with x_{1:d} != 0: the mask row is the oracle's root set,
    # and the coefficient row _root_masks evaluates has the oracle's degree
    evaluated = []

    def spy(coeffs, q):
        evaluated.append(np.array(coeffs))
        return fq_values(coeffs, q)

    monkeypatch.setattr(qamd, "fq_values", spy)
    d, messages = params.d, params.messages()
    coeffs = qamd._tag_coeffs(params, messages)
    # one call for every pair, each row with its own shift
    pairs = [(mi, tuple(int(v) for v in row))
             for row in kron_digits(params.q, params.block_length) if row[:d].any()
             for mi in range(len(messages))]
    masks = qamd._root_masks(params, coeffs[[mi for mi, _ in pairs]], [x for _, x in pairs])
    diff = evaluated.pop()
    assert masks.shape == (len(pairs), params.q)
    for row, (mi, x) in enumerate(pairs):
        oracle = difference_poly(params, messages[mi], x)
        assert np.flatnonzero(masks[row]).tolist() == _difference_roots(params, messages[mi], x)
        assert FqPoly(diff[row], params.q) == oracle
        assert np.flatnonzero(diff[row])[-1] == oracle.degree


def test_certificate_is_an_integer_root_count():
    # at q = 7 the float maximum lies above the float bound in its last
    # bits; the certificate holds because no root set exceeds d + 1 = 2
    report = security_scan(P71, exhaustive=True, cross_check=False)
    assert report["max_prob"] > report["bound"]
    assert report["max_root_count"] == 2 and report["bound_satisfied"] is True
    assert b'"bound_exact":"4/49"' in canonical_json_bytes(report)
    random = security_scan(P71, exhaustive=False, trials=400, seed=21, cross_check=False)
    assert random["max_root_count"] == 2 and random["bound_satisfied"] is True


def _patch_codeword(monkeypatch, edit):
    """Make encode() hand out message 0's codeword with `edit` applied."""
    true_encode = qamd.encode

    def encode(s, params):
        codeword = true_encode(s, params)
        if not any(s):
            edit(codeword)
        return codeword

    monkeypatch.setattr(qamd, "encode", encode)


@pytest.mark.parametrize("kwargs", [{"exhaustive": True}, {"exhaustive": False, "trials": 200}],
                         ids=["exhaustive", "random"])
def test_perturbed_codeword_entry_fails_cross_check(monkeypatch, kwargs):
    def flip_first_entry(state):
        state[np.flatnonzero(state)[0]] *= -1
    _patch_codeword(monkeypatch, flip_first_entry)
    with pytest.raises(ConsistencyError, match="symbolic/dense mismatch"):
        security_scan(P51, **kwargs)


@pytest.mark.parametrize("kwargs", [{"exhaustive": True}, {"exhaustive": False, "trials": 200}],
                         ids=["exhaustive", "random"])
def test_codeword_leaking_into_another_support_fails_cross_check(monkeypatch, kwargs):
    # message 0's entry at r = 0 moves onto (1, 0, f(1, 0)), a support entry
    # of codeword 1: every support keeps q entries, and under some shifts
    # message 0 reaches two codewords, which only a sum over every
    # receiving column sees
    leak = P51.state_index((1, 0, 0))

    def move_first_entry(state):
        first = np.flatnonzero(state)[0]
        state[leak], state[first] = state[first], 0
    _patch_codeword(monkeypatch, move_first_entry)
    with pytest.raises(ConsistencyError, match="symbolic/dense mismatch"):
        security_scan(P51, **kwargs)
    psi = np.column_stack([qamd.encode(m, P51) for m in P51.messages()])
    dense = qamd._support_sum_route(P51, psi.T)
    clocks, two_receivers = np.arange(P51.dim)[np.newaxis], 0
    for xi, row in enumerate(kron_digits(P51.q, P51.block_length)):
        perm, _ = PauliLabel(P51.q, row, (0,) * P51.block_length).action()
        receivers = {int(s) for s in np.flatnonzero(psi[perm[np.flatnonzero(psi[:, 0])]].any(axis=0))}
        if len(receivers - {0}) < 2:
            continue
        two_receivers += 1
        expected = []
        for z in kron_digits(P51.q, P51.block_length):
            rows, phase = PauliLabel(P51.q, row, z).action()
            tampered = np.zeros(P51.dim, dtype=np.complex128)
            tampered[rows] = phase * psi[:, 0]
            expected.append(sum(abs(np.vdot(psi[:, m], tampered)) ** 2 for m in range(1, P51.num_messages)))
        np.testing.assert_allclose(_one_pair(dense, xi, 0, clocks), expected, rtol=0, atol=1e-13)
    assert two_receivers > 0


@pytest.mark.parametrize("edit", [
    lambda state: state.__setitem__(np.flatnonzero(state)[0], 0),
    lambda state: state.__setitem__(np.flatnonzero(state == 0)[0], 1e-3),
], ids=["support-q-minus-1", "support-q-plus-1"])
def test_codeword_support_other_than_q_raises(monkeypatch, edit):
    _patch_codeword(monkeypatch, edit)
    with pytest.raises(ConsistencyError, match="codeword support"):
        security_scan(P51, exhaustive=True)


def _patch_roots(monkeypatch, edit):
    """Pass every root set the scan reads, as a list, through `edit`."""
    true_masks = qamd._root_masks

    def masks(params, coeffs, x):
        edited = np.zeros((len(coeffs), params.q), dtype=bool)
        for mi, row in enumerate(true_masks(params, coeffs, x)):
            edited[mi, edit(params, np.flatnonzero(row).tolist())] = True
        return edited

    monkeypatch.setattr(qamd, "_root_masks", masks)


def _one_more_root(params, roots):
    return roots + [next(r for r in range(params.q) if r not in roots)]


@pytest.mark.parametrize("kwargs", [{"exhaustive": True}, {"exhaustive": False, "trials": 200}],
                         ids=["exhaustive", "random"])
@pytest.mark.parametrize("edit", [lambda params, roots: roots[1:], _one_more_root],
                         ids=["root-dropped", "root-added"])
def test_miscounted_root_set_fails_cross_check(monkeypatch, kwargs, edit):
    _patch_roots(monkeypatch, edit)
    with pytest.raises(ConsistencyError, match="symbolic/dense mismatch"):
        security_scan(P51, **kwargs)


@pytest.mark.parametrize("kwargs", [{"exhaustive": True}, {"exhaustive": False, "trials": 200}],
                         ids=["exhaustive", "random"])
def test_overcounted_root_set_fails_certificate(monkeypatch, kwargs):
    # in exhaustive mode the root-count identity sees the extra roots first
    _patch_roots(monkeypatch, _one_more_root)
    if kwargs["exhaustive"]:
        with pytest.raises(ConsistencyError, match="root sets hold"):
            security_scan(P51, cross_check=False, **kwargs)
    else:
        report = security_scan(P51, cross_check=False, **kwargs)
        assert report["max_root_count"] == 3 and report["bound_satisfied"] is False


def test_dropped_root_fails_the_root_count_identity(monkeypatch):
    # each pair's last root dropped: the quotient cells still meet Parseval
    # (their sums follow the root sets), but the root sets miss M(M-1)q^2
    _patch_roots(monkeypatch, lambda params, roots: roots[:-1])
    with pytest.raises(ConsistencyError, match="root sets hold"):
        security_scan(P32, cross_check=False)


def test_quotient_cells_missing_their_root_count_fail_parseval(monkeypatch):
    # probabilities halved: every root set is right, and every pair with a
    # root misses Parseval
    true_route = qamd._root_sum_route

    def halved(params):
        symbolic = true_route(params)

        def route(*block):
            sym, counts = symbolic(*block)
            return sym / 2, counts

        return route

    monkeypatch.setattr(qamd, "_root_sum_route", halved)
    with pytest.raises(ConsistencyError, match="miss its root count"):
        security_scan(P51, cross_check=False)


def test_quotient_identities_hold_at_every_admissible_code():
    # the root-count identity and Parseval per pair at all 14 admissible
    # codes, with the cross-check: (7, 2) in under 5 s, all in under 30 s
    codes = [(q, d) for q in (2, 3, 5, 7, 11, 13) for d in range(1, 12) if _admissible(q, d)]
    assert len(codes) == 14
    started = time.perf_counter()
    for q, d in codes:
        params, tick = QamdParams(q=q, d=d), time.perf_counter()
        report, m = security_scan(params, exhaustive=True), params.num_messages
        assert report["root_count_total"] == m * (m - 1) * q * q, (q, d)
        assert report["max_parseval_gap"] <= qamd.PARSEVAL_TOL, (q, d)
        assert report["quotient_cells"] == (m - 1) * q ** (d + 4), (q, d)
        assert report["pairs_checked"] == (params.dim ** 2 - 1) * m, (q, d)
        assert report["dense_sample_cells"] == qamd.DENSE_SAMPLE and report["bound_satisfied"]
        if (q, d) == (7, 2):
            assert time.perf_counter() - tick < 5.0
    assert time.perf_counter() - started < 30.0


@pytest.mark.parametrize("params", [P51, P32, P23], ids=["q5d1", "q3d2", "q2d3"])
def test_global_phase_moves_no_full_cell_probability(params):
    # every full cell with x_{1:d} != 0 (the others move no mass off s in
    # either form): the phase sum with the term <z_{1:d}, s>, and the
    # quotient cell's sum without it, give probabilities within 1e-15
    grid = [tuple(int(v) for v in row) for row in kron_digits(params.q, params.block_length)]
    for s in params.messages():
        for x in (x for x in grid if any(x[:params.d])):
            roots = _difference_roots(params, s, x)
            for z in grid:
                full, quotient = (abs(phase_sum(params, s, z, roots, global_phase)) ** 2
                                  for global_phase in (True, False))
                assert abs(full - quotient) <= 1e-15, (s, x, z)


def test_probability_above_root_count_raises(monkeypatch):
    # phases of modulus 2 make an amplitude exceed |roots|/q: the float
    # maximum must agree with the integer certificate
    table = qamd.omega_powers(5) * 2
    monkeypatch.setattr(qamd, "omega_powers", lambda q: table)
    with pytest.raises(ConsistencyError, match="max_root_count"):
        security_scan(P51, exhaustive=True, cross_check=False)
