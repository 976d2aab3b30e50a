import tracemalloc

import numpy as np
import pytest
from conftest import (cell_rows, dense_decoder_projectors, dense_member, first_moment_js,
                      first_moment_ss, nonidentity_labels, pauli_matrix, per_member_scan,
                      scan_bytes, traced_peak, write_family_file)

from qtamper import cli, pauli, tamper
from qtamper.errors import ConsistencyError, InvalidParams, OutOfRange
from qtamper.haar import child_generator, sample_haar_unitary
from qtamper.linalg import identity, max_abs, parallel_map, require_unitary
from qtamper.moments import MomentSpec, exact_moment
from qtamper.pauli import MonomialUnitary, PauliLabel, word_actions
from qtamper.reports import cells_csv
from qtamper.tamper import (UnitaryFamily, build_scheme, detect_classical,
                            detect_quantum, detect_weak,
                            family_security_scan, parameter_warnings, pauli_family)


def test_build_scheme_invariants():
    scheme = build_scheme(3, 1, seed=11)
    assert scheme.N == 8 and scheme.K == 2
    v = scheme.isometry
    assert max_abs(v.conj().T @ v - identity(2)) <= 1e-10
    (p0, p1), pi, perp = dense_decoder_projectors(scheme)
    assert max_abs(p0 @ p1) <= 1e-10
    for p in (p0, p1, pi):
        assert max_abs(p @ p - p) <= 1e-10
        assert max_abs(p - p.conj().T) <= 1e-10
    assert np.array_equal(pi + perp, identity(8))
    assert abs(np.trace(perp).real - (8 - 2)) <= 1e-9


def test_build_scheme_deterministic():
    a = build_scheme(4, 2, seed=5)
    b = build_scheme(4, 2, seed=5)
    assert np.array_equal(a.isometry, b.isometry)


def test_build_scheme_bounds():
    with pytest.raises(OutOfRange):
        build_scheme(13, 1, seed=0)
    with pytest.raises(OutOfRange):
        build_scheme(3, 3, seed=0)


def test_detect_classical_no_tampering():
    scheme = build_scheme(3, 1, seed=1)
    probs = detect_classical(scheme, identity(8), 0)
    assert abs(probs["P_same"] - 1) <= 1e-10
    assert abs(probs["P_diff"]) <= 1e-10
    assert abs(probs["P_perp"]) <= 1e-10
    # global phase leaves the codeword fixed as a state
    probs = detect_classical(scheme, np.exp(0.3j) * identity(8), 1)
    assert abs(probs["P_same"] - 1) <= 1e-10


def test_detect_classical_errors():
    scheme = build_scheme(3, 1, seed=1)
    with pytest.raises(OutOfRange):
        detect_classical(scheme, identity(4), 0)
    with pytest.raises(OutOfRange):
        detect_classical(scheme, identity(8), 2)


def test_detect_matches_dense_projector_route():
    scheme = build_scheme(4, 1, seed=21)
    codewords, _, perp = dense_decoder_projectors(scheme)
    u = sample_haar_unitary(16, seed=22)
    for s in range(scheme.K):
        probs = detect_classical(scheme, u, s)
        tampered = u @ codewords[s] @ u.conj().T
        p_same = float(np.trace(codewords[s] @ tampered).real)
        p_diff = sum(
            float(np.trace(codewords[j] @ tampered).real)
            for j in range(scheme.K) if j != s
        )
        p_perp = float(np.trace(perp @ tampered).real)
        assert abs(probs["P_same"] - p_same) <= 1e-10
        assert abs(probs["P_diff"] - p_diff) <= 1e-10
        assert abs(probs["P_perp"] - p_perp) <= 1e-10


def test_probability_conservation_battery():
    scheme = build_scheme(4, 2, seed=31)
    rng = child_generator(32, 0)
    unitaries = [sample_haar_unitary(16, seed) for seed in range(33, 36)]
    digits = rng.integers(0, 2, size=(3, 8))
    unitaries += [
        pauli_matrix(PauliLabel(q=2, x=tuple(int(v) for v in row[:4]),
                                z=tuple(int(v) for v in row[4:])))
        for row in digits
    ]
    for u in unitaries:
        for s in range(scheme.K):
            probs = detect_classical(scheme, u, s)
            total = probs["P_same"] + probs["P_diff"] + probs["P_perp"]
            assert abs(total - 1.0) <= 1e-9
            relaxed = probs["P_same"] + probs["P_perp"]     # original message or reject
            assert relaxed >= probs["P_perp"] - 1e-15
            assert abs(relaxed - (1.0 - probs["P_diff"])) <= 1e-9


def test_detect_quantum_identity_and_basis_reduction():
    scheme = build_scheme(3, 1, seed=41)
    out = detect_quantum(scheme, identity(8), np.array([0.6, 0.8]))
    assert abs(out["P_perp"]) <= 1e-10
    assert abs(out["fidelity_given_pass"] - 1) <= 1e-10

    u = sample_haar_unitary(8, seed=42)
    for s in range(2):
        basis = np.zeros(2, dtype=complex)
        basis[s] = 1.0
        quantum = detect_quantum(scheme, u, basis)
        classical = detect_classical(scheme, u, s)
        assert abs(quantum["P_perp"] - classical["P_perp"]) <= 1e-10


def test_detect_quantum_phase_invariance():
    scheme = build_scheme(3, 1, seed=43)
    u = sample_haar_unitary(8, seed=44)
    amps = np.full(2, 1 / np.sqrt(2))
    a = detect_quantum(scheme, u, amps)
    b = detect_quantum(scheme, np.exp(1.1j) * u, amps)
    assert abs(a["P_perp"] - b["P_perp"]) <= 1e-10
    assert abs(a["fidelity_given_pass"] - b["fidelity_given_pass"]) <= 1e-10


def test_detect_weak_identity_and_k1_reduction():
    scheme = build_scheme(3, 1, seed=51)
    assert abs(detect_weak(scheme, identity(8)) - 1.0) <= 1e-10
    single = build_scheme(3, 0, seed=52)
    u = sample_haar_unitary(8, seed=53)
    psi = single.isometry[:, 0]
    x_ss = abs(np.vdot(psi, u @ psi)) ** 2
    assert abs(detect_weak(single, u) - x_ss) <= 1e-10


def test_detect_weak_double_sum_route():
    scheme = build_scheme(3, 1, seed=54)
    u = sample_haar_unitary(8, seed=55)
    x = detect_weak(scheme, u)
    total = 0.0
    for i in range(scheme.K):
        for j in range(scheme.K):
            total += abs(np.vdot(scheme.isometry[:, i], u @ scheme.isometry[:, j])) ** 2
    assert abs(x - total / scheme.K) <= 1e-9


def test_family_validation():
    eye = identity(8)
    with pytest.raises(InvalidParams):
        UnitaryFamily(members=[("id", eye)], trace_bound_phi=0.5)
    UnitaryFamily(members=[("id", eye)])  # fine without a declared bound
    with pytest.raises(InvalidParams):
        UnitaryFamily(members=[])
    from qtamper.errors import NotUnitary
    with pytest.raises(NotUnitary):
        UnitaryFamily(members=[("bad", eye * 1.01)])


def test_trace_bound_names_the_first_violating_member():
    """Dense members with fixed points inside a run of Pauli words are
    refused, and the message names the first of them.  A word's trace is
    exact: the identity word is refused at every phi below 1 and admitted at
    phi = 1, and words of two lengths may share a family."""
    words = pauli_family(3, 12, seed=62).members
    phased = np.diag(np.full(8, np.exp(0.3j)))                                     # |Tr| = 8
    flip = np.diag(np.array([1, 1, 1, 1, 1, 1, -1, -1], dtype=complex))
    UnitaryFamily(members=words + [("flip", flip)], trace_bound_phi=0.5)          # |Tr| = 4 = N/2
    for phi, first in ((0.0, "flip"), (0.6, "phased")):
        members = words[:5] + [("flip", flip)] + words[5:9] + [("phased", phased),
                                                              ("id", identity(8))] + words[9:]
        with pytest.raises(InvalidParams, match=f"member '{first}' violates"):
            UnitaryFamily(members=members, trace_bound_phi=phi)
    with pytest.raises(InvalidParams, match="member 'id' violates"):
        UnitaryFamily(members=words[:3] + [("id", identity(8))] + words[3:], trace_bound_phi=0.0)
    blank = ("pauli:2:000:000", np.zeros(6, dtype=np.intp))
    for phi in (0.0, 0.5, 1 - 2 ** -52):
        with pytest.raises(InvalidParams, match=r"member 'pauli:2:000:000' violates .*\(8 > "):
            UnitaryFamily(members=words[:4] + [blank] + words[4:], trace_bound_phi=phi)
    UnitaryFamily(members=words + [blank], trace_bound_phi=1.0)
    mixed = UnitaryFamily(members=words + pauli_family(2, 3, seed=62).members, trace_bound_phi=0.0)
    assert mixed.size == 15


def test_pauli_family_matches_its_labels():
    """Labels and members read the stream as `random_nonidentity_words`
    does: the compact text of each drawn label, and its digit row x | z."""
    for n, count, seed in ((1, 3, 63), (4, 30, 64), (7, 200, 65)):
        fam = pauli_family(n, count, seed)
        labels = nonidentity_labels(2, n, count, child_generator(seed, 0))
        assert fam.labels() == [lab.compact() for lab in labels]
        for lab, (_, u) in zip(labels, fam.members):
            assert u.shape == (2 * n,) and u.tolist() == list(lab.x + lab.z)


def test_pauli_family_traceless_and_distinct():
    fam = pauli_family(3, 20, seed=61)
    assert fam.size == 20
    assert fam.trace_bound_phi == 0.0
    assert len(set(fam.labels())) == 20
    for _, u in fam.members:
        assert u.any() and abs(np.trace(dense_member(u))) <= 1e-9


def test_scan_monotone_under_family_growth():
    big = pauli_family(4, 12, seed=71)
    small = UnitaryFamily(members=big.members[:6], trace_bound_phi=0.0)
    seeds = list(range(4))
    rep_small = family_security_scan(4, 1, small, epsilon=0.3, seeds=seeds)
    rep_big = family_security_scan(4, 1, big, epsilon=0.3, seeds=seeds)
    assert rep_big["min_detection_metric"] <= rep_small["min_detection_metric"] + 1e-15
    for small_seed, big_seed in zip(rep_small["per_seed"], rep_big["per_seed"]):
        assert big_seed["detection_metric"] <= small_seed["detection_metric"] + 1e-15


def test_scan_jobs_do_not_change_report(monkeypatch):
    """Equal bytes at jobs 1 and 2 in every mode, at a light size (n = 4),
    whose seeds run in groups on the calling thread, and at n = 12, K = 8,
    where one (seed, member) decode holds FAN_OUT_ENTRIES and the seeds fan
    out, except in quantum mode, whose decode holds N entries."""
    pools = []
    monkeypatch.setattr(tamper, "parallel_map",
                        lambda fn, items, jobs: pools.append(jobs) or parallel_map(fn, items, jobs))
    for n, k, seeds, fanned in ((4, 1, range(6), False), (12, 3, range(3), True)):
        fam = pauli_family(n, 5, seed=81)
        for mode in tamper.MODES:
            pools.clear()
            rep1, rep2 = (family_security_scan(n, k, fam, 0.3, seeds, mode=mode, jobs=jobs)
                          for jobs in (1, 2))
            assert scan_bytes(rep1) == scan_bytes(rep2)
            assert pools == [1, 2 if fanned and mode != "quantum" else 1]


def test_fan_out_tasks_share_one_list_of_blocks(monkeypatch):
    """Seeds that fan out decode one list of blocks, built once before the
    pool starts, so no word's action is built once per seed; a light scan's
    groups build their own blocks as they decode them."""
    built = []

    def building(q, x, z):
        built.append(np.shape(x)[:-1])
        return word_actions(q, x, z)

    monkeypatch.setattr(pauli, "word_actions", building)
    family_security_scan(12, 3, pauli_family(12, 5, seed=82), 0.3, range(3), jobs=2)
    assert built == [(1,)] * 5                 # N K = 2^15 entries: one word a block
    built.clear()
    family_security_scan(10, 1, pauli_family(10, 5, seed=82), 0.3, range(6))
    assert built == [(1,)] * 15                # three groups of two seeds, five blocks each


def test_scan_modes_and_conservation():
    fam = pauli_family(4, 4, seed=91)
    seeds = [0, 1]
    for mode in ("classical", "relaxed", "weak", "quantum"):
        rep = family_security_scan(4, 1, fam, epsilon=0.4, seeds=seeds, mode=mode)
        assert rep["mode"] == mode
        assert 0.0 <= rep["pass_fraction"] <= 1.0
        assert rep["max_conservation_violation"] <= 1e-9
        assert len(cell_rows(rep)) in (len(seeds) * fam.size, len(seeds) * fam.size * 2)


def test_scan_requires_seeds_and_known_mode():
    fam = pauli_family(3, 2, seed=95)
    with pytest.raises(OutOfRange):
        family_security_scan(3, 1, fam, epsilon=0.3, seeds=[])
    with pytest.raises(ValueError):
        family_security_scan(3, 1, fam, epsilon=0.3, seeds=[0], mode="odd")
    with pytest.raises(OutOfRange, match="scheme seeds exceed"):
        family_security_scan(3, 1, fam, epsilon=0.3, seeds=range(tamper.MAX_SEEDS + 1))
    for epsilon in (0.0, -1.0, 1.5, float("nan"), float("inf")):
        with pytest.raises(OutOfRange, match="epsilon"):
            family_security_scan(3, 1, fam, epsilon=epsilon, seeds=[0])


def test_classical_means_match_closed_forms():
    """200 scheme seeds at N = 64: decoder outcome means against the
    exact Haar expectations for a traceless unitary."""
    n, k = 6, 1
    u = pauli_matrix(PauliLabel(q=2, x=(1, 0, 1, 0, 1, 0), z=(0, 1, 0, 0, 1, 1)))
    fam = UnitaryFamily(members=[("w", u)], trace_bound_phi=0.0)
    rep = family_security_scan(n, k, fam, epsilon=0.3, seeds=list(range(200)))
    same = np.array([row["P_same"] for row in cell_rows(rep)])
    diff = np.array([row["P_diff"] for row in cell_rows(rep)])
    e_ss = first_moment_ss(u)
    e_js = first_moment_js(u)
    se_same = same.std() / np.sqrt(len(same))
    se_diff = diff.std() / np.sqrt(len(diff))
    assert abs(same.mean() - e_ss) <= 4 * se_same
    assert abs(diff.mean() - e_js) <= 4 * se_diff  # K - 1 = 1 off-diagonal term
    # relaxed guarantee beats 1 - (K-1) * 2/N on average
    relaxed = 1.0 - diff
    se_rel = relaxed.std() / np.sqrt(len(relaxed))
    assert relaxed.mean() + 4 * se_rel >= 1 - 2 / 64


def test_weak_mean_matches_closed_forms():
    """N = 64, K = 4, traceless unitary, 200 seeds: mean of the weak
    pass weight against (1/K)(K E[X_ss] + K(K-1) E[X_js])."""
    n, k = 6, 2
    u = pauli_matrix(PauliLabel(q=2, x=(0, 1, 1, 0, 0, 1), z=(1, 0, 1, 1, 0, 0)))
    fam = UnitaryFamily(members=[("w", u)], trace_bound_phi=0.0)
    rep = family_security_scan(n, k, fam, epsilon=0.9, seeds=list(range(200)),
                               mode="weak")
    xs = np.array([row["X"] for row in cell_rows(rep)])
    K = 2 ** k
    expected = first_moment_ss(u) + (K - 1) * first_moment_js(u)
    se = xs.std() / np.sqrt(len(xs))
    assert abs(xs.mean() - expected) <= 4 * se
    assert rep["extrema"]["X"]["max"] <= 1.0 + 1e-12


def test_quantum_mean_matches_exact_moment():
    """Uniform superposition message: mean pass weight across seeds
    against the summed exact first moment of the subspace variable."""
    n, k = 6, 1
    fam = pauli_family(6, 5, seed=97)
    rep = family_security_scan(n, k, fam, epsilon=0.3, seeds=list(range(100)),
                               mode="quantum")
    passes = np.array([row["pass_prob"] for row in cell_rows(rep)])
    amps = np.full(2, 1 / np.sqrt(2), dtype=complex)
    exact_by_label = {}
    for label in fam.labels():
        u = MonomialUnitary(*PauliLabel.from_compact(label).action())
        exact_by_label[label] = sum(
            exact_moment(MomentSpec("m", 1, u, K=2, message_amplitudes=amps,
                                    target_index=m))
            for m in range(2)
        )
    expected = np.array([exact_by_label[row["label"]] for row in cell_rows(rep)])
    residual = passes - expected
    se = residual.std() / np.sqrt(len(residual))
    assert abs(residual.mean()) <= 4 * se


def test_parameter_warnings():
    assert parameter_warnings(300, 1, 0.125, 0.0) == []
    warn = parameter_warnings(8, 1, 0.125, 0.5)
    assert any("phi^2" in w for w in warn)
    assert any("asymptotic" in w for w in warn)


@pytest.mark.parametrize("n", [4, 6])
def test_monomial_family_scan_matches_dense_family(n):
    """Monomial members give the same report bytes as dense matrices of
    the same labels, in every mode."""
    fam = pauli_family(n, 6, seed=101)
    dense = UnitaryFamily(
        members=[(label, pauli_matrix(PauliLabel.from_compact(label))) for label in fam.labels()],
        trace_bound_phi=0.0,
    )
    for mode in ("classical", "relaxed", "weak", "quantum"):
        reports = [family_security_scan(n, 2, f, epsilon=0.3, seeds=[3, 4], mode=mode)
                   for f in (fam, dense)]
        assert scan_bytes(reports[0]) == scan_bytes(reports[1])


def test_members_are_validated_once(monkeypatch):
    """Dense members pass `require_unitary` once, when the family is built,
    and no word builds its action before the scan reaches its block."""
    calls, built = [], []

    def counting(u):
        calls.append(1)
        return require_unitary(u)

    def building(q, x, z):
        built.append(np.shape(x)[:-1])
        return word_actions(q, x, z)

    monkeypatch.setattr(tamper, "require_unitary", counting)
    monkeypatch.setattr(pauli, "word_actions", building)
    paulis = pauli_family(4, 3, seed=103)
    fam = UnitaryFamily(members=paulis.members + [("id", identity(16)),
                                                  ("haar", sample_haar_unitary(16, 104))])
    assert len(calls) == 2 and built == []
    for mode in ("classical", "weak", "quantum"):
        built.clear()
        family_security_scan(4, 1, fam, epsilon=0.3, seeds=[0, 1], mode=mode)
        assert built == [(3,)]                    # the run of three words, as one stack
    assert len(calls) == 2


@pytest.mark.parametrize("method", ["__matmul__", "__rmatmul__"])
def test_detect_weak_route_mismatch_raises(monkeypatch, method):
    scheme = build_scheme(4, 1, seed=105)
    u = MonomialUnitary(*PauliLabel(q=2, x=(1, 0, 0, 1), z=(0, 1, 1, 0)).action())
    detect_weak(scheme, u)
    applied = getattr(MonomialUnitary, method)
    # a wrong U @ V breaks the block route only, a wrong V^dag @ U the other
    monkeypatch.setattr(MonomialUnitary, method, lambda self, x: 1.01 * applied(self, x))
    with pytest.raises(ConsistencyError):
        detect_weak(scheme, u)


def test_weak_mode_builds_no_n_by_n_array():
    """n = 12, one seed, two Pauli members: the whole run stays below
    32 MiB of traced allocations, where one N x N complex array is 256 MiB."""
    tracemalloc.start()
    try:
        fam = pauli_family(12, 2, seed=106)
        family_security_scan(12, 1, fam, epsilon=0.5, seeds=[0], mode="weak")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak


def test_pauli_family_holds_digit_rows():
    """The largest admitted family at n = 12 holds 10^4 digit rows and
    labels, traced under 8 MiB, where its members as N-entry actions would
    hold 938 MiB."""
    assert traced_peak(pauli_family, 12, tamper.MAX_FAMILY, 0) < 8 * 2 ** 20


def test_quantum_scan_at_n12_builds_its_words_per_block():
    """A one-seed quantum scan of 256 words at n = 12, the family drawn
    inside the trace: one word's action is 96 KiB, the whole family's 24 MiB,
    and the run stays under 4 MiB traced."""
    def run():
        family_security_scan(12, 1, pauli_family(12, 256, 0), epsilon=0.5, seeds=[0],
                             mode="quantum")

    assert traced_peak(run) < 4 * 2 ** 20


@pytest.mark.parametrize("member, u", [
    (sample_haar_unitary(16, 108),) * 2,
    (np.array([1, 1, 0, 1, 0, 1, 1, 1]),
     MonomialUnitary(*PauliLabel(2, (1, 1, 0, 1), (0, 1, 1, 1)).action()))],
                         ids=["dense", "monomial"])
def test_scan_rows_match_the_public_decoders(member, u):
    """The scan reads one K x K block per member; each row equals the
    per-message decoder on the member as a unitary within 1e-12, and
    quantum rows are its bytes."""
    fam = UnitaryFamily(members=[("u", member)])
    scheme = build_scheme(4, 2, seed=7)
    rows = cell_rows(family_security_scan(4, 2, fam, epsilon=0.3, seeds=[7]))
    for s, row in enumerate(rows):
        probs = detect_classical(scheme, u, s)
        assert all(abs(row[key] - probs[key]) <= 1e-12 for key in probs)
    (row,) = cell_rows(family_security_scan(4, 2, fam, epsilon=0.3, seeds=[7], mode="quantum"))
    assert row == {"seed": 7, "label": "u", **detect_quantum(scheme, u, np.full(4, 0.5))}


def test_family_size_is_checked_before_sampling(monkeypatch):
    def refuse(*args):
        raise AssertionError("labels sampled for a family that must be refused")

    monkeypatch.setattr(tamper, "random_nonidentity_words", refuse)
    with pytest.raises(OutOfRange):
        pauli_family(8, tamper.MAX_FAMILY + 1, seed=0)
    with pytest.raises(InvalidParams):
        pauli_family(8, 0, seed=0)
    with pytest.raises(OutOfRange):
        tamper.check_family_size(5, 4096, dense=5)   # 1.25 GiB of dense members
    tamper.check_family_size(5, 4096, dense=4)


def _file_family(folder, n, kind):
    path = write_family_file(folder, n, kind)
    return cli._resolve_family(f"file:{path}", n, 0, lambda size: None)


@pytest.mark.parametrize("k", [0, 1, 2], ids=["K1", "K2", "K4"])
@pytest.mark.parametrize("kind", ["monomial", "dense", "mixed"])
@pytest.mark.parametrize("mode", tamper.MODES)
def test_scan_matches_the_per_member_oracle(tmp_path, mode, kind, k):
    """Stacked blocks give the rows and report bytes of one decode per
    member, on `file:` families of Pauli words, unitary files and both."""
    family = _file_family(tmp_path, 4, kind)
    report = family_security_scan(4, k, family, epsilon=0.3, seeds=[0, 1, 2], mode=mode, jobs=2)
    oracle = per_member_scan(4, k, family, 0.3, [0, 1, 2], mode)
    assert cell_rows(report) == cell_rows(oracle)
    assert scan_bytes(report) == scan_bytes(oracle)


@pytest.mark.parametrize("mode", tamper.MODES)
def test_scan_over_many_blocks_matches_the_per_member_oracle(mode):
    n, k = 6, 1
    family = pauli_family(n, 150, seed=109)
    members = UnitaryFamily(members=family.members[:70] + [("haar", sample_haar_unitary(64, 110))]
                            + family.members[70:], trace_bound_phi=None)
    width = tamper.BLOCK_ENTRIES // (2 ** n * (1 if mode == "quantum" else 2 ** k))
    assert family.size > 2 * width          # more than two blocks on each side of the dense one
    report = family_security_scan(n, k, members, epsilon=0.3, seeds=[5, 6], mode=mode)
    oracle = per_member_scan(n, k, members, 0.3, [5, 6], mode)
    assert cell_rows(report) == cell_rows(oracle)
    assert scan_bytes(report) == scan_bytes(oracle)


@pytest.mark.parametrize("mode", tamper.MODES)
def test_seed_groups_share_blocks_and_match_the_per_member_oracle(mode, monkeypatch):
    """Several seeds decode each block in one product, block edges fall
    inside the runs of Pauli words between dense members, and the rows and
    report bytes are those of one decode per seed and member."""
    n, k, seeds = 5, 1, list(range(20, 26))
    words = pauli_family(n, 40, seed=113).members
    dense = [(f"haar{i}", sample_haar_unitary(32, 114 + i)) for i in range(2)]
    family = UnitaryFamily(members=words[:7] + dense[:1] + words[7:31] + dense[1:] + words[31:])
    calls, kernel = [], tamper._decode_overlaps

    def recording(scheme, U, states):
        calls.append((scheme.isometry.shape[:-3], U.shape[:-2]))
        return kernel(scheme, U, states)

    monkeypatch.setattr(tamper, "_decode_overlaps", recording)
    report = family_security_scan(n, k, family, epsilon=0.3, seeds=seeds, mode=mode)
    monkeypatch.undo()
    oracle = per_member_scan(n, k, family, 0.3, seeds, mode)
    assert cell_rows(report) == cell_rows(oracle)
    assert scan_bytes(report) == scan_bytes(oracle)
    assert all(group[0] > 1 for group, _ in calls)                      # seeds share each block
    widths = [members[0] for _, members in calls if members]
    assert max(widths) > 1 and len(widths) > 3                    # runs split into several blocks


@pytest.mark.parametrize("order", [1, -1], ids=["undefined-first", "undefined-last"])
def test_extrema_take_every_defined_value(order):
    """A member that moves the codeword off the code space leaves the
    fidelity undefined; its row's place in the family changes no extremum."""
    scheme = build_scheme(2, 0, seed=3)
    v = scheme.isometry[:, 0]
    w = identity(4)[0] - v.conj()[0] * v
    w /= np.linalg.norm(w)
    d = (v - w) / np.linalg.norm(v - w)
    away = identity(4) - 2 * np.outer(d, d.conj())          # the reflection swapping v and w
    members = [("away", away), ("id", identity(4))][::order]
    report = family_security_scan(2, 0, UnitaryFamily(members=members), epsilon=0.5, seeds=[3],
                                  mode="quantum")
    fidelity = {row["label"]: row["fidelity_given_pass"] for row in cell_rows(report)}
    assert fidelity["away"] is None and abs(fidelity["id"] - 1.0) <= 1e-12
    assert report["extrema"]["fidelity_given_pass"] == {"min": fidelity["id"],
                                                        "max": fidelity["id"]}
    assert set(report["extrema"]) == {"P_perp", "pass_prob", "fidelity_given_pass"}


def test_classical_scan_decodes_blocks_not_the_whole_family():
    """n = 10, K = 8, 300 Pauli members, one seed: one member's tampered
    block U V is 128 KiB and the whole family's 37.5 MiB; the scan stays
    below 8 MiB of traced allocations."""
    family = pauli_family(10, 300, seed=111)
    tracemalloc.start()
    try:
        family_security_scan(10, 3, family, epsilon=0.5, seeds=[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak


def test_light_scan_over_seed_groups_streams_its_blocks():
    """n = 10, K = 2, 300 Pauli members (7.0 MiB as built) and six seeds,
    which run as three groups of two on the calling thread: each group
    builds its stacked blocks as it decodes them, so the scan stays below
    2 MiB of traced allocations.  Keeping every block for the later groups
    would hold a stacked copy of the family's rows and phases."""
    family = pauli_family(10, 300, seed=111)
    tracemalloc.start()
    try:
        family_security_scan(10, 1, family, epsilon=0.5, seeds=range(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_relaxed_report_path_holds_no_per_cell_dicts():
    """The relaxed scan at n = 6, K = 4, 40 Pauli members and 20 seeds, and
    its CSV text: 3200 cells, traced at 1.2 MiB from the scan's columns and
    at 3.0 MiB when the cells went through one dict per row."""
    family = pauli_family(6, 40, seed=112)

    def report_path():
        report = family_security_scan(6, 2, family, epsilon=0.25, seeds=range(20), mode="relaxed")
        return cells_csv(report["cells"])

    assert traced_peak(report_path) < 2 * 2 ** 20
