"""Acceptance suite: the package's exit criteria.

One test per criterion; each prints a single `[acceptance] criterion N:
PASS/FAIL` line (run pytest with -s to see them live) and enforces the
criterion at its stated tolerance and runtime cap.
"""

import json
import os
import time
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from conftest import (Permutation, bfs_transposition_distances, cell_rows, first_moment_js,
                      first_moment_ss, min_transpositions, nonidentity_labels, pauli_matrix,
                      tamper_experiment, wg_value)

from qtamper import cli
from qtamper.haar import child_generator, sample_haar_unitary
from qtamper.moments import MomentSpec, exact_moment, mc_moment
from qtamper.perm import verify_lemmas
from qtamper.qamd import QamdParams, security_scan
from qtamper.tamper import family_security_scan, pauli_family
from qtamper.weingarten import wg_abs_sum, wg_sum

TAMPER_SCAN_SEEDS = list(range(50))


def _verdict(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def classical_scan():
    """Criterion 7's desk-scale scan, shared with criterion 8."""
    family = pauli_family(8, 100, seed=20260809)
    started = time.perf_counter()
    report = family_security_scan(8, 1, family, epsilon=2 ** -3,
                                  seeds=TAMPER_SCAN_SEEDS, mode="classical",
                                  jobs=os.cpu_count() or 1)
    report["_elapsed"] = time.perf_counter() - started
    return report


def test_criterion_1_weingarten_golden_table():
    started = time.perf_counter()
    for n in (4, 8, 16, 64):
        ok = (
            wg_value((1,), n) == Fraction(1, n)
            and wg_value((1, 1), n) == Fraction(1, n ** 2 - 1)
            and wg_value((2,), n) == Fraction(-1, n * (n ** 2 - 1))
            and wg_value((1, 1, 1), n) == Fraction(n ** 2 - 2, n * (n ** 2 - 1) * (n ** 2 - 4))
            and wg_value((2, 1), n) == Fraction(-1, (n ** 2 - 1) * (n ** 2 - 4))
            and wg_value((3,), n) == Fraction(2, n * (n ** 2 - 1) * (n ** 2 - 4))
        )
        if not ok:
            _verdict(1, False, f"golden value mismatch at N={n}")
    elapsed = time.perf_counter() - started
    _verdict(1, elapsed < 1.0,
             f"all six listed values exact at N in {{4,8,16,64}} ({elapsed:.3f}s < 1s)")


def test_criterion_2_sum_identities():
    started = time.perf_counter()
    for n in (8, 16, 64):
        for t in range(1, 7):  # t <= 5 required; t = 6 exercises the 720x720 system
            rising = 1
            falling = 1
            for j in range(t):
                rising *= n + j
                falling *= n - j
            if wg_sum(t, n) != Fraction(1, rising):
                _verdict(2, False, f"sum identity failed at t={t}, N={n}")
            if wg_abs_sum(t, n) != Fraction(1, falling):
                _verdict(2, False, f"abs-sum identity failed at t={t}, N={n}")
    elapsed = time.perf_counter() - started
    _verdict(2, elapsed < 30.0,
             f"sum and abs-sum identities exact for t <= 6, N in {{8,16,64}} "
             f"({elapsed:.1f}s < 30s)")


def test_criterion_3_qamd_security():
    started = time.perf_counter()
    results = []
    for q, bound in ((5, 0.16), (7, 4 / 49)):
        report = security_scan(QamdParams(q=q, d=1), exhaustive=True,
                               cross_check=True)
        # the bound is exactly saturated; 1e-12 covers double-precision dust
        if report["max_prob"] > bound + 1e-12:
            _verdict(3, False, f"q={q}: max {report['max_prob']} above {bound}")
        if report["max_dense_mismatch"] > 1e-9:
            _verdict(3, False, f"q={q}: dense mismatch {report['max_dense_mismatch']}")
        results.append(f"q={q}: max={report['max_prob']:.6f} <= {bound:.6f}, "
                       f"dense-gap={report['max_dense_mismatch']:.1e}")
    elapsed = time.perf_counter() - started
    _verdict(3, elapsed < 120.0, "; ".join(results) + f" ({elapsed:.1f}s < 2min)")


def _criterion_4_battery(n_dim: int, qubits: int, stream: int, haar_base: int):
    labels = nonidentity_labels(2, qubits, 10, child_generator(2026, stream))
    battery = [pauli_matrix(lab) for lab in labels]
    battery += [sample_haar_unitary(n_dim, haar_base + i) for i in range(10)]
    return battery


def test_criterion_4_first_moment_closed_forms():
    started = time.perf_counter()
    cells = 0
    hits = 0
    seed = 52000
    for n_dim, qubits, stream, haar_base in ((16, 4, 0, 4000), (64, 6, 1, 4100)):
        for u in _criterion_4_battery(n_dim, qubits, stream, haar_base):
            for pattern, closed in (("js", first_moment_js(u)),
                                    ("ss", first_moment_ss(u))):
                seed += 1
                est, se = mc_moment(MomentSpec(pattern, 1, u), 100_000, seed=seed,
                                    jobs=os.cpu_count() or 1)
                cells += 1
                if abs(est - closed) <= 4 * se:
                    hits += 1
    elapsed = time.perf_counter() - started
    needed = ceil(0.95 * cells)
    _verdict(4, hits >= needed and elapsed < 300.0,
             f"{hits}/{cells} cells within 4 standard errors "
             f"(need {needed}) ({elapsed:.1f}s < 5min)")


def test_criterion_5_higher_moments():
    started = time.perf_counter()
    labels = nonidentity_labels(2, 3, 5, child_generator(2027, 0))
    battery = [pauli_matrix(lab) for lab in labels]
    battery += [sample_haar_unitary(8, 4200 + i) for i in range(5)]
    seed = 53000
    for u in battery:
        for pattern, closed in (("js", first_moment_js(u)),
                                ("ss", first_moment_ss(u))):
            t1 = exact_moment(MomentSpec(pattern, 1, u))
            if abs(t1 - closed) > 1e-12 * max(abs(closed), 1e-300):
                _verdict(5, False, f"t=1 exact/closed-form gap {abs(t1 - closed)}")
            seed += 1
            exact2 = exact_moment(MomentSpec(pattern, 2, u))
            est, se = mc_moment(MomentSpec(pattern, 2, u), 100_000, seed=seed,
                                jobs=os.cpu_count() or 1)
            if abs(est - exact2) > 4 * se:
                _verdict(5, False,
                         f"t=2 {pattern}: |{est} - {exact2}| > 4 x {se}")
    elapsed = time.perf_counter() - started
    _verdict(5, elapsed < 300.0,
             f"t=2 exact vs Monte Carlo within 4 standard errors and t=1 "
             f"within 1e-12 relative, 10-unitary battery ({elapsed:.1f}s < 5min)")


def test_criterion_6_permutation_lemmas():
    started = time.perf_counter()
    reports = verify_lemmas(7, 3)
    bad = sum(len(r["counterexamples"]) for r in reports)
    if bad:
        _verdict(6, False, f"{bad} counterexamples")
    checked = sum(r["checked_count"] for r in reports)
    for n in range(2, 8):
        dist = bfs_transposition_distances(n)
        for images, d in dist.items():
            if min_transpositions(Permutation(images)) != d:
                _verdict(6, False, f"BFS oracle mismatch at {images}")
    elapsed = time.perf_counter() - started
    _verdict(6, elapsed < 60.0,
             f"0 counterexamples over {checked} exhaustive checks; transposition "
             f"identity matches BFS for n <= 7 ({elapsed:.1f}s < 1min)")


def test_criterion_7_desk_scale_tamper_detection(classical_scan):
    report = classical_scan
    elapsed = report["_elapsed"]
    if report["pass_fraction"] < 0.9:
        _verdict(7, False, f"pass fraction {report['pass_fraction']} < 0.9")
    # mean P_same against (N + 0) / (N (N + 1)) = 1/257; the standard error
    # is taken over the 50 independent seed-level means (cells within one
    # seed share the isometry and are correlated)
    by_seed = {}
    for row in cell_rows(report):
        by_seed.setdefault(row["seed"], []).append(row["P_same"])
    seed_means = np.array([np.mean(v) for v in by_seed.values()])
    grand = seed_means.mean()
    stderr = seed_means.std(ddof=1) / np.sqrt(len(seed_means))
    expected = 1.0 / 257.0
    ok = abs(grand - expected) <= 4 * stderr and elapsed < 300.0
    _verdict(7, ok,
             f"pass fraction {report['pass_fraction']:.2f} >= 0.9; mean P_same "
             f"{grand:.6f} vs {expected:.6f} within 4 x {stderr:.1e} "
             f"({elapsed:.1f}s < 5min)")


def test_criterion_8_probability_conservation(classical_scan):
    violations = 0
    worst = classical_scan["max_conservation_violation"]
    for row in cell_rows(classical_scan):
        if abs(row["P_same"] + row["P_diff"] + row["P_perp"] - 1.0) > 1e-9:
            violations += 1
    # full decoder distributions of the explicit code
    params = QamdParams(q=5, d=1)
    rng = child_generator(54000, 0)
    for _ in range(2000):
        xz = rng.integers(0, 5, size=6)
        if not xz.any():
            continue
        s = (int(rng.integers(0, 5)),)
        dist = tamper_experiment(s, tuple(int(v) for v in xz[:3]),
                                 tuple(int(v) for v in xz[3:]), params)
        total = sum(dist["probabilities"].values()) + dist["reject"]
        worst = max(worst, abs(total - 1.0))
        if abs(total - 1.0) > 1e-9:
            violations += 1
    # quantum decoder path
    fam = pauli_family(6, 10, seed=3)
    qrep = family_security_scan(6, 1, fam, epsilon=0.3, seeds=list(range(20)),
                                mode="quantum")
    worst = max(worst, qrep["max_conservation_violation"])
    if qrep["max_conservation_violation"] > 1e-9:
        violations += 1
    _verdict(8, violations == 0,
             f"zero conservation violations; worst residual {worst:.2e} <= 1e-9")


def test_criterion_9_reproducibility(tmp_path):
    jobs_max = str(os.cpu_count() or 4)
    runs = {
        "qamd-scan": ["qamd-scan", "--q", "5", "--d", "1", "--trials", "200",
                      "--seed", "5"],
        "moments": ["moments", "--pattern", "ss", "--t", "2", "--N", "8",
                    "--unitary", "pauli:2:110:011", "--trials", "20000",
                    "--seed", "8"],
        "tamper-sim": ["tamper-sim", "--n", "6", "--k", "1", "--family",
                       "paulis:10", "--epsilon", "0.25", "--seeds", "0..9",
                       "--min-pass-fraction", "0.0"],
    }
    for name, args in runs.items():
        out_a = tmp_path / f"{name}-j1"
        out_b = tmp_path / f"{name}-jmax"
        out_c = tmp_path / f"{name}-rerun"
        if cli.run(["--out", str(out_a), "--jobs", "1", *args]) != 0:
            _verdict(9, False, f"{name} run failed")
        if cli.run(["--out", str(out_b), "--jobs", jobs_max, *args]) != 0:
            _verdict(9, False, f"{name} jobs-max run failed")
        if cli.run(["--out", str(out_c), "rerun", str(out_a / f"{name}.json")]) != 0:
            _verdict(9, False, f"{name} rerun failed")
        ref = (out_a / f"{name}.json").read_bytes()
        if (out_b / f"{name}.json").read_bytes() != ref:
            _verdict(9, False, f"{name}: --jobs changed the report bytes")
        if (out_c / f"{name}.json").read_bytes() != ref:
            _verdict(9, False, f"{name}: manifest rerun changed the report bytes")
        csv = out_a / f"{name}-cells.csv"
        if csv.exists():
            if (out_b / csv.name).read_bytes() != csv.read_bytes():
                _verdict(9, False, f"{name}: --jobs changed the CSV bytes")
            if (out_c / csv.name).read_bytes() != csv.read_bytes():
                _verdict(9, False, f"{name}: rerun changed the CSV bytes")
    _verdict(9, True, "reports byte-identical across --jobs 1, --jobs max, "
                      "and manifest rerun (JSON and CSV)")
