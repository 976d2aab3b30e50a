import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import CSV_COLUMNS, cell_rows, per_cell_csv, per_member_scan, write_family_file

from qtamper import cli, haar, linalg, moments, pauli, perm, qamd, tamper
from qtamper.linalg import require_unitary
from qtamper.reports import BUILD_ID, canonical_json_bytes, make_manifest


def _run(*argv):
    return cli.run(list(argv))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_weingarten_table_golden(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "weingarten-table", "--p", "3", "--N", "8") == 0
    report = _load(out / "weingarten-table.json")
    table = report["result"]["table"]
    # 2/(8*63*60) = 2/30240 in lowest terms
    assert table["[3]"] == "1/15120"
    assert table["[2,1]"] == "-1/3780"
    assert table["[1,1,1]"] == "31/15120"
    assert report["result"]["sum"] == "1/720"
    assert report["result"]["abs_sum"] == "1/336"
    assert report["manifest"]["parameters"] == {"p": 3, "N": 8}


def _partitions(p, largest=None):
    """The partitions of p as descending tuples."""
    if p == 0:
        return [()]
    largest = p if largest is None else largest
    return [(part, *rest) for part in range(min(p, largest), 0, -1)
            for rest in _partitions(p - part, part)]


@pytest.mark.parametrize("p", range(1, 7), ids=lambda p: f"p={p}")
def test_weingarten_table_report_is_consistent(tmp_path, p):
    out = tmp_path / "r"
    assert _run("--out", str(out), "weingarten-table", "--p", str(p), "--N", "8") == 0
    result = _load(out / "weingarten-table.json")["result"]
    keys = {"[" + ",".join(map(str, part)) + "]" for part in _partitions(p)}
    assert set(result["table"]) == set(result["class_sizes"]) == keys
    sizes = result["class_sizes"]
    assert sum(sizes.values()) == factorial(p)
    rising = falling = 1
    for i in range(p):
        rising, falling = rising * (8 + i), falling * (8 - i)
    values = {key: Fraction(v) for key, v in result["table"].items()}
    assert sum(sizes[key] * v for key, v in values.items()) == Fraction(result["sum"])
    assert Fraction(result["sum"]) == Fraction(1, rising)
    assert sum(sizes[key] * abs(v) for key, v in values.items()) == Fraction(result["abs_sum"])
    assert Fraction(result["abs_sum"]) == Fraction(1, falling)


def test_perm_verify_clean(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "perm-verify", "--n-max", "6") == 0
    report = _load(out / "perm-verify.json")
    assert report["result"]["total_counterexamples"] == 0


@pytest.mark.parametrize("argv", [
    ["--n-max", "0", "--t-max", "0"],
    ["--n-max", "-3"],
    ["--n-max", str(perm.MAX_LEMMA_DEGREE + 1)],
    ["--n-max", "3", "--t-max", "0"],
    ["--n-max", "7", "--t-max", str(perm.MAX_COROLLARY_2T // 2 + 1)],
], ids=["both-zero", "negative-n", "n-above-cap", "t-zero", "t-above-cap"])
def test_perm_verify_sizes_are_checked_before_any_check(tmp_path, capsys, monkeypatch, argv):
    ran = []
    monkeypatch.setattr(perm, "verify_fixed_point_lemma", ran.append)
    monkeypatch.setattr(perm, "verify_cycle_bound_corollary", ran.append)
    assert _run("--out", str(tmp_path / "r"), "perm-verify", *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert ran == []
    assert not (tmp_path / "r").exists()


def test_qamd_scan_exhaustive(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "qamd-scan", "--q", "5", "--d", "1",
                "--exhaustive") == 0
    report = _load(out / "qamd-scan.json")
    assert report["result"]["bound"] == pytest.approx(0.16)
    assert report["result"]["max_prob"] <= 0.16 + 1e-12
    assert report["result"]["bound_satisfied"] is True


def test_moments_subcommand(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "moments", "--pattern", "js", "--t", "1",
                "--N", "8", "--unitary", "pauli:2:101:010",
                "--trials", "5000", "--seed", "4") == 0
    result = _load(out / "moments.json")["result"]
    assert result["closed_form"] == pytest.approx(64 / (8 * 63))
    assert abs(result["mc_estimate"] - result["exact"]) <= 6 * result["mc_stderr"]


def test_moments_quantum_pattern(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "moments", "--pattern", "m", "--t", "1",
                "--N", "8", "--unitary", "random:5", "--K", "2",
                "--trials", "2000", "--seed", "4") == 0
    result = _load(out / "moments.json")["result"]
    assert result["closed_form"] is None
    assert result["exact"] > 0


def test_moments_validates_the_unitary_once(tmp_path, monkeypatch):
    calls = []

    def counting(u):
        calls.append(1)
        return require_unitary(u)

    # a dense U is checked once; a Pauli word is a MonomialUnitary, checked when built
    monkeypatch.setattr(moments, "require_unitary", counting)
    for pattern, unitary, checks in (("js", "random:3", 1), ("ss", "random:3", 1),
                                     ("js", "pauli:3:100:021", 0)):
        calls.clear()
        out = tmp_path / f"{pattern}-{checks}"
        n_dim = "27" if unitary.startswith("pauli:") else "64"
        assert _run("--out", str(out), "moments", "--pattern", pattern, "--t", "1",
                    "--N", n_dim, "--unitary", unitary, "--trials", "1000", "--seed", "4") == 0
        assert len(calls) == checks
        assert _load(out / "moments.json")["result"]["closed_form"] is not None


@pytest.mark.parametrize("k", ["0", "-1", "8"])
def test_moments_bad_k_is_one_input_error(tmp_path, capsys, k):
    # K is checked before the amplitudes 1/sqrt(K) are built, so no numpy
    # warning comes before the input error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("--out", str(tmp_path / "r"), "moments", "--pattern", "m", "--t", "1",
                    "--N", "8", "--unitary", "random:5", "--K", k,
                    "--trials", "100", "--seed", "4") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["--pattern", "js", "--t", "4", "--N", "4096"],
    ["--pattern", "js", "--K", "1", "--t", "1", "--N", "4096"],
    ["--pattern", "js", "--t", "3", "--N", "5"],
    ["--pattern", "m", "--K", "2", "--target-index", "2", "--t", "1", "--N", "4096"],
], ids=["t-above-cap", "js-needs-two-codewords", "N-below-2t", "target-index-outside-K"])
def test_moments_parameters_are_checked_before_the_unitary(tmp_path, capsys, monkeypatch,
                                                           argv):
    resolved = []
    monkeypatch.setattr(cli, "_resolve_unitary", lambda *args: resolved.append(args))
    assert _run("--out", str(tmp_path / "r"), "moments", *argv, "--unitary", "random:1",
                "--trials", "1000", "--seed", "2") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert resolved == []
    assert not (tmp_path / "r").exists()


def test_tamper_sim_writes_json_and_csv(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "tamper-sim", "--n", "4", "--k", "1",
                "--family", "paulis:6", "--epsilon", "0.4",
                "--seeds", "0..3", "--min-pass-fraction", "0.0") == 0
    report = _load(out / "tamper-sim.json")
    assert report["result"]["family"]["size"] == 6
    csv_lines = (out / "tamper-sim-cells.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "seed,label,s,P_same,P_diff,P_perp"
    assert len(csv_lines) == 1 + 4 * 6 * 2


def test_tamper_sim_threshold_exit_code(tmp_path):
    # at epsilon 0.01 neither seed passes (a Pauli word leaves about 12% of a
    # codeword on the code space at N = 16, K = 2), so a threshold of 0.5 is missed
    out = tmp_path / "r"
    code = _run("--out", str(out), "tamper-sim", "--n", "4", "--k", "1",
                "--family", "paulis:3", "--epsilon", "0.01",
                "--seeds", "0..1", "--min-pass-fraction", "0.5")
    assert code == 2
    assert (out / "tamper-sim.json").exists()  # report still written


@pytest.mark.parametrize("fraction", ["nan", "-0.1", "1.5"])
def test_min_pass_fraction_outside_unit_interval_is_one_input_error(
        tmp_path, capsys, monkeypatch, fraction):
    built = []
    monkeypatch.setattr(tamper, "build_scheme", lambda *args: built.append(args))
    assert _run("--out", str(tmp_path / "r"), "tamper-sim", "--n", "4", "--k", "1",
                "--family", "paulis:3", "--epsilon", "0.4", "--seeds", "0..1",
                "--min-pass-fraction", fraction) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert built == []
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["--n", "13", "--k", "1"],
    ["--n", "10000000", "--k", "1"],
    ["--n", "4", "--k", "4"],
    ["--n", "4", "--k", "-1"],
    ["--epsilon=0"],
    ["--epsilon=nan"],
    ["--seeds", ",".join(map(str, range(tamper.MAX_SEEDS + 1)))],
], ids=["n-13", "n-huge", "k-equals-n", "k-negative", "epsilon-zero", "epsilon-nan",
        "seed-list-over-cap"])
def test_tamper_sim_scheme_size_is_checked_before_the_family(tmp_path, capsys, monkeypatch,
                                                             argv):
    # every scalar of the scan (n, k, epsilon, seed count) is checked before
    # the family is drawn; later flags override the defaults before them
    drawn = []
    monkeypatch.setattr(cli, "pauli_family", lambda *args: drawn.append(args))
    started = time.monotonic()
    assert _run("--out", str(tmp_path / "r"), "tamper-sim", "--n", "4", "--k", "1",
                "--family", "paulis:3", "--epsilon", "0.4", "--seeds", "0", *argv) == 1
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert drawn == []
    assert not (tmp_path / "r").exists()


def test_tamper_sim_cell_count_is_capped(tmp_path, capsys, monkeypatch):
    # 10 seeds x 10^4 members x K = 128 messages is over MAX_CELLS, drawn
    # or listed in a file; no member may be built before the count is refused
    members = [f"pauli:2:{i % 256:08b}:{i // 256:08b}" for i in range(1, 10001)]
    (tmp_path / "family.json").write_text(json.dumps({"members": members}))
    built, drawn, members_built = [], [], []
    monkeypatch.setattr(tamper, "build_scheme", lambda *args: built.append(args))
    monkeypatch.setattr(cli, "pauli_family", lambda *args: drawn.append(args))
    monkeypatch.setattr(pauli, "word_actions", lambda *args: members_built.append(args))
    for family in ("paulis:10000", f"file:{tmp_path / 'family.json'}"):
        assert _run("--out", str(tmp_path / "r"), "tamper-sim", "--n", "8", "--k", "7",
                    "--family", family, "--epsilon", "0.4", "--seeds", "0..9") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        assert "12800000 cells" in err
        assert built == [] and drawn == [] and members_built == []
        assert not (tmp_path / "r").exists()


_MOMENTS = ["moments", "--pattern", "js", "--t", "1", "--N", "8", "--trials", "2000"]
_TAMPER = ["tamper-sim", "--n", "3", "--k", "1", "--family", "paulis:2", "--epsilon", "0.4"]


@pytest.mark.parametrize("bad", [-1, 2 ** 64], ids=["negative", "2^64"])
@pytest.mark.parametrize("entry", [
    "moments-seed", "qamd-seed", "family-seed", "seed-list", "range-start", "range-end",
    "random-unitary", "env-seed"])
def test_seed_outside_uint64_is_one_input_error(tmp_path, capsys, monkeypatch, entry, bad):
    argv = {
        "moments-seed": [*_MOMENTS, "--unitary", "random:0", f"--seed={bad}"],
        "qamd-seed": ["qamd-scan", "--q", "3", "--d", "1", "--trials", "50", f"--seed={bad}"],
        "family-seed": [*_TAMPER, "--seeds", "0", f"--family-seed={bad}"],
        "seed-list": [*_TAMPER, f"--seeds=0,{bad}"],
        "range-start": [*_TAMPER, f"--seeds={bad}..3"],
        "range-end": [*_TAMPER, f"--seeds=0..{bad}"],
        "random-unitary": [*_MOMENTS, "--unitary", f"random:{bad}", "--seed", "0"],
        "env-seed": [*_MOMENTS, "--unitary", "random:0"],
    }[entry]
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    if entry == "env-seed":
        monkeypatch.setenv(cli.SEED_ENV, str(bad))
    streams = []   # every stream is made from a SeedSequence
    monkeypatch.setattr(haar, "SeedSequence", lambda *args, **kw: streams.append(args))
    assert _run("--out", str(tmp_path / "r"), *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert "[0, 2^64)" in err
    assert streams == []
    assert not (tmp_path / "r").exists()


def test_usage_and_input_errors(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "nonsense") == 1
    assert _run("--out", str(out), "weingarten-table", "--p", "3") == 1
    assert _run("--out", str(out), "moments", "--pattern", "js", "--t", "1",
                "--N", "8", "--unitary", "bogus:1", "--trials", "2000") == 1
    assert _run("--out", str(out), "moments", "--pattern", "js", "--t", "1",
                "--N", "4", "--unitary", "pauli:2:101:010", "--trials", "2000") == 1
    assert _run("--out", str(out), "tamper-sim", "--n", "4", "--k", "1",
                "--family", "file:/does/not/exist.json", "--epsilon", "0.3",
                "--seeds", "0") == 1
    assert _run("--out", str(out), "tamper-sim", "--n", "4", "--k", "1",
                "--family", "paulis:3", "--epsilon", "0.3", "--seeds", "5..2") == 1
    assert _run("--out", str(out), "rerun", str(tmp_path / "missing.json")) == 1


def test_malformed_unitary_file(tmp_path):
    bad = tmp_path / "u.json"
    bad.write_text("{not json")
    assert _run("--out", str(tmp_path / "r"), "moments", "--pattern", "js",
                "--t", "1", "--N", "8", "--unitary", f"file:{bad}",
                "--trials", "2000") == 1
    ragged = tmp_path / "ragged.json"
    ragged.write_text("[[[1,0]],[[1,0],[0,1]]]")
    assert _run("--out", str(tmp_path / "r"), "moments", "--pattern", "js",
                "--t", "1", "--N", "8", "--unitary", f"file:{ragged}",
                "--trials", "2000") == 1


def test_unitary_file_round_trip(tmp_path):
    u = np.eye(4, dtype=complex)
    path = tmp_path / "id.json"
    path.write_text(json.dumps([[[r.real, r.imag] for r in row] for row in u]))
    out = tmp_path / "r"
    assert _run("--out", str(out), "moments", "--pattern", "ss", "--t", "1",
                "--N", "4", "--unitary", f"file:{path}", "--trials", "2000") == 0
    result = _load(out / "moments.json")["result"]
    assert result["exact"] == pytest.approx(1.0)


def test_family_file(tmp_path):
    family = {
        "trace_bound_phi": 0.0,
        "members": ["pauli:2:1010:0101", {"pauli": {"q": 2, "x": [1, 1, 0, 0], "z": [0, 0, 1, 1]}}],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    out = tmp_path / "r"
    assert _run("--out", str(out), "tamper-sim", "--n", "4", "--k", "1",
                "--family", f"file:{path}", "--epsilon", "0.4", "--seeds", "0,1",
                "--min-pass-fraction", "0.0") == 0
    report = _load(out / "tamper-sim.json")
    assert report["result"]["family"]["size"] == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("QTAMPER_SEED", "321")
    out = tmp_path / "r"
    assert _run("--out", str(out), "qamd-scan", "--q", "3", "--d", "2",
                "--trials", "50") == 0
    report = _load(out / "qamd-scan.json")
    assert report["manifest"]["parameters"]["seed"] == 321


def test_exhaustive_qamd_scan_has_no_seed(tmp_path, monkeypatch):
    # an exhaustive scan draws nothing: its manifest holds q, d, mode and
    # cross_check only, and no QTAMPER_SEED changes a byte
    reports = []
    for env in (None, "0", "7", str(2 ** 64 - 1)):
        if env is None:
            monkeypatch.delenv("QTAMPER_SEED", raising=False)
        else:
            monkeypatch.setenv("QTAMPER_SEED", env)
        out = tmp_path / f"r{len(reports)}"
        assert _run("--out", str(out), "qamd-scan", "--q", "3", "--d", "2", "--exhaustive") == 0
        reports.append((out / "qamd-scan.json").read_bytes())
    assert len(set(reports)) == 1
    parameters = json.loads(reports[0])["manifest"]["parameters"]
    assert parameters == {"q": 3, "d": 2, "mode": "exhaustive", "cross_check": True}


def test_seed_with_exhaustive_is_a_usage_error(tmp_path, capsys):
    assert _run("--out", str(tmp_path / "r"), "qamd-scan", "--q", "3", "--d", "2",
                "--exhaustive", "--seed", "3") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "r").exists()


def test_exhaustive_rerun_round_trips_and_refuses_a_seed(tmp_path, capsys):
    out = tmp_path / "a"
    assert _run("--out", str(out), "qamd-scan", "--q", "3", "--d", "2", "--exhaustive") == 0
    assert _run("--out", str(tmp_path / "b"), "rerun", str(out / "qamd-scan.json")) == 0
    assert (out / "qamd-scan.json").read_bytes() == (tmp_path / "b" / "qamd-scan.json").read_bytes()
    # the manifest as v12 wrote it (its version, a seed, a null trial count),
    # and the running version with a seed: neither can be replayed
    manifest = _load(out / "qamd-scan.json")["manifest"]
    v12 = {**manifest, "generator_version": "sfc64/ziggurat/v12",
           "parameters": {**manifest["parameters"], "seed": 0, "trials": None}}
    seeded = {**manifest, "parameters": {**manifest["parameters"], "seed": 0}}
    for name, edited in (("v12", v12), ("seeded", seeded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(edited))
        capsys.readouterr()
        assert _run("--out", str(tmp_path / name), "rerun", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and err.count("\n") == 1, err
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("mode", tamper.MODES)
def test_manifest_round_trip_bytes(tmp_path, mode):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["tamper-sim", "--n", "4", "--k", "1", "--family", "paulis:4", "--mode", mode,
            "--epsilon", "0.4", "--seeds", "0..2", "--min-pass-fraction", "0.0"]
    assert _run("--out", str(out1), *args) == 0
    assert _run("--out", str(out2), "rerun", str(out1 / "tamper-sim.json")) == 0
    assert (out1 / "tamper-sim.json").read_bytes() == (out2 / "tamper-sim.json").read_bytes()
    assert (out1 / "tamper-sim-cells.csv").read_bytes() == (out2 / "tamper-sim-cells.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ["weingarten-table", "--p", "3", "--N", "8"],
    ["perm-verify", "--n-max", "3", "--t-max", "1"],
    ["qamd-scan", "--q", "3", "--d", "2", "--trials", "50", "--seed", "4"],
    ["moments", "--pattern", "m", "--t", "1", "--N", "4", "--unitary", "random:2",
     "--trials", "1000", "--seed", "1"],
], ids=lambda args: args[0])
def test_rerun_round_trip_every_subcommand(tmp_path, args):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert _run("--out", str(out1), *args) == 0
    report = out1 / f"{args[0]}.json"
    assert _run("--out", str(out2), "rerun", str(report)) == 0
    assert report.read_bytes() == (out2 / f"{args[0]}.json").read_bytes()


def _without(key):
    def edit(manifest):
        del manifest["parameters"][key]
        return manifest
    return edit


def _with(key, value, section=None):
    def edit(manifest):
        (manifest[section] if section else manifest)[key] = value
        return manifest
    return edit


@pytest.mark.parametrize("edit", [
    lambda manifest: {},
    lambda manifest: [manifest],
    _without("N"),
    _with("extra", 1, "parameters"),
    _with("parameters", [3, 8]),
    _with("subcommand", "bogus"),
    _with("subcommand", ["weingarten-table"]),
    _with("subcommand", "rerun"),
    _with("generator_version", "v0"),
    _with("generator_version", "philox4x64/box-muller/v5"),
    _with("generator_version", "philox4x64/ziggurat/v6"),
    _with("generator_version", "philox4x64/ziggurat/v7"),
    _with("generator_version", "philox4x64/ziggurat/v8"),
    _with("generator_version", "sfc64/ziggurat/v9"),
    _with("generator_version", "sfc64/ziggurat/v10"),
    _with("generator_version", "sfc64/ziggurat/v11"),
    _with("generator_version", "sfc64/ziggurat/v12"),
    _with("generator_version", "sfc64/ziggurat/v13"),
    _with("generator_version", "sfc64/ziggurat/v14"),
    _with("build", "qtamper/0.0.0"),
    _with("build", BUILD_ID.replace(f"numpy/{np.__version__}", f"numpy/{np.__version__}.post1")),
    _with("p", "x", "parameters"),
    _with("p", "3", "parameters"),
    _with("p", 3.5, "parameters"),
    _with("p", 3.0, "parameters"),
    _with("p", True, "parameters"),
    _with("N", None, "parameters"),
], ids=["empty", "not-an-object", "missing-parameter", "unknown-parameter",
        "parameters-not-an-object", "unknown-subcommand", "subcommand-not-a-string",
        "rerun-subcommand",
        "generator-version", "generator-version-v5", "generator-version-v6",
        "generator-version-v7", "generator-version-v8", "generator-version-v9",
        "generator-version-v10", "generator-version-v11", "generator-version-v12",
        "generator-version-v13", "generator-version-v14", "build",
        "build-other-numpy",
        "string-for-int", "numeric-string-for-int", "float-for-int",
        "integral-float-for-int", "bool-for-int", "null-for-int"])
def test_rerun_refuses_manifest_it_cannot_reproduce(tmp_path, capsys, edit):
    out = tmp_path / "a"
    assert _run("--out", str(out), "weingarten-table", "--p", "3", "--N", "8") == 0
    manifest = _load(out / "weingarten-table.json")["manifest"]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(edit(manifest)))
    capsys.readouterr()
    assert _run("--out", str(tmp_path / "b"), "rerun", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("key, value", [
    ("seeds", "0..2"), ("seeds", [0, "x"]), ("seeds", [0.5]), ("seeds", []),
    ("seeds", 3), ("seeds", [0, True]), ("epsilon", "0.4"), ("mode", "odd"),
    ("seeds", [0, -1]), ("seeds", [2 ** 64]), ("family_seed", -1),
], ids=["range-string", "string-seed", "float-seed", "no-seeds", "seeds-not-a-list",
        "bool-seed", "string-for-float", "unknown-choice", "negative-seed", "seed-2^64",
        "negative-family-seed"])
def test_rerun_refuses_malformed_parameter_values(tmp_path, capsys, key, value):
    out = tmp_path / "a"
    assert _run("--out", str(out), "tamper-sim", "--n", "3", "--k", "1", "--family",
                "paulis:2", "--epsilon", "0.4", "--seeds", "0..2",
                "--min-pass-fraction", "0.0") == 0
    manifest = _load(out / "tamper-sim.json")["manifest"]
    manifest["parameters"][key] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert _run("--out", str(tmp_path / "b"), "rerun", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "b").exists()


def test_oversized_family_refused_before_any_member_is_built(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a member was built for a family that must be refused")

    monkeypatch.setattr(cli, "_load_unitary_file", refuse)
    monkeypatch.setattr(pauli, "word_actions", refuse)
    monkeypatch.setattr(tamper, "random_nonidentity_words", refuse)
    too_many = tmp_path / "many.json"
    too_many.write_text(json.dumps(["pauli:2:1000:0000"] * (tamper.MAX_FAMILY + 1)))
    too_dense = tmp_path / "dense.json"   # 5 x 4096^2 x 16 B = 1.25 GiB
    too_dense.write_text(json.dumps([{"file": f"u{i}.json"} for i in range(5)]))
    for family, n in ((f"file:{too_many}", "4"), (f"file:{too_dense}", "12"),
                      (f"paulis:{tamper.MAX_FAMILY + 1}", "8")):
        capsys.readouterr()
        assert _run("--out", str(tmp_path / "r"), "tamper-sim", "--n", n, "--k", "1",
                    "--family", family, "--epsilon", "0.3", "--seeds", "0") == 1
        assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "r" / "tamper-sim.json").exists()


@pytest.mark.parametrize("argv", [
    ["--q", "1000000000000000003", "--d", "1", "--trials", "1"],
    ["--q", "5", "--d", "100000000", "--exhaustive"],
], ids=["huge-prime-q", "huge-d"])
def test_oversized_qamd_parameters_fail_fast(tmp_path, capsys, argv):
    # the size bounds are checked before trial division and before q^(d+2)
    started = time.monotonic()
    assert _run("--out", str(tmp_path / "r"), "qamd-scan", *argv) == 1
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err.startswith("input error: ")
    assert not (tmp_path / "r").exists()


_TAMPER_N10 = ["tamper-sim", "--n", "10", "--k", "1", "--family", "paulis:100", "--mode", "weak"]


@pytest.mark.parametrize("argv", [
    ["qamd-scan", "--q", "5", "--d", "1", "--trials", str(10 ** 13)],
    ["qamd-scan", "--q", "5", "--d", "1", "--trials", str(qamd.MAX_TRIALS + 1)],
    ["moments", "--pattern", "ss", "--t", "1", "--N", "4096", "--unitary", "random:1",
     "--trials", str(10 ** 13), "--seed", "2"],
    ["moments", "--pattern", "ss", "--t", "1", "--N", "4", "--unitary", "random:1",
     "--trials", str(moments.MAX_TRIALS + 1), "--seed", "2"],
    [*_TAMPER_N10, "--epsilon", "0.3", "--seeds", "0..1000000000000"],
    [*_TAMPER_N10, "--epsilon", "0.3", "--seeds", f"0..{tamper.MAX_SEEDS}"],
    [*_TAMPER_N10, "--epsilon=0", "--seeds", "0..1"],
    [*_TAMPER_N10, "--epsilon=-1", "--seeds", "0..1"],
    [*_TAMPER_N10, "--epsilon=nan", "--seeds", "0..1"],
    [*_TAMPER_N10, "--epsilon=inf", "--seeds", "0..1"],
], ids=["qamd-huge", "qamd-cap", "moments-huge", "moments-cap", "seeds-huge", "seeds-cap",
        "epsilon-zero", "epsilon-negative", "epsilon-nan", "epsilon-inf"])
def test_oversized_trials_are_one_input_error(tmp_path, capsys, argv):
    # the trial count is capped where it enters, before any allocation or pool,
    # and for moments before the N = 4096 unitary is sampled (seconds of QR);
    # tamper-sim's seed count and epsilon are checked before any scheme is built
    started = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run("--out", str(tmp_path / "r"), *argv) == 1
    assert time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "r").exists()


def test_jobs_below_one_is_a_usage_error(tmp_path, capsys):
    for jobs in ("0", "-2"):
        assert _run("--out", str(tmp_path / "r"), "--jobs", jobs,
                    "weingarten-table", "--p", "2", "--N", "4") == 1
        assert capsys.readouterr().err.startswith("usage error: --jobs")
    assert not (tmp_path / "r").exists()


def test_worker_pools_are_clamped(tmp_path, monkeypatch):
    """The one pool gets min(jobs, tasks, usable CPUs) workers; a recording
    stand-in runs the tasks serially, so no thread is started.  tamper-sim
    fans its seeds out only when one (seed, member) decode holds
    FAN_OUT_ENTRIES, as at n = 12, K = 8; a light scan (n = 4, or n = 12 with
    K = 4) starts no pool."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(linalg, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    runs = [  # (args, tasks)
        (["moments", "--pattern", "ss", "--t", "1", "--N", "4", "--unitary", "random:1",
          "--trials", str(5 * moments.MC_CHUNK), "--seed", "2"], 5),
        (["moments", "--pattern", "ss", "--t", "1", "--N", "4", "--unitary", "random:1",
          "--trials", str(2 * moments.MC_CHUNK), "--seed", "2"], 2),
        (["tamper-sim", "--n", "12", "--k", "3", "--family", "paulis:3", "--epsilon", "0.4",
          "--seeds", "0..1", "--min-pass-fraction", "0.0"], 2),
        (["tamper-sim", "--n", "12", "--k", "2", "--family", "paulis:3", "--epsilon", "0.4",
          "--seeds", "0..1", "--min-pass-fraction", "0.0"], 1),
        (["tamper-sim", "--n", "4", "--k", "1", "--family", "paulis:3", "--epsilon", "0.4",
          "--seeds", "0..1", "--min-pass-fraction", "0.0"], 1),
    ]
    for i, (args, tasks) in enumerate(runs):
        for jobs in (1, 2, 10 ** 6):
            made.clear()
            assert _run("--out", str(tmp_path / f"{i}-{jobs}"), "--jobs", str(jobs), *args) == 0
            workers = min(jobs, tasks, 3)
            assert made == ([workers] if workers > 1 else [])
        name = f"{args[0]}.json"
        assert ((tmp_path / f"{i}-1" / name).read_bytes()
                == (tmp_path / f"{i}-{10 ** 6}" / name).read_bytes())


def test_parser_is_built_once_and_jobs_default_reads_the_cpu_count(tmp_path, monkeypatch):
    """Every call parses with one parser, built on first use; an absent
    --jobs is the number of CPUs this process may use when the arguments
    are parsed, or the CPU count where the platform has no affinity call."""
    seen = []
    monkeypatch.setattr(cli, "run_manifest", lambda manifest, out, jobs: seen.append(jobs) or 0)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for cpus in ({3}, {0, 1, 4}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        assert _run("--out", str(tmp_path), "perm-verify", "--n-max", "3") == 0
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus in (5, None):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert _run("--out", str(tmp_path), "perm-verify", "--n-max", "3") == 0
    assert _run("--out", str(tmp_path), "--jobs", "7", "perm-verify", "--n-max", "3") == 0
    assert seen == [1, 3, 5, 1, 7]
    assert cli._build_parser() is cli._build_parser()
    assert cli._build_parser.cache_info().misses == 1


BENCH_MOMENT_SHAPES = {   # the moment-calculus shapes of perfbench/workloads.py
    "js-t1-N64": ["--pattern", "js", "--t", "1", "--N", "64"],
    "ss-t2-N64": ["--pattern", "ss", "--t", "2", "--N", "64"],
    "m-t2-N16-K4": ["--pattern", "m", "--t", "2", "--N", "16", "--K", "4"],
    "js-t3-N16": ["--pattern", "js", "--t", "3", "--N", "16"],
    "js-t3-N32": ["--pattern", "js", "--t", "3", "--N", "32"],
}


@pytest.mark.parametrize("shape", BENCH_MOMENT_SHAPES.values(), ids=BENCH_MOMENT_SHAPES)
def test_moments_bytes_do_not_depend_on_blas_threads(shape, tmp_path, monkeypatch):
    """A moments report has the same bytes with OpenBLAS parked (the
    default), with every kernel threaded (BLAS_THREADED_DIM = 0) at two
    threads, and where no OpenBLAS is found and BLAS is left at two threads."""
    if linalg._OPENBLAS is None:
        pytest.skip("numpy did not load an OpenBLAS this process can find")
    set_ = linalg._OPENBLAS[1]
    args = ["moments", *shape, "--unitary", "random:31", "--trials", str(moments.MIN_TRIALS),
            "--seed", "32"]
    reports = []
    try:
        for name, patches in (("parked", {}),
                              ("threaded", {"BLAS_THREADED_DIM": 0, "_LOAD_THREADS": 2}),
                              ("no-openblas", {"BLAS_THREADED_DIM": 0, "_OPENBLAS": None})):
            with monkeypatch.context() as patched:
                for attr, value in patches.items():
                    patched.setattr(linalg, attr, value)
                if name == "no-openblas":
                    set_(2)
                out = tmp_path / name
                assert _run("--out", str(out), "--jobs", "2", *args) == 0
                reports.append((out / "moments.json").read_bytes())
    finally:
        linalg._park()
    assert reports[0] == reports[1] == reports[2]


def test_jobs_do_not_change_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["moments", "--pattern", "ss", "--t", "2", "--N", "8",
            "--unitary", "pauli:2:110:011", "--trials", "20000", "--seed", "8"]
    assert _run("--out", str(out1), "--jobs", "1", *args) == 0
    assert _run("--out", str(out2), "--jobs", str(os.cpu_count() or 4), *args) == 0
    assert (out1 / "moments.json").read_bytes() == (out2 / "moments.json").read_bytes()


@pytest.mark.parametrize("mode", [["--exhaustive"], ["--trials", "50"]],
                         ids=["exhaustive", "random"])
def test_qamd_scan_dense_mismatch_exits_2(tmp_path, monkeypatch, mode):
    monkeypatch.setattr(qamd, "DENSE_MATCH_TOL", -1.0)   # every cell mismatches
    out = tmp_path / "r"
    assert _run("--out", str(out), "qamd-scan", "--q", "3", "--d", "2", *mode) == 2
    report = _load(out / "qamd-scan.json")
    assert "result" not in report
    assert report["error"].startswith("symbolic/dense mismatch")


def _optimized_python(*args, timeout=300):
    """`python -O` with `args` and this package on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def _assert_same_bytes_under_optimize(out, args):
    """`args` writes the same report, and CSV if any, under `python -O` as
    without it."""
    assert _run("--out", str(out / "plain"), *args) == 0
    proc = _optimized_python("-m", "qtamper.cli", "--out", str(out / "opt"), *args)
    assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in (out / "plain").iterdir())
    assert names == sorted(path.name for path in (out / "opt").iterdir())
    assert f"{args[0]}.json" in names
    for name in names:
        assert (out / "opt" / name).read_bytes() == (out / "plain" / name).read_bytes()


_NON_GLOBAL_PHASE = """
import sys
sys.path.insert(0, sys.argv[2])
from conftest import non_global_phase_route
from qtamper import cli, qamd

qamd._root_sum_route = non_global_phase_route(qamd._root_sum_route)
print(sys.flags.optimize)
print(cli.run(["--out", sys.argv[1], "qamd-scan", "--q", "7", "--d", "1", "--exhaustive"]))
"""


def test_qamd_scan_checks_survive_optimize_flag(tmp_path):
    for mode, flags in (("exhaustive", ["--q", "3", "--d", "2", "--exhaustive"]),
                        ("random", ["--q", "3", "--d", "2", "--trials", "200"]),
                        ("exhaustive-q7d2", ["--q", "7", "--d", "2", "--exhaustive"])):
        _assert_same_bytes_under_optimize(tmp_path / mode, ["qamd-scan", *flags])
    # a phase error that is not global fails the exhaustive cross-check
    proc = _optimized_python("-c", _NON_GLOBAL_PHASE, str(tmp_path / "phase"),
                             str(Path(__file__).parent))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2"]
    assert _load(tmp_path / "phase" / "qamd-scan.json")["error"].startswith(
        "symbolic/dense mismatch")


_BROKEN_ROOT_MASK = """
import sys
from qtamper import cli, qamd

true_masks = qamd._root_masks

def masks(params, coeffs, x):
    out = true_masks(params, coeffs, x)
    out[:, -1] = False               # no pair has the root r = q - 1
    return out

qamd._root_masks = masks
print(sys.flags.optimize)
print(cli.run(["--out", sys.argv[1], "qamd-scan", "--q", "5", "--d", "1", "--exhaustive",
               "--skip-dense-check"]))
"""


def test_root_count_identity_fires_under_optimize_flag(tmp_path):
    """Under `python -O`, a root mask that loses the roots r = q - 1 fails
    the exhaustive scan's root-count identity: exit 2 and an error report."""
    proc = _optimized_python("-c", _BROKEN_ROOT_MASK, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2"]
    assert _load(tmp_path / "qamd-scan.json")["error"].startswith("root sets hold")


@pytest.mark.parametrize("args", [
    ["perm-verify", "--n-max", "7"],
    ["weingarten-table", "--p", "6", "--N", "8"],
], ids=lambda args: args[0])
def test_combinatorics_checks_survive_optimize_flag(tmp_path, args):
    _assert_same_bytes_under_optimize(tmp_path, args)


@pytest.mark.parametrize("mode", tamper.MODES)
def test_tamper_sim_checks_survive_optimize_flag(tmp_path, mode):
    args = ["tamper-sim", "--n", "5", "--k", "2", "--epsilon", "0.3", "--mode", mode,
            "--seeds", "0..2", "--min-pass-fraction", "0", "--family"]
    _assert_same_bytes_under_optimize(tmp_path, [*args, "paulis:40"])
    # a qutrit word in a family file is refused where it enters
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(["pauli:2:10000:00001", "pauli:3:10000:00002"]))
    proc = _optimized_python("-m", "qtamper.cli", "--out", str(tmp_path / "refused"),
                             *args, f"file:{path}")
    assert proc.returncode == 1
    assert proc.stderr.startswith("input error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "refused").exists()


_BROKEN_ACTION = """
import sys
from qtamper import cli
from qtamper.pauli import MonomialUnitary

out = sys.argv[1]
print(sys.flags.optimize)
for method, mode in (("__rmatmul__", "weak"), ("__matmul__", "classical")):
    honest = getattr(MonomialUnitary, method)
    setattr(MonomialUnitary, method, lambda self, x, honest=honest: 1.01 * honest(self, x))
    print(cli.run(["--out", f"{out}/{mode}", "tamper-sim", "--n", "4", "--k", "1",
                   "--family", "paulis:20", "--epsilon", "0.5", "--mode", mode,
                   "--seeds", "0..1", "--min-pass-fraction", "0"]))
    setattr(MonomialUnitary, method, honest)
"""


def test_tamper_checks_fire_under_optimize_flag(tmp_path):
    """Under `python -O`, a wrong V^dag U fails weak mode's two-route check,
    and a wrong U V shows in classical mode's conservation violation."""
    proc = _optimized_python("-c", _BROKEN_ACTION, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "2", "0"]
    assert "weak-detection routes disagree" in _load(tmp_path / "weak" / "tamper-sim.json")["error"]
    result = _load(tmp_path / "classical" / "tamper-sim.json")["result"]
    assert abs(result["max_conservation_violation"] - (1.01 ** 2 - 1)) <= 1e-9


@pytest.mark.parametrize("k", [0, 2], ids=["K1", "K4"])
@pytest.mark.parametrize("mode", tamper.MODES)
def test_tamper_sim_files_match_the_per_member_oracle(tmp_path, mode, k):
    """The report and the CSV of a mixed `file:` family are the bytes of
    one decode per member and one formatted cell at a time."""
    path = write_family_file(tmp_path, 4, "mixed")
    out = tmp_path / "r"
    assert _run("--out", str(out), "tamper-sim", "--n", "4", "--k", str(k), "--family",
                f"file:{path}", "--epsilon", "0.3", "--mode", mode, "--seeds", "0..3",
                "--min-pass-fraction", "0") == 0
    family = cli._resolve_family(f"file:{path}", 4, 0, lambda size: None)
    oracle = per_member_scan(4, k, family, 0.3, range(4), mode)
    rows = cell_rows(oracle)
    del oracle["cells"]
    manifest = _load(out / "tamper-sim.json")["manifest"]
    assert (out / "tamper-sim.json").read_bytes() == canonical_json_bytes(
        {"manifest": manifest, "result": oracle})
    assert (out / "tamper-sim-cells.csv").read_bytes() == per_cell_csv(rows, CSV_COLUMNS[mode])


def _edge_label_family(folder, n: int, k: int, seed: int):
    """A `file:` family on n qubits whose labels hold a comma, quotes, line
    breaks or nothing, with a dense identity and a dense reflection that
    takes seed `seed`'s uniform message out of the code space, so that its
    quantum fidelity there is undefined."""
    scheme = tamper.build_scheme(n, k, seed)
    v = scheme.isometry
    message = v @ np.full(2 ** k, 2 ** (-k / 2))
    off = np.eye(2 ** n)[0] - v @ v.conj()[0]                  # e_0 minus its code part
    d = message - off / np.linalg.norm(off)
    away = np.eye(2 ** n) - np.outer(d, d.conj()) / np.vdot(d, d).real * 2
    for name, u in (("id.json", np.eye(2 ** n)), ("away.json", away)):
        (folder / name).write_text(json.dumps(np.stack([u.real, u.imag], -1).tolist()))
    word = {"q": 2, "x": [1] + [0] * (n - 1), "z": [0] * (n - 1) + [1]}
    members = [{"pauli": word, "label": 'comma, "quoted"'},
               {"file": "id.json", "label": "id\ndense"}, {"pauli": word, "label": ""},
               {"file": "away.json", "label": 'away,\r\n"x"'}, "pauli:2:" + "1" * n + ":" + "0" * n]
    path = folder / "edge.json"
    path.write_text(json.dumps({"members": members}))
    return path


@pytest.mark.parametrize("mode", tamper.MODES)
def test_tamper_sim_csv_quotes_labels_and_writes_undefined_cells(tmp_path, mode):
    """Labels with a comma, quotes and line breaks are quoted as `csv.writer`
    quotes them, and an undefined fidelity is written "undefined": the CSV is
    the one formatted cell at a time by the per-member oracle."""
    path = _edge_label_family(tmp_path, 3, 1, seed=0)
    out = tmp_path / "r"
    assert _run("--out", str(out), "tamper-sim", "--n", "3", "--k", "1", "--family",
                f"file:{path}", "--epsilon", "0.3", "--mode", mode, "--seeds", "0..2",
                "--min-pass-fraction", "0") == 0
    family = cli._resolve_family(f"file:{path}", 3, 0, lambda size: None)
    rows = cell_rows(per_member_scan(3, 1, family, 0.3, range(3), mode))
    text = (out / "tamper-sim-cells.csv").read_bytes()
    assert text == per_cell_csv(rows, CSV_COLUMNS[mode])
    assert [line[1] for line in csv.reader(io.StringIO(text.decode()))][1:] == [
        row["label"] for row in rows]
    assert sum(row.get("fidelity_given_pass", 0) is None for row in rows) == (mode == "quantum")


@pytest.mark.parametrize("content", [
    [{"file": 5}],
    [{"pauli": "x"}],
    [{"pauli": {"q": 2, "x": 5, "z": 1}}],
    {"trace_bound_phi": "a", "members": ["pauli:2:10:01"]},
    {"trace_bound_phi": True, "members": ["pauli:2:10:01"]},
    [{"pauli": {"q": 2, "x": [1, 0], "z": [0, True]}}],
    [{"pauli": {"q": 2, "x": [1, 0], "z": [0, 1]}, "label": 3}],
    [7],
    ["pauli:1000000000000000003:1:1"],
    {"trace_bound_phi": float("nan"), "members": ["pauli:2:10:01"]},
    {"trace_bound_phi": float("inf"), "members": ["pauli:2:10:01"]},
    {"trace_bound_phi": -0.5, "members": ["pauli:2:10:01"]},
    {"trace_bound_phi": 7, "members": ["pauli:2:10:01"]},
    ["pauli:2:10:01", "pauli:3:10:01"],
    ["pauli:2:10:01", {"pauli": {"q": 2, "x": [1], "z": [0]}}],
], ids=["file-not-a-string", "pauli-not-an-object", "exponents-not-lists",
        "phi-not-a-number", "phi-bool", "bool-exponent", "label-not-a-string",
        "entry-not-a-string-or-object", "huge-register-dimension", "phi-nan", "phi-inf",
        "phi-negative", "phi-above-one", "qutrit-word", "short-word"])
def test_malformed_family_file_is_an_input_error(tmp_path, capsys, monkeypatch, content):
    # every entry is checked where it enters: no word's action and no scheme is built
    built = []
    monkeypatch.setattr(tamper, "build_scheme", lambda *args: built.append(args))
    monkeypatch.setattr(pauli, "word_actions", lambda *args: built.append(args))
    path = tmp_path / "f.json"
    path.write_text(json.dumps(content))
    out = tmp_path / "r"
    assert _run("--out", str(out), "tamper-sim", "--n", "2", "--k", "0", "--epsilon", "0.5",
                "--seeds", "1", "--family", f"file:{path}") == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert built == []
    assert not out.exists()


def test_refused_run_leaves_no_out_directory(tmp_path, monkeypatch):
    out = tmp_path / "d"
    assert _run("--out", str(out), "tamper-sim", "--n", "2", "--k", "0", "--epsilon", "0.5",
                "--seeds", "1", "--family", f"paulis:{tamper.MAX_FAMILY + 1}") == 1
    assert not out.exists()
    # a failed cross-check still writes its error report, directory and all
    monkeypatch.setattr(qamd, "DENSE_MATCH_TOL", -1.0)
    assert _run("--out", str(out / "nested"), "qamd-scan", "--q", "5", "--d", "1",
                "--trials", "5") == 2
    assert "error" in _load(out / "nested" / "qamd-scan.json")


# random JSON values and family files at tiny sizes: `cli.run` must turn
# every one of them into an exit code, never an exception
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
                     st.floats(-2, 4), st.sampled_from([float("nan"), float("inf")]),
                     st.text(max_size=6))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))
_INT_LISTS = st.lists(st.one_of(st.integers(-1, 3), _SCALARS), max_size=3)
_PAULI_OBJECTS = st.fixed_dictionaries(
    {"q": st.one_of(st.integers(-1, 5), _SCALARS), "x": st.one_of(_INT_LISTS, _SCALARS),
     "z": st.one_of(_INT_LISTS, _SCALARS)},
    optional={"m": _SCALARS})
# well-formed members of the n = 2 family (N = 4), mixed with malformed ones
_TWO_DIGITS = st.lists(st.integers(0, 3), min_size=2, max_size=2)
_GOOD_ENTRIES = st.one_of(
    st.builds(lambda x, z: f"pauli:2:{x}:{z}", st.text("01", min_size=2, max_size=2),
              st.text("01", min_size=2, max_size=2)),
    st.fixed_dictionaries({"pauli": st.fixed_dictionaries({"q": st.just(2), "x": _TWO_DIGITS,
                                                           "z": _TWO_DIGITS})},
                          optional={"label": st.text(max_size=4)}),
    st.fixed_dictionaries({"file": st.just("u.json")}),
)
_ENTRIES = st.one_of(
    _GOOD_ENTRIES,
    _SCALARS,
    st.builds(lambda q, x, z: f"pauli:{q}:{x}:{z}", st.integers(0, 5),
              st.text("0123", max_size=3), st.text("0123", max_size=3)),
    st.fixed_dictionaries({"pauli": st.one_of(_PAULI_OBJECTS, _SCALARS)},
                          optional={"label": _SCALARS}),
    st.fixed_dictionaries({"file": _SCALARS}, optional={"label": _SCALARS}),
)
_MEMBER_LISTS = st.one_of(st.lists(_GOOD_ENTRIES, min_size=1, max_size=3),
                          st.lists(_ENTRIES, max_size=4))
_FAMILY_FILES = st.one_of(
    _VALUES, _MEMBER_LISTS,
    st.fixed_dictionaries({}, optional={"members": st.one_of(_MEMBER_LISTS, _SCALARS),
                                        "trace_bound_phi": _SCALARS}))
# X on register 2, as [re, im] pairs
_SHIFT = [[[float(r == c ^ 1), 0.0] for c in range(4)] for r in range(4)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_FAMILY_FILES)
def test_fuzzed_family_files_end_in_an_exit_code(content):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "u.json").write_text(json.dumps(_SHIFT))
        path = Path(tmp) / "f.json"
        path.write_text(json.dumps(content))
        code = _run("--out", str(Path(tmp) / "r"), "tamper-sim", "--n", "2", "--k", "0",
                    "--epsilon", "0.5", "--seeds", "1", "--family", f"file:{path}")
    assert code in (0, 1, 2)


_TINY_RUNS = [
    ["weingarten-table", "--p", "2", "--N", "3"],
    ["perm-verify", "--n-max", "3", "--t-max", "1"],
    ["qamd-scan", "--q", "5", "--d", "1", "--trials", "3", "--seed", "1"],
    ["moments", "--pattern", "m", "--t", "1", "--N", "4", "--unitary", "pauli:2:10:01",
     "--trials", "1000", "--seed", "1"],
    ["tamper-sim", "--n", "2", "--k", "1", "--family", "paulis:2", "--epsilon", "0.5",
     "--seeds", "0..1"],
]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_TINY_RUNS), st.data())
def test_fuzzed_manifest_parameters_end_in_an_exit_code(argv, data):
    parser = cli._build_parser()
    params = cli._params_from_args(parser.parse_args(argv))
    keys = data.draw(st.lists(st.sampled_from(sorted(params)), max_size=2, unique=True))
    for key in keys:
        params[key] = data.draw(_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(json.dumps(make_manifest(argv[0], params)))
        code = _run("--out", str(Path(tmp) / "r"), "rerun", str(path))
    assert code in (0, 1, 2)
