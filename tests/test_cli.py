import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtamper import cli, qamd


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


def test_perm_verify_clean(tmp_path):
    out = tmp_path / "r"
    assert _run("--out", str(out), "perm-verify", "--n-max", "6") == 0
    report = _load(out / "perm-verify.json")
    assert report["result"]["total_counterexamples"] == 0


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
    out = tmp_path / "r"
    code = _run("--out", str(out), "tamper-sim", "--n", "4", "--k", "1",
                "--family", "paulis:3", "--epsilon", "0.4",
                "--seeds", "0..1", "--min-pass-fraction", "1.5")
    assert code == 2
    assert (out / "tamper-sim.json").exists()  # report still written


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


def test_manifest_round_trip_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["tamper-sim", "--n", "4", "--k", "1", "--family", "paulis:4",
            "--epsilon", "0.4", "--seeds", "0..2", "--min-pass-fraction", "0.0"]
    assert _run("--out", str(out1), *args) == 0
    assert _run("--out", str(out2), "rerun", str(out1 / "tamper-sim.json")) == 0
    assert (out1 / "tamper-sim.json").read_bytes() == (out2 / "tamper-sim.json").read_bytes()
    assert (out1 / "tamper-sim-cells.csv").read_bytes() == (out2 / "tamper-sim-cells.csv").read_bytes()


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


def test_qamd_scan_checks_survive_optimize_flag(tmp_path):
    args = ["qamd-scan", "--q", "3", "--d", "2", "--exhaustive"]
    assert _run("--out", str(tmp_path / "plain"), *args) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "qtamper.cli", "--out", str(tmp_path / "opt"), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "opt" / "qamd-scan.json").read_bytes()
            == (tmp_path / "plain" / "qamd-scan.json").read_bytes())
