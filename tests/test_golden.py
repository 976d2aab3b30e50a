"""Golden digests: the SHA-256 of each case's report and CSV, recorded in
`golden.json` beside this file at one GENERATOR_VERSION.  New bytes without
a version bump fail here, and so does a bump without a new record.  After a
bump, record the file again and list in CHANGES.md the digests that moved:

    PYTHONPATH=src python tests/test_golden.py --record

The cases in IN_PROCESS keep their bytes under every OpenBLAS kernel, and
run in-process through `cli.run`.  Those in UNDER_KERNEL move with the
kernel (the Haar QR and the tampered decodes sum in its order), so they run
in one subprocess with OPENBLAS_CORETYPE=Haswell, which needs an x86-64 CPU
with AVX2 and FMA: not Intel before Haswell (Sandy and Ivy Bridge, and
Atom, Celeron and Pentium parts without AVX2), not AMD before Excavator
(Bulldozer and Piledriver), and no ARM or POWER CPU.  There, and under a
BLAS that cannot be forced to Haswell, those cases are skipped.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from qtamper import cli
from qtamper.haar import GENERATOR_VERSION

GOLDEN = Path(__file__).with_name("golden.json")
KERNEL = "Haswell"
_TAMPER_N8 = ["tamper-sim", "--n", "8", "--k", "2", "--family", "paulis:50", "--epsilon", "0.3",
              "--seeds", "0..3", "--family-seed", "7", "--min-pass-fraction", "0", "--mode"]
IN_PROCESS = {
    "weingarten-table": ["weingarten-table", "--p", "6", "--N", "8"],
    "perm-verify": ["perm-verify", "--n-max", "6", "--t-max", "3"],
    "qamd-scan-exhaustive-q7d1": ["qamd-scan", "--q", "7", "--d", "1", "--exhaustive"],
    "qamd-scan-exhaustive-q3d2": ["qamd-scan", "--q", "3", "--d", "2", "--exhaustive"],
    # its maximum sums three roots: summed in another order, it moves a bit
    "qamd-scan-random-q7d2": ["qamd-scan", "--q", "7", "--d", "2", "--trials", "200",
                              "--seed", "3"],
    "moments-pauli": ["moments", "--pattern", "m", "--t", "2", "--N", "16", "--K", "4",
                      "--unitary", "pauli:2:1010:0110", "--trials", "2000", "--seed", "5"],
}
UNDER_KERNEL = {
    **{f"tamper-sim-{mode}": [*_TAMPER_N8, mode]
       for mode in ("classical", "relaxed", "weak", "quantum")},
    "tamper-sim-n10": ["tamper-sim", "--n", "10", "--k", "4", "--family", "paulis:20",
                       "--epsilon", "0.3", "--seeds", "0..1", "--family-seed", "8",
                       "--min-pass-fraction", "0"],
    "moments-random": ["moments", "--pattern", "js", "--t", "3", "--N", "16",
                       "--unitary", "random:4", "--trials", "2000", "--seed", "6"],
}

# runs the cases of its argv[2] (a JSON object of argv lists) into folders of
# its argv[1], and prints the OpenBLAS kernel and the exit codes as JSON
_KERNEL_RUN = """
import ctypes, json, sys
from qtamper import cli

kernel = None
with open("/proc/self/maps", encoding="utf-8") as fh:
    for path in sorted({line.split()[-1] for line in fh if "openblas" in line.lower()}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            if kernel is None and hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_char_p
                kernel = getattr(lib, name)().decode()
codes = {name: cli.run(["--out", f"{sys.argv[1]}/{name}", *argv])
         for name, argv in json.loads(sys.argv[2]).items()} if kernel == sys.argv[3] else {}
print(json.dumps({"kernel": kernel, "codes": codes}))
"""


def _digests(folder: Path, subcommand: str) -> dict:
    """The SHA-256 of the report, and of the CSV or None, in `folder`."""
    def sha(path):
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return {"report": sha(folder / f"{subcommand}.json"),
            "csv": sha(folder / f"{subcommand}-cells.csv")}


def _kernel_unavailable() -> str | None:
    """Why this CPU cannot run the recorded kernel, or None."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return f"{KERNEL} kernels need an x86-64 CPU, not {platform.machine()}"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            flags = next((line.split(":", 1)[1].split() for line in fh
                          if line.startswith("flags")), [])
    except OSError:
        return "no /proc/cpuinfo to read the CPU's AVX2 and FMA flags from"
    missing = {"avx2", "fma"} - set(flags)
    return f"the CPU lacks {sorted(missing)} for {KERNEL} kernels" if missing else None


def run_in_process(folder: Path) -> dict:
    """The digests of the IN_PROCESS cases, run into folders of `folder`."""
    digests = {}
    for name, argv in IN_PROCESS.items():
        assert cli.run(["--out", str(folder / name), *argv]) == 0, name
        digests[name] = _digests(folder / name, argv[0])
    return digests


def run_under_kernel(folder: Path, cases: dict = UNDER_KERNEL,
                     env: dict | None = None) -> dict | str:
    """The digests of `cases`, run in one subprocess under the recorded
    kernel with `env` added to its environment, or why they cannot run."""
    reason = _kernel_unavailable()
    if reason:
        return reason
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}), "OPENBLAS_CORETYPE": KERNEL,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _KERNEL_RUN, str(folder),
                           json.dumps(cases), KERNEL],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if result["kernel"] != KERNEL:
        return f"OPENBLAS_CORETYPE={KERNEL} gave the kernel {result['kernel']!r}"
    assert result["codes"] == dict.fromkeys(cases, 0), result["codes"]
    return {name: _digests(folder / name, argv[0]) for name, argv in cases.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_is_at_the_running_version(golden):
    assert golden["generator_version"] == GENERATOR_VERSION, (
        f"{GOLDEN.name} was recorded at {golden['generator_version']}; "
        f"record it again at {GENERATOR_VERSION}")
    assert golden["kernel"] == KERNEL
    assert {name: case["argv"] for name, case in golden["cases"].items()} == {
        **IN_PROCESS, **UNDER_KERNEL}


def _expected(golden, names):
    return {name: {key: golden["cases"][name][key] for key in ("report", "csv")}
            for name in names}


def test_in_process_cases_keep_their_digests(golden, tmp_path):
    assert run_in_process(tmp_path) == _expected(golden, IN_PROCESS)


def test_kernel_cases_keep_their_digests(golden, tmp_path):
    digests = run_under_kernel(tmp_path)
    if isinstance(digests, str):
        pytest.skip(digests)
    assert digests == _expected(golden, UNDER_KERNEL)


def test_decode_bytes_do_not_depend_on_openblas_threads(tmp_path):
    """Below BLAS_THREADED_DIM OpenBLAS runs parked, so the Haswell decode
    of `tamper-sim-n10` (N K = 2^14, which two threads split in another
    order) has the same bytes at OPENBLAS_NUM_THREADS 1 and 2."""
    case = {"tamper-sim-n10": UNDER_KERNEL["tamper-sim-n10"]}
    digests = [run_under_kernel(tmp_path / threads, case, {"OPENBLAS_NUM_THREADS": threads})
               for threads in ("1", "2")]
    if isinstance(digests[0], str):
        pytest.skip(digests[0])
    assert digests[0] == digests[1]


def record(folder: Path) -> None:
    """Write `golden.json` from runs of every case into `folder`."""
    under_kernel = run_under_kernel(folder)
    if isinstance(under_kernel, str):
        raise SystemExit(f"cannot record: {under_kernel}")
    digests = {**run_in_process(folder), **under_kernel}
    cases = [f'  {json.dumps(name)}: {json.dumps({"argv": argv, **digests[name]})}'
             for name, argv in {**IN_PROCESS, **UNDER_KERNEL}.items()]
    GOLDEN.write_text(f'{{"generator_version": {json.dumps(GENERATOR_VERSION)}, '
                      f'"kernel": {json.dumps(KERNEL)}, "cases": {{\n'
                      + ",\n".join(cases) + "\n}}\n", encoding="utf-8")


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help=f"run every case and write {GOLDEN.name}")
    parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    print(f"recorded {GOLDEN} at {GENERATOR_VERSION}")
