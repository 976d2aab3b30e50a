"""Self-test of the benchmark's checker and printer.

    python3 perfbench/selftest.py

Run from the repository root. It runs one small real operation of each
subcommand, requires the checker to pass it, then flips one verdict or
size at a time in the report and requires the checker to fail it. It also
requires every metric of BENCHMARK.json to print with its name and unit,
and BENCHMARK.json to list exactly the metrics run.py reports. Exits 1
if any of this does not hold.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import run
from pass_runner import import_cli, read_outputs
from workloads import Op

SMALL_OPS = {
    "qamd-exhaustive": Op("qamd_exhaustive", "qamd-scan", {"q": 5, "d": 1, "exhaustive": True}),
    "qamd-random": Op("qamd_random", "qamd-scan", {"q": 5, "d": 1, "trials": 50, "seed": 5}),
    "tamper": Op("tamper_decode", "tamper-sim",
                 {"n": 3, "k": 1, "family": "paulis:4", "epsilon": 0.5, "mode": "classical",
                  "seeds": [1, 2], "family-seed": 3, "min-pass-fraction": 0}),
    "moments": Op("mc", "moments", {"pattern": "js", "t": 1, "N": 4, "unitary": "random:3",
                                    "trials": 2000, "seed": 4}),
    "weingarten": Op("combinatorics", "weingarten-table", {"p": 3, "N": 4}),
    "perm": Op("combinatorics", "perm-verify", {"n-max": 3, "t-max": 1}),
}


def _set(key, value):
    def mutate(result):
        result[key] = value
    return mutate


def _off_by_sigmas(result):
    result["mc_estimate"] = result["exact"] + 10 * result["mc_stderr"]


def _closed_form_off(result):
    result["closed_form"] = result["closed_form"] * (1 + 1e-9)


def _table_entry_off(result):
    key = next(iter(result["table"]))
    result["table"][key] = "1/7"


# (op, what changes, change to the report's result)
FLIPS = [
    ("qamd-exhaustive", "bound_satisfied false", _set("bound_satisfied", False)),
    ("qamd-exhaustive", "dense mismatch 1e-6", _set("max_dense_mismatch", 1e-6)),
    ("qamd-exhaustive", "dense check skipped", _set("max_dense_mismatch", None)),
    ("qamd-exhaustive", "one cell short",
     lambda r: r.update(pairs_checked=r["pairs_checked"] - 1)),
    ("qamd-exhaustive", "max_prob above bound", _set("max_prob", 0.99)),
    ("qamd-random", "trial count changed",
     lambda r: r.update(pairs_checked=r["pairs_checked"] + 1)),
    ("tamper", "conservation off by 1e-6", _set("max_conservation_violation", 1e-6)),
    ("moments", "MC estimate 10 sigma off", _off_by_sigmas),
    ("moments", "closed form off by 1e-9", _closed_form_off),
    ("moments", "trial count changed", _set("trials", 1999)),
    ("weingarten", "sum changed", _set("sum", "1/2")),
    ("weingarten", "abs_sum changed", _set("abs_sum", "1/2")),
    ("weingarten", "table entry changed", _table_entry_off),
    ("perm", "one counterexample", _set("total_counterexamples", 1)),
]


def check_checker(cli, out: Path) -> list[str]:
    problems = []
    outputs = {}
    for name, op in SMALL_OPS.items():
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(op.argv(str(out / name)))
        report_bytes, csv_bytes = read_outputs(out / name, op.subcommand)
        rows = None if csv_bytes is None else list(csv.reader(io.StringIO(csv_bytes.decode())))
        failures, work = checks.check(op, code, report_bytes, rows)
        if failures or work <= 0:
            problems.append(f"{name}: a correct report fails the checker: {failures}, work {work}")
        if report_bytes is not None:
            outputs[name] = (code, json.loads(report_bytes), rows)

    for name, what, mutate in FLIPS:
        if name not in outputs:
            continue
        code, report, rows = outputs[name]
        flipped = copy.deepcopy(report)
        mutate(flipped["result"])
        failures, _ = checks.check(SMALL_OPS[name], code, json.dumps(flipped).encode(), rows)
        if not failures:
            problems.append(f"{name}: report with {what} passes the checker")

    if "tamper" not in outputs:
        return problems
    op = SMALL_OPS["tamper"]
    code, report, rows = outputs["tamper"]
    whole = json.dumps(report).encode()
    cases = [
        ("a CSV row missing", code, whole, rows[:-1]),
        ("no CSV", code, whole, None),
        ("exit code 2", 2, whole, rows),
        ("no report", code, None, rows),
        ("an error report", code, json.dumps({"error": "boom"}).encode(), rows),
    ]
    for what, code, data, csv_rows in cases:
        if not checks.check(op, code, data, csv_rows)[0]:
            problems.append(f"tamper: {what} passes the checker")
    return problems


def check_printing(bench: dict) -> list[str]:
    problems = []
    declared = {
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
    }
    reported = {
        "end_to_end": [(n, u, b) for n, u, b, _ in run.END_TO_END],
        "per_layer": [(n, u, b) for n, u, b, _ in run.PER_LAYER],
    }
    for key in declared:
        if declared[key] != reported[key]:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")

    summary = {
        "workload": "qamd-scan", "seed": 1, "trace": 1, "correct": True,
        "attempted": 1, "failed": 0, "failures": [], "digest_mismatches": [],
        "machine": {"nproc": 2, "python": "3", "numpy": "2", "blas_threads": "2", "jobs": 2,
                    "loadavg_start": (0.0, 0.0, 0.0), "loadavg_end": (0.0, 0.0, 0.0)},
        "end_to_end": {n: (1.5, u) for n, u, _, _ in run.END_TO_END},
        "workload_rows": {n: (1.5, u) for n, u, _, _ in run.WORKLOAD_ROWS},
        "per_layer": {n: (1.5, u) for n, u, _, _ in run.PER_LAYER},
    }
    text = "\n".join(run.render([summary]))
    for name, unit, _, _ in run.END_TO_END + run.WORKLOAD_ROWS:
        if f"{name}=1.5 {unit}" not in text:
            problems.append(f"end-to-end metric {name} [{unit}] is not printed")
    for name, unit, _, _ in run.PER_LAYER:
        if f"{name} = 1.5 {unit}" not in text:
            problems.append(f"per-layer metric {name} [{unit}] is not printed")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        metrics = run.result_line([summary], trace)["metrics"]
        want = {m["name"]: m["unit"] for m in bench[key]}
        if {n: m["unit"] for n, m in metrics.items()} != want:
            problems.append(f"result line with --trace {trace} does not carry every {key} metric")
    return problems


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "qtamper" / "cli.py").is_file():
        print("error: no ./src/qtamper here; run from the repository root", file=sys.stderr)
        return 2
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    try:
        problems = check_checker(import_cli(root), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        problems += check_printing(json.load(fh))
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"selftest: {len(FLIPS) + 5 + len(SMALL_OPS)} checker cases, "
          f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
