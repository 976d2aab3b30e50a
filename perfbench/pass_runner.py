"""One pass of a workload's operation list, in a fresh process.

    python3 perfbench/pass_runner.py --workload W --seed S --trace 0|1 \
        --out DIR --result FILE [--spans FILE]
    python3 perfbench/pass_runner.py --workload W --seed S --setup-only

Run from the repository root. The process imports `qtamper` from `./src`,
builds the operation list from the seed and prints `ready`; the launcher
times set-up up to that line. It then runs every operation back to back
through `qtamper.cli.run`, one client, and only after the last one reads
the reports, checks them and hashes them. The result goes to FILE as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import workloads


def import_cli(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import qtamper.cli

    if not Path(qtamper.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qtamper was imported from {qtamper.cli.__file__}, not {src}")
    return qtamper.cli


def _blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, or 'unknown'."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return str(getter())
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "jobs": workloads.JOBS,
    }


def read_outputs(op_dir: Path, subcommand: str):
    report = op_dir / f"{subcommand}.json"
    cells = op_dir / f"{subcommand}-cells.csv"
    report_bytes = report.read_bytes() if report.exists() else None
    csv_bytes = cells.read_bytes() if cells.exists() else None
    return report_bytes, csv_bytes


def _sha256(data) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def run_pass(cli, ops, out: Path, tracer) -> dict:
    timings, exit_codes, logs = [], [], []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    wall0 = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        log = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stderr(log):
                code = cli.run(op.argv(str(out / f"op{i}")))
        except Exception:  # an op that crashes still counts, as failed
            code = None
            log.write(traceback.format_exc())
        timings.append(perf_counter() - start)
        exit_codes.append(code)
        logs.append(log.getvalue()[-2000:])
    wall = perf_counter() - wall0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.op = -1

    records = []
    for i, op in enumerate(ops):
        report_bytes, csv_bytes = read_outputs(out / f"op{i}", op.subcommand)
        csv_rows = None
        if csv_bytes is not None:
            csv_rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
        failures, work = checks.check(op, exit_codes[i], report_bytes, csv_rows)
        records.append({
            "kind": op.kind,
            "subcommand": op.subcommand,
            "params": op.params,
            "exit_code": exit_codes[i],
            "seconds": timings[i],
            "work": work,
            "failures": failures,
            "log_tail": logs[i] if failures else "",
            "report_sha256": _sha256(report_bytes),
            "csv_sha256": _sha256(csv_bytes),
            "bytes": len(report_bytes or b"") + len(csv_bytes or b""),
        })
    return {
        "ops": records,
        "wall_s": wall,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args()

    cli = import_cli(Path.cwd())
    ops = workloads.operations(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    origin = perf_counter()
    result = run_pass(cli, ops, Path(args.out), tracer)
    result["machine"] = machine_facts()
    if tracer is not None:
        result["layers"] = tracer.summary(len(ops))
        result["lru"] = {name: fn.cache_info()._asdict() for name, fn in tracer.cached.items()}
        if args.spans:
            tracer.write(args.spans, origin)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
