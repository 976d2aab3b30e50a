"""qtamper benchmark: three closed-loop workloads of CLI operations.

    python3 perfbench/run.py --workload qamd-scan|tamper-sim|moment-calculus|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. A run starts two fresh pass processes
(`pass_runner.py`) in turn. Each runs the workload's fixed operation list
once, back to back, one client, every operation with `--jobs 2`, and checks
and hashes every report; both must write byte-identical reports. With
`--trace 0` both passes are untraced and the run reports the median of
their end-to-end metrics; the rest of the `--seconds` window (at least
five samples) re-times set-up in further fresh processes. With `--trace 1`
the second pass puts spans around every public `qtamper` function and the
run reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Reports, summaries, span
files and the digest history of each seed go under `perfbench/.out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / ".out"
RUN_TIMEOUT_S = 170.0
MIN_SETUP_SAMPLES = 5
MAX_SETUP_SAMPLES = 40

RANDOM_SCAN = ("qamd_random",)
QAMD = ("qamd_exhaustive", "qamd_random")
TAMPER = ("tamper_decode", "tamper_weak")
MOMENTS = ("mc", "exact_t3")


class RunFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# metrics: (name, unit, better, value from the pass results)
# ---------------------------------------------------------------------------

def _ops(result, kinds=None, subcommand=None):
    return [op for op in result["ops"]
            if (kinds is None or op["kind"] in kinds)
            and (subcommand is None or op["subcommand"] == subcommand)]


def _sum_ops(results, field, kinds=None, subcommand=None):
    """Sum of `field` over the matching operations of every pass."""
    return sum(op[field] for result in results for op in _ops(result, kinds, subcommand))


def _ratio(num, den):
    return num / den if den else 0.0


def _rate(kinds):
    return lambda un, tr: _ratio(_sum_ops(un, "work", kinds), _sum_ops(un, "seconds", kinds))


def _layer(result, name, field, kinds=None):
    row = result["layers"].get(name)
    if row is None:
        return 0
    return sum(row[field][i] for i, op in enumerate(result["ops"])
               if kinds is None or op["kind"] in kinds)


def _span(name, field="s"):
    return lambda un, tr: _layer(tr, name, field)


def _members(result):
    return sum(int(op["params"]["family"].split(":")[1]) for op in _ops(result, TAMPER))


def _wg_hit_ratio(un, tr):
    info = tr["lru"]["weingarten.wg_table"]
    return _ratio(info["hits"], info["hits"] + info["misses"])


def _pass_time(kinds):
    return lambda un, tr: statistics.median(_sum_ops([p], "seconds", kinds) for p in un)


def _median_of(field):
    return lambda un, setup: statistics.median(p[field] for p in un)


END_TO_END = [
    ("setup_s", "s", "lower", lambda un, setup: statistics.median(setup)),
    ("wall_s", "s", "lower", _median_of("wall_s")),
    ("cpu_s", "s", "lower", _median_of("cpu_s")),
    ("peak_rss_mb", "MB", "lower", _median_of("peak_rss_mb")),
]

# Printed on every run but not in the result line: the failure share is 0
# on correct code, and each rate exists on one workload only.
WORKLOAD_ROWS = [
    ("ops_failed_frac", "ratio", "lower",
     lambda un, tr: _ratio(sum(1 for p in un for op in p["ops"] if op["failures"]),
                           sum(len(p["ops"]) for p in un))),
    ("qamd_exhaustive_cells_per_s", "cells/s", "higher", _rate(("qamd_exhaustive",))),
    ("qamd_random_cells_per_s", "cells/s", "higher", _rate(RANDOM_SCAN)),
    ("tamper_decode_cells_per_s", "cells/s", "higher", _rate(("tamper_decode",))),
    ("tamper_weak_cells_per_s", "cells/s", "higher", _rate(("tamper_weak",))),
    ("mc_trials_per_s", "trials/s", "higher", _rate(("mc",))),
    ("exact_t3_s", "s", "lower", _pass_time(("exact_t3",))),
    ("combinatorics_s", "s", "lower", _pass_time(("combinatorics",))),
]

PER_LAYER = [
    ("qamd.security_scan.s", "s", "lower", _span("qamd.security_scan")),
    ("qamd.symbolic_self_s", "s", "lower", _span("qamd.security_scan", "self_s")),
    ("qamd.dense_word_action.s", "s", "lower", _span("qamd.dense_word_action")),
    ("qamd.dense_word_action.calls", "count", "lower", _span("qamd.dense_word_action", "calls")),
    ("field.fq_roots.s", "s", "lower", _span("field.fq_roots")),
    ("field.fq_roots.calls", "count", "lower", _span("field.fq_roots", "calls")),
    ("qamd.wrong_decode_prob_exact.s", "s", "lower", _span("qamd.wrong_decode_prob_exact")),
    ("qamd.dense_overlaps.s", "s", "lower", _span("qamd.dense_overlaps")),
    ("qamd.encode.calls_per_cell", "ratio", "lower",
     lambda un, tr: _ratio(_layer(tr, "qamd.encode", "calls", RANDOM_SCAN),
                           _sum_ops([tr], "work", RANDOM_SCAN))),
    ("qamd.cells", "count", "higher", lambda un, tr: _sum_ops([tr], "work", QAMD)),
    ("linalg.require_unitary.s", "s", "lower", _span("linalg.require_unitary")),
    ("linalg.require_unitary.calls", "count", "lower", _span("linalg.require_unitary", "calls")),
    ("linalg.require_unitary.calls_per_member", "ratio", "lower",
     lambda un, tr: _ratio(_layer(tr, "linalg.require_unitary", "calls", TAMPER), _members(tr))),
    ("tamper.detect_classical.s", "s", "lower", _span("tamper.detect_classical")),
    ("tamper.detect_classical.calls", "count", "lower", _span("tamper.detect_classical", "calls")),
    ("tamper.detect_quantum.s", "s", "lower", _span("tamper.detect_quantum")),
    ("tamper.detect_quantum.calls", "count", "lower", _span("tamper.detect_quantum", "calls")),
    ("tamper.detect_weak.s", "s", "lower", _span("tamper.detect_weak")),
    ("tamper.detect_weak.calls", "count", "lower", _span("tamper.detect_weak", "calls")),
    ("tamper.build_scheme.s", "s", "lower", _span("tamper.build_scheme")),
    ("tamper.pauli_family.s", "s", "lower", _span("tamper.pauli_family")),
    ("tamper.cells", "count", "higher", lambda un, tr: _sum_ops([tr], "work", TAMPER)),
    ("pauli.pauli_matrix.s", "s", "lower", _span("pauli.pauli_matrix")),
    ("pauli.pauli_matrix.calls", "count", "lower", _span("pauli.pauli_matrix", "calls")),
    ("haar.sample_haar_unitary.s", "s", "lower", _span("haar.sample_haar_unitary")),
    ("haar.sample_haar_unitary.calls", "count", "lower",
     _span("haar.sample_haar_unitary", "calls")),
    ("haar.sample_isometry_stack.s", "s", "lower", _span("haar.sample_isometry_stack")),
    ("haar.sample_isometry_stack.calls", "count", "lower",
     _span("haar.sample_isometry_stack", "calls")),
    ("haar.complex_gaussian.s", "s", "lower", _span("haar.complex_gaussian")),
    ("moments.mc_moment.s", "s", "lower", _span("moments.mc_moment")),
    ("moments.trials", "count", "higher", lambda un, tr: _sum_ops([tr], "work", MOMENTS)),
    ("moments.exact_moment.s", "s", "lower", _span("moments.exact_moment")),
    ("moments.exact_moment.calls", "count", "lower", _span("moments.exact_moment", "calls")),
    ("weingarten.wg_table.s", "s", "lower", _span("weingarten.wg_table")),
    ("weingarten.wg_table.calls", "count", "lower", _span("weingarten.wg_table", "calls")),
    ("weingarten.wg_table.misses", "count", "lower",
     lambda un, tr: tr["lru"]["weingarten.wg_table"]["misses"]),
    ("weingarten.wg_table.hit_ratio", "ratio", "higher", _wg_hit_ratio),
    ("perm.verify_lemmas.s", "s", "lower", _span("perm.verify_lemmas")),
    ("perm.checked", "count", "higher",
     lambda un, tr: _sum_ops([tr], "work", subcommand="perm-verify")),
    ("reports.canonical_json_bytes.s", "s", "lower", _span("reports.canonical_json_bytes")),
    ("reports.bytes", "bytes", "lower", lambda un, tr: _sum_ops([tr], "bytes")),
    ("cli.self_s", "s", "lower", _span("cli.run_manifest", "self_s")),
    ("trace_overhead_frac", "ratio", "lower", lambda un, tr: tr["wall_s"] / un[0]["wall_s"] - 1.0),
] + [(f"untraced.{name}", unit, better, fn) for name, unit, better, fn in WORKLOAD_ROWS
      if name != "ops_failed_frac"]


# ---------------------------------------------------------------------------
# pass processes
# ---------------------------------------------------------------------------

def _spawn(args: list[str], deadline: float) -> float:
    """Run pass_runner.py with `args` to completion; return its set-up time,
    from process start to its `ready` line."""
    env = dict(os.environ)
    env.pop("QTAMPER_SEED", None)  # every seed the CLI sees comes from the workload
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "pass_runner.py")] + args,
                            stdout=subprocess.PIPE, text=True, env=env)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RunFailed(f"pass process {' '.join(args)} exited with {code}: "
                        f"{(line + rest)[-500:]}")
    return setup


def _pass(workload, seed, name, trace, work: Path, deadline) -> tuple[dict, float]:
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
            "--out", str(work / name), "--result", str(work / f"{name}.json")]
    if trace:
        args += ["--spans", str(OUT / f"{workload}-seed{seed}-spans.jsonl.gz")]
    setup = _spawn(args, deadline)
    with open(work / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh), setup


def _digests(result) -> list:
    return [[op["report_sha256"], op["csv_sha256"]] for op in result["ops"]]


def _source_digest() -> str:
    """Hash of the qtamper sources, so a checkout whose code changes never
    compares its reports with those of other code."""
    h = hashlib.sha256()
    for path in sorted((Path.cwd() / "src" / "qtamper").rglob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _check_history(workload, seed, digests, failures) -> list[str]:
    """Compare with the first clean run of this seed and source tree."""
    path = OUT / "digests" / f"{workload}-seed{seed}-{_source_digest()}.json"
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        return [f"op {i}: reports differ from an earlier run of seed {seed}"
                for i, (a, b) in enumerate(zip(earlier, digests)) if a != b]
    if not failures:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(digests), encoding="utf-8")
        tmp.replace(path)
    return []


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S
    load_start = os.getloadavg()
    work = OUT / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Two fresh processes on the same inputs: the untraced one is measured
    # twice (the host's speed drifts between runs), or measured and traced.
    names = ("untraced", "traced") if trace else ("untraced", "untraced2")
    try:
        passes, samples = [], []
        for name in names:
            result, setup = _pass(workload, seed, name, int(name == "traced"), work, deadline)
            passes.append(result)
            samples.append(setup)
        if not trace:
            probe = ["--workload", workload, "--seed", str(seed), "--setup-only"]
            while len(samples) < MIN_SETUP_SAMPLES or (
                    time.monotonic() - started < seconds and len(samples) < MAX_SETUP_SAMPLES):
                samples.append(_spawn(probe, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    untraced = passes if not trace else passes[:1]
    traced = passes[1] if trace else None

    failures = [f"{name} op {i} ({op['subcommand']}): {'; '.join(op['failures'])}"
                for name, p in zip(names, passes) for i, op in enumerate(p["ops"])
                if op["failures"]]
    digests = _digests(passes[0])
    mismatches = _check_history(workload, seed, digests, failures)
    mismatches += [f"op {i}: {names[1]} and untraced reports differ"
                   for i, (a, b) in enumerate(zip(digests, _digests(passes[1]))) if a != b]
    machine = dict(passes[0]["machine"], loadavg_start=load_start, loadavg_end=os.getloadavg())
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "machine": machine,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": len(failures),
        "correct": not failures and not mismatches,
        "failures": failures,
        "digest_mismatches": mismatches,
        "digests": digests,
        "setup_samples": samples,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "end_to_end": {name: (fn(untraced, samples), unit)
                       for name, unit, _, fn in END_TO_END},
        "workload_rows": {name: (fn(untraced, None), unit)
                          for name, unit, _, fn in WORKLOAD_ROWS},
        "ops": [{k: op[k] for k in ("kind", "params", "seconds", "work", "exit_code")}
                for op in passes[0]["ops"]],
    }
    if traced is not None:
        summary["per_layer"] = {name: (fn(untraced, traced), unit)
                                for name, unit, _, fn in PER_LAYER}
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(summaries: list[dict]) -> list[str]:
    """Human-readable lines: machine facts, failures, then one row per
    workload with every metric as `name=value unit`."""
    lines = []
    for s in summaries:
        m = s["machine"]
        lines.append(
            f"# {s['workload']} seed={s['seed']} trace={s['trace']}: nproc={m['nproc']} "
            f"python={m['python']} numpy={m['numpy']} blas_threads={m['blas_threads']} "
            f"jobs={m['jobs']} loadavg_start={'/'.join(f'{x:.2f}' for x in m['loadavg_start'])} "
            f"loadavg_end={'/'.join(f'{x:.2f}' for x in m['loadavg_end'])}"
        )
        lines += [f"# FAILED {f}" for f in s["failures"]]
        lines += [f"# DIGEST MISMATCH {f}" for f in s["digest_mismatches"]]
    for s in summaries:
        cells = [f"{name}={_fmt(v)} {unit}" for name, (v, unit) in
                 list(s["end_to_end"].items()) + list(s["workload_rows"].items())
                 if v or name == "ops_failed_frac"]
        lines.append(f"{s['workload']:<16} " + "  ".join(cells))
    for s in summaries:
        for name, (value, unit) in s.get("per_layer", {}).items():
            lines.append(f"{s['workload']:<16} {name} = {_fmt(value)} {unit}")
    return lines


def result_line(summaries: list[dict], trace: int) -> dict:
    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}/"
        for name, (value, unit) in s[key].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (Path.cwd() / "src" / "qtamper" / "cli.py").is_file():
        print("error: no ./src/qtamper here; run from the repository root", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in render(summaries):
        print(line)
    print(json.dumps(result_line(summaries, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
