"""Command-line entry point.

One executable with five subcommands (`weingarten-table`, `perm-verify`,
`qamd-scan`, `moments`, `tamper-sim`) plus `rerun`, which replays a
previously written manifest and must reproduce the report byte for byte.

Exit codes: 0 success, 2 a run-level assertion failed (security scan
below threshold, lemma counterexample, internal cross-check mismatch;
the report is still written), 1 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (ConsistencyError, InputError, InvalidParams, NotNormalized,
                     NotUnitary, OutOfRange, QTamperError)
from .haar import check_seed, sample_haar_unitary
from .linalg import usable_cpus
from .moments import (PATTERNS, MomentSpec, check_moment_params, check_trials,
                      closed_form_moment, exact_moment, mc_moment)
from .pauli import MonomialUnitary, PauliLabel
from .perm import sp_classes, verify_lemmas
from .qamd import QamdParams, security_scan
from .reports import canonical_json_bytes, cells_csv, make_manifest
from .tamper import (MODES, UnitaryFamily, check_cell_count, check_family_size,
                     check_scan_params, check_seed_count, family_security_scan, pauli_family)
from .weingarten import wg_abs_sum, wg_sum, wg_table

DEFAULT_OUT = "reports"
SEED_ENV = "QTAMPER_SEED"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 1.
    def error(self, message):
        raise _UsageError(message)


def _env_seed() -> int:
    return int(os.environ.get(SEED_ENV, "0"))


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = (check_seed(int(end)) for end in text.split("..", 1))
        if hi < lo:
            raise InputError(f"empty seed range {text!r}")
        check_seed_count(hi - lo + 1)
        return list(range(lo, hi + 1))
    return [check_seed(int(part)) for part in text.split(",")]


def _load_unitary_file(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
        matrix = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=np.complex128,
        )
    except (OSError, json.JSONDecodeError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"cannot read unitary file {path!r}: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"unitary file {path!r} is not a square matrix")
    return matrix


def _resolve_unitary(spec: str, N: int):
    """`moments --unitary`: a Pauli word as its MonomialUnitary, else dense."""
    if spec.startswith("pauli:"):
        label = PauliLabel.from_compact(spec)
        if label.q ** label.m != N:
            raise InputError(f"label dimension {label.q ** label.m} != N = {N}")
        return MonomialUnitary(*label.action())
    if spec.startswith("file:"):
        matrix = _load_unitary_file(spec[len("file:"):])
        if matrix.shape[0] != N:
            raise InputError(f"file dimension {matrix.shape[0]} != N = {N}")
        return matrix
    if spec.startswith("random:"):
        return sample_haar_unitary(N, int(spec[len("random:"):]))
    raise InputError(f"unknown unitary spec {spec!r} (pauli:|file:|random:)")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _entry_kind(entry) -> str | None:
    """The kind of a well-formed family file entry, else None: "label" for
    a label string, "pauli" for an object whose `pauli` is an object of
    integer lists, "file" for an object with a `file` string.  An object's
    optional `label` must be a string."""
    if isinstance(entry, str):
        return "label"
    if not isinstance(entry, dict) or not isinstance(entry.get("label", ""), str):
        return None
    if "pauli" in entry:
        word = entry["pauli"]
        if (isinstance(word, dict) and _is_int(word.get("q")) and _is_int(word.get("m", 0))
                and all(isinstance(word.get(key), list) and all(map(_is_int, word[key]))
                        for key in ("x", "z"))):
            return "pauli"
        return None
    return "file" if isinstance(entry.get("file"), str) else None


def _resolve_family(spec: str, n: int, family_seed: int, admit) -> UnitaryFamily:
    """The family of `spec`; `admit` is called with its member count before
    any member is built."""
    N = 2 ** n
    if spec.startswith("paulis:"):
        count = int(spec[len("paulis:"):])
        admit(count)
        return pauli_family(n, count, family_seed)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read family file {path!r}: {exc}") from exc
        phi = None
        entries = data
        if isinstance(data, dict):
            phi = data.get("trace_bound_phi")
            entries = data.get("members", [])
        if not isinstance(entries, list):
            raise InputError(f"family file {path!r} holds no member list")
        if phi is not None and (isinstance(phi, bool) or not isinstance(phi, (int, float))
                                or not 0 <= phi <= 1):   # NaN too
            raise InputError(f"trace_bound_phi {phi!r} is neither a number in [0, 1] nor null")
        kinds = [_entry_kind(entry) for entry in entries]
        check_family_size(len(entries), N, dense=kinds.count("file"))
        admit(len(entries))
        members = []
        base = Path(path).parent
        for i, (entry, kind) in enumerate(zip(entries, kinds)):
            if kind == "file":
                matrix = _load_unitary_file(str(base / entry["file"]))
                if matrix.shape[0] != N:
                    raise InputError(f"family entry {i} has dimension {matrix.shape[0]} != {N}")
                members.append((entry.get("label", entry["file"]), matrix))
                continue
            if kind is None:
                raise InputError(f"family entry {i} not understood: {entry!r}")
            label = (PauliLabel.from_compact(entry) if kind == "label"
                     else PauliLabel.from_json(entry["pauli"]))
            if (label.q, label.m) != (2, n):
                raise InputError(f"family entry {i} is a word on {label.m} registers of "
                                 f"dimension {label.q}, not on {n} qubits")
            members.append((entry if kind == "label" else entry.get("label", label.compact()),
                            np.array(label.x + label.z)))
        return UnitaryFamily(members=members, trace_bound_phi=phi)
    raise InputError(f"unknown family spec {spec!r} (paulis:|file:)")


def _cycle_type_key(cycle_type) -> str:
    return "[" + ",".join(str(part) for part in cycle_type) + "]"


# ---------------------------------------------------------------------------
# subcommand handlers: params dict -> (result, ok, csv_text)
# ---------------------------------------------------------------------------

def _run_weingarten_table(params: dict, jobs: int):
    p, n_dim = params["p"], params["N"]
    values = wg_table(p, n_dim)   # checks p before sp_classes sees it
    sp = sp_classes(p)
    keys = [_cycle_type_key(ct) for ct in sp.types]
    result = {
        "p": p,
        "N": n_dim,
        "table": dict(zip(keys, values)),
        "class_sizes": dict(zip(keys, sp.sizes)),
        "sum": wg_sum(p, n_dim),
        "abs_sum": wg_abs_sum(p, n_dim),
    }
    return result, True, None


def _run_perm_verify(params: dict, jobs: int):
    lemmas = verify_lemmas(params["n_max"], params["t_max"])
    bad = sum(len(rec["counterexamples"]) for rec in lemmas)
    result = {"lemmas": lemmas, "total_counterexamples": bad}
    return result, bad == 0, None


def _run_qamd_scan(params: dict, jobs: int):
    qamd_params = QamdParams(q=params["q"], d=params["d"])
    report = security_scan(
        qamd_params,
        exhaustive=params["mode"] == "exhaustive",
        trials=params.get("trials"),
        seed=params.get("seed", 0),
        cross_check=params["cross_check"],
    )
    return report, report["bound_satisfied"], None


def _run_moments(params: dict, jobs: int):
    # before U, whose sampling takes seconds at N = 4096, and before 1/sqrt(K)
    check_trials(params["trials"])
    pattern, n_dim, k = params["pattern"], params["N"], params["K"]
    check_moment_params(pattern, params["t"], n_dim, k, params["target_index"])
    unitary = _resolve_unitary(params["unitary"], n_dim)
    amplitudes = np.full(k, 1.0 / np.sqrt(k), dtype=np.complex128) if pattern == "m" else None
    spec = MomentSpec(pattern, params["t"], unitary, k, amplitudes, params["target_index"])
    exact = exact_moment(spec)
    estimate, stderr = mc_moment(spec, params["trials"], params["seed"], jobs=jobs)
    result = {
        "pattern": params["pattern"],
        "t": params["t"],
        "N": n_dim,
        "trials": params["trials"],
        "exact": exact,
        "mc_estimate": estimate,
        "mc_stderr": stderr,
        "closed_form": closed_form_moment(spec),
    }
    return result, True, None


def _run_tamper_sim(params: dict, jobs: int):
    if not 0.0 <= params["min_pass_fraction"] <= 1.0:   # NaN too
        raise OutOfRange(f"min_pass_fraction {params['min_pass_fraction']} outside [0, 1]")
    # before 2^n and 2n digits per label, and before any member is drawn
    check_scan_params(params["n"], params["k"], params["epsilon"], len(params["seeds"]),
                      params["mode"])
    family = _resolve_family(
        params["family"], params["n"], params["family_seed"],
        lambda size: check_cell_count(len(params["seeds"]), size, params["k"], params["mode"]))
    report = family_security_scan(
        n=params["n"], k=params["k"], family=family,
        epsilon=params["epsilon"], seeds=params["seeds"],
        mode=params["mode"], jobs=jobs,
    )
    cells = report.pop("cells")
    ok = report["pass_fraction"] >= params["min_pass_fraction"]
    return report, ok, cells_csv(cells)


_HANDLERS = {
    "weingarten-table": _run_weingarten_table,
    "perm-verify": _run_perm_verify,
    "qamd-scan": _run_qamd_scan,
    "moments": _run_moments,
    "tamper-sim": _run_tamper_sim,
}


# ---------------------------------------------------------------------------
# argv parsing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built on first use and then shared: parsing leaves it as it was."""
    parser = _Parser(prog="qtamper", description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT, help="report directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker cap (default: usable CPUs); results are independent of it")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("weingarten-table", help="exact Weingarten table as JSON")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("perm-verify", help="exhaustive permutation lemma checks")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t-max", type=int, default=3)

    p = sub.add_parser("qamd-scan", help="tamper-security scan of the qudit code")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--skip-dense-check", action="store_true")

    p = sub.add_parser("moments", help="exact and Monte Carlo decoder moments")
    p.add_argument("--pattern", choices=PATTERNS, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--unitary", required=True,
                   help="pauli:q:x:z | file:PATH | random:SEED")
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--target-index", type=int, default=0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("tamper-sim", help="family security scan of Haar schemes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", required=True, help="paulis:COUNT | file:PATH")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", choices=MODES, default="classical")
    p.add_argument("--seeds", required=True, help="S0..S1 | comma list | single")
    p.add_argument("--family-seed", type=int, default=None)
    p.add_argument("--min-pass-fraction", type=float, default=0.9)

    p = sub.add_parser("rerun", help="replay a manifest byte-for-byte")
    p.add_argument("manifest", help="manifest JSON file (or a report embedding one)")
    parser.subcommands = sub.choices   # name -> subparser, for rerun's key check
    return parser


def _params_from_args(args) -> dict:
    """The manifest parameters of a parsed command line: its subcommand's
    options, with seeds resolved and checked and the qamd-scan flags named.
    An exhaustive qamd-scan draws nothing, so it has no trials and no seed."""
    params = {k: v for k, v in vars(args).items() if k not in ("out", "jobs", "subcommand")}
    if args.subcommand == "qamd-scan":
        params["mode"] = "exhaustive" if params.pop("exhaustive") else "random"
        params["cross_check"] = not params.pop("skip_dense_check")
        if params["mode"] == "exhaustive":
            del params["trials"]
            if params.pop("seed") is not None:
                raise _UsageError("--seed does not apply to --exhaustive, which draws nothing")
    for key in ("seed", "family_seed"):
        if key in params:
            params[key] = check_seed(_env_seed() if params[key] is None else params[key])
    if args.subcommand == "tamper-sim":
        params["seeds"] = _parse_seeds(params["seeds"])
    return params


def _argv_from_params(parser: _Parser, subcommand: str, params: dict) -> list[str]:
    """The command line that `_params_from_args` would turn into `params`."""
    values = dict(params)
    if subcommand == "qamd-scan":
        values["exhaustive"] = values.get("mode") == "exhaustive"
        values["skip_dense_check"] = values.get("cross_check") is False
    if subcommand == "tamper-sim" and isinstance(values.get("seeds"), list):
        values["seeds"] = ",".join(str(seed) for seed in values["seeds"])
    argv = [subcommand]
    for action in parser.subcommands[subcommand]._actions:
        value = values.get(action.dest)
        if action.option_strings and value is not None and value is not False:
            flag = action.option_strings[0]
            argv.append(flag if action.nargs == 0 else f"{flag}={value}")
    return argv


def _load_manifest(parser: _Parser, path: str) -> dict:
    """The manifest in a `rerun` file, refused unless this build can
    reproduce it: a known subcommand, the running generator and build, and
    parameters that its subcommand's own parser gives back unchanged."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read manifest {path!r}: {exc}") from exc
    manifest = data.get("manifest", data) if isinstance(data, dict) else data
    subcommand = manifest.get("subcommand") if isinstance(manifest, dict) else None
    if not isinstance(subcommand, str) or subcommand not in _HANDLERS:
        raise InputError(f"manifest in {path!r} names no known subcommand")
    params = manifest.get("parameters")
    if not isinstance(params, dict):
        raise InputError(f"manifest parameters of {subcommand} are not an object")
    try:
        argv = _argv_from_params(parser, subcommand, params)
        parsed = _params_from_args(parser.parse_args(argv))
        same = canonical_json_bytes(parsed) == canonical_json_bytes(params)
    except (_UsageError, QTamperError, TypeError, ValueError) as exc:
        raise InputError(f"manifest parameters of {subcommand} do not parse: {exc}") from exc
    if not same:
        raise InputError(f"manifest parameters of {subcommand} differ from their parse")
    current = make_manifest(subcommand, params)
    for field in ("generator_version", "build"):
        if manifest.get(field) != current[field]:
            raise InputError(f"manifest {field} {manifest.get(field)!r} is not the running "
                             f"{current[field]!r}; refusing to replay it")
    return manifest


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_manifest(manifest: dict, out_dir: str, jobs: int) -> int:
    """Execute a manifest and write its report; returns the exit code."""
    subcommand = manifest["subcommand"]
    params = manifest["parameters"]
    out = Path(out_dir)
    path = out / f"{subcommand}.json"
    started = time.monotonic()
    # each report is serialized before the directory is made, so a report
    # that cannot be written leaves no --out behind
    try:
        result, ok, csv_text = _HANDLERS[subcommand](params, jobs)
    except (AssertionError, ConsistencyError) as exc:
        report = canonical_json_bytes({"manifest": manifest, "error": str(exc)})
        out.mkdir(parents=True, exist_ok=True)
        path.write_bytes(report)
        print(f"[qtamper] {subcommand}: FAILED ({exc}); report at {path}", file=sys.stderr)
        return 2
    report = canonical_json_bytes({"manifest": manifest, "result": result})
    out.mkdir(parents=True, exist_ok=True)
    path.write_bytes(report)
    if csv_text is not None:
        csv_path = out / f"{subcommand}-cells.csv"
        csv_path.write_bytes(csv_text.encode("utf-8"))
        print(f"[qtamper] per-cell table at {csv_path}", file=sys.stderr)
    elapsed = time.monotonic() - started
    status = "ok" if ok else "ASSERTION FAILED"
    print(f"[qtamper] {subcommand}: {status}; report at {path} ({elapsed:.2f}s)",
          file=sys.stderr)
    return 0 if ok else 2


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        jobs = usable_cpus() if args.jobs is None else args.jobs
        if jobs < 1:
            raise _UsageError(f"--jobs must be at least 1, got {jobs}")
        if args.subcommand == "rerun":
            return run_manifest(_load_manifest(parser, args.manifest), args.out, jobs)
        params = _params_from_args(args)
        manifest = make_manifest(args.subcommand, params)
        return run_manifest(manifest, args.out, jobs)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, InvalidParams, OutOfRange, NotUnitary, NotNormalized,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except QTamperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
