"""Correctness gate for one operation's report, and the work it did.

`check` returns the list of reasons an operation failed (empty when it
passed) and its work count: the cells or trials the rates divide by. The
expected sizes come from the operation as it was requested, never from
the report, so a report that misstates its own size fails.
"""

from __future__ import annotations

import json
from fractions import Fraction

MISMATCH_TOL = 1e-9
CONSERVATION_TOL = 1e-9
MC_SIGMAS = 4.0
CLOSED_FORM_RTOL = 1e-12


def _qamd_scan(params: dict, result: dict, csv_rows) -> tuple[list[str], int]:
    q, d = params["q"], params["d"]
    failures = []
    if result.get("bound_satisfied") is not True:
        failures.append("bound_satisfied is not true")
    if result.get("max_prob", 1.0) > ((d + 1) / q) ** 2 + 1e-12:
        failures.append(f"max_prob {result.get('max_prob')} above ((d+1)/q)^2")
    mismatch = result.get("max_dense_mismatch")
    if mismatch is None or mismatch > MISMATCH_TOL:
        failures.append(f"max_dense_mismatch {mismatch} above {MISMATCH_TOL}")
    if params.get("exhaustive"):
        expected = (q ** (2 * (d + 2)) - 1) * q ** d
    else:
        expected = params["trials"]
    if result.get("pairs_checked") != expected:
        failures.append(f"pairs_checked {result.get('pairs_checked')} != {expected}")
    return failures, expected


def _tamper_sim(params: dict, result: dict, csv_rows) -> tuple[list[str], int]:
    failures = []
    violation = result.get("max_conservation_violation")
    if violation is None or violation > CONSERVATION_TOL:
        failures.append(f"max_conservation_violation {violation} above {CONSERVATION_TOL}")
    members = int(params["family"].split(":", 1)[1])
    per_member = 2 ** params["k"] if params["mode"] in ("classical", "relaxed") else 1
    expected = len(params["seeds"]) * members * per_member
    if csv_rows is None:
        failures.append("no per-cell CSV")
    elif len(csv_rows) != expected + 1:
        failures.append(f"CSV has {len(csv_rows) - 1} cell rows, expected {expected}")
    return failures, expected


def _moments(params: dict, result: dict, csv_rows) -> tuple[list[str], int]:
    failures = []
    exact, estimate, stderr = result["exact"], result["mc_estimate"], result["mc_stderr"]
    if not abs(estimate - exact) <= MC_SIGMAS * stderr:
        failures.append(f"|mc - exact| = {abs(estimate - exact):.3g} above "
                        f"{MC_SIGMAS:g} stderr = {MC_SIGMAS * stderr:.3g}")
    if params["t"] == 1 and params["pattern"] in ("js", "ss"):
        closed = result.get("closed_form")
        if closed is None or not abs(exact - closed) <= CLOSED_FORM_RTOL * abs(closed):
            failures.append(f"exact {exact} differs from closed form {closed}")
    if result.get("trials") != params["trials"]:
        failures.append(f"trials {result.get('trials')} != {params['trials']}")
    return failures, params["trials"]


def _weingarten_table(params: dict, result: dict, csv_rows) -> tuple[list[str], int]:
    p, N = params["p"], params["N"]
    rising = falling = 1
    for i in range(p):
        rising *= N + i
        falling *= N - i
    want_sum, want_abs = Fraction(1, rising), Fraction(1, falling)
    sizes = result["class_sizes"]
    values = {ct: Fraction(v) for ct, v in result["table"].items()}
    table_sum = sum((sizes[ct] * v for ct, v in values.items()), Fraction(0))
    table_abs = sum((sizes[ct] * abs(v) for ct, v in values.items()), Fraction(0))
    failures = []
    if Fraction(result["sum"]) != want_sum or table_sum != want_sum:
        failures.append(f"sum {result['sum']} (table {table_sum}) != 1/{rising}")
    if Fraction(result["abs_sum"]) != want_abs or table_abs != want_abs:
        failures.append(f"abs_sum {result['abs_sum']} (table {table_abs}) != 1/{falling}")
    return failures, len(values)


def _perm_verify(params: dict, result: dict, csv_rows) -> tuple[list[str], int]:
    failures = []
    if result.get("total_counterexamples") != 0:
        failures.append(f"total_counterexamples {result.get('total_counterexamples')} != 0")
    if any(rec["counterexamples"] for rec in result["lemmas"]):
        failures.append("a lemma record lists counterexamples")
    return failures, sum(rec["checked_count"] for rec in result["lemmas"])


_CHECKS = {
    "qamd-scan": _qamd_scan,
    "tamper-sim": _tamper_sim,
    "moments": _moments,
    "weingarten-table": _weingarten_table,
    "perm-verify": _perm_verify,
}


def check(op, exit_code, report_bytes, csv_rows) -> tuple[list[str], int]:
    """(failure reasons, work count) for one operation.

    `report_bytes` is the JSON report (None when missing) and `csv_rows`
    the parsed per-cell CSV (None when missing). Any failure, including a
    non-zero exit code or a report that does not parse, fails the op.
    """
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}")
    if report_bytes is None:
        return failures + ["no report written"], 0
    try:
        report = json.loads(report_bytes)
        if "result" not in report:
            return failures + [f"report has no result: {report.get('error')}"], 0
        more, work = _CHECKS[op.subcommand](op.params, report["result"], csv_rows)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return failures + [f"report does not parse: {exc!r}"], 0
    return failures + more, work
