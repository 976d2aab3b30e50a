"""Canonical report serialization and run manifests.

Reports are JSON rendered by a fixed-format emitter: keys sorted,
no locale- or version-dependent float text (every float is written with
17 significant digits), rationals as "numerator/denominator" strings.
Two runs that compute the same values therefore produce byte-identical
files, which is what the reproducibility contract demands.  Wall-clock
timing is deliberately *not* embedded in reports (it would break
byte-identity); the CLI logs it to stderr instead.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain
from typing import Any

import numpy as np

from . import __version__
from .haar import GENERATOR_VERSION

BUILD_ID = f"qtamper/{__version__} numpy/{np.__version__}"  # the normal stream is per release
CSV_PIECE_ROWS = 2 ** 9    # rows of the per-cell CSV formatted and written as one piece


def _emit(obj: Any, out: io.StringIO) -> None:
    if isinstance(obj, dict):
        out.write("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if not first:
                out.write(",")
            first = False
            out.write(json.dumps(key))
            out.write(":")
            _emit(obj[key], out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, item in enumerate(obj):
            if i:
                out.write(",")
            _emit(item, out)
        out.write("]")
    elif isinstance(obj, Fraction):
        out.write(json.dumps(f"{obj.numerator}/{obj.denominator}"))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        value = float(obj)
        if not np.isfinite(value):
            raise ValueError("reports must not contain NaN/Inf")
        out.write(format(value, ".17g"))
    else:
        raise TypeError(f"cannot serialize {type(obj)} into a report")


def canonical_json_bytes(obj: Any) -> bytes:
    buf = io.StringIO()
    _emit(obj, buf)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def _csv_field(text: str) -> str:
    """`text` as a field in the middle of a `csv.writer` row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def cells_csv(cells: dict) -> Iterator[str]:
    """The CSV text of named columns (the `label` list, int and float arrays)
    under their names in key order, in pieces: the header, then pieces of at
    most CSV_PIECE_ROWS rows.  Joined, they are what `csv.writer` writes for
    the cells formatted one at a time, floats as format(v, ".17g") (which
    "%.17g" is) and NaN as "undefined".  Each piece is one % row template
    applied to its rows; a float column with a NaN in the piece is formatted
    there as text."""
    header = list(cells)
    quoted = {label: _csv_field(label) for label in dict.fromkeys(cells["label"])}
    yield ",".join(header) + "\n"
    for start in range(0, len(cells["label"]), CSV_PIECE_ROWS):
        specs, columns = [], []
        for name in header:
            values = cells[name][start:start + CSV_PIECE_ROWS]
            if name == "label":
                spec, values = "%s", [quoted[label] for label in values]
            elif values.dtype.kind == "f" and np.isnan(values).any():
                spec, values = "%s", ["undefined" if v != v else format(v, ".17g")
                                      for v in values.tolist()]
            else:
                spec, values = "%.17g" if values.dtype.kind == "f" else "%d", values.tolist()
            specs.append(spec)
            columns.append(values)
        rows = ",".join(specs) + "\n"
        yield rows * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


def make_manifest(subcommand: str, parameters: dict) -> dict:
    """Everything needed to reproduce a run bit-for-bit."""
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "generator_version": GENERATOR_VERSION,
        "build": BUILD_ID,
    }
