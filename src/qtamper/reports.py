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
from fractions import Fraction
from typing import Any

import numpy as np

from . import __version__
from .haar import GENERATOR_VERSION

BUILD_ID = f"qtamper/{__version__} numpy/{np.__version__}"  # the normal stream is per release


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


def cells_csv(cells: dict) -> str:
    """The CSV text of named columns (the `label` list, int and float arrays)
    under their names in key order: what `csv.writer` writes for the
    cells formatted one at a time, floats as format(v, ".17g") (which
    "%.17g" is) and NaN as "undefined".  Each row shape (its set of NaN
    cells) has one % format line; the rows' lines are applied once to the
    defined cells in order."""
    header = list(cells)
    quoted = {label: _csv_field(label) for label in dict.fromkeys(cells["label"])}
    specs = ["%s" if name == "label" else "%.17g" if cells[name].dtype.kind == "f" else "%d"
             for name in header]
    undefined = np.array([np.isnan(cells[name]) if spec == "%.17g" else np.zeros_like(
        cells["seed"], dtype=bool) for name, spec in zip(header, specs)]).T
    shapes = undefined @ (1 << np.arange(len(header)))
    lines = {shape: ",".join("undefined" if shape >> j & 1 else spec for j, spec in
                             enumerate(specs)) + "\n" for shape in set(shapes.tolist())}
    table = np.array([[quoted[label] for label in cells[name]] if name == "label"
                      else cells[name].tolist() for name in header], dtype=object).T
    rows = "".join([lines[shape] for shape in shapes.tolist()])
    return ",".join(header) + "\n" + rows % tuple(table[~undefined])


def make_manifest(subcommand: str, parameters: dict) -> dict:
    """Everything needed to reproduce a run bit-for-bit."""
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "generator_version": GENERATOR_VERSION,
        "build": BUILD_ID,
    }
