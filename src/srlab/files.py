"""Persistence: probability-distribution JSON files and CSV report files.

Distribution files are versioned JSON whose floats round-trip exactly
(``repr``).  Version and delta are always 1, so a read keeps all that a file
varies, its table and provenance, and rewriting them gives a file that reads
back equal (byte-identical, if ``write_distribution`` wrote it).  CSV reports
serialize numbers with 17 significant digits in a fixed row order, which
makes equal-seed runs byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .rounding import ProbabilityTable

__all__ = [
    "DIST_FORMAT_VERSION",
    "LoadedDistribution",
    "write_distribution",
    "read_distribution",
    "format_number",
    "write_csv",
]

DIST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LoadedDistribution:
    table: ProbabilityTable
    provenance: dict


def write_distribution(path, table: ProbabilityTable, *, provenance: dict | None = None) -> None:
    """Write a file that ``read_distribution`` accepts, with delta 1, the delta of every optimized table;
    ``provenance`` is a dict or None, and the text comes first, so a refused call leaves ``path`` alone."""
    if provenance is not None and not isinstance(provenance, dict):
        raise TypeError(f"provenance must be a dict or None, got {provenance!r}")
    payload = {
        "format_version": DIST_FORMAT_VERSION,
        "label": table.label,
        "delta": 1.0,
        "grid": [float(v) for v in table.grid],
        "p": [float(v) for v in table.p],
        "provenance": {} if provenance is None else provenance,
    }
    text = json.dumps(payload, indent=2, allow_nan=False)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def read_distribution(path) -> LoadedDistribution:
    """Load a distribution file; a ValueError naming ``path`` means its contents are invalid."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        payload = json.loads(data.decode("utf-8"))  # JSON text is UTF-8 (RFC 8259)
        version, label, delta = payload["format_version"], payload["label"], payload["delta"]
        provenance = payload.get("provenance", {})
        if type(version) is not int or version != DIST_FORMAT_VERSION:  # 1.5, true and "1" are not 1
            raise ValueError(f"unsupported format_version {version!r}")
        if not isinstance(provenance, dict):
            raise ValueError(f"provenance must be an object, got {provenance!r}")
        for name, values in (("grid", payload["grid"]), ("p", payload["p"])):
            if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:  # bool is no number
                raise ValueError(f"{name} must hold JSON numbers, not strings or booleans")
        if type(delta) not in (int, float) or delta != 1:  # the one delta written; true, "1" and NaN are not 1
            raise ValueError(f"delta must be 1, got {delta!r}")
        table = ProbabilityTable(grid=payload["grid"], p=payload["p"], label=label)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: not a valid distribution file: {exc}") from exc
    return LoadedDistribution(table=table, provenance=provenance)


def format_number(value) -> str:
    """Fixed CSV cell formatting: 17 significant digits, blanks for absent."""
    if isinstance(value, float):  # np.float64 included: the common cell first
        return f"{value:.17g}"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def write_csv(path, header, rows) -> int:
    """Write a report with '\\n' line endings regardless of platform, one line at
    a time; ``rows`` may be an iterator, and a ``str`` row is written as is.  Returns the row count."""
    n = 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for n, row in enumerate(rows, 1):
            fh.write((row if isinstance(row, str) else ",".join(map(format_number, row))) + "\n")
    return n
