"""Persistence: probability-distribution JSON files and CSV report files.

Distribution files are versioned JSON whose floats round-trip exactly
(``repr`` serialization), so write -> read -> write is byte-identical.
CSV reports serialize numbers with 17 significant digits in a fixed row
order, which makes equal-seed runs byte-identical.
"""

from __future__ import annotations

import json
import math
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
    delta: float
    provenance: dict
    format_version: int


def write_distribution(path, table: ProbabilityTable, delta: float = 1.0, provenance: dict | None = None) -> None:
    payload = {
        "format_version": DIST_FORMAT_VERSION,
        "label": table.label,
        "delta": float(delta),
        "grid": [float(v) for v in table.grid],
        "p": [float(v) for v in table.p],
        "provenance": provenance or {},
    }
    with open(path, "w", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_distribution(path) -> LoadedDistribution:
    """Load a distribution file; a ValueError naming ``path`` means its contents are invalid."""
    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
        version, label, provenance = payload["format_version"], payload["label"], payload.get("provenance", {})
        if type(version) is not int or version != DIST_FORMAT_VERSION:  # 1.5, true and "1" are not 1
            raise ValueError(f"unsupported format_version {version!r}")
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, got {label!r}")
        if not isinstance(provenance, dict):
            raise ValueError(f"provenance must be an object, got {provenance!r}")
        table = ProbabilityTable(grid=payload["grid"], p=payload["p"], label=label)
        delta = float(payload["delta"])
        if not 0.0 < delta < math.inf:  # NaN fails too
            raise ValueError(f"delta must be finite and positive, got {delta!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid distribution file: {exc}") from exc
    return LoadedDistribution(table=table, delta=delta, provenance=provenance, format_version=version)


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
