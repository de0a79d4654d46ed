"""Deterministic CSV/JSON emission for traces, ledgers and reports.

Byte-determinism matters: fixed header, fixed column order, floats through
repr-stable formatting, JSON with sorted keys and no whitespace drift.
"""

from __future__ import annotations

import json
from pathlib import Path

# the round-trace columns, in order, of both rounds.csv and the JSON rows
ROUND_FIELDS = (
    "phase", "round", "n_in", "n_out", "ones_in", "ones_out", "bias_emp", "bias_pred", "steps",
)
ROUND_CSV_HEADER = ",".join(ROUND_FIELDS)


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def records_to_csv(records):
    """Round trace as CSV with the fixed header; empty trace is header-only."""
    lines = [ROUND_CSV_HEADER]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, f)) for f in ROUND_FIELDS))
    return "\n".join(lines) + "\n"


def to_json(payload):
    """Canonical JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def orbit_to_csv(name, values):
    """Two-column orbit CSV: (i, value)."""
    lines = [f"i,{name}"]
    for i, v in enumerate(values):
        lines.append(f"{i},{_fmt(float(v))}")
    return "\n".join(lines) + "\n"


def write_text(path, text):
    """Write ``text`` to ``path``, making its directory first if need be."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)
