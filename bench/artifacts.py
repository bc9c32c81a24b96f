"""Reading the artifacts a pass writes: CSV rows, digests, scenario hashes.

Only the standard library: the run process reads the sweep CSV after
every pass, before its peak memory is taken, so nothing here may pull in
the reference evaluator's mpmath.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

SWEEP_CSV = "intensity_sweep_sweep.csv"


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Column names and rows of a CSV artifact, without its '#' header."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def sweep_cells(out):
    """Number of sweep rows, and a message for each failed one."""
    cols, rows = read_csv(os.path.join(out, SWEEP_CSV))
    stability, error = cols.index("stability"), cols.index("error")
    return len(rows), [f"sweep cell {r[0]}: {r[error]}" for r in rows if r[stability] == "failed"]


def digest(out):
    """SHA-256 over every artifact's name and bytes, and their total size."""
    sha = hashlib.sha256()
    size = 0
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        sha.update(name.encode() + b"\0" + data)
        size += len(data)
    return sha.hexdigest(), size


def scenario_hashes(out):
    """Scenario hash each artifact names in its header."""
    hashes = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("# scenario "):
                        hashes[name] = line.split()[2]
                        break
        elif name.endswith(".json"):
            with open(path, encoding="utf-8") as fh:
                hashes[name] = json.load(fh)["_meta"]["scenario"].split()[0]
    return hashes
