"""Shared pieces of the benchmark: the campaign scale, the reference
table format, and the statistics every workload reports."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: Campaign every workload runs: the paper's 23-month capture at a
#: per-month volume sized so one benchmark run of each workload (set-up,
#: reference check and measured phase) takes well under a minute on a
#: 2-core machine.
MONTHS = 23
CONNECTIONS_PER_MONTH = 500

#: Bursts a ``livetail-replay`` run cuts the campaign into; each burst
#: is followed by one poll and one table query.
POLLS = 100

#: Seed used while the benchmark and later changes are developed, and
#: the held-out seed that a claimed gain must also hold on.
DEFAULT_SEED = 7
HOLDOUT_SEED = 11

#: Keys of a rendered table that must match the reference exactly.
TABLE_KEYS = ("title", "headers", "rows", "notes")


def table_view(table: dict) -> dict:
    return {key: table[key] for key in TABLE_KEYS}


def tables_from_export(text: str) -> dict[str, dict]:
    """The ``{name: table}`` map of an ``export_tables_json`` document."""
    document = json.loads(text)
    return {
        name: table_view(document["analyses"][name])
        for name in document["order"]
    }


def mismatched_tables(
    tables: dict[str, dict], reference: dict[str, dict]
) -> list[str]:
    """Names of the tables that differ from the reference, including
    tables missing on either side."""
    names = sorted(set(tables) | set(reference))
    return [
        name for name in names
        if name not in tables or name not in reference
        or table_view(tables[name]) != table_view(reference[name])
    ]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), by ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def read_json(path: Path | str):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(path: Path | str, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")
