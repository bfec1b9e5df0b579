"""Throughput of the batch decode engine vs the reference reader.

Not a paper artifact — the acceptance gate of the batch ingest engine:
vectorized whole-buffer decoding plus interning must deliver at least
``MIN_BATCH_SPEEDUP`` records/sec over the per-field dispatch path on
the full benchmark campaign, with byte-identical output (proven by
``tests/differential``; re-asserted cheaply here). The ratio is
recorded as ``speedup_vs_slow`` (the scaling-curve record in
``bench_scaling.py`` carries the volume sweep).

A second, *dirty* leg re-reads the same campaign after
``LogCorruptor`` has faulted ~0.5% of its lines, under the skip
policy. Every faulted row sends its run through the row-by-row replay
tier, so this leg records what dirty input costs the batch engine; it
asserts identical records and ingest reports, not a speed bar.

Measurement is *interleaved*: each round times every engine
back-to-back and the best round of each is kept, so slow drift in
machine load cancels instead of polluting the ratio.

Compiled decoders and their column memos live per process, so every
round after the first reads warm. A *cold* row times the batch engine
with the process tables emptied before each read: it pays every
compile and fills every memo, as the first read of a fresh process
does. The gate (``records_per_sec``, ``speedup_vs_slow``) stays on the
warm figures.
"""

import io
import time

from repro.core.report import Table
from repro.netsim import FaultPlan, LogCorruptor
from repro.zeek import (
    IngestOptions,
    IngestReport,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)
from repro.zeek import tsv

from .conftest import SMOKE, report

ROUNDS = 7

#: Smoke corpora are tiny (decoder compilation and cache warmup are a
#: visible fraction of the run), so CI only sanity-checks the direction;
#: the full campaign must meet the real acceptance bar.
MIN_BATCH_SPEEDUP = 1.3 if SMOKE else 2.2

MODES = ("off", "batch")

#: The dirty leg's fault plan: ~0.5% of lines faulted.
DIRTY_PLAN = FaultPlan.uniform(0.005, seed=3)


def _read_both(ssl_text: str, x509_text: str, mode: str, on_error: str):
    report = IngestReport()
    options = IngestOptions(on_error=on_error, fast_path=mode, report=report)
    ssl = read_ssl_log(io.StringIO(ssl_text), options)
    x509 = read_x509_log(io.StringIO(x509_text), options)
    return (ssl, x509), report


def _best_of(ssl_text: str, x509_text: str, on_error: str):
    """Best wall time per engine, plus each engine's last output."""
    best = {mode: float("inf") for mode in MODES}
    last = {}
    for _ in range(ROUNDS):
        for mode in MODES:
            started = time.perf_counter()
            last[mode] = _read_both(ssl_text, x509_text, mode, on_error)
            best[mode] = min(best[mode], time.perf_counter() - started)
    return best, last


def _best_cold(ssl_text: str, x509_text: str):
    """Best batch wall time with empty process decoder tables."""
    best = float("inf")
    for _ in range(ROUNDS):
        tsv._CONVERTERS.clear()
        tsv._DECODERS.clear()
        started = time.perf_counter()
        last = _read_both(ssl_text, x509_text, "batch", "strict")
        best = min(best, time.perf_counter() - started)
    return best, last


def test_fast_path_speedup(simulation):
    ssl_text = ssl_log_to_string(simulation.logs.ssl)
    x509_text = x509_log_to_string(simulation.logs.x509)
    rows = len(simulation.logs.ssl) + len(simulation.logs.x509)
    best, last = _best_of(ssl_text, x509_text, "strict")
    # The contract the speed is not allowed to bend: identical records.
    assert last["batch"][0] == last["off"][0]
    cold_best, cold_last = _best_cold(ssl_text, x509_text)
    assert cold_last[0] == last["off"][0]

    dirty_ssl, dirty_x509, _ = LogCorruptor(DIRTY_PLAN).corrupt_logs(
        ssl_text, x509_text
    )
    dirty_best, dirty_last = _best_of(dirty_ssl, dirty_x509, "skip")
    (dirty_records, dirty_report) = dirty_last["off"]
    assert dirty_report.rows_dropped > 0
    assert dirty_last["batch"][0] == dirty_records
    assert dirty_last["batch"][1].to_dict() == dirty_report.to_dict()
    dirty_rows = dirty_report.rows_total

    slow_rps = rows / best["off"]
    batch_rps = rows / best["batch"]
    batch_speedup = best["off"] / best["batch"]
    cold_batch_rps = rows / cold_best
    dirty_slow_rps = dirty_rows / dirty_best["off"]
    dirty_batch_rps = dirty_rows / dirty_best["batch"]

    table = Table("Fast-path ingest throughput", ["Reader", "Value"])
    table.add_row("reference (rows/s)", f"{slow_rps:,.0f}")
    table.add_row("batch (rows/s)", f"{batch_rps:,.0f}")
    table.add_row("speedup (batch)", f"x{batch_speedup:.2f}")
    table.add_row("cold batch (rows/s)", f"{cold_batch_rps:,.0f}")
    table.add_row("cold speedup (batch)", f"x{best['off'] / cold_best:.2f}")
    table.add_row("dirty reference (rows/s)", f"{dirty_slow_rps:,.0f}")
    table.add_row("dirty batch (rows/s)", f"{dirty_batch_rps:,.0f}")
    table.add_row("dirty rows dropped", f"{dirty_report.rows_dropped:,}")
    report(
        table,
        f"target: the batch engine delivers >={MIN_BATCH_SPEEDUP}x "
        "records/sec over the reference reader, with byte-identical "
        "output on clean and dirty logs",
        records_per_sec=batch_rps,
        accuracy={
            "speedup_vs_slow": batch_speedup,
            "slow_records_per_sec": slow_rps,
            "cold_batch_records_per_sec": cold_batch_rps,
            "dirty_slow_records_per_sec": dirty_slow_rps,
            "dirty_batch_records_per_sec": dirty_batch_rps,
            "dirty_rows_dropped": dirty_report.rows_dropped,
        },
    )
    assert batch_speedup >= MIN_BATCH_SPEEDUP
