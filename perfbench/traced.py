"""Traced in-process repeat of an ``archive-*`` workload.

Run in a fresh interpreter by ``run.py --trace 1``. It does the work of
one ``repro analyze`` over the archive — import, read, interception
scan, enrich, the 24 registry analyses (update analysis-major over each
shard, then merge and finalize), and the JSON export — by calling each
layer's public functions, with a ledger span around every call. With
``--pickle`` it also round-trips each shard's partials through pickle,
the transfer a worker process pays at ``--jobs 2``. Shards run serially
here, so on ``archive-store-j2`` the traced wall also contains the
parallelism the measured run had.

Writes a result document (ledger self times, traced wall, the exported
tables for the reference check) and the Chrome/Perfetto trace of the
spans.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import pickle  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

from common import tables_from_export, write_json  # noqa: E402
from ledger import ROOT, Ledger, ledger_metrics  # noqa: E402


class _Finished:
    """Finalized tables behind the ``table(name)`` interface the
    exporter reads, so export time excludes finalize."""

    def __init__(self, tables):
        self._tables = tables

    def table(self, name):
        return self._tables[name]


def traced_analyze(args, ledger: Ledger) -> dict:
    root = ledger.begin(ROOT)
    root.start = _STARTED  # the interpreter's own start-up is not ours to see
    with ledger.span("cli.import"):
        from repro import cli
        from repro.core import protocol
        from repro.core.dataset import MtlsDataset
        from repro.core.enrich import AssociationRules, Enricher, InterceptionScan
        from repro.core.export import export_tables_json
        from repro.zeek.files import TsvDirectorySource
        from repro.zeek.ingest import IngestOptions

        protocol.load_default_analyses()
        bundle = cli.load_trust_bundle(args.archive / "trust_bundle.txt")

    options = IngestOptions()
    rules = AssociationRules()

    def make_enricher():
        return Enricher(bundle, ct_log=None, rules=rules)

    if args.store is not None:
        read_span = "store.read"
        with ledger.span(read_span):
            from repro.store import ensure_store

            source = ensure_store(args.archive, args.store, options)
    else:
        read_span = "zeek.read"
        source = TsvDirectorySource(args.archive)

    # Phase A: read every shard and scan it for interception.
    shards = {}
    scans = []
    rows_read = ssl_rows = x509_rows = 0
    for month in sorted(source.months()):
        with ledger.span(read_span):
            shard = source.read_month(month, options)
            shards[month] = MtlsDataset(shard.ssl, shard.x509)
        rows_read += len(shard.ssl) + len(shard.x509)
        ssl_rows += len(shard.ssl)
        x509_rows = len(shard.x509)  # the full stream, broadcast to every shard
        with ledger.span("enrich.scan"):
            scan = make_enricher().new_scan()
            for conn in shards[month].connections:
                scan.observe(conn)
        scans.append(scan)
    with ledger.span("enrich.scan"):
        merged_scan = InterceptionScan(bundle, None)
        for scan in scans:
            merged_scan.merge(scan)
        report = merged_scan.finalize(5)

    # Phase B: enrich each shard, update every analysis over it
    # (analysis-major), ship the partials if workers would, and merge.
    context = protocol.AnalysisContext(
        bundle=bundle, rules=rules, interception=report
    )
    names = protocol.analysis_names()
    needs_raw = {name: protocol.get_analysis(name).needs_raw for name in names}
    merged = None
    partials_bytes = 0
    for month, dataset in shards.items():
        with ledger.span("enrich.label"):
            enriched = make_enricher().enrich_with_report(dataset, report)
        partials = protocol.create_partials(names, context)
        for name in names:
            partial = partials[name]
            with ledger.span(f"analyze.update.{name}"):
                for conn in enriched.connections:
                    partial.update(conn)
                if needs_raw[name]:
                    for view in dataset.connections:
                        partial.update_raw(view)
        if args.pickle:
            with ledger.span("parallel.pickle"):
                blob = pickle.dumps(partials, protocol=pickle.HIGHEST_PROTOCOL)
                partials = pickle.loads(blob)
            partials_bytes += len(blob)
        if merged is None:
            merged = partials
            continue
        for name in names:
            with ledger.span(f"analyze.merge.{name}"):
                merged[name].merge(partials[name])

    tables = {}
    for name in names:
        with ledger.span(f"analyze.finalize.{name}"):
            tables[name] = merged[name].finalize()
    with ledger.span("report.render"):
        exported = export_tables_json(_Finished(tables))
    ledger.end(root)

    extra = {"zeek.rows_read": rows_read, "parallel.partials_bytes": partials_bytes}
    if args.store is not None:
        # Packing is set-up work, timed after the ledger closes.
        fresh = args.pack_dir
        shutil.rmtree(fresh, ignore_errors=True)
        started = time.perf_counter()
        ensure_store(args.archive, fresh, options)
        extra["store.pack_s"] = time.perf_counter() - started
        store_bytes = sum(p.stat().st_size for p in fresh.rglob("*") if p.is_file())
        extra["store.bytes_per_row"] = store_bytes / (ssl_rows + x509_rows)
        shutil.rmtree(fresh, ignore_errors=True)
    return {"exported": exported, "extra": extra}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--archive", type=Path, required=True)
    parser.add_argument("--store", type=Path, default=None)
    parser.add_argument("--pack-dir", type=Path, default=None)
    parser.add_argument("--pickle", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--chrome", type=Path, required=True)
    args = parser.parse_args()

    ledger = Ledger()
    outcome = traced_analyze(args, ledger)
    ledger.write_chrome_trace(args.chrome)
    write_json(args.out, {
        "ledger": ledger_metrics(ledger),
        "extra": outcome["extra"],
        "tables": tables_from_export(outcome["exported"]),
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
