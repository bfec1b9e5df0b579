"""The ``livetail-replay`` workload, in one fresh interpreter.

Each replay has its own set-up (timed): generate the campaign from the
seed, load it into a :class:`~repro.netsim.LiveLogWriter`, start a
:class:`~repro.core.livetail.LiveTailDaemon` and its loopback
:class:`~repro.core.server.LiveTailServer`. Replays repeat while at
least half of the next one is expected to fit within ``--seconds``;
extra set-ups are timed afterwards until there are ``--setups``
samples.

Measured phase, a closed loop with one writer and one client: write a
burst, call ``poll_once()``, then fetch ``GET /tables/<name>`` (cycling
through the registry), with a ``checkpoint()`` every
:data:`CHECKPOINT_EVERY` polls; the campaign is cut into
:data:`common.POLLS` bursts. After the last burst the writer rotates
every live file, a final poll drains it, and every table is fetched
once more; those final tables are the run's output.

With ``--trace`` one replay runs, with ledger spans around the
writer, the tailers, the engine's feed and table rendering, each
analysis's update and finalize, the HTTP round trip and the
checkpoint, and the spans are exported as a Chrome/Perfetto trace.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from common import POLLS, table_view, write_json
from ledger import ROOT, Ledger, ledger_metrics

#: Polls between two ``checkpoint()`` calls of a replay.
CHECKPOINT_EVERY = 30


def setup_once(args):
    from repro.core.livetail import LiveTailDaemon
    from repro.core.server import LiveTailServer
    from repro.netsim import LiveLogWriter, ScenarioConfig, TrafficGenerator

    logs = args.work / "logs"
    shutil.rmtree(logs, ignore_errors=True)
    started = time.perf_counter()
    simulation = TrafficGenerator(ScenarioConfig(
        seed=args.seed, months=args.months,
        connections_per_month=args.cpm,
    )).generate()
    writer = LiveLogWriter(simulation.logs, logs)
    daemon = LiveTailDaemon(
        logs, simulation.trust_bundle,
        checkpoint_path=args.work / "checkpoint.json",
    )
    server = LiveTailServer(daemon)
    server.start()
    return time.perf_counter() - started, writer, daemon, server


def instrument(ledger: Ledger, state: dict) -> None:
    """Hang ledger spans on the live-tail layers from the outside.

    The wrappers replace class attributes, once per process, so the
    objects the daemon pickles at a checkpoint carry none of them.
    """
    from repro.core.enrich import Enricher, InterceptionScan
    from repro.core.livetail import LiveAnalysisEngine, LogTailer

    LogTailer.poll = ledger.spanned("livetail.poll", LogTailer.poll)
    LiveAnalysisEngine.feed = ledger.spanned(
        "livetail.feed", LiveAnalysisEngine.feed
    )
    InterceptionScan.observe = ledger.timed(
        "enrich.scan", InterceptionScan.observe
    )
    Enricher.label = ledger.timed("enrich.label", Enricher.label)

    update = LiveAnalysisEngine._update
    tables = LiveAnalysisEngine.tables
    clock = ledger.clock
    accumulate = ledger.accumulate

    def per_analysis_update(engine, names, view, enriched):
        # One call per analysis, so each one's update time is its own.
        for name in names:
            started = clock()
            update(engine, (name,), view, enriched)
            accumulate(f"analyze.update.{name}", clock() - started)

    def traced_tables(engine):
        # Runs on the server's request thread, under the daemon lock, so
        # no checkpoint sees the per-call finalize wrappers. They are
        # per instance because two analyses share a partial class.
        with ledger.span("livetail.tables", parent=state["query"]):
            partials = list(engine.partials.items())
            for name, partial in partials:
                partial.finalize = ledger.spanned(
                    f"analyze.finalize.{name}", partial.finalize
                )
            try:
                return tables(engine)
            finally:
                for _, partial in partials:
                    del partial.finalize

    LiveAnalysisEngine._update = per_analysis_update
    LiveAnalysisEngine.tables = traced_tables


def replay(args, writer, daemon, server, ledger: Ledger | None) -> dict:
    names = list(daemon.engine.partials)
    burst = math.ceil(writer.remaining / POLLS)
    client = http.client.HTTPConnection(server.host, server.port, timeout=60)
    state = {"query": None}
    if ledger is not None:
        instrument(ledger, state)
    polls: list[float] = []
    queries: list[float] = []
    errors: list[str] = []
    final: dict[str, dict] = {}

    def span(name):
        return ledger.span(name) if ledger is not None else nullcontext()

    def poll() -> None:
        started = time.perf_counter()
        try:
            daemon.poll_once()
        except Exception as exc:  # counted as a failed poll
            errors.append(f"poll: {exc!r}")
        polls.append(time.perf_counter() - started)

    def query(name: str) -> dict | None:
        started = time.perf_counter()
        try:
            with span("server.response") as opened:
                state["query"] = opened
                client.request("GET", f"/tables/{name}")
                response = client.getresponse()
                body = response.read()
            if response.status != 200:
                errors.append(f"GET /tables/{name}: HTTP {response.status}")
                return None
            return json.loads(body)
        except Exception as exc:  # counted as a failed query
            errors.append(f"GET /tables/{name}: {exc!r}")
            return None
        finally:
            queries.append(time.perf_counter() - started)

    root = ledger.begin(ROOT) if ledger is not None else None
    started = time.perf_counter()
    count = 0
    while writer.remaining:
        with span("netsim.write"):
            writer.write_next(burst)
        poll()
        query(names[count % len(names)])
        count += 1
        if count % CHECKPOINT_EVERY == 0:
            with span("livetail.checkpoint"):
                daemon.checkpoint()
    with span("netsim.write"):
        writer.finalize()
    poll()
    for name in names:
        payload = query(name)
        if payload is not None:
            final[name] = table_view(payload)
    wall = time.perf_counter() - started
    if root is not None:
        ledger.end(root)
    client.close()
    stats = daemon.engine.enricher.fact_cache.stats
    return {
        "wall_s": wall,
        "poll_s": polls,
        "query_s": queries,
        "errors": errors,
        "attempted": len(polls) + len(queries),
        "tables": final,
        "certfacts_hit_ratio": stats.hits / max(1, stats.hits + stats.misses),
    }


def replay_once(args) -> tuple[float, dict]:
    """One set-up and one replay; returns (set-up seconds, replay)."""
    setup_s, writer, daemon, server = setup_once(args)
    ledger = Ledger() if args.trace else None
    try:
        run = replay(args, writer, daemon, server, ledger)
    finally:
        server.shutdown()
        daemon.close()
    if ledger is not None:
        run["ledger"] = ledger_metrics(ledger)
        ledger.write_chrome_trace(args.chrome)
    return setup_s, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--months", type=int, required=True)
    parser.add_argument("--cpm", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="replay again while at least half of the next "
                             "replay is expected to fit in this budget")
    parser.add_argument("--setups", type=int, required=True,
                        help="time at least this many set-ups")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome", type=Path, default=None)
    args = parser.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)

    setups: list[float] = []
    runs: list[dict] = []
    spans: list[float] = []
    started = time.perf_counter()
    while True:
        setup_s, run = replay_once(args)
        setups.append(setup_s)
        runs.append(run)
        elapsed = time.perf_counter() - started
        spans.append(elapsed - sum(spans))
        expected = elapsed + statistics.median(spans) / 2
        if args.trace or run["errors"] or expected > args.seconds:
            break
    while len(setups) < args.setups:
        setup_s, _, daemon, server = setup_once(args)
        server.shutdown()
        daemon.close()
        setups.append(setup_s)
    # The process's peak: a replay's state outgrows any set-up's.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    write_json(args.out, {"runs": runs, "setup_s": setups, "peak_rss_mb": peak_mb})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
