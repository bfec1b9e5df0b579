"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload archive-tsv --seed 7 --seconds 25 --trace 0

Every workload runs the same campaign, generated from ``--seed``:
23 months of the campus scenario (see ``common.py`` for the volume).

- ``archive-tsv``: ``repro analyze DIR --trust-bundle F --jobs 1`` over
  the rotated TSV archive, each run in a fresh interpreter.
- ``archive-store-j2``: ``repro analyze DIR --store S --jobs 2`` over a
  columnar store packed during set-up.
- ``livetail-replay``: the campaign replayed burst by burst into a
  live-tail daemon, queried over its loopback JSON API (``replay.py``).

Set-up is timed four times and its median reported as ``setup_s``:
three times before and once after measuring on ``archive-*``, and
once per replay plus extra set-ups on ``livetail-replay``.
The reference tables come from ``repro analyze --fast-path off
--pipeline off --jobs 1``, run once per seed and campaign size (cached
under ``perfbench/.work/reference``) outside both set-up and the
measured phase. Where ``perfbench/reference`` keeps tables for the seed
and size, those are the reference, and the reference path must match
them too. Every run's 24 tables are diffed against the reference.

The measured phase repeats whole runs of the workload while at least
half of the next one is expected to fit within ``--seconds`` (at least
one run) and reports medians and percentiles.

``--trace 1`` adds a traced in-process repeat of the same work
(``traced.py`` / ``replay.py --trace``) and prints the per-layer ledger
instead of the end-to-end metrics. The spans are exported beside the
results as a Chrome/Perfetto trace in ``perfbench/.work/results``.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any run's tables differ from the reference or an operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    CONNECTIONS_PER_MONTH,
    DEFAULT_SEED,
    MONTHS,
    mismatched_tables,
    percentile,
    read_json,
    tables_from_export,
    write_json,
)
from ledger import union_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: Reference tables kept with the benchmark, one file per seed and
#: campaign size (``m23-c500-s7.json``), made by the reference path of
#: the tree that added them. Every run is diffed against the kept file
#: when there is one, so a change shared by the reference and default
#: paths that alters a table still fails.
KEPT_REFERENCE = HERE / "reference"

#: Per-layer metric prefixes each workload does not exercise; they are
#: reported as 0 there. Any other metric missing from a run is an error.
NOT_ON_PATH = {
    "archive-tsv": (
        "store.", "parallel.partials_bytes", "parallel.pickle_s",
        "livetail.", "server.", "netsim.",
    ),
    "archive-store-j2": ("zeek.", "livetail.", "server.", "netsim."),
    "livetail-replay": (
        "cli.", "zeek.", "store.", "analyze.merge_s", "parallel.",
        "pipeline.", "report.",
    ),
}
WORKLOADS = tuple(NOT_ON_PATH)

#: A traced run whose residue exceeds this share of its wall time is
#: flagged incomplete: the ledger no longer explains where time went.
RESIDUE_LIMIT = 0.10

#: Set-up samples per run, and how many of them precede the measured
#: phase on ``archive-*`` (the rest follow it).
SETUPS = 4
SETUPS_BEFORE = 3

#: Wall-clock limit on any one child process.
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def run_child(cmd, *, stdout: Path, env) -> tuple[int, float, float]:
    """Run ``cmd`` to completion; returns (exit code, wall seconds, peak
    RSS in MB of the process and every descendant it waited for)."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def check_child(cmd, *, stdout: Path, env) -> float:
    code, wall, _ = run_child(cmd, stdout=stdout, env=env)
    if code != 0:
        tail = stdout.with_suffix(".err").read_text(errors="replace")[-2000:]
        raise BenchError(f"{' '.join(map(str, cmd))} exited {code}\n{tail}")
    return wall


def shard_timings(events: list[dict], jobs: int) -> tuple[list[float], float]:
    """From a ``repro analyze --trace`` file: each month's fold time
    (the union of its shard spans, both phases) and the workers' idle
    share of ``jobs`` x the scan and analyze phases' wall time."""
    by_month: dict[str, list] = {}
    by_pid: dict[int, list] = {}
    phases = 0.0
    for event in events:
        interval = (event["ts"], event["ts"] + event["duration_s"])
        month = event.get("meta", {}).get("month")
        if month is not None:
            by_month.setdefault(month, []).append(interval)
            by_pid.setdefault(event["pid"], []).append(interval)
        elif event["name"] in ("campaign.scan", "campaign.analyze"):
            phases += event["duration_s"]
    if not by_month or phases <= 0:
        raise BenchError("analyze trace has no shard or phase spans")
    folds = [union_length(spans) for spans in by_month.values()]
    busy = sum(union_length(spans) for spans in by_pid.values())
    return folds, max(0.0, 1.0 - busy / (jobs * phases))


class Bench:
    def __init__(self, args) -> None:
        self.args = args
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.python = sys.executable
        tag = f"{args.workload}-seed{args.seed}"
        self.run_dir = WORK / "runs" / tag
        self.results = WORK / "results"
        self.result_prefix = self.results / tag
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self.archive = self.run_dir / "archive"
        self.store = self.run_dir / "store"
        self.log: list[str] = []

    def repro(self, *argv) -> list[str]:
        return [self.python, "-m", "repro", *map(str, argv)]

    def script(self, name: str, *argv) -> list[str]:
        return [self.python, str(HERE / name), *map(str, argv)]

    def out(self, name: str) -> Path:
        return self.run_dir / name

    # ------------------------------------------------------------ set-up

    def generate(self, archive: Path) -> float:
        shutil.rmtree(archive, ignore_errors=True)
        a = self.args
        return check_child(
            self.repro("generate", "--out", archive, "--months", a.months,
                       "--cpm", a.cpm, "--seed", a.seed, "--rotated"),
            stdout=self.out("generate.out"), env=self.env,
        )

    def setup_archive(self, archive: Path, store: Path | None) -> float:
        """One timed set-up: generate the archive, and pack its store
        into a fresh directory when the workload reads one."""
        seconds = self.generate(archive)
        if store is not None:
            shutil.rmtree(store, ignore_errors=True)
            seconds += check_child(
                self.repro("pack", archive, "--out", store),
                stdout=self.out("pack.out"), env=self.env,
            )
        return seconds

    # --------------------------------------------------------- reference

    def reference(self) -> dict:
        """The reference tables for this seed and campaign size, with
        the reference path's wall time and its own mismatches against
        the kept tables. The reference path's output is cached by seed
        and size only, never by the code that produced it."""
        a = self.args
        name = f"m{a.months}-c{a.cpm}-s{a.seed}.json"
        path = WORK / "reference" / name
        if not path.exists():
            if not (self.archive / "trust_bundle.txt").exists():
                self.generate(self.archive)
            stdout = self.out("reference.out")
            wall = check_child(
                self.repro("analyze", self.archive, "--trust-bundle",
                           self.archive / "trust_bundle.txt", "--jobs", 1,
                           "--fast-path", "off", "--pipeline", "off", "--json"),
                stdout=stdout, env=self.env,
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            write_json(tmp, {"wall_s": wall,
                             "tables": tables_from_export(stdout.read_text())})
            tmp.replace(path)
        computed = read_json(path)
        kept = KEPT_REFERENCE / name
        if not kept.exists():
            return {**computed, "mismatches": []}
        tables = read_json(kept)["tables"]
        return {"wall_s": computed["wall_s"], "tables": tables,
                "mismatches": mismatched_tables(computed["tables"], tables)}

    # ---------------------------------------------------- measured phase

    def repeat(self, unit) -> list[dict]:
        """Run ``unit`` while at least half of the next run is expected
        to fit within ``--seconds``; always at least once."""
        runs: list[dict] = []
        spans: list[float] = []
        started = time.perf_counter()
        while True:
            runs.append(unit(len(runs)))
            elapsed = time.perf_counter() - started
            spans.append(elapsed - sum(spans))
            typical = statistics.median(spans)
            if not runs[-1]["ok"] or elapsed + typical / 2 > self.args.seconds:
                return runs

    def archive_unit(self, jobs: int, with_store: bool, reference: dict):
        def unit(index: int) -> dict:
            stdout = self.out(f"analyze-{index}.out")
            trace = self.out(f"analyze-{index}.trace.jsonl")
            argv = ["analyze", self.archive, "--trust-bundle",
                    self.archive / "trust_bundle.txt", "--jobs", jobs,
                    "--json", "--metrics", "json", "--trace", trace]
            if with_store:
                argv += ["--store", self.store]
            code, wall, rss = run_child(
                self.repro(*argv), stdout=stdout, env=self.env
            )
            run = {"wall_s": wall, "peak_rss_mb": rss, "ok": False,
                   "attempted": 1, "failed": 1, "folds": [], "mismatches": []}
            if code != 0:
                self.log.append(f"analyze run {index} exited {code}")
                return run
            text, _, last = stdout.read_text().rstrip("\n").rpartition("\n")
            counters = json.loads(last)["counters"]
            mismatches = mismatched_tables(tables_from_export(text), reference)
            events = [json.loads(line) for line in trace.read_text().splitlines()]
            folds, idle = shard_timings(events, jobs)
            attempted = counters["supervisor.attempts"]
            failed = (counters["supervisor.retries"]
                      + counters["supervisor.shards_quarantined"])
            hits = counters.get("certfacts.enrich.hits", 0)
            lookups = hits + counters.get("certfacts.enrich.misses", 0)
            pipelined = counters.get("pipeline.shards", 0)
            run.update(
                ok=not mismatches, mismatches=mismatches,
                attempted=attempted,
                failed=attempted if mismatches else failed,
                folds=folds, worker_idle_frac=idle,
                retries=counters["supervisor.retries"],
                certfacts_hit_ratio=hits / lookups if lookups else 0.0,
                fallback_ratio=(counters.get("pipeline.fallbacks", 0) / pipelined
                                if pipelined else 0.0),
            )
            return run
        return unit

    def replays(self, reference: dict, traced: bool = False):
        """Run ``replay.py``; returns (replays, set-up samples)."""
        a = self.args
        name = "replay-traced" if traced else "replay"
        result_path = self.out(f"{name}.json")
        argv = ["--seed", a.seed, "--months", a.months, "--cpm", a.cpm,
                "--work", self.run_dir / name, "--out", result_path]
        if traced:
            argv += ["--seconds", 0, "--setups", 1, "--trace",
                     "--chrome", f"{self.result_prefix}.trace.json"]
        else:
            argv += ["--seconds", a.seconds, "--setups", SETUPS]
        check_child(self.script("replay.py", *argv),
                    stdout=self.out(f"{name}.out"), env=self.env)
        result = read_json(result_path)
        for run in result["runs"]:
            run["peak_rss_mb"] = result["peak_rss_mb"]
            mismatches = mismatched_tables(run["tables"], reference)
            failed = len(run["errors"])
            self.log.extend(run["errors"][:5])
            run.update(ok=not mismatches and not failed, mismatches=mismatches,
                       failed=run["attempted"] if mismatches else failed)
        return result["runs"], result["setup_s"]

    # --------------------------------------------------------------- main

    def measure(self) -> dict:
        a = self.args
        archive_jobs = {"archive-tsv": 1, "archive-store-j2": 2}
        if a.workload in archive_jobs:
            jobs = archive_jobs[a.workload]
            with_store = jobs > 1
            store = self.store if with_store else None
            setups = [self.setup_archive(self.archive, store)
                      for _ in range(SETUPS_BEFORE)]
            reference = self.reference()
            runs = self.repeat(
                self.archive_unit(jobs, with_store, reference["tables"])
            )
            # One more set-up sample after measuring, into spare
            # directories, so the samples span the run's whole window.
            spare = self.run_dir / "spare"
            setups += [
                self.setup_archive(spare / "archive", store and spare / "store")
                for _ in range(SETUPS - SETUPS_BEFORE)
            ]
            shutil.rmtree(spare, ignore_errors=True)
            polls = [s for r in runs for s in r["folds"]]
            queries = [r["wall_s"] for r in runs]
        else:
            reference = self.reference()
            runs, setups = self.replays(reference["tables"])
            polls = [s for r in runs for s in r["poll_s"]]
            queries = [s for r in runs for s in r["query_s"]]
        if not polls or not queries:
            raise BenchError("no run completed: " + "; ".join(self.log))
        walls = [r["wall_s"] for r in runs]
        summary = {
            "runs": runs,
            "reference_wall_s": reference["wall_s"],
            "reference": reference["tables"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": (all(r["ok"] for r in runs)
                        and not reference["mismatches"]),
            "end_to_end": {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
                "poll_p50_ms": percentile(polls, 50) * 1e3,
                "poll_p90_ms": percentile(polls, 90) * 1e3,
                "query_p50_ms": percentile(queries, 50) * 1e3,
                "query_p90_ms": percentile(queries, 90) * 1e3,
            },
            "samples": {"runs": len(runs), "setups": len(setups),
                        "polls": len(polls), "queries": len(queries)},
        }
        for name in reference["mismatches"]:
            self.log.append(f"reference path: table {name!r} differs from "
                            f"the kept reference in {KEPT_REFERENCE.name}/")
        for run in runs:
            for name in run["mismatches"]:
                self.log.append(f"table {name!r} differs from the reference")
        return summary

    def traced(self, summary: dict) -> dict:
        """The per-layer ledger from a traced repeat of the workload."""
        a = self.args
        runs = summary["runs"]
        if a.workload == "livetail-replay":
            [run], _ = self.replays(summary["reference"], traced=True)
            ledger = run["ledger"]
            extra = {"enrich.certfacts_hit_ratio": run["certfacts_hit_ratio"]}
            traced_ok = run["ok"]
        else:
            with_store = a.workload == "archive-store-j2"
            result_path = self.out("traced.json")
            argv = ["--archive", self.archive,
                    "--out", result_path,
                    "--chrome", f"{self.result_prefix}.trace.json"]
            if with_store:
                argv += ["--store", self.store, "--pack-dir",
                         self.run_dir / "pack-fresh", "--pickle"]
            check_child(self.script("traced.py", *argv),
                        stdout=self.out("traced.out"), env=self.env)
            result = read_json(result_path)
            ledger = result["ledger"]
            extra = dict(result["extra"])
            mismatches = mismatched_tables(result["tables"], summary["reference"])
            traced_ok = not mismatches
            for name in mismatches:
                self.log.append(f"traced run: table {name!r} differs")
            rows = extra.pop("zeek.rows_read")
            if not with_store:
                extra["zeek.rows_per_s"] = rows / ledger["zeek.read_s"]
            extra["enrich.certfacts_hit_ratio"] = statistics.median(
                r["certfacts_hit_ratio"] for r in runs
            )
            extra["parallel.worker_idle_frac"] = statistics.median(
                r["worker_idle_frac"] for r in runs
            )
            extra["parallel.shard_retries"] = sum(r["retries"] for r in runs)
            extra["pipeline.fallback_ratio"] = statistics.median(
                r["fallback_ratio"] for r in runs
            )
        wall = ledger.pop("trace.wall_s")
        layers = dict(ledger)
        metrics = {**layers, **extra}
        for kind in ("update", "merge", "finalize"):
            metrics[f"analyze.{kind}_s"] = sum(
                v for k, v in layers.items() if k.startswith(f"analyze.{kind}_s.")
            )
        residue = layers["unattributed_s"] / wall
        metrics.update({
            "trace.wall_s": wall,
            "trace.overhead_s": wall - summary["end_to_end"]["wall_s"],
            "ledger.residue_frac": residue,
            "ledger.incomplete": int(residue > RESIDUE_LIMIT),
            "reference.wall_s": summary["reference_wall_s"],
            "error_rate": summary["failed"] / summary["attempted"],
            "poll.samples": summary["samples"]["polls"],
            "query.samples": summary["samples"]["queries"],
        })
        write_json(f"{self.result_prefix}.ledger.json", {
            "layers": layers, "trace.wall_s": wall,
            "residue_frac": residue, "incomplete": residue > RESIDUE_LIMIT,
        })
        if residue > RESIDUE_LIMIT:
            self.log.append(
                f"ledger INCOMPLETE: unattributed {layers['unattributed_s']:.3f}s "
                f"is {residue:.1%} of the traced wall {wall:.3f}s"
            )
        summary["correct"] = summary["correct"] and traced_ok
        return metrics


def emit(declared: list[dict], values: dict, workload: str) -> dict:
    """Every declared metric with its unit; a metric this workload
    does not exercise reads 0, any other missing one is an error."""
    out = {}
    for spec in declared:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.startswith(NOT_ON_PATH[workload]):
            value = 0
        else:
            raise BenchError(f"metric {name!r} was not measured on {workload}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--months", type=int, default=MONTHS)
    parser.add_argument("--cpm", type=int, default=CONNECTIONS_PER_MONTH)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = read_json(spec_path)
    bench = Bench(args)
    try:
        summary = bench.measure()
        if args.trace:
            metrics = emit(spec["per_layer"], bench.traced(summary), args.workload)
        else:
            metrics = emit(spec["end_to_end"], summary["end_to_end"], args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.run_dir, ignore_errors=True)
    samples = summary["samples"]
    print(f"{args.workload} seed={args.seed}: {samples['runs']} runs, "
          f"{samples['setups']} set-ups, {samples['polls']} poll samples, "
          f"{samples['queries']} query samples")
    print("run walls (s): " + " ".join(f"{r['wall_s']:.3f}" for r in summary["runs"]))
    for line in bench.log:
        print(line)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
