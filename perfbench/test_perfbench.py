"""Fast tests of the benchmark itself, on a tiny campaign.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from common import mismatched_tables
from ledger import ROOT, Ledger, ledger_metrics

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--months", "2", "--cpm", "60", "--seconds", "1"]


def bench(workload: str, seed: int, trace: int, cwd: Path = REPO):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


@pytest.fixture(scope="module")
def runs():
    """One untraced and one traced run of every workload."""
    return {
        (workload, trace): bench(workload, 99, trace)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(runs, workload, trace):
    proc, result = runs[(workload, trace)]
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_traced_wall(runs, workload):
    proc, result = runs[(workload, 1)]
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads(
        (HERE / ".work" / "results" / f"{workload}-seed99.ledger.json").read_text()
    )
    wall = ledger["trace.wall_s"]
    assert sum(ledger["layers"].values()) == pytest.approx(wall, abs=1e-6)
    metrics = result["metrics"]
    assert metrics["trace.wall_s"]["value"] == pytest.approx(wall)
    for name, seconds in ledger["layers"].items():
        assert metrics[name]["value"] == pytest.approx(seconds)
    assert metrics["unattributed_s"]["value"] >= 0
    assert (HERE / ".work" / "results" / f"{workload}-seed99.trace.json").exists()


def altered(reference: dict) -> dict:
    """``reference`` with one cell of table1 changed."""
    tables = json.loads(json.dumps(reference["tables"]))
    row = tables["table1"]["rows"][0]
    row[-1] = row[-1] + "0"
    return {**reference, "tables": tables}


def checkout_copy(root: Path, with_program: bool) -> Path:
    """A checkout-like directory: BENCHMARK.json and the benchmark,
    plus the program's source when ``with_program``."""
    shutil.copy(REPO / "BENCHMARK.json", root)
    shutil.copytree(
        HERE, root / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    if with_program:
        (root / "src").symlink_to(REPO / "src", target_is_directory=True)
    return root


@pytest.mark.parametrize("workload", ["archive-tsv", "livetail-replay"])
def test_altered_reference_table_is_caught(workload):
    seed = 98
    proc, result = bench(workload, seed, 0)
    assert proc.returncode == 0, proc.stderr
    cached = HERE / ".work" / "reference" / f"m2-c60-s{seed}.json"
    try:
        cached.write_text(json.dumps(altered(json.loads(cached.read_text()))))
        proc, result = bench(workload, seed, 0)
        assert proc.returncode != 0
        assert result["correct"] is False
        assert result["failed"] == result["attempted"] >= 1
        assert "'table1' differs" in proc.stdout
    finally:
        cached.unlink()


def test_kept_reference_catches_a_change_the_reference_path_shares(tmp_path):
    """A kept table that the program no longer produces, on either
    path, fails the run."""
    seed = 97
    root = checkout_copy(tmp_path, with_program=True)
    proc, _ = bench("archive-tsv", seed, 0, cwd=root)
    assert proc.returncode == 0, proc.stderr
    name = f"m2-c60-s{seed}.json"
    computed = json.loads((root / "perfbench" / ".work" / "reference" / name).read_text())
    kept = root / "perfbench" / "reference" / name
    kept.write_text(json.dumps({"tables": computed["tables"]}))
    proc, result = bench("archive-tsv", seed, 0, cwd=root)
    assert proc.returncode == 0, proc.stderr
    kept.write_text(json.dumps(altered({"tables": computed["tables"]})))
    proc, result = bench("archive-tsv", seed, 0, cwd=root)
    assert proc.returncode != 0
    assert result["correct"] is False
    assert "reference path: table 'table1' differs" in proc.stdout
    assert "'table1' differs from the reference" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    proc, result = bench("archive-tsv", 7, 0, cwd=checkout_copy(tmp_path, False))
    assert proc.returncode != 0
    assert result is None


def test_mismatch_names_changed_and_missing_tables():
    table = {"title": "T", "headers": ["a"], "rows": [["1"]], "notes": []}
    reference = {"x": table, "y": table}
    changed = {**table, "rows": [["2"]]}
    assert mismatched_tables({"x": table, "y": table}, reference) == []
    assert mismatched_tables({"x": changed, "y": table}, reference) == ["x"]
    assert mismatched_tables({"x": table}, reference) == ["y"]


def test_ledger_self_times_cover_nested_accumulated_and_threaded_spans():
    ticks = iter(range(100))
    ledger = Ledger(clock=lambda: float(next(ticks)))
    root = ledger.begin(ROOT)                       # 0
    with ledger.span("zeek.read"):                  # 1..4
        with ledger.span("enrich.scan"):            # 2..3
            pass
    with ledger.span("server.response") as query:   # 5..10
        def serve():
            with ledger.span("livetail.tables", parent=query):  # 6..9
                ledger.accumulate("analyze.update.table1", 2.0)
                with ledger.span("analyze.finalize.table1"):     # 7..8
                    pass
        worker = threading.Thread(target=serve)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    ledger.end(root)                                # 11
    metrics = ledger_metrics(ledger)
    assert metrics["trace.wall_s"] == 11
    assert metrics["zeek.read_s"] == 2
    assert metrics["enrich.scan_s"] == 1
    assert metrics["server.response_s"] == 2
    assert metrics["livetail.tables_s"] == 0
    assert metrics["analyze.update_s.table1"] == 2
    assert metrics["analyze.finalize_s.table1"] == 1
    assert metrics["unattributed_s"] == 3
    wall = metrics.pop("trace.wall_s")
    assert sum(metrics.values()) == wall
    events = [e for e in ledger.chrome_trace()["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 6
    assert {e["name"] for e in events} >= {"wall", "livetail.tables"}
