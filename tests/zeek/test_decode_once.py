"""The broadcast x509 stream is decoded once per source, and each TSV
decoder is compiled once per process.

`TsvDirectorySource` hands every monthly shard the *full* x509 stream
(fuid references cross rotation boundaries). Decoding that stream once
per shard made a rotated archive cost O(months²) x509 decodes; it is
now decoded once per source per process and served from a cache. The
batch engine likewise compiles each decoder once per process
(`tsv._process_decoder`) instead of once per reader. Pinned here:

* the regression guard: `analyze_directory(jobs=1)` decodes each x509
  file exactly once and compiles each batch decoder at most once per
  (kind, column order), pipelined or not;
* every shard's x509 records and report equal a fresh uncached decode
  under every error policy, and a strict failure raises the same error
  on every shard (nothing failed is cached);
* the cache never crosses a pickle, goes stale when a file changes,
  and keeps distinct path sets apart;
* the shared memos stay correct under two concurrent decoding threads,
  and a batch whose memo is cleared mid-run replays instead of failing.
"""

import collections
import io
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.core.parallel import analyze_directory
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.netsim.faults import FaultPlan, LogCorruptor
from repro.zeek import (
    IngestOptions,
    IngestReport,
    TsvFormatError,
    read_ssl_log,
    read_x509_log,
    ssl_log_to_string,
    x509_log_to_string,
)
from repro.zeek import files, tsv
from repro.zeek.files import TsvDirectorySource, write_rotated_logs

POLICIES = ("strict", "skip", "quarantine")


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(seed=23, months=3, connections_per_month=120)
    ).generate()


@pytest.fixture()
def archive(simulation, tmp_path):
    directory = tmp_path / "archive"
    write_rotated_logs(simulation.logs, directory, compress=False)
    return directory


@pytest.fixture()
def fresh_decoders(monkeypatch):
    """An empty process decoder table for one test (restored after)."""
    monkeypatch.setattr(tsv, "_CONVERTERS", {})
    monkeypatch.setattr(tsv, "_DECODERS", {})


@pytest.fixture()
def x509_reads(monkeypatch):
    """Counts `read_x509_log` calls made by the TSV source, per path."""
    calls = collections.Counter()
    original = files.read_x509_log

    def counting(source, options=None):
        calls[options.path] += 1
        return original(source, options)

    monkeypatch.setattr(files, "read_x509_log", counting)
    return calls


def _x509_paths(directory):
    return sorted(str(p) for p in directory.glob("x509.*.log"))


def _fresh_x509(paths, options):
    """The reference: an uncached decode of ``paths``, ts-sorted, into a
    new report — what every shard received before the cache existed."""
    report = IngestReport()
    records = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as source:
            records.extend(read_x509_log(source, options.for_path(path, report)))
    records.sort(key=lambda r: r.ts)
    return records, report


def _corrupt_one_x509(directory, policy):
    """Plant faults in the last x509 file: row faults only under strict
    (so the error names a data row and field), every fault kind — header
    reorder, truncation, missing ``#close`` — under the lenient ones."""
    path = sorted(directory.glob("x509.*.log"))[-1]
    plan = (
        FaultPlan(seed=5, flip_rate=0.08) if policy == "strict"
        else FaultPlan.uniform(0.08, seed=5)
    )
    text, summary = LogCorruptor(plan).corrupt(
        path.read_text(encoding="utf-8"), "x509"
    )
    assert summary.expected_reader_drops > 0
    path.write_text(text, encoding="utf-8")


def _error_key(exc):
    return (exc.path, exc.line_number, exc.field, exc.reason)


class TestRegressionGuard:
    """The O(months²) x509 decode and per-reader compiles must not
    come back silently."""

    @pytest.mark.parametrize("pipeline", ["on", "off"])
    def test_each_file_decoded_once_each_decoder_compiled_once(
        self, simulation, archive, pipeline, fresh_decoders, x509_reads,
        monkeypatch,
    ):
        compiles = collections.Counter()
        original = tsv._compile_batch_decoder

        def counting(factory, converters, permutation):
            order = tuple(permutation) if permutation is not None else None
            compiles[factory.__name__, order] += 1
            return original(factory, converters, permutation)

        monkeypatch.setattr(tsv, "_compile_batch_decoder", counting)
        campaign = analyze_directory(
            archive,
            bundle=simulation.trust_bundle,
            ct_log=simulation.ct_log,
            options=IngestOptions(on_error="strict"),
            jobs=1,
            pipeline=pipeline,
        )
        assert len(campaign.months) == 3
        x509_paths = _x509_paths(archive)
        assert len(x509_paths) >= 2
        assert dict(x509_reads) == {path: 1 for path in x509_paths}
        assert compiles, "the batch engine should have compiled decoders"
        assert set(compiles.values()) == {1}, dict(compiles)
        assert {kind for kind, _ in compiles} == {"SslRecord", "X509Record"}


class TestEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_shard_matches_a_fresh_decode(self, archive, policy):
        _corrupt_one_x509(archive, policy)
        options = IngestOptions(on_error=policy)
        paths = _x509_paths(archive)
        source = TsvDirectorySource(archive)
        if policy == "strict":
            with pytest.raises(TsvFormatError) as fresh:
                _fresh_x509(paths, options)
            for month in source.months():
                with pytest.raises(TsvFormatError) as served:
                    source.read_month(month, options)
                assert _error_key(served.value) == _error_key(fresh.value)
                with pytest.raises(TsvFormatError) as streamed:
                    source.stream_month(month, options).read_x509()
                assert _error_key(streamed.value) == _error_key(fresh.value)
            assert source._x509_cache == {}, "a failed read must not be cached"
            return
        expected, expected_report = _fresh_x509(paths, options)
        assert not expected_report.clean
        lists = []
        for month in source.months():
            shard = source.read_month(month, options)
            stream = source.stream_month(month, options)
            streamed = stream.read_x509()
            for records, report in (
                (shard.x509, shard.x509_report),
                (streamed, stream.x509_report),
            ):
                assert records == expected
                assert report.to_dict() == expected_report.to_dict()
                lists.append(records)
        # Each shard owns its list and report: mutating one leaks nowhere.
        assert len({id(records) for records in lists}) == len(lists)
        lists[0].clear()
        assert source.read_month(source.months()[-1], options).x509 == expected

    def test_pickled_source_carries_no_cache(self, archive):
        source = TsvDirectorySource(archive)
        cold = pickle.dumps(source)
        source.read_month(source.months()[0], IngestOptions())
        assert source._x509_cache
        warm = pickle.dumps(source)
        assert warm == cold
        clone = pickle.loads(warm)
        assert clone._x509_cache == {}
        assert clone.months() == source.months()

    def test_rewritten_file_forces_a_redecode(self, archive, x509_reads):
        options = IngestOptions()
        source = TsvDirectorySource(archive)
        paths = _x509_paths(archive)
        for month in source.months():
            source.read_month(month, options)
        assert dict(x509_reads) == {path: 1 for path in paths}
        target = archive / Path(paths[0]).name
        lines = target.read_text(encoding="utf-8").splitlines(keepends=True)
        data = [i for i, line in enumerate(lines) if not line.startswith("#")]
        del lines[data[0]]  # a smaller file: new size and mtime
        target.write_text("".join(lines), encoding="utf-8")
        shard = source.read_month(source.months()[0], options)
        assert dict(x509_reads) == {path: 2 for path in paths}
        expected, expected_report = _fresh_x509(paths, options)
        assert shard.x509 == expected
        assert shard.x509_report.to_dict() == expected_report.to_dict()

    def test_option_change_forces_a_redecode(self, archive, x509_reads):
        source = TsvDirectorySource(archive)
        month = source.months()[0]
        source.read_month(month, IngestOptions(on_error="strict"))
        source.read_month(month, IngestOptions(on_error="skip"))
        source.read_month(month, IngestOptions(fast_path="off"))
        source.read_month(month, IngestOptions(fast_path="off"))
        assert set(x509_reads.values()) == {3}

    def test_distinct_path_sets_keep_separate_entries(self, archive):
        options = IngestOptions()
        ssl = sorted(str(p) for p in archive.glob("ssl.*.log"))
        paths = _x509_paths(archive)
        source = TsvDirectorySource.from_shards([
            ("a", ssl[:1], paths),
            ("b", ssl[1:2], paths[:1]),
        ])
        for _ in range(2):
            for month, shard_paths in (("a", paths), ("b", paths[:1])):
                shard = source.read_month(month, options)
                expected, expected_report = _fresh_x509(shard_paths, options)
                assert shard.x509 == expected
                assert shard.x509_report.to_dict() == expected_report.to_dict()
        assert len(source._x509_cache) == 2


class TestSharedMemos:
    """Decoders and memos are per process, so the pipeline's feeder
    thread and the consuming thread can share them."""

    @pytest.mark.parametrize("kind", ["ssl", "x509"])
    def test_two_threads_under_a_tiny_cap(
        self, simulation, kind, fresh_decoders, monkeypatch
    ):
        monkeypatch.setattr(tsv, "_MEMO_MAX_ENTRIES", 8)
        if kind == "ssl":
            text, read = ssl_log_to_string(simulation.logs.ssl), read_ssl_log
        else:
            text, read = x509_log_to_string(simulation.logs.x509), read_x509_log

        def decode(fast_path):
            report = IngestReport()
            records = read(io.StringIO(text), IngestOptions(
                fast_path=fast_path, report=report, batch_chunk_chars=4096,
            ))
            return records, report.to_dict()

        reference = decode("off")
        barrier = threading.Barrier(2)
        results: list = [[], []]
        errors: list = []

        def worker(slot):
            try:
                barrier.wait()
                for _ in range(4):
                    results[slot].append(decode("batch"))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for slot in results:
            assert len(slot) == 4
            for result in slot:
                assert result == reference

    def test_mid_run_clear_falls_back_to_replay(
        self, simulation, fresh_decoders, monkeypatch
    ):
        """Another thread clearing a shared memo between a bulk fill and
        the gather that reads it back must send the run to replay."""
        text = x509_log_to_string(simulation.logs.x509)
        reference = read_x509_log(io.StringIO(text), IngestOptions(fast_path="off"))
        read_x509_log(io.StringIO(text), IngestOptions())  # compile + warm
        converters = tsv._CONVERTERS[("x509", None, tsv._MEMO_MAX_ENTRIES)]
        memo = dict(converters)["subject"]
        memo.cache.clear()
        calls = 0

        def clearing(text, _fn=memo.fn):
            nonlocal calls
            calls += 1
            if calls == 3:
                memo.cache.clear()  # what a concurrent fill at the cap does
            return _fn(text)

        monkeypatch.setattr(memo, "fn", clearing)
        replays = []
        original = tsv._LogReader._replay_run

        def counting(self, run, start, records):
            replays.append(len(run))
            return original(self, run, start, records)

        monkeypatch.setattr(tsv._LogReader, "_replay_run", counting)
        report = IngestReport()
        records = read_x509_log(io.StringIO(text), IngestOptions(report=report))
        assert calls >= 3
        assert replays, "the cleared run should have been replayed"
        assert records == reference
        assert report.rows_ok == len(reference) and report.rows_dropped == 0
