"""IngestOptions / RecordSource API: coercion and signatures."""

import io
import warnings

import pytest

from repro.core.parallel import analyze_directory
from repro.core.pipeline import Pipeline
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import (
    ErrorPolicy,
    FastPath,
    IngestOptions,
    IngestReport,
    RecordSource,
    read_ssl_log,
    ssl_log_to_string,
)
from repro.zeek.files import TsvDirectorySource


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(seed=3, months=2, connections_per_month=60)
    ).generate()


@pytest.fixture(scope="module")
def ssl_text(simulation):
    return ssl_log_to_string(simulation.logs.ssl)


class TestIngestOptions:
    def test_coerces_strings(self):
        options = IngestOptions(on_error="skip", fast_path="off")
        assert options.on_error is ErrorPolicy.SKIP
        assert options.fast_path is FastPath.OFF
        assert list(FastPath) == [FastPath.OFF, FastPath.BATCH]
        # Retired modes are aliases, accepted by coerce only.
        for alias in ("on", "auto", True, "batch"):
            assert IngestOptions(fast_path=alias).fast_path is FastPath.BATCH
        assert FastPath.coerce(False) is FastPath.OFF
        for alias in ("auto", None, "on", True):
            assert Pipeline.coerce(alias) is Pipeline.ON
        assert Pipeline.coerce(False) is Pipeline.OFF
        with pytest.raises(ValueError, match="off, batch"):
            FastPath.coerce("sideways")
        with pytest.raises(ValueError, match="on, off"):
            Pipeline.coerce("sideways")

    def test_for_path_keeps_policies(self):
        report = IngestReport()
        base = IngestOptions(on_error="quarantine")
        derived = base.for_path("ssl.log", report)
        assert derived.on_error is ErrorPolicy.QUARANTINE
        assert derived.path == "ssl.log"
        assert derived.report is report

    def test_identity_excludes_fast_path(self):
        fast = IngestOptions(fast_path="batch")
        slow = IngestOptions(fast_path="off")
        assert fast.identity() == slow.identity()
        assert IngestOptions(on_error="skip").identity() != fast.identity()

    def test_sources_satisfy_protocol(self, tmp_path, simulation):
        from repro.zeek.files import write_rotated_logs

        write_rotated_logs(simulation.logs, tmp_path)
        assert isinstance(TsvDirectorySource(tmp_path), RecordSource)


class TestReaderShims:
    def test_options_path_is_silent(self, ssl_text):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            read_ssl_log(io.StringIO(ssl_text), IngestOptions())


class TestAnalyzeDirectorySignature:
    def test_bundle_required(self, tmp_path):
        with pytest.raises(TypeError, match="bundle"):
            analyze_directory(tmp_path)

    def test_too_many_positionals_rejected(self, simulation, tmp_path):
        with pytest.raises(TypeError, match="positional"):
            analyze_directory(
                tmp_path, simulation.trust_bundle, simulation.ct_log, object()
            )
