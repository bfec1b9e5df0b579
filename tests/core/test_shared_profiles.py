"""The certificate-profile population is built once per shard.

Table 6 and the eight §6 population tables (7, 8, 9, 13a/b, 14a/b,
SAN types) all count over one population: the unique leaf certificates
joined with how they were used. `protocol.create_partials` hands the
population partials it builds one shared `ProfileStore`; the first of
them owns it (folds connections in, merges it), the others only select
and count. `EnrichedDataset.profiles` is built on first use, so the
shard path never builds a whole-dataset copy. Pinned here:

* the regression guard: `analyze_directory(jobs=1)`, pipelined or not,
  calls `ProfileStore.observe` once per established connection that
  survives the interception filter, and never calls
  `MtlsDataset.certificate_profiles`;
* a subset of population tables still observes exactly once;
* ownership: one owner per `create_partials` call, standalone factory
  partials own a private store, and a pickle round trip keeps the
  sharing inside one dict.
"""

import collections
import pickle

import pytest

from repro.core import protocol
from repro.core.dataset import MtlsDataset, ProfileStore
from repro.core.enrich import Enricher
from repro.core.parallel import analyze_directory
from repro.netsim import ScenarioConfig, TrafficGenerator
from repro.zeek import IngestOptions
from repro.zeek.files import write_rotated_logs

POPULATION_TABLES = (
    "table6", "table7", "table8", "table9", "table13a", "table13b",
    "table14a", "table14b", "san-types",
)

#: Low enough that the seed-23 campaign's interception filter excludes
#: some certificates, so "unfiltered" is a real restriction.
MIN_INTERCEPTION_DOMAINS = 2


@pytest.fixture(scope="module")
def simulation():
    return TrafficGenerator(
        ScenarioConfig(seed=23, months=3, connections_per_month=120)
    ).generate()


@pytest.fixture(scope="module")
def archive(simulation, tmp_path_factory):
    directory = tmp_path_factory.mktemp("shared-profiles") / "archive"
    write_rotated_logs(simulation.logs, directory, compress=False)
    return directory


@pytest.fixture()
def counters(monkeypatch):
    """Counts `ProfileStore.observe` and `certificate_profiles` calls."""
    calls = collections.Counter()
    observe = ProfileStore.observe
    profiles = MtlsDataset.certificate_profiles

    def counting_observe(self, conn):
        calls["observe"] += 1
        return observe(self, conn)

    def counting_profiles(self):
        calls["certificate_profiles"] += 1
        return profiles(self)

    monkeypatch.setattr(ProfileStore, "observe", counting_observe)
    monkeypatch.setattr(MtlsDataset, "certificate_profiles", counting_profiles)
    return calls


def _context(simulation):
    return protocol.AnalysisContext(bundle=simulation.trust_bundle)


def _enriched(simulation):
    dataset = MtlsDataset(simulation.logs.ssl, simulation.logs.x509)
    return Enricher(simulation.trust_bundle).enrich(dataset)


def _population(partials):
    return [
        p for p in partials.values() if isinstance(p, protocol.ProfilesPartial)
    ]


class TestRegressionGuard:
    """Ten population builds per connection must not come back."""

    @pytest.mark.parametrize("pipeline", ["on", "off"])
    def test_one_observe_per_unfiltered_connection(
        self, simulation, archive, pipeline, counters
    ):
        campaign = analyze_directory(
            archive,
            bundle=simulation.trust_bundle,
            ct_log=simulation.ct_log,
            options=IngestOptions(on_error="strict"),
            min_interception_domains=MIN_INTERCEPTION_DOMAINS,
            jobs=1,
            pipeline=pipeline,
        )
        excluded = campaign.interception.excluded_fingerprints
        assert excluded, "the filter should exclude some certificates"
        dataset = MtlsDataset(simulation.logs.ssl, simulation.logs.x509)
        kept = len(dataset.without_fingerprints(excluded).connections)
        assert 0 < kept < len(dataset.connections)
        assert counters["observe"] == kept
        assert counters["certificate_profiles"] == 0
        assert campaign.metrics.counters["analyze.connections_enriched"] == kept

    def test_subset_observes_once(self, simulation, counters):
        enriched = _enriched(simulation)
        counters.clear()
        partials = protocol.create_partials(
            ["table8", "table14b"], _context(simulation)
        )
        protocol.update_partials(partials, enriched.connections)
        assert counters["observe"] == len(enriched.connections)
        assert counters["certificate_profiles"] == 0


class TestOwnership:
    def test_one_owner_per_call(self, simulation):
        partials = protocol.create_partials(None, _context(simulation))
        population = _population(partials)
        assert sorted(
            name for name, p in partials.items() if p in population
        ) == sorted(POPULATION_TABLES)
        owners = [p for p in population if p.owns_store]
        assert owners == [partials["table6"]]
        assert len({id(p.store) for p in population}) == 1
        # Each call builds its own store.
        again = protocol.create_partials(None, _context(simulation))
        assert again["table6"].store is not partials["table6"].store

    def test_first_selected_population_table_owns(self, simulation):
        partials = protocol.create_partials(
            ["table1", "table14b", "table8"], _context(simulation)
        )
        assert partials["table14b"].owns_store
        assert not partials["table8"].owns_store
        assert partials["table8"].store is partials["table14b"].store

    def test_factory_partial_owns_a_private_store(self, simulation):
        analysis = protocol.get_analysis("table8")
        one = analysis.factory(_context(simulation))
        two = analysis.factory(_context(simulation))
        assert one.owns_store and two.owns_store
        assert one.store is not two.store
        # The owner marker is a class-level default, not instance state.
        assert "owns_store" not in vars(one)

    def test_pickle_keeps_sharing_inside_one_dict(self, simulation):
        context = _context(simulation)
        connections = _enriched(simulation).connections
        shared = protocol.create_partials(POPULATION_TABLES, context)
        protocol.update_partials(shared, connections)
        clone = pickle.loads(pickle.dumps(shared))
        population = _population(clone)
        assert len({id(p.store) for p in population}) == 1
        assert [p for p in population if p.owns_store] == [clone["table6"]]
        # One store crosses the pipe, not nine.
        private = {
            name: protocol.get_analysis(name).factory(context)
            for name in POPULATION_TABLES
        }
        protocol.update_partials(private, connections)
        assert 2 * len(pickle.dumps(shared)) < len(pickle.dumps(private))
