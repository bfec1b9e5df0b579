"""The mergeable-analysis contract: registry completeness, picklable
partials, and merge associativity / order-insensitivity.

The load-bearing property: for every registered analysis, feeding the
connection stream through ONE partial, or through partials over ANY
split of the stream merged in ANY order, finalizes to byte-identical
tables. That is what makes the shard executor provably equivalent to
the sequential pipeline.
"""

import importlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol


@pytest.fixture(scope="module")
def context(small_result):
    return protocol.AnalysisContext.from_enriched(small_result.enriched)


def _finalized(partial):
    return partial.finalize().render()


def _run_split(analysis, context, connections, raw_views, splits, order):
    """Feed each chunk into its own partial, merge in the given order."""
    bounds = [0, *sorted(splits), len(connections)]
    chunks = [
        connections[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)
    ]
    raw_bounds = [0, *sorted(s % (len(raw_views) + 1) for s in splits), len(raw_views)]
    raw_bounds = sorted(raw_bounds)
    raw_chunks = [
        raw_views[raw_bounds[i]:raw_bounds[i + 1]]
        for i in range(len(raw_bounds) - 1)
    ]
    partials = []
    for index, chunk in enumerate(chunks):
        partial = analysis.factory(context)
        for conn in chunk:
            partial.update(conn)
        if analysis.needs_raw and index < len(raw_chunks):
            for view in raw_chunks[index]:
                partial.update_raw(view)
        partials.append(partial)
    ordered = [partials[i] for i in order] if order else partials
    merged = ordered[0]
    for other in ordered[1:]:
        merged.merge(other)
    return merged


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        names = protocol.analysis_names()
        for name in protocol.PAPER_TABLE_ORDER:
            assert name in names
        assert len(names) == len(set(names))

    def test_names_are_paper_ordered(self):
        names = protocol.analysis_names()
        in_order = [n for n in names if n in protocol.PAPER_TABLE_ORDER]
        assert tuple(in_order) == protocol.PAPER_TABLE_ORDER

    def test_legacy_names_resolve(self):
        """Every migration-table entry points at a real callable."""
        for analysis in protocol.iter_analyses():
            if not analysis.legacy:
                continue
            parts = analysis.legacy.split(".")
            target = None
            depth = 0
            for i in range(len(parts), 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:i]))
                    depth = i
                    break
                except ModuleNotFoundError:
                    continue
            assert target is not None, analysis.legacy
            for part in parts[depth:]:
                target = getattr(target, part)
            assert callable(target), analysis.legacy

    def test_duplicate_name_with_different_factory_rejected(self):
        existing = protocol.get_analysis("table1")
        with pytest.raises(ValueError, match="already registered"):
            protocol.register(
                protocol.Analysis(
                    name="table1", title="x", factory=lambda ctx: None
                )
            )
        assert protocol.get_analysis("table1") is existing

    def test_reregistering_same_factory_is_idempotent(self):
        existing = protocol.get_analysis("table1")
        protocol.register(existing)
        assert protocol.get_analysis("table1") is existing

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="table1"):
            protocol.get_analysis("no-such-analysis")


class TestPartialMechanics:
    def test_empty_partials_finalize(self, context):
        """A shard with zero connections must still merge and render."""
        for analysis in protocol.iter_analyses():
            empty = analysis.factory(context)
            table = empty.finalize()
            assert table.title, analysis.name

    def test_partials_are_picklable(self, context, small_result):
        """Partials cross process boundaries; pickling is load-bearing."""
        partials = protocol.run_analyses(
            small_result.enriched, raw=small_result.dataset, context=context
        )
        for name, partial in partials.items():
            clone = pickle.loads(pickle.dumps(partial))
            assert _finalized(clone) == _finalized(partial), name

    def test_run_analyses_subset(self, small_result):
        partials = protocol.run_analyses(small_result.enriched, ["table5", "tls13"])
        assert sorted(partials) == ["table5", "tls13"]

    def test_merge_empty_is_identity(self, context, small_result):
        for analysis in protocol.iter_analyses():
            full = analysis.factory(context)
            for conn in small_result.enriched.connections:
                full.update(conn)
            if analysis.needs_raw:
                for view in small_result.dataset.connections:
                    full.update_raw(view)
            reference = _finalized(full)
            full.merge(analysis.factory(context))
            assert _finalized(full) == reference, analysis.name


class TestMergeEquivalence:
    """Sequential == any shard split == any (shuffled) merge order."""

    def test_halves_match_sequential(self, context, small_result):
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        mid = len(connections) // 2
        for analysis in protocol.iter_analyses():
            sequential = _run_split(analysis, context, connections, raw, [], [])
            halves = _run_split(analysis, context, connections, raw, [mid], [])
            assert _finalized(halves) == _finalized(sequential), analysis.name

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_splits_and_orders(self, data, context, small_result):
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        n_chunks = data.draw(st.integers(min_value=2, max_value=5))
        splits = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=len(connections)),
                    min_size=n_chunks - 1, max_size=n_chunks - 1,
                )
            )
        )
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        order = list(range(n_chunks))
        random.Random(seed).shuffle(order)
        for analysis in protocol.iter_analyses():
            sequential = _run_split(analysis, context, connections, raw, [], [])
            shuffled = _run_split(
                analysis, context, connections, raw, splits, order
            )
            assert _finalized(shuffled) == _finalized(sequential), analysis.name


# ---------------------------------------------------------------------------
# Whole-registry partial sets: one profile store shared per set
# ---------------------------------------------------------------------------


def _population(partials):
    return [
        p for p in partials.values() if isinstance(p, protocol.ProfilesPartial)
    ]


def _chunks(items, bounds):
    edges = [0, *bounds, len(items)]
    return [items[edges[i]:edges[i + 1]] for i in range(len(edges) - 1)]


def _shard_sets(context, connections, raw_views, splits, *, shape="new"):
    """One partial set per shard of a split stream, each pickled and
    unpickled as if it came back from a worker or a spill.

    ``shape="new"`` builds each set with :func:`protocol.create_partials`
    (one shared store per set); ``shape="old"`` builds every partial by
    its own factory, as sets built before stores were shared were: each
    population partial owns a private store and carries no owner marker.
    """
    raw_splits = [s * len(raw_views) // max(1, len(connections)) for s in splits]
    sets = []
    for chunk, raw_chunk in zip(
        _chunks(connections, splits), _chunks(raw_views, raw_splits)
    ):
        if shape == "new":
            partials = protocol.create_partials(None, context)
        else:
            partials = {
                analysis.name: analysis.factory(context)
                for analysis in protocol.iter_analyses()
            }
        protocol.update_partials(partials, chunk, raw_chunk)
        sets.append(pickle.loads(pickle.dumps(partials)))
    return sets


def _merged(sets, order):
    ordered = [sets[i] for i in order]
    into = ordered[0]
    for other in ordered[1:]:
        protocol.merge_partials(into, other)
    return into


def _tables(partials):
    return {name: _finalized(partial) for name, partial in partials.items()}


@pytest.fixture(scope="module")
def sequential(context, small_result):
    """Every table from one partial set fed the whole stream."""
    partials = protocol.create_partials(None, context)
    protocol.update_partials(
        partials, small_result.enriched.connections,
        small_result.dataset.connections,
    )
    return _tables(partials)


def _splits(data, connections, max_chunks=5):
    n_chunks = data.draw(st.integers(min_value=2, max_value=max_chunks))
    splits = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(connections)),
        min_size=n_chunks - 1, max_size=n_chunks - 1,
    )))
    order = list(range(n_chunks))
    random.Random(data.draw(st.integers(0, 2**16))).shuffle(order)
    return splits, order


class TestSharedStoreMerge:
    """Partial sets from `create_partials` share one profile store; any
    split, merge order and pickle round trip still equals one pass."""

    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_random_splits_orders_and_pickles(
        self, data, context, small_result, sequential
    ):
        connections = small_result.enriched.connections
        splits, order = _splits(data, connections)
        sets = _shard_sets(
            context, connections, small_result.dataset.connections, splits
        )
        merged = _merged(sets, order)
        assert _tables(merged) == sequential
        population = _population(merged)
        assert len({id(p.store) for p in population}) == 1
        # No table reads connection_count, so compare the store itself:
        # merging it once per sharer would double every count here.
        whole = small_result.enriched.dataset.certificate_profiles()
        store = population[0].store.profiles
        assert store.keys() == whole.keys()
        for fingerprint, expected in whole.items():
            got = store[fingerprint]
            for name in (
                "record", "used_as_server", "used_as_client", "used_in_mutual",
                "first_seen", "last_seen", "connection_count",
                "server_subnets", "client_subnets", "client_ips",
            ):
                assert getattr(got, name) == getattr(expected, name), (
                    fingerprint, name,
                )


class TestPreSharingCompatibility:
    """Sets and pickles made before stores were shared (every population
    partial owns its store, no owner marker): `--resume` over old
    manifest spills, live-tail checkpoints and streaming snapshots."""

    @pytest.mark.parametrize("old_first", [True, False])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_old_and_new_sets_merge_both_ways(
        self, data, old_first, context, small_result, sequential
    ):
        connections = small_result.enriched.connections
        raw = small_result.dataset.connections
        splits, _ = _splits(data, connections, max_chunks=4)
        new = _shard_sets(context, connections, raw, splits)
        old = _shard_sets(context, connections, raw, splits, shape="old")
        # Alternate shapes shard by shard, so an old set merges a new
        # one and a new set merges an old one.
        sets = [
            (old if (i % 2 == 0) == old_first else new)[i]
            for i in range(len(new))
        ]
        assert _tables(_merged(sets, range(len(sets)))) == sequential

    def test_old_pickle_unpickles_and_finalizes(self, context, small_result):
        """A partial pickled before sharing carries only its store (and,
        for the §6 tables, the bundle): no owner marker in its state."""
        connections = small_result.enriched.connections
        mid = len(connections) // 2
        for partial in _population(protocol.create_partials(None, context)):
            cls = type(partial)
            reference = cls(context)
            for conn in connections:
                reference.update(conn)
            old = cls.__new__(cls)
            old.__dict__["store"] = cls(context).store
            if cls.__name__ != "Table6Partial":
                old.__dict__["_bundle"] = context.bundle
            for conn in connections[:mid]:
                old.update(conn)
            clone = pickle.loads(pickle.dumps(old))
            assert "owns_store" not in vars(clone)
            assert clone.owns_store
            assert _finalized(clone) == _finalized(old)
            # It still folds rows and merges after the round trip.
            rest = cls(context)
            for conn in connections[mid:]:
                rest.update(conn)
            clone.merge(pickle.loads(pickle.dumps(rest)))
            assert _finalized(clone) == _finalized(reference), cls.__name__
