"""The ``repro.store`` materialized-aggregate tier.

The store's contract mirrors the cluster's: **indistinguishability**.  A
store-backed server answers bit-for-bit what the storeless recompute
oracle answers — for any batch size (singletons included), after mutation
streams that stale out frontier rows, and across cluster fleets carrying
per-shard store slices.  Every equality assertion is exact
(``assert_array_equal``); the rows hold the same values the recompute
path's ``(seed, version, node)`` rng would produce, so any drift is a bug,
not noise.
"""

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.core import WidenClassifier
from repro.datasets import make_acm
from repro.serve import InferenceServer
from repro.store import STORE_FORMAT_VERSION, AggregateStore, build_store
from tests.test_batched_forward import add_relays, make_model, sample_states


@pytest.fixture(scope="module")
def acm():
    return make_acm(seed=0, scale=0.5)


@pytest.fixture(scope="module")
def trained(acm):
    model = WidenClassifier(seed=0, dim=16, num_wide=6, num_deep=5)
    model.fit(acm.graph, acm.split.train[:40], epochs=2)
    return model


@pytest.fixture(scope="module")
def checkpoint(trained, tmp_path_factory):
    path = tmp_path_factory.mktemp("store-ckpt") / "widen.npz"
    trained.save(path)
    return path


@pytest.fixture(scope="module")
def store_path(trained, acm, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "acm-store"
    build_store(trained, acm.graph, path, seed=7, dataset="acm")
    return path


def fresh_graph():
    return make_acm(seed=0, scale=0.5).graph


def fresh_server(checkpoint, store_path=None, **kwargs):
    graph = fresh_graph()
    classifier = WidenClassifier.load(checkpoint, graph=graph)
    store = None if store_path is None else AggregateStore.open(store_path)
    return InferenceServer(classifier, graph, seed=7, store=store, **kwargs)


def probe_nodes(graph, count, seed=3):
    rng = np.random.default_rng(seed)
    return rng.choice(graph.num_nodes, size=count, replace=False)


# ----------------------------------------------------------------------
# Build / open roundtrip and compatibility
# ----------------------------------------------------------------------


class TestStoreRoundtrip:
    def test_build_covers_every_node_with_meta(self, store_path, acm):
        store = AggregateStore.open(store_path)
        assert store.num_rows == acm.graph.num_nodes
        assert store.meta["format_version"] == STORE_FORMAT_VERSION
        assert store.meta["seed"] == 7
        assert store.meta["graph_version"] == int(acm.graph.version)
        assert store.meta["dataset"] == "acm"
        assert store.row_nbytes > 0
        assert store.nbytes == store.num_rows * store.row_nbytes

    def test_rows_survive_the_disk_roundtrip(self, trained, acm, store_path):
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 6)
        rngs = [
            np.random.default_rng([7, int(acm.graph.version), int(node)])
            for node in nodes
        ]
        direct_blocks, direct_lengths = trained.materialize_store_rows(
            nodes, acm.graph, rngs
        )
        blocks, lengths = store.blocks_for(nodes)
        np.testing.assert_array_equal(blocks, direct_blocks)
        np.testing.assert_array_equal(lengths, direct_lengths)

    def test_vectorized_lookups_match_scalar(self, store_path, acm):
        store = AggregateStore.open(store_path)
        nodes = probe_nodes(acm.graph, 8)
        versions = store.versions_of(nodes)
        blocks, lengths = store.blocks_for(nodes)
        for position, node in enumerate(nodes):
            assert versions[position] == store.version_of(int(node))
            block, length_row = store.block_for(int(node))
            np.testing.assert_array_equal(blocks[position], block)
            np.testing.assert_array_equal(lengths[position], length_row)

    def test_open_refuses_newer_format(self, store_path, tmp_path):
        import json
        import shutil

        copy = tmp_path / "newer"
        shutil.copytree(store_path, copy)
        meta = json.loads((copy / "meta.json").read_text())
        meta["format_version"] = STORE_FORMAT_VERSION + 1
        (copy / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="newer"):
            AggregateStore.open(copy)

    def test_attach_refuses_wrong_seed(self, checkpoint, store_path):
        graph = fresh_graph()
        classifier = WidenClassifier.load(checkpoint, graph=graph)
        with pytest.raises(ValueError, match="seed"):
            InferenceServer(
                classifier, graph, seed=8,
                store=AggregateStore.open(store_path),
            )

    def test_attach_refuses_different_parameters(self, acm, store_path):
        other = WidenClassifier(seed=1, dim=16, num_wide=6, num_deep=5)
        other.fit(acm.graph, acm.split.train[:40], epochs=1)
        reason = AggregateStore.open(store_path).compatible_with(other, 7)
        assert reason is not None and "digest" in reason

    def test_attach_refuses_geometry_mismatch(self, acm, store_path):
        other = WidenClassifier(seed=0, dim=16, num_wide=4, num_deep=5)
        other.fit(acm.graph, acm.split.train[:40], epochs=1)
        reason = AggregateStore.open(store_path).compatible_with(other, 7)
        assert reason is not None and "num_wide" in reason


# ----------------------------------------------------------------------
# Serving equality: store tier vs recompute oracle
# ----------------------------------------------------------------------


class TestStoreServingEquality:
    @pytest.mark.parametrize("batch", [1, 2, 7, 24])
    def test_store_hits_match_recompute(self, checkpoint, store_path, batch):
        oracle = fresh_server(checkpoint)
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(oracle.graph, batch)
        np.testing.assert_array_equal(
            stored.embed(nodes), oracle.embed(nodes)
        )
        lookups = stored.telemetry.store_lookups
        assert sum(record["hit"] for record in lookups) == batch

    def test_interleaved_mutations_stay_exact(self, checkpoint, store_path):
        oracle = fresh_server(checkpoint)
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(oracle.graph, 10)
        author = int(oracle.graph.nodes_of_type("author")[0])
        subject = int(oracle.graph.nodes_of_type("subject")[0])
        dim = oracle.graph.features.shape[1]
        steps = [
            ("add_edges", "paper-author", [int(nodes[0])], [author]),
            ("add_nodes", "paper", np.full((1, dim), 0.5)),
            ("add_edges", "paper-subject", [int(nodes[1])], [subject]),
        ]
        np.testing.assert_array_equal(
            stored.embed(nodes), oracle.embed(nodes)
        )
        for step in steps:
            for server in (oracle, stored):
                if step[0] == "add_edges":
                    server.add_edges(step[1], step[2], step[3])
                else:
                    server.add_nodes(step[1], features=step[2])
            np.testing.assert_array_equal(
                stored.embed(nodes), oracle.embed(nodes)
            )
        summary = stored.telemetry.summary()
        assert summary["store_stale"] > 0, (
            "the mutation stream never drove a frontier-stale store row"
        )

    def test_stale_row_refreshes_back_to_hit(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        node = int(probe_nodes(stored.graph, 1)[0])
        author = int(stored.graph.nodes_of_type("author")[0])
        stored.embed([node])
        stored.add_edges("paper-author", [node], [author])
        stored.embed([node])       # stale -> fallback + overlay refresh
        stored.cache.invalidate()  # force another miss on the same node
        stored.embed([node])       # overlay row is fresh again
        outcomes = stored.telemetry.store_lookups
        assert outcomes[0] == {"hit": 1, "stale": 0, "absent": 0}
        assert outcomes[1] == {"hit": 0, "stale": 1, "absent": 0}
        assert outcomes[2] == {"hit": 1, "stale": 0, "absent": 0}
        assert stored.store.overlay_size == 1

    def test_new_node_is_absent_then_materialized(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        oracle = fresh_server(checkpoint)
        dim = stored.graph.features.shape[1]
        features = np.full((1, dim), 0.25)
        new = int(stored.add_nodes("paper", features=features)[0])
        assert new == int(oracle.add_nodes("paper", features=features)[0])
        np.testing.assert_array_equal(
            stored.embed([new]), oracle.embed([new])
        )
        assert stored.telemetry.store_lookups[-1]["absent"] == 1

    @pytest.mark.parametrize("mode", ["batched", "sparse"])
    def test_relay_blocks_equal_recompute(self, acm, mode):
        """Pruned walks carry relay edges (Eq. 8); their materialized
        blocks must still reproduce the full forward bit for bit."""
        graph = acm.graph
        model = make_model(graph, forward_mode=mode)
        model.eval()
        targets = graph.labeled_nodes()[:8]
        states = add_relays(sample_states(graph, model.config, targets))
        assert any(
            relay is not None
            for state in states for deep in state.deep for relay in deep.relays
        )
        blocks, lengths = model.materialize_rows(targets, states, graph)
        recomputed, _, _ = model.forward_batch(targets, states, graph, None)
        np.testing.assert_array_equal(
            model.forward_from_blocks(blocks, lengths).data, recomputed.data
        )


# ----------------------------------------------------------------------
# Serving hooks leave the caller's train/eval mode alone
# ----------------------------------------------------------------------


class TestServingModeRestore:
    def test_serving_keeps_a_callers_eval_mode(self, trained, acm):
        model = trained.model
        model.eval()
        try:
            nodes = probe_nodes(acm.graph, 3)
            rngs = [np.random.default_rng([7, 0, int(node)]) for node in nodes]
            trained.embed_for_serving_batch(nodes, acm.graph, rngs)
            assert not any(module.training for module in model.modules())
        finally:
            model.train()

    def test_failed_store_call_restores_train_mode(self, trained, store_path, acm):
        model = trained.model
        model.train()
        store = AggregateStore.open(store_path)
        blocks, lengths = store.blocks_for(probe_nodes(acm.graph, 3))
        with pytest.raises(ValueError):
            trained.embed_from_store_blocks(blocks[:, :-1], lengths)
        assert all(module.training for module in model.modules())


# ----------------------------------------------------------------------
# Cluster fleets with per-shard store slices
# ----------------------------------------------------------------------


class TestClusterStoreSlices:
    @pytest.mark.parametrize("transport,num_shards", [
        ("inline", 1), ("inline", 4), ("socket", 4),
    ])
    def test_fleet_matches_oracle_through_mutations(
        self, checkpoint, store_path, transport, num_shards
    ):
        oracle = fresh_server(checkpoint)
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), num_shards, transport=transport,
            seed=7, partition_seed=7, store_path=store_path,
        )
        try:
            nodes = probe_nodes(oracle.graph, 12)
            np.testing.assert_array_equal(
                router.embed(nodes), oracle.embed(nodes)
            )
            author = int(oracle.graph.nodes_of_type("author")[0])
            for target in (oracle, router):
                target.add_edges("paper-author", [int(nodes[0])], [author])
            np.testing.assert_array_equal(
                router.embed(nodes), oracle.embed(nodes)
            )
        finally:
            router.close()

    def test_shard_slices_cover_owned_nodes_only(self, checkpoint, store_path):
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 4, transport="inline",
            seed=7, partition_seed=7, store_path=store_path,
        )
        try:
            for worker in router.workers:
                engine = worker.transport.engine
                shard_store = engine.server.store
                owned = set(int(n) for n in worker.spec.owned)
                assert shard_store is not None
                assert shard_store.num_rows == len(owned)
                for node in list(owned)[:5]:
                    assert shard_store.has(node)
                halo = [
                    int(n) for n in range(router.graph.num_nodes)
                    if n not in owned
                ][:5]
                for node in halo:
                    assert not shard_store.has(node)
        finally:
            router.close()

    def test_router_refuses_incompatible_store(self, checkpoint, store_path):
        with pytest.raises(ValueError, match="seed"):
            ClusterRouter.from_checkpoint(
                checkpoint, fresh_graph(), 2, transport="inline",
                seed=8, partition_seed=7, store_path=store_path,
            )

    def test_cluster_exposition_carries_store_series(
        self, checkpoint, store_path
    ):
        router = ClusterRouter.from_checkpoint(
            checkpoint, fresh_graph(), 2, transport="inline",
            seed=7, partition_seed=7, store_path=store_path,
        )
        try:
            router.embed(probe_nodes(router.graph, 8))
            text = router.render_prometheus()
        finally:
            router.close()
        assert "serve_store_requests_total" in text
        assert 'shard="0"' in text and 'shard="1"' in text
        store_lines = [
            line for line in text.splitlines()
            if line.startswith("serve_store_requests_total")
        ]
        assert any('outcome="hit"' in line for line in store_lines)


# ----------------------------------------------------------------------
# Observability: counters, gauges, exposition
# ----------------------------------------------------------------------


class TestStoreObservability:
    def test_exposition_has_store_and_cache_series(self, checkpoint, store_path):
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(stored.graph, 8)
        stored.embed(nodes)
        stored.embed(nodes)  # warm-cache pass feeds the node-hit histogram
        text = stored.render_prometheus()
        assert 'serve_store_requests_total{outcome="hit"}' in text
        assert "serve_cache_node_hits" in text
        assert "serve_store_rows" in text
        assert "serve_store_overlay_rows" in text

    def test_invalidation_counters_carry_reason_labels(
        self, checkpoint, store_path
    ):
        stored = fresh_server(checkpoint, store_path)
        nodes = probe_nodes(stored.graph, 6)
        stored.embed(nodes)
        author = int(stored.graph.nodes_of_type("author")[0])
        stored.add_edges("paper-author", [int(nodes[0])], [author])
        # Unknown-extent mutations take the coarse whole-cache path.
        stored._serving_reach = None
        stored.add_edges("paper-author", [int(nodes[1])], [author])
        registry = stored.telemetry.registry
        payload = registry.to_payload()
        series = {
            (record["name"], tuple(sorted(record["labels"].items())))
            for record in payload["series"]
            if record["kind"] == "counter"
        }
        assert (
            "serve_invalidated_entries_total", (("reason", "frontier"),)
        ) in series
        assert (
            "serve_invalidated_entries_total", (("reason", "full"),)
        ) in series
        assert (
            "serve_store_invalidated_rows_total", (("reason", "frontier"),)
        ) in series
        assert (
            "serve_store_invalidated_rows_total", (("reason", "full"),)
        ) in series

    def test_build_records_gauges(self, trained, acm, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        store = build_store(
            trained, acm.graph, tmp_path / "gauged", seed=7,
            registry=registry,
        )
        assert registry.gauge("store_rows").value == store.num_rows
        assert registry.gauge("store_row_bytes").value == store.row_nbytes
        assert registry.gauge("store_bytes_total").value == store.nbytes
        assert registry.gauge("store_build_seconds").value > 0
