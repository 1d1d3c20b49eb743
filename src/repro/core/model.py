"""The WIDEN model: heterogeneous message packaging + wide/deep passing.

One forward pass for a target node ``v_t`` (Section 3):

1. ``pack_wide`` builds ``M°`` (Eq. 1): row 0 is the target's own pack
   ``v_t ⊙ e_{t,t}`` (self-loop edge embedding of its node type); the rest
   are ``v_n ⊙ e_{n,t}`` over the wide neighbor set.
2. ``pack_deep`` builds ``M▷`` (Eq. 2) the same way over a deep random-walk
   sequence, where each pack's edge links it to its *predecessor*.  Pruned
   positions carry :class:`~repro.core.relay.RelayRecipe` edges which are
   re-evaluated against current parameters (Eq. 8).
3. PASS° (Eq. 3): the target's pack queries ``M°`` through a self-attention
   unit, yielding ``h_t°`` and the attention distribution the downsampler
   consumes.
4. PASS▷ (Eqs. 4-6): successive self-attention with the causal mask Θ
   refines ``M▷`` into ``H▷``; the target's pack then queries ``H▷`` (keys)
   against ``M▷`` (values), yielding ``h_t▷`` per walk; the Φ walks are
   average-pooled.
5. FUSE (Eq. 7): ``v_t' = normalize(ReLU(W [h°; h▷] + b))``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import WidenConfig
from repro.core.packing import (
    PackedBatch,
    block_slot_indices,
    causal_pairs,
    deep_causal_mask,
    pack_batch,
    pack_batch_sparse,
    pad_block_masks,
    padded_waste,
    segment_ids,
    segment_offsets,
)
from repro.core.relay import EdgeSpecLike, RelayRecipe
from repro.core.state import NeighborState
from repro.graph import HeteroGraph
from repro.graph.sampling import DeepNeighborSet, WideNeighborSet
from repro.nn import (
    Dropout,
    Embedding,
    Linear,
    Module,
    QueryAttention,
    SelfAttention,
    causal_mask,
)
from repro.obs.tracing import span as trace_span
from repro.tensor import Tensor, functional as F, ops
from repro.utils.rng import SeedLike, spawn_rngs

_EmbedCache = Dict[int, Tensor]


def _split_segments(weights: np.ndarray, lengths: np.ndarray) -> List[np.ndarray]:
    """Per-segment attention distributions, trimmed to the true lengths.

    ``weights`` is a padded ``(S, L)`` grid or a flat CSR ``(E,)`` vector.
    """
    lengths = lengths.tolist()
    if weights.ndim == 2:
        return [row[:n].copy() for row, n in zip(weights, lengths)]
    ends = np.cumsum(lengths).tolist()
    return [weights[end - n : end].copy() for end, n in zip(ends, lengths)]


def _segment_layout(packs: Tensor, lengths: np.ndarray):
    """How one pass's packs split into segments, read from their layout:
    ``(valid, attn_mask)`` for an ``(S, L, d)`` grid, ``(offsets, seg_ids)``
    for flat ``(E, d)`` rows."""
    if packs.data.ndim == 3:
        return pad_block_masks(lengths, packs.data.shape[1])
    offsets = segment_offsets(lengths)
    return offsets, segment_ids(offsets)


class WidenModel(Module):
    """Wide and deep message passing network.

    Parameters
    ----------
    num_features:
        Raw node feature dimension d0.
    num_edge_types:
        Size of the edge-type vocabulary **including** per-node-type
        self-loop types (``graph.num_edge_types_with_loops``).
    num_classes:
        Output classes of the semi-supervised task (Eq. 10's ``c``).
    config, seed:
        Hyperparameters and deterministic initialization seed.
    """

    def __init__(
        self,
        num_features: int,
        num_edge_types: int,
        num_classes: int,
        config: WidenConfig,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rngs = spawn_rngs(seed, 6)
        self.config = config
        d = config.dim
        self.project = Linear(num_features, d, bias=False, rng=rngs[0])  # G^node
        self.edge_embedding = Embedding(num_edge_types, d, rng=rngs[1])  # G^edge
        self.wide_pass = QueryAttention(d, num_heads=config.num_heads, rng=rngs[2])  # Eq. 3
        self.deep_successive = SelfAttention(d, rng=rngs[3])  # Eq. 4
        self.deep_pass = QueryAttention(d, num_heads=config.num_heads, rng=rngs[4])  # Eq. 5
        self.fuse = Linear(2 * d, d, rng=rngs[5])  # Eq. 7
        self.classifier = Linear(d, num_classes, bias=False, rng=rngs[0])  # C, Eq. 10
        self.pack_dropout = Dropout(config.dropout, rng=rngs[1])
        self.hidden_dropout = Dropout(config.dropout, rng=rngs[2])

    # ------------------------------------------------------------------
    # Embeddings
    # ------------------------------------------------------------------

    def initial_node_state(self, graph: HeteroGraph) -> np.ndarray:
        """Embedding initialization for every node: ``v = x G^node``.

        Algorithm 3 *replaces* ``v_t`` with the passing output every time a
        node is processed, so neighbor packs consume progressively refined
        embeddings — this table holds those current representations.  The
        target's own pack is always recomputed from features so gradients
        reach ``G^node``; neighbor entries enter as constants (historical
        embeddings), which truncates backpropagation to one passing step
        exactly as the paper's per-node update rule implies.

        Rows are L2-normalized to match the scale of refined embeddings
        (Eq. 7 normalizes every passing output), so packs never mix raw and
        refined vectors of incomparable magnitude.
        """
        state = graph.features @ self.project.weight.data
        norms = np.linalg.norm(state, axis=1, keepdims=True)
        return state / np.maximum(norms, 1e-12)

    def fresh_projection(self, node: int, graph: HeteroGraph) -> Tensor:
        """Trainable ``v_t = x_t G^node`` for the target node itself."""
        return ops.matmul(Tensor(graph.features[node]), self.project.weight)

    def node_embedding(
        self,
        node: int,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """Current representation ``v_i`` of a *neighbor* node.

        Reads the refined embedding table when provided (the normal path);
        falls back to a fresh feature projection otherwise.
        """
        node = int(node)
        if cache is not None and node in cache:
            return cache[node]
        if node_state is not None:
            embedding = Tensor(node_state[node])
        else:
            embedding = self.fresh_projection(node, graph)
        if cache is not None:
            cache[node] = embedding
        return embedding

    def edge_vector(
        self,
        spec: EdgeSpecLike,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """Edge embedding for a plain type id, or a relay recipe (Eq. 8)."""
        if isinstance(spec, RelayRecipe):
            outer = self.edge_vector(spec.outer, graph, node_state, cache)
            deleted_pack = self.node_embedding(
                spec.deleted_node, graph, node_state, cache
            ) * self.edge_vector(spec.deleted, graph, node_state, cache)
            return ops.maximum(outer, deleted_pack)
        return self.edge_embedding(np.asarray(spec))

    def relay_vectors_bulk(
        self,
        recipes: Sequence[RelayRecipe],
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
    ) -> Tensor:
        """All relay recipes of a batch as one ``(R, d)`` tensor (Eq. 8).

        Levelized evaluation of the recipe forest: one embedding lookup
        covers every plain-edge leaf, one table read (or feature projection)
        covers every deleted node, and each nesting depth then resolves with
        a single gather → mul → maximum round.  Numerically identical to
        mapping :meth:`edge_vector` over ``recipes`` — everything here is
        elementwise — but issues O(depth) ops instead of O(recipes · depth).
        """
        leaf_etypes: List[int] = []
        # Per recipe node: (outer_ref, deleted_node, deleted_ref, level)
        # where a ref is ('leaf', i) or ('rec', i).
        rec_nodes: List[tuple] = []

        def visit(spec: EdgeSpecLike):
            if isinstance(spec, RelayRecipe):
                outer_ref, outer_level = visit(spec.outer)
                deleted_ref, deleted_level = visit(spec.deleted)
                level = max(outer_level, deleted_level) + 1
                rec_nodes.append(
                    (outer_ref, int(spec.deleted_node), deleted_ref, level)
                )
                return ("rec", len(rec_nodes) - 1), level
            leaf_etypes.append(int(spec))
            return ("leaf", len(leaf_etypes) - 1), 0

        roots = [visit(recipe)[0] for recipe in recipes]

        # Table rows: leaves first, then recipe values level by level.
        table = self.edge_embedding(np.asarray(leaf_etypes, dtype=np.int64))
        deleted_nodes = np.asarray([rec[1] for rec in rec_nodes], dtype=np.int64)
        if node_state is not None:
            node_mat = Tensor(node_state[deleted_nodes])
        else:
            node_mat = ops.matmul(
                Tensor(graph.features[deleted_nodes]), self.project.weight
            )

        row_of = {("leaf", i): i for i in range(len(leaf_etypes))}
        max_level = max(rec[3] for rec in rec_nodes)
        for level in range(1, max_level + 1):
            members = [
                i for i, rec in enumerate(rec_nodes) if rec[3] == level
            ]
            ones = np.ones(len(members))
            outer_idx = np.asarray([row_of[rec_nodes[i][0]] for i in members])
            deleted_idx = np.asarray([row_of[rec_nodes[i][2]] for i in members])
            outer_rows = ops.pad_gather(table, outer_idx, ones)
            deleted_rows = ops.pad_gather(table, deleted_idx, ones)
            node_rows = ops.pad_gather(node_mat, np.asarray(members), ones)
            new_rows = ops.maximum(outer_rows, node_rows * deleted_rows)
            base = int(table.data.shape[0])
            for position, i in enumerate(members):
                row_of[("rec", i)] = base + position
            table = ops.concat([table, new_rows], axis=0)

        root_idx = np.asarray([row_of[ref] for ref in roots])
        return ops.pad_gather(table, root_idx, np.ones(len(roots)))

    def self_loop_vector(
        self,
        target: int,
        graph: HeteroGraph,
        cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """Self-loop edge embedding ``e_{t,t}`` as a ``(1, d)`` row.

        Self-loop types are per *node type*, so within one forward pass the
        target's Φ + 1 pack matrices all share the same row — ``cache``
        (keyed by loop-type id) gathers it from the embedding table once.
        """
        loop_type = int(graph.self_loop_type(target))
        if cache is not None and loop_type in cache:
            return cache[loop_type]
        vec = self.edge_embedding(np.asarray([loop_type]))
        if cache is not None:
            cache[loop_type] = vec
        return vec

    # ------------------------------------------------------------------
    # Message packaging (Eqs. 1-2)
    # ------------------------------------------------------------------

    def pack_wide(
        self,
        target: int,
        wide: WideNeighborSet,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        loop_cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """``M° = PACK°(W(v_t))`` — shape ``(|W| + 1, d)``, target pack first."""
        target_vec = self.fresh_projection(target, graph)
        if node_state is not None:
            neighbor_vecs = Tensor(node_state[wide.nodes])
        else:
            neighbor_vecs = ops.matmul(
                Tensor(graph.features[wide.nodes]), self.project.weight
            )
        if loop_cache is None:
            etypes = np.concatenate(([graph.self_loop_type(target)], wide.etypes))
            edge_vecs = self.edge_embedding(etypes)
        else:
            loop_vec = self.self_loop_vector(target, graph, loop_cache)
            if len(wide):
                edge_vecs = ops.concat(
                    [loop_vec, self.edge_embedding(wide.etypes)], axis=0
                )
            else:
                edge_vecs = loop_vec
        node_vecs = ops.concat(
            [ops.reshape(target_vec, (1, self.config.dim)), neighbor_vecs], axis=0
        )
        return node_vecs * edge_vecs

    def pack_deep(
        self,
        target: int,
        deep: DeepNeighborSet,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
        cache: Optional[_EmbedCache] = None,
        loop_cache: Optional[_EmbedCache] = None,
    ) -> Tensor:
        """``M▷ = PACK▷(D(v_t))`` — shape ``(|D| + 1, d)``, target pack first.

        Positions whose edge was replaced by a relay recipe evaluate the
        recipe against current parameters, so relays stay trainable.  The
        relay-free case (every walk before its first prune) takes a fully
        vectorized path — one projection matmul + one embedding gather —
        which dominates WIDEN's per-epoch cost.
        """
        relay_positions = [
            position for position, relay in enumerate(deep.relays)
            if relay is not None
        ]
        target_vec = ops.reshape(
            self.fresh_projection(target, graph), (1, self.config.dim)
        )
        if node_state is not None:
            neighbor_vecs = Tensor(node_state[deep.nodes])
        else:
            neighbor_vecs = ops.matmul(
                Tensor(graph.features[deep.nodes]), self.project.weight
            )
        node_vecs = ops.concat([target_vec, neighbor_vecs], axis=0)
        if loop_cache is None:
            etypes = np.concatenate(([graph.self_loop_type(target)], deep.etypes))
            edge_vecs = self.edge_embedding(etypes)
        else:
            loop_vec = self.self_loop_vector(target, graph, loop_cache)
            if len(deep):
                edge_vecs = ops.concat(
                    [loop_vec, self.edge_embedding(deep.etypes)], axis=0
                )
            else:
                edge_vecs = loop_vec
        if relay_positions:
            # Splice relay rows into the looked-up edge matrix.  Relays are
            # rare (one per prune), so per-row handling here stays cheap.
            segments: List[Tensor] = []
            cursor = 0
            for position in relay_positions:
                row = position + 1  # row 0 is the target's self-loop
                if row > cursor:
                    segments.append(ops.slice(edge_vecs, cursor, row, axis=0))
                relay_vec = self.edge_vector(
                    deep.relays[position], graph, node_state, cache
                )
                segments.append(ops.reshape(relay_vec, (1, self.config.dim)))
                cursor = row + 1
            if cursor < len(deep) + 1:
                segments.append(ops.slice(edge_vecs, cursor, len(deep) + 1, axis=0))
            edge_vecs = ops.concat(segments, axis=0)
        return node_vecs * edge_vecs

    # ------------------------------------------------------------------
    # Message passing (Eqs. 3-7)
    # ------------------------------------------------------------------

    def forward(
        self,
        target: int,
        state: NeighborState,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Optional[np.ndarray], List[np.ndarray]]:
        """Compute ``v_t'`` for one target node.

        ``node_state`` is the refined-embedding table (Algorithm 3's current
        representations); when omitted, neighbors fall back to fresh feature
        projections (a pure one-step pass).  Returns ``(embedding,
        wide_attention, deep_attentions)``; the attention distributions
        (detached numpy arrays over ``set size + 1`` packs, target first)
        feed the active downsampler and KL trigger.
        """
        config = self.config
        cache: _EmbedCache = {}
        loop_cache: _EmbedCache = {}
        d = config.dim

        with trace_span("widen.forward"):
            wide_attention: Optional[np.ndarray] = None
            if config.use_wide:
                with trace_span("widen.wide_pass", packs=len(state.wide) + 1):
                    packs = self.pack_wide(
                        target, state.wide, graph, node_state, loop_cache
                    )
                    packs = self.pack_dropout(packs)
                    h_wide, weights = self.wide_pass(packs[0], packs)
                    wide_attention = weights.data.copy()
            else:
                h_wide = Tensor(np.zeros(d))

            deep_attentions: List[np.ndarray] = []
            if config.use_deep:
                h_walks: List[Tensor] = []
                for deep in state.deep:
                    with trace_span("widen.deep_pass", packs=len(deep) + 1):
                        packs = self.pack_deep(
                            target, deep, graph, node_state, cache, loop_cache
                        )
                        packs = self.pack_dropout(packs)
                        if config.use_successive:
                            refined, _ = self.deep_successive(
                                packs, mask=causal_mask(len(deep) + 1)
                            )
                        else:
                            # Table-4 ablation: deep passing degenerates to plain
                            # attentive aggregation of the raw packs.
                            refined = packs
                        h_walk, weights = self.deep_pass(
                            packs[0], refined, values=packs
                        )
                        deep_attentions.append(weights.data.copy())
                        h_walks.append(h_walk)
                stacked = ops.stack(h_walks)
                h_deep = ops.mean(stacked, axis=0)  # average pooling over Φ walks
            else:
                h_deep = Tensor(np.zeros(d))

            hidden = ops.relu(self.fuse(ops.concat([h_wide, h_deep], axis=0)))
            hidden = self.hidden_dropout(hidden)
            embedding = F.l2_normalize(hidden, axis=-1)
        return embedding, wide_attention, deep_attentions

    # ------------------------------------------------------------------
    # Batched pipeline: pack rows → attention over segments → fuse
    # ------------------------------------------------------------------
    #
    # Every batched entry point runs the same two stages.  Training and
    # cold serving run both; store materialization stops after the first;
    # store serving enters at the second.  Bit-equality between the store
    # tier and the recompute oracle therefore reduces to equality of the
    # pack rows.

    def forward_batch(
        self,
        targets: Sequence[int],
        states: Sequence[NeighborState],
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, List[Optional[np.ndarray]], List[List[np.ndarray]]]:
        """Vectorized ``forward`` over ``B`` targets at once.

        Packs every target's ``M°`` and every walk's ``M▷`` into padded
        batch tensors (see :mod:`repro.core.packing`) and runs each stage —
        projection, edge gather, attention, fusion — as one batched op
        instead of ``B·(Φ + 1)`` small ones.  Padding is exact: padded node
        rows gather as zeros and padded attention slots carry ``-inf`` mask
        entries, so per-row results equal the per-node reference path.

        Returns ``(embeddings, wide_attentions, deep_attentions)`` where
        ``embeddings`` is ``(B, d)`` and the attention lists hold, per
        target, the same trimmed distributions ``forward`` would return.

        ``forward_mode="sparse"`` routes to the CSR kernels
        (:meth:`forward_batch_sparse`); ``"auto"`` measures the batch's
        would-be padding waste against the per-host kernel-selection table
        and picks per batch.
        """
        if self._select_sparse(states):
            return self.forward_batch_sparse(targets, states, graph, node_state)
        pack = pack_batch(
            targets,
            states,
            graph,
            self.config,
            pack_dropout=self.pack_dropout,
            hidden_dropout=self.hidden_dropout,
        )
        with trace_span("widen.forward", batch=pack.batch_size):
            return self._forward_pack(pack, graph, node_state)

    def _select_sparse(self, states: Sequence[NeighborState]) -> bool:
        """Route a batch to the CSR kernels?

        ``"sparse"`` always; ``"auto"`` when the batch's would-be padding
        waste meets the kernel-selection table's ``sparse_min_waste``
        (:mod:`repro.tensor.kernels`, tuned per host by ``tune-kernels``).
        """
        mode = self.config.forward_mode
        if mode == "sparse":
            return True
        if mode != "auto":
            return False
        from repro.tensor.kernels import get_forward_selection

        selection = get_forward_selection()
        return padded_waste(states, self.config) >= selection["sparse_min_waste"]

    def forward_batch_sparse(
        self,
        targets: Sequence[int],
        states: Sequence[NeighborState],
        graph: HeteroGraph,
        node_state: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, List[Optional[np.ndarray]], List[List[np.ndarray]]]:
        """:meth:`forward_batch` over flat CSR pack arrays — no padding.

        Every stage runs on work proportional to the real pack rows:
        ``gather_mul`` assembles the flat packs, ``sddmm`` scores only real
        (target, pack) pairs, ``segment_softmax``/``segment_matmul``
        normalize and aggregate segment-locally.  Pack-row values equal the
        padded kernels' valid slots bitwise (padding multiplies by exactly
        1.0 there), and the segment reductions see the same operands in the
        same order — results agree with :meth:`forward_batch` to the last
        ulp of the summation order (<= 1e-10), with identical dropout
        streams.
        """
        pack = pack_batch_sparse(
            targets,
            states,
            graph,
            self.config,
            pack_dropout=self.pack_dropout,
            hidden_dropout=self.hidden_dropout,
        )
        with trace_span("widen.forward", batch=pack.batch_size, kernel="sparse"):
            return self._forward_pack(pack, graph, node_state)

    def _forward_pack(
        self,
        pack: PackedBatch,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray],
    ) -> Tuple[Tensor, List[Optional[np.ndarray]], List[List[np.ndarray]]]:
        """Both stages over one pack, plus per-target attention lists."""
        batch = pack.batch_size
        wide, deep = self._pack_rows(pack, graph, node_state)
        embeddings, wide_weights, deep_weights = self._attend_fuse(
            batch, wide, pack.wide_lengths, deep, pack.deep_lengths,
            pack.hidden_dropout,
        )
        wide_attentions: List[Optional[np.ndarray]] = [None] * batch
        if wide_weights is not None:
            wide_attentions = _split_segments(wide_weights.data, pack.wide_lengths)
        deep_attentions: List[List[np.ndarray]] = [[] for _ in range(batch)]
        if deep_weights is not None:
            walks = _split_segments(deep_weights.data, pack.deep_lengths)
            for w, weights in enumerate(walks):
                deep_attentions[w // pack.num_walks].append(weights)
        return embeddings, wide_attentions, deep_attentions

    def _pack_rows(
        self,
        pack: PackedBatch,
        graph: HeteroGraph,
        node_state: Optional[np.ndarray],
    ) -> Tuple[Optional[Tensor], Optional[Tensor]]:
        """Stage 1, pack rows (Eqs. 1-2 and 8): ``(wide, deep)`` packs.

        Feature projection, edge-embedding gather, relay splice, then the
        fused gather-multiply in the pack's layout: padded ``(S, L, d)``
        grids through ``pad_gather_mul`` or flat CSR ``(E, d)`` rows
        through ``gather_mul``.  A disabled pass yields ``None``.
        """
        d = self.config.dim
        target_vecs = ops.matmul(
            Tensor(graph.features[pack.targets]), self.project.weight
        )
        if pack.neighbor_nodes.size:
            if node_state is not None:
                neighbor_vecs = Tensor(node_state[pack.neighbor_nodes])
            else:
                neighbor_vecs = ops.matmul(
                    Tensor(graph.features[pack.neighbor_nodes]),
                    self.project.weight,
                )
            flat = ops.concat([target_vecs, neighbor_vecs], axis=0)
        else:
            flat = target_vecs

        def assemble(index, etypes, valid, dropout, relays=(), relay_rows=None):
            edge_vecs = self.edge_embedding(etypes)
            if relays:
                relay_vecs = self.relay_vectors_bulk(relays, graph, node_state)
                flat_edges = ops.reshape(edge_vecs, (index.size, d))
                flat_edges = ops.scatter_rows(flat_edges, relay_rows, relay_vecs)
                edge_vecs = ops.reshape(flat_edges, index.shape + (d,))
            if valid is None:
                return ops.gather_mul(flat, index, edge_vecs, dropout)
            return ops.pad_gather_mul(flat, index, valid, edge_vecs, dropout)

        wide = deep = None
        if pack.wide_index is not None:
            wide = assemble(
                pack.wide_index, pack.wide_etypes, pack.wide_valid,
                pack.wide_dropout,
            )
        if pack.deep_index is not None:
            deep = assemble(
                pack.deep_index, pack.deep_etypes, pack.deep_valid,
                pack.deep_dropout, pack.deep_relays, pack.deep_relay_rows,
            )
        return wide, deep

    def _attend_fuse(
        self,
        batch: int,
        wide: Optional[Tensor],
        wide_lengths: Optional[np.ndarray],
        deep: Optional[Tensor],
        deep_lengths: Optional[np.ndarray],
        hidden_dropout: Optional[np.ndarray] = None,
    ) -> Tuple[Tensor, Optional[Tensor], Optional[Tensor]]:
        """Stage 2, attention over segments then fuse (Eqs. 3-7).

        ``wide`` holds one segment per target and ``deep`` one per walk
        (``w = b·Φ + j``), target pack first, with true lengths alongside.
        The layout is read from the array: an ``(S, L, d)`` grid runs the
        padded kernels under masks derived from the lengths, an ``(E, d)``
        matrix runs the segment kernels.  ``None`` skips a pass (its
        ablation).  Returns ``(embeddings, wide_weights, deep_weights)``
        with the weights in the packs' layout.
        """
        config = self.config
        d = config.dim
        wide_weights = deep_weights = None
        if wide is not None:
            with trace_span("widen.wide_pass", packs=int(wide.data[..., 0].size)):
                h_wide, wide_weights = self._query_pass(
                    self.wide_pass, wide, wide, _segment_layout(wide, wide_lengths)
                )
        else:
            h_wide = Tensor(np.zeros((batch, d)))

        if deep is not None:
            with trace_span("widen.deep_pass", packs=int(deep.data[..., 0].size)):
                segments = _segment_layout(deep, deep_lengths)
                refined = deep
                if config.use_successive:
                    refined = self._successive(deep, segments)
                h_walks, deep_weights = self._query_pass(
                    self.deep_pass, deep, refined, segments
                )
                num_walks = int(deep_lengths.shape[0]) // batch
                # Average pooling over the Φ walks.
                h_deep = ops.mean(
                    ops.reshape(h_walks, (batch, num_walks, d)), axis=1
                )
        else:
            h_deep = Tensor(np.zeros((batch, d)))

        hidden = ops.relu(self.fuse(ops.concat([h_wide, h_deep], axis=1)))
        if hidden_dropout is not None:
            hidden = ops.dropout_mask(hidden, hidden_dropout)
        return F.l2_normalize(hidden, axis=-1), wide_weights, deep_weights

    def _query_pass(
        self, unit: QueryAttention, packs: Tensor, keys: Tensor, segments
    ):
        """Each segment's target pack (row 0) queries ``keys`` and
        aggregates ``packs`` (PASS° Eq. 3 / PASS▷ Eq. 5)."""
        if packs.data.ndim == 3:
            _, mask = segments
            query = ops.reshape(
                ops.slice(packs, 0, 1, axis=1),
                (packs.data.shape[0], self.config.dim),
            )
            return unit(query, keys, values=packs, mask=mask)
        offsets, seg_ids = segments
        query = ops.pad_gather(packs, offsets[:-1], np.ones(offsets.size - 1))
        return unit.forward_sparse(query, keys, packs, seg_ids, offsets)

    def _successive(self, packs: Tensor, segments) -> Tensor:
        """Successive self-attention under the causal mask Θ (Eqs. 4, 6)."""
        if packs.data.ndim == 3:
            refined, _ = self.deep_successive(
                packs, mask=deep_causal_mask(*segments)
            )
            return refined
        offsets, _ = segments
        return self.deep_successive.forward_sparse(packs, *causal_pairs(offsets))

    # ------------------------------------------------------------------
    # Store blocks (repro.store)
    # ------------------------------------------------------------------

    def block_caps(self) -> Tuple[int, int]:
        """Rows of a store block's wide section and of each walk section:
        the sampling caps plus the target pack, 0 for a disabled pass."""
        config = self.config
        return (
            config.num_wide + 1 if config.use_wide else 0,
            config.num_deep + 1 if config.use_deep else 0,
        )

    def materialize_rows(
        self,
        targets: Sequence[int],
        states: Sequence[NeighborState],
        graph: HeteroGraph,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stage 1 alone, laid out as the store's blocks.

        Returns ``(blocks, lengths)``: ``(B, R, d)`` blocks holding each
        target's wide pack matrix and then its Φ walk matrices, each
        zero-padded to its sampling cap, and ``(B, 1 + Φ)`` true lengths
        (wide first).  Runs without dropout (no rng stream is consumed) and
        on fresh feature projections, so the rows are exactly what eval-mode
        :meth:`forward_batch` with ``node_state=None`` feeds its attention —
        which is what makes :meth:`forward_from_blocks` over them bit-equal
        to the full recompute.
        """
        config = self.config
        d = config.dim
        num_walks = config.num_deep_walks
        wide_cap, deep_cap = self.block_caps()
        pack = pack_batch_sparse(targets, states, graph, config)
        batch = pack.batch_size

        with trace_span("widen.materialize", batch=batch):
            wide, deep = self._pack_rows(pack, graph, None)
            lengths = np.zeros((batch, 1 + num_walks), np.int64)
            if wide is not None:
                lengths[:, 0] = pack.wide_lengths
            if deep is not None:
                lengths[:, 1:] = pack.deep_lengths.reshape(batch, num_walks)
            wide_slots, deep_slots = block_slot_indices(
                lengths, wide_cap, deep_cap, num_walks
            )
            capacity = wide_cap + num_walks * deep_cap
            blocks = np.zeros((batch * capacity, d))
            if wide is not None:
                blocks[wide_slots] = wide.data
            if deep is not None:
                blocks[deep_slots] = deep.data
        return blocks.reshape(batch, capacity, d), lengths

    def forward_from_blocks(self, blocks: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Stage 2 over store blocks: ``(B, d)`` embeddings.

        ``blocks``/``lengths`` are laid out as :meth:`materialize_rows`
        returns them and the store persists them.  ``forward_mode="sparse"``
        gathers the valid rows into flat CSR packs; every other mode feeds
        the blocks to the padded kernels as stored.  Padding to capacity
        rather than the batch maximum is exact (zero rows under ``-inf``
        mask entries contribute nothing), so the result is bit-identical to
        eval-mode :meth:`forward_batch` over the same sampled states.
        """
        config = self.config
        d = config.dim
        num_walks = config.num_deep_walks
        wide_cap, deep_cap = self.block_caps()
        blocks = np.asarray(blocks)
        lengths = np.asarray(lengths, np.int64)
        batch = int(blocks.shape[0])
        if batch == 0:
            raise ValueError("forward_from_blocks requires at least one block")
        capacity = wide_cap + num_walks * deep_cap
        if blocks.shape[1:] != (capacity, d) or lengths.shape != (batch, 1 + num_walks):
            raise ValueError(
                f"blocks {blocks.shape} / lengths {lengths.shape} do not match "
                f"this model's ({capacity}, {d}) block geometry"
            )
        wide_lengths = lengths[:, 0] if config.use_wide else None
        deep_lengths = lengths[:, 1:].reshape(-1) if config.use_deep else None

        with trace_span("widen.forward_from_blocks", batch=batch):
            wide = deep = None
            if config.forward_mode == "sparse":
                flat = blocks.reshape(batch * capacity, d)
                wide_slots, deep_slots = block_slot_indices(
                    lengths, wide_cap, deep_cap, num_walks
                )
                if config.use_wide:
                    wide = Tensor(flat[wide_slots])
                if config.use_deep:
                    deep = Tensor(flat[deep_slots])
            else:
                if config.use_wide:
                    wide = Tensor(np.ascontiguousarray(blocks[:, :wide_cap, :]))
                if config.use_deep:
                    deep = Tensor(
                        np.ascontiguousarray(blocks[:, wide_cap:, :]).reshape(
                            batch * num_walks, deep_cap, d
                        )
                    )
            embeddings, _, _ = self._attend_fuse(
                batch, wide, wide_lengths, deep, deep_lengths
            )
        return embeddings

    def logits(self, embeddings: Tensor) -> Tensor:
        """Class logits ``v' C`` (Eq. 10, pre-softmax)."""
        return self.classifier(embeddings)
