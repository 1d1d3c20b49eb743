"""Batch packing for the vectorized forward path.

The per-node reference path (:meth:`WidenModel.forward`) builds one small
``(L + 1, d)`` pack matrix per target and per walk and runs attention on
each — thousands of tiny op calls per epoch.  This module assembles the
*indices* for a whole minibatch up front so the model can execute the same
mathematics as a handful of batched tensor ops.

One walk over the neighbor states (:func:`pack_batch_sparse`) produces the
CSR description: every wide set and every deep walk becomes one segment of
flat ``(E,)`` index/etype arrays.  :func:`pack_batch` lays that same
description out as padded grids — every wide set one row of a ``(B, Lw)``
grid, every walk one row of a ``(B·Φ, Ld)`` grid — with 1/0 validity grids
that zero padded node rows at gather time.  Attention masks are derived
from the true lengths (:func:`pad_block_masks`, :func:`deep_causal_mask`),
and their ``-inf`` entries give padded slots exactly zero softmax weight —
so padding is numerically inert, not approximately so.

Relay edges (Eq. 8) cannot be table lookups: they are re-evaluated against
current parameters each forward.  The pack records their flat positions so
the model can splice the evaluated rows into the edge matrix with one
``scatter_rows``.

Dropout reproducibility: the per-node path draws one mask per pack matrix
(wide, then each walk, then the hidden vector) in target order.  When the
dropout modules are passed in, the packer consumes the rng streams in
exactly that order and assembles the draws into batch masks, so the
batched paths' training losses are bit-identical to the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import WidenConfig
from repro.core.relay import RelayRecipe
from repro.core.state import NeighborState
from repro.graph import HeteroGraph
from repro.obs.metrics import get_registry

_NEG_INF = float("-inf")

# width -> strictly-lower-triangular -inf base for deep_causal_mask.
_CAUSAL_BASES: Dict[int, np.ndarray] = {}


def pad_block_masks(lengths: np.ndarray, width: int):
    """``(valid, attn_mask)`` for padded pack grids, no Python loops.

    Slot ``j`` of row ``i`` is valid when ``j < lengths[i]``.  Padding to
    any width at least the longest row — the batch maximum, or a store
    block's fixed capacity — is numerically inert: padded slots are exactly
    zero, carry ``-inf`` mask entries, and appending exact zeros to a
    summation changes nothing.
    """
    valid = (
        np.arange(width) < np.asarray(lengths, np.int64).reshape(-1, 1)
    ).astype(float)
    attn_mask = np.where(valid > 0.0, 0.0, _NEG_INF)
    return valid, attn_mask


def deep_causal_mask(valid: np.ndarray, attn_mask: np.ndarray) -> np.ndarray:
    """Causal mask Θ (Eq. 6) plus key padding for a padded walk batch.

    Padded *rows* would see only -inf (causal keeps j >= i, all of which
    are padding), which NaNs the softmax — let them attend to themselves
    instead: their packs are exactly zero, so the refined row stays zero
    and carries no gradient.
    """
    width = valid.shape[1]
    causal = _CAUSAL_BASES.get(width)
    if causal is None:
        # One strictly-lower-triangular -inf template per width; widths
        # are bounded by the deep sampling cap, so the cache stays tiny
        # while the serving hot path skips the tril rebuild per batch.
        causal = np.zeros((width, width))
        causal[np.tril_indices(width, k=-1)] = _NEG_INF
        _CAUSAL_BASES[width] = causal
    mask = causal[np.newaxis] + attn_mask[:, np.newaxis, :]
    pad_w, pad_i = np.nonzero(valid == 0.0)
    mask[pad_w, pad_i, pad_i] = 0.0
    return mask


def segment_offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR boundaries ``(S + 1,)`` for segments of the given lengths."""
    lengths = np.asarray(lengths, np.int64)
    offsets = np.zeros(lengths.size + 1, np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Flat ``(P,)`` map from entry position to segment index."""
    offsets = np.asarray(offsets, np.int64)
    return np.repeat(
        np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets)
    )


def causal_pairs(offsets: np.ndarray):
    """Enumerate the (row, col) pairs the causal mask Θ (Eq. 6) keeps.

    For each flat pack row ``i`` in a segment ``[start, end)``, the causal
    self-attention attends to cols ``i..end-1`` (information flows from the
    walk's end back toward the target).  Returns
    ``(pair_rows, pair_cols, pair_offsets)`` where ``pair_offsets`` has one
    segment per *attending row* — exactly the pairs the padded kernel's
    ``tril(-inf)`` mask leaves finite, with no ``(W, Ld, Ld)`` grid.
    """
    offsets = np.asarray(offsets, np.int64)
    total = int(offsets[-1])
    lengths = np.diff(offsets)
    rows_range = np.arange(total, dtype=np.int64)
    counts = np.repeat(offsets[1:], lengths) - rows_range
    pair_offsets = np.zeros(total + 1, np.int64)
    np.cumsum(counts, out=pair_offsets[1:])
    pair_rows = np.repeat(rows_range, counts)
    pair_cols = (
        np.arange(int(pair_offsets[-1]), dtype=np.int64)
        - np.repeat(pair_offsets[:-1], counts)
        + pair_rows
    )
    return pair_rows, pair_cols, pair_offsets


def flat_slot_indices(lengths: np.ndarray, starts: np.ndarray):
    """Gather indices selecting the first ``lengths[i]`` slots per segment.

    ``starts[i]`` is segment ``i``'s base position in some flat row matrix
    (e.g. a padded grid or a capacity-padded store block reshaped to
    ``(B·R, d)``).  Returns ``(indices, offsets)`` where ``indices`` picks
    the valid slots of every segment back-to-back — the bridge between
    padded layouts and the CSR kernels, in both directions.
    """
    lengths = np.asarray(lengths, np.int64)
    starts = np.asarray(starts, np.int64)
    offsets = segment_offsets(lengths)
    total = int(offsets[-1])
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], lengths)
    return np.repeat(starts, lengths) + within, offsets


def block_slot_indices(
    lengths: np.ndarray, wide_cap: int, deep_cap: int, num_walks: int
):
    """Flat positions of the valid wide and deep rows in ``(B, R, d)`` blocks.

    A block is the store's per-node layout: the wide pack matrix in rows
    ``[0, wide_cap)``, then Φ walk matrices of ``deep_cap`` rows each, all
    zero-padded.  ``lengths`` is ``(B, 1 + Φ)`` (wide first).  Returns
    ``(wide_slots, deep_slots)`` into the blocks reshaped to ``(B·R, d)``,
    each in CSR order (target by target, walk by walk).
    """
    lengths = np.asarray(lengths, np.int64)
    batch = lengths.shape[0]
    capacity = wide_cap + num_walks * deep_cap
    bases = np.arange(batch, dtype=np.int64) * capacity
    wide_slots, _ = flat_slot_indices(lengths[:, 0], bases)
    walk_starts = (
        bases[:, np.newaxis]
        + wide_cap
        + np.arange(num_walks, dtype=np.int64)[np.newaxis, :] * deep_cap
    )
    deep_slots, _ = flat_slot_indices(
        lengths[:, 1:].reshape(-1), walk_starts.reshape(-1)
    )
    return wide_slots, deep_slots


def _observe_padding(
    path: str, lengths: np.ndarray, width: int, materialized: bool
) -> None:
    """Export the padding-waste share of a pack's ``[B, L_max]`` grid.

    ``pack_padding_waste`` is the fraction of grid slots that are padding
    for this batch's geometry — the sparse packer reports the same number
    (the waste it *avoided*), so the gauge describes the workload's skew
    regardless of the active path.  The ``pack_slots_total`` counters only
    count slots actually materialized: under the sparse path the
    ``padding`` series stays flat, which is the observable win.
    """
    registry = get_registry()
    slots = int(lengths.shape[0]) * int(width)
    used = int(lengths.sum())
    waste = 0.0 if slots == 0 else 1.0 - used / slots
    registry.gauge("pack_padding_waste", path=path).set(waste)
    registry.counter("pack_slots_total", path=path, kind="valid").inc(used)
    if materialized:
        registry.counter("pack_slots_total", path=path, kind="padding").inc(
            slots - used
        )


def padded_waste(states: Sequence[NeighborState], config: WidenConfig) -> float:
    """Padding fraction the padded grids would carry for these states.

    The ``forward_mode="auto"`` dispatch compares this against the
    kernel-selection table's ``sparse_min_waste`` without building any
    grid: high-skew batches (a few hubs stretching ``L_max``) route to the
    CSR kernels, near-uniform ones keep the gemm-friendly padded path.
    """
    slots = 0
    used = 0
    if config.use_wide:
        lengths = [len(state.wide) + 1 for state in states]
        slots += len(lengths) * max(lengths)
        used += sum(lengths)
    if config.use_deep:
        lengths = [
            len(deep) + 1 for state in states for deep in state.deep
        ]
        if lengths:
            slots += len(lengths) * max(lengths)
            used += sum(lengths)
    return 0.0 if slots == 0 else 1.0 - used / slots


@dataclass
class PackedBatch:
    """Index-level description of a minibatch forward pass.

    Flat node-vector rows are laid out as ``[fresh target projections (B);
    unique neighbor embeddings (U)]``: slot indices below ``B`` address a
    target's trainable projection, the rest address ``neighbor_nodes``.
    All arrays are plain numpy — no gradients flow through the pack itself.

    Each pass (wide: one segment per target; deep: one segment per walk,
    ``w = b·Φ + j``) comes in one of two layouts, target pack first in
    every segment:

    - CSR (:func:`pack_batch_sparse`): ``*_index``/``*_etypes`` are flat
      ``(E,)`` arrays with the segments back to back, ``*_valid`` is None.
    - padded (:func:`pack_batch`): ``(S, L)`` grids, one segment per row,
      with ``*_valid`` 1.0 at real slots and 0.0 at padding (index and
      etype 0 there).

    ``deep_relay_rows`` are flat positions into ``deep_index.ravel()``, and
    dropout masks have the index shape plus ``(d,)`` (ones at padding).
    """

    targets: np.ndarray            # (B,) target node ids
    neighbor_nodes: np.ndarray     # (U,) unique neighbor ids -> flat rows B..B+U-1

    wide_index: Optional[np.ndarray] = None       # flat node row per slot
    wide_etypes: Optional[np.ndarray] = None      # edge-type ids
    wide_valid: Optional[np.ndarray] = None       # padded layout only
    wide_lengths: Optional[np.ndarray] = None     # (B,) valid packs incl. target

    num_walks: int = 0
    deep_index: Optional[np.ndarray] = None
    deep_etypes: Optional[np.ndarray] = None
    deep_valid: Optional[np.ndarray] = None
    deep_lengths: Optional[np.ndarray] = None     # (B·Φ,)
    deep_relay_rows: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64)
    )
    deep_relays: List[RelayRecipe] = field(default_factory=list)

    # Scaled dropout masks drawn in per-node rng order (None in eval mode).
    wide_dropout: Optional[np.ndarray] = None
    deep_dropout: Optional[np.ndarray] = None
    hidden_dropout: Optional[np.ndarray] = None   # (B, d)

    @property
    def batch_size(self) -> int:
        return int(self.targets.shape[0])


def _draw(dropout, shape):
    return None if dropout is None else dropout.draw_mask(shape)


def _csr_segments(heads, loop_types, node_lists, etype_lists, neighbor_nodes, batch):
    """One pass's CSR arrays: each segment is its head slot then its nodes.

    ``heads[s]`` is the flat row of segment ``s``'s target pack (the
    target's own projection) and ``loop_types[s]`` its self-loop type.
    """
    lengths = np.array([nodes.size + 1 for nodes in node_lists], np.int64)
    offsets = segment_offsets(lengths)
    index = np.empty(int(offsets[-1]), np.int64)
    etypes = np.empty(int(offsets[-1]), np.int64)
    tail = np.ones(index.size, bool)
    tail[offsets[:-1]] = False
    index[offsets[:-1]] = heads
    etypes[offsets[:-1]] = loop_types
    index[tail] = batch + np.searchsorted(
        neighbor_nodes, np.concatenate(node_lists)
    )
    etypes[tail] = np.concatenate(etype_lists)
    return index, etypes, lengths, offsets


def _pack_csr(targets, states, graph, config, pack_dropout, hidden_dropout, dim):
    """The one walk over the neighbor states: a CSR :class:`PackedBatch`."""
    targets = np.asarray(targets, dtype=np.int64)
    batch = targets.shape[0]
    if batch == 0:
        raise ValueError("packing requires at least one target")
    if len(states) != batch:
        raise ValueError(f"{batch} targets but {len(states)} neighbor states")
    d = int(dim if dim is not None else config.dim)
    loop_types = graph.self_loop_types(targets)

    chunks: List[np.ndarray] = []
    if config.use_wide:
        chunks.extend(state.wide.nodes for state in states)
    if config.use_deep:
        chunks.extend(deep.nodes for state in states for deep in state.deep)
    if chunks:
        neighbor_nodes = np.unique(np.concatenate(chunks))
    else:
        neighbor_nodes = np.empty(0, np.int64)

    pack = PackedBatch(targets=targets, neighbor_nodes=neighbor_nodes)
    rows = np.arange(batch, dtype=np.int64)

    if config.use_wide:
        pack.wide_index, pack.wide_etypes, pack.wide_lengths, _ = (
            _csr_segments(
                rows, loop_types,
                [state.wide.nodes for state in states],
                [state.wide.etypes for state in states],
                neighbor_nodes, batch,
            )
        )

    if config.use_deep:
        num_walks = len(states[0].deep)
        for state in states:
            if len(state.deep) != num_walks:
                raise ValueError("all targets must carry the same walk count Φ")
        pack.num_walks = num_walks
        walks = [deep for state in states for deep in state.deep]
        owners = np.repeat(rows, num_walks)
        pack.deep_index, pack.deep_etypes, pack.deep_lengths, deep_offsets = (
            _csr_segments(
                owners, loop_types[owners],
                [deep.nodes for deep in walks],
                [deep.etypes for deep in walks],
                neighbor_nodes, batch,
            )
        )
        relay_rows: List[int] = []
        for w, deep in enumerate(walks):
            for position, relay in enumerate(deep.relays):
                if relay is not None:
                    relay_rows.append(int(deep_offsets[w]) + position + 1)
                    pack.deep_relays.append(relay)
        pack.deep_relay_rows = np.asarray(relay_rows, np.int64)

    # ---- dropout draws in per-node order -------------------------------
    # One mask per pack matrix, in the per-node path's order; the
    # segments are contiguous in that same order, so the draws
    # concatenate straight into the flat CSR masks.
    wide_masks, deep_masks, hidden_masks = [], [], []
    for b in range(batch):
        if config.use_wide:
            wide_masks.append(_draw(pack_dropout, (int(pack.wide_lengths[b]), d)))
        for w in range(b * pack.num_walks, (b + 1) * pack.num_walks):
            deep_masks.append(_draw(pack_dropout, (int(pack.deep_lengths[w]), d)))
        hidden_masks.append(_draw(hidden_dropout, (d,)))
    if wide_masks and wide_masks[0] is not None:
        pack.wide_dropout = np.concatenate(wide_masks)
    if deep_masks and deep_masks[0] is not None:
        pack.deep_dropout = np.concatenate(deep_masks)
    if hidden_masks[0] is not None:
        pack.hidden_dropout = np.stack(hidden_masks)
    return pack


def pack_batch_sparse(
    targets: Sequence[int],
    states: Sequence[NeighborState],
    graph: HeteroGraph,
    config: WidenConfig,
    pack_dropout=None,
    hidden_dropout=None,
    dim: Optional[int] = None,
) -> PackedBatch:
    """Assemble flat CSR pack arrays for ``B`` targets — no padding.

    ``pack_dropout``/``hidden_dropout`` are the model's :class:`Dropout`
    modules (or ``None``); their rng streams are consumed in per-node order
    with true-length shapes, so training stays bit-identical with the
    reference path.  ``dim`` defaults to ``config.dim`` and sizes the
    dropout masks.
    """
    pack = _pack_csr(
        targets, states, graph, config, pack_dropout, hidden_dropout, dim
    )
    if pack.wide_lengths is not None:
        _observe_padding("wide", pack.wide_lengths, int(pack.wide_lengths.max()), False)
    if pack.deep_lengths is not None:
        _observe_padding("deep", pack.deep_lengths, int(pack.deep_lengths.max()), False)
    return pack


def _grids(index, etypes, lengths, dropout):
    """Scatter one pass's CSR arrays into padded ``(S, L)`` grids.

    Returns ``(index, etypes, valid, dropout, valid_mask)``: padding holds
    index/etype 0, validity 0.0 and dropout 1.0; ``valid_mask`` is the
    boolean grid whose row-major true slots are the CSR entries in order.
    """
    valid = np.arange(int(lengths.max())) < lengths[:, np.newaxis]
    index_grid = np.zeros(valid.shape, np.int64)
    index_grid[valid] = index
    etype_grid = np.zeros(valid.shape, np.int64)
    etype_grid[valid] = etypes
    if dropout is not None:
        dropout_grid = np.ones(valid.shape + dropout.shape[1:])
        dropout_grid[valid] = dropout
        dropout = dropout_grid
    return index_grid, etype_grid, valid.astype(float), dropout, valid


def pack_batch(
    targets: Sequence[int],
    states: Sequence[NeighborState],
    graph: HeteroGraph,
    config: WidenConfig,
    pack_dropout=None,
    hidden_dropout=None,
    dim: Optional[int] = None,
) -> PackedBatch:
    """:func:`pack_batch_sparse` laid out as padded grids.

    Each segment becomes one grid row, padded to the batch's longest
    segment, and relay rows move to the same slots of the flattened grid.
    Same arguments, same rng consumption.
    """
    pack = _pack_csr(
        targets, states, graph, config, pack_dropout, hidden_dropout, dim
    )
    if pack.wide_lengths is not None:
        (pack.wide_index, pack.wide_etypes, pack.wide_valid,
         pack.wide_dropout, _) = _grids(
            pack.wide_index, pack.wide_etypes, pack.wide_lengths,
            pack.wide_dropout,
        )
        _observe_padding(
            "wide", pack.wide_lengths, pack.wide_index.shape[1], True
        )
    if pack.deep_lengths is not None:
        (pack.deep_index, pack.deep_etypes, pack.deep_valid,
         pack.deep_dropout, valid) = _grids(
            pack.deep_index, pack.deep_etypes, pack.deep_lengths,
            pack.deep_dropout,
        )
        if pack.deep_relays:
            pack.deep_relay_rows = np.flatnonzero(valid)[pack.deep_relay_rows]
        _observe_padding(
            "deep", pack.deep_lengths, pack.deep_index.shape[1], True
        )
    return pack
