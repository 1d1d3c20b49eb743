"""The on-disk / in-memory materialized-aggregate store.

Layout: a directory holding three arrays plus JSON metadata —

- ``rows.npy`` — ``(K, R, d)`` float64 row blocks, one per stored node.
  Each block concatenates the wide pack matrix (capacity ``num_wide + 1``
  rows) and Φ deep pack matrices (capacity ``num_deep + 1`` rows each),
  zero-padded; trimming information lives in ``lengths.npy``.
- ``lengths.npy`` — ``(K, 1 + Φ)`` int64 true lengths (wide first).
- ``versions.npy`` — ``(K,)`` int64 serving version each block was
  materialized at.
- ``meta.json`` — format version, model geometry, builder seed, graph
  version and the parameter digest the rows were computed under.

``rows.npy`` is opened with ``mmap_mode="r"`` so a store larger than RAM
costs one page-fault per looked-up block, not a load.  Capacities are the
sampling caps (``num_wide``/``num_deep`` bound every neighborhood), so a
lazily re-materialized row after a mutation always fits the same block
shape — the in-memory overlay and the mmap share one geometry.

A store is only meaningful against the exact parameters and rng scheme
that built it; :meth:`AggregateStore.compatible_with` checks geometry,
parameter digest and server seed and returns the human-readable reason on
mismatch so callers refuse loudly instead of serving wrong aggregates.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

STORE_FORMAT_VERSION = 1

_META_FILE = "meta.json"
_ROWS_FILE = "rows.npy"
_LENGTHS_FILE = "lengths.npy"
_VERSIONS_FILE = "versions.npy"

# Meta keys that must match the serving classifier's geometry exactly.
_GEOMETRY_KEYS = (
    "dim", "num_wide", "num_deep", "num_walks", "use_wide", "use_deep",
)


def block_capacity(meta: Dict[str, object]) -> Tuple[int, int, int]:
    """``(wide_cap, deep_cap, total_rows)`` of one row block."""
    wide_cap = (int(meta["num_wide"]) + 1) if meta["use_wide"] else 0
    deep_cap = (int(meta["num_deep"]) + 1) if meta["use_deep"] else 0
    total = wide_cap + int(meta["num_walks"]) * deep_cap
    return wide_cap, deep_cap, total


class AggregateStore:
    """Versioned per-node pack-row store with a lazy refresh overlay.

    ``node_ids=None`` means the dense full-graph layout (block ``i`` holds
    node ``i``); a cluster shard's slice carries an explicit id array and
    resolves through a position map.  :meth:`refresh` never touches the
    (read-only, possibly mmap'd) base arrays — re-materialized rows live
    in an in-memory overlay consulted first by every lookup.
    """

    def __init__(
        self,
        meta: Dict[str, object],
        rows: np.ndarray,
        lengths: np.ndarray,
        versions: np.ndarray,
        node_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.meta = dict(meta)
        self._rows = rows
        self._lengths = lengths
        self._versions = versions
        self._node_ids = (
            None if node_ids is None else np.asarray(node_ids, np.int64)
        )
        if self._node_ids is None:
            self._positions: Optional[Dict[int, int]] = None
        else:
            self._positions = {
                int(node): position
                for position, node in enumerate(self._node_ids)
            }
        # node -> (version, block, lengths): rows re-materialized since
        # open, kept in block form so the serving hot path reads overlay
        # and base entries identically.
        self._overlay: Dict[int, Tuple[int, np.ndarray, np.ndarray]] = {}

    # -- lookups ---------------------------------------------------------

    def _position(self, node: int) -> Optional[int]:
        node = int(node)
        if self._positions is None:
            return node if 0 <= node < self._rows.shape[0] else None
        return self._positions.get(node)

    def has(self, node: int) -> bool:
        """Whether any row (base or overlay) exists for ``node``."""
        return int(node) in self._overlay or self._position(node) is not None

    def in_overlay(self, node: int) -> bool:
        """Whether the node's current row lives in the re-materialized
        overlay (vs the base blocks) — the serving-ladder attribution
        between the ``store`` and ``overlay`` rungs."""
        return int(node) in self._overlay

    def version_of(self, node: int) -> Optional[int]:
        """Serving version the node's row was materialized at, or None."""
        entry = self._overlay.get(int(node))
        if entry is not None:
            return entry[0]
        position = self._position(node)
        return None if position is None else int(self._versions[position])

    def block_for(self, node: int) -> Tuple[np.ndarray, np.ndarray]:
        """The node's raw ``(R, d)`` capacity-padded block + lengths row.

        Base entries are mmap views and overlay entries are stored as
        blocks too, so a lookup is two dict/array probes with no decoding
        or re-padding work.
        """
        entry = self._overlay.get(int(node))
        if entry is not None:
            return entry[1], entry[2]
        position = self._position(node)
        if position is None:
            raise KeyError(f"node {node} has no store row")
        return self._rows[position], self._lengths[position]

    def versions_of(self, nodes) -> np.ndarray:
        """Vectorized :meth:`version_of` (``-1`` where no row exists)."""
        nodes = np.asarray(nodes, np.int64)
        if self._positions is None and not self._overlay:
            # Dense layout, no overlay: one fancy-indexed read.
            out = np.full(nodes.size, -1, np.int64)
            in_range = (nodes >= 0) & (nodes < self._rows.shape[0])
            out[in_range] = self._versions[nodes[in_range]]
            return out
        return np.array(
            [
                -1 if (version := self.version_of(int(node))) is None
                else version
                for node in nodes
            ],
            np.int64,
        )

    def blocks_for(self, nodes) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`block_for`: ``(B, R, d)`` blocks + ``(B, 1+Φ)``
        lengths, gathered with one fancy-indexed read for base entries.

        Every node must hold a row (callers classify freshness first);
        raises :class:`KeyError` otherwise.
        """
        nodes = np.asarray(nodes, np.int64)
        total, dim = self.block_shape
        blocks = np.empty((nodes.size, total, dim))
        lengths = np.empty((nodes.size, self._lengths.shape[1]), np.int64)
        if self._overlay:
            base_mask = np.array(
                [int(node) not in self._overlay for node in nodes], bool
            )
        else:
            base_mask = np.ones(nodes.size, bool)
        base_nodes = nodes[base_mask]
        if base_nodes.size:
            if self._positions is None:
                positions = base_nodes
                if ((positions < 0) | (positions >= self._rows.shape[0])).any():
                    raise KeyError("node outside the dense store range")
            else:
                try:
                    positions = np.array(
                        [self._positions[int(node)] for node in base_nodes],
                        np.int64,
                    )
                except KeyError as exc:
                    raise KeyError(f"node {exc} has no store row") from exc
            blocks[base_mask] = self._rows[positions]
            lengths[base_mask] = self._lengths[positions]
        for position in np.nonzero(~base_mask)[0]:
            _, block, length_row = self._overlay[int(nodes[position])]
            blocks[position] = block
            lengths[position] = length_row
        return blocks, lengths

    def refresh(
        self, node: int, version: int, block: np.ndarray, lengths: np.ndarray
    ) -> None:
        """Write back a lazily re-materialized ``(R, d)`` block and its
        lengths row (in-memory overlay).  Both are copied, so the overlay
        never pins the larger batch array a block was sliced from."""
        if block.shape != self.block_shape:
            raise ValueError(
                f"block shape {block.shape} != store block shape {self.block_shape}"
            )
        self._overlay[int(node)] = (
            int(version), np.array(block), np.array(lengths, np.int64)
        )

    # -- accounting ------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(self._rows.shape[0])

    @property
    def block_shape(self) -> Tuple[int, int]:
        """``(R, d)`` of one row block (what a batch assembly allocates)."""
        _, _, total = block_capacity(self.meta)
        return total, int(self.meta["dim"])

    @property
    def row_nbytes(self) -> int:
        """Bytes of one row block (the gauge the capacity planner reads)."""
        return int(self._rows[0].nbytes) if self.num_rows else 0

    @property
    def nbytes(self) -> int:
        return int(self._rows.nbytes)

    @property
    def overlay_size(self) -> int:
        return len(self._overlay)

    # -- compatibility ---------------------------------------------------

    def compatible_with(self, classifier, seed: int) -> Optional[str]:
        """Reason this store cannot serve ``classifier`` at server ``seed``
        (``None`` when it can).  Checks the serving-path support flags, the
        model geometry, the parameter digest and the rng seed — everything
        that went into the materialized values."""
        supports = getattr(classifier, "supports_store", None)
        if supports is None or not hasattr(classifier, "embed_from_store_blocks"):
            return f"{getattr(classifier, 'name', classifier)!r} has no store hooks"
        reason = supports()
        if reason is not None:
            return reason
        config = classifier.config
        geometry = {
            "dim": int(config.dim),
            "num_wide": int(config.num_wide),
            "num_deep": int(config.num_deep),
            "num_walks": int(config.num_deep_walks),
            "use_wide": bool(config.use_wide),
            "use_deep": bool(config.use_deep),
        }
        for key in _GEOMETRY_KEYS:
            if geometry[key] != self.meta[key]:
                return (
                    f"geometry mismatch on {key}: store has "
                    f"{self.meta[key]!r}, classifier has {geometry[key]!r}"
                )
        digest = classifier.params_digest()
        if digest != self.meta["params_digest"]:
            return (
                f"parameter digest mismatch: store built against "
                f"{self.meta['params_digest']}, classifier is {digest}"
            )
        if int(seed) != int(self.meta["seed"]):
            return (
                f"seed mismatch: store sampled with seed {self.meta['seed']}, "
                f"server uses {seed}"
            )
        return None

    # -- persistence -----------------------------------------------------

    @classmethod
    def create(
        cls,
        path,
        *,
        meta: Dict[str, object],
        rows: np.ndarray,
        lengths: np.ndarray,
        versions: np.ndarray,
    ) -> "AggregateStore":
        """Write a dense full-graph store directory and return it (mmap'd)."""
        os.makedirs(path, exist_ok=True)
        meta = dict(meta)
        meta["format_version"] = STORE_FORMAT_VERSION
        np.save(os.path.join(path, _ROWS_FILE), rows)
        np.save(os.path.join(path, _LENGTHS_FILE), lengths)
        np.save(os.path.join(path, _VERSIONS_FILE), versions)
        with open(os.path.join(path, _META_FILE), "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
        return cls.open(path)

    @classmethod
    def open(cls, path, mmap: bool = True) -> "AggregateStore":
        """Open a store directory; row blocks stay on disk via mmap."""
        meta_path = os.path.join(path, _META_FILE)
        if not os.path.exists(meta_path):
            raise FileNotFoundError(
                f"{path!r} is not a store directory (no {_META_FILE})"
            )
        with open(meta_path) as handle:
            meta = json.load(handle)
        version = int(meta.get("format_version", 0))
        if version > STORE_FORMAT_VERSION:
            raise ValueError(
                f"store {path!r} is format v{version}, newer than this "
                f"code's v{STORE_FORMAT_VERSION}"
            )
        rows = np.load(
            os.path.join(path, _ROWS_FILE), mmap_mode="r" if mmap else None
        )
        lengths = np.load(os.path.join(path, _LENGTHS_FILE))
        versions = np.load(os.path.join(path, _VERSIONS_FILE))
        return cls(meta, rows, lengths, versions)

    # -- shard slices ----------------------------------------------------

    def slice_payload(self, nodes: Iterable[int]) -> Dict[str, object]:
        """Plain-data slice of the store covering ``nodes`` (shard halo
        handling: a shard engine serves only its *owned* nodes, so its
        slice carries exactly those blocks — halo nodes contribute to
        other shards' rows at build time, never to local lookups).

        The payload crosses the ``socket`` transport's pickle boundary as-is;
        :meth:`from_payload` rebuilds a positioned in-memory store on the
        other side.  Overlay entries are folded in so a slice taken from a
        live store reflects its current effective rows.
        """
        present = sorted(
            {int(node) for node in nodes if self.has(int(node))}
        )
        _, _, total = block_capacity(self.meta)
        dim = int(self.meta["dim"])
        num_walks = int(self.meta["num_walks"])
        rows = np.zeros((len(present), total, dim))
        lengths = np.zeros((len(present), 1 + num_walks), np.int64)
        versions = np.zeros(len(present), np.int64)
        for position, node in enumerate(present):
            entry = self._overlay.get(node)
            if entry is not None:
                version, block, length_row = entry
            else:
                base = self._position(node)
                version = int(self._versions[base])
                block = np.asarray(self._rows[base])
                length_row = self._lengths[base]
            rows[position] = block
            lengths[position] = length_row
            versions[position] = version
        return {
            "meta": dict(self.meta),
            "node_ids": np.asarray(present, np.int64),
            "rows": rows,
            "lengths": lengths,
            "versions": versions,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "AggregateStore":
        """Rebuild a (sliced) store from :meth:`slice_payload` output."""
        return cls(
            dict(payload["meta"]),
            np.asarray(payload["rows"]),
            np.asarray(payload["lengths"], np.int64),
            np.asarray(payload["versions"], np.int64),
            node_ids=np.asarray(payload["node_ids"], np.int64),
        )

    def __repr__(self) -> str:
        return (
            f"AggregateStore(rows={self.num_rows}, "
            f"overlay={self.overlay_size}, "
            f"graph_version={self.meta.get('graph_version')}, "
            f"digest={self.meta.get('params_digest')})"
        )
