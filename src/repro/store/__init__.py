"""repro.store — versioned materialized-aggregate tier for warm serving.

SeHGNN (arXiv 2207.02547) observes that a hetero-GNN's neighbor
aggregation can be computed *once* instead of per request; this package
applies that to WIDEN's serving path.  The offline builder
(:func:`build_store`) runs the batched packing machinery over every node
and persists the pack matrices ``M°``/``M▷`` (Eqs. 1-2) — the
post-projection, post-edge-multiply aggregates, as
:meth:`WidenModel.materialize_rows` lays them out in capacity-padded
blocks — into a compact, mmap-friendly on-disk store keyed by graph
version + parameter digest.  At serve time a cache miss with a fresh
store row skips sampling, feature projection and edge gathers entirely:
the answer is attention + MLP over the stored blocks
(:meth:`WidenClassifier.embed_from_store_blocks`), bit-identical to the
full recompute because both halves run the same code over the same pack
values.

Versioning reuses the server's per-node mutation counters: a row built
at version ``v`` serves node ``n`` only while the server's
``_version_of(n)`` still equals ``v``.  A mutation whose reverse-BFS
frontier reaches ``n`` bumps that counter, the row goes stale, and the
next miss re-materializes it lazily (write-back into an in-memory
overlay) — the recompute path is always the exactness oracle.
"""

from repro.store.store import AggregateStore, STORE_FORMAT_VERSION
from repro.store.builder import build_store

__all__ = ["AggregateStore", "STORE_FORMAT_VERSION", "build_store"]
