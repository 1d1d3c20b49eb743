"""Sharded, concurrent inference serving (``repro.cluster``).

Scales the single :class:`~repro.serve.server.InferenceServer` horizontally
while preserving its exact semantics:

- :mod:`~repro.cluster.planner` — partition the serving graph into owned
  sets (``repro.graph.partition``) and materialize, per shard, the owned
  subgraph plus the L-hop *halo* that makes owned answers bit-identical to
  a whole-graph server (L = the model's declared sampling reach).  Shard
  specs serialize compactly (:meth:`ShardSpec.to_payload`) and mutations
  propagate as serializable commands — nothing in the plan assumes shared
  memory.
- :mod:`~repro.cluster.transport` — the pluggable message boundary: typed
  :class:`Envelope`/:class:`Reply` pairs over ``inline`` (deterministic
  replay on the caller's thread, pickle round-trip included) or
  ``socket`` (one TCP worker process per shard, spawned locally or on
  other hosts — see below).
- :mod:`~repro.cluster.net` — the ``socket`` lane: length-prefixed TCP
  framing for the same pickle protocol, a ``python -m repro shard-worker``
  server entrypoint, heartbeat liveness riding ``clock`` envelopes, and a
  :class:`FleetSupervisor` that turns a SIGKILL'd worker into a typed
  :class:`WorkerDown`, respawns it from checkpoint bytes + the serialized
  shard plan, and replays a bounded :class:`MutationLog` before
  readmitting it to scatter-gather.
- :mod:`~repro.cluster.engine` — the far side of the boundary: one rebuilt
  shard spec + one :class:`InferenceServer`, driven entirely by envelope
  dispatch.
- :mod:`~repro.cluster.worker` — the router's per-shard protocol stub
  (serve scatter legs, mutation barriers, telemetry pulls).
- :mod:`~repro.cluster.router` — ownership-based async scatter-gather with
  order-preserving merges, per-shard gather timeouts, mutation fan-out
  barriers that skip unaffected shards, and cluster-wide
  telemetry/Prometheus aggregation over serialized snapshots.

The contract throughout: sharding — and the transport it runs on — is a
deployment decision, not a semantics change. ``ClusterRouter.embed(nodes)``
equals a single server's output bit for bit, for any shard count, on every
transport.

:mod:`~repro.cluster.train` extends the same substrate to data-parallel
*training*: :class:`TrainEngine` answers the ``train_*`` envelope family
with a partition-local :class:`~repro.core.trainer.WidenTrainer` replica,
:class:`TrainWorker` is its coordinator stub speaking the
:class:`~repro.core.train_loop.TrainLoop` client protocol, and
:class:`DistributedTrainer` plans, spawns, reduces gradients and
checkpoints the fleet for elastic resume.
"""

from repro.cluster.engine import ShardEngine, build_engine_from_args
from repro.cluster.net import (
    FleetSupervisor,
    LocalWorkerSpawner,
    MutationLog,
    MutationLogHorizonError,
    RecoveryRecord,
    ShardRegistry,
    ShardWorkerServer,
    SocketTransport,
    WorkerDown,
    WorkerHandle,
)
from repro.cluster.planner import (
    AddNodesCommand,
    ClusterPlan,
    RefreshCommand,
    ShardPlanner,
    ShardSpec,
)
from repro.cluster.router import ClusterRouter
from repro.cluster.train import DistributedTrainer, TrainEngine, TrainWorker
from repro.cluster.transport import (
    Envelope,
    InlineTransport,
    Reply,
    ShardError,
    ShardTimeoutError,
    Transport,
    registered_transports,
    validate_transport,
)
from repro.cluster.worker import ShardWorker

__all__ = [
    "AddNodesCommand",
    "ClusterPlan",
    "ClusterRouter",
    "DistributedTrainer",
    "Envelope",
    "FleetSupervisor",
    "InlineTransport",
    "LocalWorkerSpawner",
    "MutationLog",
    "MutationLogHorizonError",
    "RecoveryRecord",
    "RefreshCommand",
    "Reply",
    "ShardEngine",
    "ShardError",
    "ShardPlanner",
    "ShardRegistry",
    "ShardSpec",
    "ShardTimeoutError",
    "ShardWorker",
    "ShardWorkerServer",
    "SocketTransport",
    "TrainEngine",
    "TrainWorker",
    "Transport",
    "WorkerDown",
    "WorkerHandle",
    "build_engine_from_args",
    "registered_transports",
    "validate_transport",
]
