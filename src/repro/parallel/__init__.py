"""Multi-process shot sharding for the simulation/decoding hot path.

Shots of a memory experiment are statistically independent, so the shot
axis shards across worker processes — bit-identically to an in-process
run, for any worker count.  :class:`ShardedExperiment` is the fused
sample→decode pipeline: each worker samples its own shard (from a
shard-indexed ``SeedSequence.spawn`` tree) and decodes it locally, so
syndromes never cross a process boundary.  This is what
:class:`~repro.core.memory.MemoryExperiment` runs on.  A run's one
picklable recipe is an :class:`ExperimentHandle` (matrices, priors,
sampling method, backend and BP/OSD knobs), from which every worker
rebuilds the decoder.  Every
multi-worker run streams through a :class:`SharedPool` — one lent by
the caller (a campaign shares one across all its sweeps) or one the
experiment builds, owns and closes.

The pipeline is **fault tolerant**: a dead worker (the executor
breaks) or a timed-out shard triggers a bounded pool respawn and the
lost shards re-run from their original seed-tree children, so results
under any fault schedule are bit-identical to the fault-free run; when
the pool cannot be rebuilt, execution degrades to in-process.
:mod:`repro.parallel.faults` provides the deterministic fault-injection
layer (:class:`FaultPlan`) the recovery machinery is tested against.

See :mod:`repro.parallel.pipeline` for the design and
`docs/performance.md` for the measured scaling.
"""

from repro.parallel.faults import FaultPlan, InjectedFault, activate
from repro.parallel.pipeline import (
    ExperimentHandle,
    PipelineResult,
    PoolUnavailable,
    SharedPool,
    ShardedExperiment,
    circuit_fingerprint,
    handle_fingerprint,
    resolve_workers,
    shard_layout,
    shard_seed_tree,
)

__all__ = [
    "ExperimentHandle",
    "FaultPlan",
    "InjectedFault",
    "PipelineResult",
    "PoolUnavailable",
    "SharedPool",
    "ShardedExperiment",
    "activate",
    "circuit_fingerprint",
    "handle_fingerprint",
    "resolve_workers",
    "shard_layout",
    "shard_seed_tree",
]
