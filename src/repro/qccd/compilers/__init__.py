"""QCCD compilers: mapping, routing and scheduling policies.

Every compiler consumes a CSS code (plus a stabilizer schedule where
relevant) and produces a :class:`~repro.qccd.schedule.CompiledSchedule`
for one round of syndrome extraction.  The compilers correspond to the
codesigns evaluated in the paper:

* :class:`~repro.qccd.compilers.ejf.EJFGridCompiler` — the baseline:
  greedy cluster mapping + static earliest-job-first scheduling of the
  gate DAG (Murali et al.), runnable on any topology.  Its ``compile``
  is the one skeleton of the routing compilers below, which each
  override one or two of its steps (placement, gate dispatch, gate
  execution).  The device's occupancy is the only record of where an
  ion is.
* :class:`~repro.qccd.compilers.dynamic.DynamicTimesliceCompiler` — the
  "dynamic software" policy: schedules whole timeslices of the
  maximally parallel schedule at once; on a grid this roadblocks badly.
* :class:`~repro.qccd.compilers.variants.ShuttleMinimizingCompiler` and
  :class:`~repro.qccd.compilers.variants.MoveBatchingCompiler` — the
  Baseline-2 / Baseline-3 comparison compilers of Figure 20.
* :class:`~repro.qccd.compilers.cyclone.CycloneCompiler` — the paper's
  contribution: lockstep ring rotation, roadblock free.
* :class:`~repro.qccd.compilers.mesh.MeshJunctionCompiler` — the dense
  junction-network design of Section III-C.
"""

from repro.qccd.compilers.base import Compiler, ResourceTracker
from repro.qccd.compilers.ejf import EJFGridCompiler
from repro.qccd.compilers.dynamic import DynamicTimesliceCompiler
from repro.qccd.compilers.cyclone import CycloneCompiler, cyclone_worst_case_bound_us
from repro.qccd.compilers.mesh import MeshJunctionCompiler
from repro.qccd.compilers.variants import (
    ShuttleMinimizingCompiler,
    MoveBatchingCompiler,
)

__all__ = [
    "Compiler",
    "ResourceTracker",
    "EJFGridCompiler",
    "DynamicTimesliceCompiler",
    "CycloneCompiler",
    "cyclone_worst_case_bound_us",
    "MeshJunctionCompiler",
    "ShuttleMinimizingCompiler",
    "MoveBatchingCompiler",
]
