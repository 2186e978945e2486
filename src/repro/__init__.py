"""Cyclone reproduction: parallel QCCD codesigns for fault-tolerant memory.

A from-scratch Python reproduction of "Cyclone: Designing Efficient and
Highly Parallel QCCD Architectural Codesigns for Fault Tolerant Quantum
Memory" (HPCA 2026).  The library is organised bottom-up:

``repro.linalg``
    GF(2) linear algebra.
``repro.codes``
    CSS codes (hypergraph product, bivariate bicycle, surface), their
    logical operators and stabilizer measurement schedules.
``repro.circuits`` / ``repro.sim`` / ``repro.noise`` / ``repro.decoders``
    Noisy syndrome-extraction circuits, Pauli-frame sampling, detector
    error models, hardware-aware noise and BP+OSD decoding.
``repro.parallel``
    Multi-process shot sharding: the fused sample→decode pipeline
    (:class:`~repro.parallel.ShardedExperiment`), streamed through a
    self-healing :class:`~repro.parallel.SharedPool`.
``repro.qccd``
    The trapped-ion QCCD hardware simulator: topologies, timing,
    routing and the compilers (baseline grid EJF, dynamic timeslice,
    mesh junction network, Cyclone).
``repro.core``
    Codesigns, memory experiments, spacetime cost and parameter sweeps
    — the pipeline behind every figure in the paper's evaluation.
``repro.campaign``
    Cross-sweep campaign orchestration: a declarative spec of every
    curve, one global shot budget, one shared worker pool, and a
    resumable result store (``repro campaign paper_figures``).
``repro.analysis``
    Higher-level analyses (parallelism bounds, confusion matrix, loop
    splits) used by the benchmark harness; the sensitivity studies are
    sweep kinds of ``repro.campaign``.

Quick start::

    from repro import code_by_name, codesign_by_name, logical_error_rate

    code = code_by_name("HGP [[225,9,6]]")
    cyclone = codesign_by_name("cyclone").compile(code)
    baseline = codesign_by_name("baseline").compile(code)
    print(baseline.execution_time_us / cyclone.execution_time_us)

    result = logical_error_rate(code, physical_error_rate=1e-3,
                                round_latency_us=cyclone.execution_time_us,
                                shots=100)
    print(result.logical_error_rate)
"""

from repro.codes import (
    CSSCode,
    code_by_name,
    available_codes,
    hgp_code_names,
    bb_code_names,
    hypergraph_product,
    bivariate_bicycle_code,
    surface_code,
    schedule_for,
)
from repro.core import (
    Codesign,
    codesign_by_name,
    available_codesigns,
    MemoryExperiment,
    MemoryResult,
    PrecisionTarget,
    logical_error_rate,
    spacetime_cost,
    spacetime_comparison,
    sweep_physical_error,
    sweep_architectures,
)
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    SweepSpec,
    load_spec,
    run_campaign,
)
from repro.noise import BaseNoiseModel, HardwareNoiseModel
from repro.parallel import (
    ExperimentHandle,
    SharedPool,
    ShardedExperiment,
)
from repro.qccd import OperationTimes
from repro.qccd.compilers import CycloneCompiler, EJFGridCompiler

__version__ = "1.0.0"

__all__ = [
    "CSSCode",
    "code_by_name",
    "available_codes",
    "hgp_code_names",
    "bb_code_names",
    "hypergraph_product",
    "bivariate_bicycle_code",
    "surface_code",
    "schedule_for",
    "Codesign",
    "codesign_by_name",
    "available_codesigns",
    "MemoryExperiment",
    "MemoryResult",
    "PrecisionTarget",
    "logical_error_rate",
    "spacetime_cost",
    "spacetime_comparison",
    "sweep_physical_error",
    "sweep_architectures",
    "BaseNoiseModel",
    "HardwareNoiseModel",
    "CampaignSpec",
    "ResultStore",
    "SweepSpec",
    "load_spec",
    "run_campaign",
    "ExperimentHandle",
    "SharedPool",
    "ShardedExperiment",
    "OperationTimes",
    "CycloneCompiler",
    "EJFGridCompiler",
    "__version__",
]
