"""The paper's experimental pipeline: codesigns and memory experiments.

``repro.core`` glues the substrates together the same way the paper's
evaluation does:

1. a :class:`~repro.core.codesign.Codesign` pairs a hardware topology
   with a compiler policy and produces an execution latency and spatial
   cost for a code;
2. :class:`~repro.core.memory.MemoryExperiment` turns that latency into
   a hardware-aware noise model, samples syndrome-extraction rounds and
   decodes them, yielding a logical error rate;
3. :mod:`~repro.core.spacetime` combines the two into the spacetime
   cost metric of Figure 16, and :mod:`~repro.core.sweep` provides the
   parameter sweeps behind the evaluation figures (run as one-sweep
   campaigns by :mod:`repro.campaign`) and the variance-weighted shot
   allocation rule of their adaptive schedule.
"""

from repro.core.codesign import Codesign, codesign_by_name, available_codesigns
from repro.core.memory import (
    MemoryExperiment,
    MemoryResult,
    effective_rounds,
    logical_error_rate,
)
from repro.core.spacetime import spacetime_cost, spacetime_comparison
from repro.core.stats import (
    PrecisionTarget,
    as_precision_target,
    binomial_interval,
    wilson_interval,
)
from repro.core.sweep import (
    allocate_shots,
    sweep_architectures,
    sweep_physical_error,
    tally_point_fields,
)
from repro.core.results import ResultTable

__all__ = [
    "PrecisionTarget",
    "allocate_shots",
    "as_precision_target",
    "binomial_interval",
    "effective_rounds",
    "tally_point_fields",
    "wilson_interval",
    "Codesign",
    "codesign_by_name",
    "available_codesigns",
    "MemoryExperiment",
    "MemoryResult",
    "logical_error_rate",
    "spacetime_cost",
    "spacetime_comparison",
    "sweep_physical_error",
    "sweep_architectures",
    "ResultTable",
]
