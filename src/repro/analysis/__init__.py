"""Higher-level analyses used by the benchmark harness.

Each function here computes the data behind one of the paper's
analysis figures that is not a sweep (speedup bars, confusion matrix,
loop splits) and returns plain dictionaries / result tables so the
benchmarks can print the same rows and series the paper plots.  The
sensitivity figures (5, 9, 13, 17, 18, 20, 21) are registered sweep
kinds: build a :class:`~repro.campaign.spec.SweepSpec` and run it with
:func:`~repro.campaign.kinds.run_sweep_kind` or inside a campaign.
"""

from repro.analysis.parallelism import (
    parallel_vs_serial_speedup,
    speedup_table,
)
from repro.analysis.confusion import confusion_matrix
from repro.analysis.loops import (
    stabilizer_connectivity_graph,
    independent_loop_partition,
    loop_split_cost,
    single_vs_split_loop_table,
)

__all__ = [
    "stabilizer_connectivity_graph",
    "independent_loop_partition",
    "loop_split_cost",
    "single_vs_split_loop_table",
    "parallel_vs_serial_speedup",
    "speedup_table",
    "confusion_matrix",
]
