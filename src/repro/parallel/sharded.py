"""Picklable decoder recipes and the ``workers=`` knob.

:class:`DecoderHandle` is a small picklable recipe (check matrix,
priors, decoder knobs) from which any process can rebuild an
equivalent :class:`~repro.decoders.bposd.BPOSDDecoder`; the fused
pipeline (:mod:`repro.parallel.pipeline`) ships one inside every
:class:`~repro.parallel.pipeline.ExperimentHandle`.
:func:`resolve_workers` normalises the ``workers=`` knob every
multi-process entry point accepts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.decoders.bposd import BPOSDDecoder

__all__ = ["DecoderHandle", "resolve_workers"]


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers=`` knob: ``None`` -> 1, ``0`` -> cpu_count.

    ``None`` (the default everywhere) means "in-process, single core";
    ``0`` asks for one worker per available core; any positive integer
    is taken literally.  Negative values are rejected.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = one per core) or None")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


@dataclass(frozen=True)
class DecoderHandle:
    """Picklable recipe for rebuilding a BP+OSD decoder in any process."""

    check_matrix: np.ndarray
    priors: np.ndarray
    max_iterations: int = 50
    osd_order: int = 0
    scaling_factor: float = 0.75
    backend: str = "packed"
    block_shots: int = 2048
    factor_cache_size: int = 32

    def build(self) -> BPOSDDecoder:
        """Construct the decoder this handle describes."""
        return BPOSDDecoder(
            self.check_matrix, self.priors,
            max_iterations=self.max_iterations,
            osd_order=self.osd_order,
            scaling_factor=self.scaling_factor,
            backend=self.backend,
            block_shots=self.block_shots,
            factor_cache_size=self.factor_cache_size,
        )

    def with_priors(self, priors: np.ndarray) -> "DecoderHandle":
        """Same structure, new per-mechanism priors (sweep re-point)."""
        return replace(self, priors=np.asarray(priors, dtype=float))
