"""Codesigns: a hardware topology paired with a compiler policy.

The paper's central argument is that hardware and software must be
chosen *together*; a codesign object captures one such pairing and
exposes the two quantities the evaluation cares about — the compiled
execution latency of a syndrome-extraction round and the spatial
footprint (traps, junctions, ancillas, DACs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule
from repro.qccd.compilers import (
    Compiler,
    CycloneCompiler,
    DynamicTimesliceCompiler,
    EJFGridCompiler,
    MeshJunctionCompiler,
    MoveBatchingCompiler,
    ShuttleMinimizingCompiler,
)
from repro.qccd.schedule import CompiledSchedule
from repro.qccd.timing import OperationTimes

__all__ = ["Codesign", "codesign_by_name", "available_codesigns"]


@dataclass
class Codesign:
    """A named hardware/software pairing."""

    name: str
    compiler: Compiler
    description: str = ""

    def compile(self, code: CSSCode,
                schedule: StabilizerSchedule | None = None) -> CompiledSchedule:
        """Compile one round of syndrome extraction for ``code``."""
        return self.compiler.compile(code, schedule)


_FACTORIES = {
    "baseline": lambda: Codesign(
        name="baseline",
        compiler=EJFGridCompiler(),
        description="Baseline grid + greedy cluster mapping + static EJF "
                    "(Murali et al.), the paper's baseline codesign.",
    ),
    "baseline_grid_dynamic": lambda: Codesign(
        name="baseline_grid_dynamic",
        compiler=DynamicTimesliceCompiler(topology="baseline_grid"),
        description="Dynamic timeslice software on the baseline grid "
                    "(Figure 4a / Figure 6 top-left).",
    ),
    "alternate_grid": lambda: Codesign(
        name="alternate_grid",
        compiler=EJFGridCompiler(topology="alternate_grid", label="alt_grid"),
        description="Alternating horizontal/vertical meshes with L-shaped "
                    "junctions + static EJF (Figure 4c).",
    ),
    "ejf_ring": lambda: Codesign(
        name="ejf_ring",
        compiler=EJFGridCompiler(topology="ring", label="ejf_ring"),
        description="Static EJF software on a sparse circular topology "
                    "(Figure 6 bottom-right, 'disastrous').",
    ),
    "cyclone": lambda: Codesign(
        name="cyclone",
        compiler=CycloneCompiler(),
        description="Base Cyclone: ring of max(|X|,|Z|) traps with the "
                    "symmetric lockstep rotation schedule.",
    ),
    "mesh_junction": lambda: Codesign(
        name="mesh_junction",
        compiler=MeshJunctionCompiler(),
        description="Dense mesh junction network (Section III-C).",
    ),
    "baseline2": lambda: Codesign(
        name="baseline2",
        compiler=ShuttleMinimizingCompiler(),
        description="Baseline compiler 2: shuttle-minimizing dispatch "
                    "(Muzzle-the-Shuttle-style heuristics).",
    ),
    "baseline3": lambda: Codesign(
        name="baseline3",
        compiler=MoveBatchingCompiler(),
        description="Baseline compiler 3: move-batching dispatch "
                    "(MoveLess-style heuristics).",
    ),
}


def available_codesigns() -> list[str]:
    """Names accepted by :func:`codesign_by_name`."""
    return sorted(_FACTORIES)


def codesign_by_name(name: str, times: OperationTimes | None = None,
                     **compiler_overrides) -> Codesign:
    """Instantiate a named codesign, optionally overriding compiler fields.

    Examples
    --------
    >>> codesign_by_name("cyclone", num_traps=64)   # doctest: +ELLIPSIS
    Codesign(name='cyclone', ...)
    """
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown codesign {name!r}; available: {available_codesigns()}"
        )
    codesign = _FACTORIES[name]()
    if times is not None:
        compiler_overrides["times"] = times
    codesign.compiler = replace(codesign.compiler, **compiler_overrides)
    return codesign
