"""Declarative campaign specifications.

A campaign is the paper's whole evaluation as one configuration-driven
run: a list of sweeps (LER curves, architecture comparisons) that share
one global shot budget and one worker pool.  The spec layer is plain
data — dataclasses with a JSON round-trip — so a campaign can live in a
file next to the figures it reproduces, and a content fingerprint of
the spec keys the resumable result store
(:mod:`repro.campaign.store`).

A sweep's ``kind`` names an entry of the sweep-kind registry
(:mod:`repro.campaign.kinds`) — each registered kind supplies its own
expansion, table shape and parameter schema (the sweep's free-form
``params`` mapping is validated against it).

Four specs ship with the repository (:func:`builtin_spec`):

``paper_figures``
    The main LER curves: Figure 14 (bivariate bicycle) and Figure 15
    (hypergraph product), baseline vs Cyclone, each curve under a
    relative Wilson-width target.
``paper_figures_full``
    Every figure of the evaluation as one campaign: the LER curves
    plus the migrated sensitivity studies (Figures 5, 9, 13, 17, 18)
    and the analytic compiler/swap tables (Figures 20, 21), under one
    global budget with full store-resume.
``ci_smoke``
    A two-sweep miniature on the smallest codes, sized for the CI
    resume check (seconds, not minutes).
``scenario_fuzz``
    A short seeded ``scenario_sweep``: randomized codes, trap
    topologies and noise models, each cross-checked bit-for-bit
    against the ``backend="bool"`` oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.kinds import validate_sweep, validate_sweep_names
from repro.campaign.store import fingerprint
from repro.core.stats import PrecisionTarget
from repro.decoders.bposd import BACKENDS

__all__ = [
    "CampaignSpec",
    "SweepSpec",
    "available_specs",
    "builtin_spec",
    "load_spec",
]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep of a campaign: a curve of estimation points.

    ``kind`` names a registered sweep kind
    (:func:`repro.campaign.kinds.available_kinds`):
    ``"physical_error"`` sweeps the physical error rate of one
    ``codesign`` (one LER curve); ``"architectures"`` sweeps a list of
    ``codesigns`` at one fixed ``physical_error_rate``; the migrated
    figure kinds (``depth_speedup``, ``junction_crossing``, ...) and
    ``scenario_sweep`` take their knobs through the free-form
    ``params`` mapping, validated against the kind's schema.
    ``target`` is the per-point precision the campaign tries to reach
    before its global budget runs out; ``max_shots`` caps any single
    point (default: the whole global budget may concentrate on one
    point) and ``pilot_shots`` sizes the pilot pass (default: derived
    from the per-point budget share).
    """

    name: str
    code: str = ""
    kind: str = "physical_error"
    codesign: str = "cyclone"
    physical_error_rates: tuple[float, ...] = ()
    codesigns: tuple[str, ...] = ()
    physical_error_rate: float | None = None
    params: dict = field(default_factory=dict)
    target: PrecisionTarget = field(
        default_factory=lambda: PrecisionTarget(half_width=0.2,
                                                relative=True))
    rounds: int | None = None
    method: str = "phenomenological"
    basis: str = "Z"
    backend: str = "packed"
    shard_shots: int | None = None
    max_shots: int | None = None
    pilot_shots: int | None = None
    max_bp_iterations: int = 40
    osd_order: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("every sweep needs a name")
        if self.method not in ("phenomenological", "circuit"):
            raise ValueError("method must be 'phenomenological' or 'circuit'")
        if self.backend not in BACKENDS:
            raise ValueError("backend must be 'packed', 'bool' or 'native'")
        validate_sweep(self)

    # ------------------------------------------------------------------
    def validate_names(self) -> None:
        """Check the code and codesign names against the registries.

        Kept out of ``__post_init__`` so building a spec stays cheap;
        the orchestrator and the CLI call this before any real work.
        """
        validate_sweep_names(self)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "code": self.code,
            "kind": self.kind,
            "target": self.target.to_dict(),
            "rounds": self.rounds,
            "method": self.method,
            "basis": self.basis,
            "backend": self.backend,
            "shard_shots": self.shard_shots,
            "max_shots": self.max_shots,
            "pilot_shots": self.pilot_shots,
            "max_bp_iterations": self.max_bp_iterations,
            "osd_order": self.osd_order,
        }
        if self.kind == "physical_error":
            payload["codesign"] = self.codesign
            payload["physical_error_rates"] = list(self.physical_error_rates)
        else:
            payload["codesigns"] = list(self.codesigns)
            payload["physical_error_rate"] = self.physical_error_rate
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        known = {
            "name", "code", "kind", "codesign", "physical_error_rates",
            "codesigns", "physical_error_rate", "params", "target",
            "rounds", "method", "basis", "backend", "shard_shots",
            "max_shots", "pilot_shots", "max_bp_iterations", "osd_order",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown sweep keys {sorted(unknown)}")
        # Dropping explicit nulls lets the dataclass defaults apply (the
        # keys whose default *is* None lose nothing by the drop).
        kwargs = {k: v for k, v in payload.items() if v is not None}
        if "target" in kwargs:
            target = kwargs["target"]
            kwargs["target"] = (target if isinstance(target, PrecisionTarget)
                                else PrecisionTarget.from_dict(target))
        if "physical_error_rates" in kwargs:
            kwargs["physical_error_rates"] = tuple(
                float(p) for p in kwargs["physical_error_rates"])
        if "codesigns" in kwargs:
            kwargs["codesigns"] = tuple(str(c) for c in kwargs["codesigns"])
        return cls(**kwargs)


@dataclass(frozen=True)
class CampaignSpec:
    """A full campaign: sweeps plus the global budget they share.

    ``budget`` is the total number of shots the whole campaign may
    sample, across every point of every sweep — the orchestrator
    pilots each point, then repeatedly re-allocates what is left to
    the points whose confidence intervals need it most.  ``seed``
    roots every point's sampling: point seeds are derived from
    ``(seed, sweep_index, point_index, stage)``, never from execution
    order, which is what lets the result store resume a campaign
    bit-identically.

    A spec says only what to estimate.  How one host runs it — shard
    deadline, pool rebuild budget, lease TTL, claim batch — is set on
    the run (:func:`~repro.campaign.orchestrator.run_campaign` and the
    ``repro campaign`` flags), so no spec key can carry it.
    """

    name: str
    sweeps: tuple[SweepSpec, ...]
    budget: int
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign needs a name")
        if not self.sweeps:
            raise ValueError("a campaign needs at least one sweep")
        if self.budget < 1:
            raise ValueError("budget must be a positive shot count")
        names = [sweep.name for sweep in self.sweeps]
        if len(set(names)) != len(names):
            raise ValueError("sweep names must be unique within a campaign")

    # ------------------------------------------------------------------
    def validate_names(self) -> None:
        for sweep in self.sweeps:
            sweep.validate_names()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "budget": self.budget,
            "seed": self.seed,
            "sweeps": [sweep.to_dict() for sweep in self.sweeps],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        unknown = set(payload) - {"name", "description", "budget", "seed",
                                  "sweeps"}
        if unknown:
            raise ValueError(f"unknown campaign keys {sorted(unknown)}")
        for key in ("name", "budget", "sweeps"):
            if key not in payload:
                raise ValueError(f"a campaign spec needs {key!r}")
        sweeps = tuple(
            sweep if isinstance(sweep, SweepSpec) else SweepSpec.from_dict(sweep)
            for sweep in payload["sweeps"]
        )
        return cls(
            name=str(payload["name"]),
            description=str(payload.get("description", "")),
            budget=int(payload["budget"]),
            seed=int(payload.get("seed", 0)),
            sweeps=sweeps,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    def fingerprint(self, budget: int | None = None) -> str:
        """Content fingerprint of the campaign (optionally re-budgeted).

        Every stored point record embeds this value in its key, so any
        change to the spec — a new point, a different target, another
        budget — cleanly invalidates the store instead of resuming a
        different campaign's tallies.
        """
        payload = self.to_dict()
        if budget is not None:
            payload["budget"] = int(budget)
        return fingerprint(payload)


# ----------------------------------------------------------------------
# Bundled specs.

_FIGURE_RATES = (3e-4, 1e-3, 3e-3)

_BUILTIN_SPEC_DICTS: dict[str, dict] = {
    "paper_figures": {
        "name": "paper_figures",
        "description": (
            "Main LER curves of the paper's evaluation: Figure 14 "
            "(bivariate bicycle [[72,12,6]]) and Figure 15 (hypergraph "
            "product [[225,9,6]]), baseline grid vs Cyclone, each point "
            "estimated to a +-20% relative Wilson half-width under one "
            "global shot budget."
        ),
        "budget": 400_000,
        "seed": 17,
        "sweeps": [
            {
                "name": f"{figure}_{label}",
                "code": code,
                "kind": "physical_error",
                "codesign": codesign,
                "physical_error_rates": list(_FIGURE_RATES),
                "target": {"half_width": 0.2, "relative": True,
                           "confidence": 0.95},
                "max_shots": 100_000,
            }
            for figure, code in (("fig14_bb72", "BB [[72,12,6]]"),
                                 ("fig15_hgp225", "HGP [[225,9,6]]"))
            for label, codesign in (("baseline", "baseline"),
                                    ("cyclone", "cyclone"))
        ],
    },
    "paper_figures_full": {
        "name": "paper_figures_full",
        "description": (
            "Every figure of the evaluation as one campaign: the "
            "Figure 14/15 LER curves (both code sizes, baseline vs "
            "Cyclone), the migrated sensitivity studies (Figures 5, 9, "
            "13, 17, 18) and the analytic compiler/swap tables "
            "(Figures 20, 21), under one global shot budget with full "
            "store-resume."
        ),
        "budget": 600_000,
        "seed": 17,
        "sweeps": [
            {
                "name": f"{figure}_{label}",
                "code": code,
                "kind": "physical_error",
                "codesign": codesign,
                "physical_error_rates": list(_FIGURE_RATES),
                "target": {"half_width": 0.2, "relative": True,
                           "confidence": 0.95},
                "max_shots": 100_000,
            }
            for figure, code in (("fig14_bb72", "BB [[72,12,6]]"),
                                 ("fig14_bb144", "BB [[144,12,12]]"),
                                 ("fig15_hgp225", "HGP [[225,9,6]]"),
                                 ("fig15_hgp400", "HGP [[400,16,6]]"))
            for label, codesign in (("baseline", "baseline"),
                                    ("cyclone", "cyclone"))
        ] + [
            {
                "name": "fig05_depth_speedup",
                "code": "HGP [[225,9,6]]",
                "kind": "depth_speedup",
                "physical_error_rate": 5e-4,
                "params": {"speedups": [1.0, 2.0, 4.0]},
                "target": {"half_width": 0.2, "relative": True,
                           "confidence": 0.95},
                "max_shots": 50_000,
            },
            {
                "name": "fig09_junction",
                "code": "HGP [[225,9,6]]",
                "kind": "junction_crossing",
                "physical_error_rate": 1e-4,
                "params": {"reductions": [0.0, 0.3, 0.5, 0.7, 0.9]},
                "target": {"half_width": 0.2, "relative": True,
                           "confidence": 0.95},
                "max_shots": 50_000,
            },
            {
                "name": "fig13_trap_arrangement",
                "code": "HGP [[225,9,6]]",
                "kind": "trap_arrangement",
                "physical_error_rate": 1e-4,
                "params": {"trap_counts": [1, 9, 25, 64, 108]},
                "target": {"half_width": 0.2, "relative": True,
                           "confidence": 0.95},
                "max_shots": 50_000,
            },
            {
                "name": "fig17_loose_capacity",
                "code": "HGP [[225,9,6]]",
                "kind": "loose_capacity",
                "physical_error_rate": 1e-4,
                "params": {"capacities": [5, 8, 12]},
                "target": {"half_width": 0.2, "relative": True,
                           "confidence": 0.95},
                "max_shots": 50_000,
            },
            {
                "name": "fig18_operation_time",
                "code": "HGP [[225,9,6]]",
                "kind": "operation_time",
                "physical_error_rate": 1e-4,
                "params": {"reductions": [0.0, 0.5, 0.75]},
                "target": {"half_width": 0.2, "relative": True,
                           "confidence": 0.95},
                "max_shots": 50_000,
            },
            {
                "name": "fig20_compilers",
                "code": "HGP [[225,9,6]]",
                "kind": "compiler_comparison",
            },
            {
                "name": "fig21_swap",
                "code": "HGP [[225,9,6]]",
                "kind": "swap_kind",
            },
        ],
    },
    "scenario_fuzz": {
        "name": "scenario_fuzz",
        "description": (
            "Short seeded scenario_sweep: randomized codes, trap "
            "topologies and noise models, each run through the fused "
            "pipeline and cross-checked bit-for-bit against the "
            "backend='bool' reference oracle; mismatches are minimized "
            "to replayable JSON files under scenario-failures/."
        ),
        "budget": 4000,
        "seed": 7,
        "sweeps": [
            {
                "name": "fuzz",
                "kind": "scenario_sweep",
                "params": {"num_scenarios": 6, "shots": 192,
                           "scenario_seed": 11},
                # Effectively unreachable width: every scenario consumes
                # its full pinned shot count (cap == pilot == shots), so
                # the oracle cross-checks the whole draw.
                "target": {"half_width": 1e-9},
            },
        ],
    },
    "ci_smoke": {
        "name": "ci_smoke",
        "description": (
            "Two-sweep miniature for the CI resume check: smallest "
            "codes, two rounds, absolute targets, a few hundred shots."
        ),
        "budget": 900,
        "seed": 7,
        "sweeps": [
            {
                "name": "smoke_repetition",
                "code": "repetition-d3",
                "kind": "physical_error",
                "codesign": "cyclone",
                "physical_error_rates": [2e-3, 8e-3],
                "target": {"half_width": 0.02},
                "rounds": 2,
                "pilot_shots": 32,
                "shard_shots": 64,
            },
            {
                "name": "smoke_architectures",
                "code": "surface-d3",
                "kind": "architectures",
                "codesigns": ["baseline", "cyclone"],
                "physical_error_rate": 3e-3,
                "target": {"half_width": 0.02},
                "rounds": 2,
                "pilot_shots": 32,
                "shard_shots": 64,
            },
        ],
    },
}


def available_specs() -> list[str]:
    """Names of the specs bundled with the repository."""
    return sorted(_BUILTIN_SPEC_DICTS)


def builtin_spec(name: str) -> CampaignSpec:
    """Load one of the bundled campaign specs by name."""
    try:
        payload = _BUILTIN_SPEC_DICTS[name]
    except KeyError:
        raise KeyError(f"unknown builtin spec {name!r}; available: "
                       f"{available_specs()}") from None
    return CampaignSpec.from_dict(payload)


def load_spec(source: "str | Path") -> CampaignSpec:
    """Resolve a spec argument: a builtin name or a JSON file path."""
    name = str(source)
    if name in _BUILTIN_SPEC_DICTS:
        return builtin_spec(name)
    path = Path(source)
    if not path.exists():
        raise FileNotFoundError(
            f"{name!r} is neither a builtin spec ({available_specs()}) "
            "nor an existing JSON file")
    return CampaignSpec.from_json(path.read_text())
