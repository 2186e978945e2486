"""Randomized scenarios: property-testing the stack beyond the paper.

The paper evaluates a fixed set of codes, trap topologies and operating
points.  A :class:`Scenario` is one randomly generated — but fully
deterministic and replayable — configuration drawn from a much wider
space: sampled code families (repetition, rotated surface, small seeded
hypergraph products), random trap topologies (Cyclone rings with random
trap counts, baseline grids with random capacities, junction meshes)
and perturbed noise/timing models (operation-time improvement factors,
swap implementations, log-uniform physical error rates).

Scenarios exist to be **differentially tested**: every scenario runs
through the fused sample→decode pipeline on a fast backend
(``"packed"`` or ``"native"``) *and* on the ``backend="bool"`` /
``workers=1`` reference, and the two tallies must match bit for bit
(the repository-wide equivalence contract).  When they do not,
:func:`report_scenario_mismatch` shrinks the scenario to a minimal
still-failing configuration (:func:`minimize_scenario`, the
exhaustive-vs-optimized differential-harness pattern) and writes it to
a replayable JSON file before raising :class:`ScenarioMismatch` — CI
uploads the file, and :func:`load_scenario` + :func:`run_scenario`
reproduce the failure exactly.

Everything here is a pure function of the generation seed: scenarios
are generated from ``SeedSequence(entropy, spawn_key=(index,))``
streams, sampled with seeds stored *in* the scenario, and round-trip
through JSON without loss.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.codes.classical import full_rank_regular_ldpc
from repro.codes.css import CSSCode
from repro.codes.hgp import hypergraph_product
from repro.codes.surface import repetition_quantum_code, surface_code
from repro.core.codesign import codesign_by_name
from repro.core.memory import MemoryExperiment, MemoryResult
from repro.qccd.timing import OperationTimes, SwapKind

__all__ = [
    "Scenario",
    "ScenarioMismatch",
    "build_scenario",
    "generate_scenario",
    "load_scenario",
    "minimize_scenario",
    "report_scenario_mismatch",
    "run_scenario",
    "scenario_differs",
    "scenario_run_seed",
    "write_failure_scenario",
]

#: Bump when the scenario layout changes incompatibly; stored failure
#: files from other versions are rejected on load.
SCENARIO_VERSION = 1

_CODE_FAMILIES = ("repetition", "surface", "hgp")
_CODESIGNS = ("cyclone", "baseline", "baseline2", "baseline3",
              "mesh_junction")


@dataclass(frozen=True)
class Scenario:
    """One generated configuration: code, topology, noise, sampling.

    Every field is JSON-native (:meth:`to_dict` / :meth:`from_dict`
    round-trip losslessly), and the sampling ``seed`` lives inside the
    scenario, so a stored scenario file replays bit-identically on any
    host: same code, same compiled latency, same noise realisation,
    same tally.
    """

    name: str
    code_family: str
    code_params: tuple[int, ...]
    codesign: str
    codesign_overrides: dict
    improvement_factor: float
    junction_improvement_factor: float
    swap_kind: str
    physical_error_rate: float
    rounds: int
    basis: str
    shots: int
    shard_shots: int
    max_bp_iterations: int
    seed: int

    def __post_init__(self) -> None:
        if self.code_family not in _CODE_FAMILIES:
            raise ValueError(f"unknown code family {self.code_family!r}")
        if self.codesign not in _CODESIGNS:
            raise ValueError(f"unknown scenario codesign {self.codesign!r}")
        if self.shots < 1:
            raise ValueError("a scenario needs a positive shot count")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "code_family": self.code_family,
            "code_params": list(self.code_params),
            "codesign": self.codesign,
            "codesign_overrides": dict(self.codesign_overrides),
            "improvement_factor": self.improvement_factor,
            "junction_improvement_factor": self.junction_improvement_factor,
            "swap_kind": self.swap_kind,
            "physical_error_rate": self.physical_error_rate,
            "rounds": self.rounds,
            "basis": self.basis,
            "shots": self.shots,
            "shard_shots": self.shard_shots,
            "max_bp_iterations": self.max_bp_iterations,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        known = {
            "name", "code_family", "code_params", "codesign",
            "codesign_overrides", "improvement_factor",
            "junction_improvement_factor", "swap_kind",
            "physical_error_rate", "rounds", "basis", "shots",
            "shard_shots", "max_bp_iterations", "seed",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario keys {sorted(unknown)}")
        payload = dict(payload)
        payload["code_params"] = tuple(
            int(value) for value in payload.get("code_params", ()))
        payload["codesign_overrides"] = {
            str(key): int(value)
            for key, value in payload.get("codesign_overrides", {}).items()
        }
        return cls(**payload)


class ScenarioMismatch(RuntimeError):
    """A fast backend disagreed with the bool/serial reference oracle.

    Carries the (minimized) failing :attr:`scenario` and the
    :attr:`path` of the replayable JSON file it was written to.
    """

    def __init__(self, message: str, scenario: Scenario,
                 path: "Path | None" = None) -> None:
        super().__init__(message)
        self.scenario = scenario
        self.path = path


# ----------------------------------------------------------------------
# Generation.

def generate_scenario(entropy: int, index: int,
                      shots: int = 128) -> Scenario:
    """Deterministically generate scenario ``index`` of stream ``entropy``.

    A pure function of ``(entropy, index)``: the generator is rooted at
    ``SeedSequence(entropy, spawn_key=(index,))``, so a spec that names
    a scenario seed regenerates the identical scenarios on every run —
    the property the campaign fingerprint (and hence store resume)
    relies on.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(entropy),
                               spawn_key=(int(index),)))

    family = _CODE_FAMILIES[int(rng.integers(len(_CODE_FAMILIES)))]
    if family == "repetition":
        code_params = (int(rng.choice((3, 5))),)
        basis = "Z"  # the repetition code has Z stabilizers only
    elif family == "surface":
        code_params = (int(rng.choice((3, 5))),)
        basis = str(rng.choice(("Z", "X")))
    else:
        # Regular LDPC factors need num_checks * row_weight divisible
        # by num_bits AND an odd column weight (even column weights sum
        # the rows to zero — never full rank); these shapes keep the
        # product code small enough for a fuzzing budget.
        checks, bits, weight = ((3, 4, 4), (3, 9, 3))[int(rng.integers(2))]
        code_params = (checks, bits, weight, int(rng.integers(256)))
        basis = str(rng.choice(("Z", "X")))
    code = _code_for(family, code_params)

    codesign = _CODESIGNS[int(rng.integers(len(_CODESIGNS)))]
    overrides: dict[str, int] = {}
    if codesign == "cyclone":
        m_basis = max(code.num_x_stabilizers, code.num_z_stabilizers, 1)
        overrides["num_traps"] = int(rng.integers(1, m_basis + 1))
    elif codesign == "baseline":
        overrides["trap_capacity"] = int(rng.integers(5, 13))

    return Scenario(
        name=f"scenario-{int(entropy)}-{int(index):03d}",
        code_family=family,
        code_params=code_params,
        codesign=codesign,
        codesign_overrides=overrides,
        improvement_factor=round(float(rng.uniform(0.0, 0.8)), 4),
        junction_improvement_factor=round(float(rng.uniform(0.0, 0.8)), 4),
        swap_kind=str(rng.choice((SwapKind.GATE_SWAP.value,
                                  SwapKind.ION_SWAP.value))),
        physical_error_rate=float(np.exp(rng.uniform(np.log(5e-4),
                                                     np.log(3e-2)))),
        rounds=int(rng.integers(1, 4)),
        basis=basis,
        shots=max(1, int(shots)),
        shard_shots=int(rng.choice((32, 64))),
        max_bp_iterations=int(rng.choice((10, 20, 40))),
        seed=int(rng.integers(2**31 - 1)),
    )


@lru_cache(maxsize=64)
def _code_for(family: str, params: tuple[int, ...]) -> CSSCode:
    """Construct (and cache) a scenario's code instance."""
    if family == "repetition":
        return repetition_quantum_code(params[0])
    if family == "surface":
        return surface_code(params[0])
    checks, bits, weight, seed = params
    factor = full_rank_regular_ldpc(checks, bits, row_weight=weight,
                                    seed=seed)
    return hypergraph_product(factor)


def build_scenario(scenario: Scenario) -> tuple[CSSCode, float]:
    """Materialise a scenario: its code and its compiled round latency."""
    code = _code_for(scenario.code_family, scenario.code_params)
    times = OperationTimes(
        improvement_factor=scenario.improvement_factor,
        junction_improvement_factor=scenario.junction_improvement_factor,
        swap_kind=SwapKind(scenario.swap_kind),
    )
    design = codesign_by_name(scenario.codesign, times=times,
                              **scenario.codesign_overrides)
    compiled = design.compile(code)
    return code, compiled.execution_time_us


# ----------------------------------------------------------------------
# Execution and the differential oracle.

def scenario_run_seed(scenario: Scenario,
                      stage: int = 0) -> np.random.SeedSequence:
    """The seed tree root for one (scenario, stage) — a pure function
    of the scenario's stored seed, so stored scenario files replay
    bit-identically (the campaign uses stage 0 for the full-cap pilot,
    which is also what :func:`run_scenario` replays)."""
    return np.random.SeedSequence(entropy=int(scenario.seed),
                                  spawn_key=(int(stage),))


def run_scenario(scenario: Scenario, backend: str = "packed",
                 shots: int | None = None, stage: int = 0,
                 prior_tally: tuple[int, int] = (0, 0),
                 target=None) -> MemoryResult:
    """Execute one scenario in-process through the fused pipeline.

    Samples stage ``stage`` (:func:`scenario_run_seed`) of
    ``shots`` shots (default: the scenario's own) with
    ``prior_tally`` carried into the ``target`` stop rule — the replay
    a ``scenario_sweep`` campaign's oracle makes of every stage.  Per
    the repository's backend-equivalence contract the tally is the
    same for any ``backend``; :func:`scenario_differs` checks exactly
    that.
    """
    code, latency = build_scenario(scenario)
    with MemoryExperiment(
        code=code, rounds=scenario.rounds, basis=scenario.basis,
        max_bp_iterations=scenario.max_bp_iterations,
        backend=backend, shard_shots=scenario.shard_shots,
    ) as experiment:
        return experiment.run(
            scenario.physical_error_rate, latency,
            shots=shots if shots is not None else scenario.shots,
            target_precision=target, prior_tally=prior_tally,
            seed=scenario_run_seed(scenario, stage),
        )


def scenario_differs(scenario: Scenario, backend: str = "packed",
                     reference: str = "bool") -> bool:
    """Does ``backend`` disagree with the serial ``reference`` oracle?

    ``True`` means a real equivalence violation: the two tallies came
    from the identical seed tree, shard split and stop rule.
    """
    fast = run_scenario(scenario, backend=backend)
    oracle = run_scenario(scenario, backend=reference)
    return (fast.failures, fast.shots) != (oracle.failures, oracle.shots)


# ----------------------------------------------------------------------
# Failure minimization and replayable artifacts.

def minimize_scenario(scenario: Scenario,
                      differs: Callable[[Scenario], bool],
                      max_attempts: int = 24) -> Scenario:
    """Greedily shrink a failing scenario while ``differs`` stays true.

    Classic delta-debugging over the scenario's knobs: halve the shot
    count, drop rounds, zero the timing perturbations, shrink the code
    within (then across) families — each reduction is kept only if the
    reduced scenario still fails.  ``max_attempts`` bounds the total
    number of oracle evaluations (each one is a real pair of runs).
    """
    def candidates(s: Scenario):
        if s.shots > 16:
            yield replace(s, shots=s.shots // 2)
        if s.rounds > 1:
            yield replace(s, rounds=s.rounds - 1)
        if s.code_family == "hgp":
            yield replace(s, code_family="repetition", code_params=(3,),
                          basis="Z", codesign_overrides={})
        if s.code_family in ("repetition", "surface") and s.code_params[0] > 3:
            yield replace(s, code_params=(3,), codesign_overrides={})
        if s.shard_shots > 32:
            yield replace(s, shard_shots=32)
        if s.improvement_factor:
            yield replace(s, improvement_factor=0.0)
        if s.junction_improvement_factor:
            yield replace(s, junction_improvement_factor=0.0)
        if s.swap_kind != SwapKind.GATE_SWAP.value:
            yield replace(s, swap_kind=SwapKind.GATE_SWAP.value)
        if s.max_bp_iterations > 10:
            yield replace(s, max_bp_iterations=10)

    current = scenario
    attempts = 0
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in candidates(current):
            attempts += 1
            if attempts > max_attempts:
                break
            if differs(candidate):
                current = candidate
                progressed = True
                break
    return current


def write_failure_scenario(scenario: Scenario, directory: "str | Path",
                           reason: str,
                           extra: dict | None = None) -> Path:
    """Persist a failing scenario as a replayable JSON artifact."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{scenario.name}.json"
    payload = {
        "version": SCENARIO_VERSION,
        "reason": reason,
        "scenario": scenario.to_dict(),
    }
    if extra:
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_scenario(path: "str | Path") -> Scenario:
    """Load a scenario back from a failure artifact (or bare dict file)."""
    payload = json.loads(Path(path).read_text())
    if "scenario" in payload:
        if payload.get("version") != SCENARIO_VERSION:
            raise ValueError(
                f"scenario file version {payload.get('version')!r} does not "
                f"match {SCENARIO_VERSION}")
        payload = payload["scenario"]
    return Scenario.from_dict(payload)


def report_scenario_mismatch(scenario: Scenario, fast_backend: str,
                             reference_backend: str,
                             failure_dir: "str | Path",
                             detail: str = "") -> None:
    """Minimize, persist and raise for a detected oracle mismatch.

    The minimizer re-tests with the scenario's own stored seed; if the
    mismatch only reproduces under the campaign's stage seeds, the
    original scenario is written unminimized (still replayable, with
    ``detail`` recording where it was seen).
    """
    def differs(candidate: Scenario) -> bool:
        return scenario_differs(candidate, backend=fast_backend,
                                reference=reference_backend)

    minimized = (minimize_scenario(scenario, differs)
                 if differs(scenario) else scenario)
    reason = (f"backend {fast_backend!r} disagrees with the "
              f"{reference_backend!r}/workers=1 reference oracle")
    path = write_failure_scenario(minimized, failure_dir, reason=reason,
                                  extra={
                                      "fast_backend": fast_backend,
                                      "reference_backend": reference_backend,
                                      "detail": detail,
                                  })
    raise ScenarioMismatch(
        f"{reason} on scenario {scenario.name!r}; minimized replay "
        f"written to {path} (replay with repro.campaign.load_scenario + "
        f"run_scenario)", minimized, path)
