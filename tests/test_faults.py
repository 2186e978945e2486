"""Fault-injection suite: the stack must survive everything
:mod:`repro.parallel.faults` can throw at it, bit-identically.

Layer by layer:

* :class:`FaultPlan` itself — JSON wire format, env/CLI activation,
  fire-once semantics;
* the pipeline — worker kills and shard timeouts trigger bounded pool
  respawn + deterministic resubmission; exhausted retries degrade to
  in-process execution; all of it bit-identical to the fault-free run;
* the shared pool — self-healing across experiments, lifetime rebuild
  budget, permanent-failure downgrade;
* the campaign — the hypothesis-gated invariant from the ISSUE: for
  random fault plans (torn store tails, injected interrupts, worker
  kills), the crashed run's store resumes to byte-identical tables,
  completed work is never re-sampled, and a second resume samples
  nothing at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignInterrupted,
    CampaignSpec,
    builtin_spec,
    run_campaign,
)
from repro.codes import code_by_name
from repro.core.memory import MemoryExperiment
from repro.parallel import (
    FaultPlan,
    InjectedFault,
    PoolUnavailable,
    SharedPool,
    activate,
)
from repro.parallel.faults import (
    active_plan,
    apply_task_fault,
    reset_env_cache,
)


def tiny_spec(budget: int = 400, seed: int = 3) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "tiny_faults",
        "budget": budget,
        "seed": seed,
        "sweeps": [{
            "name": "tiny_repetition",
            "code": "repetition-d3",
            "kind": "physical_error",
            "codesign": "cyclone",
            "physical_error_rates": [5e-3, 2e-2],
            "target": {"half_width": 0.03},
            "rounds": 2,
            "pilot_shots": 32,
            "shard_shots": 64,
        }],
    })


def render(result) -> str:
    return ("\n\n".join(table.to_text() for table in result.tables)
            + "\n" + result.summary_table().to_text())


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(kills=(3, 1), delays={2: 0.5},
                         tear_after_records=4, sigterm_after_points=2)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.kills == plan.kills
        assert clone.delays == plan.delays
        assert clone.tear_after_records == 4
        assert clone.sigterm_after_points == 2

    def test_lease_fault_keys_round_trip(self):
        plan = FaultPlan(kill_after_claims=2, suppress_heartbeats=True,
                         duplicate_claim=1, tear_lease_after=3)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.kill_after_claims == 2
        assert clone.suppress_heartbeats is True
        assert clone.duplicate_claim == 1
        assert clone.tear_lease_after == 3
        # Absent keys stay absent on the wire.
        assert "suppress_heartbeats" not in FaultPlan(kills=(1,)).to_dict()

    def test_lease_faults_fire_once(self):
        plan = FaultPlan(kill_after_claims=2, duplicate_claim=1,
                         tear_lease_after=2)
        assert not plan.take_lease_kill(1)
        assert plan.take_lease_kill(3)      # >= threshold fires
        assert not plan.take_lease_kill(5)  # already fired
        assert not plan.take_duplicate_claim(0)
        assert plan.take_duplicate_claim(1)
        assert not plan.take_duplicate_claim(1)
        assert not plan.take_lease_tear(1)
        assert plan.take_lease_tear(2)
        assert not plan.take_lease_tear(4)

    def test_suppress_heartbeats_is_a_mode_not_fire_once(self):
        plan = FaultPlan(suppress_heartbeats=True)
        assert plan.heartbeats_suppressed()
        assert plan.heartbeats_suppressed()  # never consumed
        assert not FaultPlan().heartbeats_suppressed()

    def test_from_arg_inline_and_at_path(self, tmp_path):
        inline = FaultPlan.from_arg('{"kills": [0]}')
        assert inline.kills == (0,)
        path = tmp_path / "plan.json"
        path.write_text('{"delays": {"1": 0.25}}')
        from_file = FaultPlan.from_arg(f"@{path}")
        assert from_file.delays == {1: 0.25}

    def test_unknown_keys_and_bad_values_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"kill": [0]})
        with pytest.raises(ValueError):
            FaultPlan(kills=(-1,))
        with pytest.raises(ValueError):
            FaultPlan(delays={0: -1.0})

    def test_task_faults_fire_once_per_ordinal(self):
        plan = FaultPlan(kills=(1,), delays={2: 0.5})
        assert plan.next_task_fault() is None          # ordinal 0
        assert plan.next_task_fault() == ("kill",)     # ordinal 1
        assert plan.next_task_fault() == ("delay", 0.5)
        assert plan.next_task_fault() is None          # ordinal 3
        # The schedule is consumed: re-submissions run clean.
        assert plan._submitted == 4

    def test_store_and_sigterm_faults_fire_once(self):
        plan = FaultPlan(tear_after_records=2, sigterm_after_points=1)
        assert not plan.take_store_tear(1)
        assert plan.take_store_tear(2)
        assert not plan.take_store_tear(5)   # already fired
        assert not plan.take_sigterm(0)
        assert plan.take_sigterm(1)
        assert not plan.take_sigterm(9)

    def test_activation_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", '{"kills": [7]}')
        reset_env_cache()
        try:
            assert active_plan().kills == (7,)
            explicit = FaultPlan(kills=(1,))
            with activate(explicit):
                assert active_plan() is explicit
                # activate(None) silences even the env plan.
                with activate(None):
                    assert active_plan() is None
            assert active_plan().kills == (7,)
        finally:
            monkeypatch.delenv("REPRO_FAULT_PLAN")
            reset_env_cache()
        assert active_plan() is None

    def test_apply_task_fault(self):
        apply_task_fault(None)             # no-op
        apply_task_fault(("delay", 0.0))   # returns after sleeping
        with pytest.raises(ValueError, match="unknown injected fault"):
            apply_task_fault(("meteor",))


def _run_memory(workers, plan=None, pool=None, shots=160, **kwargs):
    """One tiny experiment run; returns ((failures, shots), stats)."""
    code = code_by_name("repetition-d3")
    with activate(plan):
        with MemoryExperiment(code=code, rounds=2, workers=workers,
                              shard_shots=16, pool=pool,
                              **kwargs) as experiment:
            result = experiment.run(8e-3, 100.0, shots=shots, seed=5)
            stats = dict(experiment._pipeline.last_run_stats)
    return (result.failures, result.shots), stats


@pytest.fixture(scope="module")
def memory_reference():
    return _run_memory(1)[0]


class TestPipelineRecovery:
    def test_worker_kill_recovers_bit_identically(self, memory_reference):
        got, stats = _run_memory(2, FaultPlan(kills=(1,)))
        assert got == memory_reference
        assert stats["pool_failures"] == 1
        assert stats["shards_resubmitted"] > 0
        assert not stats["local_fallback"]

    def test_shard_timeout_recovers_bit_identically(self, memory_reference):
        with SharedPool(2, shard_timeout=0.5) as pool:
            got, stats = _run_memory(2, FaultPlan(delays={0: 5.0}),
                                     pool=pool)
        assert got == memory_reference
        assert stats["shard_timeouts"] >= 1

    def test_delay_without_timeout_is_harmless(self, memory_reference):
        got, stats = _run_memory(2, FaultPlan(delays={1: 0.05}))
        assert got == memory_reference
        assert stats["shard_timeouts"] == 0
        assert stats["pool_failures"] == 0

    def test_exhausted_retries_fall_back_in_process(self, memory_reference):
        """Kill every submission: the dedicated pool cannot make
        progress, so the run must degrade to in-process execution —
        and still match the fault-free result exactly."""
        got, stats = _run_memory(2, FaultPlan(kills=tuple(range(64))))
        assert got == memory_reference
        assert stats["local_fallback"]
        assert stats["pool_failures"] == 3  # retries + the final straw

    def test_fault_free_run_reports_clean_stats(self, memory_reference):
        got, stats = _run_memory(2)
        assert got == memory_reference
        assert stats["pool_failures"] == 0
        assert stats["shard_timeouts"] == 0
        assert stats["shards_resubmitted"] == 0
        assert not stats["local_fallback"]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="shard_timeout"):
            SharedPool(2, shard_timeout=0.0)
        with pytest.raises(ValueError, match="max_rebuilds"):
            SharedPool(2, max_rebuilds=-1)


class TestSharedPoolSelfHealing:
    def test_kill_heals_within_budget(self, memory_reference):
        with SharedPool(2, max_rebuilds=2) as pool:
            got, stats = _run_memory(2, FaultPlan(kills=(1,)), pool=pool)
            assert got == memory_reference
            assert pool.rebuilds == 1
            assert not pool.failed
            # The healed pool keeps serving fault-free runs.
            again, stats = _run_memory(2, pool=pool)
            assert again == memory_reference
            assert stats["pool_failures"] == 0

    def test_exhausted_pool_fails_permanently(self, memory_reference):
        with SharedPool(2, max_rebuilds=1) as pool:
            got, stats = _run_memory(
                2, FaultPlan(kills=tuple(range(64))), pool=pool)
            assert got == memory_reference
            assert pool.failed
            assert stats["local_fallback"]
            # Subsequent runs skip the dead pool entirely.
            again, stats = _run_memory(2, pool=pool)
            assert again == memory_reference
            assert stats["local_fallback"]
            assert stats["pool_failures"] == 0

    def test_failed_pool_raises_on_direct_use(self):
        pool = SharedPool(2, max_rebuilds=0)
        with pytest.raises(PoolUnavailable):
            pool.rebuild()
        assert pool.failed
        with pytest.raises(PoolUnavailable):
            _ = pool.executor
        pool.close()


class TestCampaignFaultInvariance:
    """The ISSUE's hypothesis gate: random fault plans, byte-identical
    recovery, completed shards never re-sampled."""

    _references: dict = {}

    def _reference(self, seed):
        if seed not in self._references:
            with activate(None):
                self._references[seed] = run_campaign(tiny_spec(seed=seed))
        return self._references[seed]

    @given(
        seed=st.integers(0, 2),
        tear=st.one_of(st.none(), st.integers(0, 4)),
        interrupt=st.one_of(st.none(), st.integers(1, 2)),
    )
    @settings(max_examples=12, deadline=None)
    def test_crashed_campaign_resumes_byte_identically(self, tmp_path_factory,
                                                       seed, tear, interrupt):
        import tempfile
        from pathlib import Path

        del tmp_path_factory
        reference = self._reference(seed)
        plan = FaultPlan(tear_after_records=tear,
                         sigterm_after_points=interrupt)
        with tempfile.TemporaryDirectory() as tmp:
            store = str(Path(tmp) / "store.jsonl")
            try:
                with activate(plan):
                    run_campaign(tiny_spec(seed=seed), store=store)
            except (InjectedFault, CampaignInterrupted):
                pass  # the planned crash/interrupt
            with activate(None):
                resumed = run_campaign(tiny_spec(seed=seed), store=store)
            assert render(resumed) == render(reference)
            # Conservation: every shot is sampled exactly once across
            # the crashed run and the resume — completed stages replay
            # from checkpoints, completed points resume whole.
            assert (resumed.shots_sampled + resumed.shots_replayed
                    + resumed.shots_reused) == reference.shots_sampled
            with activate(None):
                again = run_campaign(tiny_spec(seed=seed), store=store)
            assert again.shots_sampled == 0
            assert again.shots_replayed == 0
            assert render(again) == render(reference)

    def test_worker_kill_mid_campaign(self, tmp_path):
        """Pooled campaign under a worker kill + torn tail: the pool
        heals, the crash tears the store, the resume is byte-identical."""
        reference = self._reference(0)
        plan = FaultPlan(kills=(2,), tear_after_records=1)
        store = str(tmp_path / "store.jsonl")
        with pytest.raises(InjectedFault):
            with activate(plan):
                run_campaign(tiny_spec(seed=0), store=store, workers=2)
        with activate(None):
            resumed = run_campaign(tiny_spec(seed=0), store=store,
                                   workers=2)
        assert render(resumed) == render(reference)
        assert (resumed.shots_sampled + resumed.shots_replayed
                + resumed.shots_reused) == reference.shots_sampled

    def test_stop_callback_interrupts_cleanly(self, tmp_path):
        """run_campaign's stop hook (the CLI's signal path) interrupts
        between units of work and leaves a resumable store."""
        reference = self._reference(1)
        store = str(tmp_path / "store.jsonl")
        calls = {"n": 0}

        def stop_after_a_few():
            calls["n"] += 1
            return calls["n"] > 3

        with pytest.raises(CampaignInterrupted):
            run_campaign(tiny_spec(seed=1), store=store,
                         stop=stop_after_a_few)
        resumed = run_campaign(tiny_spec(seed=1), store=store)
        assert render(resumed) == render(reference)

    def test_run_level_retries_size_the_campaign_pool(self, monkeypatch):
        """A run-level ``max_shard_retries`` is also the lifetime budget
        of the pool the campaign builds: with every task killed, the
        pool respawns that many times before the campaign finishes
        in-process, and the tables equal the fault-free run's."""
        spec = builtin_spec("ci_smoke")
        with activate(None):
            reference = run_campaign(spec, workers=2)
        respawns = []
        real_rebuild = SharedPool.rebuild

        def counting_rebuild(pool):
            executor = real_rebuild(pool)
            respawns.append(pool.rebuilds)
            return executor

        monkeypatch.setattr(SharedPool, "rebuild", counting_rebuild)
        with activate(FaultPlan(kills=tuple(range(4096)))):
            result = run_campaign(spec, workers=2, max_shard_retries=5)
        assert respawns == [1, 2, 3, 4, 5]
        assert render(result) == render(reference)

    def test_shard_timeout_knob_threads_through(self, monkeypatch):
        """A run-level ``shard_timeout`` is the deadline of the pool the
        campaign builds: one shard held past it costs exactly one
        rebuild, and the tables equal the fault-free run's."""
        reference = self._reference(2)
        respawns = []
        real_rebuild = SharedPool.rebuild

        def counting_rebuild(pool):
            executor = real_rebuild(pool)
            respawns.append(pool.rebuilds)
            return executor

        monkeypatch.setattr(SharedPool, "rebuild", counting_rebuild)
        with activate(FaultPlan(delays={0: 5.0})):
            result = run_campaign(tiny_spec(seed=2), workers=2,
                                  shard_timeout=0.5)
        assert respawns == [1]
        assert render(result) == render(reference)


class TestJoinedFaultConservation:
    """Faults in ``--join`` mode: whatever dies, the *global* ledger
    across all workers adds up to the fault-free joined total, and the
    merged tables stay byte-identical."""

    def _joined_reference(self, tmp_path):
        with activate(None):
            return run_campaign(tiny_spec(), join=True, worker_id="ref",
                                store=str(tmp_path / "ref.jsonl"))

    def test_killed_worker_plus_finisher_conserve(self, tmp_path):
        reference = self._joined_reference(tmp_path)
        store = str(tmp_path / "store.jsonl")
        with pytest.raises(InjectedFault):
            with activate(FaultPlan(kill_after_claims=1)):
                run_campaign(tiny_spec(), join=True, worker_id="victim",
                             store=store, lease_ttl=0.05)
        with activate(None):
            finisher = run_campaign(tiny_spec(), join=True,
                                    worker_id="finisher", store=store,
                                    lease_ttl=0.05)
        # The victim died before sampling anything under its claims, so
        # the finisher alone accounts for every shot; any checkpointed
        # stages replay rather than re-sample.
        assert (finisher.shots_sampled + finisher.shots_replayed
                + finisher.shots_reused) == reference.shots_sampled
        assert render(finisher) == render(reference)

    def test_torn_lease_append_recovers(self, tmp_path):
        """A crash mid-lease-append leaves a torn (skipped) lease line;
        the next worker claims cleanly and finishes the campaign."""
        reference = self._joined_reference(tmp_path)
        store = str(tmp_path / "store.jsonl")
        with pytest.raises(InjectedFault):
            with activate(FaultPlan(tear_lease_after=1)):
                run_campaign(tiny_spec(), join=True, worker_id="torn",
                             store=store)
        with activate(None):
            finisher = run_campaign(tiny_spec(), join=True,
                                    worker_id="finisher", store=store,
                                    lease_ttl=0.05)
        assert (finisher.shots_sampled + finisher.shots_replayed
                + finisher.shots_reused) == reference.shots_sampled
        assert render(finisher) == render(reference)

    def test_tear_after_records_still_counts_only_results(self, tmp_path):
        """The pre-existing store-tear fault counts *result* appends
        only — lease traffic must not advance its ordinal, or joined
        mode would shift the long-standing chaos-CI semantics."""
        reference = self._joined_reference(tmp_path)
        store = str(tmp_path / "store.jsonl")
        with pytest.raises(InjectedFault, match="store append torn"):
            with activate(FaultPlan(tear_after_records=1)):
                run_campaign(tiny_spec(), join=True, worker_id="torn",
                             store=store)
        with activate(None):
            finisher = run_campaign(tiny_spec(), join=True,
                                    worker_id="finisher", store=store,
                                    lease_ttl=0.05)
        assert (finisher.shots_sampled + finisher.shots_replayed
                + finisher.shots_reused) == reference.shots_sampled
        assert render(finisher) == render(reference)
