"""Multi-host coordination suite: leases, liveness, merge, joined runs.

The claims under test, layer by layer:

* the store's lease fold — claim/renew/release/abandon resolve in file
  order with monotonic epochs, so every reader agrees who owns what;
* incremental :meth:`ResultStore.refresh` — a long-lived store instance
  sees other processes' appends without re-reading the file, and
  multi-writer torn tails stay isolated;
* concurrent appends — records under ``PIPE_BUF`` written through
  ``O_APPEND`` handles never interleave bytes (exercised with real
  processes *and* a hypothesis schedule over in-process ``O_APPEND``
  file descriptors), and :func:`merge_stores` is permutation-invariant;
* :class:`JoinedCampaign` — N step-driven workers partition one budget,
  conserve sampled+replayed+reused shots globally, survive mid-lease
  death / suppressed heartbeats / duplicate-claim races, and always
  render tables byte-identical to a single joined worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignSpec,
    JoinedCampaign,
    Lease,
    LeaseLost,
    LeaseManager,
    ResultStore,
    WorkerIdentity,
    merge_stores,
    repair_store,
    run_campaign,
    verify_store,
)
from repro.parallel.faults import FaultPlan, InjectedFault, activate


def tiny_spec(budget: int = 400, seed: int = 3) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "tiny_join",
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


def identity(label: str) -> WorkerIdentity:
    return WorkerIdentity(host=label, pid=1, token="feed" + label[-4:])


class Clock:
    """An injectable, manually advanced clock for expiry tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
class TestWorkerIdentity:
    def test_generate_and_str(self):
        worker = WorkerIdentity.generate()
        assert worker.pid == os.getpid()
        host, pid, token = str(worker).split(":")
        assert host and token
        assert int(pid) == worker.pid

    def test_generate_label_overrides_host(self):
        assert WorkerIdentity.generate(label="blue").host == "blue"

    def test_parse_full_triple_round_trips(self):
        worker = WorkerIdentity(host="h", pid=42, token="abcd1234")
        assert WorkerIdentity.parse(str(worker)) == worker

    def test_parse_label_generates_fresh_identity(self):
        worker = WorkerIdentity.parse("ci-worker-1")
        assert worker.host == "ci-worker-1"
        assert worker.pid == os.getpid()

    def test_tokens_disambiguate_pid_reuse(self):
        assert WorkerIdentity.generate() != WorkerIdentity.generate()


# ----------------------------------------------------------------------
class TestLeaseFold:
    """The store's file-order lease fold, driven record by record."""

    def _claim(self, store, key, worker, epoch, ttl=10.0, ts=0.0):
        store.append_lease({"type": "claim", "key": key, "worker": worker,
                            "epoch": epoch, "ttl": ttl, "ts": ts})

    def test_claim_then_release(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        self._claim(store, "k", "a:1:x", 0, ts=5.0)
        store.refresh()
        lease = store.lease_for("k")
        assert lease.worker == "a:1:x" and lease.epoch == 0
        assert lease.live(14.9) and not lease.live(15.0)
        store.append_lease({"type": "release", "key": "k",
                            "worker": "a:1:x", "epoch": 0, "ts": 6.0})
        store.refresh()
        assert store.lease_for("k").released

    def test_first_claim_in_file_order_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        self._claim(store, "k", "a:1:x", 0)
        self._claim(store, "k", "b:2:y", 0)
        store.refresh()
        assert store.lease_for("k").worker == "a:1:x"

    def test_higher_epoch_supersedes(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        self._claim(store, "k", "a:1:x", 0)
        self._claim(store, "k", "b:2:y", 1)
        store.refresh()
        lease = store.lease_for("k")
        assert lease.worker == "b:2:y" and lease.epoch == 1

    def test_renew_extends_only_for_owner_at_epoch(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        self._claim(store, "k", "a:1:x", 0, ttl=10.0, ts=0.0)
        store.append_lease({"type": "renew", "key": "k", "worker": "a:1:x",
                            "epoch": 0, "ts": 8.0})
        # A stale heartbeat from the wrong epoch/worker is inert.
        store.append_lease({"type": "renew", "key": "k", "worker": "b:2:y",
                            "epoch": 0, "ts": 50.0})
        store.append_lease({"type": "renew", "key": "k", "worker": "a:1:x",
                            "epoch": 7, "ts": 50.0})
        store.refresh()
        assert store.lease_for("k").renewed_at == 8.0

    def test_usurped_owners_stale_renew_is_inert(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        self._claim(store, "k", "a:1:x", 0, ts=0.0)
        self._claim(store, "k", "b:2:y", 1, ts=20.0)
        store.append_lease({"type": "renew", "key": "k", "worker": "a:1:x",
                            "epoch": 0, "ts": 21.0})
        store.refresh()
        lease = store.lease_for("k")
        assert lease.worker == "b:2:y"
        assert lease.renewed_at == 20.0

    def test_abandon_marks_released_and_abandoned(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        self._claim(store, "k", "a:1:x", 0)
        store.append_lease({"type": "abandon", "key": "k",
                            "worker": "a:1:x", "epoch": 0, "ts": 1.0})
        store.refresh()
        lease = store.lease_for("k")
        assert lease.released and lease.abandoned

    def test_lease_events_never_shadow_result_records(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"key": "k", "failures": 1, "shots": 10})
        self._claim(store, "k", "a:1:x", 0)
        store.refresh()
        assert store.get("k")["shots"] == 10
        assert store.lease_for("k") is not None

    def test_epoch_aware_result_last_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"key": "k", "failures": 1, "shots": 10, "epoch": 2})
        store.append({"key": "k", "failures": 9, "shots": 90, "epoch": 1})
        assert store.get("k")["shots"] == 10  # stale epoch never wins
        store.append({"key": "k", "failures": 2, "shots": 20, "epoch": 2})
        assert store.get("k")["shots"] == 20  # equal epoch: last wins
        reloaded = ResultStore(store.path)
        assert reloaded.get("k")["shots"] == 20

    def test_torn_lease_record_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        self._claim(store, "k", "a:1:x", 0)
        with store.path.open("a") as handle:
            handle.write('{"type": "claim", "key": "k", "wor')
        reloaded = ResultStore(store.path)
        assert reloaded.skipped_lines == 1
        assert reloaded.lease_for("k").worker == "a:1:x"

    def test_malformed_lease_record_counted_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        path = store.path
        path.write_text(json.dumps({"type": "claim", "key": "k",
                                    "worker": "a", "epoch": "NaN?",
                                    "ts": "x", "version": 1}) + "\n")
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 1
        assert reloaded.lease_for("k") is None

    def test_append_lease_validates(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="worker"):
            store.append_lease({"type": "claim", "key": "k", "epoch": 0,
                                "ts": 0.0})
        with pytest.raises(ValueError, match="lease type"):
            store.append_lease({"type": "grab", "key": "k", "worker": "a",
                                "epoch": 0, "ts": 0.0})


# ----------------------------------------------------------------------
class TestStoreRefresh:
    def test_refresh_sees_other_instances_appends(self, tmp_path):
        path = tmp_path / "s.jsonl"
        mine = ResultStore(path)
        other = ResultStore(path)
        other.append({"key": "a", "failures": 1, "shots": 10})
        assert "a" not in mine
        assert mine.refresh() == 1
        assert mine.get("a")["shots"] == 10

    def test_refresh_is_noop_when_unchanged(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"key": "a", "failures": 1, "shots": 10})
        other = ResultStore(store.path)
        assert other.refresh() == 0
        assert other.refresh() == 0

    def test_refresh_after_external_torn_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        mine = ResultStore(path)
        with path.open("a") as handle:
            handle.write('{"key": "torn", "fail')
        mine.refresh()
        assert mine.skipped_lines == 1
        # A third writer repairs the tail with a leading newline; the
        # fragment becomes one complete corrupt line — still counted
        # exactly once.
        other = ResultStore(path)
        other.append({"key": "b", "failures": 0, "shots": 5})
        assert mine.refresh() == 1
        assert mine.skipped_lines == 1
        assert mine.get("b")["shots"] == 5

    def test_own_append_probes_tail_not_cached_state(self, tmp_path):
        """A rival's torn tail appearing *after* our load must not make
        our next append concatenate onto it."""
        path = tmp_path / "s.jsonl"
        mine = ResultStore(path)
        mine.append({"key": "a", "failures": 1, "shots": 10})
        with path.open("a") as handle:
            handle.write('{"key": "torn", "fail')
        mine.append({"key": "b", "failures": 0, "shots": 5})
        final = ResultStore(path)
        assert final.skipped_lines == 1
        assert "a" in final and "b" in final and "torn" not in final

    def test_shrunk_file_triggers_full_reload(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append({"key": "a", "failures": 1, "shots": 10})
        store.append({"key": "b", "failures": 2, "shots": 20})
        store.refresh()  # advance the read cursor past our own appends
        path.write_text("")  # truncated underneath us
        store.refresh()
        assert len(store) == 0 and store.lease_for("a") is None

    def test_refresh_missing_file(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.refresh() == 0

    def test_lease_appends_not_applied_locally(self, tmp_path):
        """Race correctness hinges on folding lease events in *file*
        order — a worker must never trust its own append before
        refreshing."""
        store = ResultStore(tmp_path / "s.jsonl")
        store.append_lease({"type": "claim", "key": "k", "worker": "me",
                            "epoch": 0, "ttl": 5.0, "ts": 0.0})
        assert store.lease_for("k") is None
        store.refresh()
        assert store.lease_for("k").worker == "me"


# ----------------------------------------------------------------------
def _writer_process(path: str, worker: int, count: int) -> None:
    store = ResultStore(path)
    for index in range(count):
        store.append({"key": f"w{worker}-r{index}", "failures": worker,
                      "shots": index, "writer": worker})


class TestConcurrentAppends:
    def test_three_processes_never_interleave(self, tmp_path):
        """Real concurrent appenders: every record lands whole."""
        path = tmp_path / "shared.jsonl"
        count = 40
        processes = [
            multiprocessing.Process(target=_writer_process,
                                    args=(str(path), worker, count))
            for worker in range(3)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        store = ResultStore(path)
        assert store.skipped_lines == 0
        assert len(store) == 3 * count
        for worker in range(3):
            for index in range(count):
                assert store.get(f"w{worker}-r{index}")["shots"] == index

    @given(schedule=st.lists(st.integers(min_value=0, max_value=2),
                             min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_o_append_schedule_never_tears(self, tmp_path_factory, schedule):
        """Any interleaving of single-write appends through separate
        ``O_APPEND`` descriptors (the kernel semantics the store relies
        on; each record far under ``PIPE_BUF``) yields a store with
        every record intact.  In-process so hypothesis can drive the
        schedule; the real-process version is the test above."""
        path = tmp_path_factory.mktemp("oappend") / "s.jsonl"
        fds = [os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
               for _ in range(3)]
        try:
            counters = [0, 0, 0]
            for writer in schedule:
                record = {"key": f"w{writer}-r{counters[writer]}",
                          "failures": 0, "shots": counters[writer],
                          "version": 1}
                line = (json.dumps(record, sort_keys=True) + "\n").encode()
                assert len(line) < 512  # PIPE_BUF is at least 512
                assert os.write(fds[writer], line) == len(line)
                counters[writer] += 1
        finally:
            for fd in fds:
                os.close(fd)
        store = ResultStore(path)
        assert store.skipped_lines == 0
        assert len(store) == len(set(
            f"w{writer}-r{index}" for writer in range(3)
            for index in range(counters[writer])))

    @given(permutation=st.permutations(list(range(4))))
    @settings(max_examples=24, deadline=None)
    def test_merge_is_permutation_invariant(self, tmp_path_factory,
                                            permutation):
        """Folding the same per-host stores in any order produces a
        byte-identical merged file (last-wins resolution is a function
        of record *content*, never of input order)."""
        base = tmp_path_factory.mktemp("merge")
        stores = []
        for host in range(4):
            store = ResultStore(base / f"host{host}.jsonl")
            store.append({"key": f"only-{host}", "failures": host,
                          "shots": 10 + host,
                          "params": {"sweep_index": 0,
                                     "point_index": host}})
            # Shared key: host 3's higher epoch must win everywhere.
            store.append({"key": "shared", "failures": host,
                          "shots": 100 + host, "epoch": host,
                          "params": {"sweep_index": 0, "point_index": 9}})
            store.append_lease({"type": "claim", "key": "shared",
                                "worker": f"h{host}:1:x", "epoch": host,
                                "ttl": 5.0, "ts": 0.0})
            stores.append(store.path)
        reference = base / "reference.jsonl"
        merge_stores(stores, reference)
        permuted = base / "permuted.jsonl"
        report = merge_stores([stores[index] for index in permutation],
                              permuted)
        assert permuted.read_bytes() == reference.read_bytes()
        assert report["conflicts"] == []
        merged = ResultStore(permuted)
        assert merged.get("shared")["epoch"] == 3
        assert len(merged.leases()) == 0


# ----------------------------------------------------------------------
class TestLeaseManager:
    def _pair(self, tmp_path, ttl=10.0):
        clock = Clock()
        path = tmp_path / "s.jsonl"
        a = LeaseManager(ResultStore(path), identity("aaaa"), ttl,
                         clock=clock)
        b = LeaseManager(ResultStore(path), identity("bbbb"), ttl,
                         clock=clock)
        return a, b, clock

    def test_claim_conflict_resolved_by_file_order(self, tmp_path):
        a, b, _ = self._pair(tmp_path)
        assert a.claim(["k"]) == ["k"]
        b.store.refresh()
        assert b.claim(["k"]) == []
        assert "k" in a.held and "k" not in b.held

    def test_expired_lease_reclaimed_at_higher_epoch(self, tmp_path):
        a, b, clock = self._pair(tmp_path, ttl=10.0)
        assert a.claim(["k"]) == ["k"]
        clock.advance(11.0)
        b.store.refresh()
        assert b.claim(["k"]) == ["k"]
        assert b.held["k"] == 1
        assert b.reclaims == 1

    def test_renew_keeps_lease_alive(self, tmp_path):
        a, b, clock = self._pair(tmp_path, ttl=10.0)
        a.claim(["k"])
        clock.advance(8.0)
        assert a.renew() == []
        clock.advance(8.0)  # 16s total, but renewed at 8s -> live to 18s
        b.store.refresh()
        assert b.claim(["k"]) == []

    def test_usurped_worker_detects_loss_via_heartbeat(self, tmp_path):
        a, b, clock = self._pair(tmp_path, ttl=10.0)
        a.claim(["k"])
        clock.advance(11.0)
        b.store.refresh()
        assert b.claim(["k"]) == ["k"]
        with pytest.raises(LeaseLost):
            a.heartbeat("k")
        assert "k" not in a.held

    def test_release_makes_key_claimable_immediately(self, tmp_path):
        a, b, _ = self._pair(tmp_path)
        a.claim(["k"])
        a.release("k")
        b.store.refresh()
        assert b.claim(["k"]) == ["k"]
        assert b.held["k"] == 1

    def test_abandon_all(self, tmp_path):
        a, b, _ = self._pair(tmp_path)
        a.claim(["k1", "k2"])
        a.abandon_all()
        assert a.held == {}
        b.store.refresh()
        assert sorted(b.claim(["k1", "k2"])) == ["k1", "k2"]

    def test_suppressed_heartbeats_skip_renewal_but_detect_loss(
            self, tmp_path):
        a, b, clock = self._pair(tmp_path, ttl=10.0)
        a.claim(["k"])
        with activate(FaultPlan(suppress_heartbeats=True)):
            clock.advance(8.0)
            assert a.renew() == []  # nothing appended, still owner
            clock.advance(3.0)  # expired: never actually renewed
            b.store.refresh()
            assert b.claim(["k"]) == ["k"]
            assert a.renew() == ["k"]  # the silenced owner finds out

    def test_duplicate_claim_fault_loses_race_then_expires(self, tmp_path):
        a, b, clock = self._pair(tmp_path, ttl=10.0)
        with activate(FaultPlan(duplicate_claim=0)):
            assert a.claim(["k"]) == []  # phantom rival won by file order
        lease = a.store.lease_for("k")
        assert lease.worker == "phantom:0:deadbeef"
        clock.advance(11.0)  # the phantom never renews
        b.store.refresh()
        assert b.claim(["k"]) == ["k"]
        assert b.held["k"] == 1

    def test_kill_after_claims_fires_with_leases_live(self, tmp_path):
        a, b, clock = self._pair(tmp_path, ttl=10.0)
        with activate(FaultPlan(kill_after_claims=1)):
            with pytest.raises(InjectedFault, match="killed after 1"):
                a.claim(["k1", "k2"])
        assert a.held == {}  # died before learning it won
        b.store.refresh()
        assert b.claim(["k1"]) == []  # orphaned lease still live
        clock.advance(11.0)
        assert b.claim(["k1"]) == ["k1"]

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            LeaseManager(ResultStore(tmp_path / "s.jsonl"),
                         identity("aaaa"), 0.0)


# ----------------------------------------------------------------------
class TestJoinedCampaign:
    def _reference(self, tmp_path, spec=None):
        spec = spec or tiny_spec()
        return run_campaign(spec, store=str(tmp_path / "ref.jsonl"),
                            join=True, worker_id="ref")

    def test_single_worker_cold_then_resume(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "s.jsonl"
        cold = run_campaign(spec, store=str(store), join=True,
                            worker_id="one")
        resumed = run_campaign(spec, store=str(store), join=True,
                               worker_id="two")
        assert cold.shots_sampled > 0
        assert resumed.shots_sampled == 0
        assert resumed.shots_reused == cold.shots_sampled
        assert resumed.spent == cold.spent
        assert render(cold) == render(resumed)

    def test_two_step_workers_partition_and_conserve(self, tmp_path):
        spec = tiny_spec()
        reference = self._reference(tmp_path, spec)
        store = tmp_path / "s.jsonl"
        a = JoinedCampaign(spec, str(store), worker=identity("aaaa"),
                           claim_batch=1)
        b = JoinedCampaign(spec, str(store), worker=identity("bbbb"),
                           claim_batch=1)
        with a, b:
            done = [False, False]
            for _ in range(32):
                if not done[0]:
                    done[0] = a.step() == "complete"
                if not done[1]:
                    done[1] = b.step() == "complete"
                if all(done):
                    break
            assert all(done)
            result_a, result_b = a.result(), b.result()
        # Disjoint partition, global conservation, identical tables.
        assert result_a.shots_sampled > 0 and result_b.shots_sampled > 0
        assert (result_a.shots_sampled + result_b.shots_sampled
                == reference.shots_sampled)
        assert result_a.spent == result_b.spent == reference.spent
        assert render(result_a) == render(result_b) == render(reference)

    def test_joined_keys_disjoint_from_plain_campaign(self, tmp_path):
        """A joined store must never satisfy a plain run (different
        allocation policy ⇒ different tallies ⇒ different keys)."""
        spec = tiny_spec()
        store = tmp_path / "s.jsonl"
        joined = run_campaign(spec, store=str(store), join=True,
                              worker_id="one")
        plain = run_campaign(spec, store=str(store))
        assert joined.shots_sampled > 0
        assert plain.shots_sampled > 0  # nothing cross-matched
        assert plain.shots_reused == 0

    def test_reclaim_after_worker_death_resumes_from_checkpoints(
            self, tmp_path):
        spec = tiny_spec()
        reference = self._reference(tmp_path, spec)
        store = tmp_path / "s.jsonl"
        clock = Clock()
        victim = JoinedCampaign(spec, str(store), worker=identity("dead"),
                                lease_ttl=10.0, claim_batch=2, clock=clock)
        with activate(FaultPlan(kill_after_claims=2)):
            with victim:
                with pytest.raises(InjectedFault):
                    victim.run()
        # Orphaned leases: a rescuer sees them live until the TTL runs
        # out, then reclaims and finishes everything.
        rescuer = JoinedCampaign(spec, str(store), worker=identity("resq"),
                                 lease_ttl=10.0, clock=clock,
                                 sleep=lambda seconds: clock.advance(11.0))
        with rescuer:
            result = rescuer.run()
        assert render(result) == render(reference)
        assert result.shots_sampled == reference.shots_sampled
        report = verify_store(store)
        assert report["ok"], report["problems"]

    def test_usurpation_forfeits_and_conserves(self, tmp_path):
        """A slow worker loses its lease mid-point; the work it did is
        forfeited (not double-counted) and the reclaim replays the
        checkpointed stages, conserving shots globally."""
        spec = tiny_spec()
        reference = self._reference(tmp_path, spec)
        store = tmp_path / "s.jsonl"
        clock = Clock()
        state = {"usurped": False}

        class SlowWorker(JoinedCampaign):
            def _sample(self, point, allocation, prior, stage):
                if stage == 1 and not state["usurped"]:
                    state["usurped"] = True
                    # The worker stalls past its TTL; a rival claims the
                    # point (epoch + 1) ... and then dies too, so this
                    # worker can eventually reclaim at epoch + 2.
                    clock.advance(11.0)
                    rival = LeaseManager(ResultStore(self.store.path),
                                         identity("riva"), 10.0,
                                         clock=clock)
                    assert rival.claim([point.key]) == [point.key]
                    clock.advance(11.0)
                return super()._sample(point, allocation, prior, stage)

        worker = SlowWorker(spec, str(store), worker=identity("slow"),
                            lease_ttl=10.0, claim_batch=1, clock=clock,
                            sleep=lambda seconds: clock.advance(11.0))
        with worker:
            result = worker.run()
        assert result.shots_forfeited > 0
        assert result.shots_replayed > 0  # stage 0 came from checkpoints
        # Conservation: forfeited work is excluded, replayed + sampled
        # add up to exactly the fault-free total.
        assert (result.shots_sampled + result.shots_replayed
                == reference.shots_sampled)
        assert render(result) == render(reference)

    def test_graceful_stop_abandons_leases(self, tmp_path):
        from repro.campaign import CampaignInterrupted
        spec = tiny_spec()
        store = tmp_path / "s.jsonl"
        calls = {"count": 0}

        def stop():
            calls["count"] += 1
            return calls["count"] > 2

        worker = JoinedCampaign(spec, str(store), worker=identity("stop"),
                                stop=stop)
        with worker:
            with pytest.raises(CampaignInterrupted):
                worker.run()
        refreshed = ResultStore(store)
        for lease in refreshed.leases().values():
            assert lease.released
        # And the campaign completes cleanly afterwards.
        reference = self._reference(tmp_path, spec)
        final = run_campaign(spec, store=str(store), join=True,
                             worker_id="fin")
        assert render(final) == render(reference)

    def test_join_requires_store(self):
        with pytest.raises(ValueError, match="store"):
            run_campaign(tiny_spec(), join=True)

    def test_lease_knobs_excluded_from_fingerprint(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "s.jsonl"
        tweaked = run_campaign(spec, store=str(store), join=True,
                               worker_id="one", lease_ttl=5.0,
                               claim_batch=7)
        plain = run_campaign(spec, store=str(store), join=True,
                             worker_id="two")
        assert tweaked.shots_sampled > 0
        assert plain.shots_sampled == 0
        assert render(plain) == render(tweaked)


# ----------------------------------------------------------------------
STORE_KEYS = ("a", "b", "c")


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


_RESULT_LINES = st.builds(
    lambda key, partial, epoch: _json_line({
        "key": key, "version": 1, "failures": 1, "shots": 10,
        **({"partial": True} if partial else {}),
        **({} if epoch is None else {"epoch": epoch})}),
    st.sampled_from(STORE_KEYS), st.booleans(),
    st.none() | st.integers(0, 2))
_LEASE_LINES = st.builds(
    lambda rtype, key, worker, epoch, ts: _json_line({
        "type": rtype, "key": key, "worker": worker, "epoch": epoch,
        "ts": ts, "version": 1,
        **({"ttl": 10.0} if rtype == "claim" else {})}),
    st.sampled_from(("claim", "renew", "release", "abandon")),
    st.sampled_from(STORE_KEYS), st.sampled_from(("w1", "w2")),
    st.integers(0, 2), st.integers(0, 30))
#: One store line of any kind: results, lease events, claims missing
#: ``ts``, keyless records, foreign versions, garbage and blanks.
STORE_LINES = st.one_of(
    _RESULT_LINES,
    _LEASE_LINES,
    st.builds(lambda key: _json_line({
        "type": "claim", "key": key, "worker": "w1", "epoch": 0,
        "ttl": 10.0, "version": 1}), st.sampled_from(STORE_KEYS)),
    st.sampled_from(['{"key": 7}', '{"failures": 0}', "[1, 2]"]),
    st.builds(lambda key: _json_line({
        "key": key, "version": 99, "failures": 0, "shots": 1}),
        st.sampled_from(STORE_KEYS)),
    st.sampled_from(["not json at all", '{"key": "a", "fail', "", "  "]),
)
#: A complete result record that lacks only its newline.
COMPLETE_TAIL = _json_line({"key": "t", "version": 1, "failures": 0,
                            "shots": 5})


class TestMergeVerifyRepair:
    def test_merge_prefers_final_over_partial(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        a.append({"key": "k", "partial": True, "failures": 1, "shots": 10,
                  "stages": [{"stage": 0}]})
        b = ResultStore(tmp_path / "b.jsonl")
        b.append({"key": "k", "failures": 3, "shots": 30})
        out = tmp_path / "m.jsonl"
        merge_stores([a.path, b.path], out)
        merged = ResultStore(out)
        assert merged.get("k")["shots"] == 30
        assert not merged.get("k").get("partial")

    def test_merge_reports_conflicting_finals(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        a.append({"key": "k", "failures": 1, "shots": 10})
        b = ResultStore(tmp_path / "b.jsonl")
        b.append({"key": "k", "failures": 2, "shots": 10})
        report = merge_stores([a.path, b.path], tmp_path / "m.jsonl")
        assert report["conflicts"] == ["k"]

    def test_merge_provenance_only_difference_is_no_conflict(self,
                                                             tmp_path):
        """Two hosts that each ran the whole campaign independently
        produce finals differing only in worker/epoch — deterministic
        sampling made the tallies identical, so that's not a conflict."""
        a = ResultStore(tmp_path / "a.jsonl")
        a.append({"key": "k", "failures": 1, "shots": 10,
                  "worker": "a:1:x", "epoch": 0})
        b = ResultStore(tmp_path / "b.jsonl")
        b.append({"key": "k", "failures": 1, "shots": 10,
                  "worker": "b:2:y", "epoch": 1})
        report = merge_stores([a.path, b.path], tmp_path / "m.jsonl")
        assert report["conflicts"] == []
        assert report["records_written"] == 1

    def test_merge_identical_finals_is_no_conflict(self, tmp_path):
        a = ResultStore(tmp_path / "a.jsonl")
        a.append({"key": "k", "failures": 1, "shots": 10})
        b = ResultStore(tmp_path / "b.jsonl")
        b.append({"key": "k", "failures": 1, "shots": 10})
        report = merge_stores([a.path, b.path], tmp_path / "m.jsonl")
        assert report["conflicts"] == []
        assert report["records_written"] == 1

    def test_verify_clean_store(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"key": "k", "failures": 1, "shots": 10})
        report = verify_store(store.path)
        assert report["ok"] and report["records"] == 1

    def test_verify_flags_torn_tail_as_info(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"key": "k", "failures": 1, "shots": 10})
        with store.path.open("a") as handle:
            handle.write('{"key": "t", "fail')
        report = verify_store(store.path)
        assert report["ok"]  # a torn tail is expected crash residue
        assert any("torn tail" in note for note in report["info"])

    def test_verify_flags_interior_corruption(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"key": "a", "version": 1}\n'
                        'not json at all\n'
                        '{"key": "b", "version": 1}\n')
        report = verify_store(path)
        assert not report["ok"]
        assert any("unparseable" in problem
                   for problem in report["problems"])

    def test_verify_flags_release_without_claim(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append_lease({"type": "release", "key": "k", "worker": "a",
                            "epoch": 0, "ts": 1.0})
        report = verify_store(store.path)
        assert not report["ok"]
        assert any("without a matching claim" in problem
                   for problem in report["problems"])

    def test_verify_flags_overlapping_live_leases(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append_lease({"type": "claim", "key": "k", "worker": "a",
                            "epoch": 0, "ttl": 100.0, "ts": 0.0})
        # Epoch bump while the previous lease is neither released nor
        # expired by its own timestamps: a broken reclaim.
        store.append_lease({"type": "claim", "key": "k", "worker": "b",
                            "epoch": 1, "ttl": 100.0, "ts": 1.0})
        report = verify_store(store.path)
        assert not report["ok"]
        assert any("overlapping live leases" in problem
                   for problem in report["problems"])

    def test_verify_accepts_legitimate_expiry_reclaim(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append_lease({"type": "claim", "key": "k", "worker": "a",
                            "epoch": 0, "ttl": 10.0, "ts": 0.0})
        store.append_lease({"type": "claim", "key": "k", "worker": "b",
                            "epoch": 1, "ttl": 10.0, "ts": 20.0})
        report = verify_store(store.path)
        assert report["ok"], report["problems"]

    def test_verify_missing_file(self, tmp_path):
        report = verify_store(tmp_path / "nope.jsonl")
        assert not report["ok"]

    def test_repair_drops_corruption_keeps_health(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append({"key": "a", "failures": 1, "shots": 10})
        store.append_lease({"type": "claim", "key": "a", "worker": "w",
                            "epoch": 0, "ttl": 5.0, "ts": 0.0})
        with path.open("a") as handle:
            handle.write("garbage line\n")
            handle.write('{"key": "torn", "fail')
        report = repair_store(path)
        assert report["kept"] == 2 and report["dropped"] == 2
        assert verify_store(path)["ok"]
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 0
        assert "a" in reloaded and reloaded.lease_for("a") is not None

    def test_every_line_kind_and_lease_outcome_pinned(self, tmp_path):
        """One store with every line kind and every lease-fold outcome:
        each tool's full report is pinned verbatim, so a change to how
        any reader frames, classifies or folds a line shows here."""

        def lease(rtype, key, worker, epoch, ts, **extra):
            return {"type": rtype, "key": key, "worker": worker,
                    "epoch": epoch, "ts": ts, "version": 1, **extra}

        lines = [
            {"key": "r1", "version": 1, "failures": 1, "shots": 10},
            {"key": "r2", "version": 1, "partial": True, "failures": 0,
             "shots": 5, "stages": [{"stage": 0}]},
            {"key": "r1", "version": 1, "failures": 2, "shots": 20,
             "epoch": 1},
            "",                                             # line 4
            "not json at all",
            {"key": 7},
            {"key": "f", "version": 99, "failures": 0, "shots": 1},
            lease("claim", "m", "a", 0, 0.0, ttl="soon"),   # line 8
            lease("claim", "k1", "a", 0, 0.0, ttl=10.0),    # claimed
            lease("claim", "k1", "b", 0, 0.0, ttl=10.0),    # lost race
            lease("renew", "k1", "a", 0, 5.0),              # renewed
            lease("claim", "k1", "b", 1, 6.0, ttl=10.0),    # overlap
            lease("claim", "k1", "c", 0, 7.0, ttl=10.0),    # lower epoch
            lease("release", "k1", "b", 1, 8.0),            # released
            lease("renew", "k1", "b", 1, 9.0),              # stale
            lease("claim", "k1", "c", 1, 30.0, ttl=10.0),   # line 16
            {"type": "claim", "key": "x", "version": 99},
            lease("claim", "k2", "a", 0, 0.0, ttl=5.0),
            lease("claim", "k2", "b", 1, 20.0, ttl=5.0),    # expiry reclaim
            lease("renew", "k2", "a", 0, 21.0),             # unmatched
            lease("release", "k3", "a", 0, 22.0),           # unmatched
            lease("abandon", "k2", "c", 1, 23.0),           # unmatched
            lease("abandon", "k2", "b", 1, 24.0),           # line 23
        ]
        path = tmp_path / "s.jsonl"
        path.write_text(
            "".join((line if isinstance(line, str)
                     else json.dumps(line, sort_keys=True)) + "\n"
                    for line in lines)
            + '{"key": "t", "fail')                         # line 24

        report = verify_store(path)
        assert report["problems"] == [
            "line 5: unparseable JSON in the interior of the file",
            "line 6: record without a string 'key'",
            "line 8: malformed lease record (claim)",
            "line 12: overlapping live leases on k1...: claim at epoch 1 "
            "while epoch 0 (worker a) was neither released nor expired",
            "line 20: renew on k2... by a at epoch 0 without a matching "
            "claim",
            "line 21: release on k3... by a at epoch 0 without a matching "
            "claim",
            "line 22: abandon on k2... by c at epoch 1 without a matching "
            "claim",
        ]
        assert report["info"] == [
            "line 7: foreign store version 99 (ignored on load)",
            "line 10: claim on k1... lost the race at epoch 0 (file order)",
            "line 13: claim on k1... lost the race at epoch 0 (file order)",
            "line 15: renew on k1... after release (stale heartbeat; "
            "ignored on load)",
            "line 17: foreign store version 99 (ignored on load)",
            "line 24: torn tail (crash mid-append; skipped on load, "
            "repair removes it)",
        ]
        assert (report["ok"], report["records"], report["leases"]) == (
            False, 3, 15)

        store = ResultStore(path)
        assert store.skipped_lines == 6
        records = [
            {"epoch": 1, "failures": 2, "key": "r1", "shots": 20,
             "version": 1},
            {"failures": 0, "key": "r2", "partial": True, "shots": 5,
             "stages": [{"stage": 0}], "version": 1},
        ]
        leases = {
            "k1": Lease(key="k1", worker="c", epoch=1, ttl=10.0,
                        acquired_at=30.0, renewed_at=30.0),
            "k2": Lease(key="k2", worker="b", epoch=1, ttl=5.0,
                        acquired_at=20.0, renewed_at=20.0, released=True,
                        abandoned=True),
        }
        assert store.records() == records
        assert store.leases() == leases

        merged = merge_stores([path], tmp_path / "m.jsonl")
        assert (merged["records_read"], merged["records_written"],
                merged["lines_skipped"], merged["conflicts"]) == (
                    3, 2, 5, [])

        repaired = repair_store(path)
        assert (repaired["kept"], repaired["dropped"]) == (19, 4)
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 2  # the two foreign versions
        assert reloaded.records() == records
        assert reloaded.leases() == leases

    @given(lines=st.lists(STORE_LINES, max_size=12),
           tail=st.sampled_from(["", '{"key": "t", "fail', COMPLETE_TAIL]))
    @settings(max_examples=100, deadline=None)
    @example(lines=[], tail=COMPLETE_TAIL)
    def test_every_reader_sees_what_load_sees(self, tmp_path_factory,
                                              lines, tail):
        """Load, merge, verify and repair frame and classify a store
        alike: the bytes after the last newline are a torn tail for
        all four, even a complete record that lacks only its newline,
        and repair changes nothing the loader folds."""
        base = tmp_path_factory.mktemp("readers")
        path = base / "s.jsonl"
        path.write_text("".join(line + "\n" for line in lines) + tail)
        notes = verify_store(path)["info"]
        assert any("torn tail" in note for note in notes) == bool(tail)

        before = ResultStore(path)
        merge_stores([path], base / "m.jsonl")
        merged = {json.loads(line)["key"]
                  for line in (base / "m.jsonl").read_text().splitlines()}
        assert merged == {record["key"] for record in before.records()}

        repair_store(path)
        after = ResultStore(path)
        assert after.records() == before.records()
        assert after.leases() == before.leases()
        for key in (*STORE_KEYS, "t"):
            assert after.final_for(key) == before.final_for(key)
        report = verify_store(path)
        assert not [problem for problem in report["problems"]
                    if "unparseable" in problem
                    or "without a string 'key'" in problem
                    or "malformed lease" in problem]
        assert not [note for note in report["info"] if "torn tail" in note]


# ----------------------------------------------------------------------
class TestJoinedCLI:
    """Two real concurrent ``--join`` processes through the CLI."""

    def _run(self, args, cwd, env_extra=None):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent
                                  / "src"))
        env.update(env_extra or {})
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    def test_concurrent_join_conserves_and_matches(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec().to_json())
        reference = self._run(
            ["campaign", str(spec_path), "--join", "--store", "ref.jsonl",
             "--worker-id", "ref", "--output", "ref-tables",
             "--summary", "ref-summary.json"], tmp_path)
        assert reference.wait(timeout=300) == 0, reference.stdout.read()
        workers = [
            self._run(
                ["campaign", str(spec_path), "--join", "--store",
                 "shared.jsonl", "--worker-id", name, "--output",
                 f"tables-{name}", "--summary", f"summary-{name}.json"],
                tmp_path)
            for name in ("blue", "green")
        ]
        for process in workers:
            assert process.wait(timeout=300) == 0, process.stdout.read()
        ledgers = [json.loads((tmp_path / f"summary-{name}.json")
                              .read_text())
                   for name in ("blue", "green")]
        reference_ledger = json.loads(
            (tmp_path / "ref-summary.json").read_text())
        total = sum(ledger["shots_sampled"] + ledger["shots_replayed"]
                    for ledger in ledgers)
        assert total == reference_ledger["shots_sampled"]
        for ledger in ledgers:
            assert ledger["spent"] == reference_ledger["spent"]
        for name in ("blue", "green"):
            for table in (tmp_path / "ref-tables").iterdir():
                mine = tmp_path / f"tables-{name}" / table.name
                assert mine.read_bytes() == table.read_bytes()
