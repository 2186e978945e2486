"""Tests for the cross-sweep campaign orchestrator, spec and store.

Two properties are here as hypothesis tests:

* campaign-level allocation **degenerates to the single-sweep
  scheduler** when the spec contains exactly one sweep — every point
  runs through the one pilot/allocate/refine schedule
  (``_pilot_and_refine``), whose :func:`allocate_shots` call with a
  uniform per-point relative flag sequence is proven equal to the
  scalar flag, and the schedule never overspends its budget;
* **store-resumed results are bit-identical to a cold run** — for
  arbitrary campaign seeds, a second run against the store re-samples
  zero shots and renders byte-identical tables.

A ``stop`` callback that fires at any one of a run's polls, plain or
joined, leaves a store that verifies and resumes to the uninterrupted
run's tables.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignInterrupted,
    CampaignSpec,
    ResultStore,
    SweepSpec,
    available_specs,
    builtin_spec,
    fingerprint,
    load_spec,
    run_campaign,
    verify_store,
)
from repro.campaign.orchestrator import _CampaignPoint, _pilot_and_refine
from repro.cli import main
from repro.core.results import PRECISION_COLUMNS
from repro.core.stats import PrecisionTarget
from repro.core.sweep import allocate_shots


def tiny_spec(budget: int = 400, seed: int = 3,
              sweeps: int = 1) -> CampaignSpec:
    """A campaign small enough for sub-second cold runs."""
    sweep_dicts = [
        {
            "name": "tiny_repetition",
            "code": "repetition-d3",
            "kind": "physical_error",
            "codesign": "cyclone",
            "physical_error_rates": [5e-3, 2e-2],
            "target": {"half_width": 0.03},
            "rounds": 2,
            "pilot_shots": 32,
            "shard_shots": 64,
        },
        {
            "name": "tiny_architectures",
            "code": "surface-d3",
            "kind": "architectures",
            "codesigns": ["baseline", "cyclone"],
            "physical_error_rate": 3e-3,
            "target": {"half_width": 0.03},
            "rounds": 2,
            "pilot_shots": 32,
            "shard_shots": 64,
        },
    ]
    return CampaignSpec.from_dict({
        "name": "tiny",
        "budget": budget,
        "seed": seed,
        "sweeps": sweep_dicts[:sweeps],
    })


class TestSweepSpec:
    def test_round_trip(self):
        sweep = SweepSpec(
            name="s", code="repetition-d3",
            physical_error_rates=(1e-3, 2e-3),
            target=PrecisionTarget(half_width=0.1, relative=True),
            rounds=2, max_shots=500,
        )
        clone = SweepSpec.from_dict(sweep.to_dict())
        assert clone == sweep

    def test_architectures_round_trip(self):
        sweep = SweepSpec(
            name="a", code="surface-d3", kind="architectures",
            codesigns=("baseline", "cyclone"), physical_error_rate=1e-3,
        )
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_physical_error_requires_rates(self):
        with pytest.raises(ValueError, match="physical_error_rates"):
            SweepSpec(name="s", code="repetition-d3")

    def test_architectures_requires_codesigns_and_rate(self):
        with pytest.raises(ValueError, match="codesigns"):
            SweepSpec(name="s", code="surface-d3", kind="architectures",
                      physical_error_rate=1e-3)
        with pytest.raises(ValueError, match="physical_error_rate"):
            SweepSpec(name="s", code="surface-d3", kind="architectures",
                      codesigns=("baseline",))

    def test_unknown_kind_and_keys(self):
        with pytest.raises(ValueError, match="kind"):
            SweepSpec(name="s", code="repetition-d3", kind="bogus",
                      physical_error_rates=(1e-3,))
        with pytest.raises(ValueError, match="unknown sweep keys"):
            SweepSpec.from_dict({"name": "s", "code": "repetition-d3",
                                 "physical_error_rates": [1e-3],
                                 "bogus": 1})

    def test_validate_names(self):
        sweep = SweepSpec(name="s", code="no-such-code",
                          physical_error_rates=(1e-3,))
        with pytest.raises(ValueError, match="unknown code"):
            sweep.validate_names()
        sweep = SweepSpec(name="s", code="repetition-d3",
                          codesign="no-such-design",
                          physical_error_rates=(1e-3,))
        with pytest.raises(ValueError, match="unknown codesign"):
            sweep.validate_names()


class TestCampaignSpec:
    def test_json_round_trip(self):
        spec = tiny_spec(sweeps=2)
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_num_points(self):
        assert tiny_spec(sweeps=2).num_points == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one sweep"):
            CampaignSpec(name="c", sweeps=(), budget=100)
        with pytest.raises(ValueError, match="budget"):
            tiny_spec(budget=0)
        sweep = tiny_spec().sweeps[0]
        with pytest.raises(ValueError, match="unique"):
            CampaignSpec(name="c", sweeps=(sweep, sweep), budget=100)

    def test_fingerprint_tracks_content(self):
        spec = tiny_spec()
        assert spec.fingerprint() == tiny_spec().fingerprint()
        assert spec.fingerprint() != tiny_spec(seed=4).fingerprint()
        assert spec.fingerprint() != spec.fingerprint(budget=999)

    def test_builtin_specs(self):
        assert "paper_figures" in available_specs()
        assert "ci_smoke" in available_specs()
        for name in available_specs():
            spec = builtin_spec(name)
            spec.validate_names()
            assert spec.num_points >= 2
        with pytest.raises(KeyError, match="unknown builtin"):
            builtin_spec("bogus")

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(tiny_spec().to_json())
        assert load_spec(path) == tiny_spec()
        with pytest.raises(FileNotFoundError):
            load_spec(tmp_path / "missing.json")


class TestResultStore:
    def test_round_trip_and_last_wins(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        assert len(store) == 0
        store.append({"key": "a", "failures": 1, "shots": 10})
        store.append({"key": "a", "failures": 2, "shots": 20})
        store.append({"key": "b", "failures": 0, "shots": 5})
        reloaded = ResultStore(store.path)
        assert len(reloaded) == 2
        assert reloaded.get("a")["shots"] == 20
        assert "b" in reloaded and "c" not in reloaded

    def test_reload_forgets_vanished_finals(self, tmp_path):
        """A refresh of a file that shrank reloads it from scratch, so
        ``final_for`` forgets a vanished final just as ``get`` does."""
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append({"key": "a", "failures": 1, "shots": 10})
        store.refresh()
        assert store.final_for("a")["shots"] == 10
        path.write_text("")
        store.refresh()
        assert store.get("a") is None
        assert store.final_for("a") is None
        assert len(store) == 0

    def test_truncated_tail_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append({"key": "a", "failures": 1, "shots": 10})
        with store.path.open("a") as handle:
            handle.write('{"key": "b", "failures": 2, "sho')
        reloaded = ResultStore(store.path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 1

    def test_other_versions_ignored(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps({"key": "a", "version": 999}) + "\n")
        reloaded = ResultStore(path)
        assert len(reloaded) == 0
        assert reloaded.skipped_lines == 1

    def test_key_required(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(ValueError, match="key"):
            store.append({"failures": 1, "shots": 2})

    def test_fingerprint_stability(self):
        payload = {"b": 2, "a": [1, 2], "nested": {"x": 1.5}}
        assert fingerprint(payload) == fingerprint(dict(reversed(
            list(payload.items()))))
        assert fingerprint(payload) != fingerprint({**payload, "b": 3})


# ----------------------------------------------------------------------
# Allocation degeneracy: the campaign allocates through the same engine
# as the single sweep, and a uniform flag vector equals the scalar.

tallies_strategy = st.lists(
    st.tuples(st.integers(0, 50), st.integers(0, 1000)).map(
        lambda t: (min(t), max(t))),
    min_size=1, max_size=8,
)


def bare_point(target: PrecisionTarget, cap: int, pilot: int = 0,
               rate: float = 0.0) -> _CampaignPoint:
    """A campaign point with no experiment behind it, for driving the
    schedule with a fake ``sample``."""
    return _CampaignPoint(
        sweep_index=0, point_index=0, sweep=None, row={}, sampled=True,
        physical_error_rate=rate, round_latency_us=0.0, rounds=1,
        target=target, cap=cap, pilot=pilot, key="", params={})


class TestAllocationDegeneracy:
    @given(tallies=tallies_strategy,
           budget=st.integers(0, 100_000),
           cap=st.integers(1, 100_000),
           relative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_uniform_flags_equal_scalar(self, tallies, budget, cap,
                                        relative):
        """A one-sweep campaign's allocation call — per-point flags, all
        equal — is exactly PR 4's scalar-flag allocation."""
        caps = [cap] * len(tallies)
        scalar = allocate_shots(tallies, budget, caps, relative=relative)
        vector = allocate_shots(tallies, budget, caps,
                                relative=[relative] * len(tallies))
        assert scalar == vector

    def test_flag_length_validated(self):
        with pytest.raises(ValueError, match="one relative flag"):
            allocate_shots([(0, 10)], 100, [50], relative=[True, False])

    @given(rates=st.lists(st.floats(0.001, 0.4), min_size=1, max_size=5),
           budget=st.integers(100, 5000),
           pilot=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_refine_engine_respects_budget(self, rates, budget, pilot):
        """The schedule never overspends the global budget, and every
        shot a stage used lands in its point's tally, with a
        deterministic fake ``sample`` standing in for experiments."""
        used = []

        def sample(point, allocation, prior, stage):
            del prior, stage
            used.append(allocation)
            return int(allocation * point.physical_error_rate), allocation

        points = [bare_point(PrecisionTarget(half_width=0.01), budget,
                             pilot=pilot, rate=rate)
                  for rate in rates]
        _pilot_and_refine(sample, points, budget)
        assert sum(used) <= budget
        assert sum(used) == sum(point.tally[1] for point in points)


# ----------------------------------------------------------------------
# End-to-end campaign runs.

class TestStopPolls:
    """``stop`` is polled before each pilot, before each refine round,
    before each refine stage and after the loop (and, joined, before
    each claim).  A stop at any one of those polls must leave a store
    that verifies and resumes to the uninterrupted run's tables."""

    @pytest.mark.parametrize("join", [False, True], ids=["plain", "joined"])
    def test_every_poll_interrupts_resumably(self, tmp_path, join):
        spec = tiny_spec(sweeps=2)
        polls = []

        def counting_stop():
            polls.append(None)
            return False

        reference = run_campaign(spec, store=str(tmp_path / "ref.jsonl"),
                                 stop=counting_stop, join=join)
        expected = [table.to_json() for table in reference.tables]
        assert polls
        for k in range(1, len(polls) + 1):
            store = tmp_path / f"stopped-{k}.jsonl"
            store.touch()
            calls = itertools.count(1)
            with pytest.raises(CampaignInterrupted):
                run_campaign(spec, store=str(store), join=join,
                             stop=lambda: next(calls) >= k)
            assert verify_store(store)["ok"], k
            resumed = run_campaign(spec, store=str(store), join=join)
            assert [table.to_json() for table in resumed.tables] == \
                expected, k
            if not join:
                assert run_campaign(spec, store=str(store)).shots_sampled \
                    == 0, k

class TestCampaignRun:
    def test_cold_run_shape_and_budget(self, tmp_path):
        spec = tiny_spec(sweeps=2)
        result = run_campaign(spec, store=tmp_path / "store.jsonl")
        assert result.points_total == 4
        assert result.points_reused == 0
        assert result.shots_reused == 0
        assert 0 < result.shots_sampled <= spec.budget
        assert len(result.tables) == 2
        for table in result.tables:
            for column in PRECISION_COLUMNS:
                assert column in table.columns
        summary = result.summary_table()
        assert len(summary) == 2
        assert sum(summary.column("shots_used")) == result.shots_sampled

    def test_resume_is_bit_identical(self, tmp_path):
        spec = tiny_spec(sweeps=2)
        store = tmp_path / "store.jsonl"
        cold = run_campaign(spec, store=store)
        warm = run_campaign(spec, store=store)
        assert warm.shots_sampled == 0
        assert warm.points_reused == warm.points_total
        assert warm.shots_reused == cold.shots_sampled
        assert [t.to_json() for t in warm.tables] == \
               [t.to_json() for t in cold.tables]
        assert warm.summary_table().to_json() == \
               cold.summary_table().to_json()

    @given(seed=st.integers(0, 2**31), budget=st.integers(150, 600))
    @settings(max_examples=5, deadline=None)
    def test_resume_property(self, tmp_path_factory, seed, budget):
        """ISSUE property: for arbitrary seeds and budgets, the resumed
        campaign samples zero shots and reproduces the cold tables."""
        tmp = tmp_path_factory.mktemp("campaign-resume")
        spec = tiny_spec(budget=budget, seed=seed)
        store = tmp / "store.jsonl"
        cold = run_campaign(spec, store=store)
        warm = run_campaign(spec, store=store)
        assert warm.shots_sampled == 0
        assert [t.to_json() for t in warm.tables] == \
               [t.to_json() for t in cold.tables]

    def test_partial_resume_resamples_only_missing_points(self, tmp_path):
        spec = tiny_spec(sweeps=2)
        store_path = tmp_path / "store.jsonl"
        cold = run_campaign(spec, store=store_path)
        records = ResultStore(store_path).records()
        assert len(records) == 4
        dropped = records[1]
        store_path.write_text("".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in records if record["key"] != dropped["key"]
        ))
        partial = run_campaign(spec, store=store_path)
        assert partial.points_reused == 3
        assert partial.shots_sampled > 0
        # The reused rows are identical to the cold run's; only the
        # dropped point was re-estimated.
        for cold_table, partial_table in zip(cold.tables, partial.tables):
            for row_index, (cold_row, partial_row) in enumerate(
                    zip(cold_table.rows, partial_table.rows)):
                if cold_row != partial_row:
                    assert cold_table is cold.tables[0]
                    assert row_index == 1

    def test_worker_count_is_not_a_statistics_knob(self, tmp_path):
        spec = tiny_spec(sweeps=2, budget=300)
        serial = run_campaign(spec, store=tmp_path / "a.jsonl", workers=1)
        pooled = run_campaign(spec, store=tmp_path / "b.jsonl", workers=2)
        assert [t.to_json() for t in serial.tables] == \
               [t.to_json() for t in pooled.tables]
        assert serial.shots_sampled == pooled.shots_sampled

    def test_budget_override_partitions_the_store(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "store.jsonl"
        run_campaign(spec, store=store, budget=200)
        other = run_campaign(spec, store=store, budget=300)
        assert other.points_reused == 0  # different budget, different keys
        resumed = run_campaign(spec, store=store, budget=300)
        assert resumed.shots_sampled == 0

    def test_store_optional(self):
        result = run_campaign(tiny_spec(budget=200))
        assert result.store_path is None
        assert result.shots_sampled <= 200

    def test_interrupted_campaign_keeps_finalised_points(self, tmp_path,
                                                         monkeypatch):
        """Points are flushed to the store as they finalise, so a
        killed campaign resumes them instead of re-sampling."""
        from repro.core.memory import MemoryExperiment

        # Sweep A meets its loose target at the pilot and is flushed
        # right there; sweep B (tight relative target) keeps sampling.
        spec = CampaignSpec.from_dict({
            "name": "interruptible", "budget": 600, "seed": 5,
            "sweeps": [
                {"name": "easy", "code": "repetition-d3",
                 "physical_error_rates": [5e-3],
                 "target": {"half_width": 0.06}, "rounds": 2,
                 "pilot_shots": 64, "shard_shots": 64},
                {"name": "hard", "code": "repetition-d3",
                 "physical_error_rates": [5e-3],
                 "target": {"half_width": 0.05, "relative": True},
                 "rounds": 2, "pilot_shots": 32, "shard_shots": 64},
            ],
        })
        store_path = tmp_path / "store.jsonl"
        appended = {"n": 0}
        original_run = MemoryExperiment.run
        original_append = ResultStore.append

        def counting_append(self, record):
            appended["n"] += 1
            return original_append(self, record)

        def dying_run(self, *args, **kwargs):
            # Die on the first sampling call *after* something reached
            # the store: the campaign is provably mid-flight with a
            # finalised point already flushed.
            if appended["n"] >= 1:
                raise KeyboardInterrupt("simulated ^C mid-campaign")
            return original_run(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "append", counting_append)
        monkeypatch.setattr(MemoryExperiment, "run", dying_run)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store=store_path)
        monkeypatch.setattr(MemoryExperiment, "run", original_run)
        interrupted = ResultStore(store_path)
        assert len(interrupted) == 1  # the easy point survived the ^C
        resumed = run_campaign(spec, store=store_path)
        assert resumed.points_reused == 1
        assert resumed.shots_sampled > 0
        assert resumed.points_total == 2
        # The resumed campaign finalises everything.
        assert len(ResultStore(store_path)) == 2

    def test_pooled_experiment_rejects_conflicting_workers(self):
        from repro.core.memory import MemoryExperiment
        from repro.parallel import SharedPool
        from repro.codes import code_by_name

        with SharedPool(2) as pool:
            with MemoryExperiment(code=code_by_name("repetition-d3"),
                                  rounds=2, pool=pool) as experiment:
                assert experiment.workers == 2

    def test_spent_never_exceeds_budget_even_when_tiny(self):
        result = run_campaign(tiny_spec(budget=40, sweeps=2))
        assert result.shots_sampled <= 40


def capped_spec(budget: int = 4000) -> CampaignSpec:
    """Four points whose unreachable target makes every final a
    cap-final (500 shots each) — the adoptable kind of record."""
    return CampaignSpec.from_dict({
        "name": "adoptable", "budget": budget, "seed": 13,
        "sweeps": [{
            "name": "capped",
            "code": "repetition-d3",
            "kind": "physical_error",
            "codesign": "cyclone",
            "physical_error_rates": [5e-3, 1e-2, 1.5e-2, 2e-2],
            "target": {"half_width": 1e-6},
            "rounds": 2,
            "pilot_shots": 32,
            "shard_shots": 64,
            "max_shots": 500,
        }],
    })


class TestMidRunExternalAdoption:
    """The store is re-folded *before every allocation round*, not just
    at campaign start — finals that another plain run of the same spec
    and budget lands mid-run are adopted instead of re-sampled.
    ``--join`` workers key their records apart, so a plain run (a
    served job) never uses theirs."""

    def test_refresh_adopts_rival_finals_mid_run(self, tmp_path):
        spec = capped_spec()
        rival_store = ResultStore(tmp_path / "rival.jsonl")
        cold = run_campaign(spec, store=rival_store)
        assert cold.shots_sampled == 4 * 500
        cold_tables = [table.to_json() for table in cold.tables]

        live_path = tmp_path / "live.jsonl"
        injected = {"done": False}

        def inject_rival_finals(snapshot: dict) -> None:
            # After the first pilot flush, a rival process lands every
            # point's cap-final record in the live store *file*.  Only
            # a refresh() before the next allocation round can see
            # them — the live run's own store instance predates them.
            if snapshot["phase"] != "pilot" or injected["done"]:
                return
            injected["done"] = True
            rival = ResultStore(live_path)
            for record in rival_store.records():
                if not record.get("partial"):
                    rival.append(dict(record))

        result = run_campaign(spec, store=ResultStore(live_path),
                              progress=inject_rival_finals)
        assert injected["done"]
        # Every point was adopted; this run sampled only its pilots.
        assert result.shots_external == 4 * 500
        assert result.shots_sampled == 4 * 32
        assert result.shots_reused == 0
        assert [table.to_json() for table in result.tables] == cold_tables

    def test_budget_exhausted_rival_finals_are_not_adopted(self, tmp_path):
        # With budget 1000 the campaign force-flushes every point short
        # of its cap: final records, but only because *that run's*
        # budget ran dry.  Adopting them would freeze another run's
        # stopping decision into ours, so they are re-sampled instead.
        spec = capped_spec(budget=1000)
        rival_store = ResultStore(tmp_path / "rival.jsonl")
        cold = run_campaign(spec, store=rival_store)
        rival_finals = [record for record in rival_store.records()
                        if not record.get("partial")]
        assert rival_finals and all(record["shots"] < 500
                                    for record in rival_finals)

        live_path = tmp_path / "live.jsonl"
        injected = {"done": False}

        def inject_rival_finals(snapshot: dict) -> None:
            if snapshot["phase"] != "pilot" or injected["done"]:
                return
            injected["done"] = True
            rival = ResultStore(live_path)
            for record in rival_finals:
                rival.append(dict(record))

        result = run_campaign(spec, store=ResultStore(live_path),
                              progress=inject_rival_finals)
        assert injected["done"]
        assert result.shots_external == 0
        assert result.shots_sampled == cold.shots_sampled
        assert [table.to_json() for table in result.tables] == \
            [table.to_json() for table in cold.tables]

    def test_joined_finals_never_feed_a_plain_run(self, tmp_path):
        # A joined worker's keys fold in the partitioned cap, pilot and
        # a coordination marker, so a plain run on the same store file
        # neither reuses nor adopts its finals.
        spec = builtin_spec("ci_smoke")
        path = tmp_path / "shared.jsonl"
        run_campaign(spec, store=path, join=True, worker_id="a")
        plain = run_campaign(spec, store=path)
        assert plain.shots_reused == plain.shots_external == 0
        finals = [record for record in ResultStore(path).records()
                  if not record.get("partial")]
        joined = {record["key"] for record in finals if "worker" in record}
        plain_keys = {record["key"] for record in finals
                      if "worker" not in record}
        assert len(joined) == len(plain_keys) == plain.points_total
        assert joined.isdisjoint(plain_keys)

    def test_before_round_spend_feeds_the_engine(self):
        """`before_round`'s return value is external spend: it counts
        against the global budget exactly like carried-in reuse."""
        calls: list[int] = []

        def sample(point, allocation, prior, stage):
            del point, prior, stage
            return 0, allocation

        def before_round(round_index: int) -> int:
            calls.append(round_index)
            return 100 if round_index == 0 else 0

        points = [bare_point(PrecisionTarget(half_width=1e-9), 1000)
                  for _ in range(2)]
        _pilot_and_refine(sample, points, 300, before_round=before_round)
        # 100 of the 300-shot budget was adopted externally before
        # round 0, so the points' own sampling spends exactly the
        # other 200, and round 1 finds the budget gone.
        assert calls == [0, 1]
        assert sum(point.tally[1] for point in points) == 200


class TestCampaignCLI:
    def test_list_specs(self, capsys):
        assert main(["campaign", "--list-specs"]) == 0
        out = capsys.readouterr().out
        assert "paper_figures" in out and "ci_smoke" in out

    def test_spec_required(self, capsys):
        assert main(["campaign"]) == 2
        assert "--list-specs" in capsys.readouterr().err

    def test_unknown_spec(self, capsys):
        assert main(["campaign", "no-such-spec"]) == 2
        assert "neither a builtin spec" in capsys.readouterr().err

    def test_run_resume_and_assert_flag(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec(budget=240).to_json())
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["campaign", str(spec_path), "--store", str(store),
                     "--output", str(out1)]) == 0
        capsys.readouterr()
        assert main(["campaign", str(spec_path), "--store", str(store),
                     "--output", str(out2), "--assert-no-sampling"]) == 0
        output = capsys.readouterr().out
        assert "0 shots sampled" in output
        cold_files = sorted(p.name for p in out1.iterdir())
        assert cold_files == sorted(p.name for p in out2.iterdir())
        for name in cold_files:
            assert (out1 / name).read_text() == (out2 / name).read_text()

    def test_assert_flag_fails_on_fresh_store(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec(budget=240).to_json())
        code = main(["campaign", str(spec_path), "--store",
                     str(tmp_path / "fresh.jsonl"), "--assert-no-sampling"])
        assert code == 3
        assert "shots were sampled" in capsys.readouterr().err

    def test_budget_override(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec(budget=100_000).to_json())
        assert main(["campaign", str(spec_path), "--budget", "150"]) == 0
        assert "150" in capsys.readouterr().out

    def test_orchestrator_errors_are_usage_errors(self, capsys, tmp_path):
        spec = tiny_spec(budget=240)
        payload = json.loads(spec.to_json())
        payload["sweeps"][0]["code"] = "BB[[72,12,6]]"  # typo: no space
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        assert main(["campaign", str(spec_path)]) == 2
        assert "unknown code" in capsys.readouterr().err

    def test_summary_ledger(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(tiny_spec(budget=240).to_json())
        summary_path = tmp_path / "ledger.json"
        assert main(["campaign", str(spec_path), "--summary",
                     str(summary_path)]) == 0
        ledger = json.loads(summary_path.read_text())
        assert ledger["budget"] == 240
        assert ledger["shots_sampled"] == ledger["spent"]
        assert ledger["points_total"] == 2


class TestPaperFiguresSpec:
    """Acceptance: the bundled paper_figures spec completes under a
    global budget and resumes with zero re-sampling (run here at a
    reduced budget override; CI smokes the ci_smoke spec the same way,
    and the full-budget run is the actual reproduction)."""

    def test_completes_and_resumes(self, tmp_path):
        spec = load_spec("paper_figures")
        assert spec.num_points == 12
        store = tmp_path / "figures.jsonl"
        cold = run_campaign(spec, store=store, budget=1200)
        assert cold.shots_sampled <= 1200
        assert cold.points_total == 12
        assert len(cold.tables) == 4
        warm = run_campaign(spec, store=store, budget=1200)
        assert warm.shots_sampled == 0
        assert warm.points_reused == 12
        assert [t.to_json() for t in warm.tables] == \
               [t.to_json() for t in cold.tables]


class TestExecutionKnobFingerprintStability:
    """shard_timeout / max_shard_retries shape recovery, not results —
    a store written under one retry policy must resume under any."""

    def test_knobs_are_validated(self, tmp_path):
        store = tmp_path / "store.jsonl"
        with pytest.raises(ValueError, match="shard_timeout"):
            run_campaign(tiny_spec(), store=store, workers=2,
                         shard_timeout=0.0)
        with pytest.raises(ValueError, match="max_rebuilds"):
            run_campaign(tiny_spec(), store=store, workers=2,
                         max_shard_retries=-1)
        # Rejected before any point was sampled.
        assert ResultStore(store).records() == []

    def test_fingerprint_ignores_the_knobs(self, tmp_path):
        spec = tiny_spec()
        store = tmp_path / "store.jsonl"
        cold = run_campaign(spec, store=store, workers=2,
                            shard_timeout=30.0, max_shard_retries=5)
        warm = run_campaign(spec, store=store)
        assert warm.shots_sampled == 0
        assert warm.points_reused == warm.points_total
        assert [t.to_json() for t in warm.tables] == \
               [t.to_json() for t in cold.tables]


class TestExecutionSettingsAreNotSpecKeys:
    """Shard deadline, rebuild budget, lease TTL and claim batch say how
    one host runs a campaign, never what it computes, so they are run
    arguments: a spec that carries one is rejected as unknown."""

    @pytest.mark.parametrize("key, value", [
        ("shard_timeout", 30.0), ("max_shard_retries", 5)])
    def test_sweep_rejects_execution_keys(self, key, value):
        payload = dict(name="s", code="repetition-d3",
                       physical_error_rates=[1e-3], rounds=2)
        with pytest.raises(ValueError, match=key):
            SweepSpec.from_dict(dict(payload, **{key: value}))

    @pytest.mark.parametrize("key, value", [
        ("lease_ttl", 5.0), ("claim_batch", 7)])
    def test_campaign_rejects_execution_keys(self, key, value):
        payload = builtin_spec("ci_smoke").to_dict()
        with pytest.raises(ValueError, match=key):
            CampaignSpec.from_dict(dict(payload, **{key: value}))


class TestStoreCrashSafety:
    def _record(self, key, shots=10):
        return {"key": key, "failures": 1, "shots": shots}

    def test_append_is_one_line_one_write(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append(self._record("a"))
        store.append(self._record("b"))
        text = (tmp_path / "s.jsonl").read_text()
        assert text.endswith("\n")
        assert len(text.strip().splitlines()) == 2

    def test_torn_tail_is_skipped_and_not_concatenated(self, tmp_path):
        """A file ending in a torn (newline-less) line must load
        cleanly AND keep the next append on a fresh line — otherwise
        the new record is corrupted by concatenation."""
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append(self._record("a"))
        with path.open("a") as handle:
            handle.write('{"key": "torn", "failures": 0, "sho')
        reloaded = ResultStore(path)
        assert reloaded.skipped_lines == 1
        assert "a" in reloaded and "torn" not in reloaded
        reloaded.append(self._record("b"))
        final = ResultStore(path)
        assert final.skipped_lines == 1
        assert "a" in final and "b" in final
        assert final.get("b") == final._records["b"]

    def test_fsync_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_FSYNC", "1")
        store = ResultStore(tmp_path / "s.jsonl")
        assert store.fsync
        store.append(self._record("a"))
        assert "a" in ResultStore(tmp_path / "s.jsonl")

    @given(st.integers(min_value=0, max_value=200), st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_truncation_at_any_byte_recovers(self, cut_back, salt):
        """Chop the file anywhere (a crash mid-write), reload, append,
        reload: every untouched record survives and the appended record
        lands cleanly."""
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.jsonl"
            store = ResultStore(path)
            for index in range(3):
                store.append({"key": f"k{index}", "failures": index,
                              "shots": 10 + salt % 97})
            raw = path.read_bytes()
            cut = max(0, len(raw) - cut_back)
            path.write_bytes(raw[:cut])
            reloaded = ResultStore(path)
            intact = [f"k{i}" for i in range(3) if f"k{i}" in reloaded]
            # A cut only ever costs the tail: the surviving records are
            # a prefix, and every record whose newline survived is in it
            # (a cut landing exactly after the JSON text also recovers
            # that newline-less final record — a bonus, not a promise).
            whole_lines = raw[:cut].count(b"\n")
            assert intact == [f"k{i}" for i in range(len(intact))]
            assert len(intact) >= min(3, whole_lines)
            reloaded.append({"key": "after", "failures": 0, "shots": 1})
            final = ResultStore(path)
            assert "after" in final
            for key in intact:
                assert key in final
