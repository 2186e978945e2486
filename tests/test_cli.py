"""Tests for the command-line interface and result-table export."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.results import ResultTable


class TestResultTableExport:
    def test_to_csv_round_trip(self):
        table = ResultTable(title="t", columns=["a", "b"])
        table.add_row(a=1, b="x")
        table.add_row(a=2, b="y")
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"
        assert len(lines) == 3

    def test_to_json_structure(self):
        table = ResultTable(title="t", columns=["a"])
        table.add_row(a=1.5)
        payload = json.loads(table.to_json())
        assert payload["title"] == "t"
        assert payload["rows"] == [{"a": 1.5}]

    def test_save_by_suffix(self, tmp_path):
        table = ResultTable(title="t", columns=["a"])
        table.add_row(a=1)
        csv_path = table.save(tmp_path / "out.csv")
        json_path = table.save(tmp_path / "out.json")
        txt_path = table.save(tmp_path / "out.txt")
        assert csv_path.read_text().startswith("a")
        assert json.loads(json_path.read_text())["columns"] == ["a"]
        assert "t" in txt_path.read_text()


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_compile_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["compile", "BB [[72,12,6]]"])
        assert args.codesigns == ["baseline", "cyclone"]

    def test_memory_arguments(self):
        parser = build_parser()
        args = parser.parse_args([
            "memory", "surface-d3", "--shots", "10",
            "--physical-error-rates", "1e-3", "2e-3",
        ])
        assert args.shots == 10
        assert args.physical_error_rates == [1e-3, 2e-3]
        assert args.workers == 1  # in-process by default

    def test_memory_workers_flag(self):
        parser = build_parser()
        args = parser.parse_args(["memory", "surface-d3", "--workers", "4"])
        assert args.workers == 4


class TestCommands:
    def test_codes_command(self, capsys):
        assert main(["codes"]) == 0
        output = capsys.readouterr().out
        assert "BB [[144,12,12]]" in output
        assert "surface-d3" in output

    def test_compile_command_with_output(self, capsys, tmp_path):
        out_file = tmp_path / "compile.csv"
        exit_code = main([
            "compile", "surface-d3", "--codesigns", "cyclone",
            "--output", str(out_file),
        ])
        assert exit_code == 0
        assert out_file.exists()
        assert "cyclone" in capsys.readouterr().out

    def test_compile_command_unknown_codesign(self, capsys):
        assert main(["compile", "surface-d3", "--codesigns", "bogus"]) == 2
        assert "unknown codesigns" in capsys.readouterr().err

    def test_memory_command(self, capsys, tmp_path):
        out_file = tmp_path / "ler.json"
        exit_code = main([
            "memory", "surface-d3", "--codesign", "cyclone",
            "--physical-error-rates", "2e-3", "--shots", "30",
            "--rounds", "2", "--output", str(out_file),
        ])
        assert exit_code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["rows"]) == 1
        assert 0.0 <= payload["rows"][0]["logical_error_rate"] <= 1.0

    def test_memory_command_with_workers(self, capsys, tmp_path):
        """--workers must not change the sweep's numbers, only its wall
        clock; compare a genuinely sharded 2-worker run (--shard-shots
        48 splits the 130-shot batch into three shards, so the process
        pool really runs) against the in-process result."""
        outputs = {}
        for workers in (1, 2):
            out_file = tmp_path / f"ler-{workers}.json"
            exit_code = main([
                "memory", "surface-d3", "--codesign", "cyclone",
                "--physical-error-rates", "3e-3", "--shots", "130",
                "--rounds", "2", "--workers", str(workers),
                "--shard-shots", "48", "--output", str(out_file),
            ])
            assert exit_code == 0
            capsys.readouterr()
            outputs[workers] = json.loads(out_file.read_text())["rows"]
        assert outputs[1] == outputs[2]

    def test_memory_command_with_target_precision(self, capsys, tmp_path):
        """--target-precision runs the adaptive scheduler: rows report
        shots_used / Wilson bounds, and the noisy point gets the
        budget."""
        out_file = tmp_path / "ler.json"
        exit_code = main([
            "memory", "surface-d3", "--codesign", "cyclone",
            "--physical-error-rates", "3e-3", "2e-2", "--shots", "600",
            "--rounds", "2", "--target-precision", "0.02",
            "--pilot-shots", "64", "--output", str(out_file),
        ])
        assert exit_code == 0
        capsys.readouterr()
        rows = json.loads(out_file.read_text())["rows"]
        assert len(rows) == 2
        quiet, noisy = rows
        assert quiet["shots_used"] < noisy["shots_used"]
        assert quiet["stopped_early"]
        for row in rows:
            assert 0.0 <= row["ci_low"] <= row["ci_high"] <= 1.0

    def test_relative_precision_requires_target(self, capsys):
        exit_code = main([
            "memory", "surface-d3", "--relative-precision",
            "--physical-error-rates", "3e-3", "--shots", "10",
        ])
        assert exit_code == 2
        assert "--target-precision" in capsys.readouterr().err

    def test_speedup_command(self, capsys):
        exit_code = main(["speedup", "--codes", "BB [[72,12,6]]"])
        assert exit_code == 0
        assert "speedup" in capsys.readouterr().out


class TestCampaignListSpecs:
    def test_list_specs_format_is_pinned(self, capsys):
        """The --list-specs layout is part of the CLI contract: specs
        first, then every registered kind with its parameter schema."""
        from repro.campaign import available_kinds, available_specs

        assert main(["campaign", "--list-specs"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("builtin specs:\n")
        for name in available_specs():
            assert f"\n  {name} (" in "\n" + out
        assert "\nsweep kinds:\n" in out
        for name in available_kinds():
            assert f"\n  {name}: " in out
        # One "- param (type, default=...)" schema line per kind param.
        assert ("    - speedups (list[float], default=[1.0, 2.0, 4.0]): "
                "divisors applied to the compiled baseline latency") in out
        assert "    - check_backend (str, default='bool')" in out
        assert "    - num_scenarios (int, default=8)" in out

    def test_full_spec_lists_every_figure_sweep(self, capsys):
        from repro.campaign import builtin_spec

        spec = builtin_spec("paper_figures_full")
        names = {sweep.name for sweep in spec.sweeps}
        assert {"fig14_bb72_baseline", "fig14_bb144_cyclone",
                "fig15_hgp225_baseline", "fig15_hgp400_cyclone",
                "fig05_depth_speedup", "fig09_junction",
                "fig13_trap_arrangement", "fig17_loose_capacity",
                "fig18_operation_time", "fig20_compilers",
                "fig21_swap"} <= names


class TestCampaignScenarioMismatch:
    def test_oracle_mismatch_exits_4_with_replay_path(self, capsys,
                                                      monkeypatch, tmp_path):
        import repro.cli as cli_module
        from repro.campaign import ScenarioMismatch
        from repro.campaign.scenarios import (generate_scenario,
                                              write_failure_scenario)

        scenario = generate_scenario(3, 0, shots=16)
        path = write_failure_scenario(scenario, tmp_path, reason="injected")

        def failing_campaign(spec, **kwargs):
            raise ScenarioMismatch("injected oracle mismatch", scenario,
                                   path)

        monkeypatch.setattr(cli_module, "run_campaign", failing_campaign)
        assert main(["campaign", "scenario_fuzz"]) == 4
        err = capsys.readouterr().err
        assert "injected oracle mismatch" in err
        assert f"minimized failure scenario: {path}" in err


class TestCampaignFaultExitCodes:
    """The campaign exit-code table (0/1/2/3/4/5) is a CLI contract."""

    def test_bad_fault_plan_exits_2(self, capsys):
        assert main(["campaign", "ci_smoke",
                     "--fault-plan", '{"bogus": 1}']) == 2
        assert "bad --fault-plan" in capsys.readouterr().err

    def test_bad_shard_timeout_at_one_worker_exits_2(self, capsys,
                                                     tmp_path):
        store = tmp_path / "bad.jsonl"
        assert main(["campaign", "ci_smoke", "--workers", "1",
                     "--shard-timeout", "0", "--store", str(store)]) == 2
        assert "shard_timeout" in capsys.readouterr().err
        assert not store.exists() or store.read_text() == ""

    def test_injected_crash_exits_1(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        code = main(["campaign", "ci_smoke", "--store", str(store),
                     "--fault-plan", '{"tear_after_records": 0}'])
        assert code == 1
        assert "injected fault" in capsys.readouterr().err
        # The torn tail is exactly that: a file not ending in a newline.
        assert store.exists()
        assert not store.read_text().endswith("\n")

    def test_injected_interrupt_exits_5_and_resume_completes(
            self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        code = main(["campaign", "ci_smoke", "--store", str(store),
                     "--fault-plan", '{"sigterm_after_points": 1}'])
        err = capsys.readouterr().err
        assert code == 5
        assert "interrupted" in err
        assert "rerun with the same spec and store to resume" in err
        # The interrupted run flushed its finalised points; a clean
        # rerun resumes them and finishes with exit 0.
        assert main(["campaign", "ci_smoke", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "reused from the store" in out

    def test_sigterm_mid_run_sets_stop_flag(self, monkeypatch, capsys):
        """The handlers wire the OS signal to the orchestrator's stop
        callback: deliver a real SIGTERM while run_campaign is 'running'
        and observe stop() flipping, then exit 5."""
        import signal as signal_module

        import repro.cli as cli_module
        from repro.campaign import CampaignInterrupted

        observed = {}

        def fake_campaign(spec, stop=None, **kwargs):
            assert stop is not None and not stop()
            signal_module.raise_signal(signal_module.SIGTERM)
            observed["stopped"] = stop()
            raise CampaignInterrupted("stopped by test")

        monkeypatch.setattr(cli_module, "run_campaign", fake_campaign)
        assert main(["campaign", "ci_smoke"]) == 5
        assert observed["stopped"] is True
        assert "stopped by test" in capsys.readouterr().err

    def test_signal_handlers_restored_after_run(self, monkeypatch):
        import signal as signal_module

        import repro.cli as cli_module

        def fake_campaign(spec, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli_module, "run_campaign", fake_campaign)
        before = {s: signal_module.getsignal(s)
                  for s in (signal_module.SIGINT, signal_module.SIGTERM)}
        assert main(["campaign", "ci_smoke"]) == 2
        after = {s: signal_module.getsignal(s)
                 for s in (signal_module.SIGINT, signal_module.SIGTERM)}
        assert before == after

    def test_fault_knobs_reach_run_campaign(self, monkeypatch, capsys,
                                            tmp_path):
        import repro.cli as cli_module
        from repro.campaign import run_campaign as real_campaign

        seen = {}

        def spying_campaign(spec, **kwargs):
            seen.update(kwargs)
            return real_campaign(spec, **kwargs)

        monkeypatch.setattr(cli_module, "run_campaign", spying_campaign)
        assert main(["campaign", "ci_smoke", "--shard-timeout", "30",
                     "--max-shard-retries", "5"]) == 0
        capsys.readouterr()
        assert seen["shard_timeout"] == 30.0
        assert seen["max_shard_retries"] == 5


class TestJoinFlags:
    def test_join_without_store_exits_2(self, capsys):
        assert main(["campaign", "ci_smoke", "--join"]) == 2
        assert "--join requires --store" in capsys.readouterr().err

    def test_join_knobs_reach_run_campaign(self, monkeypatch, capsys,
                                           tmp_path):
        import repro.cli as cli_module
        from repro.campaign import run_campaign as real_campaign

        seen = {}

        def spying_campaign(spec, **kwargs):
            seen.update(kwargs)
            return real_campaign(spec, **kwargs)

        monkeypatch.setattr(cli_module, "run_campaign", spying_campaign)
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "ci_smoke", "--join", "--store",
                     str(store), "--worker-id", "blue", "--lease-ttl",
                     "30", "--claim-batch", "3"]) == 0
        capsys.readouterr()
        assert seen["join"] is True
        assert seen["worker_id"] == "blue"
        assert seen["lease_ttl"] == 30.0
        assert seen["claim_batch"] == 3

    def test_joined_resume_asserts_no_sampling(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        assert main(["campaign", "ci_smoke", "--join", "--store",
                     str(store), "--worker-id", "one"]) == 0
        capsys.readouterr()
        assert main(["campaign", "ci_smoke", "--join", "--store",
                     str(store), "--worker-id", "two",
                     "--assert-no-sampling"]) == 0


class TestStoreCommand:
    """`repro store merge/verify/repair` exit codes and output."""

    def _store(self, path, records):
        from repro.campaign import ResultStore
        store = ResultStore(path)
        for record in records:
            store.append(record)
        return path

    def test_merge_exits_0_and_writes_output(self, capsys, tmp_path):
        a = self._store(tmp_path / "a.jsonl",
                        [{"key": "x", "failures": 1, "shots": 10}])
        b = self._store(tmp_path / "b.jsonl",
                        [{"key": "y", "failures": 2, "shots": 20}])
        out = tmp_path / "merged.jsonl"
        assert main(["store", "merge", str(out), str(a), str(b)]) == 0
        assert "2 records" in capsys.readouterr().out
        assert out.exists()

    def test_merge_conflicts_exit_1(self, capsys, tmp_path):
        a = self._store(tmp_path / "a.jsonl",
                        [{"key": "x", "failures": 1, "shots": 10}])
        b = self._store(tmp_path / "b.jsonl",
                        [{"key": "x", "failures": 9, "shots": 10}])
        assert main(["store", "merge", str(tmp_path / "m.jsonl"),
                     str(a), str(b)]) == 1
        assert "CONFLICTS on 1 key(s)" in capsys.readouterr().err

    def test_merge_missing_input_exits_2(self, capsys, tmp_path):
        assert main(["store", "merge", str(tmp_path / "m.jsonl"),
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "no such store" in capsys.readouterr().err

    def test_verify_clean_exits_0(self, capsys, tmp_path):
        path = self._store(tmp_path / "s.jsonl",
                           [{"key": "x", "failures": 1, "shots": 10}])
        assert main(["store", "verify", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_problems_exit_1_with_repair_hint(self, capsys,
                                                     tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"key": "a", "version": 1}\n'
                        'interior garbage\n'
                        '{"key": "b", "version": 1}\n')
        assert main(["store", "verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "PROBLEM" in err
        assert "repro store repair" in err

    def test_repair_then_verify_round_trip(self, capsys, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"key": "a", "version": 1}\n'
                        'interior garbage\n')
        assert main(["store", "repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out and "dropped 1" in out
        assert main(["store", "verify", str(path)]) == 0

    def test_repair_missing_exits_2(self, capsys, tmp_path):
        assert main(["store", "repair",
                     str(tmp_path / "nope.jsonl")]) == 2

    @staticmethod
    def _claim(**fields):
        return {"type": "claim", "key": "k", "worker": "w", "epoch": 0,
                "ts": 0.0, "ttl": 5.0, "version": 1, **fields}

    @pytest.mark.parametrize("ttl", ["soon", None])
    def test_verify_reports_unparseable_claim_ttl(self, capsys, tmp_path,
                                                  ttl):
        """A claim whose ``ttl`` does not parse is a malformed lease
        record (the store skips it), not a traceback."""
        from repro.campaign import ResultStore
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(self._claim(ttl=ttl)) + "\n")
        assert main(["store", "verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "malformed lease record (claim)" in err
        assert "repro store repair" in err
        assert ResultStore(path).skipped_lines == 1

    def test_repair_drops_what_verify_calls_malformed(self, capsys,
                                                      tmp_path):
        """A claim without ``ts`` fails verify; repair drops exactly
        that line, verify then passes and the folded state is
        unchanged."""
        from repro.campaign import ResultStore
        path = tmp_path / "s.jsonl"
        no_ts = self._claim(key="a")
        del no_ts["ts"]
        lines = [{"key": "a", "failures": 1, "shots": 10, "version": 1},
                 no_ts, self._claim(key="b", worker="v")]
        path.write_text("".join(json.dumps(line) + "\n"
                                for line in lines))
        before = ResultStore(path)
        assert main(["store", "verify", str(path)]) == 1
        assert ("line 2: malformed lease record (claim)"
                in capsys.readouterr().err)
        assert main(["store", "repair", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kept 2" in out and "dropped 1" in out
        assert main(["store", "verify", str(path)]) == 0
        after = ResultStore(path)
        assert after.skipped_lines == 0
        assert after.records() == before.records()
        assert after.leases() == before.leases()

    @staticmethod
    def _bad_key_store(path, key):
        """A store whose first line's ``key`` is not a string, then one
        good result record."""
        good = {"key": "a", "failures": 1, "shots": 10, "version": 1}
        bad = {"key": key, "version": 1, "failures": 0, "shots": 1}
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        return path

    @pytest.mark.parametrize("key", [[1], 7, None])
    def test_load_skips_a_non_string_key(self, tmp_path, key):
        from repro.campaign import ResultStore
        store = ResultStore(self._bad_key_store(tmp_path / "s.jsonl", key))
        assert store.skipped_lines == 1
        assert [record["key"] for record in store.records()] == ["a"]

    @pytest.mark.parametrize("key", [[1], 7, None])
    def test_merge_skips_a_non_string_key(self, capsys, tmp_path, key):
        from repro.campaign import ResultStore
        path = self._bad_key_store(tmp_path / "s.jsonl", key)
        out = tmp_path / "merged.jsonl"
        assert main(["store", "merge", str(out), str(path)]) == 0
        assert "1 records (1 read, 1 lines skipped)" in \
            capsys.readouterr().out
        merged = ResultStore(out)
        assert merged.skipped_lines == 0
        assert [record["key"] for record in merged.records()] == ["a"]

    @pytest.mark.parametrize("key", [[1], 7, None])
    def test_verify_flags_a_non_string_key(self, capsys, tmp_path, key):
        path = self._bad_key_store(tmp_path / "s.jsonl", key)
        assert main(["store", "verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1: record without a string 'key'" in err
        assert "repro store repair" in err
        assert main(["store", "repair", str(path)]) == 0
        assert "kept 1" in capsys.readouterr().out
        assert main(["store", "verify", str(path)]) == 0


class TestServeCommand:
    """`repro serve` argument handling and exit codes (0 = graceful
    drain, 1 = crash such as a taken port, 2 = usage); the serving
    behaviour itself lives in tests/test_service.py."""

    def test_store_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2
        assert "--store" in capsys.readouterr().err

    def test_out_of_range_port_exits_2(self, capsys, tmp_path):
        assert main(["serve", "--store", str(tmp_path / "s.jsonl"),
                     "--port", "70000"]) == 2
        assert "port" in capsys.readouterr().err

    def test_negative_workers_exits_2(self, capsys, tmp_path):
        assert main(["serve", "--store", str(tmp_path / "s.jsonl"),
                     "--workers", "-2"]) == 2
        assert "workers" in capsys.readouterr().err

    def test_taken_port_exits_1(self, capsys, tmp_path):
        import socket

        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", "--store", str(tmp_path / "s.jsonl"),
                         "--port", str(port)]) == 1
        assert "cannot serve" in capsys.readouterr().err

    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--store", "s.jsonl"])
        assert args.host == "127.0.0.1"
        assert args.port == 8731
        assert args.workers == 1
        assert args.port_file is None
