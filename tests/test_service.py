"""Tests for the campaign service behind ``repro serve``.

Covers the protocol layer (pure unit tests), the in-process job
lifecycle through :class:`~repro.service.ServiceThread` +
:class:`~repro.service.ServiceClient` (real sockets, real HTTP), and a
subprocess SIGTERM drain of the CLI entry point.  The anchor
assertions mirror the CI smoke job: resubmitting a finished spec
samples zero shots and returns byte-identical tables, concurrent
duplicate submissions coalesce onto one job, and cancellation at any
moment leaves the store resumable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.campaign import ResultStore, available_specs
from repro.campaign.kinds import available_kinds
from repro.service import (
    JOB_STATES,
    MAX_BODY_BYTES,
    ProtocolError,
    ServiceClient,
    ServiceError,
    ServiceThread,
    encode_json,
    parse_submission,
    specs_payload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def quick_doc(name: str = "svc_quick", budget: int = 600,
              seed: int = 9) -> dict:
    """A campaign document that finishes in well under a second."""
    return {
        "name": name,
        "description": "service test: fast, reachable target",
        "budget": budget,
        "seed": seed,
        "sweeps": [{
            "name": "quick_repetition",
            "code": "repetition-d3",
            "kind": "physical_error",
            "codesign": "cyclone",
            "physical_error_rates": [5e-3, 2e-2],
            "target": {"half_width": 0.03},
            "rounds": 2,
            "pilot_shots": 32,
            "shard_shots": 64,
        }],
    }


def slow_doc(name: str = "svc_slow", budget: int = 160_000,
             max_shots: int = 40_000) -> dict:
    """A campaign document that runs for a couple of seconds.

    The CI half-width target is unreachable, so every point runs to its
    ``max_shots`` cap — calibrated at roughly 60k shots/s on one core,
    the defaults give a ~2.5 s job with a point finalising every ~0.7 s:
    long enough to cancel mid-run, short enough for CI.
    """
    return {
        "name": name,
        "description": "service test: slow, unreachable target",
        "budget": budget,
        "seed": 11,
        "sweeps": [{
            "name": "slow_repetition",
            "code": "repetition-d3",
            "kind": "physical_error",
            "codesign": "cyclone",
            "physical_error_rates": [4e-3, 8e-3, 1.2e-2, 1.6e-2],
            "target": {"half_width": 1e-5},
            "rounds": 2,
            "pilot_shots": 64,
            "shard_shots": 256,
            "max_shots": max_shots,
        }],
    }


def wait_for(predicate, timeout: float = 30.0, poll: float = 0.01,
             message: str = "condition"):
    """Poll ``predicate`` until it returns a truthy value."""
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out waiting for {message}")
        time.sleep(poll)


def store_records(path: Path) -> list[dict]:
    """Read the store the way another process would (fresh instance)."""
    return ResultStore(path).records()


class TestProtocol:
    """Pure unit tests for parsing and encoding — no sockets."""

    def test_inline_document_round_trip(self):
        doc = quick_doc()
        spec, budget = parse_submission(json.dumps(doc).encode())
        assert spec.name == doc["name"]
        assert budget is None
        assert spec.budget == doc["budget"]

    def test_envelope_with_builtin_name_and_budget(self):
        body = json.dumps({"spec": "ci_smoke", "budget": 450}).encode()
        spec, budget = parse_submission(body)
        assert spec.name == "ci_smoke"
        assert budget == 450

    def test_envelope_with_inline_spec(self):
        body = json.dumps({"spec": quick_doc()}).encode()
        spec, budget = parse_submission(body)
        assert spec.name == "svc_quick"
        assert budget is None

    @pytest.mark.parametrize("body, fragment", [
        (b"", "not JSON"),
        (b"not json {", "not JSON"),
        (b"[1, 2]", "JSON object"),
        (b'{"spec": "no_such_spec"}', "no_such_spec"),
        (b'{"spec": "ci_smoke", "bogus": 1}', "bogus"),
        (b'{"spec": "ci_smoke", "budget": 0}', "budget"),
        (b'{"budget": 5}', "spec"),
    ])
    def test_bad_submissions_are_400(self, body, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            parse_submission(body)
        assert excinfo.value.status == 400
        assert fragment in excinfo.value.message

    def test_invalid_sweep_keys_are_400_with_the_validation_error(self):
        doc = quick_doc()
        doc["sweeps"][0]["bogus_knob"] = 3
        with pytest.raises(ProtocolError) as excinfo:
            parse_submission(json.dumps(doc).encode())
        assert excinfo.value.status == 400
        assert "invalid campaign spec" in excinfo.value.message
        assert "bogus_knob" in excinfo.value.message

    @pytest.mark.parametrize("key, value, where", [
        ("shard_timeout", 1e-6, "sweep"),
        ("max_shard_retries", 0, "sweep"),
        ("lease_ttl", 1e-6, "campaign"),
        ("claim_batch", 1, "campaign"),
    ])
    def test_execution_settings_in_a_spec_are_400(self, key, value, where):
        """Execution settings belong to the service's own pool: a served
        spec that names one is rejected, never run."""
        doc = quick_doc()
        target = doc["sweeps"][0] if where == "sweep" else doc
        target[key] = value
        with pytest.raises(ProtocolError) as excinfo:
            parse_submission(json.dumps(doc).encode())
        assert excinfo.value.status == 400
        assert "invalid campaign spec" in excinfo.value.message
        assert key in excinfo.value.message

    def test_encode_json_is_canonical(self):
        assert encode_json({"b": 1, "a": [1, 2]}) == b'{"a":[1,2],"b":1}'

    def test_specs_payload_mirrors_the_registries(self):
        payload = specs_payload()
        assert [s["name"] for s in payload["specs"]] == list(
            available_specs())
        assert [k["name"] for k in payload["kinds"]] == list(
            available_kinds())
        for entry in payload["kinds"]:
            assert all({"name", "type", "default", "doc"} <= set(p)
                       for p in entry["params"])


class TestServiceLifecycle:
    """End-to-end over real sockets via ServiceThread + ServiceClient."""

    def test_healthz_and_specs(self, tmp_path):
        with ServiceThread(tmp_path / "store.jsonl") as service:
            client = ServiceClient(service.url)
            health = client.healthz()
            assert health["status"] == "serving"
            assert set(health["jobs"]) == set(JOB_STATES)
            assert health["store"]["records"] == 0
            assert client.specs() == json.loads(
                encode_json(specs_payload()))

    def test_job_lifecycle_to_done(self, tmp_path):
        with ServiceThread(tmp_path / "store.jsonl") as service:
            client = ServiceClient(service.url)
            view = client.submit(quick_doc())
            assert view["deduplicated"] is False
            assert view["state"] in ("queued", "running")
            job_id = view["job"]
            final = client.wait(job_id)
            assert final["state"] == "done"
            assert final["stats"]["shots_sampled"] > 0
            assert final["stats"]["shots_reused"] == 0
            assert final["progress"]["phase"] == "final"
            assert final["progress"]["points_final"] == \
                final["progress"]["points_total"]
            sweeps = final["progress"]["sweeps"]
            assert [s["sweep"] for s in sweeps] == ["quick_repetition"]
            tables = client.tables(job_id)
            assert tables and all("rows" in t for t in tables)
            assert [j["job"] for j in client.jobs()] == [job_id]

    def test_resubmission_samples_zero_and_is_byte_identical(self, tmp_path):
        with ServiceThread(tmp_path / "store.jsonl") as service:
            client = ServiceClient(service.url)
            first = client.submit(quick_doc())["job"]
            cold = client.wait(first)
            cold_bytes = client.tables_bytes(first)
            second = client.submit(quick_doc())
            assert second["deduplicated"] is False  # finished fp: new job
            assert second["job"] != first
            warm = client.wait(second["job"])
            assert warm["state"] == "done"
            assert warm["stats"]["shots_sampled"] == 0
            assert warm["stats"]["shots_reused"] == \
                cold["stats"]["shots_sampled"]
            assert client.tables_bytes(second["job"]) == cold_bytes

    def test_budget_override_is_a_distinct_fingerprint(self, tmp_path):
        with ServiceThread(tmp_path / "store.jsonl") as service:
            client = ServiceClient(service.url)
            a = client.submit(quick_doc(), budget=600)
            b = client.submit(quick_doc(), budget=500)
            assert a["fingerprint"] != b["fingerprint"]
            for view in (a, b):
                assert client.wait(view["job"])["state"] == "done"

    def test_concurrent_duplicate_coalesces_and_cancel_leaves_store_resumable(
            self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        with ServiceThread(store_path) as service:
            client = ServiceClient(service.url)
            view = client.submit(slow_doc())
            job_id = view["job"]
            assert view["deduplicated"] is False
            # A second submission of the identical spec+budget while the
            # first is active coalesces onto the same job: together the
            # two submissions pay for (at most) one cold run.
            duplicate = client.submit(slow_doc())
            assert duplicate["job"] == job_id
            assert duplicate["deduplicated"] is True
            assert duplicate["dedup_hits"] == 1
            # Let the campaign make real progress (first per-stage
            # checkpoint hits the store within the first pilot), then
            # cancel mid-run.
            wait_for(lambda: store_records(store_path),
                     message="first checkpoint record")
            assert client.cancel(job_id)["state"] in (
                "cancelling", "cancelled")
            final = client.wait(job_id)
            assert final["state"] == "cancelled"
            assert "interrupted" in final["error"]
            with pytest.raises(ServiceError) as excinfo:
                client.tables(job_id)
            assert excinfo.value.status == 409
            # The store is resumable: a fresh submission of the same
            # spec replays/reuses the interrupted run's records instead
            # of starting from zero.
            resumed = client.submit(slow_doc())
            assert resumed["deduplicated"] is False
            assert resumed["job"] != job_id
            stats = client.wait(resumed["job"], timeout=60)["stats"]
            assert stats["shots_reused"] + stats["shots_replayed"] > 0
            assert stats["shots_sampled"] < slow_doc()["budget"]
            assert stats["spent"] == slow_doc()["budget"]

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        with ServiceThread(tmp_path / "store.jsonl") as service:
            client = ServiceClient(service.url)
            running = client.submit(slow_doc())["job"]
            queued = client.submit(quick_doc())["job"]
            assert client.cancel(queued) == {
                "job": queued, "state": "cancelled"}
            assert client.job(queued)["error"] == "cancelled while queued"
            # Cancelling a terminal job is a conflict.
            status, payload = client.request("DELETE", f"/jobs/{queued}")
            assert status == 409
            client.cancel(running)
            assert client.wait(running)["state"] == "cancelled"

    def test_http_error_paths(self, tmp_path):
        with ServiceThread(tmp_path / "store.jsonl") as service:
            client = ServiceClient(service.url)
            cases = [
                ("POST", "/jobs", b"not json {", 400, "not JSON"),
                ("POST", "/jobs", json.dumps(
                    {"spec": "no_such_spec"}).encode(), 400, "no_such_spec"),
                ("GET", "/jobs/job-999999", None, 404, "no such job"),
                ("DELETE", "/jobs/job-999999", None, 404, "no such job"),
                ("GET", "/jobs/job-999999/tables", None, 404, "no such job"),
                ("PUT", "/jobs", None, 405, "not allowed"),
                ("PATCH", "/jobs/job-000001", None, 405, "not allowed"),
                ("GET", "/nope", None, 404, "no route"),
                ("POST", "/specs", None, 404, "no route"),
            ]
            for method, path, body, status, fragment in cases:
                payload = json.loads(body) if body and body[:1] in (
                    b"{", b"[") else None
                if body is not None and payload is None:
                    # Raw non-JSON body: go through the transport
                    # directly so nothing re-encodes it.
                    request = urllib.request.Request(
                        service.url + path, data=body,
                        headers={"Content-Type": "application/json"},
                        method=method)
                    try:
                        with urllib.request.urlopen(request, timeout=10):
                            got_status, got_body = 200, b""
                    except urllib.error.HTTPError as exc:
                        got_status, got_body = exc.code, exc.read()
                else:
                    got_status, got_body = client.request(
                        method, path, payload)
                assert got_status == status, (method, path)
                assert fragment in json.loads(got_body)["error"], (
                    method, path)

    def test_oversized_body_is_413(self, tmp_path):
        with ServiceThread(tmp_path / "store.jsonl") as service:
            client = ServiceClient(service.url)
            padding = {"spec": "ci_smoke",
                       "pad": "x" * (MAX_BODY_BYTES + 1)}
            status, body = client.request("POST", "/jobs", padding)
            assert status == 413
            assert "too large" in json.loads(body)["error"]


class TestServeCLISubprocess:
    """The real ``repro serve`` process: startup, SIGTERM drain."""

    def _spawn(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        port_file = tmp_path / "port"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--store", str(tmp_path / "store.jsonl"),
             "--port", "0", "--port-file", str(port_file)],
            env=env, cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            wait_for(port_file.exists, timeout=30,
                     message="serve port file")
        except TimeoutError:
            process.kill()
            raise RuntimeError(process.communicate()[0])
        port = int(port_file.read_text().strip())
        return process, ServiceClient(f"http://127.0.0.1:{port}")

    def test_sigterm_drains_gracefully_and_flushes_finalised_points(
            self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        process, client = self._spawn(tmp_path)
        try:
            doc = slow_doc()
            cap = doc["sweeps"][0]["max_shots"]
            job_id = client.submit(doc)["job"]
            # Wait until at least one point has exhausted its cap (its
            # checkpoint shows cap shots) so the drain has something to
            # finalise, then deliver SIGTERM mid-run.
            wait_for(lambda: any(r["shots"] >= cap
                                 for r in store_records(store_path)),
                     message="a cap-exhausted checkpoint")
            process.send_signal(signal.SIGTERM)
            output = process.communicate(timeout=60)[0]
            assert process.returncode == 0, output
            assert "drain requested" in output
            assert "repro serve: drained" in output
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        # The interrupted job's exhausted points were flushed as final
        # records, and the store replays cleanly in a fresh process.
        store = ResultStore(store_path)
        assert store.skipped_lines == 0
        finals = [r for r in store.records() if not r.get("partial")]
        assert finals and all(r["shots"] >= cap for r in finals)
        assert job_id  # the submission itself succeeded

    def test_port_conflict_exits_1(self, tmp_path):
        process, client = self._spawn(tmp_path)
        try:
            port = int(client.base_url.rsplit(":", 1)[1])
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            second = subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--store", str(tmp_path / "other.jsonl"),
                 "--port", str(port)],
                env=env, cwd=str(tmp_path), capture_output=True,
                text=True, timeout=60)
            assert second.returncode == 1
            assert "cannot serve" in second.stderr
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=60)
