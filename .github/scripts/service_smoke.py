#!/usr/bin/env python
"""End-to-end CI smoke of the served campaign path (``repro serve``).

Boots the real ``repro serve`` process on an ephemeral port and checks
the four serving contracts over actual HTTP:

1. a spec that carries an execution setting (``shard_timeout`` on each
   sweep of ``ci_smoke``) is rejected with 400 naming the key, and the
   service keeps serving — execution settings belong to the service's
   own pool, never to a submission;
2. two *concurrent* submissions of the bundled ``ci_smoke`` campaign
   coalesce onto one job by content fingerprint — together they sample
   at most one cold run's shots;
3. a resubmission after completion is a fresh job served from the
   store: **zero** shots sampled, and a ``/tables`` body byte-identical
   to the cold job's;
4. SIGTERM drains gracefully — exit code 0 with the drain log lines —
   leaving a store a later run can resume.

Run from the repository root (the ``service-smoke`` CI job does)::

    PYTHONPATH=src python .github/scripts/service_smoke.py
"""

from __future__ import annotations

import concurrent.futures
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import builtin_spec  # noqa: E402
from repro.service import ServiceClient  # noqa: E402


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    port_file = tmp / "port"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--store", str(tmp / "store.jsonl"),
         "--port", "0", "--port-file", str(port_file)],
        env=env, cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists():
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not come up: "
                                   + process.communicate()[0])
            time.sleep(0.05)
        client = ServiceClient(
            f"http://127.0.0.1:{int(port_file.read_text())}", timeout=30)

        # 1. An execution setting in a submitted spec is a 400.
        hostile = builtin_spec("ci_smoke").to_dict()
        for sweep in hostile["sweeps"]:
            sweep["shard_timeout"] = 1e-06
        status, body = client.request("POST", "/jobs", hostile)
        assert status == 400, (status, body)
        assert b"shard_timeout" in body, body
        print(f"execution setting rejected: {status} {body.decode()}")

        health = client.healthz()
        assert health["status"] == "serving", health
        assert client.specs()["specs"], "no builtin specs served"

        # 2. Concurrent duplicate submissions coalesce (or, if the
        # first finishes before the second lands, the second reuses the
        # store) — either way the pair pays for at most one cold run.
        with concurrent.futures.ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(client.submit, "ci_smoke")
                       for _ in range(2)]
            a, b = [future.result() for future in futures]
        print(f"submitted {a['job']} (deduplicated={a['deduplicated']}) "
              f"and {b['job']} (deduplicated={b['deduplicated']})")
        finals = {job_id: client.wait(job_id, timeout=300)
                  for job_id in {a["job"], b["job"]}}
        assert all(view["state"] == "done" for view in finals.values()), \
            finals
        cold_sampled = max(view["stats"]["shots_sampled"]
                           for view in finals.values())
        total_sampled = sum(view["stats"]["shots_sampled"]
                            for view in finals.values())
        assert cold_sampled > 0, "the cold run sampled nothing"
        assert total_sampled <= cold_sampled, (
            f"two concurrent submissions sampled {total_sampled} shots "
            f"in total; one cold run costs {cold_sampled}")
        print(f"concurrent pair sampled {total_sampled} shots in total "
              f"(one cold run: {cold_sampled})")
        cold_bytes = client.tables_bytes(a["job"])

        # 3. Resubmission after completion: zero sampling, same bytes.
        again = client.submit("ci_smoke")
        assert again["job"] not in finals, again
        warm = client.wait(again["job"], timeout=300)
        assert warm["state"] == "done", warm
        assert warm["stats"]["shots_sampled"] == 0, warm["stats"]
        assert warm["stats"]["shots_reused"] == cold_sampled, warm["stats"]
        assert client.tables_bytes(again["job"]) == cold_bytes, \
            "served tables are not byte-identical across jobs"
        print(f"resubmission {again['job']}: 0 shots sampled, "
              f"{warm['stats']['shots_reused']} reused, "
              "tables byte-identical")

        # 4. Graceful SIGTERM drain.
        process.send_signal(signal.SIGTERM)
        output = process.communicate(timeout=120)[0]
        assert process.returncode == 0, output
        assert "repro serve: drained" in output, output
        print("SIGTERM drain: exit 0")
        print("service smoke OK")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


if __name__ == "__main__":
    sys.exit(main())
