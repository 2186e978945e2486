"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/selftest.py -q

Not collected by the repository's test suite (the file name does not
match ``test_*.py``): each workload test runs the harness in a fresh
interpreter, which takes a few minutes in all.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402
from spans import Tracer, load_spans, self_times  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: One reference key each workload checks on seed 0's first repetition.
FIRST_KEY = {
    "bb72_memory": "0/0",
    "figure_campaign": "0/0/0",
    "design_space": "0/BB [[72,12,6]]/baseline",
}


def run_bench(tmp_path: Path, workload: str, *extra: str,
              root: Path = ROOT) -> dict:
    """One run of at least one repetition (``--seconds 1``)."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "1", "--out",
               str(tmp_path / "out"), *extra]
    completed = subprocess.run(command, capture_output=True, text=True,
                               cwd=root, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def copy_harness(tmp_path: Path) -> Path:
    """A checkout holding a copy of this directory and nothing else."""
    checkout = tmp_path / "checkout"
    (checkout / "perfbench").mkdir(parents=True)
    for path in [*HERE.glob("*.py"), HERE / "references.json"]:
        (checkout / "perfbench" / path.name).write_bytes(path.read_bytes())
    return checkout


def test_self_time_of_a_nested_span_tree():
    def span(name, start, end, parent):
        return {"name": name, "start_ns": start, "end_ns": end,
                "parent": parent}

    spans = [
        span("root", 0, 100, None),
        span("a", 10, 40, 0),
        span("a.inner", 20, 30, 1),
        span("b", 50, 60, 0),
        span("c", 55, 70, 0),       # overlaps its sibling b
        span("open", 80, None, 0),  # never closed: no time
    ]
    assert [round(s * 1e9) for s in self_times(spans)] == \
        [50, 20, 10, 10, 15, 0]


def test_tracer_nests_spans_per_thread(tmp_path):
    tracer = Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.dump(tmp_path / "spans.jsonl")
    spans = load_spans(tmp_path / "spans.jsonl")
    assert [s["parent"] for s in spans] == [None, 0]
    assert self_times(spans)[0] <= (spans[0]["end_ns"]
                                    - spans[0]["start_ns"]) / 1e9


def test_metric_names_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_and_passes_its_checks(tmp_path, workload):
    result = run_bench(tmp_path, workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(tmp_path):
    result = run_bench(tmp_path, "bb72_memory", "--trace", "1")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        PER_LAYER
    assert result["metrics"]["bp.s"]["value"] > 0
    assert list((tmp_path / "out").glob("*-spans.jsonl"))


def test_traced_campaign_reports_the_pool_repetition(tmp_path):
    """pool.cpu_util comes from the one repetition with two pool
    workers, not from the in-process repetitions traced after it."""
    result = run_bench(tmp_path, "figure_campaign", "--trace", "1")
    record = json.loads(next((tmp_path / "out").glob(
        "figure_campaign-*-trace1-*[0-9].json")).read_text())
    assert len(record["samples"]["pool.cpu_util"]) == 1
    assert result["metrics"]["pool.cpu_util"]["value"] == \
        record["samples"]["pool.cpu_util"][0]


@pytest.mark.parametrize("workload", sorted(FIRST_KEY))
def test_wrong_reference_fails_the_workload(tmp_path, workload):
    checkout = copy_harness(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src")
    stored = checkout / "perfbench" / "references.json"
    references = json.loads(stored.read_text())
    key = FIRST_KEY[workload]
    assert key in references[workload]
    references[workload][key] = ["deliberately wrong"]
    stored.write_text(json.dumps(references))
    result = run_bench(tmp_path, workload, "--trace", "0", root=checkout)
    assert not result["correct"]
    assert result["failed"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bb72_memory",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=copy_harness(tmp_path),
        timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
