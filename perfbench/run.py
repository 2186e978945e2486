"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bb72_memory --seed 3 \
        --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it print the
workload's own named metrics with their units.  Every run also writes
a result file (metrics, samples, provenance) under ``--out``, and a
traced run writes its spans there as JSON lines.

``--record-references`` re-records ``references.json`` (the outputs
the checks compare against) for every input set of a workload.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SETUP_SAMPLES = 3


def tree_rss_bytes(pid: int) -> int:
    """Resident memory of ``pid`` and all of its descendants."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(b")", 1)[1].split()[1])
    tree, frontier = {pid}, [pid]
    while frontier:
        parent = frontier.pop()
        for child, ppid in parents.items():
            if ppid == parent and child not in tree:
                tree.add(child)
                frontier.append(child)
    total = 0
    for member in tree:
        try:
            with open(f"/proc/{member}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total


class RssSampler:
    """Peak resident memory of this process tree, sampled every 250 ms
    (a sample costs about 1.5 ms of CPU, so this stays below 1%).  The
    sampler's own CPU time is kept out of the workload's."""

    def __init__(self) -> None:
        self.peak = 0
        #: CPU seconds this sampler's thread has used so far.
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self.peak = max(self.peak, tree_rss_bytes(os.getpid()))
            self.cpu_s = time.thread_time()
            if self._stop.wait(0.25):
                return

    def stop(self) -> float:
        """Stop sampling; the peak in MB."""
        self._stop.set()
        self._thread.join()
        with open("/proc/self/status") as handle:
            hwm = next(int(line.split()[1]) * 1024 for line in handle
                       if line.startswith("VmHWM:"))
        return max(self.peak, hwm) / 2**20


def load_references(workload: str) -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text()).get(workload, {})


def make_workload(args, scratch: Path, references, in_process=False):
    from workloads import WORKLOADS, ServedQueue

    cls = WORKLOADS[args.workload]
    kwargs = {"in_process": in_process} if cls is ServedQueue else {}
    return cls(args.seed, scratch, references, **kwargs)


def run_reps(workload, seconds: float, alternate: bool = False,
             tracer=None, install=None) -> list[dict]:
    """Repeat the workload's operation for ``seconds`` (at least once).

    With a tracer, repetitions alternate untraced/traced (the traced
    ones inside a ``bench.timed`` root span) on the same inputs, so the
    tracing overhead can be read off the pairs.  The reference kernel
    runs ``workload.kernel_runs`` times before the first repetition and
    after each one, into the ``kernel_python_s`` and ``kernel_numpy_s``
    samples.
    """
    reps = []
    deadline = time.perf_counter() + seconds
    index = 0
    workload.calibrate(workload.kernel_runs)
    while True:
        traced = alternate and index % 2 == 1
        if traced:
            patches = install(tracer)
            root = tracer.open("bench.timed")
        try:
            rep = workload.rep(index // 2 if alternate else index,
                               traced)
        except Exception as error:  # noqa: BLE001 - counted as failed
            workload.operation(False, f"repetition {index} raised "
                               f"{type(error).__name__}: {error}")
            rep = None
        finally:
            if traced:
                tracer.close(root)
                patches.restore()
        workload.calibrate(workload.kernel_runs)
        if rep is not None:
            rep["traced"] = traced
            reps.append(rep)
        index += 1
        kinds = {r["traced"] for r in reps}
        complete = len(kinds) == (2 if alternate else 1)
        if (time.perf_counter() >= deadline and complete) or (
                index >= 3 and not reps):
            return reps


def setup_samples(args, out: Path) -> list[float]:
    """Set-up time of fresh interpreters running only the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        command = [sys.executable, str(HERE / "run.py"), "--workload",
                   args.workload, "--seed", str(args.seed), "--setup-only",
                   "--out", str(out)]
        completed = subprocess.run(command, capture_output=True, text=True,
                                   timeout=170, cwd=ROOT)
        if completed.returncode != 0:
            raise RuntimeError(f"set-up run failed: {completed.stderr}")
        samples.append(json.loads(completed.stdout.splitlines()[-1])
                       ["setup_s"])
    return samples


def run_timed(args, scratch: Path, out: Path) -> dict:
    references = load_references(args.workload)
    sampler = RssSampler()
    workload = make_workload(args, scratch, references)
    workload.helper = sampler
    try:
        workload.setup()
        if args.workload == "served_queue":
            results = workload.timed(args.seconds)
            metrics, named = workload.summarize_results(results)
            reps = [{k: r[k] for k in ("kind", "phase", "due", "started",
                                       "end", "ok")} for r in results]
        else:
            reps = run_reps(workload, args.seconds)
            metrics, named = workload.summarize(reps)
    finally:
        workload.close()
        peak = sampler.stop()
    # This process also collected the provenance record before its
    # set-up, so set-up time comes from identical set-up-only runs.
    setups = setup_samples(args, out)
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": peak,
               **metrics}
    named = {"setup_s": (metrics["setup_s"], "s"),
             "peak_rss_mb": (peak, "MB"), **named,
             "failed_share": (workload.failed / max(workload.attempted, 1),
                              "fraction")}
    return {"workload": workload, "metrics": metrics, "named": named,
            "samples": {"setup_s": setups, "reps": reps,
                        **workload.samples}}


def run_traced(args, scratch: Path, out: Path, stem: str) -> dict:
    from layers import PER_LAYER, install, layer_metrics
    from spans import Tracer, load_spans

    references = load_references(args.workload)
    tracer = Tracer()
    workload = make_workload(args, scratch, references, in_process=True)
    patches = install(tracer)
    setup_root = tracer.open("bench.setup")
    try:
        workload.setup()
    finally:
        tracer.close(setup_root)
        patches.restore()
    try:
        if args.workload == "served_queue":
            reps = []
            for requests in workload.phases(args.seconds / 2, stream=2):
                reps += workload.run_phase(requests)
            plain = workload.latencies(reps, "light", "cached")
            workload.samples = {}
            usage = os.times()
            started = time.perf_counter()
            patches = install(tracer)
            root = tracer.open("bench.timed")
            try:
                for requests in workload.phases(
                        args.seconds / 2, stream=3, prefix="traced:"):
                    reps += workload.run_phase(requests, tracer=tracer)
            finally:
                tracer.close(root)
                patches.restore()
            workload.sample("pool.cpu_util", (
                sum(os.times()[:4]) - sum(usage[:4]))
                / (time.perf_counter() - started))
            traced = workload.latencies(reps, "traced:light", "cached")
            workload.sample("trace.overhead_share",
                            statistics.median(traced)
                            / statistics.median(plain) - 1)
            reps = [{k: r[k] for k in ("kind", "phase", "due", "end", "ok")}
                    for r in reps]
        else:
            if workload.workers > 1:
                # The pool runs only untraced: one repetition at the
                # timed run's worker count feeds pool.cpu_util; the
                # paired repetitions run in-process so every layer is
                # inside the traced process, and their own CPU samples
                # are dropped.
                workload.rep(-1, False)
                cpu = workload.samples.pop("pool.cpu_util")
                workload.workers = 1
            else:
                cpu = None
            usage = os.times()
            started = time.perf_counter()
            reps = run_reps(workload, args.seconds, alternate=True,
                            tracer=tracer, install=install)
            if cpu is None:
                cpu = [(sum(os.times()[:4]) - sum(usage[:4]))
                       / (time.perf_counter() - started)]
            key = next(k for k in ("seconds", "cold_s", "compile_s")
                       if k in reps[0])

            def wall(rep):
                value = rep[key]
                return sum(value) if isinstance(value, list) else value

            plain = [wall(r) for r in reps if not r["traced"]]
            traced = [wall(r) for r in reps if r["traced"]]
            workload.samples["pool.cpu_util"] = cpu
            workload.sample("trace.overhead_share",
                            statistics.median(traced)
                            / statistics.median(plain) - 1)
    finally:
        workload.close()
    spans_path = out / f"{stem}-spans.jsonl"
    tracer.dump(spans_path)
    metrics = layer_metrics(load_spans(spans_path), tracer.counters,
                            workload.samples)
    named = {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
    return {"workload": workload, "metrics": metrics, "named": named,
            "samples": {"reps": reps, **workload.samples},
            "spans": spans_path.name}


def record_references(args, scratch: Path) -> None:
    """Record every input set's outputs for one workload."""
    from workloads import INPUT_SETS

    recorded = {}
    for variant in range(INPUT_SETS):
        args.seed = variant
        workload = make_workload(args, scratch, None)
        try:
            workload.setup()
            for index in range(workload.record_reps):
                workload.rep(index, False)
        finally:
            workload.close()
        recorded.update(workload.recorded)
        print(f"{args.workload}: input set {variant} recorded",
              file=sys.stderr)
    existing = (json.loads(REFERENCES.read_text())
                if REFERENCES.exists() else {})
    existing[args.workload] = recorded
    REFERENCES.write_text(json.dumps(existing, indent=1,
                                     sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result files and span dumps")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    # The native kernel cache (only built if a backend asks for it)
    # stays inside the checkout.
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(out / "native-cache"))
    scratch = out / f"scratch-{os.getpid()}"
    scratch.mkdir()
    try:
        if args.setup_only:
            workload = make_workload(args, scratch, {})
            try:
                workload.setup()
                setup_s = time.monotonic() - _STARTED
            finally:
                workload.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.record_references:
            record_references(args, scratch)
            return 0
        from provenance import provenance

        before = provenance(ROOT)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                f"{stamp}-{os.getpid()}")
        if args.trace:
            outcome = run_traced(args, scratch, out, stem)
        else:
            outcome = run_timed(args, scratch, out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    workload = outcome["workload"]
    metrics = outcome["metrics"]
    before["loadavg_after"] = list(os.getloadavg())
    correct = workload.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "input_set": workload.variant, "seconds": args.seconds,
        "trace": args.trace, "started_unix": time.time() - (
            time.monotonic() - _STARTED),
        "correct": correct, "attempted": workload.attempted,
        "failed": workload.failed, "problems": workload.problems,
        "metrics": metrics,
        "named": {k: {"value": v, "unit": u}
                  for k, (v, u) in outcome["named"].items()},
        "samples": outcome["samples"], "provenance": before,
    }
    if "spans" in outcome:
        record["spans"] = outcome["spans"]
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in outcome["named"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload}  {name} = {shown} {unit}")
    for problem in workload.problems:
        print(f"{args.workload}  check failed: {problem}")
    print(f"{args.workload}  output checks: "
          f"{'pass' if correct else 'FAIL'} ({workload.failed} of "
          f"{workload.attempted} operations failed)")
    if args.trace:
        from layers import PER_LAYER
        units = PER_LAYER
    else:
        from workloads import END_TO_END
        units = END_TO_END
    print(json.dumps({
        "correct": correct, "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
