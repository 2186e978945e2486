"""The four benchmark workloads.

Each workload builds its inputs from ``--seed`` alone: the seed picks
one of :data:`INPUT_SETS` recorded input sets (``seed % INPUT_SETS``)
and seeds every draw inside it, so the same seed always gives the same
inputs and every simulated output can be checked against the value
recorded for it in ``references.json``.  The library only ever sees the
generated inputs, through its public API.

A workload exposes ``setup()``, ``rep(index, traced)`` (one repetition
of its timed operation, returning that repetition's timings) and
``summarize(reps)`` (the end-to-end metrics).  ``attempted`` and
``failed`` count operations (a run, point, compile or request); an
exception or a failed output check fails the operation.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from calibration import host_speed, kernel_cpu_s

INPUT_SETS = 8

#: The generic end-to-end metrics every workload reports (see README).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_cpu_s": "1/s",
    "step_cpu_ms": "ms",
}

def process_cpu_s(pid: int) -> float:
    """CPU seconds of another live process and its reaped children, from
    ``/proc`` (a resolution of one clock tick)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # utime, stime, cutime and cstime are fields 14-17 of the record.
    return sum(int(value) for value in fields[11:15]) / os.sysconf(
        "SC_CLK_TCK")


def tail(values) -> tuple[float | None, float | None, int]:
    """``(value, percentile, samples)`` of the highest percentile with at
    least ten samples beyond it (``None`` below eleven samples)."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return None, None, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


class Workload:
    """Shared bookkeeping: operation counts, reference checks, CPU."""

    name = ""
    #: Pool workers the timed run uses (for ``pool.cpu_util``).
    workers = 1
    #: Repetitions per input set that ``--record-references`` runs to
    #: cover every reference key.
    record_reps = 0
    #: Reference-kernel runs between two repetitions (``calibration``).
    kernel_runs = 1

    def __init__(self, seed: int, scratch: Path,
                 references: dict | None) -> None:
        self.seed = int(seed)
        self.variant = self.seed % INPUT_SETS
        self.scratch = scratch
        self.references = references
        self.recorded: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        #: A harness thread running beside the workload whose CPU time
        #: :meth:`cpu_s` leaves out (``run.RssSampler``), if any.
        self.helper = None

    def cpu_s(self) -> float:
        """CPU seconds of this process (every thread but the harness's
        helper) and of its reaped children, such as a campaign's pool
        workers.  The kernel leaves out time the hypervisor stole from
        the vCPU, and time spent waiting for a CPU is not CPU time."""
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        helper = self.helper.cpu_s if self.helper is not None else 0.0
        return (time.process_time() + children.ru_utime
                + children.ru_stime - helper)

    def rng(self, *key: int) -> np.random.Generator:
        tag = zlib.crc32(self.name.encode())
        return np.random.default_rng([tag, *key])

    def operation(self, ok: bool, problem: str) -> bool:
        """Count one operation; a failed one records why."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok

    def matches(self, key: str, observed) -> bool:
        """Compare an output with its recorded reference (or record it)."""
        observed = json.loads(json.dumps(observed))
        if self.references is None:
            self.recorded[key] = observed
            return True
        return self.references.get(key) == observed

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def calibrate(self, runs: int = 1) -> None:
        """Time the reference kernel ``runs`` times (``calibration``)."""
        for python_s, numpy_s in kernel_cpu_s(runs):
            self.sample("kernel_python_s", python_s)
            self.sample("kernel_numpy_s", numpy_s)

    def speed(self) -> float:
        """The host's speed during the run (``calibration.host_speed``)."""
        return host_speed(self.samples["kernel_python_s"],
                          self.samples["kernel_numpy_s"])

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class BB72Memory(Workload):
    """Phenomenological BB [[72,12,6]] memory at the Cyclone latency."""

    name = "bb72_memory"
    physical_error_rate = 1e-3
    shots = 1024
    run_seeds = 32
    record_reps = run_seeds
    cyclone_latency_us = 45560.0

    def setup(self) -> None:
        from repro import MemoryExperiment, code_by_name, codesign_by_name

        code = code_by_name("BB [[72,12,6]]")
        self.latency = codesign_by_name("cyclone").compile(
            code).execution_time_us
        self.operation(self.latency == self.cyclone_latency_us,
                       f"cyclone latency {self.latency} us, expected "
                       f"{self.cyclone_latency_us}")
        self.experiment = MemoryExperiment(code=code, workers=1)
        rng = self.rng(self.variant)
        self.seeds = [int(s) for s in rng.integers(0, 2**31,
                                                   self.run_seeds + 1)]
        self.experiment.run(self.physical_error_rate, self.latency,
                            shots=512, seed=self.seeds[-1])

    def rep(self, index: int, traced: bool) -> dict:
        slot = index % self.run_seeds
        cpu = self.cpu_s()
        started = time.perf_counter()
        result = self.experiment.run(self.physical_error_rate, self.latency,
                                     shots=self.shots, seed=self.seeds[slot])
        seconds = time.perf_counter() - started
        cpu = self.cpu_s() - cpu
        converged = round(result.metadata["bp_converged_fraction"]
                          * result.shots)
        observed = [result.failures, converged, result.shots]
        self.operation(self.matches(f"{self.variant}/{slot}", observed),
                       f"run {slot}: (failures, converged, shots) "
                       f"{observed} differs from the reference")
        return {"seconds": seconds, "cpu_s": cpu, "shots": result.shots}

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        rates = [r["shots"] / r["seconds"] for r in reps]
        run_ms = [1000 * r["seconds"] for r in reps]
        value, pct, count = tail(run_ms)
        cpu = sum(r["cpu_s"] for r in reps)
        nominal = cpu * self.speed()
        named = {
            "shots_per_s": (median(rates), "shots/s"),
            "run_p50_ms": (median(run_ms), "ms"),
            "run_tail_ms": (value, f"ms (p{pct or 0:.0f} of {count})"),
            "shots_per_cpu_s": (sum(r["shots"] for r in reps) / cpu,
                                "shots/CPU s, not scaled"),
            "host_speed": (self.speed(), "x nominal"),
        }
        return {"ops_per_cpu_s": sum(r["shots"] for r in reps) / nominal,
                "step_cpu_ms": 1000 * nominal / len(reps)}, named

    def close(self) -> None:
        self.experiment.close()


# ----------------------------------------------------------------------
class FigureCampaign(Workload):
    """A miniature Figure 15 campaign: cold on a fresh store, then resumed.

    Every point runs to its shot cap, so a cold pass does the same work
    whatever the seed.  Repetition ``i`` runs spec
    ``(input set + i) % INPUT_SETS``.
    """

    name = "figure_campaign"
    workers = 2
    record_reps = 1
    kernel_runs = 4
    cap = 256
    points = 6
    budget = cap * points
    resumes = 1

    def spec(self, spec_id: int):
        from repro.campaign import CampaignSpec

        # A width no point reaches: every point stops at its cap.
        target = {"half_width": 1e-9}
        common = {"target": target, "max_shots": self.cap, "rounds": 2,
                  "shard_shots": 64, "pilot_shots": 64}
        hgp = [
            {"name": f"fig15_hgp225_{design}", "code": "HGP [[225,9,6]]",
             "kind": "physical_error", "codesign": design,
             "physical_error_rates": [5e-4, 1e-3], **common}
            for design in ("baseline", "cyclone")]
        surface = {"name": "surface_d5_circuit", "code": "surface-d5",
                   "kind": "architectures",
                   "codesigns": ["baseline", "cyclone"],
                   "physical_error_rate": 3e-3, "method": "circuit",
                   **common}
        return CampaignSpec.from_dict({
            "name": "perfbench_fig15_mini", "budget": self.budget,
            "seed": 1000 + spec_id, "sweeps": hgp + [surface]})

    def setup(self) -> None:
        self.specs = [self.spec(spec_id) for spec_id in range(INPUT_SETS)]
        self.specs[0].validate_names()

    def rep(self, index: int, traced: bool) -> dict:
        from repro.campaign import run_campaign

        workers = self.workers
        spec_id = (self.variant + index) % INPUT_SETS
        spec = self.specs[spec_id]
        store = self.scratch / f"campaign-{index}.jsonl"
        cpu = self.cpu_s()
        started = time.perf_counter()
        cold = run_campaign(spec, store=str(store), workers=workers)
        cold_s = time.perf_counter() - started
        # The pool's workers are reaped when the run closes its pool, so
        # their CPU time is in self.cpu_s() by now.
        cold_cpu = self.cpu_s() - cpu
        resume_s, resume_cpu = [], []
        for _ in range(self.resumes):
            cpu = self.cpu_s()
            started = time.perf_counter()
            resumed = run_campaign(spec, store=str(store), workers=workers)
            resume_s.append(time.perf_counter() - started)
            resume_cpu.append(self.cpu_s() - cpu)
            identical = ([t.to_json() for t in resumed.tables]
                         == [t.to_json() for t in cold.tables])
            self.operation(resumed.shots_sampled == 0 and identical,
                           f"resume sampled {resumed.shots_sampled} shots, "
                           f"tables identical: {identical}")
        store.unlink()

        self.sample("pool.cpu_util", cold_cpu / (cold_s * workers))
        self.operation(cold.spent <= spec.budget,
                       f"cold run spent {cold.spent} > budget {spec.budget}")
        for sweep, table in enumerate(cold.tables):
            for row_index, row in enumerate(table.rows):
                observed = [row["failures"], row["shots_used"]]
                key = f"{spec_id}/{sweep}/{row_index}"
                self.operation(self.matches(key, observed),
                               f"point {key}: (failures, shots) {observed} "
                               "differs from the reference")
        points = sum(len(table.rows) for table in cold.tables)
        return {"cold_s": cold_s, "cold_cpu_s": cold_cpu,
                "resume_s": resume_s, "resume_cpu_s": resume_cpu,
                "points": points, "shots": cold.shots_sampled}

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        cold = [r["cold_s"] for r in reps]
        resume = [s for r in reps for s in r["resume_s"]]
        rates = [r["points"] / r["cold_s"] for r in reps]
        cold_cpu = sum(r["cold_cpu_s"] for r in reps) * self.speed()
        resume_cpu = [s for r in reps for s in r["resume_cpu_s"]]
        named = {
            "campaign_s": (median(cold), "s"),
            "resume_s": (median(resume), "s"),
            "points_per_s": (median(rates), "points/s"),
            "shots_sampled": (median(r["shots"] for r in reps), "shots"),
            "host_speed": (self.speed(), "x nominal"),
        }
        return {"ops_per_cpu_s": sum(r["points"] for r in reps) / cold_cpu,
                "step_cpu_ms": 1000 * statistics.mean(resume_cpu)
                * self.speed()}, named


# ----------------------------------------------------------------------
class DesignSpace(Workload):
    """Compile every codesign for three codes under seeded knobs.

    A plan gives each codesign the three knob :attr:`settings`, one per
    code, in a seeded order: every pass compiles each codesign under
    each setting once, and the orders cycle through all six
    permutations, so each code also meets each setting about equally
    often.  Passes then do comparable work whatever the seed.
    There are ``2 * INPUT_SETS`` plans; repetition ``i`` (one pass) uses
    plan ``(2 * input set + i) % (2 * INPUT_SETS)``.
    """

    name = "design_space"
    kernel_runs = 4
    codes = ("BB [[72,12,6]]", "BB [[144,12,12]]", "HGP [[225,9,6]]")
    plans_per_set = 2
    record_reps = plans_per_set
    #: Junction-crossing reduction (Figure 9), Cyclone trap count as a
    #: fraction of its base form (Figure 13), trap capacity (Figure 17),
    #: operation-time reduction (Figure 18) and swap kind (Figure 21).
    settings = (
        {"junction": 0.0, "trap_fraction": 1.0, "capacity": 5,
         "operation": 0.0, "ion_swap": False},
        {"junction": 0.5, "trap_fraction": 0.5, "capacity": 8,
         "operation": 0.25, "ion_swap": True},
        {"junction": 0.9, "trap_fraction": 0.25, "capacity": 12,
         "operation": 0.5, "ion_swap": False},
    )

    def setup(self) -> None:
        from repro import available_codesigns, code_by_name

        self.built = {name: code_by_name(name) for name in self.codes}
        self.designs = available_codesigns()
        self.plans = []
        for plan_id in range(self.plans_per_set * INPUT_SETS):
            rng = self.rng(plan_id)
            orders = list(itertools.permutations(range(len(self.settings))))
            start = int(rng.integers(len(orders)))
            plan = {}
            for position, design in enumerate(
                    rng.permutation(self.designs)):
                order = orders[(start + position) % len(orders)]
                for code, setting in zip(self.codes, order):
                    plan[code, str(design)] = self.settings[setting]
            self.plans.append(plan)

    def compile_one(self, code_name: str, design: str, knobs: dict):
        from repro import codesign_by_name
        from repro.qccd.timing import OperationTimes, SwapKind

        code = self.built[code_name]
        times = OperationTimes(
            improvement_factor=knobs["operation"],
            junction_improvement_factor=knobs["junction"],
            swap_kind=(SwapKind.ION_SWAP if knobs["ion_swap"]
                       else SwapKind.GATE_SWAP))
        if design == "cyclone":
            m_basis = max(code.num_x_stabilizers, code.num_z_stabilizers)
            overrides = {"num_traps": max(1, int(m_basis
                                                 * knobs["trap_fraction"]))}
        else:
            overrides = {"trap_capacity": knobs["capacity"]}
        codesign = codesign_by_name(design, times=times, **overrides)
        return codesign.compile(code), times, overrides

    def rep(self, index: int, traced: bool) -> dict:
        from repro.qccd.compilers import cyclone_worst_case_bound_us

        plan_id = (self.plans_per_set * self.variant + index) % len(
            self.plans)
        plan = self.plans[plan_id]
        compile_s, compile_cpu, row_s = [], [], []
        for code_name in self.built:
            row_started = time.perf_counter()
            for design in self.designs:
                cpu = self.cpu_s()
                started = time.perf_counter()
                compiled, times, overrides = self.compile_one(
                    code_name, design, plan[code_name, design])
                compile_s.append(time.perf_counter() - started)
                compile_cpu.append(self.cpu_s() - cpu)
                observed = [compiled.execution_time_us,
                            compiled.num_operations, compiled.gate_count(),
                            compiled.shuttle_count(),
                            compiled.parallelization_fraction]
                key = f"{plan_id}/{code_name}/{design}"
                ok = self.matches(key, observed)
                problem = f"compile {key}: {observed} differs from the " \
                          "reference"
                if ok and design == "cyclone":
                    bound = cyclone_worst_case_bound_us(
                        self.built[code_name], overrides["num_traps"], times,
                        compiled.metadata["chain_length"])
                    ok = compiled.execution_time_us <= bound * 1.05
                    problem = f"compile {key}: exceeds the worst-case bound"
                self.operation(ok, problem)
            row_s.append(time.perf_counter() - row_started)
        return {"compile_s": compile_s, "compile_cpu_s": compile_cpu,
                "row_s": row_s}

    def summarize(self, reps: list[dict]) -> tuple[dict, dict]:
        rates = [len(r["compile_s"]) / sum(r["compile_s"]) for r in reps]
        pass_ms = [1000 * sum(r["row_s"]) for r in reps]
        compiles_ms = [1000 * s for r in reps for s in r["compile_s"]]
        value, pct, count = tail(compiles_ms)
        cpu = sum(sum(r["compile_cpu_s"]) for r in reps) * self.speed()
        named = {
            "compiles_per_s": (median(rates), "1/s"),
            "pass_p50_ms": (median(pass_ms), "ms"),
            "compile_p50_ms": (median(compiles_ms), "ms"),
            "compile_tail_ms": (value, f"ms (p{pct or 0:.0f} of {count})"),
            "host_speed": (self.speed(), "x nominal"),
        }
        return {"ops_per_cpu_s": sum(len(r["compile_cpu_s"])
                                     for r in reps) / cpu,
                "step_cpu_ms": 1000 * cpu / len(reps)}, named


# ----------------------------------------------------------------------
class ServedQueue(Workload):
    """``repro serve`` under polls, resubmissions and a few cold jobs.

    A job request does what the repository's own service callers do:
    submit, ``ServiceClient.wait`` until the job ends, fetch its tables.
    The closed loop repeats the cached resubmission, then the status
    poll, that the ``service_requests`` section of
    ``benchmarks/perf_smoke.py`` times, on both connections at once; it
    measures what each costs in CPU.  The open-loop phases send a schedule
    generated up front — status polls, cached resubmissions of the specs
    warmed during set-up and cold submissions with fresh seeds — at a
    fixed rate over at most two connections, each request timed from
    when it was due.  After a light and a heavy phase, a search over
    offered rates finds the highest one the service sustains within the
    latency limit.
    """

    name = "served_queue"
    warm_specs = 4
    #: How often a job request polls its job: the interval the served
    #: benchmark in ``benchmarks/perf_smoke.py`` uses.
    poll_interval_s = 0.005
    #: A job not finished by then fails its request.
    wait_timeout_s = 30.0
    #: Open-loop request kinds per block of 20; each block is shuffled,
    #: so every stretch of the schedule carries the same mix.  No
    #: recorded traffic grounds this mix (the repository has none): it
    #: is unverified.  The light phase leaves cold jobs out.
    mix = (("poll", 10), ("cached", 9), ("cold", 1))
    light_mix = (("poll", 10), ("cached", 10))
    #: Offered open-loop rates, chosen as fractions of the closed-loop
    #: capacity measured on the benchmark host (see README); like the
    #: mix, unverified against real traffic.
    light_rps = 15.0
    heavy_rps = 40.0
    #: The rate search: the first offered rate, its growth factor until
    #: a rate fails, then bisection steps between pass and fail.
    search_start_rps = 40.0
    search_growth = 1.5
    search_bisections = 2
    #: Long enough for an overload to build a backlog past the limit.
    search_seconds = 1.2
    #: Latency limit on a cached resubmission's tail, for max_rate_rps.
    limit_ms = 150.0
    connections = 2

    def __init__(self, *args, in_process: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.in_process = in_process
        self.server = None
        self.service = None
        #: The first request error; later requests fail without being
        #: sent, so a stalled service ends the run instead of hanging it.
        self.broken = None

    def spec_dict(self, seed: int, name: str) -> dict:
        """ci_smoke with another seed, and a width no point reaches, so
        every cold job samples exactly the 900-shot budget."""
        from repro.campaign import builtin_spec

        payload = builtin_spec("ci_smoke").to_dict()
        payload.update(name=name, seed=int(seed))
        for sweep in payload["sweeps"]:
            sweep["target"] = {"half_width": 1e-9}
        return payload

    def setup(self) -> None:
        from repro.service import ServiceClient, ServiceThread

        store = self.scratch / "served.jsonl"
        if self.in_process:
            self.service = ServiceThread(str(store))
            self.service.__enter__()
            url = self.service.url
        else:
            port_file = self.scratch / "port"
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store",
                 str(store), "--port", "0", "--port-file", str(port_file),
                 "--workers", "1"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            deadline = time.monotonic() + 60
            while not (port_file.exists() and port_file.read_text().strip()):
                if self.server.poll() is not None or \
                        time.monotonic() > deadline:
                    raise RuntimeError("repro serve did not start")
                time.sleep(0.01)
            url = f"http://127.0.0.1:{int(port_file.read_text())}"
        self.client = ServiceClient(url, timeout=30)
        rng = self.rng(self.variant)
        seeds = rng.integers(0, 2**31, self.warm_specs)
        self.warm = [self.spec_dict(seed, f"perfbench_warm_{k}")
                     for k, seed in enumerate(seeds)]
        self.cold_tables = []
        for spec in self.warm:
            view, tables = self.run_job(spec)
            self.operation(view["state"] == "done",
                           f"warm-up job ended {view['state']}")
            self.cold_tables.append(tables)
        self.done_job = view["job"]

    def run_job(self, spec: dict) -> tuple[dict, bytes | None]:
        job = self.client.submit(spec)["job"]
        view = self.client.wait(job, timeout=self.wait_timeout_s,
                                poll=self.poll_interval_s)
        tables = (self.client.tables_bytes(job)
                  if view["state"] == "done" else None)
        return view, tables

    def schedule(self, phase: str, rate: float, seconds: float,
                 rng: np.random.Generator, mix=None) -> list[dict]:
        block = [kind for kind, count in (mix or self.mix)
                 for _ in range(count)]
        count = max(1, int(rate * seconds))
        kinds = []
        while len(kinds) < count:
            kinds += [block[i] for i in rng.permutation(len(block))]
        requests = []
        for index, kind in enumerate(kinds[:count]):
            request = {"phase": phase, "offset": index / rate, "kind": kind,
                       "spec": int(rng.integers(self.warm_specs))}
            if kind == "cold":
                request["seed"] = int(rng.integers(2**31))
            requests.append(request)
        return requests

    def execute(self, request: dict, due: float) -> dict:
        started = time.monotonic()
        ok, view = False, None
        try:
            if self.broken:
                raise RuntimeError(f"not sent after an earlier error "
                                   f"({self.broken})")
            if request["kind"] == "poll":
                view = self.client.job(self.done_job)
                ok = view["state"] == "done"
            elif request["kind"] == "cached":
                view, tables = self.run_job(self.warm[request["spec"]])
                ok = (view["state"] == "done"
                      and view["stats"]["shots_sampled"] == 0
                      and tables == self.cold_tables[request["spec"]])
            else:
                spec = self.spec_dict(request["seed"],
                                      f"perfbench_cold_{request['seed']}")
                view, tables = self.run_job(spec)
                ok = (view["state"] == "done"
                      and view["stats"]["shots_sampled"] > 0)
        except Exception as error:  # noqa: BLE001 - a failed request
            # is a measured outcome, not a harness crash.
            view = {"error": f"{type(error).__name__}: {error}"}
            self.broken = self.broken or view["error"]
        return {"kind": request["kind"], "phase": request["phase"],
                "due": due, "started": started, "end": time.monotonic(),
                "ok": ok, "view": view}

    def run_phase(self, requests: list[dict], tracer=None) -> list[dict]:
        """Send ``requests`` open-loop; each is timed from when it was due."""
        in_flight = 0
        lock = threading.Lock()

        def done(_future) -> None:
            nonlocal in_flight
            with lock:
                in_flight -= 1

        futures = []
        with ThreadPoolExecutor(max_workers=self.connections) as pool:
            start = time.monotonic()
            for request in requests:
                due = start + request["offset"]
                delay = due - time.monotonic()
                if delay > 0:
                    span = tracer.open("gen.idle") if tracer else None
                    time.sleep(delay)
                    if span is not None:
                        tracer.close(span)
                self.sample("gen.lateness_ms",
                            1000 * (time.monotonic() - due))
                with lock:
                    in_flight += 1
                    self.sample("gen.backlog_max", in_flight)
                future = pool.submit(self.execute, request, due)
                future.add_done_callback(done)
                futures.append(future)
        results = [future.result() for future in futures]
        self.account(results)
        return results

    def account(self, results: list[dict]) -> None:
        """Count each request as an operation; sample job queue times."""
        for result in results:
            self.operation(result["ok"], f"{result['kind']} request failed: "
                           f"{str(result['view'])[:200]}")
            view = result["view"] or {}
            if result["kind"] != "poll" and view.get("started_at"):
                self.sample("queue.wait_ms", 1000 * (
                    view["started_at"] - view["submitted_at"]))
                self.sample("queue.exec_ms", 1000 * (
                    view["finished_at"] - view["started_at"]))

    def closed_loop(self, kind: str, seconds: float,
                    rng: np.random.Generator) -> tuple[float, float, list]:
        """Requests of one ``kind`` with every connection kept busy
        (closed loop) for ``seconds``, between two reference-kernel runs.
        Returns the completions per second, the CPU seconds client and
        server spent (both processes, every thread but the harness's
        memory sampler) and the results."""
        requests = iter(self.schedule("capacity", 1000.0, seconds, rng,
                                      ((kind, 1),)))
        lock = threading.Lock()
        results: list[dict] = []

        def connection() -> None:
            while time.monotonic() < deadline:
                with lock:
                    request = next(requests, None)
                if request is None:
                    return
                results.append(self.execute(request, time.monotonic()))

        def cpu() -> float:
            return self.cpu_s() + process_cpu_s(self.server.pid)

        threads = [threading.Thread(target=connection)
                   for _ in range(self.connections)]
        self.calibrate()
        started, cpu_started = time.monotonic(), cpu()
        deadline = started + seconds
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        busy, ended = cpu() - cpu_started, time.monotonic()
        self.calibrate()
        self.account(results)
        return len(results) / (ended - started), busy, results

    def phases(self, seconds: float, stream: int = 1,
               prefix: str = "") -> list[list[dict]]:
        """The light and heavy phases, ``seconds / 2`` each.  Each
        ``stream`` draws its own requests (so cold submissions never
        repeat within a run)."""
        rng = self.rng(self.variant, stream)
        return [self.schedule(prefix + "light", self.light_rps,
                              seconds / 2, rng, self.light_mix),
                self.schedule(prefix + "heavy", self.heavy_rps,
                              seconds / 2, rng)]

    @staticmethod
    def latencies(results, phase: str, kind: str) -> list[float]:
        return [1000 * (r["end"] - r["due"]) for r in results
                if r["phase"] == phase and r["kind"] == kind]

    def sustains(self, results: list[dict], phase: str) -> tuple[bool, float]:
        """Whether a phase met the limit: every request succeeded, its
        cached-job tail is within ``limit_ms``, and no backlog grew —
        the 90th-percentile latency of the phase's last third of
        requests within ``limit_ms`` too."""
        jobs = self.latencies(results, phase, "cached")
        value = tail(jobs)[0] if len(jobs) >= 11 else max(jobs, default=0.0)
        ordered = sorted((r for r in results if r["phase"] == phase),
                         key=lambda r: r["due"])
        last = [1000 * (r["end"] - r["due"])
                for r in ordered[2 * len(ordered) // 3:]]
        backlog_ms = (statistics.quantiles(last, n=10)[-1]
                      if len(last) > 1 else max(last, default=0.0))
        return (all(r["ok"] for r in ordered) and value <= self.limit_ms
                and backlog_ms <= self.limit_ms), value

    def search(self, rng: np.random.Generator) -> tuple[float, list, list]:
        """Highest offered rate that :meth:`sustains`: grow the rate
        until one fails, then bisect (geometrically) between the last
        passing and the first failing rate."""
        probes, results = [], []

        def probe(rate: float) -> bool:
            phase = f"search:{rate:.2f}"
            results.extend(self.run_phase(
                self.schedule(phase, rate, self.search_seconds, rng)))
            ok, value = self.sustains(results, phase)
            probes.append((rate, value, ok))
            return ok

        low, high = 0.0, self.search_start_rps
        while probe(high):
            low, high = high, high * self.search_growth
        for _ in range(self.search_bisections):
            middle = (low * high) ** 0.5 if low else high / 2
            if probe(middle):
                low = middle
            else:
                high = middle
        return low, probes, results

    def timed(self, seconds: float) -> list[dict]:
        """The light phase, the heavy phase and the rate search (which
        takes ten seconds or so on its own), with a closed-loop block
        before, between and after them: cached resubmissions for
        ``0.05 * seconds``, then status polls for as long.
        The blocks spread the bound metrics over the whole run, so a
        slow stretch of the host that covers part of the run does not
        decide them."""
        rng = self.rng(self.variant, 5)
        rates, results = [], []
        self.cpu = {"cached": [0.0, 0], "poll": [0.0, 0]}

        def closed_loop() -> None:
            for kind, share in (("cached", 0.05), ("poll", 0.05)):
                rate, busy, block_results = self.closed_loop(
                    kind, share * seconds, rng)
                if kind == "cached":
                    rates.append(rate)
                self.cpu[kind][0] += busy
                self.cpu[kind][1] += len(block_results)
                results.extend(block_results)

        for requests in self.phases(0.3 * seconds):
            closed_loop()
            results.extend(self.run_phase(requests))
        closed_loop()
        self.max_rate_rps, self.probes, searched = self.search(
            self.rng(self.variant, 4))
        closed_loop()
        self.capacity_rps = median(rates)
        return results + searched

    def summarize_results(self, results) -> tuple[dict, dict]:
        named = {}
        for phase in ("light", "heavy"):
            jobs = self.latencies(results, phase, "cached")
            value, pct, count = tail(jobs)
            named[f"job_p50_ms.{phase}"] = (median(jobs), "ms")
            named[f"job_tail_ms.{phase}"] = (
                value, f"ms (p{pct or 0:.0f} of {count})")
        polls = self.latencies(results, "heavy", "poll")
        value, pct, count = tail(polls)
        named["poll_tail_ms.heavy"] = (value,
                                       f"ms (p{pct or 0:.0f} of {count})")
        named["max_rate_rps"] = (
            self.max_rate_rps, f"req/s (limit {self.limit_ms:g} ms; probes "
            + ", ".join(f"{rate:.1f}:{value:.0f}{'' if ok else '!'}"
                        for rate, value, ok in self.probes) + ")")
        named["capacity_rps"] = (self.capacity_rps, "req/s (closed loop)")
        saturated = [1000 * (r["end"] - r["started"]) for r in results
                     if r["phase"] == "capacity" and r["kind"] == "cached"]
        named["job_p50_ms.saturated"] = (median(saturated),
                                         "ms (closed loop)")
        for kind, name in (("cached", "job_cpu_ms"), ("poll", "poll_cpu_ms")):
            busy, count = self.cpu[kind]
            named[name] = (1000 * busy * self.speed() / count,
                           "CPU ms at nominal speed (client + server)")
        named["host_speed"] = (self.speed(), "x nominal")
        return {"ops_per_cpu_s": 1000 / named["job_cpu_ms"][0],
                "step_cpu_ms": named["poll_cpu_ms"][0]}, named

    def close(self) -> None:
        if self.service is not None:
            self.service.__exit__(None, None, None)
            self.service = None
        if self.server is not None:
            self.server.send_signal(signal.SIGTERM)
            try:
                self.server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None


WORKLOADS = {cls.name: cls for cls in
             (BB72Memory, FigureCampaign, ServedQueue, DesignSpace)}
