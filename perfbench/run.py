"""The repository's benchmark: four closed-loop workloads, one caller each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-plan --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``paper-plan``   -- the 21 registered experiments as one plan, serial,
  in-process, on a fresh session per op.
* ``design-sweep`` -- a seeded 32-scenario heavy plan on the process
  executor (``workers=min(2, CPUs)``, ``shard_by="by-cost"``).
* ``store-hits``   -- 32-scenario plans through ``repro-service``, every
  scenario already in the store.
* ``store-misses`` -- 12 never-seen scenarios per plan through
  ``repro-service``, computed and persisted by the server.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (an untraced first half, then a traced second half, so
the tracing overhead is measured too). The line before it holds the host
fingerprint and run details. Every op's outputs are checked; a failing
op counts against ``ok_share`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from collections import defaultdict
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
#: A run's tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
HEAVY = ("mem-ftl", "abl-wkb", "device-summary")
RESOLVE_ALL = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro.api import SimulationSession;"
    "from repro.experiments.registry import available_experiments, "
    "resolve_experiment;"
    "[resolve_experiment(e) for e in available_experiments()];"
    "print('ready', flush=True)"
)


# ----- statistics --------------------------------------------------------


def tail(values: "list[float]") -> "tuple[float, float]":
    """(value, percentile) of the highest percentile with 10 samples beyond."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def cpu_jiffies() -> "tuple[int, int]":
    """(steal, total) jiffies summed over the host's CPUs."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields)


def median(values: "list[float]") -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child [MB]."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----- closed loop -------------------------------------------------------


class Op:
    """One timed op: its wall window, outputs and verdict."""

    def __init__(self, index: int, start: float, end: float, output: Any):
        self.index = index
        self.start = start
        self.end = end
        self.output = output
        self.scenarios = 0
        self.problem: "str | None" = None
        self.row: "dict[str, float]" = {}

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def closed_loop(workload: "Workload", seconds: float, first: int) -> "list[Op]":
    """Run ops back to back for ``seconds``; time each, check each after."""
    ops: "list[Op]" = []
    deadline = time.monotonic() + seconds
    index = first
    while time.monotonic() < deadline or not ops:
        if workload.recorder is not None:
            workload.recorder.op = index
        start = time.monotonic()
        try:
            output = workload.op(index)
            problem = None
        except Exception as exc:  # an op that raises is a failed op
            output, problem = None, f"{type(exc).__name__}: {exc}"
        op = Op(index, start, time.monotonic(), output)
        if problem is None:
            op.scenarios, problem = workload.check(op)
            if workload.recorder is not None:
                op.row = workload.row(op)
        op.problem = problem
        op.output = None  # keep memory flat over a run
        ops.append(op)
        index += 1
    return ops


# ----- workloads ----------------------------------------------------------


class Workload:
    """Common shape: set up, run ops, check them, report layers."""

    name = ""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.recorder = None
        self.peak_server_mb = 0.0
        self.details: "dict[str, Any]" = {}

    def start_tracing(self) -> None:
        import spans

        self.recorder = spans.Recorder()
        spans.install(self.recorder, "client")

    def fill(self) -> None:
        """Build the inputs the system must hold before set-up (untimed)."""

    def measure_setup(self) -> "list[float]":
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, index: int) -> Any:
        raise NotImplementedError

    def check(self, op: Op) -> "tuple[int, str | None]":
        raise NotImplementedError

    def settle(self, ops: "list[Op]") -> None:
        """Finish checks deferred until after the timed loop."""

    def row(self, op: Op) -> "dict[str, float]":
        """Per-layer numbers of one traced op, taken right after it."""
        raise NotImplementedError

    def layers(self, ops: "list[Op]") -> "dict[str, float]":
        """Per-layer metrics of the traced ops (medians over ops)."""
        return _median_rows([op.row for op in ops if op.problem is None])

    def retrace(self) -> None:
        """Switch the system under test to traced mode before phase two."""
        self.start_tracing()

    def close(self) -> None:
        """Stop what the workload started; safe to call twice."""


def _resolve_setup() -> float:
    """Fresh interpreter -> imports -> every experiment resolved [s]."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-c", RESOLVE_ALL, str(SRC)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - start
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up interpreter did not resolve experiments")
    return elapsed


def _experiment_ms(results: "Any") -> "dict[str, float]":
    totals: "dict[str, float]" = defaultdict(float)
    for result in results:
        eid = result.scenario.experiment_id
        key = eid if eid in HEAVY else "other"
        totals[f"experiments.{key}.ms"] += result.elapsed_s * 1000.0
    return {f"experiments.{k}.ms": totals[f"experiments.{k}.ms"] for k in HEAVY + ("other",)}


class PaperPlan(Workload):
    name = "paper-plan"

    def measure_setup(self) -> "list[float]":
        return [_resolve_setup() for _ in range(SETUP_REPEATS)]

    def prepare(self) -> None:
        import oracle
        import workloads

        self.plan = workloads.paper_plan()
        self.goldens = oracle.load_goldens(ROOT / "tests" / "golden" / "snapshots")
        self.op(-1)  # warm-up: lazy imports and one-time NumPy set-up

    def op(self, index: int) -> Any:
        import workloads
        from repro.api import SimulationSession

        session = SimulationSession(seed=workloads.paper_session_seed(self.seed, index))
        return session.run_plan(self.plan)

    def check(self, op: Op) -> "tuple[int, str | None]":
        import oracle

        return len(op.output.scenario_results), oracle.check_goldens(
            op.output.results, self.goldens
        )

    def row(self, op: Op) -> "dict[str, float]":
        row = _experiment_ms(op.output.scenario_results)
        row.update(_cache_row(op.output.cache_stats))
        row["api.plan_overhead_ms"] = 1000.0 * (
            op.wall_s - sum(r.elapsed_s for r in op.output.scenario_results)
        )
        return row


class DesignSweep(PaperPlan):
    name = "design-sweep"

    def prepare(self) -> None:
        import oracle
        import workloads
        from repro.api import SimulationSession

        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.details["workers"] = self.workers
        # Op 0 is checked whole against a serial run made here, outside
        # the timed loop; every other op is checked on one scenario,
        # recomputed in :meth:`settle` so that no in-process compute
        # runs between the timed ops.
        serial = SimulationSession(seed=self.seed).run_plan(self.plan_for(0))
        self.reference = oracle.exact_form(serial.results)
        self.samples: "list[tuple[Op, Any, str]]" = []
        self.op(-1)  # warm-up

    def plan_for(self, index: int) -> Any:
        import workloads

        return workloads.design_sweep(self.seed, index)

    def op(self, index: int) -> Any:
        from repro.api import run_plan_parallel

        return run_plan_parallel(
            self.plan_for(index),
            workers=self.workers,
            executor="process",
            shard_by="by-cost",
            seed=self.seed,
        )

    def check(self, op: Op) -> "tuple[int, str | None]":
        import oracle

        outcome = op.output
        if not outcome.complete:
            return 0, f"incomplete: {outcome.failed_positions}"
        got = oracle.exact_form(outcome.results)
        if op.index == 0:
            return len(got), oracle.check_identical(got, self.reference)
        at = op.index % len(got)
        self.samples.append((op, outcome.plan.expanded()[at], got[at]))
        return len(got), None

    def settle(self, ops: "list[Op]") -> None:
        import oracle
        from repro.api import SimulationSession

        for op, scenario, got in self.samples:
            want = SimulationSession(seed=self.seed).run_scenario(scenario)
            op.problem = oracle.check_identical([got], oracle.exact_form([want.result]))
        self.samples.clear()

    def row(self, op: Op) -> "dict[str, float]":
        shards = [r.elapsed_s for r in op.output.shard_reports]
        row = _experiment_ms(op.output.scenario_results)
        row.update(_cache_row(op.output.cache_stats))
        row["executor.overhead_ms"] = 1000.0 * (op.wall_s - max(shards))
        row["executor.imbalance"] = max(shards) / statistics.mean(shards)
        row["executor.shard_busy_ms"] = 1000.0 * sum(shards)
        return row


def _cache_row(stats: Any) -> "dict[str, float]":
    lookups = stats.hits + stats.misses
    return {
        "engine.cache_lookups": lookups,
        "engine.cache_hit_rate": stats.hits / lookups if lookups else 0.0,
    }


def _median_rows(rows: "list[dict[str, float]]") -> "dict[str, float]":
    keys = {k for row in rows for k in row}
    return {k: median([row[k] for row in rows if k in row]) for k in keys}


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _healthy(url: str) -> bool:
    try:
        with urllib.request.urlopen(url + "/healthz", timeout=1.0) as response:
            return response.status == 200
    except (urllib.error.URLError, ConnectionError, OSError):
        return False


class Server:
    """One ``repro-service serve`` process started through ``serve.py``."""

    def __init__(self, store: Path, cpu: "int | None", trace_out: "Path | None", log: Path):
        self.port = _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        command = [sys.executable, str(HERE / "serve.py")]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += [
            "serve",
            "--store", str(store),
            "--port", str(self.port),
            # One closed-loop caller must never meet 429.
            "--rate", "1000000",
            "--burst", "1000000",
        ]
        self._log = open(log, "a")
        start = time.monotonic()
        self.proc = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            while not _healthy(self.url):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"service exited with {self.proc.returncode}; see {log}")
                if time.monotonic() - start > 60:
                    raise RuntimeError("service not healthy after 60 s")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start
        self.affinity = sorted(os.sched_getaffinity(self.proc.pid))

    def vm_hwm_mb(self) -> float:
        """The server's peak resident set so far [MB]."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM, wait for the drain, kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class StoreWorkload(Workload):
    """A service in its own process, driven by one pinned client."""

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.store = work / "store"
        # Client and server share one CPU: on a virtual machine a wakeup
        # across vCPUs costs a hypervisor round trip whose delay follows
        # the host's load (see README.md, "Pinning").
        self.cpu = sorted(os.sched_getaffinity(0))[-1]
        os.sched_setaffinity(0, {self.cpu})
        self.server: "Server | None" = None
        self.trace_file: "Path | None" = None

    def launch(self, trace_out: "Path | None" = None) -> Server:
        return Server(self.store, self.cpu, trace_out, self.work / "service.log")

    def stop_server(self) -> None:
        if self.server is not None:
            self.peak_server_mb = max(self.peak_server_mb, self.server.vm_hwm_mb())
            self.server.stop()
            self.details["affinity"]["server"] = self.server.affinity
            self.server = None

    def measure_setup(self) -> "list[float]":
        times = []
        for i in range(SETUP_REPEATS):
            server = self.launch()
            times.append(server.setup_s)
            if i < SETUP_REPEATS - 1:
                server.stop()
            else:
                self.server = server
        return times

    def prepare(self) -> None:
        from repro.service.client import SimulationServiceClient

        if self.server is None:
            self.server = self.launch()
        self.client = SimulationServiceClient(self.server.url, client_id="perfbench")
        self.op(-1)  # warm-up: first connection and lazy imports in the server

    def reset_store(self) -> None:
        """Return the store to its state after :meth:`fill`."""

    def retrace(self) -> None:
        from repro.service.client import SimulationServiceClient

        self.stop_server()
        self.reset_store()
        self.start_tracing()
        self.trace_file = self.work / "server-spans.json"
        self.objects_start = _object_count(self.store)
        self.server = self.launch(self.trace_file)
        self.client = SimulationServiceClient(self.server.url, client_id="perfbench")

    def op(self, index: int) -> Any:
        return self.client.run_plan(self.plan_for(index))

    def plan_for(self, index: int) -> Any:
        raise NotImplementedError

    def close(self) -> None:
        self.stop_server()

    def row(self, op: Op) -> "dict[str, float]":
        results, final = op.output
        per_op: "dict[str, float]" = defaultdict(float)
        requests = 0
        for _, name, start, end, _, index in self.recorder.spans:
            if index == op.index:
                per_op[name] += end - start
                requests += name == "client.request"
        computed = [r for r, s in zip(results, final.sources) if s == "computed"]
        row = _experiment_ms(computed)
        row.update({
            "client.submit_ms": 1000.0 * per_op["client.submit"],
            "client.wait_ms": 1000.0 * per_op["client.wait"],
            "client.fetch_ms": 1000.0 * per_op["client.fetch"],
            "client.requests_per_op": requests,
            "jobs.elapsed_ms": 1000.0 * final.elapsed_s,
            "jobs.poll_slack_ms": 1000.0 * (
                per_op["client.submit"] + per_op["client.wait"] - final.elapsed_s
            ),
            "jobs.store_hits": final.store_hits,
            "jobs.computed": final.computed,
        })
        return row

    def layers(self, ops: "list[Op]") -> "dict[str, float]":
        import spans

        self.stop_server()  # the traced server writes its spans on drain
        starts = [op.start for op in ops]
        for op in ops:
            op.row["journal.appends_per_op"] = 0
        per_call: "dict[str, list[float]]" = defaultdict(list)
        for _, name, start, end, _, index in self.recorder.spans:
            if name == "io.decode" and index >= ops[0].index:
                per_call[name].append(end - start)
        # Server spans carry no op id: an op owns what starts in its window.
        for _, name, start, end, _, _ in spans.load(self.trace_file):
            at = bisect.bisect_right(starts, start) - 1
            if at < 0 or start > ops[at].end:
                continue
            per_call[name].append(end - start)
            if name == "journal.append":
                ops[at].row["journal.appends_per_op"] += 1
        out = super().layers(ops)
        for metric, name, scale in (
            ("store.get_record_ms", "store.get_record", 1e3),
            ("store.put_ms", "store.put", 1e3),
            ("journal.append_ms", "journal.append", 1e3),
            ("io.decode_ms", "io.decode", 1e3),
            ("io.encode_ms", "io.encode", 1e3),
            ("hashing.scenario_hash_us", "hashing.scenario_hash", 1e6),
            ("app.plans_ms", "app.plans", 1e3),
            ("app.jobs_ms", "app.jobs", 1e3),
            ("app.results_ms", "app.results", 1e3),
        ):
            out[metric] = scale * median(per_call[name])
        objects = list((self.store / "objects").glob("*/*.json"))
        out["store.objects_start"] = self.objects_start
        out["store.objects_end"] = len(objects)
        out["store.object_kb"] = (
            sum(p.stat().st_size for p in objects) / len(objects) / 1024.0 if objects else 0.0
        )
        return out


def _object_count(store: Path) -> int:
    return sum(1 for _ in (store / "objects").glob("*/*.json"))


def _fill(store: Path, scenarios: "Any") -> "dict[str, str]":
    """Compute scenarios in-process and put them; returns exact forms by hash."""
    import oracle
    from repro.api import SimulationSession, scenario_hash
    from repro.service.store import ResultStore

    target = ResultStore(store)
    session = SimulationSession(seed=0)
    forms = {}
    for scenario in scenarios:
        result = session.run_scenario(scenario)
        digest = scenario_hash(scenario)
        target.put(digest, result)
        forms[digest] = oracle.exact_form([result.result])[0]
    return forms


class StoreHits(StoreWorkload):
    name = "store-hits"
    #: Fetched results compared with in-process ones, per op.
    SAMPLE = 4

    def fill(self) -> None:
        import workloads

        self.pool = workloads.hit_pool(self.seed)
        self.forms = _fill(self.store, self.pool)
        self.objects_start = _object_count(self.store)
        self.details["store_objects_at_start"] = self.objects_start

    def plan_for(self, index: int) -> Any:
        import workloads

        return workloads.hit_plan(self.seed, index, self.pool)

    def check(self, op: Op) -> "tuple[int, str | None]":
        import oracle

        results, final = op.output
        problem = oracle.check_sources(final.sources, "store")
        if problem is None:
            picks = [(op.index * self.SAMPLE + k) % len(results) for k in range(self.SAMPLE)]
            problem = oracle.check_identical(
                oracle.exact_form([results[p].result for p in picks]),
                [self.forms[final.scenario_hashes[p]] for p in picks],
            )
        return len(results), problem


class StoreMisses(StoreWorkload):
    name = "store-misses"
    SAMPLE = 1

    def fill(self) -> None:
        import hostinfo
        import workloads

        # Keyed by the code under test and the generator, so a cached
        # store never outlives either.
        key = hashlib.sha256(
            hostinfo.code_identity(ROOT)["src_sha256"].encode()
            + (HERE / "workloads.py").read_bytes()
        ).hexdigest()[:16]
        self.background = ROOT / ".perfbench_work" / f"background-{key}"
        if not self.background.is_dir():
            building = self.work / "background"
            _fill(building, workloads.background_pool())
            building.rename(self.background)
        self.reset_store()
        self.objects_start = _object_count(self.store)
        self.details["store_objects_at_start"] = self.objects_start

    def reset_store(self) -> None:
        # The traced phase starts from the same store size as the
        # untraced one, so their latencies compare.
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.copytree(self.background, self.store)

    def plan_for(self, index: int) -> Any:
        import workloads

        return workloads.miss_plan(self.seed, index)

    def check(self, op: Op) -> "tuple[int, str | None]":
        import oracle
        from repro.api import SimulationSession

        results, final = op.output
        problem = oracle.check_sources(final.sources, "computed")
        if problem is None:
            scenarios = self.plan_for(op.index).expanded()
            picks = [(op.index + k) % len(scenarios) for k in range(self.SAMPLE)]
            session = SimulationSession(seed=0)
            problem = oracle.check_identical(
                oracle.exact_form([results[p].result for p in picks]),
                oracle.exact_form([session.run_scenario(scenarios[p]).result for p in picks]),
            )
        return len(results), problem

    def close(self) -> None:
        super().close()
        self.details["store_objects_at_end"] = _object_count(self.store)


CLASSES = {c.name: c for c in (PaperPlan, DesignSweep, StoreHits, StoreMisses)}


# ----- reporting ----------------------------------------------------------


def metric_units() -> "tuple[dict[str, str], dict[str, str]]":
    """End-to-end and per-layer metric units, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def end_to_end(ops: "list[Op]", setup: "list[float]", rss_mb: float) -> "tuple[dict, dict]":
    """The six end-to-end metrics of one run, and the details behind them."""
    latencies = [1000.0 * op.wall_s for op in ops]
    ok = [op for op in ops if op.problem is None]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": median(setup),
        "latency_ms_p50": median(latencies),
        "latency_ms_tail": tail_ms,
        "scenarios_per_s": sum(op.scenarios for op in ok) / sum(op.wall_s for op in ops),
        "ok_share": len(ok) / len(ops),
        "peak_rss_mb": rss_mb,
    }
    extra = {
        "ops": len(ops),
        "tail_percentile": round(tail_pct, 1),
        "tail_samples_beyond": min(TAIL_BEYOND, len(ops) - 1),
        "setup_samples_s": setup,
    }
    return metrics, extra


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> "tuple[dict, dict]":
    import hostinfo

    e2e_units, layer_units = metric_units()
    work = ROOT / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = CLASSES[workload_name](seed, work)
    workload.details["affinity"] = {"benchmark": sorted(os.sched_getaffinity(0))}
    try:
        workload.fill()
        setup = [] if traced else workload.measure_setup()
        workload.prepare()
        if traced:
            plain = closed_loop(workload, seconds / 2.0, first=0)
            workload.settle(plain)
            workload.retrace()
            ops = closed_loop(workload, seconds / 2.0, first=len(plain))
            workload.settle(ops)
            produced = workload.layers(ops)
            undeclared = set(produced) - set(layer_units)
            if undeclared:
                raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(undeclared)}")
            layer = {name: 0.0 for name in layer_units}
            layer.update(produced)
            traced_p50 = median([1000.0 * op.wall_s for op in ops])
            plain_p50 = median([1000.0 * op.wall_s for op in plain])
            layer["trace.latency_ms_p50"] = traced_p50
            layer["trace.untraced_latency_ms_p50"] = plain_p50
            layer["trace.overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
            all_ops = plain + ops
            metrics = {k: layer[k] for k in layer_units}
            extra = {"ops": len(all_ops), "traced_ops": len(ops)}
        else:
            steal, total = cpu_jiffies()
            all_ops = closed_loop(workload, seconds, first=0)
            steal_end, total_end = cpu_jiffies()
            # Time the hypervisor ran other guests on our vCPUs.
            workload.details["host_steal_share"] = (steal_end - steal) / max(1, total_end - total)
            workload.settle(all_ops)
            workload.close()
            rss = max(peak_rss_mb(), workload.peak_server_mb)
            metrics, extra = end_to_end(all_ops, setup, rss)
        failures = [f"op {op.index}: {op.problem}" for op in all_ops if op.problem]
        details = {
            "workload": workload_name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            **extra,
            **workload.details,
            "failures": failures[:5],
            "host": hostinfo.host(ROOT, work),
        }
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": {
            k: {"value": metrics[k], "unit": u}
            for k, u in (layer_units if traced else e2e_units).items()
        },
    }
    return result, details


def _table(result: dict) -> str:
    lines = [f"{'metric':34} {'value':>14}  unit"]
    for name, metric in result["metrics"].items():
        lines.append(f"{name:34} {metric['value']:14.4f}  {metric['unit']}")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(_table(result))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
