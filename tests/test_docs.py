"""Documentation contract: docstrings and the top-level doc set.

Walks every module under :mod:`repro` and enforces the documentation
bar: each public module carries a module-level docstring, every public
class/function of the batch engine (:mod:`repro.engine`) and of the
session API (:mod:`repro.api`) is individually documented, and the
repository ships its README, architecture guide and API guide.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def iter_public_modules():
    """Import and yield every public module of the repro package."""
    yield "repro", repro
    prefix = repro.__name__ + "."
    for info in pkgutil.walk_packages(repro.__path__, prefix):
        short_names = info.name.split(".")
        if any(part.startswith("_") for part in short_names):
            continue
        yield info.name, importlib.import_module(info.name)


ALL_MODULES = sorted(iter_public_modules(), key=lambda pair: pair[0])


@pytest.mark.parametrize(
    "name,module", ALL_MODULES, ids=[name for name, _ in ALL_MODULES]
)
def test_module_docstring(name, module):
    """Every public module documents what it implements."""
    assert module.__doc__ and module.__doc__.strip(), (
        f"module {name} has no module-level docstring"
    )


def iter_engine_members():
    """Yield every public class/function/method of repro.engine,
    repro.api and repro.service."""
    import repro.api.executor
    import repro.api.hashing
    import repro.api.plan
    import repro.api.scenario
    import repro.api.session
    import repro.engine
    import repro.engine.batch
    import repro.engine.cache
    import repro.service.app
    import repro.service.client
    import repro.service.jobs
    import repro.service.journal
    import repro.service.store
    import repro.testing.faults

    modules = (
        repro.engine.batch,
        repro.engine.cache,
        repro.api.session,
        repro.api.scenario,
        repro.api.plan,
        repro.api.executor,
        repro.api.hashing,
        repro.service.store,
        repro.service.jobs,
        repro.service.journal,
        repro.service.app,
        repro.service.client,
        repro.testing.faults,
    )
    for module in modules:
        for attr_name, member in vars(module).items():
            if attr_name.startswith("_"):
                continue
            # functools.lru_cache wrappers are callables, not functions.
            if not (inspect.isclass(member) or callable(member)):
                continue
            if getattr(member, "__module__", None) != module.__name__:
                continue
            yield f"{module.__name__}.{attr_name}", member
            if inspect.isclass(member):
                for meth_name, meth in vars(member).items():
                    if meth_name.startswith("_"):
                        continue
                    if inspect.isfunction(meth) or isinstance(
                        meth, property
                    ):
                        yield f"{module.__name__}.{attr_name}.{meth_name}", meth


ENGINE_MEMBERS = sorted(iter_engine_members(), key=lambda pair: pair[0])


@pytest.mark.parametrize(
    "name,member",
    ENGINE_MEMBERS,
    ids=[name for name, _ in ENGINE_MEMBERS],
)
def test_engine_member_docstring(name, member):
    """Every public engine class, function, method and property."""
    target = member.fget if isinstance(member, property) else member
    assert target.__doc__ and target.__doc__.strip(), (
        f"engine member {name} has no docstring"
    )


def test_engine_members_discovered():
    """The walker found the engine + session APIs (guards silent skips)."""
    names = {name for name, _ in ENGINE_MEMBERS}
    assert "repro.engine.batch.fn_batch" in names
    assert "repro.engine.batch.BatchSpec" in names
    assert "repro.engine.cache.fn_coefficients" in names
    assert "repro.engine.cache.CacheSet" in names
    assert "repro.api.session.SimulationSession" in names
    assert "repro.api.session.SimulationSession.run" in names
    assert "repro.api.scenario.Scenario" in names
    assert "repro.api.plan.RunPlan" in names
    assert "repro.api.plan.ParallelPlanResult" in names
    assert "repro.api.plan.ShardReport" in names
    assert "repro.api.executor.run_plan_parallel" in names
    assert "repro.api.executor.shard_plan" in names
    assert "repro.api.executor.Shard" in names
    assert "repro.api.session.derive_worker_seed" in names
    assert "repro.api.hashing.scenario_hash" in names
    assert "repro.api.hashing.plan_hash" in names
    assert "repro.service.store.ResultStore" in names
    assert "repro.service.store.ResultStore.put" in names
    assert "repro.service.store.run_plan_with_store" in names
    assert "repro.service.jobs.JobManager" in names
    assert "repro.service.jobs.JobManager.submit" in names
    assert "repro.service.jobs.JobManager.cancel" in names
    assert "repro.service.jobs.JobManager.protected_hashes" in names
    assert "repro.service.jobs.PriorityGate" in names
    assert "repro.service.jobs.PriorityGate.acquire" in names
    assert "repro.service.jobs.TokenBucket" in names
    assert "repro.service.store.ResultStore.prune" in names
    assert "repro.service.app.ServiceApp.prune" in names
    assert "repro.service.client.SimulationServiceClient.cancel" in names
    assert "repro.service.client.SimulationServiceClient.prune" in names
    assert "repro.service.app.ServiceApp" in names
    assert "repro.service.app.ServiceThread" in names
    assert "repro.service.client.SimulationServiceClient" in names
    assert "repro.service.client.SimulationServiceClient.run_plan" in names
    assert "repro.api.plan.ShardFailure" in names
    assert "repro.api.plan.ParallelPlanResult.results_by_position" in names
    assert "repro.api.executor.ShardExecutionError" in names
    assert "repro.testing.faults.FaultSpec" in names
    assert "repro.testing.faults.FaultSpec.matches" in names
    assert "repro.testing.faults.maybe_inject" in names
    assert "repro.testing.faults.faults_installed" in names
    assert "repro.service.jobs.PartialComputeError" in names
    assert "repro.service.journal.JobJournal" in names
    assert "repro.service.journal.JobJournal.append" in names
    assert "repro.service.journal.JobJournal.compact" in names
    assert "repro.service.journal.JobJournal.acquire_lease" in names
    assert "repro.service.journal.LeaseRecord" in names
    assert "repro.service.journal.JournalState" in names
    assert "repro.service.store.ResultStore.verify" in names
    assert "repro.service.store.VerifyReport" in names
    assert "repro.service.store.result_checksum" in names
    assert "repro.service.jobs.JobManager.recover" in names
    assert "repro.service.jobs.JobManager.drain" in names
    assert "repro.service.app.ServiceApp.drain" in names
    assert "repro.service.client.JobLostError" in names
    assert "repro.service.client.SimulationServiceClient.verify" in names


@pytest.mark.parametrize(
    "relative", ["README.md", "docs/ARCHITECTURE.md", "docs/API.md"]
)
def test_top_level_docs_exist(relative):
    """The README and architecture guide ship with the repository."""
    path = REPO_ROOT / relative
    assert path.is_file(), f"{relative} is missing"
    text = path.read_text(encoding="utf-8")
    assert len(text) > 500, f"{relative} looks like a stub"


def test_readme_covers_the_essentials():
    """README names the paper, the quickstart, tests and the layers."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8").lower()
    for needle in ("socc", "quickstart", "pytest", "repro.engine", "repro.api"):
        assert needle in text, f"README.md does not mention {needle!r}"


def test_api_guide_covers_the_workflow():
    """docs/API.md walks session -> scenario -> plan -> results."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    for needle in (
        "SimulationSession",
        "Scenario",
        "RunPlan",
        "--set",
        "--plan",
        "--json-dir",
        "cache_stats",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_api_guide_covers_the_executor():
    """docs/API.md documents parallel execution end to end."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    for needle in (
        "run_plan_parallel",
        "shard_by",
        "LPT",
        "by-cost",
        "derive_worker_seed",
        "ShardReport",
        "Determinism contract",
        "--workers",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_api_guide_covers_the_solver_backend():
    """docs/API.md documents the batched kernel contracts end to end."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "Numerical solver backend" in text
    for needle in (
        "wkb_action_batch",
        "transmission_probability_batch",
        "simulate_transient_batch",
        "current_density_scalar_reference",
        "integrate_rk4",
        "Scalar-fallback protocol",
        "RK4",
        "BENCH_results.json",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_api_guide_covers_the_electrostatics_reliability_backend():
    """docs/API.md documents the batched electrostatics + reliability layer."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "Electrostatics & reliability backend" in text
    for needle in (
        "solve_poisson_1d_batch",
        "solve_channel_well_batch",
        "refine_bound_states_batch",
        "channel_well_sweep",
        "simulate_scalar_reference",
        "simulate_batch",
        "stress_of_pulse_batch",
        "silc_current_density_batch",
        "endurance_samples",
        "test_bench_poisson_schrodinger.py",
        "test_bench_endurance.py",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_architecture_covers_the_electrostatics_reliability_backend():
    """docs/ARCHITECTURE.md explains the batched final two layers."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "Electrostatics & reliability backend" in text
    for needle in (
        "solve_tridiagonal_batch",
        "solve_poisson_1d_batch",
        "solve_schrodinger_1d_batch",
        "refine_bound_states_batch",
        "Rayleigh-quotient",
        "solve_channel_well_batch",
        "per-lane convergence masks",
        "build_band_diagram_batch",
        "build_capacitances_batch",
        "simulate_scalar_reference",
        "endurance_sweep",
        "silc_current_density_batch",
        "stress_of_pulse_batch",
    ):
        assert needle in text, (
            f"docs/ARCHITECTURE.md does not mention {needle!r}"
        )


def test_batch_entry_points_documented():
    """Every new public batch entry point carries a real docstring."""
    import repro.electrostatics as electrostatics
    import repro.engine as engine
    import repro.reliability as reliability
    import repro.solver as solver

    entry_points = (
        solver.solve_tridiagonal_batch,
        solver.solve_poisson_1d_batch,
        solver.solve_schrodinger_1d_batch,
        solver.refine_bound_states_batch,
        solver.PoissonBatchSolution1D,
        solver.BoundStatesBatch,
        electrostatics.solve_channel_well_batch,
        electrostatics.ChannelWellBatchSolution,
        electrostatics.build_band_diagram_batch,
        electrostatics.BandDiagramBatch,
        electrostatics.build_capacitances_batch,
        electrostatics.FloatingGateCapacitanceBatch,
        engine.channel_well_sweep,
        engine.endurance_sweep,
        reliability.EnduranceModel.simulate_batch,
        reliability.EnduranceModel.simulate_scalar_reference,
        reliability.EnduranceBatchResult,
        reliability.stress_of_pulse_batch,
        reliability.StressBatch,
        reliability.silc_current_density_batch,
        reliability.sampled_cycle_counts,
    )
    for member in entry_points:
        assert member.__doc__ and len(member.__doc__.strip()) > 40, (
            f"{getattr(member, '__qualname__', member)} lacks a substantive "
            "docstring"
        )


def test_api_guide_covers_the_memory_backend():
    """docs/API.md documents the array-wide memory backend."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "Memory array backend" in text
    for needle in (
        "build_vector_array",
        "program_page_batch",
        "program_mlc_page_batch",
        "interleave_decode_batch",
        "apply_read_disturb_batch",
        "derive_trajectory_seed",
        "array_program_sweep",
        "mlc_program_sweep",
        "bit-exact",
        "test_bench_nand_array.py",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_architecture_covers_the_memory_backend():
    """docs/ARCHITECTURE.md explains the array-wide memory layer."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "Memory array backend" in text
    for needle in (
        "ArrayState",
        "program_page_batch",
        "batch RNG contract",
        "program_mlc_page_batch",
        "GF(2) matrix",
        "apply_read_disturb_batch",
        "sample_trajectory_batch",
        "derive_trajectory_seed",
        "VectorMemoryArray",
        "array_program_sweep",
        "mem-array",
    ):
        assert needle in text, (
            f"docs/ARCHITECTURE.md does not mention {needle!r}"
        )


def test_memory_batch_entry_points_documented():
    """Every public memory batch entry point carries a real docstring."""
    import repro.engine as engine
    import repro.memory as memory

    entry_points = (
        memory.VectorMemoryArray,
        memory.build_vector_array,
        memory.ispp_step_batch,
        memory.program_page_batch,
        memory.program_page_scalar_reference,
        memory.IsppBatchOutcome,
        memory.program_mlc_page_batch,
        memory.program_mlc_page_scalar_reference,
        memory.read_mlc_page_batch,
        memory.HammingCode.encode_batch,
        memory.HammingCode.decode_batch,
        memory.interleave_encode_batch,
        memory.interleave_decode_batch,
        memory.apply_read_disturb_batch,
        memory.apply_read_disturb_scalar_reference,
        memory.apply_program_disturb_batch,
        memory.apply_program_disturb_scalar_reference,
        memory.RtnTrap.sample_trajectory_batch,
        memory.RtnTrap.sample_trajectory_scalar_reference,
        memory.derive_trajectory_seed,
        memory.SenseAmplifier.sense_page_batch,
        memory.SenseAmplifier.sense_page_scalar_reference,
        engine.array_program_sweep,
        engine.ArraySweepResult,
        engine.mlc_program_sweep,
        engine.MlcSweepResult,
    )
    for member in entry_points:
        assert member.__doc__ and len(member.__doc__.strip()) > 40, (
            f"{getattr(member, '__qualname__', member)} lacks a substantive "
            "docstring"
        )


def test_api_guide_covers_the_service():
    """docs/API.md documents the service, store and hash contract."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "Simulation service & result store" in text
    for needle in (
        "scenario_hash",
        "plan_hash",
        "code_version",
        "ResultStore",
        "single-flight",
        "Retry-After",
        "SimulationServiceClient",
        "ServiceThread",
        "repro-service",
        "--from-store",
        "--update-store",
        "/plans",
        "/jobs/{id}",
        "/healthz",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_api_guide_covers_operating_the_service():
    """docs/API.md documents the lifecycle/GC surface of the service."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "Operating the service" in text
    for needle in (
        "DELETE",
        "/admin/prune",
        "priority",
        "PriorityGate",
        "starvation-free",
        "cancelled",
        "jobs_cancelled",
        "expired",
        "job_ttl_s",
        "max_records",
        "protected_hashes",
        "repro-service prune",
        "repro-service cancel",
        "--prune-interval",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_architecture_covers_the_service():
    """docs/ARCHITECTURE.md explains the service/store tier."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "Simulation service & result store" in text
    for needle in (
        "ResultStore",
        "canonical scenario hash",
        "os.replace",
        "first-writer-wins",
        "JobManager",
        "single-flight",
        "token bucket",
        "asyncio.start_server",
        "SimulationServiceClient",
        "--from-store",
    ):
        assert needle in text, (
            f"docs/ARCHITECTURE.md does not mention {needle!r}"
        )


def test_architecture_covers_the_job_lifecycle():
    """docs/ARCHITECTURE.md explains the PR 8 lifecycle/GC layer."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    for needle in (
        "PriorityGate",
        "starvation-free",
        "hand-off",
        "protected_hashes",
        "TOCTOU",
        "expired",
        "_evict_finished",
    ):
        assert needle in text, (
            f"docs/ARCHITECTURE.md does not mention {needle!r}"
        )


def test_service_entry_points_documented():
    """Every public service entry point carries a real docstring."""
    import repro.api as api
    import repro.service as service

    entry_points = (
        api.scenario_hash,
        api.plan_hash,
        api.canonical_json,
        api.canonical_scenario_record,
        api.code_version,
        service.ResultStore,
        service.StoreRecord,
        service.StoreReport,
        service.run_plan_with_store,
        service.Job,
        service.JobManager,
        service.JobQueueFull,
        service.JobRecord,
        service.RateLimiter,
        service.TokenBucket,
        service.PriorityGate,
        service.normalize_priority,
        service.expired_job_record,
        service.compute_scenario_results,
        service.ServiceApp,
        service.ServiceApp.prune,
        service.ServiceThread,
        service.ServiceError,
        service.SimulationServiceClient,
        service.SimulationServiceClient.cancel,
        service.SimulationServiceClient.prune,
        service.JobManager.cancel,
        service.JobManager.protected_hashes,
    )
    for member in entry_points:
        assert member.__doc__ and len(member.__doc__.strip()) > 40, (
            f"{getattr(member, '__qualname__', member)} lacks a substantive "
            "docstring"
        )


def test_api_guide_covers_durability():
    """docs/API.md documents the journal/verify durability surface."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "Durability & recovery" in text
    for needle in (
        "journal.jsonl",
        "write-ahead",
        "--journal",
        "--lease-ttl",
        "--drain-timeout",
        "--owner-id",
        "SIGTERM",
        "/admin/verify",
        "repro-service verify",
        "--repair",
        "quarantine",
        "JobLostError",
        "jobs_restored",
        "jobs_recovered",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_architecture_covers_durability():
    """docs/ARCHITECTURE.md explains the write-ahead journal layer."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "Durability & recovery" in text
    for needle in (
        "JobJournal",
        "fsync",
        "compact_every",
        "LeaseRecord",
        "heartbeat",
        "log order",
        "shutdown marker",
        "result_checksum",
        "quarantine/",
        "recover()",
        "re-queue",
        "clean",
        "crash",
    ):
        assert needle in text, (
            f"docs/ARCHITECTURE.md does not mention {needle!r}"
        )


def test_durability_entry_points_documented():
    """Every public durability entry point carries a real docstring."""
    import repro.service as service

    entry_points = (
        service.JobJournal,
        service.JobJournal.append,
        service.JobJournal.refresh,
        service.JobJournal.replay,
        service.JobJournal.compact,
        service.JobJournal.acquire_lease,
        service.JobJournal.renew_lease,
        service.JobJournal.release_lease,
        service.JournalEntry,
        service.JournalState,
        service.LeaseRecord,
        service.StoreIntegrityError,
        service.CorruptObject,
        service.VerifyReport,
        service.result_checksum,
        service.ResultStore.verify,
        service.JobManager.recover,
        service.JobManager.drain,
        service.ServiceApp.drain,
        service.JobLostError,
        service.SimulationServiceClient.verify,
        service.SimulationServiceClient.wait,
    )
    for member in entry_points:
        assert member.__doc__ and len(member.__doc__.strip()) > 40, (
            f"{getattr(member, '__qualname__', member)} lacks a substantive "
            "docstring"
        )


def test_api_guide_covers_fault_tolerance():
    """docs/API.md documents the supervised executor and chaos harness."""
    text = (REPO_ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert "Fault tolerance & chaos testing" in text
    for needle in (
        "timeout_s",
        "max_shard_retries",
        "raise_on_failure",
        "ShardFailure",
        "ShardExecutionError",
        "results_by_position",
        "repro.testing.faults",
        "FaultSpec",
        "REPRO_FAULTS",
        "faults_installed",
        "--shard-timeout",
        "--shard-retries",
        "--job-timeout",
        "total_timeout_s",
        "PartialComputeError",
        "jobs_timeout",
    ):
        assert needle in text, f"docs/API.md does not mention {needle!r}"


def test_architecture_covers_fault_tolerance():
    """docs/ARCHITECTURE.md explains the supervision layer."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "Fault tolerance & chaos testing" in text
    for needle in (
        "_ShardSupervisor",
        "FIRST_COMPLETED",
        "completion order",
        "BrokenProcessPool",
        "Split-on-last-retry",
        "ShardFailure",
        "REPRO_FAULTS",
        "chaos-smoke",
        "PartialComputeError",
        "jobs_timeout",
        "total_timeout_s",
    ):
        assert needle in text, (
            f"docs/ARCHITECTURE.md does not mention {needle!r}"
        )


def test_architecture_covers_the_solver_backend():
    """docs/ARCHITECTURE.md explains the vectorized numerical layer."""
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    assert "Numerical solver backend" in text
    for needle in (
        "wkb_action_batch",
        "transmission_probability_batch",
        "simulate_transient_batch",
        "CompiledCellBank",
        "vectorized-potential protocol",
        "lband=uband=0",
        "integrate_rk4",
        "bit-stable",
    ):
        assert needle in text, (
            f"docs/ARCHITECTURE.md does not mention {needle!r}"
        )
