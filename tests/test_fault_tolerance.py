"""Fault tolerance: retries, timeouts, rebuilds, checkpoint/resume, chaos.

The claims pinned here:

* ``run_sharded`` results are index-aligned with the task list no
  matter what order shards finish in;
* the ``"thread"`` backend runs every shard on the calling thread,
  whatever worker count it is given;
* worker state is scoped per run — two in-process runs started from
  different caller threads never read each other's state;
* chaos-injected failures retry with backoff and converge to the
  fault-free results (bit-identical, since every seed derives from
  task identity, never from attempts or timing);
* exhausted retries degrade into :class:`RunHealth` records (``None``
  result slots) unless ``strict=True``, which raises
  :class:`ShardError`;
* per-shard timeouts abandon hung attempts and the retry succeeds —
  and the timeout clock starts when an attempt *runs*, not when it
  queues behind other shards;
* a dead process-pool worker rebuilds the pool and the run completes;
* a clean process-pool run returns only after its workers exit, and
  a pool never forks more workers than the run has tasks;
* process-pool workers cap their BLAS helper threads at their share
  of the cores, and the calling process's setting is left alone; a
  worker whose share is one thread keeps no helper thread at all;
* ``run_fleet(..., checkpoint=path)`` persists completed shards and a
  resumed run (after any interrupt pattern — property-tested) merges
  to a bit-identical :class:`FleetAggregate`.
"""

import json
import logging
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.experiments.campaigns import run_campaign_sweep
from repro.fleet import (
    ChaosError,
    ChaosPlan,
    ExecOptions,
    FleetAggregate,
    FleetCheckpoint,
    FleetSlice,
    FleetSpec,
    RunHealth,
    ShardError,
    fleet_fingerprint,
    run_fleet,
    run_sharded,
)
from repro.fleet.pool import _blas_threads, _install_process_worker

# ---------------------------------------------------------------------------
# module-top-level workers (the process backend pickles by reference)


def _double(task):
    return task * 2


def _staggered(task):
    index, delay = task
    time.sleep(delay)
    return index


def _read_tag(task):
    from repro.fleet.pool import worker_state

    time.sleep(0.01)  # keep both callers' runs in flight together
    return (task, worker_state()["tag"])


def _thread_ident(task):
    return threading.get_ident()


def _report_blas_threads(task):
    return _blas_threads()


def _report_native_threads(task):
    a = np.full((256, 256), 1.0 / 256, dtype=np.float32)
    for _ in range(4):
        a = a @ a
    blas = _blas_threads()
    return len(os.listdir("/proc/self/task")), blas


class TestOrderStability:
    def test_results_are_index_aligned_when_shards_finish_out_of_order(self):
        # Shard 0 sleeps longest, so completion order is the reverse of
        # submission order — results must still line up with the tasks.
        tasks = [(index, 0.05 * (4 - index)) for index in range(5)]
        out = run_sharded(tasks, _staggered, {}, "process", 5)
        assert out.results == (0, 1, 2, 3, 4)
        assert out.health.ok and out.health.completed == 5

    def test_empty_task_list_is_a_clean_noop(self):
        out = run_sharded([], _double, {}, "thread", 4)
        assert out.results == () and out.health == RunHealth.clean(0)

    def test_thread_backend_runs_every_shard_on_the_calling_thread(self):
        out = run_sharded(list(range(6)), _thread_ident, {}, "thread", 4)
        assert out.results == (threading.get_ident(),) * 6
        assert out.health.ok

    def test_concurrent_runs_keep_their_own_worker_state(self):
        # Regression: a module-global worker state let a second run
        # clobber the first mid-flight.  State is now scoped per run, so
        # two callers' threads may each run a fleet in-process at once.
        barrier = threading.Barrier(2)
        outcomes = {}

        def launch(tag):
            barrier.wait(timeout=10)
            outcomes[tag] = run_sharded(
                list(range(6)), _read_tag, {"tag": tag}, "thread", 1
            )

        threads = [
            threading.Thread(target=launch, args=(tag,)) for tag in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        for tag in ("a", "b"):
            assert outcomes[tag].results == tuple((i, tag) for i in range(6))


class TestChaosPlans:
    def test_plan_validates(self):
        with pytest.raises(ConfigError, match="rate"):
            ChaosPlan(seed=1, rate=1.5)
        with pytest.raises(ConfigError, match="attempts_affected"):
            ChaosPlan(seed=1, attempts_affected=0)
        with pytest.raises(ConfigError, match="unknown chaos kind"):
            ChaosPlan(seed=1, kinds=("explode",))
        with pytest.raises(ConfigError, match="delay_s"):
            ChaosPlan(seed=1, delay_s=-1.0)

    def test_schedule_is_a_pure_function_of_seed_and_index(self):
        plan = ChaosPlan(seed=7, rate=0.5)
        assert plan.faulted_shards(10) == plan.faulted_shards(10)
        assert ChaosPlan(seed=8, rate=0.5).faulted_shards(50) != plan.faulted_shards(50)
        assert ChaosPlan(seed=7, rate=0.0).faulted_shards(50) == ()
        assert ChaosPlan(seed=7, rate=1.0).faulted_shards(5) == (0, 1, 2, 3, 4)

    def test_inject_downgrades_crash_in_process(self):
        plan = ChaosPlan(seed=7, rate=1.0, kinds=("crash",))
        with pytest.raises(ChaosError):  # never os._exit in-process
            plan.inject(0, attempt=0, in_process=True)
        plan.inject(0, attempt=5, in_process=True)  # past affected attempts


class TestRetries:
    # seed=7, rate=0.5 faults shards (1, 2, 4) of range(5) — pinned so
    # the assertions below know exactly which slots were exercised.
    PLAN = ChaosPlan(seed=7, rate=0.5, attempts_affected=1)

    def test_plan_is_the_one_the_assertions_assume(self):
        assert self.PLAN.faulted_shards(5) == (1, 2, 4)

    @pytest.mark.parametrize("workers", [1, 2])  # in-process and pooled paths
    def test_retry_then_succeed_matches_fault_free(self, workers, caplog):
        caplog.set_level(logging.WARNING, logger="repro.fleet.pool")
        clean = run_sharded(list(range(5)), _double, {}, "process", workers)
        assert not caplog.records  # a clean run logs nothing
        chaotic = run_sharded(
            list(range(5)),
            _double,
            {},
            "process",
            workers,
            max_retries=2,
            strict=False,
            chaos=self.PLAN,
        )
        assert chaotic.results == clean.results == (0, 2, 4, 6, 8)
        assert chaotic.health.ok and chaotic.health.retries == 3
        # One WARNING per retry, naming the shard and its failed attempt.
        assert sorted(r.getMessage().split(" (")[0] for r in caplog.records) == [
            "shard 1 attempt 0 failed",
            "shard 2 attempt 0 failed",
            "shard 4 attempt 0 failed",
        ]

    def test_exhaustion_degrades_into_health_record(self):
        exhaust = ChaosPlan(seed=7, rate=0.5, attempts_affected=99)
        out = run_sharded(
            list(range(5)),
            _double,
            {},
            "process",
            2,
            max_retries=1,
            strict=False,
            chaos=exhaust,
        )
        assert out.results == (0, None, None, 6, None)
        assert out.health.failed_shards == (1, 2, 4)
        assert out.health.completed == 2 and not out.health.ok
        for failure in out.health.failures:
            assert failure.attempts == 2 and "ChaosError" in failure.error
        record = out.health.as_record()
        assert record["failed_shards"] == [1, 2, 4] and record["retries"] == 3

    def test_strict_raises_shard_error_chained_from_the_cause(self):
        exhaust = ChaosPlan(seed=7, rate=0.5, attempts_affected=99)
        with pytest.raises(ShardError) as excinfo:
            run_sharded(
                list(range(5)),
                _double,
                {},
                "process",
                2,
                max_retries=0,
                strict=True,
                chaos=exhaust,
            )
        assert isinstance(excinfo.value.__cause__, ChaosError)
        assert excinfo.value.failure.shard in (1, 2, 4)


class TestTimeouts:
    def test_timed_out_attempt_is_abandoned_and_retry_succeeds(self):
        # Faulted shards sleep 0.6s on attempt 0; the 0.2s deadline
        # abandons them and the clean retry completes every shard.
        plan = ChaosPlan(
            seed=7, rate=0.5, attempts_affected=1, kinds=("delay",), delay_s=0.6
        )
        out = run_sharded(
            list(range(5)),
            _double,
            {},
            "process",
            2,
            timeout_s=0.2,
            max_retries=2,
            strict=False,
            chaos=plan,
        )
        assert out.results == (0, 2, 4, 6, 8)
        assert out.health.ok and out.health.timeouts == 3

    def test_queued_shards_are_not_charged_for_the_backlog(self):
        # Two workers, five shards of ~0.15s each: a clock that starts
        # at submission would charge the last shards their ~0.3s queue
        # wait and expire them.  The deadline must start when the
        # attempt starts running.
        tasks = [(index, 0.15) for index in range(5)]
        out = run_sharded(
            tasks, _staggered, {}, "process", 2, timeout_s=0.4, max_retries=0
        )
        assert out.results == (0, 1, 2, 3, 4)
        assert out.health.ok and out.health.timeouts == 0


class TestProcessPoolRebuild:
    def test_crashed_worker_rebuilds_the_pool_and_completes(self, caplog):
        caplog.set_level(logging.WARNING, logger="repro.fleet.pool")
        plan = ChaosPlan(seed=7, rate=0.5, attempts_affected=1, kinds=("crash",))
        out = run_sharded(
            list(range(5)),
            _double,
            {},
            "process",
            2,
            max_retries=3,
            strict=False,
            chaos=plan,
        )
        assert out.results == (0, 2, 4, 6, 8)
        assert out.health.ok and out.health.pool_rebuilds >= 1
        # Each rebuild and each retry it charged is logged.
        messages = [record.getMessage() for record in caplog.records]
        assert sum("rebuilding the pool" in m for m in messages) == out.health.pool_rebuilds
        assert sum("retrying in" in m for m in messages) == out.health.retries

    def test_deterministic_crasher_cannot_rebuild_forever(self):
        # Every attempt of every shard crashes: the rebuild path must
        # drain the retry budget and degrade, not loop.
        plan = ChaosPlan(
            seed=7, rate=1.0, attempts_affected=99, kinds=("crash",)
        )
        out = run_sharded(
            list(range(3)),
            _double,
            {},
            "process",
            2,
            max_retries=1,
            strict=False,
            chaos=plan,
        )
        assert out.results == (None, None, None)
        assert out.health.failed_shards == (0, 1, 2)
        assert out.health.pool_rebuilds >= 1

    def test_workers_cap_blas_threads_at_their_share_of_the_cores(self):
        before = _blas_threads()
        if before is None:
            pytest.skip("numpy exposes no OpenBLAS thread control here")
        out = run_sharded([0, 1], _report_blas_threads, {}, "process", 2)
        share = max(1, (os.cpu_count() or 1) // 2)
        assert out.results == (share, share)
        assert _blas_threads() == before  # the calling process is untouched

    def test_one_thread_workers_keep_no_blas_helper_thread(self):
        # The cap restarts the helper pool that fork shut down, at one
        # helper per extra core, and the worker joins it again.  A worker
        # whose share is one thread never gives the pool work, so after a
        # few GEMMs it still runs on its own thread alone.
        if _blas_threads() is None or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs /proc and numpy's OpenBLAS thread control")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_install_process_worker,
            initargs=("blas-helpers", {}, os.cpu_count() or 1),
        ) as pool:
            assert pool.submit(_report_native_threads, 0).result(timeout=60) == (1, 1)


class TestPoolShutdown:
    def test_clean_process_run_leaves_no_worker_alive(self):
        before = set(multiprocessing.active_children())
        out = run_sharded(list(range(4)), _double, {}, "process", 2)
        assert out.results == (0, 2, 4, 6) and out.health.ok
        assert set(multiprocessing.active_children()) <= before


class TestPoolSize:
    def test_pool_forks_no_more_workers_than_tasks(self):
        before = set(multiprocessing.active_children())
        live = []

        def count_workers(index, result):
            live.append(len(set(multiprocessing.active_children()) - before))

        out = run_sharded([0, 1], _double, {}, "process", 4, on_result=count_workers)
        assert out.results == (0, 2) and out.health.ok
        assert len(live) == 2 and max(live) <= 2


class TestResilienceOptions:
    def test_exec_options_validate_resilience_knobs(self):
        with pytest.raises(ConfigError, match="timeout_s"):
            ExecOptions(timeout_s=0.0)
        with pytest.raises(ConfigError, match="max_retries"):
            ExecOptions(max_retries=-1)

    @pytest.mark.parametrize("knob", ["max_workers", "max_retries"])
    @pytest.mark.parametrize("value", [2.5, 1.5, 2.0, True, "2"])
    def test_non_integer_counts_rejected(self, knob, value):
        """A float worker count would start a thread per started unit, or
        die inside the process pool; a float retry budget rounds up."""
        with pytest.raises(ConfigError, match=f"{knob} must be an integer, got {value!r}"):
            ExecOptions(**{knob: value})

    def test_numpy_integer_counts_accepted(self):
        options = ExecOptions(
            backend="process", max_workers=np.int64(2), max_retries=np.int32(0)
        )
        assert options.workers_for(8) == 2 and options.max_retries == 0
        with pytest.raises(ConfigError, match="max_workers must be >= 1, got 0"):
            ExecOptions(max_workers=np.int64(0))

    @pytest.mark.parametrize("timeout_s", [float("nan"), float("inf")])
    def test_non_finite_timeout_rejected(self, timeout_s):
        """A NaN deadline never fires and an infinite one overflows ``wait()``."""
        with pytest.raises(ConfigError, match=f"got {timeout_s}"):
            ExecOptions(timeout_s=timeout_s)

    def test_as_record_carries_the_resilience_settings(self):
        record = ExecOptions(timeout_s=30.0, max_retries=5, strict=True).as_record()
        assert record["timeout_s"] == 30.0
        assert record["max_retries"] == 5 and record["strict"] is True
        assert record["engine"] == "columnar"

    def test_aggregate_json_round_trip_is_exact(self):
        aggregate = FleetAggregate.of_vehicle(
            "baseline-dos",
            "per-ip",
            FleetSlice(vehicles=1, channels=3, frames_offered=1234, alerts=7),
        )
        thawed = FleetAggregate.from_json_dict(
            json.loads(json.dumps(aggregate.as_json_dict()))
        )
        assert thawed == aggregate


MINI_SPEC = FleetSpec(
    name="chaos-mini",
    size=6,
    seed=7,
    scenarios=("baseline-dos", "baseline-fuzzy"),
    profiles=("full", "lite"),
    deployments=("per-ip",),
    duration=0.4,
    onset_jitter=0.05,
)
MINI_OPTIONS = ExecOptions(backend="thread", max_workers=1)
MINI_SHARD_SIZE = 2  # 3 shards of 2 vehicles


class TestFleetUnderChaos:
    @pytest.fixture(scope="class")
    def reference(self, experiment_context):
        return run_fleet(
            experiment_context, MINI_SPEC, MINI_OPTIONS, shard_size=MINI_SHARD_SIZE
        )

    def test_reference_reports_clean_health(self, reference):
        assert reference.health.ok and reference.health.completed == 3
        record = reference.as_record()
        assert record["health"]["failed_shards"] == []
        assert record["max_retries"] == MINI_OPTIONS.max_retries
        assert record["strict"] is False and record["checkpointed"] is False

    def test_chaos_on_first_attempts_is_bit_identical_to_fault_free(
        self, experiment_context, reference
    ):
        # Two of three shards (>= 10%) fail their first attempt; the
        # retried run must converge to the exact fault-free aggregate.
        plan = ChaosPlan(seed=7, rate=0.5, attempts_affected=1)
        assert plan.faulted_shards(3) == (1, 2)
        run = run_fleet(
            experiment_context,
            MINI_SPEC,
            MINI_OPTIONS,
            shard_size=MINI_SHARD_SIZE,
            chaos=plan,
        )
        assert run.aggregate == reference.aggregate
        assert run.health.ok and run.health.retries == 2

    def test_exhausted_shards_degrade_and_are_reported(
        self, experiment_context, reference
    ):
        plan = ChaosPlan(seed=7, rate=0.5, attempts_affected=99)
        run = run_fleet(
            experiment_context,
            MINI_SPEC,
            ExecOptions(backend="thread", max_workers=1, max_retries=1),
            shard_size=MINI_SHARD_SIZE,
            chaos=plan,
        )
        assert run.health.failed_shards == (1, 2)
        # Shard 0's two vehicles still landed.
        assert run.aggregate.total.vehicles == 2
        assert "FAILED" in run.summary()

    def test_strict_fleet_raises(self, experiment_context):
        plan = ChaosPlan(seed=7, rate=0.5, attempts_affected=99)
        with pytest.raises(ShardError):
            run_fleet(
                experiment_context,
                MINI_SPEC,
                ExecOptions(
                    backend="thread", max_workers=1, max_retries=0, strict=True
                ),
                shard_size=MINI_SHARD_SIZE,
                chaos=plan,
            )


class TestCheckpointResume:
    @pytest.fixture(scope="class")
    def reference(self, experiment_context):
        return run_fleet(
            experiment_context, MINI_SPEC, MINI_OPTIONS, shard_size=MINI_SHARD_SIZE
        )

    @pytest.fixture(scope="class")
    def full_checkpoint(self, experiment_context, tmp_path_factory):
        """A checkpoint file holding all three shard aggregates."""
        path = tmp_path_factory.mktemp("ckpt") / "full.json"
        run_fleet(
            experiment_context,
            MINI_SPEC,
            MINI_OPTIONS,
            shard_size=MINI_SHARD_SIZE,
            checkpoint=path,
        )
        return path

    @pytest.fixture(scope="class")
    def fingerprint(self):
        return fleet_fingerprint(MINI_SPEC, MINI_SHARD_SIZE, MINI_OPTIONS.resolved())

    def test_checkpointed_run_matches_uncheckpointed(
        self, experiment_context, reference, full_checkpoint, fingerprint
    ):
        stored = FleetCheckpoint.open(full_checkpoint, fingerprint, 3)
        assert stored.missing == ()
        assert stored.merged() == reference.aggregate

    def test_fully_checkpointed_run_short_circuits(
        self, experiment_context, reference, full_checkpoint
    ):
        resumed = run_fleet(
            experiment_context,
            MINI_SPEC,
            MINI_OPTIONS,
            shard_size=MINI_SHARD_SIZE,
            checkpoint=full_checkpoint,
        )
        assert resumed.aggregate == reference.aggregate
        assert resumed.resumed_shards == 3 and resumed.workers == 0
        assert resumed.checkpointed and resumed.health.ok
        assert "resumed" in resumed.summary()

    def test_chaos_interrupt_then_resume_is_bit_identical(
        self, experiment_context, reference, tmp_path_factory
    ):
        path = tmp_path_factory.mktemp("ckpt") / "interrupted.json"
        plan = ChaosPlan(seed=7, rate=0.5, attempts_affected=99)
        first = run_fleet(
            experiment_context,
            MINI_SPEC,
            ExecOptions(backend="thread", max_workers=1, max_retries=0),
            shard_size=MINI_SHARD_SIZE,
            checkpoint=path,
            chaos=plan,
        )
        assert first.health.failed_shards == (1, 2)
        resumed = run_fleet(
            experiment_context,
            MINI_SPEC,
            MINI_OPTIONS,
            shard_size=MINI_SHARD_SIZE,
            checkpoint=path,
        )
        assert resumed.aggregate == reference.aggregate
        assert resumed.health.ok and resumed.resumed_shards == 1

    @settings(max_examples=5, deadline=None)
    @given(completed=st.sets(st.integers(min_value=0, max_value=2)))
    def test_resume_from_any_interrupt_point_is_bit_identical(
        self,
        experiment_context,
        reference,
        full_checkpoint,
        fingerprint,
        tmp_path_factory,
        completed,
    ):
        # Simulate an interrupt that left exactly `completed` shards in
        # the checkpoint, then resume: the merged aggregate must equal
        # the uninterrupted run's, bit for bit.
        full = FleetCheckpoint.open(full_checkpoint, fingerprint, 3)
        path = (
            tmp_path_factory.mktemp("ckpt-prop")
            / f"partial-{next(self._names)}.json"
        )
        partial = FleetCheckpoint(
            path=path, fingerprint=fingerprint, total_shards=3
        )
        for shard in sorted(completed):
            partial.completed[shard] = full.completed[shard]
        partial.save()
        resumed = run_fleet(
            experiment_context,
            MINI_SPEC,
            MINI_OPTIONS,
            shard_size=MINI_SHARD_SIZE,
            checkpoint=path,
        )
        assert resumed.aggregate == reference.aggregate
        assert resumed.resumed_shards == len(completed)

    _names = count()

    def test_mismatched_fingerprint_is_rejected(self, full_checkpoint):
        with pytest.raises(ConfigError, match="different run configuration"):
            FleetCheckpoint.open(full_checkpoint, "deadbeef", 3)

    def test_mismatched_shard_count_is_rejected(self, full_checkpoint, fingerprint):
        with pytest.raises(ConfigError, match="shards"):
            FleetCheckpoint.open(full_checkpoint, fingerprint, 5)

    def test_corrupt_checkpoint_is_rejected(self, tmp_path):
        garbage = tmp_path / "ckpt.json"
        garbage.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="unreadable"):
            FleetCheckpoint.open(garbage, "fp", 3)

    def test_fingerprint_binds_spec_shards_and_engine_knobs(self):
        base = fleet_fingerprint(MINI_SPEC, 2, MINI_OPTIONS.resolved())
        assert fleet_fingerprint(MINI_SPEC, 3, MINI_OPTIONS.resolved()) != base
        other_spec = FleetSpec(
            name="chaos-mini", size=4, seed=7, scenarios=("baseline-dos",)
        )
        assert fleet_fingerprint(other_spec, 2, MINI_OPTIONS.resolved()) != base
        # Backend and worker count are explicitly NOT bound: results
        # are bit-identical across them, so resumes may switch.
        repooled = ExecOptions(backend="process", max_workers=4).resolved()
        assert fleet_fingerprint(MINI_SPEC, 2, repooled) == base


class TestSweepHealth:
    def test_sweep_reports_health_and_resolved_options(self, experiment_context):
        result = run_campaign_sweep(
            experiment_context,
            scenarios=["baseline-dos"],
            duration=0.3,
            options=ExecOptions(backend="thread", max_workers=1),
        )
        assert result.health.ok and result.health.completed == 1
        assert result.options is not None
        record = result.options.as_record()
        assert record["max_retries"] == 2 and record["strict"] is False
