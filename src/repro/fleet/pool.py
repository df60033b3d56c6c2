"""Fault-tolerant shard execution for every fan-out entry point.

The campaign sweep (PR 5) grew a process-pool pattern worth keeping:
picklable task dataclasses, heavyweight shared state (trained detector
IPs) shipped *once* per worker process via the pool initializer, and
order-stable results whose seeds derive from task identity, never from
execution order.  This module extracts that pattern — and puts a fault
layer under it, because a thousand-shard campaign meets worker crashes,
hangs and transient failures that a bare ``pool.map`` turns into a
lost run:

* :func:`run_sharded` runs a task list one of two ways: in the calling
  thread, shard after shard (the ``"thread"`` backend), or on a process
  pool driven by a submit/wait scheduler.  Both paths give capped
  seed-derived exponential-backoff **retries** and graceful
  degradation — shards that exhaust their retry budget land in a
  :class:`~repro.fleet.health.RunHealth` record instead of raising
  (unless ``strict=True``).  The process pool adds per-shard attempt
  **timeouts** and :class:`~concurrent.futures.process.BrokenProcessPool`
  detection with **pool rebuild** and resubmission of outstanding
  shards.  Results come back index-aligned with the task list
  regardless of completion order.
* :func:`worker_state` gives workers access to the installed state on
  either path.  State is scoped **per run**: an in-process run
  registers it under a run token and binds it to each task via a
  :class:`~contextvars.ContextVar`, so two runs started from different
  caller threads never clobber each other; process workers receive
  their single run's state through the pool initializer.
* :func:`warm_engines` is the standard warmup hook: compile every
  shipped detector IP once per process, before the first task runs.
* Process workers cap their BLAS helper threads at their share of the
  cores (:func:`_install_process_worker`) instead of each keeping one
  per core.

Worker callables and warmup hooks MUST be module-top-level functions
(the ``pickle-safety`` lint rule's contract): the process backend
pickles them by reference.  Deterministic fault injection for tests
and disaster drills plugs in via ``chaos=``
(:class:`~repro.fleet.chaos.ChaosPlan`), applied inside the worker
wrapper so every failure path above is exercised end to end.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextvars import ContextVar
from dataclasses import dataclass, replace
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.fleet.health import RunHealth, ShardedRun, ShardError, ShardFailure
from repro.utils.logutil import get_logger
from repro.utils.rng import new_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.chaos import ChaosPlan

__all__ = ["run_sharded", "warm_engines", "worker_state"]

#: One WARNING per retry, timeout, pool rebuild and exhausted shard; a
#: clean run logs nothing.
_LOG = get_logger("fleet.pool")

#: Exponential-backoff schedule for retries: attempt ``n`` waits a
#: seed-derived uniform draw from ``[window/2, window]`` where
#: ``window = min(CAP, BASE * 2**n)`` — jittered so resubmissions from
#: many failed shards do not stampede the pool in lockstep.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 2.0

#: Per-run worker state, keyed by run token.  In-process runs register
#: the running token directly; each process-pool worker receives its
#: single run's entry through the pool initializer.
_STATES: dict[str, dict[str, Any]] = {}

#: The state bound to the task currently executing on this thread —
#: set by :func:`_run_task` around each worker call, so in-process runs
#: started from different caller threads resolve their own state,
#: never each other's.
_ACTIVE_STATE: ContextVar[dict[str, Any] | None] = ContextVar(
    "repro_fleet_active_state", default=None
)

_RUN_TOKENS = count()


def worker_state() -> dict[str, Any]:
    """The state installed for the current task's run (see :func:`run_sharded`)."""
    active = _ACTIVE_STATE.get()
    if active is not None:
        return active
    # Outside a task (e.g. a warmup hook probing): unambiguous only
    # when exactly one run's state is installed — the process-worker
    # case, where the initializer registered a single entry.
    if len(_STATES) == 1:
        return next(iter(_STATES.values()))
    if not _STATES:
        return {}
    raise RuntimeError(
        "worker_state() called outside a task while multiple runs are "
        "active; read state inside the worker callable"
    )


def warm_engines(state: dict[str, Any]) -> None:
    """Compile every shipped detector IP once, before any task runs."""
    from repro.finn.compiled import engine_for

    for ip in state.get("ips", {}).values():
        engine_for(ip)


def _install_worker_state(token: str, state: dict[str, Any]) -> None:
    """Register ``state`` under ``token`` and run its warmup hook.

    The process-pool initializer (:func:`_install_process_worker`) and
    the in-process registration path share this function, so warmup
    semantics are identical on both paths.
    """
    _STATES[token] = state
    warmup = state.get("warmup")
    if warmup is not None:
        warmup(state)


def _openblas_entry(name: str) -> Any:
    """numpy's linked OpenBLAS ``*openblas_<name>*`` entry point, or None.

    numpy's compiled core links the BLAS it was built against, so the
    symbol resolves through that extension: renamed
    ``scipy_openblas_*64_`` in the wheels, plain ``openblas_*`` in
    builds against a system OpenBLAS.
    """
    try:
        core = importlib.import_module("numpy._core._multiarray_umath")
        library = ctypes.CDLL(core.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            entry = getattr(library, f"{prefix}{name}{suffix}", None)
            if entry is not None:
                return entry
    return None


def _blas_threads() -> int | None:
    """This process's BLAS helper-thread count; None without OpenBLAS."""
    getter = _openblas_entry("get_num_threads")
    if getter is None:
        return None
    getter.argtypes = ()
    getter.restype = ctypes.c_int
    return int(getter())


def _cap_blas_threads(threads: int) -> None:
    """Cap this process's BLAS helper threads; a no-op without OpenBLAS."""
    setter = _openblas_entry("set_num_threads")
    if setter is not None:
        setter.argtypes = (ctypes.c_int,)
        setter.restype = None
        setter(threads)


def _install_process_worker(token: str, state: dict[str, Any], workers: int) -> None:
    """Process-pool initializer: take a share of the cores, then install.

    A forked worker keeps OpenBLAS's default of one helper thread per
    core, so ``workers`` processes would spin ``workers x cores`` BLAS
    threads on ``cores`` cores.  Capping each at ``cores // workers``
    cannot move a result: the compiled engine's matmul operands are
    exact integers, so any thread count or reduction order gives the
    same accumulators.  Only pool workers run this; the calling
    process's BLAS setting is never touched.
    """
    _cap_blas_threads(max(1, (os.cpu_count() or 1) // workers))
    _install_worker_state(token, state)


@dataclass(frozen=True)
class _Submission:
    """One shard attempt in flight: O(1) to pickle, task included."""

    token: str
    index: int
    attempt: int
    task: Any


def _run_task(submission: _Submission) -> Any:
    """Worker-side wrapper: bind run state, inject chaos, run the shard."""
    state = _STATES[submission.token]
    bound = _ACTIVE_STATE.set(state)
    try:
        chaos = state.get("__chaos__")
        if chaos is not None:
            chaos.inject(
                submission.index,
                submission.attempt,
                in_process=bool(state.get("__in_process__", True)),
            )
        worker: Callable[[Any], Any] = state["__worker__"]
        return worker(submission.task)
    finally:
        _ACTIVE_STATE.reset(bound)


def _summarise(exc: BaseException) -> str:
    """One-line ``TypeName: message`` digest for health records."""
    lines = str(exc).strip().splitlines()
    head = lines[0] if lines else ""
    return f"{type(exc).__name__}: {head}"[:200]


def _backoff_delay(retry_seed: int, index: int, attempt: int) -> float:
    """Capped, jittered exponential backoff before retry ``attempt + 1``."""
    window = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2.0**attempt))
    rng = new_rng(retry_seed, f"backoff/shard[{index}]/attempt[{attempt}]")
    return float(rng.uniform(0.5 * window, window))


class _Bookkeeper:
    """Shared retry/failure accounting for the serial and pooled paths."""

    def __init__(
        self,
        shards: int,
        max_retries: int,
        strict: bool,
        retry_seed: int,
        on_result: Callable[[int, Any], None] | None,
    ) -> None:
        self.shards = shards
        self.max_retries = max_retries
        self.strict = strict
        self.retry_seed = retry_seed
        self.on_result = on_result
        self.results: dict[int, Any] = {}
        self.failures: dict[int, ShardFailure] = {}
        self.retries = 0
        self.timeouts = 0
        self.pool_rebuilds = 0

    def succeed(self, index: int, value: Any) -> None:
        self.results[index] = value
        if self.on_result is not None:
            self.on_result(index, value)

    def next_attempt(
        self,
        submission: _Submission,
        error: str,
        cause: BaseException | None,
        *,
        timed_out: bool = False,
    ) -> tuple[float, _Submission] | None:
        """Book one failed attempt: the backed-off resubmission, or None.

        Returns ``(delay_s, retry_submission)`` while the shard has
        retry budget left; past the budget the shard's failure is
        recorded (or, under ``strict``, raised as :class:`ShardError`
        chained from the causing exception).
        """
        if timed_out:
            self.timeouts += 1
        outcome = "timed out" if timed_out else "failed"
        if submission.attempt < self.max_retries:
            self.retries += 1
            delay = _backoff_delay(self.retry_seed, submission.index, submission.attempt)
            _LOG.warning(
                "shard %d attempt %d %s (%s); retrying in %.3fs",
                submission.index,
                submission.attempt,
                outcome,
                error,
                delay,
            )
            return delay, replace(submission, attempt=submission.attempt + 1)
        _LOG.warning(
            "shard %d attempt %d %s (%s); retry budget exhausted",
            submission.index,
            submission.attempt,
            outcome,
            error,
        )
        failure = ShardFailure(
            shard=submission.index, attempts=submission.attempt + 1, error=error
        )
        if self.strict:
            raise ShardError(failure) from cause
        self.failures[submission.index] = failure
        return None

    def finish(self) -> ShardedRun:
        health = RunHealth(
            shards=self.shards,
            completed=len(self.results),
            retries=self.retries,
            timeouts=self.timeouts,
            pool_rebuilds=self.pool_rebuilds,
            failures=tuple(
                self.failures[index] for index in sorted(self.failures)
            ),
        )
        return ShardedRun(
            results=tuple(self.results.get(index) for index in range(self.shards)),
            health=health,
        )


def _run_serial(token: str, ordered: list[Any], book: _Bookkeeper) -> ShardedRun:
    """Run every shard in the calling thread, with retries; timeouts need a pool."""
    for index, task in enumerate(ordered):
        submission = _Submission(token=token, index=index, attempt=0, task=task)
        while True:
            try:
                value = _run_task(submission)
            except Exception as exc:
                scheduled = book.next_attempt(submission, _summarise(exc), exc)
                if scheduled is None:
                    break
                delay, submission = scheduled
                time.sleep(delay)
            else:
                book.succeed(index, value)
                break
    return book.finish()


def _run_pooled(
    token: str,
    shipped: dict[str, Any],
    ordered: list[Any],
    book: _Bookkeeper,
    timeout_s: float | None,
    max_workers: int,
) -> ShardedRun:
    """The process backend's submit/wait scheduler.

    Completion order is decoupled from task order (results reassemble
    by shard index), per-attempt deadlines abandon hung futures and
    resubmit their shards, backed-off retries launch when due, and a
    :class:`BrokenProcessPool` tears the pool down, rebuilds it and
    resubmits every outstanding shard (each outstanding attempt is
    charged one retry, so a deterministic crasher cannot rebuild-loop
    forever).

    Submissions are throttled to free worker slots so a shard's
    ``timeout_s`` clock starts when the attempt *runs*, not when it
    queues — twenty shards behind one worker must not charge shard 19
    for shards 0..18's run time.  An abandoned (timed-out) attempt that
    is still executing keeps its slot accounted as a *zombie* until its
    future resolves, so replacements are not queued behind it.

    A run that ends with no attempt abandoned (no timeout, no rebuild)
    waits for the pool's workers to exit, so none outlives the call;
    any other exit, an exception included, cancels what is queued and
    returns without waiting on a hung or dead worker.
    """

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=_install_process_worker,
            initargs=(token, shipped, max_workers),
        )

    pool = make_pool()
    ready: list[_Submission] = []  # runnable, waiting for a worker slot
    pending: dict[Future[Any], _Submission] = {}
    deadlines: dict[Future[Any], float] = {}
    delayed: list[tuple[float, _Submission]] = []
    zombies: set[Future[Any]] = set()  # abandoned attempts still on a worker

    def submit(submission: _Submission) -> None:
        try:
            future = pool.submit(_run_task, submission)
        except BrokenProcessPool as exc:
            rebuild([submission], exc)
            return
        pending[future] = submission
        if timeout_s is not None:
            deadlines[future] = time.monotonic() + timeout_s

    def rebuild(crashed: list[_Submission], cause: BaseException | None) -> None:
        nonlocal pool
        book.pool_rebuilds += 1
        outstanding = crashed + list(pending.values())
        _LOG.warning(
            "a worker process died; rebuilding the pool (rebuild %d) for shards %s",
            book.pool_rebuilds,
            ", ".join(f"{s.index} (attempt {s.attempt})" for s in outstanding),
        )
        pending.clear()
        deadlines.clear()
        zombies.clear()  # the dead pool's workers are gone, slots with them
        pool.shutdown(wait=False, cancel_futures=True)
        pool = make_pool()
        for submission in outstanding:
            scheduled = book.next_attempt(
                submission, "BrokenProcessPool: a worker process died", cause
            )
            if scheduled is not None:
                delayed.append((time.monotonic() + scheduled[0], scheduled[1]))

    ready.extend(
        _Submission(token=token, index=index, attempt=0, task=task)
        for index, task in enumerate(ordered)
    )
    clean = False  # finished with no attempt abandoned on a worker
    try:
        while ready or pending or delayed:
            now = time.monotonic()
            due = [entry for entry in delayed if entry[0] <= now]
            delayed = [entry for entry in delayed if entry[0] > now]
            ready.extend(submission for _, submission in due)
            zombies = {future for future in zombies if not future.done()}
            while ready and len(pending) + len(zombies) < max_workers:
                submit(ready.pop(0))

            if not pending and not zombies:
                if delayed:  # everything waits on backoff: sleep to the next due
                    time.sleep(max(0.0, min(entry[0] for entry in delayed) - now))
                continue

            horizons = [deadline - now for deadline in deadlines.values()]
            horizons.extend(entry[0] - now for entry in delayed)
            wait_timeout = max(0.0, min(horizons)) if horizons else None
            done, _ = wait(
                list(pending) + list(zombies),
                timeout=wait_timeout,
                return_when=FIRST_COMPLETED,
            )

            crashed: list[_Submission] = []
            crash_cause: BaseException | None = None
            for future in done:
                if future in zombies:
                    zombies.discard(future)  # slot freed; result abandoned
                    continue
                submission = pending.pop(future)
                deadlines.pop(future, None)
                exc = future.exception(timeout=0)
                if exc is None:
                    book.succeed(submission.index, future.result(timeout=0))
                elif isinstance(exc, BrokenProcessPool):
                    crashed.append(submission)
                    crash_cause = exc
                else:
                    scheduled = book.next_attempt(submission, _summarise(exc), exc)
                    if scheduled is not None:
                        delayed.append((time.monotonic() + scheduled[0], scheduled[1]))
            if crashed:
                rebuild(crashed, crash_cause)
                continue

            now = time.monotonic()
            for future in [f for f, d in deadlines.items() if d <= now]:
                if future.done():
                    continue  # completed this instant; next wait collects it
                submission = pending.pop(future)
                deadlines.pop(future)
                if not future.cancel():
                    zombies.add(future)  # running: abandon, but track its slot
                scheduled = book.next_attempt(
                    submission,
                    f"TimeoutError: shard attempt exceeded {timeout_s}s",
                    None,
                    timed_out=True,
                )
                if scheduled is not None:
                    delayed.append((time.monotonic() + scheduled[0], scheduled[1]))
        clean = not (book.timeouts or book.pool_rebuilds)
    finally:
        if clean:
            # Every worker is idle: join them, so none outlives the run.
            pool.shutdown(wait=True)
        else:
            pool.shutdown(wait=False, cancel_futures=True)
    return book.finish()


def run_sharded(
    tasks: Sequence[Any],
    worker: Callable[[Any], Any],
    state: dict[str, Any],
    backend: str,
    max_workers: int,
    *,
    timeout_s: float | None = None,
    max_retries: int = 0,
    strict: bool = True,
    retry_seed: int = 0,
    chaos: "ChaosPlan | None" = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> ShardedRun:
    """Run ``worker`` over ``tasks`` with retries, timeouts and rebuilds.

    ``worker`` must be a module-top-level callable reading its shared
    inputs from :func:`worker_state`; ``state`` is installed before any
    task runs (registered in-process for an in-process run, via the
    pool initializer — pickled once per worker — on the process pool).
    A ``state["warmup"]`` entry, if present, is called with the state
    after installation; :func:`warm_engines` is the standard hook.
    Process workers first cap their BLAS helper threads at
    ``cpu_count // max_workers``.

    Fault tolerance: each shard attempt may take at most ``timeout_s``
    (process pool only — an in-process run cannot preempt itself) and is
    retried up to ``max_retries`` times with capped exponential backoff
    derived from ``retry_seed`` and the shard index.  A shard that
    exhausts its budget lands in the returned
    :class:`~repro.fleet.health.RunHealth` with ``None`` at its result
    slot — unless ``strict=True`` (the default here; the fleet-level
    :class:`~repro.fleet.spec.ExecOptions` defaults to degraded), in
    which case :class:`~repro.fleet.health.ShardError` is raised.  On
    the process backend a dead worker (``BrokenProcessPool``) rebuilds
    the pool and resubmits every outstanding shard.  ``on_result`` is
    invoked in the caller's process as ``(shard_index, result)`` the
    moment each shard completes — the checkpoint hook.  Every retry,
    timeout, pool rebuild and exhausted shard is also logged at WARNING
    on the ``repro.fleet.pool`` logger with its shard index and attempt;
    a clean run logs nothing.

    Results are index-aligned with ``tasks`` whatever order shards
    finish in.  ``backend`` must already be resolved
    (``"thread"``/``"process"``, never ``"auto"`` — see
    :meth:`~repro.fleet.spec.ExecOptions.resolve_backend`).  The pool
    has at most one worker per task, and only ``"process"`` with more
    than one worker starts one; every other run executes its shards one
    after another in the calling thread, whatever ``max_workers`` says.
    ``chaos`` installs a deterministic fault plan
    (:mod:`repro.fleet.chaos`) inside the worker wrapper.
    """
    ordered = list(tasks)
    if not ordered:
        return ShardedRun(results=(), health=RunHealth.clean(0))
    token = f"run-{next(_RUN_TOKENS)}"
    max_workers = min(max_workers, len(ordered))
    pooled = backend == "process" and max_workers > 1
    shipped = dict(state)
    shipped["__worker__"] = worker
    shipped["__in_process__"] = not pooled
    if chaos is not None:
        shipped["__chaos__"] = chaos
    book = _Bookkeeper(
        shards=len(ordered),
        max_retries=max_retries,
        strict=strict,
        retry_seed=retry_seed,
        on_result=on_result,
    )
    if pooled:
        return _run_pooled(token, shipped, ordered, book, timeout_s, max_workers)
    _install_worker_state(token, shipped)
    try:
        return _run_serial(token, ordered, book)
    finally:
        _STATES.pop(token, None)
