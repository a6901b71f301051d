"""The process pool: chunked fan-out, crash retry, deterministic merge.

Two layers live here.  :func:`fan_out` is the generic engine: it submits
picklable tasks to a ``ProcessPoolExecutor``, collects results *keyed by
task position* (completion order never matters), retries any failed task
once serially in the parent, and reports pool activity into a
:class:`~repro.obs.metrics.MetricsRegistry`.  On top of it,
:func:`run_campaign_chunks` executes a fault campaign's plan in
contiguous slices: each worker process obtains a campaign for the
workload exactly once -- inheriting the parent's prepared machine when
the pool forks, rebuilding it otherwise -- and then rollback-replays its
chunk locally through :meth:`~repro.fault.campaign.FaultCampaign.run_trial`,
reusing the existing :mod:`repro.fault.checkpoint` bundle.  The bundle
is a copy-on-write *delta* checkpoint by default: the fork inherits the
parent's capture (baseline pages are immutable ``bytes``, shared
OS-level until a worker dirties them), and every per-trial rollback in
a worker rewrites only the pages its own trial touched.  Workers never
share mutable capture state -- after the fork each process owns an
independent copy of the dirty-tracking sets, so delta restores in one
worker are invisible to every other.

Determinism argument, in one paragraph: the plan is built in the parent
from the seed and golden run only; every chunk is a contiguous slice of
that plan; each trial record carries its plan index; each trial starts
from the pre-run checkpoint of a machine whose construction is itself
deterministic; and the merge sorts by index.  Therefore worker count,
chunk boundaries, scheduling order, and crash-retry placement cannot
change a single record -- the campaign digest is byte-identical for
``workers`` in ``{1, 2, 8, ...}``.

Crash semantics: a worker that dies (or a chunk that raises) marks its
chunk failed; after the pool drains, failed chunks re-execute serially
in the parent process.  Only if that retry also fails does the engine
raise :class:`ParallelExecutionError` naming the chunk and cause.  A
``KeyboardInterrupt`` cancels queued chunks and re-raises promptly
(in-flight trials are bounded by the campaign watchdog), so the engine
never hangs.

Test seam: setting the ``REPRO_PARALLEL_POISON_INDEX`` environment
variable makes pool *workers* (never the parent) kill themselves with
``os._exit`` when they reach that plan index -- the harness's own
fault-injection hook, used by the worker-crash tests to prove the
retry-and-merge path preserves the digest.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from ..fault.campaign import FaultCampaign, TrialRecord
from ..fault.faults import FaultSpec
from ..fault.triggers import Trigger
from ..fault.workloads import Workload

__all__ = [
    "ChunkOutcome",
    "ChunkTask",
    "FanOutInfo",
    "ParallelExecutionError",
    "fan_out",
    "plan_chunks",
    "resolve_workers",
    "run_campaign_chunks",
]

#: Target chunks per worker: >1 so a straggler chunk load-balances, small
#: enough that per-chunk dispatch overhead stays negligible.
CHUNKS_PER_WORKER = 4

#: Environment variable naming a plan index at which a pool *worker*
#: (never the parent) exits abruptly -- the crash-path test seam.
POISON_ENV = "REPRO_PARALLEL_POISON_INDEX"

#: True only inside pool worker processes (set by the pool initializer).
_IN_WORKER = False

#: ``(campaign_key, campaign)`` of the parent's prepared campaign.  Set
#: before the pool is created so fork-started workers inherit the built
#: machine (decode, bindings, checkpoint) instead of rebuilding it; also
#: what makes the parent's serial retry path reuse its own machine.
_FORK_CAMPAIGN: Optional[Tuple[tuple, FaultCampaign]] = None

#: Per-process campaign cache for spawn-started (or workload-switching)
#: workers: one golden rebuild per (workload, config) per process.
_WORKER_CAMPAIGNS: dict = {}


class ParallelExecutionError(RuntimeError):
    """A chunk failed in a worker *and* in the serial in-parent retry."""

    def __init__(self, task_index: int, cause: BaseException) -> None:
        super().__init__(
            f"chunk {task_index} failed in a pool worker and again in the "
            f"serial in-parent retry: {type(cause).__name__}: {cause}"
        )
        self.task_index = task_index
        self.cause = cause


@dataclass(frozen=True)
class FanOutInfo:
    """What one :func:`fan_out` call did (for stats and pool metrics)."""

    workers: int
    tasks: int
    start_method: str
    worker_crashes: int = 0
    retried_tasks: int = 0


def resolve_workers(workers: int) -> int:
    """``0`` means one worker per available core; otherwise identity."""
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = one per core)")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def plan_chunks(
    n_items: int, workers: int, chunks_per_worker: int = CHUNKS_PER_WORKER
) -> List[Tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous ``(start, stop)`` slices.

    At most ``workers * chunks_per_worker`` chunks, each non-empty, in
    index order, covering every item exactly once -- the chunking is a
    pure function of ``(n_items, workers)``, so the work distribution is
    itself reproducible.
    """
    if n_items <= 0:
        return []
    if workers < 1:
        raise ValueError("plan_chunks needs at least one worker")
    n_chunks = min(n_items, max(1, workers * chunks_per_worker))
    base, extra = divmod(n_items, n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        stop = start + base + (1 if i < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks


#: Signals that interrupt a fan-out (``cli._run_interruptible`` turns
#: SIGTERM into ``KeyboardInterrupt``).
_INTERRUPTS = {signal.SIGINT, signal.SIGTERM}


def _pool_initializer() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # fan_out forks its workers with the interrupts blocked.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _INTERRUPTS)


def _pool_context():
    """Prefer ``fork`` (workers inherit the parent's built campaign and
    warm toolchain caches); fall back to ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def fan_out(
    func: Callable,
    tasks: Sequence,
    workers: int,
    registry=None,
    metric_prefix: str = "parallel",
) -> Tuple[List, FanOutInfo]:
    """Run ``func(task)`` for every task, results in task order.

    ``func`` and every task must be picklable (``func`` is resolved by
    module path in spawn workers).  Failed tasks -- a raised exception or
    a worker process dying mid-chunk -- are retried once serially in the
    parent after the pool drains; a second failure raises
    :class:`ParallelExecutionError`.  With ``workers <= 1`` (or a single
    task) everything runs in-parent with no pool at all.

    When ``registry`` is given, the pool reports
    ``{prefix}.workers`` / ``{prefix}.chunks`` gauges, a
    ``{prefix}.tasks.dispatched`` counter, and
    ``{prefix}.worker_crashes`` / ``{prefix}.chunk_retries`` counters.
    """
    tasks = list(tasks)
    workers = min(resolve_workers(workers), max(1, len(tasks)))
    ctx = _pool_context()
    info_kwargs = {
        "workers": workers,
        "tasks": len(tasks),
        "start_method": ctx.get_start_method(),
    }
    results: List = [None] * len(tasks)
    if workers <= 1 or len(tasks) <= 1:
        for i, task in enumerate(tasks):
            results[i] = func(task)
        info = FanOutInfo(**info_kwargs)
        _record_pool_metrics(registry, metric_prefix, info)
        return results, info

    crashes = 0
    failed: List[int] = []
    pool = ProcessPoolExecutor(
        max_workers=workers, mp_context=ctx, initializer=_pool_initializer
    )
    # The first submit forks the workers before it starts the manager
    # thread that shutdown joins: an interrupt in between leaves a pool
    # that can be neither joined nor stopped.  Block interrupts until every
    # task is submitted; one that arrived meanwhile is raised on unblocking.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _INTERRUPTS)
    try:
        futures = {
            pool.submit(func, task): i for i, task in enumerate(tasks)
        }
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for future in as_completed(futures):
            index = futures[future]
            exc = future.exception()
            if exc is None:
                results[index] = future.result()
            else:
                # BrokenProcessPool (a worker died) poisons every pending
                # future; each affected task lands here and is retried
                # below.  Plain exceptions get the same retry.
                failed.append(index)
                if isinstance(exc, BrokenProcessPool):
                    crashes += 1
    finally:
        # Reap the pool before restoring the mask: a submit that raised
        # leaves interrupts blocked, and one pending is raised on restore.
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    for index in sorted(failed):
        try:
            results[index] = func(tasks[index])
        except Exception as exc:
            raise ParallelExecutionError(index, exc) from exc
    info = FanOutInfo(
        worker_crashes=crashes, retried_tasks=len(failed), **info_kwargs
    )
    _record_pool_metrics(registry, metric_prefix, info)
    return results, info


def _record_pool_metrics(registry, prefix: str, info: FanOutInfo) -> None:
    if registry is None:
        return
    registry.gauge(f"{prefix}.workers").set(info.workers)
    registry.gauge(f"{prefix}.chunks").set(info.tasks)
    registry.counter(f"{prefix}.tasks.dispatched").inc(info.tasks)
    if info.worker_crashes:
        registry.counter(f"{prefix}.worker_crashes").inc(info.worker_crashes)
    if info.retried_tasks:
        registry.counter(f"{prefix}.chunk_retries").inc(info.retried_tasks)


# ---------------------------------------------------------------------------
# campaign chunk execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChunkTask:
    """One contiguous plan slice, fully picklable."""

    chunk_index: int
    workload: Workload
    config: object  # CampaignConfig (picklable dataclass)
    entries: Tuple[Tuple[int, Trigger, FaultSpec], ...]
    #: The parent's golden ``(exit_status, stdout)``: workers assert their
    #: locally rebuilt golden run reproduces it before replaying trials.
    golden_observable: Tuple[int, str]


@dataclass(frozen=True)
class ChunkOutcome:
    """A finished chunk: its records plus worker accounting."""

    chunk_index: int
    records: Tuple[TrialRecord, ...]
    worker_pid: int
    busy_seconds: float


def _campaign_key(workload: Workload, config) -> tuple:
    """The fields that determine trial execution (pool width excluded)."""
    return (
        workload.name,
        workload.source,
        workload.stdin,
        workload.argv,
        config.engine,
        config.recovery,
        config.use_caches,
        config.taint_labels,
        config.superblocks,
        config.instruction_slack,
        config.max_seconds,
        tuple(config.kinds),
    )


def _obtain_campaign(task: ChunkTask) -> FaultCampaign:
    """The per-process campaign for this chunk's workload+config.

    Resolution order: the fork-inherited parent campaign (zero rebuild),
    then this process's cache, then a fresh build -- so each worker pays
    for golden-machine construction at most once per campaign.
    """
    key = _campaign_key(task.workload, task.config)
    if _FORK_CAMPAIGN is not None and _FORK_CAMPAIGN[0] == key:
        return _FORK_CAMPAIGN[1]
    campaign = _WORKER_CAMPAIGNS.get(key)
    if campaign is None:
        campaign = FaultCampaign(task.workload, task.config)
        _WORKER_CAMPAIGNS[key] = campaign
    return campaign


def _execute_chunk(task: ChunkTask) -> ChunkOutcome:
    """Worker entry point: replay one plan slice against a local machine."""
    campaign = _obtain_campaign(task)
    campaign.prepare()
    if campaign.golden.observable != task.golden_observable:
        raise RuntimeError(
            f"worker golden run diverged from the parent's for workload "
            f"{task.workload.name!r} -- the workload is not deterministic"
        )
    poison = int(os.environ.get(POISON_ENV, "-1"))
    start = perf_counter()
    records = []
    for index, trigger, spec in task.entries:
        if _IN_WORKER and index == poison:
            os._exit(86)  # the crash-path test seam (see module docstring)
        records.append(campaign.run_trial(index, trigger, spec))
    return ChunkOutcome(
        chunk_index=task.chunk_index,
        records=tuple(records),
        worker_pid=os.getpid(),
        busy_seconds=perf_counter() - start,
    )


def run_campaign_chunks(
    campaign: FaultCampaign,
    plan: Sequence[Tuple[Trigger, FaultSpec]],
    workers: int,
    registry=None,
) -> Tuple[List[TrialRecord], dict]:
    """Execute a campaign plan on the pool; records come back unordered
    (the caller's :meth:`~repro.fault.campaign.FaultCampaign.merge` sorts
    by plan index).  Returns ``(records, pool_stats)``."""
    global _FORK_CAMPAIGN
    campaign.prepare()
    key = _campaign_key(campaign.workload, campaign.config)
    # Publish the prepared campaign before the pool forks: workers on
    # fork platforms inherit the built machine; the in-parent retry path
    # always resolves to it.
    _FORK_CAMPAIGN = (key, campaign)
    chunks = plan_chunks(len(plan), workers)
    tasks = [
        ChunkTask(
            chunk_index=ci,
            workload=campaign.workload,
            config=campaign.config,
            entries=tuple(
                (i, plan[i][0], plan[i][1]) for i in range(start, stop)
            ),
            golden_observable=campaign.golden.observable,
        )
        for ci, (start, stop) in enumerate(chunks)
    ]
    outcomes, info = fan_out(
        _execute_chunk, tasks, workers, registry=registry
    )
    records: List[TrialRecord] = []
    for outcome in outcomes:
        records.extend(outcome.records)
    if registry is not None:
        registry.counter("parallel.trials.dispatched").inc(len(plan))
        # Per-worker scoped timers under stable ordinals (pids vary run
        # to run; sorted-pid order does not).
        pids = sorted({o.worker_pid for o in outcomes})
        slots = {pid: slot for slot, pid in enumerate(pids)}
        for outcome in outcomes:
            registry.timer(
                f"parallel.worker.{slots[outcome.worker_pid]}.busy_seconds"
            ).add(outcome.busy_seconds)
    pool_stats = {
        "workers": info.workers,
        "chunks": info.tasks,
        "start_method": info.start_method,
        "worker_crashes": info.worker_crashes,
        "chunk_retries": info.retried_tasks,
    }
    return records, pool_stats
