"""The deterministic, seed-driven fault-injection campaign runner.

A campaign answers the classic dependability question for this machine:
*when live state is corrupted, how does the run end?*  The procedure is
the standard SWIFI loop, built on this repo's checkpoint/rollback and
watchdog primitives:

1. **Golden run.**  Build the workload once, checkpoint the pre-run state
   (machine + kernel), run fault-free, and record the observable baseline:
   exit status, stdout, instruction count, the set of touched data pages,
   and per-PC / per-syscall retirement counts for trigger sampling.
2. **Plan.**  From ``random.Random(seed)``, draw the full list of
   ``(Trigger, FaultSpec)`` pairs up front.  The plan depends only on the
   seed and the golden run, never on trial outcomes, so a campaign is
   bit-for-bit reproducible.
3. **Trials.**  For each plan entry: roll back to the pre-run checkpoint
   (cheap -- the simulator and its decoded program are reused), arm the
   watchdog (instruction budget = ``slack`` x golden length, plus a
   generous wall-clock safety net), arm the fault, run, classify:

   =========  ==========================================================
   detected   the taintedness detector raised a security exception
   crash      a machine-level fault (bad fetch, bad size, wild syscall)
   timeout    the watchdog converted a runaway trial into ExecutionLimit
   masked     clean exit, observable output identical to golden
   sdc        clean exit, observable output differs (silent corruption)
   =========  ==========================================================

4. **Recovery.**  On an abnormal ending the configured policy runs:
   ``halt`` keeps the verdict, ``kill-process`` records the process as
   terminated, ``rollback-retry`` restores the pre-run checkpoint and
   re-executes *without* the fault -- the trial is ``recovered`` when the
   retry reproduces the golden observable exactly, which doubles as a
   proof that rollback really does restore a clean pre-fault state.

Determinism: timeouts are decided by the deterministic instruction budget
(the wall-clock deadline is a safety net orders of magnitude looser), all
sampling pools are sorted, and the digest over the trial records makes two
same-seed campaigns comparable with one string equality.

The pipeline is split into three phases with a public method each --
:meth:`FaultCampaign.build_plan` (golden run + seeded plan),
:meth:`FaultCampaign.run_trial` (one rollback-replay-classify step), and
:meth:`FaultCampaign.merge` (index-sorted record assembly) -- so the
process-pool engine in :mod:`repro.parallel` can fan chunked plan slices
out to workers and still produce the exact artifacts serial execution
does.  ``CampaignConfig.workers`` selects the engine: ``1`` (default)
runs the untouched serial loop, ``N > 1`` runs N pool workers, ``0``
means every available core.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..builder import build_machine
from ..defenses.alerts import SecurityException
from ..core.events import (
    FaultInjected,
    InstructionRetired,
    SyscallEnter,
    SyscallExit,
    TaintPropagated,
    TrialCompleted,
)
from ..defenses.policy import PointerTaintPolicy
from ..cpu.machine import ExecutionLimit, SimulatorFault
from ..cpu.pipeline import Pipeline
from ..cpu.simulator import Simulator
from ..kernel.syscalls import Kernel, SyscallFault
from ..libc.build import build_program
from ..mem.layout import PAGE_SIZE
from ..mem.tainted_memory import MemoryFault
from .checkpoint import Checkpoint
from .faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    STATE_FAULT_KINDS,
    SYSCALL_FAULT_KINDS,
    SYSCALL_FAULT_MODES,
    apply_state_fault,
)
from .triggers import Trigger
from .workloads import Workload

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "FaultCampaign",
    "GoldenRun",
    "OUTCOME_CRASH",
    "OUTCOME_DETECTED",
    "OUTCOME_MASKED",
    "OUTCOME_SDC",
    "OUTCOME_TIMEOUT",
    "OUTCOMES",
    "RECOVERY_POLICIES",
    "TrialRecord",
]

OUTCOME_DETECTED = "detected"
OUTCOME_MASKED = "masked"
OUTCOME_SDC = "sdc"
OUTCOME_CRASH = "crash"
OUTCOME_TIMEOUT = "timeout"

#: The complete trial-outcome taxonomy (every trial lands in exactly one).
OUTCOMES = (
    OUTCOME_DETECTED,
    OUTCOME_MASKED,
    OUTCOME_SDC,
    OUTCOME_CRASH,
    OUTCOME_TIMEOUT,
)

#: What to do after an abnormal trial ending (detected/crash/timeout).
RECOVERY_POLICIES = ("halt", "kill-process", "rollback-retry")

#: Instruction budget for the golden run (a broken workload must not hang
#: the campaign either).
_GOLDEN_BUDGET = 20_000_000

#: Epoch-ladder tuning: initial capture stride (instructions), the target
#: ladder depth (thinning kicks in at twice this), and a hard byte budget
#: on frozen epoch pages so pathological workloads (huge dirty footprints)
#: simply stop laddering instead of exhausting memory.
_EPOCH_STRIDE = 64
_EPOCH_MAX = 16
_EPOCH_BYTE_BUDGET = 32 << 20


@dataclass(frozen=True)
class _Epoch:
    """One intermediate golden-run state, delta-encoded against the
    pre-run checkpoint.

    Captured for free while the golden run executes (the run pauses at
    stride boundaries; no extra execution happens), keyed by the absolute
    retired-instruction count.  ``data_delta``/``shadow_delta`` hold
    frozen copies of exactly the pages the golden prefix dirtied or
    materialized -- the pre-run checkpoint's live dirty sets at capture
    time -- so fast-forwarding a freshly rolled-back machine to this
    epoch is one slice-copy per delta page.
    """

    instructions: int
    pc: int
    regs: Tuple
    reg_taints: Tuple[int, ...]
    caches: Optional[Tuple]
    stats: object
    recent_pcs: Tuple[int, ...]
    alerts: Tuple
    watchpoints: Tuple
    data_delta: Dict[int, bytes]
    shadow_delta: Dict[int, bytes]
    tainted_pages: frozenset
    tainted_bytes_written: int
    kernel: object
    nbytes: int


@dataclass(frozen=True)
class TrialRecord:
    """One classified fault trial."""

    index: int
    trigger: str
    fault: str
    outcome: str
    detail: str
    instructions: int
    injected: bool
    recovered: Optional[bool] = None

    def key(self) -> Tuple:
        """The fields covered by the campaign digest."""
        return (
            self.index,
            self.trigger,
            self.fault,
            self.outcome,
            self.detail,
            self.instructions,
            self.injected,
            self.recovered,
        )


@dataclass
class CampaignConfig:
    """Knobs for one campaign.

    ``instruction_slack`` scales the golden instruction count into the
    per-trial watchdog budget; ``max_seconds`` is a wall-clock *safety
    net* that should never fire before the instruction budget on a
    healthy host (timeout classification stays deterministic).
    """

    seed: int = 7
    trials: int = 100
    engine: str = "functional"  # | "pipeline"
    recovery: str = "halt"
    use_caches: bool = False
    #: Run the machine's taint plane in label mode.  Orthogonal to the
    #: trial outcomes: the campaign digest is identical in both modes
    #: (alert strings and fault details never include provenance).
    taint_labels: bool = False
    #: Fused superblock dispatch (see :mod:`repro.cpu.superblock`).
    #: Orthogonal to trial outcomes: the campaign digest is identical
    #: with the tier on or off (asserted in tests and CI).
    superblocks: bool = True
    instruction_slack: float = 4.0
    max_seconds: float = 30.0
    reuse_snapshots: bool = True
    #: Resolve insn/pc triggers to exact retirement indices against the
    #: golden run and execute the pre-fire prefix as one fused
    #: ``run(max_instructions=fire_at)`` burst instead of single-stepping
    #: under an InstructionRetired subscriber.  Sound because the prefix
    #: is deterministic and identical to the golden run until the fault
    #: lands; automatically bypassed when event subscribers, the pipeline
    #: engine, or deeper-than-recorded pc occurrences need the legacy
    #: injector.  Digest-identical either way (asserted in CI).
    fast_triggers: bool = True
    #: Process-pool width: ``1`` = serial (the default, legacy loop
    #: untouched), ``N > 1`` = that many pool workers, ``0`` = one per
    #: available core.  The campaign digest is identical for every value.
    workers: int = 1
    kinds: Tuple[str, ...] = FAULT_KINDS

    def __post_init__(self) -> None:
        if self.engine not in ("functional", "pipeline"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.recovery not in RECOVERY_POLICIES:
            raise ValueError(f"unknown recovery policy {self.recovery!r}")
        unknown = set(self.kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}")
        if not self.kinds:
            raise ValueError("campaign needs at least one fault kind")
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = one per core)")

    def resolved_workers(self) -> int:
        """The effective pool width (``0`` resolved to the core count)."""
        if self.workers == 0:
            return os.cpu_count() or 1
        return self.workers


#: How many retirement indices the golden run records per PC.  Matches
#: the plan's occurrence cap (``min(pc_count, 16)``), so every seeded pc
#: trigger resolves to an exact fire index; explicit schedules asking
#: for deeper occurrences fall back to the legacy event injector.
_PC_VISIT_DEPTH = 16


@dataclass(frozen=True)
class GoldenRun:
    """Observable baseline of the fault-free run."""

    exit_status: int
    stdout: str
    instructions: int
    data_pages: Tuple[int, ...]
    pc_counts: Tuple[Tuple[int, int], ...]
    syscall_counts: Tuple[Tuple[int, int], ...]
    #: Per PC, the 1-based retirement indices of its first
    #: ``_PC_VISIT_DEPTH`` visits -- what lets the fast-trigger path turn
    #: a ``pc@occurrence`` trigger into an exact instruction budget.
    pc_visit_indices: Tuple[Tuple[int, Tuple[int, ...]], ...] = ()

    @property
    def observable(self) -> Tuple[int, str]:
        return (self.exit_status, self.stdout)


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    workload: str
    config: CampaignConfig
    golden: GoldenRun
    records: List[TrialRecord] = field(default_factory=list)
    elapsed: float = 0.0
    #: Metrics-registry dump attached by :class:`repro.api.Session`
    #: (None when the campaign was not instrumented).
    metrics: Optional[dict] = None
    #: Pool execution summary (``{"workers", "chunks", "wall_s", ...}``)
    #: when the campaign ran on the process-pool engine; None for serial
    #: runs.  Never part of the digest: two campaigns that differ only in
    #: pool width produce byte-identical records.
    parallel: Optional[dict] = None

    @property
    def counts(self) -> Dict[str, int]:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for record in self.records:
            counts[record.outcome] += 1
        return counts

    @property
    def injected_count(self) -> int:
        return sum(1 for r in self.records if r.injected)

    @property
    def recovered_count(self) -> int:
        return sum(1 for r in self.records if r.recovered)

    @property
    def trials_per_second(self) -> float:
        return len(self.records) / self.elapsed if self.elapsed > 0 else 0.0

    def digest(self) -> str:
        """SHA-256 over every trial record: two same-seed campaigns agree
        on this string iff they agree on every classified trial."""
        hasher = hashlib.sha256()
        for record in self.records:
            hasher.update(repr(record.key()).encode())
        return hasher.hexdigest()

    def kind_outcome_matrix(self) -> Dict[str, Dict[str, int]]:
        """fault kind -> outcome -> count."""
        matrix: Dict[str, Dict[str, int]] = {}
        for record in self.records:
            kind = record.fault.split("@")[0]
            row = matrix.setdefault(
                kind, {outcome: 0 for outcome in OUTCOMES}
            )
            row[record.outcome] += 1
        return matrix

    def to_dict(self) -> dict:
        """JSON-ready summary (written by ``repro campaign --json``)."""
        payload = {
            "workload": self.workload,
            "seed": self.config.seed,
            "trials": len(self.records),
            "engine": self.config.engine,
            "recovery": self.config.recovery,
            "use_caches": self.config.use_caches,
            "taint_labels": self.config.taint_labels,
            "golden": {
                "exit_status": self.golden.exit_status,
                "stdout": self.golden.stdout,
                "instructions": self.golden.instructions,
            },
            "counts": self.counts,
            "injected": self.injected_count,
            "recovered": self.recovered_count,
            "digest": self.digest(),
            "elapsed_seconds": round(self.elapsed, 3),
            "trials_per_second": round(self.trials_per_second, 2),
            "records": [
                {
                    "index": r.index,
                    "trigger": r.trigger,
                    "fault": r.fault,
                    "outcome": r.outcome,
                    "detail": r.detail,
                    "instructions": r.instructions,
                    "injected": r.injected,
                    "recovered": r.recovered,
                }
                for r in self.records
            ],
        }
        if self.parallel is not None:
            payload["parallel"] = dict(self.parallel)
        return payload

    def to_json(self) -> dict:
        """Unified result payload (see ``repro.api.validate_result_json``).

        The full per-trial detail stays under ``"stats"`` (the historical
        :meth:`to_dict` shape); ``"digest"`` is surfaced at the top level
        so reproducibility checks need not descend into the stats.
        """
        return {
            "kind": "campaign",
            "detected": self.counts[OUTCOME_DETECTED] > 0,
            "digest": self.digest(),
            "stats": self.to_dict(),
            "metrics": self.metrics if self.metrics is not None else {},
        }


class FaultCampaign:
    """Run one campaign over one workload.

    Args:
        workload: the victim program and its golden input.
        config: campaign knobs.
        schedule: explicit ``(Trigger, FaultSpec)`` pairs overriding the
            seeded plan (used by the engine-agreement tests); ``trials``
            is then ``len(schedule)``.
        instrument: observability hook (used by
            :class:`repro.api.Session`): called with every freshly built
            simulator -- the initial machine and any
            ``reuse_snapshots=False`` rebuild -- so metric observers and
            trace recorders survive machine replacement.
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
            that the process-pool engine fills with ``parallel.*`` pool
            metrics (serial runs never touch it).
    """

    def __init__(
        self,
        workload: Workload,
        config: Optional[CampaignConfig] = None,
        schedule: Optional[Sequence[Tuple[Trigger, FaultSpec]]] = None,
        instrument: Optional[Callable[[Simulator], object]] = None,
        registry=None,
    ) -> None:
        self.workload = workload
        self.config = config if config is not None else CampaignConfig()
        self.schedule = list(schedule) if schedule is not None else None
        self.instrument = instrument
        self.registry = registry
        self.executable = build_program(workload.source)
        self._sim: Optional[Simulator] = None
        self._kernel: Optional[Kernel] = None
        self._checkpoint: Optional[Checkpoint] = None
        self._golden: Optional[GoldenRun] = None
        # Lazy lookup maps for the fast-trigger path (built per process
        # from the golden run on first use).
        self._pc_visit_map: Optional[Dict[int, Tuple[int, ...]]] = None
        self._pc_count_map: Optional[Dict[int, int]] = None
        #: Intermediate golden-run states for prefix fast-forward (empty
        #: when epochs are disabled or inapplicable; see _epochs_enabled).
        self._epoch_list: List[_Epoch] = []

    # ------------------------------------------------------------------
    # machine lifecycle
    # ------------------------------------------------------------------

    def _make_machine(self) -> Tuple[Simulator, Kernel]:
        workload = self.workload
        sim, kernel = build_machine(
            self.executable,
            PointerTaintPolicy(),
            argv=[workload.name, *workload.argv],
            stdin=workload.stdin,
            use_caches=self.config.use_caches,
            taint_labels=self.config.taint_labels,
            superblocks=self.config.superblocks,
        )
        if self.instrument is not None:
            self.instrument(sim)
        return sim, kernel

    def _run_engine(self, sim: Simulator) -> int:
        if self.config.engine == "pipeline":
            return Pipeline(sim).run()
        return sim.run()

    # ------------------------------------------------------------------
    # phase 1: golden run
    # ------------------------------------------------------------------

    def _golden_run(
        self, sim: Simulator, kernel: Kernel
    ) -> GoldenRun:
        pc_counts: Dict[int, int] = {}
        pc_visits: Dict[int, List[int]] = {}
        syscall_counts: Dict[int, int] = {}

        def count_pc(event: InstructionRetired) -> None:
            pc_counts[event.pc] = pc_counts.get(event.pc, 0) + 1
            visits = pc_visits.get(event.pc)
            if visits is None:
                pc_visits[event.pc] = [event.index]
            elif len(visits) < _PC_VISIT_DEPTH:
                visits.append(event.index)

        def count_syscall(event: SyscallEnter) -> None:
            syscall_counts[event.number] = (
                syscall_counts.get(event.number, 0) + 1
            )

        sim.events.subscribe(InstructionRetired, count_pc)
        sim.events.subscribe(SyscallEnter, count_syscall)
        sim.arm_watchdog(
            max_instructions=_GOLDEN_BUDGET,
            max_seconds=self.config.max_seconds,
        )
        try:
            if self._epochs_enabled():
                exit_status = self._golden_run_with_epochs(sim, kernel)
            else:
                exit_status = self._run_engine(sim)
        except Exception as exc:
            raise ValueError(
                f"workload {self.workload.name!r} golden run must exit "
                f"cleanly, got {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            sim.disarm_watchdog()
            sim.events.unsubscribe(InstructionRetired, count_pc)
            sim.events.unsubscribe(SyscallEnter, count_syscall)

        text_start = self.executable.text_base & ~(PAGE_SIZE - 1)
        text_end = self.executable.text_base + 4 * len(
            self.executable.text_words
        )
        data_pages = tuple(
            page
            for page in sim.memory.page_addresses()
            if not text_start <= page < text_end
        )
        return GoldenRun(
            exit_status=exit_status,
            stdout=kernel.process.stdout_text,
            instructions=sim.stats.instructions,
            data_pages=data_pages,
            pc_counts=tuple(sorted(pc_counts.items())),
            syscall_counts=tuple(sorted(syscall_counts.items())),
            pc_visit_indices=tuple(
                sorted((pc, tuple(v)) for pc, v in pc_visits.items())
            ),
        )

    # ------------------------------------------------------------------
    # the epoch ladder (golden-prefix fast-forward for fast triggers)
    # ------------------------------------------------------------------

    def _epochs_enabled(self) -> bool:
        """May this campaign build and use the epoch ladder?

        The ladder fast-forwards trials *past* the deterministic golden
        prefix, so it needs a reused checkpoint (the deltas are keyed by
        its live dirty sets) and the fast-trigger path (legacy event
        injectors count occurrences from run start).
        Label mode is excluded: an epoch would also have to carry a
        label-table segment to replay; those campaigns keep the plain
        fast-trigger path, whose digests are pinned identical anyway.
        """
        config = self.config
        return (
            config.fast_triggers
            and config.reuse_snapshots
            and config.engine == "functional"
            and not config.taint_labels
        )

    def _golden_run_with_epochs(self, sim: Simulator, kernel: Kernel) -> int:
        """Run the golden workload, pausing at stride boundaries to
        capture intermediate states (no instruction executes twice).

        The ladder is geometrically thinned: when it reaches twice the
        target depth, every other epoch is dropped and the stride
        doubles, bounding the ladder at ``2 * _EPOCH_MAX`` entries for a
        golden run of any length.  Capture stops (the run continues
        plain) once the frozen-page byte budget is spent.
        """
        stride = _EPOCH_STRIDE
        epochs: List[_Epoch] = []
        spent = 0
        while True:
            try:
                exit_status = sim.run(max_instructions=stride)
                break
            except ExecutionLimit as exc:
                limit = sim.instruction_limit
                if exc.reason != "instructions" or (
                    limit is not None and sim.stats.instructions >= limit
                ):
                    raise  # a genuine watchdog trip, not a stride pause
                epoch = self._capture_epoch(sim, kernel)
                if spent + epoch.nbytes > _EPOCH_BYTE_BUDGET:
                    stride = _GOLDEN_BUDGET
                    continue
                epochs.append(epoch)
                spent += epoch.nbytes
                if len(epochs) >= 2 * _EPOCH_MAX:
                    epochs = epochs[1::2]
                    stride *= 2
        self._epoch_list = epochs
        return exit_status

    def _capture_epoch(self, sim: Simulator, kernel: Kernel) -> _Epoch:
        """Freeze the current mid-golden state as a delta against the
        pre-run checkpoint's capture."""
        cow = sim.memory._cow
        pages = sim.memory._pages
        taints = sim.memory._taint_pages
        data_delta: Dict[int, bytes] = {}
        for base in cow.data_dirty | cow.fresh:
            page = pages.get(base)
            if page is not None:
                data_delta[base] = bytes(page)
        shadow_delta: Dict[int, bytes] = {}
        for base in cow.shadow_dirty:
            taint = taints.get(base)
            if taint is not None:
                shadow_delta[base] = bytes(taint)
        nbytes = sum(map(len, data_delta.values()))
        nbytes += sum(map(len, shadow_delta.values()))
        return _Epoch(
            instructions=sim.stats.instructions,
            pc=sim.pc,
            regs=sim.regs.snapshot(),
            reg_taints=tuple(sim.plane.reg_taints),
            caches=sim.caches.snapshot() if sim.caches is not None else None,
            stats=sim.stats.clone(),
            recent_pcs=tuple(sim.recent_pcs),
            alerts=tuple(sim.detector.alerts),
            watchpoints=tuple(sim.watchpoints),
            data_delta=data_delta,
            shadow_delta=shadow_delta,
            tainted_pages=frozenset(sim.plane.tainted_pages),
            tainted_bytes_written=sim.memory.tainted_bytes_written,
            kernel=kernel.snapshot(),
            nbytes=nbytes,
        )

    def _apply_epoch(self, sim: Simulator, kernel: Kernel, epoch: _Epoch) -> None:
        """Fast-forward a freshly rolled-back machine to an epoch.

        Every page written here is marked dirty (or fresh) in the active
        delta capture exactly as a trial's own writes would be, so the
        next rollback reverts the fast-forward along with the trial.
        Sound by determinism: the state installed is byte-identical to
        what re-executing the golden prefix would produce.
        """
        memory = sim.memory
        plane = sim.plane
        cow = memory._cow
        pages = memory._pages
        taints = memory._taint_pages
        for base, content in epoch.data_delta.items():
            page = pages.get(base)
            if page is None:
                pages[base] = bytearray(content)
                taints[base] = bytearray(PAGE_SIZE)
                cow.fresh.add(base)
                continue
            if base not in cow.data_dirty:
                cow.data_dirty.add(base)
                if base not in cow.fresh:
                    cow.data_baseline[base] = bytes(page)
            page[:] = content
        for base, content in epoch.shadow_delta.items():
            taint = taints.get(base)
            if taint is None:
                continue
            if base not in cow.shadow_dirty:
                cow.shadow_dirty.add(base)
                if base not in cow.fresh:
                    cow.shadow_baseline[base] = bytes(taint)
            taint[:] = content
        tainted = plane.tainted_pages
        tainted.clear()
        tainted.update(epoch.tainted_pages)
        plane.reg_taints[:] = epoch.reg_taints
        memory.tainted_bytes_written = epoch.tainted_bytes_written
        sim.pc = epoch.pc
        sim.halted = False
        sim.exit_status = None
        sim.regs.restore(epoch.regs)
        if sim.caches is not None and epoch.caches is not None:
            sim.caches.restore(epoch.caches)
        sim.stats.restore(epoch.stats)
        sim.recent_pcs.clear()
        sim.recent_pcs.extend(epoch.recent_pcs)
        sim.detector.alerts[:] = epoch.alerts
        sim.watchpoints.restore(epoch.watchpoints)
        kernel.restore(epoch.kernel)

    def _restore_to_fire_point(
        self,
        sim: Simulator,
        kernel: Kernel,
        checkpoint: Checkpoint,
        fire_at: int,
    ) -> None:
        """Roll back and fast-forward to the deepest epoch at or below
        ``fire_at`` (plain rollback when no epoch qualifies)."""
        best: Optional[_Epoch] = None
        for epoch in self._epoch_list:
            if epoch.instructions <= fire_at:
                best = epoch
            else:
                break
        checkpoint.restore(sim, kernel)
        if best is not None:
            self._apply_epoch(sim, kernel, best)

    # ------------------------------------------------------------------
    # phase 2: the seeded plan
    # ------------------------------------------------------------------

    def _build_plan(
        self, golden: GoldenRun, rng: random.Random
    ) -> List[Tuple[Trigger, FaultSpec]]:
        if self.schedule is not None:
            return list(self.schedule)
        input_numbers = [
            number for number, _ in golden.syscall_counts if number in (3, 64)
        ]
        kinds = [
            kind
            for kind in self.config.kinds
            # Syscall-layer faults need an input syscall to perturb.
            if kind in STATE_FAULT_KINDS or input_numbers
        ]
        if not kinds:
            raise ValueError(
                "no applicable fault kinds: workload performs no input "
                "syscalls and only syscall kinds were requested"
            )
        pcs = [pc for pc, _ in golden.pc_counts]
        pc_count = dict(golden.pc_counts)
        # PC triggers sample *dynamic* occurrences (count-weighted), so a
        # fault is as likely to land in a hot loop as uniform-over-time
        # injection would make it -- the standard SWIFI fault model.
        pc_weights = [pc_count[pc] for pc in pcs]
        kind_weights = [
            3 if kind in STATE_FAULT_KINDS else 1 for kind in kinds
        ]
        plan: List[Tuple[Trigger, FaultSpec]] = []
        for _ in range(self.config.trials):
            kind = rng.choices(kinds, weights=kind_weights)[0]
            if kind in SYSCALL_FAULT_KINDS:
                number = rng.choice(input_numbers)
                occurrence = rng.randint(
                    1, dict(golden.syscall_counts)[number]
                )
                trigger = Trigger("syscall", number, occurrence)
                spec = FaultSpec(kind)
            else:
                if rng.random() < 0.5:
                    trigger = Trigger(
                        "insn", rng.randint(1, golden.instructions)
                    )
                else:
                    pc = rng.choices(pcs, weights=pc_weights)[0]
                    occurrence = rng.randint(1, min(pc_count[pc], 16))
                    trigger = Trigger("pc", pc, occurrence)
                if kind in ("mem", "taint-mem"):
                    page = rng.choice(golden.data_pages)
                    target = page + rng.randrange(PAGE_SIZE)
                    # One or two flipped bits per fault (single-bit upsets
                    # dominate, but multi-bit upsets exist).
                    mask = 1 << rng.randrange(8)
                    if rng.random() < 0.25:
                        mask |= 1 << rng.randrange(8)
                elif kind == "reg":
                    target = rng.randint(1, 31)
                    mask = 1 << rng.randrange(32)
                    if rng.random() < 0.25:
                        mask |= 1 << rng.randrange(32)
                else:  # taint-reg
                    target = rng.randint(1, 31)
                    mask = 1 << rng.randrange(4)
                spec = FaultSpec(kind, target, mask)
            plan.append((trigger, spec))
        return plan

    # ------------------------------------------------------------------
    # phase 3 + 4: trials and recovery
    # ------------------------------------------------------------------

    def _trial_budget(self, golden: GoldenRun) -> int:
        return int(self.config.instruction_slack * golden.instructions) + 10_000

    def _fire_index(
        self, golden: GoldenRun, trigger: Trigger
    ) -> Optional[int]:
        """Resolve an insn/pc trigger to its exact retirement index.

        Sound because the pre-fire prefix of a trial is deterministic and
        identical to the golden run (same checkpoint, fault not yet
        applied), so the N-th visit of a PC retires at the same index it
        did in the golden run.  Returns:

        * the 1-based retirement index the fault fires *after*;
        * ``golden.instructions + 1`` when the trigger never fires in the
          golden prefix (pc absent, or occurrence beyond its golden
          count) -- the trial then runs to a clean halt uninjected,
          exactly like a never-firing legacy injector;
        * ``None`` when the occurrence is beyond the recorded visit depth
          but within the golden count (explicit schedules only) -- the
          caller falls back to the legacy event injector.
        """
        if trigger.kind == "insn":
            return trigger.value
        visits = self._pc_visit_map
        if visits is None:
            visits = dict(golden.pc_visit_indices)
            self._pc_visit_map = visits
            self._pc_count_map = dict(golden.pc_counts)
        indices = visits.get(trigger.value)
        occurrence = trigger.occurrence
        if indices is None or occurrence > self._pc_count_map.get(
            trigger.value, 0
        ):
            return golden.instructions + 1
        if occurrence <= len(indices):
            return indices[occurrence - 1]
        return None

    def _run_trial(
        self,
        sim: Simulator,
        kernel: Kernel,
        golden: GoldenRun,
        trigger: Trigger,
        spec: FaultSpec,
        checkpoint: Optional[Checkpoint] = None,
    ) -> Tuple[str, str, bool]:
        """One faulted execution; returns (outcome, detail, injected).

        When ``checkpoint`` is given the trial performs its own rollback,
        which lets it fast-forward through the epoch ladder instead of
        re-executing the golden prefix; ``None`` means the caller already
        put the machine in the pre-run state (fresh-rebuild benchmarking).
        """
        injector: Optional[FaultInjector] = None
        fire_at: Optional[int] = None
        fast_fired = False
        if (
            trigger.kind != "syscall"
            and self.config.fast_triggers
            and self.config.engine == "functional"
            and not sim.events.subscribers(InstructionRetired)
            and not sim.events.subscribers(FaultInjected)
        ):
            fire_at = self._fire_index(golden, trigger)
        if checkpoint is not None:
            # Epoch fast-forward is only sound when the prefix skip is
            # unobservable: exact fire index known, the ladder belongs to
            # this machine's checkpoint, and nobody is subscribed to the
            # events the skipped prefix would emit.  Syscall triggers
            # (occurrence counting starts at run start) resolve no
            # fire_at and therefore always roll back to the base.
            if (
                fire_at is not None
                and self._epoch_list
                and checkpoint is self._checkpoint
                and not sim.events.subscribers(SyscallEnter)
                and not sim.events.subscribers(SyscallExit)
                and not sim.events.subscribers(TaintPropagated)
            ):
                self._restore_to_fire_point(sim, kernel, checkpoint, fire_at)
            else:
                checkpoint.restore(sim, kernel)
        if trigger.kind == "syscall":
            kernel.syscall_fault = SyscallFault(
                mode=SYSCALL_FAULT_MODES[spec.kind],
                number=trigger.value,
                occurrence=trigger.occurrence,
            )
        elif fire_at is None:
            injector = FaultInjector(sim, trigger, spec)

        def injected_flag() -> bool:
            if fire_at is not None:
                return fast_fired
            return self._fired(injector, kernel)

        # Relative budget: after an epoch fast-forward the machine already
        # stands at ``stats.instructions > 0``, and the watchdog must trip
        # at the same *absolute* retirement index a from-scratch replay
        # would (timeout classification stays deterministic either way).
        sim.arm_watchdog(
            max_instructions=self._trial_budget(golden)
            - sim.stats.instructions,
            max_seconds=self.config.max_seconds,
        )
        try:
            if fire_at is not None:
                # Fast-trigger path: run the deterministic pre-fire prefix
                # as one fused burst (no retirement subscriber, so the
                # superblock tier stays engaged), pause exactly after the
                # fire_at-th retirement, apply the same state mutation the
                # event injector would, and resume under the still-armed
                # watchdog.  A clean halt before fire_at means the trigger
                # never fires (matches a never-firing legacy injector); a
                # halt exactly *at* fire_at still takes the fault, like
                # the retirement event of a halting instruction does.
                paused = False
                try:
                    # fire_at is an absolute retirement index; trials
                    # start from the pre-run checkpoint (instructions=0),
                    # but stay relative for robustness.
                    exit_status = sim.run(
                        max_instructions=fire_at - sim.stats.instructions
                    )
                except ExecutionLimit as exc:
                    if (
                        exc.reason != "instructions"
                        or sim.stats.instructions != fire_at
                    ):
                        raise
                    paused = True
                if sim.stats.instructions >= fire_at:
                    apply_state_fault(spec, sim)
                    fast_fired = True
                if paused:
                    exit_status = self._run_engine(sim)
            else:
                exit_status = self._run_engine(sim)
        except SecurityException as exc:
            return OUTCOME_DETECTED, f"alert: {exc.alert}", injected_flag()
        except (SimulatorFault, MemoryFault) as exc:
            return (
                OUTCOME_CRASH,
                f"{type(exc).__name__}: {exc}",
                injected_flag(),
            )
        except ExecutionLimit as exc:
            return (
                OUTCOME_TIMEOUT,
                f"watchdog[{exc.reason}] after {exc.instructions} "
                f"instructions",
                injected_flag(),
            )
        finally:
            sim.disarm_watchdog()
            if injector is not None:
                injector.detach()
        injected = injected_flag()
        observable = (exit_status, kernel.process.stdout_text)
        if observable == golden.observable:
            return OUTCOME_MASKED, "output identical to golden", injected
        return (
            OUTCOME_SDC,
            f"exit={exit_status} stdout differs from golden",
            injected,
        )

    @staticmethod
    def _fired(injector: Optional[FaultInjector], kernel: Kernel) -> bool:
        if injector is not None:
            return injector.fired
        fault = kernel.syscall_fault
        return bool(fault is not None and fault.fired)

    def _recover(
        self,
        sim: Simulator,
        kernel: Kernel,
        checkpoint: Checkpoint,
        golden: GoldenRun,
        outcome: str,
        detail: str,
    ) -> Tuple[str, Optional[bool]]:
        """Apply the recovery policy after an abnormal trial ending."""
        policy = self.config.recovery
        if policy == "halt" or outcome not in (
            OUTCOME_DETECTED,
            OUTCOME_CRASH,
            OUTCOME_TIMEOUT,
        ):
            return detail, None
        if policy == "kill-process":
            sim.halt(137)
            return detail + "; process killed (exit 137)", None
        # rollback-retry: restore the pre-fault checkpoint and re-execute
        # without the fault.  The fault is gone by construction (the
        # injector detached, the kernel fault is cleared below), so a
        # matching retry proves the rollback restored clean state.
        kernel.syscall_fault = None
        checkpoint.restore(sim, kernel)
        sim.arm_watchdog(
            max_instructions=self._trial_budget(golden),
            max_seconds=self.config.max_seconds,
        )
        try:
            exit_status = self._run_engine(sim)
        except Exception as exc:
            sim.disarm_watchdog()
            return (
                detail + f"; retry failed ({type(exc).__name__})",
                False,
            )
        sim.disarm_watchdog()
        recovered = (exit_status, kernel.process.stdout_text) == (
            golden.observable
        )
        suffix = (
            "; rollback-retry reproduced golden"
            if recovered
            else "; rollback-retry diverged from golden"
        )
        return detail + suffix, recovered

    # ------------------------------------------------------------------
    # the plan / execute / merge contract
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Build the machine, pre-run checkpoint, and golden baseline.

        Idempotent: the first call does the work, later calls are free.
        Every public phase method calls this, so a campaign object can be
        driven piecewise (``build_plan`` in the parent process,
        ``run_trial`` in a pool worker, ``merge`` back in the parent).
        """
        if self._golden is not None:
            return
        self._sim, self._kernel = self._make_machine()
        self._checkpoint = Checkpoint(self._sim, self._kernel)
        self._golden = self._golden_run(self._sim, self._kernel)

    @property
    def golden(self) -> GoldenRun:
        """The golden baseline (prepares the campaign on first access)."""
        self.prepare()
        return self._golden

    def build_plan(self) -> List[Tuple[Trigger, FaultSpec]]:
        """Phase 2 as a standalone step: the full seeded trial plan.

        Depends only on the config seed and the golden run -- never on
        trial outcomes -- so the plan built in a campaign's parent
        process is bit-identical to one any worker would build.
        """
        self.prepare()
        return self._build_plan(self._golden, random.Random(self.config.seed))

    def run_trial(
        self, index: int, trigger: Trigger, spec: FaultSpec
    ) -> TrialRecord:
        """Phase 3+4 for one plan entry: rollback, inject, classify,
        recover.  Stateless between calls (every trial starts from the
        pre-run checkpoint), so any subset of plan entries can run in any
        process in any order."""
        self.prepare()
        sim, kernel = self._sim, self._kernel
        outcome, detail, injected = self._run_trial(
            sim, kernel, self._golden, trigger, spec,
            checkpoint=self._checkpoint,
        )
        instructions = sim.stats.instructions
        detail, recovered = self._recover(
            sim, kernel, self._checkpoint, self._golden, outcome, detail
        )
        kernel.syscall_fault = None
        return TrialRecord(
            index=index,
            trigger=trigger.spec(),
            fault=spec.describe(),
            outcome=outcome,
            detail=detail,
            instructions=instructions,
            injected=injected,
            recovered=recovered,
        )

    def merge(self, records: Sequence[TrialRecord]) -> CampaignResult:
        """Assemble trial records (any order) into a campaign result.

        Records are sorted by plan position, which is what makes the
        pool's completion order irrelevant: the digest hashes records in
        index order regardless of which worker finished when.  Raises if
        the records do not cover the plan exactly once each.
        """
        self.prepare()
        ordered = sorted(records, key=lambda r: r.index)
        indices = [r.index for r in ordered]
        if indices != list(range(len(ordered))):
            missing = sorted(set(range(len(ordered))) - set(indices))
            raise ValueError(
                f"trial records do not cover the plan: expected indices "
                f"0..{len(ordered) - 1}, missing {missing[:8]}"
            )
        return CampaignResult(
            workload=self.workload.name,
            config=self.config,
            golden=self._golden,
            records=list(ordered),
        )

    # ------------------------------------------------------------------
    # the campaign
    # ------------------------------------------------------------------

    def run(self) -> CampaignResult:
        workers = self.config.resolved_workers()
        plan = self.build_plan()
        if workers > 1 and len(plan) > 1:
            return self._run_parallel(plan, workers)
        return self._run_serial(plan)

    def _run_serial(self, plan) -> CampaignResult:
        sim, kernel = self._sim, self._kernel
        checkpoint = self._checkpoint
        golden = self._golden
        result = CampaignResult(
            workload=self.workload.name, config=self.config, golden=golden
        )
        trial_subs = sim.events.subscribers(TrialCompleted)
        start = time.perf_counter()
        for index, (trigger, spec) in enumerate(plan):
            if self.config.reuse_snapshots:
                trial_checkpoint = checkpoint
            else:
                # Benchmark mode: pay the full rebuild (re-decode, re-bind,
                # fresh kernel) every trial instead of one rollback.  The
                # fresh machine already stands at the pre-run state, so
                # the trial performs no rollback of its own.
                sim, kernel = self._make_machine()
                checkpoint = Checkpoint(sim, kernel)
                trial_subs = sim.events.subscribers(TrialCompleted)
                trial_checkpoint = None
            outcome, detail, injected = self._run_trial(
                sim, kernel, golden, trigger, spec,
                checkpoint=trial_checkpoint,
            )
            instructions = sim.stats.instructions
            detail, recovered = self._recover(
                sim, kernel, checkpoint, golden, outcome, detail
            )
            kernel.syscall_fault = None
            record = TrialRecord(
                index=index,
                trigger=trigger.spec(),
                fault=spec.describe(),
                outcome=outcome,
                detail=detail,
                instructions=instructions,
                injected=injected,
                recovered=recovered,
            )
            result.records.append(record)
            if trial_subs:
                sim.events.emit(TrialCompleted(index, outcome, detail))
        result.elapsed = time.perf_counter() - start
        return result

    def _run_parallel(self, plan, workers: int) -> CampaignResult:
        if not self.config.reuse_snapshots:
            raise ValueError(
                "parallel campaigns require reuse_snapshots=True (each "
                "worker rolls its chunk back from one local checkpoint)"
            )
        from ..parallel.engine import run_campaign_chunks

        start = time.perf_counter()
        records, pool_stats = run_campaign_chunks(
            self, plan, workers, registry=self.registry
        )
        result = self.merge(records)
        result.elapsed = time.perf_counter() - start
        result.parallel = dict(pool_stats, wall_s=round(result.elapsed, 4))
        # Replay completion events in plan order: subscribers observe the
        # same TrialCompleted sequence a serial campaign emits.
        if self._sim.events.subscribers(TrialCompleted):
            for record in result.records:
                self._sim.events.emit(
                    TrialCompleted(record.index, record.outcome, record.detail)
                )
        return result
