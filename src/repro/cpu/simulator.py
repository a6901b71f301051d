"""Functional execution engine: fetch -> bound-executor dispatch.

Each text slot is bound on first dispatch by
:func:`repro.cpu.dispatch.bind_slot`, which turns the static
instruction into an executor closure with operand fields, load/store
metadata, branch targets, and the applicable Table 1 taint rule resolved
once.  ``step()``/``run()`` are therefore pure drivers: index the binding
for the current pc (binding it on a miss), call it, account the
retirement.  All ISA semantics, Table 1 propagation, and the section 4.3
dereference checks live in :mod:`repro.cpu.dispatch`; all architectural
state lives in :class:`repro.cpu.machine.MachineState`, which the
cycle-level five-stage model (:mod:`repro.cpu.pipeline`) shares.

Observation happens through the machine's typed event bus
(:mod:`repro.core.events`): subscribe to ``InstructionRetired`` for
tracing, ``TaintedDereference`` for alerts, ``MemoryFaulted`` for faults.
With zero subscribers the engine allocates no event objects.

The SimpleScalar PISA ISA the paper uses has no branch delay slots, and
neither does this machine.
"""

from __future__ import annotations

from collections import defaultdict
from time import monotonic as _monotonic
from typing import Callable, Dict, Optional

from ..core.events import InstructionRetired, MemoryFaulted
from ..defenses.policy import DetectionPolicy
from ..isa.instructions import Instr
from ..isa.program import Executable
from ..mem.tainted_memory import MemoryFault
from .dispatch import bind_program, bind_slot
from .machine import (
    ExecutionLimit,
    MachineState,
    RECENT_PC_DEPTH,
    SimulatorFault,
)
from .superblock import SuperblockCache

__all__ = ["ExecutionLimit", "Simulator", "SimulatorFault"]


class Simulator(MachineState):
    """Functional simulator for one process image.

    Args:
        executable: the program image to load.
        policy: detection policy (defaults to the paper's pointer-taintedness
            policy).
        syscall_handler: callable invoked on ``syscall`` instructions with
            the simulator as argument (normally a :class:`repro.kernel.Kernel`
            bound to a process).
        use_caches: route data accesses through a taint-carrying L1/L2
            hierarchy instead of directly to RAM.
        taint_labels: run the taint plane in provenance-label mode (see
            :mod:`repro.taint.plane`).
        superblocks: fuse straight-line decoded runs into single closures
            (:mod:`repro.cpu.superblock`).  On by default; results are
            byte-identical either way -- the fused tier falls back to
            single-stepping whenever an ``InstructionRetired`` subscriber
            needs per-instruction events.
    """

    def __init__(
        self,
        executable: Executable,
        policy: Optional[DetectionPolicy] = None,
        syscall_handler: Optional[Callable[["Simulator"], None]] = None,
        use_caches: bool = False,
        taint_labels: bool = False,
        superblocks: bool = True,
    ) -> None:
        super().__init__(executable, policy, syscall_handler, use_caches, taint_labels)
        self._trace_hook: Optional[Callable[["Simulator", int, Instr], None]] = None
        self._trace_adapter: Optional[Callable[[InstructionRetired], None]] = None
        #: Per-slot executor bindings, parallel to ``executable.instructions``
        #: (``None`` until the slot's first dispatch).
        self._ops = bind_program(self)
        #: Fused superblock cache (derived from the immutable predecode:
        #: snapshot-safe, flushed only on text-segment writes).
        self.superblocks = SuperblockCache()
        self.superblocks_enabled = bool(superblocks)

    def _on_text_write(self) -> None:
        # Self-modifying-code write: drop every fused block so no fused
        # closure outlives a text write (re-fusion happens lazily at the
        # next dispatch, from the same immutable decode).
        self.superblocks.invalidate()

    # ------------------------------------------------------------------
    # deprecated observation shim (prefer the event bus)
    # ------------------------------------------------------------------

    @property
    def trace_hook(self) -> Optional[Callable[["Simulator", int, Instr], None]]:
        """Deprecated per-instruction hook ``(sim, pc, instr) -> None``.

        Back-compat shim over an ``InstructionRetired`` subscription; new
        code should subscribe to the event bus directly.  Unlike the old
        pre-execution hook, the shim observes *retired* instructions, so a
        faulting or detector-flagged instruction is not reported.
        """
        return self._trace_hook

    @trace_hook.setter
    def trace_hook(
        self, hook: Optional[Callable[["Simulator", int, Instr], None]]
    ) -> None:
        import warnings

        warnings.warn(
            "Simulator.trace_hook is deprecated; subscribe to "
            "InstructionRetired on the event bus instead",
            DeprecationWarning,
            stacklevel=2,
        )
        if self._trace_adapter is not None:
            self.events.unsubscribe(InstructionRetired, self._trace_adapter)
            self._trace_adapter = None
        self._trace_hook = hook
        if hook is not None:
            def adapter(event: InstructionRetired, _hook=hook) -> None:
                _hook(self, event.pc, event.instr)

            self._trace_adapter = self.events.subscribe(
                InstructionRetired, adapter
            )

    # ------------------------------------------------------------------
    # execution loop
    # ------------------------------------------------------------------

    def fetch(self, pc: int) -> Instr:
        index = (pc - self._text_base) >> 2
        if pc & 3 or not 0 <= index < len(self._instructions):
            fault = SimulatorFault(
                f"instruction fetch from {pc:#010x} (outside text segment)"
            )
            fault_subs = self.events.subscribers(MemoryFaulted)
            if fault_subs:
                self.events.emit(MemoryFaulted(pc, str(fault)))
            raise fault
        return self._instructions[index]

    def run(self, max_instructions: int = 50_000_000) -> int:
        """Run until exit or alert; returns the process exit status.

        Raises :class:`SecurityException` when the detector fires and
        :class:`ExecutionLimit` when the instruction budget -- the smaller
        of ``max_instructions`` and any machine-level watchdog limit armed
        via :meth:`~repro.cpu.machine.MachineState.arm_watchdog` -- is
        exhausted, or when an armed wall-clock deadline passes (checked
        every 2048 instructions to keep the hot path cheap).

        With :attr:`superblocks_enabled` (the default) dispatch runs
        through the fused superblock tier; otherwise the classic
        one-closure-per-instruction loop.  Both produce byte-identical
        architectural results, statistics, and events.  Like ``self.pc``,
        the instruction mix (``stats.by_mnemonic``/``by_class``) and
        ``superblocks.hits`` are settled when the call returns or raises.
        """
        if self.superblocks_enabled:
            return self._run_fused(max_instructions)
        return self._run_unfused(max_instructions)

    def _run_unfused(self, max_instructions: int) -> int:
        """The classic per-instruction loop (also the semantic reference
        the fused tier's single-step fallback replicates exactly); the
        mix is tallied per slot and folded when the call ends."""
        ops = self._ops
        count = len(ops)
        base = self._text_base
        instructions = self._instructions
        stats = self.stats
        tally = defaultdict(int)
        recent = self.recent_pcs
        bus = self.events
        retired_subs = bus.subscribers(InstructionRetired)
        fault_subs = bus.subscribers(MemoryFaulted)
        pc = self.pc
        budget = max_instructions
        limit = self.instruction_limit
        if limit is not None:
            budget = min(budget, max(0, limit - stats.instructions))
        deadline = self.deadline
        monotonic = _monotonic
        try:
            while not self.halted:
                if budget <= 0:
                    raise ExecutionLimit(
                        f"exceeded instruction budget at pc={pc:#x}",
                        reason="instructions",
                        pc=pc,
                        instructions=stats.instructions,
                    )
                if (
                    deadline is not None
                    and stats.instructions & 2047 == 0
                    and monotonic() >= deadline
                ):
                    raise ExecutionLimit(
                        f"watchdog: wall-clock deadline exceeded at "
                        f"pc={pc:#x}",
                        reason="wallclock",
                        pc=pc,
                        instructions=stats.instructions,
                    )
                index = (pc - base) >> 2
                if pc & 3 or index < 0 or index >= count:
                    fault = SimulatorFault(
                        f"instruction fetch from {pc:#010x} (outside text segment)"
                    )
                    if fault_subs:
                        bus.emit(MemoryFaulted(pc, str(fault)))
                    raise fault
                recent.append(pc)
                stats.instructions += 1
                tally[index] += 1
                try:
                    next_pc = (ops[index] or bind_slot(self, ops, index))()
                except (SimulatorFault, MemoryFault) as exc:
                    if fault_subs:
                        bus.emit(MemoryFaulted(pc, str(exc)))
                    raise
                if retired_subs:
                    bus.emit(
                        InstructionRetired(
                            pc, instructions[index], stats.instructions
                        )
                    )
                pc = next_pc
                budget -= 1
        finally:
            _fold_tally(self, tally)
            # On SecurityException / faults the pc stays at the offending
            # instruction; on a clean halt it has advanced past the exit
            # syscall -- same contract as before the decode-once refactor.
            self.pc = pc
        return self.exit_status if self.exit_status is not None else 0

    def _run_fused(self, max_instructions: int) -> int:
        """Superblock-fused dispatch loop.

        Per dispatch: look up (or lazily build) the superblock at the
        current pc and run it as one closure, batching the loop-exit
        checks per block; the mix is tallied per block (a pure burst
        adds its iterations) and folded when the call ends.  Falls back
        to an exact copy of the unfused per-instruction body whenever a
        block cannot run fused: an ``InstructionRetired`` subscriber
        needs per-instruction events (tracing, fault injectors, defense
        comparators; checked first, so such a run builds no block), the
        remaining budget is smaller than the block, or the block is a
        single instruction.  On a mid-block exception the sync closure's
        ``stats.instructions`` updates pinpoint the faulting instruction,
        and partial progress (recent pcs, the tally, ``self.pc``) is
        reconciled to byte-identical unfused state before the exception
        propagates.
        """
        ops = self._ops
        count = len(ops)
        base = self._text_base
        instructions = self._instructions
        stats = self.stats
        tally = defaultdict(int)
        recent = self.recent_pcs
        bus = self.events
        retired_subs = bus.subscribers(InstructionRetired)
        fault_subs = bus.subscribers(MemoryFaulted)
        blocks = self.superblocks.blocks
        lookup = self.superblocks.lookup
        pc = self.pc
        budget = max_instructions
        limit = self.instruction_limit
        if limit is not None:
            budget = min(budget, max(0, limit - stats.instructions))
        deadline = self.deadline
        monotonic = _monotonic
        next_deadline_check = stats.instructions
        try:
            while not self.halted:
                if budget <= 0:
                    raise ExecutionLimit(
                        f"exceeded instruction budget at pc={pc:#x}",
                        reason="instructions",
                        pc=pc,
                        instructions=stats.instructions,
                    )
                if (
                    deadline is not None
                    and stats.instructions >= next_deadline_check
                ):
                    next_deadline_check = stats.instructions + 2048
                    if monotonic() >= deadline:
                        raise ExecutionLimit(
                            f"watchdog: wall-clock deadline exceeded at "
                            f"pc={pc:#x}",
                            reason="wallclock",
                            pc=pc,
                            instructions=stats.instructions,
                        )
                index = (pc - base) >> 2
                if pc & 3 or index < 0 or index >= count:
                    fault = SimulatorFault(
                        f"instruction fetch from {pc:#010x} (outside text segment)"
                    )
                    if fault_subs:
                        bus.emit(MemoryFaulted(pc, str(fault)))
                    raise fault
                if retired_subs:
                    n = 0
                else:
                    block = blocks.get(index)
                    if block is None:
                        block = lookup(self, index)
                    n = block.n
                if n < 2 or budget < n:
                    # Single-step fallback: byte-for-byte the unfused body.
                    recent.append(pc)
                    stats.instructions += 1
                    tally[index] += 1
                    try:
                        next_pc = (ops[index] or bind_slot(self, ops, index))()
                    except (SimulatorFault, MemoryFault) as exc:
                        if fault_subs:
                            bus.emit(MemoryFaulted(pc, str(exc)))
                        raise
                    if retired_subs:
                        bus.emit(
                            InstructionRetired(
                                pc, instructions[index], stats.instructions
                            )
                        )
                    pc = next_pc
                    budget -= 1
                    continue
                if block.pure:
                    # Pure blocks cannot raise and observe nothing: let
                    # the closure iterate the block while its terminator
                    # branches back to the entry (one exit check per
                    # iteration), then account for the whole burst.
                    max_iters = budget // n
                    if deadline is not None and n * max_iters > 2048:
                        # Keep the unfused loop's ~2048-instruction
                        # wall-clock check cadence.
                        max_iters = max(1, 2048 // n)
                    next_pc, iters = block.fn(max_iters)
                    tally[block.mix] += iters
                    executed = n * iters
                    stats.instructions += executed
                    if executed >= RECENT_PC_DEPTH:
                        recent.extend(block.loop_tail)
                    else:
                        recent.extend(block.pcs * iters)
                    pc = next_pc
                    budget -= executed
                    continue
                n0 = stats.instructions
                try:
                    next_pc = block.fn()
                except BaseException as exc:
                    # The sync closure advanced stats.instructions before
                    # each op, so it names the faulting slot.
                    k = stats.instructions - n0 - 1
                    if 0 <= k < n:
                        recent.extend(block.pcs[: k + 1])
                        for slot in range(index, index + k + 1):
                            tally[slot] += 1
                        pc = block.pcs[k]
                        if fault_subs and isinstance(
                            exc, (SimulatorFault, MemoryFault)
                        ):
                            bus.emit(MemoryFaulted(pc, str(exc)))
                    raise
                recent.extend(block.pcs)
                tally[block.mix] += 1
                pc = next_pc
                budget -= n
        finally:
            _fold_tally(self, tally)
            # Same pc contract as the unfused loop: the offending
            # instruction on faults, past the exit syscall on halt.
            self.pc = pc
        return self.exit_status if self.exit_status is not None else 0

    def step(self) -> None:
        """Execute a single instruction (the pipeline's EX-stage driver)."""
        pc = self.pc
        index = (pc - self._text_base) >> 2
        bus = self.events
        fault_subs = bus.subscribers(MemoryFaulted)
        if pc & 3 or not 0 <= index < len(self._ops):
            fault = SimulatorFault(
                f"instruction fetch from {pc:#010x} (outside text segment)"
            )
            if fault_subs:
                bus.emit(MemoryFaulted(pc, str(fault)))
            raise fault
        stats = self.stats
        instr = self._instructions[index]
        ops = self._ops
        self.recent_pcs.append(pc)
        stats.instructions += 1
        stats.by_mnemonic[instr.name] += 1
        stats.by_class[instr.klass] += 1
        try:
            next_pc = (ops[index] or bind_slot(self, ops, index))()
        except (SimulatorFault, MemoryFault) as exc:
            if fault_subs:
                bus.emit(MemoryFaulted(pc, str(exc)))
            raise
        retired_subs = bus.subscribers(InstructionRetired)
        if retired_subs:
            bus.emit(InstructionRetired(pc, instr, stats.instructions))
        self.pc = next_pc


def _fold_tally(sim: Simulator, tally: Dict) -> None:
    """Add one ``run()`` call's tally -- slot index or block mix to its
    executions, in first-execution order -- to the instruction mix and
    ``superblocks.hits``.  Each block's mix is in first-occurrence order,
    so the counters equal per-instruction updates, key order included.
    A block dropped from the cache mid-run still counts under its mix,
    which its rebuilt successor reuses, so the tally holds at most one
    key per text slot and per block entry, and no fused closure."""
    by_mnemonic = sim.stats.by_mnemonic
    by_class = sim.stats.by_class
    hits = 0
    for key, times in tally.items():
        if isinstance(key, int):
            instr = sim._instructions[key]
            by_mnemonic[instr.name] += times
            by_class[instr.klass] += times
            continue
        hits += times
        for name, cnt in key.names:
            by_mnemonic[name] += cnt * times
        for klass, cnt in key.classes:
            by_class[klass] += cnt * times
    sim.superblocks.hits += hits
