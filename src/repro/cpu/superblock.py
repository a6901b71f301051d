"""Superblock fusion: straight-line decoded runs as single closures.

The decode-once dispatch (:mod:`repro.cpu.dispatch`) already resolves
every static instruction to a zero-argument executor closure, but the
functional engine still pays full per-instruction accounting -- budget
check, bounds check, recent-pc append, execution tally -- around every
single call.  This module fuses a straight-line run of executors (a
basic block / superblock keyed by its entry slot, discovered lazily the
first time the engine dispatches to it) into **one** generated closure,
so the engine pays the loop-exit checks once per block instead of once
per instruction.  The instruction mix is tallied per block and folded
once per ``run()``: each block carries a :class:`BlockMix`, and the
engine counts executions under it.

Two fusion flavours, chosen by classifying the block's mnemonics:

* **pure blocks** -- every instruction is an ALU/branch/jump executor
  that cannot raise and never observes ``stats.instructions`` (div-by-
  zero is guarded inside the binder, add/sub are masked, branches only
  compute a target).  The generated closure is a bare unrolled call
  sequence; the engine batches *all* accounting after the block returns.
* **sync blocks** -- the block contains at least one load, store, jr,
  jalr, syscall, break, or unknown executor.  Those can raise
  (``SecurityException``, ``MemoryFault``, ``SimulatorFault``) and
  observe ``stats.instructions`` (alert ``instruction_index``, label
  allocation, the profiler's syscall gap histogram), so the generated
  closure advances ``stats.instructions`` *before* each call -- exactly
  the order the unfused loop uses -- and the engine reconciles partial
  progress from that counter when an exception escapes mid-block.

Every closure is generated with its executors bound as default
arguments (LOAD_FAST at call time) and compiled once per block shape per
process: the code for each (pure/sync, length) pair is compiled on its
first use, and each block is a new function over that shared code
object, with its executors, entry pc and ``stats`` as its defaults.  The
code objects hold no state, so every machine in the process shares them.

**Self-modifying code**: fused closures are derived from the immutable
predecoded program, the same source both engines execute from, so a
store into the text segment cannot change what either tier runs.  The
machine still reports text writes (:meth:`MachineState._on_text_write`)
and the cache drops every fused block, forcing re-fusion from the
decode on the next dispatch -- the invariant "no fused closure outlives
a text write" holds by construction, and results are preserved because
re-fusion reproduces the same composition.  For the same reason the
cache is **snapshot-safe**: checkpoint/rollback never needs to flush it
(see :mod:`repro.fault.checkpoint`).
"""

from __future__ import annotations

import functools
from collections import Counter
from types import CodeType, FunctionType
from typing import Dict, Sequence, Tuple

from ..isa.instructions import Instr
from .dispatch import BINDERS, bind_slot
from .machine import RECENT_PC_DEPTH

__all__ = [
    "MAX_SUPERBLOCK_LEN",
    "PURE_OPS",
    "TERMINATORS",
    "BlockMix",
    "Superblock",
    "SuperblockCache",
    "build_superblock",
]

#: Upper bound on fused run length: bounds generated-code size and the
#: worst-case partial-progress reconciliation on a mid-block exception.
MAX_SUPERBLOCK_LEN = 64

#: Mnemonics whose executors end a superblock: they compute (or refuse
#: to compute) a non-fall-through next pc, or can halt the machine.
TERMINATORS = frozenset({
    "beq", "bne", "blez", "bgtz", "bltz", "bgez",
    "j", "jal", "jr", "jalr", "syscall", "break",
})

#: Mnemonics whose executors cannot raise and never observe
#: ``stats.instructions``: the whole block can run with zero per-op
#: accounting.  Branches/j/jal qualify (pure terminators); loads,
#: stores, jr/jalr (dereference checks), syscall, and break do not.
PURE_OPS = frozenset({
    "add", "addu", "sub", "subu", "or", "nor", "xor", "and",
    "andi", "addi", "addiu", "ori", "xori", "lui",
    "slt", "sltu", "slti", "sltiu",
    "sll", "srl", "sra", "sllv", "srlv", "srav",
    "mult", "multu", "div", "divu", "mfhi", "mflo",
    "beq", "bne", "blez", "bgtz", "bltz", "bgez", "j", "jal",
})


class BlockMix:
    """A block's instruction mix in first-occurrence order (so the
    engine's once-per-run fold keeps per-instruction counters' key
    order), and the key its executions are tallied under."""

    __slots__ = ("names", "classes")

    def __init__(self, instrs: Sequence[Instr]) -> None:
        self.names = tuple(Counter(i.name for i in instrs).items())
        self.classes = tuple(Counter(i.klass for i in instrs).items())


class Superblock:
    """One fused straight-line run, keyed by its entry slot index."""

    __slots__ = ("n", "pure", "fn", "pcs", "mix", "loop_tail")

    def __init__(
        self,
        pure: bool,
        fn,
        pcs: Tuple[int, ...],
        mix: BlockMix,
    ) -> None:
        self.n = len(pcs)
        self.pure = pure
        #: The fused closure.  Pure blocks: ``fn(max_iters) ->
        #: (next_pc, iters)`` (self-iterating, see ``_template``).
        #: Sync blocks: ``fn() -> next_pc`` (single pass).
        self.fn = fn
        self.pcs = pcs
        self.mix = mix
        #: The last RECENT_PC_DEPTH pcs of a long self-loop burst
        #: (cyclic suffix ending at the terminator), precomputed so the
        #: engine can refill the recent-pc ring in one extend.
        repeats = (RECENT_PC_DEPTH - 1) // self.n + 1
        self.loop_tail = (pcs * repeats)[-RECENT_PC_DEPTH:]


#: Globals of every fused closure (the generated code reads none).
_GLOBALS: Dict[str, object] = {}


@functools.lru_cache(maxsize=None)
def _template(pure: bool, n: int) -> CodeType:
    """Code of the fused closure for an ``n``-op pure or sync block.

    Pure: ``fn(max_iters) -> (next_pc, iters)`` runs the block body
    repeatedly while the terminator branches back to the block's own
    entry -- the hot-loop shape -- paying exactly **one loop-exit check
    per iteration**.  Non-looping blocks exit after one pass.
    ``max_iters`` bounds the burst so the engine keeps its budget and
    wall-clock deadline cadence.

    Sync: ``fn() -> next_pc`` advances ``stats.instructions`` before each
    call, mirroring the unfused loop's increment-then-execute order so
    alert indices, label allocation, and exception reconciliation all
    see the exact per-instruction counter.

    Compiled once per shape per process (``cache_info().misses`` counts
    the compiles); each block's arguments are its function's defaults.
    """
    ops = ", ".join(f"o{i}" for i in range(n))
    if pure:
        calls = "".join(f"        o{i}()\n" for i in range(n - 1))
        src = (
            f"def _fused(max_iters, {ops}, _entry):\n"
            f"    i = 0\n"
            f"    while True:\n"
            f"{calls}"
            f"        next_pc = o{n - 1}()\n"
            f"        i += 1\n"
            f"        if next_pc != _entry or i >= max_iters:\n"
            f"            return next_pc, i\n"
        )
    else:
        lines = ["    n = _s.instructions\n"]
        for i in range(n - 1):
            lines.append(f"    _s.instructions = n + {i + 1}\n    o{i}()\n")
        lines.append(f"    _s.instructions = n + {n}\n    return o{n - 1}()\n")
        src = f"def _fused(_s, {ops}):\n{''.join(lines)}"
    namespace: Dict[str, object] = {}
    exec(compile(src, "<superblock>", "exec"), namespace)
    return namespace["_fused"].__code__


def build_superblock(sim, entry: int) -> Superblock:
    """Fuse the straight-line run starting at slot ``entry``.

    Walks the predecoded mnemonic list to the first terminator (or the
    length cap, or the end of text), binds any of the run's slots not
    yet bound, classifies the run, and composes the fused closure.
    Unknown mnemonics terminate the block and make it a sync block:
    their executors fault on execution, exactly like the unfused path.
    """
    instructions = sim._instructions
    ops = sim._ops
    count = len(ops)
    base = sim._text_base
    slots = []
    idx = entry
    while idx < count and len(slots) < MAX_SUPERBLOCK_LEN:
        name = instructions[idx].name
        slots.append(idx)
        if name in TERMINATORS or name not in BINDERS:
            break
        idx += 1
    block_ops = [ops[i] or bind_slot(sim, ops, i) for i in slots]
    block_instrs = [instructions[i] for i in slots]
    pure = all(instr.name in PURE_OPS for instr in block_instrs)
    pcs = tuple(base + 4 * i for i in slots)
    fn = FunctionType(
        _template(pure, len(slots)), _GLOBALS, "_fused",
        (*block_ops, pcs[0]) if pure else (sim.stats, *block_ops),
    )
    return Superblock(pure=pure, fn=fn, pcs=pcs, mix=BlockMix(block_instrs))


class SuperblockCache:
    """Lazily populated entry-slot -> :class:`Superblock` map.

    Derived entirely from the immutable predecode, so snapshots never
    capture it and rollback never flushes it; a text-segment write
    clears it wholesale (SMC is rare enough that selective invalidation
    would be complexity without a workload).  Each entry's
    :class:`BlockMix` outlives that clear, so a run's tally keeps one key
    per entry (and no dropped closure) however often the text is written.
    """

    __slots__ = ("blocks", "mixes", "built", "invalidated", "hits")

    def __init__(self) -> None:
        self.blocks: Dict[int, Superblock] = {}
        self.mixes: Dict[int, BlockMix] = {}
        #: Observability counters, harvested into metrics as
        #: ``superblock.{built,invalidated,hits}``.
        self.built = 0
        self.invalidated = 0
        self.hits = 0

    def lookup(self, sim, entry: int) -> Superblock:
        block = self.blocks.get(entry)
        if block is None:
            block = build_superblock(sim, entry)
            # Same decode, same mix: a rebuild reuses the first record.
            block.mix = self.mixes.setdefault(entry, block.mix)
            self.blocks[entry] = block
            self.built += 1
        return block

    def invalidate(self) -> None:
        """Drop every fused block (text-segment write observed)."""
        self.blocks.clear()
        self.invalidated += 1

    def info(self) -> Dict[str, int]:
        """Cache observability snapshot (serve health, metrics)."""
        return {
            "size": len(self.blocks),
            "built": self.built,
            "invalidated": self.invalidated,
            "hits": self.hits,
        }
