"""Decode-once dispatch: per-instruction executor bindings.

The paper's prototype pays for taint checking *inside* an existing
SimpleScalar pipeline -- classification of an instruction (is it a load? a
store? which Table 1 taint rule applies?) happens in hardware decode, once.
The original reproduction instead re-classified every instruction through a
mnemonic ``if/elif`` cascade on every dynamic step.  This module restores
the hardware structure in interpreter form:

* every mnemonic has a **binder** registered in :data:`BINDERS` (the
  dispatch table, keyed by mnemonic);
* each text slot is bound on first dispatch (:func:`bind_slot`): its
  decoded instruction runs through its binder once, producing a
  zero-argument **executor** closure with every static property --
  operand register numbers, immediates, access sizes, branch targets,
  the applicable Table 1 taint rule, the policy knobs, the disassembly
  and source line used in alerts -- resolved at bind time;
* the execution engines then run ``next_pc = ops[(pc - text_base) >> 2]()``
  -- fetch is an index, dispatch is a bound call, and no per-step
  classification happens at all.

So a machine pays binding only for the code it runs.  Binders read only
state fixed at construction or of stable identity (policy, taint-plane
mode, executable, live subscriber lists, watchpoints), so a late bind
captures exactly what an eager one would.

Both the functional engine and the five-stage pipeline execute through the
same bindings, so the ISA semantics, the Table 1 propagation rules and the
section 4.3 dereference checks have exactly one implementation.

Executor contract
-----------------
``op() -> next_pc``.  An executor applies the instruction's architectural
effects to the bound :class:`~repro.cpu.machine.MachineState` and returns
the next program counter.  It raises
:class:`~repro.defenses.alerts.SecurityException` when the detector marks the
instruction malicious, and :class:`~repro.cpu.machine.SimulatorFault` /
:class:`~repro.mem.tainted_memory.MemoryFault` on machine-level faults.
Per-step bookkeeping that is identical for every instruction (instruction
count, mnemonic/class mix, the recent-PC ring, retirement events) is done
by the engines; executors maintain only their class-specific counters.

Label flow
----------
Every binder captures ``flow = m.plane.flow`` at bind time: None in bit
mode, the :class:`~repro.taint.plane.TaintPlane` itself in label mode.
Label propagation mirrors the Table 1 taint rules but lives exclusively
inside the existing tainted slow-path blocks behind ``flow is not None``
guards, so bit mode executes byte-for-byte the same hot path as before
the label plane existed.  Flow calls receive the *pre-writeback* source
taint masks for gating, because a destination register may alias a source.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..defenses.alerts import KIND_JUMP, KIND_LOAD, KIND_STORE
from ..core.events import SyscallEnter, SyscallExit, TaintPropagated
from ..core.propagation import propagate_and
from ..taint.bits import WORD_TAINTED
from ..isa.instructions import Instr, LOAD_INFO, STORE_INFO
from .machine import MachineState, SimulatorFault

_MASK32 = 0xFFFFFFFF

#: A bound executor: applies one instruction's effects, returns next pc.
Executor = Callable[[], int]

#: A binder: specializes one decoded instruction at a fixed pc into an
#: executor closure over a machine's state.
Binder = Callable[[Instr, int, MachineState], Executor]

#: The dispatch table: mnemonic -> binder.
BINDERS: Dict[str, Binder] = {}


def binds(*names: str) -> Callable[[Binder], Binder]:
    """Register a binder for one or more mnemonics."""

    def register(binder: Binder) -> Binder:
        for name in names:
            BINDERS[name] = binder
        return binder

    return register


def bind_program(machine: MachineState) -> List[Optional[Executor]]:
    """The machine's executor slot table, parallel to
    ``executable.instructions``: every slot ``None`` until its first
    dispatch binds it (``ops[i] or bind_slot(machine, ops, i)``)."""
    return [None] * len(machine.executable.instructions)


def bind_slot(
    machine: MachineState, ops: List[Optional[Executor]], index: int
) -> Executor:
    """Bind slot ``index`` of ``ops`` on a miss and return its executor.
    Unknown mnemonics bind to an executor that faults on execution."""
    exe = machine.executable
    instr = exe.instructions[index]
    op = BINDERS.get(instr.name, _bind_unknown)(
        instr, exe.text_base + 4 * index, machine
    )
    ops[index] = op
    return op


def _signed(value: int) -> int:
    value &= _MASK32
    return value - 0x100000000 if value & 0x80000000 else value


def _bind_unknown(instr: Instr, pc: int, m: MachineState) -> Executor:
    name = instr.name

    def op() -> int:
        raise SimulatorFault(f"unimplemented instruction {name}")

    return op


# ---------------------------------------------------------------------------
# loads / stores (section 4.3 detection points)
# ---------------------------------------------------------------------------

@binds(*LOAD_INFO)
def _bind_load(instr: Instr, pc: int, m: MachineState) -> Executor:
    size, signed = LOAD_INFO[instr.name]
    rs, rt, imm = instr.rs, instr.rt, instr.imm
    npc = (pc + 4) & _MASK32
    values, taints = m.regs.values, m.regs.taints
    stats = m.stats
    mem_read = m.mem_read
    deref = m.tainted_dereference
    disasm = instr.text or instr.name
    detail = m.executable.source_map.get(pc, "")
    track = m.policy.track_taint
    checked = m.policy.checks(KIND_LOAD)
    sign_bit = 1 << (8 * size - 1)
    extension = _MASK32 ^ ((1 << (8 * size)) - 1)
    bus = m.events
    taint_subs = bus.subscribers(TaintPropagated)
    flow = m.plane.flow

    def op() -> int:
        if checked:
            stats.dereference_checks += 1
        base = values[rs]
        base_taint = taints[rs]
        if base_taint:
            deref(KIND_LOAD, pc, disasm, detail, base, base_taint,
                  flow.reg_sid(rs) if flow is not None else 0)
        addr = (base + imm) & _MASK32
        value, mem_taint = mem_read(addr, size)
        taint = mem_taint
        if signed:
            if value & sign_bit:
                value |= extension
            # Sign extension derives the upper bytes from the loaded
            # value's top bit: replicate taint across the whole word.
            if taint:
                taint = WORD_TAINTED
        if not track:
            taint = 0
        if rt:
            values[rt] = value
            taints[rt] = taint
        stats.loads += 1
        if taint:
            stats.tainted_results += 1
            if flow is not None and rt:
                # Gate on the mask the read returned (authoritative even
                # when the bytes came from a dirty cache line), not the
                # sign-extension-replicated register mask.
                flow.on_load(rt, addr, size, mem_taint)
            if taint_subs:
                bus.emit(TaintPropagated(pc, instr, "reg", rt, taint))
        return npc

    return op


@binds(*STORE_INFO)
def _bind_store(instr: Instr, pc: int, m: MachineState) -> Executor:
    size = STORE_INFO[instr.name]
    size_mask = (1 << size) - 1
    rs, rt, imm = instr.rs, instr.rt, instr.imm
    npc = (pc + 4) & _MASK32
    values, taints = m.regs.values, m.regs.taints
    stats = m.stats
    mem_write = m.mem_write
    deref = m.tainted_dereference
    annotation = m.annotation_violation
    watchpoints = m.watchpoints
    disasm = instr.text or instr.name
    detail = m.executable.source_map.get(pc, "")
    track = m.policy.track_taint
    checked = m.policy.checks(KIND_STORE)
    bus = m.events
    taint_subs = bus.subscribers(TaintPropagated)
    flow = m.plane.flow

    def op() -> int:
        if checked:
            stats.dereference_checks += 1
        base = values[rs]
        base_taint = taints[rs]
        if base_taint:
            deref(KIND_STORE, pc, disasm, detail, base, base_taint,
                  flow.reg_sid(rs) if flow is not None else 0)
        addr = (base + imm) & _MASK32
        value = values[rt]
        store_taint = (taints[rt] & size_mask) if track else 0
        if store_taint:
            if len(watchpoints):
                annotation(pc, disasm, addr, size, store_taint,
                           flow.reg_sid(rt) if flow is not None else 0)
            if flow is not None:
                flow.on_store(addr, size, rt, store_taint)
            if taint_subs:
                bus.emit(TaintPropagated(pc, instr, "mem", addr, store_taint))
        mem_write(addr, size, value, store_taint)
        stats.stores += 1
        return npc

    return op


# ---------------------------------------------------------------------------
# branches (compare class: untaint operands per Table 1)
# ---------------------------------------------------------------------------

def _branch_binder(condition: Callable[[int, int], bool], untaints_rt: bool):
    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rs, rt = instr.rs, instr.rt
        npc = (pc + 4) & _MASK32
        taken = (pc + 4 + (instr.imm << 2)) & _MASK32
        values, taints = m.regs.values, m.regs.taints
        stats = m.stats
        untaint = m.policy.track_taint and m.policy.untaint_on_compare

        def op() -> int:
            stats.branches += 1
            rs_val = values[rs]
            rt_val = values[rt]
            if untaint:
                if rs:
                    taints[rs] = 0
                if untaints_rt and rt:
                    taints[rt] = 0
            return taken if condition(rs_val, rt_val) else npc

        return op

    return bind


BINDERS["beq"] = _branch_binder(lambda a, b: a == b, untaints_rt=True)
BINDERS["bne"] = _branch_binder(lambda a, b: a != b, untaints_rt=True)
BINDERS["blez"] = _branch_binder(lambda a, b: _signed(a) <= 0, untaints_rt=False)
BINDERS["bgtz"] = _branch_binder(lambda a, b: _signed(a) > 0, untaints_rt=False)
BINDERS["bltz"] = _branch_binder(lambda a, b: _signed(a) < 0, untaints_rt=False)
BINDERS["bgez"] = _branch_binder(lambda a, b: _signed(a) >= 0, untaints_rt=False)


# ---------------------------------------------------------------------------
# jumps (JR/JALR are the code-pointer detection points)
# ---------------------------------------------------------------------------

@binds("j")
def _bind_j(instr: Instr, pc: int, m: MachineState) -> Executor:
    target = instr.target
    stats = m.stats

    def op() -> int:
        stats.jumps += 1
        return target

    return op


@binds("jal")
def _bind_jal(instr: Instr, pc: int, m: MachineState) -> Executor:
    target = instr.target
    link = (pc + 4) & _MASK32
    values, taints = m.regs.values, m.regs.taints
    stats = m.stats

    def op() -> int:
        stats.jumps += 1
        values[31] = link
        taints[31] = 0
        return target

    return op


@binds("jr")
def _bind_jr(instr: Instr, pc: int, m: MachineState) -> Executor:
    rs = instr.rs
    values, taints = m.regs.values, m.regs.taints
    stats = m.stats
    deref = m.tainted_dereference
    disasm = instr.text or instr.name
    detail = m.executable.source_map.get(pc, "")
    checked = m.policy.checks(KIND_JUMP)
    flow = m.plane.flow

    def op() -> int:
        stats.jumps += 1
        target = values[rs]
        taint = taints[rs]
        if checked:
            stats.dereference_checks += 1
        if taint:
            deref(KIND_JUMP, pc, disasm, detail, target, taint,
                  flow.reg_sid(rs) if flow is not None else 0)
        return target

    return op


@binds("jalr")
def _bind_jalr(instr: Instr, pc: int, m: MachineState) -> Executor:
    rs, rd = instr.rs, instr.rd
    link = (pc + 4) & _MASK32
    values, taints = m.regs.values, m.regs.taints
    stats = m.stats
    deref = m.tainted_dereference
    disasm = instr.text or instr.name
    detail = m.executable.source_map.get(pc, "")
    checked = m.policy.checks(KIND_JUMP)
    flow = m.plane.flow

    def op() -> int:
        stats.jumps += 1
        target = values[rs]
        taint = taints[rs]
        if checked:
            stats.dereference_checks += 1
        if taint:
            deref(KIND_JUMP, pc, disasm, detail, target, taint,
                  flow.reg_sid(rs) if flow is not None else 0)
        if rd:
            values[rd] = link
            taints[rd] = 0
        return target

    return op


# ---------------------------------------------------------------------------
# system
# ---------------------------------------------------------------------------

@binds("syscall")
def _bind_syscall(instr: Instr, pc: int, m: MachineState) -> Executor:
    npc = (pc + 4) & _MASK32
    stats = m.stats
    values = m.regs.values
    bus = m.events
    enter_subs = bus.subscribers(SyscallEnter)
    exit_subs = bus.subscribers(SyscallExit)

    def op() -> int:
        stats.syscalls += 1
        handler = m.syscall_handler
        if handler is None:
            raise SimulatorFault(f"syscall at {pc:#x} with no kernel attached")
        # The engines keep pc in a local until run() returns; publish it
        # so the kernel's messages and events name this syscall.
        m.pc = pc
        if enter_subs or exit_subs:
            number = values[2]  # $v0
            if enter_subs:
                bus.emit(SyscallEnter(pc, number))
            handler(m)
            if exit_subs:
                bus.emit(SyscallExit(pc, number, values[2]))
        else:
            handler(m)
        return npc

    return op


@binds("break")
def _bind_break(instr: Instr, pc: int, m: MachineState) -> Executor:
    def op() -> int:
        raise SimulatorFault(f"break instruction at {pc:#x}")

    return op


# ---------------------------------------------------------------------------
# ALU: Table 1 taint rules, resolved to the applicable rule at bind time
# ---------------------------------------------------------------------------

def _alu_writeback(m: MachineState, instr: Instr, pc: int):
    """Shared capture bundle for ALU binders.

    Returns ``(values, taints, stats, track, emit_tainted, flow)`` where
    ``emit_tainted(dest, taint)`` publishes a TaintPropagated event when
    anyone listens (engines count ``tainted_results`` inline) and ``flow``
    is the plane's label-flow hook (None in bit mode).
    """
    values, taints = m.regs.values, m.regs.taints
    stats = m.stats
    track = m.policy.track_taint
    bus = m.events
    taint_subs = bus.subscribers(TaintPropagated)

    def emit_tainted(dest: int, taint: int, kind: str = "reg") -> None:
        if taint_subs:
            bus.emit(TaintPropagated(pc, instr, kind, dest, taint))

    return values, taints, stats, track, emit_tainted, m.plane.flow


def _r3_default_binder(compute: Callable[[int, int], int]):
    """R-type op with the default Table 1 rule: OR the source taints."""

    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        npc = (pc + 4) & _MASK32
        values, taints, stats, track, emit_tainted, flow = _alu_writeback(
            m, instr, pc
        )

        def op() -> int:
            result = compute(values[rs], values[rt])
            if track:
                ta = taints[rs]
                tb = taints[rt]
                taint = ta | tb
            else:
                taint = 0
            if rd:
                values[rd] = result
                taints[rd] = taint
                if taint:
                    stats.tainted_results += 1
                    if flow is not None:
                        flow.on_alu(rd, rs, ta, rt, tb)
                    emit_tainted(rd, taint)
            return npc

        return op

    return bind


BINDERS["add"] = BINDERS["addu"] = _r3_default_binder(
    lambda a, b: (a + b) & _MASK32
)
BINDERS["sub"] = BINDERS["subu"] = _r3_default_binder(
    lambda a, b: (a - b) & _MASK32
)
BINDERS["or"] = _r3_default_binder(lambda a, b: a | b)
BINDERS["nor"] = _r3_default_binder(lambda a, b: ~(a | b) & _MASK32)


@binds("xor")
def _bind_xor(instr: Instr, pc: int, m: MachineState) -> Executor:
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    npc = (pc + 4) & _MASK32
    values, taints, stats, track, emit_tainted, flow = _alu_writeback(
        m, instr, pc
    )
    # XOR r,s,s is the compiler zero idiom: the result is a clean constant.
    zero_idiom = track and m.policy.untaint_xor_idiom and rs == rt

    def op() -> int:
        result = values[rs] ^ values[rt]
        if zero_idiom or not track:
            taint = 0
        else:
            ta = taints[rs]
            tb = taints[rt]
            taint = ta | tb
        if rd:
            values[rd] = result
            taints[rd] = taint
            if taint:
                stats.tainted_results += 1
                if flow is not None:
                    flow.on_alu(rd, rs, ta, rt, tb)
                emit_tainted(rd, taint)
        return npc

    return op


@binds("and")
def _bind_and(instr: Instr, pc: int, m: MachineState) -> Executor:
    rd, rs, rt = instr.rd, instr.rs, instr.rt
    npc = (pc + 4) & _MASK32
    values, taints, stats, track, emit_tainted, flow = _alu_writeback(
        m, instr, pc
    )
    and_rule = track and m.policy.untaint_and_zero

    def op() -> int:
        rs_val = values[rs]
        rt_val = values[rt]
        result = rs_val & rt_val
        rs_t = taints[rs]
        rt_t = taints[rt]
        if not track:
            taint = 0
        elif rs_t | rt_t:
            if and_rule:
                taint = propagate_and(rs_t, rs_val, rt_t, rt_val)
            else:
                taint = rs_t | rt_t
        else:
            taint = 0
        if rd:
            values[rd] = result
            taints[rd] = taint
            if taint:
                stats.tainted_results += 1
                if flow is not None:
                    flow.on_alu(rd, rs, rs_t, rt, rt_t)
                emit_tainted(rd, taint)
        return npc

    return op


@binds("andi")
def _bind_andi(instr: Instr, pc: int, m: MachineState) -> Executor:
    rs, rt, imm = instr.rs, instr.rt, instr.imm
    npc = (pc + 4) & _MASK32
    values, taints, stats, track, emit_tainted, flow = _alu_writeback(
        m, instr, pc
    )
    and_rule = track and m.policy.untaint_and_zero

    def op() -> int:
        rs_val = values[rs]
        rs_t = taints[rs] if track else 0
        if rs_t and and_rule:
            taint = propagate_and(rs_t, rs_val, 0, imm)
        else:
            taint = rs_t
        if rt:
            values[rt] = rs_val & imm
            taints[rt] = taint
            if taint:
                stats.tainted_results += 1
                if flow is not None:
                    flow.on_unary(rt, rs)
                emit_tainted(rt, taint)
        return npc

    return op


def _itype_default_binder(compute: Callable[[int, int], int]):
    """I-type op whose result inherits the source register's taint."""

    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rs, rt, imm = instr.rs, instr.rt, instr.imm
        npc = (pc + 4) & _MASK32
        values, taints, stats, track, emit_tainted, flow = _alu_writeback(
            m, instr, pc
        )

        def op() -> int:
            result = compute(values[rs], imm)
            taint = taints[rs] if track else 0
            if rt:
                values[rt] = result
                taints[rt] = taint
                if taint:
                    stats.tainted_results += 1
                    if flow is not None:
                        flow.on_unary(rt, rs)
                    emit_tainted(rt, taint)
            return npc

        return op

    return bind


BINDERS["addi"] = BINDERS["addiu"] = _itype_default_binder(
    lambda a, imm: (a + imm) & _MASK32
)
BINDERS["ori"] = _itype_default_binder(lambda a, imm: a | imm)
BINDERS["xori"] = _itype_default_binder(lambda a, imm: a ^ imm)


@binds("lui")
def _bind_lui(instr: Instr, pc: int, m: MachineState) -> Executor:
    rt = instr.rt
    result = (instr.imm << 16) & _MASK32
    npc = (pc + 4) & _MASK32
    values, taints = m.regs.values, m.regs.taints

    def op() -> int:
        if rt:
            values[rt] = result
            taints[rt] = 0
        return npc

    return op


def _compare_r3_binder(signed: bool):
    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        npc = (pc + 4) & _MASK32
        values, taints = m.regs.values, m.regs.taints
        untaint = m.policy.track_taint and m.policy.untaint_on_compare

        def op() -> int:
            rs_val = values[rs]
            rt_val = values[rt]
            if signed:
                result = 1 if _signed(rs_val) < _signed(rt_val) else 0
            else:
                result = 1 if rs_val < rt_val else 0
            if untaint:
                if rs:
                    taints[rs] = 0
                if rt:
                    taints[rt] = 0
            if rd:
                values[rd] = result
                taints[rd] = 0
            return npc

        return op

    return bind


BINDERS["slt"] = _compare_r3_binder(signed=True)
BINDERS["sltu"] = _compare_r3_binder(signed=False)


def _compare_imm_binder(signed: bool):
    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rs, rt = instr.rs, instr.rt
        imm = instr.imm if signed else instr.imm & _MASK32
        npc = (pc + 4) & _MASK32
        values, taints = m.regs.values, m.regs.taints
        untaint = m.policy.track_taint and m.policy.untaint_on_compare

        def op() -> int:
            rs_val = values[rs]
            if signed:
                result = 1 if _signed(rs_val) < imm else 0
            else:
                result = 1 if rs_val < imm else 0
            if untaint and rs:
                taints[rs] = 0
            if rt:
                values[rt] = result
                taints[rt] = 0
            return npc

        return op

    return bind


BINDERS["slti"] = _compare_imm_binder(signed=True)
BINDERS["sltiu"] = _compare_imm_binder(signed=False)


# ---------------------------------------------------------------------------
# shifts (Table 1 shift rule: taint spreads one byte along the direction)
# ---------------------------------------------------------------------------

def _shift_const_binder(kind: str):
    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rd, rt, shamt = instr.rd, instr.rt, instr.shamt
        npc = (pc + 4) & _MASK32
        values, taints, stats, track, emit_tainted, flow = _alu_writeback(
            m, instr, pc
        )
        left = kind == "sll"
        arith = kind == "sra"

        def op() -> int:
            rt_val = values[rt]
            if left:
                result = (rt_val << shamt) & _MASK32
            elif arith:
                result = (_signed(rt_val) >> shamt) & _MASK32
            else:
                result = rt_val >> shamt
            if not track:
                taint = 0
            else:
                taint = taints[rt]
                if taint and shamt:
                    if left:
                        taint = (taint | (taint << 1)) & WORD_TAINTED
                    else:
                        taint = taint | (taint >> 1)
            if rd:
                values[rd] = result
                taints[rd] = taint
                if taint:
                    stats.tainted_results += 1
                    if flow is not None:
                        flow.on_unary(rd, rt)
                    emit_tainted(rd, taint)
            return npc

        return op

    return bind


BINDERS["sll"] = _shift_const_binder("sll")
BINDERS["srl"] = _shift_const_binder("srl")
BINDERS["sra"] = _shift_const_binder("sra")


def _shift_var_binder(kind: str):
    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rd, rs, rt = instr.rd, instr.rs, instr.rt
        npc = (pc + 4) & _MASK32
        values, taints, stats, track, emit_tainted, flow = _alu_writeback(
            m, instr, pc
        )
        left = kind == "sllv"
        arith = kind == "srav"

        def op() -> int:
            shamt = values[rs] & 0x1F
            rt_val = values[rt]
            if left:
                result = (rt_val << shamt) & _MASK32
            elif arith:
                result = (_signed(rt_val) >> shamt) & _MASK32
            else:
                result = rt_val >> shamt
            if not track:
                taint = 0
            else:
                ts = taints[rs]
                tt = taints[rt]
                if ts:
                    # A tainted shift amount taints the whole result: the
                    # attacker controls where every bit lands.
                    taint = WORD_TAINTED
                else:
                    taint = tt
                    if taint:
                        if left:
                            taint = (taint | (taint << 1)) & WORD_TAINTED
                        else:
                            taint = taint | (taint >> 1)
            if rd:
                values[rd] = result
                taints[rd] = taint
                if taint:
                    stats.tainted_results += 1
                    if flow is not None:
                        flow.on_alu(rd, rs, ts, rt, tt)
                    emit_tainted(rd, taint)
            return npc

        return op

    return bind


BINDERS["sllv"] = _shift_var_binder("sllv")
BINDERS["srlv"] = _shift_var_binder("srlv")
BINDERS["srav"] = _shift_var_binder("srav")


# ---------------------------------------------------------------------------
# multiply / divide (results land in HI/LO; taint collapses to the word)
# ---------------------------------------------------------------------------

def _muldiv_binder(kind: str):
    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rs, rt = instr.rs, instr.rt
        npc = (pc + 4) & _MASK32
        regs = m.regs
        values, taints, stats, track, emit_tainted, flow = _alu_writeback(
            m, instr, pc
        )

        def op() -> int:
            rs_val = values[rs]
            rt_val = values[rt]
            if kind == "mult":
                product = (
                    _signed(rs_val) * _signed(rt_val) & 0xFFFFFFFFFFFFFFFF
                )
                lo, hi = product & _MASK32, product >> 32 & _MASK32
            elif kind == "multu":
                product = rs_val * rt_val
                lo, hi = product & _MASK32, product >> 32 & _MASK32
            else:
                if rt_val == 0:
                    quotient, remainder = 0, rs_val  # MIPS: undefined
                elif kind == "div":
                    a, b = _signed(rs_val), _signed(rt_val)
                    quotient = int(a / b)  # C-style truncation toward zero
                    remainder = a - quotient * b
                else:
                    quotient, remainder = rs_val // rt_val, rs_val % rt_val
                lo, hi = quotient & _MASK32, remainder & _MASK32
            # Multiplication/division mix every source byte into every
            # result byte: collapse taint across the whole double word.
            if track:
                ta = taints[rs]
                tb = taints[rt]
                taint = WORD_TAINTED if (ta | tb) else 0
            else:
                taint = 0
            regs.lo = lo
            regs.hi = hi
            regs.lo_taint = taint
            regs.hi_taint = taint
            if taint:
                stats.tainted_results += 1
                if flow is not None:
                    flow.on_hilo(rs, ta, rt, tb)
                emit_tainted(0, taint, "hilo")
            return npc

        return op

    return bind


for _name in ("mult", "multu", "div", "divu"):
    BINDERS[_name] = _muldiv_binder(_name)


def _movehl_binder(which: str):
    def bind(instr: Instr, pc: int, m: MachineState) -> Executor:
        rd = instr.rd
        npc = (pc + 4) & _MASK32
        regs = m.regs
        values, taints, stats, track, emit_tainted, flow = _alu_writeback(
            m, instr, pc
        )
        lo = which == "lo"

        def op() -> int:
            if lo:
                result = regs.lo
                taint = regs.lo_taint if track else 0
            else:
                result = regs.hi
                taint = regs.hi_taint if track else 0
            if rd:
                values[rd] = result
                taints[rd] = taint
                if taint:
                    stats.tainted_results += 1
                    if flow is not None:
                        flow.on_from_hilo(rd)
                    emit_tainted(rd, taint)
            return npc

        return op

    return bind


BINDERS["mflo"] = _movehl_binder("lo")
BINDERS["mfhi"] = _movehl_binder("hi")
