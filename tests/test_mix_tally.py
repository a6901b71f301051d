"""The instruction mix is tallied per block and folded once per ``run()``.

Both dispatch loops count executions in a tally local to one ``run()``
call and fold it into ``stats.by_mnemonic``, ``stats.by_class`` and
``superblocks.hits`` when the call ends.  The counters must equal, in
values and key order, what per-instruction updates would build.  The
reference here does not come from the engine: an ``InstructionRetired``
subscriber counts every retired instruction in retirement order in a
separate run, and the faulting instruction, which is counted but never
retired, is added at the end.

The cases cover every way a ``run()`` call can end (exit, alert in the
middle of a sync block, fault, fetch outside text, instruction budget,
wall-clock deadline) and every fused-tier fallback: a subscriber, a
budget smaller than the block, and a single-instruction block.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter, deque

import pytest

from repro.apps.spec import SPEC_WORKLOADS
from repro.attacks.replay import (
    OUTCOME_ALERT,
    OUTCOME_FAULT,
    run_executable,
)
from repro.builder import build_machine
from repro.core.events import InstructionRetired
from repro.cpu import simulator
from repro.cpu.machine import RECENT_PC_DEPTH, ExecutionLimit, SimulatorFault
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.evalx.defense_matrix import _OVERHEAD_SOURCE
from repro.evalx.experiments import all_attack_scenarios
from repro.isa.assembler import assemble
from repro.libc.build import build_program
from repro.mem.layout import TEXT_BASE

_SCENARIOS = {s.name: s for s in all_attack_scenarios()}
_SPEC = {w.name: w for w in SPEC_WORKLOADS}

#: ``superblocks.info()["hits"]`` of the nine -O0 programs on their stock
#: inputs, recorded when the mix was still updated on every dispatch.
PINNED_HITS = {
    "BZIP2": 19360,
    "GCC": 43783,
    "GZIP": 15648,
    "MCF": 14924,
    "PARSER": 163930,
    "VPR": 60353,
    "CRAFTY": 290544,
    "GAP": 47786,
    "VORTEX": 24907,
}

#: A loop whose store into its own text drops every fused block on each
#: iteration, between blocks that already ran in the same ``run()``.
#: ``hop`` is a single-instruction block.
SMC_ASM = f"""
.text
_start:
    li $t0, {TEXT_BASE}
    li $t1, 40
    li $t2, 0
loop:
    sw $t2, 0($t0)
    addiu $t2, $t2, 5
    xor $t3, $t2, $t1
    b hop
hop:
    b next
next:
    addiu $t1, $t1, -1
    bne $t1, $zero, loop
    move $a0, $t2
    li $v0, 1
    syscall
"""

#: A loop whose one block stores into its own text on every iteration,
#: so every dispatch rebuilds the block the previous one ran.
SMC_LOOP_ITERATIONS = 100_000
SMC_LOOP_ASM = f"""
.text
_start:
    li $t0, {TEXT_BASE}
    li $t1, {SMC_LOOP_ITERATIONS}
loop:
    sw $zero, 0($t0)
    addiu $t1, $t1, -1
    bne $t1, $zero, loop
    li $a0, 7
    li $v0, 1
    syscall
"""

#: Fused loops, then a jump to an address outside the text segment.
WILD_JUMP_ASM = """
.text
_start:
    li $t1, 30
    li $t2, 0
loop:
    addiu $t2, $t2, 3
    xor $t3, $t2, $t1
    addiu $t1, $t1, -1
    bne $t1, $zero, loop
    li $t0, 0x00100000
    jr $t0
"""

#: Never halts: a pure self-loop and a sync block, ended by the deadline.
SPIN_ASM = """
.text
_start:
    la $s0, cell
outer:
    li $t4, 50
inner:
    addiu $t0, $t0, 1
    xor $t1, $t0, $t2
    addiu $t4, $t4, -1
    bne $t4, $zero, inner
    sw $t1, 0($s0)
    lw $t2, 0($s0)
    b outer
.data
cell: .word 0
"""


class _Recorder:
    """Per-instruction mix and recent pcs, in retirement order."""

    def __init__(self) -> None:
        self.mnemonics = Counter()
        self.classes = Counter()
        self.recent = deque(maxlen=RECENT_PC_DEPTH)

    def add(self, pc: int, instr) -> None:
        self.mnemonics[instr.name] += 1
        self.classes[instr.klass] += 1
        self.recent.append(pc)

    def __call__(self, event: InstructionRetired) -> None:
        self.add(event.pc, event.instr)


def _add_faulting(recorder: _Recorder, sim, raised: bool) -> None:
    """Count the instruction that raised: it is counted, never retired.
    A fetch outside text raises before anything is counted."""
    index = (sim.pc - TEXT_BASE) >> 2
    if raised and not sim.pc & 3 and 0 <= index < len(sim._instructions):
        recorder.add(sim.pc, sim._instructions[index])


def _assert_matches(sim, recorder: _Recorder, reference_sim) -> None:
    stats = sim.stats
    assert list(stats.by_mnemonic.items()) == list(
        recorder.mnemonics.items()
    )
    assert list(stats.by_class.items()) == list(recorder.classes.items())
    assert sum(recorder.mnemonics.values()) == stats.instructions
    assert stats.summary() == reference_sim.stats.summary()
    assert list(sim.recent_pcs) == list(recorder.recent)
    assert sim.pc == reference_sim.pc


def _check_run(run) -> object:
    """``run(**overrides)`` returns a RunResult: compare a plain run with
    a separate recorded one."""
    result = run()
    recorder = _Recorder()
    reference = run(subscribers=[(InstructionRetired, recorder)])
    assert reference.outcome == result.outcome
    raised = reference.outcome in (OUTCOME_ALERT, OUTCOME_FAULT)
    _add_faulting(recorder, reference.sim, raised)
    _assert_matches(result.sim, recorder, reference.sim)
    return result


class TestSpecPrograms:
    @pytest.mark.parametrize("opt_level", [0, 1])
    @pytest.mark.parametrize("name", sorted(_SPEC))
    def test_mix_matches_retirement_order(self, name, opt_level):
        workload = _SPEC[name]
        exe = build_program(workload.source, opt_level=opt_level)
        stdin = workload.make_input()
        result = _check_run(
            lambda **kw: run_executable(
                exe, PointerTaintPolicy(), stdin=stdin, **kw
            )
        )
        assert result.outcome == "exit"
        assert result.sim.superblocks.info()["hits"] > 0

    @pytest.mark.parametrize("name", sorted(PINNED_HITS))
    def test_superblock_hits_pinned(self, name):
        workload = _SPEC[name]
        result = run_executable(
            build_program(workload.source), PointerTaintPolicy(),
            stdin=workload.make_input(),
        )
        assert result.sim.superblocks.info()["hits"] == PINNED_HITS[name]


class TestAttackScenarios:
    @pytest.mark.parametrize(
        "config",
        [{}, {"superblocks": False}, {"taint_labels": True}, "subscriber"],
        ids=["fused", "unfused", "labels", "subscriber"],
    )
    @pytest.mark.parametrize("defended", [True, False])
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_mix_matches_retirement_order(self, name, defended, config):
        scenario = _SCENARIOS[name]
        policy = PointerTaintPolicy if defended else NullPolicy
        if config == "subscriber":
            config = {"subscribers": [(InstructionRetired, lambda e: None)]}

        def run(subscribers=(), **kw):
            extra = dict(config)
            extra["subscribers"] = [*extra.get("subscribers", ()),
                                    *subscribers]
            return scenario.run_attack(policy(), **extra, **kw)

        result = _check_run(run)
        if defended and scenario.detected_by_pointer_taint:
            assert result.outcome == OUTCOME_ALERT

    def test_some_alert_lands_inside_a_sync_block(self):
        """At least one scenario raises past the first op of a fused
        block, so the executed-prefix tally is exercised."""
        inside = 0
        for scenario in _SCENARIOS.values():
            result = scenario.run_attack(PointerTaintPolicy())
            if result.outcome != OUTCOME_ALERT:
                continue
            sim = result.sim
            entries = {
                TEXT_BASE + 4 * entry for entry in sim.superblocks.blocks
            }
            inside += sim.pc not in entries
        assert inside > 0


def _asm_machine(source: str, **kwargs):
    sim, _kernel = build_machine(assemble(source), None, **kwargs)
    return sim


def _reference_for(source: str, instructions: int, **kwargs):
    """A recorded run of ``source`` stopped after ``instructions``."""
    recorder = _Recorder()
    sim = _asm_machine(source, superblocks=False, **kwargs)
    sim.events.subscribe(InstructionRetired, recorder)
    try:
        sim.run(max_instructions=instructions)
    except (ExecutionLimit, SimulatorFault):
        pass
    return sim, recorder


class TestAsmPrograms:
    @pytest.mark.parametrize("superblocks", [True, False])
    def test_text_write_drops_blocks_that_still_fold(self, superblocks):
        sim = _asm_machine(SMC_ASM, superblocks=superblocks)
        assert sim.run() == 200
        recorder = _Recorder()
        reference = _asm_machine(SMC_ASM, superblocks=superblocks)
        reference.events.subscribe(InstructionRetired, recorder)
        reference.run()
        _assert_matches(sim, recorder, reference)
        if superblocks:
            info = sim.superblocks.info()
            assert info["invalidated"] == 40
            assert info["built"] > info["size"]
            assert info["hits"] > 0

    @pytest.mark.parametrize("superblocks", [True, False])
    def test_tally_stays_bounded_under_text_writes(
        self, superblocks, monkeypatch
    ):
        """A block rebuilt after a text write tallies under the record
        of the block it replaces, so neither the tally nor the memory a
        run holds grows with the number of rebuilds."""
        sizes = []
        fold = simulator._fold_tally

        def recording_fold(sim, tally):
            sizes.append(len(tally))
            fold(sim, tally)

        monkeypatch.setattr(simulator, "_fold_tally", recording_fold)
        sim = _asm_machine(SMC_LOOP_ASM, superblocks=superblocks)
        tracemalloc.start()
        try:
            assert sim.run() == 7
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes and max(sizes) <= len(sim._instructions)
        assert peak < 4 * 1024 * 1024
        assert sim.stats.by_mnemonic["sw"] == SMC_LOOP_ITERATIONS
        if superblocks:
            info = sim.superblocks.info()
            assert info["invalidated"] == SMC_LOOP_ITERATIONS
            assert info["built"] == info["hits"] == SMC_LOOP_ITERATIONS + 1

    def test_single_instruction_block(self):
        sim = _asm_machine(SMC_ASM)
        sim.run()
        assert any(b.n == 1 for b in sim.superblocks.blocks.values())

    @pytest.mark.parametrize("superblocks", [True, False])
    def test_fetch_outside_text(self, superblocks):
        sim = _asm_machine(WILD_JUMP_ASM, superblocks=superblocks)
        with pytest.raises(SimulatorFault, match="outside text"):
            sim.run()
        reference, recorder = _reference_for(
            WILD_JUMP_ASM, sim.stats.instructions + 10
        )
        assert reference.pc == sim.pc == 0x00100000
        _assert_matches(sim, recorder, reference)

    @pytest.mark.parametrize("superblocks", [True, False])
    def test_wallclock_deadline(self, superblocks):
        sim = _asm_machine(SPIN_ASM, superblocks=superblocks)
        sim.arm_watchdog(max_instructions=10**12, max_seconds=0.05)
        with pytest.raises(ExecutionLimit) as exc:
            sim.run(max_instructions=10**12)
        assert exc.value.reason == "wallclock"
        reference, recorder = _reference_for(SPIN_ASM, sim.stats.instructions)
        assert reference.stats.instructions == sim.stats.instructions
        _assert_matches(sim, recorder, reference)


class TestBursts:
    """After every ``run(max_instructions=k)`` burst the mix equals the
    reference prefix of the same length."""

    @pytest.mark.parametrize("superblocks", [True, False])
    @pytest.mark.parametrize("k", [1, 7, 97])
    def test_mix_after_every_burst(self, k, superblocks):
        exe = build_program(_OVERHEAD_SOURCE)
        retired = []
        reference, _kernel = build_machine(exe, PointerTaintPolicy())
        reference.events.subscribe(
            InstructionRetired, lambda e: retired.append((e.pc, e.instr))
        )
        reference.run()
        sim, _kernel = build_machine(
            exe, PointerTaintPolicy(), superblocks=superblocks
        )
        prefix = _Recorder()
        bursts = seen = 0
        while True:
            try:
                sim.run(max_instructions=k)
                done = True
            except ExecutionLimit:
                done = False
            bursts += 1
            stats = sim.stats
            for pc, instr in retired[seen:stats.instructions]:
                prefix.add(pc, instr)
            seen = stats.instructions
            assert list(stats.by_mnemonic.items()) == list(
                prefix.mnemonics.items()
            )
            assert list(stats.by_class.items()) == list(
                prefix.classes.items()
            )
            assert list(sim.recent_pcs) == list(prefix.recent)
            if done:
                break
        assert sim.stats.instructions == len(retired)
        assert sim.pc == reference.pc
        assert bursts >= len(retired) // k
        if superblocks and k == 97:
            assert sim.superblocks.info()["hits"] > 0
