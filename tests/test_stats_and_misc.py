"""Coverage for statistics, disassembly, process events, and misc APIs."""

import pytest

from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.stats import ExecutionStats
from repro.evalx.experiments import run_real_world, run_sec54
from repro.isa.assembler import assemble
from repro.isa.instructions import (
    Instr,
    SPECS,
    disassemble,
    register_name,
    register_number,
)
from repro.kernel.process import CompromiseEvent, ProcessState

from tests.helpers import run_asm


class TestExecutionStats:
    def test_counters_accumulate(self):
        result = run_minic(
            "int main(void) { int i; int s; s = 0;"
            "for (i = 0; i < 10; i++) { s += i; } return s; }"
        )
        stats = result.sim.stats
        assert stats.instructions > 50
        assert stats.branches >= 10
        assert stats.jumps >= 2           # jal main, jr $ra
        assert stats.syscalls >= 1
        assert stats.by_mnemonic["addiu"] > 0
        assert stats.by_class["alu"] > 0

    def test_memory_operations_property(self):
        stats = ExecutionStats(loads=3, stores=4)
        assert stats.memory_operations == 7

    def test_merge(self):
        a = ExecutionStats(instructions=10, loads=1, alerts=1)
        a.by_mnemonic["lw"] = 1
        b = ExecutionStats(instructions=5, loads=2, tainted_dereferences=3)
        b.by_mnemonic["lw"] = 4
        a.merge(b)
        assert a.instructions == 15
        assert a.loads == 3
        assert a.alerts == 1
        assert a.tainted_dereferences == 3
        assert a.by_mnemonic["lw"] == 5

    def test_ratios_guard_division_by_zero(self):
        stats = ExecutionStats()
        assert stats.taint_activity_ratio() == 0.0
        assert stats.software_tainting_overhead() == 0.0

    def test_summary_keys(self):
        summary = ExecutionStats(instructions=1).summary()
        assert summary["instructions"] == 1
        assert "alerts" in summary and "input_bytes_tainted" in summary


class TestDisassembly:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_every_format_renders(self, name):
        spec = SPECS[name]
        instr = Instr(name, spec.klass, rd=1, rs=2, rt=3, shamt=4, imm=5,
                      target=0x400000)
        text = disassemble(instr)
        assert text.startswith(name)

    def test_paper_notation_for_memory_ops(self):
        instr = Instr("sw", "store", rt=21, rs=3, imm=0)
        assert disassemble(instr) == "sw $21,0($3)"

    def test_register_name_number_roundtrip(self):
        for number in range(32):
            assert register_number(register_name(number)) == number

    def test_register_number_accepts_bare_names(self):
        assert register_number("sp") == 29
        assert register_number("$s8") == 30   # alias for $fp

    def test_unknown_register_raises(self):
        with pytest.raises(ValueError):
            register_number("$x9")


class TestProcessState:
    def test_event_recording_and_queries(self):
        state = ProcessState()
        state.record("exec", "/bin/sh")
        state.record("open", "/etc/passwd")
        assert state.executed_programs() == ["/bin/sh"]
        assert str(state.events[1]) == "open(/etc/passwd)"

    def test_stdout_text_decoding(self):
        state = ProcessState()
        state.stdout.extend(b"caf\xe9")
        assert state.stdout_text == "caf\xe9"

    def test_compromise_event_str(self):
        assert str(CompromiseEvent("setuid", "0")) == "setuid(0)"


class TestRunnersCoverage:
    def test_run_real_world_records(self):
        records = run_real_world(policies=(PointerTaintPolicy(),))
        assert len(records) == 4
        assert all(r.detected for r in records)
        names = {r.scenario for r in records}
        assert "wuftpd-site-exec" in names

    def test_run_sec54_single_workload(self):
        from repro.apps.spec import workload_by_name

        rows = run_sec54(workloads=[workload_by_name("MCF")])
        assert len(rows) == 1
        row = rows[0]
        assert row.instructions_tracking == row.instructions_no_tracking
        assert 0 < row.software_overhead_pct < 100


class TestTraceHook:
    def test_halt_is_idempotent_state(self):
        sim, status = run_asm(
            ".text\n_start:\nli $v0, 1\nli $a0, 9\nsyscall\n"
        )
        assert sim.halted
        assert sim.exit_status == status == 9
