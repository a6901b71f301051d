"""Watchdog guard: identical budget semantics under both engines."""

import pytest

from repro.attacks.replay import OUTCOME_LIMIT, run_executable
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.machine import ExecutionLimit
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator
from repro.isa.assembler import assemble

SPIN = ".text\n_start: b _start\n"


def make_sim():
    return Simulator(assemble(SPIN), PointerTaintPolicy())


class TestInstructionBudget:
    def test_functional_engine_stops_at_budget(self):
        sim = make_sim()
        sim.arm_watchdog(max_instructions=250)
        with pytest.raises(ExecutionLimit) as exc:
            sim.run()
        assert exc.value.reason == "instructions"
        assert sim.stats.instructions == 250

    def test_pipeline_engine_stops_at_same_budget(self):
        sim = make_sim()
        sim.arm_watchdog(max_instructions=250)
        with pytest.raises(ExecutionLimit) as exc:
            Pipeline(sim).run()
        assert exc.value.reason == "instructions"
        assert sim.stats.instructions == 250

    def test_limit_is_absolute_not_per_run(self):
        """arm_watchdog sets a ceiling on total executed instructions, so
        resuming a run does not reset the budget."""
        sim = make_sim()
        sim.arm_watchdog(max_instructions=300)
        with pytest.raises(ExecutionLimit):
            sim.run(max_instructions=100)  # engine budget trips first
        with pytest.raises(ExecutionLimit) as exc:
            sim.run()  # watchdog allows only 200 more
        assert exc.value.reason == "instructions"
        assert sim.stats.instructions == 300

    def test_structured_fields(self):
        sim = make_sim()
        sim.arm_watchdog(max_instructions=10)
        with pytest.raises(ExecutionLimit) as exc:
            sim.run()
        limit = exc.value
        assert isinstance(limit, RuntimeError)
        assert limit.pc == sim.executable.entry
        assert limit.instructions == 10

    def test_disarm_lifts_the_limit(self):
        sim = make_sim()
        sim.arm_watchdog(max_instructions=10)
        sim.disarm_watchdog()
        with pytest.raises(ExecutionLimit) as exc:
            sim.run(max_instructions=50)
        assert sim.stats.instructions == 50
        assert exc.value.reason == "instructions"


class TestWallClockDeadline:
    def test_functional_engine_observes_deadline(self):
        sim = make_sim()
        sim.arm_watchdog(max_seconds=0.0)
        with pytest.raises(ExecutionLimit) as exc:
            sim.run()
        assert exc.value.reason == "wallclock"

    def test_pipeline_engine_observes_deadline(self):
        sim = make_sim()
        sim.arm_watchdog(max_seconds=0.0)
        with pytest.raises(ExecutionLimit) as exc:
            Pipeline(sim).run()
        assert exc.value.reason == "wallclock"

    def test_enforce_watchdog_reports_partial_progress(self):
        sim = make_sim()
        sim.stats.instructions = 123
        sim.pc = 0x400010
        sim.arm_watchdog(max_seconds=0.0)
        with pytest.raises(ExecutionLimit) as exc:
            sim.enforce_watchdog()
        assert exc.value.instructions == 123
        assert exc.value.pc == 0x400010


class TestReplayIntegration:
    def test_functional_limit_outcome(self):
        result = run_executable(assemble(SPIN), max_instructions=500)
        assert result.outcome == OUTCOME_LIMIT
        assert "budget" in result.fault

    def test_pipeline_honors_max_instructions(self):
        """Before the shared watchdog the pipeline path ignored
        ``max_instructions`` entirely."""
        result = run_executable(
            assemble(SPIN), max_instructions=500, use_pipeline=True
        )
        assert result.outcome == OUTCOME_LIMIT
        assert result.sim.stats.instructions == 500

    def test_max_seconds_bounds_both_engines(self):
        for use_pipeline in (False, True):
            result = run_executable(
                assemble(SPIN),
                max_seconds=0.0,
                use_pipeline=use_pipeline,
            )
            assert result.outcome == OUTCOME_LIMIT
            assert "wall-clock" in result.fault


class TestStructuredLimitResult:
    """Overruns are structured data, not strings: services branch on
    ``RunResult.limit["reason"]`` and the unified JSON ``stats.limit``."""

    def test_wallclock_deadline_is_structured_on_both_engines(self):
        for use_pipeline in (False, True):
            result = run_executable(
                assemble(SPIN), max_seconds=0.0, use_pipeline=use_pipeline
            )
            assert result.outcome == OUTCOME_LIMIT
            assert result.limit is not None
            assert result.limit["reason"] == "wallclock"
            assert result.limit["instructions"] >= 0
            assert result.limit["pc"] >= 0

    def test_instruction_budget_is_structured(self):
        result = run_executable(assemble(SPIN), max_instructions=500)
        assert result.limit == {
            "reason": "instructions",
            "instructions": 500,
            "pc": result.limit["pc"],
        }

    def test_limit_round_trips_through_unified_json(self):
        from repro.api import validate_result_json

        result = run_executable(assemble(SPIN), max_seconds=0.0)
        payload = validate_result_json(result.to_json())
        assert payload["stats"]["limit"]["reason"] == "wallclock"
        assert payload["stats"]["limit"]["instructions"] >= 0

    def test_clean_runs_carry_no_limit(self):
        exit_asm = ".text\n_start: li $a0, 0\nli $v0, 1\nsyscall\n"
        result = run_executable(assemble(exit_asm))
        assert result.limit is None
        assert "limit" not in result.to_json()["stats"]
