"""Functional engine vs pipeline engine: the unified core cannot drift.

Both engines drive the same MachineState through the same predecoded
executor bindings, so every scenario in the synthetic and real-world attack
suites must produce the same verdict on both -- same outcome, same exit
status, and (for detections) the same alert kind at the same pc.
"""

import pytest

from repro.defenses.policy import PointerTaintPolicy
from repro.evalx.experiments import all_attack_scenarios

_SCENARIOS = {s.name: s for s in all_attack_scenarios()}


def _verdict(result):
    return (
        result.outcome,
        result.exit_status,
        (result.alert.kind, result.alert.pc) if result.alert else None,
    )


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_attack_verdict_identical_on_both_engines(name):
    scenario = _SCENARIOS[name]
    functional = scenario.run_attack(PointerTaintPolicy())
    pipelined = scenario.run_attack(PointerTaintPolicy(), use_pipeline=True)
    assert _verdict(functional) == _verdict(pipelined)
    # The detectors saw the same dynamic instruction stream.
    assert (
        functional.sim.stats.instructions == pipelined.sim.stats.instructions
    )
    assert (
        functional.sim.stats.tainted_dereferences
        == pipelined.sim.stats.tainted_dereferences
    )


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_benign_verdict_identical_on_both_engines(name):
    scenario = _SCENARIOS[name]
    if not scenario.benign_input:
        pytest.skip("scenario has no benign input")
    functional = scenario.run_benign(PointerTaintPolicy())
    pipelined = scenario.run_benign(PointerTaintPolicy(), use_pipeline=True)
    assert _verdict(functional) == _verdict(pipelined)
    assert functional.stdout == pipelined.stdout
