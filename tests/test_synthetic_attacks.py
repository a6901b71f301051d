"""Figure 2 / Table 4 scenario tests: detection, baselines, damage."""

import pytest

from repro.apps.synthetic import (
    all_synthetic_scenarios,
    exp1_scenario,
    exp2_scenario,
    exp3_scenario,
    leak_scenario,
    vuln_a_scenario,
    vuln_b_scenario,
)
from repro.defenses.policy import ControlDataPolicy, NullPolicy, PointerTaintPolicy


class TestExp1StackSmash:
    def test_detected_at_return_instruction(self):
        result = exp1_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "jump"
        assert "jr $31" in result.alert.disassembly

    def test_tainted_return_address_is_0x61616161(self):
        """The paper: 'the return address is tainted as 0x61616161'."""
        result = exp1_scenario().run_attack(PointerTaintPolicy())
        assert result.alert.pointer_value == 0x61616161
        assert result.alert.taint_mask == 0xF

    def test_control_data_baseline_also_detects(self):
        """Return-address corruption is exactly what Minos/SPE catch."""
        result = exp1_scenario().run_attack(ControlDataPolicy())
        assert result.detected

    def test_unprotected_machine_hijacked(self):
        result = exp1_scenario().run_attack(NullPolicy())
        assert not result.detected
        assert exp1_scenario().attack_succeeded(result)

    def test_benign_input_returns_normally(self):
        result = exp1_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"
        assert "exp1 returned" in result.stdout


class TestExp2HeapCorruption:
    def test_detected_inside_free(self):
        result = exp2_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "store"

    def test_tainted_link_is_0x61616161(self):
        result = exp2_scenario().run_attack(PointerTaintPolicy())
        assert result.alert.pointer_value == 0x61616161

    def test_control_data_baseline_misses(self):
        result = exp2_scenario().run_attack(ControlDataPolicy())
        assert not result.detected

    def test_unprotected_arbitrary_write_lands(self):
        scenario = exp2_scenario()
        result = scenario.run_attack(NullPolicy())
        assert not result.detected
        # unlink wrote the (tainted) bk value through the tainted fd.
        value, taint = result.sim.memory.read(0x61616161, 4)
        assert value == 0x61616161
        assert taint == 0xF
        assert scenario.attack_succeeded(result)

    def test_benign_heap_usage_clean(self):
        result = exp2_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"


class TestExp3FormatString:
    def test_detected_at_percent_n_store(self):
        result = exp3_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "store"

    def test_planted_word_is_abcd(self):
        """The paper: '$3 ... is 0x64636261, corresponding to "abcd"'."""
        result = exp3_scenario().run_attack(PointerTaintPolicy())
        assert result.alert.pointer_value == 0x64636261

    def test_control_data_baseline_misses(self):
        result = exp3_scenario().run_attack(ControlDataPolicy())
        assert not result.detected

    def test_unprotected_count_written_to_target(self):
        scenario = exp3_scenario()
        result = scenario.run_attack(NullPolicy())
        value, taint = result.sim.memory.read(0x64636261, 4)
        assert value == 4        # %n count: "abcd" printed before it
        assert scenario.attack_succeeded(result)

    def test_benign_format_passthrough(self):
        result = exp3_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"
        assert "plain text" in result.stdout


class TestTable4FalseNegatives:
    @pytest.mark.parametrize(
        "make_scenario",
        [vuln_a_scenario, vuln_b_scenario, leak_scenario],
        ids=["integer-overflow", "auth-flag", "format-leak"],
    )
    def test_attack_evades_all_policies(self, make_scenario):
        scenario = make_scenario()
        for policy in (PointerTaintPolicy(), ControlDataPolicy()):
            result = scenario.run_attack(policy)
            assert not result.detected, scenario.name

    def test_vuln_a_damage(self):
        scenario = vuln_a_scenario()
        result = scenario.run_attack(PointerTaintPolicy())
        assert "corrupted" in result.stdout
        assert scenario.attack_succeeded(result)

    def test_vuln_a_benign_intact(self):
        result = vuln_a_scenario().run_benign(PointerTaintPolicy())
        assert "intact" in result.stdout

    def test_vuln_b_grants_access(self):
        scenario = vuln_b_scenario()
        result = scenario.run_attack(PointerTaintPolicy())
        assert "access granted" in result.stdout

    def test_vuln_b_benign_denied(self):
        result = vuln_b_scenario().run_benign(PointerTaintPolicy())
        assert "access denied" in result.stdout

    def test_leak_discloses_secret(self):
        scenario = leak_scenario()
        result = scenario.run_attack(PointerTaintPolicy())
        assert "1337c0de" in result.stdout

    def test_leak_benign_no_disclosure(self):
        result = leak_scenario().run_benign(PointerTaintPolicy())
        assert "1337c0de" not in result.stdout

    def test_percent_n_variant_of_leak_program_is_caught(self):
        """Table 4(C)'s counterpoint: the same program attacked with %n
        (instead of %x) IS detected -- only the pure read escapes."""
        from repro.attacks.replay import run_minic
        from repro.apps.synthetic import LEAK_SOURCE

        result = run_minic(
            LEAK_SOURCE, PointerTaintPolicy(), stdin=b"abcd%n"
        )
        assert result.detected
        assert result.alert.pointer_value == 0x64636261


class TestScenarioMetadata:
    def test_expected_kinds_match_observations(self):
        for scenario in all_synthetic_scenarios():
            result = scenario.run_attack(PointerTaintPolicy())
            if scenario.expected_alert_kind is None:
                assert not result.detected, scenario.name
            else:
                assert result.detected, scenario.name
                assert result.alert.kind == scenario.expected_alert_kind

    def test_control_data_expectations(self):
        for scenario in all_synthetic_scenarios():
            result = scenario.run_attack(ControlDataPolicy())
            assert result.detected == scenario.detected_by_control_data, (
                scenario.name
            )

    def test_benign_runs_never_alert(self):
        for scenario in all_synthetic_scenarios():
            result = scenario.run_benign(PointerTaintPolicy())
            assert result.outcome == "exit", scenario.name
