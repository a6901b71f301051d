"""Tests for the dereference detector and the detection policies."""

import pytest

from repro.defenses.alerts import (
    Alert,
    KIND_JUMP,
    KIND_LOAD,
    KIND_STORE,
    SecurityException,
)
from repro.defenses.policy import (
    ControlDataPolicy,
    DetectionPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from repro.defenses.taintedness import TaintednessDetector


class TestPolicies:
    def test_pointer_taint_checks_everything(self):
        policy = PointerTaintPolicy()
        assert policy.checks(KIND_LOAD)
        assert policy.checks(KIND_STORE)
        assert policy.checks(KIND_JUMP)

    def test_control_data_checks_only_jumps(self):
        policy = ControlDataPolicy()
        assert not policy.checks(KIND_LOAD)
        assert not policy.checks(KIND_STORE)
        assert policy.checks(KIND_JUMP)

    def test_null_checks_nothing(self):
        policy = NullPolicy()
        for kind in (KIND_LOAD, KIND_STORE, KIND_JUMP):
            assert not policy.checks(kind)

    def test_default_compatibility_options_enabled(self):
        policy = PointerTaintPolicy()
        assert policy.untaint_on_compare
        assert policy.untaint_xor_idiom
        assert policy.untaint_and_zero
        assert policy.track_taint

    def test_with_options_returns_variant(self):
        policy = PointerTaintPolicy()
        variant = policy.with_options(untaint_on_compare=False)
        assert not variant.untaint_on_compare
        assert policy.untaint_on_compare  # original unchanged
        assert variant.checked_kinds == policy.checked_kinds

    def test_policies_are_frozen(self):
        with pytest.raises(Exception):
            PointerTaintPolicy().name = "x"

    def test_names(self):
        assert PointerTaintPolicy().name == "pointer-taintedness"
        assert ControlDataPolicy().name == "control-data-only"
        assert NullPolicy().name == "unprotected"


class TestDetector:
    def _check(self, detector, kind=KIND_LOAD, taint=0xF):
        return detector.check(
            kind=kind,
            pc=0x400100,
            disassembly="lw $3,0($3)",
            pointer_value=0x61616161,
            taint_mask=taint,
        )

    def test_clean_word_never_alerts(self):
        detector = TaintednessDetector(PointerTaintPolicy())
        assert self._check(detector, taint=0) is None
        assert detector.alerts == []

    def test_tainted_load_alerts_under_paper_policy(self):
        detector = TaintednessDetector(PointerTaintPolicy())
        alert = self._check(detector)
        assert alert is not None
        assert alert.kind == KIND_LOAD
        assert alert.pointer_value == 0x61616161
        assert detector.alerts == [alert]

    def test_single_tainted_byte_suffices(self):
        """The OR gate of section 4.3: any byte of the word trips it."""
        detector = TaintednessDetector(PointerTaintPolicy())
        assert self._check(detector, taint=0b0010) is not None

    def test_control_data_policy_ignores_data_derefs(self):
        detector = TaintednessDetector(ControlDataPolicy())
        assert self._check(detector, kind=KIND_LOAD) is None
        assert self._check(detector, kind=KIND_STORE) is None
        assert self._check(detector, kind=KIND_JUMP) is not None

    def test_null_policy_never_alerts(self):
        detector = TaintednessDetector(NullPolicy())
        for kind in (KIND_LOAD, KIND_STORE, KIND_JUMP):
            assert self._check(detector, kind=kind) is None

    def test_reset_clears_log(self):
        detector = TaintednessDetector(PointerTaintPolicy())
        self._check(detector)
        detector.reset()
        assert detector.alerts == []

    def test_alert_string_has_paper_shape(self):
        alert = Alert(
            pc=0x44D7B0,
            kind=KIND_STORE,
            disassembly="sw $21,0($3)",
            pointer_value=0x1002BC20,
            taint_mask=0xF,
        )
        rendered = str(alert)
        assert "44d7b0" in rendered
        assert "sw $21,0($3)" in rendered
        assert "0x1002bc20" in rendered

    def test_security_exception_carries_alert(self):
        alert = Alert(
            pc=0x400000,
            kind=KIND_JUMP,
            disassembly="jr $31",
            pointer_value=0x61616161,
            taint_mask=0xF,
        )
        exc = SecurityException(alert)
        assert exc.alert is alert
        assert "jr $31" in str(exc)
