"""Globbing heap-corruption extension scenario (CA-2001-33 analogue)."""

import pytest

from repro.apps.ftpglob import (
    FTPGLOB_SOURCE,
    attack_pattern,
    ftpglob_scenario,
)
from repro.attacks.replay import run_minic
from repro.defenses.policy import ControlDataPolicy, NullPolicy, PointerTaintPolicy
from repro.kernel.network import ScriptedClient


class TestGlobMatcher:
    """The matcher itself, exercised through the server's LIST command."""

    def _list(self, pattern):
        result = run_minic(
            FTPGLOB_SOURCE,
            PointerTaintPolicy(),
            clients=[ScriptedClient([b"LIST " + pattern + b"\n", b"QUIT\n"])],
        )
        assert result.outcome == "exit", result.describe()
        transcript = bytes(result.clients[0].transcript).decode()
        return transcript.split("\r\n")[1]

    def test_star_matches_everything(self):
        assert self._list(b"*") == "readme notes budget todo "

    def test_literal_name(self):
        assert self._list(b"budget") == "budget "

    def test_prefix_star(self):
        assert self._list(b"read*") == "readme "

    def test_question_marks(self):
        assert self._list(b"?o??") == "todo "

    def test_no_match_is_empty(self):
        assert self._list(b"zzz*") == ""

    def test_directory_prefix_echoed(self):
        assert self._list(b"pub/sub/n*") == "pub/sub/notes "

    def test_star_in_middle(self):
        assert self._list(b"b*t") == "budget "


class TestGlobAttack:
    def test_detected_at_unlink_store(self):
        result = ftpglob_scenario().run_attack(PointerTaintPolicy())
        assert result.detected
        assert result.alert.kind == "store"
        assert result.alert.pointer_value == 0x61616161

    def test_attack_pattern_shape(self):
        pattern = attack_pattern()
        assert pattern.endswith(b"/*")
        assert len(pattern) > 40

    def test_control_data_baseline_misses(self):
        result = ftpglob_scenario().run_attack(ControlDataPolicy())
        assert not result.detected

    def test_unprotected_wild_writes_land(self):
        scenario = ftpglob_scenario()
        result = scenario.run_attack(NullPolicy())
        assert not result.detected
        assert result.sim.stats.tainted_dereferences > 0
        assert scenario.attack_succeeded(result)

    def test_benign_sessions_clean(self):
        result = ftpglob_scenario().run_benign(PointerTaintPolicy())
        assert result.outcome == "exit"
        transcript = bytes(result.clients[0].transcript)
        assert b"226 Transfer complete" in transcript
        assert b"221 Goodbye" in transcript
