"""The stable facade: Session round-trips, unified schema, builder."""

import io
import json

import pytest

import repro
from repro.api import (
    ENGINES,
    POLICIES,
    ExecOptions,
    Session,
    TraceConfig,
    resolve_policy,
    validate_result_json,
)
from repro.attacks.replay import run_minic as legacy_run_minic
from repro.builder import build_machine
from repro.cli import main as cli_main
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.fault import CampaignConfig, FaultCampaign, builtin_workload
from repro.libc.build import build_program

VICTIM = """
int main(void) {
    char buf[10];
    scan_string(buf);
    puts("returned");
    return 0;
}
"""
ATTACK = b"a" * 24


class TestPolicyResolution:
    def test_aliases_cover_cli_choices(self):
        for alias in ("paper", "pointer-taintedness", "control-data", "none"):
            assert alias in POLICIES
            assert resolve_policy(alias) is not None

    def test_instance_and_factory_and_none(self):
        policy = NullPolicy()
        assert resolve_policy(policy) is policy
        assert (resolve_policy(PointerTaintPolicy).name
                == PointerTaintPolicy().name)
        assert resolve_policy(None).name == "pointer-taintedness"

    def test_unknown_alias_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            resolve_policy("no-such-policy")


class TestBuilder:
    def test_machine_is_fully_wired(self):
        exe = build_program("int main(void) { return 5; }")
        sim, kernel = build_machine(exe)
        assert sim.syscall_handler is kernel
        assert sim.run() == 5

    def test_builder_matches_legacy_detection(self):
        from repro.defenses.alerts import SecurityException

        sim, _ = build_machine(
            build_program(VICTIM), PointerTaintPolicy(), stdin=ATTACK
        )
        with pytest.raises(SecurityException):
            sim.run()
        assert sim.stats.alerts == 1


class TestSessionRuns:
    def test_facade_matches_legacy_on_attack(self):
        legacy = legacy_run_minic(VICTIM, PointerTaintPolicy(), stdin=ATTACK)
        facade = Session(options=ExecOptions(policy="paper")).run_minic(
            VICTIM, stdin=ATTACK
        )
        assert facade.detected and legacy.detected
        assert facade.outcome == legacy.outcome
        assert facade.alert.pointer_value == legacy.alert.pointer_value
        assert facade.alert.pc == legacy.alert.pc
        assert facade.stdout == legacy.stdout

    def test_facade_matches_legacy_on_benign(self):
        legacy = legacy_run_minic(VICTIM, PointerTaintPolicy(), stdin=b"bob")
        facade = Session().run_minic(VICTIM, stdin=b"bob")
        assert facade.outcome == legacy.outcome == "exit"
        assert facade.exit_status == legacy.exit_status

    def test_per_call_policy_override(self):
        session = Session(options=ExecOptions(policy="paper"))
        unprotected = session.run_minic(VICTIM, policy="none", stdin=ATTACK)
        assert not unprotected.detected

    def test_pipeline_engine(self):
        result = Session(options=ExecOptions(engine="pipeline")).run_minic(
            VICTIM, stdin=ATTACK
        )
        assert result.detected
        assert result.pstats is not None and result.pstats.cycles > 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Session(options=ExecOptions(engine="warp"))
        assert ENGINES == ("functional", "pipeline")

    def test_metrics_accumulate_across_runs(self):
        session = Session(options=ExecOptions(metrics=True))
        first = session.run_minic(VICTIM, stdin=b"x")
        count_1 = first.metrics["counters"]["run.instructions"]
        second = session.run_minic(VICTIM, stdin=b"x")
        count_2 = second.metrics["counters"]["run.instructions"]
        assert count_2 == 2 * count_1
        assert second.metrics["timers"]["run.wall_seconds"]["count"] == 2

    def test_metrics_off_leaves_result_unstamped(self):
        result = Session().run_minic(VICTIM, stdin=b"x")
        assert result.metrics is None

    def test_metrics_do_not_change_detection(self):
        bare = Session().run_minic(VICTIM, stdin=ATTACK)
        measured = Session(options=ExecOptions(
            metrics=True, trace=True
        )).run_minic(VICTIM, stdin=ATTACK)
        assert measured.detected == bare.detected
        assert measured.alert.pc == bare.alert.pc
        assert (
            measured.metrics["counters"]["run.instructions"]
            == bare.sim.stats.instructions
        )


class TestSessionCampaign:
    def test_digest_matches_raw_campaign(self):
        config = CampaignConfig(seed=3, trials=6)
        raw = FaultCampaign(builtin_workload("exp1"), config).run()
        # Instrumentation must not perturb the seeded fault schedule.
        facade = Session(options=ExecOptions(metrics=True)).run_campaign(
            builtin="exp1", seed=3, trials=6
        )
        assert facade.digest() == raw.digest()
        assert facade.metrics["counters"]["campaign.trials"] == 6

    def test_source_workload(self):
        result = Session().run_campaign(
            "int main(void) { char b[16]; read(0, b, 8); return 0; }",
            stdin=b"ABCDEFGH",
            seed=1,
            trials=4,
        )
        assert sum(result.counts.values()) == 4

    def test_needs_exactly_one_target(self):
        session = Session()
        with pytest.raises(ValueError, match="exactly one"):
            session.run_campaign()
        with pytest.raises(ValueError, match="exactly one"):
            session.run_campaign("int main(void){return 0;}", builtin="exp1")


class TestUnifiedSchema:
    def test_run_result_json(self):
        result = Session(options=ExecOptions(metrics=True)).run_minic(
            VICTIM, stdin=ATTACK
        )
        payload = validate_result_json(result.to_json())
        assert payload["kind"] == "run"
        assert payload["detected"] is True
        assert payload["stats"]["instructions"] > 0
        assert payload["metrics"]["counters"]["run.alerts"] == 1
        json.dumps(payload)  # must be serializable

    def test_campaign_result_json(self):
        result = Session(options=ExecOptions(metrics=True)).run_campaign(
            builtin="exp1", seed=3, trials=5
        )
        payload = validate_result_json(result.to_json())
        assert payload["kind"] == "campaign"
        assert payload["digest"] == payload["stats"]["digest"]
        assert payload["stats"]["trials"] == 5
        json.dumps(payload)

    def test_experiment_result_json(self):
        result = Session(options=ExecOptions(metrics=True)).run_experiment(
            "fig2", render=False
        )
        payload = validate_result_json(result.to_json())
        assert payload["kind"] == "experiment"
        assert payload["detected"] is True
        assert payload["metrics"]["counters"]["run.instructions"] > 0
        json.dumps(payload)

    def test_pipeline_run_json_carries_stall_breakdown(self):
        result = Session(options=ExecOptions(engine="pipeline")).run_minic(
            VICTIM, stdin=b"x"
        )
        stats = result.to_json()["stats"]
        assert stats["cycles"] > stats["instructions"] > 0
        assert "cpi" in stats and "fetch_stalls" in stats

    def test_validator_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            validate_result_json({"kind": "run"})
        with pytest.raises(ValueError, match="kind"):
            validate_result_json(
                {"kind": "nope", "detected": True,
                 "stats": {}, "metrics": {}}
            )
        with pytest.raises(ValueError, match="must be a dict"):
            validate_result_json([1, 2, 3])

    def test_error_envelope_accepted(self):
        payload = validate_result_json({
            "kind": "error",
            "reason": "queue_full",
            "error": {"type": "QueueFull", "message": "64 pending"},
            "job": {"id": "j1", "seq": 0, "queue_ms": 1.5, "exec_ms": 0.0,
                    "retries": 0},
        })
        assert payload["error"]["type"] == "QueueFull"
        # Minimal form: no reason, no job.
        validate_result_json({
            "kind": "error",
            "error": {"type": "ValueError", "message": ""},
        })

    def test_malformed_error_envelopes_rejected(self):
        good = {"type": "E", "message": "m"}
        for bad in (
            {"kind": "error"},  # no error block at all
            {"kind": "error", "error": "boom"},  # not a dict
            {"kind": "error", "error": {"message": "m"}},  # missing type
            {"kind": "error", "error": {"type": "", "message": "m"}},
            {"kind": "error", "error": {"type": "E", "message": 3}},
            {"kind": "error", "error": good, "reason": ""},
            {"kind": "error", "error": good, "reason": 7},
        ):
            with pytest.raises(ValueError, match="schema"):
                validate_result_json(bad)

    def test_malformed_job_envelopes_rejected(self):
        base = {"kind": "error", "error": {"type": "E", "message": "m"}}
        for job in (
            "j1",  # not a dict
            {"seq": 0},  # missing id
            {"id": ""},  # empty id
            {"id": "j1", "queue_ms": -1},
            {"id": "j1", "exec_ms": "fast"},
            {"id": "j1", "retries": -2},
            {"id": "j1", "retries": 1.5},
        ):
            with pytest.raises(ValueError, match="job"):
                validate_result_json(dict(base, job=job))

    def test_malformed_stats_limit_rejected(self):
        base = {"kind": "run", "detected": False, "metrics": {}}
        for limit in (
            "wallclock",  # not a dict
            {"instructions": 5},  # missing reason
            {"reason": "tea_break", "instructions": 5},
            {"reason": "wallclock", "instructions": -1},
        ):
            with pytest.raises(ValueError, match="limit"):
                validate_result_json(
                    dict(base, stats={"outcome": "limit", "limit": limit})
                )

    def test_cli_run_json_validates(self, tmp_path):
        victim = tmp_path / "victim.c"
        victim.write_text(VICTIM)
        json_path = tmp_path / "run.json"
        code = cli_main(
            [
                "run", str(victim),
                "--stdin-text", "a" * 24,
                "--json", str(json_path),
                "--metrics",
            ],
            out=io.StringIO(),
        )
        assert code == 2
        payload = validate_result_json(json.loads(json_path.read_text()))
        assert payload["metrics"]["counters"]["run.alerts"] == 1

    def test_cli_campaign_json_validates(self, tmp_path):
        json_path = tmp_path / "campaign.json"
        code = cli_main(
            [
                "campaign", "--builtin", "exp1",
                "--seed", "3", "--trials", "5",
                "--json", str(json_path),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        payload = validate_result_json(json.loads(json_path.read_text()))
        assert payload["kind"] == "campaign"


class TestSessionExperiments:
    def test_fig1_static_artifact(self):
        result = Session().run_experiment("fig1")
        assert not result.detected
        assert result.stats["memory_corruption_share_pct"] > 50
        assert "67" in result.report

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            Session().run_experiment("table99")

    def test_experiment_timer_recorded(self):
        session = Session(options=ExecOptions(metrics=True))
        session.run_experiment("fig1", render=False)
        dump = session.metrics.to_dict()
        assert dump["timers"]["experiment.fig1.seconds"]["count"] == 1


class TestLegacyShims:
    def test_legacy_entry_points_importable(self):
        # The pre-facade API keeps working for existing callers.
        assert repro.run_minic is legacy_run_minic
        assert callable(repro.run_executable)
        assert repro.RunResult is not None
        assert repro.Session is Session
        assert repro.TraceConfig is TraceConfig

    def test_legacy_positional_policy_still_works(self):
        result = repro.run_minic(VICTIM, NullPolicy(), stdin=ATTACK)
        assert not result.detected
