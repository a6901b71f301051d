"""Tests for the benchmark's own code: every output check passes on right
outputs and fails on each corrupted one, the seeded inputs stay inside
the programs' buffers, and the trace arithmetic adds up.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.apps.spec import workload_by_name  # noqa: E402
from repro.fault.campaign import TrialRecord  # noqa: E402

import checks  # noqa: E402
from checks import Replay, SpecRun  # noqa: E402
from seeded_inputs import GENERATORS, spec_inputs  # noqa: E402
from tracing import PER_LAYER_UNITS, layer_metrics  # noqa: E402

# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------


def test_references_match_the_stock_runs():
    # What the programs print on apps/spec.py's stock inputs.
    assert checks.gap_reference(workload_by_name("GAP").make_input()) == (
        90, 590, 90, 525,
    )
    assert checks.vortex_reference(
        workload_by_name("VORTEX").make_input()
    ) == (211, 40, 169, 40, 171, 980)
    assert checks.bzip2_reference(workload_by_name("BZIP2").make_input()) == (
        1990, 800,
    )


def test_vortex_reference_wraps_keys_at_32_bits():
    # "c" inserts key "zzzzz", whose hash overflows 32 bits.
    unwrapped = 0
    for byte in b"zzzzz":
        unwrapped = unwrapped * 131 + byte
    assert unwrapped >= 1 << 31
    wrapped = unwrapped & 0xFFFFFFFF
    if wrapped & 0x80000000:
        wrapped -= 1 << 32
    counts = checks.vortex_reference(b"czzzzz\n")
    assert counts == (1, 0, 0, 0, 1, abs(wrapped) % 1000)


def _spec_runs(inputs):
    gap = checks.gap_reference(inputs["GAP"])
    vortex = checks.vortex_reference(inputs["VORTEX"])
    size, packed = checks.bzip2_reference(inputs["BZIP2"])
    stdout = {
        name: f"{name.lower()}: ok\n" for name in inputs
    }
    stdout["GAP"] = "gap: %d nodes, %d edges, %d reached, dist sum=%d\n" % gap
    stdout["VORTEX"] = (
        "vortex: %d inserts, %d hits, %d misses, %d deletes, %d live, "
        "checksum=%d\n" % vortex
    )
    stdout["BZIP2"] = (
        f"bzip2: in={size} packed={packed} out={size} errors=0\n"
    )
    return [
        SpecRun(name, level, "exit", 0, 0, stdout[name], 1000 + level)
        for level in (0, 1)
        for name in inputs
    ]


def _replace(runs, program, level, **changes):
    return [
        dataclasses.replace(run, **changes)
        if (run.program, run.level) == (program, level)
        else run
        for run in runs
    ]


@pytest.fixture(scope="module")
def spec_case():
    inputs = spec_inputs(0)
    return inputs, _spec_runs(inputs)


def test_spec_check_passes_right_outputs(spec_case):
    inputs, runs = spec_case
    assert checks.check_spec(inputs, runs) == []


@pytest.mark.parametrize(
    "program, level, changes",
    [
        ("MCF", 0, {"alerts": 1}),
        ("GCC", 1, {"exit_status": 3}),
        ("PARSER", 0, {"outcome": "alert"}),
        ("VPR", 1, {"stdout": "vpr: 220 iterations, 41 accepted\n"}),
    ],
)
def test_spec_check_fails_on_alert_status_or_level_mismatch(
    spec_case, program, level, changes
):
    inputs, runs = spec_case
    assert checks.check_spec(inputs, _replace(runs, program, level, **changes))


def test_spec_check_fails_on_wrong_gap_distance_sum(spec_case):
    inputs, runs = spec_case
    nodes, edges, reached, total = checks.gap_reference(inputs["GAP"])
    wrong = "gap: %d nodes, %d edges, %d reached, dist sum=%d\n" % (
        nodes, edges, reached, total + 1,
    )
    runs = _replace(runs, "GAP", 0, stdout=wrong)
    runs = _replace(runs, "GAP", 1, stdout=wrong)
    assert any("GAP" in p for p in checks.check_spec(inputs, runs))


def test_spec_check_fails_on_wrong_vortex_checksum(spec_case):
    inputs, runs = spec_case
    counts = list(checks.vortex_reference(inputs["VORTEX"]))
    counts[-1] ^= 1
    wrong = (
        "vortex: %d inserts, %d hits, %d misses, %d deletes, %d live, "
        "checksum=%d\n" % tuple(counts)
    )
    runs = _replace(runs, "VORTEX", 0, stdout=wrong)
    runs = _replace(runs, "VORTEX", 1, stdout=wrong)
    assert any("VORTEX" in p for p in checks.check_spec(inputs, runs))


@pytest.mark.parametrize("field", ["out", "errors"])
def test_spec_check_fails_on_broken_bzip2_round_trip(spec_case, field):
    inputs, runs = spec_case
    size, packed = checks.bzip2_reference(inputs["BZIP2"])
    out, errors = (size - 1, 0) if field == "out" else (size, 2)
    wrong = f"bzip2: in={size} packed={packed} out={out} errors={errors}\n"
    runs = _replace(runs, "BZIP2", 0, stdout=wrong)
    runs = _replace(runs, "BZIP2", 1, stdout=wrong)
    assert any("BZIP2" in p for p in checks.check_spec(inputs, runs))


def test_spec_check_fails_on_a_missing_level(spec_case):
    inputs, runs = spec_case
    runs = [run for run in runs if (run.program, run.level) != ("GZIP", 1)]
    assert checks.check_spec(inputs, runs)


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------

_PLAN = [
    ("insn:120", "mem@0x10000040^0x4"),
    ("pc:0x400100:3", "taint-reg@r4^0x1"),
    ("insn:77", "reg@r8^0x100"),
    ("pc:0x400200", "taint-mem@0x7fff0010^0x2"),
]


def _records():
    return [
        TrialRecord(0, *_PLAN[0], "masked", "output identical to golden",
                    851, True),
        TrialRecord(1, *_PLAN[1], "detected", "alert: ...; rollback-retry "
                    "reproduced golden", 140, True, True),
        TrialRecord(2, *_PLAN[2], "crash", "SimulatorFault: ...; "
                    "rollback-retry reproduced golden", 90, True, True),
        TrialRecord(3, *_PLAN[3], "masked", "output identical to golden",
                    851, True),
    ]


def test_campaign_check_passes_right_records():
    assert checks.check_campaign("exp1", _PLAN, _records()) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rs: rs[:-1],  # a plan index never ran
        lambda rs: rs + [rs[0]],  # an index ran twice
        lambda rs: [dataclasses.replace(rs[0], fault="mem@0x10000044^0x4")]
        + rs[1:],  # the trial is not the one planned
        lambda rs: rs[:3] + [dataclasses.replace(rs[3], outcome="sdc")],
        lambda rs: rs[:1]
        + [dataclasses.replace(rs[1], outcome="crash")]
        + rs[2:],  # a taint-bit fault crashed
        lambda rs: rs[:2]
        + [dataclasses.replace(rs[2], recovered=False)]
        + rs[3:],  # rollback-retry diverged
    ],
)
def test_campaign_check_fails_on_corrupted_records(corrupt):
    assert checks.check_campaign("exp1", _PLAN, corrupt(_records()))


def test_legacy_replay_check_ignores_only_the_index():
    timed = _records()[1:3]
    legacy = [dataclasses.replace(r, index=i) for i, r in enumerate(timed)]
    assert checks.check_legacy_replay("exp2", timed, legacy) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rs: rs[:1],
        lambda rs: [dataclasses.replace(rs[0], outcome="sdc")] + rs[1:],
        lambda rs: rs[:1] + [dataclasses.replace(rs[1], instructions=91)],
        lambda rs: rs[:1] + [dataclasses.replace(rs[1], injected=False)],
    ],
)
def test_legacy_replay_check_fails_on_any_other_difference(corrupt):
    timed = _records()[1:3]
    legacy = [dataclasses.replace(r, index=i) for i, r in enumerate(timed)]
    assert checks.check_legacy_replay("exp2", timed, corrupt(legacy))


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------


def _matrix():
    replays = []
    scenarios = checks.FIGURE2 + checks.SECTION_512 + checks.TABLE4
    for scenario in scenarios:
        for defense in checks.DEFENSES:
            if defense == "taintedness":
                detected = scenario not in checks.TABLE4
            else:
                detected = scenario in checks.CAUGHT_BY_ALL
            replays.append(Replay("coverage", scenario, defense,
                                  "alert" if detected else "exit",
                                  detected, None, 10, 500))
        replays.append(Replay("coverage", scenario, "none", "exit", False,
                              True, 0, 600))
    checks_by_defense = {"none": 0, "taintedness": 1962,
                         "shadow-stack": 151, "pac": 302}
    for defense, count in checks_by_defense.items():
        replays += [Replay("overhead", "overhead", defense, "exit", False,
                           None, count, 39934)] * 3
    return replays


def _edit(replays, scenario, defense, **changes):
    return [
        dataclasses.replace(r, **changes)
        if (r.scenario, r.defense) == (scenario, defense)
        else r
        for r in replays
    ]


def test_matrix_check_passes_the_paper_verdicts():
    assert checks.check_matrix(_matrix()) == []


@pytest.mark.parametrize(
    "scenario, defense, changes",
    [
        ("nullhttpd-heap", "taintedness", {"detected": False}),
        ("table4b-auth-flag", "taintedness", {"detected": True}),
        ("exp3-format-string", "shadow-stack", {"detected": True}),
        ("wuftpd-site-exec", "pac", {"detected": True}),
        ("exp1-stack-smash", "pac", {"detected": False}),
        ("traceroute-double-free", "none", {"compromised": False}),
        ("overhead", "pac", {"instructions": 39936}),
        ("overhead", "shadow-stack", {"checks": 150}),
        ("overhead", "pac", {"checks": 301}),
        ("overhead", "taintedness", {"outcome": "alert"}),
    ],
)
def test_matrix_check_fails_on_corrupted_replays(scenario, defense, changes):
    assert checks.check_matrix(_edit(_matrix(), scenario, defense, **changes))


def test_matrix_check_fails_when_a_scenario_is_missing():
    replays = [r for r in _matrix() if r.scenario != "ghttpd-url-pointer"]
    assert checks.check_matrix(replays)


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def test_rounds_check_fails_when_a_round_differs():
    assert checks.check_rounds_agree(["a1", "a1", "a1"]) == []
    assert checks.check_rounds_agree(["a1", "a1", "b2"])


def test_seeded_inputs_are_reproducible_and_fit_the_buffers():
    limits = {  # bytes each program reads at most
        "BZIP2": 4096, "GCC": 2047, "GZIP": 4096, "MCF": 8191,
        "PARSER": 8191, "VPR": 4095, "CRAFTY": 4095, "GAP": 8191,
        "VORTEX": 8191,
    }
    assert set(GENERATORS) == set(limits)
    for seed in range(5):
        inputs = spec_inputs(seed)
        assert inputs == spec_inputs(seed)
        for name, data in inputs.items():
            assert len(data) <= limits[name], name
        assert checks.gap_reference(inputs["GAP"])[1] <= 2048
        keys = {token[1:] for token in inputs["VORTEX"].split()}
        assert len(keys) < 509  # never fills the 509-slot table
    assert spec_inputs(1)["GAP"] != spec_inputs(2)["GAP"]


def test_self_times_and_uncovered_time_add_up():
    # round 0: parent [0, 10] with children [1, 3] and [4, 8]; a second
    # top-level span [11, 12]; the round took 14.
    spans = [
        # extra of cpu.run: instructions, syscalls, built, hits, skipped
        ("cpu.run", 0.0, 10.0, -1, 0, 0, (100, 1, 2, 10, 0)),
        ("kernel.syscall", 1.0, 3.0, 0, 0, 0, ()),
        ("cpu.superblock_build", 4.0, 8.0, 0, 0, 0, ()),
        ("cc.parse", 11.0, 12.0, -1, 0, 1, ()),
        ("cc.parse", 0.0, 5.0, -1, -1, 0, ()),  # set-up counts once
    ]
    metrics = layer_metrics(spans, [14.0])
    assert metrics["cpu.run_s"] == 4.0
    assert metrics["kernel.syscall_s"] == 2.0
    assert metrics["cpu.superblock_build_s"] == 4.0
    assert metrics["cc.parse_s"] == 6.0
    assert metrics["cc.units"] == 2
    assert metrics["uncovered_s"] == 3.0
    assert metrics["cpu.superblock_hit_rate"] == 0.8
    assert metrics["cpu.ips"] == 25.0


def test_benchmark_json_lists_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == {
        "spec", "campaign", "matrix",
    }
