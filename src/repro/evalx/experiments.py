"""One runner per paper artifact (every table and figure).

Each ``run_*`` function returns structured data; each ``report_*`` renders
the same data the way the paper presents it.  The benchmark harness under
``benchmarks/`` calls these runners, and EXPERIMENTS.md records their
output against the paper's numbers.

The row-structured artifacts (fig2 scenarios, the two Table 2 runs,
Table 3 workloads, Table 4 scenarios, coverage-matrix rows) are
independent executions, so their runners take a ``workers`` knob: ``1``
(default) runs the historical serial loop, ``N > 1`` fans the per-row
unit functions (``_unit_*``) out to the :mod:`repro.parallel` process
pool.  Rows come back in their serial order and each unit is
deterministic, so rendered tables are byte-identical for every worker
count.  Worker-side metric harvests are shipped home as registry dumps
and absorbed in row order (:meth:`~repro.obs.metrics.MetricsRegistry.absorb`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..apps.ghttpd import ghttpd_scenario
from ..apps.nullhttpd import nullhttpd_scenario
from ..apps.spec import SPEC_WORKLOADS, SpecWorkload
from ..apps.synthetic import (
    all_synthetic_scenarios,
    exp1_scenario,
    exp2_scenario,
    exp3_scenario,
    leak_scenario,
    vuln_a_scenario,
    vuln_b_scenario,
)
from ..apps.traceroute import traceroute_scenario
from ..apps.wuftpd import (
    BACKDOOR_PASSWD_ENTRY,
    site_exec_payload,
    uid_address,
    wuftpd_scenario,
)
from ..attacks.replay import RunResult, run_executable, run_minic
from ..attacks.scenarios import AttackScenario
from ..core.events import TaintedDereference
from ..defenses.policy import (
    ControlDataPolicy,
    DetectionPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from ..libc.build import build_program
from ..obs import MetricsRegistry, Observer
from .cert import figure1_rows, memory_corruption_share
from .reporting import check, render_kv, render_table


def _parallel(workers: int) -> bool:
    """True when ``workers`` asks for the process pool."""
    from ..parallel.engine import resolve_workers

    return resolve_workers(workers) > 1


def _fan_units(kind: str, count: int, registry, workers: int) -> List:
    from ..parallel.experiments import run_experiment_units

    return run_experiment_units(kind, count, workers, registry=registry)


@dataclass(frozen=True)
class RunFacts:
    """Picklable summary of a :class:`RunResult`.

    Pool workers cannot ship a live machine across the process boundary,
    so parallel Table 2 units return the exact strings the report and the
    facade read off a ``RunResult`` -- rendering is byte-identical in
    both modes.
    """

    outcome: str
    detected: bool
    alert: Optional[str]
    summary: str

    def describe(self) -> str:
        return self.summary


def _run_facts(result: RunResult) -> RunFacts:
    return RunFacts(
        outcome=result.outcome,
        detected=result.detected,
        alert=str(result.alert) if result.alert else None,
        summary=result.describe(),
    )


def _harvest(registry: Optional[MetricsRegistry], result: RunResult) -> None:
    """Fold one run's statistics into an experiment's registry.

    Uses the same :class:`~repro.obs.profile.Observer` harvest (and thus
    the same metric names -- ``run.instructions``, ``run.alerts``,
    ``opcode.*``, ...) every other harness reports through, so Table 2/3
    numbers are directly comparable with campaign and CLI metrics.
    """
    if registry is not None and result.sim is not None:
        Observer(registry).harvest(result.sim, result.pstats)


def real_world_scenarios() -> List[AttackScenario]:
    """The four section 5.1.2 applications."""
    return [
        wuftpd_scenario(),
        nullhttpd_scenario(),
        ghttpd_scenario(),
        traceroute_scenario(),
    ]


def all_attack_scenarios() -> List[AttackScenario]:
    """Synthetic (Figure 2 + Table 4) plus real-world scenarios."""
    return all_synthetic_scenarios() + real_world_scenarios()


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

def run_fig1() -> Dict[str, object]:
    rows = figure1_rows()
    return {
        "rows": rows,
        "memory_share": memory_corruption_share(),
    }


def report_fig1(workers: int = 1) -> str:
    # Static advisory counts: nothing to fan out, the knob is accepted so
    # every report shares one signature.
    data = run_fig1()
    table = render_table(
        ["vulnerability class", "advisories", "percent"],
        [(cat, count, f"{pct:.1f}%") for cat, count, pct in data["rows"]],
        title="Figure 1: CERT advisories 2000-2003 by vulnerability class",
    )
    share = data["memory_share"]
    return (
        f"{table}\n"
        f"memory-corruption share: {share:.1f}%  (paper: 67%)"
    )


# ---------------------------------------------------------------------------
# Figure 2 / section 5.1.1: synthetic detections
# ---------------------------------------------------------------------------

@dataclass
class DetectionRecord:
    """Outcome of one scenario under one policy."""

    scenario: str
    category: str
    policy: str
    outcome: str
    alert: str = ""
    pointer: Optional[int] = None

    @property
    def detected(self) -> bool:
        return self.outcome == "alert"


#: The fig2 scenario factories, indexed by unit position.
_FIG2_SCENARIOS = (exp1_scenario, exp2_scenario, exp3_scenario)


def _unit_fig2(
    index: int, registry: Optional[MetricsRegistry] = None
) -> DetectionRecord:
    """One fig2 row: replay one synthetic attack, observing the detection
    through the machine's event bus (a ``TaintedDereference`` event fires
    at the moment the detector marks the instruction malicious)."""
    policy = PointerTaintPolicy()
    scenario = _FIG2_SCENARIOS[index]()
    result = scenario.run_attack(policy, record_events=(TaintedDereference,))
    _harvest(registry, result)
    detections = (
        result.events.of(TaintedDereference) if result.events else []
    )
    alert = detections[0].alert if detections else result.alert
    return DetectionRecord(
        scenario=scenario.name,
        category=scenario.category,
        policy=policy.name,
        outcome=result.outcome,
        alert=str(alert) if alert else "",
        pointer=alert.pointer_value if alert else None,
    )


def run_synthetic_detections(
    registry: Optional[MetricsRegistry] = None, workers: int = 1
) -> List[DetectionRecord]:
    """Replay the three synthetic attacks (one pool unit each when
    ``workers > 1``)."""
    if _parallel(workers):
        return _fan_units("fig2", len(_FIG2_SCENARIOS), registry, workers)
    return [
        _unit_fig2(i, registry) for i in range(len(_FIG2_SCENARIOS))
    ]


def report_fig2(workers: int = 1) -> str:
    rows = [
        (r.scenario, r.category, r.outcome.upper(), r.alert)
        for r in run_synthetic_detections(workers=workers)
    ]
    return render_table(
        ["program", "attack class", "outcome", "alert"],
        rows,
        title="Figure 2 / section 5.1.1: synthetic attack detection",
    )


# ---------------------------------------------------------------------------
# Table 2: the WU-FTPD session transcript
# ---------------------------------------------------------------------------

def _unit_table2(index: int, registry: Optional[MetricsRegistry] = None):
    """One Table 2 run: 0 = protected (pointer-taintedness), 1 = the
    unprotected control whose ``/etc/passwd`` damage the report prints.

    Returns ``(RunFacts, passwd_after_bytes)`` -- picklable, unlike the
    live :class:`RunResult` the serial path hands back.
    """
    scenario = wuftpd_scenario()
    if index == 0:
        result = scenario.run_attack(PointerTaintPolicy())
        _harvest(registry, result)
        return (_run_facts(result), b"")
    unprotected = scenario.run_attack(NullPolicy())
    passwd_after = (
        unprotected.kernel.fs.read_file("/etc/passwd")
        if unprotected.kernel
        else b""
    )
    return (_run_facts(unprotected), passwd_after)


def run_table2(
    registry: Optional[MetricsRegistry] = None, workers: int = 1
) -> Dict[str, object]:
    if _parallel(workers):
        (facts, _), (un_facts, passwd_after) = _fan_units(
            "table2", 2, registry, workers
        )
        return {
            "result": facts,
            "unprotected": un_facts,
            "uid_address": uid_address(),
            "payload": site_exec_payload(),
            "passwd_after": passwd_after,
        }
    scenario = wuftpd_scenario()
    result = scenario.run_attack(PointerTaintPolicy())
    _harvest(registry, result)
    unprotected = scenario.run_attack(NullPolicy())
    passwd_after = (
        unprotected.kernel.fs.read_file("/etc/passwd")
        if unprotected.kernel
        else b""
    )
    return {
        "result": result,
        "unprotected": unprotected,
        "uid_address": uid_address(),
        "payload": site_exec_payload(),
        "passwd_after": passwd_after,
    }


def report_table2(workers: int = 1) -> str:
    data = run_table2(workers=workers)
    result = data["result"]
    unprotected = data["unprotected"]
    payload = data["payload"].decode("latin-1").rstrip("\n")
    command, argument = payload[:10], payload[10:]
    printable = command + "".join(
        ch if 32 < ord(ch) < 127 else f"\\x{ord(ch):02x}" for ch in argument
    )
    rows = [
        ("FTP Server", "220 FTP server (Version wu-2.6.0(60) "
                       "Mon Nov 29 10:37:55 CST 2004) ready."),
        ("FTP Client", "user user1"),
        ("FTP Server", "331 Password required for user1."),
        ("FTP Client", "pass xxxxxxx (the correct password)"),
        ("FTP Client", printable.lower()),
        ("Alert", str(result.alert) if result.alert else result.describe()),
    ]
    table = render_table(
        ["party", "message"], rows,
        title="Table 2: attacking WU-FTPD on the proposed architecture",
    )
    extra = render_kv(
        [
            ("uid word address", hex(data["uid_address"])),
            ("detected (pointer-taintedness)", result.detected),
            ("unprotected run outcome", unprotected.describe()),
            ("unprotected /etc/passwd", data["passwd_after"].decode("latin-1")),
            ("backdoor entry planted", BACKDOOR_PASSWD_ENTRY in
             data["passwd_after"].decode("latin-1")),
        ],
        title="verdicts:",
    )
    return f"{table}\n{extra}"


# ---------------------------------------------------------------------------
# Section 5.1.2: real-world application attacks under all policies
# ---------------------------------------------------------------------------

def _unit_real_world(
    index: int, registry: Optional[MetricsRegistry] = None
) -> List[DetectionRecord]:
    """One real-world scenario under the three standard policies."""
    scenario = real_world_scenarios()[index]
    records = []
    for policy in (PointerTaintPolicy(), ControlDataPolicy(), NullPolicy()):
        result = scenario.run_attack(policy)
        records.append(
            DetectionRecord(
                scenario=scenario.name,
                category=scenario.category,
                policy=policy.name,
                outcome=result.outcome,
                alert=str(result.alert) if result.alert else
                result.describe(),
            )
        )
    return records


def run_real_world(policies: Optional[Sequence[DetectionPolicy]] = None,
                   workers: int = 1) -> List[DetectionRecord]:
    if policies is None:
        if _parallel(workers):
            per_scenario = _fan_units(
                "real_world", len(real_world_scenarios()), None, workers
            )
            return [record for group in per_scenario for record in group]
        policies = (PointerTaintPolicy(), ControlDataPolicy(), NullPolicy())
    records = []
    for scenario in real_world_scenarios():
        for policy in policies:
            result = scenario.run_attack(policy)
            records.append(
                DetectionRecord(
                    scenario=scenario.name,
                    category=scenario.category,
                    policy=policy.name,
                    outcome=result.outcome,
                    alert=str(result.alert) if result.alert else
                    result.describe(),
                )
            )
    return records


# ---------------------------------------------------------------------------
# Table 3: false positives on the SPEC-like workloads
# ---------------------------------------------------------------------------

@dataclass
class FalsePositiveRow:
    """One Table 3 column (we print workloads as rows)."""

    name: str
    program_bytes: int
    input_bytes: int
    instructions: int
    alerts: int
    stdout: str = ""


def _table3_row(
    workload: SpecWorkload,
    policy: DetectionPolicy,
    registry: Optional[MetricsRegistry],
) -> FalsePositiveRow:
    exe = build_program(workload.source)
    stdin = workload.make_input()
    result = run_minic(workload.source, policy, stdin=stdin)
    _harvest(registry, result)
    if result.outcome != "exit":
        raise AssertionError(
            f"benign workload {workload.name} did not exit cleanly: "
            f"{result.describe()}"
        )
    assert result.sim is not None
    program_bytes = 4 * len(exe.text_words) + len(exe.data)
    return FalsePositiveRow(
        name=workload.name,
        program_bytes=program_bytes,
        input_bytes=len(stdin),
        instructions=result.sim.stats.instructions,
        alerts=result.sim.stats.alerts,
        stdout=result.stdout.strip(),
    )


def _unit_table3(
    index: int, registry: Optional[MetricsRegistry] = None
) -> FalsePositiveRow:
    return _table3_row(SPEC_WORKLOADS[index], PointerTaintPolicy(), registry)


def run_table3(
    workloads: Optional[Sequence[SpecWorkload]] = None,
    policy: Optional[DetectionPolicy] = None,
    registry: Optional[MetricsRegistry] = None,
    workers: int = 1,
) -> List[FalsePositiveRow]:
    # Custom workloads / policies cannot cross the pickle boundary, so the
    # pool only serves the default (full Table 3) configuration.
    if workloads is None and policy is None and _parallel(workers):
        return _fan_units("table3", len(SPEC_WORKLOADS), registry, workers)
    workloads = workloads if workloads is not None else SPEC_WORKLOADS
    policy = policy if policy is not None else PointerTaintPolicy()
    return [_table3_row(w, policy, registry) for w in workloads]


def report_table3(workers: int = 1) -> str:
    rows = run_table3(workers=workers)
    total = FalsePositiveRow(
        name="Total",
        program_bytes=sum(r.program_bytes for r in rows),
        input_bytes=sum(r.input_bytes for r in rows),
        instructions=sum(r.instructions for r in rows),
        alerts=sum(r.alerts for r in rows),
    )
    table = render_table(
        ["program", "program size", "input bytes", "instructions", "alerts"],
        [
            (r.name, f"{r.program_bytes / 1024:.0f}KB", f"{r.input_bytes}",
             f"{r.instructions:,}", r.alerts)
            for r in [*rows, total]
        ],
        title="Table 3: false-positive test (SPEC-2000-like workloads)",
    )
    return f"{table}\nalerts raised: {total.alerts}  (paper: 0)"


# ---------------------------------------------------------------------------
# Table 4: false-negative scenarios
# ---------------------------------------------------------------------------

@dataclass
class FalseNegativeRow:
    scenario: str
    detected: bool
    damage: str


#: (scenario factory, row label, stdout marker, damage description).
_TABLE4_CASES = (
    (
        vuln_a_scenario,
        "(A) integer overflow -> negative array index",
        "corrupted",
        "memory below array overwritten",
    ),
    (
        vuln_b_scenario,
        "(B) overflow corrupts authentication flag",
        "access granted",
        "access granted without valid password",
    ),
    (
        leak_scenario,
        "(C) format string information leak (%x)",
        "1337c0de",
        "secret key leaked to output",
    ),
)


def _unit_table4(
    index: int, registry: Optional[MetricsRegistry] = None
) -> FalseNegativeRow:
    factory, label, marker, damage = _TABLE4_CASES[index]
    result = factory().run_attack(PointerTaintPolicy())
    return FalseNegativeRow(
        scenario=label,
        detected=result.detected,
        damage=damage if marker in result.stdout else "none",
    )


def run_table4(workers: int = 1) -> List[FalseNegativeRow]:
    if _parallel(workers):
        return _fan_units("table4", len(_TABLE4_CASES), None, workers)
    return [_unit_table4(i) for i in range(len(_TABLE4_CASES))]


def report_table4(workers: int = 1) -> str:
    rows = run_table4(workers=workers)
    table = render_table(
        ["scenario", "detected", "damage done"],
        [(r.scenario, "yes" if r.detected else "NO (escapes)", r.damage)
         for r in rows],
        title="Table 4: false-negative scenarios (section 5.3)",
    )
    return table


# ---------------------------------------------------------------------------
# Coverage matrix: every attack x every policy (the section 5.1 claim)
# ---------------------------------------------------------------------------

def _unit_coverage(
    index: int, registry: Optional[MetricsRegistry] = None
) -> Dict[str, object]:
    """One coverage-matrix row: one attack scenario under every policy."""
    scenario = all_attack_scenarios()[index]
    row: Dict[str, object] = {
        "scenario": scenario.name,
        "category": scenario.category,
    }
    for policy in (PointerTaintPolicy(), ControlDataPolicy(), NullPolicy()):
        result = scenario.run_attack(policy)
        row[policy.name] = result.detected
        if policy.name == "unprotected":
            row["compromise"] = scenario.attack_succeeded(result)
    return row


def run_coverage_matrix(workers: int = 1) -> List[Dict[str, object]]:
    count = len(all_attack_scenarios())
    if _parallel(workers):
        return _fan_units("coverage", count, None, workers)
    return [_unit_coverage(i) for i in range(count)]


def report_coverage_matrix(workers: int = 1) -> str:
    matrix = run_coverage_matrix(workers=workers)
    rows = [
        (
            row["scenario"],
            row["category"],
            check(bool(row["pointer-taintedness"])),
            check(bool(row["control-data-only"])),
            "yes" if row["compromise"] else "no",
        )
        for row in matrix
    ]
    return render_table(
        [
            "attack",
            "class",
            "pointer-taintedness",
            "control-data-only",
            "compromise if unprotected",
        ],
        rows,
        title="Security coverage: this paper vs control-flow-integrity baseline",
    )


# ---------------------------------------------------------------------------
# Section 5.4: architectural overhead
# ---------------------------------------------------------------------------

@dataclass
class OverheadRow:
    name: str
    instructions_tracking: int
    instructions_no_tracking: int
    wallclock_tracking: float
    wallclock_no_tracking: float
    input_bytes_tainted: int
    software_overhead_pct: float


def _stopwatch(laps: List[float]):
    """A :func:`run_executable` ``instrument`` hook that appends the wall
    seconds of the simulated run alone to ``laps``: it starts once the
    machine is built and stops when the run ends."""

    def instrument(sim):
        start = time.perf_counter()
        return lambda result: laps.append(time.perf_counter() - start)

    return instrument


def run_sec54(
    workloads: Optional[Sequence[SpecWorkload]] = None,
) -> List[OverheadRow]:
    """Taint tracking on vs off.

    The paper argues the *hardware* adds no cycles because taint propagation
    runs in parallel with the ALU; the measurable check is that the
    instruction stream is identical with tracking on and off.  The paper's
    only software cost is the kernel tainting each input byte (estimated at
    one instruction per byte: 0.002%..0.2% on SPEC).  The wall-clock fields
    time the simulated runs alone, not the compile or the machine build.
    """
    workloads = workloads if workloads is not None else SPEC_WORKLOADS[:3]
    rows = []
    for workload in workloads:
        stdin = workload.make_input()
        exe = build_program(workload.source)
        laps: List[float] = []
        tracked = run_executable(
            exe, PointerTaintPolicy(), stdin=stdin, instrument=_stopwatch(laps)
        )
        untracked = run_executable(
            exe,
            NullPolicy(track_taint=False),
            stdin=stdin,
            taint_inputs=False,
            instrument=_stopwatch(laps),
        )
        tracked_time, untracked_time = laps

        assert tracked.sim is not None and untracked.sim is not None
        tainted = tracked.sim.stats.input_bytes_tainted
        rows.append(
            OverheadRow(
                name=workload.name,
                instructions_tracking=tracked.sim.stats.instructions,
                instructions_no_tracking=untracked.sim.stats.instructions,
                wallclock_tracking=tracked_time,
                wallclock_no_tracking=untracked_time,
                input_bytes_tainted=tainted,
                software_overhead_pct=100.0
                * tainted
                / tracked.sim.stats.instructions,
            )
        )
    return rows


def shadow_state_overhead() -> Dict[str, float]:
    """Area overhead of the taintedness extension: 1 bit per byte."""
    return {
        "memory_bits_per_byte": 1.0,
        "memory_overhead_pct": 100.0 / 8.0,
        "register_bits_per_register": 4.0,
    }


def report_sec54(workers: int = 1) -> str:
    # Deliberately serial: the rows measure wall-clock overhead, which a
    # shared-core pool would distort.
    rows = run_sec54()
    table = render_table(
        [
            "workload",
            "instrs (tracking)",
            "instrs (no tracking)",
            "extra instructions",
            "kernel-tainted bytes",
            "software overhead",
        ],
        [
            (
                r.name,
                f"{r.instructions_tracking:,}",
                f"{r.instructions_no_tracking:,}",
                r.instructions_tracking - r.instructions_no_tracking,
                r.input_bytes_tainted,
                f"{r.software_overhead_pct:.3f}%",
            )
            for r in rows
        ],
        title="Section 5.4: architectural overhead",
    )
    shadow = shadow_state_overhead()
    extra = render_kv(
        [
            ("shadow memory", f"{shadow['memory_overhead_pct']:.1f}% "
                              "(1 taint bit per byte)"),
            ("pipeline", "taint OR runs in parallel with the ALU: "
                         "0 extra simulated instructions"),
            ("paper's software estimate", "0.002%..0.2% extra instructions"),
        ],
        title="hardware model:",
    )
    return f"{table}\n{extra}"


# ---------------------------------------------------------------------------
# Defense matrix: every attack x every pluggable defense (ROADMAP item 4)
# ---------------------------------------------------------------------------

# Re-exported here so pool workers resolve the unit by name on this
# module like every other ``_unit_*`` (see repro.parallel.experiments).
from .defense_matrix import (  # noqa: E402  (re-export after definitions)
    _unit_defense_matrix,
    matrix_summary,
    report_defense_matrix,
    run_defense_matrix,
    run_defense_overhead,
)
