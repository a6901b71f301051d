"""Defense coverage x overhead matrix (ROADMAP item 4).

The paper's central comparison claim (section 6): control-flow defenses
-- shadow stacks, pointer authentication -- stop *control-data* attacks
but miss attacks that corrupt security-critical **non-control** data,
while pointer-taintedness detection catches both.  This module replays
every attack scenario under every registered defense and tabulates who
catches what:

* ``taintedness`` -- the paper's detector (inline tainted-dereference
  check under :func:`~repro.defenses.policy.PointerTaintPolicy`);
* ``shadow-stack`` -- call/return pairing over ``InstructionRetired``;
* ``pac`` -- keyed-MAC pointer signing over compiler-emitted sites.

The comparators run under an *unprotected* machine policy (their
:meth:`~repro.defenses.base.Detector.default_policy`), so a comparator
row shows what that mechanism alone would catch.

The overhead half of the matrix runs a benign call-heavy workload under
each defense and reports per-defense check counts (deterministic) and
wall-clock overhead versus an undefended run (measured, machine-local).

Rows are independent, so ``run_defense_matrix`` takes the same
``workers`` knob as the other evalx runners and fans per-scenario units
(:func:`_unit_defense_matrix`) out to the :mod:`repro.parallel` pool.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..attacks.replay import run_executable
from ..defenses.policy import NullPolicy
from ..defenses.registry import DEFENSES
from ..libc.build import build_program
from ..obs import MetricsRegistry
from .reporting import check, render_table

__all__ = [
    "DEFENSE_NAMES",
    "run_defense_matrix",
    "run_defense_overhead",
    "report_defense_matrix",
    "matrix_summary",
]

#: Column order of the matrix (the registry's three built-ins).
DEFENSE_NAMES = ("taintedness", "shadow-stack", "pac")

#: Benign, call-heavy workload for the overhead half: deep enough call
#: traffic that the shadow stack and PAC sites are exercised on every
#: iteration, with no tainted input at all.
_OVERHEAD_SOURCE = """
int work(int x) {
    int i;
    int s;
    s = x;
    for (i = 0; i < 20; i = i + 1) {
        s = s + i;
    }
    return s;
}

int main(void) {
    int i;
    int acc;
    acc = 0;
    for (i = 0; i < 150; i = i + 1) {
        acc = acc + work(i);
    }
    return 0;
}
"""


def _unit_defense_matrix(
    index: int, registry: Optional[MetricsRegistry] = None
) -> Dict[str, object]:
    """One matrix row: one attack scenario under every registered defense.

    The payload is plain strings/bools/ints so pool workers can ship it
    home; ``defense.*`` counters land in the worker-local registry and
    are absorbed in row order like every other experiment unit.
    """
    from .experiments import _harvest, all_attack_scenarios

    scenario = all_attack_scenarios()[index]
    row: Dict[str, object] = {
        "scenario": scenario.name,
        "category": scenario.category,
        "alerts": {},
        "checks": {},
    }
    for name in DEFENSE_NAMES:
        detector = DEFENSES.create(name)
        # policy=None: the machine runs under the defense's default
        # policy (PointerTaintPolicy for taintedness, NullPolicy for the
        # comparators, so the inline check cannot preempt them).
        result = scenario.run_attack(None, defense=detector)
        _harvest(registry, result)
        row[name] = result.detected
        row["alerts"][name] = (
            str(result.alert) if result.alert is not None else None
        )
        row["checks"][name] = detector.checks
        if registry is not None:
            registry.counter(f"defense.{name}.runs").inc()
            if result.detected:
                registry.counter(f"defense.{name}.detections").inc()
    unprotected = scenario.run_attack(NullPolicy())
    row["compromise"] = scenario.attack_succeeded(unprotected)
    return row


def run_defense_matrix(
    workers: int = 1, registry: Optional[MetricsRegistry] = None
) -> List[Dict[str, object]]:
    """Every attack scenario x every registered defense."""
    from .experiments import _fan_units, _parallel, all_attack_scenarios

    count = len(all_attack_scenarios())
    if _parallel(workers):
        return _fan_units("defense_matrix", count, registry, workers)
    return [_unit_defense_matrix(i, registry) for i in range(count)]


def run_defense_overhead(repeats: int = 3) -> List[Dict[str, object]]:
    """Benign-workload overhead of each defense versus an undefended run.

    Returns one row per defense (plus the ``"none"`` baseline first):
    retired instruction count (identical across defenses -- the machine's
    architectural behavior never depends on an attached observer), hook
    checks performed, and best-of-``repeats`` wall seconds of the
    simulated run with the overhead percentage against the baseline.  The
    executable and each machine are built outside the timed region.
    """
    from .experiments import _stopwatch

    exe = build_program(_OVERHEAD_SOURCE)
    rows: List[Dict[str, object]] = []
    baseline_wall: Optional[float] = None
    for name in (None, *DEFENSE_NAMES):
        laps: List[float] = []
        instructions = 0
        checks = 0
        for _ in range(repeats):
            detector = DEFENSES.create(name) if name is not None else None
            result = run_executable(
                exe,
                NullPolicy() if detector is None else None,
                defense=detector,
                instrument=_stopwatch(laps),
            )
            if result.outcome != "exit":
                raise RuntimeError(
                    f"overhead workload must exit cleanly, got "
                    f"{result.describe()} under {name or 'none'}"
                )
            instructions = result.sim.stats.instructions
            checks = detector.checks if detector is not None else 0
        best_wall = min(laps)
        if baseline_wall is None:
            baseline_wall = best_wall
        rows.append(
            {
                "defense": name or "none",
                "instructions": instructions,
                "checks": checks,
                "wall_s": round(best_wall, 6),
                "overhead_pct": round(
                    (best_wall - baseline_wall) / baseline_wall * 100.0, 2
                ),
            }
        )
    return rows


def matrix_summary(matrix: List[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate counts the facade and CI smoke assertions read.

    ``taintedness_only`` counts the scenarios pointer taintedness detects
    that *both* comparators miss -- the paper's non-control-data coverage
    argument in one number.
    """
    summary: Dict[str, object] = {
        "scenarios": len(matrix),
        "detected": {
            name: sum(1 for row in matrix if row[name])
            for name in DEFENSE_NAMES
        },
    }
    summary["taintedness_only"] = sum(
        1
        for row in matrix
        if row["taintedness"] and not row["shadow-stack"] and not row["pac"]
    )
    summary["non_control_caught_by_taintedness"] = sum(
        1
        for row in matrix
        if row["category"] == "non-control-data" and row["taintedness"]
    )
    return summary


def report_defense_matrix(
    workers: int = 1,
    overhead: bool = True,
    matrix: Optional[List[Dict[str, object]]] = None,
    overhead_rows: Optional[List[Dict[str, object]]] = None,
) -> str:
    """Paper-style rendering: coverage table plus the overhead rows.

    Precomputed ``matrix``/``overhead_rows`` are rendered as-is (the CLI
    computes once and renders + serializes from the same data).
    """
    if matrix is None:
        matrix = run_defense_matrix(workers=workers)
    rows = [
        (
            row["scenario"],
            row["category"],
            check(bool(row["taintedness"])),
            check(bool(row["shadow-stack"])),
            check(bool(row["pac"])),
            "yes" if row["compromise"] else "no",
        )
        for row in matrix
    ]
    table = render_table(
        [
            "attack",
            "class",
            "taintedness",
            "shadow-stack",
            "pac",
            "compromise if unprotected",
        ],
        rows,
        title="Defense matrix: pointer taintedness vs control-flow defenses",
    )
    summary = matrix_summary(matrix)
    lines = [
        table,
        (
            "detected by taintedness only (both comparators miss): "
            f"{summary['taintedness_only']} of {summary['scenarios']}"
        ),
    ]
    if overhead:
        orows = (
            overhead_rows if overhead_rows is not None
            else run_defense_overhead()
        )
        lines.append(
            render_table(
                ["defense", "instructions", "checks", "wall s", "overhead"],
                [
                    (
                        r["defense"],
                        r["instructions"],
                        r["checks"],
                        f"{r['wall_s']:.4f}",
                        f"{r['overhead_pct']:+.1f}%",
                    )
                    for r in orows
                ],
                title="Benign-workload overhead per defense",
            )
        )
    return "\n".join(lines)
