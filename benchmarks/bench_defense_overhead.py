"""Defense overhead: attaching the taintedness wrapper must cost nothing.

The defenses extraction (``repro.defenses``) re-homes the paper's
detector behind the pluggable :class:`~repro.defenses.base.Detector`
interface.  The load-bearing claim: the **default path is untouched** --
``TaintednessDefense`` subscribes nothing to the event bus, so attaching
it keeps the engines' zero-subscriber fast path and the inline
``tainted_dereference`` check exactly as fast as before the refactor.
The comparators (shadow stack, PAC) *do* subscribe ``InstructionRetired``
and pay the per-instruction event cost; their overhead is recorded for
the trajectory but only sanity-bounded, not guarded tightly -- they are
opt-in observers, not the default.

Measures best-of-N wall seconds of the simulated run (machine built
outside the timer) on the benign call-heavy workload the defense matrix
uses (so shadow-stack/PAC hooks actually fire), one row per defense plus
the undefended baseline.  Emits
``BENCH_defense_overhead.json`` at the repo root.  Standalone::

    PYTHONPATH=src python benchmarks/bench_defense_overhead.py [--check]

``--check`` is one-sided: it exits non-zero only when the taintedness
wrapper exceeds ``MAX_TAINTEDNESS_OVERHEAD_PCT`` over the undefended
baseline (or a comparator blows past its loose sanity ceiling); being
faster never fails.
"""

import sys

from bench_util import save_json, save_report

from repro.evalx.defense_matrix import DEFENSE_NAMES, run_defense_overhead
from repro.evalx.reporting import render_kv

#: The default-path budget: attaching the taintedness wrapper (which
#: subscribes nothing) may not measurably slow the run.  The bound is
#: loose because the workload is short and shared runners are noisy; the
#: structural regression it guards against -- the wrapper growing an
#: InstructionRetired subscription -- costs far more than this.
MAX_TAINTEDNESS_OVERHEAD_PCT = 30.0

#: Sanity ceiling for the event-bus comparators.  Subscribing
#: InstructionRetired forces per-instruction event allocation and
#: single-stepping (the baseline runs fused), so real overheads sit near
#: 300%; the ceiling only catches pathological regressions (e.g. a
#: comparator going quadratic in call depth).
MAX_COMPARATOR_OVERHEAD_PCT = 600.0


def collect_defense_overhead_record(repeats=5):
    rows = run_defense_overhead(repeats=repeats)
    by_name = {row["defense"]: row for row in rows}
    record = {
        "workload": "benign call-heavy MiniC loop (defense matrix)",
        "rows": rows,
        "taintedness_overhead_pct": by_name["taintedness"]["overhead_pct"],
        "max_taintedness_overhead_pct": MAX_TAINTEDNESS_OVERHEAD_PCT,
        "max_comparator_overhead_pct": MAX_COMPARATOR_OVERHEAD_PCT,
        "note": (
            "taintedness wrapper subscribes nothing (inline check only); "
            "shadow-stack/pac subscribe InstructionRetired and pay the "
            "per-instruction event cost"
        ),
    }
    save_json("defense_overhead", record)
    return record


def _violations(record):
    problems = []
    by_name = {row["defense"]: row for row in record["rows"]}
    taint = by_name["taintedness"]["overhead_pct"]
    if taint >= MAX_TAINTEDNESS_OVERHEAD_PCT:
        problems.append(
            f"taintedness wrapper overhead {taint:.1f}% >= "
            f"{MAX_TAINTEDNESS_OVERHEAD_PCT}%"
        )
    for name in ("shadow-stack", "pac"):
        pct = by_name[name]["overhead_pct"]
        if pct >= MAX_COMPARATOR_OVERHEAD_PCT:
            problems.append(
                f"{name} overhead {pct:.1f}% >= "
                f"{MAX_COMPARATOR_OVERHEAD_PCT}%"
            )
    return problems


def test_bench_defense_overhead_record(benchmark):
    rows = benchmark(run_defense_overhead, repeats=1)
    assert [r["defense"] for r in rows] == ["none", *DEFENSE_NAMES]
    record = collect_defense_overhead_record()
    assert not _violations(record), _violations(record)
    save_report(
        "defense_overhead",
        render_kv(
            [
                (row["defense"],
                 f"{row['wall_s']:.4f}s ({row['overhead_pct']:+.1f}%), "
                 f"{row['checks']} checks")
                for row in record["rows"]
            ] + [("note", "JSON record at BENCH_defense_overhead.json")],
            title="defense overhead artifacts",
        ),
    )


def main(argv):
    check = "--check" in argv
    record = collect_defense_overhead_record(repeats=7 if check else 5)
    print("defense overhead (best of N):")
    for row in record["rows"]:
        print(
            f"  {row['defense']:<14} {row['wall_s']:>9.4f}s "
            f"{row['overhead_pct']:>+8.1f}%  {row['checks']:>6} checks"
        )
    print("written: BENCH_defense_overhead.json")
    if check:
        problems = _violations(record)
        if problems:
            for problem in problems:
                print(f"BENCH GUARD FAIL: {problem}")
            return 1
        print("BENCH GUARD OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
