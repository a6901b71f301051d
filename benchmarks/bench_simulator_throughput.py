"""Simulator micro-benchmarks: instruction throughput of the substrates.

Not a paper artifact -- engineering data for the reproduction itself:
interpreted instructions/second for the functional engine, the cache-backed
engine, and the pipeline engine, plus toolchain (compile+assemble) cost.

Besides the pytest-benchmark table, the run emits a machine-readable
``BENCH_simulator_throughput.json`` at the repo root so the throughput
trajectory is tracked across PRs.  Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py
    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py --check

``--check`` is the taint-plane regression guard: it re-measures the
functional engine in **bit mode** and exits non-zero if throughput fell
more than ``--tolerance`` (default 10%) below the recorded
``functional_ips`` baseline -- without rewriting the baseline file.  The
label-mode provenance sidecar must never tax the default configuration.
The guard also re-measures the engine with the superblock tier disabled
and fails if the fused/unfused speedup drops below
``--min-superblock-speedup`` (default 1.5x): the fused dispatch tier
must keep paying for itself.
"""

import argparse
import json
import sys
import time

import pytest
from bench_util import REPO_ROOT, save_json, save_report

from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator
from repro.evalx.reporting import render_kv
from repro.isa.assembler import assemble
from repro.kernel.syscalls import Kernel
from repro.libc.build import build_program

_HOT_LOOP = (
    ".text\n_start:\n"
    "li $t0, 20000\nli $t1, 0\n"
    "loop: addu $t1, $t1, $t0\nxor $t2, $t1, $t0\nsrl $t3, $t2, 3\n"
    "andi $t4, $t3, 0xFF\naddiu $t0, $t0, -1\nbnez $t0, loop\n"
    "li $v0, 1\nli $a0, 0\nsyscall\n"
)

_MINIC_PROGRAM = """
int main(void) {
    int i; int s;
    s = 0;
    for (i = 0; i < 2000; i++) { s += i * 3 % 7; }
    printf("%d", s);
    return 0;
}
"""


def _run_functional(use_caches=False, superblocks=True):
    exe = assemble(_HOT_LOOP)
    kernel = Kernel()
    sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel,
                    use_caches=use_caches, superblocks=superblocks)
    kernel.attach(sim)
    sim.run()
    return sim


def _run_pipelined():
    exe = assemble(_HOT_LOOP)
    kernel = Kernel()
    sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
    kernel.attach(sim)
    Pipeline(sim).run()
    return sim


#: Functional-engine instructions/sec of the pre-decode-refactor engine
#: (per-step mnemonic if/elif dispatch) on this hot loop; kept as the fixed
#: reference point for the speedup figure in the JSON record.
PRE_REFACTOR_BASELINE_IPS = 430_000


def _throughput(run, repeats=3, **kwargs):
    """Best-of-N instructions/sec for one engine configuration."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        sim = run(**kwargs)
        elapsed = time.perf_counter() - start
        best = max(best, sim.stats.instructions / elapsed)
    return best


def collect_throughput_record():
    """Measure all three engines and write the JSON record at repo root."""
    functional = _throughput(_run_functional)
    unfused = _throughput(_run_functional, superblocks=False)
    cached = _throughput(_run_functional, use_caches=True)
    pipelined = _throughput(_run_pipelined, repeats=1)
    record = {
        "workload": "hot-loop (120,005 dynamic instructions)",
        "functional_ips": round(functional),
        "unfused_ips": round(unfused),
        "cached_ips": round(cached),
        "pipeline_ips": round(pipelined),
        "superblock_speedup": round(functional / unfused, 2),
        "pre_refactor_baseline_ips": PRE_REFACTOR_BASELINE_IPS,
        "speedup_vs_pre_refactor": round(
            functional / PRE_REFACTOR_BASELINE_IPS, 2
        ),
    }
    save_json("simulator_throughput", record)
    return record


def test_bench_functional_engine(benchmark):
    sim = benchmark(_run_functional)
    assert sim.stats.instructions > 100_000


def test_bench_cached_engine(benchmark):
    sim = benchmark(_run_functional, True)
    assert sim.stats.instructions > 100_000


def test_bench_pipeline_engine(benchmark):
    sim = benchmark(_run_pipelined)
    assert sim.stats.instructions > 100_000


def test_bench_toolchain(benchmark):
    from repro.libc import build as libc_build

    def fresh_build():
        # Every toolchain cache (libc compile, libc prefix, linked images),
        # so each round compiles and assembles from source like a fresh
        # process.
        for value in vars(libc_build).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        return build_program(_MINIC_PROGRAM)

    exe = benchmark(fresh_build)
    assert len(exe.text_words) > 500


def test_bench_minic_program(benchmark):
    result = benchmark(run_minic, _MINIC_PROGRAM)
    assert result.outcome == "exit"
    record = collect_throughput_record()
    assert record["functional_ips"] > 100_000
    save_report(
        "simulator_throughput",
        render_kv(
            [
                ("instructions (hot loop)",
                 f"{_run_functional().stats.instructions:,}"),
                ("functional engine", f"{record['functional_ips']:,} i/s"),
                ("functional, superblocks off",
                 f"{record['unfused_ips']:,} i/s"),
                ("cache-backed engine", f"{record['cached_ips']:,} i/s"),
                ("pipeline engine", f"{record['pipeline_ips']:,} i/s"),
                ("superblock speedup",
                 f"{record['superblock_speedup']}x"),
                ("speedup vs pre-refactor",
                 f"{record['speedup_vs_pre_refactor']}x"),
                ("note", "timings in the pytest-benchmark table; "
                         "JSON record at BENCH_simulator_throughput.json"),
            ],
            title="simulator throughput artifacts",
        ),
    )


def check_against_baseline(
    tolerance=0.10, repeats=5, min_superblock_speedup=1.5, out=print
):
    """Bit-mode regression guard against the recorded baseline.

    One-sided: only a *drop* below ``baseline * (1 - tolerance)`` fails
    (faster is always fine).  The baseline JSON is read, never rewritten
    -- regenerating it is a deliberate act, not a side effect of the
    guard.  A second one-sided floor re-measures the engine with the
    superblock tier disabled: the fused/unfused ratio must stay at or
    above ``min_superblock_speedup`` (the ratio is machine-relative, so
    runner speed cancels out).  Returns a process exit code.
    """
    path = REPO_ROOT / "BENCH_simulator_throughput.json"
    baseline = json.loads(path.read_text())["functional_ips"]
    current = _throughput(_run_functional, repeats=repeats)
    unfused = _throughput(_run_functional, repeats=repeats,
                          superblocks=False)
    floor = baseline * (1.0 - tolerance)
    speedup = current / unfused
    out(f"bit-mode functional throughput: {current:>12,.0f} i/s")
    out(f"recorded baseline:              {baseline:>12,} i/s")
    out(f"allowed floor (-{tolerance:.0%}):           {floor:>12,.0f} i/s")
    out(f"superblocks-off throughput:     {unfused:>12,.0f} i/s")
    out(f"superblock speedup:             {speedup:>12.2f}x "
        f"(floor {min_superblock_speedup:.2f}x)")
    failed = False
    if current < floor:
        out(
            f"BENCH GUARD FAIL: bit-mode throughput fell "
            f"{(1 - current / baseline):.1%} below the recorded baseline"
        )
        failed = True
    if speedup < min_superblock_speedup:
        out(
            f"BENCH GUARD FAIL: superblock tier speedup {speedup:.2f}x "
            f"is below the {min_superblock_speedup:.2f}x floor"
        )
        failed = True
    if failed:
        return 1
    out("BENCH GUARD OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="simulator throughput benchmark / regression guard"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="guard mode: compare bit-mode throughput against the "
             "recorded BENCH_simulator_throughput.json without rewriting it",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.10,
        help="allowed fractional drop below the baseline (default 0.10)",
    )
    parser.add_argument(
        "--min-superblock-speedup", type=float, default=1.5,
        help="minimum fused/unfused throughput ratio in guard mode "
             "(default 1.5)",
    )
    args = parser.parse_args(argv)
    if args.check:
        return check_against_baseline(
            tolerance=args.tolerance,
            min_superblock_speedup=args.min_superblock_speedup,
        )
    record = collect_throughput_record()
    print("simulator throughput (best of N):")
    for key in ("functional_ips", "unfused_ips", "cached_ips",
                "pipeline_ips"):
        print(f"  {key:<28} {record[key]:>12,}")
    print(f"  superblock speedup           {record['superblock_speedup']:>11}x")
    print(f"  speedup vs pre-refactor      {record['speedup_vs_pre_refactor']:>11}x")
    print("written: BENCH_simulator_throughput.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
