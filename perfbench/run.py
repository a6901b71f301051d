"""Run one benchmark workload for one seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {spec,campaign,matrix} \\
        --seed N --seconds S --trace {0,1}

The run does the workload's one-time set-up, then repeats whole rounds
of the workload's operations until the next round would end past
``--seconds``, then checks the outputs (see ``checks.py``).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
wrapper installed.  With ``--trace 1`` they are the per-layer ones: the
set-up and every other round run with the layers' entry points wrapped
(``tracing.py``), and the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import time

#: Set-up is timed from here, the first statement the process runs.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def run_round(workload, number: int, tracer=None) -> Tuple[float, list, int]:
    """One round: every operation once.  Returns the round's wall time,
    its outputs (None where an operation raised) and how many raised."""
    workload.begin_round()
    # Start every round from the same heap: garbage left by the previous
    # round is collected here, outside the timed region.
    gc.collect()
    op_span = workload.op_span if tracer is not None else None
    if tracer is not None:
        tracer.round = number
    outputs: List[object] = []
    failed = 0
    begin = time.perf_counter()
    for index, operation in enumerate(workload.operations):
        if tracer is not None:
            tracer.op = index
        try:
            if op_span is not None:
                with tracer.span(op_span):
                    outputs.append(operation())
            else:
                outputs.append(operation())
        except Exception:  # an operation failed: count it, go on
            traceback.print_exc(file=sys.stderr)
            failed += 1
            outputs.append(None)
    return time.perf_counter() - begin, outputs, failed


def run_rounds(workload, seconds: float, tracer=None) -> dict:
    """Repeat whole rounds until the next one would end past ``seconds``.

    With a tracer, rounds alternate untraced and traced (the wrappers are
    installed only for the traced ones), so both halves see the same host
    conditions, and the run ends after a traced round once each half has
    ``workload.min_traced_rounds`` rounds.

    Only the first round's outputs are kept, for the checks; every round
    leaves a digest of its outputs, so memory does not grow with the
    number of rounds.  Traced rounds also sum ``workload.layer_counts``.
    """
    result: dict = {
        "plain": [], "traced": [], "digests": [], "first": None,
        "failed": 0, "attempted": 0, "counts": {},
    }
    need = workload.min_traced_rounds if tracer is not None else 1
    start = time.perf_counter()
    while True:
        number = len(result["digests"])
        traced = tracer is not None and number % 2 == 1
        if traced:
            tracer.install()
        wall, outputs, errors = run_round(
            workload, number, tracer if traced else None
        )
        if traced:
            tracer.uninstall()
            done = [o for o in outputs if o is not None]
            for name, value in workload.layer_counts(done).items():
                result["counts"][name] = result["counts"].get(name, 0) + value
        result["failed"] += errors
        result["attempted"] += len(outputs)
        result["traced" if traced else "plain"].append((number, wall))
        result["digests"].append(
            hashlib.sha256(repr(outputs).encode()).hexdigest()
        )
        if result["first"] is None:
            result["first"] = [o for o in outputs if o is not None]
        walls = [w for _, w in result["plain"] + result["traced"]]
        enough = len(result["plain"]) >= need and (
            tracer is None or (traced and len(result["traced"]) >= need)
        )
        if enough and (
            time.perf_counter() - start + statistics.median(walls) > seconds
        ):
            return result


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("spec", "campaign", "matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _load_program()
    sys.path.insert(0, HERE)
    from checks import check_rounds_agree
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload.setup(tracer)
    setup_s = time.perf_counter() - _PROCESS_START
    if tracer is not None:
        tracer.uninstall()

    rounds = run_rounds(workload, args.seconds, tracer)
    plain = [wall for _, wall in rounds["plain"]]
    traced = [wall for _, wall in rounds["traced"]]
    if tracer is None:
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(plain), "s"),
            "sim_instructions": _metric(
                workload.instructions(rounds["first"]), "instructions"
            ),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }
    else:
        from tracing import PER_LAYER_UNITS, layer_metrics

        values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        values.update(layer_metrics(tracer.spans, traced))
        for name, total in rounds["counts"].items():
            values[name] = total / len(traced)
        values["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain)
        )
        metrics = {
            name: _metric(values[name], unit)
            for name, unit in PER_LAYER_UNITS.items()
        }
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        ))
    print("round walls (s): plain " + " ".join(f"{w:.3f}" for w in plain)
          + (" traced " + " ".join(f"{w:.3f}" for w in traced)
             if traced else ""), file=sys.stderr)

    problems = workload.check(rounds["first"])
    problems += check_rounds_agree(rounds["digests"])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed}: "
          f"{len(rounds['digests'])} round(s), {rounds['attempted']} "
          f"operation(s), {rounds['failed']} failed, "
          f"{len(problems)} check problem(s)")
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds["attempted"],
        "failed": rounds["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
