"""Outside-in layer trace: spans around each layer's public entry points.

The benchmark never edits the program to trace it.  :class:`Tracer`
replaces each entry point with a timing wrapper -- every module-level
alias of a function under ``repro`` (``from .parser import parse``
binds the same function object in several modules) and the class
attribute of a method -- and puts the originals back on
:meth:`Tracer.uninstall`.  Untraced runs never construct a tracer, so
they run the program exactly as shipped.

A finished span is the tuple ``(name, start, end, parent, round, op,
extra)``: ``parent`` is the index of the enclosing span (-1 for none),
``round``/``op`` say which operation it belongs to (round -1 is
set-up), and ``extra`` is the tuple of counters read at the span's
boundaries.  Spans stay in memory and are written out once, when the
run ends.  They hold only numbers and strings, so the garbage collector
stops tracking them and a long trace does not slow later collections.

Counters come from the program's public state read at the same
boundaries: ``sim.stats`` and ``sim.superblocks.info()`` around
``Simulator.run``, ``len(exe.text_words)`` after ``assemble``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence

from repro.attacks import replay
from repro.builder import build_machine
from repro.cc import codegen, lower, parser, passes, regalloc
from repro.cc.emit import FunctionEmitter
from repro.cpu import dispatch, superblock
from repro.cpu.simulator import Simulator
from repro.fault.checkpoint import Checkpoint
from repro.isa import assembler
from repro.kernel.syscalls import Kernel

_NAME, _START, _END, _PARENT, _ROUND, _OP, _EXTRA = range(7)

SETUP_ROUND = -1


def span(tracer: Optional["Tracer"], name: str):
    """A span opened from the benchmark's own code (no-op untraced)."""
    return nullcontext() if tracer is None else tracer.span(name)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self.round = SETUP_ROUND
        self.op = 0
        self._patches: List[tuple] = []
        #: ids of machines restored from a checkpoint whose next
        #: ``Simulator.run`` has not started yet (see ``executed_share``).
        self._restored: set = set()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple:
        """Reserve the span's slot; returns the token ``_close`` needs."""
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        return (index, parent, time.perf_counter())

    def _close(self, token: tuple, name: str, end: float,
               extra: tuple = ()) -> None:
        index, parent, start = token
        self._stack.pop()
        self.spans[index] = (
            name, start, end, parent, self.round, self.op, extra
        )

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _wrapper(
        self,
        name: str,
        fn: Callable,
        enter: Optional[Callable] = None,
        leave: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = enter(tracer, args) if enter is not None else None
            token = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                extra = (
                    leave(tracer, args, state, result)
                    if leave is not None else ()
                )
                tracer._close(token, name, end, extra)

        return traced

    # -- installation ------------------------------------------------------

    def _patch_function(self, original: Callable, name: str, **hooks) -> None:
        wrapper = self._wrapper(name, original, **hooks)
        found = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapper
                    self._patches.append((namespace, attr, original))
                    found = True
        if not found:
            raise RuntimeError(f"no module binds {original!r}")

    def _patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, **hooks))
        self._patches.append((cls, attr, original))

    def install(self) -> None:
        """Wrap every traced entry point (idempotent per install)."""
        if self._patches:
            return
        fn = self._patch_function
        fn(parser.parse, "cc.parse")
        fn(codegen.generate, "cc.codegen")
        fn(lower.lower_function, "cc.lower")
        fn(passes.run_passes, "cc.passes")
        fn(regalloc.allocate, "cc.regalloc")
        self._patch_method(FunctionEmitter, "emit_function", "cc.emit")
        fn(assembler.assemble, "isa.assemble", leave=_leave_assemble)
        fn(build_machine, "builder.build_machine")
        fn(dispatch.bind_program, "cpu.bind")
        fn(superblock.build_superblock, "cpu.superblock_build")
        self._patch_method(
            Simulator, "run", "cpu.run", enter=_enter_run, leave=_leave_run
        )
        self._patch_method(Kernel, "__call__", "kernel.syscall")
        self._patch_method(
            Checkpoint, "restore", "fault.restore", leave=_leave_restore
        )
        fn(replay.run_executable, "attacks.replay")

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one gzip'd JSON line (times relative to the
        first span, in microseconds)."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, rec in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index,
                    "name": rec[_NAME],
                    "start_us": round((rec[_START] - origin) * 1e6, 1),
                    "end_us": round((rec[_END] - origin) * 1e6, 1),
                    "parent": rec[_PARENT],
                    "op": f"{rec[_ROUND]}.{rec[_OP]}",
                    "extra": list(rec[_EXTRA]),
                }, separators=(",", ":")) + "\n")


class _Span:
    """Context manager for a span opened from the benchmark's own code."""

    __slots__ = ("tracer", "name", "token")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.token = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> bool:
        self.tracer._close(self.token, self.name, time.perf_counter())
        return False


def _leave_assemble(tracer, args, state, result) -> tuple:
    return (len(result.text_words),) if result is not None else ()


#: Positions in the ``extra`` tuple of a ``cpu.run`` span.
RUN_INSTRUCTIONS, RUN_SYSCALLS, RUN_BUILT, RUN_HITS, RUN_SKIPPED = range(5)


def _enter_run(tracer: Tracer, args) -> tuple:
    sim = args[0]
    stats = sim.stats
    cache = sim.superblocks.info()
    skipped = 0
    if id(sim) in tracer._restored:
        # First dispatch after a rollback: whatever the machine already
        # counts as retired was installed, not interpreted (0 after a
        # plain restore, the epoch's index after a fast-forward).
        tracer._restored.discard(id(sim))
        skipped = stats.instructions
    return (stats.instructions, stats.syscalls, cache["built"],
            cache["hits"], skipped)


def _leave_run(tracer, args, state, result) -> tuple:
    sim = args[0]
    stats = sim.stats
    cache = sim.superblocks.info()
    instructions, syscalls, built, hits, skipped = state
    return (
        stats.instructions - instructions,
        stats.syscalls - syscalls,
        cache["built"] - built,
        cache["hits"] - hits,
        skipped,
    )


def _leave_restore(tracer, args, state, result) -> tuple:
    if len(args) > 1:
        tracer._restored.add(id(args[1]))
    return ()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Every per-layer metric a traced run reports, with its unit, in the
#: order of the layer table in README.md.  A layer that does not run on
#: a workload reports 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "cc.parse_s": "s",
    "cc.codegen_s": "s",
    "cc.lower_s": "s",
    "cc.passes_s": "s",
    "cc.regalloc_s": "s",
    "cc.emit_s": "s",
    "cc.units": "count",
    "isa.assemble_s": "s",
    "isa.words": "count",
    "builder.build_machine_s": "s",
    "builder.machines": "count",
    "cpu.bind_s": "s",
    "cpu.superblock_build_s": "s",
    "cpu.superblocks_built": "count",
    "cpu.superblock_hit_rate": "ratio",
    "cpu.run_s": "s",
    "cpu.instructions_executed": "count",
    "cpu.ips": "instructions/s",
    "kernel.syscall_s": "s",
    "kernel.syscalls": "count",
    "fault.golden_s": "s",
    "fault.plan_s": "s",
    "fault.trial_s": "s",
    "fault.trial_ms.p50": "ms",
    "fault.trial_ms.p99": "ms",
    "fault.trial_samples": "count",
    "fault.restore_s": "s",
    "fault.restores": "count",
    "fault.executed_share": "ratio",
    "defenses.taintedness.checks": "count",
    "defenses.shadow-stack.checks": "count",
    "defenses.pac.checks": "count",
    "attacks.replay_s": "s",
    "attacks.replay_ms.p50": "ms",
    "attacks.replay_ms.p90": "ms",
    "attacks.replay_samples": "count",
    "uncovered_s": "s",
    "trace.overhead_s": "s",
}

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile when at least ten samples lie beyond it,
    else 0.0 (too few samples for a tail)."""
    if len(values) * (100 - q) / 100 < 10:
        return 0.0
    return percentile(values, q)


def layer_metrics(
    spans: Sequence[tuple], round_walls: Sequence[float]
) -> Dict[str, float]:
    """Per-layer numbers for the traced set-up plus one traced round.

    ``spans`` hold the set-up and the traced rounds, whose wall times
    are ``round_walls``.  Times are span self times (duration minus the
    time its direct children cover): the set-up's sum plus the mean over
    the traced rounds.  ``fault.golden_s``/``fault.plan_s`` are whole
    durations.  ``uncovered_s`` is the mean traced round's wall time
    that no span covers.  Latency percentiles pool the traced rounds.
    """
    n_rounds = len(round_walls)
    child_time = [0.0] * len(spans)
    for rec in spans:
        parent = rec[_PARENT]
        if parent >= 0:
            child_time[parent] += rec[_END] - rec[_START]

    metrics: Dict[str, float] = {}
    counts = {
        "cc.units": 0.0, "isa.words": 0.0, "builder.machines": 0.0,
        "cpu.superblocks_built": 0.0, "cpu.instructions_executed": 0.0,
        "kernel.syscalls": 0.0, "fault.restores": 0.0,
    }
    hits = 0.0
    covered = 0.0
    golden = plan = 0.0
    trial_ms: List[float] = []
    replay_ms: List[float] = []
    in_trial = [False] * len(spans)
    executed = skipped = 0
    for index, rec in enumerate(spans):
        in_round = rec[_ROUND] != SETUP_ROUND
        w = 1.0 / n_rounds if in_round else 1.0
        name = rec[_NAME]
        duration = rec[_END] - rec[_START]
        parent = rec[_PARENT]
        in_trial[index] = name == "fault.trial" or (
            parent >= 0 and in_trial[parent]
        )
        if in_round and parent < 0:
            covered += duration / n_rounds
        self_time = (duration - child_time[index]) * w
        metrics[name + "_s"] = metrics.get(name + "_s", 0.0) + self_time
        extra = rec[_EXTRA]
        if name == "cc.parse":
            counts["cc.units"] += w
        elif name == "isa.assemble" and extra:
            counts["isa.words"] += extra[0] * w
        elif name == "builder.build_machine":
            counts["builder.machines"] += w
        elif name == "cpu.run":
            counts["cpu.instructions_executed"] += extra[RUN_INSTRUCTIONS] * w
            counts["kernel.syscalls"] += extra[RUN_SYSCALLS] * w
            counts["cpu.superblocks_built"] += extra[RUN_BUILT] * w
            hits += extra[RUN_HITS] * w
            if in_trial[index]:
                executed += extra[RUN_INSTRUCTIONS]
                skipped += extra[RUN_SKIPPED]
        elif name == "fault.restore":
            counts["fault.restores"] += w
        elif name == "fault.golden":
            golden += duration
        elif name == "fault.plan":
            plan += duration
        if in_round:
            if name == "fault.trial":
                trial_ms.append(duration * 1e3)
            elif name == "attacks.replay":
                replay_ms.append(duration * 1e3)
    metrics.update(counts)
    built = counts["cpu.superblocks_built"]
    metrics["cpu.superblock_hit_rate"] = (hits - built) / hits if hits else 0.0
    run_s = metrics.get("cpu.run_s", 0.0)
    metrics["cpu.ips"] = (
        counts["cpu.instructions_executed"] / run_s if run_s else 0.0
    )
    metrics["fault.golden_s"] = golden
    metrics["fault.plan_s"] = plan
    metrics["fault.trial_ms.p50"] = percentile(trial_ms, 50) if trial_ms else 0.0
    metrics["fault.trial_ms.p99"] = tail(trial_ms, 99)
    metrics["fault.trial_samples"] = len(trial_ms)
    metrics["fault.executed_share"] = (
        executed / (executed + skipped) if executed + skipped else 0.0
    )
    metrics["attacks.replay_ms.p50"] = (
        percentile(replay_ms, 50) if replay_ms else 0.0
    )
    metrics["attacks.replay_ms.p90"] = tail(replay_ms, 90)
    metrics["attacks.replay_samples"] = len(replay_ms)
    mean_wall = sum(round_walls) / len(round_walls)
    metrics["uncovered_s"] = mean_wall - covered
    return metrics
