"""Output checks, computed apart from the program and run after timing.

Each ``check_*`` function takes the outputs a workload collected and
returns a list of problems (empty when every output is right).  The
references are plain Python re-computations over the same generated
inputs, or the verdicts the paper states; none of them calls into the
program under test.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# spec: Table 3's benign programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpecRun:
    """What one spec operation (one program at one -O level) produced."""

    program: str
    level: int
    outcome: str
    exit_status: Optional[int]
    alerts: int
    stdout: str
    instructions: int


def _c_div(a: int, b: int) -> int:
    """C integer division (truncates toward zero)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a: int, b: int) -> int:
    """C ``%``: the remainder takes the dividend's sign."""
    return a - b * _c_div(a, b)


def _wrap32(value: int) -> int:
    """Two's-complement 32-bit wrap-around of a MiniC ``int``."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def gap_reference(data: bytes) -> Tuple[int, int, int, int]:
    """``(nodes, edges, reached, dist_sum)`` for GAP's input: parse the
    numbers as directed edge pairs (mod 128) and BFS from node 0."""
    numbers = [int(token) % 128 for token in re.findall(rb"\d+", data)]
    nodes = max(numbers) + 1 if numbers else 0
    pairs = list(zip(numbers[0::2], numbers[1::2]))[:2048]
    adjacency: Dict[int, List[int]] = {}
    for a, b in pairs:
        adjacency.setdefault(a, []).append(b)
    dist = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return nodes, len(pairs), len(dist), sum(dist.values())


def vortex_reference(data: bytes) -> Tuple[int, int, int, int, int, int]:
    """``(inserts, hits, misses, deletes, live, checksum)`` for VORTEX's
    transactions, replayed over a dict.  A token's first byte picks the
    operation (``% 3``: insert, lookup, delete); the rest hash to the key
    with MiniC's 32-bit wrap-around.  Tokens are split at bytes up to
    ``' '``, as the program does."""
    table: Dict[int, int] = {}
    inserts = hits = misses = deletes = 0
    for token in re.findall(rb"[\x21-\x7f]+", data):
        op = token[0] % 3
        key = 0
        for byte in token[1:]:
            key = _wrap32(key * 131 + byte)
        if key < 0:
            key = _wrap32(-key)
        if op == 0:
            if key not in table:
                inserts += 1
            table[key] = _c_mod(key, 1000)
        elif key in table:
            if op == 1:
                hits += 1
            else:
                del table[key]
                deletes += 1
        else:
            misses += 1
    checksum = 0
    for value in table.values():
        checksum ^= value
    return inserts, hits, misses, deletes, len(table), checksum


def bzip2_reference(data: bytes) -> Tuple[int, int]:
    """``(in, packed)`` for BZIP2: input length and the size of its
    run-length encoding (two bytes per run of at most 255)."""
    packed = 0
    i = 0
    while i < len(data):
        run = 1
        while i + run < len(data) and data[i + run] == data[i] and run < 255:
            run += 1
        packed += 2
        i += run
    return len(data), packed


_GAP_LINE = re.compile(
    r"gap: (\d+) nodes, (\d+) edges, (\d+) reached, dist sum=(-?\d+)"
)
_VORTEX_LINE = re.compile(
    r"vortex: (\d+) inserts, (\d+) hits, (\d+) misses, (\d+) deletes, "
    r"(\d+) live, checksum=(-?\d+)"
)
_BZIP2_LINE = re.compile(
    r"bzip2: in=(-?\d+) packed=(-?\d+) out=(-?\d+) errors=(-?\d+)"
)


def _numbers(pattern: re.Pattern, stdout: str) -> Optional[Tuple[int, ...]]:
    match = pattern.search(stdout)
    return tuple(int(g) for g in match.groups()) if match else None


def check_spec(
    inputs: Dict[str, bytes], runs: Sequence[SpecRun]
) -> List[str]:
    """Every program exits 0 with no alert at both levels, -O0 and -O1
    print the same stdout, and GAP/VORTEX/BZIP2 match their references."""
    problems: List[str] = []
    by_program: Dict[str, Dict[int, SpecRun]] = {}
    for run in runs:
        where = f"{run.program} -O{run.level}"
        if run.outcome != "exit" or run.exit_status != 0:
            problems.append(
                f"{where}: ended {run.outcome} status {run.exit_status}"
            )
        if run.alerts:
            problems.append(f"{where}: {run.alerts} alert(s) (Table 3: 0)")
        by_program.setdefault(run.program, {})[run.level] = run
    for program in inputs:
        levels = by_program.get(program, {})
        if set(levels) != {0, 1}:
            problems.append(f"{program}: ran at levels {sorted(levels)}")
            continue
        if levels[0].stdout != levels[1].stdout:
            problems.append(f"{program}: -O0 and -O1 stdout differ")
    expected = {
        "GAP": (_GAP_LINE, gap_reference),
        "VORTEX": (_VORTEX_LINE, vortex_reference),
    }
    for program, (pattern, reference) in expected.items():
        want = reference(inputs[program])
        for run in by_program.get(program, {}).values():
            got = _numbers(pattern, run.stdout)
            if got != want:
                problems.append(
                    f"{program} -O{run.level}: printed {got}, reference {want}"
                )
    size, packed = bzip2_reference(inputs["BZIP2"])
    for run in by_program.get("BZIP2", {}).values():
        got = _numbers(_BZIP2_LINE, run.stdout)
        if got != (size, packed, size, 0):
            problems.append(
                f"BZIP2 -O{run.level}: printed (in, packed, out, errors)="
                f"{got}, round trip needs {(size, packed, size, 0)}"
            )
    return problems


# ---------------------------------------------------------------------------
# campaign: seeded fault campaigns with rollback-retry
# ---------------------------------------------------------------------------

ABNORMAL = ("detected", "crash", "timeout")
TAINT_KINDS = ("taint-mem", "taint-reg")


def _fault_kind(fault: str) -> str:
    return fault.split("@")[0]


def check_campaign(
    victim: str,
    plan: Sequence[Tuple[str, str]],
    records: Sequence,
) -> List[str]:
    """One victim's trial records against its plan of
    ``(trigger, fault)`` strings: each plan index is covered exactly once
    by the trial drawn for it, a taint-bit fault never changes data (so it
    ends masked or detected), and every abnormal trial's rollback-retry
    reproduced the golden run."""
    problems: List[str] = []
    indices = sorted(record.index for record in records)
    if indices != list(range(len(plan))):
        problems.append(
            f"{victim}: {len(records)} records do not cover the "
            f"{len(plan)}-trial plan once each"
        )
    for record in records:
        where = f"{victim} trial {record.index}"
        if 0 <= record.index < len(plan) and (
            (record.trigger, record.fault) != tuple(plan[record.index])
        ):
            problems.append(f"{where}: ran {record.fault} at {record.trigger}, "
                            f"plan says {plan[record.index]}")
        if _fault_kind(record.fault) in TAINT_KINDS and record.outcome not in (
            "masked", "detected"
        ):
            problems.append(
                f"{where}: taint fault {record.fault} ended {record.outcome}"
            )
        if record.outcome in ABNORMAL and record.recovered is not True:
            problems.append(
                f"{where}: {record.outcome} trial not recovered by "
                f"rollback-retry ({record.detail})"
            )
    return problems


def check_legacy_replay(
    victim: str, sampled: Sequence, replayed: Sequence
) -> List[str]:
    """Trials re-run on fresh machines through the legacy event injector
    must reproduce the timed path's records field for field (the index is
    the trial's position in the plan on one side and in the sample on
    the other)."""
    if len(sampled) != len(replayed):
        return [f"{victim}: legacy replay ran {len(replayed)} of "
                f"{len(sampled)} sampled trials"]
    problems = []
    for timed, legacy in zip(sampled, replayed):
        if timed.key()[1:] != legacy.key()[1:]:
            problems.append(
                f"{victim} trial {timed.index}: timed path {timed.key()[1:]} "
                f"!= legacy injector {legacy.key()[1:]}"
            )
    return problems


# ---------------------------------------------------------------------------
# matrix: every attack under every defense, plus the overhead half
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Replay:
    """What one matrix operation (one replay) produced.  ``defense`` is
    ``"none"`` for the undefended replay; ``compromised`` is only judged
    there."""

    half: str  # "coverage" | "overhead"
    scenario: str
    defense: str
    outcome: str
    detected: bool
    compromised: Optional[bool]
    checks: int
    instructions: int


FIGURE2 = ("exp1-stack-smash", "exp2-heap-corruption", "exp3-format-string")
SECTION_512 = (
    "wuftpd-site-exec",
    "nullhttpd-heap",
    "ghttpd-url-pointer",
    "traceroute-double-free",
)
TABLE4 = (
    "table4a-integer-overflow",
    "table4b-auth-flag",
    "table4c-format-leak",
)
#: Non-control-data attacks that both control-flow comparators miss.
ESCAPE_COMPARATORS = (
    "exp2-heap-corruption",
    "exp3-format-string",
    "wuftpd-site-exec",
    "nullhttpd-heap",
    "traceroute-double-free",
)
#: The stack smash overwrites a return address: every defense sees it.
CAUGHT_BY_ALL = ("exp1-stack-smash",)
#: The overhead program calls ``main`` once and ``work`` 150 times; the
#: shadow stack checks each return, PAC signs and authenticates each.
OVERHEAD_CALLS = 151
DEFENSES = ("taintedness", "shadow-stack", "pac")


def check_matrix(replays: Sequence[Replay]) -> List[str]:
    """The coverage half against the paper's verdicts and the overhead
    half against the program's call count."""
    problems: List[str] = []
    verdict: Dict[Tuple[str, str], Replay] = {}
    for replay in replays:
        if replay.half == "coverage":
            verdict[(replay.scenario, replay.defense)] = replay
    scenarios = {scenario for scenario, _ in verdict}
    want = set(FIGURE2 + SECTION_512 + TABLE4)
    if scenarios != want:
        problems.append(
            f"coverage half replayed {sorted(scenarios)}, "
            f"expected {sorted(want)}"
        )

    def expect(scenario: str, defense: str, detected: bool) -> None:
        replay = verdict.get((scenario, defense))
        if replay is None:
            problems.append(f"{scenario} under {defense}: not replayed")
        elif replay.detected != detected:
            problems.append(
                f"{scenario} under {defense}: "
                f"{'detected' if replay.detected else 'escaped'}, paper says "
                f"{'detected' if detected else 'escaped'}"
            )

    for scenario in FIGURE2 + SECTION_512:
        expect(scenario, "taintedness", True)
    for scenario in TABLE4:
        expect(scenario, "taintedness", False)
    for scenario in ESCAPE_COMPARATORS:
        expect(scenario, "shadow-stack", False)
        expect(scenario, "pac", False)
    for scenario in CAUGHT_BY_ALL:
        expect(scenario, "shadow-stack", True)
        expect(scenario, "pac", True)
    for scenario in sorted(want):
        replay = verdict.get((scenario, "none"))
        if replay is None:
            problems.append(f"{scenario} undefended: not replayed")
        elif replay.compromised is not True:
            problems.append(
                f"{scenario} undefended: did not compromise "
                f"({replay.outcome})"
            )

    overhead = [r for r in replays if r.half == "overhead"]
    defenses_run = {r.defense for r in overhead}
    if defenses_run != set(DEFENSES) | {"none"}:
        problems.append(f"overhead half ran {sorted(defenses_run)}")
    baseline = {r.instructions for r in overhead if r.defense == "none"}
    for replay in overhead:
        if replay.outcome != "exit":
            problems.append(
                f"overhead under {replay.defense}: ended {replay.outcome}"
            )
        if {replay.instructions} != baseline:
            problems.append(
                f"overhead under {replay.defense}: {replay.instructions} "
                f"instructions, undefended {sorted(baseline)}"
            )
        want_checks = {
            "shadow-stack": OVERHEAD_CALLS,
            "pac": 2 * OVERHEAD_CALLS,
        }.get(replay.defense)
        if want_checks is not None and replay.checks != want_checks:
            problems.append(
                f"overhead under {replay.defense}: {replay.checks} checks, "
                f"expected {want_checks}"
            )
    return problems


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------


def check_rounds_agree(digests: Sequence[str]) -> List[str]:
    """Every round repeats the same operations on the same inputs, so
    every round's output digest must equal the first round's."""
    return [
        f"round {number}: outputs differ from round 0"
        for number, digest in enumerate(digests)
        if digest != digests[0]
    ]
