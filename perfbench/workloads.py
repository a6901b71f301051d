"""The three benchmark workloads.

A workload is built from a seed, does its one-time set-up, and then
offers ``operations``: the callables of one round, each returning an
output record for the checks.  Every round repeats the same operations
on the same inputs.

``spec``      the nine Table 3 programs compiled at -O0 and -O1 and run
              under the pointer-taintedness policy: long runs, so
              steady-state dispatch dominates.
``campaign``  seeded rollback-retry fault campaigns over the Figure 2
              victims: one warm machine per victim, rolled back for
              every trial.
``matrix``    what ``repro matrix`` computes: every attack under every
              defense and undefended, plus the overhead half: many
              short replays on freshly built machines.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.spec import SPEC_WORKLOADS
from repro.attacks import replay
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.defenses.registry import DEFENSES
from repro.evalx import defense_matrix
from repro.evalx.experiments import all_attack_scenarios
from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.fault.workloads import builtin_workload
from repro.libc import build as libc_build
from repro.libc.build import build_program

from checks import (
    Replay,
    SpecRun,
    check_campaign,
    check_legacy_replay,
    check_matrix,
    check_spec,
)
from seeded_inputs import spec_inputs
from tracing import Tracer, span

# Entry points are called through their modules (``replay.run_minic``),
# never through names bound here, so the tracer's wrappers see the calls.


def clear_build_caches() -> None:
    """Empty the compile caches of ``repro.libc.build``, so the next
    build compiles from source as a fresh ``repro`` process does."""
    for value in vars(libc_build).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


class Workload:
    """Base: set-up, the operations of one round, and their checks."""

    #: Span opened around each operation in traced rounds (None: none).
    op_span: Optional[str] = None
    #: Traced rounds needed for the per-layer tail percentiles.
    min_traced_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.operations: List[Callable[[], object]] = []

    def setup(self, tracer: Optional[Tracer]) -> None:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Reset what a fresh process would find cold."""

    def instructions(self, outputs: Sequence[object]) -> int:
        raise NotImplementedError

    def layer_counts(self, outputs: Sequence[object]) -> Dict[str, float]:
        """Per-layer counts read from the outputs of one round."""
        return {}

    def check(self, outputs: Sequence[object]) -> List[str]:
        raise NotImplementedError


class Spec(Workload):
    """Table 3: nine benign programs at two optimisation levels."""

    LEVELS = (0, 1)

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.inputs = spec_inputs(self.seed)
        self.operations = [
            functools.partial(self._run, workload.name, workload.source, level)
            for level in self.LEVELS
            for workload in SPEC_WORKLOADS
        ]

    def begin_round(self) -> None:
        clear_build_caches()

    def _run(self, name: str, source: str, level: int) -> SpecRun:
        exe = build_program(source, opt_level=level)
        result = replay.run_executable(
            exe, PointerTaintPolicy(), stdin=self.inputs[name]
        )
        stats = result.sim.stats
        return SpecRun(
            program=name,
            level=level,
            outcome=result.outcome,
            exit_status=result.exit_status,
            alerts=stats.alerts,
            stdout=result.stdout,
            instructions=stats.instructions,
        )

    def instructions(self, outputs: Sequence[SpecRun]) -> int:
        return sum(run.instructions for run in outputs)

    def check(self, outputs: Sequence[SpecRun]) -> List[str]:
        return check_spec(self.inputs, outputs)


class Campaign(Workload):
    """Seeded rollback-retry campaigns over the Figure 2 victims."""

    VICTIMS = ("exp1", "exp2", "exp3")
    TRIALS = 1500
    #: Trials per victim the check re-runs through the legacy injector:
    #: this many drawn from the whole plan, as many again from the trials
    #: that did not end masked.
    LEGACY_SAMPLE = 4
    op_span = "fault.trial"

    def setup(self, tracer: Optional[Tracer]) -> None:
        self.campaigns: List[Tuple[str, FaultCampaign, list]] = []
        self.operations = []
        for victim in self.VICTIMS:
            config = CampaignConfig(
                seed=random.Random(f"{self.seed}/{victim}").randrange(2**31),
                trials=self.TRIALS,
                recovery="rollback-retry",
            )
            campaign = FaultCampaign(builtin_workload(victim), config)
            with span(tracer, "fault.golden"):
                campaign.prepare()
            with span(tracer, "fault.plan"):
                plan = campaign.build_plan()
            self.campaigns.append((victim, campaign, plan))
            self.operations.extend(
                functools.partial(self._trial, victim, campaign, index, entry)
                for index, entry in enumerate(plan)
            )

    @staticmethod
    def _trial(victim: str, campaign: FaultCampaign, index: int, entry):
        trigger, fault = entry
        return victim, campaign.run_trial(index, trigger, fault)

    def instructions(self, outputs) -> int:
        return sum(record.instructions for _, record in outputs)

    def check(self, outputs) -> List[str]:
        problems: List[str] = []
        for victim, campaign, plan in self.campaigns:
            records = [record for name, record in outputs if name == victim]
            problems += check_campaign(
                victim,
                [(trigger.spec(), fault.describe()) for trigger, fault in plan],
                records,
            )
            sample = self._legacy_sample(victim, records)
            legacy = FaultCampaign(
                campaign.workload,
                CampaignConfig(
                    seed=campaign.config.seed,
                    trials=len(sample),
                    recovery="rollback-retry",
                    reuse_snapshots=False,
                    fast_triggers=False,
                    superblocks=False,
                ),
                schedule=[plan[record.index] for record in sample],
            ).run()
            problems += check_legacy_replay(victim, sample, legacy.records)
        return problems

    def _legacy_sample(self, victim: str, records) -> list:
        """A seeded sample of trial records, half of them not masked.

        Trials that end in the kernel's unknown-syscall fault are left
        out: that message prints ``sim.pc``, which the dispatch loops
        store back only when ``run()`` returns, so it names wherever the
        current ``run()`` call began and differs between the fast-trigger
        path and the legacy injector (recorded in CHANGES.md).
        """
        rng = random.Random(f"{self.seed}/legacy/{victim}")
        records = [r for r in records if "unknown syscall" not in r.detail]
        unmasked = [r for r in records if r.outcome != "masked"]
        picked = rng.sample(records, min(self.LEGACY_SAMPLE, len(records)))
        picked += rng.sample(unmasked, min(self.LEGACY_SAMPLE, len(unmasked)))
        return sorted(set(picked), key=lambda record: record.index)


class Matrix(Workload):
    """``repro matrix``: coverage half plus overhead half."""

    #: ``run_defense_overhead``'s default repeat count.
    OVERHEAD_REPEATS = 3
    #: Two rounds give over 100 replays, enough for a p90 with ten
    #: samples beyond it.
    min_traced_rounds = 2

    def setup(self, tracer: Optional[Tracer]) -> None:
        # The attacks' inputs are the scenarios' own; nothing here depends
        # on the seed, so every seed measures the same replays.
        self.operations = [
            functools.partial(self._attack, scenario, name)
            for scenario in all_attack_scenarios()
            for name in (*defense_matrix.DEFENSE_NAMES, None)
        ]
        for name in (None, *defense_matrix.DEFENSE_NAMES):
            self.operations.extend(
                functools.partial(self._overhead, name)
                for _ in range(self.OVERHEAD_REPEATS)
            )

    def begin_round(self) -> None:
        clear_build_caches()

    @staticmethod
    def _attack(scenario, name: Optional[str]) -> Replay:
        if name is None:
            result = scenario.run_attack(NullPolicy())
            compromised: Optional[bool] = scenario.attack_succeeded(result)
            checks = 0
        else:
            detector = DEFENSES.create(name)
            # policy=None: the defense's own default policy, as the
            # matrix runs it.
            result = scenario.run_attack(None, defense=detector)
            compromised = None
            checks = detector.checks
        return Replay(
            half="coverage",
            scenario=scenario.name,
            defense=name or "none",
            outcome=result.outcome,
            detected=result.detected,
            compromised=compromised,
            checks=checks,
            instructions=result.sim.stats.instructions,
        )

    @staticmethod
    def _overhead(name: Optional[str]) -> Replay:
        detector = DEFENSES.create(name) if name is not None else None
        result = replay.run_minic(
            defense_matrix._OVERHEAD_SOURCE,
            NullPolicy() if detector is None else None,
            defense=detector,
        )
        return Replay(
            half="overhead",
            scenario="overhead",
            defense=name or "none",
            outcome=result.outcome,
            detected=result.detected,
            compromised=None,
            checks=detector.checks if detector is not None else 0,
            instructions=result.sim.stats.instructions,
        )

    def instructions(self, outputs: Sequence[Replay]) -> int:
        return sum(output.instructions for output in outputs)

    def layer_counts(self, outputs: Sequence[Replay]) -> Dict[str, float]:
        counts = {f"defenses.{name}.checks": 0.0
                  for name in defense_matrix.DEFENSE_NAMES}
        for output in outputs:
            if output.defense != "none":
                counts[f"defenses.{output.defense}.checks"] += output.checks
        return counts

    def check(self, outputs: Sequence[Replay]) -> List[str]:
        return check_matrix(outputs)


WORKLOADS: Dict[str, type] = {
    "spec": Spec,
    "campaign": Campaign,
    "matrix": Matrix,
}
