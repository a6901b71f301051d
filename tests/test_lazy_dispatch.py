"""Lazy slot binding and per-shape superblock code.

A machine binds each text slot on its first dispatch and builds fused
blocks from code compiled once per block shape per process.  Both are
pure optimisations: a lazily bound machine must agree with one whose
every slot was bound before ``run()``, on every engine, taint mode and
defense; a run observed per instruction must build no fused block; and
the shared code objects must hold no per-machine state.
"""

from __future__ import annotations

import pytest

from repro.apps.spec import SPEC_WORKLOADS
from repro.attacks.replay import run_minic
from repro.builder import build_machine
from repro.core.events import InstructionRetired
from repro.cpu import superblock
from repro.cpu.dispatch import bind_slot
from repro.cpu.machine import ExecutionLimit
from repro.defenses.policy import NullPolicy, PointerTaintPolicy
from repro.defenses.registry import DEFENSES
from repro.evalx.defense_matrix import DEFENSE_NAMES, _OVERHEAD_SOURCE
from repro.evalx.experiments import all_attack_scenarios
from repro.libc.build import build_program

_SCENARIOS = {s.name: s for s in all_attack_scenarios()}
_SPEC = {w.name: w for w in SPEC_WORKLOADS}


def _bind_every_slot(sim) -> None:
    """``instrument`` hook: bind the whole text segment before ``run()``,
    as machines did before binding became lazy."""
    ops = sim._ops
    for index in range(len(ops)):
        bind_slot(sim, ops, index)


def _bound(sim) -> int:
    return sum(op is not None for op in sim._ops)


def _record(result) -> dict:
    """Everything a run exposes: verdict, output, alerts, stats, pcs."""
    sim = result.sim
    return {
        "outcome": result.outcome,
        "exit_status": result.exit_status,
        "fault": result.fault,
        "stdout": result.stdout,
        "alerts": list(sim.alerts),
        "stats": dict(vars(sim.stats)),
        "recent_pcs": list(sim.recent_pcs),
        "defenses": sim.defense_summaries(),
        "pstats": result.pstats,
    }


def _attack(name: str, defense, **kwargs):
    scenario = _SCENARIOS[name]
    if defense is None:
        return scenario.run_attack(NullPolicy(), **kwargs)
    return scenario.run_attack(None, defense=DEFENSES.create(defense), **kwargs)


class TestLazyMatchesEager:
    @pytest.mark.parametrize("defense", [*DEFENSE_NAMES, None])
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_attack_under_every_defense(self, name, defense):
        lazy = _attack(name, defense)
        eager = _attack(name, defense, instrument=_bind_every_slot)
        assert _record(lazy) == _record(eager)
        assert _bound(lazy.sim) < _bound(eager.sim) == len(eager.sim._ops)

    @pytest.mark.parametrize("name", sorted(_SPEC))
    def test_spec_program_at_O0(self, name):
        workload = _SPEC[name]
        stdin = workload.make_input()
        lazy = run_minic(workload.source, PointerTaintPolicy(), stdin=stdin)
        eager = run_minic(
            workload.source, PointerTaintPolicy(), stdin=stdin,
            instrument=_bind_every_slot,
        )
        assert lazy.outcome == "exit"
        assert _record(lazy) == _record(eager)

    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_pipeline_engine(self, name):
        lazy = _attack(name, "taintedness", use_pipeline=True)
        eager = _attack(
            name, "taintedness", use_pipeline=True,
            instrument=_bind_every_slot,
        )
        assert _record(lazy) == _record(eager)

    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_label_mode(self, name):
        lazy = _attack(name, "taintedness", taint_labels=True)
        eager = _attack(
            name, "taintedness", taint_labels=True,
            instrument=_bind_every_slot,
        )
        assert _record(lazy) == _record(eager)


class TestRetirementSubscribers:
    @pytest.mark.parametrize("defense", ["shadow-stack", "pac"])
    @pytest.mark.parametrize("name", sorted(_SCENARIOS))
    def test_comparators_build_no_superblocks(self, name, defense):
        fused = _attack(name, defense)
        plain = _attack(name, defense, superblocks=False)
        assert fused.sim.superblocks.info()["built"] == 0
        assert _record(fused) == _record(plain)

    def test_any_subscriber_builds_no_superblocks(self):
        retired = []
        result = run_minic(
            _OVERHEAD_SOURCE, subscribers=[(InstructionRetired, retired.append)]
        )
        plain = run_minic(_OVERHEAD_SOURCE, superblocks=False)
        assert result.sim.superblocks.info()["built"] == 0
        assert len(retired) == result.sim.stats.instructions
        assert _record(result) == _record(plain)


class TestBindingCost:
    @pytest.mark.parametrize("superblocks", [True, False])
    @pytest.mark.parametrize("program", ["overhead", *sorted(_SCENARIOS)])
    def test_bound_slots_at_most_distinct_pcs(self, program, superblocks):
        pcs = set()

        def run(**kwargs):
            if program == "overhead":
                return run_minic(_OVERHEAD_SOURCE, **kwargs)
            return _SCENARIOS[program].run_benign(PointerTaintPolicy(), **kwargs)

        traced = run(
            superblocks=False,
            subscribers=[(InstructionRetired, lambda e: pcs.add(e.pc))],
        )
        result = run(superblocks=superblocks)
        assert result.outcome == traced.outcome
        assert 0 < _bound(result.sim) <= len(pcs) < len(result.sim._ops)


def _run_in_slices(machines, slice_len: int) -> None:
    """Run several machines round-robin, ``slice_len`` instructions at a
    time, until each halts."""
    pending = list(machines)
    while pending:
        for sim in list(pending):
            try:
                sim.run(max_instructions=slice_len)
            except ExecutionLimit:
                continue
            pending.remove(sim)


class TestSharedCode:
    def test_interleaved_machines_match_solo_runs(self):
        exe = build_program(_SPEC["GZIP"].source)
        inputs = (_SPEC["GZIP"].make_input(), b"abcabcabd " * 40)

        def machines():
            return [build_machine(exe, PointerTaintPolicy(), stdin=stdin)
                    for stdin in inputs]

        solo = machines()
        for sim, _kernel in solo:
            sim.run()
        mixed = machines()
        _run_in_slices([sim for sim, _ in mixed], slice_len=997)
        for (a, ka), (b, kb) in zip(solo, mixed):
            assert b.halted and b.exit_status == a.exit_status
            assert kb.process.stdout_text == ka.process.stdout_text
            assert vars(b.stats) == vars(a.stats)
            assert list(b.recent_pcs) == list(a.recent_pcs)
            assert b.superblocks.info()["built"] > 0
        assert solo[0][1].process.stdout_text != solo[1][1].process.stdout_text

    def test_template_compiles_bounded_per_process(self):
        _attack("exp1-stack-smash", "taintedness")
        misses = superblock._template.cache_info().misses
        assert misses <= 2 * superblock.MAX_SUPERBLOCK_LEN
        # A second machine of the same program compiles nothing new.
        again = _attack("exp1-stack-smash", "taintedness")
        assert again.sim.superblocks.info()["built"] > 0
        assert superblock._template.cache_info().misses == misses
