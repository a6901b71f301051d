"""Gate exactness for fast-trigger eligibility.

``FaultCampaign._run_trial`` resolves an insn/pc trigger to an exact
retirement index and runs the pre-fire prefix as one fused burst, with no
event injector, only where skipping the injector is unobservable.  Every
other case must fall back: the kernel arms a ``SyscallFault`` for a
syscall trigger, and an ``InstructionRetired`` injector carries the rest
(the pipeline engine, a pc occurrence deeper than the golden run recorded,
a retirement subscriber).  Each case counts the fallbacks built and checks
that its records equal the ``fast_triggers=False`` run of the same
schedule, so a silently wrong fast path -- or one that never engages --
fails here.
"""

import pytest

from repro.core.events import InstructionRetired
from repro.fault import campaign as campaign_module
from repro.fault import CampaignConfig, FaultCampaign, FaultSpec, Trigger, Workload

# A 40-iteration loop: its body pcs retire far more often than the 16
# visits the golden run records per pc.
SOURCE = r"""
int main(void) {
    char buf[16];
    int *p;
    int v;
    int i;
    read(0, buf, 8);
    p = malloc(16);
    p[0] = 5;
    v = 0;
    i = 0;
    while (i < 40) {
        v = v + p[0] + buf[i % 8];
        i = i + 1;
    }
    printf("v=%d\n", v);
    return 0;
}
"""

WORKLOAD = Workload(name="gate", source=SOURCE, stdin=b"abcdefgh")

SPECS = (
    FaultSpec("reg", 8, 1),
    FaultSpec("reg", 2, 1 << 31),
    FaultSpec("taint-reg", 9, 0xF),
)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts of the fallbacks the campaign builds, by kind."""
    built = {"injector": 0, "syscall": 0}

    class CountingInjector(campaign_module.FaultInjector):
        def __init__(self, *args, **kwargs):
            built["injector"] += 1
            super().__init__(*args, **kwargs)

    class CountingSyscallFault(campaign_module.SyscallFault):
        def __init__(self, *args, **kwargs):
            built["syscall"] += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(campaign_module, "FaultInjector", CountingInjector)
    monkeypatch.setattr(campaign_module, "SyscallFault", CountingSyscallFault)
    return built


@pytest.fixture(scope="module")
def golden():
    return FaultCampaign(
        WORKLOAD, CampaignConfig(trials=0), schedule=[]
    ).golden


def _hot_pc(golden):
    pc, count = max(golden.pc_counts, key=lambda item: item[1])
    assert count > campaign_module._PC_VISIT_DEPTH
    return pc, count


def _run(schedule, fallbacks, instrument=None, **config):
    """``(records, fallbacks built)`` of one campaign over ``schedule``."""
    before = dict(fallbacks)
    campaign = FaultCampaign(
        WORKLOAD,
        CampaignConfig(trials=0, **config),
        schedule=schedule,
        instrument=instrument,
    )
    records = campaign.run().records
    assert len(records) == len(schedule)
    return records, {
        kind: fallbacks[kind] - count for kind, count in before.items()
    }


def _reference(schedule, fallbacks, **config):
    records, _built = _run(schedule, fallbacks, fast_triggers=False, **config)
    return records


def _subscribe_retirements(sim):
    sim.events.subscribe(InstructionRetired, lambda event: None)


def _insn_schedule(golden):
    n = golden.instructions
    indices = (1, n // 4, n // 2, n - 1, n + 500)
    return [
        (Trigger("insn", index), SPECS[i % len(SPECS)])
        for i, index in enumerate(indices)
    ]


def _pc_schedule(golden):
    hot, _count = _hot_pc(golden)
    cold = golden.pc_counts[0][0]
    occurrences = ((hot, 1), (hot, 7), (hot, 16), (cold, 1), (0x7FFFF0, 1))
    return [
        (Trigger("pc", pc, occurrence), SPECS[i % len(SPECS)])
        for i, (pc, occurrence) in enumerate(occurrences)
    ]


class TestEligibleTriggersBuildNoInjector:
    @pytest.mark.parametrize("schedule_of", (_insn_schedule, _pc_schedule),
                             ids=("insn", "pc"))
    def test_no_fallback_and_records_match_injector(
        self, schedule_of, golden, fallbacks
    ):
        schedule = schedule_of(golden)
        records, built = _run(schedule, fallbacks)
        assert built == {"injector": 0, "syscall": 0}
        assert records == _reference(schedule, fallbacks)
        assert any(record.injected for record in records)


class TestRefusedCasesFallBackOncePerTrial:
    def test_syscall_trigger_arms_the_kernel(self, golden, fallbacks):
        schedule = [
            (Trigger("syscall", 3), FaultSpec(kind))
            for kind in ("syscall-errno", "syscall-short-read",
                         "syscall-truncate")
        ]
        records, built = _run(schedule, fallbacks)
        assert built == {"injector": 0, "syscall": len(schedule)}
        assert records == _reference(schedule, fallbacks)
        assert all(record.injected for record in records)

    def test_pipeline_engine(self, golden, fallbacks):
        schedule = _insn_schedule(golden)
        records, built = _run(schedule, fallbacks, engine="pipeline")
        assert built == {"injector": len(schedule), "syscall": 0}
        assert records == _reference(schedule, fallbacks, engine="pipeline")

    def test_pc_occurrence_beyond_recorded_visits(self, golden, fallbacks):
        hot, count = _hot_pc(golden)
        depth = campaign_module._PC_VISIT_DEPTH
        schedule = [
            (Trigger("pc", hot, occurrence), SPECS[i % len(SPECS)])
            for i, occurrence in enumerate((depth + 1, (depth + count) // 2,
                                            count))
        ]
        records, built = _run(schedule, fallbacks)
        assert built == {"injector": len(schedule), "syscall": 0}
        assert records == _reference(schedule, fallbacks)
        assert all(record.injected for record in records)

    def test_instruction_retired_subscriber(self, golden, fallbacks):
        schedule = _insn_schedule(golden) + _pc_schedule(golden)
        records, built = _run(
            schedule, fallbacks, instrument=_subscribe_retirements
        )
        assert built == {"injector": len(schedule), "syscall": 0}
        assert records == _reference(schedule, fallbacks)
