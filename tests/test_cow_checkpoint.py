"""Copy-on-write delta checkpoints: differential equivalence and invariants.

Three layers of evidence that delta restore is exact:

* a randomized differential -- a memory/plane pair runs a seeded stream
  of writes, bulk I/O, taint flips, wild writes and reads, is captured,
  runs more of the stream, and is rolled back; after every rollback it
  must equal a fresh ``TaintedMemory(TaintPlane(mode))`` fed only the
  same seeded prefix up to the capture point.  That oracle shares no
  code with the delta path (both plane modes);
* white-box invariants on the capture's dirty/fresh/baseline tracking
  (first-write COW, fresh-page dropping, restore idempotence) and the
  stale-snapshot rule: a displaced capture refuses to restore;
* the campaign digest pin (shared with ``tests/test_invariance.py``)
  under rollback vs rebuild per trial, both trigger paths, both taint
  modes, superblocks on/off, and worker pools.
"""

import random

import pytest

from repro.builder import build_machine
from repro.fault.campaign import CampaignConfig, FaultCampaign
from repro.fault.workloads import builtin_workload
from repro.isa.assembler import assemble
from repro.mem.layout import PAGE_SIZE
from repro.mem.tainted_memory import TaintedMemory
from repro.taint.bits import TaintVector
from repro.taint.plane import MODE_BIT, MODE_LABEL, TaintPlane
from tests.test_invariance import DIGEST_PIN, in_process

#: A few pages of "program" address space plus a wild region far away,
#: so fault-style stray writes materialize fresh pages.
_BASE = 0x0040_0000
_WILD = 0x6161_4000


def _exact_summary(memory: TaintedMemory):
    """Page bases holding at least one tainted byte."""
    return {b for b, p in memory.plane.mem_taint.items() if any(p)}


def _observable_state(memory: TaintedMemory):
    """Everything a restore must reproduce, as comparable values.

    The clean-page summary is conservative (a page may stay listed after
    its last taint bit clears), so it is compared as the exact set it
    stands for; the delta tests assert separately that restore reinstalls
    exactly that set.
    """
    plane = memory.plane
    state = {
        "pages": {b: bytes(p) for b, p in memory._pages.items()},
        "shadow": {b: bytes(p) for b, p in plane.mem_taint.items()},
        "tainted_pages": _exact_summary(memory),
        "reg_taints": tuple(plane.reg_taints),
        "tainted_bytes_written": memory.tainted_bytes_written,
    }
    if plane.table is not None:
        state["mem_labels"] = dict(plane.mem_labels)
        state["reg_labels"] = tuple(plane.reg_labels)
        state["hilo_label"] = plane.hilo_label
        state["labels"] = tuple(plane.table.labels)
        state["sets"] = tuple(plane.table.sets)
    return state


def _seed_memory(memory: TaintedMemory, rng: random.Random) -> None:
    for i in range(4):
        memory.write_bytes(
            _BASE + i * PAGE_SIZE, bytes(rng.randrange(256) for _ in range(64))
        )
    memory.write_bytes(_BASE + 100, b"tainted-input", taint=True)
    if memory.plane.table is not None:
        lid = memory.plane.table.new_label(
            source_kind="stdin", syscall="read", fd=0, offset_range=(0, 13)
        )
        memory.plane.label_span(_BASE + 100, 13, memory.plane.table.singleton(lid))


def _random_op(memory: TaintedMemory, rng: random.Random) -> None:
    """One random mutation/observation, including page-straddling and wild
    accesses.  Must be driven by an identically seeded rng on both sides."""
    plane = memory.plane
    choice = rng.randrange(10)
    region = _WILD if rng.random() < 0.2 else _BASE
    addr = region + rng.randrange(3 * PAGE_SIZE)
    if choice == 0:
        size = rng.choice((1, 2, 4))
        memory.write(
            addr, size, rng.getrandbits(8 * size),
            taint_mask=rng.getrandbits(size),
        )
    elif choice == 1:
        length = rng.randrange(1, 200)
        memory.write_bytes(
            addr, bytes(rng.randrange(256) for _ in range(length)),
            taint=rng.random() < 0.5,
        )
    elif choice == 2:
        length = rng.randrange(1, 64)
        vector = TaintVector(length, rng.getrandbits(length))
        memory.write_bytes(addr, bytes(length), taint=vector)
    elif choice == 3:
        memory.set_taint(addr, rng.randrange(1, 300), rng.random() < 0.5)
    elif choice == 4:
        # Straddle a page boundary explicitly.
        edge = region + PAGE_SIZE - rng.randrange(1, 4)
        memory.write(edge, 4, rng.getrandbits(32), taint_mask=rng.getrandbits(4))
    elif choice == 5:
        memory.read(addr, rng.choice((1, 2, 4)))
    elif choice == 6:
        memory.read_taint(addr, rng.randrange(1, 300))
    elif choice == 7:
        memory.count_tainted(addr, rng.randrange(1, 300))
    elif choice == 8:
        memory.read_cstring(addr, 64)
    else:
        if plane.table is not None:
            lid = plane.table.new_label(
                source_kind="net", syscall="recv", fd=4,
                offset_range=(0, 4),
            )
            plane.label_span(addr, 4, plane.table.singleton(lid))
        else:
            plane.flip_reg_taint(rng.randrange(1, 32), 0xF)


def _replay(mode: str, seed: int, ops: int):
    """A fresh memory/plane fed the seeded setup plus ``ops`` random ops;
    returns it with the op stream's rng, positioned after the prefix."""
    memory = TaintedMemory(TaintPlane(mode))
    _seed_memory(memory, random.Random(99))
    rng = random.Random(seed)
    for _ in range(ops):
        _random_op(memory, rng)
    return memory, rng


def _rollback(memory: TaintedMemory, cow) -> None:
    memory.restore_cow(cow)
    memory.plane.restore_cow(cow)
    cow.clear_dirty()


class TestRandomizedDifferential:
    """COW delta restore vs a fresh replay of the pre-capture prefix."""

    @pytest.mark.parametrize("mode", (MODE_BIT, MODE_LABEL))
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_delta_restore_matches_fresh_replay(self, mode, seed):
        prefix = 60
        delta, rng = _replay(mode, seed, prefix)
        oracle, _ = _replay(mode, seed, prefix)
        cow = delta.begin_cow()
        delta.plane.begin_cow(cow)
        expected = _observable_state(oracle)
        assert _observable_state(delta) == expected
        for _cycle in range(5):
            for _ in range(40):
                _random_op(delta, rng)
            _rollback(delta, cow)
            assert _observable_state(delta) == expected
            assert set(delta.plane.tainted_pages) == expected["tainted_pages"]
            assert set(delta._pages) == set(delta._taint_pages)

    def test_restore_after_wild_write_unmaps_fresh_pages(self):
        memory = TaintedMemory(TaintPlane(MODE_BIT))
        memory.write_bytes(_BASE, b"x" * 32)
        before = memory.mapped_pages()
        cow = memory.begin_cow()
        memory.plane.begin_cow(cow)
        memory.write_bytes(_WILD, b"A" * 1000, taint=True)
        assert memory.mapped_pages() > before
        _rollback(memory, cow)
        assert memory.mapped_pages() == before
        assert set(memory._pages) == set(memory._taint_pages)


class TestDirtySetInvariants:
    """White-box: the capture tracks exactly the first post-capture writes."""

    def _captured(self):
        memory = TaintedMemory(TaintPlane(MODE_BIT))
        memory.write_bytes(_BASE, bytes(range(256)))
        cow = memory.begin_cow()
        memory.plane.begin_cow(cow)
        return memory, cow

    def test_capture_starts_clean(self):
        _, cow = self._captured()
        assert not cow.data_dirty and not cow.shadow_dirty
        assert not cow.fresh and not cow.data_baseline

    def test_first_write_cows_pristine_baseline(self):
        memory, cow = self._captured()
        memory.write(_BASE, 4, 0xDEADBEEF)
        assert cow.data_dirty == {_BASE}
        assert cow.data_baseline[_BASE][:4] == bytes(range(4))
        # A second write must not re-copy (the baseline is pre-mutation).
        memory.write(_BASE, 4, 0x11111111)
        assert cow.data_baseline[_BASE][:4] == bytes(range(4))

    def test_clean_write_to_clean_page_skips_shadow_tracking(self):
        memory, cow = self._captured()
        memory.write(_BASE, 4, 7)
        assert not cow.shadow_dirty  # shadow untouched, nothing to revert

    def test_fresh_pages_never_enter_the_baseline(self):
        memory, cow = self._captured()
        memory.write(_WILD, 4, 1, taint_mask=0xF)
        assert _WILD in cow.fresh
        assert _WILD not in cow.data_baseline
        assert _WILD not in cow.shadow_baseline

    def test_restore_is_idempotent(self):
        memory, cow = self._captured()
        memory.write_bytes(_BASE + 10, b"garbage", taint=True)
        _rollback(memory, cow)
        once = _observable_state(memory)
        _rollback(memory, cow)
        assert _observable_state(memory) == once
        assert not cow.data_dirty and not cow.shadow_dirty and not cow.fresh


#: Writes a tainted word into a fresh data page, then exits.
_STORE_PROGRAM = """
.text
_start:
    li $t0, 0x10008000
    li $t1, 0x41414141
    sw $t1, 0($t0)
    li $v0, 1
    li $a0, 0
    syscall
"""


def _machine_state(sim):
    """A machine's observable state: registers, pc, pages, taint, labels."""
    memory = sim.memory
    return {
        "pc": sim.pc,
        "halted": sim.halted,
        "regs": tuple(sim.regs.values),
        "reg_taints": tuple(sim.regs.taints),
        "instructions": sim.stats.instructions,
        "memory": _observable_state(memory),
    }


class TestStaleSnapshot:
    """A second capture displaces the first; the first may not restore."""

    @staticmethod
    def _taint_input(sim, addr: int, data: bytes) -> None:
        plane = sim.plane
        sid = 0
        if plane.table is not None:
            sid = plane.table.singleton(plane.table.new_label(
                source_kind="stdin", syscall="read", fd=0,
                offset_range=(0, len(data)),
            ))
        sim.copy_in(addr, data, True, sid)

    @pytest.mark.parametrize("labels", (False, True), ids=("bit", "label"))
    def test_displaced_snapshot_refuses_to_restore(self, labels):
        """Restoring a displaced snapshot raises ValueError and leaves
        the machine's observable state untouched."""
        sim, _kernel = build_machine(
            assemble(_STORE_PROGRAM), None, taint_labels=labels
        )
        first = sim.snapshot()
        sim.step()
        self._taint_input(sim, 0x10010000, b"first input")
        second = sim.snapshot()
        at_second = _machine_state(sim)
        self._taint_input(sim, 0x10010004, b"second input")
        sim.run()
        before = _machine_state(sim)
        with pytest.raises(ValueError, match="stale snapshot"):
            sim.restore(first)
        assert _machine_state(sim) == before
        # The active capture still restores exactly.
        sim.restore(second)
        assert _machine_state(sim) == at_second


class TestCampaignDigestPin:
    """The end-to-end statement, read from the invariance matrix's cells
    (``tests/test_invariance.py``) wherever the matrix has them."""

    @staticmethod
    def _cell(taint="bit", superblocks="fused", workers=1,
              restore="rollback", trigger="fast") -> str:
        return in_process(
            taint, superblocks, workers, restore, trigger, "functional"
        )[0]

    def test_delta_restore_matches_rebuild_per_trial(self):
        assert self._cell() == DIGEST_PIN
        assert self._cell(restore="rebuild", trigger="injector") == DIGEST_PIN

    def test_fast_triggers_match_legacy_injector(self):
        assert self._cell(trigger="injector") == DIGEST_PIN

    def test_pin_holds_in_label_mode(self):
        assert self._cell(taint="label") == DIGEST_PIN

    def test_pin_holds_without_superblocks(self):
        assert self._cell(superblocks="unfused") == DIGEST_PIN

    @pytest.mark.parametrize("workers", (2, 8))
    def test_pin_holds_across_worker_pools(self, workers):
        config = CampaignConfig(seed=11, trials=25, workers=workers)
        campaign = FaultCampaign(builtin_workload("exp3"), config)
        assert campaign.run().digest() == DIGEST_PIN
