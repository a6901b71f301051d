"""Whole-trial checkpointing: machine + kernel + campaign RNG.

A :class:`Checkpoint` bundles the three state domains a fault trial can
touch -- the architectural machine state, the OS-side process state
(:meth:`~repro.kernel.syscalls.Kernel.snapshot`), and optionally a
``random.Random`` stream -- so a campaign captures *one* pre-run
checkpoint and rolls all of it back before every trial.  Restores are
reusable: the same checkpoint restores any number of times.

The machine is captured as a *delta* checkpoint
(:meth:`~repro.cpu.machine.MachineState.snapshot`): page-sized state is
tracked copy-on-write and restore rewrites only the pages a trial
dirtied, which is what makes rollback cost proportional to the trial's
footprint instead of the mapped address space.  A machine has one active
capture: capturing a newer checkpoint on the same machine makes this one
stale, and restoring a stale checkpoint raises ``ValueError`` before it
touches any state (see :mod:`repro.mem.cow`).

Shadow-taint state is *not* captured here separately: the machine
snapshot covers the whole :class:`~repro.taint.plane.TaintPlane`
(taint pages, register masks, and the provenance sidecar in label mode)
exactly once, so checkpoint/rollback works identically in both plane
modes.

The fused superblock cache (:mod:`repro.cpu.superblock`) is derived
entirely from the immutable predecode, so snapshots never capture it
and restores never flush it: blocks fused before a checkpoint keep
replaying across every rollback, and only a text-segment write (SMC)
drops them.
"""

from __future__ import annotations

__all__ = ["Checkpoint"]


class Checkpoint:
    """An immutable restore point for one simulated process.

    Args:
        sim: the machine to capture (any
            :class:`~repro.cpu.machine.MachineState`).
        kernel: the attached :class:`~repro.kernel.syscalls.Kernel`
            (omit for bare-metal machines with no syscall handler).
        rng: a ``random.Random`` whose stream position should roll back
            together with the machine.
    """

    __slots__ = ("machine", "kernel", "rng_state")

    def __init__(self, sim, kernel=None, rng=None) -> None:
        self.machine = sim.snapshot()
        self.kernel = kernel.snapshot() if kernel is not None else None
        self.rng_state = rng.getstate() if rng is not None else None

    def restore(self, sim, kernel=None, rng=None) -> None:
        """Roll every captured domain back (in place; see the machine and
        kernel ``restore`` docstrings for the identity guarantees).

        Raises ``ValueError`` before touching any state when a requested
        domain was not captured or the machine snapshot is stale.
        """
        if kernel is not None and self.kernel is None:
            raise ValueError("checkpoint captured no kernel state")
        if rng is not None and self.rng_state is None:
            raise ValueError("checkpoint captured no RNG state")
        sim.restore(self.machine)
        if kernel is not None:
            kernel.restore(self.kernel)
        if rng is not None:
            rng.setstate(self.rng_state)
