"""Execution statistics for the simulated processor.

Collected by both execution engines and consumed by the section 5.4
overhead benchmarks (instruction mix, taint activity, detection events) and
the Table 3 false-positive study (instructions executed, input bytes, alert
count).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class ExecutionStats:
    """Counters accumulated over one simulated run."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    jumps: int = 0
    syscalls: int = 0
    #: Instructions whose result carried at least one tainted byte.
    tainted_results: int = 0
    #: Dereference checks performed (one per load/store/JR under a policy).
    dereference_checks: int = 0
    #: Dereferences of tainted pointers, counted regardless of whether the
    #: active policy checks them.  On an unprotected machine this counts
    #: the wild accesses a successful attack performed.
    tainted_dereferences: int = 0
    #: Alerts raised by the detector.
    alerts: int = 0
    #: Bytes marked tainted by the kernel at the input boundary (s5.4's
    #: "software processing overhead" -- one shadow instruction per byte).
    input_bytes_tainted: int = 0
    #: Per-mnemonic execution counts, keyed in first-execution order.
    #: Like the machine's ``pc``, exact whenever no ``run()`` is
    #: executing: the functional engine tallies executions per block and
    #: folds them in once, when each ``run()`` call ends.
    by_mnemonic: Counter = field(default_factory=Counter)
    #: Per-taint-class execution counts (alu/shift/and/compare/...), on
    #: the same contract as ``by_mnemonic``.
    by_class: Counter = field(default_factory=Counter)

    def clone(self) -> "ExecutionStats":
        """Independent copy (checkpointing)."""
        copy = ExecutionStats()
        copy.restore(self)
        return copy

    def restore(self, other: "ExecutionStats") -> None:
        """Overwrite every counter with ``other``'s, in place.

        In-place because the execution engines capture the stats object (and
        its counters) in bound-executor closures: rollback must mutate the
        captured object, not swap it out.
        """
        self.instructions = other.instructions
        self.loads = other.loads
        self.stores = other.stores
        self.branches = other.branches
        self.jumps = other.jumps
        self.syscalls = other.syscalls
        self.tainted_results = other.tainted_results
        self.dereference_checks = other.dereference_checks
        self.tainted_dereferences = other.tainted_dereferences
        self.alerts = other.alerts
        self.input_bytes_tainted = other.input_bytes_tainted
        self.by_mnemonic.clear()
        self.by_mnemonic.update(other.by_mnemonic)
        self.by_class.clear()
        self.by_class.update(other.by_class)

    def merge(self, other: "ExecutionStats") -> None:
        """Accumulate another run's counters into this one."""
        self.instructions += other.instructions
        self.loads += other.loads
        self.stores += other.stores
        self.branches += other.branches
        self.jumps += other.jumps
        self.syscalls += other.syscalls
        self.tainted_results += other.tainted_results
        self.dereference_checks += other.dereference_checks
        self.tainted_dereferences += other.tainted_dereferences
        self.alerts += other.alerts
        self.input_bytes_tainted += other.input_bytes_tainted
        self.by_mnemonic.update(other.by_mnemonic)
        self.by_class.update(other.by_class)

    @property
    def memory_operations(self) -> int:
        return self.loads + self.stores

    def taint_activity_ratio(self) -> float:
        """Fraction of instructions that produced a tainted result."""
        if not self.instructions:
            return 0.0
        return self.tainted_results / self.instructions

    def software_tainting_overhead(self) -> float:
        """Extra-instruction fraction if tainting one byte costs one
        instruction in the OS kernel (the paper's section 5.4 estimate,
        reported as 0.002%..0.2% for SPEC)."""
        if not self.instructions:
            return 0.0
        return self.input_bytes_tainted / self.instructions

    def summary(self) -> Dict[str, float]:
        """Flat dict for report tables."""
        return {
            "instructions": self.instructions,
            "loads": self.loads,
            "stores": self.stores,
            "branches": self.branches,
            "jumps": self.jumps,
            "syscalls": self.syscalls,
            "tainted_results": self.tainted_results,
            "dereference_checks": self.dereference_checks,
            "alerts": self.alerts,
            "input_bytes_tainted": self.input_bytes_tainted,
        }
