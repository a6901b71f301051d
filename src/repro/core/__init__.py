"""Core pointer-taintedness model: events, propagation, annotations.

:mod:`repro.core.events` (the typed event bus both engines publish to)
is re-exported here.  :mod:`repro.core.propagation` holds the Table 1
rules and :mod:`repro.core.annotations` the section 5.3 watchpoints.
The taint bits live in :mod:`repro.taint`, the detector and policies in
:mod:`repro.defenses`.
"""

from .events import (
    EVENT_TYPES,
    EventBus,
    EventLog,
    FaultInjected,
    InstructionRetired,
    MemoryFaulted,
    SyscallEnter,
    SyscallExit,
    TaintPropagated,
    TaintedDereference,
    TrialCompleted,
)

__all__ = [
    "EVENT_TYPES",
    "EventBus",
    "EventLog",
    "FaultInjected",
    "InstructionRetired",
    "MemoryFaulted",
    "TrialCompleted",
    "SyscallEnter",
    "SyscallExit",
    "TaintPropagated",
    "TaintedDereference",
]
