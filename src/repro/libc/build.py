"""Program builder: MiniC application + libc + crt0 -> executable image.

A program is one translation unit: crt0, the compiled libc units, the
compiled application, any extra assembly, and the syscall veneers, in that
order.  Its fixed leading part -- crt0 + libc, the *libc prefix* -- is
assembled once per opt level (:meth:`~repro.isa.assembler.Assembler.prefix`),
and each program is linked by assembling only the rest of the unit against
it; the image is the one assembling the whole unit at once gives.  Compiled
images are memoized by source text -- benchmarks rebuild the same programs
repeatedly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from ..cc.compiler import compile_units
from ..isa.assembler import Assembler, AssemblyPrefix, assemble
from ..isa.program import Executable
from .malloc_src import MALLOC_SOURCE
from .runtime import CRT0, SYSCALL_VENEERS
from .socket_src import SOCKET_SOURCE
from .stdio_src import STDIO_SOURCE
from .string_src import STRING_SOURCE

#: The standard library units, compiled in this order.
LIBC_UNITS: Tuple[Tuple[str, str], ...] = (
    ("string", STRING_SOURCE),
    ("stdio", STDIO_SOURCE),
    ("malloc", MALLOC_SOURCE),
    ("socket", SOCKET_SOURCE),
)


@lru_cache(maxsize=None)
def _libc_assembly(opt_level: int = 0) -> str:
    """Assembly text of the whole standard library (compiled once per level)."""
    return compile_units(LIBC_UNITS, opt_level=opt_level)


@lru_cache(maxsize=None)
def _libc_prefix(opt_level: int = 0) -> AssemblyPrefix:
    """crt0 + the whole standard library, assembled once per level for
    every program to link against."""
    return Assembler().prefix("\n".join([CRT0, _libc_assembly(opt_level)]))


@lru_cache(maxsize=64)
def _build_cached(app_source: str, extra_asm: str, opt_level: int) -> Executable:
    parts = [compile_units((("app", app_source),), opt_level=opt_level)]
    if extra_asm:
        parts.append(extra_asm)
    parts.append(SYSCALL_VENEERS)
    return assemble("\n".join(parts), prefix=_libc_prefix(opt_level))


def build_program(
    app_source: str, extra_asm: str = "", opt_level: int = 0
) -> Executable:
    """Compile and link a MiniC program against the runtime and libc.

    ``opt_level`` selects the MiniC backend (0 = legacy oracle, 1 = IR
    pipeline) for both the application and the libc units.  The image is
    the one assembling ``crt0 + libc + app + extra_asm + veneers`` as one
    unit gives; the libc part of it is shared by every program.

    The returned :class:`Executable` is cached and therefore shared; callers
    must not mutate it (the simulator never does -- it copies the image into
    its own memory).
    """
    return _build_cached(app_source, extra_asm, opt_level)


def build_assembly(asm_source: str, with_crt0: bool = False) -> Executable:
    """Assemble a raw assembly program (used by ISA-level tests)."""
    parts = []
    if with_crt0:
        parts.append(CRT0)
    parts.append(asm_source)
    return assemble("\n".join(parts))
