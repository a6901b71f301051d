"""Executable program images produced by the assembler.

An :class:`Executable` is the loadable result of assembling one translation
unit: encoded text words, an initialized data segment, the symbol table, and
the entry point.  A libc-linked program's unit is assembled in two parts --
the crt0 + libc prefix once, shared by every program, then the program's own
assembly against it (:meth:`~repro.isa.assembler.Assembler.prefix`) -- and
the image is the one assembling the whole unit at once gives.  Executables
built from one prefix share its decoded :class:`Instr` objects, which nothing
writes after assembly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..mem.layout import DATA_BASE, TEXT_BASE
from .instructions import Instr


@dataclass
class Executable:
    """A fully assembled, loadable program image."""

    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    #: Encoded instruction words, one per text slot.
    text_words: List[int] = field(default_factory=list)
    #: Decoded instructions parallel to ``text_words`` (decode cache).
    instructions: List[Instr] = field(default_factory=list)
    #: Initialized data segment contents.
    data: bytearray = field(default_factory=bytearray)
    #: Symbol name -> absolute address.
    symbols: Dict[str, int] = field(default_factory=dict)
    #: Text address -> source line (for diagnostics and alert reporting).
    source_map: Dict[int, str] = field(default_factory=dict)
    entry_symbol: str = "_start"

    @property
    def text_end(self) -> int:
        return self.text_base + 4 * len(self.text_words)

    @property
    def data_end(self) -> int:
        return self.data_base + len(self.data)

    @property
    def entry(self) -> int:
        try:
            return self.symbols[self.entry_symbol]
        except KeyError:
            raise KeyError(
                f"entry symbol {self.entry_symbol!r} not defined"
            ) from None

    def address_of(self, symbol: str) -> int:
        """Absolute address of a label (text or data)."""
        return self.symbols[symbol]

    def instruction_at(self, addr: int) -> Instr:
        """Decoded instruction at a text address."""
        index = (addr - self.text_base) >> 2
        if not 0 <= index < len(self.instructions):
            raise IndexError(f"address {addr:#x} outside text segment")
        return self.instructions[index]

    def symbol_at(
        self, addr: int, include_internal: bool = False
    ) -> Optional[str]:
        """Best-effort reverse symbol lookup (nearest preceding label).

        Compiler-internal labels (``.L...``, string-pool ``_str...``) are
        skipped unless ``include_internal`` is set, so the result names the
        enclosing function.
        """
        best: Tuple[int, Optional[str]] = (-1, None)
        for name, value in self.symbols.items():
            if not include_internal and (
                name.startswith(".") or name.startswith("_str")
            ):
                continue
            if value <= addr and value > best[0]:
                best = (value, name)
        return best[1]

    def disassembly(self) -> str:
        """Full text-segment listing (address, word, mnemonic)."""
        lines = []
        addr_to_label: Dict[int, List[str]] = {}
        for name, value in self.symbols.items():
            addr_to_label.setdefault(value, []).append(name)
        for i, (word, instr) in enumerate(zip(self.text_words, self.instructions)):
            addr = self.text_base + 4 * i
            for label in addr_to_label.get(addr, ()):
                lines.append(f"{label}:")
            lines.append(f"  {addr:08x}: {word:08x}  {instr.text}")
        return "\n".join(lines)
