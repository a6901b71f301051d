"""Two-pass assembler for the simulated RISC ISA.

Supports the subset of classic MIPS assembly our toolchain and hand-written
runtime sources need:

* sections: ``.text`` / ``.data``
* data directives: ``.word``, ``.half``, ``.byte``, ``.ascii``, ``.asciiz``,
  ``.space``, ``.align``, ``.equ``
* labels, ``#``/``;`` comments, character/decimal/hex literals
* symbolic expressions ``label+4`` / ``label-8`` in ``.word`` and ``la``
* the usual pseudo-instructions (``li``, ``la``, ``move``, ``nop``, ``b``,
  ``beqz``/``bnez``, ``blt``/``bgt``/``ble``/``bge`` + unsigned forms,
  ``neg``, ``not``)

Pass 1 parses lines, expands pseudo-instructions into fixed-size proto
instructions and assigns addresses; pass 2 resolves symbols, computes branch
displacements, encodes, and produces an :class:`Executable`.

Pass 1 is resumable.  :meth:`Assembler.prefix` runs it over the leading
part of a unit and freezes the state it reaches, together with the pass-2
result of every instruction whose operands already resolve there.
``assemble(rest, prefix=...)`` continues pass 1 from a copy of that state
and, in pass 2, builds only the instructions the prefix could not, so one
prefix (crt0 + libc) is parsed and encoded once and linked into many
programs.  This is exact because every name has one definition: an operand
that resolves inside the prefix means the same in every unit that extends
it.  Assembling without a prefix starts from the empty one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..mem.layout import DATA_BASE, TEXT_BASE
from .encoding import ZERO_EXTEND_IMM, encode
from .instructions import (
    FMT_BR1,
    FMT_BR2,
    FMT_I2,
    FMT_J,
    FMT_JALR,
    FMT_JR,
    FMT_LUI,
    FMT_MEM,
    FMT_MOVEHL,
    FMT_MULDIV,
    FMT_NONE,
    FMT_R3,
    FMT_SHIFT,
    FMT_SHIFTV,
    Instr,
    REG_AT,
    REG_RA,
    SPECS,
    disassemble,
    register_number,
)
from .program import Executable


class AssemblerError(Exception):
    """Raised on any assembly-time problem, with source location."""

    def __init__(self, message: str, line_no: int = 0, line: str = "") -> None:
        location = f" (line {line_no}: {line.strip()!r})" if line_no else ""
        super().__init__(message + location)
        self.line_no = line_no


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    '"': '"', "'": "'",
}

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_RE = re.compile(r"^(.*)\(\s*(\$\w+)\s*\)$")


def _unescape(body: str, line_no: int, line: str) -> str:
    """Process backslash escapes inside a string literal body."""
    out: List[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(body):
            raise AssemblerError("dangling backslash", line_no, line)
        nxt = body[i + 1]
        if nxt == "x":
            hex_digits = body[i + 2 : i + 4]
            if len(hex_digits) < 2:
                raise AssemblerError("bad \\x escape", line_no, line)
            out.append(chr(int(hex_digits, 16)))
            i += 4
        elif nxt in _ESCAPES:
            out.append(_ESCAPES[nxt])
            i += 2
        else:
            raise AssemblerError(f"unknown escape \\{nxt}", line_no, line)
    return "".join(out)


@dataclass
class _Proto:
    """A concrete instruction awaiting pass-2 symbol resolution."""

    name: str
    operands: Tuple[str, ...]
    addr: int
    line_no: int
    line: str


@dataclass
class _DataFixup:
    """A data word that references a symbol, patched in pass 2."""

    offset: int  # offset within the data segment
    expr: str
    line_no: int
    line: str


#: One instruction's pass-2 result: decoded form, encoded word, source line.
_Built = Tuple[Instr, int, str]


@dataclass(frozen=True)
class AssemblyPrefix:
    """The leading part of a translation unit, assembled for linking.

    Made by :meth:`Assembler.prefix`; every unit assembled with it (by an
    assembler with the same segment bases) starts from this state, which
    nothing mutates (resuming copies it), so one prefix serves any number
    of units.
    """

    #: Pass-1 state after the prefix source.
    symbols: Mapping[str, int]
    equates: Mapping[str, int]
    protos: Tuple[_Proto, ...]
    data: bytes
    data_fixups: Tuple[_DataFixup, ...]
    section: str
    text_addr: int
    pending_data_labels: Tuple[str, ...]
    #: Source lines the prefix occupies when a unit is joined to it with
    #: ``"\n"``; the unit's line numbers continue after them.
    lines: int
    #: The pass-2 result for each of ``protos``, or None where building it
    #: raised (an operand naming a symbol defined later); only those are
    #: built again when a unit is linked.
    built: Tuple[Optional[_Built], ...]


class Assembler:
    """Two-pass assembler producing :class:`Executable` images."""

    def __init__(
        self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE
    ) -> None:
        self.text_base = text_base
        self.data_base = data_base

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def assemble(
        self,
        source: str,
        entry_symbol: str = "_start",
        prefix: Optional[AssemblyPrefix] = None,
    ) -> Executable:
        """Assemble one translation unit into an executable image.

        With ``prefix`` (from :meth:`prefix` on the unit's leading source
        ``head``), ``source`` is the rest of the unit, and the image equals
        the one ``assemble(head + "\n" + source)`` returns, errors and
        their line numbers included.
        """
        if prefix is None:
            prefix = self._empty_prefix()
        self._resume(prefix)
        self._pass_one(source, prefix.lines)
        self._bind_pending_data_labels()
        return self._pass_two(entry_symbol, prefix.built)

    def prefix(self, source: str) -> AssemblyPrefix:
        """Run pass 1 over the leading part of a unit, plus pass 2 for
        each instruction whose operands already resolve, and freeze the
        result for :meth:`assemble`'s ``prefix``."""
        self._resume(self._empty_prefix())
        self._pass_one(source, 0)
        return AssemblyPrefix(
            symbols=MappingProxyType(self._symbols),
            equates=MappingProxyType(self._equates),
            protos=tuple(self._protos),
            data=bytes(self._data),
            data_fixups=tuple(self._data_fixups),
            section=self._section,
            text_addr=self._text_addr,
            pending_data_labels=tuple(self._pending_data_labels),
            lines=len((source + "\n").splitlines()),
            built=tuple(self._try_build(proto) for proto in self._protos),
        )

    def _empty_prefix(self) -> AssemblyPrefix:
        return AssemblyPrefix(
            MappingProxyType({}), MappingProxyType({}), (), b"", (), "text",
            self.text_base, (), 0, (),
        )

    def _resume(self, prefix: AssemblyPrefix) -> None:
        """Start pass 1 from a copy of ``prefix``'s state."""
        self._symbols: Dict[str, int] = dict(prefix.symbols)
        self._equates: Dict[str, int] = dict(prefix.equates)
        self._protos: List[_Proto] = list(prefix.protos)
        self._data = bytearray(prefix.data)
        self._data_fixups: List[_DataFixup] = list(prefix.data_fixups)
        self._section = prefix.section
        self._text_addr = prefix.text_addr
        self._pending_data_labels: List[str] = list(
            prefix.pending_data_labels
        )

    # ------------------------------------------------------------------
    # pass 1
    # ------------------------------------------------------------------

    def _pass_one(self, source: str, lines_before: int) -> None:
        for line_no, raw in enumerate(
            source.splitlines(), start=lines_before + 1
        ):
            line = self._strip_comment(raw)
            if not line.strip():
                continue
            rest = line.strip()
            # Peel off any leading labels.
            while True:
                colon = self._find_label_colon(rest)
                if colon is None:
                    break
                label = rest[:colon].strip()
                if not _LABEL_RE.match(label):
                    raise AssemblerError(f"bad label {label!r}", line_no, raw)
                self._define_symbol(label, line_no, raw)
                rest = rest[colon + 1 :].strip()
            if not rest:
                continue
            if rest.startswith("."):
                self._directive(rest, line_no, raw)
            else:
                self._instruction(rest, line_no, raw)

    @staticmethod
    def _strip_comment(line: str) -> str:
        """Remove ``#`` / ``;`` comments, respecting string/char literals."""
        out: List[str] = []
        quote: Optional[str] = None
        i = 0
        while i < len(line):
            ch = line[i]
            if quote:
                out.append(ch)
                if ch == "\\" and i + 1 < len(line):
                    out.append(line[i + 1])
                    i += 2
                    continue
                if ch == quote:
                    quote = None
            elif ch in "\"'":
                quote = ch
                out.append(ch)
            elif ch in "#;":
                break
            else:
                out.append(ch)
            i += 1
        return "".join(out)

    @staticmethod
    def _find_label_colon(text: str) -> Optional[int]:
        """Index of a leading label's colon, or None."""
        for i, ch in enumerate(text):
            if ch == ":":
                return i
            if not (ch.isalnum() or ch in "_.$"):
                return None
        return None

    def _claim_name(self, name: str, line_no: int, raw: str) -> None:
        """Every name -- label or equate -- has exactly one definition."""
        if (
            name in self._symbols
            or name in self._equates
            or name in self._pending_data_labels
        ):
            raise AssemblerError(f"duplicate symbol {name!r}", line_no, raw)

    def _define_symbol(self, name: str, line_no: int, raw: str) -> None:
        self._claim_name(name, line_no, raw)
        if self._section == "text":
            self._symbols[name] = self._text_addr
        else:
            # Data labels bind lazily at the next data emission, so a label
            # in front of an aligning directive points at the aligned data,
            # not at padding.
            self._pending_data_labels.append(name)

    def _bind_pending_data_labels(self) -> None:
        addr = self.data_base + len(self._data)
        for name in self._pending_data_labels:
            self._symbols[name] = addr
        self._pending_data_labels.clear()

    # -- directives ------------------------------------------------------

    def _directive(self, rest: str, line_no: int, raw: str) -> None:
        parts = rest.split(None, 1)
        name = parts[0]
        arg = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            self._bind_pending_data_labels()
            self._section = "text"
        elif name == ".data":
            self._section = "data"
        elif name in (".globl", ".global", ".ent", ".end", ".type", ".size"):
            pass  # accepted and ignored
        elif name == ".equ":
            sym, _, expr = arg.partition(",")
            sym = sym.strip()
            if not _LABEL_RE.match(sym):
                raise AssemblerError(f"bad .equ name {sym!r}", line_no, raw)
            self._claim_name(sym, line_no, raw)
            self._equates[sym] = self._parse_int(expr.strip(), line_no, raw)
        elif name == ".align":
            power = self._parse_int(arg.strip(), line_no, raw)
            self._align(1 << power)
        elif name == ".space":
            count = self._parse_int(arg.strip(), line_no, raw)
            self._require_data(name, line_no, raw)
            self._bind_pending_data_labels()
            self._data.extend(b"\0" * count)
        elif name == ".word":
            self._require_data(name, line_no, raw)
            self._align(4)
            self._bind_pending_data_labels()
            for item in self._split_operands(arg):
                value = self._try_parse_int(item)
                if value is None:
                    self._data_fixups.append(
                        _DataFixup(len(self._data), item, line_no, raw)
                    )
                    value = 0
                self._data.extend((value & 0xFFFFFFFF).to_bytes(4, "little"))
        elif name == ".half":
            self._require_data(name, line_no, raw)
            self._align(2)
            self._bind_pending_data_labels()
            for item in self._split_operands(arg):
                value = self._parse_int(item, line_no, raw)
                self._data.extend((value & 0xFFFF).to_bytes(2, "little"))
        elif name == ".byte":
            self._require_data(name, line_no, raw)
            self._bind_pending_data_labels()
            for item in self._split_operands(arg):
                value = self._parse_int(item, line_no, raw)
                self._data.append(value & 0xFF)
        elif name in (".ascii", ".asciiz"):
            self._require_data(name, line_no, raw)
            text = arg.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblerError("string literal expected", line_no, raw)
            body = _unescape(text[1:-1], line_no, raw)
            self._bind_pending_data_labels()
            self._data.extend(body.encode("latin-1"))
            if name == ".asciiz":
                self._data.append(0)
        else:
            raise AssemblerError(f"unknown directive {name}", line_no, raw)

    def _require_data(self, directive: str, line_no: int, raw: str) -> None:
        if self._section != "data":
            raise AssemblerError(
                f"{directive} outside .data section", line_no, raw
            )

    def _align(self, boundary: int) -> None:
        while len(self._data) % boundary:
            self._data.append(0)

    # -- instructions ------------------------------------------------------

    def _instruction(self, rest: str, line_no: int, raw: str) -> None:
        if self._section != "text":
            raise AssemblerError("instruction outside .text", line_no, raw)
        parts = rest.split(None, 1)
        mnemonic = parts[0].lower()
        operands = tuple(self._split_operands(parts[1] if len(parts) > 1 else ""))
        for name, ops in self._expand(mnemonic, operands, line_no, raw):
            self._protos.append(_Proto(name, tuple(ops), self._text_addr, line_no, raw))
            self._text_addr += 4

    def _expand(
        self,
        mnemonic: str,
        ops: Tuple[str, ...],
        line_no: int,
        raw: str,
    ) -> List[Tuple[str, Sequence[str]]]:
        """Expand pseudo-instructions; real instructions pass through."""
        at = f"${REG_AT}"
        if mnemonic in SPECS:
            return [(mnemonic, ops)]
        if mnemonic == "nop":
            return [("sll", ("$0", "$0", "0"))]
        if mnemonic == "move":
            self._arity(ops, 2, line_no, raw)
            return [("addu", (ops[0], ops[1], "$0"))]
        if mnemonic == "neg":
            self._arity(ops, 2, line_no, raw)
            return [("sub", (ops[0], "$0", ops[1]))]
        if mnemonic == "not":
            self._arity(ops, 2, line_no, raw)
            return [("nor", (ops[0], ops[1], "$0"))]
        if mnemonic == "b":
            self._arity(ops, 1, line_no, raw)
            return [("beq", ("$0", "$0", ops[0]))]
        if mnemonic == "beqz":
            self._arity(ops, 2, line_no, raw)
            return [("beq", (ops[0], "$0", ops[1]))]
        if mnemonic == "bnez":
            self._arity(ops, 2, line_no, raw)
            return [("bne", (ops[0], "$0", ops[1]))]
        if mnemonic in ("blt", "bge", "bgt", "ble", "bltu", "bgeu", "bgtu", "bleu"):
            self._arity(ops, 3, line_no, raw)
            slt = "sltu" if mnemonic.endswith("u") else "slt"
            base = mnemonic.rstrip("u") if mnemonic.endswith("u") else mnemonic
            if base in ("blt", "bge"):
                first = (slt, (at, ops[0], ops[1]))
            else:  # bgt / ble swap operands
                first = (slt, (at, ops[1], ops[0]))
            branch = "bne" if base in ("blt", "bgt") else "beq"
            return [first, (branch, (at, "$0", ops[2]))]
        if mnemonic == "li":
            self._arity(ops, 2, line_no, raw)
            value = self._parse_int(ops[1], line_no, raw) & 0xFFFFFFFF
            signed = value - 0x100000000 if value & 0x80000000 else value
            if -32768 <= signed <= 32767:
                return [("addiu", (ops[0], "$0", str(signed)))]
            hi = value >> 16 & 0xFFFF
            lo = value & 0xFFFF
            if lo == 0:
                return [("lui", (ops[0], str(hi)))]
            return [
                ("lui", (ops[0], str(hi))),
                ("ori", (ops[0], ops[0], str(lo))),
            ]
        if mnemonic == "la":
            self._arity(ops, 2, line_no, raw)
            # Always two instructions so pass-1 sizing never depends on the
            # (not yet known) symbol value.
            return [
                ("lui", (ops[0], f"%hi({ops[1]})")),
                ("ori", (ops[0], ops[0], f"%lo({ops[1]})")),
            ]
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no, raw)

    @staticmethod
    def _arity(ops: Tuple[str, ...], n: int, line_no: int, raw: str) -> None:
        if len(ops) != n:
            raise AssemblerError(
                f"expected {n} operands, got {len(ops)}", line_no, raw
            )

    @staticmethod
    def _split_operands(text: str) -> List[str]:
        """Split on commas not inside parentheses/quotes."""
        items: List[str] = []
        depth = 0
        quote: Optional[str] = None
        current: List[str] = []
        for ch in text:
            if quote:
                current.append(ch)
                if ch == quote:
                    quote = None
                continue
            if ch in "\"'":
                quote = ch
                current.append(ch)
            elif ch == "(":
                depth += 1
                current.append(ch)
            elif ch == ")":
                depth -= 1
                current.append(ch)
            elif ch == "," and depth == 0:
                items.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
        tail = "".join(current).strip()
        if tail:
            items.append(tail)
        return items

    # ------------------------------------------------------------------
    # expression handling
    # ------------------------------------------------------------------

    def _try_parse_int(self, text: str) -> Optional[int]:
        try:
            return self._parse_int(text, 0, "")
        except AssemblerError:
            return None

    def _parse_int(self, text: str, line_no: int, raw: str) -> int:
        """Parse a pure numeric literal (no symbols)."""
        text = text.strip()
        if not text:
            raise AssemblerError("empty integer literal", line_no, raw)
        if len(text) >= 3 and text[0] == "'" and text[-1] == "'":
            body = _unescape(text[1:-1], line_no, raw)
            if len(body) != 1:
                raise AssemblerError(f"bad char literal {text}", line_no, raw)
            return ord(body)
        try:
            return int(text, 0)
        except ValueError:
            raise AssemblerError(
                f"bad integer literal {text!r}", line_no, raw
            ) from None

    def _eval_expr(self, expr: str, line_no: int, raw: str) -> int:
        """Evaluate ``symbol``, ``number``, or ``a+b`` / ``a-b`` chains."""
        expr = expr.strip()
        tokens = re.split(r"([+-])", expr)
        # Re-join a leading unary minus with its operand.
        if tokens and tokens[0] == "":
            tokens = [tokens[1] + tokens[2]] + tokens[3:]
        total = 0
        op = "+"
        for token in tokens:
            token = token.strip()
            if token in ("+", "-"):
                op = token
                continue
            value = self._try_parse_int(token)
            if value is None:
                if token in self._equates:
                    value = self._equates[token]
                elif token in self._symbols:
                    value = self._symbols[token]
                else:
                    raise AssemblerError(
                        f"undefined symbol {token!r}", line_no, raw
                    )
            total = total + value if op == "+" else total - value
        return total

    def _resolve_imm(self, text: str, line_no: int, raw: str) -> int:
        """Resolve an immediate operand, including %hi()/%lo() forms."""
        text = text.strip()
        if text.startswith("%hi(") and text.endswith(")"):
            return self._eval_expr(text[4:-1], line_no, raw) >> 16 & 0xFFFF
        if text.startswith("%lo(") and text.endswith(")"):
            return self._eval_expr(text[4:-1], line_no, raw) & 0xFFFF
        return self._eval_expr(text, line_no, raw)

    # ------------------------------------------------------------------
    # pass 2
    # ------------------------------------------------------------------

    def _pass_two(
        self, entry_symbol: str, built: Sequence[Optional[_Built]]
    ) -> Executable:
        exe = Executable(
            text_base=self.text_base,
            data_base=self.data_base,
            entry_symbol=entry_symbol,
        )
        exe.symbols.update(self._equates)
        exe.symbols.update(self._symbols)

        for fixup in self._data_fixups:
            value = self._eval_expr(fixup.expr, fixup.line_no, fixup.line)
            exe_bytes = (value & 0xFFFFFFFF).to_bytes(4, "little")
            self._data[fixup.offset : fixup.offset + 4] = exe_bytes
        exe.data = self._data

        instructions, words = exe.instructions, exe.text_words
        source_map = exe.source_map
        for proto, entry in zip_longest(self._protos, built):
            instr, word, line = entry or self._build(proto)
            instructions.append(instr)
            words.append(word)
            source_map[proto.addr] = line
        return exe

    def _build(self, proto: _Proto) -> _Built:
        instr = self._build_instr(proto)
        instr.text = disassemble(instr)
        return instr, encode(instr), proto.line.strip()

    def _try_build(self, proto: _Proto) -> Optional[_Built]:
        try:
            return self._build(proto)
        except AssemblerError:
            return None

    def _build_instr(self, proto: _Proto) -> Instr:
        spec = SPECS[proto.name]
        ops = proto.operands
        line_no, raw = proto.line_no, proto.line
        fmt = spec.fmt

        def reg(i: int) -> int:
            try:
                return register_number(ops[i])
            except (ValueError, IndexError) as exc:
                raise AssemblerError(str(exc), line_no, raw) from None

        def imm(i: int) -> int:
            try:
                return self._resolve_imm(ops[i], line_no, raw)
            except IndexError:
                raise AssemblerError("missing immediate", line_no, raw) from None

        instr = Instr(proto.name, spec.klass)
        if fmt == FMT_R3:
            self._arity(ops, 3, line_no, raw)
            instr.rd, instr.rs, instr.rt = reg(0), reg(1), reg(2)
        elif fmt == FMT_SHIFT:
            self._arity(ops, 3, line_no, raw)
            instr.rd, instr.rt, instr.shamt = reg(0), reg(1), imm(2) & 0x1F
        elif fmt == FMT_SHIFTV:
            self._arity(ops, 3, line_no, raw)
            instr.rd, instr.rt, instr.rs = reg(0), reg(1), reg(2)
        elif fmt == FMT_MULDIV:
            self._arity(ops, 2, line_no, raw)
            instr.rs, instr.rt = reg(0), reg(1)
        elif fmt == FMT_MOVEHL:
            self._arity(ops, 1, line_no, raw)
            instr.rd = reg(0)
        elif fmt == FMT_JR:
            self._arity(ops, 1, line_no, raw)
            instr.rs = reg(0)
        elif fmt == FMT_JALR:
            if len(ops) == 1:
                instr.rd, instr.rs = REG_RA, reg(0)
            else:
                self._arity(ops, 2, line_no, raw)
                instr.rd, instr.rs = reg(0), reg(1)
        elif fmt == FMT_I2:
            self._arity(ops, 3, line_no, raw)
            instr.rt, instr.rs = reg(0), reg(1)
            instr.imm = self._check_imm16(proto.name, imm(2), line_no, raw)
        elif fmt == FMT_LUI:
            self._arity(ops, 2, line_no, raw)
            instr.rt = reg(0)
            instr.imm = imm(1) & 0xFFFF
        elif fmt == FMT_MEM:
            self._arity(ops, 2, line_no, raw)
            instr.rt = reg(0)
            match = _MEM_RE.match(ops[1].strip())
            if not match:
                raise AssemblerError(
                    f"bad memory operand {ops[1]!r}", line_no, raw
                )
            offset_text = match.group(1).strip() or "0"
            instr.imm = self._check_imm16(
                proto.name,
                self._resolve_imm(offset_text, line_no, raw),
                line_no,
                raw,
            )
            try:
                instr.rs = register_number(match.group(2))
            except ValueError as exc:
                raise AssemblerError(str(exc), line_no, raw) from None
        elif fmt == FMT_BR2:
            self._arity(ops, 3, line_no, raw)
            instr.rs, instr.rt = reg(0), reg(1)
            instr.imm = self._branch_offset(ops[2], proto)
        elif fmt == FMT_BR1:
            self._arity(ops, 2, line_no, raw)
            instr.rs = reg(0)
            instr.imm = self._branch_offset(ops[1], proto)
        elif fmt == FMT_J:
            self._arity(ops, 1, line_no, raw)
            instr.target = self._eval_expr(ops[0], line_no, raw)
        elif fmt == FMT_NONE:
            pass
        else:  # pragma: no cover - formats are exhaustive
            raise AssemblerError(f"unhandled format {fmt}", line_no, raw)
        return instr

    def _check_imm16(
        self, name: str, value: int, line_no: int, raw: str
    ) -> int:
        if name in ZERO_EXTEND_IMM:
            if not 0 <= value <= 0xFFFF:
                value &= 0xFFFF
            return value
        if not -0x8000 <= value <= 0x7FFF:
            raise AssemblerError(
                f"immediate {value} out of 16-bit range for {name}",
                line_no,
                raw,
            )
        return value

    def _branch_offset(self, label: str, proto: _Proto) -> int:
        target = self._eval_expr(label, proto.line_no, proto.line)
        delta = target - (proto.addr + 4)
        if delta & 3:
            raise AssemblerError(
                f"misaligned branch target {target:#x}",
                proto.line_no,
                proto.line,
            )
        offset = delta >> 2
        if not -0x8000 <= offset <= 0x7FFF:
            raise AssemblerError(
                f"branch target {target:#x} out of range",
                proto.line_no,
                proto.line,
            )
        return offset


def assemble(
    source: str,
    entry_symbol: str = "_start",
    prefix: Optional[AssemblyPrefix] = None,
) -> Executable:
    """Assemble ``source`` with default segment bases (after ``prefix``,
    if given -- see :meth:`Assembler.assemble`)."""
    return Assembler().assemble(source, entry_symbol, prefix)
