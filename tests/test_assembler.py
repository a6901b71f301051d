"""Assembler tests: directives, labels, pseudo-instructions, diagnostics."""

import pytest

from repro.isa.assembler import Assembler, AssemblerError, assemble
from repro.mem.layout import DATA_BASE, TEXT_BASE


def asm(text):
    return assemble(".text\n_start:\n" + text)


class TestBasics:
    def test_text_base_and_entry(self):
        exe = asm("nop\n")
        assert exe.text_base == TEXT_BASE
        assert exe.entry == TEXT_BASE

    def test_instruction_addresses_advance_by_four(self):
        exe = asm("nop\nnop\nadd $1,$2,$3\n")
        assert len(exe.text_words) == 3
        assert exe.instruction_at(TEXT_BASE + 8).name == "add"

    def test_register_names_and_numbers_equivalent(self):
        exe = asm("add $t0,$sp,$ra\nadd $8,$29,$31\n")
        assert exe.text_words[0] == exe.text_words[1]

    def test_comments_stripped(self):
        exe = asm("nop # comment\nnop ; also\n")
        assert len(exe.text_words) == 2

    def test_hash_inside_string_kept(self):
        exe = assemble('.text\n_start: nop\n.data\ns: .asciiz "a#b"\n')
        assert bytes(exe.data) == b"a#b\0"

    def test_multiple_labels_one_line(self):
        exe = asm("a: b: nop\n")
        assert exe.symbols["a"] == exe.symbols["b"] == TEXT_BASE

    def test_source_map_records_lines(self):
        exe = asm("add $1,$2,$3\n")
        assert "add" in exe.source_map[TEXT_BASE]

    def test_disassembly_listing(self):
        exe = asm("lw $t0,4($sp)\n")
        listing = exe.disassembly()
        assert "lw $8,4($29)" in listing
        assert "_start:" in listing


class TestDataDirectives:
    def test_word_values(self):
        exe = assemble(
            ".text\n_start: nop\n.data\nv: .word 1, -1, 0x10\n"
        )
        assert exe.data[0:4] == (1).to_bytes(4, "little")
        assert exe.data[4:8] == (0xFFFFFFFF).to_bytes(4, "little")
        assert exe.data[8:12] == (0x10).to_bytes(4, "little")

    def test_word_symbolic_fixup(self):
        exe = assemble(
            ".text\n_start: nop\n.data\np: .word q+4\nq: .word 7\n"
        )
        q = exe.symbols["q"]
        assert int.from_bytes(exe.data[0:4], "little") == q + 4

    def test_byte_and_half(self):
        exe = assemble(
            ".text\n_start: nop\n.data\nb: .byte 1,2,'A'\nh: .half 0x1234\n"
        )
        assert exe.data[0:3] == bytes([1, 2, 65])
        # .half aligns to 2
        assert exe.symbols["h"] == DATA_BASE + 4
        assert exe.data[4:6] == (0x1234).to_bytes(2, "little")

    def test_asciiz_escapes(self):
        exe = assemble(
            '.text\n_start: nop\n.data\ns: .asciiz "a\\n\\x41\\0z"\n'
        )
        assert bytes(exe.data) == b"a\nAz"[:3] + b"\0" + b"z\0"

    def test_ascii_no_terminator(self):
        exe = assemble('.text\n_start: nop\n.data\ns: .ascii "ab"\n')
        assert bytes(exe.data) == b"ab"

    def test_space_and_align(self):
        exe = assemble(
            ".text\n_start: nop\n.data\na: .byte 1\nb: .align 3\nc: .word 5\n"
        )
        assert exe.symbols["a"] == DATA_BASE
        assert exe.symbols["c"] == DATA_BASE + 8

    def test_label_before_aligned_word_points_at_word(self):
        exe = assemble(
            '.text\n_start: nop\n.data\ns: .asciiz "abc"\nv: .word 9\n'
        )
        assert exe.symbols["v"] % 4 == 0
        value_at = exe.symbols["v"] - DATA_BASE
        assert int.from_bytes(exe.data[value_at : value_at + 4], "little") == 9

    def test_equ_constants(self):
        exe = assemble(
            ".equ SIZE, 48\n.text\n_start: addiu $t0,$0,SIZE\n"
        )
        assert exe.instructions[0].imm == 48


class TestPseudoInstructions:
    def test_nop_is_sll_zero(self):
        exe = asm("nop\n")
        assert exe.text_words[0] == 0

    def test_move(self):
        exe = asm("move $t0,$t1\n")
        assert exe.instructions[0].name == "addu"
        assert exe.instructions[0].rt == 0

    def test_li_small_is_one_instruction(self):
        exe = asm("li $t0, 42\nsyscall\n")
        assert exe.instructions[0].name == "addiu"
        assert exe.instructions[0].imm == 42

    def test_li_negative_small(self):
        exe = asm("li $t0, -5\n")
        assert exe.instructions[0].imm == -5

    def test_li_large_is_lui_ori(self):
        exe = asm("li $t0, 0x12345678\n")
        assert [i.name for i in exe.instructions] == ["lui", "ori"]
        assert exe.instructions[0].imm == 0x1234
        assert exe.instructions[1].imm == 0x5678

    def test_li_high_halfword_only_is_lui(self):
        exe = asm("li $t0, 0x40000\n")
        assert [i.name for i in exe.instructions] == ["lui"]

    def test_la_two_instructions(self):
        exe = assemble(
            ".text\n_start: la $t0, v\nnop\n.data\nv: .word 0\n"
        )
        assert [i.name for i in exe.instructions[:2]] == ["lui", "ori"]

    def test_branch_pseudos_expand_to_slt(self):
        exe = asm("blt $t0,$t1,_start\nbge $t0,$t1,_start\n")
        names = [i.name for i in exe.instructions]
        assert names == ["slt", "bne", "slt", "beq"]

    def test_unsigned_branch_pseudos(self):
        exe = asm("bltu $t0,$t1,_start\n")
        assert exe.instructions[0].name == "sltu"

    def test_not_and_neg(self):
        exe = asm("not $t0,$t1\nneg $t2,$t3\n")
        assert exe.instructions[0].name == "nor"
        assert exe.instructions[1].name == "sub"

    def test_beqz_bnez(self):
        exe = asm("beqz $t0,_start\nbnez $t0,_start\n")
        assert [i.name for i in exe.instructions] == ["beq", "bne"]


class TestBranchesAndJumps:
    def test_backward_branch_offset(self):
        exe = asm("top: nop\nbeq $0,$0,top\n")
        # branch at TEXT_BASE+4, target TEXT_BASE: offset = -2
        assert exe.instructions[1].imm == -2

    def test_forward_branch_offset(self):
        exe = asm("beq $0,$0,done\nnop\ndone: nop\n")
        assert exe.instructions[0].imm == 1

    def test_jump_target_absolute(self):
        exe = asm("j _start\n")
        assert exe.instructions[0].target == TEXT_BASE

    def test_jalr_default_link_register(self):
        exe = asm("jalr $t0\n")
        assert exe.instructions[0].rd == 31


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            asm("frobnicate $t0\n")

    def test_unknown_register(self):
        with pytest.raises(AssemblerError, match="unknown register"):
            asm("add $t0,$t1,$zz\n")

    def test_undefined_symbol(self):
        with pytest.raises(AssemblerError, match="undefined symbol"):
            asm("j nowhere\n")

    def test_duplicate_symbol(self):
        with pytest.raises(AssemblerError, match="duplicate symbol"):
            asm("a: nop\na: nop\n")

    @pytest.mark.parametrize(
        "source",
        [
            ".equ N, 1\n.equ N, 2\n.text\n_start: nop\n",
            ".text\n_start: nop\nfoo: nop\n.equ foo, 0x1234\n",
            ".equ foo, 0x1234\n.text\n_start: nop\nfoo: nop\n",
            ".data\nfoo:\n.equ foo, 4\n.word 1\n.text\n_start: nop\n",
        ],
        ids=["equ-twice", "equ-after-label", "label-after-equ",
             "equ-after-pending-data-label"],
    )
    def test_equate_names_are_single_definition(self, source):
        with pytest.raises(AssemblerError, match="duplicate symbol 'N'|"
                           "duplicate symbol 'foo'"):
            assemble(source)

    def test_immediate_out_of_range(self):
        with pytest.raises(AssemblerError, match="out of 16-bit range"):
            asm("addiu $t0,$0,40000\n")

    def test_instruction_in_data_section(self):
        with pytest.raises(AssemblerError, match="outside .text"):
            assemble(".data\nadd $1,$2,$3\n")

    def test_data_directive_in_text(self):
        with pytest.raises(AssemblerError, match="outside .data"):
            assemble('.text\n_start: .word 1\n')

    def test_operand_count_checked(self):
        with pytest.raises(AssemblerError, match="expected 3 operands"):
            asm("add $t0,$t1\n")

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblerError, match="bad memory operand"):
            asm("lw $t0, t1\n")

    def test_missing_entry_symbol(self):
        exe = assemble(".text\nmain: nop\n", entry_symbol="_start")
        with pytest.raises(KeyError):
            exe.entry

    def test_error_reports_line_number(self):
        try:
            assemble(".text\n_start: nop\nbogus $1\n")
        except AssemblerError as exc:
            assert "line 3" in str(exc)
        else:
            pytest.fail("expected AssemblerError")

    def test_unterminated_string(self):
        with pytest.raises(AssemblerError):
            assemble('.data\ns: .asciiz "abc\n')


class TestCustomBases:
    def test_custom_segment_bases(self):
        assembler = Assembler(text_base=0x10000, data_base=0x20000)
        exe = assembler.assemble(
            ".text\n_start: nop\n.data\nv: .word 1\n"
        )
        assert exe.entry == 0x10000
        assert exe.symbols["v"] == 0x20000
