"""Linking against the libc prefix gives the whole-unit image.

``build_program`` assembles crt0 + libc once per opt level
(:meth:`Assembler.prefix`) and links each program by assembling only the
rest of its translation unit against that prefix.  For every libc-linked
program the repository builds, the linked image must equal the one the
whole unit assembled at once gives -- text, decoded instructions, data,
symbols and source map in order, and the entry point -- and a faulty unit
must fail with the same error at the same line either way.
"""

from dataclasses import astuple

import pytest

from repro.apps.ftpglob import FTPGLOB_SOURCE
from repro.apps.spec import SPEC_WORKLOADS
from repro.apps.synthetic import VULN_B_SOURCE
from repro.apps.wuftpd import _source_with_pad
from repro.cc.compiler import compile_units
from repro.evalx.defense_matrix import _OVERHEAD_SOURCE
from repro.evalx.experiments import all_attack_scenarios
from repro.fault.workloads import BUILTIN_WORKLOADS
from repro.isa.assembler import Assembler, AssemblerError, assemble
from repro.libc.build import _libc_assembly, build_program
from repro.libc.runtime import CRT0, SYSCALL_VENEERS

ANNOTATED_SOURCE = VULN_B_SOURCE.replace(
    "int vuln_b(void) {",
    "int annotate_range(int *p, int n);\nint vuln_b(void) {",
).replace("do_auth(&auth);", "annotate_range(&auth, 4);\n    do_auth(&auth);")

ANNOTATE_ASM = """
.text
annotate_range:
    lw $a0,0($sp)
    lw $a1,4($sp)
    li $v0,90
    syscall
    jr $ra
"""


def _programs():
    """``(id, app source, extra_asm, opt_level)`` of every program built."""
    for scenario in all_attack_scenarios():
        for level in (0, 1):
            yield f"{scenario.name}-O{level}", scenario.source, "", level
    yield "ftpglob", FTPGLOB_SOURCE, "", 0
    yield "wuftpd-pad-probe", _source_with_pad(1), "", 0
    for workload in SPEC_WORKLOADS:
        for level in (0, 1):
            yield f"{workload.name}-O{level}", workload.source, "", level
    yield "defense-overhead", _OVERHEAD_SOURCE, "", 0
    for name, workload in sorted(BUILTIN_WORKLOADS.items()):
        yield f"fault-{name}", workload.source, "", 0
    yield "annotated-auth-flag", ANNOTATED_SOURCE, ANNOTATE_ASM, 0


PROGRAMS = list(_programs())


def _whole_unit(app_source, extra_asm, opt_level):
    """The reference: the whole translation unit assembled at once."""
    parts = [
        CRT0,
        _libc_assembly(opt_level),
        compile_units((("app", app_source),), opt_level=opt_level),
    ]
    if extra_asm:
        parts.append(extra_asm)
    parts.append(SYSCALL_VENEERS)
    return assemble("\n".join(parts))


def _assert_same_image(linked, whole):
    assert linked.text_words == whole.text_words
    assert [astuple(i) for i in linked.instructions] == [
        astuple(i) for i in whole.instructions
    ]
    assert linked.data == whole.data
    assert list(linked.symbols.items()) == list(whole.symbols.items())
    assert list(linked.source_map.items()) == list(whole.source_map.items())
    assert linked.entry == whole.entry


@pytest.mark.parametrize(
    "app_source,extra_asm,opt_level",
    [program[1:] for program in PROGRAMS],
    ids=[program[0] for program in PROGRAMS],
)
def test_linked_program_equals_whole_unit(app_source, extra_asm, opt_level):
    _assert_same_image(
        build_program(app_source, extra_asm=extra_asm, opt_level=opt_level),
        _whole_unit(app_source, extra_asm, opt_level),
    )


FAULTY_EXTRA_ASM = {
    "undefined-symbol": ".text\nhelper:\n    jal nowhere\n",
    "bad-operand": ".text\nhelper:\n    lw $t0,bogus\n",
    "bad-register": ".text\nhelper:\n    addu $t0,$t1,$zz\n",
    "label-collides-with-libc": ".text\nstrlen:\n    jr $ra\n",
    "equate-collides-with-libc": ".equ printf, 4\n",
}


@pytest.mark.parametrize("opt_level", (0, 1))
@pytest.mark.parametrize("extra_asm", FAULTY_EXTRA_ASM.values(),
                         ids=FAULTY_EXTRA_ASM.keys())
def test_faulty_unit_fails_the_same_way(extra_asm, opt_level):
    app = "int main(void) { return 0; }"
    with pytest.raises(AssemblerError) as whole:
        _whole_unit(app, extra_asm, opt_level)
    with pytest.raises(AssemblerError) as linked:
        build_program(app, extra_asm=extra_asm, opt_level=opt_level)
    assert str(linked.value) == str(whole.value)
    assert linked.value.line_no == whole.value.line_no > 0


# A unit touching every piece of pass-1 state: both sections, equates,
# forward and backward references from text and from data words, labels
# pending across a section switch, and a trailing data label.
SAMPLE_UNIT = """\
.equ SIZE, 12
.text
_start:
    la $t0,table
    lw $t1,SIZE($t0)
    jal helper
    b done
.data
msg: .asciiz "hi\\n"
ptrs:
    .align 2
    .word table, done+4, 7
.text
helper:
    li $v0,0x12345678
    bne $t1,$0,helper
    jr $ra
.data
table: .word msg, ptrs
.equ LATE, 3
.text
done:
    j _start
    addiu $t2,$0,LATE
.data
tail:
"""


@pytest.mark.parametrize("trailing", ("", "\r", "\n", "\n\n"),
                         ids=("bare", "cr", "lf", "lf-lf"))
def test_every_split_of_a_unit_links_to_the_whole(trailing):
    lines = SAMPLE_UNIT.splitlines()
    whole = assemble(SAMPLE_UNIT)
    for cut in range(len(lines) + 1):
        head = "\n".join(lines[:cut]) + trailing
        tail = "\n".join(lines[cut:])
        joined = assemble(head + "\n" + tail)
        linked = Assembler().assemble(tail, prefix=Assembler().prefix(head))
        _assert_same_image(linked, joined)
        _assert_same_image(linked, whole)


def test_errors_keep_their_line_numbers_across_the_split():
    head = SAMPLE_UNIT
    tail = "\n.text\n    jal nowhere\n"
    with pytest.raises(AssemblerError) as whole:
        assemble(head + "\n" + tail)
    with pytest.raises(AssemblerError) as linked:
        assemble(tail, prefix=Assembler().prefix(head))
    assert str(linked.value) == str(whole.value)
    assert linked.value.line_no == whole.value.line_no


def test_one_prefix_links_many_units_without_changing():
    prefix = Assembler().prefix(SAMPLE_UNIT)
    symbols = dict(prefix.symbols)
    first = assemble("extra: .word 1\n", prefix=prefix)
    second = assemble(".text\nmore: nop\n", prefix=prefix)
    assert first.symbols["extra"] == first.symbols["tail"]
    assert "extra" not in second.symbols and "more" in second.symbols
    assert dict(prefix.symbols) == symbols
    # Shared instructions come from the prefix, not rebuilt per unit.
    assert first.instructions[0] is second.instructions[0]

