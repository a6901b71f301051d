"""The section 5.3 extension: annotated never-tainted data ranges."""

import pytest

from repro.apps.synthetic import VULN_B_SOURCE, vuln_b_scenario
from repro.attacks.replay import run_executable
from repro.core.annotations import TaintWatchpoint, WatchpointSet
from repro.defenses.alerts import SecurityException
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.simulator import Simulator
from repro.isa.assembler import assemble
from repro.kernel.syscalls import Kernel
from repro.libc.build import build_program


class TestWatchpointSet:
    def test_overlap_semantics(self):
        watchpoint = TaintWatchpoint(0x1000, 4, "flag")
        assert watchpoint.overlaps(0x1000, 1)
        assert watchpoint.overlaps(0x0FFD, 4)    # straddles the start
        assert watchpoint.overlaps(0x1003, 4)    # straddles the end
        assert not watchpoint.overlaps(0x1004, 4)
        assert not watchpoint.overlaps(0x0FFC, 4)

    def test_set_hit_returns_first_match(self):
        watchpoints = WatchpointSet()
        watchpoints.add(0x1000, 4, "a")
        watchpoints.add(0x2000, 8, "b")
        assert watchpoints.hit(0x2004, 1).label == "b"
        assert watchpoints.hit(0x3000, 4) is None
        assert len(watchpoints) == 2

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            WatchpointSet().add(0x1000, 0)

    def test_str_includes_label_and_range(self):
        text = str(TaintWatchpoint(0x10, 4, "auth"))
        assert "auth" in text and "0x10" in text


class TestMachineIntegration:
    def _attack_sim(self):
        """Read tainted input and store a tainted byte at `target`."""
        source = (
            ".text\n_start:\n"
            "li $v0, 3\nli $a0, 0\nla $a1, buf\nli $a2, 4\nsyscall\n"
            "la $t9, buf\nlbu $t0, 0($t9)\n"
            "la $t1, target\nsb $t0, 0($t1)\n"
            "li $v0, 1\nli $a0, 0\nsyscall\n"
            ".data\nbuf: .space 4\ntarget: .word 0\n"
        )
        exe = assemble(source)
        kernel = Kernel(stdin=b"WXYZ")
        sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
        kernel.attach(sim)
        return sim, exe

    def test_tainted_write_into_annotation_alerts(self):
        sim, exe = self._attack_sim()
        sim.watchpoints.add(exe.address_of("target"), 4, "auth flag")
        with pytest.raises(SecurityException) as info:
            sim.run()
        assert info.value.alert.kind == "annotation"
        assert "auth flag" in info.value.alert.detail

    def test_without_annotation_store_is_legal(self):
        sim, _ = self._attack_sim()
        assert sim.run() == 0

    def test_clean_write_into_annotation_is_legal(self):
        source = (
            ".text\n_start:\n"
            "li $t0, 7\nla $t1, target\nsw $t0, 0($t1)\n"
            "li $v0, 1\nli $a0, 0\nsyscall\n"
            ".data\ntarget: .word 0\n"
        )
        exe = assemble(source)
        kernel = Kernel()
        sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
        kernel.attach(sim)
        sim.watchpoints.add(exe.address_of("target"), 4, "flag")
        assert sim.run() == 0

    def test_annotation_recorded_in_detector_log(self):
        sim, exe = self._attack_sim()
        sim.watchpoints.add(exe.address_of("target"), 4)
        with pytest.raises(SecurityException):
            sim.run()
        assert sim.detector.alerts[-1].kind == "annotation"
        assert sim.stats.alerts == 1


class TestTable4BBecomesDetectable:
    """The paper's motivation for the extension: catching Table 4(B)."""

    ANNOTATED_SOURCE = VULN_B_SOURCE.replace(
        "int vuln_b(void) {",
        "int annotate_range(int *p, int n);\n"
        "int vuln_b(void) {",
    ).replace(
        "do_auth(&auth);",
        "annotate_range(&auth, 4);\n    do_auth(&auth);",
    )

    ANNOTATE_ASM = """
.text
annotate_range:
    lw $a0,0($sp)
    lw $a1,4($sp)
    li $v0,90
    syscall
    jr $ra
"""

    def _run(self, stdin):
        exe = build_program(self.ANNOTATED_SOURCE, extra_asm=self.ANNOTATE_ASM)
        kernel = Kernel(stdin=stdin)
        original = kernel._handlers

        def annotate(kern, sim, addr, length, _a2):
            sim.watchpoints.add(addr, length, "annotated auth flag")
            return 0

        kernel._handlers = dict(original)
        kernel._handlers[90] = annotate
        sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
        kernel.attach(sim)
        try:
            status = sim.run(max_instructions=2_000_000)
            return kernel.process.stdout_text, status, None
        except SecurityException as exc:
            return kernel.process.stdout_text, None, exc.alert

    def test_base_architecture_misses_the_attack(self):
        result = vuln_b_scenario().run_attack(PointerTaintPolicy())
        assert not result.detected
        assert "access granted" in result.stdout

    def test_annotated_flag_catches_the_overflow(self):
        _, status, alert = self._run(b"wrongpassword\n" + b"A" * 9 + b"\n")
        assert alert is not None
        assert alert.kind == "annotation"
        assert "annotated auth flag" in alert.detail

    def test_annotated_flag_allows_benign_sessions(self):
        stdout, status, alert = self._run(b"wrongpassword\nhi\n")
        assert alert is None
        assert status == 0
        assert "access denied" in stdout

    def test_annotated_flag_allows_trusted_writes(self):
        """do_auth's own `*flag = 1` is an untainted constant: legal."""
        stdout, status, alert = self._run(b"secret\nhi\n")
        assert alert is None
        assert "access granted" in stdout
