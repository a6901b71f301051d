#!/usr/bin/env python3
"""The paper's §5.3 extension: annotated never-tainted data.

Table 4(B)'s authentication-flag overflow evades the base architecture
because no pointer is tainted -- the attack just writes tainted bytes over
an integer.  The paper proposes sacrificing some transparency: let the
programmer annotate data that must never become tainted, and alert when it
does.  This example runs the Table 4(B) victim twice -- plain, and with the
flag annotated -- and shows the attack flipping from 'access granted' to a
security alert, while honest logins stay unaffected.

Run:  python examples/annotated_data.py
"""

from repro.apps.synthetic import VULN_B_SOURCE, vuln_b_scenario
from repro.defenses.alerts import SecurityException
from repro.defenses.policy import PointerTaintPolicy
from repro.cpu.simulator import Simulator
from repro.kernel.syscalls import Kernel
from repro.libc.build import build_program

ANNOTATED_SOURCE = VULN_B_SOURCE.replace(
    "int vuln_b(void) {",
    "int annotate_range(int *p, int n);\nint vuln_b(void) {",
).replace(
    "do_auth(&auth);",
    "annotate_range(&auth, 4);   /* <-- the programmer's annotation */\n"
    "    do_auth(&auth);",
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

ATTACK = b"wrongpassword\n" + b"A" * 9 + b"\n"
HONEST = b"secret\nhello\n"


def run_annotated(stdin: bytes):
    exe = build_program(ANNOTATED_SOURCE, extra_asm=ANNOTATE_ASM)
    kernel = Kernel(stdin=stdin)
    kernel._handlers = dict(kernel._handlers)
    kernel._handlers[90] = lambda kern, sim, addr, length, _: (
        sim.watchpoints.add(addr, length, "auth flag"), 0)[1]
    sim = Simulator(exe, PointerTaintPolicy(), syscall_handler=kernel)
    kernel.attach(sim)
    try:
        sim.run(max_instructions=2_000_000)
        return kernel.process.stdout_text.strip(), None
    except SecurityException as exc:
        return kernel.process.stdout_text.strip(), exc.alert


def main() -> None:
    print("=== base architecture, Table 4(B) attack ===")
    base = vuln_b_scenario().run_attack(PointerTaintPolicy())
    print(f"verdict: {base.describe()}")
    print(f"stdout : {base.stdout.strip()!r}   <- the false negative")

    print("\n=== annotated auth flag, same attack ===")
    stdout, alert = run_annotated(ATTACK)
    print(f"verdict: ALERT {alert}")
    print(f"detail : {alert.detail}")

    print("\n=== annotated auth flag, honest login ===")
    stdout, alert = run_annotated(HONEST)
    print(f"verdict: {'ALERT' if alert else 'clean'}")
    print(f"stdout : {stdout!r}   <- trusted writes to the flag are fine")


if __name__ == "__main__":
    main()
