"""Differential property tests: simulated libc vs. Python reference.

Hypothesis drives the MiniC/assembly implementations with random inputs
and compares against Python's semantics (C-adjusted where they differ).
Each case compiles a fresh driver program and runs it on the simulated
machine, so these tests sweep the whole stack: compiler, assembler,
simulator, taint machinery, and the library code itself.
"""

from fnmatch import fnmatchcase

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.ftpglob import FTPGLOB_SOURCE
from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy

_slow = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Text strategies: printable, no whitespace/quotes/backslash so the values
# embed in source and survive line-based input functions.
_WORD = st.text(
    alphabet=st.sampled_from(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-"
    ),
    min_size=0,
    max_size=12,
)


def _quoted(text: str) -> str:
    return '"' + text + '"'


class TestStringDifferential:
    @given(_WORD)
    @_slow
    def test_strlen(self, text):
        result = run_minic(
            f'int main(void) {{ return strlen({_quoted(text)}); }}'
        )
        assert result.exit_status == len(text)

    @given(_WORD, _WORD)
    @_slow
    def test_strcmp_sign(self, a, b):
        result = run_minic(
            "int main(void) { int r; "
            f"r = strcmp({_quoted(a)}, {_quoted(b)});"
            ' if (r < 0) { return 1; } if (r > 0) { return 2; } return 0; }'
        )
        expected = 0 if a == b else (1 if a < b else 2)
        assert result.exit_status == expected

    @given(_WORD, _WORD)
    @_slow
    def test_strstr_agrees_with_find(self, haystack, needle):
        result = run_minic(
            "int main(void) { char *p; "
            f"p = strstr({_quoted(haystack)}, {_quoted(needle)});"
            f' if (p == 0) {{ return 200; }} return p - {_quoted(haystack)}; }}'
        )
        index = haystack.find(needle)
        assert result.exit_status == (200 if index < 0 else index)

    @given(st.integers(-99999, 99999), st.text(
        alphabet=st.sampled_from(" \t"), max_size=3))
    @_slow
    def test_atoi(self, value, padding):
        result = run_minic(
            "int main(void) { "
            f'printf("%d", atoi("{padding}{value}xyz")); return 0; }}'
        )
        assert result.stdout == str(value)

    @given(st.integers(-(2**31), 2**31 - 1))
    @_slow
    def test_printf_decimal_and_hex(self, value):
        result = run_minic(
            f'int main(void) {{ printf("%d %x", {value}, {value}); '
            "return 0; }"
        )
        expected_hex = format(value & 0xFFFFFFFF, "x")
        assert result.stdout == f"{value} {expected_hex}"

    @given(st.integers(0, 2**31 - 1))
    @_slow
    def test_printf_unsigned(self, value):
        result = run_minic(
            f'int main(void) {{ printf("%u", {value}); return 0; }}'
        )
        assert result.stdout == str(value)


class TestGlobDifferential:
    """The MiniC glob matcher vs. Python's fnmatch on the same pattern."""

    _NAMES = ("readme", "notes", "budget", "todo")

    _PATTERN = st.lists(
        st.one_of(
            st.sampled_from(["*", "?"]),
            st.sampled_from(list("abdegmnorstu")),
        ),
        min_size=0,
        max_size=6,
    ).map("".join)

    @given(_PATTERN)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_glob_match_agrees_with_fnmatch(self, pattern):
        from repro.kernel.network import ScriptedClient

        result = run_minic(
            FTPGLOB_SOURCE,
            PointerTaintPolicy(),
            clients=[ScriptedClient(
                [b"LIST " + pattern.encode() + b"\n", b"QUIT\n"]
            )],
        )
        assert result.outcome == "exit", result.describe()
        listing = bytes(result.clients[0].transcript).decode().split("\r\n")[1]
        matched = [name for name in listing.split(" ") if name]
        expected = [
            name for name in self._NAMES if fnmatchcase(name, pattern)
        ]
        assert matched == expected
