"""Seeded stdin generators for the nine Table 3 programs.

Each generator keeps the shape and size of the stock generator in
``repro.apps.spec`` and draws only the contents from the seed, so every
input stays inside the program's buffers and tables:

========  ==============================================================
BZIP2     the stock 400 runs (lengths 1..9, 1990 bytes) in seeded order,
          each run a seeded letter A..T
GCC       60 ``a + b * (c + 2) - d`` lines, each term drawn from the
          stock term's range (a < 60, b < 178, c < 7, d < 11)
GZIP      the stock 700 words of the eight-word list, seeded order
MCF       an 18 x 18 cost matrix, each cost drawn from 0..499
PARSER    220 ``(sentence<i> (np the <noun><d>) (vp <verb> <nn>))``
          clauses cut to 8000 bytes, with seeded noun, digit, verb and
          two-digit number (every choice has the stock word's length)
VPR       a seeded five-digit PRNG seed, then 1994 printable bytes
CRAFTY    the stock 512-byte position (see below)
GAP       the stock 90-node ring plus 500 seeded chords over 90 nodes
VORTEX    500 ``<op>rec<nnn>`` transactions: the stock op mix in seeded
          order, keys drawn from the stock 260
========  ==============================================================

CRAFTY keeps the stock input.  Its alpha-beta tree, and with it about
45% of the workload's simulated instructions, grows or shrinks by up to
13% with the position (1.75M to 2.26M instructions at -O1 over six
random positions), so a seeded position would let the seed rather than
the code set the spread of ``wall_s`` and ``sim_instructions``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict

from repro.apps.spec import workload_by_name

_GZIP_WORDS = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog"]
_VORTEX_OPS = "ccacab"


def _bzip2(rng: random.Random) -> bytes:
    lengths = [1 + i % 9 for i in range(400)]
    rng.shuffle(lengths)
    data = bytearray()
    for length in lengths:
        data.extend(bytes([65 + rng.randrange(20)]) * length)
    return bytes(data[:4000])


def _gcc(rng: random.Random) -> bytes:
    lines = [
        f"{rng.randrange(60)} + {rng.randrange(178)} * "
        f"({rng.randrange(7)} + 2) - {rng.randrange(11)}"
        for _ in range(60)
    ]
    return ("\n".join(lines) + "\n").encode()


def _gzip(rng: random.Random) -> bytes:
    words = [_GZIP_WORDS[i % len(_GZIP_WORDS)] for i in range(700)]
    rng.shuffle(words)
    return " ".join(words).encode()[:4000]


def _mcf(rng: random.Random) -> bytes:
    values = [str(rng.randrange(500)) for _ in range(18 * 18)]
    return (" ".join(values) + "\n").encode()


def _parser(rng: random.Random) -> bytes:
    clauses = [
        f"(sentence{i} (np the {rng.choice(('cat', 'dog', 'fox'))}"
        f"{rng.randrange(9)}) (vp {rng.choice(('saw', 'met', 'hid'))} "
        f"{rng.randrange(10, 100)}))"
        for i in range(220)
    ]
    return " ".join(clauses).encode()[:8000]


def _vpr(rng: random.Random) -> bytes:
    head = f"{rng.randrange(10000, 100000)} ".encode()
    body = bytes(rng.randrange(33, 127) for _ in range(2000 - len(head)))
    return head + body


def _crafty(rng: random.Random) -> bytes:
    return workload_by_name("CRAFTY").make_input()


def _gap(rng: random.Random) -> bytes:
    pairs = [f"{i} {(i + 1) % 90}" for i in range(90)]
    pairs += [f"{rng.randrange(90)} {rng.randrange(90)}" for _ in range(500)]
    return (" ".join(pairs) + "\n").encode()


def _vortex(rng: random.Random) -> bytes:
    ops = [_VORTEX_OPS[i % len(_VORTEX_OPS)] for i in range(500)]
    rng.shuffle(ops)
    tokens = [f"{op}rec{rng.randrange(260):03d}" for op in ops]
    return (" ".join(tokens) + "\n").encode()


GENERATORS: Dict[str, Callable[[random.Random], bytes]] = {
    "BZIP2": _bzip2,
    "GCC": _gcc,
    "GZIP": _gzip,
    "MCF": _mcf,
    "PARSER": _parser,
    "VPR": _vpr,
    "CRAFTY": _crafty,
    "GAP": _gap,
    "VORTEX": _vortex,
}


def spec_inputs(seed: int) -> Dict[str, bytes]:
    """Program name -> stdin bytes for one seed (one stream per program,
    so adding a program never shifts another program's input)."""
    return {
        name: make(random.Random(f"{seed}/{name}"))
        for name, make in GENERATORS.items()
    }
