"""SONET frame-synchronous scrambler and its 4b/5b interference analyzer.

The scrambler is a 7-stage shift register implementing 1 + x^6 + x^7,
seeded all-ones at each frame start. Its output is a maximal-length
sequence of period 127 that gets XORed onto the payload bits.

The analyzer answers: how long a run of the scrambler sequence (or its
complement) can a stream of valid 4b/5b symbols reproduce? Two matching
models are computed:

* ``whole_symbol`` - the matched window must be an exact concatenation of
  complete 5-bit symbols (lengths are multiples of 5);
* ``with_fragments`` - the window may begin and end mid-symbol, i.e. it is
  any substring of a valid symbol stream. This is the model that matters
  on the wire, where a user's symbol boundaries need not align with the
  window, and is the primary model reported.

Both come from one pass per polarity around the 127-cycle: gcd(5, 127)
= 1, so p -> p+5 visits every phase, and walked backwards from a window
that is no symbol it counts the whole symbols chained from each phase.
A window is then a leading fragment, that chain and a trailing fragment,
whose lengths are read from 32-entry tables of the symbols' pieces. A
table of all 32 patterns covers the sequence without end: refused.

Bit-transmission order within bytes is most-significant-bit first; all
sequences here are plain 0/1 bit streams in transmission order.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import InputError
from .phy_codec import BAD_TABLE, CodeTable, bits_to_text

STAGES = 7
PERIOD = 127  # 2**7 - 1: the polynomial is primitive
SEED_BITS = (1, 1, 1, 1, 1, 1, 1)


class _ScramblerState(NamedTuple):
    registers: tuple[int, ...]
    position: int


class ScramblerState(_ScramblerState):
    """Register contents (stage 1..7) plus bit offset since frame start."""

    __slots__ = ()

    def __new__(cls, registers: tuple[int, ...] = SEED_BITS, position: int = 0):
        if len(registers) != STAGES or not set(registers) <= {0, 1}:
            raise ValueError(f"need {STAGES} register bits of 0 or 1")
        if not any(registers):
            raise ValueError("all-zero scrambler state is degenerate")
        return super().__new__(cls, registers, position)


def seed() -> ScramblerState:
    """Frame-start state: all seven registers loaded with 1."""
    return ScramblerState(SEED_BITS, 0)


def next_bit(state: ScramblerState) -> tuple[int, ScramblerState]:
    """Emit stage 7, shift, feed x^6 XOR x^7 back into stage 1."""
    r = state.registers
    out = r[6]
    feedback = r[5] ^ r[6]
    return out, ScramblerState((feedback,) + r[:6], state.position + 1)


def _walk_period() -> tuple[bytes, list[tuple[int, ...]]]:
    """One period of output bits and the registers at each phase p: bits p+6..p,
    as stage k outputs its bit 7 - k steps on. Bit n + 7 is bit n XOR bit n + 1."""
    bits = bytearray(SEED_BITS[::-1])
    for n in range(PERIOD - STAGES):
        bits.append(bits[n] ^ bits[n + 1])
    cycle = bits * 2
    return bytes(bits), [tuple(cycle[p:p + STAGES][::-1]) for p in range(PERIOD)]


# Phase = bits emitted since the all-ones seed, modulo the period. The
# polynomial is primitive, so every non-zero register state has a phase.
_PERIOD_BYTES, _REGISTERS = _walk_period()
_PHASE = {regs: phase for phase, regs in enumerate(_REGISTERS)}


def _key(phase: int, n: int) -> bytes:
    """The n output bits from ``phase``, one byte each, cut from repeated periods."""
    return (_PERIOD_BYTES * ((phase + n) // PERIOD + 1))[phase:phase + n]


def keystream(n: int, state: ScramblerState | None = None) -> list[int]:
    """The next n scrambler output bits (from seed if no state given)."""
    if n < 0:
        raise ValueError(f"keystream length {n} is negative")
    return list(_key(_PHASE[tuple((state or seed()).registers)], n))


def sequence_127() -> list[int]:
    """One full period of the scrambler sequence, from the all-ones seed."""
    return keystream(PERIOD)


def scramble(data: Iterable[int], state: ScramblerState | None = None,
             exempt: Iterable[int] = ()) -> list[int]:
    """XOR the frame-synchronous keystream onto data bits.

    The keystream starts from ``state``, carried over from the previous
    call, or from the seed at frame start when ``state`` is None.
    ``exempt`` lists bit positions passed through unscrambled (the
    keystream still advances over them, keeping frame alignment). The
    operation is an involution: scrambling twice restores the input.
    """
    return scramble_with_state(data, state or seed(), exempt)[0]


def scramble_with_state(data: Iterable[int], state: ScramblerState,
                        exempt: Iterable[int] = ()) -> tuple[list[int], ScramblerState]:
    """Scramble continuing from ``state``; returns the end state as well.

    The keystream is read from the precomputed period at the state's phase
    and XORed onto the data bytes as one int (an element outside [0, 255] is
    a ValueError); ``next_bit`` stays the bit-by-bit reference.
    """
    if isinstance(data, int):   # bytearray(n) would read it as n zero bits
        raise TypeError(f"need an iterable of bits, got the int {data!r}")
    data = bytearray(data)
    n = len(data)
    phase = _PHASE[tuple(state.registers)]
    word = int.from_bytes(data, "big") ^ int.from_bytes(_key(phase, n), "big")
    out = list(word.to_bytes(n, "big"))
    for i in exempt:
        if 0 <= i < n:
            out[i] = data[i]
    end = (phase + n) % PERIOD
    return out, ScramblerState(_REGISTERS[end], state.position + n)


class MatchResult(NamedTuple):
    """Longest reproducible window for one matching model."""

    model: str               # "whole_symbol" | "with_fragments"
    length_bits: int
    offset: int              # start bit offset into the 127-bit sequence
    polarity: str            # "sequence" | "complement"
    alignment: int           # window start offset inside its covering symbol
    bits: str                # the matched window, transmission order
    leading_fragment: str    # tail of a symbol consumed before first full one
    symbols: tuple[str, ...]  # meanings of the full symbols in the witness
    trailing_fragment: str   # head of a symbol consumed after the last full one


class MatchReport(NamedTuple):
    """Both matching models plus the table the analysis ran against."""

    with_fragments: MatchResult
    whole_symbol: MatchResult
    table_version: str
    symbol_count: int


def _heads(pieces: set[str]) -> list[int]:
    """Per 5-bit pattern, its longest head in ``pieces`` (prefix-closed): a
    k-bit piece heads 2**(5-k) patterns, and longer pieces write last."""
    heads = [0] * 32
    for piece in sorted(pieces, key=len):
        n = 1 << 5 - len(piece)
        heads[int(piece, 2) * n:(int(piece, 2) + 1) * n] = [len(piece)] * n
    return heads


def longest_valid_match(table: CodeTable) -> MatchReport:
    """Longest window per model (method in the module docstring); ties go
    to the first window in (polarity, offset, alignment) order."""
    codes = {s.code for s in table.symbols}
    if len(codes) == 32:
        raise InputError("all 32 patterns are symbols: the cover is unbounded", BAD_TABLE)
    # lead[a][w]: first bits of 5-bit window w that continue a symbol from its bit a
    lead = [_heads({c[a:a + k] for c in codes for k in range(1, 6 - a)}) for a in range(5)]
    trail = [min(k, 4) for k in lead[0]]   # a trailing fragment is shorter than a symbol
    seq = bits_to_text(_PERIOD_BYTES)
    word = int(seq + seq[:4], 2)   # the window at p is bits p..p+4 of the cycle
    whole, frag = [], []   # window lengths in scan order
    for flip in (0, 31):
        win = [(word >> PERIOD - 1 - p & 31) ^ flip for p in range(PERIOD)]
        valid = [lead[0][w] == 5 for w in win]
        # symbols chained from each phase p, walking p -> p+5 (one cycle
        # through all 127 phases) backwards from an invalid window
        chain, p = [0] * PERIOD, valid.index(False)
        for _ in range(PERIOD - 1):
            p, q = (p - 5) % PERIOD, p
            chain[p] = chain[q] + 1 if valid[p] else 0
        whole += [5 * n for n in chain]
        # whole symbols from p, then the trailing fragment
        tail = [5 * n + trail[win[(p + 5 * n) % PERIOD]] for p, n in enumerate(chain)]
        # at alignment a, a lead of 5-a bits is followed by the tail after it
        by_align = [tail] + [[k if k < 5 - a else k + tail[(p + k) % PERIOD]
                              for p, k in enumerate(map(lead[a].__getitem__, win))]
                             for a in range(1, 5)]
        frag += [n for lengths in zip(*by_align) for n in lengths]
    texts = (("sequence", seq), ("complement", seq.translate(str.maketrans("01", "10"))))
    names = {s.code: s.meaning for s in table.symbols}
    best = []
    for model, lengths, aligns in (("with_fragments", frag, 5), ("whole_symbol", whole, 1)):
        length = max(lengths)
        window, align = divmod(lengths.index(length), aligns)
        (polarity, text), start = texts[window // PERIOD], window % PERIOD
        text *= (start + length) // PERIOD + 1
        end = start + length
        i = start + (min(length, 5 - align) if align else 0)   # after the lead
        j = i + (end - i) // 5 * 5                              # after the symbols
        best.append(MatchResult(
            model=model, length_bits=length, offset=start, polarity=polarity,
            alignment=align, bits=text[start:end], leading_fragment=text[start:i],
            symbols=tuple(names[text[k:k + 5]] for k in range(i, j, 5)),
            trailing_fragment=text[j:end]))
    return MatchReport(*best, table_version=table.version, symbol_count=len(table.symbols))
