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

Both come from one backward walk per polarity around the 127-cycle
(gcd(5, 127) = 1, so p -> p+5 visits every phase). Each phase's reach is
the next one's plus 5 if its window is a symbol, else the head (at most 4
bits) the window begins. A window with fragments is the longest end of a
symbol that the window before a phase ends, then that phase's reach. A
table of all 32 patterns covers the sequence without end: refused.

Bit-transmission order within bytes is most-significant-bit first; all
sequences here are plain 0/1 bit streams in transmission order.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, NamedTuple

from . import InputError
from .phy_codec import BAD_TABLE, CodeTable, bits_to_text

STAGES = 7
PERIOD = 127  # 2**7 - 1: the polynomial is primitive
SEED_BITS = (1, 1, 1, 1, 1, 1, 1)
# The scrambler restarts at each frame, so no frame takes more keystream than
# an STS-192 frame has bits (192 x 6480); a longer one is refused unbuilt.
MAX_KEYSTREAM_BITS = 192 * 6480


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
    if n > MAX_KEYSTREAM_BITS:
        raise InputError(f"keystream length {n} is over {MAX_KEYSTREAM_BITS} bits, "
                         "one STS-192 frame", "too-many-bits")
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


# Per polarity, its text and its 127 five-bit windows in the order the walk
# p -> p+5 visits them: step q reads bits 5q..5q+4 (mod 127) of the cycle.
_SEQUENCE = bits_to_text(_PERIOD_BYTES)
_POLARITIES = [(name, text, [int((text * 2)[5 * q % PERIOD:][:5], 2) for q in range(PERIOD)])
               for name, text in (("sequence", _SEQUENCE),
                                  ("complement", _SEQUENCE.translate(str.maketrans("01", "10"))))]


def longest_valid_match(table: CodeTable) -> MatchReport:
    """Longest window per model (method in the module docstring); ties go
    to the first window in (polarity, offset, alignment) order."""
    codes = {int(s.code, 2) for s in table.symbols}
    if len(codes) == 32:
        raise InputError("all 32 patterns are symbols: the cover is unbounded", BAD_TABLE)
    # heads[w] / ends[w]: the most first / last bits of pattern w that begin /
    # end a symbol (5: w is one); each k-bit table extends the (k-1)-bit one
    heads, ends = [0], [0]
    for k in range(1, 6):
        firsts, lasts = {c >> 5 - k for c in codes}, {c & (1 << k) - 1 for c in codes}
        heads = [k if v in firsts else heads[v >> 1] for v in range(1 << k)]
        ends = [k if v in lasts else e for v, e in enumerate(ends * 2)]
    # per step, sequence then complement: its front (the step before's end), lengths
    fronts, frag, whole = [], [], []
    for _, _, walk in _POLARITIES:
        steps = list(map(heads.__getitem__, walk))
        # reach[q]: whole symbols from step q on, then a trailing fragment (a head
        # shorter than a symbol), walked back from a step that is no symbol
        reach, first, n = [0] * PERIOD, steps.index(min(steps)), 0
        for q in range(first, first - PERIOD, -1):   # a negative q wraps round
            n = n + 5 if steps[q] == 5 else steps[q]
            reach[q] = n
        fronts += map(ends.__getitem__, walk[-1:] + walk[:-1])
        frag += map(add, fronts[-PERIOD:], reach)
        whole += [n - n % 5 for n in reach]
    names = {s.code: s.meaning for s in table.symbols}
    best = []
    for model, lengths, front in (("with_fragments", frag, fronts),
                                  ("whole_symbol", whole, [0] * len(whole))):
        length = max(lengths)
        at = [lengths.index(length)]                            # the steps at the maximum
        for _ in range(lengths.count(length) - 1):
            at.append(lengths.index(length, at[-1] + 1))
        # step q is at phase 5q; a front of b bits starts b bits earlier, at alignment 5 - b
        window, start, align = min((q // PERIOD, (5 * q - front[q]) % PERIOD, -front[q] % 5)
                                   for q in at)
        polarity, text = _POLARITIES[window][:2]
        text *= (start + length) // PERIOD + 1
        end = start + length
        i = start + (5 - align) % 5                             # after the front
        j = i + (end - i) // 5 * 5                              # after the symbols
        best.append(MatchResult(
            model=model, length_bits=length, offset=start, polarity=polarity,
            alignment=align, bits=text[start:end], leading_fragment=text[start:i],
            symbols=tuple(names[text[k:k + 5]] for k in range(i, j, 5)),
            trailing_fragment=text[j:end]))
    return MatchReport(*best, table_version=table.version, symbol_count=len(table.symbols))
