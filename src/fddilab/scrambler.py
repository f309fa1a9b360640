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

Bit-transmission order within bytes is most-significant-bit first; all
sequences here are plain 0/1 bit streams in transmission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .phy_codec import CodeTable, bits_to_text

STAGES = 7
PERIOD = 127  # 2**7 - 1: the polynomial is primitive
SEED_BITS = (1, 1, 1, 1, 1, 1, 1)


@dataclass(frozen=True)
class ScramblerState:
    """Register contents (stage 1..7) plus bit offset since frame start."""

    registers: tuple[int, ...] = SEED_BITS
    position: int = 0

    def __post_init__(self):
        if len(self.registers) != STAGES or not set(self.registers) <= {0, 1}:
            raise ValueError(f"need {STAGES} register bits of 0 or 1")
        if not any(self.registers):
            raise ValueError("all-zero scrambler state is degenerate")


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
    """One period of output bits and the register contents at each phase."""
    bits, registers = [], []
    st = seed()
    for _ in range(PERIOD):
        registers.append(st.registers)
        bit, st = next_bit(st)
        bits.append(bit)
    return bytes(bits), registers


# Phase = bits emitted since the all-ones seed, modulo the period. The
# polynomial is primitive, so every non-zero register state has a phase.
_PERIOD_BYTES, _REGISTERS = _walk_period()
_PHASE = {regs: phase for phase, regs in enumerate(_REGISTERS)}


def keystream(n: int, state: ScramblerState | None = None) -> list[int]:
    """The next n scrambler output bits (from seed if no state given)."""
    if n < 0:
        raise ValueError(f"keystream length {n} is negative")
    return scramble_with_state(bytes(n), state or seed())[0]


def sequence_127() -> list[int]:
    """One full period of the scrambler sequence, from the all-ones seed."""
    return keystream(PERIOD)


def scramble(data: Sequence[int], frame_start: bool = True,
             state: ScramblerState | None = None,
             exempt: Iterable[int] = ()) -> list[int]:
    """XOR the frame-synchronous keystream onto data bits.

    When ``frame_start`` the scrambler is re-seeded before the first bit;
    otherwise a ``state`` carried over from the previous call is required.
    ``exempt`` lists bit positions passed through unscrambled (the
    keystream still advances over them, keeping frame alignment). The
    operation is an involution: scrambling twice restores the input.
    """
    if frame_start:
        state = seed()
    elif state is None:
        raise ValueError("need a carried-over state when frame_start is False")
    return scramble_with_state(data, state, exempt)[0]


def scramble_with_state(data: Sequence[int], state: ScramblerState,
                        exempt: Iterable[int] = ()) -> tuple[list[int], ScramblerState]:
    """Scramble continuing from ``state``; returns the end state as well.

    The keystream is read from the precomputed period at the state's phase
    and XORed onto the data bytes as one int (an element outside [0, 255] is
    a ValueError); ``next_bit`` stays the bit-by-bit reference.
    """
    n = len(data)
    phase = _PHASE[tuple(state.registers)]
    key = (_PERIOD_BYTES * ((phase + n) // PERIOD + 1))[phase:phase + n]
    word = int.from_bytes(bytearray(data), "big") ^ int.from_bytes(key, "big")
    out = list(word.to_bytes(n, "big"))
    for i in exempt:
        if 0 <= i < n:
            out[i] = data[i]
    end = (phase + n) % PERIOD
    return out, ScramblerState(_REGISTERS[end], state.position + n)


@dataclass(frozen=True)
class MatchResult:
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


@dataclass(frozen=True)
class MatchReport:
    """Both matching models plus the table the analysis ran against."""

    with_fragments: MatchResult
    whole_symbol: MatchResult
    table_version: str
    symbol_count: int


# The search walks windows of the periodic sequence. No valid-symbol cover
# can be unbounded (that would need the 127-bit sequence itself to be a
# symbol stream at every alignment), but cap the walk defensively.
_SCAN_CAP = 5 * PERIOD + 10
# Tiled periods covering the furthest bit a window read can reach.
_TILES = (PERIOD + _SCAN_CAP + 10) // PERIOD + 1


def _piece(text: str, i: int, pieces: set[str], most: int) -> str:
    """Longest text[i:i+k], k <= most, in ``pieces`` (a prefix-closed set)."""
    return next((text[i:i + k] for k in range(most, 0, -1) if text[i:i + k] in pieces), "")


def _window_match(text: str, start: int, align: int, codes: set[str],
                  pieces: dict[int, set[str]], allow_fragments: bool):
    """Maximal window at (start, align); returns (length, lead, syms, trail).

    ``text`` is the tiled period; ``pieces[a]`` holds every piece of a
    symbol that begins at offset ``a`` inside it.
    """
    # bits before the window are unconstrained, so the leading fragment
    # only has to match some symbol from offset ``align`` on
    lead = _piece(text, start, pieces[align], 5 - align) if align else ""
    if align and len(lead) < 5 - align:
        return len(lead), lead, (), ""  # window never reaches a symbol boundary
    i = start + len(lead)
    syms = []
    while i - start < _SCAN_CAP and text[i:i + 5] in codes:
        syms.append(text[i:i + 5])
        i += 5
    trail = _piece(text, i, pieces[0], 4) if allow_fragments else ""
    return i - start + len(trail), lead, tuple(syms), trail


def longest_valid_match(table: CodeTable) -> MatchReport:
    """Exhaustive search over every (offset, polarity, alignment) triple."""
    base = bits_to_text(_PERIOD_BYTES) * _TILES
    codes = {s.code for s in table.symbols}
    names = {s.code: s.meaning for s in table.symbols}
    pieces = {a: {c[a:a + k] for c in codes for k in range(1, 6 - a)} for a in range(5)}
    best: dict[bool, MatchResult | None] = {True: None, False: None}
    for polarity, text in (("sequence", base),
                           ("complement", base.translate(str.maketrans("01", "10")))):
        for start in range(PERIOD):
            for allow_fragments in (False, True):
                aligns = range(5) if allow_fragments else (0,)
                for align in aligns:
                    length, lead, syms, trail = _window_match(
                        text, start, align, codes, pieces, allow_fragments)
                    if length >= _SCAN_CAP:
                        raise RuntimeError("unbounded symbol cover of the sequence")
                    cur = best[allow_fragments]
                    if cur is None or length > cur.length_bits:
                        best[allow_fragments] = MatchResult(
                            model="with_fragments" if allow_fragments else "whole_symbol",
                            length_bits=length, offset=start, polarity=polarity,
                            alignment=align, bits=text[start:start + length],
                            leading_fragment=lead, symbols=tuple(names[c] for c in syms),
                            trailing_fragment=trail)

    return MatchReport(
        with_fragments=best[True],
        whole_symbol=best[False],
        table_version=table.version,
        symbol_count=len(table.symbols),
    )
