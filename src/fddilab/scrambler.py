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

from collections.abc import Iterable
from operator import add

from . import InputError, record
from .phy_codec import BAD_TABLE, CodeTable, bits_to_text

STAGES = 7
PERIOD = 127  # 2**7 - 1: the polynomial is primitive
SEED_BITS = (1, 1, 1, 1, 1, 1, 1)
# The scrambler restarts at each frame, so no frame takes more keystream than
# an STS-192 frame has bits (192 x 6480); a longer one is refused unbuilt.
MAX_KEYSTREAM_BITS = 192 * 6480


def next_bit(registers: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Emit stage 7, shift, feed x^6 XOR x^7 back into stage 1: the register
    (stages 1..7) stepped by hand, the reference for the keystream."""
    return registers[6], (registers[5] ^ registers[6],) + registers[:6]


def _walk_period() -> bytes:
    """One period of output bits from the seed. Stage k outputs its bit 7 - k
    steps on, so the seed gives the first 7 bits; bit n + 7 is bit n XOR bit n + 1."""
    bits = bytearray(SEED_BITS[::-1])
    for n in range(PERIOD - STAGES):
        bits.append(bits[n] ^ bits[n + 1])
    return bytes(bits)


_PERIOD_BYTES = _walk_period()


def _key(n: int) -> bytes:
    """The first n output bits of a frame, one byte each, cut from repeated periods."""
    return (_PERIOD_BYTES * (n // PERIOD + 1))[:n]


def keystream(n: int) -> bytes:
    """The first n scrambler output bits of a frame, from the all-ones seed,
    one 0/1 byte each."""
    if n < 0:
        raise ValueError(f"keystream length {n} is negative")
    if n > MAX_KEYSTREAM_BITS:
        raise InputError(f"keystream length {n} is over {MAX_KEYSTREAM_BITS} bits, "
                         "one STS-192 frame", "too-many-bits")
    return _key(n)


def sequence_127() -> list[int]:
    """One full period of the scrambler sequence, from the all-ones seed."""
    return list(keystream(PERIOD))


def scramble(data: Iterable[int]) -> list[int]:
    """XOR the frame-synchronous keystream, from the seed at frame start,
    onto a frame's data bits.

    The keystream is cut from the precomputed period and XORed onto the data
    bytes as one int (an element outside [0, 255] is a ValueError). The
    operation is an involution: scrambling twice restores the input.
    """
    if isinstance(data, int):   # bytearray(n) would read it as n zero bits
        raise TypeError(f"need an iterable of bits, got the int {data!r}")
    data = bytearray(data)
    n = len(data)
    return list((int.from_bytes(data, "big") ^ int.from_bytes(_key(n), "big")).to_bytes(n, "big"))


@record
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


@record
class MatchReport:
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
            symbols=tuple(table.by_code[text[k:k + 5]].meaning for k in range(i, j, 5)),
            trailing_fragment=text[j:end]))
    return MatchReport(*best, table_version=table.version, symbol_count=len(table.symbols))
