"""FDDI physical-layer line codes: 4b/5b symbol coding, NRZI and MLT-3.

The 4b/5b code table is not hardwired; it is loaded from a versioned data
file (``data/4b5b_table.txt``) so the codec logic stays table-driven. All
operations are pure functions over immutable values.

Bit conventions: a function takes bits as any iterable of 0/1 ints: a
list, a tuple, an iterator, or bytes of one bit each. The line path keeps
them as 0/1 bytes from ``read_bits`` on. Each code has one kernel from
bytes to bytes, ``encode_bits``, ``decode_nibbles``, ``nrzi_levels`` and
``mlt3_phases``, and the CLI renders its text from them; ``encode_4b5b``,
``decode_4b5b``, ``nrzi_encode`` and ``mlt3_encode`` wrap them for their
public types. Bits print as '0'/'1' digits (``bits_to_text``) and pack
8 to a byte (``pack_bits``). Line signals run at FDDI_CODE_BIT_RATE_BPS:
two-level ones use 0 = low, 1 = high; three-level (MLT-3) ones use
-1/0/+1 and print as '-', '0', '+' (``phases_to_text``).

No code loops per bit: bits are read as one int x, first bit most
significant. NRZI levels are the prefix XOR of x, ceil(log2 n) steps of
``x ^= x >> s`` (Warren, *Hacker's Delight*, ch. 5). MLT-3's phase, the
count of ones mod 4, has that parity p as its low bit and the prefix XOR
of ``x & (p >> 1)`` as its high bit. Nor per symbol: 4b/5b translates
5-bit values, one byte each, through the code table, and bit i of every
symbol is one strided slice.
"""

from __future__ import annotations

import functools
import os
import struct
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import ne

from . import Field, InputError, read_input, read_one, record, shown

FDDI_CODE_BIT_RATE_BPS = 125_000_000  # 4b/5b expands 4 data bits to 5 code bits

SYMBOL_BITS = 5

BAD_TABLE = "bad-table"          # InputError tag of a malformed code table
BAD_LENGTH = "bad-length"        # InputError tag of code bits that are no whole symbols
BAD_SYMBOL = "bad-input-symbol"  # InputError tag of a digit outside its alphabet
DATA_VALUE = Field("data symbol {}", lambda text: int(text, 16))   # its hex digit

_DIGITS = b"0" + b"1" * 255                        # bit value -> digit; non-zero is 1
_ONES = b"\0" + b"\1" * 255                        # bit value -> 0/1; non-zero is 1
_VALUES = bytes.maketrans(b"01", b"\x00\x01")     # digit -> bit value
_HEX = "0123456789abcdefABCDEF"
_HEX_VALUES = bytes.maketrans(_HEX.encode(), bytes(range(16)) + bytes(range(10, 16)))
_HEX_TEXT = bytes.maketrans(bytes(range(16)), b"0123456789ABCDEF")   # nibble -> digit
_NONE = 0xFF                                       # code-table translate: no such symbol
# 5-bit value -> its bit i, first bit 0: one table per bit, built by repeats
_COLUMNS = tuple((b"\0" * (16 >> i) + b"\1" * (16 >> i)) * (8 << i) for i in range(SYMBOL_BITS))


def _bytes(bits: Iterable[int]) -> bytearray:
    """The bits as given, one byte each (one outside [0, 255] is a ValueError)."""
    if isinstance(bits, int):   # bytearray(n) would read it as n zero bits
        raise TypeError(f"need an iterable of bits, got the int {bits!r}")
    return bytearray(bits)


def bits_to_text(bits: Iterable[int]) -> str:
    """Bits as '0'/'1' text, one digit per bit (any non-zero bit reads as 1)."""
    return _bytes(bits).translate(_DIGITS).decode("ascii")


def _read_digits(path: str, alphabet: str, values: bytes) -> bytes:
    """The digits of a text file, whitespace ignored, through ``values``."""
    digits = "".join(read_input(path, BAD_SYMBOL).split()).encode()
    if digits.translate(None, alphabet.encode()):
        bad = set(digits.decode()) - set(alphabet)
        raise InputError(f"{shown(sorted(bad))} not in {alphabet!r}", BAD_SYMBOL, path)
    return digits.translate(values)


def read_bits(path: str) -> bytes:
    """A file of '0'/'1' digits, whitespace ignored, as 0/1 bytes; any other
    character is an InputError."""
    return _read_digits(path, "01", _VALUES)


def read_nibbles(path: str) -> bytes:
    """A file of hex digits, either case, whitespace ignored, as one nibble
    value per byte; any other character is an InputError."""
    return _read_digits(path, _HEX, _HEX_VALUES)


def nibbles_to_text(nibbles: Iterable[int]) -> str:
    """Nibbles as upper-case hex digits, one per nibble."""
    return _bytes(nibbles).translate(_HEX_TEXT).decode("ascii")


def _word(bits: Iterable[int]) -> tuple[int, int]:
    """The bits as one int, first bit most significant, and their count."""
    digits = _bytes(bits).translate(_DIGITS)
    return int(digits or b"0", 2), len(digits)


def _unword(word: int, n: int) -> bytes:
    """``word``, below 2**n, as n 0/1 bytes, most significant first."""
    return format(word, f"0{n}b").encode("ascii").translate(_VALUES) if n else b""


def bit_bytes(bits: Iterable[int]) -> bytes:
    """The bits as one 0/1 byte each (any non-zero bit reads as 1)."""
    return bytes(_bytes(bits).translate(_ONES))


def pack_bits(bits: Iterable[int]) -> bytes:
    """The bits, a multiple of 8 of them, packed eight to a byte."""
    word, n = _word(bits)
    if n % 8:
        raise ValueError(f"bit count {n} not a multiple of 8")
    return word.to_bytes(n // 8, "big")


def unpack_bits(data: bytes) -> bytes:
    """Packed bytes as one 0/1 byte per bit: the inverse of pack_bits."""
    return _unword(int.from_bytes(data, "big"), 8 * len(data))


def _prefix_parity(word: int, n: int) -> int:
    """Each of the n low bits XORed with every bit above it."""
    for k in range((n - 1).bit_length()):   # shifts 1, 2, 4, ... below n
        word ^= word >> (1 << k)
    return word


class InvalidSymbolError(InputError):
    """A 5-bit pattern with no entry in the code table (code violation)."""

    tag = "invalid-symbol"

    def __init__(self, position: int, pattern: str):
        self.position = position
        self.pattern = pattern
        super().__init__(f"{pattern} at symbol {position}")


class ControlSymbolError(InputError):
    """A control symbol encountered where a data symbol was required."""

    tag = "control-symbol"

    def __init__(self, position: int, name: str):
        self.position = position
        self.name = name
        super().__init__(f"{name} at symbol {position}")


class AperiodicSignalError(ValueError):
    """The line signal shows no exact repetition over its length."""


@record
class Symbol4b5b:
    """One 4b/5b symbol: a 5-bit pattern plus its interpretation."""

    code: str            # 5 chars of '0'/'1', transmission order
    kind: str            # "data" | "control"
    meaning: str         # hex digit for data, symbol name for control


@record
class LineSignal:
    """A line-coded signal: one level per code bit."""

    levels: tuple[int, ...]


class CodeTable:
    """4b/5b symbol table: the symbols by bit pattern, and translate tables
    between nibble and code value."""

    def __init__(self, symbols: Iterable[Symbol4b5b], version: str = ""):
        self.symbols: tuple[Symbol4b5b, ...] = tuple(symbols)
        self.version = version
        self.by_code: dict[str, Symbol4b5b] = {}
        # translate tables: nibble -> code value, code value -> nibble; _NONE: no such symbol
        self.code_values, self.nibble_values = bytearray([_NONE] * 256), bytearray([_NONE] * 256)
        for sym in self.symbols:
            if len(sym.code) != SYMBOL_BITS or set(sym.code) - {"0", "1"}:
                raise InputError(f"malformed code pattern {shown(sym.code)}", BAD_TABLE)
            if sym.code in self.by_code:
                raise InputError(f"pattern {sym.code} mapped twice", BAD_TABLE)
            self.by_code[sym.code] = sym
            if sym.kind == "data":
                value = read_one(sym.meaning, DATA_VALUE, BAD_TABLE, sym.code)
                if not 0 <= value <= 15:
                    raise InputError(f"data value {shown(sym.meaning)} not one hex digit",
                                     BAD_TABLE)
                if self.code_values[value] != _NONE:
                    raise InputError(f"data value {value:x} mapped twice", BAD_TABLE)
                self.code_values[value] = code = int(sym.code, 2)
                self.nibble_values[code] = value
        data = 16 - self.code_values[:16].count(_NONE)
        if data and data != 16:
            raise InputError(f"expected 16 data symbols, got {data}", BAD_TABLE)


def parse_code_table(text: str) -> CodeTable:
    """Parse the code-table file format: '#' comments, one record per line."""
    version = ""
    symbols = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("version:"):
            version = line.split(":", 1)[1].strip()
            continue
        fields = line.split()
        if len(fields) != 3:
            raise InputError(f"bad code-table record: {shown(raw)}", BAD_TABLE)
        code, kind, meaning = fields
        if kind not in ("data", "control"):
            raise InputError(f"unknown symbol kind {shown(kind)}", BAD_TABLE)
        symbols.append(Symbol4b5b(code=code, kind=kind, meaning=meaning))
    return CodeTable(symbols, version=version)


@functools.cache
def default_code_table() -> CodeTable:
    """The code table shipped with the package, read on first use."""
    with open(os.path.join(os.path.dirname(__file__), "data", "4b5b_table.txt"),
              encoding="utf-8") as fh:
        return parse_code_table(fh.read())


def encode_bits(nibbles: bytes, table: CodeTable | None = None) -> bytes:
    """4b/5b-encode nibble values, one byte each (as read_nibbles gives
    them), into code bits: 0/1 bytes in transmission order."""
    codes = nibbles.translate((table or default_code_table()).code_values)
    if _NONE in codes:   # name the first nibble out of range by its position
        i = codes.index(_NONE)
        raise ValueError(f"nibble {nibbles[i]} at position {i} not in [0, 15]")
    bits = bytearray(SYMBOL_BITS * len(codes))
    for i, column in enumerate(_COLUMNS):   # bit i of every symbol: one byte per symbol
        bits[i::SYMBOL_BITS] = codes.translate(column)
    return bytes(bits)


def encode_4b5b(data: Iterable[int], table: CodeTable | None = None) -> list[Symbol4b5b]:
    """Encode a sequence of nibbles (ints in [0, 15]) into 4b/5b symbols."""
    table = table or default_code_table()
    nibbles = list(data)
    try:
        bits = encode_bits(bytes(nibbles), table)
    except ValueError:   # name the first nibble out of range by its position
        i, nibble = next((i, v) for i, v in enumerate(nibbles) if not 0 <= v <= 15)
        raise ValueError(f"nibble {nibble!r} at position {i} not in [0, 15]") from None
    return list(map(table.by_code.__getitem__, bits_to_patterns(bits)))


def _nibbles(codes: bytes, table: CodeTable, patterns: Sequence[str] = ()) -> bytes:
    """Each code value's nibble; the first that is no data symbol raises by position."""
    nibbles = codes.translate(table.nibble_values)
    if _NONE in nibbles:   # name the first miss by its position
        i = nibbles.index(_NONE)
        pattern = patterns[i] if patterns else _PATTERNS[codes[i]]
        sym = table.by_code.get(pattern)
        if sym is None:
            raise InvalidSymbolError(i, pattern)
        raise ControlSymbolError(i, sym.meaning)
    return nibbles


def decode_nibbles(bits: Iterable[int]) -> bytes:
    """Nibble values, one byte each, of code bits (length must divide by 5);
    errors as decode_4b5b."""
    return _nibbles(_symbol_values(bits), default_code_table())


def decode_4b5b(stream: Iterable[str | Symbol4b5b],
                table: CodeTable | None = None) -> list[int]:
    """Decode 5-bit patterns back to nibbles. Control symbols and unmapped
    patterns are never dropped silently: they raise ControlSymbolError /
    InvalidSymbolError with the position."""
    patterns = [getattr(item, "code", item) for item in stream]
    codes = bytes(map(_CODE_OF.get, patterns, repeat(_NONE)))
    return list(_nibbles(codes, table or default_code_table(), patterns))


_PATTERNS = tuple(format(v, "05b") for v in range(1 << SYMBOL_BITS))   # value -> pattern
_CODE_OF = dict(zip(_PATTERNS, range(1 << SYMBOL_BITS)))                # pattern -> value


def _symbol_values(bits: Iterable[int]) -> bytes:
    """The 5-bit value of each symbol of a code-bit stream, one byte each;
    a length that 5 does not divide is an InputError. Bit i of every symbol
    is the strided slice ``ones[i::5]``, so five shift-ORs give every value
    in its own byte."""
    ones = _bytes(bits).translate(_ONES)
    count, extra = divmod(len(ones), SYMBOL_BITS)
    if extra:
        raise InputError(f"{len(ones)} bits not a multiple of {SYMBOL_BITS}", BAD_LENGTH)
    values = 0
    for i in range(SYMBOL_BITS):   # each byte stays below 32: no carry between them
        values = values << 1 | int.from_bytes(ones[i::SYMBOL_BITS], "big")
    return values.to_bytes(count, "big")


def bits_to_patterns(bits: Iterable[int]) -> list[str]:
    """Regroup a code-bit stream into 5-bit patterns (length must divide)."""
    return list(map(_PATTERNS.__getitem__, _symbol_values(bits)))


def nrzi_levels(bits: Iterable[int], initial_level: str = "low") -> bytes:
    """NRZI levels, 0/1 bytes: a 1 bit toggles the line level, a 0 bit holds it."""
    if initial_level not in ("low", "high"):
        raise ValueError(f"initial_level must be 'low' or 'high', got {initial_level!r}")
    word, n = _word(bits)
    return _unword(_prefix_parity(word, n) ^ ((1 << n) - 1 if initial_level == "high" else 0), n)


def nrzi_encode(bits: Iterable[int]) -> LineSignal:
    """NRZI from the low level: a 1 bit toggles the line level, a 0 bit holds it."""
    levels = nrzi_levels(bits)
    return LineSignal(levels=struct.unpack(f"{len(levels)}B", levels))


# MLT-3 cycles through these levels; a 1 bit advances, a 0 bit holds.
# Direct +1 <-> -1 jumps are impossible by construction.
MLT3_CYCLE = (0, 1, 0, -1)
_MLT3_LEVELS = bytes(lv & 0xFF for lv in MLT3_CYCLE).ljust(256, b"\0")  # phase -> level
_MLT3_GLYPHS = bytes.maketrans(b"\0\1\2\3", b"0+0-")                  # phase -> glyph


def mlt3_phases(bits: Iterable[int]) -> bytes:
    """The MLT-3 phase after each bit, one byte each: the count of ones so
    far mod 4, whose level is MLT3_CYCLE[phase]."""
    word, n = _word(bits)
    odd = _prefix_parity(word, n)                # phase bit 0
    high = _prefix_parity(word & odd >> 1, n)    # phase bit 1
    return (int.from_bytes(_unword(odd, n), "big")      # one byte per bit
            | int.from_bytes(_unword(high, n), "big") << 1).to_bytes(n, "big")


def mlt3_encode(bits: Iterable[int]) -> LineSignal:
    """MLT-3 three-level code: worst-case signal frequency is half NRZI's."""
    phases = mlt3_phases(bits)
    return LineSignal(levels=struct.unpack(f"{len(phases)}b", phases.translate(_MLT3_LEVELS)))


def phases_to_text(phases: bytes) -> str:
    """MLT-3 phases as the text of their levels: '-', '0' and '+' for -1, 0 and +1."""
    return phases.translate(_MLT3_GLYPHS).decode("ascii")


def transition_count(signal: LineSignal, initial_level: int = 0) -> int:
    """Number of level changes, counting the change off the initial level."""
    return sum(map(ne, signal.levels, (initial_level, *signal.levels[:-1])))


def fundamental_frequency(signal: LineSignal) -> float:
    """Fundamental frequency of an exactly periodic line signal at
    FDDI_CODE_BIT_RATE_BPS, in Hz.

    The period is the smallest exact repeat p with at least two full
    periods of evidence (levels[i] == levels[i+p] for all i). A constant
    signal is DC: 0 Hz. Raises AperiodicSignalError when no repeat exists.
    """
    levels = signal.levels
    n = len(levels)
    if n == 0:
        raise ValueError("empty signal")
    border, k = [0] * n, 0   # Knuth-Morris-Pratt failure function
    for i in range(1, n):
        while k and levels[i] != levels[k]:
            k = border[k - 1]
        k += levels[i] == levels[k]
        border[i] = k
    p = n - border[-1]       # the smallest period: n minus the longest border
    if 2 * p > n:
        raise AperiodicSignalError(f"no exact repeat within {n} levels")
    return 0.0 if p == 1 else FDDI_CODE_BIT_RATE_BPS / p  # p == 1: DC
