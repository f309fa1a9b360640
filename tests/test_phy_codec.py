"""Unit tests for the 4b/5b, NRZI and MLT-3 codecs."""

import random

import pytest

from fddilab import InputError, phy_codec
from fddilab.phy_codec import (
    AperiodicSignalError,
    ControlSymbolError,
    InvalidSymbolError,
    LineSignal,
    decode_4b5b,
    default_code_table,
    encode_4b5b,
    fundamental_frequency,
    mlt3_encode,
    nrzi_encode,
    nrzi_levels,
    parse_code_table,
    transition_count,
)


def test_table_structure():
    table = default_code_table()
    # 16 distinct data symbols; control entries come from the file, their
    # count is whatever the table ships (never hard-coded here)
    kinds = [s.kind for s in table.symbols]
    assert kinds.count("data") == 16
    assert len({s.code for s in table.symbols}) == len(table.symbols)
    assert kinds.count("control") >= 1
    assert len(table.symbols) == 16 + kinds.count("control")
    assert table.version == "1"
    assert [table.by_code[f"{table.code_values[v]:05b}"].meaning
            for v in range(16)] == [f"{v:X}" for v in range(16)]


def test_encode_expansion():
    symbols = encode_4b5b([1, 2, 3, 4, 5, 6, 7, 8])
    assert len(symbols) == 8
    assert sum(len(s.code) for s in symbols) == 40


def test_encode_empty():
    assert encode_4b5b([]) == []


def test_round_trip_all_nibbles():
    nibbles = list(range(16))
    assert decode_4b5b([s.code for s in encode_4b5b(nibbles)]) == nibbles


def test_round_trip_random_sequences():
    rng = random.Random(42)
    for _ in range(1000):
        nibbles = [rng.randrange(16) for _ in range(rng.randrange(0, 40))]
        symbols = encode_4b5b(nibbles)
        assert decode_4b5b(symbols) == nibbles


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_4b5b([16])
    with pytest.raises(ValueError):
        encode_4b5b([-1])


def test_decode_invalid_pattern():
    table = default_code_table()
    violations = [f"{v:05b}" for v in range(32)
                  if f"{v:05b}" not in table.by_code]
    assert violations, "expected unmapped patterns in a 24-symbol table"
    with pytest.raises(InvalidSymbolError) as err:
        decode_4b5b(["11110", violations[0]])
    assert err.value.position == 1
    assert err.value.pattern == violations[0]


def test_decode_control_symbol_reported_distinctly():
    table = default_code_table()
    ctrl = next(s for s in table.symbols if s.kind == "control")
    with pytest.raises(ControlSymbolError) as err:
        decode_4b5b(["11110", "11110", ctrl.code])
    assert err.value.position == 2
    assert err.value.name == ctrl.meaning


def test_parse_rejects_duplicate_pattern():
    with pytest.raises(ValueError):
        parse_code_table("11110 data 0\n11110 data 1\n")


@pytest.mark.parametrize("meaning", ["10", "-1", "FFF"])
def test_parse_rejects_a_data_value_that_is_no_hex_digit(meaning):
    """Sixteen distinct data values are not enough: each must be a nibble."""
    rows = [f"{v:05b} data {v:X}" for v in range(15)] + [f"11111 data {meaning}"]
    with pytest.raises(InputError, match="not one hex digit") as err:
        parse_code_table("\n".join(rows))
    assert err.value.tag == phy_codec.BAD_TABLE


def test_byte_kernels_name_the_first_bad_item():
    with pytest.raises(ValueError, match="nibble 16 at position 1 "):
        phy_codec.encode_bits(bytes([1, 16, 255]))
    control = phy_codec.encode_bits(bytes([5])) + b"\0\0\1\1\1"    # 00111 is R
    with pytest.raises(ControlSymbolError, match="R at symbol 1"):
        phy_codec.decode_nibbles(control + b"\0" * 5)
    with pytest.raises(InvalidSymbolError, match="00001 at symbol 0"):
        phy_codec.decode_nibbles(b"\0\0\0\0\1" + control)


def test_nrzi_all_zeros_holds_level():
    assert nrzi_encode([0] * 6).levels == (0,) * 6
    assert nrzi_levels([0] * 6, "high") == b"\1" * 6


def test_nrzi_toggle_rule():
    assert nrzi_encode([1, 1, 1, 1]).levels == (1, 0, 1, 0)


def test_nrzi_transitions_equal_popcount():
    rng = random.Random(7)
    for _ in range(200):
        bits = [rng.randrange(2) for _ in range(rng.randrange(1, 100))]
        signal = nrzi_encode(bits)
        assert transition_count(signal, initial_level=0) == sum(bits)


def test_mlt3_hold_and_cycle():
    assert mlt3_encode([0] * 5).levels == (0,) * 5
    assert mlt3_encode([1] * 8).levels == (1, 0, -1, 0, 1, 0, -1, 0)


def test_mlt3_changes_only_on_ones_and_never_jumps():
    rng = random.Random(13)
    for _ in range(200):
        bits = [rng.randrange(2) for _ in range(rng.randrange(1, 100))]
        levels = mlt3_encode(bits).levels
        prev = 0
        for bit, lv in zip(bits, levels):
            if bit == 0:
                assert lv == prev
            else:
                assert lv != prev
                assert abs(lv - prev) == 1  # no +1 <-> -1 jump
            prev = lv


def test_fundamental_frequency_nrzi_all_ones():
    signal = nrzi_encode([1] * 32)
    assert fundamental_frequency(signal) == 62.5e6


def test_fundamental_frequency_mlt3_half_of_nrzi():
    nrzi = nrzi_encode([1] * 32)
    mlt3 = mlt3_encode([1] * 32)
    assert fundamental_frequency(mlt3) == 31.25e6
    assert fundamental_frequency(mlt3) == fundamental_frequency(nrzi) / 2


def test_fundamental_frequency_constant_is_dc():
    assert fundamental_frequency(LineSignal(levels=(1,) * 10)) == 0.0


def test_fundamental_frequency_aperiodic():
    with pytest.raises(AperiodicSignalError):
        fundamental_frequency(LineSignal(levels=(0, 1, 1, 0, 1, 0, 0, 1)))
    with pytest.raises(ValueError):
        fundamental_frequency(LineSignal(levels=()))


def test_code_bit_rate_expansion():
    # 4b/5b sends 5 code bits per 4 data bits: 125 Mbps for FDDI's 100
    assert len(phy_codec.encode_bits(bytes(range(16)))) == 16 * 5
    assert phy_codec.FDDI_CODE_BIT_RATE_BPS == 100_000_000 * 5 // 4


def test_bits_to_patterns_regroups_symbol_stream():
    symbols = encode_4b5b([0xA, 0x5, 0x0])
    bits = [int(c) for s in symbols for c in s.code]
    patterns = list(phy_codec.bits_to_patterns(bits))
    assert patterns == [s.code for s in symbols]
    with pytest.raises(ValueError):
        list(phy_codec.bits_to_patterns([0, 1, 0]))
