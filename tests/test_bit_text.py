"""phy_codec's one home for the bit format: 0/1 digit text, 0/1 bytes and
packed bytes; and the packaged tables read once."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fddilab import link_planner, phy_codec, scrambler, spm


@given(st.lists(st.integers(0, 1), max_size=300))
def test_bit_text_round_trips(bits):
    text = phy_codec.bits_to_text(bits)
    assert text == "".join(map(str, bits))
    assert phy_codec.bit_bytes(bits) == bytes(bits)
    whole_bytes = bits + [0] * (-len(bits) % 8)
    assert phy_codec.unpack_bits(phy_codec.pack_bits(whole_bytes)) == bytes(whole_bytes)


def test_any_non_zero_bit_reads_as_one():
    assert phy_codec.bits_to_text([0, 1, 2, 255, 0]) == "01110"
    assert phy_codec.bits_to_text(b"") == ""
    assert phy_codec.bit_bytes([0, 1, 2, 255, 0]) == b"\0\1\1\1\0"
    assert phy_codec.pack_bits([1, 0, 0, 0, 0, 0, 2, 1, 0] + [0] * 7) == b"\x83\0"
    assert phy_codec.bits_to_patterns([0, 2, 255, 1, 0, 3, 0, 0, 0, 9]) == ["01110", "10001"]


def test_pack_bits_refuses_a_count_that_is_not_whole_bytes():
    for bits, count in (([0] * 8 + [1], 9), ([1, 0, 1], 3)):
        with pytest.raises(ValueError, match=f"bit count {count} not a multiple of 8"):
            phy_codec.pack_bits(bits)


# one bit sequence through each function that takes bits
BIT_FUNCTIONS = {
    "bits_to_text": phy_codec.bits_to_text,
    "bit_bytes": phy_codec.bit_bytes,
    "pack_bits": phy_codec.pack_bits,
    "nrzi_low": phy_codec.nrzi_encode,
    "nrzi_high": lambda bits: phy_codec.nrzi_levels(bits, "high"),
    "mlt3": phy_codec.mlt3_encode,
    "map_fddi": spm.map_fddi,
    "scramble": scrambler.scramble,
    "bits_to_patterns": phy_codec.bits_to_patterns,
}


def _outcome(fn, bits):
    try:
        return fn(bits)
    except ValueError as exc:   # a length pack_bits or bits_to_patterns refuses
        return str(exc)


@given(st.lists(st.integers(0, 1), max_size=120))
@example([])
@example([1, 0, 1, 1, 0, 0, 1, 0, 1, 1])
@example([0, 1] * 20)
def test_every_bit_form_gives_the_same_result(bits):
    for name, fn in BIT_FUNCTIONS.items():
        want = _outcome(fn, bits)   # the list
        for form in (tuple, bytes, bytearray, iter):
            assert _outcome(fn, form(bits)) == want, (name, form.__name__)


@pytest.mark.parametrize("fn", [phy_codec.bits_to_text, phy_codec.nrzi_encode,
                                phy_codec.mlt3_encode, spm.map_fddi,
                                phy_codec.bit_bytes, phy_codec.pack_bits,
                                phy_codec.bits_to_patterns, scrambler.scramble])
@pytest.mark.parametrize("n", [0, 5, True])
def test_an_int_is_no_bit_sequence(fn, n):
    with pytest.raises(TypeError):
        fn(n)


def test_symbol_bits_and_patterns_match_per_character_reference():
    symbols = phy_codec.encode_4b5b(range(16))
    bits = phy_codec.encode_bits(bytes(range(16)))
    assert list(bits) == [int(c) for s in symbols for c in s.code]
    assert list(phy_codec.bits_to_patterns(bits)) == [s.code for s in symbols]


def test_packaged_tables_are_read_once():
    assert phy_codec.default_code_table() is phy_codec.default_code_table()
    assert link_planner.default_media_table() is link_planner.default_media_table()
    assert [s.kind for s in phy_codec.default_code_table().symbols].count("data") == 16
    assert "MF" in link_planner.default_media_table()
