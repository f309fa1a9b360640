"""Unit tests for the frame-synchronous scrambler and the match analyzer."""

import random

import pytest

from fddilab.phy_codec import CodeTable, Symbol4b5b, default_code_table
from fddilab.scrambler import (
    ScramblerState,
    keystream,
    longest_valid_match,
    next_bit,
    scramble,
    scramble_with_state,
    seed,
    sequence_127,
)

# Hand-stepped 7-stage register (emit stage 7, feed stage6 XOR stage7 back
# into stage 1 from the all-ones seed), frozen as the golden sequence.
ORACLE_127 = (
    "1111111000000100000110000101000111100100010110011101010011111010"
    "000111000100100110110101101111011000110100101110111001100101010"
)
assert len(ORACLE_127) == 127


def oracle_bits(n):
    """Independent re-implementation: registers kept in a plain dict."""
    reg = {stage: 1 for stage in range(1, 8)}
    out = []
    for _ in range(n):
        out.append(reg[7])
        fb = reg[6] ^ reg[7]
        for stage in range(7, 1, -1):
            reg[stage] = reg[stage - 1]
        reg[1] = fb
    return out


def test_oracle_matches_frozen_literal():
    assert "".join(map(str, oracle_bits(127))) == ORACLE_127


def test_seed_state():
    st = seed()
    assert st.registers == (1,) * 7
    assert st.position == 0
    assert seed() == seed()


def test_first_bit_is_one():
    bit, st = next_bit(seed())
    assert bit == 1
    assert st.position == 1


def test_sequence_matches_oracle_bit_for_bit():
    assert sequence_127() == oracle_bits(127)
    assert "".join(map(str, sequence_127())) == ORACLE_127


def test_period_is_exactly_127():
    bits = keystream(1128)
    for p in range(1001):
        assert bits[p] == bits[p + 127]
    # no shorter period
    for p in range(1, 127):
        if all(bits[i] == bits[i + p] for i in range(500)):
            pytest.fail(f"period divides {p}")


def test_state_never_all_zero():
    st = seed()
    for _ in range(300):
        _, st = next_bit(st)
        assert any(st.registers)
    with pytest.raises(ValueError):
        ScramblerState((0,) * 7, 0)


def test_keystream_rejects_negative_length():
    assert keystream(0) == []
    with pytest.raises(ValueError):
        keystream(-1)


def test_state_registers_must_be_bits():
    with pytest.raises(ValueError):
        ScramblerState((2, 1, 1, 1, 1, 1, 1), 0)


def test_run_lengths_bounded():
    bits = keystream(254)
    text = "".join(map(str, bits))
    assert "1" * 127 not in text
    assert "0" * 127 not in text
    # exact maxima from the oracle sequence (wrap-aware, period 127)
    doubled = ORACLE_127 + ORACLE_127
    assert max(len(r) for r in doubled.split("0")) == 7
    assert max(len(r) for r in doubled.split("1")) == 6


def test_scramble_involution_many_frames():
    rng = random.Random(99)
    for _ in range(1000):
        frame = [rng.randrange(2) for _ in range(rng.randrange(1, 64))]
        assert scramble(scramble(frame)) == frame


def test_scramble_of_zeros_is_keystream():
    assert scramble([0] * 127) == sequence_127()


def test_scramble_of_keystream_is_zeros():
    assert scramble(sequence_127()) == [0] * 127


def test_scramble_continues_from_a_given_state():
    _, state = scramble_with_state([0] * 10, seed())
    assert scramble([0] * 5, state=state) == [0, 0, 0, 1, 0]
    for n in (1, 10, 126, 300):
        _, state = scramble_with_state([0] * n, seed())
        data = [1, 0, 0, 1, 1, 0, 1] * 20
        assert scramble(data, state=state) == scramble_with_state(data, state)[0]


def test_scramble_exemption_mask():
    data = [1, 0, 1, 1, 0, 0, 1, 0]
    out = scramble(data, exempt=(0, 3))
    ref = scramble(data)
    assert out[0] == data[0] and out[3] == data[3]
    # keystream still advances over exempt positions
    assert [out[i] for i in (1, 2, 4, 5, 6, 7)] == [ref[i] for i in (1, 2, 4, 5, 6, 7)]
    assert scramble(out, exempt=(0, 3)) == data


def test_scramble_with_state_continues_frame():
    first, st = scramble_with_state([0] * 60, seed())
    second, _ = scramble_with_state([0] * 67, st)
    assert first + second == sequence_127()


# --- longest_valid_match ---------------------------------------------------

def _tiny_table(codes):
    return CodeTable([Symbol4b5b(code=c, kind="control", meaning=f"S{i}")
                      for i, c in enumerate(codes)])


def test_match_empty_table():
    report = longest_valid_match(_tiny_table([]))
    assert report.with_fragments.length_bits == 0
    assert report.whole_symbol.length_bits == 0


def test_match_single_symbol_table_tracks_max_one_run():
    doubled = ORACLE_127 + ORACLE_127
    max_run = max(len(r) for r in doubled.split("0"))
    report = longest_valid_match(_tiny_table(["11111"]))
    assert report.whole_symbol.length_bits == 5 * (max_run // 5)
    assert report.with_fragments.length_bits == max_run


def test_match_standard_table_values():
    report = longest_valid_match(default_code_table())
    assert report.with_fragments.length_bits == 58
    assert report.whole_symbol.length_bits == 50
    assert report.whole_symbol.length_bits % 5 == 0
    assert report.symbol_count == 24


def test_match_witness_is_consistent():
    table = default_code_table()
    report = longest_valid_match(table)
    seq = sequence_127()
    for result in (report.with_fragments, report.whole_symbol):
        bits = seq if result.polarity == "sequence" else [1 - b for b in seq]
        window = "".join(str(bits[(result.offset + j) % 127])
                         for j in range(result.length_bits))
        assert window == result.bits
        rebuilt = result.leading_fragment
        by_meaning = {}
        for sym in table.symbols:
            by_meaning.setdefault(sym.meaning, sym.code)
        for name in result.symbols:
            rebuilt += by_meaning[name]
        rebuilt += result.trailing_fragment
        assert rebuilt == window
        if result.leading_fragment:
            lead = result.leading_fragment
            assert any(s.code.endswith(lead) for s in table.symbols)
        if result.trailing_fragment:
            trail = result.trailing_fragment
            assert any(s.code.startswith(trail) for s in table.symbols)


def _brute_force_best(codes, allow_fragments):
    """Dumb independent recheck: grow every window bit by bit and test
    coverability by trying every symbol at every slot."""
    base = [int(c) for c in ORACLE_127]

    def coverable(window):
        if not window:
            return True
        for align in range(5) if allow_fragments else (0,):
            ok = True
            pos = 0
            first = window[:5 - align]
            if align:
                if not any(c[align:align + len(first)] == first for c in codes):
                    ok = False
                pos = len(first)
                if ok and len(first) < 5 - align:
                    return True  # window ends inside the first symbol
            while ok and pos < len(window):
                chunk = window[pos:pos + 5]
                if len(chunk) == 5:
                    if chunk not in codes:
                        ok = False
                    pos += 5
                else:
                    if not allow_fragments:
                        ok = False
                    elif not any(c.startswith(chunk) for c in codes):
                        ok = False
                    pos = len(window)
            if ok and (allow_fragments or (len(window) % 5 == 0)):
                return True
        return False

    # coverability is prefix-monotone (per model granularity), so grow
    # each window until the first failure
    step = 1 if allow_fragments else 5
    best = 0
    for polarity in (base, [1 - b for b in base]):
        for start in range(127):
            length = 0
            while length < 700:
                window = "".join(str(polarity[(start + j) % 127])
                                 for j in range(length + step))
                if coverable(window):
                    length += step
                else:
                    break
            best = max(best, length)
    return best


def test_match_brute_force_recheck():
    table = default_code_table()
    codes = [s.code for s in table.symbols]
    report = longest_valid_match(table)
    assert _brute_force_best(codes, allow_fragments=True) == \
        report.with_fragments.length_bits
    assert _brute_force_best(codes, allow_fragments=False) == \
        report.whole_symbol.length_bits
