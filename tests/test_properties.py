"""Property tests: the period-indexed scrambler and the run-table SPE
mapping against bit-by-bit references (``next_bit`` for the keystream,
per-position shifts for the frame layout)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fddilab.scrambler import (
    PERIOD,
    ScramblerState,
    keystream,
    next_bit,
    scramble,
    scramble_with_state,
    seed,
)
from fddilab.spm import (
    SPE_BYTES,
    STUFF_CONTROL,
    STUFF_CONTROL_BIT,
    USER_DATA,
    SpeFrame,
    build_spe_layout,
    extract_fddi,
    frame_bits,
    map_fddi,
)


def _reachable_states():
    states, st_ = [], seed()
    for _ in range(PERIOD):
        states.append(st_)
        _, st_ = next_bit(st_)
    return states


STATES = _reachable_states()


def ref_keystream(n, state):
    """Hand-stepped reference: n bits and the end state."""
    bits = []
    for _ in range(n):
        bit, state = next_bit(state)
        bits.append(bit)
    return bits, state


def random_bits(rng_seed, n):
    rng = random.Random(rng_seed)
    return [rng.randrange(2) for _ in range(n)]


lengths = st.integers(min_value=0, max_value=3 * PERIOD + 40)
phases = st.integers(min_value=0, max_value=PERIOD - 1)
positions = st.integers(min_value=0, max_value=10 ** 6)
seeds = st.integers(min_value=0, max_value=2 ** 32)


def test_the_127_states_are_distinct_and_close_the_cycle():
    assert len({s.registers for s in STATES}) == PERIOD
    assert next_bit(STATES[-1])[1].registers == seed().registers


@settings(max_examples=300, deadline=None)
@given(phase=phases, position=positions, n=lengths, rng_seed=seeds)
def test_keystream_and_scramble_with_state_match_next_bit(phase, position, n, rng_seed):
    state = ScramblerState(STATES[phase].registers, position)
    key, end = ref_keystream(n, state)
    assert keystream(n, state) == key
    data = random_bits(rng_seed, n)
    out, got_end = scramble_with_state(data, state)
    assert out == [d ^ k for d, k in zip(data, key)]
    assert got_end == end


@settings(max_examples=200, deadline=None)
@given(n=lengths, rng_seed=seeds,
       exempt=st.lists(st.integers(min_value=-PERIOD, max_value=4 * PERIOD + 50),
                       max_size=40))
def test_scramble_exempt_positions_match_reference(n, rng_seed, exempt):
    data = random_bits(rng_seed, n)
    key, _ = ref_keystream(n, seed())
    skip = set(exempt)
    want = [d if i in skip else d ^ k for i, (d, k) in enumerate(zip(data, key))]
    assert scramble(data, exempt=exempt) == want
    assert scramble(want, exempt=iter(exempt)) == data


@settings(max_examples=200, deadline=None)
@given(phase=phases, n=lengths, rng_seed=seeds)
def test_scramble_is_an_involution_from_any_state(phase, n, rng_seed):
    data = random_bits(rng_seed, n)
    state = STATES[phase]
    once = scramble(data, frame_start=False, state=state)
    assert scramble(once, frame_start=False, state=state) == data


def ref_positions(layout):
    """(byte, bit) of every user bit, straight from the byte classification."""
    out = []
    for idx, tag in enumerate(layout.classification):
        if tag == USER_DATA or tag == STUFF_CONTROL:
            out.extend((idx, bit) for bit in range(8)
                       if tag == USER_DATA or bit != STUFF_CONTROL_BIT)
    return out


def ref_map_frame(chunk, layout):
    octets = bytearray(SPE_BYTES)
    for (byte_idx, bit_idx), bit in zip(ref_positions(layout), chunk):
        if bit:
            octets[byte_idx] |= 1 << (7 - bit_idx)
    return bytes(octets)


@settings(max_examples=40, deadline=None)
@given(run_length=st.sampled_from([None] + list(range(9, 18))),
       frames=st.integers(min_value=0, max_value=3), extra=st.integers(0, 200),
       rng_seed=seeds)
def test_map_extract_round_trip_and_reference_bytes(run_length, frames, extra, rng_seed):
    layout = build_spe_layout() if run_length is None else build_spe_layout(run_length)
    capacity = len(ref_positions(layout))
    assert layout.capacity_bits == capacity
    bits = random_bits(rng_seed, max(0, frames * capacity - 100 + extra))
    mapped = map_fddi(bits, layout)
    assert extract_fddi(mapped, layout) == bits
    assert extract_fddi(mapped) == bits
    for i, frame in enumerate(mapped):
        chunk = bits[i * capacity:(i + 1) * capacity]
        assert frame.user_bits_filled == len(chunk)
        assert frame.data == ref_map_frame(chunk, layout)


@settings(max_examples=100, deadline=None)
@given(rng_seed=seeds)
def test_frame_bits_match_per_bit_unpack(rng_seed):
    data = random.Random(rng_seed).randbytes(SPE_BYTES)
    frame = SpeFrame(layout=build_spe_layout(), data=data, user_bits_filled=0)
    assert frame_bits(frame) == [(octet >> (7 - b)) & 1 for octet in data for b in range(8)]
