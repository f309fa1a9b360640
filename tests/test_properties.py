"""Property tests: the period-indexed scrambler and the run-table SPE
mapping against bit-by-bit references (``next_bit`` for the keystream,
per-position shifts for the frame layout), the integer-tick ring
simulator against a Fraction-time, frame-by-frame reference and the
timed-token invariants on random rings, the word-parallel line codes
(NRZI, MLT-3, 4b/5b, the KMP period search) against per-bit and
per-symbol references, and the cyclic-chain match analyzer against the
window-by-window search it replaced."""

import random
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddilab import InputError
from fddilab.mac_sim import (
    ASYNC,
    SYNC,
    RingConfig,
    SimMetrics,
    TrafficModel,
    TrafficSource,
    _first_tick,
    run_simulation,
)
from fddilab.phy_codec import (
    MLT3_CYCLE,
    AperiodicSignalError,
    CodeTable,
    ControlSymbolError,
    InvalidSymbolError,
    LineSignal,
    Symbol4b5b,
    decode_4b5b,
    default_code_table,
    encode_4b5b,
    fundamental_frequency,
    mlt3_encode,
    nrzi_encode,
    transition_count,
)
from fddilab.scrambler import (
    PERIOD,
    MatchReport,
    MatchResult,
    ScramblerState,
    keystream,
    longest_valid_match,
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
    once = scramble(data, state=state)
    assert once == scramble_with_state(data, state)[0]
    assert scramble(once, state=state) == data


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
@given(frames=st.integers(min_value=0, max_value=3), extra=st.integers(0, 200),
       rng_seed=seeds)
def test_map_extract_round_trip_and_reference_bytes(frames, extra, rng_seed):
    layout = build_spe_layout()
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
    frame = SpeFrame(data=data, user_bits_filled=0)
    assert frame_bits(frame) == [(octet >> (7 - b)) & 1 for octet in data for b in range(8)]


# --- ring simulator -----------------------------------------------------

def _load(draw, n, frame):
    """Saturated, Poisson or no source per station and class, and probes."""
    sources = []
    for station in range(n):
        for cls in (SYNC, ASYNC):
            kind = draw(st.sampled_from(["none", "saturated", "poisson"]))
            if kind != "none":
                rate = None if kind == "saturated" else draw(st.floats(0.5, 40))
                dest = draw(st.none() | st.integers(0, n - 1))
                sources.append(TrafficSource(station, cls, rate, frame[cls], dest))
    return TrafficModel.make(sources, probe_count=draw(st.sampled_from([0, 40])))


@st.composite
def rings(draw, max_latency_us=3000, min_frame_bytes=1, max_rotations=25):
    """A random ring with fractional D/n, one frame size per class and a
    fractional duration."""
    n = draw(st.integers(1, 8))
    d = Fraction(draw(st.integers(1, max_latency_us)),
                 draw(st.sampled_from([1, 3, 7, 10])))
    t = d * Fraction(draw(st.integers(11, 40)), 10)
    share = (t - d) / (n + 1)
    alloc = [share * Fraction(draw(st.integers(0, 10)), 10) for _ in range(n)]
    frame = {cls: draw(st.integers(min_frame_bytes, 1500)) for cls in (SYNC, ASYNC)}
    cfg = RingConfig.make(n, d, t, sync_allocation_us=alloc, compliance=False)
    duration = t * draw(st.integers(3, max_rotations)) + Fraction(draw(st.integers(0, 9)), 10)
    return cfg, _load(draw, n, frame), duration, frame, draw(seeds)


@st.composite
def unit_rings(draw):
    """A ring whose every time is a whole number of microseconds, so that
    arrivals, token visits, frame ends, the warmup and the end of the run
    often fall on the same tick."""
    n = draw(st.integers(1, 6))
    d = n * draw(st.integers(1, 10))
    t = d + draw(st.integers(0, 150))
    alloc = [draw(st.integers(0, (t - d) // (n + 1))) for _ in range(n)]
    frame = {cls: 25 * draw(st.integers(1, 3)) for cls in (SYNC, ASYNC)}
    cfg = RingConfig.make(n, d, t, sync_allocation_us=alloc, compliance=False)
    duration = Fraction(5 * draw(st.integers(t // 5 + 1, 6 * t)))
    return cfg, _load(draw, n, frame), duration, frame, draw(seeds)


def ref_simulation(cfg, load, duration, seed_):
    """Reference run: Fraction time, float Poisson arrivals compared with
    float(now), one frame at a time, the token walked hop by hop."""
    n, d, t = cfg.n_stations, cfg.ring_latency_us, cfg.ttrt_us
    hop, warmup = d / n, duration / 5
    queues = {}
    for idx, src in enumerate(load.sources):
        arrivals = None if src.rate_mbps is None else []
        if src.rate_mbps:
            rng = random.Random(seed_ * 1_000_003 + idx)
            mean_gap = src.frame_bytes * 8 / src.rate_mbps
            at = rng.expovariate(1.0 / mean_gap)
            while at <= float(duration):
                arrivals.append(at)
                at += rng.expovariate(1.0 / mean_gap)
        dst = src.destination if src.destination is not None else (src.station + 1) % n
        walk = ((dst - src.station) % n or n) * hop
        queues[src.station, src.traffic_class] = [src, walk, arrivals, 0]
    sent, delivered, flight = {SYNC: 0, ASYNC: 0}, {SYNC: 0, ASYNC: 0}, {SYNC: 0, ASYNC: 0}
    window_bits = 0

    def send(station, cls, start, budget):
        nonlocal window_bits
        used = Fraction(0)
        q = queues.get((station, cls))
        while q is not None:
            src, walk, arrivals, taken = q
            ft = Fraction(src.frame_bytes * 8, 100)
            if used + ft > budget or arrivals is not None and (
                    taken == len(arrivals) or arrivals[taken] > float(start + used)):
                break
            q[3] += 1
            used += ft
            sent[cls] += src.frame_bytes
            if warmup < start + used <= duration:
                window_bits += src.frame_bytes * 8
            if start + used + walk <= duration:
                delivered[cls] += src.frame_bytes
            else:
                flight[cls] += 1
        return used

    last = [i * hop - d for i in range(n)]
    visits_at = [[] for _ in range(n)]
    max_gap = [None] * n
    now, station = Fraction(0), 0
    while now <= duration:
        rotation = now - last[station]
        last[station] = now
        visits_at[station].append(now)
        if now > warmup:
            max_gap[station] = max(rotation, max_gap[station] or rotation)
        used = send(station, SYNC, now, cfg.sync_allocation_us[station])
        used += send(station, ASYNC, now + used, t - rotation)
        now += used + hop
        station = (station + 1) % n
    gaps = [max_gap[i] for i in range(n) if cfg.sync_allocation_us[i] > 0] or max_gap
    gaps = [g for g in gaps if g is not None]
    probes = []
    if load.probe_count > 0:
        rng = random.Random(seed_ * 1_000_003 + 7919)
        horizon = min(float(a[-1]) if a else 0.0 for a in visits_at)
        if horizon > float(warmup):
            for _ in range(load.probe_count):
                at = rng.uniform(float(warmup), horizon)
                arr = visits_at[rng.randrange(n)]
                i = bisect_right(arr, at)       # Fraction against float: exact
                if i < len(arr):
                    probes.append(float(arr[i]) - at)
    return SimMetrics(
        float(duration), float(warmup), sum(map(len, visits_at)),
        float(Fraction(window_bits) / ((duration - warmup) * 100)),
        sent[SYNC], sent[ASYNC], delivered[SYNC], delivered[ASYNC],
        flight[SYNC], flight[ASYNC], float(max(gaps)) if gaps else None,
        sum(probes) / len(probes) if probes else None,
        max(probes) if probes else None, tuple(probes))


@settings(max_examples=150, deadline=None)
@given(ring=rings() | unit_rings())
def test_simulator_invariants_on_random_rings(ring):
    cfg, load, duration, frame, seed_ = ring
    m = run_simulation(cfg, load, duration, seed=seed_, collect_trace=True)
    # byte conservation: sent = delivered + in-flight x frame
    assert m.sync_bytes_sent == (m.sync_bytes_delivered
                                 + m.sync_frames_in_flight * frame[SYNC])
    assert m.async_bytes_sent == (m.async_bytes_delivered
                                  + m.async_frames_in_flight * frame[ASYNC])
    # one token walks the ring in order, D/n per hop
    n, hop, two_t = cfg.n_stations, cfg.ring_latency_us / cfg.n_stations, 2 * cfg.ttrt_us
    assert m.n_token_visits == len(m.trace)
    assert (m.trace[0].station, m.trace[0].arrival_us) == (0, 0)
    for v in m.trace:
        assert v.depart_us == v.arrival_us + v.sync_tx_us + v.async_tx_us
        assert v.sync_tx_us <= cfg.sync_allocation_us[v.station]
        assert v.rotation_us <= two_t
    for prev, nxt in zip(m.trace, m.trace[1:]):
        assert nxt.station == (prev.station + 1) % n
        assert nxt.arrival_us == prev.depart_us + hop
    assert m.trace[-1].arrival_us <= duration < m.trace[-1].depart_us + hop
    # the 2T bound on gaps between synchronous services
    if m.max_sync_gap_us is not None:
        assert m.max_sync_gap_us <= float(two_t)
    assert all(0 <= delay <= float(two_t) for delay in m.probe_delays_us)


@settings(max_examples=40, deadline=None)
@given(ring=rings())
def test_same_seed_same_metrics(ring):
    cfg, load, duration, _, seed_ = ring
    first = run_simulation(cfg, load, duration, seed=seed_, collect_trace=True)
    again = run_simulation(cfg, load, duration, seed=seed_, collect_trace=True)
    assert first == again
    assert first.trace == again.trace


@settings(max_examples=300, deadline=None)
@given(t=st.floats(0, 1e6), ticks_per_us=st.integers(1, 10 ** 6) | st.integers(1, 10 ** 30))
def test_arrival_rounds_up_to_the_first_tick_that_reads_as_t(t, ticks_per_us):
    tick = _first_tick(t, ticks_per_us)
    assert float(Fraction(tick, ticks_per_us)) >= t
    assert tick == 0 or float(Fraction(tick - 1, ticks_per_us)) < t


@settings(max_examples=150, deadline=None)
@given(ring=rings(max_latency_us=300, min_frame_bytes=25, max_rotations=10) | unit_rings())
def test_simulator_matches_fraction_reference(ring):
    cfg, load, duration, _, seed_ = ring
    assert run_simulation(cfg, load, duration, seed=seed_) == ref_simulation(
        cfg, load, duration, seed_)


# --- word-parallel line codes against per-bit references ------------------
# The edge lengths straddle one machine word (63/64/65) and the 127-bit
# period; the long ones (>= 10^5 bits) check that nothing is cut short.

EDGE_LENGTHS = (0, 1, 2, 63, 64, 65, 126, 127, 128, 100_000, 100_003)
bit_lengths = st.sampled_from(EDGE_LENGTHS) | st.integers(min_value=0, max_value=700)
densities = st.sampled_from((0.0, 0.02, 0.5, 0.98, 1.0))


def dense_bits(rng_seed, n, density):
    """n bits, each 1 with probability ``density`` (long runs at the ends)."""
    rng = random.Random(rng_seed)
    return [int(rng.random() < density) for _ in range(n)]


def ref_nrzi(bits, level):
    out = []
    for b in bits:
        if b:
            level ^= 1
        out.append(level)
    return tuple(out)


def ref_mlt3(bits):
    phase, out = 0, []
    for b in bits:
        if b:
            phase = (phase + 1) % 4
        out.append(MLT3_CYCLE[phase])
    return tuple(out)


def ref_transitions(levels, prev):
    count = 0
    for lv in levels:
        count += lv != prev
        prev = lv
    return count


@settings(max_examples=150, deadline=None)
@given(n=bit_lengths, density=densities, rng_seed=seeds)
def test_nrzi_and_mlt3_match_per_bit_references(n, density, rng_seed):
    bits = dense_bits(rng_seed, n, density)
    assert nrzi_encode(bits).levels == ref_nrzi(bits, 0)
    assert nrzi_encode(bits, initial_level="high").levels == ref_nrzi(bits, 1)
    assert nrzi_encode(iter(bits)).levels == ref_nrzi(bits, 0)
    levels = mlt3_encode(bits).levels
    assert levels == ref_mlt3(bits)
    for start in (-1, 0, 1):
        assert transition_count(mlt3_encode(bits), start) == ref_transitions(levels, start)


TABLE = default_code_table()
CODES = sorted({f"{v:05b}" for v in range(32)})


def ref_decode(items, table):
    """The symbol-by-symbol decoder: nibbles, or (error type, position, detail)."""
    out = []
    for i, item in enumerate(items):
        code = item.code if isinstance(item, Symbol4b5b) else item
        sym = table.by_code.get(code)
        if sym is None:
            return InvalidSymbolError, i, code
        if sym.kind != "data":
            return ControlSymbolError, i, sym.meaning
        out.append(int(sym.meaning, 16))
    return out


def decoded(items, table):
    try:
        return decode_4b5b(items, table)
    except InvalidSymbolError as exc:
        return InvalidSymbolError, exc.position, exc.pattern
    except ControlSymbolError as exc:
        return ControlSymbolError, exc.position, exc.name


@settings(max_examples=300, deadline=None)
@given(nibbles=st.lists(st.integers(0, 15), max_size=200),
       bad=st.lists(st.tuples(st.integers(0, 200), st.sampled_from(CODES)), max_size=3),
       as_symbols=st.booleans())
def test_4b5b_matches_symbol_by_symbol_reference(nibbles, bad, as_symbols):
    symbols = encode_4b5b(nibbles)
    assert symbols == [TABLE.by_nibble[v] for v in nibbles]
    items = list(symbols) if as_symbols else [s.code for s in symbols]
    for pos, code in bad:   # any 5-bit pattern: data, control or unmapped
        items.insert(min(pos, len(items)), code)
    assert decoded(items, TABLE) == ref_decode(items, TABLE)
    assert decoded(iter(items), TABLE) == ref_decode(items, TABLE)


@settings(max_examples=100, deadline=None)
@given(nibbles=st.lists(st.integers(0, 15), max_size=50), pos=st.integers(0, 50),
       wrong=st.sampled_from((-1, 16, 255, 10 ** 9)))
def test_encode_names_the_first_nibble_out_of_range(nibbles, pos, wrong):
    pos = min(pos, len(nibbles))
    data = nibbles[:pos] + [wrong] + nibbles[pos:] + [wrong]
    with pytest.raises(ValueError, match=f"nibble {wrong} at position {pos} "):
        encode_4b5b(data)


def test_code_table_maps_each_data_symbol_and_its_code_to_its_nibble():
    assert TABLE.nibble_of == {**{s: s.value for s in TABLE.data_symbols},
                               **{s.code: s.value for s in TABLE.data_symbols}}


def test_decode_reads_a_data_symbol_of_another_table_by_its_code():
    foreign = [Symbol4b5b(code=s.code, kind="data", meaning="F") for s in TABLE.data_symbols]
    assert decode_4b5b(foreign) == [s.value for s in TABLE.data_symbols]


REF_PERIOD = ref_keystream(PERIOD, seed())[0]


def check_scramble(data, phase, exempt):
    state = STATES[phase]
    out, end = scramble_with_state(data, state, exempt)
    assert out == [d if i in exempt else d ^ REF_PERIOD[(phase + i) % PERIOD]
                   for i, d in enumerate(data)]
    assert end.registers == STATES[(phase + len(data)) % PERIOD].registers
    assert end.position == state.position + len(data)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(EDGE_LENGTHS[:-2]) | st.integers(min_value=0, max_value=700),
       density=densities, rng_seed=seeds,
       exempt=st.sets(st.integers(min_value=-3, max_value=800), max_size=30))
def test_scramble_with_state_from_all_127_states(n, density, rng_seed, exempt):
    data = dense_bits(rng_seed, n, density)
    for phase in range(PERIOD):
        check_scramble(data, phase, exempt)


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from(EDGE_LENGTHS[-2:]), phase=phases, rng_seed=seeds,
       exempt=st.sets(st.integers(min_value=0, max_value=100_010), max_size=30))
def test_scramble_with_state_on_long_frames(n, phase, rng_seed, exempt):
    check_scramble(dense_bits(rng_seed, n, 0.5), phase, exempt)


@settings(max_examples=25, deadline=None)
@given(n=bit_lengths, density=densities, rng_seed=seeds)
def test_map_extract_round_trip_at_edge_lengths(n, density, rng_seed):
    layout = build_spe_layout()
    bits = dense_bits(rng_seed, n, density)
    frames = map_fddi(bits, layout)
    assert extract_fddi(frames) == bits
    capacity = layout.capacity_bits
    assert len(frames) == -(-n // capacity)
    for i, frame in enumerate(frames):
        assert frame.data == ref_map_frame(bits[i * capacity:(i + 1) * capacity], layout)


def test_non_bit_elements():
    """0/1 is the contract. Other bytes read as 1 in NRZI and MLT-3 and are
    XORed as bytes by the scrambler; anything outside [0, 255] is refused."""
    assert nrzi_encode([0, 2, 255, 0]).levels == nrzi_encode([0, 1, 1, 0]).levels
    assert mlt3_encode([3, 0, 7]).levels == mlt3_encode([1, 0, 1]).levels
    assert scramble([2, 0, 255]) == [2 ^ REF_PERIOD[0], REF_PERIOD[1], 255 ^ REF_PERIOD[2]]
    for bad in ([-1], [256]):
        for fn in (nrzi_encode, mlt3_encode, scramble):
            with pytest.raises(ValueError):
                fn(bad)


def ref_fundamental(signal):
    """The quadratic search over every candidate period."""
    levels = signal.levels
    n = len(levels)
    for p in range(1, n // 2 + 1):
        if all(levels[i] == levels[i + p] for i in range(n - p)):
            return 0.0 if p == 1 else signal.bit_rate / p
    return AperiodicSignalError


def fundamental_or_error(signal):
    try:
        return fundamental_frequency(signal)
    except AperiodicSignalError:
        return AperiodicSignalError


@settings(max_examples=400, deadline=None)
@given(base=st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=8),
       n=st.integers(1, 60), noise=st.lists(st.integers(0, 59), max_size=2))
def test_fundamental_frequency_matches_quadratic_search(base, n, noise):
    levels = [base[i % len(base)] for i in range(n)]
    for i in noise:   # break the repeat now and then
        if i < n:
            levels[i] = 1 - levels[i]
    signal = LineSignal(levels=tuple(levels), bit_rate=125e6)
    assert fundamental_or_error(signal) == ref_fundamental(signal)


# --- the match analyzer against the window-by-window search ------------------

# The reference walks each window's symbol chain over a tiled text, capped
# well past the longest bounded cover (126 symbols plus two fragments).
REF_SCAN_CAP = 5 * PERIOD + 10
REF_TEXT = "".join(map(str, REF_PERIOD)) * ((PERIOD + REF_SCAN_CAP + 10) // PERIOD + 1)


def ref_piece(text, i, pieces, most):
    """Longest text[i:i+k], k <= most, in ``pieces`` (a prefix-closed set)."""
    return next((text[i:i + k] for k in range(most, 0, -1) if text[i:i + k] in pieces), "")


def ref_window(text, start, align, codes, pieces, allow_fragments):
    """Maximal window at (start, align): (length, lead, symbols, trail)."""
    lead = ref_piece(text, start, pieces[align], 5 - align) if align else ""
    if align and len(lead) < 5 - align:
        return len(lead), lead, (), ""  # window never reaches a symbol boundary
    i = start + len(lead)
    syms = []
    while i - start < REF_SCAN_CAP and text[i:i + 5] in codes:
        syms.append(text[i:i + 5])
        i += 5
    trail = ref_piece(text, i, pieces[0], 4) if allow_fragments else ""
    return i - start + len(trail), lead, tuple(syms), trail


def ref_longest_valid_match(table):
    """Every (polarity, start, model, alignment) window in turn; the first
    longest one per model wins."""
    codes = {s.code for s in table.symbols}
    names = {s.code: s.meaning for s in table.symbols}
    pieces = {a: {c[a:a + k] for c in codes for k in range(1, 6 - a)} for a in range(5)}
    best = {True: None, False: None}
    for polarity, text in (("sequence", REF_TEXT),
                           ("complement", REF_TEXT.translate(str.maketrans("01", "10")))):
        for start in range(PERIOD):
            for allow_fragments in (False, True):
                for align in range(5) if allow_fragments else (0,):
                    length, lead, syms, trail = ref_window(
                        text, start, align, codes, pieces, allow_fragments)
                    if length >= REF_SCAN_CAP:
                        raise RuntimeError("unbounded symbol cover of the sequence")
                    cur = best[allow_fragments]
                    if cur is None or length > cur.length_bits:
                        best[allow_fragments] = MatchResult(
                            model="with_fragments" if allow_fragments else "whole_symbol",
                            length_bits=length, offset=start, polarity=polarity,
                            alignment=align, bits=text[start:start + length],
                            leading_fragment=lead, symbols=tuple(names[c] for c in syms),
                            trailing_fragment=trail)
    return MatchReport(with_fragments=best[True], whole_symbol=best[False],
                       table_version=table.version, symbol_count=len(table.symbols))


def control_table(codes):
    return CodeTable([Symbol4b5b(code=c, kind="control", meaning=f"S{i}")
                      for i, c in enumerate(codes)], version="random")


def check_match(table):
    try:
        want = ref_longest_valid_match(table)
    except RuntimeError:
        with pytest.raises(InputError) as err:
            longest_valid_match(table)
        assert err.value.tag == "bad-table"
        return
    assert longest_valid_match(table) == want


@pytest.mark.parametrize("table", [control_table([]), control_table(["11111"]), TABLE,
                                   control_table(CODES)],
                         ids=["empty", "11111", "shipped", "all-32"])
def test_match_equals_window_search(table):
    check_match(table)


def test_only_the_all_32_table_is_unbounded():
    with pytest.raises(RuntimeError):
        ref_longest_valid_match(control_table(CODES))
    for missing in CODES:
        check_match(control_table([c for c in CODES if c != missing]))


@settings(max_examples=300, deadline=None)
@given(codes=st.integers(0, 32).flatmap(lambda k: st.permutations(CODES).map(lambda p: p[:k])))
def test_match_equals_window_search_on_random_tables(codes):
    check_match(control_table(codes))
