"""Property tests: the period-indexed scrambler and the run-table SPE
mapping against bit-by-bit references (``next_bit`` for the keystream,
per-position shifts for the frame layout), the integer-tick ring
simulator against a Fraction-time, frame-by-frame reference and the
timed-token invariants on random rings, the word-parallel line codes
(NRZI, MLT-3, 4b/5b, the KMP period search) against per-bit and
per-symbol references, the cyclic-chain match analyzer against the
window-by-window search it replaced, the FDDI-II byte runs against the
per-byte first-fit allocator, the per-medium link checks against the
per-link functions they replaced, and the report renderer against
``json.dumps(..., indent=2)`` and the per-cell CSV writer it replaced."""

import io
import json
import math
import random
import tempfile
from bisect import bisect_right
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fddilab import InputError, Violation, fddi2, whole
from fddilab.cli import CSV, JSON, _manifest_text, _write, dispatch, emit_report
from fddilab.link_planner import (
    CONNECTOR_LOSS_DB,
    BudgetReport,
    LinkSpec,
    MediaSpec,
    NotOpticalError,
    RingReport,
    UnknownMediaError,
    default_media_table,
    load_ring_file,
    ring_limits,
    validate_ring,
)
from fddilab.mac_sim import (
    ASYNC,
    SYNC,
    RingConfig,
    SimMetrics,
    TrafficModel,
    TrafficSource,
    _arrival_ticks,
    _first_tick,
    _probe_delays,
    run_simulation,
)
from fddilab.phy_codec import (
    FDDI_CODE_BIT_RATE_BPS,
    MLT3_CYCLE,
    AperiodicSignalError,
    CodeTable,
    ControlSymbolError,
    InvalidSymbolError,
    LineSignal,
    Symbol4b5b,
    bits_to_patterns,
    decode_4b5b,
    default_code_table,
    encode_4b5b,
    fundamental_frequency,
    mlt3_encode,
    nrzi_encode,
    nrzi_levels,
    transition_count,
)
from fddilab.scrambler import (
    PERIOD,
    SEED_BITS,
    MatchReport,
    MatchResult,
    keystream,
    longest_valid_match,
    next_bit,
    scramble,
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
    states, registers = [], SEED_BITS
    for _ in range(PERIOD):
        states.append(registers)
        _, registers = next_bit(registers)
    return states


STATES = _reachable_states()


def ref_keystream(n):
    """Hand-stepped reference: a frame's first n bits, from the seed."""
    bits, registers = [], SEED_BITS
    for _ in range(n):
        bit, registers = next_bit(registers)
        bits.append(bit)
    return bits


def check_scramble(data):
    key = ref_keystream(len(data))
    assert list(keystream(len(data))) == key
    assert scramble(data) == [d ^ k for d, k in zip(data, key)]


def random_bits(rng_seed, n):
    rng = random.Random(rng_seed)
    return [rng.randrange(2) for _ in range(n)]


lengths = st.integers(min_value=0, max_value=3 * PERIOD + 40)
seeds = st.integers(min_value=0, max_value=2 ** 32)


def test_the_127_states_are_distinct_and_close_the_cycle():
    assert len(set(STATES)) == PERIOD
    assert next_bit(STATES[-1])[1] == SEED_BITS


@settings(max_examples=300, deadline=None)
@given(n=lengths, rng_seed=seeds)
def test_keystream_and_scramble_match_next_bit(n, rng_seed):
    check_scramble(random_bits(rng_seed, n))


@settings(max_examples=200, deadline=None)
@given(n=lengths, rng_seed=seeds)
def test_scramble_is_an_involution(n, rng_seed):
    data = random_bits(rng_seed, n)
    assert scramble(scramble(data)) == data


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


def ref_probe_delays(visits_at, warmup, count, seed_):
    """Reference probes on Fraction token arrival times: each found by an
    exact bisect, a Fraction against the float probe time."""
    probes = []
    if count > 0:
        rng = random.Random(seed_ * 1_000_003 + 7919)
        horizon = min(float(a[-1]) if a else 0.0 for a in visits_at)
        if horizon > float(warmup):
            for _ in range(count):
                at = rng.uniform(float(warmup), horizon)
                arr = visits_at[rng.randrange(len(visits_at))]
                i = bisect_right(arr, at)       # Fraction against float: exact
                if i < len(arr):
                    probes.append(float(arr[i]) - at)
    return probes


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
    probes = ref_probe_delays(visits_at, warmup, load.probe_count, seed_)
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


def ref_first_tick(t, ticks_per_us):
    """The first tick N with float(N / L) >= t, from t's integer ratio
    alone: the body _first_tick has past its float path."""
    p, q = t.as_integer_ratio()
    hi = -(-p * ticks_per_us // q)
    if (hi - 1) / ticks_per_us < t:
        return hi
    p, q = math.nextafter(t, 0.0).as_integer_ratio()
    lo = p * ticks_per_us // q
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid / ticks_per_us >= t else (mid, hi)
    return hi


@st.composite
def tick_cases(draw):
    """(t, L): L small, a power of two or past the float range; t zero,
    subnormal, near t * L = 2**53 (where the float path gives way) or a
    tick's own float N / L, give or take one ulp, so neighbouring ticks
    round to t."""
    L = draw(st.sampled_from([1, 7, 10 ** 30, 2 ** 1100])
             | st.integers(0, 1100).map(lambda e: 2 ** e))
    kind = draw(st.sampled_from(["zero", "subnormal", "2**53", "tick"]))
    if kind == "zero":
        return 0.0, L
    if kind == "subnormal":
        return draw(st.floats(5e-324, 2.0 ** -1022, exclude_max=True)), L
    tick = 2 ** 53 + draw(st.integers(-4, 4)) if kind == "2**53" else draw(
        st.integers(0, 2 ** 64))
    t = float(Fraction(tick, L))
    return draw(st.sampled_from([t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)])), L


@settings(max_examples=500, deadline=None)
@given(case=tick_cases())
def test_first_tick_float_path_matches_the_integer_ratio(case):
    t, ticks_per_us = case
    assert _first_tick(t, ticks_per_us) == ref_first_tick(t, ticks_per_us)


def test_first_tick_past_the_float_range_is_exact():
    # 1.5 * 2**1100 is no float: t * L would overflow converting L
    L = 2 ** 1100
    tick = _first_tick(1.5, L)
    assert tick == ref_first_tick(1.5, L)
    assert float(Fraction(tick, L)) >= 1.5 > float(Fraction(tick - 1, L))


# A send that starts on the warmup tick, and one whose last frame reaches
# its destination on the run's last tick: the two edges of the send that
# counts every frame as in the window and delivered.
SEND_EDGES = {
    "saturated, starts at the warmup": (3, 12, 49, 50, None, 300, 8),
    "poisson, starts at the warmup": (1, 1, 22, 25, 40.0, 145, 35),
    "saturated, delivered on the last tick": (1, 3, 31, 50, None, 575, 33),
    "poisson, delivered on the last tick": (1, 1, 18, 50, 40.0, 215, 40),
}


@pytest.mark.parametrize("edge", SEND_EDGES)
def test_sends_on_the_edges_of_the_window_match_fraction_reference(edge):
    n, d, t, frame_bytes, rate, duration, seed_ = SEND_EDGES[edge]
    cfg = RingConfig.make(n, d, t, sync_allocation_us=[0] * n, compliance=False)
    load = TrafficModel.make([TrafficSource(0, ASYNC, rate, frame_bytes)])
    duration = Fraction(duration)
    sends = [v for v in run_simulation(cfg, load, duration, seed_, collect_trace=True).trace
             if v.async_tx_us]
    if "warmup" in edge:
        assert any(v.arrival_us == duration / 5 for v in sends)
    else:
        assert any(v.depart_us + cfg.ring_latency_us / n == duration for v in sends)
    assert run_simulation(cfg, load, duration, seed=seed_) == ref_simulation(
        cfg, load, duration, seed_)


@st.composite
def mixed_rings(draw):
    """A ring whose stations are saturated, Poisson, sync-allocated or
    traffic-free, T from D up, and a duration that ends, with a warmup
    that falls, anywhere between two hops: inside runs of idle visits."""
    n = draw(st.integers(1, 12))
    d = Fraction(draw(st.integers(1, 300)), draw(st.sampled_from([1, 3, 7])))
    hop = d / n
    t = d * Fraction(draw(st.sampled_from([10, 10, 11, 15, 20, 40])), 10)
    share = (t - d) / (n + 1)
    frame = {cls: draw(st.integers(25, 400)) for cls in (SYNC, ASYNC)}
    rate = st.none() | st.floats(0.5, 40)
    alloc, sources = [], []
    for station in range(n):
        kind = draw(st.sampled_from(["free", "saturated", "poisson", "sync"]))
        alloc.append(share * Fraction(draw(st.integers(1, 10)), 10) if kind == "sync" else 0)
        if kind == "sync" or kind == "saturated" and draw(st.booleans()):  # unallocated too
            sources.append(TrafficSource(station, SYNC, draw(rate), frame[SYNC]))
        if kind in ("saturated", "poisson") or kind == "sync" and draw(st.booleans()):
            sources.append(TrafficSource(
                station, ASYNC, None if kind == "saturated" else draw(st.floats(0.5, 40)),
                frame[ASYNC], draw(st.none() | st.integers(0, n - 1))))
    cfg = RingConfig.make(n, d, t, sync_allocation_us=alloc, compliance=False)
    duration = (t * draw(st.integers(1, 12))
                + hop * Fraction(draw(st.integers(0, 20 * n)), draw(st.sampled_from([1, 10]))))
    load = TrafficModel.make(sources, probe_count=draw(st.sampled_from([0, 0, 0, 20])))
    return cfg, load, duration, draw(seeds)


@settings(max_examples=300, deadline=None)
@given(ring=mixed_rings())
@example(ring=(  # the run's largest rotation is in an idle run, just before the warmup
    RingConfig.make(2, 7, 28, sync_allocation_us=[0, 0], compliance=False),
    TrafficModel.make([TrafficSource(1, ASYNC, 34.5224415314544, 25)]), Fraction(175, 2), 582))
def test_idle_visits_taken_at_once_match_the_visit_by_visit_walk(ring):
    # a trace walks every station one by one, so it pins the idle runs
    cfg, load, duration, seed_ = ring
    traced = run_simulation(cfg, load, duration, seed=seed_, collect_trace=True)
    plain = run_simulation(cfg, load, duration, seed=seed_)
    assert plain == traced._replace(trace=()) == ref_simulation(cfg, load, duration, seed_)


# Past 2**53 every float is an even integer, so with L ticks per us the
# ticks t*L - 2 .. t*L + 2 around a probe time t all read as t, though
# the last two lie after t and the first two before it.
TIE_WARMUP, TIE_HORIZON = 2.0 ** 53, 2.0 ** 53 + 2 ** 20


@pytest.mark.parametrize("ticks_per_us", [3, 7, 49])
@pytest.mark.parametrize("seed_", [0, 1, 2])
def test_probe_delays_are_exact_where_ticks_round_to_the_probe_time(ticks_per_us, seed_):
    n, count, L = 5, 300, ticks_per_us
    rng, times = random.Random(seed_ * 1_000_003 + 7919), []
    for _ in range(count):                          # replay the probe times
        times.append(rng.uniform(TIE_WARMUP, TIE_HORIZON))
        rng.randrange(n)                            # and the station draws
    pick = random.Random(seed_)
    end = int(TIE_HORIZON) * L
    log = [sorted({end} | {int(t) * L + d for t in times for d in range(-2, 3)
                           if pick.random() < 0.4 and int(t) * L + d < end})
           for _ in range(n)]
    got = _probe_delays(log, L, TIE_WARMUP, count, seed_)
    want = ref_probe_delays([[Fraction(a, L) for a in arr] for arr in log],
                            Fraction(TIE_WARMUP), count, seed_)
    assert got == want
    assert len(got) == count and 0.0 in got   # a tick after t read as t was found


@pytest.mark.parametrize("n", range(1, 65))
def test_inlined_probe_draws_are_uniform_then_choice(n):
    """Station s's token arrives at the whole microseconds s mod n, so a
    probe's delay tells which station was drawn."""
    L, warmup, count, seed_ = 7, 5.0, 50, n + 100
    log = [[(k * n + s) * L for k in range(40)] for s in range(n)]
    rng = random.Random(seed_ * 1_000_003 + 7919)
    horizon, want = min(arr[-1] / L for arr in log), []
    for _ in range(count):
        t = rng.uniform(warmup, horizon)
        arr = rng.choice(log)
        p, q = t.as_integer_ratio()
        idx = bisect_right(arr, p * L // q)
        if idx < len(arr):
            want.append(arr[idx] / L - t)
    assert _probe_delays(log, L, warmup, count, seed_) == want


@pytest.mark.parametrize("seed_", range(6))
def test_inlined_arrival_draws_are_expovariate(seed_):
    source = TrafficSource(0, ASYNC, rate_mbps=7.5 * (seed_ + 1), frame_bytes=100)
    L, horizon = 10 ** 9, 2000.0
    rng, lambd = random.Random(seed_), 1.0 / (100 * 8 / source.rate_mbps)
    t, want = rng.expovariate(lambd), []
    while t <= horizon:
        want.append(_first_tick(t, L))
        t += rng.expovariate(lambd)
    assert list(_arrival_ticks(source, horizon, seed_, L)) == want
    assert len(want) > 10


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
    assert tuple(nrzi_levels(bits, "high")) == ref_nrzi(bits, 1)
    assert nrzi_encode(iter(bits)).levels == ref_nrzi(bits, 0)
    levels = mlt3_encode(bits).levels
    assert levels == ref_mlt3(bits)
    for start in (-1, 0, 1):
        assert transition_count(mlt3_encode(bits), start) == ref_transitions(levels, start)


TABLE = default_code_table()
BY_NIBBLE = {int(s.meaning, 16): s for s in TABLE.symbols if s.kind == "data"}
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
    assert symbols == [BY_NIBBLE[v] for v in nibbles]
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


def test_decode_reads_a_data_symbol_of_another_table_by_its_code():
    foreign = [Symbol4b5b(code=s.code, kind="data", meaning="F") for s in BY_NIBBLE.values()]
    assert decode_4b5b(foreign) == list(BY_NIBBLE)


def run_codec(argv, text):
    """``fddilab codec`` on a file holding text: (exit code, --out text or
    None when nothing was written, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "in.txt"), Path(tmp, "out.txt")
        src.write_text(text)
        err = io.StringIO()
        with redirect_stderr(err):
            code = dispatch(["codec", *argv, "--in", str(src), "--out", str(out)])
        return code, out.read_text() if out.exists() else None, err.getvalue()


def rendered(render):
    """The same run rendered through the public API."""
    try:
        return 0, render() + "\n", ""
    except InputError as exc:
        return 1, None, f"error: {exc.tag}: {exc}\n"


def wrapped(digits, width):
    return "\n".join(digits[i:i + width] for i in range(0, len(digits), width)) + "\n"


@settings(max_examples=60, deadline=None)
@given(nibbles=st.lists(st.integers(0, 15), max_size=120),
       bad=st.lists(st.tuples(st.integers(0, 120), st.sampled_from(CODES)), max_size=3),
       width=st.integers(1, 80), upper=st.booleans())
@example(nibbles=[], bad=[], width=1, upper=False)
@example(nibbles=[1, 2, 3], bad=[(1, "00111"), (2, "00001")], width=7, upper=True)
@example(nibbles=[1, 2, 3], bad=[(3, "00001"), (1, "11110")], width=64, upper=False)
def test_codec_runs_match_the_public_api(nibbles, bad, width, upper):
    """Each codec run prints what the public records render to, and a decode
    stream with a control or unmapped pattern fails with the same line."""
    symbols = encode_4b5b(nibbles)
    hex_text = "".join(f"{v:X}" if upper else f"{v:x}" for v in nibbles)
    assert run_codec(["4b5b"], wrapped(hex_text, width)) == rendered(
        lambda: "".join(s.code for s in symbols))
    patterns = [s.code for s in symbols]
    for pos, code in bad:   # any 5-bit pattern: data, control or unmapped
        patterns.insert(min(pos, len(patterns)), code)
    bits = [int(c) for c in "".join(patterns)]
    text = wrapped("".join(patterns), width)
    assert run_codec(["4b5b", "--decode"], text) == rendered(
        lambda: "".join(f"{v:X}" for v in decode_4b5b(bits_to_patterns(bits))))
    for level in ("low", "high"):
        assert run_codec(["nrzi", "--initial-level", level], text) == rendered(
            lambda: "".join(map(str, nrzi_levels(bits, level))))
    assert run_codec(["mlt3"], text) == rendered(
        lambda: "".join("-0+"[v + 1] for v in mlt3_encode(bits).levels))


REF_PERIOD = ref_keystream(PERIOD)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(EDGE_LENGTHS[:-2]) | st.integers(min_value=0, max_value=700),
       density=densities, rng_seed=seeds)
def test_scramble_from_the_seed_at_edge_lengths(n, density, rng_seed):
    check_scramble(dense_bits(rng_seed, n, density))


@settings(max_examples=10, deadline=None)
@given(n=st.sampled_from(EDGE_LENGTHS[-2:]), density=densities, rng_seed=seeds)
def test_scramble_on_long_frames(n, density, rng_seed):
    check_scramble(dense_bits(rng_seed, n, density))


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
            return 0.0 if p == 1 else FDDI_CODE_BIT_RATE_BPS / p
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
    signal = LineSignal(levels=tuple(levels))
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


@settings(max_examples=200, deadline=None)
@given(codes=st.permutations(CODES).flatmap(lambda p: st.integers(16, 32).map(lambda k: p[:k])))
def test_match_equals_window_search_on_random_data_tables(codes):
    """Data symbols 0-F at 16 random distinct codes, then random control
    symbols: the witness names data and control symbols alike."""
    data = [Symbol4b5b(code=c, kind="data", meaning=f"{i:X}") for i, c in enumerate(codes[:16])]
    check_match(CodeTable([*data, *control_table(codes[16:]).symbols], version="random"))


# --- FDDI-II byte runs against the per-byte first-fit allocator ---------------

def ref_allocate(wbc_modes, channel_requests):
    """First fit one byte at a time: each channel's (wbc, offset) positions."""
    iso = [i for i, m in enumerate(wbc_modes) if m == fddi2.ISOCHRONOUS]
    if any(count < 0 for _, count in channel_requests):
        raise ValueError("negative byte count")
    if sum(count for _, count in channel_requests) > len(iso) * fddi2.WBC_BYTES:
        raise fddi2.CapacityExceededError("capacity")
    free = iter([(w, b) for w in iso for b in range(fddi2.WBC_BYTES)])
    return [(name, tuple(next(free) for _ in range(count)))
            for name, count in channel_requests]


def expand(runs):
    return tuple((wbc, offset) for wbc, first, count in runs
                 for offset in range(first, first + count))


@st.composite
def fddi2_plans(draw):
    """Random modes and requests: zero-byte requests, repeated channel names,
    and one time in three a last request that fills the capacity exactly."""
    modes = draw(st.lists(st.sampled_from([fddi2.ISOCHRONOUS, fddi2.PACKET]),
                          min_size=16, max_size=16))
    capacity = modes.count(fddi2.ISOCHRONOUS) * fddi2.WBC_BYTES
    requests = draw(st.lists(st.tuples(st.sampled_from(["a", "b", "tv", "ψ"]),
                                       st.integers(0, 2 * fddi2.WBC_BYTES + 5)), max_size=12))
    left = capacity - sum(count for _, count in requests)
    if left >= 0 and draw(st.integers(0, 2)) == 0:
        requests.append(("fill", left))
    return modes, requests


@settings(max_examples=400, deadline=None)
@given(plan=fddi2_plans())
def test_allocation_runs_expand_to_the_per_byte_first_fit(plan):
    modes, requests = plan
    try:
        want = ref_allocate(modes, requests)
    except fddi2.CapacityExceededError:
        with pytest.raises(fddi2.CapacityExceededError):
            fddi2.allocate(modes, requests)
        return
    alloc = fddi2.allocate(modes, requests)
    assert [(name, expand(runs)) for name, runs in alloc.grants] == want
    for _, runs in alloc.grants:
        assert len({wbc for wbc, _, _ in runs}) == len(runs)   # one run per WBC
        assert all(count > 0 and first + count <= fddi2.WBC_BYTES for _, first, count in runs)
    assert alloc.isochronous_capacity_bytes + alloc.packet_pool_bytes == 16 * fddi2.WBC_BYTES


def test_allocation_at_full_capacity_and_with_zero_byte_requests():
    modes = [fddi2.PACKET] * 15 + [fddi2.ISOCHRONOUS]
    requests = [("a", 0), ("b", 96), ("a", 0)]
    assert fddi2.allocate(modes, requests).grants == (("a", ()), ("b", ((15, 0, 96),)), ("a", ()))
    modes = [fddi2.ISOCHRONOUS] * 16
    alloc = fddi2.allocate(modes, [("x", 95), ("x", 16 * 96 - 95)])
    assert [(name, expand(runs)) for name, runs in alloc.grants] == ref_allocate(
        modes, [("x", 95), ("x", 16 * 96 - 95)])


# --- link checks against the per-link functions they replaced -----------------

def ref_resolve(media):
    if isinstance(media, MediaSpec):
        return media
    spec = default_media_table().get(media)
    if spec is None:
        raise UnknownMediaError(f"unknown medium {media!r}")
    return spec


def ref_power_budget(media):
    spec = ref_resolve(media)
    if not spec.optical:
        raise NotOpticalError(f"{spec.name} has no optical power ranges")
    if spec.budget_db is not None:
        return spec.budget_db
    tx_min = spec.tx_power_dbm[0]
    rx_min = spec.rx_power_dbm[0]
    if tx_min is None or rx_min is None:
        raise NotOpticalError(f"{spec.name} publishes no usable power ranges")
    return tx_min - rx_min


def ref_validate_link(link):
    """Every limit of the medium looked up again for each link."""
    spec = ref_resolve(link.media)
    rules = []
    warnings = []
    if spec.status != "standard":
        warnings.append(Violation("NonStandardMedia", f"{spec.name} is a rejected alternative"))
    if spec.max_length_m is not None and link.length_m > spec.max_length_m:
        rules.append(Violation("LengthExceeded", f"{link.length_m:g} m > {spec.max_length_m:g} m"))
    allowed = computed = margin = None
    if spec.optical:
        try:
            allowed = ref_power_budget(spec)
        except NotOpticalError:
            allowed = None
        if allowed is not None and spec.attenuation_db_per_km is not None:
            computed = (spec.attenuation_db_per_km * link.length_m / 1000.0
                        + sum(link.connector_losses_db))
            margin = allowed - computed
            if margin < 0:
                rules.append(Violation("BudgetExceeded", f"loss {computed:g} dB > {allowed:g} dB"))
    return BudgetReport(link=link, allowed_loss_db=allowed, computed_loss_db=computed,
                        margin_db=margin, verdict="fail" if rules else "pass",
                        violated_rules=tuple(rules), warnings=tuple(warnings))


def ref_validate_ring(links, n_stations):
    reports = tuple(ref_validate_link(link) for link in links)
    total_km = sum(link.length_m for link in links) / 1000.0
    ring_rules = tuple(ring_limits(n_stations, total_km))
    ok = not ring_rules and all(r.verdict == "pass" for r in reports)
    return RingReport(links=reports, ring_rules=ring_rules, verdict="pass" if ok else "fail")


def ref_load_ring_file(path):
    """Every count through ``whole`` and every length through ``float``."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = []
    for entry in doc.get("links", []):
        losses = entry.get("connector_losses_db")
        if losses is None:
            losses = (CONNECTOR_LOSS_DB,) * whole(entry.get("connectors", 0))
        out.append(LinkSpec(entry["media"], float(entry["length_m"]), tuple(losses)))
    return out, whole(doc.get("stations", 0))


def assert_same_ring_reports(got, want):
    """Field by field; floats compare with ==."""
    assert len(got.links) == len(want.links)
    for i, (a, b) in enumerate(zip(got.links, want.links)):
        for field in BudgetReport._fields:
            assert getattr(a, field) == getattr(b, field), (i, field)
    assert got.ring_rules == want.ring_rules
    assert got.verdict == want.verdict


lengths_m = (st.floats(0.5, 80_000, allow_nan=False) | st.integers(1, 80_000)
             | st.sampled_from([50, 100, 500, 2000, 40000, 500.0, 2000.5]))
losses_db = st.lists(st.floats(0, 4) | st.integers(0, 3), max_size=4)


@st.composite
def ring_plans(draw):
    """A ring plan file's object over every shipped medium."""
    links = []
    for _ in range(draw(st.integers(0, 12))):
        entry = {"media": draw(st.sampled_from(sorted(default_media_table()))),
                 "length_m": draw(lengths_m)}
        losses = draw(st.none() | st.just("count") | losses_db)
        if losses == "count":
            entry["connectors"] = draw(st.integers(0, 40) | st.sampled_from([1.0, 3.0]))
        elif losses is not None:
            entry["connector_losses_db"] = losses
        links.append(entry)
    return {"stations": draw(st.integers(0, 600)), "links": links}


@settings(max_examples=300, deadline=None)
@given(plan=ring_plans())
def test_validate_ring_on_a_loaded_plan_matches_the_per_link_functions(plan):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/ring.json"
        Path(path).write_text(json.dumps(plan), encoding="utf-8")
        loaded = load_ring_file(path)
        want_links, want_stations = ref_load_ring_file(path)
    assert loaded == (want_links, want_stations)
    assert_same_ring_reports(validate_ring(*loaded), ref_validate_ring(want_links, want_stations))


maybe_db = st.none() | st.floats(-60, 60)
media_specs = st.builds(
    MediaSpec, name=st.sampled_from(["A", "B,c", "LCF"]),
    kind=st.sampled_from(["optical", "copper", "carrier"]),
    wavelength_nm=st.none() | st.sampled_from([850, 1300]),
    tx_power_dbm=st.tuples(maybe_db, maybe_db), rx_power_dbm=st.tuples(maybe_db, maybe_db),
    budget_db=maybe_db, max_length_m=st.none() | st.floats(1, 50_000),
    attenuation_db_per_km=st.none() | st.floats(0, 20),
    tx_rise_fall_ns=st.none(), rx_rise_fall_tol_ns=st.none(),
    status=st.sampled_from(["standard", "rejected", "proposed"]))


@settings(max_examples=300, deadline=None)
@given(links=st.lists(st.tuples(media_specs | st.sampled_from(sorted(default_media_table())),
                                lengths_m, losses_db), max_size=8),
       stations=st.integers(0, 600))
def test_validate_ring_on_media_records_matches_the_per_link_functions(links, stations):
    links = [LinkSpec(media, length, tuple(losses)) for media, length, losses in links]
    assert_same_ring_reports(validate_ring(links, stations), ref_validate_ring(links, stations))


# --- the report renderer against the encoders it replaced ----------------------

def ref_cell(value):
    if value is None:
        return ""
    if isinstance(value, (float, Fraction)):
        return format(float(value), ".9g")
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def ref_emit_report(rows, columns, fmt):
    """json.dumps with indent=2 (CPython's pure-Python encoder), or one
    quote test per cell."""
    if fmt == JSON:
        payload = [dict(zip(columns, row)) for row in rows]
        return json.dumps(payload, indent=2, default=float) + "\n"
    lines = [columns] + [[ref_cell(value) for value in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


# report text: CSV and JSON specials, % templates, escapes, non-ASCII and
# astral characters
report_text = (st.text(st.sampled_from(list(',"\n\r\t ab{}[]:\\%sé€ψ\u2028\x00😀')),
                       max_size=8)
               | st.text(max_size=8))
report_values = st.one_of(
    report_text, st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300]),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6))


@st.composite
def reports(draw):
    # a few short names, so a name often repeats: as a dict key it keeps its
    # first place and its last cell
    columns = draw(st.lists(report_text | st.sampled_from(["a", "%", "%s", ""]),
                            min_size=1, max_size=5))
    rows = draw(st.lists(st.lists(report_values, min_size=len(columns),
                                  max_size=len(columns)).map(tuple), max_size=6))
    return rows, columns


@settings(max_examples=500, deadline=None)
@given(report=reports(), fmt=st.sampled_from([CSV, JSON]))
def test_emit_report_matches_the_encoders_it_replaced(report, fmt):
    rows, columns = report
    # a handler passes float(x) for an exact x: the old encoders' bytes for x
    cells = [tuple(float(v) if isinstance(v, Fraction) else v for v in row) for row in rows]
    assert emit_report(cells, columns, fmt) == ref_emit_report(rows, columns, fmt)


@pytest.mark.parametrize("fmt", [CSV, JSON])
@pytest.mark.parametrize("columns", [["metric"], ["a", "b,c", "d"]])
def test_emit_report_of_no_rows_matches_the_encoders_it_replaced(fmt, columns):
    assert emit_report([], columns, fmt) == ref_emit_report([], columns, fmt)


# --- the manifest renderer against json.dumps ----------------------------------

manifest_scalars = st.one_of(
    report_text, st.text(), st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True))
flat_dicts = st.dictionaries(report_text | st.text(), manifest_scalars, max_size=6)


@settings(max_examples=500, deadline=None)
@given(manifest=st.fixed_dictionaries({
    "subcommand": manifest_scalars, "parameters": flat_dicts, "inputs": flat_dicts,
    "seed": manifest_scalars, "artifact_version": manifest_scalars}))
@example(manifest={"subcommand": "rates", "parameters": {}, "inputs": {}, "seed": 0,
                   "artifact_version": "0.1.0"})
@example(manifest={"subcommand": "plan", "parameters": {"format": "csv", "level": None},
                   "inputs": {"ring é.json": "ab", "-": None}, "seed": -1,
                   "artifact_version": "0.1.0"})
def test_manifest_text_matches_json_dumps(manifest):
    assert _manifest_text(manifest) == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


# --- the in-place file writer ------------------------------------------------

@st.composite
def rewrites(draw):
    """(old file bytes, new text): the old file empty, shorter than the new
    bytes, of equal length or longer."""
    text = draw(report_text | st.lists(st.sampled_from(["\r\n", "\x00", " ", "é", "😀", "a"]),
                                       max_size=12).map("".join))
    size = len(text.encode("utf-8"))
    old_size = draw(st.sampled_from([0, size, size + 1]) | st.integers(0, size)
                    | st.integers(size, 4 * size + 64))
    return draw(st.binary(min_size=old_size, max_size=old_size)), text


@settings(max_examples=300, deadline=None)
@given(rewrite=rewrites())
def test_write_leaves_exactly_the_utf8_bytes_of_the_text(rewrite):
    old, text = rewrite
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        path.write_bytes(old)
        _write(text, str(path))
        assert path.read_bytes() == text.encode("utf-8")
