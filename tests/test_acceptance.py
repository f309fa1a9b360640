"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances. Each test prints a single PASS line on success (run with
``pytest -v`` or ``-s`` to see them); a failing criterion fails its test.
"""

import itertools
import random
import time

import pytest

from fddilab import fddi2, link_planner, mac_sim, phy_codec, scrambler, spm
from fddilab.cli import dispatch


def passed(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


# -- 1. efficiency formula reproduction --------------------------------------

EFFICIENCY_GRID = [(n, ratio) for n in (2, 10, 50) for ratio in (1.5, 4, 10)]


@pytest.mark.parametrize("n,ratio", EFFICIENCY_GRID)
def test_criterion_1_efficiency_formula(n, ratio):
    d = 1000
    t = int(d * ratio)
    started = time.monotonic()
    cfg = mac_sim.RingConfig.make(n, d, t)
    load = mac_sim.saturated_async_load(range(n), frame_bytes=100)
    duration = 600 * (t + d // n)
    metrics = mac_sim.run_simulation(cfg, load, duration_us=duration, seed=1)
    elapsed = time.monotonic() - started
    expected = mac_sim.theoretical_efficiency(n, t, d)
    rel_err = abs(metrics.throughput - expected) / expected
    assert rel_err < 0.02, f"simulated {metrics.throughput} vs {expected}"
    assert elapsed < 30, f"run took {elapsed:.1f} s"
    passed(1, f"n={n} T/D={ratio}: throughput {metrics.throughput:.4f} vs "
              f"n(T-D)/(nT+D)={expected:.4f}, err {rel_err:.2%}, {elapsed:.1f}s")


# -- 2. zero-load access delay -------------------------------------------------

def test_criterion_2_zero_load_access_delay():
    d = 200
    cfg = mac_sim.RingConfig.make(5, d, 800)
    load = mac_sim.TrafficModel.make((), probe_count=10_000)
    metrics = mac_sim.run_simulation(cfg, load, duration_us=500_000, seed=7)
    assert len(metrics.probe_delays_us) >= 10_000
    mean = metrics.mean_access_delay_us
    assert abs(mean - d / 2) / (d / 2) < 0.05
    passed(2, f"mean access delay {mean:.2f} us vs D/2 = {d/2} us "
              f"over {len(metrics.probe_delays_us)} probes")


# -- 3. synchronous service bound ------------------------------------------------

def test_criterion_3_sync_gap_bound():
    rng = random.Random(2024)
    checked = 0
    for _ in range(20):
        n = rng.randrange(2, 9)
        d = rng.randrange(50, 500)
        t = d + rng.randrange(d, 4 * d)
        budget = (t - d) * 4 // 5
        allocs = []
        remaining = budget
        for _ in range(n):
            a = rng.randrange(0, max(1, remaining // 2 + 1))
            allocs.append(a)
            remaining -= a
        sources = [mac_sim.TrafficSource(i, mac_sim.SYNC,
                                         rng.uniform(1, 10),
                                         rng.choice([50, 100, 200]))
                   for i in range(n) if allocs[i] > 0]
        cfg = mac_sim.RingConfig.make(n, d, t, sync_allocation_us=allocs)
        metrics = mac_sim.run_simulation(cfg, mac_sim.TrafficModel.make(sources),
                                         duration_us=150 * t,
                                         seed=rng.randrange(100_000))
        if metrics.max_sync_gap_us is not None:
            assert metrics.max_sync_gap_us <= 2 * t, \
                f"gap {metrics.max_sync_gap_us} > 2T = {2 * t}"
            checked += 1
    assert checked >= 15
    passed(3, f"max inter-service gap <= 2T across {checked} random configs")


# -- 4. scrambler ------------------------------------------------------------------

def test_criterion_4_scrambler():
    # period exactly 127
    bits = scrambler.keystream(1200)
    assert all(bits[p] == bits[p + 127] for p in range(1000))
    assert not any(
        all(bits[i] == bits[i + p] for i in range(500))
        for p in range(1, 127))
    # involution on 1000 random frames
    rng = random.Random(41)
    for _ in range(1000):
        frame = [rng.randrange(2) for _ in range(rng.randrange(1, 200))]
        assert scrambler.scramble(scrambler.scramble(frame)) == frame
    # bit-for-bit match with the hand-stepped register oracle
    reg = [1] * 7
    oracle = []
    for _ in range(127):
        oracle.append(reg[6])
        reg = [reg[5] ^ reg[6]] + reg[:6]
    assert scrambler.sequence_127() == oracle
    passed(4, "period 127, involution on 1000 frames, sequence matches "
              "hand-stepped oracle bit-for-bit")


# -- 5. worst-case 4b5b match --------------------------------------------------------

def test_criterion_5_longest_valid_match():
    started = time.monotonic()
    report = scrambler.longest_valid_match(phy_codec.default_code_table())
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"analysis took {elapsed:.1f} s"
    # documented model (fragments at both ends) reproduces the 58-bit figure
    assert report.with_fragments.length_bits == 58
    # the whole-symbol model differs (58 is not a multiple of 5): both are
    # emitted; the discrepancy is documented in the module and the report
    assert report.whole_symbol.length_bits == 50
    assert report.whole_symbol.length_bits % 5 == 0
    # exhaustive self-consistency: a second pass returns identical results
    again = scrambler.longest_valid_match(phy_codec.default_code_table())
    assert again == report
    passed(5, f"with_fragments = 58 bits (offset {report.with_fragments.offset}, "
              f"{report.with_fragments.polarity}); whole_symbol = 50 bits; "
              f"{elapsed:.2f}s")


# -- 6. hierarchy table reproduction ---------------------------------------------------

TABLE_2 = """\
sts,oc,stm,line_mbps,payload_mbps
STS-1,OC-1,,51.84,50.112
STS-3,OC-3,STM-1,155.52,150.336
STS-9,OC-9,STM-3,466.56,451.008
STS-12,OC-12,STM-4,622.08,601.344
STS-18,OC-18,STM-6,933.12,902.016
STS-24,OC-24,STM-8,1244.16,1202.688
STS-36,OC-36,STM-12,1866.24,1804.032
STS-48,OC-48,STM-16,2488.32,2405.376
STS-96,OC-96,STM-32,4976.64,4810.176
STS-192,OC-192,STM-64,9953.28,9620.928
"""


def test_criterion_6_rate_table(capsys):
    code = dispatch(["rates"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == TABLE_2
    passed(6, "rates reproduces all 10 hierarchy rows exactly")


# -- 7. SPE constraints ------------------------------------------------------------------

def test_criterion_7_spe_constraints():
    layout = spm.build_spe_layout()
    tags = layout.classification
    runs = layout.user_runs
    assert max(runs) <= 17
    run = []
    for tag in tags + (spm.FIXED_STUFF,):
        if tag in (spm.USER_DATA, spm.STUFF_CONTROL):
            run.append(tag)
        else:
            if len(run) >= 17:
                assert spm.STUFF_CONTROL in run
            run = []
    # lossless round trip of a million random bits
    rng = random.Random(77)
    payload = [rng.randrange(2) for _ in range(1_000_000)]
    frames = spm.map_fddi(payload, layout)
    assert spm.extract_fddi(frames, layout) == payload
    passed(7, f"max user run {max(runs)} bytes, stuff-control in every "
              f"17-byte run, 10^6-bit round trip lossless over {len(frames)} frames")


# -- 8. FDDI-II arithmetic ------------------------------------------------------------------

def test_criterion_8_fddi2_arithmetic():
    assert fddi2.wbc_bandwidth_kbps() == 6144
    assert fddi2.wbc_bandwidth_mbps() == 6.144
    assert 16 * 96 + 24 + 2 == 1562
    assert fddi2.CYCLE_TOTAL_BYTES == 1562
    assert fddi2.SLACK_BITS == 4
    assert fddi2.CYCLE_TOTAL_BYTES * 8 + fddi2.SLACK_BITS == 12_500  # 125 us at 100 Mbps
    combos = 0
    for size in range(1, 9):
        for kinds in itertools.product((fddi2.FDDI, fddi2.FDDI2), repeat=size):
            ring = [fddi2.StationKind(i, k) for i, k in enumerate(kinds)]
            expected = all(k == fddi2.FDDI2 for k in kinds)
            assert fddi2.can_enter_hybrid(ring) is expected
            combos += 1
    passed(8, f"WBC = 6.144 Mbps exactly, 1562 bytes + 4 slack bits per cycle, "
              f"hybrid truth table exhaustive over {combos} rings")


# -- 9. link budgets ------------------------------------------------------------------------

def test_criterion_9_link_budgets():
    assert link_planner.power_budget("LCF") == 7.0
    assert link_planner.power_budget("MF") == 11.0
    cases = [("LCF", 500, "pass"), ("LCF", 501, "fail"),
             ("MF", 2000, "pass"), ("UTP", 50, "pass"),
             ("UTP", 51, "fail"), ("STP_COAX", 100, "pass")]
    for media, length, verdict in cases:
        report = link_planner.validate_link(link_planner.LinkSpec(media, length))
        assert report.verdict == verdict, (media, length)
    # low-cost fiber: any LCF end caps a 1300 nm link at 500 m, MF to MF runs 2 km
    pairings = [("LCF", "MF", 500, "pass"), ("MF", "LCF", 501, "fail"),
                ("MF", "MF", 2000, "pass"), ("MF", "MF", 2001, "fail")]
    for tx, rx, length, verdict in pairings:
        assert link_planner.mixed_ends_check(tx, rx, length).verdict == verdict, (tx, rx, length)
    assert link_planner.mixed_ends_check("LCF", "MF", 100).allowed_loss_db == 9.0
    edges = list(itertools.product(("LCF", "MF"), repeat=2))
    assert all(link_planner.rise_fall_check(tx, rx) for tx, rx in edges)
    passed(9, "LCF 7 dB / MF 11 dB; boundary verdicts LCF 500/501, MF 2000, "
              "UTP 50/51, STP 100 all correct; LCF/MF pairing 500/501 m, MF/MF "
              f"2000/2001 m, LCF-MF loss 9 dB; rise/fall passes all {len(edges)} LCF/MF pairings")


# -- 10. codec properties ----------------------------------------------------------------------

def test_criterion_10_codec_properties():
    table = phy_codec.default_code_table()
    nibbles = list(range(16))
    assert phy_codec.decode_4b5b(phy_codec.encode_4b5b(nibbles, table), table) == nibbles
    rng = random.Random(10)
    for _ in range(100_000):
        seq = [rng.randrange(16) for _ in range(rng.randrange(0, 9))]
        symbols = phy_codec.encode_4b5b(seq, table)
        assert phy_codec.decode_4b5b(symbols, table) == seq
    for _ in range(300):
        bits = [rng.randrange(2) for _ in range(rng.randrange(1, 120))]
        signal = phy_codec.nrzi_encode(bits)
        assert phy_codec.transition_count(signal, 0) == sum(bits)
    nrzi_f = phy_codec.fundamental_frequency(
        phy_codec.nrzi_encode([1] * 40))
    mlt3_f = phy_codec.fundamental_frequency(
        phy_codec.mlt3_encode([1] * 40))
    assert nrzi_f == 62.5e6 and mlt3_f == 31.25e6
    assert mlt3_f == nrzi_f / 2
    passed(10, "4b5b round trip (16 nibbles + 1e5 random sequences), NRZI "
               "transitions = popcount, MLT-3 fundamental = NRZI/2")


# -- 11. spatial reuse --------------------------------------------------------------------------

def test_criterion_11_spatial_reuse():
    n, d = 10, 100
    t = 60 * d
    dest = mac_sim.RingConfig.make(n, d, t, stripping="destination")
    src = mac_sim.RingConfig.make(n, d, t, stripping="source")
    pairs = [0, 2, 4, 6]
    agg_dest = mac_sim.spatial_reuse_throughput(dest, pairs)
    agg_src = mac_sim.spatial_reuse_throughput(src, pairs)
    assert agg_dest > 1.5 * agg_src, (agg_dest, agg_src)
    passed(11, f"destination stripping {agg_dest:.2f} vs source "
               f"{agg_src:.2f} aggregate ({agg_dest/agg_src:.1f}x)")
