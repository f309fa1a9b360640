"""Unit tests for the SONET hierarchy and the SPE payload mapping."""

import random
import re
from fractions import Fraction

import pytest

from fddilab import scrambler
from fddilab.phy_codec import default_code_table, symbols_to_bits
from fddilab.spm import (
    FIXED_STUFF,
    PATH_OVERHEAD,
    STUFF_CONTROL,
    USER_DATA,
    UnknownLevelError,
    build_spe_layout,
    extract_fddi,
    frame_bits,
    kbps_to_mbps_str,
    map_fddi,
    rate_table,
    spe_arithmetic_report,
    spe_bandwidth,
    spe_bandwidth_recomputed,
    sts_rates,
)

GOLDEN_ROWS = [
    # sts, oc, stm, line Mbps, payload Mbps
    (1, "OC-1", None, "51.84", "50.112"),
    (3, "OC-3", "STM-1", "155.52", "150.336"),
    (9, "OC-9", "STM-3", "466.56", "451.008"),
    (12, "OC-12", "STM-4", "622.08", "601.344"),
    (18, "OC-18", "STM-6", "933.12", "902.016"),
    (24, "OC-24", "STM-8", "1244.16", "1202.688"),
    (36, "OC-36", "STM-12", "1866.24", "1804.032"),
    (48, "OC-48", "STM-16", "2488.32", "2405.376"),
    (96, "OC-96", "STM-32", "4976.64", "4810.176"),
    (192, "OC-192", "STM-64", "9953.28", "9620.928"),
]


def test_hierarchy_matches_golden_rows():
    table = rate_table()
    assert len(table) == len(GOLDEN_ROWS)
    for entry, (n, oc, stm, line, payload) in zip(table, GOLDEN_ROWS):
        assert entry.sts_level == n
        assert entry.oc == oc
        assert entry.stm == stm
        assert kbps_to_mbps_str(entry.line_rate_kbps) == line
        assert kbps_to_mbps_str(entry.payload_rate_kbps) == payload


def test_line_rate_scales_exactly():
    for entry in rate_table():
        # exact integer arithmetic: line rate / N = 51.84 Mbps, no drift
        assert entry.line_rate_kbps == entry.sts_level * 51_840
        assert entry.payload_rate_kbps < entry.line_rate_kbps


def test_unknown_level():
    with pytest.raises(UnknownLevelError):
        sts_rates(2)
    with pytest.raises(UnknownLevelError):
        sts_rates(0)


def test_spe_bandwidth_figures():
    assert spe_bandwidth() == 139.264
    assert spe_bandwidth() > 125  # the FDDI code-bit stream fits
    assert spe_bandwidth_recomputed() == Fraction(2349 * 8, 125)
    assert float(spe_bandwidth_recomputed()) == 150.336


def test_spe_arithmetic_discrepancy_is_flagged():
    report = spe_arithmetic_report()
    assert report["consistent"] is False
    assert report["published_implies_bytes"] == 2176.0
    assert report["byte_shortfall"] == 173.0
    assert report["exceeds_fddi_code_rate"] is True


def test_layout_overhead_and_runs():
    layout = build_spe_layout()
    tags = layout.classification
    assert len(tags) == 2349
    assert sum(1 for t in tags if t == PATH_OVERHEAD) == 9
    runs = layout.byte_runs()
    assert max(runs) == 17
    # every maximal 17-byte run carries a stuff-control byte
    idx = 0
    run = []
    for tag in tags + (FIXED_STUFF,):
        if tag in (USER_DATA, STUFF_CONTROL):
            run.append(tag)
        else:
            if len(run) >= 17:
                assert STUFF_CONTROL in run
            run = []


def test_layout_capacity():
    layout = build_spe_layout()
    assert layout.capacity_bits == 17586
    assert layout.capacity_bits >= 15625  # 125 Mbps x 125 us


def test_layout_user_bits_are_261_runs():
    layout = build_spe_layout()
    fields = re.findall(r"(\d+)([sx])", layout.frame.format)
    assert [kind for _, kind in fields] == ["x", "s"] * 261
    assert layout.user.format == "".join(n + "s" for n, kind in fields if kind == "s")
    assert layout.frame.size == 2349 * 8
    # fixed bits are padding: they pack as zero bytes whatever the user bits
    ones = layout.frame.pack(*layout.user.unpack(b"\1" * layout.user.size))
    assert ones.count(b"\1") == layout.user.size and ones.count(b"\0") == 2349 * 8 - 17586
    assert build_spe_layout() is layout


def test_map_empty_is_zero_frames():
    assert map_fddi([]) == []


def test_single_full_frame():
    layout = build_spe_layout()
    bits = [1] * layout.capacity_bits
    frames = map_fddi(bits, layout)
    assert len(frames) == 1
    assert frames[0].user_bits_filled == layout.capacity_bits


def test_map_extract_round_trip():
    layout = build_spe_layout()
    rng = random.Random(17)
    for size in (0, 1, 1000, layout.capacity_bits, layout.capacity_bits + 1,
                 3 * layout.capacity_bits + 12345):
        bits = [rng.randrange(2) for _ in range(size)]
        assert extract_fddi(map_fddi(bits, layout), layout) == bits


def test_post_scramble_run_safety():
    # a worst-ish 4b/5b stream: random valid symbols, mapped then scrambled
    layout = build_spe_layout()
    table = default_code_table()
    rng = random.Random(23)
    symbols = [table.symbols[rng.randrange(len(table.symbols))]
               for _ in range(4000)]
    frames = map_fddi(symbols_to_bits(symbols), layout)
    worst = 0
    for frame in frames:
        out = scrambler.scramble(frame_bits(frame))
        run = best = 1
        for a, b in zip(out, out[1:]):
            run = run + 1 if a == b else 1
            best = max(best, run)
        worst = max(worst, best)
    assert worst <= 17 * 8 + 16


def test_kbps_formatting_exact():
    assert kbps_to_mbps_str(51_840) == "51.84"
    assert kbps_to_mbps_str(50_112) == "50.112"
    assert kbps_to_mbps_str(9_620_928) == "9620.928"
    assert kbps_to_mbps_str(6_144) == "6.144"
    assert kbps_to_mbps_str(125_000) == "125"
