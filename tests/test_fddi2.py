"""Unit tests for FDDI-II cycle accounting and WBC allocation."""

import itertools

import pytest

from fddilab import fddi2
from fddilab.fddi2 import (
    FDDI,
    FDDI2,
    ISOCHRONOUS,
    PACKET,
    CapacityExceededError,
    StationKind,
    allocate,
    bytes_per_cycle_to_kbps,
    can_enter_hybrid,
    wbc_bandwidth_kbps,
    wbc_bandwidth_mbps,
)


def modes(packet_indices=()):
    return [PACKET if i in packet_indices else ISOCHRONOUS for i in range(16)]


def byte_slots(alloc, channel):
    """The channel's granted (wbc, offset) positions, expanded from its runs."""
    return [(wbc, offset) for name, runs in alloc.grants if name == channel
            for wbc, first, count in runs for offset in range(first, first + count)]


# --- cycle arithmetic --------------------------------------------------------

def test_wbc_bandwidth_exact():
    assert wbc_bandwidth_kbps() == 6144
    assert wbc_bandwidth_mbps() == 6.144
    assert 16 * wbc_bandwidth_mbps() == 98.304


def test_wbc_carries_96_voice_circuits():   # one byte a cycle is one 64 kbps PCM circuit
    assert bytes_per_cycle_to_kbps(1) == 64
    assert wbc_bandwidth_kbps() == 96 * 64


def test_cycle_byte_accounting():
    assert fddi2.WBC_COUNT * fddi2.WBC_BYTES + fddi2.CYCLE_HEADER_BYTES == 1560
    assert fddi2.CYCLE_PREAMBLE_BYTES + fddi2.CYCLE_BODY_BYTES == 1562
    # 1562.5 bytes fit in 125 us at 100 Mbps; the half byte is 4 slack bits
    assert fddi2.CYCLE_TOTAL_BYTES * 8 + fddi2.SLACK_BITS == 12_500
    assert fddi2.SLACK_BITS == 4


def test_bytes_per_cycle_to_kbps():
    assert bytes_per_cycle_to_kbps(2) == 128  # two owned bytes per cycle
    assert bytes_per_cycle_to_kbps(96) == 6144
    assert type(bytes_per_cycle_to_kbps(3)) is int   # exact: 64 kbps per byte


# --- hybrid-mode eligibility ---------------------------------------------------

def test_hybrid_all_fddi2():
    ring = [StationKind(i, FDDI2) for i in range(5)]
    assert can_enter_hybrid(ring) is True


def test_hybrid_single_station():
    assert can_enter_hybrid([StationKind(0, FDDI2)]) is True


def test_hybrid_blocked_by_one_basic_station():
    ring = [StationKind(i, FDDI2) for i in range(5)] + [StationKind(5, FDDI)]
    assert can_enter_hybrid(ring) is False


def test_hybrid_empty_ring_rejected():
    with pytest.raises(ValueError):
        can_enter_hybrid([])


def test_hybrid_eligibility_monotone():
    for size in range(1, 6):
        for kinds in itertools.product((FDDI, FDDI2), repeat=size):
            ring = [StationKind(i, k) for i, k in enumerate(kinds)]
            before = can_enter_hybrid(ring)
            after = can_enter_hybrid(ring + [StationKind(size, FDDI)])
            assert not (before is False and after is True)
            assert after is False


# --- allocation ----------------------------------------------------------------

def test_allocation_iso_capacity_with_three_packet_wbcs():
    # WBCs 1, 5, 7 (1-based) carrying packet traffic leaves 13 x 96 bytes
    alloc = allocate(modes(packet_indices={0, 4, 6}), [])
    assert alloc.isochronous_capacity_bytes == 13 * 96 == 1248
    assert alloc.packet_pool_bytes == 3 * 96


def test_allocation_all_packet_rejects_isochronous_requests():
    all_packet = modes(packet_indices=range(16))
    alloc = allocate(all_packet, [])
    assert alloc.isochronous_capacity_bytes == 0
    assert alloc.packet_pool_bytes == 16 * 96
    with pytest.raises(CapacityExceededError):
        allocate(all_packet, [("x", 1)])


def test_allocation_all_isochronous_permitted():
    alloc = allocate(modes(), [("big", 16 * 96)])
    assert alloc.isochronous_capacity_bytes == 16 * 96
    assert dict(alloc.grants)["big"] == tuple((wbc, 0, 96) for wbc in range(16))
    assert len(byte_slots(alloc, "big")) == 16 * 96


def test_two_byte_channel_is_128_kbps():
    alloc = allocate(modes(packet_indices={0}), [("voice", 2)])
    assert alloc.grants == (("voice", ((1, 0, 2),)),)
    slots = byte_slots(alloc, "voice")
    assert len(slots) == 2
    assert bytes_per_cycle_to_kbps(len(slots)) == 128


def test_grants_are_disjoint():
    alloc = allocate(modes(packet_indices={2}),
                     [("a", 100), ("b", 57), ("c", 96)])
    all_slots = [s for name in "abc" for s in byte_slots(alloc, name)]
    assert len(all_slots) == len(set(all_slots)) == 253
    for wbc, _offset in all_slots:
        assert alloc.wbc_modes[wbc] == ISOCHRONOUS


def test_grants_are_runs_that_skip_packet_wbcs():
    alloc = allocate(modes(packet_indices={1}), [("a", 100), ("b", 57), ("c", 96)])
    assert alloc.grants == (("a", ((0, 0, 96), (2, 0, 4))), ("b", ((2, 4, 57),)),
                            ("c", ((2, 61, 35), (3, 0, 61))))


def test_mode_toggle_shifts_96_bytes():
    base = allocate(modes(packet_indices={0}), [])
    toggled = allocate(modes(packet_indices={0, 9}), [])
    assert base.packet_pool_bytes + 96 == toggled.packet_pool_bytes
    assert base.isochronous_capacity_bytes - 96 == toggled.isochronous_capacity_bytes


def test_allocate_validates_modes():
    with pytest.raises(ValueError):
        allocate([ISOCHRONOUS] * 15, [])
    with pytest.raises(ValueError):
        allocate([ISOCHRONOUS] * 15 + ["video"], [])
    with pytest.raises(ValueError):
        allocate(modes(), [("neg", -1)])

