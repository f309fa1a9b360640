"""FDDI-II hybrid-mode cycle accounting and wideband-channel allocation.

Every 125 us the ring carries one cycle: 2 preamble bytes plus a
1560-byte body split into 16 wideband channels (WBCs) of 96 bytes and a
24-byte header kept opaque here. At 100 Mbps a 125 us slot holds 1562.5
bytes; the half byte not covered by preamble+body is tracked explicitly
as 4 slack bits rather than silently absorbed.

A WBC is assigned wholly to isochronous or packet mode. Isochronous
channels own fixed byte positions of every cycle (owned bytes are wasted
when idle, never reused); packet-mode WBCs pool their bytes for the
basic token MAC, which behaves exactly as the plain FDDI MAC simulated
in mac_sim.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import InputError, read_input, record, shown

CYCLE_US = 125
CYCLE_PREAMBLE_BYTES = 2
CYCLE_BODY_BYTES = 1560
WBC_COUNT = 16
WBC_BYTES = 96
CYCLE_HEADER_BYTES = CYCLE_BODY_BYTES - WBC_COUNT * WBC_BYTES   # 24
CYCLE_TOTAL_BYTES = CYCLE_PREAMBLE_BYTES + CYCLE_BODY_BYTES     # 1562
SLACK_BITS = 4   # 1562.5 bytes fit in 125 us at 100 Mbps; 0.5 byte spare

ISOCHRONOUS = "isochronous"
PACKET = "packet"

FDDI = "fddi"
FDDI2 = "fddi2"


class CapacityExceededError(InputError):
    """Isochronous requests exceed the isochronous WBC bytes."""

    tag = "capacity-exceeded"


def wbc_bandwidth_kbps() -> int:
    """One WBC: 96 bytes per 125 us, exactly 6144 kbps."""
    return bytes_per_cycle_to_kbps(WBC_BYTES)


def wbc_bandwidth_mbps() -> float:
    return wbc_bandwidth_kbps() / 1000


def bytes_per_cycle_to_kbps(n_bytes: int) -> int:
    """n owned bytes per cycle = n * 8 bits / 125 us, in kbps: exactly 64 per byte."""
    return n_bytes * 8 * 1000 // CYCLE_US


@record
class StationKind:
    station_id: int
    kind: str  # FDDI | FDDI2


def can_enter_hybrid(stations: Sequence[StationKind]) -> bool:
    """Hybrid mode needs every station on the ring to be FDDI-II."""
    if not stations:
        raise ValueError("empty ring")
    return all(s.kind == FDDI2 for s in stations)


def _check_modes(wbc_modes: Sequence[str]) -> tuple[str, ...]:
    modes = tuple(wbc_modes)
    if len(modes) != WBC_COUNT:
        raise ValueError(f"need {WBC_COUNT} WBC modes, got {len(modes)}")
    for m in modes:
        if m not in (ISOCHRONOUS, PACKET):
            raise ValueError(f"unknown WBC mode {m!r}")
    return modes


@record
class Allocation:
    """Granted isochronous byte runs plus the packet-mode pool."""

    wbc_modes: tuple[str, ...]
    # (channel, ((wbc, first offset, count), ...)), one run per WBC reached
    grants: tuple[tuple[str, tuple[tuple[int, int, int], ...]], ...]
    isochronous_capacity_bytes: int
    packet_pool_bytes: int


def allocate(wbc_modes: Sequence[str],
             channel_requests: Sequence[tuple[str, int]]) -> Allocation:
    """First-fit byte-position assignment inside isochronous WBCs.

    Positions are (wbc index 0..15, byte offset 0..95) and are reserved:
    an idle owner's bytes stay unused. A channel gets the next free
    positions, one run (wbc, first offset, count) per WBC it reaches.
    Packet-mode WBCs contribute their full 96 bytes to the pooled
    basic-mode capacity instead.
    """
    modes = _check_modes(wbc_modes)
    iso_wbcs = [i for i, m in enumerate(modes) if m == ISOCHRONOUS]
    capacity = len(iso_wbcs) * WBC_BYTES
    requested = 0
    for name, count in channel_requests:
        if count < 0:
            raise ValueError(f"negative byte count for channel {name!r}")
        requested += count
    if requested > capacity:
        raise CapacityExceededError(
            f"requested {requested} isochronous bytes/cycle, "
            f"only {capacity} available")
    grants = []
    start = 0   # the first free byte, counted through the isochronous WBCs
    for name, count in channel_requests:
        runs, end = [], start + count
        while start < end:
            index, first = divmod(start, WBC_BYTES)
            runs.append((iso_wbcs[index], first, min(end - start, WBC_BYTES - first)))
            start += runs[-1][2]
        grants.append((name, tuple(runs)))
    return Allocation(
        wbc_modes=modes,
        grants=tuple(grants),
        isochronous_capacity_bytes=capacity,
        packet_pool_bytes=(WBC_COUNT - len(iso_wbcs)) * WBC_BYTES,
    )


def load_requests_file(path: str) -> list[tuple[str, int]]:
    """Read a requests file: one 'channel bytes' pair per line, '#'
    comments. A malformed line raises InputError tagged bad-requests."""
    requests = []
    for lineno, raw in enumerate(read_input(path, "bad-requests").split("\n"), 1):
        fields = raw.split("#", 1)[0].split()
        if len(fields) == 2 and fields[1].isdecimal():
            try:
                requests.append((fields[0], int(fields[1])))
                continue
            except ValueError:   # more digits than int() reads (4300 by default)
                pass
        if fields:
            raise InputError(f"line {lineno}: need 'channel bytes', got {shown(raw.strip())}",
                             "bad-requests", path)
    return requests
