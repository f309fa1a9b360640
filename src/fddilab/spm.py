"""SONET/SDH rate hierarchy and the FDDI-to-SONET payload mapping.

Rates are kept as exact integer kbps so the published hierarchy table
reproduces bit-exactly (STS-N line rate = N x 51840 kbps; the payload
rate column scales the same way from 50112 kbps).

The mapping side builds an STM-1 synchronous payload envelope layout
(9 rows x 261 columns = 2349 bytes per 125 us frame) whose per-byte
classification guarantees the anti-scrambler stuffing discipline: user
data never affects more than 17 contiguous bytes, and every 17-byte
stretch contains one stuff-control bit that the user cannot drive.
"""

from __future__ import annotations

import functools
import struct
from collections.abc import Iterable
from itertools import groupby

from . import InputError, record
from .phy_codec import bit_bytes, pack_bits, unpack_bits

SPE_ROWS = 9
SPE_COLS = 261
SPE_BYTES = SPE_ROWS * SPE_COLS            # 2349
FRAME_US = 125

STS1_LINE_KBPS = 51_840
STS_LEVELS = (1, 3, 9, 12, 18, 24, 36, 48, 96, 192)

# Published payload figures, kept verbatim. The STS-96 and STS-192 rows
# do not scale as N x 50.112 kbps (that would give 4810752 / 9621504);
# the hierarchy reproduces the published table, not the extrapolation.
PAYLOAD_KBPS = {
    1: 50_112,
    3: 150_336,
    9: 451_008,
    12: 601_344,
    18: 902_016,
    24: 1_202_688,
    36: 1_804_032,
    48: 2_405_376,
    96: 4_810_176,
    192: 9_620_928,
}

# Published payload figure for the STM-1 SPE available to the FDDI mapping.
# Note it does NOT equal 2349*8/125 = 150.336; it corresponds to 2176
# bytes per frame. The sonet-map report gives both numbers, in Mbps; an
# int / int division rounds once, so it equals float(Fraction(18792, 125)).
SPE_PUBLISHED_PAYLOAD_MBPS = 139.264
SPE_RECOMPUTED_PAYLOAD_MBPS = SPE_BYTES * 8 / FRAME_US

# Byte classification tags
PATH_OVERHEAD = "path_overhead"
FIXED_STUFF = "fixed_stuff"
STUFF_CONTROL = "stuff_control"
USER_DATA = "user_data"

# The layout: after the overhead column, bytes repeat in groups of 18
# (17 user-affectable + 1 fixed stuff); the 9th byte of each group carries
# the stuff-control bit as its last transmitted bit.
MAX_USER_RUN_BYTES = 17
STUFF_CONTROL_BYTE = 8     # byte index within a full run
STUFF_CONTROL_BIT = 7      # bit index within the byte, MSB-first order
FIXED_STUFF_FILL = 0       # fixed stuff is all-zeros before scrambling

# which bits of a byte carry user data ("u"), MSB-first, by byte tag
_USER_MASK = {USER_DATA: "u" * 8, STUFF_CONTROL: "".join(
    "-" if bit == STUFF_CONTROL_BIT else "u" for bit in range(8))}


class UnknownLevelError(InputError):
    """STS level outside the published hierarchy."""

    tag = "unknown-level"


@record
class RateEntry:
    """One row of the SONET/SDH signal hierarchy."""

    sts_level: int
    line_rate_kbps: int
    payload_rate_kbps: int
    oc: str
    stm: str | None


def sts_rates(n: int) -> RateEntry:
    """Line/payload rates and designations for STS-N."""
    if n not in STS_LEVELS:
        raise UnknownLevelError(f"STS-{n} is not a published level")
    stm = f"STM-{n // 3}" if n % 3 == 0 else None
    return RateEntry(sts_level=n,
                     line_rate_kbps=n * STS1_LINE_KBPS,
                     payload_rate_kbps=PAYLOAD_KBPS[n],
                     oc=f"OC-{n}",
                     stm=stm)


def rate_table() -> list[RateEntry]:
    return [sts_rates(n) for n in STS_LEVELS]


def kbps_to_mbps_str(kbps: int) -> str:
    """Exact decimal Mbps string (no binary-float drift)."""
    whole, frac = divmod(kbps, 1000)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


@record
class SpeLayout:
    """Per-byte classification of one SPE, and its frame bits as one record.

    ``frame`` holds the 2349 x 8 frame bits, one byte per bit, in
    transmission order: each run of user bits is an ``Ns`` field, and each
    run of fixed bits (path overhead, fixed stuff, the stuff-control bit)
    is ``Nx`` padding, which packs as zero bytes, that is FIXED_STUFF_FILL.
    ``user`` holds the same ``Ns`` runs back to back: one frame's payload.
    ``user_runs`` holds the lengths of the maximal user-affectable byte
    runs, in transmission order.
    """

    classification: tuple[str, ...]
    frame: struct.Struct
    user: struct.Struct
    user_runs: tuple[int, ...]

    @property
    def capacity_bits(self) -> int:
        return self.user.size


@functools.cache
def build_spe_layout() -> SpeLayout:
    """Classify every SPE byte position; built on the first call, then shared.

    Runs of MAX_USER_RUN_BYTES user-affectable bytes alternate with one
    fixed-stuff byte, and each full run carries a stuff-control bit in its
    byte STUFF_CONTROL_BYTE. The nine rows are alike, and a row ends in
    user bytes while the next begins with its overhead byte, so no run
    crosses a row: the layout is one row's, SPE_ROWS times.
    """
    row = [PATH_OVERHEAD]
    while len(row) < SPE_COLS:
        run = [USER_DATA] * min(MAX_USER_RUN_BYTES, SPE_COLS - len(row))
        # a full-length run needs its stuff-control bit; the shorter
        # tail run is below the 17-byte limit already
        if len(run) == MAX_USER_RUN_BYTES:
            run[STUFF_CONTROL_BYTE] = STUFF_CONTROL
        row += run + [FIXED_STUFF]
    del row[SPE_COLS:]
    mask = "".join(_USER_MASK.get(tag, "--------") for tag in row)
    runs = [(bit, len(list(run))) for bit, run in groupby(mask)]   # ("u" or "-", length)
    frame = "".join(f"{n}{'s' if bit == 'u' else 'x'}" for bit, n in runs)
    user = "".join(f"{n}s" for bit, n in runs if bit == "u")
    user_runs = tuple(len(list(run)) for affected, run in groupby(row, _USER_MASK.__contains__)
                      if affected)
    return SpeLayout(tuple(row) * SPE_ROWS, struct.Struct(frame * SPE_ROWS),
                     struct.Struct(user * SPE_ROWS), user_runs * SPE_ROWS)


@record
class SpeFrame:
    """One mapped SPE: raw bytes plus how many payload bits are meaningful."""

    data: bytes
    user_bits_filled: int


def map_fddi(code_bits: Iterable[int], layout: SpeLayout | None = None) -> list[SpeFrame]:
    """Pack a 4b/5b code-bit stream into SPE frames, MSB-first per byte.

    Overhead and fixed-stuff positions carry the fixed fill; unfilled
    payload bits in the last frame are zero. extract_fddi() inverts this
    exactly using the per-frame fill count.
    """
    layout = layout or build_spe_layout()
    frame, user = layout.frame, layout.user
    ones = bit_bytes(code_bits)
    frames = []
    for offset in range(0, len(ones), user.size):
        chunk = ones[offset:offset + user.size]
        bits = frame.pack(*user.unpack(chunk.ljust(user.size, b"\0")))
        frames.append(SpeFrame(pack_bits(bits), len(chunk)))
    return frames


def extract_fddi(frames: Iterable[SpeFrame],
                 layout: SpeLayout | None = None) -> list[int]:
    """Recover the code-bit stream from mapped frames, in order."""
    frame = (layout or build_spe_layout()).frame
    return list(b"".join([b"".join(frame.unpack(unpack_bits(f.data)))[:f.user_bits_filled]
                          for f in frames]))


def frame_bits(frame: SpeFrame) -> list[int]:
    """All 2349 x 8 frame bits in transmission order (for scrambling)."""
    return list(unpack_bits(frame.data))
