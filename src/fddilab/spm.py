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
import re
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import InputError
from .phy_codec import bits_to_text

SPE_ROWS = 9
SPE_COLS = 261
SPE_BYTES = SPE_ROWS * SPE_COLS            # 2349
FRAME_US = 125

STS1_LINE_KBPS = 51_840
STS1_PAYLOAD_KBPS = 50_112
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
# bytes per frame. Both numbers are reported by spe_arithmetic_report().
SPE_PUBLISHED_PAYLOAD_MBPS = 139.264

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
# a bit digit to its value: frame bits are held one byte per bit
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class UnknownLevelError(InputError):
    """STS level outside the published hierarchy."""

    tag = "unknown-level"


@dataclass(frozen=True)
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


def spe_bandwidth() -> float:
    """The published STM-1 SPE bandwidth available to the mapping, in Mbps."""
    return SPE_PUBLISHED_PAYLOAD_MBPS


def spe_bandwidth_recomputed() -> Fraction:
    """2349 bytes x 8 bits / 125 us, recomputed exactly, in Mbps."""
    return Fraction(SPE_BYTES * 8, FRAME_US)


def spe_arithmetic_report() -> dict:
    """Cited vs recomputed SPE bandwidth, with the implied byte counts."""
    recomputed = spe_bandwidth_recomputed()
    published = Fraction(str(SPE_PUBLISHED_PAYLOAD_MBPS))
    implied_bytes = published * FRAME_US / 8
    return {
        "published_mbps": float(published),
        "recomputed_mbps": float(recomputed),
        "spe_bytes": SPE_BYTES,
        "published_implies_bytes": float(implied_bytes),
        "byte_shortfall": float(SPE_BYTES - implied_bytes),
        "consistent": published == recomputed,
        "exceeds_fddi_code_rate": published > 125,
    }


@dataclass(frozen=True)
class SpeLayout:
    """Per-byte classification of one SPE, and its frame bits as one record.

    ``frame`` holds the 2349 x 8 frame bits, one byte per bit, in
    transmission order: each run of user bits is an ``Ns`` field, and each
    run of fixed bits (path overhead, fixed stuff, the stuff-control bit)
    is ``Nx`` padding, which packs as zero bytes, that is FIXED_STUFF_FILL.
    ``user`` holds the same ``Ns`` runs back to back: one frame's payload.
    """

    classification: tuple[str, ...]
    frame: struct.Struct = field(repr=False)
    user: struct.Struct = field(repr=False)

    @property
    def capacity_bits(self) -> int:
        return self.user.size

    def byte_runs(self) -> list[int]:
        """Lengths of maximal user-affectable byte runs, transmission order."""
        marks = "".join("u" if tag in _USER_MASK else "-" for tag in self.classification)
        return [len(run) for run in re.findall("u+", marks)]


@functools.cache
def build_spe_layout() -> SpeLayout:
    """Classify every SPE byte position; built on the first call, then shared.

    Runs of MAX_USER_RUN_BYTES user-affectable bytes alternate with one
    fixed-stuff byte, and each full run carries a stuff-control bit in its
    byte STUFF_CONTROL_BYTE.
    """
    # every row is alike: the overhead byte, then user runs between fixed stuff
    row = [PATH_OVERHEAD]
    while len(row) < SPE_COLS:
        run = [USER_DATA] * min(MAX_USER_RUN_BYTES, SPE_COLS - len(row))
        # a full-length run needs its stuff-control bit; the shorter
        # tail run is below the 17-byte limit already
        if len(run) == MAX_USER_RUN_BYTES:
            run[STUFF_CONTROL_BYTE] = STUFF_CONTROL
        row += run + [FIXED_STUFF]
    tags = tuple(row[:SPE_COLS] * SPE_ROWS)
    mask = "".join(_USER_MASK.get(tag, "--------") for tag in tags)
    runs = re.findall("u+|-+", mask)
    frame = "".join(f"{len(run)}{'s' if run[0] == 'u' else 'x'}" for run in runs)
    user = "".join(f"{len(run)}s" for run in runs if run[0] == "u")
    return SpeLayout(tags, struct.Struct(frame), struct.Struct(user))


@dataclass(frozen=True)
class SpeFrame:
    """One mapped SPE: raw bytes plus how many payload bits are meaningful."""

    data: bytes
    user_bits_filled: int


def map_fddi(code_bits: Sequence[int], layout: SpeLayout | None = None) -> list[SpeFrame]:
    """Pack a 4b/5b code-bit stream into SPE frames, MSB-first per byte.

    Overhead and fixed-stuff positions carry the fixed fill; unfilled
    payload bits in the last frame are zero. extract_fddi() inverts this
    exactly using the per-frame fill count.
    """
    layout = layout or build_spe_layout()
    frame, user = layout.frame, layout.user
    ones = bits_to_text(code_bits).encode("ascii").translate(_BIT_VALUES)
    frames = []
    for offset in range(0, len(ones), user.size):
        chunk = ones[offset:offset + user.size]
        bits = frame.pack(*user.unpack(chunk.ljust(user.size, b"\0")))
        frames.append(SpeFrame(int(bits_to_text(bits), 2).to_bytes(SPE_BYTES, "big"),
                               len(chunk)))
    return frames


def extract_fddi(frames: Iterable[SpeFrame],
                 layout: SpeLayout | None = None) -> list[int]:
    """Recover the code-bit stream from mapped frames, in order."""
    frame = (layout or build_spe_layout()).frame
    return list(b"".join([b"".join(frame.unpack(_bit_bytes(f.data)))[:f.user_bits_filled]
                          for f in frames]))


def frame_bits(frame: SpeFrame) -> list[int]:
    """All 2349 x 8 frame bits in transmission order (for scrambling)."""
    return list(_bit_bytes(frame.data))


def _bit_bytes(data: bytes) -> bytes:
    """Frame bytes as one byte per bit, MSB first."""
    text = format(int.from_bytes(data, "big"), f"0{len(data) * 8}b")
    return text.encode("ascii").translate(_BIT_VALUES)
