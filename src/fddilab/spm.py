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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import InputError
from .phy_codec import bits_from_text, bits_to_text

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

FDDI_CODE_BITS_PER_FRAME = 15_625          # 125 Mbps x 125 us

# Byte classification tags
PATH_OVERHEAD = "path_overhead"
FIXED_STUFF = "fixed_stuff"
STUFF_CONTROL = "stuff_control"
USER_DATA = "user_data"

MAX_USER_RUN_BYTES = 17

# Default layout: after the overhead column, bytes repeat in groups of 18
# (17 user-affectable + 1 fixed stuff); the 9th byte of each group carries
# the stuff-control bit as its last transmitted bit.
DEFAULT_RUN_LENGTH = 17
DEFAULT_CONTROL_INDEX = 8
STUFF_CONTROL_BIT = 7      # bit index within the byte, MSB-first order
FIXED_STUFF_FILL = 0       # fixed stuff is all-zeros before scrambling

# a whole SPE of fixed fill, as ASCII digits, that map_fddi writes user bits into
_FILL_DIGITS = format(FIXED_STUFF_FILL, "08b").encode() * SPE_BYTES
# which bits of a byte carry user data ("u"), MSB-first, by byte tag
_USER_MASK = {USER_DATA: "u" * 8, STUFF_CONTROL: "".join(
    "-" if bit == STUFF_CONTROL_BIT else "u" for bit in range(8))}


class UnknownLevelError(InputError):
    """STS level outside the published hierarchy."""

    tag = "unknown-level"


class InfeasibleLayoutError(ValueError):
    """Layout parameters cannot satisfy capacity and the 17-byte rule."""


class LayoutMismatchError(ValueError):
    """Frames presented for extraction disagree on their layout."""


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
    """Deterministic per-byte classification of one SPE; derived values are cached."""

    classification: tuple[str, ...]
    run_length: int
    control_index: int
    user_runs: tuple[tuple[int, int], ...] = field(repr=False)

    @functools.cached_property
    def capacity_bits(self) -> int:
        return sum(stop - start for start, stop in self.user_runs)

    def byte_runs(self) -> list[int]:
        """Lengths of maximal user-affectable byte runs, transmission order."""
        return list(self._byte_runs)

    @functools.cached_property
    def _byte_runs(self) -> tuple[int, ...]:
        marks = "".join("u" if tag in _USER_MASK else "-" for tag in self.classification)
        return tuple(len(run) for run in re.findall("u+", marks))


@functools.cache
def build_spe_layout(run_length: int = DEFAULT_RUN_LENGTH,
                     control_index: int = DEFAULT_CONTROL_INDEX) -> SpeLayout:
    """Classify every SPE byte position.

    ``run_length`` user-affectable bytes alternate with one fixed-stuff
    byte; each full run of 17 carries a stuff-control bit at position
    ``control_index``. Raises InfeasibleLayoutError when the parameters
    break the 17-byte rule or starve the FDDI payload. Each layout is
    built once and shared: it is immutable.
    """
    if not 1 <= run_length <= MAX_USER_RUN_BYTES:
        raise InfeasibleLayoutError(
            f"run_length {run_length} violates the {MAX_USER_RUN_BYTES}-byte rule")
    if not 0 <= control_index < run_length:
        raise InfeasibleLayoutError(
            f"control_index {control_index} outside run of {run_length}")

    # every row is alike: the overhead byte, then user runs between fixed stuff
    row = [PATH_OVERHEAD]
    while len(row) < SPE_COLS:
        run = [USER_DATA] * min(run_length, SPE_COLS - len(row))
        # a full-length run needs its stuff-control bit; shorter
        # tail runs are below the 17-byte limit already
        if len(run) >= MAX_USER_RUN_BYTES:
            run[control_index] = STUFF_CONTROL
        row += run + [FIXED_STUFF]
    tags = row[:SPE_COLS] * SPE_ROWS

    # user bits as maximal (start, stop) runs of frame-bit indices
    mask = "".join(_USER_MASK.get(tag, "--------") for tag in tags)
    layout = SpeLayout(classification=tuple(tags), run_length=run_length,
                       control_index=control_index,
                       user_runs=tuple(m.span() for m in re.finditer("u+", mask)))
    if layout.capacity_bits < FDDI_CODE_BITS_PER_FRAME:
        raise InfeasibleLayoutError(
            f"capacity {layout.capacity_bits} bits < {FDDI_CODE_BITS_PER_FRAME}")
    assert len(tags) == SPE_BYTES
    return layout


@dataclass(frozen=True)
class SpeFrame:
    """One mapped SPE: raw bytes plus how many payload bits are meaningful."""

    layout: SpeLayout
    data: bytes
    user_bits_filled: int


def map_fddi(code_bits: Sequence[int], layout: SpeLayout | None = None) -> list[SpeFrame]:
    """Pack a 4b/5b code-bit stream into SPE frames, MSB-first per byte.

    Overhead and fixed-stuff positions carry the fixed fill; unfilled
    payload bits in the last frame are zero. extract_fddi() inverts this
    exactly using the per-frame fill count.
    """
    layout = layout or build_spe_layout()
    capacity = layout.capacity_bits
    digits = bits_to_text(code_bits).encode("ascii")
    frames = []
    for offset in range(0, len(digits), capacity):
        chunk = digits[offset:offset + capacity]
        padded = chunk.ljust(capacity, b"0")
        buf = bytearray(_FILL_DIGITS)
        pos = 0
        for start, stop in layout.user_runs:
            buf[start:stop] = padded[pos:pos + stop - start]
            pos += stop - start
        frames.append(SpeFrame(layout=layout,
                               data=int(buf, 2).to_bytes(SPE_BYTES, "big"),
                               user_bits_filled=len(chunk)))
    return frames


def extract_fddi(frames: Iterable[SpeFrame],
                 layout: SpeLayout | None = None) -> list[int]:
    """Recover the code-bit stream from mapped frames, in order."""
    chunks = []
    for frame in frames:
        if layout is None:
            layout = frame.layout
        if frame.layout.classification != layout.classification:
            raise LayoutMismatchError("frame classification differs from layout")
        text = format(int.from_bytes(frame.data, "big"), f"0{SPE_BYTES * 8}b")
        user = "".join([text[start:stop] for start, stop in frame.layout.user_runs])
        chunks.append(user[:frame.user_bits_filled])
    return bits_from_text("".join(chunks))


def frame_bits(frame: SpeFrame) -> list[int]:
    """All 2349 x 8 frame bits in transmission order (for scrambling)."""
    return bits_from_text(format(int.from_bytes(frame.data, "big"), f"0{SPE_BYTES * 8}b"))
