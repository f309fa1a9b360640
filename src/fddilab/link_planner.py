"""Mixed-media link validation: power budgets, distances, rise/fall times.

Any combination of LCF, MF, SMF, SONET and copper links may compose one
ring; each link is checked against its own medium's limits, and the ring
as a whole against the station-count and total-cable limits. Media
parameters live in ``data/media_table.txt`` and round-trip through the
loader bit-exactly.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Sequence

from . import Field, InputError, Violation, read, read_input, record, shown, whole

# SC/ST-style connector insertion loss assumed when a link does not
# state its own losses.
CONNECTOR_LOSS_DB = 0.3
MAX_CONNECTORS = 1000   # mated pairs a ring plan may count on one link: 300 dB

MAX_RING_STATIONS = 500
MAX_RING_CABLE_KM = 100

OPTICAL_WAVELENGTH_NM = 1300

BAD_RING = "bad-ring"   # InputError tag of a malformed ring plan

# The fields of a ring plan file (README "Ring plan file"), read by fddilab.read
RING_PLAN = (Field("stations", whole, 0, low=0),)
_MEDIA = Field("links[{}].media", str)
_LENGTH = Field("links[{}].length_m", float, low=0, above=True)
LINK = (_MEDIA, _LENGTH,   # with a count of mated pairs, or with the losses that override it
        Field("links[{}].connectors", whole, 0, low=0, high=MAX_CONNECTORS, unit="mated pairs"))
LINK_LOSSES = (_MEDIA, _LENGTH, Field("links[{}].connector_losses_db", float, low=0,
                                      nulls=(None,), many=True))

# Distance rule for mixed transmitter/receiver families on one link.
LCF_PAIRING_MAX_M = 500.0
MF_PAIRING_MAX_M = 2000.0


class UnknownMediaError(InputError):
    """Link references a medium absent from the media table."""

    tag = "unknown-media"


class NotOpticalError(ValueError):
    """Optical-only operation requested for a non-optical medium."""


class WavelengthMismatchError(ValueError):
    """A non-1300 nm device cannot pair with the 1300 nm PMDs."""


@record
class MediaSpec:
    """One physical-medium record. None marks unpublished values."""

    name: str
    kind: str                        # optical | copper | carrier
    wavelength_nm: int | None
    tx_power_dbm: tuple[float | None, float | None]
    rx_power_dbm: tuple[float | None, float | None]
    budget_db: float | None          # given constant; else derived
    max_length_m: float | None
    attenuation_db_per_km: float | None
    tx_rise_fall_ns: float | None
    rx_rise_fall_tol_ns: float | None
    status: str = "standard"         # standard | rejected

    @property
    def optical(self) -> bool:
        return self.kind == "optical"


@record
class _LinkSpec:
    media: str
    length_m: float
    connector_losses_db: tuple[float, ...]


class LinkSpec(_LinkSpec):
    """One link of the ring: medium, length, and connector losses."""

    __slots__ = ()

    def __new__(cls, media: str, length_m: float, connector_losses_db: tuple[float, ...] = ()):
        if not 0 < length_m < math.inf:
            raise InputError(f"link length must be finite and > 0, got {length_m:g}", BAD_RING)
        if connector_losses_db and not all(0 <= loss < math.inf for loss in connector_losses_db):
            raise InputError("connector losses must be finite and >= 0", BAD_RING)
        return super().__new__(cls, media, length_m, connector_losses_db)


@record
class BudgetReport:
    """Verdict for one link."""

    link: LinkSpec
    allowed_loss_db: float | None
    computed_loss_db: float | None
    margin_db: float | None
    verdict: str                     # pass | fail
    violated_rules: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()


@record
class RingReport:
    links: tuple[BudgetReport, ...]
    ring_rules: tuple[Violation, ...]  # violated global rules
    verdict: str


def _number(token: str) -> float | None:
    return None if token == "-" else float(token)


def parse_media_table(text: str) -> dict[str, MediaSpec]:
    """Parse the media-table format ('#' comments, '-' for absent)."""
    table: dict[str, MediaSpec] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("version:"):
            continue
        fields = line.split()
        if len(fields) != 13:
            raise ValueError(f"bad media record ({len(fields)} fields): {raw!r}")
        (name, kind, wl, tx_min, tx_max, rx_min, rx_max,
         budget, max_len, atten, tx_rf, rx_rf, status) = fields
        if name in table:
            raise ValueError(f"duplicate media {name}")
        spec = MediaSpec(   # the record's fields are in the table's order
            name, kind, None if wl == "-" else int(wl), (_number(tx_min), _number(tx_max)),
            (_number(rx_min), _number(rx_max)),
            *map(_number, (budget, max_len, atten, tx_rf, rx_rf)), status)
        for lo, hi in (spec.tx_power_dbm, spec.rx_power_dbm):
            if lo is not None and hi is not None and hi < lo:
                raise ValueError(f"{name}: power range max < min")
        table[name] = spec
    return table


@functools.cache
def default_media_table() -> dict[str, MediaSpec]:
    """The media table shipped with the package, read on first use."""
    with open(os.path.join(os.path.dirname(__file__), "data", "media_table.txt"),
              encoding="utf-8") as fh:
        return parse_media_table(fh.read())


def _resolve(media: str | MediaSpec) -> MediaSpec:
    if isinstance(media, MediaSpec):
        return media
    spec = default_media_table().get(media)
    if spec is None:
        raise UnknownMediaError(f"unknown medium {shown(media)}")
    return spec


def power_budget(media: str | MediaSpec) -> float:
    """Worst-case allowed path loss: min transmit power - min sensitivity.

    Media whose ranges are not fully published carry the budget as a
    stored constant instead (MF: 11 dB).
    """
    spec = _resolve(media)
    if not spec.optical:
        raise NotOpticalError(f"{spec.name} has no optical power ranges")
    if spec.budget_db is not None:
        return spec.budget_db
    tx_min = spec.tx_power_dbm[0]
    rx_min = spec.rx_power_dbm[0]
    if tx_min is None or rx_min is None:
        raise NotOpticalError(f"{spec.name} publishes no usable power ranges")
    return tx_min - rx_min


def _limits(spec: MediaSpec) -> tuple:
    """A medium's warnings, length limit (inf if unpublished), loss budget and
    attenuation (None where no loss is checked: no budget, as on SMF)."""
    warnings = (() if spec.status == "standard" else
                (Violation("NonStandardMedia", f"{spec.name} is a rejected alternative"),))
    try:
        allowed = power_budget(spec)
    except NotOpticalError:   # not optical, or no budget published
        allowed = None
    return (warnings, math.inf if spec.max_length_m is None else spec.max_length_m,
            allowed, None if allowed is None else spec.attenuation_db_per_km)


@functools.cache
def _named_limits(name: str) -> tuple:
    """``_limits`` of a shipped medium, worked out on its first link."""
    return _limits(_resolve(name))


def validate_link(link: LinkSpec) -> BudgetReport:
    """Check one link against its medium's length and loss limits."""
    media, length, losses = link
    warnings, max_len, allowed, atten = (
        _limits(media) if isinstance(media, MediaSpec) else _named_limits(media))
    rules = ((Violation("LengthExceeded", f"{length:g} m > {max_len:g} m"),)
             if length > max_len else ())
    computed = margin = None
    if atten is not None:
        computed = atten * length / 1000.0 + sum(losses)
        margin = allowed - computed
        if margin < 0:
            rules += (Violation("BudgetExceeded", f"loss {computed:g} dB > {allowed:g} dB"),)
    return BudgetReport(link, allowed, computed, margin, "fail" if rules else "pass",
                        rules, warnings)


def _implied_tx_min(spec: MediaSpec) -> float | None:
    """Min transmit power, or the one implied by a stored budget."""
    tx_min = spec.tx_power_dbm[0]
    if tx_min is not None:
        return tx_min
    rx_min = spec.rx_power_dbm[0]
    if spec.budget_db is not None and rx_min is not None:
        return spec.budget_db + rx_min
    return None


def mixed_ends_check(tx_media: str | MediaSpec, rx_media: str | MediaSpec,
                     length_m: float) -> BudgetReport:
    """Distance rule for mixing LCF and MF devices on one link.

    Both ends must be 1300 nm optical devices. Any LCF end caps the link
    at 500 m; an all-MF link may run to 2 km.
    """
    ends = [_resolve(tx_media), _resolve(rx_media)]
    for spec in ends:
        if not spec.optical:
            raise NotOpticalError(f"{spec.name} is not an optical device")
        if spec.wavelength_nm != OPTICAL_WAVELENGTH_NM:
            raise WavelengthMismatchError(
                f"{spec.name} is {spec.wavelength_nm} nm, needs "
                f"{OPTICAL_WAVELENGTH_NM} nm")
        if spec.name not in ("MF", "LCF"):
            raise ValueError(f"pairing rule covers MF/LCF devices, not {spec.name}")
    tx, rx = ends
    max_len = LCF_PAIRING_MAX_M if "LCF" in (tx.name, rx.name) else MF_PAIRING_MAX_M

    budgets = []
    for a, b in ((tx, rx), (rx, tx)):
        tx_min = _implied_tx_min(a)
        rx_min = b.rx_power_dbm[0]
        if tx_min is not None and rx_min is not None:
            budgets.append(tx_min - rx_min)
    allowed = min(budgets) if budgets else None

    rules = []
    if length_m > max_len:
        rules.append(Violation("LengthExceeded", f"{length_m:g} m > {max_len:g} m for this pairing"))
    link = LinkSpec(media=f"{tx.name}+{rx.name}", length_m=length_m)
    return BudgetReport(link=link, allowed_loss_db=allowed,
                        computed_loss_db=None, margin_db=None,
                        verdict="fail" if rules else "pass",
                        violated_rules=tuple(rules))


def rise_fall_check(tx_media: str | MediaSpec, rx_media: str | MediaSpec) -> bool:
    """True when the receiver tolerates the transmitter's edge rate."""
    tx = _resolve(tx_media)
    rx = _resolve(rx_media)
    for spec in (tx, rx):
        if not spec.optical:
            raise NotOpticalError(f"{spec.name} has no rise/fall specification")
    if tx.tx_rise_fall_ns is None or rx.rx_rise_fall_tol_ns is None:
        raise ValueError("rise/fall figures unpublished for this pairing")
    return tx.tx_rise_fall_ns <= rx.rx_rise_fall_tol_ns


def ring_limits(n_stations: int, total_km: float | None) -> list[Violation]:
    """Each ring-wide limit the totals break; a ``total_km`` of None passes."""
    out = []
    if n_stations > MAX_RING_STATIONS:
        out.append(Violation("StationCount", f"{n_stations} stations > {MAX_RING_STATIONS}"))
    if total_km is not None and total_km > MAX_RING_CABLE_KM:
        out.append(Violation("TotalCable", f"{total_km:g} km > {MAX_RING_CABLE_KM:g} km"))
    return out


def validate_ring(links: Sequence[LinkSpec], n_stations: int) -> RingReport:
    """Per-link checks plus the global ring limits."""
    reports = tuple(map(validate_link, links))
    total_km = sum(link.length_m for link in links) / 1000.0
    ring_rules = tuple(ring_limits(n_stations, total_km))
    ok = not ring_rules and not any(rep.violated_rules for rep in reports)
    return RingReport(links=reports, ring_rules=ring_rules,
                      verdict="pass" if ok else "fail")


def load_ring_file(path: str) -> tuple[list[LinkSpec], int]:
    """Read a ring plan file (README "Ring plan file"): its links and its
    station count. Malformed input raises InputError tagged bad-ring."""
    import json   # only a ring plan needs it: not loaded at start-up
    doc = read_input(path, BAD_RING, json.loads)
    if not isinstance(doc, dict):
        raise InputError(f"need a JSON object, got {type(doc).__name__}", BAD_RING, path)
    links = doc.get("links", [])
    if not isinstance(links, list) or not all(isinstance(e, dict) for e in links):
        raise InputError("links: need a list of objects", BAD_RING, path)
    out = []
    for i, entry in enumerate(links):   # read in bounds, so not checked again
        if entry.get("connector_losses_db") is None:
            media, length, count = read(entry, LINK, BAD_RING, i, path)
            out.append(LinkSpec._make((media, length, (CONNECTOR_LOSS_DB,) * count)))
        else:
            media, length, losses = read(entry, LINK_LOSSES, BAD_RING, i, path)
            out.append(LinkSpec._make((media, length, tuple(losses))))
    stations, = read(doc, RING_PLAN, BAD_RING, path=path)
    return out, stations
