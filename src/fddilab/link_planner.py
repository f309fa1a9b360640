"""Mixed-media link validation: power budgets, distances, rise/fall times.

Any combination of LCF, MF, SMF, SONET and copper links may compose one
ring; each link is checked against its own medium's limits, and the ring
as a whole against the station-count and total-cable limits. Media
parameters live in ``data/media_table.txt`` and round-trip through the
loader bit-exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from . import InputError, number, read_input, whole

# SC/ST-style connector insertion loss assumed when a link does not
# state its own losses.
DEFAULT_CONNECTOR_LOSS_DB = 0.3

MAX_RING_STATIONS = 500
MAX_RING_CABLE_KM = 100

OPTICAL_WAVELENGTH_NM = 1300

BAD_RING = "bad-ring"   # InputError tag of a malformed ring plan

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class LinkSpec:
    """One link of the ring: medium, length, and connector losses."""

    media: str
    length_m: float
    connector_losses_db: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0 < self.length_m < math.inf:
            raise InputError(f"link length must be finite and > 0, got {self.length_m:g}",
                             BAD_RING)
        if not all(0 <= loss < math.inf for loss in self.connector_losses_db):
            raise InputError("connector losses must be finite and >= 0", BAD_RING)


def connectors(count: int, loss_db: float = DEFAULT_CONNECTOR_LOSS_DB) -> tuple[float, ...]:
    """Losses for ``count`` mated pairs at the default per-pair loss."""
    if count < 0:
        raise InputError(f"connector count must be >= 0, got {count}", BAD_RING)
    return (loss_db,) * count


@dataclass(frozen=True)
class BudgetReport:
    """Verdict for one link."""

    link: LinkSpec
    allowed_loss_db: float | None
    computed_loss_db: float | None
    margin_db: float | None
    verdict: str                     # pass | fail
    violated_rules: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class RingReport:
    links: tuple[BudgetReport, ...]
    ring_rules: tuple[str, ...]      # violated global rules
    verdict: str

    @property
    def failing_links(self) -> tuple[int, ...]:
        return tuple(i for i, rep in enumerate(self.links) if rep.verdict == "fail")


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
        spec = MediaSpec(
            name=name,
            kind=kind,
            wavelength_nm=None if wl == "-" else int(wl),
            tx_power_dbm=(_number(tx_min), _number(tx_max)),
            rx_power_dbm=(_number(rx_min), _number(rx_max)),
            budget_db=_number(budget),
            max_length_m=_number(max_len),
            attenuation_db_per_km=_number(atten),
            tx_rise_fall_ns=_number(tx_rf),
            rx_rise_fall_tol_ns=_number(rx_rf),
            status=status,
        )
        for lo, hi in (spec.tx_power_dbm, spec.rx_power_dbm):
            if lo is not None and hi is not None and hi < lo:
                raise ValueError(f"{name}: power range max < min")
        table[name] = spec
    return table


@functools.cache
def default_media_table() -> dict[str, MediaSpec]:
    """The media table shipped with the package, read on first use."""
    text = resources.files("fddilab.data").joinpath("media_table.txt").read_text("utf-8")
    return parse_media_table(text)


def _resolve(media: str | MediaSpec) -> MediaSpec:
    if isinstance(media, MediaSpec):
        return media
    spec = default_media_table().get(media)
    if spec is None:
        raise UnknownMediaError(f"unknown medium {media!r}")
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


def validate_link(link: LinkSpec) -> BudgetReport:
    """Check one link against its medium's length and loss limits."""
    spec = _resolve(link.media)
    rules = []
    warnings = []
    if spec.status != "standard":
        warnings.append(f"NonStandardMedia: {spec.name} is a rejected alternative")
    if spec.max_length_m is not None and link.length_m > spec.max_length_m:
        rules.append(f"LengthExceeded: {link.length_m:g} m > {spec.max_length_m:g} m")

    allowed = computed = margin = None
    if spec.optical:
        try:
            allowed = power_budget(spec)
        except NotOpticalError:
            allowed = None  # optical medium without published budget (SMF)
        if allowed is not None and spec.attenuation_db_per_km is not None:
            computed = (spec.attenuation_db_per_km * link.length_m / 1000.0
                        + sum(link.connector_losses_db))
            margin = allowed - computed
            if margin < 0:
                rules.append(
                    f"BudgetExceeded: loss {computed:g} dB > {allowed:g} dB")
    return BudgetReport(
        link=link,
        allowed_loss_db=allowed,
        computed_loss_db=computed,
        margin_db=margin,
        verdict="fail" if rules else "pass",
        violated_rules=tuple(rules),
        warnings=tuple(warnings),
    )


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
        rules.append(f"LengthExceeded: {length_m:g} m > {max_len:g} m for this pairing")
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


def ring_limits(n_stations: int, total_km: float | None) -> list[tuple[str, str]]:
    """(rule, detail) for each ring-wide limit the totals break; a
    ``total_km`` of None is not checked."""
    out = []
    if n_stations > MAX_RING_STATIONS:
        out.append(("StationCount", f"{n_stations} stations > {MAX_RING_STATIONS}"))
    if total_km is not None and total_km > MAX_RING_CABLE_KM:
        out.append(("TotalCable", f"{total_km:g} km > {MAX_RING_CABLE_KM:g} km"))
    return out


def validate_ring(links: Sequence[LinkSpec], n_stations: int) -> RingReport:
    """Per-link checks plus the global ring limits."""
    reports = tuple(validate_link(link) for link in links)
    total_km = sum(link.length_m for link in links) / 1000.0
    ring_rules = [f"{rule}: {detail}" for rule, detail in ring_limits(n_stations, total_km)]
    ok = not ring_rules and all(r.verdict == "pass" for r in reports)
    return RingReport(links=reports, ring_rules=tuple(ring_rules),
                      verdict="pass" if ok else "fail")


def load_ring_file(path: str) -> tuple[list[LinkSpec], int]:
    """Read a ring plan file (README "Ring plan file"): its links and its
    station count. Malformed input raises InputError tagged bad-ring."""
    doc = read_input(path, BAD_RING, json.loads)
    links = doc.get("links", []) if isinstance(doc, dict) else None
    if not isinstance(links, list) or not all(
            isinstance(e, dict) and isinstance(e.get("media"), str) for e in links):
        raise InputError("need an object whose links each name a media", BAD_RING, path)
    out = []
    for i, entry in enumerate(links):
        losses = entry.get("connector_losses_db")
        if losses is None:
            losses = connectors(number(entry.get("connectors", 0), whole,
                                       f"links[{i}].connectors", BAD_RING, path))
        elif not isinstance(losses, list) or not all(
                isinstance(x, (int, float)) for x in losses):
            raise InputError(f"links[{i}].connector_losses_db: need a list of numbers",
                             BAD_RING, path)
        length = number(entry.get("length_m"), float, f"links[{i}].length_m", BAD_RING, path)
        out.append(LinkSpec(entry["media"], length, tuple(losses)))
    return out, number(doc.get("stations", 0), whole, "stations", BAD_RING, path)
