"""Deterministic discrete-event simulator of the FDDI timed-token MAC.

Protocol rules implemented per token visit at a station:

* the station measures its token rotation time (time since the token
  last arrived at this station);
* synchronous frames may be sent on every visit, up to the station's
  per-visit synchronous allocation;
* asynchronous frames may be sent only when the token arrived early
  (rotation < TTRT), for at most the earliness; a frame is sent only if
  it fits entirely inside the remaining window, so a late token carries
  no asynchronous traffic at all.

Time is counted in integer ticks of 1/L us, one L per run chosen so
that every configured time is a whole number of ticks; Poisson arrivals
are rounded up to a tick once, when they are drawn. A run is a pure
function of (config, load, duration, seed).
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import InputError, number, read_input, whole
from .link_planner import ring_limits

LINE_RATE_BITS_PER_US = Fraction(100)  # 100 Mbps

# Ring-latency estimation constants. Both are model choices, not
# protocol constants: fiber propagation at 5.085 us/km and a nominal
# 1 us of repeat latency per station.
PROPAGATION_US_PER_KM = Fraction("5.085")
DEFAULT_STATION_DELAY_US = Fraction(1)

SYNC = "sync"
ASYNC = "async"

BAD_CONFIG = "bad-config"   # InputError tag of a malformed config


class DomainError(ValueError):
    """Formula arguments outside the valid domain."""


class ConfigViolationsError(InputError):
    """Simulation requested with an invalid ring configuration."""

    tag = "config-violations"

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__(",".join(v.rule for v in violations))


def _us(value) -> Fraction:
    """Microsecond quantity as an exact rational (floats via decimal text)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class RingConfig:
    """Ring topology and timed-token parameters."""

    n_stations: int
    ring_latency_us: Fraction       # D: zero-load round-trip token walk time
    ttrt_us: Fraction               # T: negotiated target token rotation time
    sync_allocation_us: tuple[Fraction, ...] = ()
    stripping: str = "source"       # "source" | "destination"
    total_cable_km: float | None = None
    compliance: bool = True

    @staticmethod
    def make(n_stations, ring_latency_us, ttrt_us, sync_allocation_us=None,
             stripping="source", total_cable_km=None, compliance=True) -> "RingConfig":
        alloc = sync_allocation_us or [0] * n_stations
        if len(alloc) != n_stations:
            raise InputError(f"need one sync allocation per station ({n_stations})", BAD_CONFIG)
        return RingConfig(
            n_stations=n_stations,
            ring_latency_us=_us(ring_latency_us),
            ttrt_us=_us(ttrt_us),
            sync_allocation_us=tuple(_us(a) for a in alloc),
            stripping=stripping,
            total_cable_km=total_cable_km,
            compliance=compliance,
        )


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str


def validate_config(cfg: RingConfig) -> list[Violation]:
    """Every violated configuration invariant, with the offending values."""
    out = []
    if cfg.n_stations < 1:
        out.append(Violation("NoStations", f"n_stations={cfg.n_stations}"))
    if cfg.ring_latency_us <= 0:
        # a zero hop would stop the clock: the run would never end
        out.append(Violation("LatencyNotPositive",
                             f"ring latency {cfg.ring_latency_us} us <= 0"))
    if cfg.ttrt_us < cfg.ring_latency_us:
        out.append(Violation(
            "TtrtBelowLatency",
            f"TTRT {cfg.ttrt_us} us < ring latency {cfg.ring_latency_us} us"))
    if cfg.stripping not in ("source", "destination"):
        out.append(Violation("UnknownStripping", cfg.stripping))
    for i, alloc in enumerate(cfg.sync_allocation_us):
        if alloc < 0:  # it would lift another station's share past T - D
            out.append(Violation("NegativeSyncAllocation", f"station {i}: {alloc} us < 0"))
    sync_total = sum(cfg.sync_allocation_us, Fraction(0))
    if sync_total > cfg.ttrt_us - cfg.ring_latency_us:
        out.append(Violation(
            "SyncOversubscribed",
            f"sync allocations {sync_total} us > T - D "
            f"= {cfg.ttrt_us - cfg.ring_latency_us} us"))
    if cfg.compliance:
        out += [Violation(rule, detail)
                for rule, detail in ring_limits(cfg.n_stations, cfg.total_cable_km)]
    return out


def theoretical_efficiency(n: int, ttrt_us, latency_us) -> float:
    """Saturated timed-token efficiency n(T - D) / (nT + D)."""
    if n < 1:
        raise DomainError(f"need at least one station, got {n}")
    t = _us(ttrt_us)
    d = _us(latency_us)
    if d < 0 or t < d:
        raise DomainError(f"need T >= D >= 0, got T={t}, D={d}")
    if d == 0:
        return 1.0
    return float(Fraction(n) * (t - d) / (Fraction(n) * t + d))


def estimate_ring_latency(total_cable_km, n_stations: int,
                          per_station_us=DEFAULT_STATION_DELAY_US) -> Fraction:
    """Model-based D: propagation over the cable plus per-station delay."""
    return (_us(total_cable_km) * PROPAGATION_US_PER_KM
            + n_stations * _us(per_station_us))


@dataclass(frozen=True)
class TrafficSource:
    """Offered load at one station. rate_mbps=None means saturated."""

    station: int
    traffic_class: str              # "sync" | "async"
    rate_mbps: float | None = None
    frame_bytes: int = 100
    destination: int | None = None  # default: downstream neighbour


@dataclass(frozen=True)
class TrafficModel:
    sources: tuple[TrafficSource, ...] = ()
    probe_count: int = 0

    @staticmethod
    def make(sources: Iterable[TrafficSource] = (), probe_count: int = 0) -> "TrafficModel":
        return TrafficModel(sources=tuple(sources), probe_count=probe_count)


@dataclass(frozen=True)
class VisitRecord:
    """One token visit: timing and what was transmitted."""

    station: int
    arrival_us: Fraction
    rotation_us: Fraction
    sync_tx_us: Fraction
    async_tx_us: Fraction
    depart_us: Fraction


@dataclass(frozen=True)
class SimMetrics:
    """Aggregate results of one simulation run."""

    duration_us: float
    warmup_us: float
    n_token_visits: int
    throughput: float               # fraction of the 100 Mbps line rate
    sync_bytes_sent: int
    async_bytes_sent: int
    sync_bytes_delivered: int
    async_bytes_delivered: int
    sync_frames_in_flight: int
    async_frames_in_flight: int
    max_sync_gap_us: float | None
    mean_access_delay_us: float | None
    max_access_delay_us: float | None
    probe_delays_us: tuple[float, ...] = field(repr=False, default=())
    trace: tuple[VisitRecord, ...] = field(repr=False, compare=False, default=())


def _first_tick(t: float, ticks_per_us: int) -> int:
    """The first tick N with float(N / L) >= t us, L = ticks_per_us: that
    is ceil(t * L), unless ticks just below t * L already round to t."""
    p, q = math.nextafter(t, 0.0).as_integer_ratio()
    lo = p * ticks_per_us // q                      # float(lo / L) < t
    p, q = t.as_integer_ratio()
    hi = -(-p * ticks_per_us // q)                  # ceil(t * L), exact
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid / ticks_per_us >= t else (mid, hi)
    return hi


def _arrival_ticks(source: TrafficSource, horizon: float, rng_seed: int,
                   ticks_per_us: int) -> Iterator[int]:
    """A Poisson source's arrivals up to horizon us, drawn one at a time
    from its own random stream, each rounded up to its first tick."""
    rate = source.rate_mbps             # bits per us
    if not rate > 0:
        return
    rng = random.Random(rng_seed)
    lambd = 1.0 / (source.frame_bytes * 8 / rate)
    t = rng.expovariate(lambd)
    while t <= horizon:
        yield _first_tick(t, ticks_per_us)
        t += rng.expovariate(lambd)


class _Queue:
    """Per-(station, class) frame queue and frame counters, in ticks. A
    Poisson queue holds only its next arrival tick (inf once none is left)
    and draws the one after when that frame is sent, so its work is bounded
    by the frames sent; a saturated queue has no arrivals (None)."""

    __slots__ = ("frame_bytes", "frame_ticks", "deliver_ticks", "arrivals",
                 "next_arrival", "sent", "delivered", "in_window")

    def __init__(self, source: TrafficSource, frame_ticks: int, deliver_ticks: int,
                 horizon: float, rng_seed: int, ticks_per_us: int):
        self.frame_bytes = source.frame_bytes
        self.frame_ticks = frame_ticks
        self.deliver_ticks = deliver_ticks  # source to destination walk
        self.sent = self.delivered = self.in_window = 0
        self.arrivals = self.next_arrival = None
        if source.rate_mbps is not None:
            self.arrivals = _arrival_ticks(source, horizon, rng_seed, ticks_per_us)
            self.next_arrival = next(self.arrivals, math.inf)


def run_simulation(cfg: RingConfig, load: TrafficModel, duration_us,
                   seed: int, warmup_us=None,
                   collect_trace: bool = False) -> SimMetrics:
    """Simulate the ring and return deterministic aggregate metrics.

    Throughput is measured over [warmup, duration); byte conservation
    counters cover the whole run. Probe access delays sample the wait
    from a uniformly random instant until the token next arrives at a
    uniformly random station.
    """
    violations = validate_config(cfg)
    if violations:
        raise ConfigViolationsError(violations)
    duration = _us(duration_us)
    if duration <= 0:
        raise ValueError("duration must be positive")
    warmup = _us(warmup_us) if warmup_us is not None else duration / 5
    if not 0 <= warmup < duration:
        raise ValueError("need 0 <= warmup < duration")

    n = cfg.n_stations
    hop = cfg.ring_latency_us / n
    # One tick is 1/L us, L the lcm of every time's denominator, so the
    # loop below runs on ints and stays exact.
    frame_us = {b: Fraction(b * 8) / LINE_RATE_BITS_PER_US
                for b in {s.frame_bytes for s in load.sources}}
    L = math.lcm(*(x.denominator for x in (
        hop, cfg.ttrt_us, duration, warmup, *cfg.sync_allocation_us,
        *frame_us.values())))

    def ticks(x: Fraction) -> int:
        return x.numerator * (L // x.denominator)

    hop_t, ttrt, dur, warm = ticks(hop), ticks(cfg.ttrt_us), ticks(duration), ticks(warmup)
    alloc = [ticks(a) for a in cfg.sync_allocation_us]
    queues: dict[str, list[_Queue | None]] = {SYNC: [None] * n, ASYNC: [None] * n}
    for idx, src in enumerate(load.sources):
        if not 0 <= src.station < n:
            raise InputError(f"traffic source station {src.station} out of range", BAD_CONFIG)
        if src.traffic_class not in (SYNC, ASYNC):
            raise InputError(f"unknown traffic class {src.traffic_class!r}", BAD_CONFIG)
        row = queues[src.traffic_class]
        if row[src.station] is not None:
            raise InputError("duplicate traffic source for "
                             f"{(src.station, src.traffic_class)}", BAD_CONFIG)
        dst = src.destination if src.destination is not None else (src.station + 1) % n
        row[src.station] = _Queue(
            src, ticks(frame_us[src.frame_bytes]), ((dst - src.station) % n or n) * hop_t,
            float(duration), seed * 1_000_003 + idx, L)
    sync_q, async_q = queues[SYNC], queues[ASYNC]

    def send(q: _Queue, start: int, budget: int) -> int:
        """Send whole frames from start while they fit in budget; returns
        the ticks used. Frame j (1..k) completes at start + j*ft."""
        ft = q.frame_ticks
        k = budget // ft
        if q.arrivals is not None:
            # a queued frame goes only once it has arrived
            i, t = 0, start
            while i < k and q.next_arrival <= t:
                i += 1
                t += ft
                q.next_arrival = next(q.arrivals, math.inf)
            k = i
        if k <= 0:
            return 0
        q.sent += k
        q.in_window += max(0, min(k, (dur - start) // ft)
                           - min(k, max(0, (warm - start) // ft)))
        q.delivered += min(k, max(0, (dur - q.deliver_ticks - start) // ft))
        return k * ft

    # pretend a zero-load rotation preceded t=0 so first rotations read D
    last_arrival = [(i - n) * hop_t for i in range(n)]
    arrivals_log = [[] for _ in range(n)] if load.probe_count > 0 else None
    max_gap = [-1] * n
    visits = 0
    trace: list[VisitRecord] = []

    now = station = 0
    while now <= dur:
        rotation = now - last_arrival[station]
        last_arrival[station] = now
        if arrivals_log is not None:
            arrivals_log[station].append(now)
        if now > warm and rotation > max_gap[station]:
            max_gap[station] = rotation
        visits += 1

        q = sync_q[station]
        sync_used = send(q, now, alloc[station]) if q is not None else 0
        q = async_q[station]
        async_used = (send(q, now + sync_used, ttrt - rotation)
                      if q is not None and rotation < ttrt else 0)
        depart = now + sync_used + async_used
        if collect_trace:
            trace.append(VisitRecord(station, *(Fraction(x, L) for x in (
                now, rotation, sync_used, async_used, depart))))
        now = depart + hop_t
        station = station + 1 if station + 1 < n else 0

    counts = {SYNC: [0, 0, 0], ASYNC: [0, 0, 0]}  # bytes sent, delivered; in flight
    window_bits = 0
    for cls, tally in counts.items():
        for q in queues[cls]:
            if q is not None:
                tally[0] += q.sent * q.frame_bytes
                tally[1] += q.delivered * q.frame_bytes
                tally[2] += q.sent - q.delivered
                window_bits += q.in_window * q.frame_bytes * 8
    throughput = float(Fraction(window_bits)
                       / ((duration - warmup) * LINE_RATE_BITS_PER_US))

    sync_stations = [i for i in range(n) if cfg.sync_allocation_us[i] > 0]
    gaps = [max_gap[i] for i in sync_stations or range(n) if max_gap[i] >= 0]
    max_sync_gap = max(gaps) / L if gaps else None

    probe_delays: list[float] = []
    if arrivals_log is not None:
        rng = random.Random(seed * 1_000_003 + 7919)
        horizon = min(a[-1] / L if a else 0.0 for a in arrivals_log)
        lo = float(warmup)
        if horizon > lo:
            for _ in range(load.probe_count):
                t = rng.uniform(lo, horizon)
                arr = rng.choice(arrivals_log)      # draws as randrange(n)
                p, q = t.as_integer_ratio()
                idx = bisect_right(arr, p * L // q)  # first arrival after t
                if idx < len(arr):
                    probe_delays.append(arr[idx] / L - t)

    return SimMetrics(
        duration_us=float(duration),
        warmup_us=float(warmup),
        n_token_visits=visits,
        throughput=throughput,
        sync_bytes_sent=counts[SYNC][0],
        async_bytes_sent=counts[ASYNC][0],
        sync_bytes_delivered=counts[SYNC][1],
        async_bytes_delivered=counts[ASYNC][1],
        sync_frames_in_flight=counts[SYNC][2],
        async_frames_in_flight=counts[ASYNC][2],
        max_sync_gap_us=max_sync_gap,
        mean_access_delay_us=(sum(probe_delays) / len(probe_delays)
                              if probe_delays else None),
        max_access_delay_us=max(probe_delays) if probe_delays else None,
        probe_delays_us=tuple(probe_delays),
        trace=tuple(trace),
    )


def saturated_async_load(stations: Iterable[int], frame_bytes: int = 100) -> TrafficModel:
    """All listed stations offer unbounded asynchronous traffic."""
    return TrafficModel.make(
        TrafficSource(station=s, traffic_class=ASYNC, rate_mbps=None,
                      frame_bytes=frame_bytes)
        for s in stations)


def disjoint_neighbour_pairs(pairs: Sequence[int], n_stations: int) -> list[tuple[int, int]]:
    """(source, downstream-neighbour) pairs; rejects overlapping stations."""
    used: set[int] = set()
    out = []
    for src in pairs:
        dst = (src + 1) % n_stations
        if src in used or dst in used:
            raise ValueError(f"pair {src}->{dst} overlaps another pair")
        used.update((src, dst))
        out.append((src, dst))
    return out


def spatial_reuse_throughput(cfg: RingConfig, pair_sources: Sequence[int],
                             duration_us=None, frame_bytes: int = 100,
                             seed: int = 0) -> float:
    """Aggregate throughput for k disjoint neighbour pairs, as a fraction
    of the single-link rate.

    Under destination stripping each frame occupies only the segment from
    its source to the downstream neighbour, so disjoint pairs transmit
    concurrently and the aggregate can exceed 1.0. Under source stripping
    the one token serialises everything (frames circle the whole ring),
    so the timed-token simulation bounds the aggregate by 1.0.
    """
    n = cfg.n_stations
    pairs = disjoint_neighbour_pairs(pair_sources, n)
    duration = _us(duration_us) if duration_us is not None else 200 * cfg.ttrt_us
    if cfg.stripping == "destination":
        frame_time = Fraction(frame_bytes * 8) / LINE_RATE_BITS_PER_US
        frames_per_pair = int(duration / frame_time)
        bits = frames_per_pair * frame_bytes * 8 * len(pairs)
        return float(Fraction(bits) / (duration * LINE_RATE_BITS_PER_US))
    metrics = run_simulation(
        cfg, saturated_async_load([s for s, _ in pairs], frame_bytes),
        duration_us=duration, seed=seed)
    return metrics.throughput


def config_from_dict(doc: dict) -> tuple[RingConfig, TrafficModel]:
    """Build (RingConfig, TrafficModel) from a parsed config document; a
    missing or malformed field raises InputError tagged bad-config."""
    if not isinstance(doc, dict):
        raise InputError(f"need a JSON object, got {type(doc).__name__}", BAD_CONFIG)

    def field(entry: dict, key: str, to, default=None, where: str = ""):
        return number(entry.get(key, default), to, where + key, BAD_CONFIG)

    n = field(doc, "n_stations", whole)
    alloc_in = doc.get("sync_allocation_us", [])
    if isinstance(alloc_in, dict):
        alloc = [0] * n
        for key, val in alloc_in.items():
            station = number(key, whole, "sync_allocation_us station", BAD_CONFIG)
            if not 0 <= station < n:
                raise InputError(f"sync_allocation_us: station {key} out of range", BAD_CONFIG)
            alloc[station] = val
    elif isinstance(alloc_in, list):
        alloc = alloc_in + [0] * (n - len(alloc_in))
    else:
        raise InputError("sync_allocation_us: need a list or an object", BAD_CONFIG)
    km = doc.get("total_cable_km")  # kept as given: TotalCable quotes it
    if km is not None and not isinstance(km, (int, float)):
        raise InputError(f"total_cable_km: need a number, got {km!r}", BAD_CONFIG)
    cfg = RingConfig.make(
        n_stations=n,
        ring_latency_us=field(doc, "ring_latency_us", _us),
        ttrt_us=field(doc, "ttrt_us", _us),
        sync_allocation_us=[number(a, _us, f"sync_allocation_us[{i}]", BAD_CONFIG)
                            for i, a in enumerate(alloc)],
        stripping=doc.get("stripping", "source"),
        total_cable_km=km,
        compliance=doc.get("compliance", True),
    )
    traffic = doc.get("traffic", [])
    if not isinstance(traffic, list) or not all(isinstance(e, dict) for e in traffic):
        raise InputError("traffic: need a list of objects", BAD_CONFIG)
    sources = []
    for i, entry in enumerate(traffic):
        where = f"traffic[{i}]."
        rate = entry.get("rate_mbps")
        if rate in ("saturated", None):
            rate = None
        else:
            rate = field(entry, "rate_mbps", float, where=where)
            if not 0 <= rate < math.inf:
                raise InputError(f"rate_mbps must be finite and >= 0, got {rate}", BAD_CONFIG)
        frame_bytes = field(entry, "frame_bytes", whole, 100, where)
        if frame_bytes < 1:
            raise InputError(f"frame_bytes must be >= 1, got {frame_bytes}", BAD_CONFIG)
        sources.append(TrafficSource(
            station=field(entry, "station", whole, where=where),
            traffic_class=entry.get("class"),
            rate_mbps=rate,
            frame_bytes=frame_bytes,
            destination=(field(entry, "destination", whole, where=where)
                         if entry.get("destination") is not None else None),
        ))
    load = TrafficModel.make(sources, probe_count=field(doc, "probes", whole, 0))
    return cfg, load


def load_config_file(path: str) -> tuple[RingConfig, TrafficModel]:
    """Read a simulation config file (README "Simulation config"); malformed
    input raises InputError tagged bad-config."""
    try:
        return config_from_dict(read_input(path, BAD_CONFIG, json.loads))
    except InputError as exc:
        exc.path = path
        raise
