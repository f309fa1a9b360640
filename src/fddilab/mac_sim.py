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
are rounded up to a tick once, when they are drawn, from the float t * L
where two int divisions confirm it (_first_tick). Access-delay probes
draw with inlined ``random`` calls on the library's stream and bisect
float times, recounted on the integer ticks at a rounded tie. A run is
a pure function of (config, load, duration, seed).

The walk keeps tau = now - station * D/n and, per station, last[i], the
tau of its last token arrival; the rotation there is tau - last[i]. A
hop leaves tau as it is, a transmission adds its length and the wrap to
station 0 adds D, so tau never falls and last[station:], written in the
previous pass, is sorted: the first station ahead whose token comes
early is one bisect. Stations with a sync allocation (their gaps are
reported) are walked visit by visit, and so is every station when a
trace or probe times are kept. The visits up to the next such station
or early sender send nothing and are taken in one step, and a ring that
can never send (no async queue, or T = D) skips to its last pass.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from . import Field, InputError, Violation, exact, read, read_input, read_one, record, shown, whole
from .link_planner import ring_limits

LINE_RATE_BITS_PER_US = Fraction(100)  # 100 Mbps

SYNC = "sync"
ASYNC = "async"

BAD_CONFIG = "bad-config"   # InputError tag of a malformed config
TOO_LONG = "too-long"       # InputError tag of a run whose duration asks too much work
# caps that keep a run's work and its per-station lists small, compliance or not
MAX_STATIONS = 1_000_000
MAX_PROBES = 1_000_000      # about 0.3 s of probes at ~325 ns each
MAX_VISITS = 5_000_000      # token visits a walk may make: about 5-7 s at 1-1.4 us each
MAX_FRAMES = 10_000_000     # Poisson frames a run may send: about 6-8 s at 0.6-0.8 us each

# The fields of a config file (README "Simulation config"), read by fddilab.read
CONFIG = (
    Field("n_stations", whole),
    Field("ring_latency_us", exact),
    Field("ttrt_us", exact),
    Field("stripping", str, "source"),
    Field("total_cable_km", float, low=0, nulls=(None,)),
    Field("compliance", bool, True),
    Field("probes", whole, 0, low=0, high=MAX_PROBES, unit="probes"),
)
ALLOCATION = Field("sync_allocation_us[{}]", exact)
ALLOCATION_KEY = Field("sync_allocation_us station", int)
TRAFFIC = (   # in TrafficSource's order
    Field("traffic[{}].station", whole),
    Field("traffic[{}].class", str),
    Field("traffic[{}].rate_mbps", float, low=0, nulls=(None, "saturated")),
    Field("traffic[{}].frame_bytes", whole, 100, low=1),
    Field("traffic[{}].destination", whole, nulls=(None,)),
)
STATION_CAP = Field("n_stations", whole, high=MAX_STATIONS, unit="stations")  # compliance off


class DomainError(ValueError):
    """Formula arguments outside the valid domain."""


class ConfigViolationsError(InputError):
    """Simulation requested with an invalid ring configuration."""

    tag = "config-violations"

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__(",".join(v.rule for v in violations))


@record
class RingConfig:
    """Ring topology and timed-token parameters."""

    n_stations: int
    ring_latency_us: Fraction       # D: zero-load round-trip token walk time
    ttrt_us: Fraction               # T: negotiated target token rotation time
    sync_allocation_us: tuple[Fraction, ...] = ()   # one per station; () is all 0
    stripping: str = "source"       # "source" | "destination"
    total_cable_km: float | None = None
    compliance: bool = True

    @staticmethod
    def make(n_stations, ring_latency_us, ttrt_us, sync_allocation_us=None,
             stripping="source", total_cable_km=None, compliance=True) -> "RingConfig":
        alloc = tuple(map(exact, sync_allocation_us or ()))
        _check_allocation_count(n_stations, len(alloc))
        return RingConfig(
            n_stations=n_stations,
            ring_latency_us=exact(ring_latency_us),
            ttrt_us=exact(ttrt_us),
            sync_allocation_us=alloc,
            stripping=stripping,
            total_cable_km=total_cable_km,
            compliance=compliance,
        )


def _check_allocation_count(n: int, count: int) -> None:
    """A ring has no sync allocations (all 0) or one per station (n < 1 is NoStations)."""
    if count and 0 < n != count:
        raise InputError(f"need one sync allocation per station ({n})", BAD_CONFIG)


def validate_config(cfg: RingConfig, allocations=None) -> list[Violation]:
    """Every violated configuration invariant, with the offending values;
    ``allocations``, (station, us) pairs, stand in for the config's own."""
    out = []
    if cfg.n_stations < 1:
        out.append(Violation("NoStations", f"n_stations={cfg.n_stations}"))
    if cfg.ring_latency_us <= 0:  # a zero hop would stop the clock: the run would never end
        out.append(Violation("LatencyNotPositive", f"ring latency {cfg.ring_latency_us} us <= 0"))
    if cfg.ttrt_us < cfg.ring_latency_us:
        out.append(Violation("TtrtBelowLatency",
                             f"TTRT {cfg.ttrt_us} us < ring latency {cfg.ring_latency_us} us"))
    if cfg.stripping not in ("source", "destination"):
        out.append(Violation("UnknownStripping", cfg.stripping))
    sync_total = Fraction(0)
    for i, alloc in enumerate(cfg.sync_allocation_us) if allocations is None else allocations:
        if not alloc:   # most stations have none; a Fraction compare or add costs ~1 us
            continue
        if alloc < 0:  # it would lift another station's share past T - D
            out.append(Violation("NegativeSyncAllocation", f"station {i}: {alloc} us < 0"))
        sync_total += alloc
    if sync_total > cfg.ttrt_us - cfg.ring_latency_us:
        out.append(Violation("SyncOversubscribed", f"sync allocations {sync_total} us > T - D "
                             f"= {cfg.ttrt_us - cfg.ring_latency_us} us"))
    if cfg.compliance:
        out += ring_limits(cfg.n_stations, cfg.total_cable_km)
    return out


def theoretical_efficiency(n: int, ttrt_us, latency_us) -> float:
    """Saturated timed-token efficiency n(T - D) / (nT + D)."""
    if n < 1:
        raise DomainError(f"need at least one station, got {n}")
    t = exact(ttrt_us)
    d = exact(latency_us)
    if d < 0 or t < d:
        raise DomainError(f"need T >= D >= 0, got T={t}, D={d}")
    if d == 0:
        return 1.0
    return float(Fraction(n) * (t - d) / (Fraction(n) * t + d))


@record
class TrafficSource:
    """Offered load at one station. rate_mbps=None means saturated."""

    station: int
    traffic_class: str              # "sync" | "async"
    rate_mbps: float | None = None
    frame_bytes: int = 100
    destination: int | None = None  # default: downstream neighbour


@record
class TrafficModel:
    sources: tuple[TrafficSource, ...] = ()
    probe_count: int = 0

    @staticmethod
    def make(sources: Iterable[TrafficSource] = (), probe_count: int = 0) -> "TrafficModel":
        return TrafficModel(sources=tuple(sources), probe_count=probe_count)


@record
class VisitRecord:
    """One token visit: timing and what was transmitted."""

    station: int
    arrival_us: Fraction
    rotation_us: Fraction
    sync_tx_us: Fraction
    async_tx_us: Fraction
    depart_us: Fraction


@record
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
    probe_delays_us: tuple[float, ...] = ()
    trace: tuple[VisitRecord, ...] = ()


def _first_tick(t: float, ticks_per_us: int) -> int:
    """The first tick N with float(N / L) >= t us, L = ticks_per_us: that
    is ceil(t * L), unless ticks just below t * L already round to t.
    While L and the float product t * L are below 2**53, ceil of that
    product is taken once two exact int / int divisions confirm it; else,
    or if they do not, ceil(t * L) comes from t's integer ratio."""
    if ticks_per_us < 2 ** 53 and (x := t * ticks_per_us) < 2 ** 53:
        hi = math.ceil(x)
        if (hi - 1) / ticks_per_us < t <= hi / ticks_per_us:
            return hi
    p, q = t.as_integer_ratio()
    hi = -(-p * ticks_per_us // q)                  # ceil(t * L), exact
    if (hi - 1) / ticks_per_us < t:                 # int / int rounds once
        return hi
    p, q = math.nextafter(t, 0.0).as_integer_ratio()
    lo = p * ticks_per_us // q                      # float(lo / L) < t
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid / ticks_per_us >= t else (mid, hi)
    return hi


def _arrival_ticks(source: TrafficSource, horizon: float, rng_seed: int,
                   ticks_per_us: int) -> Iterator[int]:
    """A Poisson source's arrivals up to horizon us, drawn one at a time
    from its own stream as expovariate does, each rounded up to a tick."""
    rate = source.rate_mbps             # bits per us
    if not rate > 0:
        return
    rand, log = random.Random(rng_seed).random, math.log
    lambd = 1.0 / (source.frame_bytes * 8 / rate)
    t = -log(1.0 - rand()) / lambd
    while t <= horizon:
        yield _first_tick(t, ticks_per_us)
        t += -log(1.0 - rand()) / lambd


def _probe_delays(arrivals_log: list[list[int]], L: int, warmup: float,
                  count: int, seed: int) -> list[float]:
    """Up to count access delays in us, each from a uniform instant t in
    [warmup, horizon] (the earliest last arrival) to the next token arrival
    at a uniform station; arrivals_log holds each station's ticks of 1/L us.
    Draws: Random(seed * 1_000_003 + 7919).uniform then .choice, inlined.
    A float bisect on a / L finds the arrival, exact but where an a / L > t
    rounds to t: only then is the index recounted on the integer ticks."""
    farrs = [[a / L for a in arr] for arr in arrivals_log]
    horizon = min(f[-1] if f else 0.0 for f in farrs)
    rng = random.Random(seed * 1_000_003 + 7919)
    rand, getrandbits = rng.random, rng.getrandbits
    n, span, delays = len(farrs), horizon - warmup, []
    k = n.bit_length()                          # as random._randbelow
    for _ in range(count if horizon > warmup else 0):
        t = warmup + span * rand()              # rng.uniform(warmup, horizon)
        i = getrandbits(k)                      # rng.choice: randbelow(n)
        while i >= n:
            i = getrandbits(k)
        farr = farrs[i]
        idx = bisect_right(farr, t)             # first arrival after t
        if idx and farr[idx - 1] == t:          # a / L may be above t: recount
            p, q = t.as_integer_ratio()
            idx = bisect_right(arrivals_log[i], p * L // q)
        if idx < len(farr):
            delays.append(farr[idx] - t)
    return delays


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
                   seed: int, collect_trace: bool = False) -> SimMetrics:
    """Simulate the ring and return deterministic aggregate metrics.

    Throughput is measured after a warmup of duration/5; byte conservation
    counters cover the whole run. Probe access delays sample the wait
    from a uniformly random instant until the token next arrives at a
    uniformly random station, found by a float bisect with an exact
    integer fallback at a rounded tie (_probe_delays). A duration whose
    walk would pass MAX_VISITS token visits, or whose Poisson queues could
    send more than MAX_FRAMES frames, is refused before the walk.
    """
    _check_allocation_count(cfg.n_stations, len(cfg.sync_allocation_us))
    violations = validate_config(cfg)
    if violations:
        raise ConfigViolationsError(violations)
    duration = exact(duration_us)
    if duration <= 0:
        raise ValueError("duration must be positive")
    warmup = duration / 5

    n = cfg.n_stations
    hop = cfg.ring_latency_us / n
    horizon = float(duration)
    # One tick is 1/L us, L the lcm of every time's denominator, so the
    # loop below runs on ints and stays exact.
    frame_us = {b: Fraction(b * 8) / LINE_RATE_BITS_PER_US
                for b in {s.frame_bytes for s in load.sources}}
    allocs = [a for a in cfg.sync_allocation_us if a]
    L = math.lcm(*(x.denominator for x in (
        hop, cfg.ttrt_us, duration, warmup, *allocs, *frame_us.values())))

    def ticks(x: Fraction) -> int:
        return x.numerator * (L // x.denominator)

    hop_t, ttrt, dur, warm = ticks(hop), ticks(cfg.ttrt_us), ticks(duration), ticks(warmup)
    d_t = hop_t * n
    frame_t = {b: ticks(f) for b, f in frame_us.items()}
    alloc = [ticks(a) if a else 0 for a in cfg.sync_allocation_us] or [0] * n
    queues: dict[str, list[_Queue | None]] = {SYNC: [None] * n, ASYNC: [None] * n}
    frames = 0      # the most Poisson frames the line rate lets the queues send
    for idx, src in enumerate(load.sources):
        dst = src.destination if src.destination is not None else (src.station + 1) % n
        for name, at in (("station", src.station), ("destination", dst)):
            if not 0 <= at < n:
                raise InputError(f"traffic[{idx}].{name}: station {at} out of range", BAD_CONFIG)
        if src.traffic_class not in (SYNC, ASYNC):
            raise InputError(f"traffic[{idx}].class: unknown traffic class "
                             f"{shown(src.traffic_class)}", BAD_CONFIG)
        row = queues[src.traffic_class]
        if row[src.station] is not None:
            raise InputError(f"traffic[{idx}].station: duplicate traffic source for "
                             f"{(src.station, src.traffic_class)}", BAD_CONFIG)
        if src.rate_mbps:
            frames += dur // frame_t[src.frame_bytes]
        row[src.station] = _Queue(
            src, frame_t[src.frame_bytes], ((dst - src.station) % n or n) * hop_t,
            horizon, seed * 1_000_003 + idx, L)
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
        if start >= warm and start + k * ft + q.deliver_ticks <= dur:
            q.in_window += k            # every frame ends in the window
            q.delivered += k            # and reaches its destination
        else:
            q.in_window += max(0, min(k, (dur - start) // ft)
                               - min(k, max(0, (warm - start) // ft)))
            q.delivered += min(k, max(0, (dur - q.deliver_ticks - start) // ft))
        return k * ft

    # A stop is walked one visit at a time: a station with a sync
    # allocation (its gaps are reported), or every station when the run
    # keeps a trace or arrival times for probes. A sender has an async
    # queue, so it may send on an early token. next_*[i] is the first
    # such station at or after i (n: none).
    walk_all = collect_trace or load.probe_count > 0
    next_stop, next_sender = [n] * (n + 1), [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        next_stop[i] = i if walk_all or alloc[i] else next_stop[i + 1]
        next_sender[i] = i if async_q[i] is not None else next_sender[i + 1]

    # last[i] is tau = now - station * hop at station i's last visit, so
    # last[station:] is sorted (module docstring); a zero-load rotation
    # before t=0 makes first rotations read D.
    last = [-d_t] * n
    arrivals_log = [[] for _ in range(n)] if load.probe_count > 0 else None
    sync_free = not allocs
    gap = -1        # largest post-warmup rotation at a reported station
    visits = tau = station = 0
    trace: list[VisitRecord] = []
    if next_stop[0] == n and (next_sender[0] == n or ttrt == d_t):
        # no station can send (at T = D every token is late), so every
        # rotation reads D: skip to the last pass
        tau = dur // d_t * d_t
        visits = tau // d_t * n
        last = [tau - d_t] * n
    else:   # the walk's work, bounded before it starts
        for work, cap, what in ((n * (dur // d_t + 1), MAX_VISITS, "token visits"),
                                (frames, MAX_FRAMES, "Poisson frames")):
            if work > cap:
                raise InputError(f"--duration {horizon:g} asks for more than {cap} {what}",
                                 TOO_LONG)

    while True:
        if station == n:
            station = 0
            tau += d_t
        stop = next_stop[station]
        if stop > station and (next_sender[station] > station or tau - last[station] >= ttrt):
            # Up to the next stop, the next early sender or the end of
            # the run, every visit sends nothing and tau stays put.
            end = min(stop, next_sender[bisect_right(last, tau - ttrt, station, stop)],
                      (dur - tau) // hop_t + 1)
            if end > station:
                visits += end - station
                # the first visit past the warmup has the largest rotation
                first = max(station, (warm - tau) // hop_t + 1)
                if sync_free and first < end and tau - last[first] > gap:
                    gap = tau - last[first]
                last[station:end] = [tau] * (end - station)
                station = end
                if station == n:
                    continue
        now = tau + station * hop_t
        if now > dur:
            break
        rotation = tau - last[station]
        last[station] = tau
        if arrivals_log is not None:
            arrivals_log[station].append(now)
        if now > warm and rotation > gap and (sync_free or alloc[station]):
            gap = rotation
        visits += 1

        q = sync_q[station]
        sync_used = send(q, now, alloc[station]) if q is not None else 0
        q = async_q[station]
        async_used = (send(q, now + sync_used, ttrt - rotation)
                      if q is not None and rotation < ttrt else 0)
        tau += sync_used + async_used
        if collect_trace:
            trace.append(VisitRecord(station, *(Fraction(x, L) for x in (
                now, rotation, sync_used, async_used, now + sync_used + async_used))))
        station += 1

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

    probe_delays = (_probe_delays(arrivals_log, L, float(warmup), load.probe_count, seed)
                    if arrivals_log is not None else [])

    return SimMetrics(
        duration_us=horizon,
        warmup_us=float(warmup),
        n_token_visits=visits,
        throughput=throughput,
        sync_bytes_sent=counts[SYNC][0],
        async_bytes_sent=counts[ASYNC][0],
        sync_bytes_delivered=counts[SYNC][1],
        async_bytes_delivered=counts[ASYNC][1],
        sync_frames_in_flight=counts[SYNC][2],
        async_frames_in_flight=counts[ASYNC][2],
        max_sync_gap_us=gap / L if gap >= 0 else None,
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


def spatial_reuse_throughput(cfg: RingConfig, pair_sources: Sequence[int]) -> float:
    """Aggregate throughput for k disjoint neighbour pairs, as a fraction
    of the single-link rate, over 200 TTRTs of 100-byte frames (seed 0).

    Under destination stripping each frame occupies only the segment from
    its source to the downstream neighbour, so disjoint pairs transmit
    concurrently and the aggregate can exceed 1.0. Under source stripping
    the one token serialises everything (frames circle the whole ring),
    so the timed-token simulation bounds the aggregate by 1.0.
    """
    used: set[int] = set()
    for src in pair_sources:  # each source sends to its downstream neighbour
        dst = (src + 1) % cfg.n_stations
        if src in used or dst in used:
            raise ValueError(f"pair {src}->{dst} overlaps another pair")
        used.update((src, dst))
    duration = 200 * cfg.ttrt_us
    if cfg.stripping == "destination":  # every pair sends whole 800-bit frames at once
        bits = int(duration * LINE_RATE_BITS_PER_US / 800) * 800 * len(pair_sources)
        return float(bits / (duration * LINE_RATE_BITS_PER_US))
    return run_simulation(cfg, saturated_async_load(pair_sources),
                          duration_us=duration, seed=0).throughput


def config_from_dict(doc: dict) -> tuple[RingConfig, TrafficModel]:
    """Build (RingConfig, TrafficModel) from a parsed config document; a
    missing or malformed field raises InputError tagged bad-config."""
    if not isinstance(doc, dict):
        raise InputError(f"need a JSON object, got {type(doc).__name__}", BAD_CONFIG)
    n, latency, ttrt, stripping, km, compliance, probes = read(doc, CONFIG, BAD_CONFIG)
    alloc = doc.get("sync_allocation_us", [])
    if not isinstance(alloc, (dict, list)):
        raise InputError("sync_allocation_us: need a list or an object", BAD_CONFIG)
    given = {}   # station -> us, the rest 0
    for key, us in alloc.items() if isinstance(alloc, dict) else enumerate(alloc):
        station = read_one(key, ALLOCATION_KEY, BAD_CONFIG)   # a list index reads as itself
        if isinstance(alloc, dict) and not 0 <= station < n:
            raise InputError(f"sync_allocation_us: station {key} out of range", BAD_CONFIG)
        given[station] = read_one(us, ALLOCATION, BAD_CONFIG, station)
    _check_allocation_count(n, max(n, len(given)))   # the stations not given get 0
    traffic = doc.get("traffic", [])
    if not isinstance(traffic, list) or not all(isinstance(e, dict) for e in traffic):
        raise InputError("traffic: need a list of objects", BAD_CONFIG)
    sources = []
    for i, entry in enumerate(traffic):
        sources.append(src := TrafficSource._make(read(entry, TRAFFIC, BAD_CONFIG, i)))
        try:   # a Poisson source's mean gap in us, as _arrival_ticks works it out
            gap = src.frame_bytes * 8 / src.rate_mbps if src.rate_mbps else 0.0
        except OverflowError:   # frame_bytes past the float range
            gap = math.inf
        if gap == math.inf:
            raise InputError(f"traffic[{i}].frame_bytes: need a mean gap frame_bytes * 8 / "
                             f"rate_mbps in the float range, got {shown(src.frame_bytes)} "
                             f"at {src.rate_mbps!r} Mbps", BAD_CONFIG)
    cfg = RingConfig(n, latency, ttrt, (), stripping, km, compliance)
    # refused before any per-station list: past the ring limit as StationCount,
    # and with compliance off past the cap
    if compliance and ring_limits(n, None):
        raise ConfigViolationsError(validate_config(cfg, sorted(given.items())))
    read_one(n, STATION_CAP, BAD_CONFIG)
    if given:
        zero = Fraction(0)
        cfg = cfg._replace(sync_allocation_us=tuple(
            given.get(i, zero) for i in range(max(n, len(given)))))
    return cfg, TrafficModel.make(sources, probe_count=probes)


def load_config_file(path: str) -> tuple[RingConfig, TrafficModel]:
    """Read a simulation config file (README "Simulation config"); malformed
    input raises InputError tagged bad-config."""
    return read_input(path, BAD_CONFIG, lambda text: config_from_dict(json.loads(text)))
