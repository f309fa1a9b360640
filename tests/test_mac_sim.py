"""Unit tests for the timed-token MAC simulator."""

import math
import random
from fractions import Fraction

import pytest

from fddilab import InputError, Violation
from fddilab.mac_sim import (
    ASYNC,
    SYNC,
    ConfigViolationsError,
    DomainError,
    RingConfig,
    TrafficModel,
    TrafficSource,
    config_from_dict,
    run_simulation,
    saturated_async_load,
    spatial_reuse_throughput,
    theoretical_efficiency,
    validate_config,
)


def cfg_of(n=4, d=100, t=400, **kw):
    return RingConfig.make(n, d, t, **kw)


# --- configuration validation ----------------------------------------------

def test_a_duration_of_zero_is_refused():
    with pytest.raises(ValueError) as err:
        run_simulation(cfg_of(), saturated_async_load([0]), duration_us=0, seed=0)
    assert str(err.value) == "duration must be positive"


def test_ttrt_equal_to_latency_is_allowed():
    assert validate_config(cfg_of(t=100, d=100)) == []


def test_ttrt_below_latency_is_violation():
    rules = [v.rule for v in validate_config(cfg_of(t=99, d=100))]
    assert "TtrtBelowLatency" in rules


def test_station_count_compliance():
    big = RingConfig.make(501, 1000, 5000)
    assert "StationCount" in [v.rule for v in validate_config(big)]
    relaxed = RingConfig.make(501, 1000, 5000, compliance=False)
    assert validate_config(relaxed) == []


def test_a_ring_over_the_station_limit_lists_no_station():
    huge = RingConfig.make(200_000_000, 1000, 5000)
    assert huge.sync_allocation_us == ()   # every station 0, kept as ()
    assert [v.rule for v in validate_config(huge)] == ["StationCount"]


def test_no_sync_allocations_run_as_all_zero():
    given = run_simulation(cfg_of(sync_allocation_us=[0] * 4), saturated_async_load([0, 2]),
                           duration_us=4000, seed=3)
    assert run_simulation(cfg_of(), saturated_async_load([0, 2]),
                          duration_us=4000, seed=3) == given


def test_total_cable_compliance():
    cfg = RingConfig.make(10, 1000, 5000, total_cable_km=101)
    assert "TotalCable" in [v.rule for v in validate_config(cfg)]


def test_sync_oversubscription():
    cfg = RingConfig.make(2, 100, 200, sync_allocation_us=[80, 30])
    assert "SyncOversubscribed" in [v.rule for v in validate_config(cfg)]


def test_allocations_are_none_or_one_per_station():
    with pytest.raises(InputError, match=r"need one sync allocation per station \(3\)"):
        RingConfig.make(3, 100, 400, [10, 0])
    short = RingConfig(3, Fraction(100), Fraction(400), (Fraction(10),))   # built directly
    with pytest.raises(InputError, match=r"need one sync allocation per station \(3\)"):
        run_simulation(short, TrafficModel(), 1000, seed=0)


def test_run_simulation_rejects_invalid_config():
    with pytest.raises(ConfigViolationsError) as err:
        run_simulation(cfg_of(t=50, d=100), TrafficModel(), 1000, seed=0)
    assert any(v.rule == "TtrtBelowLatency" for v in err.value.violations)


# --- efficiency formula ------------------------------------------------------

def test_efficiency_formula_values():
    assert theoretical_efficiency(3, 100, 0) == 1.0
    assert theoretical_efficiency(5, 100, 100) == 0.0
    assert theoretical_efficiency(4, 300, 100) == pytest.approx(8 / 13, abs=1e-12)


def test_efficiency_domain_errors():
    with pytest.raises(DomainError):
        theoretical_efficiency(2, 100, 200)
    with pytest.raises(DomainError):
        theoretical_efficiency(0, 100, 50)


def test_saturated_throughput_matches_formula():
    n, d, t = 5, 200, 800
    cfg = cfg_of(n=n, d=d, t=t)
    metrics = run_simulation(cfg, saturated_async_load(range(n), 100),
                             duration_us=400 * t, seed=1)
    expected = theoretical_efficiency(n, t, d)
    assert abs(metrics.throughput - expected) / expected < 0.02


def test_throughput_monotone_in_ttrt():
    d = 100
    values = []
    for ratio in (1.2, 1.5, 2, 3, 5, 10):
        t = d * Fraction(str(ratio))
        cfg = RingConfig.make(4, d, t)
        m = run_simulation(cfg, saturated_async_load(range(4), 50),
                           duration_us=300 * t, seed=2)
        values.append(m.throughput)
    assert values == sorted(values)


# --- determinism -------------------------------------------------------------

def test_identical_runs_identical_metrics():
    cfg = cfg_of(sync_allocation_us=[20, 0, 30, 0])
    load = TrafficModel.make(
        [TrafficSource(0, SYNC, 5.0, 80),
         TrafficSource(2, SYNC, 8.0, 120),
         TrafficSource(1, ASYNC, None, 100)],
        probe_count=200)
    a = run_simulation(cfg, load, 30000, seed=11)
    b = run_simulation(cfg, load, 30000, seed=11)
    assert a == b
    c = run_simulation(cfg, load, 30000, seed=12)
    assert c.probe_delays_us != a.probe_delays_us


# --- zero-load access delay ---------------------------------------------------

def test_zero_load_mean_access_delay_near_half_latency():
    d = 200
    cfg = RingConfig.make(5, d, 800)
    load = TrafficModel.make((), probe_count=4000)
    m = run_simulation(cfg, load, duration_us=200_000, seed=7)
    assert len(m.probe_delays_us) == 4000
    assert m.mean_access_delay_us == pytest.approx(d / 2, rel=0.05)
    assert m.max_access_delay_us <= d


def test_zero_load_delay_uniform_ks():
    # Kolmogorov-Smirnov against U[0, D], alpha = 0.01
    d = 200
    cfg = RingConfig.make(5, d, 800)
    load = TrafficModel.make((), probe_count=2000)
    m = run_simulation(cfg, load, duration_us=120_000, seed=5)
    delays = sorted(m.probe_delays_us)
    n = len(delays)
    stat = max(max((i + 1) / n - x / d, x / d - i / n)
               for i, x in enumerate(delays))
    assert stat < 1.628 / math.sqrt(n)


# --- synchronous service -------------------------------------------------------

def test_sync_gap_bounded_by_twice_ttrt():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(2, 9)
        d = rng.randrange(50, 500)
        t = d + rng.randrange(d, 4 * d)
        budget = Fraction(8, 10) * (t - d)
        allocs = []
        remaining = budget
        for _ in range(n):
            a = Fraction(rng.randrange(0, int(remaining / 2) + 1))
            allocs.append(a)
            remaining -= a
        sources = [TrafficSource(i, SYNC, rng.uniform(1, 10),
                                 rng.choice([50, 100, 200]))
                   for i in range(n) if allocs[i] > 0]
        cfg = RingConfig.make(n, d, t, sync_allocation_us=allocs)
        m = run_simulation(cfg, TrafficModel.make(sources),
                           duration_us=100 * t, seed=rng.randrange(10_000))
        if m.max_sync_gap_us is not None:
            assert m.max_sync_gap_us <= 2 * t


def test_conservation_per_class():
    cfg = cfg_of(sync_allocation_us=[40, 0, 0, 0])
    load = TrafficModel.make(
        [TrafficSource(0, SYNC, 10.0, 100, destination=2),
         TrafficSource(3, ASYNC, None, 100, destination=1)])
    m = run_simulation(cfg, load, 50_000, seed=3)
    assert m.sync_bytes_delivered + m.sync_frames_in_flight * 100 == m.sync_bytes_sent
    assert m.async_bytes_delivered + m.async_frames_in_flight * 100 == m.async_bytes_sent
    assert m.async_bytes_sent > 0 and m.sync_bytes_sent > 0


def test_token_uniqueness_in_trace():
    cfg = cfg_of()
    m = run_simulation(cfg, saturated_async_load(range(4), 100), 20_000,
                       seed=9, collect_trace=True)
    trace = m.trace
    assert trace
    for prev, cur in zip(trace, trace[1:]):
        # token is either held or in transit: visits never overlap
        assert prev.depart_us <= cur.arrival_us
        assert cur.station == (prev.station + 1) % 4
    for rec in trace:
        assert rec.depart_us >= rec.arrival_us


def test_late_token_sends_no_async():
    # T == D leaves no earliness anywhere: zero asynchronous throughput
    cfg = cfg_of(n=3, d=300, t=300)
    m = run_simulation(cfg, saturated_async_load(range(3), 100), 30_000, seed=1)
    assert m.async_bytes_sent == 0
    assert m.throughput == 0.0


# --- spatial reuse -------------------------------------------------------------

def test_spatial_reuse_pairs_must_be_disjoint():
    cfg = cfg_of(n=8, stripping="destination")
    with pytest.raises(ValueError):
        spatial_reuse_throughput(cfg, [0, 1])  # 0->1 overlaps 1->2


def test_spatial_reuse_destination_vs_source():
    n, d = 10, 100
    t = 60 * d
    dest = RingConfig.make(n, d, t, stripping="destination")
    src = RingConfig.make(n, d, t, stripping="source")
    agg_dest = spatial_reuse_throughput(dest, [0, 2, 4, 6])
    agg_src = spatial_reuse_throughput(src, [0, 2, 4, 6])
    assert agg_dest > 1.0
    assert agg_src <= 1.0
    assert agg_dest > 1.5 * agg_src


def test_spatial_reuse_single_pair_policies_agree():
    n, d = 10, 100
    t = 60 * d
    dest = RingConfig.make(n, d, t, stripping="destination")
    src = RingConfig.make(n, d, t, stripping="source")
    a = spatial_reuse_throughput(dest, [3])
    b = spatial_reuse_throughput(src, [3])
    assert abs(a - b) / max(a, b) < 0.05


# --- helpers -------------------------------------------------------------------

def test_config_from_dict():
    cfg, load = config_from_dict({
        "n_stations": 3,
        "ring_latency_us": 90,
        "ttrt_us": 400,
        "sync_allocation_us": {"1": 25},
        "stripping": "source",
        "traffic": [
            {"station": 0, "class": "async", "rate_mbps": "saturated",
             "frame_bytes": 64},
            {"station": 1, "class": "sync", "rate_mbps": 4.5,
             "frame_bytes": 128, "destination": 2},
        ],
        "probes": 50,
    })
    assert cfg.n_stations == 3
    assert cfg.sync_allocation_us == (Fraction(0), Fraction(25), Fraction(0))
    assert load.sources[0].rate_mbps is None
    assert load.sources[1].destination == 2
    assert load.probe_count == 50


def test_config_from_dict_rejects_negative_or_non_finite_rate():
    for rate in (-3, "-0.5", "nan", float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=r"traffic\[0\]\.rate_mbps: need a finite number >= 0"):
            config_from_dict({
                "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 400,
                "traffic": [{"station": 0, "class": "async", "rate_mbps": rate}]})
    _, load = config_from_dict({
        "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 400,
        "traffic": [{"station": 0, "class": "async", "rate_mbps": 0}]})
    assert load.sources[0].rate_mbps == 0


def test_ring_limits_shared_with_link_planner():
    from fddilab import link_planner
    assert validate_config(RingConfig.make(501, 1000, 5000, total_cable_km=101)) == [
        Violation("StationCount", "501 stations > 500"),
        Violation("TotalCable", "101 km > 100 km")]
    report = link_planner.validate_ring(
        [link_planner.LinkSpec("SMF", 40_000)] * 3, 501)
    assert report.ring_rules == (Violation("StationCount", "501 stations > 500"),
                                 Violation("TotalCable", "120 km > 100 km"))
