"""A Poisson queue keeps only its next arrival: the simulator's memory is
bounded by the frames it sends, not by the offered rate."""

import tracemalloc

from fddilab import mac_sim

# 10 Gbps of 1-byte frames offered to a 100 Mbps ring: 1.25 million
# arrivals over the run, of which about 11 thousand can be sent.
OVERLOAD = {"n_stations": 1, "ring_latency_us": 10, "ttrt_us": 100,
            "traffic": [{"station": 0, "class": "async", "rate_mbps": 1e4,
                         "frame_bytes": 1}]}


def test_offered_rate_far_above_line_rate_runs_in_bounded_memory():
    cfg, load = mac_sim.config_from_dict(OVERLOAD)
    tracemalloc.start()
    try:
        metrics = mac_sim.run_simulation(cfg, load, duration_us=1000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert metrics.async_bytes_sent == 11_250
    assert peak < 1_000_000  # drawing every arrival up front peaked at ~50 MB
