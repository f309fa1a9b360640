"""End-to-end tests of the fddilab command-line interface."""

import contextlib
import errno
import io
import itertools
import json
import math
import os
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddilab import link_planner, mac_sim, shown
from fddilab.cli import (_COMMON, COMMANDS, _count, _duration, _match, build_parser, dispatch,
                         emit_report)

GOLDEN_RATES = """\
sts,oc,stm,line_mbps,payload_mbps
STS-1,OC-1,,51.84,50.112
STS-3,OC-3,STM-1,155.52,150.336
STS-9,OC-9,STM-3,466.56,451.008
STS-12,OC-12,STM-4,622.08,601.344
STS-18,OC-18,STM-6,933.12,902.016
STS-24,OC-24,STM-8,1244.16,1202.688
STS-36,OC-36,STM-12,1866.24,1804.032
STS-48,OC-48,STM-16,2488.32,2405.376
STS-96,OC-96,STM-32,4976.64,4810.176
STS-192,OC-192,STM-64,9953.28,9620.928
"""


def run(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rates_matches_golden_csv(capsys):
    code, out, _ = run(["rates"], capsys)
    assert code == 0
    assert out == GOLDEN_RATES


def test_rates_single_level(capsys):
    code, out, _ = run(["rates", "--level", "3"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "STS-3,OC-3,STM-1,155.52,150.336"


def test_rates_unknown_level_is_domain_error(capsys):
    code, _, err = run(["rates", "--level", "2"], capsys)
    assert code == 1
    assert err.startswith("error: unknown-level")


def test_rates_level_zero_is_an_unknown_level(capsys):
    code, out, err = run(["rates", "--level", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: unknown-level: STS-0 is not a published level\n"


def test_rates_json_format(capsys):
    code, out, _ = run(["rates", "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert rows[1]["stm"] == "STM-1"
    assert rows[1]["line_mbps"] == "155.52"


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(["simulate"], capsys)
    assert code == 2


def test_byte_identical_reruns(capsys):
    _, first, _ = run(["rates"], capsys)
    _, second, _ = run(["rates"], capsys)
    assert first == second


def test_codec_4b5b_file_round_trip(tmp_path, capsys):
    nibbles = tmp_path / "n.txt"
    encoded = tmp_path / "e.txt"
    decoded = tmp_path / "d.txt"
    nibbles.write_text("DEADBEEF0123")
    code, _, _ = run(["codec", "4b5b", "--in", str(nibbles),
                      "--out", str(encoded)], capsys)
    assert code == 0
    assert len(encoded.read_text().strip()) == 12 * 5
    code, _, _ = run(["codec", "4b5b", "--decode", "--in", str(encoded),
                      "--out", str(decoded)], capsys)
    assert code == 0
    assert decoded.read_text().strip() == "DEADBEEF0123"


def test_codec_decode_control_symbol_is_domain_error(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("11111")  # a control pattern in the shipped table
    code, _, err = run(["codec", "4b5b", "--decode", "--in", str(bits)], capsys)
    assert code == 1
    assert err.startswith("error: control-symbol")


def test_codec_nrzi_and_mlt3(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("11111111")
    code, out, _ = run(["codec", "nrzi", "--in", str(bits)], capsys)
    assert code == 0
    assert out.strip() == "10101010"
    code, out, _ = run(["codec", "mlt3", "--in", str(bits)], capsys)
    assert code == 0
    assert out.strip() == "+0-0+0-0"


def test_codec_input_outside_its_alphabet_is_one_error_line(tmp_path, capsys):
    cases = [(["4b5b"], "0a G\n9g", "['G', 'g'] not in '0123456789abcdefABCDEF'"),
             (["4b5b", "--decode"], "11110 2", "['2'] not in '01'"),
             (["nrzi"], "01\u00e9", "['\u00e9'] not in '01'"),
             (["mlt3"], "0x1", "['x'] not in '01'"),
             (["4b5b"], "f\u0660", "['\u0660'] not in '0123456789abcdefABCDEF'")]
    for argv, text, reason in cases:
        infile = tmp_path / "in.txt"
        infile.write_text(text, encoding="utf-8")
        code, out, err = run(["codec", *argv, "--in", str(infile)], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: bad-input-symbol: {reason}\n"


def test_scrambler_dump(capsys):
    code, out, _ = run(["scrambler", "dump", "--bits", "10"], capsys)
    assert code == 0
    assert out.strip() == "1111111000"


def test_scrambler_dump_negative_bits_is_usage_error(capsys):
    for bad in ("-5", "ten"):
        code, out, err = run(["scrambler", "dump", "--bits", bad], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"argument --bits: need a non-negative integer, got {bad!r}")
    code, out, _ = run(["scrambler", "dump", "--bits", "0"], capsys)
    assert (code, out) == (0, "\n")


def test_scrambler_dump_refuses_more_keystream_than_a_frame(capsys):
    """One STS-192 frame of keystream is the most a dump gives. A longer one
    is refused before any of it is built: 10**18 bits would not fit in
    memory, and 10**20 overflows the count of periods to repeat."""
    code, out, _ = run(["scrambler", "dump", "--bits", "1244160"], capsys)
    assert (code, len(out)) == (0, 1244160 + 1)
    for bits in (10**18, 10**20):
        code, out, err = run(["scrambler", "dump", "--bits", str(bits)], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: too-many-bits: keystream length {bits} is over 1244160 bits, "
                       "one STS-192 frame\n")


def test_scrambler_analyze_reports_both_models(capsys):
    code, out, _ = run(["scrambler", "analyze"], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    frag = dict(zip(header, lines[1].split(",")))
    whole = dict(zip(header, lines[2].split(",")))
    assert frag["model"] == "with_fragments" and frag["length_bits"] == "58"
    assert whole["model"] == "whole_symbol" and whole["length_bits"] == "50"
    assert frag["provenance"] == "computed"


def test_scrambler_analyze_custom_table(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("version: test\n11111 control I\n")
    code, out, _ = run(["scrambler", "analyze", "--table", str(table)], capsys)
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    frag = dict(zip(header, lines[1].split(",")))
    whole = dict(zip(header, lines[2].split(",")))
    # the keystream's longest 1-run is 7 bits
    assert frag["length_bits"] == "7"
    assert whole["length_bits"] == "5"


def test_sonet_map_round_trip(tmp_path, capsys):
    import random
    rng = random.Random(4)
    payload = "".join(str(rng.randrange(2)) for _ in range(20_000))
    infile = tmp_path / "in.txt"
    outfile = tmp_path / "out.txt"
    infile.write_text(payload)
    code, _, err = run(["sonet-map", "--in", str(infile),
                        "--out", str(outfile)], capsys)
    assert code == 0
    assert outfile.read_text().strip() == payload
    assert "spe_bandwidth_published,139.264,Mbps,given" in err
    assert "spe_bandwidth_recomputed,150.336,Mbps,computed" in err


def test_sonet_map_reports_a_round_trip_mismatch(tmp_path, capsys, monkeypatch):
    from fddilab import spm
    extract = spm.extract_fddi

    def flip_first(frames, layout=None):
        bits = extract(frames, layout)
        bits[0] ^= 1
        return bits

    monkeypatch.setattr(spm, "extract_fddi", flip_first)
    infile = tmp_path / "in.txt"
    infile.write_text("0110\n1\n")
    code, out, err = run(["sonet-map", "--in", str(infile)], capsys)
    assert (code, out) == (1, "11101\n")
    assert err == "error: roundtrip-mismatch: extracted bits differ from input\n"


def test_simulate_reports_metrics(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n_stations": 3,
        "ring_latency_us": 90,
        "ttrt_us": 360,
        "traffic": [{"station": 0, "class": "async",
                     "rate_mbps": "saturated", "frame_bytes": 100}],
    }))
    code, out, _ = run(["simulate", "--config", str(config),
                        "--duration", "20000", "--seed", "5"], capsys)
    assert code == 0
    rows = dict(line.split(",")[:2] for line in out.splitlines()[1:])
    assert float(rows["throughput"]) > 0.3
    assert "async_frames_in_flight" in rows
    assert "max_sync_gap" in rows


def test_simulate_invalid_config_reports_violations(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n_stations": 3, "ring_latency_us": 400, "ttrt_us": 100}))
    code, out, err = run(["simulate", "--config", str(config),
                          "--duration", "1000", "--seed", "0"], capsys)
    assert code == 1
    assert "TtrtBelowLatency" in out
    assert err.startswith("error: config-violations")


def test_simulate_deterministic_output(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n_stations": 4, "ring_latency_us": 100, "ttrt_us": 500,
        "traffic": [{"station": 1, "class": "async", "rate_mbps": 30,
                     "frame_bytes": 80}],
        "probes": 100}))
    args = ["simulate", "--config", str(config), "--duration", "30000",
            "--seed", "9"]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_fddi2_plan(tmp_path, capsys):
    requests = tmp_path / "req.txt"
    requests.write_text("tv 96\nvoice 2\n")
    code, out, _ = run(["fddi2", "plan", "--modes", "piiipipiiiiiiiii",
                        "--requests", str(requests)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "wbc,mode,channel,bytes,kbps"
    assert "2,isochronous,tv,96,6144" in lines
    assert "3,isochronous,voice,2,128" in lines
    assert sum(1 for ln in lines if ",packet,(pool)," in ln) == 3


def test_fddi2_plan_json_carries_kbps_as_numbers(tmp_path, capsys):
    requests = tmp_path / "req.txt"
    requests.write_text("tv 96\nvoice 3\n")
    code, out, _ = run(["fddi2", "plan", "--modes", "piiipipiiiiiiiii",
                        "--requests", str(requests), "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {"wbc": 2, "mode": "isochronous", "channel": "tv", "bytes": 96,
            "kbps": 6144.0} in rows
    assert {"wbc": 3, "mode": "isochronous", "channel": "voice", "bytes": 3,
            "kbps": 192.0} in rows


def test_fddi2_plan_capacity_exceeded(tmp_path, capsys):
    requests = tmp_path / "req.txt"
    requests.write_text("greedy 1537\n")
    code, _, err = run(["fddi2", "plan", "--modes", "i" * 16,
                        "--requests", str(requests)], capsys)
    assert code == 1
    assert err.startswith("error: capacity-exceeded")


def test_plan_passing_ring(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({
        "stations": 12,
        "links": [{"media": "LCF", "length_m": 450, "connectors": 2},
                  {"media": "MF", "length_m": 1800}]}))
    code, out, _ = run(["plan", "--ring", str(ring)], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("ring,-,pass")


def test_plan_failing_ring(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({
        "stations": 12,
        "links": [{"media": "UTP", "length_m": 51}]}))
    code, out, err = run(["plan", "--ring", str(ring)], capsys)
    assert code == 1
    assert "LengthExceeded" in out
    assert err.strip() == "error: ring-verdict-fail"


def test_manifest_written_and_stable(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    run(["rates", "--manifest", str(m1)], capsys)
    run(["rates", "--manifest", str(m2)], capsys)
    assert m1.read_text() == m2.read_text()
    doc = json.loads(m1.read_text())
    assert doc["subcommand"] == "rates"
    assert doc["artifact_version"]


def test_emit_report_empty_rows_is_header_only():
    assert emit_report([], ["metric", "value", "unit"], "csv") == "metric,value,unit\n"


def test_emit_report_quotes_and_units():
    text = emit_report([("a,b", 1.5, "us")], ["metric", "value", "unit"], "csv")
    assert text == 'metric,value,unit\n"a,b",1.5,us\n'


def test_simulate_duration_must_be_finite_and_positive(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360}))
    for bad in ("nan", "inf", "1e400", "0", "-5", "ten"):
        code, out, err = run(["simulate", "--config", str(config),
                              "--duration", bad], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1].endswith(
            f"argument --duration: need a finite positive number, got {bad!r}")
    code, _, _ = run(["simulate", "--config", str(config),
                      "--duration", "33333.3"], capsys)
    assert code == 0


def _simulate_config(tmp_path, capsys, doc):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    return run(["simulate", "--config", str(config), "--duration", "5000"],
               capsys)


def test_simulate_out_of_range_source_is_bad_config(tmp_path, capsys):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,
        "traffic": [{"station": 7, "class": "async", "rate_mbps": 5}]})
    assert code == 1
    assert out == ""
    assert err == "error: bad-config: traffic[0].station: station 7 out of range\n"


def test_simulate_negative_or_non_finite_rate_is_bad_config(tmp_path, capsys):
    for rate in (-3, "nan", "inf", float("nan"), float("-inf")):
        code, out, err = _simulate_config(tmp_path, capsys, {
            "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,
            "traffic": [{"station": 1, "class": "async", "rate_mbps": rate}]})
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad-config: traffic[0].rate_mbps: need a finite number >= 0")
        assert err.count("\n") == 1


def test_simulate_zero_frame_bytes_is_bad_config(tmp_path, capsys):
    code, _, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,
        "traffic": [{"station": 1, "class": "async", "rate_mbps": 5,
                     "frame_bytes": 0}]})
    assert code == 1
    assert err == "error: bad-config: traffic[0].frame_bytes: need a whole number >= 1, got 0\n"


def test_scrambler_analyze_malformed_table_is_bad_table(tmp_path, capsys):
    shipped = [
        "11110 data 0", "01001 data 1", "10100 data 2", "10101 data 3",
        "01010 data 4", "01011 data 5", "01110 data 6", "01111 data 7",
        "10010 data 8", "10011 data 9", "10110 data A", "10111 data B",
        "11010 data C", "11011 data D", "11100 data E", "11101 data F"]
    tables = {
        "repeated": (shipped + ["11110 control I"],
                     "pattern 11110 mapped twice"),
        "short": (shipped[:1], "expected 16 data symbols, got 1"),
        "data_twice": (shipped[:1] + ["01001 data 0"] + shipped[2:], "data value 0 mapped twice"),
        "kind": (shipped + ["11111 idle I"], "unknown symbol kind 'idle'"),
    }
    for name, (lines, reason) in tables.items():
        table = tmp_path / f"{name}.txt"
        table.write_text("\n".join(lines) + "\n")
        code, out, err = run(["scrambler", "analyze", "--table", str(table)],
                             capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: bad-table: {reason}\n"


def test_scrambler_analyze_table_of_all_32_patterns_is_bad_table(tmp_path, capsys):
    table = tmp_path / "all32.txt"
    table.write_text("".join(f"{v:05b} control S{v}\n" for v in range(32)))
    code, out, err = run(["scrambler", "analyze", "--table", str(table)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: bad-table: all 32 patterns are symbols: the cover is unbounded\n"


def _one_error_line(code, err, tag):
    assert code == 1
    assert err.count("\n") == 1 and err.startswith(f"error: {tag}: ")
    assert "Traceback" not in err


def test_plan_malformed_ring_files_exit_1_with_one_line(tmp_path, capsys):
    cases = {
        "missing_media": ({"links": [{"length_m": 5}]}, "bad-ring"),
        "negative_length": ({"links": [{"media": "MF", "length_m": -5}]}, "bad-ring"),
        "text_length": ({"links": [{"media": "MF", "length_m": "abc"}]}, "bad-ring"),
        "top_level_list": ([{"media": "MF", "length_m": 5}], "bad-ring"),
        "negative_connectors": ({"links": [{"media": "MF", "length_m": 5,
                                            "connectors": -1}]}, "bad-ring"),
        "nan_length": ({"links": [{"media": "MF", "length_m": float("nan")}]},
                       "bad-ring"),
        "unhashable_media": ({"links": [{"media": ["MF"], "length_m": 5}]}, "bad-ring"),
        "text_losses": ({"links": [{"media": "MF", "length_m": 5,
                                    "connector_losses_db": ["0.5"]}]}, "bad-ring"),
        "unknown_media": ({"links": [{"media": "XYZ", "length_m": 5}]}, "unknown-media"),
    }
    for name, (doc, tag) in cases.items():
        ring = tmp_path / f"{name}.json"
        ring.write_text(json.dumps(doc))
        code, out, err = run(["plan", "--ring", str(ring)], capsys)
        _one_error_line(code, err, tag)
        assert out == "", name
    ring = tmp_path / "not_json.json"
    ring.write_text("stations: 12\n")
    code, out, err = run(["plan", "--ring", str(ring)], capsys)
    _one_error_line(code, err, "bad-ring")
    assert err.startswith(f"error: bad-ring: {ring}: Expecting value")


def test_plan_field_errors_name_the_field(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"links": [{"media": "MF", "length_m": 5},
                                          {"media": "MF", "length_m": "abc"}]}))
    _, _, err = run(["plan", "--ring", str(ring)], capsys)
    assert err == "error: bad-ring: links[1].length_m: need a number, got 'abc'\n"
    ring.write_text(json.dumps({"links": [{"media": "MF", "length_m": 5,
                                           "connectors": -1}]}))
    _, _, err = run(["plan", "--ring", str(ring)], capsys)
    assert err == "error: bad-ring: links[0].connectors: need a whole number >= 0, got -1\n"


_SOURCE = {"station": 0, "class": "async", "rate_mbps": 5}


@pytest.mark.parametrize("change,reason", [
    ({"n_stations": True}, "n_stations: need a whole number, got True"),
    ({"traffic": [{**_SOURCE, "rate_mbps": True}]},
     "traffic[0].rate_mbps: need a number, got True"),
    ({"total_cable_km": True}, "total_cable_km: need a number, got True"),
    ({"compliance": "false"}, "compliance: need true or false, got 'false'"),
    ({"compliance": 0}, "compliance: need true or false, got 0"),
    ({"compliance": None}, "compliance: need true or false, got None"),
    pytest.param({"probes": -5}, "probes: need a whole number >= 0, got -5",
                 id="change6-probes must be >= 0, got -5"),
    pytest.param({"traffic": [{**_SOURCE, "destination": 99}]},
                 "traffic[0].destination: station 99 out of range",
                 id="change7-traffic source destination 99 out of range"),
    pytest.param({"traffic": [{**_SOURCE, "destination": -3}]},
                 "traffic[0].destination: station -3 out of range",
                 id="change8-traffic source destination -3 out of range"),
])
def test_simulate_refuses_booleans_and_out_of_range_counts(tmp_path, capsys, change, reason):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400,
        "traffic": [_SOURCE], **change})
    _one_error_line(code, err, "bad-config")
    assert (out, err) == ("", f"error: bad-config: {reason}\n")


@pytest.mark.parametrize("km,reason", [
    *((km, f"need a finite number >= 0, got {km!r}")    # NaN and Infinity in the JSON
      for km in (-5, float("nan"), float("inf"), float("-inf"))),
    (10 ** 400, "need a number, got 1000000000000000...00000000 (401 chars)"),  # past float
], ids=["-5", "nan", "inf", "-inf", "10**400"])
def test_simulate_refuses_a_negative_or_non_finite_cable_length(tmp_path, capsys, km, reason):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400, "total_cable_km": km})
    _one_error_line(code, err, "bad-config")
    assert (out, err) == ("", f"error: bad-config: total_cable_km: {reason}\n")


@pytest.mark.parametrize("change,reason", [
    ({"n_stations": "4"}, "n_stations: need a whole number, got '4'"),
    ({"probes": "3"}, "probes: need a whole number, got '3'"),
    ({"total_cable_km": "10"}, "total_cable_km: need a number, got '10'"),
    ({"traffic": [{**_SOURCE, "rate_mbps": "5"}]}, "traffic[0].rate_mbps: need a number, got '5'"),
    ({"traffic": [{**_SOURCE, "station": "0"}]},
     "traffic[0].station: need a whole number, got '0'"),
    ({"traffic": [{**_SOURCE, "frame_bytes": "100"}]},
     "traffic[0].frame_bytes: need a whole number, got '100'"),
    ({"traffic": [{**_SOURCE, "destination": "2"}]},
     "traffic[0].destination: need a whole number, got '2'"),
])
def test_simulate_refuses_numeric_text_in_number_fields(tmp_path, capsys, change, reason):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400,
        "traffic": [_SOURCE], **change})
    _one_error_line(code, err, "bad-config")
    assert (out, err) == ("", f"error: bad-config: {reason}\n")


def test_simulate_reads_text_in_microsecond_fields_and_station_keys(tmp_path, capsys):
    ring = {"n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400,
            "sync_allocation_us": [0, 0, 0, 50], "traffic": [_SOURCE], "probes": 20}
    want = _simulate_config(tmp_path, capsys, ring)
    assert want[0] == 0
    text = {**ring, "ring_latency_us": "100", "ttrt_us": "800/2",
            "sync_allocation_us": {"3": "50"}}
    assert _simulate_config(tmp_path, capsys, text) == want


@pytest.mark.parametrize("key", ["station", "frame_bytes", "destination"])
@pytest.mark.parametrize("value", [True, 1.5, [1], {}])
def test_simulate_names_a_traffic_field_that_is_no_whole_number(tmp_path, capsys, key, value):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400,
        "traffic": [_SOURCE, {**_SOURCE, "station": 1, key: value}]})
    _one_error_line(code, err, "bad-config")
    assert (out, err) == (
        "", f"error: bad-config: traffic[1].{key}: need a whole number, got {value!r}\n")


def test_simulate_reads_whole_floats_in_traffic_fields_as_ints(tmp_path, capsys):
    ring = {"n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400,
            "traffic": [{**_SOURCE, "station": 1, "frame_bytes": 200, "destination": 3}]}
    want = _simulate_config(tmp_path, capsys, ring)
    assert want[0] == 0
    floats = {**ring, "traffic": [{**_SOURCE, "station": 1.0, "frame_bytes": 200.0,
                                   "destination": 3.0}]}
    assert _simulate_config(tmp_path, capsys, floats) == want


@pytest.mark.parametrize("n", [-2, 0])
def test_simulate_reports_too_few_stations_as_no_stations(tmp_path, capsys, n):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": n, "ring_latency_us": 100, "ttrt_us": 400})
    assert code == 1
    assert out == f"metric,value,unit\nviolation,NoStations,n_stations={n}\n"
    assert err == "error: config-violations: NoStations\n"


@pytest.mark.parametrize("change,reason", [
    ({"links": [{"media": "MF", "length_m": 5, "connectors": True}]},
     "links[0].connectors: need a whole number, got True"),
    ({"links": [{"media": "MF", "length_m": True}]},
     "links[0].length_m: need a number, got True"),
    ({"links": [{"media": "MF", "length_m": 5, "connector_losses_db": [True]}]},
     "links[0].connector_losses_db: need a list of numbers"),
    ({"stations": True}, "stations: need a whole number, got True"),
    pytest.param({"stations": -4}, "stations: need a whole number >= 0, got -4",
                 id="change4-stations must be >= 0, got -4"),
])
def test_plan_refuses_booleans_and_negative_stations(tmp_path, capsys, change, reason):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"stations": 4, "links": [{"media": "MF", "length_m": 5}],
                                **change}))
    code, out, err = run(["plan", "--ring", str(ring)], capsys)
    _one_error_line(code, err, "bad-ring")
    assert (out, err) == ("", f"error: bad-ring: {reason}\n")


@pytest.mark.parametrize("change,reason", [
    ({"links": [{"media": "MF", "length_m": "5"}]}, "links[0].length_m: need a number, got '5'"),
    ({"links": [{"media": "MF", "length_m": 5, "connectors": "2"}]},
     "links[0].connectors: need a whole number, got '2'"),
    ({"stations": "12"}, "stations: need a whole number, got '12'"),
])
def test_plan_refuses_numeric_text_in_number_fields(tmp_path, capsys, change, reason):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"stations": 4, "links": [{"media": "MF", "length_m": 5}],
                                **change}))
    code, out, err = run(["plan", "--ring", str(ring)], capsys)
    _one_error_line(code, err, "bad-ring")
    assert (out, err) == ("", f"error: bad-ring: {reason}\n")


@pytest.mark.parametrize("count,shown", [
    (1e20, "100000000000000000000"),   # was an OverflowError traceback
    (100000000, "100000000"),          # was an 800 MB tuple of losses
    (1001, "1001"),
    (10 ** 400, "1000000000000000...00000000 (401 chars)"),   # its 401 digits shortened
])
def test_plan_refuses_more_connectors_than_the_cap(tmp_path, capsys, count, shown):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"links": [{"media": "MF", "length_m": 5},
                                          {"media": "MF", "length_m": 5, "connectors": count}]}))
    code, out, err = run(["plan", "--ring", str(ring)], capsys)
    _one_error_line(code, err, "bad-ring")
    assert (out, err) == ("", "error: bad-ring: links[1].connectors: need at most "
                              f"{link_planner.MAX_CONNECTORS} mated pairs, got {shown}\n")


def test_plan_takes_connectors_up_to_the_cap(tmp_path, capsys):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"links": [{"media": "UTP", "length_m": 5,
                                           "connectors": link_planner.MAX_CONNECTORS}]}))
    code, out, err = run(["plan", "--ring", str(ring)], capsys)
    assert (code, out, err) == (0, "link,rule,verdict,detail\n0,-,pass,UTP 5m\n"
                                   "ring,-,pass,1 links\n", "")


_HUGE = "1000000000000000...00000000 (401 chars)"   # 10 ** 400, shortened


@pytest.mark.parametrize("link,reason", [
    ({"connector_losses_db": [10 ** 400]}, "connector_losses_db: need a list of numbers"),
    ({"length_m": 10 ** 400}, f"length_m: need a number, got {_HUGE}"),
], ids=["losses", "length"])
def test_plan_refuses_a_value_past_the_float_range_in_one_short_line(tmp_path, capsys,
                                                                     link, reason):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"links": [{"media": "MF", "length_m": 5, **link}]}))
    code, out, err = run(["plan", "--ring", str(ring)], capsys)
    _one_error_line(code, err, "bad-ring")
    assert (out, err) == ("", f"error: bad-ring: links[0].{reason}\n")
    assert len(err) <= 200


@pytest.mark.parametrize("source,shown", [
    ({"frame_bytes": 10 ** 400}, f"{_HUGE} at 5.0 Mbps"),   # was an OverflowError
    ({"frame_bytes": 100, "rate_mbps": 5e-324}, "100 at 5e-324 Mbps"),   # was a ZeroDivisionError
], ids=["frame_bytes", "rate"])
def test_simulate_refuses_a_poisson_gap_past_the_float_range(tmp_path, capsys, source, shown):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400,
        "traffic": [{**_SOURCE, **source}]})
    _one_error_line(code, err, "bad-config")
    assert (out, err) == ("", "error: bad-config: traffic[0].frame_bytes: need a mean gap "
                              f"frame_bytes * 8 / rate_mbps in the float range, got {shown}\n")
    assert len(err) <= 200


def test_simulate_compliance_false_skips_the_ring_limits(tmp_path, capsys):
    doc = {"n_stations": 600, "ring_latency_us": 100, "ttrt_us": 400,
           "total_cable_km": 150}
    code, _, err = _simulate_config(tmp_path, capsys, doc)
    assert (code, err) == (1, "error: config-violations: StationCount,TotalCable\n")
    code, _, err = _simulate_config(tmp_path, capsys, {**doc, "compliance": False})
    assert (code, err) == (0, "")


def test_simulate_refuses_a_ring_over_the_station_limit_before_listing_stations(
        tmp_path, capsys):
    ring = {"ring_latency_us": 100, "ttrt_us": 400}
    _simulate_config(tmp_path, capsys, {"n_stations": 600, **ring})   # parser built
    start = time.perf_counter()
    code, out, err = _simulate_config(tmp_path, capsys, {"n_stations": 200_000_000, **ring})
    assert time.perf_counter() - start < 0.05
    assert (code, err) == (1, "error: config-violations: StationCount\n")
    assert out == "metric,value,unit\nviolation,StationCount,200000000 stations > 500\n"
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 200_000_000, **ring, "sync_allocation_us": {"199999999": -5, "3": 2}})
    assert err == "error: config-violations: NegativeSyncAllocation,StationCount\n"
    assert out.splitlines()[1:] == [
        "violation,NegativeSyncAllocation,station 199999999: -5 us < 0",
        "violation,StationCount,200000000 stations > 500"]


def test_simulate_lists_the_early_allocation_violations_in_station_order(tmp_path, capsys):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 600, "ring_latency_us": 100, "ttrt_us": 400,
        "sync_allocation_us": {"9": -1, "3": -2}})
    assert (code, err) == (1, "error: config-violations: "
                              "NegativeSyncAllocation,NegativeSyncAllocation,StationCount\n")
    assert out.splitlines()[1:3] == ["violation,NegativeSyncAllocation,station 3: -2 us < 0",
                                     "violation,NegativeSyncAllocation,station 9: -1 us < 0"]


@pytest.mark.parametrize("n", [10 ** 400, 1_000_001])
def test_simulate_refuses_more_stations_than_the_cap_with_compliance_off(tmp_path, capsys, n):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": n, "ring_latency_us": 100, "ttrt_us": 400, "compliance": False,
        "sync_allocation_us": {"3": 2}})
    _one_error_line(code, err, "bad-config")
    assert (out, err) == ("", f"error: bad-config: n_stations: need at most 1000000 stations, "
                              f"got {shown(n)}\n")


@pytest.mark.parametrize("probes", [10 ** 400, 1_000_001])
def test_simulate_refuses_more_probes_than_the_cap_at_once(tmp_path, capsys, probes):
    start = time.perf_counter()
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400, "probes": probes})
    assert time.perf_counter() - start < 1
    _one_error_line(code, err, "bad-config")
    assert (out, err) == ("", "error: bad-config: probes: need at most 1000000 probes, "
                              f"got {shown(probes)}\n")


@pytest.mark.parametrize("ring,duration,reason", [
    ({"n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400,
      "traffic": [{**_SOURCE, "rate_mbps": 5}]}, "1e300", "1e+300 asks for more than "
     f"{mac_sim.MAX_VISITS} token visits"),
    ({"n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400,
      "traffic": [{**_SOURCE, "rate_mbps": "saturated"}]}, "1e300", "1e+300 asks for more "
     f"than {mac_sim.MAX_VISITS} token visits"),
    # 1,001 visits, but the line rate lets 1-byte frames number 1.25e10
    ({"n_stations": 1, "ring_latency_us": 1e6, "ttrt_us": 4e6,
      "traffic": [{**_SOURCE, "frame_bytes": 1}]}, "1e9", "1e+09 asks for more than "
     f"{mac_sim.MAX_FRAMES} Poisson frames"),
], ids=["poisson", "saturated", "frames"])
def test_simulate_refuses_a_duration_past_the_work_caps_at_once(tmp_path, capsys, ring,
                                                                  duration, reason):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(ring))
    start = time.perf_counter()
    code, out, err = run(["simulate", "--config", str(config), "--duration", duration], capsys)
    assert time.perf_counter() - start < 1
    _one_error_line(code, err, "too-long")
    assert (out, err) == ("", f"error: too-long: --duration {reason}\n")


def test_simulate_walks_a_ring_that_never_sends_in_one_step(tmp_path, capsys):
    # 1e-4 us hops over 1000 us: 10,000,001 visits, seconds if walked one by one
    config = tmp_path / "idle.json"
    config.write_text('{"n_stations": 1, "ring_latency_us": 1e-4, "ttrt_us": 4000}')
    argv = ["simulate", "--config", str(config), "--duration", "1000", "--seed", "0"]
    run(argv, capsys)                                                   # parser built
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 0.05
    assert (code, err) == (0, "")
    assert out == (
        "metric,value,unit\nthroughput,0,fraction\nduration,1000,us\nwarmup,200,us\n"
        "token_visits,10000001,count\nsync_bytes_sent,0,bytes\nasync_bytes_sent,0,bytes\n"
        "sync_bytes_delivered,0,bytes\nasync_bytes_delivered,0,bytes\n"
        "sync_frames_in_flight,0,frames\nasync_frames_in_flight,0,frames\n"
        "max_sync_gap,0.0001,us\nmean_access_delay,,us\nmax_access_delay,,us\n")


class _FailingStream(io.StringIO):
    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize("exc,reason", [
    (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), "stdout: No space left on device"),
    (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), "stdout: Broken pipe"),
    (BrokenPipeError(), "stdout: BrokenPipeError"),
])
def test_a_failed_write_to_stdout_names_stdout_and_the_reason(exc, reason):
    err = io.StringIO()
    with contextlib.redirect_stdout(_FailingStream(exc)), contextlib.redirect_stderr(err):
        code = dispatch(["rates"])
    _one_error_line(code, err.getvalue(), "file-error")
    assert err.getvalue() == f"error: file-error: {reason}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_to_out_names_the_file(capsys):
    code, out, err = run(["rates", "--out", "/dev/full"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: file-error: /dev/full: No space left on device\n"


def test_fddi2_malformed_request_lines_exit_1_with_one_line(tmp_path, capsys):
    cases = {line: repr(line + "  # comment") for line in ["a 2 3", "a x", "a -4", "a"]}
    cases["a " + "9" * 5000] = "'a 9999999999999...comment' (5015 chars)"   # its ends and length
    for i, (line, shown_line) in enumerate(cases.items()):
        requests = tmp_path / f"req{i}.txt"
        requests.write_text(f"tv 96\n{line}  # comment\n")
        code, out, err = run(["fddi2", "plan", "--modes", "piiipipiiiiiiiii",
                              "--requests", str(requests)], capsys)
        _one_error_line(code, err, "bad-requests")
        assert err == f"error: bad-requests: line 2: need 'channel bytes', got {shown_line}\n"
        assert out == ""


def test_simulate_malformed_configs_exit_1_with_one_line(tmp_path, capsys):
    cases = {
        "top_level_list": [{"n_stations": 2}],
        "alloc_station_out_of_range": {"n_stations": 2, "ring_latency_us": 100,
                                       "ttrt_us": 400, "sync_allocation_us": {"9": 5}},
        "missing_ttrt": {"n_stations": 2, "ring_latency_us": 100},
        "text_cable": {"n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400,
                       "total_cable_km": "far"},
        "list_class": {"n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400,
                       "traffic": [{"station": 0, "class": ["async"]}]},
        "infinite_probes": {"n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400,
                            "probes": float("inf")},
        "number_source": {"n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400,
                          "traffic": [5]},
    }
    for name, doc in cases.items():
        code, out, err = _simulate_config(tmp_path, capsys, doc)
        _one_error_line(code, err, "bad-config")
        assert out == "", name
    _, _, err = _simulate_config(tmp_path, capsys, cases["alloc_station_out_of_range"])
    assert err == "error: bad-config: sync_allocation_us: station 9 out of range\n"
    _, _, err = _simulate_config(tmp_path, capsys, cases["top_level_list"])
    assert err == "error: bad-config: need a JSON object, got list\n"


def test_simulate_zero_latency_and_negative_allocation_are_violations(tmp_path, capsys):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 2, "ring_latency_us": 0, "ttrt_us": 100})
    assert (code, err) == (1, "error: config-violations: LatencyNotPositive\n")
    assert out == "metric,value,unit\nviolation,LatencyNotPositive,ring latency 0 us <= 0\n"
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 2, "ring_latency_us": 100, "ttrt_us": 400,
        "sync_allocation_us": [-1000, 1200]})
    assert (code, err) == (1, "error: config-violations: NegativeSyncAllocation\n")
    assert "violation,NegativeSyncAllocation,station 0: -1000 us < 0" in out


def test_unreadable_inputs_exit_1_with_one_line(tmp_path, capsys):
    code, out, err = run(["codec", "nrzi", "--in", str(tmp_path)], capsys)
    _one_error_line(code, err, "file-error")
    assert err == f"error: file-error: {tmp_path}: Is a directory\n"
    code, _, err = run(["plan", "--ring", str(tmp_path / "absent.json")], capsys)
    _one_error_line(code, err, "missing-file")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    code, _, err = run(["simulate", "--config", str(binary), "--duration", "100"],
                       capsys)
    _one_error_line(code, err, "bad-config")


def test_scrambler_analyze_non_hex_data_symbol_is_bad_table(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("11110 data G\n")
    code, out, err = run(["scrambler", "analyze", "--table", str(table)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: bad-table: data symbol 11110: need a number, got 'G'\n"


@pytest.mark.parametrize("argv,name,text,err", [
    (["codec", "4b5b", "--decode", "--in"], "seven.bits", "0101010\n",
     "error: bad-length: 7 bits not a multiple of 5\n"),
    (["plan", "--ring"], "ring.json", '{"links": 5}',
     "error: bad-ring: links: need a list of objects\n"),
    (["simulate", "--duration", "5000", "--config"], "cfg.json",
     '{"n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360, "sync_allocation_us": 5}',
     "error: bad-config: sync_allocation_us: need a list or an object\n"),
    (["simulate", "--duration", "5000", "--config"], "cfg.json",
     '{"n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,'
     ' "traffic": [{"station": 0, "class": "isochronous", "rate_mbps": 5}]}',
     "error: bad-config: traffic[0].class: unknown traffic class 'isochronous'\n"),
    (["simulate", "--duration", "5000", "--config"], "cfg.json",
     '{"n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,'
     ' "traffic": [{"station": 0, "class": "async", "rate_mbps": 5},'
     ' {"station": 0, "class": "async", "rate_mbps": 2}]}',
     "error: bad-config: traffic[1].station: duplicate traffic source for (0, 'async')\n"),
    (["scrambler", "analyze", "--table"], "table.txt", "1111 data 0\n",
     "error: bad-table: malformed code pattern '1111'\n"),
])
def test_each_input_refusal_is_one_line(tmp_path, capsys, argv, name, text, err):
    path = tmp_path / name
    path.write_text(text)
    assert run([*argv, str(path)], capsys) == (1, "", err)


_LONG = "x" * 5000


@pytest.mark.parametrize("argv,text,tag", [
    (["codec", "nrzi", "--in"], "".join(map(chr, range(0x4E00, 0x4E00 + 3000))),
     "bad-input-symbol"),
    (["plan", "--ring"], json.dumps({"links": [{"media": _LONG, "length_m": 5}]}),
     "unknown-media"),
    (["simulate", "--duration", "5000", "--config"], json.dumps({
        "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,
        "traffic": [{"station": 0, "class": _LONG, "rate_mbps": 5}]}), "bad-config"),
    (["scrambler", "analyze", "--table"], f"11110 data 0 {_LONG}\n", "bad-table"),
    (["scrambler", "analyze", "--table"], f"11110 {_LONG} 0\n", "bad-table"),
    (["scrambler", "analyze", "--table"], f"{'1' * 5000} data 0\n", "bad-table"),
    (["scrambler", "analyze", "--table"], f"11110 data {'1' * 5000}\n", "bad-table"),
    (["fddi2", "plan", "--modes", "p" * 5000, "--requests"], "a 96\n", "bad-modes"),
], ids=["bits", "media", "class", "table-record", "symbol-kind", "code-pattern", "data-value",
        "modes"])
def test_a_refusal_shows_a_long_value_by_its_ends(tmp_path, capsys, argv, text, tag):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    code, out, err = run([*argv, str(path)], capsys)
    assert out == ""
    _one_error_line(code, err, tag)
    assert len(err.encode()) < 200 and " chars)" in err


def test_simulate_runs_a_poisson_source_of_rate_zero_and_sends_nothing(tmp_path, capsys):
    code, out, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,
        "traffic": [{"station": 1, "class": "async", "rate_mbps": 0}]})
    assert (code, err) == (0, "")
    assert out == ("metric,value,unit\nthroughput,0,fraction\nduration,5000,us\n"
                   "warmup,1000,us\ntoken_visits,167,count\nsync_bytes_sent,0,bytes\n"
                   "async_bytes_sent,0,bytes\nsync_bytes_delivered,0,bytes\n"
                   "async_bytes_delivered,0,bytes\nsync_frames_in_flight,0,frames\n"
                   "async_frames_in_flight,0,frames\nmax_sync_gap,90,us\n"
                   "mean_access_delay,,us\nmax_access_delay,,us\n")


def test_loaders_raise_one_input_error_naming_the_file(tmp_path):
    import pytest

    from fddilab import InputError, fddi2, link_planner, mac_sim, phy_codec, read_input, spm
    bad = tmp_path / "bad.txt"
    bad.write_text("not a ring\n")
    for load, tag in ((mac_sim.load_config_file, "bad-config"),
                      (link_planner.load_ring_file, "bad-ring"),
                      (fddi2.load_requests_file, "bad-requests"),
                      (phy_codec.read_bits, "bad-input-symbol"),
                      (phy_codec.read_nibbles, "bad-input-symbol"),
                      # as scrambler analyze --table reads it
                      (lambda path: read_input(path, phy_codec.BAD_TABLE,
                                               phy_codec.parse_code_table), "bad-table")):
        with pytest.raises(InputError) as err:
            load(str(bad))
        assert (err.value.tag, err.value.path) == (tag, str(bad))
    tags = {spm.UnknownLevelError: "unknown-level",
            phy_codec.ControlSymbolError: "control-symbol",
            phy_codec.InvalidSymbolError: "invalid-symbol",
            fddi2.CapacityExceededError: "capacity-exceeded",
            link_planner.UnknownMediaError: "unknown-media",
            mac_sim.ConfigViolationsError: "config-violations"}
    for cls, tag in tags.items():
        assert issubclass(cls, InputError) and cls.tag == tag


def test_parser_is_built_once():
    from fddilab.cli import build_parser
    assert build_parser() is build_parser()


def test_the_default_bits_are_one_scrambler_period():
    # the parser holds the period as a literal, so it needs no scrambler import
    from fddilab import scrambler
    from fddilab.cli import build_parser
    assert build_parser().parse_args(["scrambler", "dump"]).bits == scrambler.PERIOD


def test_module_runs_as_a_script():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "fddilab.cli", "rates", "--level", "3"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "STS-3,OC-3,STM-1,155.52,150.336"


# --- random documents through dispatch ------------------------------------------

# Short texts and small numbers keep every run brief: a 3-character text
# reads as at most 999 or at least 0.01, and no value reaches the rates or
# station counts whose runs would take long (see CHANGES.md).
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 40),
    st.sampled_from([0.5, -1.5, math.nan, math.inf, -math.inf]),
    st.text("1.-e/a #", max_size=3),
    st.sampled_from(["saturated", "sync", "async", "MF", "UTP", "SMF"]))
_json = st.recursive(_scalars, lambda kids: st.lists(kids, max_size=3)
                     | st.dictionaries(st.text(max_size=3), kids, max_size=3),
                     max_leaves=6)


# Each declared field of the config and ring plan files, drawn from its
# declaration: mostly a small well-formed value, else a boundary value of
# any kind (past, at and in the float range, a negative zero, booleans,
# numeric text, NaN) or one of its declared bounds and their neighbours,
# else any JSON. Small good values keep every run brief.
_EDGES = [10 ** 400, 1e308, -0.0, 2 ** 53 + 1, True, False, "nan", "-0.5", "4", math.inf]
_GOOD = {
    "n_stations": st.integers(1, 6), "ring_latency_us": st.integers(1, 100),
    "ttrt_us": st.integers(100, 400), "stripping": st.sampled_from(["source", "destination"]),
    "total_cable_km": st.integers(0, 150), "compliance": st.booleans(),
    "probes": st.integers(0, 20), "station": st.integers(0, 5),
    "class": st.sampled_from(["sync", "async", "asink"]),
    "rate_mbps": st.sampled_from(["saturated", None, 0, 5, 20.5]),
    "frame_bytes": st.integers(1, 200), "destination": st.integers(0, 5),
    "media": st.sampled_from(["MF", "LCF", "UTP", "SMF", "XYZ"]),
    "length_m": st.integers(1, 3000), "connectors": st.integers(0, 3),
    "connector_losses_db": st.floats(0, 2), "stations": st.integers(0, 600)}


def _drawn(field, good):
    bounds = [b + d for b in (field.low, field.high) if b is not None for d in (-1, 0, 1)]
    value = st.integers(0, 7).flatmap(lambda k: _json if k == 3 else good if k != 2
                                      else st.sampled_from(_EDGES + bounds))
    return st.lists(value, max_size=3) if field.many else value


def _doc(declared, **more):
    """A JSON object of the declared fields and of ``more``: a declared field
    with a default, or one that may be null, is there only sometimes."""
    fields = {f.key: (f, _drawn(f, _GOOD[f.key])) for f in declared}
    return st.fixed_dictionaries(
        {**{key: value for key, (f, value) in fields.items()
            if f.default is None and not f.nulls}, **more},
        optional={key: value for key, (f, value) in fields.items()
                  if f.default is not None or f.nulls})


_sim_docs = st.one_of(_json, *[_doc(
    mac_sim.CONFIG, traffic=st.lists(_doc(mac_sim.TRAFFIC), max_size=4),
    sync_allocation_us=st.lists(st.integers(0, 20) | _json, max_size=6)
    | st.dictionaries(st.sampled_from("0123456x"), st.integers(0, 20)))] * 3)
_ring_docs = st.one_of(_json, _doc(link_planner.RING_PLAN, links=st.lists(
    _doc((*link_planner.LINK, *link_planner.LINK_LOSSES)), max_size=4)))
# the whole-document and cross-field refusals, which name no one declared field
_DOCUMENT_REASONS = ("need a JSON object, got ", "traffic: need a list of objects",
                     "links: need a list of objects", "sync_allocation_us: ",
                     "need one sync allocation per station (")


def _names_a_field(reason: str, *declared) -> bool:
    paths = [f.path for fields in declared for f in fields]
    return any(re.fullmatch(re.escape(p).replace(r"\{\}", r"\d+") + r": .+", reason)
               for p in paths) or reason.startswith(_DOCUMENT_REASONS)


_request_lines = st.lists(st.text("ab 1-#x\t٣", max_size=8)
                          | st.builds("{} {}".format, st.sampled_from(["tv", "v"]),
                                      st.integers(-2, 200)), max_size=4)

_CODES = [f"{v:05b}" for v in range(32)]
_SHIPPED_DATA = ("11110 01001 10100 10101 01010 01011 01110 01111 "
                 "10010 10011 10110 10111 11010 11011 11100 11101").split()
_table_lines = st.lists(
    st.builds("{} {} {}".format, st.sampled_from(_CODES) | st.text("01x", max_size=6),
              st.sampled_from(["control", "control", "data", "idle"]),
              st.text("0123456789ABCDEFgIJK", min_size=1, max_size=2))
    | st.text("01 #:version\tA", max_size=12), max_size=8)
# every pattern a symbol: the sequence is covered without end
_full_tables = st.permutations(_CODES).flatmap(lambda codes: st.sampled_from([
    [f"{c} control K{i}" for i, c in enumerate(codes)],
    [f"{c} data {_SHIPPED_DATA.index(c):X}" if c in _SHIPPED_DATA else f"{c} control K{i}"
     for i, c in enumerate(codes)]]))
_code_tables = st.one_of(_table_lines, _full_tables,
                         st.tuples(_full_tables, _table_lines).map(lambda t: t[0] + t[1]))


def _dispatch_file(argv, name, text):
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/{name}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch([a.replace("{}", path) for a in argv])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("error: ")
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(doc=_sim_docs)
def test_simulate_never_raises_on_random_configs(doc):
    _, err = _dispatch_file(["simulate", "--config", "{}", "--duration", "50"], "cfg.json",
                            json.dumps(doc))
    if err.startswith("error: bad-config: "):
        assert _names_a_field(err[19:-1], mac_sim.CONFIG, mac_sim.TRAFFIC, [
            mac_sim.ALLOCATION, mac_sim.ALLOCATION_KEY, mac_sim.STATION_CAP]), err


@settings(max_examples=150, deadline=None)
@given(doc=_ring_docs)
def test_plan_never_raises_on_random_ring_files(doc):
    _, err = _dispatch_file(["plan", "--ring", "{}"], "ring.json", json.dumps(doc))
    if err.startswith("error: bad-ring: "):
        assert _names_a_field(err[17:-1], link_planner.RING_PLAN, link_planner.LINK,
                              link_planner.LINK_LOSSES), err


@settings(max_examples=150, deadline=None)
@given(lines=_request_lines, modes=st.sampled_from(["piiipipiiiiiiiii", "i" * 16, "ip"]))
def test_fddi2_plan_never_raises_on_random_requests(lines, modes):
    _dispatch_file(["fddi2", "plan", "--modes", modes, "--requests", "{}"], "req.txt",
                   "\n".join(lines) + "\n")


@settings(max_examples=150, deadline=None)
@given(lines=_code_tables)
def test_scrambler_analyze_never_raises_on_random_tables(lines):
    _dispatch_file(["scrambler", "analyze", "--table", "{}"], "table.txt",
                   "\n".join(lines) + "\n")


# --- the command-line matcher against argparse ------------------------------

_OPTIONS = [o for command in COMMANDS.values() for o in (*_COMMON, *command.options)]
_CHOICES = [*(c for o in _OPTIONS if isinstance(o.kind, tuple) for c in o.kind),
            *(c for command in COMMANDS.values() for _, cs in command.positionals for c in cs)]
# option values: plain ones by kind, and ones argparse reads otherwise or refuses
_PLAIN = {str: ["F", "a b", ""], int: ["0", "7", "007"], _count: ["0", "127"],
          _duration: ["2.5", "1e3", "7", " 3"]}
_VALUES = [*itertools.chain(*_PLAIN.values()), "nan", "inf", "0.0", "٣", "²", "+3", "1_0",
           "-5", "-", "-x", "--seed", "csv"]
_JUNK = ["-", "--", "-5", "--dur", "--out=x", "--in=F", "--se", "-h", "--help", "--version",
         "٣", ""]
_VOCAB = sorted({*COMMANDS, *(o.name for o in _OPTIONS), *_CHOICES, *_VALUES, *_JUNK})


@st.composite
def _command_lines(draw):
    """A subcommand, then each positional and a draw of its options, each
    with a value where it takes one, in a drawn order."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    command = COMMANDS[name]
    parts = [[draw(st.sampled_from(choices))] for _, choices in command.positionals]
    for o in (*_COMMON, *command.options):
        if not draw(st.integers(0, 7) if o.required else st.booleans()):
            continue
        if o.kind is bool:
            parts.append([o.name])
            continue
        plain = o.kind if isinstance(o.kind, tuple) else _PLAIN[o.kind]
        parts.append([o.name, draw(st.sampled_from(plain if draw(st.integers(0, 5)) else _VALUES))])
    return [name, *itertools.chain.from_iterable(draw(st.permutations(parts)))]


def _edited(argv_and_edits):
    argv, edits = argv_and_edits
    for at, token in edits:
        argv.insert(at % (len(argv) + 1), token)
    return argv


_argvs = st.one_of(
    _command_lines(), _command_lines(),
    st.tuples(_command_lines(), st.lists(st.tuples(st.integers(0, 20), st.sampled_from(_VOCAB)),
                                         min_size=1, max_size=2)).map(_edited),
    st.lists(st.sampled_from(_VOCAB), max_size=8))


def _argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def _typed(namespace: dict) -> dict:
    return {k: (type(v), v) for k, v in namespace.items()}


@settings(max_examples=600, deadline=None)
@given(argv=_argvs)
def test_the_matcher_reads_what_argparse_reads_or_leaves_it_to_argparse(argv):
    got, want = _match(argv), _argparse_vars(argv)
    assert got is None or want is not None and _typed(vars(got)) == _typed(want)


@pytest.mark.parametrize("argv", [
    ["codec", "nrzi", "--in", "F", "--out", "G"],
    ["codec", "--decode", "--in", "F", "--seed", "007", "4b5b"],
    ["plan", "--ring", "F", "--format", "json", "--manifest", "M"],
    ["simulate", "--duration", "1e3", "--config", "a b", "--seed", "3"],
    ["scrambler", "dump", "--bits", "0"],
    ["fddi2", "plan", "--modes", "i" * 16, "--requests", ""],
    ["rates"],
])
def test_the_matcher_reads_a_plainly_spelled_command_line(argv):
    assert _typed(vars(_match(argv))) == _typed(_argparse_vars(argv))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["codec", "-h"], ["simulate", "--dur", "1", "--config", "F"],
    ["codec", "nrzi", "--in=F"], ["codec", "nrzi", "--", "--in", "F"],
    ["codec", "nrzi", "--in", "F", "--in", "G"], ["rates", "--seed", "-1"],
    ["rates", "--seed", "٣"], ["scrambler", "dump", "--bits", "٣"], ["rates", "--level", "1" * 5000],
    ["simulate", "--config", "F", "--duration", "nan"], ["codec", "xyz", "--in", "F"],
    ["codec", "--in", "F"], ["plan"], ["plan", "--ring"], ["plan", "--ring", "--out", "G"],
    ["plan", "--ring", "-x"], ["rates", "extra"],
])
def test_the_matcher_leaves_other_command_lines_to_argparse(argv):
    assert _match(argv) is None


def test_every_bench_command_line_is_read_without_argparse(monkeypatch):
    """The 1,200 command lines of the benchmark's four workloads (seed 1)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    argvs = [step.argv for workload in workloads.WORKLOADS.values()
             for request in workloads.generate(workload, 1) for step in request.steps
             if step.argv is not None]
    assert len(argvs) == 1200
    for argv in argvs:
        got = _match(argv)
        assert got is not None, argv
        assert _typed(vars(got)) == _typed(_argparse_vars(argv))
