"""End-to-end tests of the fddilab command-line interface."""

import contextlib
import io
import json
import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fddilab.cli import dispatch, emit_report

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
    assert err == "error: bad-config: traffic source station 7 out of range\n"


def test_simulate_negative_or_non_finite_rate_is_bad_config(tmp_path, capsys):
    for rate in (-3, "nan", "inf", float("nan"), float("-inf")):
        code, out, err = _simulate_config(tmp_path, capsys, {
            "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,
            "traffic": [{"station": 1, "class": "async", "rate_mbps": rate}]})
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad-config: rate_mbps must be finite and >= 0")
        assert err.count("\n") == 1


def test_simulate_zero_frame_bytes_is_bad_config(tmp_path, capsys):
    code, _, err = _simulate_config(tmp_path, capsys, {
        "n_stations": 3, "ring_latency_us": 90, "ttrt_us": 360,
        "traffic": [{"station": 1, "class": "async", "rate_mbps": 5,
                     "frame_bytes": 0}]})
    assert code == 1
    assert err == "error: bad-config: frame_bytes must be >= 1, got 0\n"


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
    assert err == "error: bad-ring: connector count must be >= 0, got -1\n"


def test_fddi2_malformed_request_lines_exit_1_with_one_line(tmp_path, capsys):
    for i, line in enumerate(["a 2 3", "a x", "a -4", "a"]):
        requests = tmp_path / f"req{i}.txt"
        requests.write_text(f"tv 96\n{line}  # comment\n")
        code, out, err = run(["fddi2", "plan", "--modes", "piiipipiiiiiiiii",
                              "--requests", str(requests)], capsys)
        _one_error_line(code, err, "bad-requests")
        assert err == ("error: bad-requests: line 2: need 'channel bytes', "
                       f"got {line + '  # comment'!r}\n")
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


def test_loaders_raise_one_input_error_naming_the_file(tmp_path):
    import pytest

    from fddilab import InputError, fddi2, link_planner, mac_sim, phy_codec, spm
    bad = tmp_path / "bad.txt"
    bad.write_text("not a ring\n")
    for load, tag in ((mac_sim.load_config_file, "bad-config"),
                      (link_planner.load_ring_file, "bad-ring"),
                      (fddi2.load_requests_file, "bad-requests")):
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


def _doc(required, optional):
    """A JSON object whose fields are mostly well formed: each value is
    drawn from its own strategy, or one time in eight from _json."""
    def field(good):
        return st.integers(0, 7).flatmap(lambda k: _json if k == 3 else good)
    return st.fixed_dictionaries({k: field(v) for k, v in required.items()},
                                 optional={k: field(v) for k, v in optional.items()})


_traffic = _doc({"station": st.integers(0, 5), "class": st.sampled_from(["sync", "async"])},
                {"rate_mbps": st.sampled_from(["saturated", None, 0, 5, 20.5]),
                 "frame_bytes": st.integers(1, 200), "destination": st.integers(0, 5)})
_sim_docs = st.one_of(_json, *[_doc(
    {"n_stations": st.integers(1, 6), "ring_latency_us": st.integers(1, 100),
     "ttrt_us": st.integers(100, 400)},
    {"sync_allocation_us": st.lists(st.integers(0, 20), max_size=6)
     | st.dictionaries(st.sampled_from("0123456"), st.integers(0, 20)),
     "stripping": st.sampled_from(["source", "destination"]),
     "total_cable_km": st.integers(0, 150), "compliance": st.booleans(),
     "traffic": st.lists(_traffic, max_size=4), "probes": st.integers(0, 20)})] * 3)
_link = _doc({"media": st.sampled_from(["MF", "LCF", "UTP", "SMF", "XYZ"]),
              "length_m": st.integers(1, 3000)},
             {"connectors": st.integers(0, 3),
              "connector_losses_db": st.lists(st.floats(0, 2), max_size=3)})
_ring_docs = st.one_of(_json, _doc({"links": st.lists(_link, max_size=4)},
                                   {"stations": st.integers(0, 600)}))
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
    return code


@settings(max_examples=150, deadline=None)
@given(doc=_sim_docs)
def test_simulate_never_raises_on_random_configs(doc):
    _dispatch_file(["simulate", "--config", "{}", "--duration", "50"], "cfg.json",
                   json.dumps(doc))


@settings(max_examples=150, deadline=None)
@given(doc=_ring_docs)
def test_plan_never_raises_on_random_ring_files(doc):
    _dispatch_file(["plan", "--ring", "{}"], "ring.json", json.dumps(doc))


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
