"""End-to-end tests of the fddilab command-line interface."""

import json

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
    text = emit_report([{"metric": "a,b", "value": 1.5, "unit": "us"}],
                       ["metric", "value", "unit"], "csv")
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
