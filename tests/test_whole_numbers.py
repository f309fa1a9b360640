"""Integer fields of the input files take whole numbers only: 4.0 reads
as 4, and 4.5 exits 1 naming the field instead of reading as 4."""

import json

import pytest

from fddilab import whole
from fddilab.cli import dispatch

RING = {"n_stations": 4, "ring_latency_us": 100, "ttrt_us": 400}
SOURCE = {"station": 1, "class": "async", "rate_mbps": 20, "frame_bytes": 100,
          "destination": 3}
PLAN = {"stations": 12, "links": [{"media": "LCF", "length_m": 450, "connectors": 2}]}


def run(argv, capsys):
    code = dispatch([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _simulate(tmp_path, capsys, doc):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    return run(["simulate", "--config", config, "--duration", "2000", "--seed", "3"],
               capsys)


def _plan(tmp_path, capsys, doc):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(doc))
    return run(["plan", "--ring", ring], capsys)


def _set(doc, name, value):
    """Set the field that an error message names, e.g. traffic[0].station."""
    where, _, key = name.rpartition(".")
    (doc[where[:-3]][0] if where else doc)[key] = value


@pytest.mark.parametrize("name,value", [
    ("n_stations", 4.5), ("probes", 10.7), ("traffic[0].station", 0.9),
    ("traffic[0].frame_bytes", 99.9), ("traffic[0].destination", 2.5)])
def test_non_integral_config_field_is_bad_config(name, value, tmp_path, capsys):
    doc = {**RING, "traffic": [dict(SOURCE)]}
    _set(doc, name, value)
    code, out, err = _simulate(tmp_path, capsys, doc)
    assert (code, out) == (1, "")
    assert err == f"error: bad-config: {name}: need a whole number, got {value!r}\n"


@pytest.mark.parametrize("name,value", [("links[0].connectors", 2.7), ("stations", 4.5)])
def test_non_integral_ring_field_is_bad_ring(name, value, tmp_path, capsys):
    doc = json.loads(json.dumps(PLAN))
    _set(doc, name, value)
    code, out, err = _plan(tmp_path, capsys, doc)
    assert (code, out) == (1, "")
    assert err == f"error: bad-ring: {name}: need a whole number, got {value!r}\n"


def test_integral_floats_read_as_their_whole_number(tmp_path, capsys):
    doc = {**RING, "traffic": [dict(SOURCE)], "probes": 20}
    floats = {**RING, "n_stations": 4.0, "probes": 20.0,
              "traffic": [{**SOURCE, "station": 1.0, "frame_bytes": 100.0,
                           "destination": 3.0}]}
    assert _simulate(tmp_path, capsys, floats) == _simulate(tmp_path, capsys, doc)
    ring = json.loads(json.dumps(PLAN))
    ring["stations"], ring["links"][0]["connectors"] = 12.0, 2.0
    assert _plan(tmp_path, capsys, ring) == _plan(tmp_path, capsys, PLAN)


def test_whole():
    assert whole(4) == whole(4.0) == whole("4") == 4
    for bad in (4.5, -0.1, float("nan"), float("inf"), "4.5", None):
        with pytest.raises((ValueError, TypeError, OverflowError)):
            whole(bad)
