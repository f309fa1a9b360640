"""Self-tests of the benchmark: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run_passes_every_check(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = run.load_spec()
    result = run.measure(name, 3, 0, False, spec, pass_size=3)
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4            # the pinned request and one pass
    assert set(result["metrics"]) == set(spec["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["ring_saturated", "line_path", "plan_mix"])
def test_small_traced_run_counts_match_untraced(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = run.load_spec()
    spans = tmp_path / "spans.jsonl"
    result = run.measure(name, 3, 0, True, spec, spans, pass_size=2)
    assert result["problems"] == [] and result["correct"]
    assert set(result["metrics"]) == set(spec["per_layer"])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    [request] = workloads.generate(workloads.WORKLOADS[name], 3, 1)
    assert values["cli.requests"] == 2 * sum(s.argv is not None for s in request.steps)
    busy = {"ring_saturated": "mac_sim.token_visits", "line_path": "spm.frames",
            "plan_mix": "link_planner.links"}[name]
    assert values[busy] > 0
    lines = spans.read_text().splitlines()
    assert lines and all(json.loads(line)["self_s"] >= 0 for line in lines)


def test_flipped_bit_in_sonet_map_output_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = workloads.WORKLOADS["line_path"]
    [request] = workloads.generate(wl, 5, 1)
    workloads.write_inputs([request])
    runner = run.Runner(wl, [request])
    _, results, problems = runner.run_request(request)
    assert problems == []
    step = next(i for i, s in enumerate(request.steps) if s.name == "sonet-map")
    path = request.steps[step].outputs[0]
    text = results[step].files[path]
    results[step].files[path] = ("1" if text[0] == "0" else "0") + text[1:]
    assert any("bits2.txt" in p for p in wl.check(request, results))


def test_corrupted_mapping_counts_into_failed(tmp_path, monkeypatch):
    from fddilab import spm

    monkeypatch.chdir(tmp_path)
    extract = spm.extract_fddi

    def flip_one_bit(*args, **kwargs):
        bits = extract(*args, **kwargs)
        bits[0] ^= 1
        return bits

    monkeypatch.setattr(spm, "extract_fddi", flip_one_bit)
    wl = workloads.WORKLOADS["line_path"]
    requests = workloads.generate(wl, 5, 2)
    workloads.write_inputs(requests)
    runner = run.Runner(wl, requests)
    runner.run_loop(0, passes=1)
    assert (runner.attempted, runner.failed) == (2, 2)


def test_calibration_scales_by_the_reference():
    import hostspeed

    calm = hostspeed.REF_CALM_S
    assert hostspeed.calibrate(2.0, calm, calm) == pytest.approx(2.0)
    assert hostspeed.calibrate(2.0, 2 * calm, 2 * calm) == pytest.approx(1.0)
    assert hostspeed.calibrate(2.0, calm, 3 * calm) == pytest.approx(1.0)
    assert hostspeed.ref_time() > 0


def test_one_seed_generates_identical_inputs(tmp_path):
    for wl in workloads.WORKLOADS.values():
        first = workloads.generate(wl, 11)
        again = workloads.generate(wl, 11)
        other = workloads.generate(wl, 12)
        assert [r.files for r in first] == [r.files for r in again]
        assert [r.files for r in first] != [r.files for r in other]
        assert [[s.argv for s in r.steps] for r in first] == \
            [[s.argv for s in r.steps] for r in again]


def test_catalog_names_match_benchmark_json():
    spec = run.load_spec()
    catalog = json.loads((Path(run.__file__).parent / "metrics.json").read_text())
    assert set(catalog["per_layer"]) == set(spec["per_layer"])
    assert set(spec["end_to_end"]) <= set(catalog["end_to_end"])
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plan_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
