"""Seeded workloads of the fddilab benchmark, with their output checks.

A workload turns a seed into a pass: a fixed list of requests whose
input files are generated before any timing starts. A request is a
chain of steps, each either one in-process ``fddilab.cli.dispatch``
call or one library call that the CLI does not expose. The checks run
after the timed region and return a list of problems; an empty list
means the request passed.

The checks lean on oracles written here, independently of the program:
the 4b/5b table, NRZI, MLT-3, the scrambler keystream and the
saturated timed-token efficiency n(T-D)/(nT+D). Digests of the
seed-independent outputs and of one pinned request per workload were
recorded with ``python3 bench/run.py --record-digests`` and live in
``digests.json``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from fddilab import scrambler, spm

DIGESTS_PATH = Path(__file__).with_name("digests.json")
PASS_SIZE = 100     # requests in one pass; p90 then has 10 samples beyond it


@dataclass
class Step:
    """One timed call. ``argv`` runs through dispatch; ``call`` runs as is."""

    name: str
    argv: list[str] | None = None
    call: Callable[[], Any] | None = None
    expect_rc: int = 0
    outputs: tuple[str, ...] = ()   # files the step writes (--out, --report)
    manifest: str | None = None


@dataclass
class StepResult:
    rc: int
    stdout: str = ""
    stderr: str = ""
    files: dict[str, str] = field(default_factory=dict)
    manifest: dict | None = None
    value: Any = None


@dataclass
class Request:
    files: dict[str, str]           # relative path -> content, written untimed
    steps: list[Step]
    meta: dict[str, Any]            # generator facts the checks use


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[random.Random, str], Request]
    check: Callable[[Request, list[StepResult]], list[str]]
    counts: Callable[[Request, list[StepResult]], dict[str, int]]
    pinned_digests: bool            # pinned request checked by recorded digests


def write_inputs(requests: list[Request]) -> None:
    """Write each request's input files, relative to the current directory."""
    for request in requests:
        for path, text in request.files.items():
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            Path(path).write_text(text, encoding="utf-8")


def generate(workload: Workload, seed: int, size: int | None = None) -> list[Request]:
    """The seeded pass: the same seed always gives the same inputs."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [workload.make(rng, f"r{i:03d}")
            for i in range(size or PASS_SIZE)]


def pinned(workload: Workload) -> Request:
    """The seed-independent request whose outputs have recorded digests."""
    return workload.make(random.Random(f"{workload.name}:pinned"), "pinned")


def output_digests(request: Request, results: list[StepResult]) -> dict[str, str]:
    """sha256 of each step's stdout and of each file it wrote."""
    out = {}
    for step, res in zip(request.steps, results):
        if step.argv is None:
            continue
        out[f"{step.name}/stdout"] = _sha(res.stdout)
        for path in step.outputs:
            out[f"{step.name}/{Path(path).name}"] = _sha(res.files.get(path, ""))
    return out


@functools.cache
def recorded_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_sha(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_steps(request: Request, results: list[StepResult]) -> list[str]:
    """Exit codes and manifests, common to every workload."""
    problems = []
    for step, res in zip(request.steps, results):
        if step.argv is None:
            continue
        if res.rc != step.expect_rc:
            problems.append(f"{step.name}: exit {res.rc}, expected "
                            f"{step.expect_rc}: {res.stderr.strip()[:200]}")
        if step.manifest:
            problems += _check_manifest(step, res.manifest)
    return problems


def _check_manifest(step: Step, manifest: dict | None) -> list[str]:
    if manifest is None:
        return [f"{step.name}: no manifest written"]
    inputs = [step.argv[i + 1] for i, arg in enumerate(step.argv)
              if arg in ("--in", "--config", "--ring", "--requests", "--table")]
    want = {path: _file_sha(path) for path in inputs}
    problems = []
    if manifest.get("subcommand") != step.argv[0]:
        problems.append(f"{step.name}: manifest subcommand "
                        f"{manifest.get('subcommand')!r}")
    if manifest.get("inputs") != want:
        problems.append(f"{step.name}: manifest input digests differ")
    return problems


def _csv_metrics(text: str) -> dict[str, str]:
    rows = csv.DictReader(io.StringIO(text))
    return {row["metric"]: row["value"] for row in rows}


# --- oracles, written independently of the program ---------------------

CODE_4B5B = ("11110", "01001", "10100", "10101", "01010", "01011", "01110",
             "01111", "10010", "10011", "10110", "10111", "11010", "11011",
             "11100", "11101")


def encode_4b5b(hex_digits: str) -> str:
    return "".join(CODE_4B5B[int(c, 16)] for c in hex_digits)


def nrzi(bits: str) -> str:
    level, out = 0, []
    for b in bits:
        level ^= b == "1"
        out.append("1" if level else "0")
    return "".join(out)


def mlt3(bits: str) -> str:
    phase, out = 0, []
    for b in bits:
        if b == "1":
            phase = (phase + 1) % 4
        out.append("0+0-"[phase])
    return "".join(out)


def _lfsr_period() -> list[int]:
    reg = [1] * 7                      # 1 + x^6 + x^7, all-ones seed
    out = []
    for _ in range(127):
        out.append(reg[6])
        reg = [reg[5] ^ reg[6]] + reg[:6]
    return out


KEYSTREAM_PERIOD = _lfsr_period()


def keystream(n: int) -> list[int]:
    reps = -(-n // 127)
    return (KEYSTREAM_PERIOD * reps)[:n]


def saturated_efficiency(n: int, t_us: float, d_us: float) -> float:
    return n * (t_us - d_us) / (n * t_us + d_us)


# --- ring_saturated ---------------------------------------------------
# Why: every token visit takes the bulk-accounting branch of send_frames,
# so the cost is the per-visit Fraction arithmetic and the one-entry
# heapq of the simulator core. There are no arrivals and no probes, and
# the output is exact: the pinned request is checked by digest, every
# request against n(T-D)/(nT+D) within 2%, byte conservation and the 2T
# rotation bound (Sevcik & Johnson, IEEE TSE 1987). A request simulates
# 100 ms, about 1.2k token visits.

SAT_STATIONS = 50
SAT_D_US = 1000
SAT_T_US = 4000
SAT_FRAME_BYTES = 100
SAT_DURATION_US = 100_000


def make_ring_saturated(rng: random.Random, d: str) -> Request:
    sync_stations = sorted(rng.sample(range(SAT_STATIONS), 2))
    alloc = {str(s): rng.randrange(100, 701, 50) for s in sync_stations}
    traffic = [{"station": i, "class": "async", "rate_mbps": "saturated",
                "frame_bytes": SAT_FRAME_BYTES} for i in range(SAT_STATIONS)]
    traffic += [{"station": s, "class": "sync", "rate_mbps": "saturated",
                 "frame_bytes": SAT_FRAME_BYTES} for s in sync_stations]
    config = {"n_stations": SAT_STATIONS, "ring_latency_us": SAT_D_US,
              "ttrt_us": SAT_T_US, "sync_allocation_us": alloc,
              "traffic": traffic}
    cfg, out = f"{d}/ring.json", f"{d}/report.csv"
    argv = ["simulate", "--config", cfg, "--duration", str(SAT_DURATION_US),
            "--seed", str(rng.randrange(1 << 30)), "--out", out]
    return Request(files={cfg: json.dumps(config, indent=1)},
                   steps=[Step("simulate", argv, outputs=(out,))],
                   meta={"frame_bytes": {"sync": SAT_FRAME_BYTES,
                                         "async": SAT_FRAME_BYTES},
                         "t_us": SAT_T_US})


def check_ring_saturated(request: Request, results: list[StepResult]) -> list[str]:
    problems = check_steps(request, results)
    if problems:
        return problems
    m = _csv_metrics(results[0].files[request.steps[0].outputs[0]])
    want = saturated_efficiency(SAT_STATIONS, SAT_T_US, SAT_D_US)
    if abs(float(m["throughput"]) - want) > 0.02 * want:
        problems.append(f"throughput {m['throughput']} not within 2% of {want:.6f}")
    return problems + _check_ring_invariants(request, m)


def _check_ring_invariants(request: Request, m: dict[str, str]) -> list[str]:
    problems = []
    for cls, frame in request.meta["frame_bytes"].items():
        sent = int(m[f"{cls}_bytes_sent"])
        delivered = int(m[f"{cls}_bytes_delivered"])
        flight = int(m[f"{cls}_frames_in_flight"])
        if sent != delivered + flight * frame:
            problems.append(f"{cls}: sent {sent} != delivered {delivered} "
                            f"+ {flight} x {frame} in flight")
    two_t = 2 * request.meta["t_us"]
    if not 0 < float(m["max_sync_gap"]) <= two_t:
        problems.append(f"max_sync_gap {m['max_sync_gap']} outside (0, 2T={two_t}]")
    if int(m["token_visits"]) <= 0:
        problems.append("no token visits")
    return problems


def counts_ring(request: Request, results: list[StepResult]) -> dict[str, int]:
    m = _csv_metrics(results[0].files[request.steps[0].outputs[0]])
    return {"mac_sim.token_visits": int(m["token_visits"]),
            "mac_sim.bytes_sent": int(m["sync_bytes_sent"]) + int(m["async_bytes_sent"])}


# --- ring_poisson -----------------------------------------------------
# Why: the same simulator used differently. Poisson sync traffic on every
# 10th station and Poisson async traffic on every station, at about 65%
# offered load, with a fresh --seed per request and 2000 access-delay
# probes. The cost is the per-frame loop, _Queue arrival generation and
# bisect on float times, arrivals_log and probe sampling; the integer-tick
# and merged-frame-loop work shows here and not on ring_saturated. The
# checks are invariants, not digests, so that a documented change in
# arrival rounding is not counted as a failure. A request simulates 20 ms,
# about 400 token visits.

POI_STATIONS = 50
POI_D_US = 1000
POI_T_US = 4000
POI_SYNC_EVERY = 10
POI_SYNC_FRAME_BYTES = 200
POI_ASYNC_FRAME_BYTES = 500
POI_SYNC_ALLOC_US = 100
POI_LOAD_MBPS = 65.0
POI_DURATION_US = 20_000
POI_PROBES = 2000


def make_ring_poisson(rng: random.Random, d: str) -> Request:
    sync_stations = range(0, POI_STATIONS, POI_SYNC_EVERY)
    sync_rate = round(rng.uniform(1.5, 2.5), 3)
    async_share = POI_LOAD_MBPS - sync_rate * len(sync_stations)
    weights = [rng.uniform(0.8, 1.2) for _ in range(POI_STATIONS)]
    scale = async_share / sum(weights)
    traffic = []
    for s in range(POI_STATIONS):
        if s in sync_stations:
            traffic.append({"station": s, "class": "sync", "rate_mbps": sync_rate,
                            "frame_bytes": POI_SYNC_FRAME_BYTES})
        traffic.append({"station": s, "class": "async",
                        "rate_mbps": round(weights[s] * scale, 4),
                        "frame_bytes": POI_ASYNC_FRAME_BYTES})
    config = {"n_stations": POI_STATIONS, "ring_latency_us": POI_D_US,
              "ttrt_us": POI_T_US,
              "sync_allocation_us": {str(s): POI_SYNC_ALLOC_US for s in sync_stations},
              "traffic": traffic, "probes": POI_PROBES}
    cfg, out = f"{d}/ring.json", f"{d}/report.csv"
    argv = ["simulate", "--config", cfg, "--duration", str(POI_DURATION_US),
            "--seed", str(rng.randrange(1 << 30)), "--out", out]
    offered = sum(t["rate_mbps"] for t in traffic)
    expected_frames = sum(t["rate_mbps"] * POI_DURATION_US / (8 * t["frame_bytes"])
                          for t in traffic)
    return Request(files={cfg: json.dumps(config, indent=1)},
                   steps=[Step("simulate", argv, outputs=(out,))],
                   meta={"frame_bytes": {"sync": POI_SYNC_FRAME_BYTES,
                                         "async": POI_ASYNC_FRAME_BYTES},
                         "t_us": POI_T_US, "offered_mbps": offered,
                         "expected_frames": expected_frames})


def check_ring_poisson(request: Request, results: list[StepResult]) -> list[str]:
    problems = check_steps(request, results)
    if problems:
        return problems
    m = _csv_metrics(results[0].files[request.steps[0].outputs[0]])
    # Bytes sent over the whole run cannot exceed the bytes that arrived.
    # Arrivals are Poisson, so allow five standard deviations of the
    # frame count above the offered load.
    sent_bits = 8 * (int(m["sync_bytes_sent"]) + int(m["async_bytes_sent"]))
    offered_bits = request.meta["offered_mbps"] * POI_DURATION_US
    slack = 1 + 5 / math.sqrt(request.meta["expected_frames"])
    if sent_bits > offered_bits * slack:
        problems.append(f"sent {sent_bits} bits > offered {offered_bits:.0f} x {slack:.3f}")
    mean, worst = m["mean_access_delay"], m["max_access_delay"]
    if not (mean and worst and 0 <= float(mean) <= float(worst) <= 2 * POI_T_US):
        problems.append(f"access delay mean {mean!r} max {worst!r} outside [0, 2T]")
    return problems + _check_ring_invariants(request, m)


# --- line_path --------------------------------------------------------
# Why: the physical and SONET layers, with the simulator idle. A fresh
# hex input of 1500 nibbles (7.5k code bits, one SPE frame) goes through
# 4b/5b encode and decode, NRZI, MLT-3, the sonet-map round trip and a
# keystream dump of the same length, then through a library step the CLI
# does not expose: map_fddi, frame_bits and scramble applied twice to each
# frame. The frame scramble is most of the time.

LINE_NIBBLES = 1500
LINE_WRAP = 64
FRAME_BITS = spm.SPE_BYTES * 8


def _scramble_frames(code_bits: list[int]) -> list[tuple[list[int], list[int], list[int]]]:
    frames = spm.map_fddi(code_bits, spm.build_spe_layout())
    out = []
    for frame in frames:
        bits = spm.frame_bits(frame)
        once = scrambler.scramble(bits)
        out.append((bits, once, scrambler.scramble(once)))
    return out


def make_line_path(rng: random.Random, d: str) -> Request:
    digits = "".join(rng.choice("0123456789abcdefABCDEF") for _ in range(LINE_NIBBLES))
    text = "\n".join(digits[i:i + LINE_WRAP]
                     for i in range(0, len(digits), LINE_WRAP)) + "\n"
    code = encode_4b5b(digits)
    code_bits = [int(c) for c in code]
    hexf, bits, dec = f"{d}/in.hex", f"{d}/bits.txt", f"{d}/dec.hex"
    nrz, ml3, back = f"{d}/nrzi.txt", f"{d}/mlt3.txt", f"{d}/bits2.txt"
    rep, ks = f"{d}/map.csv", f"{d}/keystream.txt"
    steps = [
        Step("encode", ["codec", "4b5b", "--in", hexf, "--out", bits], outputs=(bits,)),
        Step("decode", ["codec", "4b5b", "--decode", "--in", bits, "--out", dec],
             outputs=(dec,)),
        Step("nrzi", ["codec", "nrzi", "--in", bits, "--out", nrz], outputs=(nrz,)),
        Step("mlt3", ["codec", "mlt3", "--in", bits, "--out", ml3], outputs=(ml3,)),
        Step("sonet-map", ["sonet-map", "--in", bits, "--out", back, "--report", rep],
             outputs=(back, rep)),
        Step("dump", ["scrambler", "dump", "--bits", str(len(code)), "--out", ks],
             outputs=(ks,)),
        Step("scramble-frames", call=lambda: _scramble_frames(code_bits)),
    ]
    return Request(files={hexf: text}, steps=steps,
                   meta={"digits": digits.upper(), "code": code})


def check_line_path(request: Request, results: list[StepResult]) -> list[str]:
    problems = check_steps(request, results)
    if problems:
        return problems
    code, digits = request.meta["code"], request.meta["digits"]
    files = {}
    for res in results:
        files.update((Path(p).name, text) for p, text in res.files.items())
    expect = {
        "bits.txt": code + "\n",
        "dec.hex": digits + "\n",
        "nrzi.txt": nrzi(code) + "\n",
        "mlt3.txt": mlt3(code) + "\n",
        "bits2.txt": code + "\n",
        "keystream.txt": "".join(map(str, keystream(len(code)))) + "\n",
    }
    for name, text in expect.items():
        if files.get(name) != text:
            problems.append(f"{name} differs from the oracle")
    report = _csv_metrics(files.get("map.csv", ""))
    frames = results[-1].value
    if report.get("roundtrip") != "ok" or report.get("frames") != str(len(frames)):
        problems.append(f"sonet-map report {report.get('roundtrip')!r}, "
                        f"frames {report.get('frames')!r} vs {len(frames)}")
    key = keystream(FRAME_BITS)
    for i, (bits, once, twice) in enumerate(frames):
        if len(bits) != FRAME_BITS:
            problems.append(f"frame {i}: {len(bits)} bits")
        elif once != [b ^ k for b, k in zip(bits, key)] or twice != bits:
            problems.append(f"frame {i}: scramble is not the keystream involution")
    return problems


def counts_line_path(request: Request, results: list[StepResult]) -> dict[str, int]:
    frames = results[-1].value
    report = _csv_metrics(next(text for res in results for path, text in res.files.items()
                               if path.endswith("/map.csv")))
    return {"scrambler.bits": len(request.meta["code"])
                              + sum(len(a) + len(b) for a, b, _ in frames),
            "spm.frames": int(report["frames"]) + len(frames)}


# --- plan_mix ---------------------------------------------------------
# Why: the only workload that measures fddi2 and link_planner. Each
# request is one planning session with --manifest: plan --ring on a mixed
# ring of about 60 links, some failing (exit 1 expected), fddi2 plan on
# seeded modes and requests, rates and scrambler analyze. Argument
# parsing, report formatting and manifest hashing in fddilab.cli are the
# largest share, so this is the control workload for CLI changes.
# fddi2 plan runs with the default CSV format: with --format json it
# raises TypeError on its Fraction kbps column at the commit that defined
# this benchmark.

PLAN_MAX_M = {"MF": 2000, "LCF": 500, "SMF": 40000, "STP_COAX": 100,
              "UTP": 50, "FIBER_200": 500}   # media_table.txt length limits
PLAN_PASS_M = 5000                           # passing links stay short
PLAN_LINKS = (55, 66)
PLAN_FAIL_SHARE = 0.1
ANALYZE_LENGTHS = {"with_fragments": 58, "whole_symbol": 50}


def make_plan_mix(rng: random.Random, d: str) -> Request:
    links, verdicts = [], []
    for _ in range(rng.randrange(*PLAN_LINKS)):
        media = rng.choice(sorted(PLAN_MAX_M))
        fail = rng.random() < PLAN_FAIL_SHARE
        limit = PLAN_MAX_M[media]
        length = (limit * rng.uniform(1.1, 1.5) if fail
                  else min(limit, PLAN_PASS_M) * rng.uniform(0.2, 1.0))
        links.append({"media": media, "length_m": round(length, 1),
                      "connectors": rng.randrange(3)})
        verdicts.append("fail" if fail else "pass")
    if "fail" not in verdicts:
        links[0]["length_m"] = round(PLAN_MAX_M[links[0]["media"]] * 1.2, 1)
        verdicts[0] = "fail"
    modes = "".join(rng.choice("iip") for _ in range(16))
    if "i" not in modes:
        modes = "i" + modes[1:]
    capacity = 96 * modes.count("i")
    channels, lines = {}, ["# channel bytes-per-cycle"]
    while True:
        count = rng.choice((2, 2, 2, 8, 24, 48))
        if sum(channels.values()) + count > capacity or len(channels) >= 40:
            break
        name = f"ch{len(channels):02d}"
        channels[name] = count
        lines.append(f"{name} {count}")
    ring, reqs = f"{d}/ring.json", f"{d}/requests.txt"
    steps = [
        Step("plan", ["plan", "--ring", ring, "--format", "json",
                      "--manifest", f"{d}/plan.manifest"], expect_rc=1,
             manifest=f"{d}/plan.manifest"),
        Step("fddi2", ["fddi2", "plan", "--modes", modes, "--requests", reqs,
                       "--manifest", f"{d}/fddi2.manifest"],
             manifest=f"{d}/fddi2.manifest"),
        Step("rates", ["rates", "--format", "json",
                       "--manifest", f"{d}/rates.manifest"],
             manifest=f"{d}/rates.manifest"),
        Step("analyze", ["scrambler", "analyze", "--format", "json",
                         "--manifest", f"{d}/analyze.manifest"],
             manifest=f"{d}/analyze.manifest"),
    ]
    files = {ring: json.dumps({"stations": len(links), "links": links}, indent=1),
             reqs: "\n".join(lines) + "\n"}
    return Request(files=files, steps=steps,
                   meta={"verdicts": verdicts, "modes": modes, "channels": channels})


def check_plan_mix(request: Request, results: list[StepResult]) -> list[str]:
    problems = check_steps(request, results)
    if problems:
        return problems
    plan, fddi2_out, rates, analyze = (r.stdout for r in results)
    seen: dict[Any, set[str]] = {}
    for row in json.loads(plan):
        seen.setdefault(row["link"], set()).add(row["verdict"])
    for i, verdict in enumerate(request.meta["verdicts"]):
        if verdict not in seen.get(i, set()) or seen[i] - {verdict, "warn"}:
            problems.append(f"link {i}: verdicts {sorted(seen.get(i, ()))}, "
                            f"expected {verdict}")
    if seen.get("ring") != {"fail"}:
        problems.append(f"ring verdict {seen.get('ring')}")
    problems += _check_fddi2(request.meta, fddi2_out)
    digests = recorded_digests()["constant"]
    if _sha(rates) != digests["rates"]:
        problems.append("rates output differs from the recorded digest")
    if _sha(analyze) != digests["analyze"]:
        problems.append("scrambler analyze output differs from the recorded digest")
    lengths = {row["model"]: row["length_bits"] for row in json.loads(analyze)}
    if lengths != ANALYZE_LENGTHS:
        problems.append(f"analyze lengths {lengths}")
    return problems


def _check_fddi2(meta: dict, text: str) -> list[str]:
    granted: dict[str, int] = {}
    per_wbc: dict[str, int] = {}
    packet = 0
    for row in csv.DictReader(io.StringIO(text)):
        if row["mode"] == "packet":
            packet += 1
            continue
        per_wbc[row["wbc"]] = per_wbc.get(row["wbc"], 0) + int(row["bytes"])
        if not row["channel"].startswith("("):
            granted[row["channel"]] = granted.get(row["channel"], 0) + int(row["bytes"])
    problems = []
    if granted != meta["channels"]:
        problems.append("fddi2 grants differ from the requests")
    if packet != meta["modes"].count("p") or set(per_wbc.values()) - {96}:
        problems.append("fddi2 wideband channels do not add up to 96 bytes each")
    return problems


def counts_none(request: Request, results: list[StepResult]) -> dict[str, int]:
    return {}


WORKLOADS = {w.name: w for w in (
    Workload("ring_saturated", make_ring_saturated, check_ring_saturated, counts_ring, True),
    Workload("ring_poisson", make_ring_poisson, check_ring_poisson, counts_ring, False),
    Workload("line_path", make_line_path, check_line_path, counts_line_path, True),
    Workload("plan_mix", make_plan_mix, check_plan_mix, counts_none, True),
)}
