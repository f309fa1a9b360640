"""fddilab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The runner writes the
workload's seeded pass of 100 requests into ``.bench_work/``, then
drives ``fddilab.cli.dispatch`` in this one process with a closed loop:
each request starts when the previous one ends. It cycles through the
pass until ``--seconds`` have gone by and every request has run, checks
every output, and prints each metric with its unit. Times are
calibrated to the calm host (``hostspeed.py``): the host is shared and
its speed swings too much for raw times to compare. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; ``failed / attempted`` is the fail ratio.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs whole passes untraced for half the time, then
as many passes with every layer's public functions wrapped
(``spans.py``), and reports the per-layer metrics; the spans are written
to ``.bench_work/spans-<workload>-seed<N>.jsonl``.

``python3 bench/run.py --record-digests`` rewrites ``digests.json`` from
the current program.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_EVERY = 1.0           # seconds between set-up samples
MIN_SETUP_SAMPLES = 5
SAMPLE_COUNTS = ("mac_sim.token_visits", "mac_sim.bytes_sent",
                 "scrambler.bits", "spm.frames")

# Timed in a fresh interpreter, so its own start-up is left out, and
# bracketed by reference times taken in that same interpreter.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from hostspeed import ref_time
ref_time()
before = ref_time()
t0 = time.perf_counter()
import fddilab.cli
from fddilab import link_planner, phy_codec
phy_codec.default_code_table()
link_planner.default_media_table()
seconds = time.perf_counter() - t0
print(seconds, before, ref_time())
"""


class SetupSampler:
    """Times set-up in fresh interpreters, spread over the run.

    Host speed drifts over seconds, so one sample is taken whenever
    ``SETUP_EVERY`` seconds have passed, not all of them at once, and
    each is calibrated to the calm host.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf
        self.sample()
        self.samples.clear()                # the first may compile bytecode

    def sample(self) -> None:
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE,
                               str(SRC), str(BENCH)],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        seconds, before, after = map(float, proc.stdout.split())
        self.samples.append(hostspeed.calibrate(seconds, before, after))
        self.last = perf_counter()

    def __call__(self) -> None:
        if perf_counter() - self.last >= SETUP_EVERY:
            self.sample()

    def median(self) -> float:
        while len(self.samples) < MIN_SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


class Runner:
    """Runs one workload's requests and keeps the tallies of a run."""

    def __init__(self, workload, requests):
        self.workload = workload
        self.requests = requests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest: dict[int, str] = {}

    def run_request(self, request):
        """One timed request; returns (latency, step results, problems)."""
        from fddilab import cli
        from workloads import StepResult

        results = []
        t0 = perf_counter()
        try:
            for step in request.steps:
                if step.call is not None:
                    results.append(StepResult(0, value=step.call()))
                    continue
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.dispatch(step.argv)
                results.append(StepResult(rc, out.getvalue(), err.getvalue()))
        except Exception:
            return perf_counter() - t0, results, [
                "escaped exception:\n" + traceback.format_exc()]
        latency = perf_counter() - t0
        try:
            for step, res in zip(request.steps, results):
                for path in step.outputs + ((step.manifest,) if step.manifest else ()):
                    if os.path.exists(path):
                        res.files[path] = Path(path).read_text(encoding="utf-8")
                if step.manifest in res.files:
                    res.manifest = json.loads(res.files[step.manifest])
            problems = self.workload.check(request, results)
        except Exception:
            problems = ["check raised:\n" + traceback.format_exc()]
        return latency, results, problems

    def tally(self, key, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name} request {key}: {p}"
                              for p in problems]

    def run_pinned(self, request, digests: dict | None) -> None:
        """Warm-up request with fixed inputs, checked against recorded digests."""
        from workloads import output_digests

        _, results, problems = self.run_request(request)
        if digests is not None and not problems:
            got = output_digests(request, results)
            problems = [f"{k}: sha256 differs from the recorded digest"
                        for k in sorted(digests) if got.get(k) != digests[k]]
        self.tally("pinned", problems)

    def run_loop(self, seconds: float, passes: int | None = None,
                 tracer=None, between=None):
        """Cycle through the requests in order, each after the last ends.

        Stops after ``passes`` whole passes, or else once ``seconds`` have
        passed and every request has run. ``between`` is called untimed
        between requests. Returns each request's raw and calibrated
        latencies, in the order run, and the output counts of each whole
        pass.

        Each request starts from a collected heap, as it would in a fresh
        CLI process: the benchmark's own objects are frozen out of the
        collector's reach and the garbage of earlier requests is
        collected untimed, so the collector's work in a request does not
        depend on what ran before it.
        """
        k = len(self.requests)
        latencies: list[list[float]] = [[] for _ in range(k)]
        calibrated: list[list[float]] = [[] for _ in range(k)]
        counts: list[dict[str, int]] = []
        pass_counts: dict[str, int] = {}
        gc.collect()
        gc.freeze()
        start = perf_counter()
        n = 0
        while True:
            i = n % k
            if tracer is not None:
                tracer.request = n
            gc.collect()
            ref_before = hostspeed.ref_time()
            latency, results, problems = self.run_request(self.requests[i])
            ref_after = hostspeed.ref_time()
            latencies[i].append(latency)
            calibrated[i].append(hostspeed.calibrate(latency, ref_before, ref_after))
            if not problems:
                problems = self.check_repeat(i, results)
            if not problems:
                for key, v in self.output_counts(self.requests[i], results).items():
                    pass_counts[key] = pass_counts.get(key, 0) + v
            self.tally(i, problems)
            n += 1
            if n % k == 0:
                counts.append(pass_counts)
                pass_counts = {}
            if passes is not None:
                if n == passes * k:
                    break
            elif n >= k and perf_counter() - start >= seconds:
                break
            if between is not None:
                between()
        return latencies, calibrated, counts

    def output_counts(self, request, results) -> dict[str, int]:
        """Work counts read from the outputs, plus the bytes the CLI wrote."""
        counts = self.workload.counts(request, results)
        counts["cli.out_bytes"] = sum(
            len(res.stdout.encode()) + sum(len(t.encode()) for t in res.files.values())
            for step, res in zip(request.steps, results) if step.argv is not None)
        return counts

    def check_repeat(self, index: int, results) -> list[str]:
        """A request run again must give the same bytes."""
        h = hashlib.sha256()
        for res in results:
            h.update(repr((res.rc, res.stdout, sorted(res.files.items()))).encode())
        digest = h.hexdigest()
        first = self.first_digest.setdefault(index, digest)
        return [] if first == digest else ["output differs from its first run"]


def layer_metrics(tracer, scale: list[list[float]], names: list[str],
                  overhead_s: float, out_bytes: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced passes.

    ``scale[i][p]`` calibrates request ``i`` of pass ``p`` to the calm
    host. A layer's time is, like ``wall_s``, a sum over the pass of each
    request's median over the passes of its calibrated self time in that
    layer's spans. Counts are per pass; rates divide them by the time.
    """
    pass_size = len(scale)
    passes = 1 + max(s.request for s in tracer.spans) // pass_size
    own_by: dict[str, list[list[float]]] = {}     # name -> request -> pass
    counts: list[dict[str, int]] = [{} for _ in range(passes)]
    for span, own in zip(tracer.spans, tracer.self_times()):
        p, i = divmod(span.request, pass_size)
        if span.name not in own_by:
            own_by[span.name] = [[0.0] * passes for _ in range(pass_size)]
        own_by[span.name][i][p] += own * scale[i][p]
        for k, v in (span.counts or {}).items():
            counts[p][k] = counts[p].get(k, 0) + v
    problems = []
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between passes")
    per_pass = dict(counts[0], **{"cli.out_bytes": out_bytes})

    def secs(*spans: str) -> float:
        return sum((statistics.median(per) for name in spans
                    for per in own_by.get(name, ())), 0.0)

    def rate(count: str, *spans: str) -> float:
        busy = secs(*spans)
        return per_pass.get(count, 0) / busy if busy else 0.0

    requested = per_pass.get("mac_sim.probes_requested", 0)
    derived = {
        "cli.self_s": secs("cli.dispatch"),
        "mac_sim.visits_per_s": rate("mac_sim.token_visits", "mac_sim.run_simulation"),
        "mac_sim.probe_yield": (per_pass.get("mac_sim.probes_measured", 0) / requested
                                if requested else 0.0),
        "phy_codec.bits_per_s": rate("phy_codec.bits", "phy_codec.encode_4b5b",
                                     "phy_codec.decode_4b5b", "phy_codec.nrzi_encode",
                                     "phy_codec.mlt3_encode"),
        "scrambler.bits_per_s": rate("scrambler.bits", "scrambler.scramble",
                                     "scrambler.keystream"),
        "spm.bits_per_s": rate("spm.bits", "spm.map_fddi", "spm.extract_fddi",
                               "spm.frame_bits"),
        "trace.overhead_s": overhead_s,
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith("_s"):
            metrics[name] = secs(name[:-2])
        else:
            metrics[name] = per_pass.get(name, 0)
    return metrics, problems


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            spec: dict, spans_path: Path | None = None,
            pass_size: int | None = None) -> dict:
    """One benchmark run in the current directory; returns the result object.

    Host speed on a shared machine swings by up to a factor of two, over
    seconds to minutes. So each request's latency is the median over the
    passes of the run of its calibrated time, and the percentiles
    describe the request mix. The traced run's overhead compares each
    request's median calibrated time over the same number of passes with
    and without tracing.
    """
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    requests = workloads.generate(wl, seed, pass_size)
    pinned = workloads.pinned(wl)
    workloads.write_inputs([pinned] + requests)

    runner = Runner(wl, requests)
    digests = (workloads.recorded_digests()["pinned"][wl.name]
               if wl.pinned_digests else None)
    runner.run_pinned(pinned, digests)

    problems: list[str] = []
    if not trace:
        setup = SetupSampler()
        _, calibrated, _ = runner.run_loop(seconds, between=setup)
        typical = [statistics.median(c) for c in calibrated]
        values = {
            "setup_s": setup.median(),
            "wall_s": sum(typical),
            "req_p50_ms": 1000 * statistics.median(typical),
            "req_p90_ms": 1000 * statistics.quantiles(typical, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = spec["end_to_end"]
    else:
        _, plain, plain_counts = runner.run_loop(seconds / 2)
        passes = len(plain_counts)
        with spans.Tracer() as tracer:
            raw, traced, traced_counts = runner.run_loop(0, passes=passes, tracer=tracer)
        overhead = sum(statistics.median(t) - statistics.median(p[:passes])
                       for t, p in zip(traced, plain))
        scale = [[c / r for c, r in zip(cal, lat)] for cal, lat in zip(traced, raw)]
        names = spec["per_layer"]
        values, problems = layer_metrics(
            tracer, scale, list(names), overhead,
            traced_counts[0].get("cli.out_bytes", 0))
        for key in SAMPLE_COUNTS:
            seen = {c.get(key, 0) for c in plain_counts + traced_counts}
            seen.add(values[key])
            if len(seen) != 1:
                problems.append(f"{key}: untraced and traced counts differ: {sorted(seen)}")
        if spans_path is not None:
            tracer.write(spans_path)

    problems = runner.problems + problems
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": names[name]}
                    for name in names},
        "problems": problems,
        "samples": len(requests),
    }


def load_spec() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {group: {m["name"]: m["unit"] for m in doc[group]}
            for group in ("end_to_end", "per_layer")}


def record_digests() -> None:
    """Rewrite digests.json from the pinned requests of the current program."""
    import workloads

    recorded = {"constant": {}, "pinned": {}}
    for wl in workloads.WORKLOADS.values():
        request = workloads.pinned(wl)
        workloads.write_inputs([request])
        _, results, _ = Runner(wl, []).run_request(request)
        if wl.pinned_digests:
            recorded["pinned"][wl.name] = workloads.output_digests(request, results)
        if wl.name == "plan_mix":
            digests = recorded["pinned"][wl.name]
            recorded["constant"] = {"rates": digests["rates/stdout"],
                                    "analyze": digests["analyze/stdout"]}
    workloads.DIGESTS_PATH.write_text(json.dumps(recorded, indent=2) + "\n",
                                      encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "fddilab" / "cli.py").is_file():
        print(f"error: no fddilab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if not args.record_digests and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    spec = load_spec()
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        if args.record_digests:
            record_digests()
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec,
                         WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)

    for problem in result.pop("problems")[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'percentile samples':34s} {result.pop('samples'):>16} requests, "
          f"each at its median calibrated time of the run")
    print(f"{'fail_ratio':34s} {result['failed'] / result['attempted']:>16.6g} "
          f"({result['failed']} of {result['attempted']} requests)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
