"""Single command-line entry point for all fddilab operations.

Every subcommand is deterministic: randomness flows only from --seed,
no output depends on wall-clock time or ambient state, and re-running
with identical inputs reproduces byte-identical output. Exit codes:
0 success, 1 domain errors (violations and failed verdicts, reported as
data on stdout with a one-line reason on stderr), 2 usage errors. Input
files are read by loaders in their modules, which raise InputError;
``dispatch`` alone turns an error into an exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import sys
from fractions import Fraction

from . import (InputError, __version__, fddi2, link_planner, mac_sim, phy_codec,
               read_input, scrambler, spm)

CSV = "csv"
JSON = "json"

GIVEN = "given"       # constant carried from the published figures
COMPUTED = "computed"  # value recomputed by this tool


def emit_report(rows: list[dict], columns: list[str], fmt: str) -> str:
    """Render rows with a stable column order; identical input, identical bytes."""
    if fmt == JSON:
        payload = [{col: row.get(col, "") for col in columns} for row in rows]
        return json.dumps(payload, indent=2, default=float) + "\n"
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(_cell(row.get(col, "")) for col in columns) + "\n")
    return out.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    if isinstance(value, Fraction):
        return format(float(value), ".9g")
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _write(text: str, path: str | None, stream=None):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        (stream or sys.stdout).write(text)


def _read_digits(path: str, alphabet: str) -> str:
    symbols = "".join(read_input(path, "bad-input-symbol").split())
    bad = set(symbols) - set(alphabet)
    if bad:
        raise InputError(f"{sorted(bad)} not in {alphabet!r}", "bad-input-symbol")
    return symbols


_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _read_bits(path: str) -> list[int]:
    return list(_read_digits(path, "01").encode("ascii").translate(_BIT_VALUES))


def _bit_text(bits) -> str:
    return bytes(bits).translate(_BIT_DIGITS).decode("ascii")


def _count(text: str) -> int:
    """argparse type: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"need a non-negative integer, got {text!r}")
    return int(text)


def _duration(text: str) -> float:
    """argparse type: a finite positive number (microseconds)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"need a finite positive number, got {text!r}")
    return value


def _maybe_manifest(args, params: dict, input_paths: list[str]):
    """With --manifest, record the parameters, input digests, seed and version."""
    if not args.manifest:
        return
    digests = {}
    for path in input_paths:
        with open(path, "rb") as fh:
            digests[path] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "subcommand": args.command,
        "parameters": {k: params[k] for k in sorted(params)},
        "inputs": digests,
        "seed": args.seed,
        "artifact_version": __version__,
    }
    _write(json.dumps(manifest, indent=2, sort_keys=True) + "\n", args.manifest)


# --- subcommand handlers -------------------------------------------------

def cmd_rates(args) -> int:
    levels = [args.level] if args.level else list(spm.STS_LEVELS)
    rows = []
    for n in levels:
        entry = spm.sts_rates(n)
        rows.append({
            "sts": f"STS-{entry.sts_level}",
            "oc": entry.oc,
            "stm": entry.stm or "",
            "line_mbps": spm.kbps_to_mbps_str(entry.line_rate_kbps),
            "payload_mbps": spm.kbps_to_mbps_str(entry.payload_rate_kbps),
        })
    _write(emit_report(rows, ["sts", "oc", "stm", "line_mbps", "payload_mbps"],
                       args.format), args.out)
    _maybe_manifest(args, {"level": args.level}, [])
    return 0


def cmd_codec(args) -> int:
    if args.scheme == "4b5b":
        table = phy_codec.default_code_table()
        if args.decode:
            bits = _read_digits(args.infile, "01")
            if len(bits) % 5:
                raise InputError(f"{len(bits)} bits not a multiple of 5", "bad-length")
            patterns = [bits[i:i + 5] for i in range(0, len(bits), 5)]
            nibbles = phy_codec.decode_4b5b(patterns, table)
            text = "".join(f"{n:X}" for n in nibbles) + "\n"
        else:
            nibbles = [int(c, 16) for c in _read_digits(args.infile, "0123456789abcdefABCDEF").upper()]
            symbols = phy_codec.encode_4b5b(nibbles, table)
            text = "".join(s.code for s in symbols) + "\n"
    else:
        if args.decode:
            raise InputError(f"{args.scheme} decode", "unsupported")
        bits = _read_bits(args.infile)
        if args.scheme == "nrzi":
            signal = phy_codec.nrzi_encode(bits, initial_level=args.initial_level)
            text = _bit_text(signal.levels) + "\n"
        else:
            signal = phy_codec.mlt3_encode(bits)
            glyphs = {-1: "-", 0: "0", 1: "+"}
            text = "".join(glyphs[lv] for lv in signal.levels) + "\n"
    _write(text, args.out)
    _maybe_manifest(args, {"scheme": args.scheme, "decode": args.decode},
                    [args.infile])
    return 0


def cmd_scrambler(args) -> int:
    if args.action == "dump":
        _write(_bit_text(scrambler.keystream(args.bits)) + "\n", args.out)
        _maybe_manifest(args, {"action": "dump", "bits": args.bits}, [])
        return 0
    # analyze
    if args.table:
        table = phy_codec.parse_code_table(read_input(args.table, phy_codec.BAD_TABLE))
    else:
        table = phy_codec.default_code_table()
    report = scrambler.longest_valid_match(table)
    rows = []
    for result in (report.with_fragments, report.whole_symbol):
        rows.append({
            "model": result.model,
            "length_bits": result.length_bits,
            "offset": result.offset,
            "polarity": result.polarity,
            "alignment": result.alignment,
            "leading_fragment": result.leading_fragment,
            "symbols": ".".join(result.symbols),
            "trailing_fragment": result.trailing_fragment,
            "provenance": COMPUTED,
        })
    columns = ["model", "length_bits", "offset", "polarity", "alignment",
               "leading_fragment", "symbols", "trailing_fragment", "provenance"]
    _write(emit_report(rows, columns, args.format), args.out)
    _maybe_manifest(args, {"action": "analyze"},
                    [args.table] if args.table else [])
    return 0


def cmd_sonet_map(args) -> int:
    bits = _read_bits(args.infile)
    layout = spm.build_spe_layout()
    frames = spm.map_fddi(bits, layout)
    recovered = spm.extract_fddi(frames, layout)
    _write(_bit_text(recovered) + "\n", args.out)
    if recovered != bits:
        raise InputError("extracted bits differ from input", "roundtrip-mismatch")
    arith = spm.spe_arithmetic_report()
    rows = [
        {"metric": "frames", "value": len(frames), "unit": "count",
         "provenance": COMPUTED},
        {"metric": "capacity_per_frame", "value": layout.capacity_bits,
         "unit": "bits", "provenance": COMPUTED},
        {"metric": "payload_bits", "value": len(bits), "unit": "bits",
         "provenance": COMPUTED},
        {"metric": "max_user_run", "value": max(layout.byte_runs()),
         "unit": "bytes", "provenance": COMPUTED},
        {"metric": "spe_bandwidth_published", "value": spm.spe_bandwidth(),
         "unit": "Mbps", "provenance": GIVEN},
        {"metric": "spe_bandwidth_recomputed",
         "value": float(arith["recomputed_mbps"]), "unit": "Mbps",
         "provenance": COMPUTED},
        {"metric": "roundtrip", "value": "ok", "unit": "",
         "provenance": COMPUTED},
    ]
    report = emit_report(rows, ["metric", "value", "unit", "provenance"],
                         args.format)
    _write(report, args.report, sys.stderr)
    _maybe_manifest(args, {}, [args.infile])
    return 0


def cmd_simulate(args) -> int:
    cfg, load = mac_sim.load_config_file(args.config)
    metrics = mac_sim.run_simulation(cfg, load, duration_us=args.duration,
                                     seed=args.seed)
    rows = [
        {"metric": "throughput", "value": metrics.throughput, "unit": "fraction"},
        {"metric": "duration", "value": metrics.duration_us, "unit": "us"},
        {"metric": "warmup", "value": metrics.warmup_us, "unit": "us"},
        {"metric": "token_visits", "value": metrics.n_token_visits, "unit": "count"},
        {"metric": "sync_bytes_sent", "value": metrics.sync_bytes_sent, "unit": "bytes"},
        {"metric": "async_bytes_sent", "value": metrics.async_bytes_sent, "unit": "bytes"},
        {"metric": "sync_bytes_delivered", "value": metrics.sync_bytes_delivered, "unit": "bytes"},
        {"metric": "async_bytes_delivered", "value": metrics.async_bytes_delivered, "unit": "bytes"},
        {"metric": "sync_frames_in_flight", "value": metrics.sync_frames_in_flight, "unit": "frames"},
        {"metric": "async_frames_in_flight", "value": metrics.async_frames_in_flight, "unit": "frames"},
        {"metric": "max_sync_gap", "value": metrics.max_sync_gap_us, "unit": "us"},
        {"metric": "mean_access_delay", "value": metrics.mean_access_delay_us, "unit": "us"},
        {"metric": "max_access_delay", "value": metrics.max_access_delay_us, "unit": "us"},
    ]
    _write(emit_report(rows, ["metric", "value", "unit"], args.format), args.out)
    _maybe_manifest(args, {"duration": args.duration}, [args.config])
    return 0


def cmd_fddi2_plan(args) -> int:
    mode_map = {"i": fddi2.ISOCHRONOUS, "p": fddi2.PACKET}
    modes_str = args.modes.lower().replace(",", "")
    if len(modes_str) != fddi2.WBC_COUNT or set(modes_str) - set("ip"):
        raise InputError(f"need {fddi2.WBC_COUNT} chars of i/p, got {args.modes!r}",
                         "bad-modes")
    modes = [mode_map[c] for c in modes_str]
    allocation = fddi2.allocate(modes, fddi2.load_requests_file(args.requests))
    per_wbc: dict[int, dict[str, int]] = {}
    for channel, slots in allocation.grants:
        for wbc, _offset in slots:
            per_wbc.setdefault(wbc, {}).setdefault(channel, 0)
            per_wbc[wbc][channel] += 1
    rows = []
    for wbc in range(fddi2.WBC_COUNT):
        mode = allocation.wbc_modes[wbc]
        label = wbc + 1  # channels are presented 1..16
        if mode == fddi2.PACKET:
            rows.append({"wbc": label, "mode": "packet", "channel": "(pool)",
                         "bytes": fddi2.WBC_BYTES,
                         "kbps": fddi2.wbc_bandwidth_kbps()})
            continue
        granted = per_wbc.get(wbc, {})
        for channel, count in granted.items():
            rows.append({"wbc": label, "mode": "isochronous", "channel": channel,
                         "bytes": count,
                         "kbps": fddi2.bytes_per_cycle_to_kbps(count)})
        free = fddi2.WBC_BYTES - sum(granted.values())
        if free:
            rows.append({"wbc": label, "mode": "isochronous", "channel": "(free)",
                         "bytes": free,
                         "kbps": fddi2.bytes_per_cycle_to_kbps(free)})
    _write(emit_report(rows, ["wbc", "mode", "channel", "bytes", "kbps"],
                       args.format), args.out)
    _maybe_manifest(args, {"modes": modes_str}, [args.requests])
    return 0


def cmd_plan(args) -> int:
    links, stations = link_planner.load_ring_file(args.ring)
    report = link_planner.validate_ring(links, stations)
    rows = []
    for i, rep in enumerate(report.links):
        summary = f"{rep.link.media} {rep.link.length_m:g}m"
        if rep.margin_db is not None:
            summary += f" margin={rep.margin_db:g}dB"
        if rep.verdict == "pass":
            rows.append({"link": i, "rule": "-", "verdict": "pass",
                         "detail": summary})
        else:
            for rule in rep.violated_rules:
                name, _, detail = rule.partition(": ")
                rows.append({"link": i, "rule": name, "verdict": "fail",
                             "detail": detail or summary})
        for warning in rep.warnings:
            name, _, detail = warning.partition(": ")
            rows.append({"link": i, "rule": name, "verdict": "warn",
                         "detail": detail})
    if report.ring_rules:
        for rule in report.ring_rules:
            name, _, detail = rule.partition(": ")
            rows.append({"link": "ring", "rule": name, "verdict": "fail",
                         "detail": detail})
    else:
        rows.append({"link": "ring", "rule": "-", "verdict": report.verdict,
                     "detail": f"{len(links)} links"})
    text = emit_report(rows, ["link", "rule", "verdict", "detail"], args.format)
    _write(text, args.out)
    _maybe_manifest(args, {}, [args.ring])
    if report.verdict == "fail":
        sys.stderr.write("error: ring-verdict-fail\n")
        return 1
    return 0


# --- argument parsing -----------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The fddilab argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="fddilab",
        description="FDDI protocol laboratory: MAC simulation, line codes, "
                    "SONET mapping, FDDI-II cycles, link budgets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=[CSV, JSON], default=CSV)
    common.add_argument("--out", help="output file (default stdout)")
    common.add_argument("--manifest", help="write a run manifest to this file")
    # the one source of randomness; subcommands without randomness
    # accept and ignore it so manifests stay uniform
    common.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rates", parents=[common],
                       help="SONET/SDH signal hierarchy table")
    p.add_argument("--level", type=int, help="single STS level")
    p.set_defaults(handler=cmd_rates)

    p = sub.add_parser("codec", parents=[common], help="4b/5b, NRZI and MLT-3 line codes")
    p.add_argument("scheme", choices=["4b5b", "nrzi", "mlt3"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--decode", action="store_true")
    p.add_argument("--initial-level", choices=["low", "high"], default="low")
    p.set_defaults(handler=cmd_codec)

    p = sub.add_parser("scrambler", parents=[common],
                       help="keystream dump / 4b5b match analysis")
    p.add_argument("action", choices=["dump", "analyze"])
    p.add_argument("--bits", type=_count, default=scrambler.PERIOD)
    p.add_argument("--table", help="alternate 4b/5b code table file")
    p.set_defaults(handler=cmd_scrambler)

    p = sub.add_parser("sonet-map", parents=[common],
                       help="round-trip code bits through SPE frames")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", help="write the mapping report to this file")
    p.set_defaults(handler=cmd_sonet_map)

    p = sub.add_parser("simulate", parents=[common], help="timed-token ring simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--duration", type=_duration, required=True, help="microseconds")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fddi2", parents=[common], help="FDDI-II wideband channel planning")
    p.add_argument("action", choices=["plan"])
    p.add_argument("--modes", required=True,
                   help="16 chars, i=isochronous p=packet (WBC 1..16)")
    p.add_argument("--requests", required=True,
                   help="file of 'channel bytes' lines")
    p.set_defaults(handler=cmd_fddi2_plan)

    p = sub.add_parser("plan", parents=[common], help="validate a mixed-media ring plan")
    p.add_argument("--ring", required=True, help="ring description JSON")
    p.set_defaults(handler=cmd_plan)

    return parser


def dispatch(argv: list[str]) -> int:
    """Run one command and return its exit code. An InputError, or a file
    that cannot be read or written, exits 1 with one line on stderr."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InputError as exc:
        if isinstance(exc, mac_sim.ConfigViolationsError):
            rows = [{"metric": "violation", "value": v.rule, "unit": v.detail}
                    for v in exc.violations]
            sys.stdout.write(emit_report(rows, ["metric", "value", "unit"], args.format))
        sys.stderr.write(f"error: {exc.tag}: {exc}\n")
    except OSError as exc:  # missing, a directory, unreadable or unwritable
        tag = "missing-file" if isinstance(exc, FileNotFoundError) else "file-error"
        sys.stderr.write(f"error: {tag}: {exc.filename}: {exc.strerror}\n")
    return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
