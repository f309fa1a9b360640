"""Single command-line entry point for all fddilab operations.

Every subcommand is deterministic: randomness flows only from --seed,
no output depends on wall-clock time or ambient state, and re-running
with identical inputs reproduces byte-identical output. Exit codes:
0 success, 1 domain errors (violations and failed verdicts, reported as
data on stdout with a one-line reason on stderr), 2 usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from fractions import Fraction

from . import __version__, fddi2, link_planner, mac_sim, phy_codec, scrambler, spm

CSV = "csv"
JSON = "json"

GIVEN = "given"       # constant carried from the published figures
COMPUTED = "computed"  # value recomputed by this tool


class CliDataError(Exception):
    """Domain error: report printed as data, exit code 1."""

    def __init__(self, reason: str, rows=None, columns=None):
        self.reason = reason
        self.rows = rows or []
        self.columns = columns or []
        super().__init__(reason)


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


def _write(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_digits(path: str, alphabet: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    symbols = "".join(text.split())
    bad = set(symbols) - set(alphabet)
    if bad:
        raise CliDataError(f"bad-input-symbol: {sorted(bad)} not in {alphabet!r}")
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


def build_manifest(subcommand: str, params: dict, input_paths: list[str],
                   seed: int | None) -> dict:
    digests = {}
    for path in input_paths:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            h.update(fh.read())
        digests[path] = h.hexdigest()
    return {
        "subcommand": subcommand,
        "parameters": {k: params[k] for k in sorted(params)},
        "inputs": digests,
        "seed": seed,
        "artifact_version": __version__,
    }


def _maybe_manifest(args, params: dict, input_paths: list[str]):
    if getattr(args, "manifest", None):
        manifest = build_manifest(args.command, params, input_paths,
                                  getattr(args, "seed", None))
        with open(args.manifest, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# --- subcommand handlers -------------------------------------------------

def cmd_rates(args) -> int:
    levels = [args.level] if args.level else list(spm.STS_LEVELS)
    rows = []
    for n in levels:
        try:
            entry = spm.sts_rates(n)
        except spm.UnknownLevelError as exc:
            raise CliDataError(f"unknown-level: {exc}")
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
                raise CliDataError(f"bad-length: {len(bits)} bits not a multiple of 5")
            patterns = [bits[i:i + 5] for i in range(0, len(bits), 5)]
            try:
                nibbles = phy_codec.decode_4b5b(patterns, table)
            except phy_codec.ControlSymbolError as exc:
                raise CliDataError(f"control-symbol: {exc.name} at {exc.position}")
            except phy_codec.InvalidSymbolError as exc:
                raise CliDataError(f"invalid-symbol: {exc.pattern} at {exc.position}")
            text = "".join(f"{n:X}" for n in nibbles) + "\n"
        else:
            nibbles = [int(c, 16) for c in _read_digits(args.infile, "0123456789abcdefABCDEF").upper()]
            symbols = phy_codec.encode_4b5b(nibbles, table)
            text = "".join(s.code for s in symbols) + "\n"
    else:
        if args.decode:
            raise CliDataError(f"unsupported: {args.scheme} decode")
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
        try:
            with open(args.table, "r", encoding="utf-8") as fh:
                table = phy_codec.parse_code_table(fh.read())
        except ValueError as exc:
            raise CliDataError(f"bad-table: {exc}")
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
        raise CliDataError("roundtrip-mismatch: extracted bits differ from input")
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
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            fh.write(report)
    else:
        sys.stderr.write(report)
    _maybe_manifest(args, {}, [args.infile])
    return 0


def cmd_simulate(args) -> int:
    try:
        cfg, load = mac_sim.load_config_file(args.config)
    except (KeyError, ValueError) as exc:
        raise CliDataError(f"bad-config: {exc}")
    try:
        metrics = mac_sim.run_simulation(cfg, load, duration_us=args.duration,
                                         seed=args.seed)
    except mac_sim.ConfigViolationsError as exc:
        rows = [{"metric": "violation", "value": v.rule, "unit": v.detail}
                for v in exc.violations]
        raise CliDataError(
            "config-violations: " + ",".join(v.rule for v in exc.violations),
            rows=rows, columns=["metric", "value", "unit"])
    except ValueError as exc:
        raise CliDataError(f"bad-config: {exc}")
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
        raise CliDataError(
            f"bad-modes: need {fddi2.WBC_COUNT} chars of i/p, got {args.modes!r}")
    modes = [mode_map[c] for c in modes_str]
    requests = []
    with open(args.requests, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, count = line.split()
            requests.append((name, int(count)))
    try:
        allocation = fddi2.allocate(modes, requests)
    except fddi2.CapacityExceededError as exc:
        raise CliDataError(f"capacity-exceeded: {exc}")
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
    with open(args.ring, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    links = []
    for entry in doc.get("links", []):
        losses = entry.get("connector_losses_db")
        if losses is None:
            losses = link_planner.connectors(int(entry.get("connectors", 0)))
        links.append(link_planner.LinkSpec(
            media=entry["media"],
            length_m=float(entry["length_m"]),
            connector_losses_db=tuple(losses),
        ))
    try:
        report = link_planner.validate_ring(links, int(doc.get("stations", 0)))
    except link_planner.UnknownMediaError as exc:
        raise CliDataError(f"unknown-media: {exc}")
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fddilab",
        description="FDDI protocol laboratory: MAC simulation, line codes, "
                    "SONET mapping, FDDI-II cycles, link budgets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=[CSV, JSON], default=CSV)
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--manifest", help="write a run manifest to this file")
        # the one source of randomness; subcommands without randomness
        # accept and ignore it so manifests stay uniform
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("rates", help="SONET/SDH signal hierarchy table")
    p.add_argument("--level", type=int, help="single STS level")
    common(p)
    p.set_defaults(handler=cmd_rates)

    p = sub.add_parser("codec", help="4b/5b, NRZI and MLT-3 line codes")
    p.add_argument("scheme", choices=["4b5b", "nrzi", "mlt3"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--decode", action="store_true")
    p.add_argument("--initial-level", choices=["low", "high"], default="low")
    common(p)
    p.set_defaults(handler=cmd_codec)

    p = sub.add_parser("scrambler", help="keystream dump / 4b5b match analysis")
    p.add_argument("action", choices=["dump", "analyze"])
    p.add_argument("--bits", type=_count, default=scrambler.PERIOD)
    p.add_argument("--table", help="alternate 4b/5b code table file")
    common(p)
    p.set_defaults(handler=cmd_scrambler)

    p = sub.add_parser("sonet-map", help="round-trip code bits through SPE frames")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", help="write the mapping report to this file")
    common(p)
    p.set_defaults(handler=cmd_sonet_map)

    p = sub.add_parser("simulate", help="timed-token ring simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--duration", type=_duration, required=True, help="microseconds")
    common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("fddi2", help="FDDI-II wideband channel planning")
    p.add_argument("action", choices=["plan"])
    p.add_argument("--modes", required=True,
                   help="16 chars, i=isochronous p=packet (WBC 1..16)")
    p.add_argument("--requests", required=True,
                   help="file of 'channel bytes' lines")
    common(p)
    p.set_defaults(handler=cmd_fddi2_plan)

    p = sub.add_parser("plan", help="validate a mixed-media ring plan")
    p.add_argument("--ring", required=True, help="ring description JSON")
    common(p)
    p.set_defaults(handler=cmd_plan)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except CliDataError as exc:
        if exc.rows:
            sys.stdout.write(emit_report(exc.rows, exc.columns, args.format))
        sys.stderr.write(f"error: {exc.reason}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: missing-file: {exc.filename}\n")
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
